//! Ablation: how much does the algebraic simplifier (`docs/ARCHITECTURE.md`
//! — deltas are normalized before costing/materializing) buy at delta-evaluation
//! time? Raw Fig.-4 deltas carry ∅ subterms and degenerate comprehensions;
//! this bench evaluates raw vs simplified deltas for the E4 query suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nrc_bench::e4_cost::suite;
use nrc_core::delta::delta_wrt_rel;
use nrc_core::eval::{eval_query, Env};
use nrc_core::optimize::simplify;
use nrc_core::typecheck::TypeEnv;
use nrc_workloads::SkewGen;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_simplify");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let mut gen = SkewGen::new(17, 1_000_000_000);
    let db = gen.database(&[200, 8]);
    let update = gen.update(db.get("R").unwrap(), &[2, 8], 1);
    let tenv = TypeEnv::from_database(&db);
    for (name, q) in suite() {
        let raw = delta_wrt_rel(&q, "R", &tenv).unwrap();
        let simplified = simplify(&raw, &tenv).unwrap();
        for (label, d) in [("raw", &raw), ("simplified", &simplified)] {
            g.bench_function(BenchmarkId::new(label, name), |b| {
                b.iter(|| {
                    let mut env = Env::new(&db).with_delta("R", update.clone());
                    eval_query(d, &mut env).expect("delta eval")
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
