//! Property tests for the shredding pipeline (§5): Lemma 6 (nesting inverts
//! value shredding), Theorem 8 (shredded execution + nesting ≡ direct
//! evaluation, on full NRC⁺ including input-dependent singletons), and
//! consistency preservation (Lemmas 11–12).

mod common;

use nrc_core::eval::{eval_query, Env};
use nrc_core::generator::{GenConfig, QueryGen};
use nrc_core::shred::values::{nest_bag, shred_bag, LabelGen};
use nrc_core::shred::{
    bind_shredded_database, check_consistent, eval_shredded, eval_shredded_nested, shred_query,
};
use nrc_core::typecheck::TypeEnv;

#[test]
fn lemma_6_nesting_inverts_shredding_on_random_values() {
    for seed in 0..common::case_count(200) {
        let mut g = QueryGen::new(seed, GenConfig::default());
        let ty = g.gen_type(3);
        let bag = g.gen_bag(&ty, 5);
        let mut gen = LabelGen::new();
        let (flat, ctx) = shred_bag(&bag, &ty, &mut gen)
            .unwrap_or_else(|e| panic!("seed {seed}: shred failed for type {ty}: {e}"));
        let back =
            nest_bag(&flat, &ty, &ctx).unwrap_or_else(|e| panic!("seed {seed}: nest failed: {e}"));
        assert_eq!(back, bag, "seed {seed}: Lemma 6 violated at type {ty}");
        // Lemma 11: shredded values are consistent.
        check_consistent(&flat, &ty, &ctx)
            .unwrap_or_else(|e| panic!("seed {seed}: inconsistent shredding: {e}"));
    }
}

#[test]
fn theorem_8_shredded_execution_equals_direct_evaluation() {
    let mut checked = 0;
    let cases = common::case_count(250);
    for seed in 0..cases {
        // Full NRC⁺ — input-dependent singletons allowed.
        let mut g = QueryGen::new(seed, GenConfig::default());
        let db = g.gen_database();
        let q = g.gen_query(&db);
        let tenv = TypeEnv::from_database(&db);
        let shredded = shred_query(&q, &tenv)
            .unwrap_or_else(|e| panic!("seed {seed}: shredding failed for {q}: {e}"));
        let mut env = Env::new(&db);
        let mut gen = LabelGen::new();
        bind_shredded_database(&mut env, &db, &mut gen).expect("bind shredded inputs");
        let nested = eval_shredded_nested(&shredded, &mut env)
            .unwrap_or_else(|e| panic!("seed {seed}: shredded execution failed for {q}: {e}"));
        let mut direct_env = Env::new(&db);
        let direct = eval_query(&q, &mut direct_env).expect("direct eval");
        assert_eq!(nested, direct, "seed {seed}: Theorem 8 violated for {q}");
        checked += 1;
    }
    assert_eq!(checked as u64, cases);
}

#[test]
fn lemma_12_shredded_outputs_are_consistent() {
    for seed in 0..common::case_count(150) {
        let mut g = QueryGen::new(seed, GenConfig::default());
        let db = g.gen_database();
        let q = g.gen_query(&db);
        let tenv = TypeEnv::from_database(&db);
        let shredded = shred_query(&q, &tenv).expect("shred");
        let mut env = Env::new(&db);
        let mut gen = LabelGen::new();
        bind_shredded_database(&mut env, &db, &mut gen).expect("bind");
        let (flat, ctx) = eval_shredded(&shredded, &mut env)
            .unwrap_or_else(|e| panic!("seed {seed}: shredded execution failed for {q}: {e}"));
        check_consistent(&flat, &shredded.elem_ty, &ctx)
            .unwrap_or_else(|e| panic!("seed {seed}: inconsistent shredded output for {q}: {e}"));
    }
}

#[test]
fn shredded_flat_queries_are_inc_nrc() {
    // The point of the transformation: outputs live in IncNRC⁺ₗ, so they
    // have deltas even when the input query does not.
    for seed in 0..common::case_count(150) {
        let mut g = QueryGen::new(seed, GenConfig::default());
        let db = g.gen_database();
        let q = g.gen_query(&db);
        let tenv = TypeEnv::from_database(&db);
        let shredded = shred_query(&q, &tenv).expect("shred");
        assert!(
            shredded.flat.is_inc_nrc(),
            "seed {seed}: flat part of {q} not IncNRC⁺"
        );
        assert!(
            shredded.ctx.is_inc_nrc(),
            "seed {seed}: ctx part of {q} not IncNRC⁺"
        );
    }
}

#[test]
fn theorem_5_shredded_queries_are_recursively_incrementalizable() {
    // The outputs of shredding live in IncNRC⁺ₗ, so the closed delta rules
    // apply to them *repeatedly*: wrt the shredded input variables, each
    // derivative exists (no InputDependentSng) and the degree drops by one
    // per step, reaching input-independence (Thm. 5).
    use nrc_core::degree::{degree, DegreeEnv};
    use nrc_core::delta::delta_wrt_var;
    use nrc_core::optimize::simplify;
    use nrc_core::shred::{ctx_name, flat_name, shred_type_ctx, shred_type_flat};
    use nrc_data::Type;

    let mut exercised = 0;
    let cases = common::case_count(120);
    for seed in 0..cases {
        let mut g = QueryGen::new(seed, GenConfig::default());
        let db = g.gen_database();
        let q = g.gen_query(&db);
        let tenv_orig = TypeEnv::from_database(&db);
        let shredded = shred_query(&q, &tenv_orig).expect("shred");

        // Shredded-world typing environment.
        let mut tenv = TypeEnv::default();
        for rel in db.relation_names() {
            let elem = db.schema(rel).expect("schema");
            tenv.lets.push((
                flat_name(rel),
                Type::bag(shred_type_flat(elem).expect("flat type")),
            ));
            tenv.lets
                .push((ctx_name(rel), shred_type_ctx(elem).expect("ctx type")));
            for order in 1..=4 {
                tenv.lets.push((
                    format!("Δ{order}_{}", flat_name(rel)),
                    Type::bag(shred_type_flat(elem).expect("flat type")),
                ));
                tenv.lets.push((
                    format!("Δ{order}_{}", ctx_name(rel)),
                    shred_type_ctx(elem).expect("ctx type"),
                ));
            }
        }
        let mut deg_env = DegreeEnv::new();
        for rel in db.relation_names() {
            deg_env.free_vars.insert(flat_name(rel), 1);
            deg_env.free_vars.insert(ctx_name(rel), 1);
        }

        for part in [&shredded.flat, &shredded.ctx] {
            let mut cur = simplify(part, &tenv).expect("simplify");
            let mut order = 1;
            // Differentiate wrt every input variable until input-independent.
            loop {
                let free: Vec<String> = db
                    .relation_names()
                    .flat_map(|r| [flat_name(r), ctx_name(r)])
                    .filter(|v| cur.depends_on_var(v))
                    .collect();
                if free.is_empty() || order > 4 {
                    break;
                }
                let deg_before = degree(&cur, &mut deg_env.clone());
                let var = &free[0];
                let d = delta_wrt_var(&cur, var, &format!("Δ{order}_{var}"), &tenv).unwrap_or_else(
                    |e| panic!("seed {seed}: shredded delta failed (Thm. 5) for {cur}: {e}"),
                );
                cur = simplify(&d, &tenv).expect("simplify δ");
                let deg_after = degree(&cur, &mut deg_env.clone());
                assert!(
                    deg_after < deg_before || deg_before == 0,
                    "seed {seed}: degree did not drop ({deg_before} → {deg_after}) for {cur}"
                );
                order += 1;
                exercised += 1;
            }
        }
    }
    // Coverage floor scales with the dialed case count (~1 derivation per
    // seed after the input-independence filter).
    assert!(
        exercised as u64 > cases * 5 / 6,
        "only {exercised} derivations exercised"
    );
}

/// Label narrowing and in-place domain maintenance, end to end: nested
/// singletons whose bodies read none / some / all components of their free
/// variable, or the variable whole, maintained by the engine over random
/// insert + delete streams.
mod narrowed_labels {
    use super::common;
    use nrc_core::builder::*;
    use nrc_core::eval::{eval_query, Env};
    use nrc_core::expr::{BoolExpr, CmpOp, Expr};
    use nrc_data::{Bag, BaseType, Database, Label, Type, Value};
    use nrc_engine::{IvmSystem, Strategy, UpdateBatch, ViewStateSnapshot};
    use std::collections::BTreeSet;

    /// Small component domains, so that tuples agree on components often.
    const DOMAIN: u64 = 4;

    /// xorshift64: the stream is a function of the seed alone.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Rng {
            Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// What the body of the outer singleton reads of its variable `x`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Reads {
        Nothing,
        /// One component, through an equality the join can use.
        One(usize),
        /// One component, through a comparison no equality covers: the
        /// all-labels fallback.
        OneUnkeyed(usize),
        /// All three (the `related` shape: `≠` and a disjunction).
        All,
        /// The variable itself.
        Whole,
        /// One component at the outer level and, in a singleton nested in
        /// the body, one component of the body's own variable.
        TwoLevels(usize, usize),
    }

    fn where_(var: &str, source: Expr, p: BoolExpr, body: Expr) -> Expr {
        for_where(var, source, p, body)
    }

    fn eq(a: &str, i: usize, b: &str, j: usize) -> BoolExpr {
        cmp(a, vec![i], CmpOp::Eq, b, vec![j])
    }

    /// `for x in R union ⟨x.head, {body}⟩`.
    fn query(reads: Reads, head: usize) -> Expr {
        let body = match reads {
            Reads::Nothing => for_("y", rel("R"), proj_sng("y", vec![0])),
            Reads::One(i) => where_("y", rel("R"), eq("y", i, "x", i), proj_sng("y", vec![0])),
            Reads::OneUnkeyed(i) => where_(
                "y",
                rel("R"),
                cmp("y", vec![i], CmpOp::Lt, "x", vec![i]).or(BoolExpr::Const(false)),
                proj_sng("y", vec![0]),
            ),
            Reads::All => where_(
                "y",
                rel("R"),
                cmp("x", vec![0], CmpOp::Ne, "y", vec![0])
                    .and(eq("x", 1, "y", 1).or(eq("x", 2, "y", 2))),
                proj_sng("y", vec![0]),
            ),
            Reads::Whole => where_("y", rel("R"), eq("y", 1, "x", 1), elem_sng("x")),
            Reads::TwoLevels(i, j) => where_(
                "y",
                rel("R"),
                eq("y", i, "x", i),
                sng(
                    0,
                    where_("z", rel("R"), eq("z", j, "y", j), proj_sng("z", vec![0])),
                ),
            ),
        };
        for_("x", rel("R"), pair(proj_sng("x", vec![head]), sng(0, body)))
    }

    fn tuple(rng: &mut Rng) -> Value {
        Value::Tuple(
            (0..3)
                .map(|_| Value::int(rng.below(DOMAIN) as i64))
                .collect(),
        )
    }

    /// Per dictionary of `ctx` (in type order, outer levels first): the
    /// labels carried by `population` — flat values of type `ty` — at that
    /// position, beside the dictionary's support. The definitions of the
    /// carried labels are the population of the next level; a label
    /// without one is a missing definition.
    fn reachable(
        population: &[Value],
        ty: &Type,
        ctx: &Value,
        out: &mut Vec<(BTreeSet<Label>, BTreeSet<Label>)>,
    ) {
        match (ty, ctx) {
            (Type::Base(_), _) => {}
            (Type::Tuple(ts), Value::Tuple(cs)) => {
                for (i, (t, c)) in ts.iter().zip(cs).enumerate() {
                    let component: Vec<Value> = population
                        .iter()
                        .map(|v| v.project(i).unwrap().clone())
                        .collect();
                    reachable(&component, t, c, out);
                }
            }
            (Type::Bag(elem), Value::Tuple(node)) => {
                let dict = node[0].as_dict().expect("dictionary");
                let labels: BTreeSet<Label> = population
                    .iter()
                    .map(|v| v.as_label().unwrap().clone())
                    .collect();
                let below: Vec<Value> = labels
                    .iter()
                    .flat_map(|l| {
                        dict.get(l)
                            .unwrap_or_else(|| panic!("{l} is undefined"))
                            .iter()
                    })
                    .map(|(v, _)| v.clone())
                    .collect();
                out.push((labels, dict.support().cloned().collect()));
                reachable(&below, elem, &node[1], out);
            }
            _ => panic!("context {ctx} does not match {ty}"),
        }
    }

    #[test]
    fn narrowed_labels_stay_exact_under_update_streams() {
        let variants = [
            Reads::Nothing,
            Reads::One(1),
            Reads::One(2),
            Reads::OneUnkeyed(1),
            Reads::All,
            Reads::Whole,
            Reads::TwoLevels(1, 2),
            Reads::TwoLevels(2, 2),
        ];
        for seed in 0..common::case_count(48) {
            let mut rng = Rng::new(seed);
            let reads = variants[(seed % variants.len() as u64) as usize];
            let q = query(reads, rng.below(3) as usize);
            let int = Type::Base(BaseType::Int);
            let mut db = Database::new();
            let initial = Bag::from_values((0..rng.below(8)).map(|_| tuple(&mut rng)));
            db.insert_relation(
                "R",
                Type::Tuple(vec![int.clone(), int.clone(), int]),
                initial,
            );
            let mut sys = IvmSystem::new(db);
            sys.register("v", q.clone(), Strategy::Shredded)
                .unwrap_or_else(|e| panic!("seed {seed}: register {q}: {e}"));

            for step in 0..8 {
                if step > 0 {
                    // A batch of inserts and of deletes of present tuples.
                    let mut updates = Vec::new();
                    let mut present: Vec<Value> = sys
                        .database()
                        .get("R")
                        .unwrap()
                        .iter_expanded()
                        .cloned()
                        .collect();
                    for _ in 0..1 + rng.below(4) {
                        let delta = if rng.below(2) == 0 || present.is_empty() {
                            Bag::from_values([tuple(&mut rng)])
                        } else {
                            let at = rng.below(present.len() as u64) as usize;
                            Bag::from_pairs([(present.swap_remove(at), -1)])
                        };
                        updates.push(("R".to_owned(), delta));
                    }
                    sys.apply_batch(&UpdateBatch::from_updates(updates))
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: {q}: {e}"));
                }
                let at = format!("seed {seed} step {step} ({reads:?})");

                // Shredded ≡ direct evaluation.
                let mut env = Env::new(sys.database());
                let direct = eval_query(&q, &mut env).expect("direct");
                assert_eq!(sys.view("v").unwrap(), direct, "{at}: {q}");

                // Support = labels reachable from the flat view.
                let ViewStateSnapshot::Shredded { flat, ctx, elem_ty } =
                    sys.view_state("v").unwrap()
                else {
                    panic!("{at}: not shredded")
                };
                let population: Vec<Value> = flat.iter().map(|(v, _)| v.clone()).collect();
                let mut levels = Vec::new();
                reachable(&population, &elem_ty, &ctx, &mut levels);
                let expected_levels = if matches!(reads, Reads::TwoLevels(..)) {
                    2
                } else {
                    1
                };
                assert_eq!(levels.len(), expected_levels, "{at}");
                for (labels, support) in &levels {
                    assert_eq!(support, labels, "{at}: orphaned definitions in {q}");
                }

                // Tuples that agree on what the body reads share a label.
                let r = sys.database().get("R").unwrap();
                let read: BTreeSet<Vec<Value>> = r
                    .iter()
                    .map(|(t, _)| match reads {
                        Reads::Nothing => vec![],
                        Reads::One(i) | Reads::OneUnkeyed(i) | Reads::TwoLevels(i, _) => {
                            vec![t.project(i).unwrap().clone()]
                        }
                        Reads::All | Reads::Whole => vec![t.clone()],
                    })
                    .collect();
                assert_eq!(levels[0].0.len(), read.len(), "{at}: labels of {q}");
            }
        }
    }
}
