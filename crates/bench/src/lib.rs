//! # nrc-bench
//!
//! The experiment library regenerating the paper's quantitative claims
//! (the tables are discussed in `docs/PERFORMANCE.md`). Each `eN` module
//! produces a [`report::Table`]; the `harness` binary prints them as
//! markdown + JSON. Nothing here is a CI gate:
//! what the stack costs end to end is measured by the ledger in
//! `benchmark/`, and regressions are caught by the property suites and the
//! exact-count guards under `tests/`.
//!
//! | Experiment | Paper claim |
//! |---|---|
//! | E1 | §2.2: IVM of `related` costs O(nd + d²) vs Ω((n+d)²) re-evaluation |
//! | E2 | Ex. 3: `filter_p`'s delta touches only ΔR |
//! | E3 | §4.1/Ex. 4: recursive IVM materializes the input-dependent parts of δ |
//! | E4 | §4.2/Thm. 4: `tcost(C[[δ(h)]]) < tcost(C[[h]])`, tcost bounds measured work (Lemma 3) |
//! | E5 | §5: shredded IVM supports deep updates to inner bags |
//! | E6 | none: hand-built NC⁰ `V ⊎ ΔV` adder vs non-NC⁰ re-evaluation circuits (Thm. 9 for query deltas is open) |
//! | E7 | Thm. 2: the delta tower has exactly deg(h) input-dependent levels |
//! | E8 | Prop. 4.1 additivity: coalesced batches vs per-update refresh |
//! | E14 | Planner ablation: the §4.2 cost model's pick vs every hand-picked strategy |

pub mod e14_planner;
pub mod e1_related;
pub mod e2_filter;
pub mod e3_recursive;
pub mod e4_cost;
pub mod e5_deep;
pub mod e6_circuit;
pub mod e7_degree;
pub mod e8_batch;
pub mod report;

pub use report::Table;

use std::time::Instant;

/// Time a closure, returning (result, elapsed microseconds).
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e6)
}

/// Time the average of `reps` runs of a closure (re-created per run).
pub fn time_avg_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64
}
