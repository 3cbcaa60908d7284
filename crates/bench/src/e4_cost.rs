//! E4 — the cost model of §4.2 (Fig. 5, Lemma 3, Thm. 4).
//!
//! For a suite of IncNRC⁺ queries over skew-controlled nested inputs we
//! report `tcost(C[[h]])` against the measured step counts of the eager
//! interpreter and of Lemma 3's lazy strategy (`nrc_core::eval_lazy`), and
//! `tcost(C[[δ(h)]])` against the measured steps of delta evaluation.
//! Expected shape: Thm. 4's inequality holds on every row
//! (`tcost(δ) < tcost(h)`), and the bound tracks the per-level cardinality
//! profile (that is the whole point of level-indexed cost domains).
//!
//! Lemma 3 is an O(·) statement: the lazy strategy evaluates `h` in
//! O(`tcost(C[[h]])`) steps. Both step counters charge one step per
//! operator per element they push through it, so the hidden constant is
//! the operator count of `h`, plus one for the expansion pass:
//! `lazy steps(h) ≤ (|h| + 1) · tcost(h)` on every row, at every input
//! size. The literal `lazy steps(h) ≤ tcost(h)` does **not** hold for
//! these counters (it fails on four of the five rows); the table's note
//! reports both counts.

use crate::report::Table;
use nrc_core::builder::*;
use nrc_core::cost::{cost, tcost, CostEnv};
use nrc_core::delta::delta_wrt_rel;
use nrc_core::eval::{eval_query, Env};
use nrc_core::eval_lazy::eval_lazy_full;
use nrc_core::expr::CmpOp;
use nrc_core::optimize::simplify;
use nrc_core::typecheck::TypeEnv;
use nrc_core::Expr;
use nrc_data::Database;
use nrc_workloads::SkewGen;

/// The query suite: name, query over `R : Bag(Bag(Int))`.
pub fn suite() -> Vec<(&'static str, Expr)> {
    vec![
        ("flatten", flatten(rel("R"))),
        ("self-product", pair(rel("R"), rel("R"))),
        ("flatten-product", self_product_of_flatten("R")),
        (
            "inner-filter",
            for_(
                "x",
                flatten(rel("R")),
                for_where(
                    "y",
                    elem_sng("x"),
                    cmp_lit("y", vec![], CmpOp::Gt, 500_000_000i64),
                    elem_sng("y"),
                ),
            ),
        ),
        ("count", for_("x", flatten(rel("R")), unit_sng())),
    ]
}

/// Measured vs predicted numbers for one query.
#[derive(Clone, Debug)]
pub struct CostRow {
    /// Query name.
    pub name: &'static str,
    /// `tcost(C[[h]])`.
    pub tcost_h: u64,
    /// Interpreter steps evaluating `h`.
    pub steps_h: u64,
    /// Steps of Lemma 3's lazy strategy evaluating `h` (top-level phase
    /// plus expansion of every demanded inner bag).
    pub lazy_steps_h: u64,
    /// Operator count `|h|` — the constant of Lemma 3's O(·) under a
    /// one-step-per-operator-per-element counter.
    pub ops_h: u64,
    /// `tcost(C[[δ(h)]])`.
    pub tcost_d: u64,
    /// Interpreter steps evaluating `δ(h)`.
    pub steps_d: u64,
    /// Does Thm. 4's strict inequality hold?
    pub thm4: bool,
}

impl CostRow {
    /// Lemma 3 with its constant spelled out: the lazy strategy's steps
    /// stay within `(|h| + 1) · tcost(C[[h]])` — one step per operator per
    /// element, plus the expansion pass.
    pub fn lemma3(&self) -> bool {
        self.lazy_steps_h <= (self.ops_h + 1) * self.tcost_h
    }
}

/// Evaluate the suite on a database with the given update.
pub fn measure(db: &Database, update: &nrc_data::Bag) -> Vec<CostRow> {
    measure_queries(suite(), db, update)
}

fn measure_queries(
    queries: Vec<(&'static str, Expr)>,
    db: &Database,
    update: &nrc_data::Bag,
) -> Vec<CostRow> {
    let tenv = TypeEnv::from_database(db);
    let mut rows = vec![];
    for (name, q) in queries {
        let d = simplify(&delta_wrt_rel(&q, "R", &tenv).expect("delta"), &tenv).expect("simplify");
        let mut cenv = CostEnv::from_database(db);
        cenv.set_delta_size(
            "R",
            1,
            nrc_core::cost::size_of_bag(update, db.schema("R").expect("schema")),
        );
        let ch = cost(&q, &mut cenv).expect("cost h");
        let cd = cost(&d, &mut cenv).expect("cost δh");
        let mut env_h = Env::new(db);
        eval_query(&q, &mut env_h).expect("eval h");
        let (_, lazy, expand) = eval_lazy_full(&q, &mut Env::new(db)).expect("lazy eval h");
        let mut env_d = Env::new(db).with_delta("R", update.clone());
        eval_query(&d, &mut env_d).expect("eval δh");
        rows.push(CostRow {
            name,
            tcost_h: tcost(&ch),
            steps_h: env_h.steps,
            lazy_steps_h: lazy + expand,
            ops_h: q.node_count() as u64,
            tcost_d: tcost(&cd),
            steps_d: env_d.steps,
            thm4: tcost(&cd) < tcost(&ch),
        });
    }
    rows
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let profile: &[usize] = if quick { &[50, 8] } else { &[200, 8] };
    let mut gen = SkewGen::new(17, 1_000_000_000);
    let db = gen.database(profile);
    let update = gen.update(db.get("R").expect("R"), &[2, profile[1]], 1);
    let mut t = Table::new(
        "E4",
        "cost model (§4.2): tcost(C[[δ(h)]]) < tcost(C[[h]]), bounds track measured work",
        &[
            "query",
            "tcost(h)",
            "steps(h)",
            "lazy steps(h)",
            "tcost(δh)",
            "steps(δh)",
            "Thm 4",
        ],
    );
    let rows = measure(&db, &update);
    let mut max_ratio = 0f64;
    for r in &rows {
        max_ratio = max_ratio.max(r.steps_h as f64 / r.tcost_h.max(1) as f64);
        t.row(vec![
            r.name.to_string(),
            r.tcost_h.to_string(),
            r.steps_h.to_string(),
            r.lazy_steps_h.to_string(),
            r.tcost_d.to_string(),
            r.steps_d.to_string(),
            if r.thm4 { "✓".into() } else { "✗".into() },
        ]);
    }
    t.note(format!(
        "Theorem 4 holds on {} / {} queries; interpreter steps track the tcost bound within a \
         constant factor (max steps/tcost = {max_ratio:.1} — the interpreter counts per-iteration \
         bookkeeping the paper's step model folds into constants)",
        rows.iter().filter(|r| r.thm4).count(),
        rows.len(),
    ));
    t.note(format!(
        "Lemma 3: lazy steps(h) ≤ (|h|+1)·tcost(h) on {} / {} queries (the O(·) constant is the \
         operator count); the literal lazy steps(h) ≤ tcost(h) holds on {} / {}",
        rows.iter().filter(|r| r.lemma3()).count(),
        rows.len(),
        rows.iter().filter(|r| r.lazy_steps_h <= r.tcost_h).count(),
        rows.len(),
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_4_holds_across_the_suite() {
        let mut gen = SkewGen::new(3, 1_000_000_000);
        let db = gen.database(&[30, 5]);
        let update = gen.update(db.get("R").unwrap(), &[2, 5], 1);
        for r in measure(&db, &update) {
            assert!(r.thm4, "Thm 4 failed for {}", r.name);
        }
    }

    /// Lemma 3 on every row, at two input sizes: the constant depends on
    /// the query alone, so a 4× larger input must not loosen the bound.
    #[test]
    fn lemma_3_bounds_lazy_work_on_every_row() {
        for profile in [[30usize, 5], [60, 10]] {
            let mut gen = SkewGen::new(3, 1_000_000_000);
            let db = gen.database(&profile);
            let update = gen.update(db.get("R").unwrap(), &[2, 5], 1);
            let rows = measure(&db, &update);
            assert_eq!(rows.len(), suite().len());
            for r in rows {
                assert!(
                    r.lemma3(),
                    "{} at {profile:?}: lazy steps {} > ({} + 1) · tcost {}",
                    r.name,
                    r.lazy_steps_h,
                    r.ops_h,
                    r.tcost_h
                );
            }
        }
    }

    #[test]
    fn deltas_do_much_less_work_than_reeval_on_big_inputs() {
        let mut gen = SkewGen::new(3, 1_000_000_000);
        let db = gen.database(&[200, 8]);
        let update = gen.update(db.get("R").unwrap(), &[1, 8], 0);
        // The two product queries are not asserted on here, and their lazy
        // column would materialize 1 600² pairs: leave them unmeasured.
        let mut linear = suite();
        linear.retain(|(name, _)| ["count", "flatten", "inner-filter"].contains(name));
        assert_eq!(linear.len(), 3);
        for r in measure_queries(linear, &db, &update) {
            assert!(
                r.steps_d * 4 < r.steps_h,
                "{}: delta steps {} not ≪ eval steps {}",
                r.name,
                r.steps_d,
                r.steps_h
            );
        }
    }

    #[test]
    fn quick_run_covers_suite() {
        assert_eq!(run(true).rows.len(), suite().len());
    }
}
