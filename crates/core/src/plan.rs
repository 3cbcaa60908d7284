//! Cost-based maintenance-strategy planning.
//!
//! Given a typechecked query and a database instance, enumerate the four
//! maintenance strategies the engine supports (reevaluation, first-order
//! delta, recursive delta tower, shredded), estimate each one's per-update
//! cost with the `C[[·]]`/`tcost` model of §4.2, and pick a winner. The
//! result is a [`QueryPlan`]: the chosen strategy plus every candidate with
//! its estimate or rejection reason, so callers can see *why* the planner
//! decided what it did.
//!
//! Estimates are the paper's worst-case cost bounds, not measurements:
//!
//! * **reevaluate** — `tcost(C[[q]])` against current relation sizes: the
//!   full query re-runs on every update.
//! * **first-order** — `Σ_R tcost(C[[simplify(δ_R q)]])` over the relations
//!   `q` mentions, with `|ΔR| = d` (the assumed update cardinality): one
//!   delta evaluation per updated relation.
//! * **recursive** — the same bound (the cost model cannot separate the
//!   tower's first step from the whole tower); the *degree* interpretation
//!   of §4.1 breaks the tie instead. When some `deg_R(q) ≥ 2`, higher-order
//!   deltas are non-trivial and maintaining the tower pays off, so the
//!   planner prefers recursive; on degree-1 queries the tower collapses to
//!   the first-order delta and first-order wins.
//! * **shredded** — first-order maintenance of the shredded query costs the
//!   same asymptotics as the flat delta, but every touched bag moves through
//!   label dictionaries (`R__F`/`R__G` indirection, label resolution on
//!   reads), modelled as a constant factor
//!   [`SHRED_OVERHEAD`]. Shredding is **rejected** outright for flat result
//!   types: there is no nested structure for dictionaries to exploit, only
//!   overhead.
//!
//! Delta derivation fails on queries with input-dependent nested singletons
//! ([`crate::delta::DeltaError::InputDependentSng`], the reason §5 exists);
//! the planner
//! reports first-order and recursive as rejected with that reason and picks
//! between shredding and reevaluation on cost.

use crate::cost::{cost_against, tcost, CostError};
use crate::degree::degree_of_wrt;
use crate::delta::delta_wrt_rel;
use crate::expr::Expr;
use crate::optimize::simplify;
use crate::typecheck::{is_flat_type, typecheck, TypeEnv, TypeError};
use nrc_data::{Database, Type};
use std::fmt;

/// Dictionary-indirection overhead factor applied to the shredded estimate.
pub const SHRED_OVERHEAD: u64 = 2;

/// A maintenance strategy as named by the planner (mirrors the engine's
/// `Strategy`; lives here so core stays engine-independent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlannedStrategy {
    /// Re-run the query on every update.
    Reevaluate,
    /// Apply the first-order delta `δ_R(q)` per update.
    FirstOrder,
    /// Maintain the full recursive delta tower (§4).
    Recursive,
    /// Maintain the shredded query over label dictionaries (§5).
    Shredded,
}

impl PlannedStrategy {
    /// All strategies in enumeration order.
    pub const ALL: [PlannedStrategy; 4] = [
        PlannedStrategy::Reevaluate,
        PlannedStrategy::FirstOrder,
        PlannedStrategy::Recursive,
        PlannedStrategy::Shredded,
    ];
}

impl fmt::Display for PlannedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlannedStrategy::Reevaluate => "reevaluate",
            PlannedStrategy::FirstOrder => "first-order",
            PlannedStrategy::Recursive => "recursive",
            PlannedStrategy::Shredded => "shredded",
        })
    }
}

/// One enumerated strategy: either an estimate or a rejection reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The strategy considered.
    pub strategy: PlannedStrategy,
    /// Estimated per-update `tcost`, when the strategy is feasible.
    pub est: Option<u64>,
    /// Why the strategy was ruled out, when it was.
    pub rejected: Option<String>,
}

impl Candidate {
    fn feasible(strategy: PlannedStrategy, est: u64) -> Candidate {
        Candidate {
            strategy,
            est: Some(est),
            rejected: None,
        }
    }

    fn rejected(strategy: PlannedStrategy, reason: impl Into<String>) -> Candidate {
        Candidate {
            strategy,
            est: None,
            rejected: Some(reason.into()),
        }
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.est, &self.rejected) {
            (Some(est), _) => write!(f, "{} (est {})", self.strategy, humanize(*est)),
            (None, Some(reason)) => write!(f, "{} (rejected: {reason})", self.strategy),
            (None, None) => write!(f, "{}", self.strategy),
        }
    }
}

/// The planner's verdict for one query: the optimized expression to
/// register, the chosen strategy, and every candidate considered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryPlan {
    /// View name the plan was built for.
    pub name: String,
    /// The optimized (simplified) query the engine should register.
    pub query: Expr,
    /// Result type of the query.
    pub result_ty: Type,
    /// The winning strategy.
    pub chosen: PlannedStrategy,
    /// Estimated per-update `tcost` of the winner. `None` only when a
    /// strategy the planner had no estimate for was forced via
    /// `register_query_with` and the engine accepted it anyway.
    pub est: Option<u64>,
    /// Every candidate in enumeration order, feasible or not.
    pub candidates: Vec<Candidate>,
    /// The assumed update cardinality `d` the estimates were built with.
    pub update_card: u64,
}

impl QueryPlan {
    /// The candidate record for `strategy`.
    pub fn candidate(&self, strategy: PlannedStrategy) -> Option<&Candidate> {
        self.candidates.iter().find(|c| c.strategy == strategy)
    }

    /// Feasible strategies (the ones `register_query_with` could force).
    pub fn feasible(&self) -> impl Iterator<Item = &Candidate> {
        self.candidates.iter().filter(|c| c.est.is_some())
    }
}

impl fmt::Display for QueryPlan {
    /// One line: `chosen: shredded (est 1.2k) over first-order (est 9.8k),
    /// …` — the winner first, every other candidate after `over`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.est {
            Some(est) => write!(f, "chosen: {} (est {})", self.chosen, humanize(est))?,
            None => write!(f, "chosen: {} (no estimate)", self.chosen)?,
        }
        let others: Vec<String> = self
            .candidates
            .iter()
            .filter(|c| c.strategy != self.chosen)
            .map(Candidate::to_string)
            .collect();
        if !others.is_empty() {
            write!(f, " over {}", others.join(", "))?;
        }
        Ok(())
    }
}

/// Errors raised while planning (the query is assumed parsed; parse errors
/// never reach the planner).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The query does not typecheck against the database.
    Type(TypeError),
    /// The cost transformation failed (ill-shaped input).
    Cost(CostError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Type(e) => write!(f, "type error: {e}"),
            PlanError::Cost(e) => write!(f, "cost error: {e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Type(e) => Some(e),
            PlanError::Cost(e) => Some(e),
        }
    }
}

impl From<TypeError> for PlanError {
    fn from(e: TypeError) -> Self {
        PlanError::Type(e)
    }
}

impl From<CostError> for PlanError {
    fn from(e: CostError) -> Self {
        PlanError::Cost(e)
    }
}

/// Render a `tcost` estimate compactly: `842`, `1.2k`, `9.8M`, `3.1G`.
pub fn humanize(n: u64) -> String {
    const UNITS: [(u64, &str); 3] = [(1_000_000_000, "G"), (1_000_000, "M"), (1_000, "k")];
    for (scale, suffix) in UNITS {
        if n >= scale {
            // Whole and tenths computed separately so the scaling never
            // overflows, even at u64::MAX (saturated estimates are real).
            let whole = n / scale;
            let tenths = (n % scale) * 10 / scale;
            return format!("{whole}.{tenths}{suffix}");
        }
    }
    n.to_string()
}

/// Typecheck `query` against `db`, optimize it, estimate every maintenance
/// strategy assuming updates of cardinality `update_card`, and choose.
///
/// Ties on estimated cost break by a deterministic preference order:
/// first-order and recursive (ordered by the degree rule described in the
/// module docs), then shredded, then reevaluation — incremental wins over
/// from-scratch when the bounds agree.
pub fn plan_query(
    name: impl Into<String>,
    query: &Expr,
    db: &Database,
    update_card: u64,
) -> Result<QueryPlan, PlanError> {
    let name = name.into();
    let result_ty = typecheck(query, db)?;
    let env = TypeEnv::from_database(db);
    let query = simplify(query, &env)?;

    let rels: Vec<String> = query
        .free_relations()
        .into_iter()
        .filter(|r| db.schema(r).is_some())
        .collect();

    // Reevaluation is always feasible: the full query against current sizes.
    let reeval_est = tcost(&cost_against(&query, db, update_card)?);

    // First-order: one delta evaluation per relation the query mentions.
    // Derivation fails exactly on input-dependent nested singletons (§5).
    let delta_est: Result<u64, String> = rels
        .iter()
        .map(|rel| {
            let d = delta_wrt_rel(&query, rel, &env)
                .map_err(|e| format!("delta w.r.t. {rel} underivable: {e}"))?;
            let d = simplify(&d, &env).map_err(|e| format!("delta w.r.t. {rel}: {e}"))?;
            cost_against(&d, db, update_card)
                .map(|c| tcost(&c))
                .map_err(|e| format!("delta w.r.t. {rel}: {e}"))
        })
        .sum();

    // Degree rule (§4.1): deg ≥ 2 means the delta tower has real higher
    // orders, so maintaining it recursively beats re-deriving first-order
    // deltas; at degree ≤ 1 the tower *is* the first-order delta.
    let max_degree = rels
        .iter()
        .map(|r| degree_of_wrt(&query, r))
        .max()
        .unwrap_or(0);

    let (fo, rec) = match &delta_est {
        Ok(est) => (
            Candidate::feasible(PlannedStrategy::FirstOrder, *est),
            Candidate::feasible(PlannedStrategy::Recursive, *est),
        ),
        Err(reason) => (
            Candidate::rejected(PlannedStrategy::FirstOrder, reason.clone()),
            Candidate::rejected(PlannedStrategy::Recursive, reason.clone()),
        ),
    };

    // Shredded: first-order maintenance of the shredded query. Its delta is
    // linear in `ΔR` (that is the point of shredding — the shredded form is
    // in IncNRC⁺ₗ even when the flat query is not), so per relation we scale
    // the full-query bound by `d / |R|` — the dominant `|R|`-factor of the
    // evaluation becomes a `d`-factor — and charge [`SHRED_OVERHEAD`] for
    // the label-dictionary indirection. Rejected when the view's element
    // type is flat: no nested structure for dictionaries to exploit, only
    // overhead.
    let flat_view = matches!(&result_ty, Type::Bag(elem) if is_flat_type(elem));
    let shred = if flat_view {
        Candidate::rejected(
            PlannedStrategy::Shredded,
            format!("flat result type {result_ty}: no nested structure for dictionaries"),
        )
    } else {
        let full = tcost(&cost_against(&query, db, update_card)?);
        let mut est: u64 = 0;
        for rel in &rels {
            let card = db.get(rel).map_or(0, nrc_data::Bag::cardinality).max(1);
            est = est.saturating_add(full.saturating_mul(update_card) / card);
        }
        Candidate::feasible(
            PlannedStrategy::Shredded,
            est.saturating_mul(SHRED_OVERHEAD).max(1),
        )
    };

    let candidates = vec![
        Candidate::feasible(PlannedStrategy::Reevaluate, reeval_est),
        fo,
        rec,
        shred,
    ];

    // Deterministic preference order for cost ties; the degree rule orders
    // first-order vs. recursive.
    let rank = |s: PlannedStrategy| -> u8 {
        match s {
            PlannedStrategy::FirstOrder => {
                if max_degree >= 2 {
                    1
                } else {
                    0
                }
            }
            PlannedStrategy::Recursive => {
                if max_degree >= 2 {
                    0
                } else {
                    1
                }
            }
            PlannedStrategy::Shredded => 2,
            PlannedStrategy::Reevaluate => 3,
        }
    };
    let winner = candidates
        .iter()
        .filter_map(|c| c.est.map(|e| (e, rank(c.strategy), c.strategy)))
        .min()
        .expect("reevaluation is always feasible");

    Ok(QueryPlan {
        name,
        query,
        result_ty,
        chosen: winner.2,
        est: Some(winner.0),
        candidates,
        update_card,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::CmpOp;
    use nrc_data::database::example_movies;
    use nrc_data::{Bag, BaseType, Value};

    /// `M` with `n` distinct movies, so delta bounds actually beat reeval.
    fn movies_n(n: usize) -> Database {
        let vals = (0..n).map(|i| {
            Value::Tuple(vec![
                Value::str(format!("m{i}")),
                Value::str(format!("g{}", i % 5)),
                Value::str(format!("d{}", i % 7)),
            ])
        });
        let ty = Type::Tuple(vec![Type::Base(BaseType::Str); 3]);
        let mut db = Database::new();
        db.insert_relation("M", ty, Bag::from_values(vals));
        db
    }

    #[test]
    fn flat_filter_prefers_first_order() {
        let db = movies_n(100);
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
        let plan = plan_query("dramas", &q, &db, 16).unwrap();
        assert_eq!(plan.chosen, PlannedStrategy::FirstOrder);
        // Shredding is rejected on flat results, reeval stays feasible.
        let shred = plan.candidate(PlannedStrategy::Shredded).unwrap();
        assert!(shred.rejected.as_deref().unwrap().contains("flat result"));
        assert!(plan
            .candidate(PlannedStrategy::Reevaluate)
            .unwrap()
            .est
            .is_some());
        assert_eq!(plan.update_card, 16);
    }

    #[test]
    fn self_join_prefers_recursive_by_degree() {
        let db = movies_n(100);
        // deg_M = 2: the delta tower has a non-trivial second order.
        let q = product(vec![rel("M"), rel("M")]);
        let plan = plan_query("mm", &q, &db, 4).unwrap();
        assert_eq!(plan.chosen, PlannedStrategy::Recursive);
        assert_eq!(
            plan.candidate(PlannedStrategy::FirstOrder).unwrap().est,
            plan.candidate(PlannedStrategy::Recursive).unwrap().est,
        );
    }

    #[test]
    fn nested_sng_rejects_flat_deltas_and_shreds() {
        let db = movies_n(100);
        // `related` (§2): input-dependent nested singleton → no flat delta.
        let q = related_query();
        let plan = plan_query("related", &q, &db, 4).unwrap();
        assert_eq!(plan.chosen, PlannedStrategy::Shredded);
        let fo = plan.candidate(PlannedStrategy::FirstOrder).unwrap();
        assert!(fo.rejected.as_deref().unwrap().contains("underivable"));
        let rec = plan.candidate(PlannedStrategy::Recursive).unwrap();
        assert!(rec.rejected.is_some());
    }

    #[test]
    fn display_is_one_line_with_alternatives() {
        let db = movies_n(100);
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
        let plan = plan_query("dramas", &q, &db, 16).unwrap();
        let line = plan.to_string();
        assert!(line.starts_with("chosen: first-order (est "));
        assert!(line.contains(" over "));
        assert!(line.contains("reevaluate (est "));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn ill_typed_queries_error() {
        let db = example_movies();
        let q = rel("Nope");
        assert!(matches!(
            plan_query("x", &q, &db, 4),
            Err(PlanError::Type(_))
        ));
    }

    #[test]
    fn tiny_databases_fall_back_to_reevaluation() {
        // 3 tuples, 16-tuple updates: re-running the query is the cheaper
        // bound, and the planner should say so.
        let db = example_movies();
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
        let plan = plan_query("dramas", &q, &db, 16).unwrap();
        assert_eq!(plan.chosen, PlannedStrategy::Reevaluate);
    }

    #[test]
    fn humanize_scales() {
        assert_eq!(humanize(842), "842");
        assert_eq!(humanize(1_234), "1.2k");
        assert_eq!(humanize(9_800_000), "9.8M");
        assert_eq!(humanize(3_100_000_000), "3.1G");
        // Saturated estimates (shredded bounds use saturating arithmetic)
        // must not overflow the tenths computation.
        assert_eq!(humanize(u64::MAX), "18446744073.7G");
    }
}
