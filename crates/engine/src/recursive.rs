//! Recursive IVM (§4.1 of the paper).
//!
//! First-order IVM still evaluates input-dependent subexpressions of the
//! delta on every update — e.g. for `h[R] = flatten(R) × flatten(R)`
//! (Ex. 4), `δ(h)` contains `flatten(R)`, which traditional IVM recomputes
//! per update. Recursive IVM instead *partially evaluates* the delta:
//! every maximal input-dependent but update-independent subexpression is
//! materialized as an auxiliary view, itself incrementally maintained by
//! its own delta. By Thm. 2 each auxiliary query has strictly smaller
//! degree, so the recursion bottoms out — after at most `deg(h)` levels all
//! remaining deltas are pure functions of the updates.
//!
//! Classical first-order IVM is the same view with nothing hoisted
//! ([`RecursiveView::first_order`]): `h[R ⊎ ΔR] = h[R] ⊎ δ_R(h)[R, ΔR]`
//! with one derived delta per relation the query depends on.

use crate::error::EngineError;
use crate::stats::ViewStats;
use nrc_core::delta::delta_wrt_rel;
use nrc_core::eval::{eval_query, Env};
use nrc_core::optimize::simplify;
use nrc_core::typecheck::{typecheck, TypeEnv};
use nrc_core::Expr;
use nrc_data::{Bag, Database, Type, Value};
use std::collections::BTreeMap;

/// A recursively maintained view: the query's materialization plus, per
/// relation, a delta whose input-dependent subexpressions have been hoisted
/// into auxiliary [`RecursiveView`]s of strictly smaller degree.
#[derive(Clone, Debug)]
pub struct RecursiveView {
    /// The maintained query.
    pub query: Expr,
    /// The current result.
    pub result: Bag,
    /// Per-relation deltas, referencing auxiliary views by name.
    pub deltas: BTreeMap<String, Expr>,
    /// The auxiliary views (materialized subexpressions of the deltas).
    pub auxes: Vec<Aux>,
    /// Maintenance counters.
    pub stats: ViewStats,
    /// When `Some`, every applied change to *this* view (not its
    /// auxiliaries) is additionally `⊎`-merged here — the engine's
    /// per-batch delta-capture hook. `None` costs nothing.
    pub(crate) captured_delta: Option<Bag>,
}

/// A named auxiliary materialization.
#[derive(Clone, Debug)]
pub struct Aux {
    /// The engine-internal name the parent delta references.
    pub name: String,
    /// The auxiliary view (maintained recursively).
    pub view: RecursiveView,
}

impl RecursiveView {
    /// Build the view, derive and partially evaluate its deltas, and
    /// materialize all auxiliary views.
    pub fn new(query: Expr, db: &Database) -> Result<RecursiveView, EngineError> {
        Self::build(query, db, Some(&mut 0))
    }

    /// Classical first-order IVM: the same view with nothing hoisted. Each
    /// relation's delta is `δ_R(h)` itself, evaluated against the old
    /// database on every update (Prop. 4.1), and no auxiliary view is
    /// materialized.
    ///
    /// Fails with [`EngineError::Delta`] if the query is outside IncNRC⁺
    /// (an input-dependent `sng` has no delta rule — register it under
    /// [`crate::Strategy::Shredded`] instead).
    pub fn first_order(query: Expr, db: &Database) -> Result<RecursiveView, EngineError> {
        Self::build(query, db, None)
    }

    /// `counter` numbers the auxiliary views; `None` hoists nothing.
    fn build(
        query: Expr,
        db: &Database,
        mut counter: Option<&mut u32>,
    ) -> Result<RecursiveView, EngineError> {
        let ty = typecheck(&query, db)?;
        let Type::Bag(_) = ty else {
            return Err(EngineError::Type(nrc_core::TypeError::NotABag {
                at: "view query".into(),
                got: ty.to_string(),
            }));
        };
        let tenv = TypeEnv::from_database(db);
        let mut deltas = BTreeMap::new();
        let mut aux_exprs: BTreeMap<Expr, String> = BTreeMap::new();
        for rel in query.free_relations() {
            let d = simplify(&delta_wrt_rel(&query, &rel, &tenv)?, &tenv)?;
            let d = match counter.as_deref_mut() {
                Some(counter) => hoist(&d, &rel, &mut aux_exprs, counter),
                None => d,
            };
            deltas.insert(rel, d);
        }
        // Materialize the hoisted subexpressions, each as its own
        // recursively maintained view (their degrees are strictly smaller —
        // Thm. 2 — so this terminates).
        let mut auxes = Vec::with_capacity(aux_exprs.len());
        for (expr, name) in aux_exprs {
            let view = RecursiveView::build(expr, db, counter.as_deref_mut())?;
            auxes.push(Aux { name, view });
        }
        let mut env = Env::new(db);
        let result = eval_query(&query, &mut env)?;
        let stats = ViewStats {
            reevaluations: 1,
            eval_steps: env.steps,
            materialized_aux: auxes.len() as u64,
            ..ViewStats::default()
        };
        Ok(RecursiveView {
            query,
            result,
            deltas,
            auxes,
            stats,
            captured_delta: None,
        })
    }

    /// Apply an update `ΔR` to relation `rel` against the pre-update
    /// database: refresh this view using the *old* auxiliary
    /// materializations, then refresh the auxiliaries themselves.
    ///
    /// The update may be a single raw update or a whole batch coalesced
    /// by `⊎` ([`crate::UpdateBatch`]): additivity of deltas (Prop. 4.1)
    /// makes the refresh identical either way.
    pub fn apply(
        &mut self,
        db_before: &Database,
        rel: &str,
        delta: &Bag,
    ) -> Result<(), EngineError> {
        if let Some(d) = self.deltas.get(rel) {
            let mut env = Env::new(db_before).with_delta(rel, delta.clone());
            for aux in &self.auxes {
                env.bind_let(aux.name.clone(), Value::Bag(aux.view.result.clone()));
            }
            let change = eval_query(d, &mut env)?;
            self.stats.refresh_steps += env.steps;
            self.stats.last_delta_card = change.cardinality();
            if let Some(captured) = self.captured_delta.as_mut() {
                captured.union_assign(&change);
            }
            self.result.union_assign(&change);
        }
        for aux in &mut self.auxes {
            aux.view.apply(db_before, rel, delta)?;
        }
        self.stats.updates_applied += 1;
        Ok(())
    }

    /// Total number of materialized views in this hierarchy (the view
    /// itself plus all transitive auxiliaries).
    pub fn materialization_count(&self) -> usize {
        1 + self
            .auxes
            .iter()
            .map(|a| a.view.materialization_count())
            .sum::<usize>()
    }
}

/// Should this subexpression be hoisted into an auxiliary view? It must
/// depend on `rel`, be free of update relations (so it is re-usable across
/// updates), be closed (no free element or `let` variables), and be bigger
/// than a bare relation leaf (materializing `R` itself buys nothing — the
/// relation is already stored).
fn qualifies(e: &Expr, rel: &str) -> bool {
    e.depends_on_rel(rel)
        && e.delta_relations().is_empty()
        && e.free_elem_vars().is_empty()
        && e.free_let_vars().is_empty()
        && !matches!(e, Expr::Rel(_))
}

/// Replace maximal qualifying subexpressions by auxiliary-view variables.
fn hoist(e: &Expr, rel: &str, registry: &mut BTreeMap<Expr, String>, counter: &mut u32) -> Expr {
    if qualifies(e, rel) {
        if let Some(name) = registry.get(e) {
            return Expr::Var(name.clone());
        }
        let name = format!("__aux{}", *counter);
        *counter += 1;
        registry.insert(e.clone(), name.clone());
        return Expr::Var(name);
    }
    map_children(e, &mut |c| hoist(c, rel, registry, counter))
}

/// Rebuild an expression with every direct child transformed.
fn map_children(e: &Expr, f: &mut impl FnMut(&Expr) -> Expr) -> Expr {
    match e {
        Expr::Rel(_)
        | Expr::DeltaRel(_, _)
        | Expr::Var(_)
        | Expr::ElemSng(_)
        | Expr::ProjSng { .. }
        | Expr::UnitSng
        | Expr::Empty { .. }
        | Expr::Pred(_)
        | Expr::InLabel { .. }
        | Expr::EmptyCtx(_) => e.clone(),
        Expr::Let { name, value, body } => Expr::Let {
            name: name.clone(),
            value: Box::new(f(value)),
            body: Box::new(f(body)),
        },
        Expr::Sng { index, body } => Expr::Sng {
            index: *index,
            body: Box::new(f(body)),
        },
        Expr::Union(a, b) => Expr::Union(Box::new(f(a)), Box::new(f(b))),
        Expr::LabelUnion(a, b) => Expr::LabelUnion(Box::new(f(a)), Box::new(f(b))),
        Expr::CtxAdd(a, b) => Expr::CtxAdd(Box::new(f(a)), Box::new(f(b))),
        Expr::Negate(x) => Expr::Negate(Box::new(f(x))),
        Expr::Flatten(x) => Expr::Flatten(Box::new(f(x))),
        Expr::Product(es) => Expr::Product(es.iter().map(&mut *f).collect()),
        Expr::CtxTuple(es) => Expr::CtxTuple(es.iter().map(&mut *f).collect()),
        Expr::CtxProj { ctx, index } => Expr::CtxProj {
            ctx: Box::new(f(ctx)),
            index: *index,
        },
        Expr::For { var, source, body } => Expr::For {
            var: var.clone(),
            source: Box::new(f(source)),
            body: Box::new(f(body)),
        },
        Expr::DictSng {
            index,
            params,
            body,
        } => Expr::DictSng {
            index: *index,
            params: params.clone(),
            body: Box::new(f(body)),
        },
        Expr::DictGet { dict, label } => Expr::DictGet {
            dict: Box::new(f(dict)),
            label: label.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ReevalView;
    use nrc_core::builder::*;
    use nrc_core::expr::CmpOp;
    use nrc_data::database::{example_movies, example_movies_update};
    use nrc_data::BaseType;

    fn nested_db() -> Database {
        let mut db = Database::new();
        let int = Type::Base(BaseType::Int);
        db.insert_relation(
            "R",
            Type::bag(int),
            Bag::from_values([
                Value::Bag(Bag::from_values([Value::int(1), Value::int(2)])),
                Value::Bag(Bag::from_values([Value::int(3)])),
            ]),
        );
        db
    }

    fn nested_update() -> Bag {
        Bag::from_pairs([
            (
                Value::Bag(Bag::from_values([Value::int(9), Value::int(1)])),
                1,
            ),
            (Value::Bag(Bag::from_values([Value::int(3)])), -1),
        ])
    }

    #[test]
    fn example_4_materializes_flatten() {
        // h[R] = flatten(R) × flatten(R): recursive IVM materializes
        // flatten(R) so δ(h) evaluation never re-flattens R.
        let db = nested_db();
        let v = RecursiveView::new(self_product_of_flatten("R"), &db).unwrap();
        assert_eq!(v.auxes.len(), 1);
        assert_eq!(v.auxes[0].view.query, flatten(rel("R")));
        // The hoisted delta references the auxiliary instead of R.
        let d = v.deltas.get("R").unwrap();
        assert!(!d.depends_on_rel("R"), "hoisted delta still scans R: {d}");
        // flatten(R)'s own delta is flatten(ΔR) — input-independent, so no
        // deeper auxiliaries.
        assert!(v.auxes[0].view.auxes.is_empty());
        assert_eq!(v.materialization_count(), 2);
    }

    #[test]
    fn recursive_matches_reevaluation_over_update_sequence() {
        let db0 = nested_db();
        let q = self_product_of_flatten("R");
        let mut v = RecursiveView::new(q.clone(), &db0).unwrap();
        let mut db = db0;
        for step in 0..4 {
            let delta = if step % 2 == 0 {
                nested_update()
            } else {
                nested_update().negate()
            };
            v.apply(&db, "R", &delta).unwrap();
            db.apply_update("R", &delta).unwrap();
            let expected = ReevalView::new(q.clone(), &db).unwrap();
            assert_eq!(v.result, expected.result, "diverged at step {step}");
            // Auxiliary stays in sync too.
            let expected_flat = ReevalView::new(flatten(rel("R")), &db).unwrap();
            assert_eq!(v.auxes[0].view.result, expected_flat.result);
        }
    }

    #[test]
    fn flat_queries_need_no_auxiliaries() {
        let db = nrc_data::database::example_movies();
        let q = filter_query(
            "M",
            cmp_lit("x", vec![1], nrc_core::expr::CmpOp::Eq, "Drama"),
        );
        let v = RecursiveView::new(q, &db).unwrap();
        assert!(v.auxes.is_empty());
    }

    #[test]
    fn shared_subexpressions_are_deduplicated() {
        // flatten(R) appears in several delta terms but is materialized once.
        let db = nested_db();
        let q = pair(flatten(rel("R")), flatten(rel("R")));
        let v = RecursiveView::new(q, &db).unwrap();
        assert_eq!(v.auxes.len(), 1);
    }

    #[test]
    fn degree_three_builds_a_deeper_hierarchy() {
        let db = nested_db();
        let q = product(vec![
            flatten(rel("R")),
            flatten(rel("R")),
            flatten(rel("R")),
        ]);
        let mut v = RecursiveView::new(q.clone(), &db).unwrap();
        assert!(v.materialization_count() >= 2);
        let mut db2 = db.clone();
        let delta = nested_update();
        v.apply(&db2, "R", &delta).unwrap();
        db2.apply_update("R", &delta).unwrap();
        let expected = ReevalView::new(q, &db2).unwrap();
        assert_eq!(v.result, expected.result);
    }

    #[test]
    fn multi_relation_updates() {
        let mut db = nested_db();
        db.insert_relation(
            "S",
            Type::Base(BaseType::Int),
            Bag::from_values([Value::int(7)]),
        );
        let q = pair(flatten(rel("R")), rel("S"));
        let mut v = RecursiveView::new(q.clone(), &db).unwrap();
        // Update S only.
        let ds = Bag::from_values([Value::int(8)]);
        v.apply(&db, "S", &ds).unwrap();
        db.apply_update("S", &ds).unwrap();
        let expected = ReevalView::new(q, &db).unwrap();
        assert_eq!(v.result, expected.result);
    }

    #[test]
    fn first_order_matches_reevaluation() {
        let db = example_movies();
        let q = pair(rel("M"), rel("M"));
        let mut v = RecursiveView::first_order(q.clone(), &db).unwrap();
        let delta = example_movies_update();
        v.apply(&db, "M", &delta).unwrap();
        let mut db2 = db.clone();
        db2.apply_update("M", &delta).unwrap();
        let expected = ReevalView::new(q, &db2).unwrap();
        assert_eq!(v.result, expected.result);
        assert_eq!(v.stats.updates_applied, 1);
        assert!(v.stats.last_delta_card > 0);
    }

    #[test]
    fn first_order_rejects_non_inc_queries() {
        let db = example_movies();
        let err = RecursiveView::first_order(related_query(), &db).unwrap_err();
        assert!(matches!(err, EngineError::Delta(_)));
    }

    #[test]
    fn first_order_handles_deletions() {
        let db = example_movies();
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Action"));
        let mut v = RecursiveView::first_order(q.clone(), &db).unwrap();
        // Delete Skyfall.
        let delta = Bag::from_pairs([(
            Value::Tuple(vec![
                Value::str("Skyfall"),
                Value::str("Action"),
                Value::str("Mendes"),
            ]),
            -1,
        )]);
        v.apply(&db, "M", &delta).unwrap();
        assert_eq!(v.result.cardinality(), 1);
    }

    #[test]
    fn updates_to_unrelated_relations_are_noops() {
        let mut db = example_movies();
        db.declare("Other", Type::Base(BaseType::Int));
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
        let mut v = RecursiveView::first_order(q, &db).unwrap();
        let before = v.result.clone();
        v.apply(&db, "Other", &Bag::from_values([Value::int(1)]))
            .unwrap();
        assert_eq!(v.result, before);
    }
}
