//! Shredded maintenance of full NRC⁺ views (§5 of the paper).
//!
//! A non-IncNRC⁺ query (one with input-dependent nested singletons, like
//! `related` in §2) is shredded into a flat query plus context dictionaries,
//! both in IncNRC⁺ₗ and hence efficiently incrementalizable (Thm. 5). The
//! engine maintains:
//!
//! * the **shredded inputs** `R__F : Bag(A^F)`, `R__G : A^Γ` for every
//!   relation (the [`ShreddedStore`]),
//! * per view, the materialized **flat result** and the **context
//!   dictionaries** restricted to reachable labels.
//!
//! Updates are [`ShreddedUpdate`]s — a flat component applied by `⊎` to
//! `R__F` and a context component applied by dictionary addition `⊎` to
//! `R__G`. **Deep updates** (the paper's motivating capability) are context
//! components alone: modifying the definition of one label without touching
//! the flat relation at all.

use crate::error::EngineError;
use crate::stats::ViewStats;
use nrc_core::delta::delta_wrt_var;
use nrc_core::eval::{eval_query, resolve_ctx, CtxVal, Env};
use nrc_core::optimize::simplify;
use nrc_core::shred::values::{
    add_ctx_value, add_ctx_value_in_place, empty_ctx_value, shred_bag, LabelGen,
};
use nrc_core::shred::{
    ctx_name, flat_name, maintain_ctx, materialize, nest_bag, shred_query, shred_type_ctx,
    shred_type_flat, CtxWork, LabelRefs, Shredded,
};
use nrc_core::typecheck::TypeEnv;
use nrc_core::Expr;
use nrc_data::{Bag, Database, Label, Type, Value};
use std::collections::BTreeMap;

/// The shredded representations of the database's relations, shared by all
/// shredded views.
#[derive(Clone, Debug, Default)]
pub struct ShreddedStore {
    /// Per relation: the flat bag `R__F` and context value `R__G`.
    pub inputs: BTreeMap<String, (Bag, Value)>,
    /// Original element types.
    pub schemas: BTreeMap<String, Type>,
    /// Fresh-label supply for input inner bags.
    pub gen: LabelGen,
}

impl ShreddedStore {
    /// Shred every relation of `db`.
    pub fn from_database(db: &Database) -> Result<ShreddedStore, EngineError> {
        let mut store = ShreddedStore::default();
        for (name, bag) in db.iter() {
            let elem_ty = db
                .schema(name)
                .ok_or_else(|| EngineError::UnknownRelation(name.clone()))?
                .clone();
            let (flat, ctx) = shred_bag(bag, &elem_ty, &mut store.gen)?;
            store.inputs.insert(name.clone(), (flat, ctx));
            store.schemas.insert(name.clone(), elem_ty);
        }
        Ok(store)
    }

    /// Bind all shredded inputs into an evaluation environment.
    pub fn bind_env(&self, env: &mut Env<'_>) -> Result<(), EngineError> {
        for (name, (flat, ctx)) in &self.inputs {
            env.bind_let(flat_name(name), Value::Bag(flat.clone()));
            env.bind_ctx(ctx_name(name), CtxVal::from_value(ctx)?);
        }
        Ok(())
    }

    /// The shredded-world typing environment (for delta derivation and
    /// simplification): `R__F`, `R__G`, `ΔR__F`, `ΔR__G` for every relation.
    pub fn type_env(&self) -> Result<TypeEnv, EngineError> {
        let mut env = TypeEnv::default();
        for (name, elem_ty) in &self.schemas {
            let f_ty = Type::bag(shred_type_flat(elem_ty)?);
            let g_ty = shred_type_ctx(elem_ty)?;
            env.lets.push((flat_name(name), f_ty.clone()));
            env.lets.push((ctx_name(name), g_ty.clone()));
            env.lets.push((delta_flat_name(name), f_ty));
            env.lets.push((delta_ctx_name(name), g_ty));
        }
        Ok(env)
    }

    /// Apply a shredded update to relation `rel`'s stored representation.
    pub fn apply(&mut self, rel: &str, upd: &ShreddedUpdate) -> Result<(), EngineError> {
        let (flat, ctx) = self
            .inputs
            .get_mut(rel)
            .ok_or_else(|| EngineError::UnknownRelation(rel.to_owned()))?;
        flat.union_assign(&upd.flat);
        add_ctx_value_in_place(ctx, &upd.ctx)?;
        Ok(())
    }

    /// Garbage-collect dictionary definitions unreachable from the flat
    /// bag of `rel` (deletions leave orphaned definitions behind — labels
    /// are never reused, so dropping them is safe). Returns the number of
    /// definitions removed. This is the optional cleanup half of §2.2's
    /// domain maintenance.
    pub fn gc(&mut self, rel: &str) -> Result<usize, EngineError> {
        let elem_ty = self
            .schemas
            .get(rel)
            .ok_or_else(|| EngineError::UnknownRelation(rel.to_owned()))?
            .clone();
        let (flat, ctx) = self
            .inputs
            .get_mut(rel)
            .ok_or_else(|| EngineError::UnknownRelation(rel.to_owned()))?;
        let flat = flat.clone();
        let mut removed = 0;
        gc_level(&flat, &elem_ty, ctx, &mut removed)?;
        Ok(removed)
    }

    /// Recover the nested contents of relation `rel` from its shredded form.
    pub fn nested(&self, rel: &str) -> Result<Bag, EngineError> {
        let (flat, ctx) = self
            .inputs
            .get(rel)
            .ok_or_else(|| EngineError::UnknownRelation(rel.to_owned()))?;
        let elem_ty = &self.schemas[rel];
        Ok(nest_bag(flat, elem_ty, ctx)?)
    }
}

/// One GC level: keep only the dictionary entries whose labels occur in
/// `flat` (at the matching type positions), then recurse with the kept
/// definitions as the next level's flat population.
fn gc_level(
    flat: &Bag,
    elem_ty: &Type,
    ctx: &mut Value,
    removed: &mut usize,
) -> Result<(), EngineError> {
    // Walk the ctx tree in lockstep with the type; at each bag node,
    // restrict the dictionary to the labels present in `flat` at that
    // position, then recurse into the child with the kept definitions.
    fn walk(
        population: &[Value],
        ty: &Type,
        ctx: &mut Value,
        removed: &mut usize,
    ) -> Result<(), EngineError> {
        match (ty, ctx) {
            (Type::Base(_), _) => Ok(()),
            (Type::Tuple(ts), Value::Tuple(cs)) if ts.len() == cs.len() => {
                for (i, (t, c)) in ts.iter().zip(cs.iter_mut()).enumerate() {
                    let projected: Vec<Value> = population
                        .iter()
                        .filter_map(|v| match v {
                            Value::Tuple(vs) => vs.get(i).cloned(),
                            _ => None,
                        })
                        .collect();
                    walk(&projected, t, c, removed)?;
                }
                Ok(())
            }
            (Type::Bag(elem), Value::Tuple(node)) if node.len() == 2 => {
                let live: std::collections::BTreeSet<Label> = population
                    .iter()
                    .filter_map(|v| match v {
                        Value::Label(l) => Some(l.clone()),
                        _ => None,
                    })
                    .collect();
                let (before, defs) = match &mut node[0] {
                    Value::Dict(d) => {
                        let before = d.support_size();
                        d.retain(|l| live.contains(l));
                        let defs: Vec<Value> = d
                            .iter()
                            .flat_map(|(_, bag)| bag.iter().map(|(v, _)| v.clone()))
                            .collect();
                        (before - d.support_size(), defs)
                    }
                    _ => return Err(EngineError::WrongStrategy("gc: malformed context".into())),
                };
                *removed += before;
                walk(&defs, elem, &mut node[1], removed)
            }
            _ => Err(EngineError::WrongStrategy(
                "gc: context/type mismatch".into(),
            )),
        }
    }
    let population: Vec<Value> = flat.iter().map(|(v, _)| v.clone()).collect();
    walk(&population, elem_ty, ctx, removed)
}

/// The canonical name of the flat update variable `ΔR__F`.
pub fn delta_flat_name(rel: &str) -> String {
    format!("Δ{rel}__F")
}

/// The canonical name of the context update variable `ΔR__G`.
pub fn delta_ctx_name(rel: &str) -> String {
    format!("Δ{rel}__G")
}

/// An update to a shredded relation: a flat part (applied with `⊎`) and a
/// context part (applied with dictionary addition `⊎`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShreddedUpdate {
    /// `ΔR^F` — signed flat tuples. Labels of deleted tuples must be the
    /// labels already stored in `R__F` (labels identify inner bags; fresh
    /// labels on a deletion would not cancel).
    pub flat: Bag,
    /// `ΔR^Γ` — signed definition changes, shaped like `A^Γ`.
    pub ctx: Value,
}

impl ShreddedUpdate {
    /// An update that only touches the flat component.
    pub fn flat_only(flat: Bag, elem_ty: &Type) -> Result<ShreddedUpdate, EngineError> {
        Ok(ShreddedUpdate {
            flat,
            ctx: empty_ctx_value(elem_ty)?,
        })
    }

    /// Shred a *proper* (insertion-only) nested bag into an update with
    /// fresh labels.
    pub fn insertion(
        nested: &Bag,
        elem_ty: &Type,
        gen: &mut LabelGen,
    ) -> Result<ShreddedUpdate, EngineError> {
        let (flat, ctx) = shred_bag(nested, elem_ty, gen)?;
        Ok(ShreddedUpdate { flat, ctx })
    }

    /// A **deep update**: add `delta` (a bag of *flat* values) to the
    /// definition of `label`, located at the dictionary node addressed by
    /// `path` within `A^Γ`.
    ///
    /// `path` navigates the *original* element type: tuple component
    /// indices descend into tuples; the final step must land on a `Bag`
    /// type, whose dictionary is targeted. (For deeper bags, address the
    /// inner dictionary by extending the path through the outer bag's
    /// element type using [`DeepPath`].)
    pub fn deep(
        elem_ty: &Type,
        path: &DeepPath,
        label: Label,
        delta: Bag,
    ) -> Result<ShreddedUpdate, EngineError> {
        let mut ctx = empty_ctx_value(elem_ty)?;
        set_deep(&mut ctx, elem_ty, &path.steps, label, delta)?;
        Ok(ShreddedUpdate {
            flat: Bag::empty(),
            ctx,
        })
    }
}

/// A path addressing a dictionary inside a context tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeepPath {
    steps: Vec<DeepStep>,
}

/// One navigation step of a [`DeepPath`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeepStep {
    /// Descend into tuple component `i`.
    Field(usize),
    /// Descend from a bag into its element type (addressing dictionaries of
    /// deeper nesting levels).
    Inner,
}

impl DeepPath {
    /// The root path: the first `Bag` encountered at the element type
    /// itself.
    pub fn root() -> DeepPath {
        DeepPath::default()
    }

    /// Append a tuple-component step.
    pub fn field(mut self, i: usize) -> DeepPath {
        self.steps.push(DeepStep::Field(i));
        self
    }

    /// Append an into-the-bag step.
    pub fn inner(mut self) -> DeepPath {
        self.steps.push(DeepStep::Inner);
        self
    }
}

fn set_deep(
    ctx: &mut Value,
    ty: &Type,
    steps: &[DeepStep],
    label: Label,
    delta: Bag,
) -> Result<(), EngineError> {
    match steps.first() {
        None => match (ctx, ty) {
            // The addressed node must be a bag: its context is (dict, child).
            (Value::Tuple(cs), Type::Bag(_)) if cs.len() == 2 => match &mut cs[0] {
                Value::Dict(d) => {
                    d.add_entry(label, &delta);
                    Ok(())
                }
                _ => Err(EngineError::WrongStrategy(
                    "deep path does not address a dictionary".into(),
                )),
            },
            _ => Err(EngineError::WrongStrategy(
                "deep path must terminate at a bag-typed position".into(),
            )),
        },
        Some(DeepStep::Field(i)) => match (ctx, ty) {
            (Value::Tuple(cs), Type::Tuple(ts)) if *i < cs.len() && *i < ts.len() => {
                set_deep(&mut cs[*i], &ts[*i], &steps[1..], label, delta)
            }
            _ => Err(EngineError::WrongStrategy(
                "deep path field step mismatch".into(),
            )),
        },
        Some(DeepStep::Inner) => match (ctx, ty) {
            (Value::Tuple(cs), Type::Bag(elem)) if cs.len() == 2 => {
                set_deep(&mut cs[1], elem, &steps[1..], label, delta)
            }
            _ => Err(EngineError::WrongStrategy(
                "deep path inner step mismatch".into(),
            )),
        },
    }
}

/// A maintained shredded view.
#[derive(Clone, Debug)]
pub struct ShreddedView {
    /// The original (possibly non-IncNRC⁺) query.
    pub query: Expr,
    /// Its shredding (the context simplified).
    pub shredded: Shredded,
    /// Materialized flat result.
    pub flat_result: Bag,
    /// Materialized context (dictionaries restricted to reachable labels).
    pub ctx_result: Value,
    /// How many elements carry each label of `ctx_result`: what keeps its
    /// supports exact without ever re-deriving them from the flat result.
    refs: LabelRefs,
    /// Per input variable (`R__F` / `R__G`): simplified delta of the flat
    /// query.
    flat_deltas: BTreeMap<String, Expr>,
    /// Per input variable: simplified delta of the context query.
    ctx_deltas: BTreeMap<String, Expr>,
    /// Maintenance counters.
    pub stats: ViewStats,
}

impl ShreddedView {
    /// Shred, derive deltas, and materialize over the store.
    pub fn new(
        query: Expr,
        db: &Database,
        store: &ShreddedStore,
    ) -> Result<ShreddedView, EngineError> {
        let tenv_orig = TypeEnv::from_database(db);
        let mut shredded = shred_query(&query, &tenv_orig)?;
        let tenv = store.type_env()?;
        // Dead context bindings go, so that a dictionary body shows its
        // generator `for x in S where P …` to set-at-a-time application.
        shredded.ctx = simplify(&shredded.ctx, &tenv)?;
        let mut flat_deltas = BTreeMap::new();
        let mut ctx_deltas = BTreeMap::new();
        for rel in query.free_relations() {
            for (var, dvar) in [
                (flat_name(&rel), delta_flat_name(&rel)),
                (ctx_name(&rel), delta_ctx_name(&rel)),
            ] {
                if shredded.flat.depends_on_var(&var) {
                    let d = delta_wrt_var(&shredded.flat, &var, &dvar, &tenv)?;
                    flat_deltas.insert(var.clone(), simplify(&d, &tenv)?);
                }
                if shredded.ctx.depends_on_var(&var) {
                    let d = delta_wrt_var(&shredded.ctx, &var, &dvar, &tenv)?;
                    ctx_deltas.insert(var.clone(), simplify(&d, &tenv)?);
                }
            }
        }
        let mut env = Env::new(db);
        store.bind_env(&mut env)?;
        let (flat_result, ctx_result, refs) = materialize(&shredded, &mut env)?;
        let stats = ViewStats {
            reevaluations: 1,
            eval_steps: env.steps,
            materialized_aux: dict_entries(&ctx_result),
            ..ViewStats::default()
        };
        Ok(ShreddedView {
            query,
            shredded,
            flat_result,
            ctx_result,
            refs,
            flat_deltas,
            ctx_deltas,
            stats,
        })
    }

    /// Apply a shredded update to relation `rel`, maintaining the flat
    /// result incrementally and the context dictionaries in place per §2.2
    /// (delta into the labels it changes, initialization of labels that
    /// become reachable, removal of labels that stop being).
    ///
    /// `db` is the (flat-world) database — only used as the evaluation
    /// anchor; `store_before` must be the shredded store *before* the
    /// update is applied to it.
    pub fn apply(
        &mut self,
        db: &Database,
        store_before: &ShreddedStore,
        rel: &str,
        upd: &ShreddedUpdate,
    ) -> Result<(), EngineError> {
        // Phase A: the context component ΔR__G first, so that definitions of
        // labels the flat component is about to introduce are in place
        // before the flat refresh requests them.
        let is_empty_ctx_delta = dict_entries(&upd.ctx) == 0;
        if !is_empty_ctx_delta {
            self.apply_component(
                db,
                store_before,
                &ctx_name(rel),
                &delta_ctx_name(rel),
                DeltaBinding::Ctx(&upd.ctx),
            )?;
        }
        // Phase B: the flat component ΔR__F, against the store with the
        // context part already applied.
        if !upd.flat.is_empty() {
            let mut store_mid = store_before.clone();
            if !is_empty_ctx_delta {
                let (_, ctx) = store_mid
                    .inputs
                    .get_mut(rel)
                    .ok_or_else(|| EngineError::UnknownRelation(rel.to_owned()))?;
                *ctx = add_ctx_value(ctx, &upd.ctx)?;
            }
            self.apply_component(
                db,
                &store_mid,
                &flat_name(rel),
                &delta_flat_name(rel),
                DeltaBinding::Flat(&upd.flat),
            )?;
        }
        self.stats.updates_applied += 1;
        self.stats.materialized_aux = dict_entries(&self.ctx_result);
        Ok(())
    }

    fn apply_component(
        &mut self,
        db: &Database,
        store: &ShreddedStore,
        var: &str,
        dvar: &str,
        binding: DeltaBinding<'_>,
    ) -> Result<(), EngineError> {
        // Pre-update environment with the update bound: what both deltas
        // are evaluated against.
        let mut env_delta = Env::new(db);
        store.bind_env(&mut env_delta)?;
        match &binding {
            DeltaBinding::Flat(b) => env_delta.bind_let(dvar.to_owned(), Value::Bag((*b).clone())),
            DeltaBinding::Ctx(c) => env_delta.bind_ctx(dvar.to_owned(), CtxVal::from_value(c)?),
        }

        // 1 + 2. Flat delta and context-delta resolution, both against the
        // same immutable pre-update state.
        let obs = nrc_obs::enabled();
        let (flat_change, flat_ns) = timed(obs, || {
            self.flat_deltas
                .get(var)
                .map(|d| eval_query(d, &mut env_delta))
                .transpose()
        });
        let (delta_ctx, delta_ns) = timed(obs, || {
            self.ctx_deltas
                .get(var)
                .map(|d| resolve_ctx(d, &mut env_delta))
                .transpose()
        });
        let flat_change = flat_change?;
        if let Some(change) = &flat_change {
            self.stats.last_delta_card = change.cardinality();
        }
        let flat_change = flat_change.unwrap_or_default();
        let delta_ctx = delta_ctx?;

        // 3. The dictionaries, in place. Labels that become reachable are
        // initialized from the full context over the post-update store.
        let (work, apply_ns) = timed(obs, || -> Result<CtxWork, EngineError> {
            let mut store_after = store.clone();
            apply_binding_to_store(&mut store_after, var, &binding)?;
            let mut env_new = Env::new(db);
            store_after.bind_env(&mut env_new)?;
            let full_ctx = resolve_ctx(&self.shredded.ctx, &mut env_new)?;
            env_delta.steps += env_new.steps;
            Ok(maintain_ctx(
                &mut self.ctx_result,
                &mut self.refs,
                &self.shredded.elem_ty,
                &self.flat_result,
                &flat_change,
                delta_ctx.as_ref(),
                &full_ctx,
                db,
            )?)
        });
        let work = work?;
        self.flat_result.union_assign(&flat_change);
        self.stats.refresh_steps += env_delta.steps;
        if obs {
            record_ctx_work(&work);
            for (phase, ns) in [
                ("shred_flat_delta", flat_ns),
                ("shred_ctx_delta", delta_ns),
                ("shred_dict_apply", apply_ns),
            ] {
                nrc_obs::trace::span(phase, var, ns);
            }
        }
        Ok(())
    }

    /// The nested result (applies the nesting function `u`).
    pub fn nested(&self) -> Result<Bag, EngineError> {
        Ok(nest_bag(
            &self.flat_result,
            &self.shredded.elem_ty,
            &self.ctx_result,
        )?)
    }
}

enum DeltaBinding<'a> {
    Flat(&'a Bag),
    Ctx(&'a Value),
}

fn apply_binding_to_store(
    store: &mut ShreddedStore,
    var: &str,
    binding: &DeltaBinding<'_>,
) -> Result<(), EngineError> {
    // `var` is either `R__F` or `R__G`; find the relation it belongs to.
    for (name, (flat, ctx)) in store.inputs.iter_mut() {
        if flat_name(name) == var {
            if let DeltaBinding::Flat(b) = binding {
                flat.union_assign(b);
            }
            return Ok(());
        }
        if ctx_name(name) == var {
            if let DeltaBinding::Ctx(c) = binding {
                *ctx = add_ctx_value(ctx, c)?;
            }
            return Ok(());
        }
    }
    Err(EngineError::UnknownRelation(var.to_owned()))
}

/// `f()` and, when `on`, the nanoseconds it took.
fn timed<T>(on: bool, f: impl FnOnce() -> T) -> (T, u64) {
    let start = on.then(std::time::Instant::now);
    let out = f();
    (out, start.map_or(0, |t| t.elapsed().as_nanos() as u64))
}

/// Add one dictionary-maintenance pass to the `engine.shred.*` counters.
fn record_ctx_work(work: &CtxWork) {
    use std::sync::{Arc, LazyLock};
    static COUNTERS: LazyLock<[Arc<nrc_obs::Counter>; 4]> = LazyLock::new(|| {
        [
            nrc_obs::counter("engine.shred.labels_touched"),
            nrc_obs::counter("engine.shred.labels_initialized"),
            nrc_obs::counter("engine.shred.labels_removed"),
            nrc_obs::counter("engine.shred.body_evals"),
        ]
    });
    let [touched, initialized, removed, body_evals] = &*COUNTERS;
    touched.add(work.labels_touched);
    initialized.add(work.labels_initialized);
    removed.add(work.labels_removed);
    body_evals.add(work.body_evals);
}

/// Count the dictionary entries in a context value (statistics).
pub fn dict_entries(ctx: &Value) -> u64 {
    match ctx {
        Value::Tuple(cs) => cs.iter().map(dict_entries).sum(),
        Value::Dict(d) => d.support_size() as u64,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrc_core::builder::*;
    use nrc_core::eval::eval_query as eval_direct;
    use nrc_data::database::{example_movies, example_movies_update};
    use nrc_data::BaseType;

    fn reevaluate(q: &Expr, db: &Database) -> Bag {
        let mut env = Env::new(db);
        eval_direct(q, &mut env).unwrap()
    }

    #[test]
    fn related_is_maintained_incrementally() {
        // The §2 motivating example end to end: insert Jarhead, check the
        // maintained nested view matches re-evaluation (including the deep
        // changes to Drive's and Skyfall's inner bags).
        let db = example_movies();
        let store = ShreddedStore::from_database(&db).unwrap();
        let mut view = ShreddedView::new(related_query(), &db, &store).unwrap();
        assert_eq!(view.nested().unwrap(), reevaluate(&related_query(), &db));

        let upd =
            ShreddedUpdate::flat_only(example_movies_update(), db.schema("M").unwrap()).unwrap();
        let mut db2 = db.clone();
        db2.apply_update("M", &example_movies_update()).unwrap();
        view.apply(&db, &store, "M", &upd).unwrap();
        assert_eq!(view.nested().unwrap(), reevaluate(&related_query(), &db2));
        assert_eq!(view.stats.updates_applied, 1);
    }

    #[test]
    fn related_supports_deletions() {
        let db = example_movies();
        let store = ShreddedStore::from_database(&db).unwrap();
        let mut view = ShreddedView::new(related_query(), &db, &store).unwrap();
        // Delete Rush.
        let delta = Bag::from_pairs([(
            Value::Tuple(vec![
                Value::str("Rush"),
                Value::str("Action"),
                Value::str("Howard"),
            ]),
            -1,
        )]);
        let upd = ShreddedUpdate::flat_only(delta.clone(), db.schema("M").unwrap()).unwrap();
        let mut db2 = db.clone();
        db2.apply_update("M", &delta).unwrap();
        view.apply(&db, &store, "M", &upd).unwrap();
        assert_eq!(view.nested().unwrap(), reevaluate(&related_query(), &db2));
    }

    fn nested_orders_db() -> (Database, Type) {
        // R : Bag(Int × Bag(Int)) — "order id × items".
        let elem = Type::pair(
            Type::Base(BaseType::Int),
            Type::bag(Type::Base(BaseType::Int)),
        );
        let mut db = Database::new();
        db.insert_relation(
            "R",
            elem.clone(),
            Bag::from_values([
                Value::pair(
                    Value::int(1),
                    Value::Bag(Bag::from_values([Value::int(10), Value::int(11)])),
                ),
                Value::pair(
                    Value::int(2),
                    Value::Bag(Bag::from_values([Value::int(20)])),
                ),
            ]),
        );
        (db, elem)
    }

    #[test]
    fn deep_update_modifies_an_inner_bag_without_touching_flat() {
        // Forward query: identity over R. A deep update adds an item to
        // order 1's inner bag; the maintained view must reflect it.
        let (db, elem) = nested_orders_db();
        let store = ShreddedStore::from_database(&db).unwrap();
        let view_q = for_("x", rel("R"), elem_sng("x"));
        let mut view = ShreddedView::new(view_q, &db, &store).unwrap();

        // Find the label of order 1's inner bag in the store.
        let (flat, _) = &store.inputs["R"];
        let label = flat
            .iter()
            .find(|(v, _)| v.project(0).unwrap() == &Value::int(1))
            .map(|(v, _)| v.project(1).unwrap().as_label().unwrap().clone())
            .unwrap();

        // Deep update: R.2 is the bag position (Field(1)).
        let upd = ShreddedUpdate::deep(
            &elem,
            &DeepPath::root().field(1),
            label.clone(),
            Bag::from_values([Value::int(12)]),
        )
        .unwrap();
        assert!(upd.flat.is_empty());

        view.apply(&db, &store, "R", &upd).unwrap();
        let nested = view.nested().unwrap();
        let order1 = nested
            .iter()
            .find(|(v, _)| v.project(0).unwrap() == &Value::int(1))
            .map(|(v, _)| v.project(1).unwrap().as_bag().unwrap().clone())
            .unwrap();
        assert_eq!(order1.multiplicity(&Value::int(12)), 1);
        assert_eq!(order1.cardinality(), 3);
        // Order 2 untouched.
        let order2 = nested
            .iter()
            .find(|(v, _)| v.project(0).unwrap() == &Value::int(2))
            .map(|(v, _)| v.project(1).unwrap().as_bag().unwrap().clone())
            .unwrap();
        assert_eq!(order2.cardinality(), 1);
    }

    #[test]
    fn deep_deletion_from_inner_bag() {
        let (db, elem) = nested_orders_db();
        let store = ShreddedStore::from_database(&db).unwrap();
        let view_q = for_("x", rel("R"), elem_sng("x"));
        let mut view = ShreddedView::new(view_q, &db, &store).unwrap();
        let (flat, _) = &store.inputs["R"];
        let label = flat
            .iter()
            .find(|(v, _)| v.project(0).unwrap() == &Value::int(1))
            .map(|(v, _)| v.project(1).unwrap().as_label().unwrap().clone())
            .unwrap();
        let upd = ShreddedUpdate::deep(
            &elem,
            &DeepPath::root().field(1),
            label,
            Bag::from_pairs([(Value::int(10), -1)]),
        )
        .unwrap();
        view.apply(&db, &store, "R", &upd).unwrap();
        let nested = view.nested().unwrap();
        let order1 = nested
            .iter()
            .find(|(v, _)| v.project(0).unwrap() == &Value::int(1))
            .map(|(v, _)| v.project(1).unwrap().as_bag().unwrap().clone())
            .unwrap();
        assert_eq!(order1, Bag::from_values([Value::int(11)]));
    }

    #[test]
    fn insertion_updates_shred_with_fresh_labels() {
        let (db, elem) = nested_orders_db();
        let mut store = ShreddedStore::from_database(&db).unwrap();
        let view_q = for_("x", rel("R"), elem_sng("x"));
        let mut view = ShreddedView::new(view_q, &db, &store).unwrap();
        let nested_insert = Bag::from_values([Value::pair(
            Value::int(3),
            Value::Bag(Bag::from_values([Value::int(30), Value::int(31)])),
        )]);
        let upd = ShreddedUpdate::insertion(&nested_insert, &elem, &mut store.gen).unwrap();
        view.apply(&db, &store, "R", &upd).unwrap();
        store.apply("R", &upd).unwrap();
        let nested = view.nested().unwrap();
        assert_eq!(nested.distinct_count(), 3);
        assert_eq!(store.nested("R").unwrap(), nested);
    }

    #[test]
    fn flatten_views_follow_deep_updates() {
        // flatten(R.2 parts): total items = flatten over inner bags. The
        // view depends on R__G via dictionary application, so deep updates
        // must propagate through δ wrt the context variable.
        let (db, elem) = nested_orders_db();
        let store = ShreddedStore::from_database(&db).unwrap();
        let q = flatten(for_("x", rel("R"), proj_sng("x", vec![1])));
        let mut view = ShreddedView::new(q.clone(), &db, &store).unwrap();
        assert_eq!(view.nested().unwrap().cardinality(), 3);
        let (flat, _) = &store.inputs["R"];
        let label = flat
            .iter()
            .find(|(v, _)| v.project(0).unwrap() == &Value::int(2))
            .map(|(v, _)| v.project(1).unwrap().as_label().unwrap().clone())
            .unwrap();
        let upd = ShreddedUpdate::deep(
            &elem,
            &DeepPath::root().field(1),
            label,
            Bag::from_values([Value::int(21), Value::int(22)]),
        )
        .unwrap();
        view.apply(&db, &store, "R", &upd).unwrap();
        assert_eq!(view.nested().unwrap().cardinality(), 5);
        assert_eq!(view.nested().unwrap().multiplicity(&Value::int(21)), 1);
    }

    #[test]
    fn store_roundtrips_nested_relations() {
        let (db, _) = nested_orders_db();
        let store = ShreddedStore::from_database(&db).unwrap();
        assert_eq!(&store.nested("R").unwrap(), db.get("R").unwrap());
    }

    #[test]
    fn deep_path_validation() {
        let elem = Type::pair(
            Type::Base(BaseType::Int),
            Type::bag(Type::Base(BaseType::Int)),
        );
        // Addressing a non-bag position fails.
        let err = ShreddedUpdate::deep(
            &elem,
            &DeepPath::root().field(0),
            Label::atomic(1),
            Bag::empty(),
        );
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;
    use nrc_data::BaseType;

    #[test]
    fn gc_drops_orphaned_definitions_after_deletion() {
        let elem = Type::pair(
            Type::Base(BaseType::Int),
            Type::bag(Type::Base(BaseType::Int)),
        );
        let mut db = Database::new();
        db.insert_relation(
            "R",
            elem.clone(),
            Bag::from_values([
                Value::pair(
                    Value::int(1),
                    Value::Bag(Bag::from_values([Value::int(10)])),
                ),
                Value::pair(
                    Value::int(2),
                    Value::Bag(Bag::from_values([Value::int(20)])),
                ),
            ]),
        );
        let mut store = ShreddedStore::from_database(&db).unwrap();
        // Delete tuple 1 by its stored flat form.
        let (flat, _) = &store.inputs["R"];
        let victim = flat
            .iter()
            .find(|(v, _)| v.project(0).unwrap() == &Value::int(1))
            .map(|(v, _)| v.clone())
            .unwrap();
        let upd = ShreddedUpdate::flat_only(Bag::from_pairs([(victim, -1)]), &elem).unwrap();
        store.apply("R", &upd).unwrap();
        // The items dictionary still holds both definitions until GC runs.
        let dict_count_before = crate::shredded::dict_entries(&store.inputs["R"].1);
        assert_eq!(dict_count_before, 2);
        let removed = store.gc("R").unwrap();
        assert_eq!(removed, 1);
        assert_eq!(crate::shredded::dict_entries(&store.inputs["R"].1), 1);
        // The surviving tuple still nests correctly.
        let nested = store.nested("R").unwrap();
        assert_eq!(nested.cardinality(), 1);
    }

    #[test]
    fn gc_is_a_noop_on_fully_live_stores() {
        let elem = Type::pair(
            Type::Base(BaseType::Int),
            Type::bag(Type::Base(BaseType::Int)),
        );
        let mut db = Database::new();
        db.insert_relation(
            "R",
            elem,
            Bag::from_values([Value::pair(
                Value::int(1),
                Value::Bag(Bag::from_values([Value::int(10)])),
            )]),
        );
        let mut store = ShreddedStore::from_database(&db).unwrap();
        assert_eq!(store.gc("R").unwrap(), 0);
        assert!(store.gc("missing").is_err());
    }

    #[test]
    fn gc_handles_two_level_nesting() {
        // Bag(Int × Bag(Int × Bag(Int))): deleting a top tuple orphans both
        // its orders dictionary entry and the items entries beneath it.
        let items = Type::bag(Type::Base(BaseType::Int));
        let orders = Type::bag(Type::pair(Type::Base(BaseType::Int), items));
        let elem = Type::pair(Type::Base(BaseType::Int), orders);
        let make = |id: i64| {
            Value::pair(
                Value::int(id),
                Value::Bag(Bag::from_values([Value::pair(
                    Value::int(id * 10),
                    Value::Bag(Bag::from_values([Value::int(id * 100)])),
                )])),
            )
        };
        let mut db = Database::new();
        db.insert_relation("R", elem.clone(), Bag::from_values([make(1), make(2)]));
        let mut store = ShreddedStore::from_database(&db).unwrap();
        let (flat, _) = &store.inputs["R"];
        let victim = flat
            .iter()
            .find(|(v, _)| v.project(0).unwrap() == &Value::int(2))
            .map(|(v, _)| v.clone())
            .unwrap();
        let upd = ShreddedUpdate::flat_only(Bag::from_pairs([(victim, -1)]), &elem).unwrap();
        store.apply("R", &upd).unwrap();
        // 2 orphaned entries: customer 2's orders def and its items def.
        assert_eq!(store.gc("R").unwrap(), 2);
        assert_eq!(store.nested("R").unwrap().cardinality(), 1);
    }
}
