//! The shredded executor: contexts materialized and maintained in place.
//!
//! Dictionary expressions denote functions with a-priori infinite domain
//! (§5.2); materializing a shredded query therefore follows the paper's
//! domain-maintenance discipline: *"when materializing them as part of a
//! shredding context we need only compute the definitions of the labels
//! produced by the flat version of the query."*
//!
//! [`maintain_ctx`] is the one path that does this, for the first
//! materialization and for every update alike. Given how the flat result
//! changes and the delta of the context, per dictionary of the context:
//!
//! * the delta is `⊎`-ed into the labels whose change is non-empty — no
//!   other definition is touched, so a dictionary shares every untouched
//!   node with its published snapshots;
//! * a label is **initialized** from the full context when the first
//!   element carrying it appears, and **removed** when the last one goes
//!   ([`LabelRefs`] counts them), so the support is at every moment exactly
//!   the labels reachable from the flat result;
//! * definitions that appear, change or go are in turn the population
//!   change of the next nesting level.
//!
//! [`eval_shredded`] is `maintain_ctx` from the empty context, and
//! [`eval_shredded_nested`] additionally applies the nesting function `u`,
//! giving the end-to-end pipeline of Thm. 8:
//!
//! ```text
//! h[R] = for x^F in h^F union u[h^Γ](x^F)      (over the shredded input)
//! ```

use super::transform::Shredded;
use super::values::{empty_ctx_value, nest_bag, shred_bag, LabelGen};
use super::ShredError;
use crate::eval::{apply_dict_set, eval_query, resolve_ctx, CtxVal, DictVal, Env};
use crate::expr::Expr;
use crate::typecheck::is_flat_type;
use nrc_data::intern::Vid;
use nrc_data::{Bag, DataError, Database, Dictionary, Label, Type, Value};
use std::collections::BTreeMap;

/// Per dictionary of a materialized context, how many elements of its
/// level's population carry each label: flat-result tuples at the top,
/// `(label, element)` entries of the parent dictionary below. A label is in
/// a dictionary's support exactly while its count is positive. Shaped like
/// the element type.
#[derive(Clone, Debug)]
pub enum LabelRefs {
    /// A position without inner bags.
    Flat,
    /// Componentwise counts of a tuple type.
    Tuple(Vec<LabelRefs>),
    /// A `Bag(C)` position: a bag of labels whose multiplicities are the
    /// counts, and the counts of `C`'s own positions.
    Bag {
        /// Label ↦ number of population elements carrying it.
        counts: Bag,
        /// The counts of the next nesting level.
        child: Box<LabelRefs>,
    },
}

impl LabelRefs {
    /// The counts of an empty context of element type `ty`.
    pub fn empty(ty: &Type) -> LabelRefs {
        match ty {
            Type::Tuple(ts) if !is_flat_type(ty) => {
                LabelRefs::Tuple(ts.iter().map(LabelRefs::empty).collect())
            }
            Type::Bag(c) => LabelRefs::Bag {
                counts: Bag::empty(),
                child: Box::new(LabelRefs::empty(c)),
            },
            _ => LabelRefs::Flat,
        }
    }
}

/// What one [`maintain_ctx`] call did, as exact counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtxWork {
    /// Existing definitions the delta was `⊎`-ed into.
    pub labels_touched: u64,
    /// Definitions initialized for labels that became reachable.
    pub labels_initialized: u64,
    /// Definitions removed because their label became unreachable.
    pub labels_removed: u64,
    /// Dictionary-body evaluations (see [`apply_dict_set`]).
    pub body_evals: u64,
}

/// Bring the materialized context `mat` (with its reference counts `refs`)
/// from the state matching `flat_before` to the state matching
/// `flat_before ⊎ flat_change`, in place.
///
/// * `delta` is the context's delta, resolved against the pre-update
///   environment with the update bound; `None` when the context does not
///   change.
/// * `full` is the full context resolved against the post-update
///   environment; labels that become reachable are initialized from it.
///
/// Cost: the definitions the delta changes and the labels that appear or
/// go, `O(log n)` tree work each, plus the body evaluations
/// [`apply_dict_set`] makes. A dictionary-literal delta is additionally
/// matched against every label of the support it applies to (a hash probe
/// per label); nothing else grows with the context, and no definition the
/// update leaves alone is written.
#[allow(clippy::too_many_arguments)]
pub fn maintain_ctx(
    mat: &mut Value,
    refs: &mut LabelRefs,
    elem_ty: &Type,
    flat_before: &Bag,
    flat_change: &Bag,
    delta: Option<&CtxVal>,
    full: &CtxVal,
    db: &Database,
) -> Result<CtxWork, ShredError> {
    // Ids of elements that leave a definition are resolved after the
    // definition is gone.
    let _pin = nrc_data::intern::pin();
    let mut change = Population::default();
    for (id, m) in flat_change.ids() {
        change.note(id, flat_before.multiplicity_id(id), m);
    }
    let mut run = Maintenance {
        db,
        work: CtxWork::default(),
    };
    run.level(elem_ty, mat, refs, delta, full, &mut Vec::new(), &change)?;
    Ok(run.work)
}

/// The elements that entered and left one level's population.
#[derive(Default)]
struct Population {
    appeared: Vec<Vid>,
    vanished: Vec<Vid>,
}

impl Population {
    /// Element `id` had multiplicity `before` and gains `m`.
    fn note(&mut self, id: Vid, before: i64, m: i64) {
        let after = before.saturating_add(m);
        if before == 0 && after != 0 {
            self.appeared.push(id);
        } else if before != 0 && after == 0 {
            self.vanished.push(id);
        }
    }
}

struct Maintenance<'a> {
    db: &'a Database,
    work: CtxWork,
}

impl Maintenance<'_> {
    /// Maintain the dictionaries of the positions of `ty`, given the
    /// `change` of the population whose elements have (flat) type `ty`;
    /// `at` is the position of `ty` inside an element. `mat`, `refs`,
    /// `delta` and `full` are the nodes of their trees at that position.
    #[allow(clippy::too_many_arguments)]
    fn level(
        &mut self,
        ty: &Type,
        mat: &mut Value,
        refs: &mut LabelRefs,
        delta: Option<&CtxVal>,
        full: &CtxVal,
        at: &mut Vec<usize>,
        change: &Population,
    ) -> Result<(), ShredError> {
        match (ty, mat, refs) {
            (_, _, LabelRefs::Flat) => Ok(()),
            (Type::Tuple(ts), Value::Tuple(ms), LabelRefs::Tuple(rs))
                if ms.len() == ts.len() && rs.len() == ts.len() =>
            {
                for (i, ((t, m), r)) in ts.iter().zip(ms).zip(rs).enumerate() {
                    let d = delta.map(|d| d.project(i)).transpose()?;
                    at.push(i);
                    let done = self.level(t, m, r, d, full.project(i)?, at, change);
                    at.pop();
                    done?;
                }
                Ok(())
            }
            (Type::Bag(elem), Value::Tuple(node), LabelRefs::Bag { counts, child }) => {
                let [Value::Dict(dict), child_mat] = node.as_mut_slice() else {
                    return Err(ShredError::Shape("context/bag shape mismatch".into()));
                };
                let (delta_dict, delta_child) = match delta {
                    Some(d) => (Some(d.project(0)?.as_dict()?), Some(d.project(1)?)),
                    None => (None, None),
                };
                let deeper = !is_flat_type(elem);
                let mut below = Population::default();

                // The delta, into the definitions it changes.
                if let Some(delta_dict) = delta_dict {
                    for (label, by) in self.changes(delta_dict, dict)? {
                        if deeper {
                            let def = dict.get_id(label).expect("changes are of defined labels");
                            for (id, m) in by.ids() {
                                below.note(id, def.multiplicity_id(id), m);
                            }
                        }
                        dict.add_entry_id(label, &by);
                        self.work.labels_touched += 1;
                    }
                }

                // Reference counts: which labels became reachable, which
                // stopped being.
                let mut net: BTreeMap<&Value, i64> = BTreeMap::new();
                for (ids, by) in [(&change.appeared, 1), (&change.vanished, -1)] {
                    for id in ids {
                        *net.entry(id.value().project_path(at)?).or_default() += by;
                    }
                }
                let (mut born, mut dead) = (Vec::new(), Vec::new());
                for (label, by) in net {
                    if by == 0 {
                        continue;
                    }
                    let before = counts.multiplicity(label);
                    if before + by < 0 {
                        return Err(ShredError::Shape(format!(
                            "more elements left than carried label {label}"
                        )));
                    }
                    counts.insert(label.clone(), by);
                    if before == 0 {
                        born.push(label.as_label()?);
                    } else if before + by == 0 {
                        dead.push(label.as_label()?);
                    }
                }

                if !born.is_empty() {
                    let full_dict = full.project(0)?.as_dict()?;
                    let mut defs =
                        apply_dict_set(full_dict, &born, self.db, &mut self.work.body_evals)?
                            .into_iter()
                            .peekable();
                    for (i, label) in born.into_iter().enumerate() {
                        if !full_dict.defines(label) {
                            return Err(DataError::UndefinedLabel {
                                label: label.clone(),
                            }
                            .into());
                        }
                        let def = defs.next_if(|(pos, _)| *pos == i).map(|(_, def)| def);
                        let def = def.unwrap_or_default();
                        if deeper {
                            below.appeared.extend(def.ids().map(|(id, _)| id));
                        }
                        dict.define(label.clone(), def);
                        self.work.labels_initialized += 1;
                    }
                }
                for label in dead {
                    let def = dict.remove(label).ok_or_else(|| {
                        ShredError::Shape(format!("counted label {label} has no definition"))
                    })?;
                    if deeper {
                        below.vanished.extend(def.ids().map(|(id, _)| id));
                    }
                    self.work.labels_removed += 1;
                }

                if deeper {
                    let full_child = full.project(1)?;
                    let at = &mut Vec::new();
                    self.level(elem, child_mat, child, delta_child, full_child, at, &below)?;
                }
                Ok(())
            }
            _ => Err(ShredError::Shape(
                "context does not match the element type".into(),
            )),
        }
    }

    /// The non-empty changes `delta` makes to definitions of `dict`, by
    /// label id. Extensional parts are read off their own support, so a
    /// deep update costs its size; only a dictionary literal or a label
    /// union is applied to the whole support.
    fn changes(
        &mut self,
        delta: &DictVal,
        dict: &Dictionary,
    ) -> Result<Vec<(Vid, Bag)>, ShredError> {
        match delta {
            DictVal::Ext(d) => Ok(d
                .entry_ids()
                .filter(|(id, by)| !by.is_empty() && dict.get_id(*id).is_some())
                .map(|(id, by)| (id, by.clone()))
                .collect()),
            DictVal::Intens(literal) if matches!(literal.body, Expr::Empty { .. }) => {
                Ok(Vec::new())
            }
            DictVal::Sum(parts) => {
                let mut sum: BTreeMap<Vid, Bag> = BTreeMap::new();
                for part in parts {
                    for (id, by) in self.changes(part, dict)? {
                        sum.entry(id).or_default().union_assign(&by);
                    }
                }
                Ok(sum.into_iter().filter(|(_, by)| !by.is_empty()).collect())
            }
            DictVal::Intens(_) | DictVal::Union(_) => {
                let ids: Vec<Vid> = dict.entry_ids().map(|(id, _)| id).collect();
                let labels = ids
                    .iter()
                    .map(|id| id.value().as_label())
                    .collect::<Result<Vec<&Label>, _>>()?;
                let by = apply_dict_set(delta, &labels, self.db, &mut self.work.body_evals)?;
                Ok(by.into_iter().map(|(i, by)| (ids[i], by)).collect())
            }
        }
    }
}

/// Materialize a shredded query: its flat bag, the extensional context
/// restricted to reachable labels, and the reference counts
/// [`maintain_ctx`] needs to keep maintaining it.
///
/// The environment must bind the shredded inputs — see
/// [`bind_shredded_database`].
pub fn materialize(s: &Shredded, env: &mut Env<'_>) -> Result<(Bag, Value, LabelRefs), ShredError> {
    let flat = eval_query(&s.flat, env)?;
    let mut ctx = empty_ctx_value(&s.elem_ty)?;
    let mut refs = LabelRefs::empty(&s.elem_ty);
    let full = resolve_ctx(&s.ctx, env)?;
    let (none, db) = (Bag::empty(), env.db);
    maintain_ctx(
        &mut ctx, &mut refs, &s.elem_ty, &none, &flat, None, &full, db,
    )?;
    Ok((flat, ctx, refs))
}

/// Evaluate a shredded query to its flat bag and the extensional context
/// restricted to reachable labels.
pub fn eval_shredded(s: &Shredded, env: &mut Env<'_>) -> Result<(Bag, Value), ShredError> {
    let (flat, ctx, _) = materialize(s, env)?;
    Ok((flat, ctx))
}

/// Evaluate a shredded query and nest the result back into the original
/// nested bag (the right-hand side of Thm. 8's equation (4)).
pub fn eval_shredded_nested(s: &Shredded, env: &mut Env<'_>) -> Result<Bag, ShredError> {
    let (flat, ctx) = eval_shredded(s, env)?;
    nest_bag(&flat, &s.elem_ty, &ctx)
}

/// Shred every relation of `db` and bind `R__F` / `R__G` in `env`.
/// Returns the shredded pairs for the engine to own and maintain.
pub fn bind_shredded_database(
    env: &mut Env<'_>,
    db: &Database,
    gen: &mut LabelGen,
) -> Result<Vec<(String, Bag, Value)>, ShredError> {
    let mut out = Vec::new();
    for (name, bag) in db.iter() {
        let elem_ty = db
            .schema(name)
            .ok_or_else(|| ShredError::Shape(format!("relation {name} has no schema")))?;
        let (flat, ctx) = shred_bag(bag, elem_ty, gen)?;
        env.bind_let(super::flat_name(name), Value::Bag(flat.clone()));
        env.bind_ctx(super::ctx_name(name), CtxVal::from_value(&ctx)?);
        out.push((name.clone(), flat, ctx));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::shred::transform::shred_query;
    use crate::typecheck::TypeEnv;
    use nrc_data::database::example_movies;
    use nrc_data::BaseType;

    /// End-to-end Thm. 8 check on a query and database: shredded execution +
    /// nesting equals direct evaluation.
    fn check_theorem_8(q: &crate::expr::Expr, db: &Database) {
        let env_t = TypeEnv::from_database(db);
        let s = shred_query(q, &env_t).unwrap();
        let mut env = Env::new(db);
        let mut gen = LabelGen::new();
        bind_shredded_database(&mut env, db, &mut gen).unwrap();
        let nested = eval_shredded_nested(&s, &mut env).unwrap();
        let mut direct_env = Env::new(db);
        let direct = eval_query(q, &mut direct_env).unwrap();
        assert_eq!(nested, direct, "Theorem 8 violated for {q}");
    }

    #[test]
    fn theorem_8_for_related() {
        check_theorem_8(&related_query(), &example_movies());
    }

    #[test]
    fn theorem_8_for_flat_filter() {
        let q = filter_query("M", cmp_lit("x", vec![1], crate::expr::CmpOp::Eq, "Action"));
        check_theorem_8(&q, &example_movies());
    }

    #[test]
    fn theorem_8_for_flatten_of_input_bags() {
        let mut db = Database::new();
        let int = Type::Base(BaseType::Int);
        db.insert_relation(
            "R",
            Type::bag(int),
            Bag::from_values([
                Value::Bag(Bag::from_values([Value::int(1), Value::int(2)])),
                Value::Bag(Bag::from_values([Value::int(2), Value::int(3)])),
                Value::Bag(Bag::empty()),
            ]),
        );
        check_theorem_8(&flatten(rel("R")), &db);
    }

    #[test]
    fn theorem_8_for_doubly_nested_output() {
        // for m in M union sng(for m2 in M union sng(sng-free inner))
        let q = for_(
            "m",
            rel("M"),
            sng(0, for_("m2", rel("M"), sng(0, proj_sng("m2", vec![0])))),
        );
        check_theorem_8(&q, &example_movies());
    }

    #[test]
    fn theorem_8_for_union_and_negation() {
        let q = union(
            related_query(),
            negate(for_(
                "m",
                rel("M"),
                pair(proj_sng("m", vec![0]), sng(7, rel_b("m"))),
            )),
        );
        // related ⊎ ⊖(related-with-different-indices) — exercises ∪ of
        // contexts with disjoint indices; semantically ∅ output.
        check_theorem_8(&q, &example_movies());
    }

    #[test]
    fn theorem_8_for_nested_input_roundtrip_through_query() {
        // Query over an input with nested bags: keep elements whole.
        let mut db = Database::new();
        let elem = Type::pair(
            Type::Base(BaseType::Int),
            Type::bag(Type::Base(BaseType::Int)),
        );
        db.insert_relation(
            "R",
            elem.clone(),
            Bag::from_values([
                Value::pair(
                    Value::int(1),
                    Value::Bag(Bag::from_values([Value::int(10)])),
                ),
                Value::pair(Value::int(2), Value::Bag(Bag::empty())),
            ]),
        );
        let q = for_("x", rel("R"), elem_sng("x"));
        check_theorem_8(&q, &db);
    }

    #[test]
    fn theorem_8_with_lets() {
        let q = let_(
            "X",
            for_("m", rel("M"), sng(0, proj_sng("m", vec![0]))),
            union(var("X"), var("X")),
        );
        check_theorem_8(&q, &example_movies());
    }

    #[test]
    fn shredded_outputs_only_materialize_reachable_labels() {
        // The context dictionary for `related` should define exactly the
        // labels that relatedF emits — one per movie.
        let db = example_movies();
        let env_t = TypeEnv::from_database(&db);
        let s = shred_query(&related_query(), &env_t).unwrap();
        let mut env = Env::new(&db);
        let mut gen = LabelGen::new();
        bind_shredded_database(&mut env, &db, &mut gen).unwrap();
        let (flat, ctx) = eval_shredded(&s, &mut env).unwrap();
        assert_eq!(flat.distinct_count(), 3);
        match &ctx {
            Value::Tuple(cs) => match &cs[1] {
                Value::Tuple(inner) => {
                    let d = inner[0].as_dict().unwrap();
                    assert_eq!(d.support_size(), 3);
                }
                other => panic!("unexpected ctx {other}"),
            },
            other => panic!("unexpected ctx {other}"),
        }
    }

    #[test]
    fn undefined_labels_surface_as_errors() {
        // A flat bag referencing a label with no definition anywhere.
        let db = example_movies();
        let env_t = TypeEnv::from_database(&db);
        let q = for_("m", rel("M"), sng(0, rel_b("m")));
        let s = shred_query(&q, &env_t).unwrap();
        let mut env = Env::new(&db);
        // Deliberately bind M__F with a bogus label-kind: use an empty
        // context so no dictionary defines anything.
        let mut gen = LabelGen::new();
        bind_shredded_database(&mut env, &db, &mut gen).unwrap();
        // Sanity: normal execution works.
        assert!(eval_shredded(&s, &mut env).is_ok());
        // Now re-bind the context of M to empty dictionaries and watch a
        // nested-input query fail. (related's labels come from the query, so
        // use a query that *forwards* input inner bags.)
        let mut db2 = Database::new();
        db2.insert_relation(
            "R",
            Type::bag(Type::Base(BaseType::Int)),
            Bag::from_values([Value::Bag(Bag::from_values([Value::int(4)]))]),
        );
        let env_t2 = TypeEnv::from_database(&db2);
        let forward = for_("x", rel("R"), elem_sng("x"));
        let s2 = shred_query(&forward, &env_t2).unwrap();
        let mut env2 = Env::new(&db2);
        let mut gen2 = LabelGen::new();
        let shredded = bind_shredded_database(&mut env2, &db2, &mut gen2).unwrap();
        // Replace the context binding with empty dictionaries.
        let empty_ctx = super::super::values::empty_ctx_value(db2.schema("R").unwrap()).unwrap();
        env2.ctx_lets.clear();
        env2.bind_ctx(
            super::super::ctx_name("R"),
            CtxVal::from_value(&empty_ctx).unwrap(),
        );
        drop(shredded);
        let err = eval_shredded(&s2, &mut env2).unwrap_err();
        assert!(matches!(
            err,
            ShredError::Data(DataError::UndefinedLabel { .. })
        ));
    }
}
