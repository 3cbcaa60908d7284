//! The delta transformation (Fig. 4 and §5.2 of the paper).
//!
//! For a query `h[R]` and an update `ΔR` applied via `⊎`, the derived delta
//! satisfies Prop. 4.1:
//!
//! ```text
//! h[R ⊎ ΔR] = h[R] ⊎ δ_R(h)[R, ΔR]
//! ```
//!
//! The transformation is **closed** — `δ(h)` is again an IncNRC⁺ₗ expression
//! — which is exactly what enables recursive IVM (§4.1): deltas of deltas
//! keep making sense until the result no longer depends on the input
//! (Thm. 2: `deg(δ(h)) = deg(h) − 1`).
//!
//! Lemma 1 (the delta of an input-independent expression is `∅`) is applied
//! as a shortcut at every node, which keeps derived deltas small; the
//! remaining `∅`-arithmetic is cleaned up by [`crate::optimize::simplify`].
//!
//! The only construct without a delta rule is the input-*dependent* nested
//! singleton `sngι(e)` — precisely the reason the paper introduces shredding
//! (§2, §5). Attempting to differentiate one yields
//! [`DeltaError::InputDependentSng`].

use crate::expr::{delta_var_name, Expr};
use crate::typecheck::{infer, TypeEnv, TypeError};
use nrc_data::{Bag, Type};
use std::fmt;

/// Errors raised by delta derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The expression is outside IncNRC⁺ₗ: a nested singleton depends on the
    /// differentiation target (needs shredding first — §5).
    InputDependentSng {
        /// The static index of the offending singleton.
        index: u32,
    },
    /// A typing error while computing the type of an independent
    /// subexpression (for the `∅` shortcut).
    Type(TypeError),
}

impl From<TypeError> for DeltaError {
    fn from(e: TypeError) -> Self {
        DeltaError::Type(e)
    }
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::InputDependentSng { index } => write!(
                f,
                "sng_{index}(e) has an input-dependent body: no delta rule exists (shred first, §5)"
            ),
            DeltaError::Type(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// What we differentiate with respect to.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Target {
    /// A database relation; occurrences become `Δ^order name`.
    Rel { name: String, order: u32 },
    /// A `let`-bound (or engine-bound) variable; occurrences become
    /// `Var(replacement)`.
    Var { name: String, replacement: String },
}

impl Target {
    fn depends(&self, e: &Expr) -> bool {
        match self {
            Target::Rel { name, .. } => e.depends_on_rel(name),
            Target::Var { name, .. } => e.depends_on_var(name),
        }
    }
}

/// Derive the first-order delta `δ_R(h)` with respect to relation `rel`.
///
/// `env` must contain the relation schemas (and the types of any free
/// variables `h` mentions). The result references `ΔR` as
/// [`Expr::DeltaRel`]`(rel, 1)`.
pub fn delta_wrt_rel(e: &Expr, rel: &str, env: &TypeEnv) -> Result<Expr, DeltaError> {
    delta_wrt_rel_order(e, rel, 1, env)
}

/// Derive a delta with respect to relation `rel`, introducing update
/// relations of the given `order` (`Δ^order R`). Existing lower-order update
/// relations in `e` are treated as constants, which is what makes repeated
/// derivation produce the higher-order deltas of §4.1.
pub fn delta_wrt_rel_order(
    e: &Expr,
    rel: &str,
    order: u32,
    env: &TypeEnv,
) -> Result<Expr, DeltaError> {
    let mut env = env.clone();
    let target = Target::Rel {
        name: rel.to_owned(),
        order,
    };
    delta(e, &target, &mut env)
}

/// Derive a delta with respect to a free variable `var` (used by the engine
/// for views over bound inputs, e.g. shredded relations); occurrences of
/// `var` are replaced by `replacement`.
pub fn delta_wrt_var(
    e: &Expr,
    var: &str,
    replacement: &str,
    env: &TypeEnv,
) -> Result<Expr, DeltaError> {
    let mut env = env.clone();
    let target = Target::Var {
        name: var.to_owned(),
        replacement: replacement.to_owned(),
    };
    delta(e, &target, &mut env)
}

/// Derive the full higher-order delta tower `[h, δ(h), δ²(h), …]` with
/// respect to `rel`, simplifying between derivations, until the last entry
/// is input-independent (§4.1: this happens after exactly `deg(h)` steps)
/// or `max_orders` is reached.
pub fn delta_tower(
    e: &Expr,
    rel: &str,
    env: &TypeEnv,
    max_orders: u32,
) -> Result<Vec<Expr>, DeltaError> {
    let mut tower = vec![crate::optimize::simplify(e, env)?];
    for _ in 0..max_orders {
        let last = tower.last().expect("tower is non-empty");
        if !last.depends_on_rel(rel) {
            break;
        }
        let order = next_delta_order(last, rel);
        let d = delta_wrt_rel_order(last, rel, order, env)?;
        tower.push(crate::optimize::simplify(&d, env)?);
    }
    Ok(tower)
}

/// The next unused update order for relation `rel` in `e` (1 if `e` has no
/// `Δ^k rel` yet).
pub fn next_delta_order(e: &Expr, rel: &str) -> u32 {
    e.delta_relations()
        .into_iter()
        .filter(|(n, _)| n == rel)
        .map(|(_, k)| k)
        .max()
        .map_or(1, |k| k + 1)
}

/// Build the `∅` of the same type as `e` (Lemma 1's shortcut value):
/// `Empty` for bag types, `EmptyCtx` for context/dictionary types.
fn empty_like(e: &Expr, env: &mut TypeEnv) -> Result<Expr, DeltaError> {
    let ty = infer(e, env)?;
    empty_of_type(&ty).ok_or_else(|| {
        DeltaError::Type(TypeError::NotABag {
            at: "delta of independent expression".into(),
            got: ty.to_string(),
        })
    })
}

/// The `∅` expression of a given (bag or context) type.
pub fn empty_of_type(ty: &Type) -> Option<Expr> {
    match ty {
        Type::Bag(elem) => Some(Expr::Empty {
            elem_ty: (**elem).clone(),
        }),
        Type::Tuple(_) | Type::Dict(_) => Some(Expr::EmptyCtx(ty.clone())),
        _ => None,
    }
}

/// Coalesce a sequence of `(relation, Δ)` updates into one `⊎`-merged delta
/// per relation, preserving the order in which relations first appear.
///
/// Soundness is the additivity underlying Prop. 4.1: updates live in the
/// commutative group of generalized bags, so for a single relation
/// `h[R ⊎ u₁ ⊎ u₂] = h[R] ⊎ δ(h)[R, u₁ ⊎ u₂]` — the delta query evaluated
/// once on the coalesced update equals the composition of the per-update
/// refreshes. Updates to *different* relations do not commute with each
/// other's refresh in general, which is why the relation order is kept:
/// callers apply the coalesced segments sequentially.
///
/// ```
/// use nrc_core::delta::coalesce_updates;
/// use nrc_data::{Bag, Value};
/// let u1 = ("R".to_string(), Bag::from_values([Value::int(1)]));
/// let u2 = ("S".to_string(), Bag::from_values([Value::int(9)]));
/// let u3 = ("R".to_string(), Bag::from_pairs([(Value::int(1), -1)]));
/// let coalesced = coalesce_updates([u1, u2, u3]);
/// assert_eq!(coalesced.len(), 2);
/// assert_eq!(coalesced[0].0, "R");
/// assert!(coalesced[0].1.is_empty()); // insert and delete of 1 cancel
/// ```
pub fn coalesce_updates<I>(updates: I) -> Vec<(String, Bag)>
where
    I: IntoIterator<Item = (String, Bag)>,
{
    // Gather per-relation delta groups in first-appearance order, then
    // merge each group with `union_many`'s k-way merge — one tournament of
    // linear run merges per relation (no per-entry tree walks), one
    // bottom-up tree build with a batched retain pass for the result.
    let mut order: Vec<String> = Vec::new();
    let mut groups: std::collections::BTreeMap<String, Vec<Bag>> = Default::default();
    for (rel, delta) in updates {
        if !groups.contains_key(&rel) {
            order.push(rel.clone());
        }
        groups.entry(rel).or_default().push(delta);
    }
    order
        .into_iter()
        .map(|rel| {
            let bags = groups.remove(&rel).expect("group recorded");
            let merged = Bag::union_many(bags.iter());
            (rel, merged)
        })
        .collect()
}

/// Does `e` use `name` anywhere — free, bound, or as a binder? Used to pick
/// collision-free `ΔX` names in the `let` rule.
fn uses_name(e: &Expr, name: &str) -> bool {
    let mut found = match e {
        Expr::Var(x) => x == name,
        Expr::Let { name: n, .. } => n == name,
        _ => false,
    };
    e.for_each_child(|c| found = found || uses_name(c, name));
    found
}

fn fresh_delta_name(base: &str, avoid_in: &[&Expr]) -> String {
    let mut order = 1;
    loop {
        let candidate = delta_var_name(base, order);
        if avoid_in.iter().all(|e| !uses_name(e, &candidate)) {
            return candidate;
        }
        order += 1;
    }
}

fn delta(e: &Expr, target: &Target, env: &mut TypeEnv) -> Result<Expr, DeltaError> {
    // Lemma 1: the delta of a target-independent expression is ∅.
    if !target.depends(e) {
        return empty_like(e, env);
    }
    match e {
        Expr::Rel(name) => match target {
            Target::Rel { name: t, order } if t == name => Ok(Expr::DeltaRel(name.clone(), *order)),
            _ => unreachable!("dependence check ensures the target matches"),
        },
        Expr::Var(x) => match target {
            Target::Var { name, replacement } if name == x => Ok(Expr::Var(replacement.clone())),
            _ => unreachable!("dependence check ensures the target matches"),
        },
        Expr::Let { name, value, body } => {
            // δ_T(let X := e₁ in e₂)
            //   = let X := e₁, ΔX := δ_T(e₁) in δ_T(e₂) ⊎ δ_X(e₂) ⊎ δ_T(δ_X(e₂))
            let value_ty = infer(value, env)?;
            let dvalue = delta(value, target, env)?;
            let dname = fresh_delta_name(name, &[body, value]);

            env.lets.push((name.clone(), value_ty.clone()));
            env.lets.push((dname.clone(), value_ty));

            let result = (|| {
                let x_target = Target::Var {
                    name: name.clone(),
                    replacement: dname.clone(),
                };
                // δ_T(e₂) — X, ΔX treated as constants.
                let shadowed = matches!(target, Target::Var { name: t, .. } if t == name);
                let d_t_body = if shadowed {
                    empty_like(body, env)?
                } else {
                    delta(body, target, env)?
                };
                // δ_X(e₂)
                let d_x_body = delta(body, &x_target, env)?;
                // δ_T(δ_X(e₂))
                let d_t_d_x_body = if shadowed {
                    empty_like(&d_x_body, env)?
                } else {
                    delta(&d_x_body, target, env)?
                };
                // Contexts combine pointwise with dictionary addition, bags
                // with ⊎.
                let body_ty = infer(body, env)?;
                let is_ctx = matches!(body_ty, Type::Tuple(_) | Type::Dict(_));
                Ok::<_, DeltaError>(sum3(d_t_body, d_x_body, d_t_d_x_body, is_ctx))
            })();
            env.lets.pop();
            env.lets.pop();
            let inner = result?;

            Ok(Expr::Let {
                name: name.clone(),
                value: value.clone(),
                body: Box::new(Expr::Let {
                    name: dname,
                    value: Box::new(dvalue),
                    body: Box::new(inner),
                }),
            })
        }
        Expr::Sng { index, .. } => Err(DeltaError::InputDependentSng { index: *index }),
        Expr::For { var, source, body } => {
            // δ(for x in e₁ union e₂) = for x in δ(e₁) union e₂
            //                         ⊎ for x in e₁ union δ(e₂)
            //                         ⊎ for x in δ(e₁) union δ(e₂)
            let src_ty = infer(source, env)?;
            let elem_ty = match src_ty {
                Type::Bag(t) => *t,
                other => {
                    return Err(DeltaError::Type(TypeError::NotABag {
                        at: "for source".into(),
                        got: other.to_string(),
                    }))
                }
            };
            let dep_src = target.depends(source);
            let dsource = if dep_src {
                Some(delta(source, target, env)?)
            } else {
                None
            };
            env.elems.push((var.clone(), elem_ty));
            let result = (|| {
                let dep_body = target.depends(body);
                let dbody = if dep_body {
                    Some(delta(body, target, env)?)
                } else {
                    None
                };
                let mk = |src: &Expr, bod: &Expr| Expr::For {
                    var: var.clone(),
                    source: Box::new(src.clone()),
                    body: Box::new(bod.clone()),
                };
                Ok::<_, DeltaError>(match (&dsource, &dbody) {
                    (Some(ds), Some(db)) => sum3(mk(ds, body), mk(source, db), mk(ds, db), false),
                    (Some(ds), None) => mk(ds, body),
                    (None, Some(db)) => mk(source, db),
                    (None, None) => unreachable!("dependence check ensures some part depends"),
                })
            })();
            env.elems.pop();
            result
        }
        Expr::Product(es) => {
            // n-ary generalization of δ(e₁×e₂): sum over every non-empty
            // subset S of the dependent factors, replacing exactly those with
            // their deltas (n = 2 yields the paper's three terms).
            let dep: Vec<usize> = (0..es.len()).filter(|&i| target.depends(&es[i])).collect();
            debug_assert!(!dep.is_empty());
            let mut deltas = Vec::with_capacity(dep.len());
            for &i in &dep {
                deltas.push(delta(&es[i], target, env)?);
            }
            let mut terms = Vec::new();
            for mask in 1u32..(1 << dep.len()) {
                let mut factors = es.to_vec();
                for (j, &i) in dep.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        factors[i] = deltas[j].clone();
                    }
                }
                terms.push(Expr::Product(factors));
            }
            Ok(sum_terms(terms))
        }
        Expr::Union(a, b) => {
            let da = delta(a, target, env)?;
            let db = delta(b, target, env)?;
            Ok(Expr::Union(Box::new(da), Box::new(db)))
        }
        Expr::Negate(inner) => Ok(Expr::Negate(Box::new(delta(inner, target, env)?))),
        Expr::Flatten(inner) => Ok(Expr::Flatten(Box::new(delta(inner, target, env)?))),
        Expr::DictSng {
            index,
            params,
            body,
        } => {
            // δ([(ι,Π) ↦ e]) = [(ι,Π) ↦ δ(e)]
            for (p, t) in params {
                env.elems.push((p.clone(), t.clone()));
            }
            let dbody = delta(body, target, env);
            for _ in params {
                env.elems.pop();
            }
            Ok(Expr::DictSng {
                index: *index,
                params: params.clone(),
                body: Box::new(dbody?),
            })
        }
        Expr::DictGet { dict, label } => Ok(Expr::DictGet {
            dict: Box::new(delta(dict, target, env)?),
            label: label.clone(),
        }),
        Expr::CtxTuple(es) => {
            let mut out = Vec::with_capacity(es.len());
            for c in es {
                out.push(delta(c, target, env)?);
            }
            Ok(Expr::CtxTuple(out))
        }
        Expr::CtxProj { ctx, index } => Ok(Expr::CtxProj {
            ctx: Box::new(delta(ctx, target, env)?),
            index: *index,
        }),
        Expr::LabelUnion(a, b) => {
            // δ(e₁ ∪ e₂) = δ(e₁) ∪ δ(e₂)   (§5.2)
            let da = delta(a, target, env)?;
            let db = delta(b, target, env)?;
            Ok(Expr::LabelUnion(Box::new(da), Box::new(db)))
        }
        Expr::CtxAdd(a, b) => {
            let da = delta(a, target, env)?;
            let db = delta(b, target, env)?;
            Ok(Expr::CtxAdd(Box::new(da), Box::new(db)))
        }
        // All remaining constructs are target-independent by construction
        // (sng(x), sng(πᵢ(x)), sng(⟨⟩), ∅, p(x), inL, ΔR, ∅Γ) and are caught
        // by the Lemma 1 shortcut above.
        Expr::ElemSng(_)
        | Expr::ProjSng { .. }
        | Expr::UnitSng
        | Expr::Empty { .. }
        | Expr::Pred(_)
        | Expr::InLabel { .. }
        | Expr::DeltaRel(_, _)
        | Expr::EmptyCtx(_) => unreachable!("independent constructs are handled by the shortcut"),
    }
}

fn sum3(a: Expr, b: Expr, c: Expr, is_ctx: bool) -> Expr {
    if is_ctx {
        Expr::CtxAdd(
            Box::new(Expr::CtxAdd(Box::new(a), Box::new(b))),
            Box::new(c),
        )
    } else {
        Expr::Union(Box::new(Expr::Union(Box::new(a), Box::new(b))), Box::new(c))
    }
}

fn sum_terms(mut terms: Vec<Expr>) -> Expr {
    debug_assert!(!terms.is_empty());
    let first = terms.remove(0);
    terms
        .into_iter()
        .fold(first, |acc, t| Expr::Union(Box::new(acc), Box::new(t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::eval::{eval_query, Env};
    use crate::expr::CmpOp;
    use nrc_data::database::{example_movies, example_movies_update};
    use nrc_data::{Bag, Database, Value};

    fn check_prop_4_1(q: &Expr, db: &Database, rel_name: &str, update: &Bag) {
        let env = TypeEnv::from_database(db);
        let dq = delta_wrt_rel(q, rel_name, &env).unwrap();
        // h[R] ⊎ δ(h)[R, ΔR]
        let mut e1 = Env::new(db);
        let before = eval_query(q, &mut e1).unwrap();
        let mut e2 = Env::new(db).with_delta(rel_name, update.clone());
        let delta_val = eval_query(&dq, &mut e2).unwrap();
        let incremental = before.union(&delta_val);
        // h[R ⊎ ΔR]
        let mut db2 = db.clone();
        db2.apply_update(rel_name, update).unwrap();
        let mut e3 = Env::new(&db2);
        let recomputed = eval_query(q, &mut e3).unwrap();
        assert_eq!(incremental, recomputed, "Prop 4.1 violated for {q}");
    }

    #[test]
    fn filter_delta_is_filter_of_update() {
        // Example 3: δ_R(filter_p) = filter_p[ΔR].
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
        let db = example_movies();
        check_prop_4_1(&q, &db, "M", &example_movies_update());
        // And deletions:
        check_prop_4_1(&q, &db, "M", &example_movies_update().negate());
        // Shape: the delta mentions ΔM but no bare M.
        let env = TypeEnv::from_database(&db);
        let dq = delta_wrt_rel(&q, "M", &env).unwrap();
        assert!(!dq.depends_on_rel("M"));
        assert_eq!(dq.delta_relations().len(), 1);
    }

    #[test]
    fn product_delta_has_three_terms() {
        let db = example_movies();
        let q = pair(rel("M"), rel("M"));
        let env = TypeEnv::from_database(&db);
        let dq = delta_wrt_rel(&q, "M", &env).unwrap();
        // δ(M×M) = ΔM×M ⊎ M×ΔM ⊎ ΔM×ΔM
        let rendered = dq.to_string();
        assert_eq!(rendered, "(((ΔM × M) ⊎ (M × ΔM)) ⊎ (ΔM × ΔM))");
        check_prop_4_1(&q, &db, "M", &example_movies_update());
    }

    #[test]
    fn flatten_product_delta_matches_example_4() {
        // h[R] = flatten(R) × flatten(R), R : Bag(Bag(Int))
        let mut db = Database::new();
        let int = nrc_data::Type::Base(nrc_data::BaseType::Int);
        db.insert_relation(
            "R",
            nrc_data::Type::bag(int),
            Bag::from_values([
                Value::Bag(Bag::from_values([Value::int(1), Value::int(2)])),
                Value::Bag(Bag::from_values([Value::int(3)])),
            ]),
        );
        let q = self_product_of_flatten("R");
        let update = Bag::from_pairs([
            (Value::Bag(Bag::from_values([Value::int(9)])), 1),
            (Value::Bag(Bag::from_values([Value::int(3)])), -1),
        ]);
        check_prop_4_1(&q, &db, "R", &update);
    }

    #[test]
    fn union_and_negate_deltas_are_pointwise() {
        let db = example_movies();
        let q = union(rel("M"), negate(rel("M")));
        check_prop_4_1(&q, &db, "M", &example_movies_update());
        let env = TypeEnv::from_database(&db);
        let dq = delta_wrt_rel(&q, "M", &env).unwrap();
        assert_eq!(dq.to_string(), "(ΔM ⊎ ⊖(ΔM))");
    }

    #[test]
    fn let_delta_follows_figure_4() {
        let db = example_movies();
        // let X := M in X × X  — degree 2 via the binding.
        let q = let_("X", rel("M"), pair(var("X"), var("X")));
        check_prop_4_1(&q, &db, "M", &example_movies_update());
        let env = TypeEnv::from_database(&db);
        let dq = delta_wrt_rel(&q, "M", &env).unwrap();
        // Must bind both X and ΔX.
        assert!(dq.to_string().contains("let X := M in let ΔX := ΔM in"));
    }

    #[test]
    fn let_shadowing_target_variable() {
        let db = example_movies();
        // differentiate wrt var V where body shadows V
        let env = {
            let mut env = TypeEnv::from_database(&db);
            env.lets.push((
                "V".into(),
                nrc_data::Type::bag(db.schema("M").unwrap().clone()),
            ));
            env
        };
        let q = let_("V", rel("M"), var("V")); // inner V is the let-bound one
        let dq = delta_wrt_var(&q, "V", "ΔV", &env).unwrap();
        // Only the value can depend on the outer V; here it doesn't, so the
        // whole delta evaluates to ∅.
        let mut run = Env::new(&db);
        run.bind_let("V", Value::Bag(db.get("M").unwrap().clone()));
        run.bind_let("ΔV", Value::Bag(example_movies_update()));
        let out = eval_query(&dq, &mut run).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn input_dependent_sng_has_no_delta() {
        let db = example_movies();
        let env = TypeEnv::from_database(&db);
        let err = delta_wrt_rel(&related_query(), "M", &env).unwrap_err();
        assert_eq!(err, DeltaError::InputDependentSng { index: 1 });
    }

    #[test]
    fn input_independent_sng_is_fine() {
        let db = example_movies();
        // sng of a constant bag — in IncNRC+, delta is ∅.
        let q = for_(
            "m",
            rel("M"),
            sng(1, empty(nrc_data::Type::Base(nrc_data::BaseType::Int))),
        );
        let env = TypeEnv::from_database(&db);
        let dq = delta_wrt_rel(&q, "M", &env).unwrap();
        check_prop_4_1(&q, &db, "M", &example_movies_update());
        // for m in ΔM union sng(∅)
        assert!(dq.to_string().contains("for m in ΔM union"));
    }

    #[test]
    fn second_order_delta_of_example_4_is_input_independent() {
        let mut db = Database::new();
        let int = nrc_data::Type::Base(nrc_data::BaseType::Int);
        db.insert_relation("R", nrc_data::Type::bag(int), Bag::empty());
        let q = self_product_of_flatten("R");
        let env = TypeEnv::from_database(&db);
        let d1 = delta_wrt_rel(&q, "R", &env).unwrap();
        assert!(d1.depends_on_rel("R"));
        let order = next_delta_order(&d1, "R");
        assert_eq!(order, 2);
        let d2 = delta_wrt_rel_order(&d1, "R", order, &env).unwrap();
        assert!(
            !d2.depends_on_rel("R"),
            "δ²(h) must be input-independent: {d2}"
        );
    }

    #[test]
    fn delta_of_dict_constructs() {
        let db = example_movies();
        let movie_ty = db.schema("M").unwrap().clone();
        // [(ι1, m) ↦ for m2 in M where isRelated(m, m2) union sng(m2.1)]
        let d = Expr::DictSng {
            index: 1,
            params: vec![("m".into(), movie_ty)],
            body: Box::new(rel_b("m")),
        };
        let env = TypeEnv::from_database(&db);
        let dd = delta_wrt_rel(&d, "M", &env).unwrap();
        match dd {
            Expr::DictSng { body, .. } => {
                assert!(!body.depends_on_rel("M"));
                assert!(body.to_string().contains("ΔM"));
            }
            other => panic!("expected DictSng, got {other}"),
        }
    }

    #[test]
    fn deep_updates_prop_holds_for_deletion_heavy_updates() {
        let db = example_movies();
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Ne, "Action"));
        // Delete everything, then re-insert one tuple.
        let mut update = db.get("M").unwrap().negate();
        update.union_assign(&example_movies_update());
        check_prop_4_1(&q, &db, "M", &update);
    }

    #[test]
    fn next_delta_order_tracks_existing_orders() {
        let e = union(delta_rel("R"), Expr::DeltaRel("R".into(), 3));
        assert_eq!(next_delta_order(&e, "R"), 4);
        assert_eq!(next_delta_order(&e, "S"), 1);
    }
}
