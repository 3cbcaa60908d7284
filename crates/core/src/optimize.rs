//! Algebraic simplification of (Inc)NRC⁺ₗ expressions.
//!
//! Delta derivation (Fig. 4) produces expressions littered with `∅`
//! subterms (from Lemma 1) and trivially reducible comprehensions. The
//! paper's cost analyses (§2.2, Example 3) read deltas *after* the standard
//! NRC equivalence laws of [Buneman et al. 1995] have been applied; this
//! module implements that normalization:
//!
//! * group laws: `e ⊎ ∅ = e`, `⊖∅ = ∅`, `⊖⊖e = e`, `e ⊎ ⊖e = ∅`,
//! * comprehension laws: `for x in ∅ union e = ∅`,
//!   `for x in e union ∅ = ∅`, `for x in sng(y) union e = e[x := y]`,
//!   `for x in sng(⟨⟩) union e = e` (when `x` is unused),
//! * monad laws: `flatten(sng(e)) = e`, `flatten(∅) = ∅`,
//!   `flatten(e₁ ⊎ e₂) = flatten(e₁) ⊎ flatten(e₂)`,
//! * strictness: a `×` with an `∅` factor is `∅`,
//! * `let` garbage collection: unused bindings are dropped,
//! * context laws: `⟨…⟩.Γi` projection, `∪` with empty contexts,
//!   `d(ℓ)` over the empty dictionary.
//!
//! Simplification is type-aware (rewrites that replace a subterm by `∅` need
//! its type) and runs to a fixpoint.

use crate::expr::{BoolExpr, Expr, Operand, ScalarRef};
use crate::typecheck::{infer, TypeEnv, TypeError};
use nrc_data::Type;

/// Simplify `e` to a fixpoint under the rewrite rules above.
pub fn simplify(e: &Expr, env: &TypeEnv) -> Result<Expr, TypeError> {
    let mut env = env.clone();
    let mut cur = e.clone();
    // Each pass is bottom-up; a handful of passes reaches a fixpoint on all
    // delta shapes we generate. Bound the loop defensively.
    for _ in 0..16 {
        let next = simp(&cur, &mut env)?;
        if next == cur {
            return Ok(next);
        }
        cur = next;
    }
    Ok(cur)
}

fn is_empty_bag(e: &Expr) -> bool {
    matches!(e, Expr::Empty { .. })
}

fn is_empty_ctx(e: &Expr) -> bool {
    matches!(e, Expr::EmptyCtx(_))
}

fn simp(e: &Expr, env: &mut TypeEnv) -> Result<Expr, TypeError> {
    match e {
        // Leaves.
        Expr::Rel(_)
        | Expr::DeltaRel(_, _)
        | Expr::Var(_)
        | Expr::ElemSng(_)
        | Expr::ProjSng { .. }
        | Expr::UnitSng
        | Expr::Empty { .. }
        | Expr::Pred(_)
        | Expr::InLabel { .. }
        | Expr::EmptyCtx(_) => Ok(e.clone()),

        Expr::Let { name, value, body } => {
            let v = simp(value, env)?;
            let vt = infer(&v, env)?;
            env.lets.push((name.clone(), vt));
            let b = simp(body, env);
            env.lets.pop();
            let b = b?;
            // Drop unused bindings; collapse `let X := v in X`.
            if !b.depends_on_var(name) {
                return Ok(b);
            }
            if b == Expr::Var(name.clone()) {
                return Ok(v);
            }
            // Inline ∅ bindings: `let ΔX := ∅ in e = e[X := ∅]`. Higher-order
            // deltas of `let` queries produce these, and inlining them is
            // what makes Thm. 2's degree drop syntactically visible.
            if matches!(v, Expr::Empty { .. } | Expr::EmptyCtx(_)) {
                return simp(&subst_var(&b, name, &v), env);
            }
            Ok(Expr::Let {
                name: name.clone(),
                value: Box::new(v),
                body: Box::new(b),
            })
        }

        Expr::Sng { index, body } => {
            let b = simp(body, env)?;
            Ok(Expr::Sng {
                index: *index,
                body: Box::new(b),
            })
        }

        Expr::Union(a, b) => {
            let x = simp(a, env)?;
            let y = simp(b, env)?;
            if is_empty_bag(&x) {
                return Ok(y);
            }
            if is_empty_bag(&y) {
                return Ok(x);
            }
            // e ⊎ ⊖e = ∅ and ⊖e ⊎ e = ∅.
            let cancels = matches!(&y, Expr::Negate(inner) if **inner == x)
                || matches!(&x, Expr::Negate(inner) if **inner == y);
            if cancels {
                let t = infer(&x, env)?;
                if let Type::Bag(elem) = t {
                    return Ok(Expr::Empty { elem_ty: *elem });
                }
            }
            Ok(Expr::Union(Box::new(x), Box::new(y)))
        }

        Expr::Negate(inner) => {
            let x = simp(inner, env)?;
            if is_empty_bag(&x) {
                return Ok(x);
            }
            if let Expr::Negate(d) = x {
                return Ok(*d);
            }
            Ok(Expr::Negate(Box::new(x)))
        }

        Expr::Product(es) => {
            let mut parts = Vec::with_capacity(es.len());
            for f in es {
                parts.push(simp(f, env)?);
            }
            if parts.iter().any(is_empty_bag) {
                // ∅ is absorbing for ×; result type is the tuple of factor
                // element types.
                let mut elems = Vec::with_capacity(parts.len());
                for p in &parts {
                    match infer(p, env)? {
                        Type::Bag(t) => elems.push(*t),
                        other => {
                            return Err(TypeError::NotABag {
                                at: "product factor".into(),
                                got: other.to_string(),
                            })
                        }
                    }
                }
                return Ok(Expr::Empty {
                    elem_ty: Type::Tuple(elems),
                });
            }
            Ok(Expr::Product(parts))
        }

        Expr::For { var, source, body } => {
            let src = simp(source, env)?;
            let elem_ty = match infer(&src, env)? {
                Type::Bag(t) => *t,
                other => {
                    return Err(TypeError::NotABag {
                        at: "for source".into(),
                        got: other.to_string(),
                    })
                }
            };
            env.elems.push((var.clone(), elem_ty));
            let b = simp(body, env);
            env.elems.pop();
            let b = b?;

            // for x in ∅ union e = ∅ (typed by the body).
            if is_empty_bag(&src) {
                let src_elem = match infer(&src, env)? {
                    Type::Bag(t) => *t,
                    _ => unreachable!("checked above"),
                };
                env.elems.push((var.clone(), src_elem));
                let bt = infer(&b, env);
                env.elems.pop();
                if let Type::Bag(t) = bt? {
                    return Ok(Expr::Empty { elem_ty: *t });
                }
            }
            // for x in e union ∅ = ∅.
            if is_empty_bag(&b) {
                return Ok(b);
            }
            // for x in sng(y) union e = e[x := y] (and the π-path variant),
            // provided substitution cannot capture.
            let subst_target = match &src {
                Expr::ElemSng(y) => Some(ScalarRef::var(y.clone())),
                Expr::ProjSng { var: y, path } => Some(ScalarRef::path(y.clone(), path.clone())),
                _ => None,
            };
            if let Some(r) = subst_target {
                if !binds_name(&b, &r.var) {
                    return simp(&subst_scalar(&b, var, &r), env);
                }
            }
            // for x in sng(⟨⟩) union e = e when x is unused.
            if matches!(src, Expr::UnitSng) && !b.free_elem_vars().contains(var) {
                return Ok(b);
            }
            Ok(Expr::For {
                var: var.clone(),
                source: Box::new(src),
                body: Box::new(b),
            })
        }

        Expr::Flatten(inner) => {
            let x = simp(inner, env)?;
            match x {
                Expr::Empty {
                    elem_ty: Type::Bag(t),
                } => Ok(Expr::Empty { elem_ty: *t }),
                Expr::Sng { body, .. } => Ok(*body),
                Expr::Union(a, b) => {
                    let fa = simp(&Expr::Flatten(a), env)?;
                    let fb = simp(&Expr::Flatten(b), env)?;
                    simp(&Expr::Union(Box::new(fa), Box::new(fb)), env)
                }
                Expr::Negate(a) => {
                    let fa = simp(&Expr::Flatten(a), env)?;
                    Ok(Expr::Negate(Box::new(fa)))
                }
                other => Ok(Expr::Flatten(Box::new(other))),
            }
        }

        Expr::DictSng {
            index,
            params,
            body,
        } => {
            for (p, t) in params {
                env.elems.push((p.clone(), t.clone()));
            }
            let b = simp(body, env);
            for _ in params {
                env.elems.pop();
            }
            Ok(Expr::DictSng {
                index: *index,
                params: params.clone(),
                body: Box::new(b?),
            })
        }

        Expr::DictGet { dict, label } => {
            let d = simp(dict, env)?;
            if let Expr::EmptyCtx(Type::Dict(elem)) = &d {
                return Ok(Expr::Empty {
                    elem_ty: (**elem).clone(),
                });
            }
            Ok(Expr::DictGet {
                dict: Box::new(d),
                label: label.clone(),
            })
        }

        Expr::CtxTuple(es) => {
            let mut parts = Vec::with_capacity(es.len());
            for c in es {
                parts.push(simp(c, env)?);
            }
            Ok(Expr::CtxTuple(parts))
        }

        Expr::CtxProj { ctx, index } => {
            let c = simp(ctx, env)?;
            match c {
                Expr::CtxTuple(mut es) if *index < es.len() => Ok(es.swap_remove(*index)),
                Expr::EmptyCtx(Type::Tuple(ts)) if *index < ts.len() => {
                    Ok(Expr::EmptyCtx(ts[*index].clone()))
                }
                other => Ok(Expr::CtxProj {
                    ctx: Box::new(other),
                    index: *index,
                }),
            }
        }

        Expr::LabelUnion(a, b) => {
            let x = simp(a, env)?;
            let y = simp(b, env)?;
            if is_empty_ctx(&x) {
                return Ok(y);
            }
            if is_empty_ctx(&y) {
                return Ok(x);
            }
            Ok(Expr::LabelUnion(Box::new(x), Box::new(y)))
        }

        Expr::CtxAdd(a, b) => {
            let x = simp(a, env)?;
            let y = simp(b, env)?;
            if is_empty_ctx(&x) {
                return Ok(y);
            }
            if is_empty_ctx(&y) {
                return Ok(x);
            }
            Ok(Expr::CtxAdd(Box::new(x), Box::new(y)))
        }
    }
}

/// Substitute free occurrences of `let`-variable `name` by `replacement`
/// (used to inline `∅` bindings; `replacement` must be closed, which rules
/// out capture).
pub fn subst_var(e: &Expr, name: &str, replacement: &Expr) -> Expr {
    match e {
        Expr::Var(x) if x == name => replacement.clone(),
        Expr::Let {
            name: n,
            value,
            body,
        } => {
            let v = subst_var(value, name, replacement);
            let b = if n == name {
                (**body).clone()
            } else {
                subst_var(body, name, replacement)
            };
            Expr::Let {
                name: n.clone(),
                value: Box::new(v),
                body: Box::new(b),
            }
        }
        Expr::Sng { index, body } => Expr::Sng {
            index: *index,
            body: Box::new(subst_var(body, name, replacement)),
        },
        Expr::Union(a, b) => Expr::Union(
            Box::new(subst_var(a, name, replacement)),
            Box::new(subst_var(b, name, replacement)),
        ),
        Expr::LabelUnion(a, b) => Expr::LabelUnion(
            Box::new(subst_var(a, name, replacement)),
            Box::new(subst_var(b, name, replacement)),
        ),
        Expr::CtxAdd(a, b) => Expr::CtxAdd(
            Box::new(subst_var(a, name, replacement)),
            Box::new(subst_var(b, name, replacement)),
        ),
        Expr::Negate(x) => Expr::Negate(Box::new(subst_var(x, name, replacement))),
        Expr::Flatten(x) => Expr::Flatten(Box::new(subst_var(x, name, replacement))),
        Expr::Product(es) => {
            Expr::Product(es.iter().map(|f| subst_var(f, name, replacement)).collect())
        }
        Expr::CtxTuple(es) => {
            Expr::CtxTuple(es.iter().map(|f| subst_var(f, name, replacement)).collect())
        }
        Expr::CtxProj { ctx, index } => Expr::CtxProj {
            ctx: Box::new(subst_var(ctx, name, replacement)),
            index: *index,
        },
        Expr::For { var, source, body } => Expr::For {
            var: var.clone(),
            source: Box::new(subst_var(source, name, replacement)),
            body: Box::new(subst_var(body, name, replacement)),
        },
        Expr::DictSng {
            index,
            params,
            body,
        } => Expr::DictSng {
            index: *index,
            params: params.clone(),
            body: Box::new(subst_var(body, name, replacement)),
        },
        Expr::DictGet { dict, label } => Expr::DictGet {
            dict: Box::new(subst_var(dict, name, replacement)),
            label: label.clone(),
        },
        _ => e.clone(),
    }
}

/// Does `e` bind `name` anywhere (as a `for` variable or dictionary
/// parameter)? Used to rule out variable capture before substitution.
fn binds_name(e: &Expr, name: &str) -> bool {
    let mut found = match e {
        Expr::For { var, .. } => var == name,
        Expr::DictSng { params, .. } => params.iter().any(|(p, _)| p == name),
        _ => false,
    };
    e.for_each_child(|c| found = found || binds_name(c, name));
    found
}

/// Substitute element-variable `var` by the scalar reference `r` throughout
/// `e` (the β-rule `for x in sng(y.p) union e = e[x := y.p]`).
pub fn subst_scalar(e: &Expr, var: &str, r: &ScalarRef) -> Expr {
    map_scalar_refs(e, var, &|sr| {
        let mut path = r.path.clone();
        path.extend_from_slice(&sr.path);
        ScalarRef {
            var: r.var.clone(),
            path,
        }
    })
}

/// Rewrite every free reference to element-variable `var` in `e` through
/// `rr` (occurrences under a binder of the same name are left alone). `rr`
/// must not introduce a variable that `e` binds.
pub fn map_scalar_refs(e: &Expr, var: &str, rr: &impl Fn(&ScalarRef) -> ScalarRef) -> Expr {
    let on = |sr: &ScalarRef| if sr.var == var { rr(sr) } else { sr.clone() };
    let sng = |sr: ScalarRef| {
        if sr.path.is_empty() {
            Expr::ElemSng(sr.var)
        } else {
            Expr::ProjSng {
                var: sr.var,
                path: sr.path,
            }
        }
    };
    let go = |c: &Expr| map_scalar_refs(c, var, rr);
    match e {
        Expr::ElemSng(x) if x == var => sng(rr(&ScalarRef::var(x.clone()))),
        Expr::ProjSng { var: x, path } if x == var => {
            sng(rr(&ScalarRef::path(x.clone(), path.clone())))
        }
        Expr::Pred(p) => Expr::Pred(subst_pred(p, &on)),
        Expr::InLabel { index, args } => Expr::InLabel {
            index: *index,
            args: args.iter().map(on).collect(),
        },
        Expr::DictGet { dict, label } => Expr::DictGet {
            dict: Box::new(go(dict)),
            label: on(label),
        },
        Expr::For {
            var: v,
            source,
            body,
        } => Expr::For {
            var: v.clone(),
            source: Box::new(go(source)),
            body: Box::new(if v == var { (**body).clone() } else { go(body) }),
        },
        Expr::DictSng {
            index,
            params,
            body,
        } => Expr::DictSng {
            index: *index,
            params: params.clone(),
            body: Box::new(if params.iter().any(|(p, _)| p == var) {
                (**body).clone()
            } else {
                go(body)
            }),
        },
        Expr::Let { name, value, body } => Expr::Let {
            name: name.clone(),
            value: Box::new(go(value)),
            body: Box::new(go(body)),
        },
        Expr::Sng { index, body } => Expr::Sng {
            index: *index,
            body: Box::new(go(body)),
        },
        Expr::Union(a, b) => Expr::Union(Box::new(go(a)), Box::new(go(b))),
        Expr::LabelUnion(a, b) => Expr::LabelUnion(Box::new(go(a)), Box::new(go(b))),
        Expr::CtxAdd(a, b) => Expr::CtxAdd(Box::new(go(a)), Box::new(go(b))),
        Expr::Negate(x) => Expr::Negate(Box::new(go(x))),
        Expr::Flatten(x) => Expr::Flatten(Box::new(go(x))),
        Expr::Product(es) => Expr::Product(es.iter().map(go).collect()),
        Expr::CtxTuple(es) => Expr::CtxTuple(es.iter().map(go).collect()),
        Expr::CtxProj { ctx, index } => Expr::CtxProj {
            ctx: Box::new(go(ctx)),
            index: *index,
        },
        // Leaves without element references.
        Expr::Rel(_)
        | Expr::DeltaRel(_, _)
        | Expr::Var(_)
        | Expr::ElemSng(_)
        | Expr::ProjSng { .. }
        | Expr::UnitSng
        | Expr::Empty { .. }
        | Expr::EmptyCtx(_) => e.clone(),
    }
}

fn subst_pred(p: &BoolExpr, rr: &impl Fn(&ScalarRef) -> ScalarRef) -> BoolExpr {
    let ro = |o: &Operand| match o {
        Operand::Ref(r) => Operand::Ref(rr(r)),
        Operand::Lit(v) => Operand::Lit(v.clone()),
    };
    match p {
        BoolExpr::Cmp(a, op, b) => BoolExpr::Cmp(ro(a), *op, ro(b)),
        BoolExpr::And(a, b) => {
            BoolExpr::And(Box::new(subst_pred(a, rr)), Box::new(subst_pred(b, rr)))
        }
        BoolExpr::Or(a, b) => {
            BoolExpr::Or(Box::new(subst_pred(a, rr)), Box::new(subst_pred(b, rr)))
        }
        BoolExpr::Not(a) => BoolExpr::Not(Box::new(subst_pred(a, rr))),
        BoolExpr::Const(b) => BoolExpr::Const(*b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::delta::delta_wrt_rel;
    use crate::eval::{eval_query, Env};
    use crate::expr::CmpOp;
    use nrc_data::database::{example_movies, example_movies_update};
    use nrc_data::{BaseType, Type};

    fn env() -> TypeEnv {
        TypeEnv::from_database(&example_movies())
    }

    fn int_ty() -> Type {
        Type::Base(BaseType::Int)
    }

    #[test]
    fn union_identity_laws() {
        let e = union(empty(int_ty()), union(rel("M"), empty(db_elem())));
        // the ∅ : Bag(Int) on the left would be ill-typed against M; use
        // matching ∅ types instead:
        let e_ok = union(empty(db_elem()), union(rel("M"), empty(db_elem())));
        drop(e);
        assert_eq!(simplify(&e_ok, &env()).unwrap(), rel("M"));
    }

    fn db_elem() -> Type {
        example_movies().schema("M").unwrap().clone()
    }

    #[test]
    fn negate_laws() {
        assert_eq!(
            simplify(&negate(negate(rel("M"))), &env()).unwrap(),
            rel("M")
        );
        assert_eq!(
            simplify(&negate(empty(int_ty())), &env()).unwrap(),
            empty(int_ty())
        );
    }

    #[test]
    fn self_cancellation() {
        let e = union(rel("M"), negate(rel("M")));
        assert_eq!(simplify(&e, &env()).unwrap(), empty(db_elem()));
    }

    #[test]
    fn empty_absorbs_product() {
        let e = pair(rel("M"), empty(db_elem()));
        let s = simplify(&e, &env()).unwrap();
        assert_eq!(s, empty(Type::Tuple(vec![db_elem(), db_elem()])));
    }

    #[test]
    fn for_over_empty_and_empty_body() {
        let e1 = for_("x", empty(db_elem()), elem_sng("x"));
        assert_eq!(simplify(&e1, &env()).unwrap(), empty(db_elem()));
        let e2 = for_("x", rel("M"), empty(int_ty()));
        assert_eq!(simplify(&e2, &env()).unwrap(), empty(int_ty()));
    }

    #[test]
    fn flatten_of_sng_cancels() {
        let e = flatten(sng(1, rel("M")));
        assert_eq!(simplify(&e, &env()).unwrap(), rel("M"));
        let e2 = flatten(union(sng(1, rel("M")), sng(2, empty(db_elem()))));
        assert_eq!(simplify(&e2, &env()).unwrap(), rel("M"));
    }

    #[test]
    fn beta_rule_substitutes() {
        // for x in sng(y.1) union sng(x) = sng(y.1)  under y : Movie
        let mut tenv = env();
        tenv.elems.push(("y".into(), db_elem()));
        let e = for_("x", proj_sng("y", vec![0]), elem_sng("x"));
        assert_eq!(simplify(&e, &tenv).unwrap(), proj_sng("y", vec![0]));
    }

    #[test]
    fn where_sugar_units_erased() {
        // for __w in sng(⟨⟩) union sng(x)  →  sng(x)
        let mut tenv = env();
        tenv.elems.push(("x".into(), db_elem()));
        let e = for_("__w", unit_sng(), elem_sng("x"));
        assert_eq!(simplify(&e, &tenv).unwrap(), elem_sng("x"));
    }

    #[test]
    fn unused_let_is_dropped() {
        let e = let_("X", rel("M"), rel("M"));
        assert_eq!(simplify(&e, &env()).unwrap(), rel("M"));
        let e2 = let_("X", rel("M"), var("X"));
        assert_eq!(simplify(&e2, &env()).unwrap(), rel("M"));
    }

    #[test]
    fn ctx_laws() {
        let d = Expr::DictSng {
            index: 1,
            params: vec![],
            body: Box::new(unit_sng()),
        };
        let t = Expr::CtxTuple(vec![d.clone(), Expr::CtxTuple(vec![])]);
        let proj = Expr::CtxProj {
            ctx: Box::new(t),
            index: 0,
        };
        assert_eq!(simplify(&proj, &env()).unwrap(), d);
        let u = Expr::LabelUnion(
            Box::new(Expr::EmptyCtx(Type::dict(Type::unit()))),
            Box::new(d.clone()),
        );
        assert_eq!(simplify(&u, &env()).unwrap(), d);
    }

    #[test]
    fn dictget_on_empty_dict() {
        let e = Expr::DictGet {
            dict: Box::new(Expr::EmptyCtx(Type::dict(int_ty()))),
            label: ScalarRef::var("l"),
        };
        let mut tenv = env();
        tenv.elems.push(("l".into(), Type::Label));
        assert_eq!(simplify(&e, &tenv).unwrap(), empty(int_ty()));
    }

    #[test]
    fn simplified_filter_delta_matches_example_3() {
        // δ(filter_p) simplifies to: for x in ΔM where p(x) union sng(x)
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
        let tenv = env();
        let d = delta_wrt_rel(&q, "M", &tenv).unwrap();
        let s = simplify(&d, &tenv).unwrap();
        assert_eq!(
            s.to_string(),
            "for x in ΔM union for __w in p[x.2 == \"Drama\"] union sng(x)"
        );
    }

    #[test]
    fn simplification_preserves_semantics() {
        let db = example_movies();
        let tenv = TypeEnv::from_database(&db);
        let queries = vec![
            filter_query("M", cmp_lit("x", vec![1], CmpOp::Ne, "Drama")),
            pair(rel("M"), rel("M")),
            let_("X", rel("M"), union(var("X"), negate(var("X")))),
            flatten(for_("m", rel("M"), sng(1, elem_sng("m")))),
        ];
        for q in queries {
            let d = delta_wrt_rel(&q, "M", &tenv).unwrap();
            let s = simplify(&d, &tenv).unwrap();
            let mut env1 = Env::new(&db).with_delta("M", example_movies_update());
            let raw = eval_query(&d, &mut env1).unwrap();
            let mut env2 = Env::new(&db).with_delta("M", example_movies_update());
            let simped = eval_query(&s, &mut env2).unwrap();
            assert_eq!(raw, simped, "simplification changed semantics of {d}");
            assert!(s.node_count() <= d.node_count());
        }
    }
}
