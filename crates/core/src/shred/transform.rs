//! Expression shredding `h ↦ (sh^F(h), sh^Γ(h))` — Fig. 6 of the paper.
//!
//! For a query `h[R] : Bag(B)` the transformation produces
//!
//! * `sh^F(h) : Bag(B^F)` — the flat result, with every inner bag replaced
//!   by a label `⟨ι, ε⟩`, and
//! * `sh^Γ(h) : B^Γ` — the context: dictionary definitions for the labels
//!   `sh^F(h)` emits.
//!
//! Both are expressed over the *shredded* inputs: relation `R` becomes the
//! pair of engine-bound variables `R__F : Bag(A^F)` and `R__G : A^Γ`
//! (produced by value shredding, [`super::values`]). Crucially, the outputs
//! use only the IncNRC⁺ₗ fragment — every `sngι(e)` is replaced by
//! `inL_{ι}(ε)` (delta `∅`) plus a dictionary literal `[(ι,Π) ↦ e^F]`
//! (delta = dictionary of deltas) — so the results are efficiently
//! incrementalizable (Thm. 5) even when `h` itself was not.

use super::types::{shred_type_ctx, shred_type_flat};
use super::ShredError;
use crate::expr::{Expr, ScalarRef};
use crate::optimize::map_scalar_refs;
use crate::typecheck::{infer, resolve_ref, TypeEnv, TypeError};
use nrc_data::Type;

/// The result of shredding a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shredded {
    /// `sh^F(h) : Bag(B^F)`.
    pub flat: Expr,
    /// `sh^Γ(h) : B^Γ`.
    pub ctx: Expr,
    /// The original element type `B` (needed to drive nesting).
    pub elem_ty: Type,
}

/// The shredding transformation state: a fresh supply of static indices `ι`
/// and of flatten-iteration variables, plus the typing environments of the
/// original and shredded worlds.
pub struct Shredder {
    /// Original-world typing environment (relation schemas; element/let
    /// variables are pushed during traversal).
    orig_env: TypeEnv,
    /// Shredded-world typing environment (schemas are not used; element
    /// variables carry their *flat* types so singleton parameter lists can
    /// be built).
    shred_env: TypeEnv,
    next_index: u32,
    next_label_var: u32,
}

impl Shredder {
    /// Create a shredder for queries typed against `orig_env` (relation
    /// schemas of the original database).
    pub fn new(orig_env: TypeEnv) -> Shredder {
        Shredder {
            orig_env,
            shred_env: TypeEnv::default(),
            next_index: 1,
            next_label_var: 0,
        }
    }

    /// Allocate a fresh static index `ι`.
    fn fresh_index(&mut self) -> u32 {
        let i = self.next_index;
        self.next_index += 1;
        i
    }

    fn fresh_label_var(&mut self) -> String {
        let v = format!("__l{}", self.next_label_var);
        self.next_label_var += 1;
        v
    }

    /// The label `inL_ι(ε)` and dictionary `[(ι,Π) ↦ body]` of a nested
    /// singleton with flat body `body`, with the label **narrowed**: `ε`
    /// keeps, per free element variable of the body, only the component
    /// paths the body reads — the whole variable only where it is used whole
    /// (`sng(m)`, an inner label argument `m`) — and the body is rewritten to
    /// read its parameters: a read of `m.2.1` under the captured path `m.2`
    /// becomes component `.1` of the parameter named `m.2`.
    ///
    /// Sound because the body is a function of exactly those components (and
    /// of the database, which every label of one dictionary shares): tuples
    /// that agree on them get one label and one definition — §5.2's
    /// agreement condition holds by construction, in every context.
    fn narrowed_label(&self, index: u32, body: Expr) -> Result<(Expr, Expr), ShredError> {
        // In `(var, path)` order a path sorts before its extensions, so
        // keeping a read only when no kept path is its prefix leaves the
        // minimal prefix-free set (just `[]` when the variable is used
        // whole).
        let mut captured: Vec<ScalarRef> = Vec::new();
        for r in body.free_scalar_refs() {
            let covered = |c: &ScalarRef| c.var == r.var && r.path.starts_with(&c.path);
            if !captured.iter().any(covered) {
                captured.push(r);
            }
        }
        // `m.2` cannot clash with a source-level variable name.
        let params = captured
            .iter()
            .map(|c| Ok((c.to_string(), resolve_ref(c, &self.shred_env)?)))
            .collect::<Result<Vec<_>, TypeError>>()?;
        let mut vars: Vec<&String> = captured.iter().map(|c| &c.var).collect();
        vars.dedup();
        let mut narrowed = body;
        for var in vars {
            narrowed = map_scalar_refs(&narrowed, var, &|sr| {
                let c = captured
                    .iter()
                    .find(|c| c.var == sr.var && sr.path.starts_with(&c.path))
                    .expect("every free read is covered by a captured path");
                ScalarRef {
                    var: c.to_string(),
                    path: sr.path[c.path.len()..].to_vec(),
                }
            });
        }
        let label = Expr::InLabel {
            index,
            args: captured,
        };
        let dict = Expr::DictSng {
            index,
            params,
            body: Box::new(narrowed),
        };
        Ok((label, dict))
    }

    /// Shred `e : Bag(B)`, producing `(sh^F(e), sh^Γ(e))` and `B`.
    ///
    /// As a pre-pass, `let` bindings whose definition mentions a `for`-bound
    /// element variable are inlined: Fig. 6's `sh^Γ(for x in e₁ union e₂)`
    /// drops the binding of `x`, so the context of `e₂` may only reach `x`
    /// through label assignments — which capture element variables but not
    /// `let` variables. Inlining (sound by the standard `let` law) restores
    /// that normal form.
    pub fn shred(&mut self, e: &Expr) -> Result<Shredded, ShredError> {
        let e = inline_elem_dependent_lets(e)?;
        let ty = infer(&e, &mut self.orig_env)?;
        let elem_ty = match ty {
            Type::Bag(t) => *t,
            other => {
                return Err(ShredError::Type(TypeError::NotABag {
                    at: "shredding input".into(),
                    got: other.to_string(),
                }))
            }
        };
        let (flat, ctx) = self.go(&e)?;
        Ok(Shredded { flat, ctx, elem_ty })
    }

    fn go(&mut self, e: &Expr) -> Result<(Expr, Expr), ShredError> {
        match e {
            // sh^F(R) = R__F, sh^Γ(R) = R__G (value shredding of the input).
            Expr::Rel(r) => Ok((
                Expr::Var(super::flat_name(r)),
                Expr::Var(super::ctx_name(r)),
            )),
            Expr::DeltaRel(r, k) => Err(ShredError::Unsupported(format!(
                "Δ^{k}{r}: deltas are derived after shredding, not before"
            ))),
            Expr::Var(x) => Ok((
                Expr::Var(super::flat_name(x)),
                Expr::Var(super::ctx_name(x)),
            )),
            Expr::Let { name, value, body } => {
                let vty = infer(value, &mut self.orig_env)?;
                let (vf, vg) = self.go(value)?;
                // Bind in both worlds for the body traversal.
                self.orig_env.lets.push((name.clone(), vty));
                let (bf, bg) = match self.go(body) {
                    Ok(r) => r,
                    Err(err) => {
                        self.orig_env.lets.pop();
                        return Err(err);
                    }
                };
                self.orig_env.lets.pop();
                let wrap = |inner: Expr| Expr::Let {
                    name: super::flat_name(name),
                    value: Box::new(vf.clone()),
                    body: Box::new(Expr::Let {
                        name: super::ctx_name(name),
                        value: Box::new(vg.clone()),
                        body: Box::new(inner),
                    }),
                };
                Ok((wrap(bf), wrap(bg)))
            }
            // sh^F(sng(x)) = sng(x) over the flat x; sh^Γ(sng(x)) = x^Γ.
            Expr::ElemSng(x) => Ok((Expr::ElemSng(x.clone()), Expr::Var(super::elem_ctx_name(x)))),
            // sh^F(sng(π_p(x))) = sng(π_p(x)); sh^Γ = x^Γ projected along p.
            Expr::ProjSng { var, path } => {
                let mut ctx = Expr::Var(super::elem_ctx_name(var));
                for &i in path {
                    ctx = Expr::CtxProj {
                        ctx: Box::new(ctx),
                        index: i,
                    };
                }
                Ok((
                    Expr::ProjSng {
                        var: var.clone(),
                        path: path.clone(),
                    },
                    ctx,
                ))
            }
            Expr::UnitSng => Ok((Expr::UnitSng, Expr::CtxTuple(vec![]))),
            // The key case: sngι(e) becomes inL + a dictionary literal.
            Expr::Sng { body, .. } => {
                let index = self.fresh_index();
                let (bf, bg) = self.go(body)?;
                let (flat, dict) = self.narrowed_label(index, bf)?;
                Ok((flat, Expr::CtxTuple(vec![dict, bg])))
            }
            Expr::Empty { elem_ty } => Ok((
                Expr::Empty {
                    elem_ty: shred_type_flat(elem_ty)?,
                },
                Expr::EmptyCtx(shred_type_ctx(elem_ty)?),
            )),
            Expr::Union(a, b) => {
                let (af, ag) = self.go(a)?;
                let (bf, bg) = self.go(b)?;
                Ok((
                    Expr::Union(Box::new(af), Box::new(bf)),
                    Expr::LabelUnion(Box::new(ag), Box::new(bg)),
                ))
            }
            Expr::Negate(inner) => {
                let (f, g) = self.go(inner)?;
                Ok((Expr::Negate(Box::new(f)), g))
            }
            Expr::Product(es) => {
                let mut flats = Vec::with_capacity(es.len());
                let mut ctxs = Vec::with_capacity(es.len());
                for part in es {
                    let (f, g) = self.go(part)?;
                    flats.push(f);
                    ctxs.push(g);
                }
                Ok((Expr::Product(flats), Expr::CtxTuple(ctxs)))
            }
            Expr::For { var, source, body } => {
                // sh^F = let x^Γ := e₁^Γ in for x in e₁^F union e₂^F
                // sh^Γ = let x^Γ := e₁^Γ in e₂^Γ
                let src_ty = infer(source, &mut self.orig_env)?;
                let elem_ty = match src_ty {
                    Type::Bag(t) => *t,
                    other => {
                        return Err(ShredError::Type(TypeError::NotABag {
                            at: "for source".into(),
                            got: other.to_string(),
                        }))
                    }
                };
                let flat_elem_ty = shred_type_flat(&elem_ty)?;
                let (sf, sg) = self.go(source)?;
                self.orig_env.elems.push((var.clone(), elem_ty));
                self.shred_env.elems.push((var.clone(), flat_elem_ty));
                let body_result = self.go(body);
                self.orig_env.elems.pop();
                self.shred_env.elems.pop();
                let (bf, bg) = body_result?;
                let ctx_var = super::elem_ctx_name(var);
                let flat = Expr::Let {
                    name: ctx_var.clone(),
                    value: Box::new(sg.clone()),
                    body: Box::new(Expr::For {
                        var: var.clone(),
                        source: Box::new(sf),
                        body: Box::new(bf),
                    }),
                };
                let ctx = Expr::Let {
                    name: ctx_var,
                    value: Box::new(sg),
                    body: Box::new(bg),
                };
                Ok((flat, ctx))
            }
            Expr::Flatten(inner) => {
                // sh^F(flatten(e)) = for l in e^F union e^Γ.1(l)
                // sh^Γ(flatten(e)) = e^Γ.2
                let (f, g) = self.go(inner)?;
                let lvar = self.fresh_label_var();
                let flat = Expr::For {
                    var: lvar.clone(),
                    source: Box::new(f),
                    body: Box::new(Expr::DictGet {
                        dict: Box::new(Expr::CtxProj {
                            ctx: Box::new(g.clone()),
                            index: 0,
                        }),
                        label: ScalarRef::var(lvar),
                    }),
                };
                let ctx = Expr::CtxProj {
                    ctx: Box::new(g),
                    index: 1,
                };
                Ok((flat, ctx))
            }
            // Predicates only touch base components, whose paths are
            // untouched by shredding.
            Expr::Pred(p) => Ok((Expr::Pred(p.clone()), Expr::CtxTuple(vec![]))),
            Expr::InLabel { .. }
            | Expr::DictSng { .. }
            | Expr::DictGet { .. }
            | Expr::CtxTuple(_)
            | Expr::CtxProj { .. }
            | Expr::LabelUnion(_, _)
            | Expr::CtxAdd(_, _)
            | Expr::EmptyCtx(_) => Err(ShredError::Unsupported(format!(
                "{e}: shredding applies to plain NRC⁺ queries"
            ))),
        }
    }
}

/// Shred a closed query against a database schema environment.
pub fn shred_query(e: &Expr, env: &TypeEnv) -> Result<Shredded, ShredError> {
    Shredder::new(env.clone()).shred(e)
}

/// Inline every `let` whose definition mentions an element variable (bottom
/// up, so chains of such bindings dissolve). Fails only if inlining would
/// capture — a definition's free element variable re-bound by a `for`
/// inside the body — which cannot happen with distinct binder names.
fn inline_elem_dependent_lets(e: &Expr) -> Result<Expr, ShredError> {
    // First normalize the children.
    let rebuilt = map_children_result(e, &mut inline_elem_dependent_lets)?;
    if let Expr::Let { name, value, body } = &rebuilt {
        if !value.free_elem_vars().is_empty() {
            for v in value.free_elem_vars() {
                if binds_elem(body, &v) {
                    return Err(ShredError::Unsupported(format!(
                        "cannot inline let {name}: inlining would capture element variable {v} \
                         (α-rename the inner binder)"
                    )));
                }
            }
            let inlined = crate::optimize::subst_var(body, name, value);
            // The substitution may have created new inlinable `let`s inside.
            return inline_elem_dependent_lets(&inlined);
        }
    }
    Ok(rebuilt)
}

fn binds_elem(e: &Expr, name: &str) -> bool {
    let mut found = match e {
        Expr::For { var, .. } => var == name,
        Expr::DictSng { params, .. } => params.iter().any(|(p, _)| p == name),
        _ => false,
    };
    e.for_each_child(|c| found = found || binds_elem(c, name));
    found
}

fn map_children_result(
    e: &Expr,
    f: &mut impl FnMut(&Expr) -> Result<Expr, ShredError>,
) -> Result<Expr, ShredError> {
    Ok(match e {
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
            value: Box::new(f(value)?),
            body: Box::new(f(body)?),
        },
        Expr::Sng { index, body } => Expr::Sng {
            index: *index,
            body: Box::new(f(body)?),
        },
        Expr::Union(a, b) => Expr::Union(Box::new(f(a)?), Box::new(f(b)?)),
        Expr::LabelUnion(a, b) => Expr::LabelUnion(Box::new(f(a)?), Box::new(f(b)?)),
        Expr::CtxAdd(a, b) => Expr::CtxAdd(Box::new(f(a)?), Box::new(f(b)?)),
        Expr::Negate(x) => Expr::Negate(Box::new(f(x)?)),
        Expr::Flatten(x) => Expr::Flatten(Box::new(f(x)?)),
        Expr::Product(es) => Expr::Product(es.iter().map(&mut *f).collect::<Result<_, _>>()?),
        Expr::CtxTuple(es) => Expr::CtxTuple(es.iter().map(&mut *f).collect::<Result<_, _>>()?),
        Expr::CtxProj { ctx, index } => Expr::CtxProj {
            ctx: Box::new(f(ctx)?),
            index: *index,
        },
        Expr::For { var, source, body } => Expr::For {
            var: var.clone(),
            source: Box::new(f(source)?),
            body: Box::new(f(body)?),
        },
        Expr::DictSng {
            index,
            params,
            body,
        } => Expr::DictSng {
            index: *index,
            params: params.clone(),
            body: Box::new(f(body)?),
        },
        Expr::DictGet { dict, label } => Expr::DictGet {
            dict: Box::new(f(dict)?),
            label: label.clone(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use nrc_data::database::example_movies;
    use nrc_data::BaseType;

    fn movies_env() -> TypeEnv {
        TypeEnv::from_database(&example_movies())
    }

    #[test]
    fn related_shreds_to_inlabel_and_dict() {
        let s = shred_query(&related_query(), &movies_env()).unwrap();
        // Flat: for m in M__F union (sng(m.1) × inL_1(m.1, m.2, m.3))
        // (modulo lets) — isRelated reads all three components.
        let f = s.flat.to_string();
        assert!(f.contains("M__F"), "flat = {f}");
        assert!(f.contains("inL_1(m.1, m.2, m.3)"), "flat = {f}");
        assert!(
            !f.contains("sng_"),
            "flat must not contain nested singletons: {f}"
        );
        // Ctx: contains the dictionary [(ι1, m.1, m.2, m.3) ↦ relB^F].
        let g = s.ctx.to_string();
        assert!(g.contains("[(ι1, m.1, m.2, m.3) ↦"), "ctx = {g}");
        assert!(s.flat.is_inc_nrc() && s.ctx.is_inc_nrc());
    }

    #[test]
    fn shredded_related_typechecks_in_shredded_world() {
        let db = example_movies();
        let s = shred_query(&related_query(), &movies_env()).unwrap();
        // Build the shredded-world environment: M__F : Bag(Movie^F),
        // M__G : Movie^Γ.
        let movie_ty = db.schema("M").unwrap().clone();
        let mut env = TypeEnv::default();
        env.lets.push((
            super::super::flat_name("M"),
            nrc_data::Type::bag(shred_type_flat(&movie_ty).unwrap()),
        ));
        env.lets.push((
            super::super::ctx_name("M"),
            shred_type_ctx(&movie_ty).unwrap(),
        ));
        let tf = infer(&s.flat, &mut env).unwrap();
        assert_eq!(
            tf,
            nrc_data::Type::bag(shred_type_flat(&s.elem_ty).unwrap())
        );
        let tg = infer(&s.ctx, &mut env).unwrap();
        assert_eq!(tg, shred_type_ctx(&s.elem_ty).unwrap());
    }

    #[test]
    fn flat_queries_shred_to_themselves_modulo_renaming() {
        let q = filter_query("M", cmp_lit("x", vec![1], crate::expr::CmpOp::Eq, "Drama"));
        let s = shred_query(&q, &movies_env()).unwrap();
        // A flat query's shredding only renames inputs and threads (trivial)
        // element contexts.
        let f = s.flat.to_string();
        assert!(f.contains("for x in M__F union"), "flat = {f}");
        assert!(f.contains("p[x.2 == \"Drama\"]"), "flat = {f}");
        assert!(f.contains("sng(x)"), "flat = {f}");
        assert!(!f.contains("inL"), "flat = {f}");
    }

    #[test]
    fn flatten_shreds_to_dictionary_application() {
        let mut db = nrc_data::Database::new();
        db.declare(
            "R",
            nrc_data::Type::bag(nrc_data::Type::Base(BaseType::Int)),
        );
        let env = TypeEnv::from_database(&db);
        let s = shred_query(&flatten(rel("R")), &env).unwrap();
        let f = s.flat.to_string();
        assert!(
            f.contains("for __l0 in R__F union R__G.Γ1(__l0)"),
            "flat = {f}"
        );
        assert_eq!(s.ctx.to_string(), "R__G.Γ2");
    }

    #[test]
    fn union_shreds_contexts_with_label_union() {
        let db = example_movies();
        let env = TypeEnv::from_database(&db);
        let q = union(
            for_("m", rel("M"), sng(0, proj_sng("m", vec![0]))),
            for_("m", rel("M"), sng(0, proj_sng("m", vec![1]))),
        );
        let s = shred_query(&q, &env).unwrap();
        assert!(matches!(s.ctx, Expr::LabelUnion(_, _)));
        // The two sng occurrences get distinct fresh indices.
        let g = s.ctx.to_string();
        assert!(g.contains("ι1") && g.contains("ι2"), "ctx = {g}");
    }

    #[test]
    fn nested_singletons_index_uniquely_and_capture_free_vars() {
        let db = example_movies();
        let env = TypeEnv::from_database(&db);
        // for m in M union sng(for m2 in M union sng(⟨m.1 joined with m2.1⟩-ish))
        let q = for_(
            "m",
            rel("M"),
            sng(
                0,
                for_(
                    "m2",
                    rel("M"),
                    product(vec![proj_sng("m", vec![0]), proj_sng("m2", vec![0])]),
                ),
            ),
        );
        let s = shred_query(&q, &env).unwrap();
        match &s.ctx {
            Expr::Let { body, .. } => match &**body {
                Expr::CtxTuple(parts) => match &parts[0] {
                    Expr::DictSng { params, .. } => {
                        // The outer body reads `m` only as `m.1`, through
                        // the inner label's argument.
                        assert_eq!(params.len(), 1);
                        assert_eq!(params[0].0, "m.1");
                    }
                    other => panic!("expected DictSng, got {other}"),
                },
                other => panic!("expected CtxTuple, got {other}"),
            },
            other => panic!("expected Let, got {other}"),
        }
    }

    /// The shredding of `q` over movies must emit the label `inL_1(args)`
    /// and define it by `[(ι1, args) ↦ …]`, with a closed body.
    fn assert_label(q: &Expr, args: &str) {
        let s = shred_query(q, &movies_env()).unwrap();
        let (f, g) = (s.flat.to_string(), s.ctx.to_string());
        assert!(f.contains(&format!("inL_1({args})")), "flat = {f}");
        let params = if args.is_empty() {
            String::new()
        } else {
            format!(" {args}")
        };
        assert!(g.contains(&format!("[(ι1,{params}) ↦")), "ctx = {g}");
        assert!(s.ctx.free_elem_vars().is_empty(), "ctx = {g}");
    }

    #[test]
    fn labels_capture_only_the_components_the_body_reads() {
        // bygenre: the body reads m.2 alone — one label per genre.
        let bygenre = for_(
            "m",
            rel("M"),
            sng(
                0,
                for_where(
                    "m2",
                    rel("M"),
                    cmp("m2", vec![1], crate::expr::CmpOp::Eq, "m", vec![1]),
                    proj_sng("m2", vec![0]),
                ),
            ),
        );
        assert_label(&bygenre, "m.2");
        // Nothing read: one label for every m.
        assert_label(&for_("m", rel("M"), sng(0, rel("M"))), "");
        // Used whole: the variable itself, whatever else is read.
        let whole = for_(
            "m",
            rel("M"),
            sng(0, product(vec![elem_sng("m"), proj_sng("m", vec![1])])),
        );
        assert_label(&whole, "m");
    }

    #[test]
    fn deltas_are_rejected_as_input() {
        let env = movies_env();
        assert!(matches!(
            shred_query(&delta_rel("M"), &env),
            Err(ShredError::Unsupported(_))
        ));
    }

    #[test]
    fn empty_shreds_with_both_types() {
        let env = movies_env();
        let elem = nrc_data::Type::bag(nrc_data::Type::Base(BaseType::Str));
        let s = shred_query(&empty(elem), &env).unwrap();
        assert_eq!(s.flat, empty(nrc_data::Type::Label));
        assert!(matches!(s.ctx, Expr::EmptyCtx(_)));
    }
}
