//! Typing rules for NRC⁺ / IncNRC⁺ₗ (Fig. 3 of the paper, plus the label and
//! context constructs of §5.1–5.2).
//!
//! Typed expressions `Γ; Π ⊢ e : T` carry two contexts: `Γ` assigns types to
//! `let`-bound variables (referencing top-level bags, dictionaries or context
//! tuples) and `Π` assigns types to element variables introduced by `for`
//! comprehensions (and dictionary parameter lists). The distinction matters
//! for shredding, where `Π` supplies the value assignments baked into labels.

use crate::expr::{BoolExpr, Expr, Operand, ScalarRef};
use nrc_data::{BaseType, Database, Type};
use std::collections::BTreeMap;
use std::fmt;

/// A typing error, with a description of the offending construct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeError {
    /// Reference to an undeclared relation.
    UnknownRelation(String),
    /// Reference to an unbound `let` variable.
    UnknownVar(String),
    /// Reference to an unbound element variable.
    UnknownElemVar(String),
    /// Two subexpressions were required to have the same type but differ.
    Mismatch {
        /// What the context required.
        expected: String,
        /// What was found.
        got: String,
        /// Which construct raised the error.
        at: String,
    },
    /// An expression of bag type was required.
    NotABag { at: String, got: String },
    /// A tuple component path failed to resolve.
    BadPath {
        var: String,
        path: Vec<usize>,
        ty: String,
    },
    /// A predicate touched a non-`Base` component — violates the positivity
    /// restriction of §3 (predicates act only on tuples of basic values).
    PredicateNotBase { at: String },
    /// Products need at least two factors.
    ProductArity,
    /// A context-typed expression was required (unit/tuple/dictionary tree).
    NotAContext { at: String, got: String },
    /// Dictionary bodies and label arguments must be *flat* (bag-free) —
    /// they live in the shredded world.
    NotFlat { at: String, got: String },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            TypeError::UnknownVar(x) => write!(f, "unbound let-variable {x}"),
            TypeError::UnknownElemVar(x) => write!(f, "unbound element variable {x}"),
            TypeError::Mismatch { expected, got, at } => {
                write!(f, "type mismatch at {at}: expected {expected}, got {got}")
            }
            TypeError::NotABag { at, got } => write!(f, "expected bag type at {at}, got {got}"),
            TypeError::BadPath { var, path, ty } => {
                write!(f, "path {path:?} does not resolve in {var} : {ty}")
            }
            TypeError::PredicateNotBase { at } => {
                write!(f, "predicate touches non-base component at {at}")
            }
            TypeError::ProductArity => write!(f, "product requires at least two factors"),
            TypeError::NotAContext { at, got } => {
                write!(f, "expected context type at {at}, got {got}")
            }
            TypeError::NotFlat { at, got } => write!(f, "expected flat type at {at}, got {got}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Is `t` a *flat* type — free of `Bag` and dictionary types (labels are
/// allowed)? Shredded bag elements (`A^F`) are exactly the flat types.
pub fn is_flat_type(t: &Type) -> bool {
    match t {
        Type::Base(_) | Type::Label => true,
        Type::Tuple(ts) => ts.iter().all(is_flat_type),
        Type::Bag(_) | Type::Dict(_) => false,
    }
}

/// Is `t` a *context* type: `1`, a dictionary, or a tuple of context types?
/// The shredded context types `A^Γ` are exactly these
/// (`Base^Γ = 1`, `(A×B)^Γ = A^Γ × B^Γ`, `Bag(C)^Γ = (L↦Bag(C^F)) × C^Γ`).
pub fn is_ctx_type(t: &Type) -> bool {
    match t {
        Type::Tuple(ts) => ts.iter().all(is_ctx_type),
        Type::Dict(elem) => is_flat_type(elem),
        Type::Base(_) | Type::Bag(_) | Type::Label => false,
    }
}

/// The typing environment `Γ; Π` plus the database schema.
#[derive(Clone, Debug, Default)]
pub struct TypeEnv {
    /// Relation schemas: `Sch(R)` gives the *element* type of `R`.
    pub schemas: BTreeMap<String, Type>,
    /// `Γ` — `let`-bound variables (lookup from the back for shadowing).
    pub lets: Vec<(String, Type)>,
    /// `Π` — element variables.
    pub elems: Vec<(String, Type)>,
}

impl TypeEnv {
    /// An environment with the given relation schemas and empty contexts.
    pub fn new(schemas: BTreeMap<String, Type>) -> TypeEnv {
        TypeEnv {
            schemas,
            lets: vec![],
            elems: vec![],
        }
    }

    /// Build from a database's declared schemas.
    pub fn from_database(db: &Database) -> TypeEnv {
        let mut schemas = BTreeMap::new();
        for (name, _) in db.iter() {
            if let Some(t) = db.schema(name) {
                schemas.insert(name.clone(), t.clone());
            }
        }
        TypeEnv::new(schemas)
    }

    /// Look up a `let` variable (innermost binding wins).
    pub fn lookup_let(&self, name: &str) -> Option<&Type> {
        self.lets
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Look up an element variable (innermost binding wins).
    pub fn lookup_elem(&self, name: &str) -> Option<&Type> {
        self.elems
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Bind a `let` variable for the duration of `f`.
    fn with_let<T>(&mut self, name: &str, ty: Type, f: impl FnOnce(&mut Self) -> T) -> T {
        self.lets.push((name.to_owned(), ty));
        let r = f(self);
        self.lets.pop();
        r
    }

    /// Bind an element variable for the duration of `f`.
    fn with_elem<T>(&mut self, name: &str, ty: Type, f: impl FnOnce(&mut Self) -> T) -> T {
        self.elems.push((name.to_owned(), ty));
        let r = f(self);
        self.elems.pop();
        r
    }
}

/// Resolve a component path within a type.
fn project_type<'a>(mut t: &'a Type, path: &[usize]) -> Option<&'a Type> {
    for &i in path {
        match t {
            Type::Tuple(ts) => t = ts.get(i)?,
            _ => return None,
        }
    }
    Some(t)
}

/// Infer the type of `e` under `env`. This is the algorithmic reading of
/// Fig. 3 plus the label rules.
pub fn infer(e: &Expr, env: &mut TypeEnv) -> Result<Type, TypeError> {
    match e {
        Expr::Rel(r) | Expr::DeltaRel(r, _) => env
            .schemas
            .get(r)
            .map(|t| Type::bag(t.clone()))
            .ok_or_else(|| TypeError::UnknownRelation(r.clone())),
        Expr::Var(x) => env
            .lookup_let(x)
            .cloned()
            .ok_or_else(|| TypeError::UnknownVar(x.clone())),
        Expr::Let { name, value, body } => {
            let vt = infer(value, env)?;
            env.with_let(name, vt, |env| infer(body, env))
        }
        Expr::ElemSng(x) => {
            let t = env
                .lookup_elem(x)
                .cloned()
                .ok_or_else(|| TypeError::UnknownElemVar(x.clone()))?;
            Ok(Type::bag(t))
        }
        Expr::ProjSng { var, path } => {
            let t = env
                .lookup_elem(var)
                .ok_or_else(|| TypeError::UnknownElemVar(var.clone()))?;
            let pt = project_type(t, path).ok_or_else(|| TypeError::BadPath {
                var: var.clone(),
                path: path.clone(),
                ty: t.to_string(),
            })?;
            Ok(Type::bag(pt.clone()))
        }
        Expr::UnitSng => Ok(Type::bool_bag()),
        Expr::Sng { body, .. } => {
            let bt = infer(body, env)?;
            match &bt {
                Type::Bag(_) => Ok(Type::bag(bt)),
                other => Err(TypeError::NotABag {
                    at: "sng(e)".into(),
                    got: other.to_string(),
                }),
            }
        }
        Expr::Empty { elem_ty } => Ok(Type::bag(elem_ty.clone())),
        Expr::Union(a, b) => {
            let ta = infer(a, env)?;
            let tb = infer(b, env)?;
            if !matches!(ta, Type::Bag(_)) {
                return Err(TypeError::NotABag {
                    at: "⊎ (left)".into(),
                    got: ta.to_string(),
                });
            }
            if ta != tb {
                return Err(TypeError::Mismatch {
                    expected: ta.to_string(),
                    got: tb.to_string(),
                    at: "⊎".into(),
                });
            }
            Ok(ta)
        }
        Expr::Negate(inner) => {
            let t = infer(inner, env)?;
            if !matches!(t, Type::Bag(_)) {
                return Err(TypeError::NotABag {
                    at: "⊖".into(),
                    got: t.to_string(),
                });
            }
            Ok(t)
        }
        Expr::Product(es) => {
            if es.len() < 2 {
                return Err(TypeError::ProductArity);
            }
            let mut elems = Vec::with_capacity(es.len());
            for e in es {
                match infer(e, env)? {
                    Type::Bag(t) => elems.push(*t),
                    other => {
                        return Err(TypeError::NotABag {
                            at: "×".into(),
                            got: other.to_string(),
                        })
                    }
                }
            }
            Ok(Type::bag(Type::Tuple(elems)))
        }
        Expr::For { var, source, body } => {
            let st = infer(source, env)?;
            let elem = match st {
                Type::Bag(t) => *t,
                other => {
                    return Err(TypeError::NotABag {
                        at: "for source".into(),
                        got: other.to_string(),
                    })
                }
            };
            let bt = env.with_elem(var, elem, |env| infer(body, env))?;
            if !matches!(bt, Type::Bag(_)) {
                return Err(TypeError::NotABag {
                    at: "for body".into(),
                    got: bt.to_string(),
                });
            }
            Ok(bt)
        }
        Expr::Flatten(inner) => match infer(inner, env)? {
            Type::Bag(t) => match *t {
                Type::Bag(inner_t) => Ok(Type::Bag(inner_t)),
                other => Err(TypeError::NotABag {
                    at: "flatten element".into(),
                    got: other.to_string(),
                }),
            },
            other => Err(TypeError::NotABag {
                at: "flatten".into(),
                got: other.to_string(),
            }),
        },
        Expr::Pred(p) => {
            check_pred(p, env)?;
            Ok(Type::bool_bag())
        }
        Expr::InLabel { args, .. } => {
            for a in args {
                let t = resolve_ref(a, env)?;
                if !is_flat_type(&t) {
                    return Err(TypeError::NotFlat {
                        at: format!("inL argument {a}"),
                        got: t.to_string(),
                    });
                }
            }
            Ok(Type::bag(Type::Label))
        }
        Expr::DictSng { params, body, .. } => {
            // Bind the parameters, then require a flat bag body.
            let mut added = 0;
            for (p, t) in params {
                env.elems.push((p.clone(), t.clone()));
                added += 1;
            }
            let result = infer(body, env);
            for _ in 0..added {
                env.elems.pop();
            }
            match result? {
                Type::Bag(elem) => {
                    if !is_flat_type(&elem) {
                        return Err(TypeError::NotFlat {
                            at: "dictionary body".into(),
                            got: elem.to_string(),
                        });
                    }
                    Ok(Type::Dict(elem))
                }
                other => Err(TypeError::NotABag {
                    at: "dictionary body".into(),
                    got: other.to_string(),
                }),
            }
        }
        Expr::DictGet { dict, label } => {
            let lt = resolve_ref(label, env)?;
            if lt != Type::Label {
                return Err(TypeError::Mismatch {
                    expected: "L".into(),
                    got: lt.to_string(),
                    at: "dictionary application".into(),
                });
            }
            match infer(dict, env)? {
                Type::Dict(elem) => Ok(Type::Bag(elem)),
                other => Err(TypeError::NotAContext {
                    at: "dictionary application".into(),
                    got: other.to_string(),
                }),
            }
        }
        Expr::CtxTuple(es) => {
            let mut ts = Vec::with_capacity(es.len());
            for e in es {
                let t = infer(e, env)?;
                if !is_ctx_type(&t) {
                    return Err(TypeError::NotAContext {
                        at: "context tuple".into(),
                        got: t.to_string(),
                    });
                }
                ts.push(t);
            }
            Ok(Type::Tuple(ts))
        }
        Expr::CtxProj { ctx, index } => match infer(ctx, env)? {
            Type::Tuple(ts) => ts.get(*index).cloned().ok_or_else(|| TypeError::BadPath {
                var: "context".into(),
                path: vec![*index],
                ty: Type::Tuple(ts.clone()).to_string(),
            }),
            other => Err(TypeError::NotAContext {
                at: "context projection".into(),
                got: other.to_string(),
            }),
        },
        Expr::LabelUnion(a, b) | Expr::CtxAdd(a, b) => {
            let op = if matches!(e, Expr::LabelUnion(_, _)) {
                "∪"
            } else {
                "⊎Γ"
            };
            let ta = infer(a, env)?;
            let tb = infer(b, env)?;
            if !is_ctx_type(&ta) {
                return Err(TypeError::NotAContext {
                    at: format!("{op} (left)"),
                    got: ta.to_string(),
                });
            }
            if ta != tb {
                return Err(TypeError::Mismatch {
                    expected: ta.to_string(),
                    got: tb.to_string(),
                    at: op.into(),
                });
            }
            Ok(ta)
        }
        Expr::EmptyCtx(t) => {
            if !is_ctx_type(t) {
                return Err(TypeError::NotAContext {
                    at: "∅Γ".into(),
                    got: t.to_string(),
                });
            }
            Ok(t.clone())
        }
    }
}

/// Type-check a closed query against a database schema; returns the query's
/// type (a bag type for NRC⁺ queries).
pub fn typecheck(e: &Expr, db: &Database) -> Result<Type, TypeError> {
    let mut env = TypeEnv::from_database(db);
    infer(e, &mut env)
}

pub(crate) fn resolve_ref(r: &ScalarRef, env: &TypeEnv) -> Result<Type, TypeError> {
    let t = env
        .lookup_elem(&r.var)
        .ok_or_else(|| TypeError::UnknownElemVar(r.var.clone()))?;
    project_type(t, &r.path)
        .cloned()
        .ok_or_else(|| TypeError::BadPath {
            var: r.var.clone(),
            path: r.path.clone(),
            ty: t.to_string(),
        })
}

fn base_type_of_operand(o: &Operand, env: &TypeEnv) -> Result<BaseType, TypeError> {
    match o {
        Operand::Lit(v) => Ok(v.base_type()),
        Operand::Ref(r) => match resolve_ref(r, env)? {
            Type::Base(b) => Ok(b),
            _ => Err(TypeError::PredicateNotBase { at: r.to_string() }),
        },
    }
}

/// Check a predicate: every operand must resolve to a `Base` type, and both
/// sides of a comparison must have the same base type. (The positivity
/// restriction: predicates never see bags, so they cannot simulate negation
/// on collections — Appendix A.2.)
pub fn check_pred(p: &BoolExpr, env: &TypeEnv) -> Result<(), TypeError> {
    match p {
        BoolExpr::Cmp(a, op, b) => {
            let ta = base_type_of_operand(a, env)?;
            let tb = base_type_of_operand(b, env)?;
            if ta != tb {
                return Err(TypeError::Mismatch {
                    expected: ta.to_string(),
                    got: tb.to_string(),
                    at: format!("comparison {op}"),
                });
            }
            Ok(())
        }
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            check_pred(a, env)?;
            check_pred(b, env)
        }
        BoolExpr::Not(a) => check_pred(a, env),
        BoolExpr::Const(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::CmpOp;
    use nrc_data::database::example_movies;
    use nrc_data::BaseType;

    fn str_ty() -> Type {
        Type::Base(BaseType::Str)
    }

    #[test]
    fn related_query_types() {
        let db = example_movies();
        let t = typecheck(&related_query(), &db).unwrap();
        // Bag(⟨Str × Bag(Str)⟩)
        assert_eq!(t, Type::bag(Type::pair(str_ty(), Type::bag(str_ty()))));
    }

    #[test]
    fn unknown_relation_errors() {
        let db = example_movies();
        assert_eq!(
            typecheck(&rel("Nope"), &db),
            Err(TypeError::UnknownRelation("Nope".into()))
        );
    }

    #[test]
    fn union_requires_equal_types() {
        let db = example_movies();
        let e = union(rel("M"), empty(str_ty()));
        assert!(matches!(
            typecheck(&e, &db),
            Err(TypeError::Mismatch { .. })
        ));
        let ok = union(rel("M"), negate(rel("M")));
        assert!(typecheck(&ok, &db).is_ok());
    }

    #[test]
    fn for_binds_element_variable() {
        let db = example_movies();
        let e = for_("m", rel("M"), proj_sng("m", vec![1]));
        assert_eq!(typecheck(&e, &db).unwrap(), Type::bag(str_ty()));
        // Out-of-range path errors.
        let bad = for_("m", rel("M"), proj_sng("m", vec![7]));
        assert!(matches!(
            typecheck(&bad, &db),
            Err(TypeError::BadPath { .. })
        ));
    }

    #[test]
    fn flatten_requires_nested_bag() {
        let db = example_movies();
        assert!(matches!(
            typecheck(&flatten(rel("M")), &db),
            Err(TypeError::NotABag { .. })
        ));
        let nested = flatten(for_("m", rel("M"), sng(1, elem_sng("m"))));
        assert!(typecheck(&nested, &db).is_ok());
    }

    #[test]
    fn predicates_must_be_base_typed_and_compatible() {
        let db = example_movies();
        // comparing a string field to an int literal: mismatch
        let bad = for_where(
            "m",
            rel("M"),
            cmp_lit("m", vec![0], CmpOp::Eq, 3),
            elem_sng("m"),
        );
        assert!(matches!(
            typecheck(&bad, &db),
            Err(TypeError::Mismatch { .. })
        ));
        // comparing the whole tuple: not base
        let bad2 = for_where(
            "m",
            rel("M"),
            cmp("m", vec![], CmpOp::Eq, "m", vec![]),
            elem_sng("m"),
        );
        assert!(matches!(
            typecheck(&bad2, &db),
            Err(TypeError::PredicateNotBase { .. })
        ));
        let ok = filter_query("M", cmp_lit("x", vec![0], CmpOp::Ne, "Drive"));
        assert!(typecheck(&ok, &db).is_ok());
    }

    #[test]
    fn let_shadows_and_types() {
        let db = example_movies();
        let e = let_("X", rel("M"), union(var("X"), var("X")));
        assert!(typecheck(&e, &db).is_ok());
        assert!(matches!(
            typecheck(&var("X"), &db),
            Err(TypeError::UnknownVar(_))
        ));
    }

    #[test]
    fn product_arity_enforced() {
        let db = example_movies();
        assert_eq!(
            typecheck(&product(vec![rel("M")]), &db),
            Err(TypeError::ProductArity)
        );
        let t = typecheck(&product(vec![rel("M"), rel("M")]), &db).unwrap();
        match t {
            Type::Bag(inner) => match *inner {
                Type::Tuple(ts) => assert_eq!(ts.len(), 2),
                other => panic!("expected tuple, got {other}"),
            },
            other => panic!("expected bag, got {other}"),
        }
    }

    #[test]
    fn delta_rel_types_like_rel() {
        let db = example_movies();
        assert_eq!(
            typecheck(&delta_rel("M"), &db).unwrap(),
            typecheck(&rel("M"), &db).unwrap()
        );
    }

    #[test]
    fn dict_constructs_type() {
        let db = example_movies();
        // [(ι1, m : Movie) ↦ sng(m.1)] : L ↦ Bag(Str)
        let movie_ty = db.schema("M").unwrap().clone();
        let d = Expr::DictSng {
            index: 1,
            params: vec![("m".into(), movie_ty)],
            body: Box::new(proj_sng("m", vec![0])),
        };
        assert_eq!(typecheck(&d, &db).unwrap(), Type::dict(str_ty()));
        // applying it to a label-typed component
        let apply = for_(
            "l",
            for_(
                "m",
                rel("M"),
                Expr::InLabel {
                    index: 1,
                    args: vec![ScalarRef::var("m")],
                },
            ),
            Expr::DictGet {
                dict: Box::new(d),
                label: ScalarRef::var("l"),
            },
        );
        assert_eq!(typecheck(&apply, &db).unwrap(), Type::bag(str_ty()));
    }

    #[test]
    fn dict_body_must_be_flat() {
        let db = example_movies();
        let d = Expr::DictSng {
            index: 1,
            params: vec![],
            body: Box::new(sng(2, empty(str_ty()))),
        };
        assert!(matches!(typecheck(&d, &db), Err(TypeError::NotFlat { .. })));
    }

    #[test]
    fn ctx_tuple_and_projection() {
        let db = example_movies();
        let unit_ctx = Expr::CtxTuple(vec![]);
        let d = Expr::DictSng {
            index: 1,
            params: vec![],
            body: Box::new(unit_sng()),
        };
        let ctx = Expr::CtxTuple(vec![d, unit_ctx]);
        let t = typecheck(&ctx, &db).unwrap();
        assert!(is_ctx_type(&t));
        let proj = Expr::CtxProj {
            ctx: Box::new(ctx),
            index: 0,
        };
        assert_eq!(typecheck(&proj, &db).unwrap(), Type::dict(Type::unit()));
    }

    #[test]
    fn label_union_requires_matching_ctx_types() {
        let db = example_movies();
        let d1 = Expr::DictSng {
            index: 1,
            params: vec![],
            body: Box::new(unit_sng()),
        };
        let d2 = Expr::DictSng {
            index: 2,
            params: vec![],
            body: Box::new(unit_sng()),
        };
        let u = Expr::LabelUnion(Box::new(d1), Box::new(d2));
        assert_eq!(typecheck(&u, &db).unwrap(), Type::dict(Type::unit()));
        let bad = Expr::LabelUnion(Box::new(rel("M")), Box::new(rel("M")));
        assert!(matches!(
            typecheck(&bad, &db),
            Err(TypeError::NotAContext { .. })
        ));
    }

    #[test]
    fn flat_and_ctx_type_predicates() {
        assert!(is_flat_type(&Type::Label));
        assert!(is_flat_type(&Type::pair(str_ty(), Type::Label)));
        assert!(!is_flat_type(&Type::bag(str_ty())));
        assert!(is_ctx_type(&Type::unit()));
        assert!(is_ctx_type(&Type::Tuple(vec![
            Type::dict(str_ty()),
            Type::unit()
        ])));
        assert!(!is_ctx_type(&Type::Base(BaseType::Int)));
        assert!(!is_ctx_type(&Type::dict(Type::bag(str_ty()))));
    }
}
