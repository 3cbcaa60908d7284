//! The lazy evaluation strategy of Lemma 3.
//!
//! The proof of Lemma 3 evaluates a query in two steps: first a *lazy*
//! result `h^L` is computed in which every inner bag is a closure `β_{e,ε}`
//! (the expression that would have produced it plus the element-variable
//! assignment at that point), then closures are *expanded* on demand.
//! Quoting the paper: *"by postponing the materialization of inner bags
//! until after the entire top level bag has been evaluated, we avoid
//! computing the contents of nested bags that might get projected away in a
//! later stage of the computation."*
//!
//! This module implements exactly that strategy for plain NRC⁺ (the
//! fragment Lemma 3 is stated for). Its step counter is the paper's
//! step-counting model: producing a top-level element costs one step, and
//! expansion costs are incurred only for inner bags that are actually
//! demanded. Experiment E4 prints its step count beside `tcost(C[[h]])`
//! and checks Lemma 3's O(·) with the constant spelled out
//! (`lazy steps ≤ (|h| + 1) · tcost`, the counter charging one step per
//! operator per element); the tests below show the lazy strategy doing
//! less than the eager evaluator when inner bags are projected away.

use crate::eval::{eval_pred, Env, EvalError};
use crate::expr::{Expr, ScalarRef};
use nrc_data::{Bag, Value};

/// A lazily evaluated value: tuples and base values are strict; bag
/// positions hold either already-expanded bags or closures.
#[derive(Clone, Debug)]
pub enum LazyValue {
    /// A strict (base or label) value.
    Strict(Value),
    /// A tuple of lazy components.
    Tuple(Vec<LazyValue>),
    /// An evaluated (top-level) lazy bag.
    Bag(LazyBag),
    /// A closure `β_{e,ε}`: the deferred inner-bag expression with its
    /// captured element assignment (and `let` bindings).
    Thunk(Box<Closure>),
}

/// The deferred computation of an inner bag.
#[derive(Clone, Debug)]
pub struct Closure {
    body: Expr,
    lets: Vec<(String, LazyValue)>,
    elems: Vec<(String, LazyValue)>,
}

/// A lazy bag: elements with multiplicities, *not* deduplicated — element
/// equality would force thunks, defeating laziness. Deduplication happens
/// at expansion.
#[derive(Clone, Debug, Default)]
pub struct LazyBag {
    elems: Vec<(LazyValue, i64)>,
}

impl LazyBag {
    fn push(&mut self, v: LazyValue, m: i64) {
        if m != 0 {
            self.elems.push((v, m));
        }
    }

    /// Number of (undeduplicated) element productions — the lazy top-level
    /// work measure of Lemma 3's first phase.
    pub fn productions(&self) -> usize {
        self.elems.len()
    }
}

/// The lazy evaluation environment (element and `let` bindings hold lazy
/// values; database and update relations are shared with the eager
/// [`Env`]).
pub struct LazyEnv<'a, 'b> {
    base: &'b mut Env<'a>,
    lets: Vec<(String, LazyValue)>,
    elems: Vec<(String, LazyValue)>,
    /// Steps spent producing lazy elements (phase one).
    pub lazy_steps: u64,
    /// Steps spent expanding demanded inner bags (phase two).
    pub expand_steps: u64,
}

impl<'a, 'b> LazyEnv<'a, 'b> {
    /// Wrap an eager environment (for its database/update bindings).
    pub fn new(base: &'b mut Env<'a>) -> LazyEnv<'a, 'b> {
        LazyEnv {
            base,
            lets: vec![],
            elems: vec![],
            lazy_steps: 0,
            expand_steps: 0,
        }
    }

    fn lookup_elem(&self, name: &str) -> Option<&LazyValue> {
        self.elems
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    fn lookup_let(&self, name: &str) -> Option<&LazyValue> {
        self.lets
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    fn resolve_ref(&self, r: &ScalarRef) -> Result<LazyValue, EvalError> {
        let mut cur = self
            .lookup_elem(&r.var)
            .ok_or_else(|| EvalError::UnknownElemVar(r.var.clone()))?;
        for &i in &r.path {
            cur = match cur {
                LazyValue::Tuple(vs) => vs.get(i).ok_or_else(|| {
                    EvalError::Malformed(format!("lazy projection {i} out of range"))
                })?,
                LazyValue::Strict(v) => {
                    // Fall back to strict projection.
                    return Ok(LazyValue::Strict(
                        v.project_path(
                            &r.path[r.path.iter().position(|x| *x == i).unwrap_or(0)..],
                        )?
                        .clone(),
                    ));
                }
                other => {
                    return Err(EvalError::Malformed(format!(
                        "lazy projection into non-tuple {other:?}"
                    )))
                }
            };
        }
        Ok(cur.clone())
    }
}

/// Phase one: evaluate to a lazy bag (inner bags as closures).
pub fn eval_lazy(e: &Expr, env: &mut LazyEnv<'_, '_>) -> Result<LazyBag, EvalError> {
    match e {
        Expr::Rel(r) => {
            let bag = env
                .base
                .db
                .get(r)
                .ok_or_else(|| EvalError::UnknownRelation(r.clone()))?
                .clone();
            strict_bag(bag, env)
        }
        Expr::DeltaRel(r, k) => {
            let bag = env
                .base
                .deltas
                .get(&(r.clone(), *k))
                .ok_or_else(|| EvalError::UnboundDelta(r.clone(), *k))?
                .clone();
            strict_bag(bag, env)
        }
        Expr::Var(x) => match env.lookup_let(x).cloned() {
            Some(LazyValue::Bag(b)) => Ok(b),
            Some(LazyValue::Thunk(c)) => force(&c, env),
            Some(LazyValue::Strict(Value::Bag(b))) => strict_bag(b, env),
            Some(other) => Err(EvalError::Malformed(format!(
                "let variable {x} is not a bag: {other:?}"
            ))),
            None => Err(EvalError::UnknownVar(x.clone())),
        },
        Expr::Let { name, value, body } => {
            let v = eval_lazy(value, env)?;
            env.lets.push((name.clone(), LazyValue::Bag(v)));
            let r = eval_lazy(body, env);
            env.lets.pop();
            r
        }
        Expr::ElemSng(x) => {
            let v = env
                .lookup_elem(x)
                .cloned()
                .ok_or_else(|| EvalError::UnknownElemVar(x.clone()))?;
            env.lazy_steps += 1;
            let mut out = LazyBag::default();
            out.push(v, 1);
            Ok(out)
        }
        Expr::ProjSng { var, path } => {
            let v = env.resolve_ref(&ScalarRef {
                var: var.clone(),
                path: path.clone(),
            })?;
            env.lazy_steps += 1;
            let mut out = LazyBag::default();
            out.push(v, 1);
            Ok(out)
        }
        Expr::UnitSng => {
            env.lazy_steps += 1;
            let mut out = LazyBag::default();
            out.push(LazyValue::Tuple(vec![]), 1);
            Ok(out)
        }
        Expr::Sng { body, .. } => {
            // The heart of laziness: [[sng(e)]]^L_ε = β_{e,ε}.
            env.lazy_steps += 1;
            let mut out = LazyBag::default();
            out.push(
                LazyValue::Thunk(Box::new(Closure {
                    body: (**body).clone(),
                    lets: env.lets.clone(),
                    elems: env.elems.clone(),
                })),
                1,
            );
            Ok(out)
        }
        Expr::Empty { .. } => Ok(LazyBag::default()),
        Expr::Union(a, b) => {
            let mut x = eval_lazy(a, env)?;
            let y = eval_lazy(b, env)?;
            x.elems.extend(y.elems);
            Ok(x)
        }
        Expr::Negate(inner) => {
            let mut x = eval_lazy(inner, env)?;
            for (_, m) in &mut x.elems {
                *m = -*m;
            }
            Ok(x)
        }
        Expr::Product(es) => {
            let mut bags = Vec::with_capacity(es.len());
            for part in es {
                bags.push(eval_lazy(part, env)?);
            }
            let mut out = LazyBag::default();
            cross(&bags, &mut vec![], 1, &mut out, &mut env.lazy_steps);
            Ok(out)
        }
        Expr::For { var, source, body } => {
            let src = eval_lazy(source, env)?;
            let mut out = LazyBag::default();
            for (v, m) in src.elems {
                env.lazy_steps += 1;
                env.elems.push((var.clone(), v));
                let r = eval_lazy(body, env);
                env.elems.pop();
                for (w, n) in r?.elems {
                    out.push(w, n * m);
                }
            }
            Ok(out)
        }
        Expr::Flatten(inner) => {
            // flatten demands one level: thunks at the top are forced.
            let x = eval_lazy(inner, env)?;
            let mut out = LazyBag::default();
            for (v, m) in x.elems {
                let inner_bag = match v {
                    LazyValue::Bag(b) => b,
                    LazyValue::Thunk(c) => force(&c, env)?,
                    LazyValue::Strict(Value::Bag(b)) => strict_bag(b, env)?,
                    other => {
                        return Err(EvalError::Malformed(format!(
                            "flatten over non-bag lazy value {other:?}"
                        )))
                    }
                };
                for (w, n) in inner_bag.elems {
                    out.push(w, n * m);
                }
            }
            Ok(out)
        }
        Expr::Pred(p) => {
            // Predicates touch only base components — never thunks — so we
            // can evaluate them against a strict view of the bindings.
            let strict_elems: Vec<(String, Value)> = env
                .elems
                .iter()
                .map(|(n, v)| Ok((n.clone(), shallow_strict(v)?)))
                .collect::<Result<_, EvalError>>()?;
            let saved = std::mem::take(&mut env.base.elems);
            env.base.elems = strict_elems;
            let holds = eval_pred(p, env.base);
            env.base.elems = saved;
            env.lazy_steps += 1;
            let mut out = LazyBag::default();
            if holds? {
                out.push(LazyValue::Tuple(vec![]), 1);
            }
            Ok(out)
        }
        Expr::InLabel { .. }
        | Expr::DictSng { .. }
        | Expr::DictGet { .. }
        | Expr::CtxTuple(_)
        | Expr::CtxProj { .. }
        | Expr::LabelUnion(_, _)
        | Expr::CtxAdd(_, _)
        | Expr::EmptyCtx(_) => Err(EvalError::Malformed(format!(
            "lazy evaluation covers plain NRC⁺ (Lemma 3); found {e}"
        ))),
    }
}

fn cross(
    bags: &[LazyBag],
    prefix: &mut Vec<LazyValue>,
    mult: i64,
    out: &mut LazyBag,
    steps: &mut u64,
) {
    if bags.is_empty() {
        *steps += 1;
        out.push(LazyValue::Tuple(prefix.clone()), mult);
        return;
    }
    for (v, m) in &bags[0].elems {
        prefix.push(v.clone());
        cross(&bags[1..], prefix, mult * m, out, steps);
        prefix.pop();
    }
}

/// Force a closure into a lazy bag ( [[β_{e,ε}]]^L = [[e]]^L_ε ).
fn force(c: &Closure, env: &mut LazyEnv<'_, '_>) -> Result<LazyBag, EvalError> {
    let saved_lets = std::mem::replace(&mut env.lets, c.lets.clone());
    let saved_elems = std::mem::replace(&mut env.elems, c.elems.clone());
    let r = eval_lazy(&c.body, env);
    env.lets = saved_lets;
    env.elems = saved_elems;
    r
}

/// View a lazy value strictly *without* forcing thunks — valid only for
/// base/tuple skeletons (predicate operands).
fn shallow_strict(v: &LazyValue) -> Result<Value, EvalError> {
    match v {
        LazyValue::Strict(v) => Ok(v.clone()),
        LazyValue::Tuple(vs) => Ok(Value::Tuple(
            vs.iter()
                .map(|c| shallow_strict(c).unwrap_or(Value::Tuple(vec![])))
                .collect(),
        )),
        // A bag/thunk component: placeholder (predicates cannot touch it —
        // positivity).
        LazyValue::Bag(_) | LazyValue::Thunk(_) => Ok(Value::Tuple(vec![])),
    }
}

fn strict_bag(bag: Bag, env: &mut LazyEnv<'_, '_>) -> Result<LazyBag, EvalError> {
    let mut out = LazyBag::default();
    for (v, m) in bag.iter() {
        env.lazy_steps += 1;
        out.push(lazy_of_value(v), m);
    }
    Ok(out)
}

fn lazy_of_value(v: &Value) -> LazyValue {
    match v {
        Value::Tuple(vs) => LazyValue::Tuple(vs.iter().map(lazy_of_value).collect()),
        other => LazyValue::Strict(other.clone()),
    }
}

/// Phase two: the expansion function `exp` of Lemma 3 — force everything
/// into a strict [`Value`].
pub fn expand(v: &LazyValue, env: &mut LazyEnv<'_, '_>) -> Result<Value, EvalError> {
    match v {
        LazyValue::Strict(v) => Ok(v.clone()),
        LazyValue::Tuple(vs) => Ok(Value::Tuple(
            vs.iter()
                .map(|c| expand(c, env))
                .collect::<Result<_, _>>()?,
        )),
        LazyValue::Bag(b) => expand_bag(b.clone(), env).map(Value::Bag),
        LazyValue::Thunk(c) => {
            let b = force(&(**c).clone(), env)?;
            expand_bag(b, env).map(Value::Bag)
        }
    }
}

/// Expand a lazy bag to a canonical [`Bag`] (this is where deduplication
/// happens).
pub fn expand_bag(b: LazyBag, env: &mut LazyEnv<'_, '_>) -> Result<Bag, EvalError> {
    let mut out = Bag::empty();
    for (v, m) in b.elems {
        env.expand_steps += 1;
        out.insert(expand(&v, env)?, m);
    }
    Ok(out)
}

/// Convenience: full lazy pipeline — lazy evaluation then expansion —
/// returning the strict bag plus the two-phase step counts.
pub fn eval_lazy_full(e: &Expr, env: &mut Env<'_>) -> Result<(Bag, u64, u64), EvalError> {
    let mut lenv = LazyEnv::new(env);
    let lazy = eval_lazy(e, &mut lenv)?;
    let bag = expand_bag(lazy, &mut lenv)?;
    Ok((bag, lenv.lazy_steps, lenv.expand_steps))
}

/// Lazy evaluation that only expands the *top level*, leaving inner bags
/// unexpanded — returns the number of top-level productions and the lazy
/// step count (inner bags never touched). Used to demonstrate the Lemma 3
/// saving on queries that project inner bags away.
pub fn eval_lazy_toplevel(e: &Expr, env: &mut Env<'_>) -> Result<(usize, u64), EvalError> {
    let mut lenv = LazyEnv::new(env);
    let lazy = eval_lazy(e, &mut lenv)?;
    Ok((lazy.productions(), lenv.lazy_steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::eval::eval_query;
    use nrc_data::database::example_movies;
    use nrc_data::{BaseType, Database, Type};

    fn check_agrees(q: &Expr, db: &Database) {
        let mut env1 = Env::new(db);
        let eager = eval_query(q, &mut env1).unwrap();
        let mut env2 = Env::new(db);
        let (lazy, _, _) = eval_lazy_full(q, &mut env2).unwrap();
        assert_eq!(eager, lazy, "lazy/eager disagree on {q}");
    }

    #[test]
    fn lazy_agrees_with_eager_on_paper_queries() {
        let db = example_movies();
        check_agrees(&related_query(), &db);
        check_agrees(
            &filter_query("M", cmp_lit("x", vec![1], crate::expr::CmpOp::Eq, "Drama")),
            &db,
        );
        check_agrees(&pair(rel("M"), rel("M")), &db);
        check_agrees(&union(rel("M"), negate(rel("M"))), &db);
    }

    #[test]
    fn lazy_agrees_on_random_queries() {
        use crate::generator::{GenConfig, QueryGen};
        for seed in 0..120u64 {
            let mut g = QueryGen::new(seed, GenConfig::default());
            let db = g.gen_database();
            let q = g.gen_query(&db);
            check_agrees(&q, &db);
        }
    }

    #[test]
    fn projected_away_inner_bags_are_never_computed() {
        // q = for r in related union sng(r.1): the related-movies inner
        // bags are projected away; lazy evaluation never runs relB.
        let db = example_movies();
        let q = for_("r", related_query(), proj_sng("r", vec![0]));
        let mut env_lazy = Env::new(&db);
        let (_, lazy_steps) = eval_lazy_toplevel(&q, &mut env_lazy).unwrap();
        let mut env_eager = Env::new(&db);
        eval_query(&q, &mut env_eager).unwrap();
        assert!(
            lazy_steps * 2 < env_eager.steps,
            "lazy ({lazy_steps}) should be well below eager ({})",
            env_eager.steps
        );
    }

    #[test]
    fn expansion_pays_only_for_demanded_bags() {
        // The lazy phase is linear in |M| (constant work per movie: it
        // builds one closure instead of running relB), while eager
        // evaluation of `related` is quadratic — visible at modest scale.
        let mut db = Database::new();
        let movie_ty = example_movies().schema("M").unwrap().clone();
        let movies = (0..40).map(|i| {
            Value::Tuple(vec![
                Value::str(format!("m{i}")),
                Value::str(format!("g{}", i % 4)),
                Value::str(format!("d{}", i % 5)),
            ])
        });
        db.insert_relation("M", movie_ty, nrc_data::Bag::from_values(movies));
        let q = related_query();
        // Demanding everything costs as much as eager evaluation (no free
        // lunch) …
        let mut env = Env::new(&db);
        let (full, _, expand_steps) = eval_lazy_full(&q, &mut env).unwrap();
        assert!(expand_steps > 0);
        let mut env_eager = Env::new(&db);
        let eager = crate::eval::eval_query(&q, &mut env_eager).unwrap();
        assert_eq!(full, eager);
        // … but the *top-level* phase alone is linear: one closure per
        // movie instead of running relB per movie.
        let mut env_top = Env::new(&db);
        let (productions, top_steps) = eval_lazy_toplevel(&q, &mut env_top).unwrap();
        assert_eq!(productions, 40);
        assert!(
            top_steps * 3 < env_eager.steps,
            "top-level phase ({top_steps}) should be well below eager ({})",
            env_eager.steps
        );
    }

    #[test]
    fn deep_nesting_expands_correctly() {
        let mut db = Database::new();
        let int = Type::Base(BaseType::Int);
        db.insert_relation(
            "R",
            Type::bag(int),
            nrc_data::Bag::from_values([Value::Bag(nrc_data::Bag::from_values([
                Value::int(1),
                Value::int(2),
            ]))]),
        );
        // Double nesting via sng of sng.
        let q = for_("x", rel("R"), sng(1, sng(2, elem_sng("x"))));
        check_agrees(&q, &db);
    }

    #[test]
    fn lazy_rejects_label_constructs() {
        let db = example_movies();
        let mut env = Env::new(&db);
        let e = Expr::EmptyCtx(Type::dict(Type::unit()));
        assert!(matches!(
            eval_lazy_full(&e, &mut env),
            Err(EvalError::Malformed(_))
        ));
    }
}
