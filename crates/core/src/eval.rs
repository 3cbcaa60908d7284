//! Evaluation semantics of NRC⁺ / IncNRC⁺ₗ (Fig. 3, §5.2).
//!
//! The evaluator is a direct recursive interpreter over [`nrc_data::Value`].
//! Two value assignments are threaded, mirroring the paper's `γ; ε`:
//! `let`-bound variables (`γ`) and `for`-bound element variables (`ε`),
//! plus the database and the update relations `Δ^k R` bound during delta
//! evaluation.
//!
//! Dictionary literals `[(ι,Π) ↦ e]` denote functions with *a-priori
//! infinite domain* (§5.2: they produce a bag for every possible value
//! assignment), so they do not evaluate to an extensional [`Dictionary`]
//! directly. Instead context-typed expressions resolve to a [`CtxVal`] —
//! a tree of extensional and *intensional* (closure) dictionaries — which is
//! applied to a set of labels at once ([`apply_dict_set`]), by `d(ℓ)` here
//! and by the shredded executor (`crate::shred::exec`) for the labels a
//! materialized context must define.
//!
//! The evaluator counts abstract **steps** (one per produced tuple /
//! iteration), which experiment E4 compares against the cost interpretation
//! `tcost(C[[h]])` of §4.2.

use crate::expr::{BoolExpr, CmpOp, Expr, Operand, ScalarRef};
use nrc_data::{Bag, BaseValue, DataError, Database, Dictionary, Label, Type, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Errors raised during evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A data-layer error (shape mismatch, undefined label, dictionary
    /// conflict).
    Data(DataError),
    /// Reference to a relation not present in the database.
    UnknownRelation(String),
    /// Reference to an update relation `Δ^k R` that was not bound.
    UnboundDelta(String, u32),
    /// Reference to an unbound `let` variable.
    UnknownVar(String),
    /// Reference to an unbound element variable.
    UnknownElemVar(String),
    /// Two operands of a comparison had different base types.
    IncomparableOperands(String),
    /// A dictionary literal was evaluated in a position requiring an
    /// extensional value (its domain is infinite; use the shredded executor).
    IntensionalDictionary,
    /// A label-union of intensional dictionaries produced conflicting
    /// definitions for the same label (§5.2's `error` case).
    DictUnionConflict(Label),
    /// The expression shape was invalid (should have been caught by the type
    /// checker).
    Malformed(String),
}

impl From<DataError> for EvalError {
    fn from(e: DataError) -> Self {
        EvalError::Data(e)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Data(e) => write!(f, "{e}"),
            EvalError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            EvalError::UnboundDelta(r, k) => write!(f, "unbound update relation Δ^{k}{r}"),
            EvalError::UnknownVar(x) => write!(f, "unbound let-variable {x}"),
            EvalError::UnknownElemVar(x) => write!(f, "unbound element variable {x}"),
            EvalError::IncomparableOperands(s) => write!(f, "incomparable operands: {s}"),
            EvalError::IntensionalDictionary => {
                write!(f, "cannot extensionally evaluate an intensional dictionary")
            }
            EvalError::DictUnionConflict(l) => {
                write!(f, "label union conflict at {l}")
            }
            EvalError::Malformed(s) => write!(f, "malformed expression: {s}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// An intensional dictionary: the closure `[(ι,Π) ↦ body]` together with the
/// environment captured at its evaluation point.
#[derive(Clone, Debug)]
pub struct IntensDict {
    /// The static index `ι`.
    pub index: u32,
    /// The parameters `Π` bound from the label's assignment.
    pub params: Vec<(String, Type)>,
    /// The defining expression.
    pub body: Expr,
    /// Captured `let` bindings.
    pub lets: Vec<(String, Value)>,
    /// Captured element bindings.
    pub elems: Vec<(String, Value)>,
    /// Captured context bindings.
    pub ctx_lets: Vec<(String, CtxVal)>,
    /// Captured update relations.
    pub deltas: BTreeMap<(String, u32), Bag>,
}

/// A resolved dictionary-typed value: extensional, intensional, or a label
/// union of such.
#[derive(Clone, Debug)]
pub enum DictVal {
    /// An extensional dictionary with explicit support.
    Ext(Dictionary),
    /// A dictionary closure.
    Intens(Box<IntensDict>),
    /// A label union `d₁ ∪ … ∪ dₙ` (evaluated per-label with the agreement
    /// check of §5.2).
    Union(Vec<DictVal>),
    /// A dictionary addition `d₁ ⊎ … ⊎ dₙ` (definitions of shared labels are
    /// `⊎`-ed; how context deltas combine).
    Sum(Vec<DictVal>),
}

/// A resolved context-typed value: a tree of tuples with dictionary leaves,
/// mirroring `A^Γ` (`Base^Γ = 1` is the empty tuple).
#[derive(Clone, Debug)]
pub enum CtxVal {
    /// A tuple of contexts (empty = unit context).
    Tuple(Vec<CtxVal>),
    /// A dictionary node.
    Dict(DictVal),
}

impl CtxVal {
    /// The unit context.
    pub fn unit() -> CtxVal {
        CtxVal::Tuple(vec![])
    }

    /// Project a tuple component.
    pub fn project(&self, i: usize) -> Result<&CtxVal, EvalError> {
        match self {
            CtxVal::Tuple(cs) => cs.get(i).ok_or_else(|| {
                EvalError::Malformed(format!("context projection {i} out of range"))
            }),
            CtxVal::Dict(_) => Err(EvalError::Malformed(
                "context projection applied to a dictionary".into(),
            )),
        }
    }

    /// View as a dictionary node.
    pub fn as_dict(&self) -> Result<&DictVal, EvalError> {
        match self {
            CtxVal::Dict(d) => Ok(d),
            CtxVal::Tuple(_) => Err(EvalError::Malformed(
                "expected dictionary context node".into(),
            )),
        }
    }

    /// Convert an extensional context [`Value`] (tuples of dictionaries, as
    /// stored for shredded inputs) into a [`CtxVal`].
    pub fn from_value(v: &Value) -> Result<CtxVal, EvalError> {
        match v {
            Value::Tuple(vs) => Ok(CtxVal::Tuple(
                vs.iter()
                    .map(CtxVal::from_value)
                    .collect::<Result<_, _>>()?,
            )),
            Value::Dict(d) => Ok(CtxVal::Dict(DictVal::Ext(d.clone()))),
            other => Err(EvalError::Malformed(format!(
                "value {other} is not a context"
            ))),
        }
    }

    /// Convert back to an extensional [`Value`]; fails on intensional nodes.
    pub fn to_value(&self) -> Result<Value, EvalError> {
        match self {
            CtxVal::Tuple(cs) => Ok(Value::Tuple(
                cs.iter().map(CtxVal::to_value).collect::<Result<_, _>>()?,
            )),
            CtxVal::Dict(DictVal::Ext(d)) => Ok(Value::Dict(d.clone())),
            CtxVal::Dict(_) => Err(EvalError::IntensionalDictionary),
        }
    }
}

/// The evaluation environment `γ; ε` plus database and update bindings.
#[derive(Clone, Debug)]
pub struct Env<'a> {
    /// The database instance.
    pub db: &'a Database,
    /// Bound update relations `Δ^k R`.
    pub deltas: BTreeMap<(String, u32), Bag>,
    /// `γ` — `let`-bound (bag-valued) variables, innermost last.
    pub lets: Vec<(String, Value)>,
    /// `ε` — element variables, innermost last.
    pub elems: Vec<(String, Value)>,
    /// `let`-bound *context* variables (e.g. `xΓ` from shredded `for`s).
    pub ctx_lets: Vec<(String, CtxVal)>,
    /// Abstract step counter: incremented once per produced element /
    /// iteration (compared against `tcost` in experiment E4).
    pub steps: u64,
}

impl<'a> Env<'a> {
    /// A fresh environment over `db`.
    pub fn new(db: &'a Database) -> Env<'a> {
        Env {
            db,
            deltas: BTreeMap::new(),
            lets: vec![],
            elems: vec![],
            ctx_lets: vec![],
            steps: 0,
        }
    }

    /// Bind the first-order update `ΔR` for relation `name`.
    pub fn with_delta(mut self, name: impl Into<String>, delta: Bag) -> Env<'a> {
        self.deltas.insert((name.into(), 1), delta);
        self
    }

    /// Bind an update relation of the given order.
    pub fn bind_delta(&mut self, name: impl Into<String>, order: u32, delta: Bag) {
        self.deltas.insert((name.into(), order), delta);
    }

    /// Bind a `let` variable (engine entry point for materialized views used
    /// as pseudo-relations).
    pub fn bind_let(&mut self, name: impl Into<String>, v: Value) {
        self.lets.push((name.into(), v));
    }

    /// Bind a context variable.
    pub fn bind_ctx(&mut self, name: impl Into<String>, c: CtxVal) {
        self.ctx_lets.push((name.into(), c));
    }

    fn lookup_let(&self, name: &str) -> Option<&Value> {
        self.lets
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    fn lookup_elem(&self, name: &str) -> Option<&Value> {
        self.elems
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    fn lookup_ctx(&self, name: &str) -> Option<&CtxVal> {
        self.ctx_lets
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
    }

    fn resolve_ref(&self, r: &ScalarRef) -> Result<Value, EvalError> {
        let base = self
            .lookup_elem(&r.var)
            .ok_or_else(|| EvalError::UnknownElemVar(r.var.clone()))?;
        Ok(base.project_path(&r.path)?.clone())
    }
}

/// Is `e` (syntactically) a context-typed expression in the current
/// environment? Used by `let` to decide whether to bind a value or a context.
fn expr_is_ctx(e: &Expr, env: &Env<'_>) -> bool {
    fn rec(e: &Expr, env: &Env<'_>, assumed: &mut Vec<(String, bool)>) -> bool {
        match e {
            Expr::CtxTuple(_)
            | Expr::DictSng { .. }
            | Expr::EmptyCtx(_)
            | Expr::LabelUnion(_, _)
            | Expr::CtxAdd(_, _)
            | Expr::CtxProj { .. } => true,
            Expr::Var(x) => match assumed.iter().rev().find(|(n, _)| n == x) {
                Some((_, is_ctx)) => *is_ctx,
                None => env.lookup_ctx(x).is_some(),
            },
            Expr::Let { name, value, body } => {
                // The body may reference `name`, which this let binds — the
                // environment cannot know about it yet, so carry the
                // hypothetical binding (ctx or not) explicitly.
                let value_is_ctx = rec(value, env, assumed);
                assumed.push((name.clone(), value_is_ctx));
                let r = rec(body, env, assumed);
                assumed.pop();
                r
            }
            _ => false,
        }
    }
    rec(e, env, &mut Vec::new())
}

/// Evaluate a bag-typed expression to a [`Bag`].
///
/// Holds an intern-arena epoch pin for the duration: transient interned
/// ids created while evaluating stay resolvable even if another thread
/// runs `intern::collect` concurrently.
pub fn eval_query(e: &Expr, env: &mut Env<'_>) -> Result<Bag, EvalError> {
    let _pin = nrc_data::intern::pin();
    Ok(eval(e, env)?.into_bag()?)
}

/// Evaluate a (non-context) expression to a [`Value`].
///
/// Unlike [`eval_query`], this recursive entry takes no intern-arena epoch
/// pin of its own (it would pin per node): callers evaluating concurrently
/// with `intern::collect` should enter through [`eval_query`] /
/// [`resolve_ctx`] or hold an `nrc_data::intern::pin` themselves.
pub fn eval(e: &Expr, env: &mut Env<'_>) -> Result<Value, EvalError> {
    match e {
        Expr::Rel(r) => {
            let bag = env
                .db
                .get(r)
                .ok_or_else(|| EvalError::UnknownRelation(r.clone()))?;
            env.steps += bag.distinct_count() as u64;
            Ok(Value::Bag(bag.clone()))
        }
        Expr::DeltaRel(r, k) => {
            let bag = env
                .deltas
                .get(&(r.clone(), *k))
                .ok_or_else(|| EvalError::UnboundDelta(r.clone(), *k))?;
            env.steps += bag.distinct_count() as u64;
            Ok(Value::Bag(bag.clone()))
        }
        Expr::Var(x) => {
            if let Some(v) = env.lookup_let(x) {
                Ok(v.clone())
            } else if let Some(c) = env.lookup_ctx(x) {
                // A context variable referenced in value position: only valid
                // if fully extensional.
                c.to_value()
            } else {
                Err(EvalError::UnknownVar(x.clone()))
            }
        }
        Expr::Let { name, value, body } => {
            if expr_is_ctx(value, env) {
                // In-module recursion: skip the pinning wrapper (every
                // engine path into `eval` already holds an epoch pin).
                let c = resolve_ctx_inner(value, env)?;
                env.ctx_lets.push((name.clone(), c));
                let r = eval(body, env);
                env.ctx_lets.pop();
                r
            } else {
                let v = eval(value, env)?;
                env.lets.push((name.clone(), v));
                let r = eval(body, env);
                env.lets.pop();
                r
            }
        }
        Expr::ElemSng(x) => {
            let v = env
                .lookup_elem(x)
                .cloned()
                .ok_or_else(|| EvalError::UnknownElemVar(x.clone()))?;
            env.steps += 1;
            Ok(Value::Bag(Bag::singleton(v)))
        }
        Expr::ProjSng { var, path } => {
            let v = env.resolve_ref(&ScalarRef {
                var: var.clone(),
                path: path.clone(),
            })?;
            env.steps += 1;
            Ok(Value::Bag(Bag::singleton(v)))
        }
        Expr::UnitSng => {
            env.steps += 1;
            Ok(Value::Bag(Bag::singleton(Value::unit())))
        }
        Expr::Sng { body, .. } => {
            let inner = eval(body, env)?.into_bag()?;
            env.steps += 1;
            Ok(Value::Bag(Bag::singleton(Value::Bag(inner))))
        }
        Expr::Empty { .. } => Ok(Value::Bag(Bag::empty())),
        Expr::Union(a, b) => {
            let x = eval(a, env)?.into_bag()?;
            let y = eval(b, env)?.into_bag()?;
            env.steps += x.distinct_count().min(y.distinct_count()) as u64;
            Ok(Value::Bag(x.union(&y)))
        }
        Expr::Negate(inner) => {
            let b = eval(inner, env)?.into_bag()?;
            env.steps += b.distinct_count() as u64;
            Ok(Value::Bag(b.negate()))
        }
        Expr::Product(es) => {
            let mut bags = Vec::with_capacity(es.len());
            for e in es {
                bags.push(eval(e, env)?.into_bag()?);
            }
            Ok(Value::Bag(product_all(&bags, &mut env.steps)?))
        }
        Expr::For { var, source, body } => {
            let src = eval(source, env)?.into_bag()?;
            let mut acc = Bag::empty();
            for (v, m) in src.iter() {
                env.steps += 1;
                env.elems.push((var.clone(), v.clone()));
                let res = eval(body, env);
                env.elems.pop();
                let b = res?.into_bag()?;
                // Id-native scaled accumulation: no scaled intermediate bag,
                // no value clones — the body's elements flow into `acc` as
                // interned ids, one tree upsert per element of `b` (the
                // first non-empty body is shared, not copied).
                acc.union_assign_scaled(&b, m)?;
            }
            Ok(Value::Bag(acc))
        }
        Expr::Flatten(inner) => {
            let b = eval(inner, env)?.into_bag()?;
            env.steps += b.distinct_count() as u64;
            Ok(Value::Bag(b.flatten()?))
        }
        Expr::Pred(p) => {
            let holds = eval_pred(p, env)?;
            env.steps += 1;
            Ok(Value::Bag(if holds {
                Bag::singleton(Value::unit())
            } else {
                Bag::empty()
            }))
        }
        Expr::InLabel { index, args } => {
            let vals = args
                .iter()
                .map(|a| env.resolve_ref(a))
                .collect::<Result<Vec<_>, _>>()?;
            env.steps += 1;
            Ok(Value::Bag(Bag::singleton(Value::Label(Label::new(
                *index, vals,
            )))))
        }
        Expr::DictGet { dict, label } => {
            let lv = env.resolve_ref(label)?;
            let l = lv.as_label()?.clone();
            let d = resolve_ctx_inner(dict, env)?;
            // Dictionary application is *total* (§5.2): `∅` outside the
            // support. Delta dictionaries rely on this — a label without a
            // change simply contributes nothing. Consistency of full
            // contexts (every reachable label defined) is enforced
            // separately by the shredded executor and the Appendix C.3
            // checker.
            let mut defs = apply_dict_set(d.as_dict()?, &[&l], env.db, &mut 0)?;
            Ok(Value::Bag(defs.pop().map(|(_, b)| b).unwrap_or_default()))
        }
        Expr::DictSng { .. }
        | Expr::CtxTuple(_)
        | Expr::CtxProj { .. }
        | Expr::LabelUnion(_, _)
        | Expr::CtxAdd(_, _)
        | Expr::EmptyCtx(_) => {
            // Context expression in value position: resolve and require it to
            // be extensional.
            resolve_ctx_inner(e, env)?.to_value()
        }
    }
}

/// n-ary product of already-evaluated bags.
///
/// The prefix is a stack of `&'static` references into the interning arena:
/// element trees are cloned only once per *emitted* tuple (at the leaf),
/// never while walking, and multiplicity products are overflow-checked.
fn product_all(bags: &[Bag], steps: &mut u64) -> Result<Bag, DataError> {
    fn rec(
        bags: &[Bag],
        prefix: &mut Vec<&'static Value>,
        mult: i64,
        acc: &mut Bag,
        steps: &mut u64,
    ) -> Result<(), DataError> {
        if bags.is_empty() {
            *steps += 1;
            acc.insert(
                Value::Tuple(prefix.iter().map(|&v| v.clone()).collect()),
                mult,
            );
            return Ok(());
        }
        for (id, m) in bags[0].ids() {
            let mult = mult
                .checked_mul(m)
                .ok_or(DataError::Overflow { op: "product" })?;
            prefix.push(id.value());
            let r = rec(&bags[1..], prefix, mult, acc, steps);
            prefix.pop();
            r?;
        }
        Ok(())
    }
    let mut acc = Bag::empty();
    rec(bags, &mut Vec::new(), 1, &mut acc, steps)?;
    Ok(acc)
}

/// Evaluate a predicate under the current element bindings.
pub fn eval_pred(p: &BoolExpr, env: &Env<'_>) -> Result<bool, EvalError> {
    match p {
        BoolExpr::Const(b) => Ok(*b),
        BoolExpr::Not(a) => Ok(!eval_pred(a, env)?),
        BoolExpr::And(a, b) => Ok(eval_pred(a, env)? && eval_pred(b, env)?),
        BoolExpr::Or(a, b) => Ok(eval_pred(a, env)? || eval_pred(b, env)?),
        BoolExpr::Cmp(lhs, op, rhs) => {
            let a = operand_value(lhs, env)?;
            let b = operand_value(rhs, env)?;
            compare(&a, *op, &b)
        }
    }
}

fn operand_value(o: &Operand, env: &Env<'_>) -> Result<BaseValue, EvalError> {
    match o {
        Operand::Lit(v) => Ok(v.clone()),
        Operand::Ref(r) => {
            let v = env.resolve_ref(r)?;
            Ok(v.as_base()?.clone())
        }
    }
}

fn compare(a: &BaseValue, op: CmpOp, b: &BaseValue) -> Result<bool, EvalError> {
    if a.base_type() != b.base_type() {
        return Err(EvalError::IncomparableOperands(format!("{a} vs {b}")));
    }
    Ok(match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    })
}

/// Resolve a context-typed expression to a [`CtxVal`] (tree of extensional
/// and intensional dictionaries).
///
/// Like [`eval_query`], holds an intern-arena epoch pin so transient
/// interned ids survive a concurrent `intern::collect`. The pin is taken
/// once at this entry point — the recursion below goes through
/// `resolve_ctx_inner`, not back through here, so deep context trees pay
/// for one pin, not one per node.
pub fn resolve_ctx(e: &Expr, env: &mut Env<'_>) -> Result<CtxVal, EvalError> {
    let _pin = nrc_data::intern::pin();
    resolve_ctx_inner(e, env)
}

fn resolve_ctx_inner(e: &Expr, env: &mut Env<'_>) -> Result<CtxVal, EvalError> {
    match e {
        Expr::CtxTuple(es) => Ok(CtxVal::Tuple(
            es.iter()
                .map(|c| resolve_ctx_inner(c, env))
                .collect::<Result<_, _>>()?,
        )),
        Expr::DictSng {
            index,
            params,
            body,
        } => Ok(CtxVal::Dict(DictVal::Intens(Box::new(IntensDict {
            index: *index,
            params: params.clone(),
            body: (**body).clone(),
            lets: env.lets.clone(),
            elems: env.elems.clone(),
            ctx_lets: env.ctx_lets.clone(),
            deltas: env.deltas.clone(),
        })))),
        Expr::EmptyCtx(t) => empty_ctx_of_type(t),
        Expr::Var(x) => {
            if let Some(c) = env.lookup_ctx(x) {
                Ok(c.clone())
            } else if let Some(v) = env.lookup_let(x) {
                CtxVal::from_value(&v.clone())
            } else {
                Err(EvalError::UnknownVar(x.clone()))
            }
        }
        Expr::CtxProj { ctx, index } => {
            let c = resolve_ctx_inner(ctx, env)?;
            Ok(c.project(*index)?.clone())
        }
        Expr::LabelUnion(a, b) => {
            let ca = resolve_ctx_inner(a, env)?;
            let cb = resolve_ctx_inner(b, env)?;
            ctx_label_union(ca, cb)
        }
        Expr::CtxAdd(a, b) => {
            let ca = resolve_ctx_inner(a, env)?;
            let cb = resolve_ctx_inner(b, env)?;
            ctx_add(ca, cb)
        }
        Expr::Let { name, value, body } => {
            if expr_is_ctx(value, env) {
                let c = resolve_ctx_inner(value, env)?;
                env.ctx_lets.push((name.clone(), c));
                let r = resolve_ctx_inner(body, env);
                env.ctx_lets.pop();
                r
            } else {
                let v = eval(value, env)?;
                env.lets.push((name.clone(), v));
                let r = resolve_ctx_inner(body, env);
                env.lets.pop();
                r
            }
        }
        other => Err(EvalError::Malformed(format!(
            "expression is not a context: {other}"
        ))),
    }
}

/// The empty context `∅_{BΓ}` at a context type.
fn empty_ctx_of_type(t: &Type) -> Result<CtxVal, EvalError> {
    match t {
        Type::Tuple(ts) => Ok(CtxVal::Tuple(
            ts.iter().map(empty_ctx_of_type).collect::<Result<_, _>>()?,
        )),
        Type::Dict(_) => Ok(CtxVal::Dict(DictVal::Ext(Dictionary::empty()))),
        other => Err(EvalError::Malformed(format!(
            "{other} is not a context type"
        ))),
    }
}

/// Pointwise label union over context trees.
pub fn ctx_label_union(a: CtxVal, b: CtxVal) -> Result<CtxVal, EvalError> {
    match (a, b) {
        (CtxVal::Tuple(xs), CtxVal::Tuple(ys)) => {
            if xs.len() != ys.len() {
                return Err(EvalError::Malformed(
                    "context tuple arity mismatch in ∪".into(),
                ));
            }
            Ok(CtxVal::Tuple(
                xs.into_iter()
                    .zip(ys)
                    .map(|(x, y)| ctx_label_union(x, y))
                    .collect::<Result<_, _>>()?,
            ))
        }
        (CtxVal::Dict(x), CtxVal::Dict(y)) => {
            // Flatten unions for cheap repeated ∪.
            let mut parts = Vec::new();
            let push = |d: DictVal, parts: &mut Vec<DictVal>| match d {
                DictVal::Union(vs) => parts.extend(vs),
                // Empty extensional dictionaries are the ∪-identity.
                DictVal::Ext(e) if e.is_empty() => {}
                other => parts.push(other),
            };
            push(x, &mut parts);
            push(y, &mut parts);
            Ok(match parts.len() {
                0 => CtxVal::Dict(DictVal::Ext(Dictionary::empty())),
                1 => CtxVal::Dict(parts.pop().expect("len checked")),
                _ => CtxVal::Dict(DictVal::Union(parts)),
            })
        }
        _ => Err(EvalError::Malformed("context shape mismatch in ∪".into())),
    }
}

/// Pointwise dictionary addition over context trees (how context-typed
/// deltas combine).
pub fn ctx_add(a: CtxVal, b: CtxVal) -> Result<CtxVal, EvalError> {
    match (a, b) {
        (CtxVal::Tuple(xs), CtxVal::Tuple(ys)) => {
            if xs.len() != ys.len() {
                return Err(EvalError::Malformed(
                    "context tuple arity mismatch in ⊎Γ".into(),
                ));
            }
            Ok(CtxVal::Tuple(
                xs.into_iter()
                    .zip(ys)
                    .map(|(x, y)| ctx_add(x, y))
                    .collect::<Result<_, _>>()?,
            ))
        }
        (CtxVal::Dict(x), CtxVal::Dict(y)) => {
            let mut parts = Vec::new();
            let push = |d: DictVal, parts: &mut Vec<DictVal>| match d {
                DictVal::Sum(vs) => parts.extend(vs),
                DictVal::Ext(e) if e.is_empty() => {}
                other => parts.push(other),
            };
            push(x, &mut parts);
            push(y, &mut parts);
            Ok(match parts.len() {
                0 => CtxVal::Dict(DictVal::Ext(Dictionary::empty())),
                1 => CtxVal::Dict(parts.pop().expect("len checked")),
                _ => CtxVal::Dict(DictVal::Sum(parts)),
            })
        }
        _ => Err(EvalError::Malformed("context shape mismatch in ⊎Γ".into())),
    }
}

impl IntensDict {
    /// The captured environment over `db`, parameters not yet bound.
    fn env<'a>(&self, db: &'a Database) -> Env<'a> {
        Env {
            db,
            deltas: self.deltas.clone(),
            lets: self.lets.clone(),
            elems: self.elems.clone(),
            ctx_lets: self.ctx_lets.clone(),
            steps: 0,
        }
    }
}

impl DictVal {
    /// Is `l` in the support? A dictionary literal `[(ι,Π) ↦ e]` defines
    /// every label of its index, possibly as `∅`.
    pub fn defines(&self, l: &Label) -> bool {
        match self {
            DictVal::Ext(d) => d.defines(l),
            DictVal::Intens(id) => id.index == l.index,
            DictVal::Union(parts) | DictVal::Sum(parts) => parts.iter().any(|p| p.defines(l)),
        }
    }
}

/// Apply a dictionary to a set of labels at once: `{ℓ ↦ d(ℓ) | ℓ ∈ labels}`.
///
/// Returns the **non-empty** definitions as `(position in labels, bag)`,
/// positions ascending; a label that is missing is either undefined or
/// defined as `∅` — [`DictVal::defines`] tells which. Label unions check
/// the §5.2 agreement condition and error on conflict.
///
/// A dictionary literal is applied set-at-a-time (see
/// `apply_literal_set`); `body_evals` counts its body evaluations — one per
/// (label, generator element) pair the body actually ran on.
pub fn apply_dict_set(
    d: &DictVal,
    labels: &[&Label],
    db: &Database,
    body_evals: &mut u64,
) -> Result<Vec<(usize, Bag)>, EvalError> {
    match d {
        DictVal::Ext(dict) => Ok(labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| Some((i, dict.get(l).filter(|b| !b.is_empty())?.clone())))
            .collect()),
        DictVal::Intens(id) => apply_literal_set(id, labels, db, body_evals),
        DictVal::Union(parts) => {
            let defs = parts
                .iter()
                .map(|p| apply_dict_set(p, labels, db, body_evals))
                .collect::<Result<Vec<_>, _>>()?;
            let at = |part: usize, i: usize| {
                let found = defs[part].binary_search_by_key(&i, |(j, _)| *j).ok()?;
                Some(&defs[part][found].1)
            };
            // A non-empty definition must be matched by every other part
            // that defines the label; where all are `∅` they agree.
            let mut out = BTreeMap::new();
            for (part, part_defs) in defs.iter().enumerate() {
                for (i, b) in part_defs {
                    let agree = |(other, q): (usize, &DictVal)| {
                        other == part || !q.defines(labels[*i]) || at(other, *i) == Some(b)
                    };
                    if !parts.iter().enumerate().all(agree) {
                        return Err(EvalError::DictUnionConflict(labels[*i].clone()));
                    }
                    out.entry(*i).or_insert_with(|| b.clone());
                }
            }
            Ok(out.into_iter().collect())
        }
        DictVal::Sum(parts) => {
            let mut out: BTreeMap<usize, Bag> = BTreeMap::new();
            for p in parts {
                for (i, b) in apply_dict_set(p, labels, db, body_evals)? {
                    out.entry(i).or_default().union_assign(&b);
                }
            }
            Ok(out.into_iter().filter(|(_, b)| !b.is_empty()).collect())
        }
    }
}

/// `[(ι,Π) ↦ body]` applied to every label of index `ι` in `labels`, with
/// one environment for the whole set (parameters bound and unbound per
/// label, nothing cloned).
///
/// When the body is a comprehension `for x in S union e` whose generator
/// `S` does not mention the parameters, `S` is evaluated once and the
/// application becomes a join between the labels and `S`: if `e` is
/// `where P …`, a *necessary* condition for `P` — a disjunction of
/// equalities between parameter components and components of `x`
/// ([`join_keys`]) — hash-partitions `S`, and `e` (the full predicate
/// included) runs only on each label's candidates. The condition only
/// prunes: an element outside it cannot satisfy `P`, so `e` is `∅` there.
/// Without a usable equality every element of `S` is a candidate.
fn apply_literal_set(
    id: &IntensDict,
    labels: &[&Label],
    db: &Database,
    body_evals: &mut u64,
) -> Result<Vec<(usize, Bag)>, EvalError> {
    let mine: Vec<usize> = (0..labels.len())
        .filter(|&i| labels[i].index == id.index)
        .collect();
    if let Some(&i) = mine
        .iter()
        .find(|&&i| labels[i].args.len() != id.params.len())
    {
        return Err(EvalError::Malformed(format!(
            "label {} arity does not match dictionary ι{} parameters",
            labels[i], id.index
        )));
    }
    if mine.is_empty() {
        return Ok(Vec::new());
    }
    let _pin = nrc_data::intern::pin();
    let mut env = id.env(db);
    let unbound = env.elems.len();
    let bind = |env: &mut Env<'_>, l: &Label| {
        for ((p, _), v) in id.params.iter().zip(&l.args) {
            env.elems.push((p.clone(), v.clone()));
        }
    };
    let is_param = |name: &String| id.params.iter().any(|(p, _)| p == name);
    let mut out = Vec::new();
    match &id.body {
        Expr::For { var, source, body } if !source.free_elem_vars().iter().any(is_param) => {
            let generator = eval(source, &mut env)?.into_bag()?;
            let elems: Vec<(&Value, i64)> = generator.iter().collect();
            let index = JoinIndex::build(body, var, &id.params, &elems);
            let all: Vec<usize> = (0..elems.len()).collect();
            for i in mine {
                let probed = index.as_ref().and_then(|ix| ix.probe(&labels[i].args));
                let candidates = probed.as_deref().unwrap_or(&all);
                if candidates.is_empty() {
                    continue;
                }
                bind(&mut env, labels[i]);
                let mut acc = Bag::empty();
                let mut run = || -> Result<(), EvalError> {
                    for &c in candidates {
                        let (v, m) = elems[c];
                        env.elems.push((var.clone(), v.clone()));
                        let res = eval(body, &mut env);
                        env.elems.pop();
                        acc.union_assign_scaled(&res?.into_bag()?, m)?;
                    }
                    Ok(())
                };
                let ran = run();
                env.elems.truncate(unbound);
                ran?;
                *body_evals += candidates.len() as u64;
                if !acc.is_empty() {
                    out.push((i, acc));
                }
            }
        }
        body => {
            for i in mine {
                bind(&mut env, labels[i]);
                let res = eval(body, &mut env);
                env.elems.truncate(unbound);
                *body_evals += 1;
                let def = res?.into_bag()?;
                if !def.is_empty() {
                    out.push((i, def));
                }
            }
        }
    }
    Ok(out)
}

/// One equality `param.path == x.path` of a join condition.
struct JoinKey {
    param: usize,
    param_path: Vec<usize>,
    elem_path: Vec<usize>,
}

/// A necessary condition for `p`, as a disjunction of equalities between a
/// component of a parameter and a component of the generator variable `x`:
/// `p` implies the returned disjunction. `None` when `p` has none (the
/// caller then treats every generator element as a candidate).
fn join_keys(p: &BoolExpr, x: &str, params: &[(String, Type)]) -> Option<Vec<JoinKey>> {
    match p {
        BoolExpr::Cmp(Operand::Ref(a), CmpOp::Eq, Operand::Ref(b)) => {
            // `x` shadows a parameter of the same name.
            let param = |r: &ScalarRef| params.iter().position(|(n, _)| *n == r.var && r.var != x);
            let (param, on_param, on_elem) = match (param(a), param(b)) {
                (Some(i), None) if b.var == x => (i, a, b),
                (None, Some(i)) if a.var == x => (i, b, a),
                _ => return None,
            };
            Some(vec![JoinKey {
                param,
                param_path: on_param.path.clone(),
                elem_path: on_elem.path.clone(),
            }])
        }
        // Either conjunct's condition is necessary for the conjunction.
        BoolExpr::And(a, b) => join_keys(a, x, params).or_else(|| join_keys(b, x, params)),
        BoolExpr::Or(a, b) => {
            let mut keys = join_keys(a, x, params)?;
            keys.extend(join_keys(b, x, params)?);
            Some(keys)
        }
        BoolExpr::Cmp(..) | BoolExpr::Not(_) | BoolExpr::Const(_) => None,
    }
}

/// The generator of a set-at-a-time application, hash-partitioned once per
/// join key.
struct JoinIndex<'a> {
    keys: Vec<JoinKey>,
    /// Per key: component value ↦ positions of the generator elements
    /// carrying it.
    buckets: Vec<HashMap<&'a Value, Vec<usize>>>,
}

impl<'a> JoinIndex<'a> {
    /// `None` unless `body` is `where P …` (`for w in p[P] union …`) with a
    /// usable [`join_keys`] condition that projects on every element.
    fn build(
        body: &Expr,
        x: &str,
        params: &[(String, Type)],
        elems: &[(&'a Value, i64)],
    ) -> Option<JoinIndex<'a>> {
        let Expr::For { source, .. } = body else {
            return None;
        };
        let Expr::Pred(p) = &**source else {
            return None;
        };
        let keys = join_keys(p, x, params)?;
        let mut buckets = Vec::with_capacity(keys.len());
        for key in &keys {
            let mut by_value: HashMap<&Value, Vec<usize>> = HashMap::new();
            for (at, (v, _)) in elems.iter().enumerate() {
                let component = v.project_path(&key.elem_path).ok()?;
                by_value.entry(component).or_default().push(at);
            }
            buckets.push(by_value);
        }
        Some(JoinIndex { keys, buckets })
    }

    /// The positions of the elements that can satisfy the condition for a
    /// label with assignment `args`, ascending and without repeats. `None`
    /// when a parameter component does not project.
    fn probe(&self, args: &[Value]) -> Option<Vec<usize>> {
        let mut hits = Vec::new();
        for (key, by_value) in self.keys.iter().zip(&self.buckets) {
            let component = args[key.param].project_path(&key.param_path).ok()?;
            if let Some(at) = by_value.get(component) {
                hits.extend_from_slice(at);
            }
        }
        hits.sort_unstable();
        hits.dedup();
        Some(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::CmpOp;
    use nrc_data::database::{example_movies, example_movies_update};

    fn eval_on_movies(e: &Expr) -> Bag {
        let db = example_movies();
        let mut env = Env::new(&db);
        eval_query(e, &mut env).unwrap()
    }

    fn names(bag: &Bag) -> Vec<String> {
        bag.iter()
            .map(|(v, _)| match v {
                Value::Base(BaseValue::Str(s)) => s.clone(),
                other => panic!("expected string, got {other}"),
            })
            .collect()
    }

    #[test]
    fn related_matches_paper_table() {
        // §2: related[M] = { ⟨Drive, {}⟩, ⟨Skyfall, {Rush}⟩, ⟨Rush, {Skyfall}⟩ }
        let result = eval_on_movies(&related_query());
        assert_eq!(result.distinct_count(), 3);
        let entry = |name: &str| {
            result
                .iter()
                .find(|(v, _)| v.project(0).unwrap() == &Value::str(name))
                .map(|(v, _)| v.project(1).unwrap().as_bag().unwrap().clone())
                .unwrap()
        };
        assert!(entry("Drive").is_empty());
        assert_eq!(names(&entry("Skyfall")), vec!["Rush"]);
        assert_eq!(names(&entry("Rush")), vec!["Skyfall"]);
    }

    #[test]
    fn related_after_update_matches_paper_table() {
        // §2: after ΔM = {⟨Jarhead, Drama, Mendes⟩}:
        //   Drive ↦ {Jarhead}, Skyfall ↦ {Rush, Jarhead},
        //   Rush ↦ {Skyfall}, Jarhead ↦ {Drive, Skyfall}
        let mut db = example_movies();
        db.apply_update("M", &example_movies_update()).unwrap();
        let mut env = Env::new(&db);
        let result = eval_query(&related_query(), &mut env).unwrap();
        assert_eq!(result.distinct_count(), 4);
        let entry = |name: &str| {
            result
                .iter()
                .find(|(v, _)| v.project(0).unwrap() == &Value::str(name))
                .map(|(v, _)| v.project(1).unwrap().as_bag().unwrap().clone())
                .unwrap()
        };
        assert_eq!(names(&entry("Drive")), vec!["Jarhead"]);
        assert_eq!(names(&entry("Skyfall")), vec!["Jarhead", "Rush"]);
        assert_eq!(names(&entry("Rush")), vec!["Skyfall"]);
        assert_eq!(names(&entry("Jarhead")), vec!["Drive", "Skyfall"]);
    }

    #[test]
    fn filter_keeps_matching_tuples() {
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Action"));
        let result = eval_on_movies(&q);
        assert_eq!(result.distinct_count(), 2);
    }

    #[test]
    fn for_scales_by_multiplicity() {
        let mut db = Database::new();
        db.insert_relation(
            "R",
            Type::Base(nrc_data::BaseType::Int),
            Bag::from_pairs([(Value::int(1), 3), (Value::int(2), -1)]),
        );
        let q = for_("x", rel("R"), elem_sng("x"));
        let mut env = Env::new(&db);
        let out = eval_query(&q, &mut env).unwrap();
        assert_eq!(out.multiplicity(&Value::int(1)), 3);
        assert_eq!(out.multiplicity(&Value::int(2)), -1);
    }

    #[test]
    fn product_multiplies_and_tuples() {
        let mut db = Database::new();
        db.insert_relation(
            "R",
            Type::Base(nrc_data::BaseType::Int),
            Bag::from_pairs([(Value::int(1), 2)]),
        );
        let q = product(vec![rel("R"), rel("R"), rel("R")]);
        let mut env = Env::new(&db);
        let out = eval_query(&q, &mut env).unwrap();
        let t = Value::Tuple(vec![Value::int(1), Value::int(1), Value::int(1)]);
        assert_eq!(out.multiplicity(&t), 8);
    }

    #[test]
    fn flatten_and_negate() {
        let mut db = Database::new();
        db.insert_relation(
            "R",
            Type::bag(Type::Base(nrc_data::BaseType::Int)),
            Bag::from_values([
                Value::Bag(Bag::from_values([Value::int(1), Value::int(2)])),
                Value::Bag(Bag::from_values([Value::int(2)])),
            ]),
        );
        let mut env = Env::new(&db);
        let out = eval_query(&flatten(rel("R")), &mut env).unwrap();
        assert_eq!(out.multiplicity(&Value::int(2)), 2);
        let mut env2 = Env::new(&db);
        let neg = eval_query(&negate(flatten(rel("R"))), &mut env2).unwrap();
        assert_eq!(neg.multiplicity(&Value::int(2)), -2);
    }

    #[test]
    fn delta_rel_requires_binding() {
        let db = example_movies();
        let mut env = Env::new(&db);
        assert!(matches!(
            eval_query(&delta_rel("M"), &mut env),
            Err(EvalError::UnboundDelta(_, 1))
        ));
        let mut env = Env::new(&db).with_delta("M", example_movies_update());
        let out = eval_query(&delta_rel("M"), &mut env).unwrap();
        assert_eq!(out.cardinality(), 1);
    }

    #[test]
    fn let_binds_and_shadows() {
        let db = example_movies();
        let e = let_("X", rel("M"), let_("X", negate(var("X")), var("X")));
        let mut env = Env::new(&db);
        let out = eval_query(&e, &mut env).unwrap();
        assert_eq!(out, db.get("M").unwrap().negate());
    }

    #[test]
    fn pred_evaluates_boolean_combinations() {
        let db = example_movies();
        let q = for_(
            "m",
            rel("M"),
            for_(
                "m2",
                rel("M"),
                for_where(
                    "w",
                    pred(is_related("m", "m2")),
                    BoolExpr::Const(true),
                    unit_sng(),
                ),
            ),
        );
        let mut env = Env::new(&db);
        let out = eval_query(&q, &mut env).unwrap();
        // Skyfall~Rush and Rush~Skyfall are the only related pairs: 2 units.
        assert_eq!(out.multiplicity(&Value::unit()), 2);
    }

    #[test]
    fn intensional_dict_applies_to_matching_labels() {
        let db = example_movies();
        // for l in (for m in M union inL_1(m)) union [(ι1, m) ↦ sng(m.1)](l)
        let movie_ty = db.schema("M").unwrap().clone();
        let dict = Expr::DictSng {
            index: 1,
            params: vec![("m".into(), movie_ty)],
            body: Box::new(proj_sng("m", vec![0])),
        };
        let q = for_(
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
                dict: Box::new(dict),
                label: ScalarRef::var("l"),
            },
        );
        let mut env = Env::new(&db);
        let out = eval_query(&q, &mut env).unwrap();
        assert_eq!(out.distinct_count(), 3); // the three movie names
    }

    #[test]
    fn dict_get_on_wrong_index_is_empty() {
        // §5.2: [(ι,Π) ↦ e](⟨ι′,ε⟩) = {} when ι ≠ ι′ — application is total.
        let db = example_movies();
        let movie_ty = db.schema("M").unwrap().clone();
        let dict = Expr::DictSng {
            index: 9,
            params: vec![("m".into(), movie_ty)],
            body: Box::new(proj_sng("m", vec![0])),
        };
        let q = for_(
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
                dict: Box::new(dict),
                label: ScalarRef::var("l"),
            },
        );
        let mut env = Env::new(&db);
        assert_eq!(eval_query(&q, &mut env).unwrap(), Bag::empty());
    }

    #[test]
    fn label_union_of_disjoint_dicts_resolves() {
        let db = example_movies();
        let movie_ty = db.schema("M").unwrap().clone();
        let d1 = Expr::DictSng {
            index: 1,
            params: vec![("m".into(), movie_ty.clone())],
            body: Box::new(proj_sng("m", vec![0])),
        };
        let d2 = Expr::DictSng {
            index: 2,
            params: vec![("m".into(), movie_ty)],
            body: Box::new(proj_sng("m", vec![1])),
        };
        let union_d = Expr::LabelUnion(Box::new(d1), Box::new(d2));
        let q = for_(
            "l",
            for_(
                "m",
                rel("M"),
                Expr::InLabel {
                    index: 2,
                    args: vec![ScalarRef::var("m")],
                },
            ),
            Expr::DictGet {
                dict: Box::new(union_d),
                label: ScalarRef::var("l"),
            },
        );
        let mut env = Env::new(&db);
        let out = eval_query(&q, &mut env).unwrap();
        // ι2 maps to genres.
        assert_eq!(out.multiplicity(&Value::str("Action")), 2);
        assert_eq!(out.multiplicity(&Value::str("Drama")), 1);
    }

    /// `[(ι1, g) ↦ for m2 in M where P union sng(m2.1)]` resolved over the
    /// example movies (Drive/Drama, Skyfall/Action, Rush/Action).
    fn by_genre_dict(p: BoolExpr) -> DictVal {
        let db = example_movies();
        let dict = Expr::DictSng {
            index: 1,
            params: vec![("g".into(), Type::Base(nrc_data::BaseType::Str))],
            body: Box::new(for_where("m2", rel("M"), p, proj_sng("m2", vec![0]))),
        };
        let mut env = Env::new(&db);
        resolve_ctx(&dict, &mut env)
            .unwrap()
            .as_dict()
            .unwrap()
            .clone()
    }

    fn genre_label(index: u32, genre: &str) -> Label {
        Label::new(index, vec![Value::str(genre)])
    }

    #[test]
    fn set_application_runs_the_body_on_join_candidates_only() {
        let db = example_movies();
        let keyed = by_genre_dict(cmp("m2", vec![1], CmpOp::Eq, "g", vec![]));
        let labels = [
            genre_label(1, "Action"),
            genre_label(1, "Comedy"),
            genre_label(1, "Drama"),
            genre_label(2, "Action"),
        ];
        let labels: Vec<&Label> = labels.iter().collect();
        let mut evals = 0;
        let defs = apply_dict_set(&keyed, &labels, &db, &mut evals).unwrap();
        // Two Action movies, one Drama, no Comedy; ι2 is another dictionary.
        assert_eq!(evals, 3);
        assert_eq!(defs.len(), 2);
        assert_eq!(
            (defs[0].0, names(&defs[0].1)),
            (0, vec!["Rush".into(), "Skyfall".into()])
        );
        assert_eq!((defs[1].0, names(&defs[1].1)), (2, vec!["Drive".into()]));
        // Comedy is defined (as ∅); the ι2 label is not.
        assert!(keyed.defines(labels[1]) && !keyed.defines(labels[3]));

        // The key is only a necessary condition: the rest of the predicate
        // still decides.
        let narrowed = by_genre_dict(cmp("m2", vec![1], CmpOp::Eq, "g", vec![]).and(cmp_lit(
            "m2",
            vec![0],
            CmpOp::Ne,
            "Rush",
        )));
        let mut evals = 0;
        let defs = apply_dict_set(&narrowed, &labels[..1], &db, &mut evals).unwrap();
        assert_eq!((evals, names(&defs[0].1)), (2, vec!["Skyfall".into()]));
    }

    #[test]
    fn set_application_without_a_usable_equality_tries_every_pair() {
        let db = example_movies();
        // `≠` alone, and an equality under one branch of a disjunction.
        let ne = cmp("m2", vec![1], CmpOp::Ne, "g", vec![]);
        let half_keyed = cmp("m2", vec![1], CmpOp::Eq, "g", vec![]).or(cmp_lit(
            "m2",
            vec![0],
            CmpOp::Eq,
            "Drive",
        ));
        let labels = [genre_label(1, "Action"), genre_label(1, "Drama")];
        let labels: Vec<&Label> = labels.iter().collect();
        for (p, action, drama) in [
            (ne, vec!["Drive"], vec!["Rush", "Skyfall"]),
            (half_keyed, vec!["Drive", "Rush", "Skyfall"], vec!["Drive"]),
        ] {
            let mut evals = 0;
            let defs = apply_dict_set(&by_genre_dict(p), &labels, &db, &mut evals).unwrap();
            assert_eq!(evals, 6, "2 labels × 3 movies");
            assert_eq!(names(&defs[0].1), action);
            assert_eq!(names(&defs[1].1), drama);
        }
    }

    #[test]
    fn set_application_of_unions_and_sums() {
        let db = example_movies();
        let (action, drama) = (genre_label(1, "Action"), genre_label(1, "Drama"));
        let labels = vec![&action, &drama];
        let keyed = by_genre_dict(cmp("m2", vec![1], CmpOp::Eq, "g", vec![]));
        let ext = |l: &Label, vs: &[&str]| {
            let def = Bag::from_values(vs.iter().map(|v| Value::str(*v)));
            DictVal::Ext(Dictionary::singleton(l.clone(), def))
        };
        let mut evals = 0;
        // ∪: agreeing definitions pass, a disagreeing one is §5.2's error —
        // also when one side says ∅.
        let agree = DictVal::Union(vec![keyed.clone(), ext(&drama, &["Drive"])]);
        let defs = apply_dict_set(&agree, &labels, &db, &mut evals).unwrap();
        assert_eq!(defs.len(), 2);
        let clash = DictVal::Union(vec![keyed.clone(), ext(&drama, &["Jarhead"])]);
        assert_eq!(
            apply_dict_set(&clash, &labels, &db, &mut evals),
            Err(EvalError::DictUnionConflict(drama.clone()))
        );
        let comedy = genre_label(1, "Comedy");
        let clash = DictVal::Union(vec![keyed.clone(), ext(&comedy, &["Carnage"])]);
        assert_eq!(
            apply_dict_set(&clash, &[&comedy], &db, &mut evals),
            Err(EvalError::DictUnionConflict(comedy.clone()))
        );
        // ⊎: definitions add; one that cancels is no change.
        let mut cancel = Dictionary::empty();
        cancel.define(drama.clone(), Bag::from_pairs([(Value::str("Drive"), -1)]));
        let sum = DictVal::Sum(vec![
            keyed,
            DictVal::Ext(cancel),
            ext(&action, &["Jarhead"]),
        ]);
        let defs = apply_dict_set(&sum, &labels, &db, &mut evals).unwrap();
        assert_eq!(defs.len(), 1);
        assert_eq!(names(&defs[0].1), vec!["Jarhead", "Rush", "Skyfall"]);
    }

    #[test]
    fn steps_counter_grows_with_input() {
        let db = example_movies();
        let q = related_query();
        let mut env = Env::new(&db);
        eval_query(&q, &mut env).unwrap();
        let small_steps = env.steps;
        let mut db2 = example_movies();
        db2.apply_update("M", &example_movies_update()).unwrap();
        let mut env2 = Env::new(&db2);
        eval_query(&q, &mut env2).unwrap();
        assert!(env2.steps > small_steps);
    }
}
