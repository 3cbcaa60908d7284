//! The abstract syntax of NRC⁺, IncNRC⁺ and IncNRC⁺ₗ.
//!
//! The grammar follows Fig. 3 (typing rules) of the paper, extended with the
//! label constructs of §5.1–5.2 (`inL`, dictionary literals, dictionary
//! application, label union) and *context* tuples/projections, which the
//! shredding transformation needs to express contexts
//! `Bag(C)^Γ = (L ↦ Bag(C^F)) × C^Γ`.
//!
//! Two generalizations over the paper's presentation, both definable inside
//! the paper's calculus and documented in `docs/ARCHITECTURE.md`:
//!
//! * products are n-ary (`Product(vec![a, b])` is the paper's binary `×`);
//! * projection singletons may follow a path of component indices
//!   (`sng(π₂(π₁(x)))` becomes one node).
//!
//! Delta derivation introduces the update relations `Δ^k R` and update
//! variables `Δ^k X`; these are ordinary leaves here ([`Expr::DeltaRel`] and
//! delta-named [`Expr::Var`]s).

use nrc_data::{BaseValue, Type};
use std::collections::BTreeSet;
use std::fmt;

/// A reference to (a component of) a comprehension-bound element variable,
/// e.g. `m.2` — variable `m`, path `[1]` (0-based).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScalarRef {
    /// The element variable.
    pub var: String,
    /// Component path (empty = the variable itself).
    pub path: Vec<usize>,
}

impl ScalarRef {
    /// Reference the variable itself.
    pub fn var(name: impl Into<String>) -> ScalarRef {
        ScalarRef {
            var: name.into(),
            path: vec![],
        }
    }

    /// Reference a component path of the variable.
    pub fn path(name: impl Into<String>, path: Vec<usize>) -> ScalarRef {
        ScalarRef {
            var: name.into(),
            path,
        }
    }
}

impl fmt::Display for ScalarRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.var)?;
        for i in &self.path {
            write!(f, ".{}", i + 1)?;
        }
        Ok(())
    }
}

/// Comparison operators of the (positive) predicate language.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// An operand of a comparison: a variable component or a literal.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// A component of an element variable.
    Ref(ScalarRef),
    /// A base-value literal.
    Lit(BaseValue),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Ref(r) => write!(f, "{r}"),
            Operand::Lit(v) => write!(f, "{v}"),
        }
    }
}

/// Predicates `p(x)` over tuples of basic values (§3).
///
/// The positivity restriction of the calculus is that predicates may only
/// compare *base-typed* components — never bags — so boolean negation inside
/// a predicate is harmless (it cannot simulate bag difference; Appendix A.2).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoolExpr {
    /// A comparison between two base-valued operands.
    Cmp(Operand, CmpOp, Operand),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation (of a base comparison — still positive in the bag sense).
    Not(Box<BoolExpr>),
    /// A boolean constant.
    Const(bool),
}

impl BoolExpr {
    /// Conjunction helper.
    pub fn and(self, other: BoolExpr) -> BoolExpr {
        BoolExpr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: BoolExpr) -> BoolExpr {
        BoolExpr::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> BoolExpr {
        BoolExpr::Not(Box::new(self))
    }

    /// Collect the element variables this predicate mentions.
    pub fn free_vars(&self, out: &mut BTreeSet<String>) {
        let mut refs = Vec::new();
        self.scalar_refs(&mut refs);
        out.extend(refs.into_iter().map(|r| r.var.clone()));
    }

    /// Collect every variable-component operand of this predicate.
    pub fn scalar_refs<'a>(&'a self, out: &mut Vec<&'a ScalarRef>) {
        match self {
            BoolExpr::Cmp(a, _, b) => {
                for o in [a, b] {
                    if let Operand::Ref(r) = o {
                        out.push(r);
                    }
                }
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.scalar_refs(out);
                b.scalar_refs(out);
            }
            BoolExpr::Not(a) => a.scalar_refs(out),
            BoolExpr::Const(_) => {}
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            BoolExpr::And(a, b) => write!(f, "({a} && {b})"),
            BoolExpr::Or(a, b) => write!(f, "({a} || {b})"),
            BoolExpr::Not(a) => write!(f, "!({a})"),
            BoolExpr::Const(b) => write!(f, "{b}"),
        }
    }
}

/// An expression of the (label-extended) positive nested relational calculus.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// A database relation `R`.
    Rel(String),
    /// The `k`-th order update relation `Δ^k R` introduced by delta
    /// derivation (`order ≥ 1`; `DeltaRel("R", 1)` is the paper's `ΔR`,
    /// order 2 its `Δ′R`, …).
    DeltaRel(String, u32),
    /// A `let`-bound variable `X` (bag-, dictionary- or context-typed).
    Var(String),
    /// `let X := value in body`.
    Let {
        /// The bound name.
        name: String,
        /// The defining expression.
        value: Box<Expr>,
        /// The body in which `name` is visible.
        body: Box<Expr>,
    },
    /// `sng(x)` — singleton of an element variable.
    ElemSng(String),
    /// `sng(π_path(x))` — singleton of a component of an element variable.
    ProjSng {
        /// The element variable.
        var: String,
        /// The (non-empty) component path.
        path: Vec<usize>,
    },
    /// `sng(⟨⟩)` — the true value of `Bag(1)`.
    UnitSng,
    /// The nested singleton `sngι(e)`; each occurrence carries its static
    /// index `ι` (§5.1). It is `sng*` — i.e. the expression is in IncNRC⁺ —
    /// exactly when `body` is input-independent.
    Sng {
        /// The static index `ι` identifying this occurrence.
        index: u32,
        /// The inner-bag expression.
        body: Box<Expr>,
    },
    /// The empty bag `∅ : Bag(elem_ty)`.
    Empty {
        /// Element type of the empty bag (kept so `∅` types without
        /// inference).
        elem_ty: Type,
    },
    /// Bag addition `e₁ ⊎ e₂`.
    Union(Box<Expr>, Box<Expr>),
    /// Multiplicity negation `⊖(e)`.
    Negate(Box<Expr>),
    /// n-ary bag product `e₁ × … × eₙ` (n ≥ 2).
    Product(Vec<Expr>),
    /// `for var in source union body`.
    For {
        /// The bound element variable.
        var: String,
        /// The bag iterated over.
        source: Box<Expr>,
        /// The per-element bag expression.
        body: Box<Expr>,
    },
    /// `flatten(e)` — union the inner bags of a bag of bags.
    Flatten(Box<Expr>),
    /// A predicate `p(x̄) : Bag(1)`.
    Pred(BoolExpr),

    // ---- IncNRC⁺ₗ label and context constructs (§5.1–5.2) ----
    /// The label constructor `inL_{ι,Π}(ε) : Bag(L)` — a singleton bag
    /// holding the label `⟨ι, ε⟩` where `ε` is the listed assignment.
    InLabel {
        /// The static index `ι`.
        index: u32,
        /// References making up the assignment `ε`.
        args: Vec<ScalarRef>,
    },
    /// A dictionary literal `[(ι, Π) ↦ body] : L ↦ Bag(B)` — maps every
    /// label `⟨ι, ε⟩` to `body` with `params` bound from `ε` (§5.2).
    DictSng {
        /// The static index `ι`.
        index: u32,
        /// The parameters `Π` bound from a label's assignment.
        params: Vec<(String, Type)>,
        /// The defining expression (free element variables ⊆ params).
        body: Box<Expr>,
    },
    /// Dictionary application `d(ℓ)` where `ℓ` is a label-valued component
    /// of an element variable.
    DictGet {
        /// The dictionary expression.
        dict: Box<Expr>,
        /// The label operand.
        label: ScalarRef,
    },
    /// A context tuple `⟨e₁^Γ, …⟩` (the unit context is `CtxTuple(vec![])`).
    CtxTuple(Vec<Expr>),
    /// Projection of a context tuple component.
    CtxProj {
        /// The context expression.
        ctx: Box<Expr>,
        /// 0-based component index.
        index: usize,
    },
    /// Label union `e₁ ∪ e₂`, applied pointwise over context trees; on
    /// dictionaries it is the support-union of §5.2.
    LabelUnion(Box<Expr>, Box<Expr>),
    /// Context addition `e₁ ⊎ e₂`, applied pointwise over context trees; on
    /// dictionaries it is dictionary *addition* (definitions are `⊎`-ed).
    /// This is how context-typed deltas combine — unlike `∪`, it can modify
    /// definitions (Appendix C.2).
    CtxAdd(Box<Expr>, Box<Expr>),
    /// The empty context `∅_{B^Γ}` at the given context type.
    EmptyCtx(Type),
}

impl Expr {
    /// `e₁ ⊎ e₂`, n-ary right fold; returns `∅`-free spine when possible.
    pub fn union_all(mut exprs: Vec<Expr>, elem_ty: Type) -> Expr {
        match exprs.len() {
            0 => Expr::Empty { elem_ty },
            1 => exprs.pop().expect("len checked"),
            _ => {
                let mut it = exprs.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, |acc, e| Expr::Union(Box::new(acc), Box::new(e)))
            }
        }
    }

    /// Number of AST nodes (used to bound generated queries and report
    /// delta sizes).
    pub fn node_count(&self) -> usize {
        let mut n = 1;
        self.for_each_child(|c| n += c.node_count());
        n
    }

    /// Visit each direct child expression.
    pub fn for_each_child<F: FnMut(&Expr)>(&self, mut f: F) {
        match self {
            Expr::Rel(_)
            | Expr::DeltaRel(_, _)
            | Expr::Var(_)
            | Expr::ElemSng(_)
            | Expr::ProjSng { .. }
            | Expr::UnitSng
            | Expr::Empty { .. }
            | Expr::Pred(_)
            | Expr::InLabel { .. }
            | Expr::EmptyCtx(_) => {}
            Expr::Let { value, body, .. } => {
                f(value);
                f(body);
            }
            Expr::Sng { body, .. } => f(body),
            Expr::Union(a, b) | Expr::LabelUnion(a, b) | Expr::CtxAdd(a, b) => {
                f(a);
                f(b);
            }
            Expr::Negate(e) | Expr::Flatten(e) => f(e),
            Expr::Product(es) | Expr::CtxTuple(es) => {
                for e in es {
                    f(e);
                }
            }
            Expr::For { source, body, .. } => {
                f(source);
                f(body);
            }
            Expr::DictSng { body, .. } => f(body),
            Expr::DictGet { dict, .. } => f(dict),
            Expr::CtxProj { ctx, .. } => f(ctx),
        }
    }

    /// The relations (`Rel`) occurring free in this expression.
    pub fn free_relations(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_free_relations(&mut out);
        out
    }

    fn collect_free_relations(&self, out: &mut BTreeSet<String>) {
        if let Expr::Rel(name) = self {
            out.insert(name.clone());
        }
        self.for_each_child(|c| c.collect_free_relations(out));
    }

    /// The update relations `Δ^k R` occurring in this expression, as
    /// `(name, order)` pairs.
    pub fn delta_relations(&self) -> BTreeSet<(String, u32)> {
        let mut out = BTreeSet::new();
        self.collect_delta_relations(&mut out);
        out
    }

    fn collect_delta_relations(&self, out: &mut BTreeSet<(String, u32)>) {
        if let Expr::DeltaRel(name, order) = self {
            out.insert((name.clone(), *order));
        }
        self.for_each_child(|c| c.collect_delta_relations(out));
    }

    /// Free `let`-bound variables (not bound by an enclosing `Let`).
    pub fn free_let_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut bound = BTreeSet::new();
        self.collect_free_let_vars(&mut bound, &mut out);
        out
    }

    fn collect_free_let_vars(&self, bound: &mut BTreeSet<String>, out: &mut BTreeSet<String>) {
        match self {
            Expr::Var(name) => {
                if !bound.contains(name) {
                    out.insert(name.clone());
                }
            }
            Expr::Let { name, value, body } => {
                value.collect_free_let_vars(bound, out);
                let fresh = bound.insert(name.clone());
                body.collect_free_let_vars(bound, out);
                if fresh {
                    bound.remove(name);
                }
            }
            _ => self.for_each_child(|c| c.collect_free_let_vars(bound, out)),
        }
    }

    /// Free element variables (not bound by an enclosing `For` or dictionary
    /// parameter list).
    pub fn free_elem_vars(&self) -> BTreeSet<String> {
        self.free_scalar_refs().into_iter().map(|r| r.var).collect()
    }

    /// Every free occurrence of an element variable, with the component
    /// path read at that occurrence (empty = the variable used whole, as in
    /// `sng(x)`). Label narrowing (§5.1) keeps only these paths in a label.
    pub fn free_scalar_refs(&self) -> BTreeSet<ScalarRef> {
        let mut out = BTreeSet::new();
        let mut bound = BTreeSet::new();
        self.collect_free_scalar_refs(&mut bound, &mut out);
        out
    }

    fn collect_free_scalar_refs(
        &self,
        bound: &mut BTreeSet<String>,
        out: &mut BTreeSet<ScalarRef>,
    ) {
        let note = |r: &ScalarRef, bound: &BTreeSet<String>, out: &mut BTreeSet<ScalarRef>| {
            if !bound.contains(&r.var) {
                out.insert(r.clone());
            }
        };
        match self {
            Expr::ElemSng(v) => note(&ScalarRef::var(v.clone()), bound, out),
            Expr::ProjSng { var, path } => {
                note(&ScalarRef::path(var.clone(), path.clone()), bound, out)
            }
            Expr::Pred(p) => {
                let mut refs = Vec::new();
                p.scalar_refs(&mut refs);
                for r in refs {
                    note(r, bound, out);
                }
            }
            Expr::InLabel { args, .. } => {
                for a in args {
                    note(a, bound, out);
                }
            }
            Expr::DictGet { dict, label } => {
                note(label, bound, out);
                dict.collect_free_scalar_refs(bound, out);
            }
            Expr::For { var, source, body } => {
                source.collect_free_scalar_refs(bound, out);
                let fresh = bound.insert(var.clone());
                body.collect_free_scalar_refs(bound, out);
                if fresh {
                    bound.remove(var);
                }
            }
            Expr::DictSng { params, body, .. } => {
                let mut added = vec![];
                for (p, _) in params {
                    if bound.insert(p.clone()) {
                        added.push(p.clone());
                    }
                }
                body.collect_free_scalar_refs(bound, out);
                for p in added {
                    bound.remove(&p);
                }
            }
            _ => self.for_each_child(|c| c.collect_free_scalar_refs(bound, out)),
        }
    }

    /// Does this expression depend (via a free occurrence) on relation
    /// `name`? Update relations `Δ^k name` do **not** count — they are
    /// parameters, not the input (§4.1).
    pub fn depends_on_rel(&self, name: &str) -> bool {
        match self {
            Expr::Rel(r) => r == name,
            _ => {
                let mut found = false;
                self.for_each_child(|c| found = found || c.depends_on_rel(name));
                found
            }
        }
    }

    /// Does this expression have a free occurrence of `let`-variable `name`?
    pub fn depends_on_var(&self, name: &str) -> bool {
        match self {
            Expr::Var(v) => v == name,
            Expr::Let {
                name: n,
                value,
                body,
            } => value.depends_on_var(name) || (n != name && body.depends_on_var(name)),
            _ => {
                let mut found = false;
                self.for_each_child(|c| found = found || c.depends_on_var(name));
                found
            }
        }
    }

    /// Is this expression *input-independent* (§3): free of database
    /// relations? `Δ^k R` leaves and free variables do not count as input —
    /// callers tracking input-dependent free variables should combine this
    /// with [`Expr::free_let_vars`].
    pub fn is_input_independent(&self) -> bool {
        self.free_relations().is_empty()
    }

    /// Is this expression in **IncNRC⁺ₗ**: every nested singleton `sngι(e)`
    /// has an input-independent body (the `sng*` restriction)?
    ///
    /// Free `let`-variables inside singleton bodies are conservatively
    /// treated as input-dependent unless bound within the expression to an
    /// input-independent definition — we approximate by checking both
    /// relations and free variables, which is exact for closed queries.
    pub fn is_inc_nrc(&self) -> bool {
        match self {
            Expr::Sng { body, .. } => {
                body.is_input_independent() && body.free_let_vars().is_empty() && body.is_inc_nrc()
            }
            _ => {
                let mut ok = true;
                self.for_each_child(|c| ok = ok && c.is_inc_nrc());
                ok
            }
        }
    }

    /// Maximum static singleton index `ι` used in this expression (for
    /// allocating fresh indices during shredding).
    pub fn max_sng_index(&self) -> u32 {
        let mut m = 0;
        match self {
            Expr::Sng { index, .. } | Expr::InLabel { index, .. } | Expr::DictSng { index, .. } => {
                m = *index;
            }
            _ => {}
        }
        self.for_each_child(|c| m = m.max(c.max_sng_index()));
        m
    }
}

/// The canonical name of the `k`-th order update variable for a `let`-bound
/// variable `X`: `ΔX`, `Δ²X`, `Δ³X`, … (used by the delta rule for `let`).
pub fn delta_var_name(base: &str, order: u32) -> String {
    match order {
        0 => base.to_owned(),
        1 => format!("Δ{base}"),
        k => format!("Δ^{k}{base}"),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Rel(r) => write!(f, "{r}"),
            Expr::DeltaRel(r, 1) => write!(f, "Δ{r}"),
            Expr::DeltaRel(r, k) => write!(f, "Δ^{k}{r}"),
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Let { name, value, body } => write!(f, "let {name} := {value} in {body}"),
            Expr::ElemSng(x) => write!(f, "sng({x})"),
            Expr::ProjSng { var, path } => {
                write!(f, "sng({}", var)?;
                for i in path {
                    write!(f, ".{}", i + 1)?;
                }
                write!(f, ")")
            }
            Expr::UnitSng => write!(f, "sng(⟨⟩)"),
            Expr::Sng { index, body } => write!(f, "sng_{index}({body})"),
            Expr::Empty { .. } => write!(f, "∅"),
            Expr::Union(a, b) => write!(f, "({a} ⊎ {b})"),
            Expr::Negate(e) => write!(f, "⊖({e})"),
            Expr::Product(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " × ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::For { var, source, body } => {
                write!(f, "for {var} in {source} union {body}")
            }
            Expr::Flatten(e) => write!(f, "flatten({e})"),
            Expr::Pred(p) => write!(f, "p[{p}]"),
            Expr::InLabel { index, args } => {
                write!(f, "inL_{index}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::DictSng {
                index,
                params,
                body,
            } => {
                write!(f, "[(ι{index},")?;
                for (i, (p, _)) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, " {p}")?;
                }
                write!(f, ") ↦ {body}]")
            }
            Expr::DictGet { dict, label } => write!(f, "{dict}({label})"),
            Expr::CtxTuple(es) => {
                write!(f, "⟨")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "⟩")
            }
            Expr::CtxProj { ctx, index } => write!(f, "{}.Γ{}", ctx, index + 1),
            Expr::LabelUnion(a, b) => write!(f, "({a} ∪ {b})"),
            Expr::CtxAdd(a, b) => write!(f, "({a} ⊎Γ {b})"),
            Expr::EmptyCtx(_) => write!(f, "∅Γ"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use nrc_data::BaseType;

    #[test]
    fn free_relations_and_vars() {
        // let X := R in for x in X union (S × ΔR)
        let e = let_(
            "X",
            rel("R"),
            for_(
                "x",
                var("X"),
                product(vec![rel("S"), Expr::DeltaRel("R".into(), 1)]),
            ),
        );
        assert_eq!(
            e.free_relations(),
            ["R", "S"].iter().map(|s| s.to_string()).collect()
        );
        assert!(e.free_let_vars().is_empty());
        assert_eq!(
            e.delta_relations(),
            [("R".to_string(), 1)].into_iter().collect()
        );
        assert!(e.depends_on_rel("S"));
        assert!(!e.depends_on_rel("T"));
    }

    #[test]
    fn let_shadowing_in_free_vars() {
        // X free in value, shadowed in body
        let e = let_("X", var("X"), var("X"));
        assert_eq!(e.free_let_vars(), ["X".to_string()].into_iter().collect());
        assert!(e.depends_on_var("X"));
        let closed = let_("X", rel("R"), var("X"));
        assert!(closed.free_let_vars().is_empty());
        assert!(!closed.depends_on_var("X"));
    }

    #[test]
    fn free_elem_vars_respect_for_binding() {
        let e = for_("x", rel("R"), product(vec![elem_sng("x"), elem_sng("y")]));
        assert_eq!(e.free_elem_vars(), ["y".to_string()].into_iter().collect());
    }

    #[test]
    fn dict_params_bind_elem_vars() {
        let d = Expr::DictSng {
            index: 3,
            params: vec![("m".into(), Type::Base(BaseType::Str))],
            body: Box::new(elem_sng("m")),
        };
        assert!(d.free_elem_vars().is_empty());
        assert_eq!(d.max_sng_index(), 3);
    }

    #[test]
    fn inc_nrc_detects_input_dependent_singletons() {
        // sng(R) is not IncNRC+; sng({constant}) is.
        let bad = sng(1, rel("R"));
        assert!(!bad.is_inc_nrc());
        let good = sng(1, empty(Type::Base(BaseType::Int)));
        assert!(good.is_inc_nrc());
        // Nesting: a for around a bad singleton is still bad.
        let nested = for_("x", rel("R"), sng(2, rel("R")));
        assert!(!nested.is_inc_nrc());
    }

    #[test]
    fn node_count_counts_all_nodes() {
        let e = union(rel("R"), negate(rel("R")));
        assert_eq!(e.node_count(), 4);
    }

    #[test]
    fn delta_var_names() {
        assert_eq!(delta_var_name("X", 0), "X");
        assert_eq!(delta_var_name("X", 1), "ΔX");
        assert_eq!(delta_var_name("X", 2), "Δ^2X");
    }

    #[test]
    fn display_round_trips_shape() {
        let e = for_(
            "m",
            rel("M"),
            sng(1, for_("m2", rel("M"), proj_sng("m2", vec![0]))),
        );
        assert_eq!(
            e.to_string(),
            "for m in M union sng_1(for m2 in M union sng(m2.1))"
        );
    }

    #[test]
    fn union_all_folds() {
        let ty = Type::Base(BaseType::Int);
        assert_eq!(Expr::union_all(vec![], ty.clone()), empty(ty.clone()));
        assert_eq!(Expr::union_all(vec![rel("R")], ty.clone()), rel("R"));
        let u = Expr::union_all(vec![rel("R"), rel("S"), rel("T")], ty);
        assert_eq!(u.to_string(), "((R ⊎ S) ⊎ T)");
    }
}
