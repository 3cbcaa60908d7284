//! Recursive-descent parser producing `nrc_core::Expr`.

use crate::lexer::{lex, LexError, Span, Token, TokenKind};
use crate::names::NameTree;
use nrc_core::expr::{BoolExpr, CmpOp, Expr, Operand, ScalarRef};
use nrc_core::typecheck::{infer, TypeEnv};
use nrc_data::{BaseType, BaseValue, Type};
use std::collections::BTreeMap;
use std::fmt;

/// A `relation` declaration: name, element type and field names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationDecl {
    /// Relation name.
    pub name: String,
    /// Element (row) type.
    pub elem_ty: Type,
    /// Field-name tree for the row type.
    pub names: NameTree,
}

/// A parsed program: relation declarations plus named queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Declared relations in order.
    pub relations: Vec<RelationDecl>,
    /// `query name := expr;` declarations in order.
    pub queries: Vec<(String, Expr)>,
}

/// A parse failure with its source line and byte span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// Byte range of the offending input (a point span at end of input for
    /// unexpected-EOF errors).
    pub span: Span,
}

impl ParseError {
    /// Render the error against the source it came from: the message, the
    /// offending line, and a caret underline of the span.
    ///
    /// ```text
    /// parse error on line 1: unknown name `Nope`
    ///   for m in Nope union sng(m)
    ///            ^^^^
    /// ```
    pub fn render(&self, src: &str) -> String {
        // Spans are raw byte offsets; round the edges to char boundaries
        // (start down, end up) so slicing can never panic mid-character.
        let mut start = self.span.start.min(src.len());
        while !src.is_char_boundary(start) {
            start -= 1;
        }
        let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
        let line_end = src[start..].find('\n').map_or(src.len(), |i| start + i);
        let line_text = &src[line_start..line_end];
        // Columns in characters, so the caret lines up under multi-byte
        // source too.
        let col = src[line_start..start].chars().count();
        let mut end = self.span.end.clamp(start, line_end);
        while !src.is_char_boundary(end) {
            end += 1;
        }
        let width = src[start..end].chars().count().max(1);
        format!(
            "{self}\n  {line_text}\n  {}{}",
            " ".repeat(col),
            "^".repeat(width)
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            span: e.span,
        }
    }
}

/// Parse a whole program (`relation` and `query` declarations).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    p.program()
}

/// Parse a single expression against the given relation declarations.
pub fn parse_expr(src: &str, relations: &[RelationDecl]) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    for r in relations {
        p.schemas
            .insert(r.name.clone(), (r.elem_ty.clone(), r.names.clone()));
    }
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// The deepest nesting of expressions, predicates or types the parser
/// accepts, so hostile text (say, a catalog entry read back from disk)
/// cannot overflow its stack. Typechecking, delta derivation, shredding
/// and evaluation recurse over the parsed tree too; at this depth the
/// deepest negation, union and `flatten(sng(…))` chains still register
/// on a 2 MiB thread stack in a debug build.
const MAX_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Index of the most recently bumped token — the anchor for errors
    /// raised after the offending token was consumed.
    last: usize,
    schemas: BTreeMap<String, (Type, NameTree)>,
    elem_vars: Vec<(String, Type, NameTree)>,
    let_vars: Vec<(String, Type, NameTree)>,
    next_sng: u32,
    /// Nesting levels currently open (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            last: 0,
            schemas: BTreeMap::new(),
            elem_vars: vec![],
            let_vars: vec![],
            next_sng: 1,
            depth: 0,
        }
    }

    /// Run `parse` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        self.last = self.pos;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            line: self.line(),
            span: self.span(),
        })
    }

    /// Like [`Parser::err`], but anchored at the most recently bumped token
    /// (for errors discovered after consuming the offending token).
    fn err_prev<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let t = &self.tokens[self.last];
        Err(ParseError {
            message: message.into(),
            line: t.line,
            span: t.span,
        })
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{kind}`, found `{}`", self.peek()))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{kw}`, found `{other}`")),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => self.err_prev(format!("expected identifier, found `{other}`")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            self.err(format!("unexpected trailing input `{}`", self.peek()))
        }
    }

    // ---- typing support -------------------------------------------------

    fn type_env(&self) -> TypeEnv {
        let mut env = TypeEnv::default();
        for (name, (ty, _)) in &self.schemas {
            env.schemas.insert(name.clone(), ty.clone());
        }
        for (n, t, _) in &self.let_vars {
            env.lets.push((n.clone(), t.clone()));
        }
        for (n, t, _) in &self.elem_vars {
            env.elems.push((n.clone(), t.clone()));
        }
        env
    }

    fn infer_type(&self, e: &Expr) -> Result<Type, ParseError> {
        let mut env = self.type_env();
        infer(e, &mut env).map_err(|te| ParseError {
            message: te.to_string(),
            line: self.line(),
            span: self.span(),
        })
    }

    fn lookup_elem(&self, name: &str) -> Option<(Type, NameTree)> {
        self.elem_vars
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|(_, t, nt)| (t.clone(), nt.clone()))
    }

    fn lookup_let(&self, name: &str) -> Option<(Type, NameTree)> {
        self.let_vars
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|(_, t, nt)| (t.clone(), nt.clone()))
    }

    // ---- program --------------------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut relations = vec![];
        let mut queries = vec![];
        loop {
            if matches!(self.peek(), TokenKind::Eof) {
                break;
            }
            if self.at_kw("relation") {
                self.bump();
                let decl = self.relation_decl()?;
                self.schemas.insert(
                    decl.name.clone(),
                    (decl.elem_ty.clone(), decl.names.clone()),
                );
                relations.push(decl);
            } else if self.at_kw("query") {
                self.bump();
                let name = self.ident()?;
                self.expect(&TokenKind::Assign)?;
                let e = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                queries.push((name, e));
            } else {
                return self.err(format!(
                    "expected `relation` or `query`, found `{}`",
                    self.peek()
                ));
            }
        }
        Ok(Program { relations, queries })
    }

    fn relation_decl(&mut self) -> Result<RelationDecl, ParseError> {
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let (elem_ty, names) = self.field_list()?;
        self.expect(&TokenKind::Semi)?;
        Ok(RelationDecl {
            name,
            elem_ty,
            names,
        })
    }

    /// `field (, field)* )` — consumed including the closing paren.
    fn field_list(&mut self) -> Result<(Type, NameTree), ParseError> {
        let mut tys = vec![];
        let mut names = vec![];
        if matches!(self.peek(), TokenKind::RParen) {
            self.bump();
            return Ok((Type::unit(), NameTree::Fields(vec![])));
        }
        loop {
            let fname = self.ident()?;
            self.expect(&TokenKind::Colon)?;
            let (t, nt) = self.nested(Parser::parse_type)?;
            names.push((fname, nt));
            tys.push(t);
            match self.bump() {
                TokenKind::Comma => continue,
                TokenKind::RParen => break,
                other => return self.err_prev(format!("expected `,` or `)`, found `{other}`")),
            }
        }
        Ok((Type::Tuple(tys), NameTree::Fields(names)))
    }

    fn parse_type(&mut self) -> Result<(Type, NameTree), ParseError> {
        match self.bump() {
            TokenKind::Ident(s) if s == "Int" => Ok((Type::Base(BaseType::Int), NameTree::None)),
            TokenKind::Ident(s) if s == "Str" => Ok((Type::Base(BaseType::Str), NameTree::None)),
            TokenKind::Ident(s) if s == "Bool" => Ok((Type::Base(BaseType::Bool), NameTree::None)),
            TokenKind::Ident(s) if s == "Bag" => {
                self.expect(&TokenKind::LParen)?;
                let (t, nt) = self.nested(Parser::parse_type)?;
                self.expect(&TokenKind::RParen)?;
                Ok((Type::bag(t), NameTree::Bag(Box::new(nt))))
            }
            TokenKind::LParen => {
                // Either a named field list `(a: T, …)` or a plain tuple
                // `(T, …)` / unit `()`.
                if matches!(self.peek(), TokenKind::RParen) {
                    self.bump();
                    return Ok((Type::unit(), NameTree::Fields(vec![])));
                }
                // Lookahead: IDENT ':' means a named field list.
                let named = matches!(self.peek(), TokenKind::Ident(_))
                    && matches!(
                        self.tokens.get(self.pos + 1).map(|t| &t.kind),
                        Some(TokenKind::Colon)
                    );
                if named {
                    self.field_list()
                } else {
                    let mut tys = vec![];
                    loop {
                        let (t, _) = self.nested(Parser::parse_type)?;
                        tys.push(t);
                        match self.bump() {
                            TokenKind::Comma => continue,
                            TokenKind::RParen => break,
                            other => {
                                return self
                                    .err_prev(format!("expected `,` or `)`, found `{other}`"))
                            }
                        }
                    }
                    Ok((Type::Tuple(tys), NameTree::None))
                }
            }
            other => self.err_prev(format!("expected a type, found `{other}`")),
        }
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::union_expr)
    }

    fn union_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.product_expr()?;
        while matches!(self.peek(), TokenKind::PlusPlus) {
            self.bump();
            let rhs = self.product_expr()?;
            e = Expr::Union(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn product_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.unary_expr()?;
        let mut parts = vec![first];
        while matches!(self.peek(), TokenKind::Star) {
            self.bump();
            parts.push(self.unary_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len 1")
        } else {
            Expr::Product(parts)
        })
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), TokenKind::Minus) {
            self.bump();
            let e = self.nested(Parser::unary_expr)?;
            return Ok(Expr::Negate(Box::new(e)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(kw) if kw == "for" => self.for_expr(),
            TokenKind::Ident(kw) if kw == "let" => self.let_expr(),
            TokenKind::Ident(kw) if kw == "sng" => self.sng_expr(),
            TokenKind::Ident(kw) if kw == "flatten" => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Flatten(Box::new(e)))
            }
            TokenKind::Ident(kw) if kw == "empty" => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let (t, _) = self.parse_type()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Empty { elem_ty: t })
            }
            TokenKind::Ident(_) => {
                let e = self.path_atom(PathContext::Expression)?;
                Ok(e)
            }
            TokenKind::Lt => self.tuple_literal(),
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            other => self.err(format!("expected an expression, found `{other}`")),
        }
    }

    fn for_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw("for")?;
        let var = self.ident()?;
        self.expect_kw("in")?;
        let source = self.expr()?;
        let src_ty = self.infer_type(&source)?;
        let (elem_ty, elem_names) = match src_ty {
            Type::Bag(t) => ((*t).clone(), self.source_elem_names(&source)),
            other => return self.err(format!("`for` source must be a bag, got {other}")),
        };
        let pred = if self.at_kw("where") {
            self.bump();
            // The bound variable is visible in the predicate.
            self.elem_vars
                .push((var.clone(), elem_ty.clone(), elem_names.clone()));
            let p = self.pred_or()?;
            self.elem_vars.pop();
            Some(p)
        } else {
            None
        };
        self.expect_kw("union")?;
        self.elem_vars.push((var.clone(), elem_ty, elem_names));
        let body = self.expr();
        self.elem_vars.pop();
        let body = body?;
        let body = match pred {
            None => body,
            Some(p) => Expr::For {
                var: "__w".into(),
                source: Box::new(Expr::Pred(p)),
                body: Box::new(body),
            },
        };
        Ok(Expr::For {
            var,
            source: Box::new(source),
            body: Box::new(body),
        })
    }

    /// Element field names of a `for` source, where statically recognizable.
    fn source_elem_names(&self, source: &Expr) -> NameTree {
        match source {
            Expr::Rel(r) => self
                .schemas
                .get(r)
                .map(|(_, nt)| nt.clone())
                .unwrap_or_default(),
            Expr::Var(x) => self.lookup_let(x).map(|(_, nt)| nt).unwrap_or_default(),
            // A bag-typed path desugars to flatten(sng(path)); recover the
            // element names from the path's name tree.
            Expr::Flatten(inner) => match &**inner {
                Expr::ProjSng { var, path } => {
                    let Some((ty, mut nt)) = self.lookup_elem(var) else {
                        return NameTree::None;
                    };
                    let mut t = &ty;
                    for &i in path {
                        let Type::Tuple(ts) = t else {
                            return NameTree::None;
                        };
                        let sub = match &nt {
                            NameTree::Fields(fs) => {
                                fs.get(i).map(|(_, s)| s.clone()).unwrap_or_default()
                            }
                            _ => NameTree::None,
                        };
                        nt = sub;
                        t = match ts.get(i) {
                            Some(t) => t,
                            None => return NameTree::None,
                        };
                    }
                    nt.elem()
                }
                Expr::ElemSng(var) => self
                    .lookup_elem(var)
                    .map(|(_, nt)| nt.elem())
                    .unwrap_or_default(),
                _ => NameTree::None,
            },
            _ => NameTree::None,
        }
    }

    fn let_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw("let")?;
        let name = self.ident()?;
        self.expect(&TokenKind::Assign)?;
        let value = self.expr()?;
        self.expect_kw("in")?;
        let vty = self.infer_type(&value)?;
        let names = self.source_elem_names(&value);
        self.let_vars.push((name.clone(), vty, names));
        let body = self.expr();
        self.let_vars.pop();
        Ok(Expr::Let {
            name,
            value: Box::new(value),
            body: Box::new(body?),
        })
    }

    fn sng_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw("sng")?;
        self.expect(&TokenKind::LParen)?;
        // sng(()) — the unit singleton.
        if matches!(self.peek(), TokenKind::LParen)
            && matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.kind),
                Some(TokenKind::RParen)
            )
        {
            self.bump();
            self.bump();
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::UnitSng);
        }
        // sng(path) — element/projection singleton.
        if let Some(e) = self.try_path(PathContext::Singleton)? {
            self.expect(&TokenKind::RParen)?;
            return Ok(e);
        }
        // sng(<…>) — the tuple literal already is a singleton bag.
        if matches!(self.peek(), TokenKind::Lt) {
            let e = self.tuple_literal()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(e);
        }
        // sng(e) — nested singleton with a fresh static index ι.
        let e = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let ty = self.infer_type(&e)?;
        if !matches!(ty, Type::Bag(_)) {
            return self.err(format!("sng(e) requires a bag-typed e, got {ty}"));
        }
        let index = self.next_sng;
        self.next_sng += 1;
        Ok(Expr::Sng {
            index,
            body: Box::new(e),
        })
    }

    fn tuple_literal(&mut self) -> Result<Expr, ParseError> {
        self.expect(&TokenKind::Lt)?;
        let mut comps = vec![];
        loop {
            comps.push(self.tuple_component()?);
            match self.bump() {
                TokenKind::Comma => continue,
                TokenKind::Gt => break,
                other => return self.err_prev(format!("expected `,` or `>`, found `{other}`")),
            }
        }
        Ok(match comps.len() {
            0 => Expr::UnitSng,
            1 => comps.pop().expect("len 1"),
            _ => Expr::Product(comps),
        })
    }

    /// One component of a tuple literal. A path stays a projection
    /// singleton (the component *value*); a general bag expression becomes
    /// a nested singleton (the component is the bag itself).
    fn tuple_component(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), TokenKind::Lt) {
            return self.tuple_literal();
        }
        if matches!(self.peek(), TokenKind::LParen)
            && matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.kind),
                Some(TokenKind::RParen)
            )
        {
            self.bump();
            self.bump();
            return Ok(Expr::UnitSng);
        }
        if let Some(e) = self.try_path(PathContext::Singleton)? {
            return Ok(e);
        }
        let e = self.expr()?;
        let ty = self.infer_type(&e)?;
        match ty {
            Type::Bag(_) => {
                let index = self.next_sng;
                self.next_sng += 1;
                Ok(Expr::Sng {
                    index,
                    body: Box::new(e),
                })
            }
            other => self.err(format!(
                "tuple component must be a path or bag expression, got {other}"
            )),
        }
    }

    /// Try to parse `ident(.field)*` where `ident` is an element variable;
    /// rewinds and returns `None` if `ident` is not an element variable.
    fn try_path(&mut self, ctx: PathContext) -> Result<Option<Expr>, ParseError> {
        let start = self.pos;
        let name = match self.peek() {
            TokenKind::Ident(s) => s.clone(),
            _ => return Ok(None),
        };
        if self.lookup_elem(&name).is_none() {
            return Ok(None);
        }
        self.bump();
        let e = self.finish_path(name, ctx)?;
        // finish_path cannot fail in a way that requires rewind, but keep
        // the pattern simple.
        let _ = start;
        Ok(Some(e))
    }

    /// Parse an identifier-rooted atom: element-variable path, relation or
    /// `let` variable.
    fn path_atom(&mut self, ctx: PathContext) -> Result<Expr, ParseError> {
        let name = self.ident()?;
        if self.lookup_elem(&name).is_some() {
            return self.finish_path(name, ctx);
        }
        if self.schemas.contains_key(&name) {
            return Ok(Expr::Rel(name));
        }
        if self.lookup_let(&name).is_some() {
            return Ok(Expr::Var(name));
        }
        self.err_prev(format!("unknown name `{name}`"))
    }

    /// Parse the `.field` chain of an element-variable path and desugar by
    /// context and type.
    fn finish_path(&mut self, var: String, ctx: PathContext) -> Result<Expr, ParseError> {
        let (var_ty, var_names) = self.lookup_elem(&var).expect("caller checked");
        let mut path: Vec<usize> = vec![];
        let mut ty = var_ty;
        let mut names = var_names;
        while matches!(self.peek(), TokenKind::Dot) {
            self.bump();
            let field = match self.bump() {
                TokenKind::Ident(s) => s,
                TokenKind::Int(i) => i.to_string(),
                other => return self.err_prev(format!("expected field name, found `{other}`")),
            };
            let Some((idx, sub)) = names.resolve(&field, &ty) else {
                return self.err_prev(format!("no field `{field}` on {ty}"));
            };
            let Type::Tuple(ts) = &ty else {
                return self.err_prev(format!("`{field}` projects a non-tuple {ty}"));
            };
            ty = ts[idx].clone();
            names = sub;
            path.push(idx);
        }
        let sng = if path.is_empty() {
            Expr::ElemSng(var)
        } else {
            Expr::ProjSng { var, path }
        };
        Ok(match ctx {
            // Component / sng position: the singleton of the value.
            PathContext::Singleton => sng,
            // Expression position: a bag-typed path denotes the bag itself.
            PathContext::Expression => {
                if matches!(ty, Type::Bag(_)) {
                    Expr::Flatten(Box::new(sng))
                } else {
                    sng
                }
            }
        })
    }

    // ---- predicates -------------------------------------------------------

    fn pred_or(&mut self) -> Result<BoolExpr, ParseError> {
        let mut e = self.pred_and()?;
        while matches!(self.peek(), TokenKind::OrOr) {
            self.bump();
            let rhs = self.pred_and()?;
            e = BoolExpr::Or(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn pred_and(&mut self) -> Result<BoolExpr, ParseError> {
        let mut e = self.pred_not()?;
        while matches!(self.peek(), TokenKind::AndAnd) {
            self.bump();
            let rhs = self.pred_not()?;
            e = BoolExpr::And(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn pred_not(&mut self) -> Result<BoolExpr, ParseError> {
        if matches!(self.peek(), TokenKind::Bang) {
            self.bump();
            let e = self.nested(Parser::pred_not)?;
            return Ok(BoolExpr::Not(Box::new(e)));
        }
        if matches!(self.peek(), TokenKind::LParen) {
            self.bump();
            let e = self.nested(Parser::pred_or)?;
            self.expect(&TokenKind::RParen)?;
            return Ok(e);
        }
        self.pred_cmp()
    }

    fn pred_cmp(&mut self) -> Result<BoolExpr, ParseError> {
        // Boolean constants.
        if self.at_kw("true") {
            self.bump();
            return Ok(BoolExpr::Const(true));
        }
        if self.at_kw("false") {
            self.bump();
            return Ok(BoolExpr::Const(false));
        }
        let lhs = self.pred_operand()?;
        let op = match self.bump() {
            TokenKind::EqEq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => {
                return self.err_prev(format!("expected comparison operator, found `{other}`"))
            }
        };
        let rhs = self.pred_operand()?;
        Ok(BoolExpr::Cmp(lhs, op, rhs))
    }

    fn pred_operand(&mut self) -> Result<Operand, ParseError> {
        match self.bump() {
            TokenKind::Int(i) => Ok(Operand::Lit(BaseValue::Int(i))),
            TokenKind::Str(s) => Ok(Operand::Lit(BaseValue::Str(s))),
            TokenKind::Ident(s) if s == "true" => Ok(Operand::Lit(BaseValue::Bool(true))),
            TokenKind::Ident(s) if s == "false" => Ok(Operand::Lit(BaseValue::Bool(false))),
            TokenKind::Ident(var) => {
                let Some((var_ty, var_names)) = self.lookup_elem(&var) else {
                    return self.err_prev(format!("unknown variable `{var}` in predicate"));
                };
                let mut path = vec![];
                let mut ty = var_ty;
                let mut names = var_names;
                while matches!(self.peek(), TokenKind::Dot) {
                    self.bump();
                    let field = match self.bump() {
                        TokenKind::Ident(s) => s,
                        TokenKind::Int(i) => i.to_string(),
                        other => {
                            return self.err_prev(format!("expected field name, found `{other}`"))
                        }
                    };
                    let Some((idx, sub)) = names.resolve(&field, &ty) else {
                        return self.err_prev(format!("no field `{field}` on {ty}"));
                    };
                    let Type::Tuple(ts) = &ty else {
                        return self.err_prev(format!("`{field}` projects a non-tuple {ty}"));
                    };
                    ty = ts[idx].clone();
                    names = sub;
                    path.push(idx);
                }
                if !matches!(ty, Type::Base(_)) {
                    return self.err(format!(
                        "predicates may only compare base values (positivity, §3); `{var}` path has type {ty}"
                    ));
                }
                Ok(Operand::Ref(ScalarRef { var, path }))
            }
            other => self.err_prev(format!("expected predicate operand, found `{other}`")),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PathContext {
    /// Inside `sng(…)` or a tuple component: the path denotes a value.
    Singleton,
    /// Ordinary expression position: a bag-typed path denotes the bag.
    Expression,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrc_core::builder;
    use nrc_core::eval::{eval_query, Env};
    use nrc_data::database::example_movies;

    fn movie_decl() -> RelationDecl {
        RelationDecl {
            name: "M".into(),
            elem_ty: example_movies().schema("M").unwrap().clone(),
            names: NameTree::Fields(vec![
                ("name".into(), NameTree::None),
                ("gen".into(), NameTree::None),
                ("dir".into(), NameTree::None),
            ]),
        }
    }

    const RELATED_SRC: &str = "for m in M union
        <m.name,
         for m2 in M
           where m.name != m2.name && (m.gen == m2.gen || m.dir == m2.dir)
           union sng(m2.name)>";

    #[test]
    fn render_rounds_byte_spans_to_char_boundaries() {
        // A span whose edges land mid-character (both inside the 2-byte
        // `é`s) must still render instead of panicking on the slice.
        let src = "for é in Mé union x";
        let err = ParseError {
            message: "synthetic".into(),
            line: 1,
            span: Span::new(5, 12),
        };
        let shown = err.render(src);
        assert!(shown.contains('^'), "no caret in: {shown}");
        assert!(shown.contains("for é in Mé union x"));
    }

    #[test]
    fn parses_related_equivalently_to_builder() {
        let parsed = parse_expr(RELATED_SRC, &[movie_decl()]).unwrap();
        let db = example_movies();
        let mut e1 = Env::new(&db);
        let mut e2 = Env::new(&db);
        let from_parser = eval_query(&parsed, &mut e1).unwrap();
        let from_builder = eval_query(&builder::related_query(), &mut e2).unwrap();
        assert_eq!(from_parser, from_builder);
    }

    #[test]
    fn parses_program_with_declarations() {
        let src = r#"
            -- the motivating example, §2
            relation M(name: Str, gen: Str, dir: Str);
            query genres := for m in M union sng(m.gen);
            query pairs := M * M;
        "#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.relations.len(), 1);
        assert_eq!(prog.queries.len(), 2);
        assert_eq!(prog.queries[0].1.to_string(), "for m in M union sng(m.2)");
        assert_eq!(prog.queries[1].1.to_string(), "(M × M)");
    }

    #[test]
    fn union_and_negate_precedence() {
        let e = parse_expr("M ++ -M * M", &[movie_decl()]).unwrap();
        // * binds tighter than ++; unary - tighter than *.
        assert_eq!(e.to_string(), "(M ⊎ (⊖(M) × M))");
    }

    #[test]
    fn numeric_fields_are_one_based() {
        let e = parse_expr("for m in M union sng(m.2)", &[movie_decl()]).unwrap();
        assert_eq!(e.to_string(), "for m in M union sng(m.2)");
        assert!(parse_expr("for m in M union sng(m.0)", &[movie_decl()]).is_err());
        assert!(parse_expr("for m in M union sng(m.4)", &[movie_decl()]).is_err());
    }

    #[test]
    fn nested_relation_paths_and_deep_iteration() {
        let src = r#"
            relation Customers(id: Int, cname: Str, orders: Bag((oid: Int, items: Bag(Int))));
            query all_items :=
              for c in Customers union
                for o in c.orders union
                  o.items;
        "#;
        let prog = parse_program(src).unwrap();
        let q = &prog.queries[0].1;
        // c.orders desugars to flatten(sng(c.3)); o.items in expression
        // position flattens as well.
        let s = q.to_string();
        assert!(s.contains("flatten(sng(c.3))"), "got {s}");
        assert!(s.contains("flatten(sng(o.2))"), "got {s}");
    }

    #[test]
    fn empty_and_let() {
        let e = parse_expr("let X := empty(Str) in X ++ X", &[]).unwrap();
        assert_eq!(e.to_string(), "let X := ∅ in (X ⊎ X)");
    }

    #[test]
    fn unit_singletons() {
        assert_eq!(parse_expr("sng(())", &[]).unwrap(), Expr::UnitSng);
        assert_eq!(
            parse_expr("<>", &[]).map_err(|e| e.message),
            parse_expr("<>", &[]).map_err(|e| e.message)
        );
    }

    #[test]
    fn sng_of_bag_expression_gets_fresh_indices() {
        let e = parse_expr("for m in M union sng(M) * sng(M)", &[movie_decl()]).unwrap();
        let s = e.to_string();
        assert!(s.contains("sng_1(M)") && s.contains("sng_2(M)"), "got {s}");
    }

    #[test]
    fn where_clause_desugars_to_predicate_for() {
        let e = parse_expr(
            "for m in M where m.gen == \"Drama\" union sng(m.name)",
            &[movie_decl()],
        )
        .unwrap();
        let s = e.to_string();
        assert!(
            s.contains("for __w in p[m.2 == \"Drama\"] union"),
            "got {s}"
        );
    }

    #[test]
    fn predicate_type_errors_are_reported() {
        // Comparing a whole tuple is rejected (positivity).
        let r = parse_expr("for m in M where m == m union sng(m)", &[movie_decl()]);
        assert!(r.is_err());
        // Unknown fields error.
        let r2 = parse_expr("for m in M union sng(m.title)", &[movie_decl()]);
        assert!(r2.unwrap_err().message.contains("no field"));
    }

    #[test]
    fn unknown_names_error_with_line() {
        let err = parse_expr("for m in\nNope union sng(m)", &[]).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown name"));
    }

    #[test]
    fn parse_errors_on_trailing_input() {
        assert!(parse_expr("M M", &[movie_decl()]).is_err());
    }

    #[test]
    fn errors_carry_spans_and_render_carets() {
        let src = "for m in Nope union sng(m)";
        let err = parse_expr(src, &[]).unwrap_err();
        assert_eq!(&src[err.span.start..err.span.end], "Nope");
        let rendered = err.render(src);
        assert!(rendered.contains("unknown name"), "got {rendered}");
        assert!(rendered.contains(src), "got {rendered}");
        assert!(rendered.contains("\n           ^^^^"), "got {rendered}");
    }

    #[test]
    fn render_points_at_the_right_line_of_multiline_sources() {
        let src = "for m in M union\n  sng(m.title)";
        let err = parse_expr(src, &[movie_decl()]).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(&src[err.span.start..err.span.end], "title");
        let rendered = err.render(src);
        assert!(rendered.contains("  sng(m.title)"), "got {rendered}");
        assert!(!rendered.contains("for m in M"), "got {rendered}");
    }

    #[test]
    fn eof_errors_render_a_point_caret() {
        let src = "for m in M union";
        let err = parse_expr(src, &[movie_decl()]).unwrap_err();
        assert!(err.span.start >= src.len() - 1);
        // Rendering must not panic or index out of bounds at end of input.
        let rendered = err.render(src);
        assert!(rendered.contains('^'), "got {rendered}");
    }

    #[test]
    fn nesting_past_the_depth_budget_is_a_spanned_error() {
        let decls = [movie_decl()];
        let deep = |open: &str, inner: &str, close: &str, n: usize| {
            format!("{}{inner}{}", open.repeat(n), close.repeat(n))
        };
        // 100 000 parentheses: an error at the first one too many, not a
        // stack overflow.
        let src = deep("(", "M", ")", 100_000);
        let err = parse_expr(&src, &decls).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert_eq!(err.span.start, MAX_DEPTH);
        assert_eq!(&src[err.span.start..err.span.end], "(");
        // Every recursive production is bounded: negation, predicates,
        // types.
        assert!(parse_expr(&deep("- ", "M", "", 100_000), &decls).is_err());
        let pred = deep("!(", "m.gen == \"x\"", ")", 100_000);
        let src = format!("for m in M where {pred} union sng(m)");
        assert!(parse_expr(&src, &decls).is_err());
        let ty = deep("Bag(", "Int", ")", 100_000);
        assert!(parse_program(&format!("relation R(x: {ty});")).is_err());
        // Within the budget, deep nesting still parses.
        let ok = deep("(", "M", ")", MAX_DEPTH - 1);
        assert_eq!(parse_expr(&ok, &decls).unwrap(), Expr::Rel("M".into()));
        assert!(parse_expr(&deep("- ", "M", "", MAX_DEPTH - 1), &decls).is_ok());
    }

    #[test]
    fn booleans_in_predicates() {
        let e = parse_expr(
            "for m in M where true && !(m.name == \"x\") union sng(m.name)",
            &[movie_decl()],
        )
        .unwrap();
        assert!(e.to_string().contains("(true && !("));
    }
}
