//! Text-based view registration: the end-to-end path from untrusted query
//! source to a live, incrementally-maintained view.
//!
//! [`IvmSystem::register_query`] parses the NRC⁺ surface syntax
//! (`nrc-parser`), typechecks the query against the system's database,
//! runs the optimizer, estimates every maintenance strategy with the cost
//! planner ([`nrc_core::plan`]) and registers the view under the winner.
//! The returned [`QueryPlan`] reports the decision: chosen strategy,
//! estimates per candidate, and rejected alternatives.
//! [`IvmSystem::register_query_with`] is the override hook — same pipeline,
//! caller-forced strategy.
//!
//! Source text is either a bare expression (relation schemas come from the
//! database; fields are positional, `m.1`-style) or a full program of
//! `relation`/`query` declarations. A program must declare exactly one
//! query, and every `relation` declaration must match the database schema;
//! the view is registered under the caller-supplied name either way.

use crate::error::NrcError;
use crate::system::{IvmSystem, Strategy};
use nrc_core::plan::{plan_query, PlannedStrategy, QueryPlan};
use nrc_core::typecheck::TypeError;
use nrc_core::Expr;
use nrc_data::Database;
use nrc_parser::{lex, parse_expr, parse_program, NameTree, RelationDecl, TokenKind};

/// Assumed update cardinality `d` for planner estimates: "a handful of
/// tuples per batch", the regime incremental maintenance targets.
pub const DEFAULT_UPDATE_CARD: u64 = 16;

impl From<PlannedStrategy> for Strategy {
    fn from(s: PlannedStrategy) -> Strategy {
        match s {
            PlannedStrategy::Reevaluate => Strategy::Reevaluate,
            PlannedStrategy::FirstOrder => Strategy::FirstOrder,
            PlannedStrategy::Recursive => Strategy::Recursive,
            PlannedStrategy::Shredded => Strategy::Shredded,
        }
    }
}

impl From<Strategy> for PlannedStrategy {
    fn from(s: Strategy) -> PlannedStrategy {
        match s {
            Strategy::Reevaluate => PlannedStrategy::Reevaluate,
            Strategy::FirstOrder => PlannedStrategy::FirstOrder,
            Strategy::Recursive => PlannedStrategy::Recursive,
            Strategy::Shredded => PlannedStrategy::Shredded,
        }
    }
}

fn decls_from_db(db: &Database) -> Vec<RelationDecl> {
    db.relation_names()
        .map(|r| RelationDecl {
            name: r.clone(),
            elem_ty: db.schema(r).expect("iterated name has a schema").clone(),
            names: NameTree::None,
        })
        .collect()
}

/// Parse `src` as a bare expression or a `relation`/`query` program,
/// validated against `db`.
fn parse_against(src: &str, db: &Database) -> Result<Expr, NrcError> {
    let parse_err = |error| NrcError::Parse {
        error,
        src: src.to_owned(),
    };
    let tokens = lex(src).map_err(|e| parse_err(e.into()))?;
    let is_program = matches!(
        tokens.first().map(|t| &t.kind),
        Some(TokenKind::Ident(kw)) if kw == "relation" || kw == "query"
    );
    if !is_program {
        return parse_expr(src, &decls_from_db(db)).map_err(parse_err);
    }
    let program = parse_program(src).map_err(parse_err)?;
    for decl in &program.relations {
        match db.schema(&decl.name) {
            None => {
                return Err(NrcError::Type {
                    error: TypeError::UnknownRelation(decl.name.clone()),
                    src: src.to_owned(),
                })
            }
            Some(ty) if *ty != decl.elem_ty => {
                return Err(NrcError::Type {
                    error: TypeError::Mismatch {
                        expected: ty.to_string(),
                        got: decl.elem_ty.to_string(),
                        at: format!("relation {}", decl.name),
                    },
                    src: src.to_owned(),
                })
            }
            Some(_) => {}
        }
    }
    match program.queries.as_slice() {
        [(_, q)] => Ok(q.clone()),
        qs => Err(NrcError::Type {
            error: TypeError::Mismatch {
                expected: "exactly one `query` declaration".to_owned(),
                got: format!("{}", qs.len()),
                at: "program".to_owned(),
            },
            src: src.to_owned(),
        }),
    }
}

/// Render a query back to parseable NRC⁺ surface syntax, if it is
/// expressible there — the spec-encoding seam the durable layer's query
/// catalog persists. Plain NRC⁺ expressions (everything `parse_against`
/// can produce) round-trip; shredding-internal constructs and delta
/// relations have no surface form and yield `None`.
pub fn query_source(query: &Expr) -> Option<String> {
    nrc_parser::to_surface(query).ok()
}

/// Parse, typecheck, optimize and cost `src` against `db` — everything
/// `register_query` does short of registering. Exposed for the serving and
/// durable passthroughs and for the planner-ablation harness.
pub fn parse_and_plan(
    name: &str,
    src: &str,
    db: &Database,
    update_card: u64,
) -> Result<QueryPlan, NrcError> {
    let query = parse_against(src, db)?;
    plan_query(name, &query, db, update_card).map_err(|e| NrcError::plan(e, src))
}

impl IvmSystem {
    /// Register a view from NRC⁺ query text, auto-picking the maintenance
    /// strategy by cost: parse, typecheck against this system's database,
    /// optimize, estimate every candidate strategy with the §4.2 cost model
    /// and register under the cheapest feasible one. The returned
    /// [`QueryPlan`] says what was chosen and why.
    ///
    /// ```
    /// use nrc_data::database::example_movies;
    /// use nrc_engine::IvmSystem;
    ///
    /// let mut sys = IvmSystem::new(example_movies());
    /// let plan = sys
    ///     .register_query("dramas", "for m in M where m.2 == \"Drama\" union sng(m)")
    ///     .unwrap();
    /// println!("{plan}"); // chosen: … (est …) over …
    /// assert_eq!(sys.view("dramas").unwrap().cardinality(), 1);
    /// ```
    pub fn register_query(&mut self, name: &str, src: &str) -> Result<QueryPlan, NrcError> {
        let plan = parse_and_plan(name, src, self.database(), DEFAULT_UPDATE_CARD)?;
        self.register(name, plan.query.clone(), plan.chosen.into())
            .map_err(|e| NrcError::engine(e, src))?;
        Ok(plan)
    }

    /// Like [`IvmSystem::register_query`], but force `strategy` instead of
    /// the planner's pick (the ablation/override hook). The returned plan
    /// still lists every candidate's estimate; `chosen` reflects the forced
    /// strategy. Forcing an infeasible strategy (e.g. first-order on a
    /// non-IncNRC⁺ query) fails at registration with the underlying error.
    pub fn register_query_with(
        &mut self,
        name: &str,
        src: &str,
        strategy: Strategy,
    ) -> Result<QueryPlan, NrcError> {
        let mut plan = parse_and_plan(name, src, self.database(), DEFAULT_UPDATE_CARD)?;
        self.register(name, plan.query.clone(), strategy)
            .map_err(|e| NrcError::engine(e, src))?;
        plan.chosen = strategy.into();
        // Honest estimate for the forced pick: `None` when the planner had
        // no estimate for it (rejected, but the engine accepted it anyway),
        // never another candidate's number.
        plan.est = plan.candidate(plan.chosen).and_then(|c| c.est);
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NrcError;
    use nrc_data::database::{example_movies, example_movies_update};

    #[test]
    fn register_query_parses_plans_and_registers() {
        let mut sys = IvmSystem::new(example_movies());
        let plan = sys
            .register_query("dramas", "for m in M where m.2 == \"Drama\" union sng(m)")
            .unwrap();
        assert_eq!(plan.name, "dramas");
        assert_eq!(plan.candidates.len(), 4);
        assert_eq!(sys.view("dramas").unwrap().cardinality(), 1);
        // The view is live: updates maintain it.
        sys.apply_update("M", &example_movies_update()).unwrap();
        assert_eq!(sys.view("dramas").unwrap().cardinality(), 2);
    }

    #[test]
    fn register_query_accepts_full_programs() {
        let mut sys = IvmSystem::new(example_movies());
        let src = "relation M(name: Str, gen: Str, dir: Str);\n\
                   query related :=\n\
                     for m in M union\n\
                       <m.name, for m2 in M\n\
                         where m.name != m2.name && (m.gen == m2.gen || m.dir == m2.dir)\n\
                         union sng(m2.name)>;";
        let plan = sys.register_query("related", src).unwrap();
        // Nested result, no flat delta: the planner must not pick a flat
        // incremental strategy.
        assert!(matches!(
            plan.chosen,
            PlannedStrategy::Shredded | PlannedStrategy::Reevaluate
        ));
        assert_eq!(sys.view("related").unwrap().cardinality(), 3);
    }

    #[test]
    fn parse_errors_are_spanned_and_render() {
        let mut sys = IvmSystem::new(example_movies());
        let err = sys.register_query("bad", "for m in Nope union sng(m)");
        match err {
            Err(NrcError::Parse { error, src }) => {
                assert_eq!(&src[error.span.start..error.span.end], "Nope");
                assert!(error.render(&src).contains("^^^^"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_an_abort() {
        let mut sys = IvmSystem::new(example_movies());
        let deep = format!("{}M{}", "(".repeat(100_000), ")".repeat(100_000));
        let program = format!("relation M(name: Str, gen: Str, dir: Str);\nquery q := {deep};");
        for src in [deep, program] {
            match sys.register_query("deep", &src) {
                Err(NrcError::Parse { error, .. }) => {
                    assert!(error.message.contains("nesting deeper than"), "{error}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        assert!(sys.view("deep").is_err());
        // At the parser's budget (64 levels), the later passes' recursion
        // still fits a test thread's 2 MiB stack.
        for (name, src) in [
            ("negations", format!("{}M", "- ".repeat(63))),
            (
                "unions",
                format!("{}M{}", "M ++ (".repeat(63), ")".repeat(63)),
            ),
            (
                "flattens",
                format!("{}M{}", "flatten(sng(".repeat(31), "))".repeat(31)),
            ),
        ] {
            sys.register_query(name, &src).unwrap();
        }
    }

    #[test]
    fn program_schema_mismatch_is_a_type_error() {
        let mut sys = IvmSystem::new(example_movies());
        let src = "relation M(name: Str, gen: Int);\nquery q := M;";
        assert!(matches!(
            sys.register_query("q", src),
            Err(NrcError::Type { .. })
        ));
    }

    #[test]
    fn forced_strategy_overrides_the_planner() {
        let mut sys = IvmSystem::new(example_movies());
        let plan = sys
            .register_query_with("all", "M", Strategy::Reevaluate)
            .unwrap();
        assert_eq!(plan.chosen, PlannedStrategy::Reevaluate);
        sys.apply_update("M", &example_movies_update()).unwrap();
        assert_eq!(sys.view("all").unwrap().cardinality(), 4);
    }

    #[test]
    fn forcing_an_unestimated_strategy_drops_the_estimate() {
        // Shredding a flat view: the planner rejects it (no estimate) but
        // the engine accepts it — the plan must not report another
        // candidate's number as the chosen one's.
        let mut sys = IvmSystem::new(example_movies());
        let plan = sys
            .register_query_with(
                "flat",
                "for m in M where m.2 == \"Drama\" union sng(m)",
                Strategy::Shredded,
            )
            .unwrap();
        assert_eq!(plan.chosen, PlannedStrategy::Shredded);
        assert!(plan.est.is_none());
        let shown = plan.to_string();
        assert!(
            shown.starts_with("chosen: shredded (no estimate)"),
            "stale estimate leaked into: {shown}"
        );
        assert_eq!(sys.view("flat").unwrap().cardinality(), 1);
    }

    #[test]
    fn non_ascii_sources_error_without_panicking() {
        let mut sys = IvmSystem::new(example_movies());
        for src in ["é", "for é in M union sng(é)", "\"déjà", "x == é"] {
            let err = sys.register_query("x", src).unwrap_err();
            // Display renders the caret snippet against the source; it must
            // never slice mid-character.
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn duplicate_names_surface_as_engine_errors() {
        let mut sys = IvmSystem::new(example_movies());
        sys.register_query("v", "M").unwrap();
        assert!(matches!(
            sys.register_query("v", "M"),
            Err(NrcError::Engine { .. })
        ));
    }
}
