//! The re-evaluation baseline: the view every incremental strategy must
//! agree with. Classical first-order IVM is
//! [`crate::recursive::RecursiveView::first_order`].

use crate::error::EngineError;
use crate::stats::ViewStats;
use nrc_core::eval::{eval_query, Env};
use nrc_core::typecheck::typecheck;
use nrc_core::Expr;
use nrc_data::{Bag, Database, Type};

/// Baseline view: re-evaluates the query on every update.
#[derive(Clone, Debug)]
pub struct ReevalView {
    /// The maintained query.
    pub query: Expr,
    /// The current result.
    pub result: Bag,
    /// Maintenance counters.
    pub stats: ViewStats,
}

impl ReevalView {
    /// Materialize the query over `db`.
    pub fn new(query: Expr, db: &Database) -> Result<ReevalView, EngineError> {
        let ty = typecheck(&query, db)?;
        let Type::Bag(_) = ty else {
            return Err(EngineError::Type(nrc_core::TypeError::NotABag {
                at: "view query".into(),
                got: ty.to_string(),
            }));
        };
        let mut env = Env::new(db);
        let result = eval_query(&query, &mut env)?;
        let stats = ViewStats {
            reevaluations: 1,
            eval_steps: env.steps,
            ..ViewStats::default()
        };
        Ok(ReevalView {
            query,
            result,
            stats,
        })
    }

    /// Recompute against the *updated* database.
    pub fn refresh(&mut self, db_after: &Database) -> Result<(), EngineError> {
        let mut env = Env::new(db_after);
        self.result = eval_query(&self.query, &mut env)?;
        self.stats.reevaluations += 1;
        self.stats.refresh_steps += env.steps;
        self.stats.updates_applied += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrc_core::builder::*;
    use nrc_core::expr::CmpOp;
    use nrc_data::database::{example_movies, example_movies_update};

    #[test]
    fn reeval_tracks_database() {
        let db = example_movies();
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
        let mut v = ReevalView::new(q, &db).unwrap();
        assert_eq!(v.result.cardinality(), 1);
        let mut db2 = db.clone();
        db2.apply_update("M", &example_movies_update()).unwrap();
        v.refresh(&db2).unwrap();
        assert_eq!(v.result.cardinality(), 2);
        assert_eq!(v.stats.reevaluations, 2);
    }
}
