//! Per-view and per-batch maintenance statistics.

use nrc_data::ArenaStats;

/// Counters describing how a view has been maintained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Updates applied to the view.
    pub updates_applied: u64,
    /// Full re-evaluations performed (1 at registration; more only for the
    /// re-evaluation baseline).
    pub reevaluations: u64,
    /// Abstract evaluator steps spent refreshing (the unit compared against
    /// `tcost` in experiment E4).
    pub refresh_steps: u64,
    /// Abstract evaluator steps spent on initial materialization and
    /// re-evaluations.
    pub eval_steps: u64,
    /// Cardinality of the last delta applied.
    pub last_delta_card: u64,
    /// Number of auxiliary materializations (recursive IVM) or dictionary
    /// entries (shredded IVM) owned by this view.
    pub materialized_aux: u64,
    /// Cumulative wall nanoseconds spent refreshing this view inside
    /// `apply_batch`/`apply_update`. Only accumulated while `nrc_obs`
    /// instrumentation is enabled (the timing itself costs two clock
    /// reads per refresh); the same samples feed the
    /// `engine.view.refresh_ns` registry histogram.
    pub refresh_nanos: u64,
}

/// Counters describing the batched maintenance path
/// ([`crate::IvmSystem::apply_batch`]): how many raw updates were coalesced,
/// how much delta volume was applied, and how long the batch refreshes took.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches applied through `apply_batch`.
    pub batches_applied: u64,
    /// Raw (pre-coalescing) updates contained in those batches.
    pub updates_coalesced: u64,
    /// Coalesced per-relation segments processed (≤ `updates_coalesced`).
    pub relation_segments: u64,
    /// Total cardinality of the coalesced deltas applied.
    pub delta_cardinality: u64,
    /// Cumulative wall time spent inside `apply_batch`, in nanoseconds.
    pub batch_nanos: u64,
    /// Wall time of the most recent batch, in nanoseconds.
    pub last_batch_nanos: u64,
    /// Raw updates in the most recent batch.
    pub last_batch_updates: u64,
    /// Intern-arena occupancy snapshot taken at the end of the most recent
    /// batch (after any policy-triggered collection) — the figure the
    /// memory-regression gate budgets against.
    pub arena: ArenaStats,
    /// Arena collections triggered by the system's `CollectPolicy`.
    pub collections_run: u64,
    /// Arena slots reclaimed by those collections.
    pub arena_slots_freed: u64,
    /// Orphaned shredded-store dictionary definitions reclaimed alongside.
    pub store_defs_freed: u64,
    /// Cumulative wall time spent inside policy-triggered collections
    /// (store GC + arena sweep), in nanoseconds — the reclamation share of
    /// `batch_nanos`.
    pub collect_nanos: u64,
    /// Wall time of the most recent collection pause, in nanoseconds
    /// (`0` until the policy first fires).
    pub last_collect_nanos: u64,
    /// The longest single collection pause observed, in nanoseconds. A
    /// budgeted policy keeps this near `max_slots`-worth of sweep work; a
    /// full sweep lets it grow with the accumulated garbage.
    pub max_collect_nanos: u64,
    /// Dying-list entries still queued after the most recent collection —
    /// nonzero when a bounded sweep left backlog for its next increment.
    pub collect_backlog: u64,
}

impl BatchStats {
    /// Average throughput over all batches, in raw updates per second.
    /// `0.0` before any batch has been applied.
    pub fn throughput_updates_per_sec(&self) -> f64 {
        if self.batch_nanos == 0 {
            return 0.0;
        }
        self.updates_coalesced as f64 / (self.batch_nanos as f64 / 1e9)
    }

    /// Mean collection pause, in nanoseconds (`0.0` before any collection).
    pub fn mean_collect_nanos(&self) -> f64 {
        if self.collections_run == 0 {
            return 0.0;
        }
        self.collect_nanos as f64 / self.collections_run as f64
    }

    /// Arena slots reclaimed per collection pause — how much reclamation
    /// each pause buys (`0.0` before any collection). Bounded pacing trades
    /// this figure down for a hard per-pause ceiling.
    pub fn slots_per_pause(&self) -> f64 {
        if self.collections_run == 0 {
            return 0.0;
        }
        self.arena_slots_freed as f64 / self.collections_run as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_zero_before_batches() {
        assert_eq!(BatchStats::default().throughput_updates_per_sec(), 0.0);
    }

    #[test]
    fn throughput_counts_raw_updates() {
        let s = BatchStats {
            batches_applied: 2,
            updates_coalesced: 100,
            batch_nanos: 500_000_000, // 0.5 s
            ..BatchStats::default()
        };
        assert_eq!(s.throughput_updates_per_sec(), 200.0);
    }

    #[test]
    fn pause_accounting_means_are_zero_before_collections() {
        let s = BatchStats::default();
        assert_eq!(s.mean_collect_nanos(), 0.0);
        assert_eq!(s.slots_per_pause(), 0.0);
    }

    #[test]
    fn pause_accounting_divides_by_collections() {
        let s = BatchStats {
            collections_run: 4,
            collect_nanos: 2_000,
            arena_slots_freed: 100,
            ..BatchStats::default()
        };
        assert_eq!(s.mean_collect_nanos(), 500.0);
        assert_eq!(s.slots_per_pause(), 25.0);
    }
}
