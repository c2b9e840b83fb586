//! # bcast-obs — zero-cost instrumentation for the solver pipeline
//!
//! Every layer of the broadcast-trees pipeline — the simplex engine, the
//! cut-generation loop, schedule synthesis/repair, the simulator, and the
//! experiment binaries — instruments itself through this crate:
//!
//! * **Hierarchical span timers** ([`span!`], [`SpanGuard`], [`timed`]) —
//!   RAII guards that nest through a thread-local stack and accumulate
//!   wall-clock plus call counts per *path* (the `/`-joined chain of active
//!   span names, e.g. `drift.warm_step/cut_gen.solve/lp.resolve/lp.ftran`).
//! * **A counter/gauge registry** ([`counter_add`], [`gauge_set`]) — the
//!   pipeline's ad-hoc statistics (simplex pivots, refactorizations,
//!   cut-generation rounds, cuts added/purged/reused, separations
//!   run/screened, schedule grafts/prunes) unified behind stable dotted
//!   names; see the `names` module for the vocabulary.
//! * **A structured JSONL event journal** ([`install_journal`], [`emit`],
//!   [`Event`]) — one record per LP solve, separation round, drift/churn
//!   step, and schedule repair, with a versioned schema and deterministic
//!   field order. [`flush_journal`] appends the span and counter dumps plus
//!   a `run_end` record; `solver_report` (this crate's binary) ingests a
//!   journal and prints the per-phase time/pivot breakdown.
//!
//! ## Zero cost when disabled
//!
//! The whole sink hangs off one global flag ([`enabled`]). While it is off
//! — the default — every instrumentation site reduces to a single relaxed
//! atomic load: no clock read, no allocation, no lock, no I/O. The
//! workspace's overhead guard (`tests/observability.rs`) holds the
//! disabled-path cost on a Tiers-65 cut-generation solve under 2%.
//! Installing a journal (or calling [`enable`]) turns everything on at
//! runtime; no recompilation or feature flag is involved.
//!
//! ## Threads
//!
//! The span *stack* is thread-local (nesting never crosses threads); the
//! accumulated statistics, counters, and the journal are global and
//! mutex-protected. Journal event order is the execution order of a
//! single-threaded run and an arbitrary interleaving of a multi-threaded
//! one; the span/counter dumps written by [`flush_journal`] are sorted by
//! name, so they are deterministic either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod metrics;
pub mod names;
pub mod report;
pub mod span;

pub use journal::{
    emit, emit_with, flush_journal, install_journal, journal_installed, Event, LpSolveKind,
    RepairKind,
};
pub use metrics::{counter_add, counters_snapshot, gauge_set, gauges_snapshot, reset_metrics};
pub use span::{reset_spans, span_stats, timed, SpanGuard, SpanStat};

use std::sync::atomic::{AtomicBool, Ordering};

/// The one global sink switch. Off by default; every instrumentation site
/// checks it with a single relaxed load before doing any work.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when the instrumentation sink is collecting.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span/counter collection on without installing a journal.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the sink off. In-memory span/counter state is kept (callers that
/// want a clean slate combine this with [`reset_spans`]/[`reset_metrics`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Opens a hierarchical span; expands to a [`SpanGuard`] binding whose drop
/// closes the span. A no-op (one atomic load) while the sink is disabled.
///
/// ```
/// let _span = bcast_obs::span!("cut_gen.separation");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! The unit tests toggle the global sink; this lock serializes them so
    //! `cargo test`'s parallel threads cannot observe each other's state.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn sink_lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
