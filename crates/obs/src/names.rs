//! The stable dotted-name vocabulary of the pipeline's counters, gauges,
//! and spans.
//!
//! These constants are the *metrics surface* other tools (the journal, the
//! `solver_report` breakdown, and eventually the `bcast-service` daemon
//! export) key on — renaming one is a schema change and must bump
//! [`crate::journal::SCHEMA`].

// ---- counters ----------------------------------------------------------

/// Simplex pivots, primal and dual passes, cold and warm solves.
pub const LP_PIVOTS: &str = "lp.pivots";
/// Basis refactorizations (Markowitz LU rebuilds of the sparse basis).
pub const LP_REFACTORIZATIONS: &str = "lp.refactorizations";
/// LP (re-)solves that went through an incremental `SimplexState` resolve.
pub const LP_RESOLVES: &str = "lp.resolves";
/// One-shot (cold) LP solves.
pub const LP_COLD_SOLVES: &str = "lp.cold_solves";
/// Master-LP separation rounds of the cut-generation loop.
pub const CUTGEN_ROUNDS: &str = "cut_gen.rounds";
/// Cuts added (or reactivated) into the master LP.
pub const CUTGEN_CUTS_ADDED: &str = "cut_gen.cuts_added";
/// Cuts purged from the master after staying non-binding.
pub const CUTGEN_CUTS_PURGED: &str = "cut_gen.cuts_purged";
/// Active cuts carried across session steps (the cut-pool warm start).
pub const CUTGEN_CUTS_REUSED: &str = "cut_gen.cuts_reused";
/// Per-destination separation max-flows actually run.
pub const CUTGEN_SEPARATIONS_RUN: &str = "cut_gen.separations_run";
/// Per-destination separation max-flows skipped by the screen.
pub const CUTGEN_SEPARATIONS_SCREENED: &str = "cut_gen.separations_screened";
/// Dinic phases (level graphs that reached the sink, each followed by a
/// blocking flow) of the separation max-flows, summed over workers.
/// Divided by `cut_gen.separations_run` it gives phases per max-flow,
/// which the warm start from each destination's previous flow lowers.
pub const CUTGEN_MAXFLOW_PHASES: &str = "cut_gen.maxflow_phases";
/// Nodes grafted onto kept trees by churn repair.
pub const SCHED_GRAFTS: &str = "sched.repair.grafts";
/// Nodes pruned from kept trees by churn repair.
pub const SCHED_PRUNES: &str = "sched.repair.prunes";
/// Previous-period trees kept by a schedule repair.
pub const SCHED_KEPT_TREES: &str = "sched.repair.kept_trees";
/// Repairs that fell back to a full synthesis.
pub const SCHED_FULL_REBUILDS: &str = "sched.repair.full_rebuilds";
/// Max-flows solved by the schedule synthesizer: Edmonds' condition and
/// the candidate checks of arborescence packing, and the integer-flow
/// checks of the rounding repair.
pub const SCHED_MAXFLOWS: &str = "sched.maxflows";
/// Point-to-point transfers replayed by the schedule simulator.
pub const SIM_TRANSFERS: &str = "sim.transfers";
/// Cold LP solves that ended in `LpError::Singular`: the basis could not
/// be factorized even with per-pivot refactorization. With the Markowitz
/// LU this should stay 0 — the regression suite asserts it. (The name
/// predates the typed error, when these solves fell back to a dense
/// engine; it is kept so recorded journals stay comparable.)
pub const LP_SINGULAR_FALLBACK: &str = "lp.singular_fallback";
/// Separation max-flow batches executed by parallel workers (one increment
/// per sharded batch, not per destination).
pub const CUTGEN_PARALLEL_BATCHES: &str = "cut_gen.parallel_batches";
/// Warm-path bailouts of the incremental LP: edits or warm passes that
/// could not keep the basis (binding-row deletes, bases gone singular,
/// basic-column deletes with no pivot, unclean warm passes) and forced the
/// next solve through the cold refactorization fallback. The four
/// `lp.cold_refactor_fallback.*` counters below split it by reason and sum
/// to it.
pub const LP_COLD_REFACTOR_FALLBACK: &str = "lp.cold_refactor_fallback";
/// Cold fallbacks forced by deleting a binding row, an `=` row, or a row
/// whose artificial is still basic.
pub const LP_FALLBACK_BINDING_ROW_DELETE: &str = "lp.cold_refactor_fallback.binding_row_delete";
/// Cold fallbacks forced by a coefficient update under which the current
/// basis is singular.
pub const LP_FALLBACK_REFUSED_UPDATE: &str = "lp.cold_refactor_fallback.refused_update";
/// Cold fallbacks forced by a basic-column delete with no eligible pivot.
pub const LP_FALLBACK_REFUSED_COLUMN_DELETE: &str =
    "lp.cold_refactor_fallback.refused_column_delete";
/// Cold fallbacks after a warm re-solve that did not end on a clean
/// optimum (stall, apparent infeasibility, singular basis, budget, a basic
/// artificial moved off zero).
pub const LP_FALLBACK_UNCLEAN_WARM_PASS: &str = "lp.cold_refactor_fallback.unclean_warm_pass";
/// Commands applied by the `bcast-service` daemon (all sessions).
pub const SERVICE_COMMANDS: &str = "service.commands";
/// Service snapshots written.
pub const SERVICE_SNAPSHOTS: &str = "service.snapshots";
/// Sessions recovered from a snapshot + WAL tail at service open.
pub const SERVICE_RECOVERIES: &str = "service.recoveries";
/// Corrupt or torn snapshot/WAL artifacts detected (and degraded past).
pub const SERVICE_CORRUPT_ARTIFACTS: &str = "service.corrupt_artifacts";
/// Platform-digest cache hits at session creation.
pub const SERVICE_DIGEST_HITS: &str = "service.digest_hits";

// ---- gauges ------------------------------------------------------------

/// Eta-file length of the sparse basis after the most recent pivot.
pub const LP_ETA_LEN: &str = "lp.eta_len";
/// Separation worker threads used by the most recent parallel batch.
pub const CUTGEN_SEP_WORKERS: &str = "cut_gen.sep_workers";

// ---- span names --------------------------------------------------------
//
// Span paths are contextual (`/`-joined chains of these names); the
// constants below are the vocabulary of the individual frames.

/// Sparse FTRAN kernel (`B⁻¹ a`).
pub const SPAN_FTRAN: &str = "lp.ftran";
/// Sparse BTRAN kernel (`B⁻ᵀ y`).
pub const SPAN_BTRAN: &str = "lp.btran";
/// Basis refactorization (a Markowitz sparse LU of the current basis).
pub const SPAN_REFACTOR: &str = "lp.refactor";
/// Markowitz sparse LU factorization (nested under `lp.refactor`).
pub const SPAN_LU_FACTOR: &str = "lu.factor";
/// One eta-on-LU pivot update of the sparse basis.
pub const SPAN_LU_UPDATE: &str = "lu.update";
/// Cold LP solve (one-shot, or the cold path of a `SimplexState`).
pub const SPAN_LP_SOLVE: &str = "lp.solve";
/// Incremental re-optimization of a persistent `SimplexState`.
pub const SPAN_LP_RESOLVE: &str = "lp.resolve";
/// One cut-generation solve (a `CutGenSession` step or one-shot solve).
pub const SPAN_CUTGEN_SOLVE: &str = "cut_gen.solve";
/// The master-LP (re-)solve inside a cut-generation round.
pub const SPAN_CUTGEN_MASTER: &str = "cut_gen.master";
/// The per-destination max-flow separation inside a round.
pub const SPAN_CUTGEN_SEPARATION: &str = "cut_gen.separation";
/// Full schedule synthesis.
pub const SPAN_SCHED_SYNTHESIZE: &str = "sched.synthesize";
/// Incremental schedule repair of a step that kept the node set.
pub const SPAN_SCHED_REPAIR: &str = "sched.repair";
/// Incremental schedule repair of a step that changed the node set.
pub const SPAN_SCHED_REPAIR_CHURN: &str = "sched.repair_churn";
/// Rounding of the LP loads to integer multiplicities, repair included
/// (inside a synthesis or repair).
pub const SPAN_SCHED_ROUND: &str = "sched.round";
/// Packing of spanning arborescences into integer capacities (inside a
/// synthesis or repair).
pub const SPAN_SCHED_PACK: &str = "sched.pack";
/// Timetabling of one period's trees into a schedule (inside a synthesis,
/// repair or tree fallback).
pub const SPAN_SCHED_ASSEMBLE: &str = "sched.assemble";
/// Schedule replay in the simulator.
pub const SPAN_SIM_REPLAY: &str = "sim.replay";
/// One command applied by the `bcast-service` daemon.
pub const SPAN_SERVICE_APPLY: &str = "service.apply";
/// Crash recovery at service open (snapshot restore + WAL tail replay).
pub const SPAN_SERVICE_RECOVER: &str = "service.recover";
