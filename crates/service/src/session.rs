//! One live solver session: a changing platform trace plus the persistent
//! cut-generation state and the current schedule, advanced one trace step
//! per command.
//!
//! Every step has one path, as in the drift ablation binary: the trace's
//! [`ChurnRemap`] from the previous step (the identity when the node set is
//! unchanged) drives `solve_step_churn` and, after step 0's full
//! synthesis, `resynthesize_schedule_churn`. Every step is finished by a
//! simulator replay of the repaired schedule, and the per-step statistics
//! (throughput, pivots, rounds, repair operations, simulated throughput)
//! are appended to the session's log — that log is what the
//! crash-equivalence harness compares bit for bit.

use crate::command::{PlatformFamily, SessionSpec};
use crate::error::ServiceError;
use bcast_core::{CutGenOptions, CutGenSession, SessionSnapshot};
use bcast_net::NodeId;
use bcast_platform::drift::{ChurnRemap, DriftConfig, DriftTrace};
use bcast_platform::generators::gaussian_field::{gaussian_platform, GaussianPlatformConfig};
use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
use bcast_platform::{MessageSpec, Platform};
use bcast_sched::{
    resynthesize_schedule_churn, synthesize_schedule, PeriodicSchedule, RepairReport,
    ScheduleParts, SynthesisConfig,
};
use bcast_sim::simulate_schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-step record of one session, the unit the crash-equivalence tests
/// compare. Every field is a deterministic function of the session spec
/// and the command sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepStats {
    /// Trace step index.
    pub step: usize,
    /// Optimal throughput of the step's master LP.
    pub tp: f64,
    /// Simplex pivots spent by the step's solve.
    pub pivots: usize,
    /// Master separation rounds.
    pub rounds: usize,
    /// Cuts carried over from the previous step's pool.
    pub reused_cuts: usize,
    /// Previous-period trees kept by the schedule repair.
    pub kept_trees: usize,
    /// Repair operations, [`RepairReport::repair_ops`]: trees re-packed by
    /// the repair, or the whole batch when it fell back to a full
    /// synthesis. Grafts and prunes are counted in `grafted` and `pruned`.
    pub repair_ops: usize,
    /// Joining nodes grafted by the repair.
    pub grafted: usize,
    /// Leaving nodes pruned by the repair.
    pub pruned: usize,
    /// Schedule efficiency (`throughput / lp_throughput`).
    pub efficiency: f64,
    /// Simulated steady-state throughput of the repaired schedule.
    pub sim_tp: f64,
}

/// Read-only answer of a `QuerySchedule` command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleStats {
    /// Steady-state throughput in slices per time unit.
    pub throughput: f64,
    /// Period in seconds.
    pub period: f64,
    /// Slices broadcast per period.
    pub slices_per_period: usize,
    /// `throughput / lp_throughput`.
    pub efficiency: f64,
    /// Pipeline depth in periods.
    pub max_lag: usize,
    /// Transfers per period.
    pub transfers: usize,
}

/// Plain-data image of a whole [`Session`] for the service snapshot: the
/// spec (from which platform and trace are regenerated), the canonical
/// solver snapshot, the schedule parts, and the step log.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionImage {
    /// The session's workload description.
    pub spec: SessionSpec,
    /// Trace steps already executed.
    pub steps_done: usize,
    /// Canonicalized cut-generation state.
    pub solver: SessionSnapshot,
    /// Current schedule, if a step has produced one.
    pub schedule: Option<ScheduleParts>,
    /// Per-step statistics so far.
    pub log: Vec<StepStats>,
}

/// A live session.
pub struct Session {
    /// The workload description (immutable after creation).
    pub spec: SessionSpec,
    trace: DriftTrace,
    solver: CutGenSession,
    schedule: Option<PeriodicSchedule>,
    steps_done: usize,
    log: Vec<StepStats>,
}

/// Regenerates the base platform of `spec` (a pure function of the spec).
pub fn generate_platform(spec: &SessionSpec) -> Platform {
    let mut rng = StdRng::seed_from_u64(spec.platform_seed);
    match spec.family {
        PlatformFamily::Random { nodes, density } => {
            random_platform(&RandomPlatformConfig::paper(nodes, density), &mut rng)
        }
        PlatformFamily::Tiers { nodes, density } => {
            tiers_platform(&TiersConfig::paper(nodes, density), &mut rng)
        }
        PlatformFamily::Gaussian { nodes } => {
            gaussian_platform(&GaussianPlatformConfig::paper(nodes), &mut rng)
        }
    }
}

/// Regenerates the drift trace of `spec` (a pure function of the spec; the
/// broadcast source is node 0, as in the drift ablation binary).
pub fn generate_trace(spec: &SessionSpec) -> DriftTrace {
    let platform = generate_platform(spec);
    let config = if spec.churn {
        DriftConfig::with_churn(spec.drift_steps, spec.drift_seed)
    } else {
        DriftConfig::with_failures(spec.drift_steps, spec.drift_seed)
    };
    DriftTrace::generate(&platform, NodeId(0), &config)
}

impl Session {
    /// Creates the session: regenerates platform and trace, builds the
    /// cut-generation session on the trace's step-0 platform. `options`
    /// carries the digest-cache seed cuts when the service had a hit.
    pub fn create(spec: SessionSpec, options: CutGenOptions) -> Result<Session, ServiceError> {
        let trace = generate_trace(&spec);
        let solver = CutGenSession::new(
            &trace.platform_at(0),
            trace.source_at(0),
            spec.slice_size,
            options,
        )?;
        Ok(Session {
            spec,
            trace,
            solver,
            schedule: None,
            steps_done: 0,
            log: Vec::new(),
        })
    }

    /// Rebuilds a session from its snapshot image: regenerate the trace
    /// from the spec, restore the solver onto the platform of the step the
    /// image was taken at, reassemble the schedule. Malformed images fail
    /// with the owning crate's validation error, never a panic.
    pub fn restore(image: &SessionImage) -> Result<Session, ServiceError> {
        if image.steps_done > image.spec.drift_steps + 1 {
            return Err(ServiceError::Corrupt(
                "session image claims more steps than its trace has".into(),
            ));
        }
        let trace = generate_trace(&image.spec);
        let platform = trace.platform_at(image.steps_done.saturating_sub(1));
        let solver = CutGenSession::restore(&platform, &image.solver)?;
        let schedule = match &image.schedule {
            None => None,
            Some(parts) => Some(PeriodicSchedule::from_parts(&platform, parts)?),
        };
        Ok(Session {
            spec: image.spec,
            trace,
            solver,
            schedule,
            steps_done: image.steps_done,
            log: image.log.clone(),
        })
    }

    /// Captures *and canonicalizes* the session (see
    /// [`CutGenSession::snapshot`]): after this call the live session's
    /// future is bit-identical to that of a session restored from the
    /// returned image.
    pub fn snapshot(&mut self) -> SessionImage {
        let platform = self.trace.platform_at(self.steps_done.saturating_sub(1));
        SessionImage {
            spec: self.spec,
            steps_done: self.steps_done,
            solver: self.solver.snapshot(&platform),
            schedule: self.schedule.as_ref().map(|s| s.to_parts()),
            log: self.log.clone(),
        }
    }

    /// Trace steps already executed.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Total trace length (steps available).
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// The per-step log so far.
    pub fn log(&self) -> &[StepStats] {
        &self.log
    }

    /// True when the next trace step changes the node set (and must be
    /// driven by `NodeChurn` rather than `DriftStep`).
    pub fn next_step_is_churn(&self) -> bool {
        let step = self.steps_done;
        step > 0 && step < self.trace.len() && !self.trace.remap(step - 1, step).is_identity()
    }

    /// Why the next advance would be rejected, if it would be. `churn`
    /// says which command is asking.
    pub fn advance_rejection(&self, churn: bool) -> Option<String> {
        if self.steps_done >= self.trace.len() {
            return Some("trace exhausted".into());
        }
        match (churn, self.next_step_is_churn()) {
            (false, true) => Some("next step changes the node set: use NodeChurn".into()),
            (true, false) => Some("next step keeps the node set: use DriftStep".into()),
            _ => None,
        }
    }

    /// Executes the next trace step and appends its [`StepStats`] to the
    /// log. The caller has already checked
    /// [`advance_rejection`](Session::advance_rejection).
    pub fn advance(&mut self) -> Result<StepStats, ServiceError> {
        let step = self.steps_done;
        let platform = self.trace.platform_at(step);
        let source = self.trace.source_at(step);
        let config = SynthesisConfig::with_batch(self.spec.batch);
        let spec = MessageSpec::new(
            4.0 * self.spec.batch as f64 * self.spec.slice_size,
            self.spec.slice_size,
        );
        let remap = match step {
            0 => ChurnRemap::identity(platform.node_count(), platform.edge_count()),
            _ => self.trace.remap(step - 1, step),
        };
        let result = self.solver.solve_step_churn(&platform, &remap)?;
        let (schedule, report): (PeriodicSchedule, RepairReport) = match &self.schedule {
            None => {
                let s = synthesize_schedule(
                    &platform,
                    source,
                    &result.optimal,
                    self.spec.slice_size,
                    &config,
                )?;
                (s, RepairReport::default())
            }
            Some(prev) => resynthesize_schedule_churn(
                &platform,
                source,
                &result.optimal,
                self.spec.slice_size,
                &config,
                prev,
                &remap,
            )?,
        };
        let sim = simulate_schedule(&platform, &schedule, &spec);
        let stats = StepStats {
            step,
            tp: result.optimal.throughput,
            pivots: result.optimal.simplex_iterations,
            rounds: result.optimal.iterations,
            reused_cuts: result.reused_cuts,
            kept_trees: report.kept_trees,
            repair_ops: report.repair_ops(),
            grafted: report.grafted_nodes,
            pruned: report.pruned_nodes,
            efficiency: schedule.efficiency(),
            sim_tp: sim.batch_throughput(schedule.slices_per_period()),
        };
        self.schedule = Some(schedule);
        self.steps_done = step + 1;
        self.log.push(stats);
        Ok(stats)
    }

    /// Re-solves the current platform snapshot in place (the `Resolve`
    /// command): a warm resolve over unchanged coefficients, exercising
    /// the persistent basis. The caller has checked `steps_done > 0`.
    pub fn resolve(&mut self) -> Result<(f64, usize), ServiceError> {
        let platform = self.trace.platform_at(self.steps_done - 1);
        let result = self.solver.solve_step(&platform)?;
        Ok((result.optimal.throughput, result.optimal.simplex_iterations))
    }

    /// The binding cuts of the solver's current pool as node partitions —
    /// the digest cache's payload (empty before the first step).
    pub fn sharable_cuts(&self) -> Vec<Vec<bool>> {
        // The snapshotable capture exposes the cut pool as plain data;
        // capture (without canonicalizing) and keep the active cuts.
        self.solver
            .capture()
            .cuts
            .iter()
            .filter(|c| c.active)
            .map(|c| c.side.clone())
            .collect()
    }

    /// Schedule statistics for `QuerySchedule` (None before step 0).
    pub fn schedule_stats(&self) -> Option<ScheduleStats> {
        self.schedule.as_ref().map(|s| ScheduleStats {
            throughput: s.throughput(),
            period: s.period(),
            slices_per_period: s.slices_per_period(),
            efficiency: s.efficiency(),
            max_lag: s.max_lag(),
            transfers: s.transfers().len(),
        })
    }

    /// The platform digest of this session's base platform (step 0).
    pub fn platform_digest(&self) -> u64 {
        platform_digest(&self.trace.platform_at(0))
    }
}

/// Structural digest of a platform: node count, edge endpoints, and the
/// exact cost bits. Two platforms with equal digests describe the same
/// master LP, so binding cuts of one seed the other soundly (cuts are
/// node partitions, valid for any platform with the node count — the
/// digest match just makes them *useful*, not merely harmless).
pub fn platform_digest(platform: &Platform) -> u64 {
    let mut bytes: Vec<u8> = Vec::with_capacity(16 + platform.edge_count() * 56);
    bytes.extend_from_slice(&(platform.node_count() as u64).to_le_bytes());
    bytes.extend_from_slice(&(platform.edge_count() as u64).to_le_bytes());
    for e in platform.graph().edges() {
        bytes.extend_from_slice(&e.src.0.to_le_bytes());
        bytes.extend_from_slice(&e.dst.0.to_le_bytes());
        let c = platform.link_cost(e.id);
        for v in [
            c.alpha,
            c.beta,
            c.send_latency,
            c.send_per_byte,
            c.recv_latency,
            c.recv_per_byte,
        ] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    crate::wire::checksum(&bytes)
}
