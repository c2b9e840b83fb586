//! The differential walk shared by the drift (`dynamic_drift.rs`) and
//! churn (`churn_drift.rs`) suites.
//!
//! A cost-drift step is a churn step whose remap is the identity, and
//! `DriftTrace::remap` returns that identity on every step of a churn-free
//! trace. So one walk, built on `solve_step_churn` and
//! `resynthesize_schedule_churn`, covers both kinds of trace.

use broadcast_trees::core::optimal::cut_gen;
use broadcast_trees::prelude::*;

pub const SLICE: f64 = 1.0e6;

fn assert_rel_close(a: f64, b: f64, tol: f64, what: &str) {
    assert!(
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-12),
        "{what}: warm {a} vs cold {b}"
    );
}

/// Cold reference for one snapshot: a from-scratch cut-generation solve.
fn cold_solve(platform: &Platform, source: NodeId) -> CutGenResult {
    cut_gen::solve_with(
        platform,
        source,
        SLICE,
        &CutGenOptions {
            warm_start: false,
            ..CutGenOptions::default()
        },
    )
    .expect("cold step solvable")
}

/// Walks `trace` with the warm pipeline — one [`CutGenSession`] carried
/// across steps through each step's remap, the previous schedule repaired
/// — and checks at every step:
///
/// * warm ≡ cold throughput at 1e-6 relative;
/// * the warm edge loads live in the snapshot's edge-id space and carry
///   the throughput to every destination;
/// * the repaired schedule and a fresh cold schedule both validate, the
///   repair keeps the batch size and, short of a full rebuild, every tree;
/// * a step that keeps the node set reuses cuts from the previous step.
///
/// Returns `(warm_pivots, cold_pivots)` summed over the steps after step
/// 0, which is a cold start for both sides.
pub fn differential_walk(label: &str, trace: &DriftTrace, batch: usize) -> (usize, usize) {
    let config = SynthesisConfig::with_batch(batch);
    let mut session = CutGenSession::new(
        &trace.platform_at(0),
        trace.source_at(0),
        SLICE,
        CutGenOptions::default(),
    )
    .expect("step-0 platform solvable");
    let mut previous: Option<PeriodicSchedule> = None;
    let mut warm_pivots = 0usize;
    let mut cold_pivots = 0usize;
    for step in 0..trace.len() {
        let snapshot = trace.platform_at(step);
        let source = trace.source_at(step);
        let remap = trace.remap(step.saturating_sub(1), step);
        let warm = session
            .solve_step_churn(&snapshot, &remap)
            .expect("warm step solvable");
        let cold = cold_solve(&snapshot, source);
        assert_rel_close(
            warm.optimal.throughput,
            cold.optimal.throughput,
            1e-6,
            &format!("{label} step {step} throughput"),
        );
        assert_eq!(
            warm.optimal.edge_load.len(),
            snapshot.edge_count(),
            "{label} step {step}: edge loads live in a stale id space"
        );
        // The warm loads must support the claimed throughput per
        // destination (primal feasibility of the full cut LP on the
        // drifted or churned snapshot).
        let (w, flow) = warm.optimal.min_destination_flow(&snapshot, source);
        assert!(
            flow >= warm.optimal.throughput * (1.0 - 1e-5),
            "{label} step {step}: destination {w} flow {flow} < TP {}",
            warm.optimal.throughput
        );
        // Warm side: repair the previous period through the remap. Cold
        // side: synthesize fresh. Both must validate on the snapshot.
        let (schedule, report) = match &previous {
            None => (
                synthesize_schedule(&snapshot, source, &warm.optimal, SLICE, &config)
                    .expect("synthesis succeeds"),
                RepairReport::default(),
            ),
            Some(prev) => resynthesize_schedule_churn(
                &snapshot,
                source,
                &warm.optimal,
                SLICE,
                &config,
                prev,
                &remap,
            )
            .expect("repair succeeds"),
        };
        schedule
            .validate(&snapshot)
            .unwrap_or_else(|e| panic!("{label} step {step}: repaired schedule invalid: {e}"));
        assert_eq!(
            schedule.slices_per_period(),
            batch,
            "{label} step {step}: repair changed the batch size"
        );
        if step > 0 && !report.full_rebuild {
            assert_eq!(
                report.kept_trees + report.rebuilt_trees,
                batch,
                "{label} step {step}: repair lost trees ({report:?})"
            );
        }
        let cold_schedule = synthesize_schedule(&snapshot, source, &cold.optimal, SLICE, &config)
            .expect("cold synthesis succeeds");
        cold_schedule
            .validate(&snapshot)
            .unwrap_or_else(|e| panic!("{label} step {step}: cold schedule invalid: {e}"));
        if step > 0 {
            warm_pivots += warm.optimal.simplex_iterations;
            cold_pivots += cold.optimal.simplex_iterations;
            // A leave can kill every cut in the pool; a step that keeps the
            // node set cannot.
            if remap.is_identity() {
                assert!(
                    warm.reused_cuts > 0,
                    "{label} step {step}: the session reused no cuts"
                );
            }
        }
        previous = Some(schedule);
    }
    (warm_pivots, cold_pivots)
}

/// Walks `trace` like [`differential_walk`] (warm side only) and checks
/// that the simulator replays each step's repaired schedule at the
/// schedule's own throughput, which never beats the LP bound.
pub fn replay_walk(trace: &DriftTrace, batch: usize) {
    let config = SynthesisConfig::with_batch(batch);
    let spec = MessageSpec::new(5.0 * batch as f64 * SLICE, SLICE);
    let mut session = CutGenSession::new(
        &trace.platform_at(0),
        trace.source_at(0),
        SLICE,
        CutGenOptions::default(),
    )
    .expect("step-0 platform solvable");
    let mut previous: Option<PeriodicSchedule> = None;
    for step in 0..trace.len() {
        let snapshot = trace.platform_at(step);
        let source = trace.source_at(step);
        let remap = trace.remap(step.saturating_sub(1), step);
        let optimal = session
            .solve_step_churn(&snapshot, &remap)
            .expect("solvable")
            .optimal;
        let schedule = match &previous {
            None => synthesize_schedule(&snapshot, source, &optimal, SLICE, &config)
                .expect("synthesis succeeds"),
            Some(prev) => {
                resynthesize_schedule_churn(
                    &snapshot, source, &optimal, SLICE, &config, prev, &remap,
                )
                .expect("repair succeeds")
                .0
            }
        };
        let report = simulate_schedule(&snapshot, &schedule, &spec);
        let simulated = report.batch_throughput(batch);
        assert_rel_close(
            simulated,
            schedule.throughput(),
            1e-6,
            &format!("step {step} simulated throughput"),
        );
        assert!(
            schedule.efficiency() <= 1.0 + 1e-6,
            "step {step}: schedule beats the LP bound"
        );
        previous = Some(schedule);
    }
}
