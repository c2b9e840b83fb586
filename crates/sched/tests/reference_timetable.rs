//! The schedule timetable against its reference (`reference/mod.rs`, the
//! assembler that stored the matching rounds, the port busy totals and the
//! largest lag with the schedule). Every schedule that synthesis, a drift
//! repair with link failures and a churn repair produce, on Random, Tiers
//! and Gaussian platforms, at a fixed batch of 8 and at the batch synthesis
//! derives (4 to 96 slices), must have the reference's transfers (edge,
//! slice, lag, start and finish), period, largest lag, port utilisation of
//! every node and matching rounds, bit for bit.

mod reference;

use bcast_core::{CutGenOptions, CutGenSession};
use bcast_net::{EdgeId, NodeId};
use bcast_platform::drift::{DriftConfig, DriftEvent, DriftTrace};
use bcast_platform::generators::gaussian_field::{gaussian_platform, GaussianPlatformConfig};
use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
use bcast_platform::Platform;
use bcast_sched::{
    resynthesize_schedule_churn, synthesize_schedule, PeriodicSchedule, SynthesisConfig,
    MAX_SLICES_PER_PERIOD,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLICE: f64 = 1.0e6;

/// A transfer as plain bits: edge, slice, lag, start and finish.
type TransferBits = (EdgeId, usize, usize, u64, u64);

fn bits(edge: EdgeId, slice: usize, lag: usize, start: f64, finish: f64) -> TransferBits {
    (edge, slice, lag, start.to_bits(), finish.to_bits())
}

/// Asserts that `schedule`, assembled on `platform`, is the reference
/// timetable of its own parts, bit for bit.
fn assert_matches_reference(platform: &Platform, schedule: &PeriodicSchedule, what: &str) {
    let reference = reference::assemble(platform, &schedule.to_parts());
    let transfers: Vec<TransferBits> = schedule
        .transfers()
        .iter()
        .map(|t| bits(t.edge, t.slice, t.lag, t.start, t.finish))
        .collect();
    let expected: Vec<TransferBits> = reference
        .transfers
        .iter()
        .map(|t| bits(t.edge, t.slice, t.lag, t.start, t.finish))
        .collect();
    assert_eq!(transfers, expected, "{what}: transfers");
    assert_eq!(
        schedule.period().to_bits(),
        reference.period.to_bits(),
        "{what}: period"
    );
    assert_eq!(schedule.max_lag(), reference.max_lag, "{what}: max_lag");
    for u in platform.nodes() {
        let (send, recv) = schedule.port_utilisation(platform, u);
        let (busy_send, busy_recv) = (
            reference.send_busy[u.index()],
            reference.recv_busy[u.index()],
        );
        let expected = if reference.period > 0.0 {
            (busy_send / reference.period, busy_recv / reference.period)
        } else {
            (0.0, 0.0)
        };
        assert_eq!(
            (send.to_bits(), recv.to_bits()),
            (expected.0.to_bits(), expected.1.to_bits()),
            "{what}: port utilisation of {u}"
        );
    }
    assert_eq!(
        schedule.rounds(platform),
        reference.rounds,
        "{what}: rounds"
    );
}

/// How a schedule of a walk was made.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Made {
    Synthesis,
    /// A repair that kept trees across a step that kept the node set; true
    /// when the step failed or recovered a link.
    DriftRepair(bool),
    ChurnRepair,
    Rebuild,
}

/// Walks the trace `config` draws from `base` with one warm cut-generation
/// session, synthesizing and repairing under `synthesis`, checks every
/// schedule against the reference, and returns how each was made and its
/// batch.
fn walk_and_check(
    base: &Platform,
    synthesis: &SynthesisConfig,
    config: &DriftConfig,
    what: &str,
) -> Vec<(Made, usize)> {
    let trace = DriftTrace::generate(base, NodeId(0), config);
    let platform = trace.platform_at(0);
    let source = trace.source_at(0);
    let mut session =
        CutGenSession::new(&platform, source, SLICE, CutGenOptions::default()).unwrap();
    let optimal = session.solve_step(&platform).unwrap().optimal;
    let mut schedule = synthesize_schedule(&platform, source, &optimal, SLICE, synthesis).unwrap();
    assert_matches_reference(&platform, &schedule, &format!("{what} step 0"));
    let mut made = vec![(Made::Synthesis, schedule.slices_per_period())];
    for step in 1..trace.len() {
        let platform = trace.platform_at(step);
        let remap = trace.remap(step - 1, step);
        let optimal = session.solve_step_churn(&platform, &remap).unwrap().optimal;
        let (repaired, report) = resynthesize_schedule_churn(
            &platform,
            trace.source_at(step),
            &optimal,
            SLICE,
            synthesis,
            &schedule,
            &remap,
        )
        .unwrap();
        assert_matches_reference(&platform, &repaired, &format!("{what} step {step}"));
        let link_events = trace
            .step(step)
            .events
            .iter()
            .any(|e| matches!(e, DriftEvent::LinkFailed(_) | DriftEvent::LinkRecovered(_)));
        let kind = if report.full_rebuild || report.kept_trees == 0 {
            Made::Rebuild
        } else if remap.is_identity() {
            Made::DriftRepair(link_events)
        } else {
            Made::ChurnRepair
        };
        made.push((kind, repaired.slices_per_period()));
        schedule = repaired;
    }
    made
}

#[test]
fn timetables_match_the_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(2025);
    let families = [
        (
            "random",
            random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng),
        ),
        (
            "tiers",
            tiers_platform(&TiersConfig::paper(14, 0.10), &mut rng),
        ),
        (
            "gaussian",
            gaussian_platform(&GaussianPlatformConfig::paper(12), &mut rng),
        ),
    ];
    let batches = [
        ("batch 8", SynthesisConfig::with_batch(8)),
        ("derived batch", SynthesisConfig::default()),
    ];
    let mut made = Vec::new();
    for (i, (family, base)) in families.iter().enumerate() {
        let seed = 500 + i as u64;
        for (trace, config) in [
            ("failures", DriftConfig::with_failures(6, seed)),
            ("churn", DriftConfig::with_churn(6, seed)),
        ] {
            for (batch, synthesis) in &batches {
                let what = format!("{family} {trace} {batch}");
                made.extend(walk_and_check(base, synthesis, &config, &what));
            }
        }
    }
    for kind in [Made::Synthesis, Made::DriftRepair(true), Made::ChurnRepair] {
        assert!(
            made.iter().any(|&(k, _)| k == kind),
            "no schedule was made by {kind:?}"
        );
    }
    let largest = made.iter().map(|&(_, b)| b).max();
    assert_eq!(
        largest,
        Some(MAX_SLICES_PER_PERIOD),
        "no walk reached the batch cap"
    );
}
