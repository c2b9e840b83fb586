//! Fork differential for the cut-generation session's capture and restore.
//!
//! At every step boundary of a drift trace and of a churn trace, on all
//! three platform families, the live [`CutGenSession`] is forked through
//! `CutGenSession::restore(platform, &session.capture())`, and the fork is
//! driven through the rest of the trace. Every [`CutGenResult`] of the
//! fork must equal the live session's bit for bit: throughput and edge-load
//! bits, pivots, rounds, cut counts, reused cuts, skipped separations and
//! binding cuts. A capture is therefore a read: restoring it continues the
//! live session exactly, which is what lets the service snapshot at any
//! cadence without changing an output bit.

use broadcast_trees::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLICE: f64 = 1.0e6;
const STEPS: usize = 8;

/// Everything a step returns, with every float as its bit pattern.
#[derive(Debug, PartialEq)]
struct StepBits {
    throughput: u64,
    edge_load: Vec<u64>,
    pivots: usize,
    rounds: usize,
    cuts: usize,
    purged_cuts: usize,
    reused_cuts: usize,
    skipped_separations: usize,
    binding_cuts: Vec<Vec<bool>>,
}

impl StepBits {
    fn of(result: &CutGenResult) -> StepBits {
        let optimal = &result.optimal;
        StepBits {
            throughput: optimal.throughput.to_bits(),
            edge_load: optimal.edge_load.iter().map(|l| l.to_bits()).collect(),
            pivots: optimal.simplex_iterations,
            rounds: optimal.iterations,
            cuts: optimal.cuts,
            purged_cuts: optimal.purged_cuts,
            reused_cuts: result.reused_cuts,
            skipped_separations: result.skipped_separations,
            binding_cuts: result
                .binding_cuts
                .iter()
                .map(|c| c.source_side.clone())
                .collect(),
        }
    }
}

/// Solves step `step` of `trace` on `session`, through the step's remap
/// (the identity on a drift step), exactly as the service does.
fn solve_step(session: &mut CutGenSession, trace: &DriftTrace, step: usize) -> StepBits {
    let platform = trace.platform_at(step);
    let result = match step {
        0 => session.solve_step(&platform),
        _ => session.solve_step_churn(&platform, &trace.remap(step - 1, step)),
    };
    StepBits::of(&result.expect("trace step solvable"))
}

/// Walks `trace` live, forks a restored session at every step boundary,
/// and checks each fork's remaining steps against the live ones.
fn fork_walk(label: &str, trace: &DriftTrace) {
    let mut live = CutGenSession::new(
        &trace.platform_at(0),
        trace.source_at(0),
        SLICE,
        CutGenOptions::default(),
    )
    .expect("step-0 platform solvable");
    let mut forks = Vec::with_capacity(trace.len());
    let mut reference = Vec::with_capacity(trace.len());
    for step in 0..trace.len() {
        // The platform of the last solved step carries the session's
        // topology (the step-0 platform before the first solve).
        let platform = trace.platform_at(step.saturating_sub(1));
        let fork = CutGenSession::restore(&platform, &live.capture()).expect("a capture restores");
        forks.push((step, fork));
        reference.push(solve_step(&mut live, trace, step));
    }
    for (from, mut fork) in forks {
        for (step, want) in reference.iter().enumerate().skip(from) {
            let got = solve_step(&mut fork, trace, step);
            assert_eq!(
                &got, want,
                "{label}: the session restored before step {from} differs at step {step}"
            );
        }
    }
}

#[test]
fn restored_sessions_continue_bit_for_bit() {
    let mut families: Vec<(&str, Platform)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(7024);
    families.push((
        "random-16",
        random_platform(&RandomPlatformConfig::paper(16, 0.12), &mut rng),
    ));
    let mut rng = StdRng::seed_from_u64(7025);
    families.push((
        "tiers-20",
        tiers_platform(&TiersConfig::paper(20, 0.10), &mut rng),
    ));
    let mut rng = StdRng::seed_from_u64(7026);
    families.push((
        "gaussian-16",
        gaussian_platform(&GaussianPlatformConfig::paper(16), &mut rng),
    ));
    let mut churned = 0usize;
    for (i, (label, platform)) in families.iter().enumerate() {
        for seed in (0..3).map(|k| 0xF0A1 + 16 * k + i as u64) {
            let drift = DriftTrace::generate(
                platform,
                NodeId(0),
                &DriftConfig::with_failures(STEPS, seed),
            );
            fork_walk(&format!("{label} drift {seed:#x}"), &drift);
            let churn =
                DriftTrace::generate(platform, NodeId(0), &DriftConfig::with_churn(STEPS, seed));
            churned += (1..churn.len())
                .filter(|&step| !churn.remap(step - 1, step).is_identity())
                .count();
            fork_walk(&format!("{label} churn {seed:#x}"), &churn);
        }
    }
    assert!(churned > 0, "no churn trace changed its node set");
}
