//! A seeded sweep of drift and churn traces through the warm pipeline.
//!
//! The hand-picked suites (`dynamic_drift.rs`, `churn_drift.rs`) walk a few
//! traces each. This sweep walks many: all three platform families at 10–14
//! nodes, drift traces with link failures and churn traces with joins and
//! leaves, each on its own seed. Every trace goes through
//! `common::differential_walk`, so at every step the warm session's
//! throughput equals a cold solve's at 1e-6, the warm loads carry it to
//! every destination, and the repaired schedule validates — with no error
//! and no panic. Every third trace is also replayed through the simulator
//! (`common::replay_walk`). Along the way the warm master LP takes its
//! edit paths (cut appends and purges, port-row updates, column growth and
//! deletion, binding-row deletes) in far more orders than the hand-picked
//! suites reach.
//!
//! The default sweep walks 12 traces. The large one, 300 traces, is
//! ignored by default:
//!
//! ```text
//! cargo test --release -p broadcast-trees --test trace_sweep -- --ignored
//! ```

mod common;

use broadcast_trees::prelude::*;
use common::{differential_walk, replay_walk};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Schedule batch size of every walk.
const BATCH: usize = 8;

/// Walks `count` traces of `steps` steps, trace `k` on seed
/// `first_seed + k` (see [`walk_trace`]). Every trace is walked; the sweep
/// fails at the end, naming each trace that failed.
fn sweep(first_seed: u64, count: u64, steps: usize) {
    let failed: Vec<String> = (0..count)
        .filter(|&k| std::panic::catch_unwind(|| walk_trace(first_seed + k, k, steps)).is_err())
        .map(|k| format!("trace {k} (seed {})", first_seed + k))
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {count} traces failed: {failed:?}",
        failed.len()
    );
}

/// Trace `k` of a sweep: family `k mod 3` at `10 + k mod 5` nodes, a churn
/// trace when `k / 3` is odd and a drift trace with link failures
/// otherwise, with `seed` drawing both the platform and the trace.
fn walk_trace(seed: u64, k: u64, steps: usize) {
    let nodes = 10 + (k % 5) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let (family, platform) = match k % 3 {
        0 => (
            "random",
            random_platform(&RandomPlatformConfig::paper(nodes, 0.15), &mut rng),
        ),
        1 => (
            "tiers",
            tiers_platform(&TiersConfig::paper(nodes, 0.10), &mut rng),
        ),
        _ => (
            "gaussian",
            gaussian_platform(&GaussianPlatformConfig::paper(nodes), &mut rng),
        ),
    };
    let churn = (k / 3) % 2 == 1;
    let config = if churn {
        DriftConfig::with_churn(steps, seed)
    } else {
        DriftConfig::with_failures(steps, seed)
    };
    let trace = DriftTrace::generate(&platform, NodeId(0), &config);
    let kind = if churn { "churn" } else { "drift" };
    differential_walk(
        &format!("{family}-{nodes} {kind} seed {seed}"),
        &trace,
        BATCH,
    );
    if k % 3 == 2 {
        replay_walk(&trace, BATCH);
    }
}

/// Twelve traces: each family with drift and with churn, twice over.
#[test]
fn seeded_drift_and_churn_traces_keep_warm_equal_to_cold() {
    sweep(2200, 12, 6);
}

/// 300 traces of 8 steps, 50 per family and trace kind.
#[test]
#[ignore = "about 10 s in release: run with --ignored"]
fn three_hundred_seeded_traces_keep_warm_equal_to_cold() {
    sweep(10_000, 300, 8);
}
