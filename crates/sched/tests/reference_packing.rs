//! The arborescence packing against its reference (`reference/pack.rs`,
//! the packing whose every candidate check is a cold max-flow). On the
//! rounded multiplicities of every step of the reference-timetable walks
//! (Random, Tiers and Gaussian platforms, a drift trace with link failures
//! and a churn trace each, at a fixed batch of 8 and at the derived batch),
//! on repair-style residuals of them, and on capacities that violate
//! Edmonds' condition, `pack_arborescences` must return the reference's
//! trees, tree by tree and edge by edge, or its error.

#[path = "reference/pack.rs"]
mod reference_pack;

use bcast_core::{CutGenOptions, CutGenSession, OptimalThroughput};
use bcast_net::{EdgeId, NodeId};
use bcast_platform::drift::{DriftConfig, DriftTrace};
use bcast_platform::generators::gaussian_field::{gaussian_platform, GaussianPlatformConfig};
use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
use bcast_platform::Platform;
use bcast_sched::{
    pack_arborescences, resynthesize_schedule_churn, round_loads, synthesize_schedule, SchedError,
    SynthesisConfig, MAX_SLICES_PER_PERIOD,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLICE: f64 = 1.0e6;

/// Packs `count` trees into `capacities` with both packers, asserts that
/// they agree, and returns the trees (or the error).
fn pack_both(
    platform: &Platform,
    source: NodeId,
    capacities: &[u32],
    count: usize,
    what: &str,
) -> Result<Vec<Vec<EdgeId>>, SchedError> {
    let packed = pack_arborescences(platform, source, capacities, count);
    let expected = reference_pack::pack(platform, source, capacities, count);
    match (&packed, &expected) {
        (Ok(trees), Ok(reference)) => {
            assert_eq!(trees.len(), reference.len(), "{what}: tree count");
            for (j, (tree, reference)) in trees.iter().zip(reference).enumerate() {
                assert_eq!(tree, reference, "{what}: tree {j}");
            }
        }
        _ => assert_eq!(packed, expected, "{what}: result"),
    }
    packed
}

/// Packs the rounded multiplicities of one walk step with both packers,
/// then repair-style residuals: the multiplicities less the edges of the
/// first `B − k` trees, packing the `k` trees a repair would rebuild, for
/// `k` of 1 and `⌈B/2⌉`.
fn check_step(
    platform: &Platform,
    source: NodeId,
    optimal: &OptimalThroughput,
    batch: usize,
    what: &str,
) {
    let rounded = round_loads(
        platform,
        source,
        &optimal.edge_load,
        optimal.throughput,
        SLICE,
        Some(batch),
    )
    .unwrap();
    let multiplicity = &rounded.multiplicity;
    let trees = pack_both(platform, source, multiplicity, batch, what)
        .unwrap_or_else(|e| panic!("{what}: the rounded loads do not pack: {e}"));
    let mut ks = vec![1, batch.div_ceil(2)];
    ks.dedup();
    for k in ks.into_iter().filter(|&k| k < batch) {
        let mut residual = multiplicity.clone();
        for &e in trees[..batch - k].iter().flatten() {
            residual[e.index()] -= 1;
        }
        let what = format!("{what}, residual packing {k} of {batch}");
        pack_both(platform, source, &residual, k, &what)
            .unwrap_or_else(|e| panic!("{what}: the residual does not pack: {e}"));
    }
}

/// Walks the trace `config` draws from `base` as the reference-timetable
/// suite does (one warm cut-generation session; synthesis, then a repair
/// per step under `synthesis`) and checks the packings of every step at
/// that step's batch. Returns the largest batch.
fn walk_and_check(
    base: &Platform,
    synthesis: &SynthesisConfig,
    config: &DriftConfig,
    what: &str,
) -> usize {
    let trace = DriftTrace::generate(base, NodeId(0), config);
    let platform = trace.platform_at(0);
    let source = trace.source_at(0);
    let mut session =
        CutGenSession::new(&platform, source, SLICE, CutGenOptions::default()).unwrap();
    let optimal = session.solve_step(&platform).unwrap().optimal;
    let mut schedule = synthesize_schedule(&platform, source, &optimal, SLICE, synthesis).unwrap();
    let batch = schedule.slices_per_period();
    check_step(
        &platform,
        source,
        &optimal,
        batch,
        &format!("{what} step 0"),
    );
    let mut largest = batch;
    for step in 1..trace.len() {
        let platform = trace.platform_at(step);
        let source = trace.source_at(step);
        let remap = trace.remap(step - 1, step);
        let optimal = session.solve_step_churn(&platform, &remap).unwrap().optimal;
        // A repair packs at the previous batch; a full rebuild derives its
        // own, which the repaired schedule reports either way.
        schedule = resynthesize_schedule_churn(
            &platform, source, &optimal, SLICE, synthesis, &schedule, &remap,
        )
        .unwrap()
        .0;
        let batch = schedule.slices_per_period();
        let what = format!("{what} step {step}");
        check_step(&platform, source, &optimal, batch, &what);
        largest = largest.max(batch);
    }
    largest
}

#[test]
fn packings_match_the_reference_tree_by_tree() {
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
    let mut largest = 0;
    for (i, (family, base)) in families.iter().enumerate() {
        let seed = 500 + i as u64;
        for (trace, config) in [
            ("failures", DriftConfig::with_failures(6, seed)),
            ("churn", DriftConfig::with_churn(6, seed)),
        ] {
            for (batch, synthesis) in &batches {
                let what = format!("{family} {trace} {batch}");
                largest = largest.max(walk_and_check(base, synthesis, &config, &what));
            }
        }
    }
    assert_eq!(
        largest, MAX_SLICES_PER_PERIOD,
        "no walk reached the batch cap"
    );
}

/// Capacities that violate Edmonds' condition: more trees than the
/// source's out-capacity, so no destination has the max-flow. Both
/// packers must fail on the same tree.
#[test]
fn a_violated_edmonds_condition_fails_alike() {
    let mut rng = StdRng::seed_from_u64(2025);
    let platform = random_platform(&RandomPlatformConfig::paper(12, 0.15), &mut rng);
    let source = NodeId(0);
    let capacities: Vec<u32> = platform.edges().map(|e| 1 + e.index() as u32 % 3).collect();
    let out_capacity: u32 = platform
        .graph()
        .out_edges(source)
        .map(|e| capacities[e.id.index()])
        .sum();
    let count = out_capacity as usize + 1;
    let packed = pack_both(&platform, source, &capacities, count, "violated");
    assert_eq!(packed, Err(SchedError::PackingFailed { tree: 0 }));
}
