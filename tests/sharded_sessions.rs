//! Sharded separation inside cross-step sessions.
//!
//! A separation batch is sharded across
//! [`CutGenOptions::separation_threads`] workers only when its work —
//! max-flows × platform edges — reaches
//! `cut_gen::PARALLEL_SEPARATION_MIN_WORK`; smaller batches run on the
//! calling thread. The `drift` experiment's quick smoke walks Tiers-20
//! traces, far below that, so this suite walks a link-drift trace and a
//! node-churn trace of a Tiers-60 platform, whose warm steps do shard, with
//! one and with four separation threads. Every step's result must be bit
//! for bit the same. The walks run with a journal installed, as the smoke
//! does: the four-thread walks must count sharded batches after step 0,
//! and the journal must pass the schema check and record them.

use broadcast_trees::core::optimal::cut_gen;
use broadcast_trees::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLICE: f64 = 1.0e6;

/// The `cut_gen.parallel_batches` counter of the instrumentation sink.
fn parallel_batches() -> u64 {
    bcast_obs::counters_snapshot()
        .iter()
        .find(|(name, _)| *name == bcast_obs::names::CUTGEN_PARALLEL_BATCHES)
        .map_or(0, |&(_, v)| v)
}

/// Walks `trace` with one session on `threads` separation threads, as the
/// `drift` experiment's warm side does. Returns every step's result and the
/// sharded batches counted after step 0.
fn walk(trace: &DriftTrace, threads: usize) -> (Vec<CutGenResult>, u64) {
    let options = CutGenOptions {
        separation_threads: threads,
        ..CutGenOptions::default()
    };
    let mut session = CutGenSession::new(&trace.platform_at(0), trace.source_at(0), SLICE, options)
        .expect("step-0 platform solvable");
    let mut results = Vec::new();
    let mut warm_batches = 0;
    for step in 0..trace.len() {
        let snapshot = trace.platform_at(step);
        let before = parallel_batches();
        let result = if step == 0 {
            session.solve_step(&snapshot)
        } else {
            session.solve_step_churn(&snapshot, &trace.remap(step - 1, step))
        }
        .expect("step solvable");
        if step > 0 {
            warm_batches += parallel_batches() - before;
        }
        results.push(result);
    }
    (results, warm_batches)
}

fn assert_bit_identical(label: &str, serial: &[CutGenResult], sharded: &[CutGenResult]) {
    assert_eq!(serial.len(), sharded.len());
    for (step, (a, b)) in serial.iter().zip(sharded).enumerate() {
        let what = format!("{label} step {step}");
        assert_eq!(
            a.optimal.throughput.to_bits(),
            b.optimal.throughput.to_bits(),
            "{what}: throughput"
        );
        let bits = |r: &CutGenResult| -> Vec<u64> {
            r.optimal.edge_load.iter().map(|l| l.to_bits()).collect()
        };
        assert_eq!(bits(a), bits(b), "{what}: edge loads");
        assert_eq!(a.optimal.iterations, b.optimal.iterations, "{what}: rounds");
        assert_eq!(a.optimal.cuts, b.optimal.cuts, "{what}: cuts");
        assert_eq!(
            a.optimal.purged_cuts, b.optimal.purged_cuts,
            "{what}: purged"
        );
        assert_eq!(
            a.optimal.simplex_iterations, b.optimal.simplex_iterations,
            "{what}: pivots"
        );
        assert_eq!(a.reused_cuts, b.reused_cuts, "{what}: reused cuts");
        assert_eq!(
            a.skipped_separations, b.skipped_separations,
            "{what}: skipped separations"
        );
        assert_eq!(a.binding_cuts, b.binding_cuts, "{what}: binding cuts");
    }
}

#[test]
fn warm_drift_and_churn_steps_shard_bit_identically() {
    let mut rng = StdRng::seed_from_u64(60);
    let platform = tiers_platform(&TiersConfig::paper(60, 0.08), &mut rng);
    let work = (platform.node_count() - 1) * platform.edge_count();
    assert!(
        work >= cut_gen::PARALLEL_SEPARATION_MIN_WORK,
        "a full batch's work {work} is below the serial cut-off"
    );
    let drift = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_failures(6, 6001));
    let churn = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_churn(6, 6002));
    let events = |kind: fn(&DriftEvent) -> bool| {
        (0..churn.len())
            .flat_map(|s| churn.step(s).events.iter())
            .filter(|e| kind(e))
            .count()
    };
    assert!(
        events(|e| matches!(e, DriftEvent::NodeJoin(_))) > 0,
        "no join"
    );
    assert!(
        events(|e| matches!(e, DriftEvent::NodeLeave(_))) > 0,
        "no leave"
    );

    let path = std::env::temp_dir().join(format!(
        "bcast_sharded_sessions_{}.jsonl",
        std::process::id()
    ));
    bcast_obs::install_journal(&path, "sharded-sessions-test").expect("journal installs");
    for (label, trace) in [("drift", &drift), ("churn", &churn)] {
        let (serial, _) = walk(trace, 1);
        let (sharded, warm_batches) = walk(trace, 4);
        assert_bit_identical(label, &serial, &sharded);
        assert!(
            warm_batches > 0,
            "{label}: no warm step sharded its separation batch"
        );
    }
    bcast_obs::flush_journal().expect("journal flushes");
    bcast_obs::reset_metrics();
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let _ = std::fs::remove_file(&path);
    bcast_obs::report::check(&text).expect("journal passes the schema check");
    let journaled = bcast_obs::report::build_report(&text)
        .counters
        .iter()
        .find(|(name, _)| name == bcast_obs::names::CUTGEN_PARALLEL_BATCHES)
        .map_or(0, |&(_, v)| v);
    assert!(journaled > 0, "the journal records no sharded batch");
}
