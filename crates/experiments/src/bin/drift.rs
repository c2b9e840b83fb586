//! Dynamic platforms (ablations 6 and 8): traces of a changing platform,
//! solved per step by the cross-step warm-started cut-generation session
//! and repaired by incremental schedule re-synthesis, against the cold
//! per-step baseline.
//!
//! Every trace is walked by one loop, twice:
//!
//! * **warm** — one [`bcast_core::CutGenSession`] carries the simplex basis
//!   *and* the cut pool across steps (`solve_step_churn`), and
//!   `bcast_sched::resynthesize_schedule_churn` repairs the previous
//!   period's trees instead of rebuilding them. Both get the trace's remap
//!   from the previous step: the identity when the node set is unchanged,
//!   a real remap when processors joined or left (cut-pool remapping,
//!   in-place LP column add/delete, joiners grafted, leavers pruned);
//! * **cold** — every step re-solves the LP from scratch
//!   (`warm_start: false`, no carried cuts) and synthesizes a fresh
//!   schedule.
//!
//! The warm schedule is replayed through `bcast-sim` for its simulated
//! throughput. Two sections walk two kinds of trace:
//!
//! * **Ablation 6, drift** — for every platform family (Random-20,
//!   Tiers-40, Gaussian-20; `--quick` restricts to Tiers-20) a
//!   deterministic trace of multiplicative link-cost perturbations plus
//!   link failure/recovery events. Per step the table shows TP, simplex
//!   pivots, master rounds, reused cuts, schedule repair operations, and
//!   schedule efficiency; the footer shows the warm-vs-cold totals (the
//!   ablation number: total pivots must drop ≥ 5× on Tiers-40, asserted at
//!   test scale by `tests/dynamic_drift.rs`).
//! * **Ablation 8, node churn** — traces where processors also join and
//!   leave, swept over (join, leave) rate pairs; the table shows grafted
//!   and pruned nodes in place of the round counts. Every churn trace is
//!   seed-probed to exercise at least one join *and* one leave — including
//!   under `--quick`, so the CI smoke genuinely covers both event kinds
//!   (`tests/churn_drift.rs` asserts the equivalence and the pivot drop at
//!   test scale).
//!
//! ```text
//! cargo run --release -p bcast-experiments --bin drift -- [--configs N] [--seed S] [--quick] [--csv PATH] [--journal PATH]
//! ```

use bcast_core::optimal::cut_gen;
use bcast_core::{CutGenOptions, CutGenSession};
use bcast_experiments::{
    finish_journal_or_exit, install_journal_or_exit, write_csv_or_exit, AsciiTable, ExperimentArgs,
};
use bcast_net::NodeId;
use bcast_platform::drift::{ChurnRemap, DriftConfig, DriftEvent, DriftTrace};
use bcast_platform::generators::gaussian_field::{gaussian_platform, GaussianPlatformConfig};
use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
use bcast_platform::{MessageSpec, Platform};
use bcast_sched::{
    resynthesize_schedule_churn, synthesize_schedule, PeriodicSchedule, SynthesisConfig,
};
use bcast_sim::simulate_schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

const SLICE: f64 = 1.0e6;
const DRIFT_STEPS: usize = 10;
const CHURN_STEPS: usize = 8;
const BATCH: usize = 16;

/// Relative throughput disagreement between the warm and cold solves of
/// one step (the differential tests bound this at 1e-6; the journal
/// records it per step).
fn tp_rel_err(warm_tp: f64, cold_tp: f64) -> f64 {
    (warm_tp - cold_tp).abs() / cold_tp.abs().max(f64::MIN_POSITIVE)
}

/// The journal names of one ablation's walks: the `DriftStep.kind` (also
/// the CSV's `ablation` column) and the warm and cold timers.
struct Ablation {
    kind: &'static str,
    warm_timer: &'static str,
    cold_timer: &'static str,
}

const DRIFT: Ablation = Ablation {
    kind: "drift",
    warm_timer: "drift.warm",
    cold_timer: "drift.cold",
};

const CHURN: Ablation = Ablation {
    kind: "churn",
    warm_timer: "churn.warm",
    cold_timer: "churn.cold",
};

struct StepRecord {
    step: usize,
    tp: f64,
    warm_pivots: usize,
    cold_pivots: usize,
    warm_rounds: usize,
    cold_rounds: usize,
    reused_cuts: usize,
    repair_ops: usize,
    kept_trees: usize,
    grafted: usize,
    pruned: usize,
    efficiency: f64,
    sim_tp: f64,
}

/// A column of a per-step table: its header and its cell.
type Column = (&'static str, fn(&StepRecord) -> String);

const DRIFT_COLUMNS: [Column; 11] = [
    ("step", |r| r.step.to_string()),
    ("TP", |r| format!("{:.3}", r.tp)),
    ("warm piv", |r| r.warm_pivots.to_string()),
    ("cold piv", |r| r.cold_pivots.to_string()),
    ("w rounds", |r| r.warm_rounds.to_string()),
    ("c rounds", |r| r.cold_rounds.to_string()),
    ("cuts reused", |r| r.reused_cuts.to_string()),
    ("kept", |r| r.kept_trees.to_string()),
    ("repairs", |r| r.repair_ops.to_string()),
    ("sched eff", |r| format!("{:.3}", r.efficiency)),
    ("sim TP", |r| format!("{:.3}", r.sim_tp)),
];

const CHURN_COLUMNS: [Column; 11] = [
    ("step", |r| r.step.to_string()),
    ("TP", |r| format!("{:.3}", r.tp)),
    ("warm piv", |r| r.warm_pivots.to_string()),
    ("cold piv", |r| r.cold_pivots.to_string()),
    ("cuts reused", |r| r.reused_cuts.to_string()),
    ("kept", |r| r.kept_trees.to_string()),
    ("repairs", |r| r.repair_ops.to_string()),
    ("grafted", |r| r.grafted.to_string()),
    ("pruned", |r| r.pruned.to_string()),
    ("sched eff", |r| format!("{:.3}", r.efficiency)),
    ("sim TP", |r| format!("{:.3}", r.sim_tp)),
];

fn render(columns: &[Column], records: &[StepRecord]) -> String {
    let mut table = AsciiTable::new(columns.iter().map(|c| c.0).collect());
    for r in records {
        table.add_row(columns.iter().map(|c| (c.1)(r)).collect());
    }
    table.render()
}

/// The CSV row of one step; `rates` is the trace's (join, leave) rate
/// pair, zero on drift traces.
fn csv_row(
    ablation: &Ablation,
    family: &str,
    instance: usize,
    rates: (f64, f64),
    r: &StepRecord,
) -> Vec<String> {
    vec![
        ablation.kind.to_string(),
        family.to_string(),
        instance.to_string(),
        format!("{}", rates.0),
        format!("{}", rates.1),
        r.step.to_string(),
        format!("{}", r.tp),
        r.warm_pivots.to_string(),
        r.cold_pivots.to_string(),
        r.warm_rounds.to_string(),
        r.cold_rounds.to_string(),
        r.reused_cuts.to_string(),
        r.kept_trees.to_string(),
        r.repair_ops.to_string(),
        r.grafted.to_string(),
        r.pruned.to_string(),
        format!("{}", r.efficiency),
        format!("{}", r.sim_tp),
    ]
}

/// Warm-vs-cold totals over the steps after step 0 (step 0 is a cold
/// start for both sides and would dilute the comparison identically on
/// each).
#[derive(Default)]
struct Totals {
    warm_pivots: usize,
    cold_pivots: usize,
    warm_ms: f64,
    cold_ms: f64,
}

impl fmt::Display for Totals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "warm {} pivots vs cold {} pivots ({:.1}x drop), wall-clock warm {:.0} ms vs cold \
             {:.0} ms",
            self.warm_pivots,
            self.cold_pivots,
            self.cold_pivots as f64 / self.warm_pivots.max(1) as f64,
            self.warm_ms,
            self.cold_ms
        )
    }
}

type PlatformGenerator = Box<dyn Fn(u64) -> Platform>;

fn tiers(nodes: usize) -> PlatformGenerator {
    Box::new(move |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        tiers_platform(&TiersConfig::paper(nodes, 0.10), &mut rng)
    })
}

fn main() {
    let args = ExperimentArgs::from_env(3);
    install_journal_or_exit(&args.journal, "drift");
    // Results are byte-identical at any separation thread count. Every
    // family here is below the serial cut-off
    // (`cut_gen::PARALLEL_SEPARATION_MIN_WORK`), so its batches run on one
    // thread whatever this says; `tests/sharded_sessions.rs` covers sharded
    // session steps.
    let mut options = CutGenOptions::default();
    if let Some(threads) = args.separation_threads {
        options.separation_threads = threads;
    }
    println!("Ablation 6 — dynamic platforms: cross-step warm start + incremental schedule repair");
    println!(
        "({DRIFT_STEPS} drift steps per trace, lognormal sigma 0.15, 4% link failures, \
         batch B = {BATCH}, {} instance(s) per family)\n",
        args.configs
    );
    let families: Vec<(&str, PlatformGenerator)> = if args.quick {
        vec![("tiers-20", tiers(20))]
    } else {
        vec![
            (
                "random-20",
                Box::new(|seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    random_platform(&RandomPlatformConfig::paper(20, 0.12), &mut rng)
                }),
            ),
            ("tiers-40", tiers(40)),
            (
                "gaussian-20",
                Box::new(|seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    gaussian_platform(&GaussianPlatformConfig::paper(20), &mut rng)
                }),
            ),
        ]
    };

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (label, generate) in &families {
        let mut totals = Totals::default();
        for instance in 0..args.configs {
            let platform = generate(args.seed + 101 * instance as u64);
            let trace = DriftTrace::generate(
                &platform,
                NodeId(0),
                &DriftConfig::with_failures(DRIFT_STEPS, args.seed + instance as u64),
            );
            let records = walk(&trace, &options, &DRIFT, &mut totals);
            if instance == 0 {
                println!(
                    "{label} (instance 0):\n{}",
                    render(&DRIFT_COLUMNS, &records)
                );
            }
            for r in &records {
                csv_rows.push(csv_row(&DRIFT, label, instance, (0.0, 0.0), r));
            }
        }
        println!("{label} drift-step totals: {totals}\n");
    }
    // ---- Ablation 8: node churn (join/leave rate sweep). -----------------
    let (churn_label, churn_gen) = if args.quick {
        ("tiers-20", tiers(20))
    } else {
        ("tiers-40", tiers(40))
    };
    let rate_points: &[(f64, f64)] = if args.quick {
        &[(0.45, 0.35)]
    } else {
        &[(0.20, 0.10), (0.45, 0.35), (0.60, 0.50)]
    };
    println!(
        "Ablation 8 — node churn on {churn_label}: joins grafted / leaves pruned in place \
         ({CHURN_STEPS} churn steps per trace, every trace exercises ≥ 1 join and ≥ 1 leave)\n"
    );
    for (point, &(join_rate, leave_rate)) in rate_points.iter().enumerate() {
        let mut totals = Totals::default();
        let mut total_joins = 0usize;
        let mut total_leaves = 0usize;
        for instance in 0..args.configs {
            let platform = churn_gen(args.seed + 101 * instance as u64);
            let trace = churn_trace(
                &platform,
                join_rate,
                leave_rate,
                args.seed + 17 * point as u64 + instance as u64,
            );
            let (joins, leaves) = churn_events(&trace);
            total_joins += joins;
            total_leaves += leaves;
            let records = walk(&trace, &options, &CHURN, &mut totals);
            if instance == 0 {
                println!(
                    "{churn_label} join {join_rate:.2} / leave {leave_rate:.2} (instance 0):\n{}",
                    render(&CHURN_COLUMNS, &records)
                );
            }
            for r in &records {
                csv_rows.push(csv_row(
                    &CHURN,
                    churn_label,
                    instance,
                    (join_rate, leave_rate),
                    r,
                ));
            }
        }
        println!(
            "{churn_label} join {join_rate:.2} / leave {leave_rate:.2} churn-step totals: \
             {total_joins} joins, {total_leaves} leaves; {totals}\n"
        );
    }
    if let Some(path) = &args.csv {
        let header: Vec<String> = [
            "ablation",
            "family",
            "instance",
            "join_rate",
            "leave_rate",
            "step",
            "tp",
            "warm_pivots",
            "cold_pivots",
            "warm_rounds",
            "cold_rounds",
            "reused_cuts",
            "kept_trees",
            "repair_ops",
            "grafted_nodes",
            "pruned_nodes",
            "efficiency",
            "sim_tp",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        write_csv_or_exit(path, &header, &csv_rows);
    }
    finish_journal_or_exit();
}

/// Counts the trace's node-join and node-leave events.
fn churn_events(trace: &DriftTrace) -> (usize, usize) {
    let mut joins = 0usize;
    let mut leaves = 0usize;
    for step in 0..trace.len() {
        for event in &trace.step(step).events {
            match event {
                DriftEvent::NodeJoin(_) => joins += 1,
                DriftEvent::NodeLeave(_) => leaves += 1,
                _ => {}
            }
        }
    }
    (joins, leaves)
}

/// Generates a churn trace that exercises at least one join *and* one leave.
///
/// Leaves are reachability-guarded (a departure that would disconnect a
/// survivor is reverted), so on sparse Tiers topologies many candidate
/// leaves never land; this probes a bounded, deterministic seed window
/// until a trace with both event kinds appears so the ablation — and the
/// `--quick` CI smoke in particular — always measures genuine node churn.
fn churn_trace(platform: &Platform, join_rate: f64, leave_rate: f64, seed: u64) -> DriftTrace {
    for probe in 0..64u64 {
        let trace = DriftTrace::generate(
            platform,
            NodeId(0),
            &DriftConfig {
                join_rate,
                leave_rate,
                ..DriftConfig::with_failures(CHURN_STEPS, seed + 1000 * probe)
            },
        );
        let (joins, leaves) = churn_events(&trace);
        if joins > 0 && leaves > 0 {
            return trace;
        }
    }
    panic!("no seed in [{seed}, {seed} + 64000) produced both a join and a leave");
}

/// Walks one trace warm and cold (see the module docs), adds the steps
/// after step 0 to `totals`, and returns the per-step records.
fn walk(
    trace: &DriftTrace,
    options: &CutGenOptions,
    ablation: &Ablation,
    totals: &mut Totals,
) -> Vec<StepRecord> {
    let config = SynthesisConfig::with_batch(BATCH);
    let spec = MessageSpec::new(4.0 * BATCH as f64 * SLICE, SLICE);
    let snap0 = trace.platform_at(0);
    let mut session = CutGenSession::new(&snap0, trace.source_at(0), SLICE, options.clone())
        .expect("step-0 platform solvable");
    let mut previous: Option<PeriodicSchedule> = None;
    let mut records = Vec::with_capacity(trace.len());
    for step in 0..trace.len() {
        let snapshot = trace.platform_at(step);
        let source = trace.source_at(step);
        let remap = match step {
            0 => ChurnRemap::identity(snapshot.node_count(), snapshot.edge_count()),
            _ => trace.remap(step - 1, step),
        };
        let ((warm, schedule, report), warm_t) = bcast_obs::timed(ablation.warm_timer, || {
            let warm = session
                .solve_step_churn(&snapshot, &remap)
                .expect("warm step solvable");
            let (schedule, report) = match &previous {
                None => {
                    let s = synthesize_schedule(&snapshot, source, &warm.optimal, SLICE, &config)
                        .expect("synthesis succeeds");
                    (s, Default::default())
                }
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
            (warm, schedule, report)
        });
        let (cold, cold_t) = bcast_obs::timed(ablation.cold_timer, || {
            let cold = cut_gen::solve_with(
                &snapshot,
                source,
                SLICE,
                &CutGenOptions {
                    warm_start: false,
                    ..options.clone()
                },
            )
            .expect("cold step solvable");
            // Built (and timed) so the cold side pays the same synthesis
            // cost the warm side's repair is being compared against.
            let _cold_schedule =
                synthesize_schedule(&snapshot, source, &cold.optimal, SLICE, &config)
                    .expect("cold synthesis succeeds");
            cold
        });
        if step > 0 {
            totals.warm_pivots += warm.optimal.simplex_iterations;
            totals.cold_pivots += cold.optimal.simplex_iterations;
            totals.warm_ms += warm_t.as_secs_f64() * 1000.0;
            totals.cold_ms += cold_t.as_secs_f64() * 1000.0;
        }
        bcast_obs::emit_with(|| bcast_obs::Event::DriftStep {
            step: step as u64,
            kind: ablation.kind,
            warm_ns: warm_t.as_nanos() as u64,
            cold_ns: cold_t.as_nanos() as u64,
            tp_rel_err: tp_rel_err(warm.optimal.throughput, cold.optimal.throughput),
        });
        let sim = simulate_schedule(&snapshot, &schedule, &spec);
        records.push(StepRecord {
            step,
            tp: warm.optimal.throughput,
            warm_pivots: warm.optimal.simplex_iterations,
            cold_pivots: cold.optimal.simplex_iterations,
            warm_rounds: warm.optimal.iterations,
            cold_rounds: cold.optimal.iterations,
            reused_cuts: warm.reused_cuts,
            repair_ops: report.repair_ops(),
            kept_trees: report.kept_trees,
            grafted: report.grafted_nodes,
            pruned: report.pruned_nodes,
            efficiency: schedule.efficiency(),
            sim_tp: sim.batch_throughput(schedule.slices_per_period()),
        });
        previous = Some(schedule);
    }
    records
}
