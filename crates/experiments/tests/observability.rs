//! Integration tests of the `bcast-obs` instrumentation layer as the
//! experiment binaries use it: the disabled-overhead guard, the journal
//! golden (bit-identical across runs after scrubbing wall-clock fields),
//! the `solver_report` contract (schema check, span coverage and the sched
//! spans and max-flow counter) on a real drift walk, the schedule-repair
//! label on a churn walk, and the live sizes an `lp_solve` record reports.
//!
//! The obs sink is process-global, so every test serializes on [`LOCK`]
//! and leaves the sink disabled and reset behind itself.

use bcast_core::optimal::cut_gen;
use bcast_core::optimal::cut_gen::CutGenSession;
use bcast_core::CutGenOptions;
use bcast_lp::{ConstraintOp, LpProblem, Sense, SimplexState, VarId};
use bcast_net::NodeId;
use bcast_obs::{names, report};
use bcast_platform::drift::{DriftConfig, DriftTrace};
use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
use bcast_platform::Platform;
use bcast_sched::{
    resynthesize_schedule, resynthesize_schedule_churn, synthesize_schedule, PeriodicSchedule,
    SynthesisConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::Instant;

/// Serializes tests that toggle the process-global obs sink.
static LOCK: Mutex<()> = Mutex::new(());

const SLICE: f64 = 1.0e6;

fn tiers(nodes: usize, density: f64, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    tiers_platform(&TiersConfig::paper(nodes, density), &mut rng)
}

/// The deterministic workload behind the golden and coverage tests: a
/// short Tiers-40 drift walk through the full pipeline (warm cut
/// generation, schedule synthesis + repair), the same shape as one `drift`
/// trace at test scale. Wrapped in a single top-level span so the span
/// tree accounts for (nearly) the whole run.
fn drift_walk() {
    let _span = bcast_obs::span!("test.walk");
    let platform = tiers(40, 0.10, 77);
    let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_failures(4, 77));
    let source = trace.source();
    let config = SynthesisConfig::with_batch(8);
    let mut session = CutGenSession::new(trace.base(), source, SLICE, CutGenOptions::default())
        .expect("base platform solvable");
    let mut previous: Option<PeriodicSchedule> = None;
    for step in 0..trace.len() {
        let snapshot = trace.platform_at(step);
        let result = session.solve_step(&snapshot).expect("warm step solvable");
        let schedule = match &previous {
            None => synthesize_schedule(&snapshot, source, &result.optimal, SLICE, &config)
                .expect("synthesis succeeds"),
            Some(prev) => {
                resynthesize_schedule(&snapshot, source, &result.optimal, SLICE, &config, prev)
                    .expect("repair succeeds")
                    .0
            }
        };
        bcast_obs::emit_with(|| bcast_obs::Event::DriftStep {
            step: step as u64,
            kind: "drift",
            warm_ns: 0,
            cold_ns: 0,
            tp_rel_err: 0.0,
        });
        previous = Some(schedule);
    }
}

/// Replaces the numeric value of every `*_ns` field with `0` — the only
/// journal fields that legitimately differ between two runs of the same
/// deterministic workload.
fn scrub_ns(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find("_ns\":") {
        let cut = pos + "_ns\":".len();
        out.push_str(&rest[..cut]);
        out.push('0');
        rest = &rest[cut..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
            .unwrap_or(rest.len());
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

fn journal_run(path: &std::path::Path) -> String {
    bcast_obs::install_journal(path, "observability-test").expect("journal installs");
    drift_walk();
    bcast_obs::flush_journal().expect("journal flushes");
    std::fs::read_to_string(path).expect("journal readable")
}

/// The journal of a fixed-seed drift walk is bit-identical across runs
/// once wall-clock (`*_ns`) fields are scrubbed, passes the schema
/// validator, its span tree covers ≥ 90% of the run, and it holds the
/// `sched.round`, `sched.pack` and `sched.assemble` spans and a non-zero
/// `sched.maxflows` counter.
#[test]
fn journal_golden_check_and_coverage() {
    let _guard = LOCK.lock().unwrap();
    let dir = std::env::temp_dir();
    let path_a = dir.join("bcast_obs_golden_a.jsonl");
    let path_b = dir.join("bcast_obs_golden_b.jsonl");
    let text_a = journal_run(&path_a);
    let text_b = journal_run(&path_b);
    bcast_obs::disable();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);

    let summary = report::check(&text_a).expect("journal passes the schema check");
    assert!(summary.records > 50, "workload too small to be meaningful");
    assert!(
        summary.by_type.iter().any(|(t, _)| t == "lp_solve"),
        "no lp_solve records in {:?}",
        summary.by_type
    );
    assert!(
        summary.by_type.iter().any(|(t, _)| t == "drift_step"),
        "no drift_step records in {:?}",
        summary.by_type
    );

    let scrubbed_a = scrub_ns(&text_a);
    let scrubbed_b = scrub_ns(&text_b);
    assert!(
        scrubbed_a == scrubbed_b,
        "journals differ after scrubbing *_ns fields"
    );
    // The scrub must actually have had something to scrub (guards against
    // a silent rename of the duration fields).
    assert_ne!(scrubbed_a, text_a, "no *_ns fields found in the journal");

    let rep = report::build_report(&text_a);
    assert!(
        rep.coverage >= 0.90,
        "span coverage {:.1}% below the 90% floor",
        rep.coverage * 100.0
    );
    assert_eq!(rep.binary, "observability-test");

    // Sched time splits into rounding, packing and the timetable, and the
    // packing and rounding max-flows are counted.
    for span in [
        names::SPAN_SCHED_ROUND,
        names::SPAN_SCHED_PACK,
        names::SPAN_SCHED_ASSEMBLE,
    ] {
        assert!(
            rep.kernels.iter().any(|k| k.name == span && k.calls > 0),
            "no {span} span in the journal"
        );
    }
    let maxflows = rep
        .counters
        .iter()
        .find(|(name, _)| name == names::SCHED_MAXFLOWS)
        .map_or(0, |&(_, value)| value);
    assert!(maxflows > 0, "{} is 0", names::SCHED_MAXFLOWS);
}

/// The repair label follows the remap, not the entry point: a churn trace
/// walked through `resynthesize_schedule_churn` alone journals `repair`
/// (span `sched.repair`) on exactly the steps whose remap is the identity
/// and `repair_churn` (span `sched.repair_churn`) on the others. Records
/// of the full syntheses a repair may fall back to are nested inside the
/// repair and skipped.
#[test]
fn repair_label_follows_the_remap() {
    let _guard = LOCK.lock().unwrap();
    let platform = tiers(16, 0.12, 41);
    let trace = DriftTrace::generate(&platform, NodeId(0), &DriftConfig::with_churn(10, 123));
    let config = SynthesisConfig::with_batch(8);
    let snap0 = trace.platform_at(0);
    let mut session =
        CutGenSession::new(&snap0, trace.source_at(0), SLICE, CutGenOptions::default())
            .expect("step-0 platform solvable");
    let first = session.solve_step(&snap0).expect("step 0 solvable");
    let mut schedule =
        synthesize_schedule(&snap0, trace.source_at(0), &first.optimal, SLICE, &config)
            .expect("synthesis succeeds");

    let path = std::env::temp_dir().join("bcast_obs_repair_labels.jsonl");
    bcast_obs::install_journal(&path, "observability-test").expect("journal installs");
    let mut expected = Vec::new();
    for step in 1..trace.len() {
        let snapshot = trace.platform_at(step);
        let remap = trace.remap(step - 1, step);
        let optimal = session
            .solve_step_churn(&snapshot, &remap)
            .expect("warm step solvable")
            .optimal;
        schedule = resynthesize_schedule_churn(
            &snapshot,
            trace.source_at(step),
            &optimal,
            SLICE,
            &config,
            &schedule,
            &remap,
        )
        .expect("repair succeeds")
        .0;
        expected.push(if remap.is_identity() {
            ("repair", "sched.repair")
        } else {
            ("repair_churn", "sched.repair_churn")
        });
    }
    let counters = bcast_obs::counters_snapshot();
    bcast_obs::flush_journal().expect("journal flushes");
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let _ = std::fs::remove_file(&path);

    assert!(
        expected.iter().any(|e| e.0 == "repair") && expected.iter().any(|e| e.0 == "repair_churn"),
        "the trace must mix identity and churn steps: {expected:?}"
    );
    // Every cold fallback of the LP carries exactly one reason.
    let count = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    let reasons = [
        names::LP_FALLBACK_BINDING_ROW_DELETE,
        names::LP_FALLBACK_REFUSED_UPDATE,
        names::LP_FALLBACK_REFUSED_COLUMN_DELETE,
        names::LP_FALLBACK_UNCLEAN_WARM_PASS,
    ];
    let by_reason: Vec<(&str, u64)> = reasons.iter().map(|&n| (n, count(n))).collect();
    assert_eq!(
        by_reason.iter().map(|&(_, v)| v).sum::<u64>(),
        count(names::LP_COLD_REFACTOR_FALLBACK),
        "the fallback reasons must sum to the total: {by_reason:?}"
    );
    assert!(
        count(names::LP_FALLBACK_BINDING_ROW_DELETE) > 0,
        "the churn walk deletes a binding row: {by_reason:?}"
    );
    let field = |record: &report::Record, key: &str| match record.get(key) {
        Some(report::Value::Str(value)) => value.clone(),
        other => panic!("journal field {key}: {other:?}"),
    };
    let labels: Vec<(String, String)> = text
        .lines()
        .map(|line| report::parse_line(line).expect("journal line parses"))
        .filter(|r| field(r, "type") == "sched_repair" && field(r, "kind") != "synthesize")
        .map(|r| (field(&r, "kind"), field(&r, "span")))
        .collect();
    let labels: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, s)| (k.as_str(), s.as_str()))
        .collect();
    assert_eq!(labels, expected);
}

/// An `lp_solve` record reports the live master: after rows and a column
/// are deleted, the re-solve journals the live row count and the live
/// structural columns, not the slots the deletions leave behind.
#[test]
fn lp_solve_records_count_live_rows_and_columns() {
    let _guard = LOCK.lock().unwrap();
    // max x + y + z  s.t.  x ≤ 3, y ≤ 2, z ≤ 1, then two appended cuts.
    let mut lp = LpProblem::new(Sense::Maximize);
    let vars: Vec<VarId> = ["x", "y", "z"].map(|name| lp.add_var(name, 1.0)).to_vec();
    for (&var, cap) in vars.iter().zip([3.0, 2.0, 1.0]) {
        lp.add_le(&[(var, 1.0)], cap);
    }
    let mut state = SimplexState::new(&lp).expect("valid LP");
    state.solve().expect("solvable");
    let sum: Vec<(VarId, f64)> = vars.iter().map(|&var| (var, 1.0)).collect();
    let cuts = [
        state
            .add_row(&sum, ConstraintOp::Le, 5.0)
            .expect("valid cut"),
        state
            .add_row(&sum[..2], ConstraintOp::Le, 4.0)
            .expect("valid cut"),
    ];
    state.resolve().expect("solvable");
    state.delete_rows(&cuts).expect("issued rows");
    let z = state.col_id(vars[2]).expect("live column");
    state.delete_cols(&[z]).expect("live column");

    let path = std::env::temp_dir().join("bcast_obs_lp_solve_sizes.jsonl");
    bcast_obs::install_journal(&path, "observability-test").expect("journal installs");
    state.resolve().expect("solvable");
    bcast_obs::flush_journal().expect("journal flushes");
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let _ = std::fs::remove_file(&path);

    let number = |record: &report::Record, key: &str| match record.get(key) {
        Some(report::Value::Num(value)) => *value,
        other => panic!("journal field {key}: {other:?}"),
    };
    let sizes: Vec<(f64, f64)> = text
        .lines()
        .map(|line| report::parse_line(line).expect("journal line parses"))
        .filter(|r| matches!(r.get("type"), Some(report::Value::Str(t)) if t == "lp_solve"))
        .map(|r| (number(&r, "rows"), number(&r, "cols")))
        .collect();
    assert_eq!(
        sizes,
        [(3.0, 2.0)],
        "one re-solve of 3 live rows over x and y"
    );
}

/// The disabled-sink cost of the instrumentation on a Tiers-65 cut
/// generation stays under 2% of the solve: (number of instrumentation
/// operations the solve performs) × (measured per-operation disabled
/// cost) ≤ 2% of the disabled-sink wall-clock. The op count is taken from
/// an enabled run of the same solve; the product over-counts the real
/// overhead (disabled guards skip all bookkeeping), so the bound is
/// conservative.
#[test]
fn disabled_overhead_within_two_percent() {
    let _guard = LOCK.lock().unwrap();
    bcast_obs::disable();
    bcast_obs::reset_spans();
    bcast_obs::reset_metrics();
    let platform = tiers(65, 0.06, 65);
    let solve = || {
        cut_gen::solve_with(&platform, NodeId(0), SLICE, &CutGenOptions::default())
            .expect("solvable instance")
    };

    // Per-op disabled cost: one span guard is the unit (enter + drop);
    // counter/gauge/emit sites are the same single relaxed load or less.
    let probes = 1_000_000u64;
    let start = Instant::now();
    for _ in 0..probes {
        let _g = bcast_obs::span!("overhead.probe");
    }
    let per_op = start.elapsed().as_secs_f64() / probes as f64;

    // Disabled wall-clock of the real solve (minimum of three runs — the
    // least noisy estimator).
    let disabled_wall = (0..3)
        .map(|_| {
            let start = Instant::now();
            solve();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    // Count the instrumentation ops the solve performs.
    bcast_obs::enable();
    bcast_obs::reset_spans();
    bcast_obs::reset_metrics();
    solve();
    bcast_obs::disable();
    let span_ops: u64 = bcast_obs::span_stats().iter().map(|(_, s)| s.calls).sum();
    let counter_ops: u64 = bcast_obs::counters_snapshot().len() as u64;
    bcast_obs::reset_spans();
    bcast_obs::reset_metrics();
    // The floor guards against an accidentally trivial workload. It sits
    // below the old >1000 mark because the Markowitz LU factorizes without
    // FTRAN'ing each basic column (the previous product-form pass emitted
    // one `lp.ftran` span per column per refactorization).
    assert!(span_ops > 300, "solve performed too few spans ({span_ops})");

    // 2x safety factor on the op count for the sites the span stats do not
    // enumerate (per-call counter adds, suppressed journal emits).
    let projected = 2.0 * (span_ops + counter_ops) as f64 * per_op;
    let budget = 0.02 * disabled_wall;
    assert!(
        projected <= budget,
        "projected disabled overhead {:.3}ms exceeds 2% of the {:.1}ms solve \
         ({span_ops} span ops at {:.1}ns each)",
        projected * 1e3,
        disabled_wall * 1e3,
        per_op * 1e9
    );
}
