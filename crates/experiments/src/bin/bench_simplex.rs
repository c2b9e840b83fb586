//! **Ablation 7** — how the master-LP engine (the sparse revised simplex:
//! Markowitz LU basis, Devex pricing) scales with platform size, up to 1000
//! nodes on all three families. The engine × pricing grid that chose this
//! engine is recorded in EXPERIMENTS.md.
//!
//! Three modes:
//!
//! ```text
//! # The scaling table (default n ≤ 500; --quick restricts to n ≤ 65,
//! # --full adds the 1000-node points):
//! cargo run --release -p bcast-experiments --bin bench_simplex
//!
//! # Write the machine-readable perf baseline (Tiers-65 and Tiers-500 cut
//! # generation, min wall-clock of three runs per point):
//! cargo run --release -p bcast-experiments --bin bench_simplex -- --emit-baseline BENCH_simplex.json
//!
//! # CI perf-regression smoke: fail (exit 1) when any measured point's
//! # cut-generation wall-clock exceeds 2x its committed baseline:
//! cargo run --release -p bcast-experiments --bin bench_simplex -- --check-baseline BENCH_simplex.json
//! ```
//!
//! The baseline file is flat JSON written and parsed here (the workspace
//! vendors no JSON crate); values other than `cutgen_ms` are informational.

use bcast_core::optimal::cut_gen;
use bcast_core::CutGenOptions;
use bcast_experiments::{finish_journal_or_exit, install_journal_or_exit, AsciiTable};
use bcast_net::NodeId;
use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
use bcast_platform::generators::{gaussian_platform, GaussianPlatformConfig};
use bcast_platform::Platform;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLICE: f64 = 1.0e6;
/// The perf-baseline points: Tiers platforms whose cut-generation
/// wall-clock the CI smoke guards. Each entry is `(nodes, rng seed)` —
/// Tiers-65 pins the interactive regime, Tiers-500 the scaling regime the
/// Markowitz-LU engine opened up. Densities come from [`density_for`].
const BASELINE_POINTS: [(usize, u64); 2] = [(65, 65), (500, 500)];
/// The CI smoke fails when the measured wall-clock exceeds this multiple of
/// the committed baseline (the baseline is emitted on a developer machine,
/// so the factor doubles as hardware slack; a real regression — the old
/// dense engine was 34x slower on the Tiers-65 point — blows far past it).
const REGRESSION_FACTOR: f64 = 2.0;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut quick = false;
    let mut full = false;
    let mut seed = 2004u64;
    let mut emit: Option<String> = None;
    let mut check: Option<String> = None;
    let mut journal: Option<String> = None;
    let mut family: Option<String> = None;
    let mut nodes: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => full = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"))
            }
            "--family" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--family needs a name"));
                if !["random", "tiers", "gaussian"].contains(&v.as_str()) {
                    usage(&format!("unknown family: {v}"));
                }
                family = Some(v);
            }
            "--nodes" => {
                nodes = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--nodes needs a number")),
                )
            }
            "--journal" => {
                journal = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--journal needs a path")),
                )
            }
            "--emit-baseline" => {
                emit = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--emit-baseline needs a path")),
                )
            }
            "--check-baseline" => {
                check = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--check-baseline needs a path")),
                )
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    install_journal_or_exit(&journal, "bench_simplex");
    if let Some(path) = emit {
        emit_baseline(&path);
    } else if let Some(path) = check {
        check_baseline(&path);
    } else {
        ablation_table(quick, full, seed, family.as_deref(), nodes);
    }
    finish_journal_or_exit();
}

fn usage(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("{message}");
    }
    eprintln!(
        "usage: bench_simplex [--quick|--full] [--seed S] \
         [--family random|tiers|gaussian] [--nodes N] [--journal PATH] \
         [--emit-baseline PATH | --check-baseline PATH]"
    );
    std::process::exit(2);
}

/// One timed cut-generation run; returns `(tp, pivots, rounds, seconds)`.
fn run(platform: &Platform) -> (f64, usize, usize, f64) {
    let (r, elapsed) = bcast_obs::timed("bench.cutgen", || {
        cut_gen::solve_with(platform, NodeId(0), SLICE, &CutGenOptions::default())
            .expect("solvable instance")
    });
    (
        r.optimal.throughput,
        r.optimal.simplex_iterations,
        r.optimal.iterations,
        elapsed.as_secs_f64(),
    )
}

fn density_for(nodes: usize) -> f64 {
    match nodes {
        0..=24 => 0.12,
        25..=80 => 0.06,
        81..=150 => 0.04,
        _ => 0.03,
    }
}

fn make_platform(family: &str, nodes: usize, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed + nodes as u64);
    match family {
        "random" => random_platform(
            &RandomPlatformConfig::paper(nodes, density_for(nodes)),
            &mut rng,
        ),
        "tiers" => tiers_platform(&TiersConfig::paper(nodes, density_for(nodes)), &mut rng),
        "gaussian" => gaussian_platform(&GaussianPlatformConfig::paper(nodes), &mut rng),
        _ => unreachable!(),
    }
}

/// Ablation 7: the engine's scaling table, per family and size.
/// `family_filter`/`nodes_filter` restrict the table to one family and/or
/// size (handy for producing a single-point `--journal`, e.g. the
/// Tiers-500 profile EXPERIMENTS.md walks through, or for running the
/// minute-scale Tiers-1000 point alone).
fn ablation_table(
    quick: bool,
    full: bool,
    seed: u64,
    family_filter: Option<&str>,
    nodes_filter: Option<usize>,
) {
    println!(
        "Ablation 7 — master-LP engine scaling: sparse revised simplex (Markowitz-LU basis, Devex)"
    );
    let size_override = nodes_filter.map(|n| [n]);
    let sizes: &[usize] = match &size_override {
        Some(one) => &one[..],
        None if quick => &[20, 65],
        None if full => &[20, 65, 130, 200, 500, 1000],
        None => &[20, 65, 130, 200, 500],
    };
    let mut table = AsciiTable::new(vec!["family", "nodes", "TP", "pivots", "rounds", "wall ms"]);
    for family in ["random", "tiers", "gaussian"] {
        if family_filter.is_some_and(|f| f != family) {
            continue;
        }
        for &nodes in sizes {
            let platform = make_platform(family, nodes, seed);
            let (tp, pivots, rounds, secs) = run(&platform);
            table.add_row(vec![
                family.to_string(),
                nodes.to_string(),
                format!("{tp:.6}"),
                pivots.to_string(),
                rounds.to_string(),
                format!("{:.1}", secs * 1e3),
            ]);
        }
    }
    println!("{}", table.render());
}

/// Measures one baseline point: Tiers-`nodes` cut generation, minimum
/// wall-clock over three runs (the minimum is the least
/// noisy estimator of the achievable time). The 500-node point runs once —
/// its solve is long enough that timer noise is negligible and three runs
/// would dominate the CI smoke's wall-clock.
fn measure_baseline(nodes: usize, seed: u64) -> (f64, usize, usize, f64) {
    let runs = if nodes >= 300 { 1 } else { 3 };
    let platform = make_platform("tiers", nodes, seed - nodes as u64);
    let mut best: Option<(f64, usize, usize, f64)> = None;
    for _ in 0..runs {
        let sample = run(&platform);
        if best.is_none_or(|b| sample.3 < b.3) {
            best = Some(sample);
        }
    }
    best.expect("three samples taken")
}

fn emit_baseline(path: &str) {
    let mut json = String::from(
        "{\n  \"schema\": \"bench_simplex/2\",\n  \"engine\": \"sparse-devex\",\n  \"points\": [\n",
    );
    for (i, &(nodes, seed)) in BASELINE_POINTS.iter().enumerate() {
        let (tp, pivots, rounds, secs) = measure_baseline(nodes, seed);
        let comma = if i + 1 < BASELINE_POINTS.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!(
            "    {{ \"point\": \"tiers-{nodes}\", \"seed\": {seed}, \"density\": {}, \
             \"cutgen_ms\": {:.3}, \"pivots\": {pivots}, \"rounds\": {rounds}, \
             \"throughput\": {tp:.7} }}{comma}\n",
            density_for(nodes),
            secs * 1e3
        ));
        println!(
            "tiers-{nodes} cut generation: {:.3} ms ({pivots} pivots, {rounds} rounds)",
            secs * 1e3
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("baseline written to {path}");
}

/// Reads the `(point, cutgen_ms)` pairs from the flat baseline JSON: a
/// `\"point\"` field names the entry, the next `\"cutgen_ms\"` field supplies
/// its wall-clock. Accepts both the schema/1 (single-object) and schema/2
/// (points-array) layouts since each point's fields sit on one line.
fn read_baseline_points(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut points = Vec::new();
    let mut current: Option<String> = None;
    for token in text.split(',').flat_map(|t| t.split('\n')) {
        let token = token.trim().trim_start_matches('{').trim();
        if let Some(rest) = token.strip_prefix("\"point\":") {
            current = Some(rest.trim().trim_matches('\"').to_string());
        } else if let Some(rest) = token.strip_prefix("\"cutgen_ms\":") {
            if let (Some(name), Ok(ms)) = (current.take(), rest.trim().parse::<f64>()) {
                points.push((name, ms));
            }
        }
    }
    if points.is_empty() {
        eprintln!("{path}: no parsable (point, cutgen_ms) pairs");
        std::process::exit(1);
    }
    points
}

fn check_baseline(path: &str) {
    let mut failed = false;
    for (name, baseline_ms) in read_baseline_points(path) {
        let Some(&(nodes, seed)) = BASELINE_POINTS
            .iter()
            .find(|(n, _)| format!("tiers-{n}") == name)
        else {
            eprintln!("{path}: unknown baseline point {name}; re-emit the baseline");
            std::process::exit(1);
        };
        let (_, pivots, rounds, secs) = measure_baseline(nodes, seed);
        let measured_ms = secs * 1e3;
        let limit_ms = baseline_ms * REGRESSION_FACTOR;
        println!(
            "{name} cut generation: measured {measured_ms:.1} ms \
             ({pivots} pivots, {rounds} rounds) vs committed baseline {baseline_ms:.1} ms \
             (limit {limit_ms:.1} ms)"
        );
        if measured_ms > limit_ms {
            eprintln!(
                "PERF REGRESSION: {name} at {measured_ms:.1} ms exceeds {REGRESSION_FACTOR}x the \
                 committed baseline ({baseline_ms:.1} ms); re-emit BENCH_simplex.json only for an \
                 intentional change"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("within budget");
}
