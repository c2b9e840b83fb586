//! Ablations of the design choices called out in DESIGN.md:
//!
//! 1. **Optimal solver** — direct LP (2) vs the cut-generation reformulation:
//!    value agreement and wall-clock time as the platform grows.
//! 2. **Pruning metric** — maximum edge weight (Algorithm 1) vs weighted
//!    out-degree (Algorithm 2): the throughput gap the refined metric buys.
//! 3. **Multi-port overlap sensitivity** — the paper fixes
//!    `send_u = 0.8 · min_w T_{u,w}` and claims the results "do not strongly
//!    depend" on the factor; we sweep it.
//! 4. **Schedule resolution** — the batch size `B` of the synthesized
//!    periodic schedule trades rounding loss (`≈ TP·D/B`) against schedule
//!    size; we sweep `B` and report the achieved fraction of the LP bound.
//! 5. **Master-LP warm start** — the cut-generation master re-optimized by
//!    warm-started dual simplex (one persistent basis across rounds) vs a
//!    from-scratch re-solve every round: value agreement, total simplex
//!    pivots, and wall-clock on the Tiers sweep points.
//!
//! Ablation 6 (dynamic platforms) lives in the `drift` binary and
//! ablation 7 (how the sparse revised-simplex master LP scales with
//! platform size) in the `bench_simplex` binary.
//!
//! ```text
//! cargo run --release -p bcast-experiments --bin ablation -- [--configs N] [--seed S]
//! ```

use bcast_core::evaluation::mean_and_deviation;
use bcast_core::heuristics::{build_structure, HeuristicKind};
use bcast_core::optimal::{optimal_throughput, OptimalMethod};
use bcast_core::throughput::steady_state_throughput;
use bcast_experiments::{
    finish_journal_or_exit, install_journal_or_exit, AsciiTable, ExperimentArgs,
};
use bcast_net::NodeId;
use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
use bcast_platform::CommModel;
use bcast_sched::{synthesize_schedule, SynthesisConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLICE: f64 = 1.0e6;

fn main() {
    let args = ExperimentArgs::from_env(10);
    install_journal_or_exit(&args.journal, "ablation");
    solver_ablation(&args);
    pruning_metric_ablation(&args);
    overlap_sensitivity(&args);
    schedule_resolution(&args);
    warm_start_ablation(&args);
    finish_journal_or_exit();
}

/// Ablation 5: warm-started dual simplex vs cold re-solves in the
/// cut-generation master, on the Tiers sweep points (n = 20/40/65).
fn warm_start_ablation(args: &ExperimentArgs) {
    use bcast_core::optimal::cut_gen;
    use bcast_core::CutGenOptions;
    use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};

    println!(
        "Ablation 5 — master-LP warm start: dual simplex from the prior basis vs cold re-solves"
    );
    let mut table = AsciiTable::new(vec![
        "nodes",
        "TP rel. gap",
        "warm pivots",
        "cold pivots",
        "pivot ratio",
        "warm rounds",
        "cold rounds",
        "warm ms",
        "cold ms",
    ]);
    let sizes: &[usize] = if args.quick { &[20] } else { &[20, 40, 65] };
    for &nodes in sizes {
        let density = if nodes <= 40 { 0.10 } else { 0.06 };
        let mut rng = StdRng::seed_from_u64(args.seed + nodes as u64);
        let platform = tiers_platform(&TiersConfig::paper(nodes, density), &mut rng);
        let run = |warm_start: bool| {
            let name = if warm_start {
                "ablation.warm"
            } else {
                "ablation.cold"
            };
            let (result, elapsed) = bcast_obs::timed(name, || {
                cut_gen::solve_with(
                    &platform,
                    NodeId(0),
                    SLICE,
                    &CutGenOptions {
                        warm_start,
                        ..CutGenOptions::default()
                    },
                )
                .expect("solvable instance")
            });
            (result.optimal, elapsed.as_secs_f64() * 1000.0)
        };
        let (warm, warm_ms) = run(true);
        let (cold, cold_ms) = run(false);
        let gap = (warm.throughput - cold.throughput).abs() / cold.throughput.max(1e-12);
        table.add_row(vec![
            nodes.to_string(),
            format!("{gap:.2e}"),
            warm.simplex_iterations.to_string(),
            cold.simplex_iterations.to_string(),
            format!(
                "{:.1}x",
                cold.simplex_iterations as f64 / warm.simplex_iterations.max(1) as f64
            ),
            warm.iterations.to_string(),
            cold.iterations.to_string(),
            format!("{warm_ms:.1}"),
            format!("{cold_ms:.1}"),
        ]);
    }
    println!("{}", table.render());
}

/// Ablation 1: direct LP vs cut generation.
fn solver_ablation(args: &ExperimentArgs) {
    println!("\nAblation 1 — MTP optimal solver: direct LP (2) vs cut generation");
    let mut table = AsciiTable::new(vec![
        "nodes",
        "density",
        "TP direct",
        "TP cut-gen",
        "rel. gap",
        "direct ms",
        "cut-gen ms",
    ]);
    let sizes: &[usize] = if args.quick {
        &[8, 10]
    } else {
        &[8, 10, 12, 16]
    };
    for &nodes in sizes {
        let mut rng = StdRng::seed_from_u64(args.seed + nodes as u64);
        let platform = random_platform(&RandomPlatformConfig::paper(nodes, 0.15), &mut rng);
        let (direct, direct_t) = bcast_obs::timed("ablation.direct_lp", || {
            optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::DirectLp).unwrap()
        });
        let direct_ms = direct_t.as_secs_f64() * 1000.0;
        let (cut, cut_t) = bcast_obs::timed("ablation.cutgen", || {
            optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration).unwrap()
        });
        let cut_ms = cut_t.as_secs_f64() * 1000.0;
        let gap = (direct.throughput - cut.throughput).abs() / direct.throughput.max(1e-12);
        table.add_row(vec![
            nodes.to_string(),
            "0.15".to_string(),
            format!("{:.3}", direct.throughput),
            format!("{:.3}", cut.throughput),
            format!("{:.2e}", gap),
            format!("{direct_ms:.1}"),
            format!("{cut_ms:.1}"),
        ]);
    }
    println!("{}", table.render());
}

/// Ablation 2: the refined pruning metric vs the simple one.
fn pruning_metric_ablation(args: &ExperimentArgs) {
    println!("Ablation 2 — pruning metric: max edge weight vs weighted out-degree");
    let mut table = AsciiTable::new(vec![
        "nodes",
        "Prune Simple",
        "Prune Degree",
        "degree/simple",
    ]);
    for &nodes in &[10usize, 20, 30] {
        let mut simple_rel = Vec::new();
        let mut degree_rel = Vec::new();
        for instance in 0..args.configs {
            let mut rng = StdRng::seed_from_u64(args.seed + (nodes * 1000 + instance) as u64);
            let platform = random_platform(&RandomPlatformConfig::paper(nodes, 0.12), &mut rng);
            let optimal =
                optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration)
                    .unwrap();
            for (kind, bucket) in [
                (HeuristicKind::PruneSimple, &mut simple_rel),
                (HeuristicKind::PruneDegree, &mut degree_rel),
            ] {
                let tree =
                    build_structure(&platform, NodeId(0), kind, CommModel::OnePort, SLICE).unwrap();
                let tp = steady_state_throughput(&platform, &tree, CommModel::OnePort, SLICE);
                bucket.push(tp / optimal.throughput);
            }
        }
        let (simple_mean, _) = mean_and_deviation(&simple_rel);
        let (degree_mean, _) = mean_and_deviation(&degree_rel);
        table.add_row(vec![
            nodes.to_string(),
            format!("{simple_mean:.3}"),
            format!("{degree_mean:.3}"),
            format!("{:.2}x", degree_mean / simple_mean.max(1e-12)),
        ]);
    }
    println!("{}", table.render());
}

/// Ablation 3: sensitivity of the multi-port results to the overlap factor.
fn overlap_sensitivity(args: &ExperimentArgs) {
    println!("Ablation 3 — multi-port overlap factor sensitivity (Grow Tree, 20 nodes)");
    let mut table = AsciiTable::new(vec!["overlap", "mean relative perf", "deviation"]);
    for &overlap in &[0.5f64, 0.65, 0.8, 0.95] {
        let mut rel = Vec::new();
        for instance in 0..args.configs {
            let mut rng = StdRng::seed_from_u64(args.seed + instance as u64);
            let platform = random_platform(&RandomPlatformConfig::paper(20, 0.12), &mut rng)
                .with_multiport_overheads(overlap, SLICE);
            let optimal =
                optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration)
                    .unwrap();
            let tree = build_structure(
                &platform,
                NodeId(0),
                HeuristicKind::GrowTree,
                CommModel::MultiPort,
                SLICE,
            )
            .unwrap();
            let tp = steady_state_throughput(&platform, &tree, CommModel::MultiPort, SLICE);
            rel.push(tp / optimal.throughput);
        }
        let (mean, dev) = mean_and_deviation(&rel);
        table.add_row(vec![
            format!("{overlap:.2}"),
            format!("{mean:.3}"),
            format!("{dev:.3}"),
        ]);
    }
    println!("{}", table.render());
}

/// Ablation 4: batch-size resolution of the synthesized periodic schedule.
fn schedule_resolution(args: &ExperimentArgs) {
    println!("Ablation 4 — schedule batch size B vs achieved fraction of the LP bound (20 nodes)");
    let mut table = AsciiTable::new(vec![
        "B",
        "schedule/LP",
        "deviation",
        "rounds",
        "loss bound",
    ]);
    for &batch in &[8usize, 16, 32, 64] {
        let mut rel = Vec::new();
        let mut rounds = Vec::new();
        let mut bound: f64 = 0.0;
        for instance in 0..args.configs {
            let mut rng = StdRng::seed_from_u64(args.seed + 31 * instance as u64);
            let platform = random_platform(&RandomPlatformConfig::paper(20, 0.12), &mut rng);
            let optimal =
                optimal_throughput(&platform, NodeId(0), SLICE, OptimalMethod::CutGeneration)
                    .unwrap();
            let schedule = synthesize_schedule(
                &platform,
                NodeId(0),
                &optimal,
                SLICE,
                &SynthesisConfig::with_batch(batch),
            )
            .unwrap();
            rel.push(schedule.efficiency());
            rounds.push(schedule.rounds(&platform).len() as f64);
            bound = bound.max(schedule.rounding().loss_bound);
        }
        let (mean, dev) = mean_and_deviation(&rel);
        let (rounds_mean, _) = mean_and_deviation(&rounds);
        table.add_row(vec![
            batch.to_string(),
            format!("{mean:.3}"),
            format!("{dev:.3}"),
            format!("{rounds_mean:.0}"),
            format!("{bound:.3}"),
        ]);
    }
    println!("{}", table.render());
}
