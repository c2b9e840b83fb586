//! `table_sched`: single-tree heuristics vs the synthesized multi-round
//! periodic schedule, on three platform families.
//!
//! For every `(family, nodes)` point this sweep solves the MTP optimal
//! throughput (cut generation, chaining binding cuts across the instances
//! of the point), evaluates every single-tree heuristic analytically, then
//! synthesizes the periodic schedule from the LP edge loads
//! (`bcast-sched`) and *simulates* it with the schedule-driven execution
//! mode of `bcast-sim`. Reported numbers are relative to the LP optimum,
//! so "sched" close to 1.00 demonstrates that the LP bound is actually
//! achievable by an executable schedule — the paper's optimality story
//! made operational.
//!
//! ```text
//! cargo run --release -p bcast-experiments --bin table_sched -- [--configs N] [--quick] [--csv out.csv]
//! ```

use bcast_core::evaluation::mean_and_deviation;
use bcast_core::heuristics::{build_structure_with_loads, HeuristicKind};
use bcast_core::optimal::cut_gen;
use bcast_core::throughput::steady_state_throughput;
use bcast_core::{CutGenOptions, NodeCutSet};
use bcast_experiments::{
    finish_journal_or_exit, install_journal_or_exit, print_solver_stats, write_csv_or_exit,
    AsciiTable, ExperimentArgs,
};
use bcast_net::NodeId;
use bcast_platform::generators::gaussian_field::{gaussian_platform, GaussianPlatformConfig};
use bcast_platform::generators::random::{random_platform, RandomPlatformConfig};
use bcast_platform::generators::tiers::{tiers_platform, TiersConfig};
use bcast_platform::{CommModel, MessageSpec, Platform};
use bcast_sched::{synthesize_schedule_with_tree_fallback, SynthesisConfig};
use bcast_sim::simulate_schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLICE: f64 = 1.0e6;

/// The platform families of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Random,
    Tiers,
    Gaussian,
}

impl Family {
    const ALL: [Family; 3] = [Family::Random, Family::Tiers, Family::Gaussian];

    fn label(self) -> &'static str {
        match self {
            Family::Random => "Random",
            Family::Tiers => "Tiers",
            Family::Gaussian => "Gaussian",
        }
    }

    fn generate(self, nodes: usize, seed: u64) -> Platform {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Family::Random => random_platform(&RandomPlatformConfig::paper(nodes, 0.12), &mut rng),
            Family::Tiers => tiers_platform(&TiersConfig::paper(nodes, 0.10), &mut rng),
            Family::Gaussian => gaussian_platform(&GaussianPlatformConfig::paper(nodes), &mut rng),
        }
    }
}

struct InstanceResult {
    best_rel: f64,
    best_label: &'static str,
    sched_rel: f64,
    batch: usize,
    rounds: usize,
    max_lag: usize,
    lp_rounds: usize,
    lp_pivots: usize,
}

fn run_instance(
    platform: &Platform,
    seed_cuts: Vec<NodeCutSet>,
) -> (InstanceResult, Vec<NodeCutSet>) {
    let source = NodeId(0);
    let options = CutGenOptions {
        seed_cuts,
        ..CutGenOptions::default()
    };
    let solved = cut_gen::solve_with(platform, source, SLICE, &options).expect("solvable instance");
    let optimal = &solved.optimal;

    // Best single-tree heuristic, analytically.
    let mut best_rel = 0.0;
    let mut best_label = "n/a";
    let mut candidates = Vec::new();
    for kind in HeuristicKind::ALL {
        let Ok(structure) = build_structure_with_loads(
            platform,
            source,
            kind,
            CommModel::OnePort,
            SLICE,
            Some(optimal),
        ) else {
            continue;
        };
        let tp = steady_state_throughput(platform, &structure, CommModel::OnePort, SLICE);
        if tp / optimal.throughput > best_rel {
            best_rel = tp / optimal.throughput;
            best_label = kind.label();
        }
        candidates.push(structure);
    }

    // Synthesize the periodic schedule (falling back to the best tree when
    // it is exact) and simulate it.
    let schedule = synthesize_schedule_with_tree_fallback(
        platform,
        source,
        optimal,
        SLICE,
        &SynthesisConfig::default(),
        &candidates,
    )
    .expect("schedule synthesis succeeds");
    let batch = schedule.slices_per_period();
    let spec = MessageSpec::new(8.0 * batch as f64 * SLICE, SLICE);
    let report = simulate_schedule(platform, &schedule, &spec);
    let sched_rel = report.batch_throughput(batch) / optimal.throughput;

    (
        InstanceResult {
            best_rel,
            best_label,
            sched_rel,
            batch,
            rounds: schedule.rounds(platform).len(),
            max_lag: schedule.max_lag(),
            lp_rounds: optimal.iterations,
            lp_pivots: optimal.simplex_iterations,
        },
        solved.binding_cuts,
    )
}

fn main() {
    let args = ExperimentArgs::from_env(10);
    install_journal_or_exit(&args.journal, "table_sched");
    let node_counts: &[usize] = if args.quick { &[20] } else { &[20, 30] };
    eprintln!(
        "table_sched: heuristic trees vs synthesized schedule, {:?} nodes, {} instances per point",
        node_counts, args.configs
    );

    let header = vec![
        "family".to_string(),
        "nodes".to_string(),
        "best tree".to_string(),
        "best rel".to_string(),
        "sched rel".to_string(),
        "sched/best".to_string(),
        "B".to_string(),
        "rounds".to_string(),
        "lag".to_string(),
    ];
    let mut table = AsciiTable::new(header.clone());
    let mut csv_rows = Vec::new();
    let mut lp_instances = 0usize;
    let mut lp_rounds = 0usize;
    let mut lp_pivots = 0usize;
    for family in Family::ALL {
        for &nodes in node_counts {
            let mut best_rels = Vec::new();
            let mut sched_rels = Vec::new();
            let mut batches = Vec::new();
            let mut rounds = Vec::new();
            let mut max_lag = 0usize;
            // Winning-heuristic tally: the reported label is the heuristic
            // that won the most instances (ties: first to reach the count).
            let mut label_wins: Vec<(&'static str, usize)> = Vec::new();
            let mut carried: Vec<NodeCutSet> = Vec::new();
            for instance in 0..args.configs {
                let seed = args
                    .seed
                    .wrapping_add((nodes as u64) << 16)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(family as u64 * 7919)
                    .wrapping_add(instance as u64);
                let platform = family.generate(nodes, seed);
                let (result, binding) = run_instance(&platform, carried);
                carried = binding;
                best_rels.push(result.best_rel);
                sched_rels.push(result.sched_rel);
                batches.push(result.batch as f64);
                rounds.push(result.rounds as f64);
                max_lag = max_lag.max(result.max_lag);
                lp_instances += 1;
                lp_rounds += result.lp_rounds;
                lp_pivots += result.lp_pivots;
                match label_wins.iter_mut().find(|(l, _)| *l == result.best_label) {
                    Some((_, count)) => *count += 1,
                    None => label_wins.push((result.best_label, 1)),
                }
            }
            let best_label = label_wins
                .iter()
                .max_by_key(|(_, count)| *count)
                .map_or("n/a", |(label, _)| *label);
            let (best_mean, _) = mean_and_deviation(&best_rels);
            let (sched_mean, sched_dev) = mean_and_deviation(&sched_rels);
            let (batch_mean, _) = mean_and_deviation(&batches);
            let (rounds_mean, _) = mean_and_deviation(&rounds);
            let row = vec![
                family.label().to_string(),
                nodes.to_string(),
                best_label.to_string(),
                format!("{best_mean:.3}"),
                format!("{sched_mean:.3} (±{sched_dev:.3})"),
                format!("{:.2}x", sched_mean / best_mean.max(1e-12)),
                format!("{batch_mean:.0}"),
                format!("{rounds_mean:.0}"),
                max_lag.to_string(),
            ];
            csv_rows.push(row.clone());
            table.add_row(row);
        }
    }

    print_solver_stats("table_sched", lp_instances, lp_rounds, lp_pivots);
    println!("\ntable_sched — single-tree heuristics vs synthesized periodic schedule (one-port, relative to LP optimum)");
    println!("{}", table.render());
    if let Some(path) = &args.csv {
        write_csv_or_exit(path, &header, &csv_rows);
    }
    finish_journal_or_exit();
}
