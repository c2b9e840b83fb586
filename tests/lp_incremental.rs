//! Differential test harness for the incremental (warm-started dual simplex)
//! LP solver.
//!
//! Every test pits the two solver paths against each other on the *same*
//! row sequence:
//!
//! * **warm** — one [`SimplexState`] kept alive across rounds, rows appended
//!   and deleted in place, re-optimized dually from the prior basis;
//! * **cold** — a fresh [`LpProblem`] solved from scratch with the two-phase
//!   primal simplex (the pre-incremental reference).
//!
//! The contract: identical objective values (1e-9 relative on the LP level,
//! where both sides solve literally the same problem), primal feasibility at
//! every round, identical infeasibility verdicts — and, on the 65-node Tiers
//! sweep point, at least a 2× drop in total simplex pivots per cut-generation
//! run (the acceptance criterion of the warm-start work).

use broadcast_trees::core::optimal::cut_gen;
use broadcast_trees::lp::{ConstraintOp, LpError, LpProblem, Sense, SimplexState};
use broadcast_trees::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic LCG in [0, 1) so the LP data does not depend on the
/// vendored RNG's stream (these tests pin solver behaviour, not RNG
/// behaviour).
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 32) as f64) / (u64::from(u32::MAX) + 1) as f64
}

/// Relative agreement within `tol`.
fn assert_rel_close(a: f64, b: f64, tol: f64, what: &str) {
    assert!(
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-12),
        "{what}: warm {a} vs cold {b}"
    );
}

/// A random bounded packing LP: `max Σ c_i x_i` with per-variable bounds and
/// a few joint packing rows — always feasible and bounded.
fn random_base(vars: usize, rows: usize, state: &mut u64) -> LpProblem {
    let mut lp = LpProblem::new(Sense::Maximize);
    let ids: Vec<_> = (0..vars)
        .map(|i| lp.add_var(format!("x{i}"), 0.5 + 4.0 * lcg(state)))
        .collect();
    for &v in &ids {
        lp.add_le(&[(v, 1.0)], 1.0 + 7.0 * lcg(state));
    }
    for _ in 0..rows {
        let terms: Vec<_> = ids.iter().map(|&v| (v, 0.1 + 2.0 * lcg(state))).collect();
        lp.add_le(&terms, 2.0 + 6.0 * lcg(state));
    }
    lp
}

/// A random extra row biased to *cut off* the current optimum (so the dual
/// simplex genuinely has to pivot): either a tightened packing row or a
/// fully degenerate `Σ ±x ≥ 0` row — the class that used to stall phase 1.
fn random_extra_row(
    lp: &LpProblem,
    current: &[f64],
    state: &mut u64,
) -> (Vec<(broadcast_trees::lp::VarId, f64)>, ConstraintOp, f64) {
    let vars = lp.num_vars();
    if lcg(state) < 0.3 {
        // Degenerate difference row x_i − x_j ≥ 0.
        let i = (lcg(state) * vars as f64) as usize % vars;
        let mut j = (lcg(state) * vars as f64) as usize % vars;
        if j == i {
            j = (j + 1) % vars;
        }
        (
            vec![
                (broadcast_trees::lp::VarId(i), 1.0),
                (broadcast_trees::lp::VarId(j), -1.0),
            ],
            ConstraintOp::Ge,
            0.0,
        )
    } else {
        // Packing row whose rhs is a fraction of its value at the current
        // optimum: binding by construction (when the optimum is nonzero).
        let terms: Vec<_> = (0..vars)
            .map(|i| (broadcast_trees::lp::VarId(i), 0.1 + 2.0 * lcg(state)))
            .collect();
        let at_optimum: f64 = terms.iter().map(|&(v, c)| c * current[v.index()]).sum();
        let rhs = at_optimum * (0.55 + 0.4 * lcg(state));
        (terms, ConstraintOp::Le, rhs.max(0.05))
    }
}

#[test]
fn warm_and_cold_agree_on_random_append_sequences() {
    'seeds: for seed in 1u64..=6 {
        let mut state = 0x9E3779B97F4A7C15u64.wrapping_mul(seed);
        let vars = 4 + (seed as usize % 5);
        let base = random_base(vars, 3, &mut state);
        let mut warm = SimplexState::new(&base).unwrap();
        let mut solution = warm.solve().unwrap();
        for round in 0..8 {
            let (terms, op, rhs) = random_extra_row(&base, &solution.values, &mut state);
            warm.add_row(&terms, op, rhs).unwrap();
            let cold_problem = warm.to_problem();
            match (warm.resolve(), cold_problem.solve()) {
                (Ok(w), Ok(c)) => {
                    assert_rel_close(
                        w.objective,
                        c.objective,
                        1e-9,
                        &format!("seed {seed} round {round}"),
                    );
                    assert!(
                        cold_problem.max_violation(&w.values) < 1e-6,
                        "seed {seed} round {round}: warm point infeasible \
                         (violation {})",
                        cold_problem.max_violation(&w.values)
                    );
                    solution = w;
                }
                (Err(we), Err(ce)) => {
                    // Defensive: every generated row is satisfied at x = 0,
                    // so this should never fire — but if it does, both paths
                    // must at least agree on the verdict.
                    assert_eq!(we, ce, "seed {seed} round {round}: verdicts differ");
                    continue 'seeds;
                }
                (w, c) => panic!(
                    "seed {seed} round {round}: warm {w:?} disagrees with cold {c:?} on solvability"
                ),
            }
        }
    }
}

#[test]
fn warm_and_cold_agree_after_deletions() {
    for seed in 10u64..=15 {
        let mut state = 0xD1B54A32D192ED03u64.wrapping_mul(seed);
        let base = random_base(6, 4, &mut state);
        let mut warm = SimplexState::new(&base).unwrap();
        let mut solution = warm.solve().unwrap();
        let mut appended = Vec::new();
        for _ in 0..6 {
            let (terms, op, rhs) = random_extra_row(&base, &solution.values, &mut state);
            appended.push(warm.add_row(&terms, op, rhs).unwrap());
            solution = match warm.resolve() {
                Ok(s) => s,
                // Defensive: the generated rows are all satisfiable at
                // x = 0, so infeasibility should never occur here.
                Err(e) => panic!("seed {seed}: unexpected {e}"),
            };
        }
        // Delete every other appended row (a mix of binding and non-binding:
        // exercises both the in-place removal and the refactorization path).
        let deleted: Vec<_> = appended.iter().copied().step_by(2).collect();
        warm.delete_rows(&deleted).unwrap();
        let cold_problem = warm.to_problem();
        let w = warm.resolve().unwrap();
        let c = cold_problem.solve().unwrap();
        assert_rel_close(
            w.objective,
            c.objective,
            1e-9,
            &format!("seed {seed} after delete"),
        );
        assert!(cold_problem.max_violation(&w.values) < 1e-6);
        // Delete the rest: back to the base optimum.
        warm.delete_rows(&appended).unwrap();
        let w = warm.resolve().unwrap();
        let c = base.solve().unwrap();
        assert_rel_close(
            w.objective,
            c.objective,
            1e-9,
            &format!("seed {seed} full delete"),
        );
    }
}

#[test]
fn infeasible_append_is_detected_by_both_paths() {
    let mut state = 0xABCDEFu64;
    let base = random_base(5, 3, &mut state);
    let mut warm = SimplexState::new(&base).unwrap();
    warm.solve().unwrap();
    // x_0 ≤ −1 contradicts non-negativity outright.
    warm.add_row(
        &[(broadcast_trees::lp::VarId(0), 1.0)],
        ConstraintOp::Le,
        -1.0,
    )
    .unwrap();
    assert_eq!(warm.resolve().unwrap_err(), LpError::Infeasible);
    assert_eq!(warm.to_problem().solve().unwrap_err(), LpError::Infeasible);
}

/// Replays the exact row sequence a cut-generation run produces — cut rows
/// appended in rounds, purged rows deleted — against both paths, on real
/// platform instances of all three families.
#[test]
fn cut_generation_matches_cold_on_all_families() {
    let slice = 1.0e6;
    let mut platforms: Vec<(&str, Platform)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(2024);
    platforms.push((
        "random-14",
        random_platform(&RandomPlatformConfig::paper(14, 0.15), &mut rng),
    ));
    let mut rng = StdRng::seed_from_u64(2025);
    platforms.push((
        "tiers-20",
        tiers_platform(&TiersConfig::paper(20, 0.10), &mut rng),
    ));
    let mut rng = StdRng::seed_from_u64(2026);
    platforms.push((
        "gaussian-20",
        gaussian_platform(&GaussianPlatformConfig::paper(20), &mut rng),
    ));
    for (label, platform) in &platforms {
        let warm = cut_gen::solve_with(
            platform,
            NodeId(0),
            slice,
            &CutGenOptions {
                warm_start: true,
                ..CutGenOptions::default()
            },
        )
        .unwrap();
        let cold = cut_gen::solve_with(
            platform,
            NodeId(0),
            slice,
            &CutGenOptions {
                warm_start: false,
                ..CutGenOptions::default()
            },
        )
        .unwrap();
        // Both terminate via the same separation certificate, so the values
        // agree to the separation tolerance (they may sit on different
        // degenerate vertices, hence not bit-identical in general).
        assert_rel_close(
            warm.optimal.throughput,
            cold.optimal.throughput,
            1e-6,
            &format!("{label} throughput"),
        );
        // The warm loads must support the claimed throughput per destination
        // (primal feasibility of the full cut LP).
        let (w, flow) = warm.optimal.min_destination_flow(platform, NodeId(0));
        assert!(
            flow >= warm.optimal.throughput * (1.0 - 1e-5),
            "{label}: destination {w} flow {flow} < TP {}",
            warm.optimal.throughput
        );
        assert!(
            warm.optimal.simplex_iterations < cold.optimal.simplex_iterations,
            "{label}: warm start did not reduce pivots \
             (warm {}, cold {})",
            warm.optimal.simplex_iterations,
            cold.optimal.simplex_iterations
        );
    }
}

/// The acceptance criterion of the warm-start work: on the 65-node Tiers
/// sweep point, total simplex pivots per cut-generation run drop ≥ 2×.
#[test]
fn warm_start_halves_simplex_iterations_on_tiers_65() {
    let mut rng = StdRng::seed_from_u64(65);
    let platform = tiers_platform(&TiersConfig::paper(65, 0.06), &mut rng);
    let warm = cut_gen::solve_with(
        &platform,
        NodeId(0),
        1.0e6,
        &CutGenOptions {
            warm_start: true,
            ..CutGenOptions::default()
        },
    )
    .unwrap();
    let cold = cut_gen::solve_with(
        &platform,
        NodeId(0),
        1.0e6,
        &CutGenOptions {
            warm_start: false,
            ..CutGenOptions::default()
        },
    )
    .unwrap();
    assert_rel_close(
        warm.optimal.throughput,
        cold.optimal.throughput,
        1e-6,
        "tiers-65 throughput",
    );
    eprintln!(
        "tiers-65: warm {} pivots / {} rounds, cold {} pivots / {} rounds",
        warm.optimal.simplex_iterations,
        warm.optimal.iterations,
        cold.optimal.simplex_iterations,
        cold.optimal.iterations
    );
    assert!(
        2 * warm.optimal.simplex_iterations <= cold.optimal.simplex_iterations,
        "expected ≥ 2x pivot drop on tiers-65: warm {} vs cold {}",
        warm.optimal.simplex_iterations,
        cold.optimal.simplex_iterations
    );
}

/// Purging under warm start deletes live rows from the basis; the optimum
/// must match LP (2) itself, solved verbatim by the direct LP (same
/// tolerance as `cut_gen`'s `purging_preserves_the_optimum`).
#[test]
fn warm_purging_preserves_the_optimum() {
    let mut rng = StdRng::seed_from_u64(21);
    let platform = random_platform(&RandomPlatformConfig::paper(20, 0.12), &mut rng);
    let purged = cut_gen::solve_with(&platform, NodeId(0), 1.0e6, &CutGenOptions::default())
        .unwrap()
        .optimal;
    let reference =
        optimal_throughput(&platform, NodeId(0), 1.0e6, OptimalMethod::DirectLp).unwrap();
    assert!(purged.purged_cuts > 0, "purging never triggered");
    assert_rel_close(
        purged.throughput,
        reference.throughput,
        1e-6,
        "purged vs LP (2)",
    );
}
