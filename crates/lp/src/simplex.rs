//! Simplex options, outcome types, and the dense two-phase tableau oracle.
//!
//! The production engine behind [`solve`] and
//! [`crate::incremental::SimplexState`] is the sparse revised simplex of
//! the private `sparse` module. This module holds what both sides share — the
//! [`SimplexOptions`], the constraint normalization, the iteration budget —
//! plus [`solve_dense`], a cold one-shot full-tableau solver kept only as
//! the differential oracle the tests compare the sparse engine against:
//!
//! 1. The model is normalised so every right-hand side is non-negative;
//!    `≤` rows get a slack, `≥` rows a surplus plus an artificial, `=` rows
//!    an artificial.
//! 2. **Phase 1** minimises the sum of artificial variables. A positive
//!    optimum means the model is infeasible.
//! 3. **Phase 2** optimises the real objective starting from the feasible
//!    basis produced by phase 1 (artificial columns are barred from
//!    re-entering the basis).
//!
//! The oracle prices with Dantzig's rule (most negative reduced cost) and
//! switches to Bland's rule after a run of degenerate pivots, which
//! guarantees termination. All arithmetic is `f64` with explicit
//! tolerances; the LPs of this project are small and well-scaled (costs and
//! capacities are O(1)), so double precision is ample.

use crate::model::{ConstraintOp, LpError, LpProblem, LpSolution, Sense};

/// Outcome classification of a simplex run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The iteration limit was hit before convergence.
    IterationLimit,
}

/// Tunable parameters of the simplex solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimplexOptions {
    /// Tolerance on reduced costs: a column prices out when its reduced cost
    /// exceeds this value.
    pub cost_tolerance: f64,
    /// Tolerance below which a pivot element is considered zero.
    pub pivot_tolerance: f64,
    /// Feasibility tolerance used to declare phase 1 successful.
    pub feasibility_tolerance: f64,
    /// Hard cap on pivots (both phases combined). `0` means "choose
    /// automatically from the problem size".
    pub max_iterations: usize,
    /// Base length of the degenerate run after which pricing falls back to
    /// Bland's rule (the sparse engine adds the row count to it).
    pub bland_threshold: usize,
    /// Number of basis updates after which the sparse engine refactorizes
    /// its LU factors. Small values trade speed for numerical freshness;
    /// `0` refactorizes after every pivot.
    pub refactor_interval: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            cost_tolerance: 1e-9,
            pivot_tolerance: 1e-7,
            feasibility_tolerance: 1e-7,
            max_iterations: 0,
            bland_threshold: 64,
            refactor_interval: 64,
        }
    }
}

/// Dense simplex tableau of the [`solve_dense`] oracle: `rows × cols`
/// coefficients plus a right-hand side.
struct Tableau {
    rows: usize,
    cols: usize,
    /// Row-major coefficient matrix (`rows × cols`).
    a: Vec<f64>,
    /// Right-hand side, one entry per row.
    b: Vec<f64>,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    /// Columns that may enter the basis (artificials are barred in phase 2).
    allowed: Vec<bool>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.cols + c]
    }

    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        &self.a[r * self.cols..(r + 1) * self.cols]
    }

    /// Performs the elimination step for a chosen pivot.
    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let cols = self.cols;
        // Normalise the pivot row.
        let pv = self.at(pivot_row, pivot_col);
        debug_assert!(pv.abs() > 0.0);
        let start = pivot_row * cols;
        for c in 0..cols {
            self.a[start + c] /= pv;
        }
        self.b[pivot_row] /= pv;
        // Eliminate the pivot column from every other row. Splitting the
        // storage around the pivot row lets every other row borrow it
        // directly — no per-pivot copy of the pivot row.
        let pivot_rhs = self.b[pivot_row];
        let b = &mut self.b;
        let (before, rest) = self.a.split_at_mut(start);
        let (pivot_slice, after) = rest.split_at_mut(cols);
        let mut eliminate = |r: usize, row: &mut [f64]| {
            let factor = row[pivot_col];
            if factor == 0.0 {
                return;
            }
            for (value, &pivot_value) in row.iter_mut().zip(&*pivot_slice) {
                *value -= factor * pivot_value;
            }
            // Clean tiny residue on the pivot column itself.
            row[pivot_col] = 0.0;
            b[r] -= factor * pivot_rhs;
        };
        for (r, row) in before.chunks_exact_mut(cols).enumerate() {
            eliminate(r, row);
        }
        for (i, row) in after.chunks_exact_mut(cols).enumerate() {
            eliminate(pivot_row + 1 + i, row);
        }
        self.basis[pivot_row] = pivot_col;
    }
}

/// Runs the simplex method on `tab`, maximising the objective whose
/// coefficients are `cost` (one per tableau column). Returns the status and
/// the number of pivots performed.
fn optimize(
    tab: &mut Tableau,
    cost: &[f64],
    options: &SimplexOptions,
    max_iterations: usize,
) -> (SolveStatus, usize) {
    let rows = tab.rows;
    // Reduced-cost row: d[j] = c[j] - c_B' B^{-1} A_j. A column may enter
    // while d[j] > tolerance.
    let mut d = reduced_costs(tab, cost);
    let mut iterations = 0usize;
    let mut degenerate_run = 0usize;
    // Once a long degenerate run triggers Bland's rule we keep it for the rest
    // of the solve: flip-flopping between pricing rules on stalling problems
    // can itself cycle, while Bland's rule alone is guaranteed to terminate.
    let mut bland_sticky = false;
    loop {
        if iterations >= max_iterations {
            return (SolveStatus::IterationLimit, iterations);
        }
        if degenerate_run >= options.bland_threshold {
            bland_sticky = true;
        }
        let use_bland = bland_sticky;
        // Entering column.
        let mut entering: Option<usize> = None;
        if use_bland {
            entering = d
                .iter()
                .zip(&tab.allowed)
                .position(|(&dj, &ok)| ok && dj > options.cost_tolerance);
        } else {
            let mut best = options.cost_tolerance;
            for (j, (&dj, &ok)) in d.iter().zip(&tab.allowed).enumerate() {
                if ok && dj > best {
                    best = dj;
                    entering = Some(j);
                }
            }
        }
        let Some(col) = entering else {
            return (SolveStatus::Optimal, iterations);
        };
        // Ratio test for the leaving row.
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..rows {
            let arc = tab.at(r, col);
            if arc > options.pivot_tolerance {
                let ratio = tab.b[r] / arc;
                let better = match leaving {
                    None => true,
                    Some(cur) => {
                        ratio < best_ratio - 1e-12
                            || ((ratio - best_ratio).abs() <= 1e-12
                                && (use_bland && tab.basis[r] < tab.basis[cur]))
                    }
                };
                if better {
                    best_ratio = ratio;
                    leaving = Some(r);
                }
            }
        }
        let Some(row) = leaving else {
            return (SolveStatus::Unbounded, iterations);
        };
        degenerate_run = if best_ratio <= 1e-9 {
            degenerate_run + 1
        } else {
            0
        };
        tab.pivot(row, col);
        // Update the reduced-cost row by the same elimination.
        let factor = d[col];
        if factor != 0.0 {
            let prow = tab.row(row).to_vec();
            for (j, dj) in d.iter_mut().enumerate() {
                *dj -= factor * prow[j];
            }
            d[col] = 0.0;
        }
        iterations += 1;
        // Periodically recompute the reduced costs from scratch: the
        // incremental updates accumulate floating-point drift over long
        // degenerate runs, which can make the pricing step chase noise.
        if iterations.is_multiple_of(512) {
            d = reduced_costs(tab, cost);
        }
    }
}

/// Reduced-cost row of `tab` for `cost`: `d[j] = c[j] − c_B' B^{-1} A_j`.
fn reduced_costs(tab: &Tableau, cost: &[f64]) -> Vec<f64> {
    let mut d = cost.to_vec();
    for r in 0..tab.rows {
        let cb = cost[tab.basis[r]];
        if cb != 0.0 {
            let row = tab.row(r).to_vec();
            for (j, dj) in d.iter_mut().enumerate() {
                *dj -= cb * row[j];
            }
        }
    }
    d
}

/// Normalizes one constraint for tableau assembly: returns the effective
/// operator and the sign to apply to its coefficients and right-hand side.
///
/// Two rewrites happen here, and the column-counting pass and the assembly
/// pass both rely on them agreeing:
///
/// 1. a negative right-hand side flips the row (`sign = -1`) so every
///    assembled rhs is non-negative;
/// 2. a `>= 0` row becomes the negated `<= 0` row, which admits a basic
///    feasible slack directly. This avoids one artificial variable per such
///    row — decisive for cut-generation masters, whose cut rows all have a
///    zero right-hand side and would otherwise force a large, fully
///    degenerate phase 1 on every re-solve.
pub(crate) fn normalize_constraint(con: &crate::model::Constraint) -> (ConstraintOp, f64) {
    let flip = con.rhs < 0.0;
    let mut sign = if flip { -1.0 } else { 1.0 };
    let mut op = if flip {
        match con.op {
            ConstraintOp::Le => ConstraintOp::Ge,
            ConstraintOp::Ge => ConstraintOp::Le,
            ConstraintOp::Eq => ConstraintOp::Eq,
        }
    } else {
        con.op
    };
    if op == ConstraintOp::Ge && con.rhs == 0.0 {
        op = ConstraintOp::Le;
        sign = -sign;
    }
    (op, sign)
}

/// A freshly assembled tableau plus its artificial columns.
struct Assembled {
    tab: Tableau,
    /// Every artificial column, in assembly order (phase-1 objective).
    artificial_cols: Vec<usize>,
}

/// Assembles the tableau for `constraints` over `n` structural variables.
/// Column layout: `[structural | slack/surplus | artificial]`.
fn assemble(n: usize, constraints: &[crate::model::Constraint]) -> Assembled {
    let m = constraints.len();
    // Count auxiliary columns with the same normalization the assembly loop
    // applies, so the column layout and the written rows cannot desync.
    let mut num_slack = 0usize; // one per <= or >= row
    let mut num_artificial = 0usize; // one per >= or = row
    for c in constraints {
        match normalize_constraint(c).0 {
            ConstraintOp::Le => num_slack += 1,
            ConstraintOp::Ge => {
                num_slack += 1;
                num_artificial += 1;
            }
            ConstraintOp::Eq => num_artificial += 1,
        }
    }
    let slack_base = n;
    let art_base = n + num_slack;
    let cols = n + num_slack + num_artificial;
    let rows = m;

    let mut tab = Tableau {
        rows,
        cols,
        a: vec![0.0; rows * cols],
        b: vec![0.0; rows],
        basis: vec![usize::MAX; rows],
        allowed: vec![true; cols],
    };

    let mut next_slack = slack_base;
    let mut next_art = art_base;
    let mut artificial_cols: Vec<usize> = Vec::with_capacity(num_artificial);
    for (r, con) in constraints.iter().enumerate() {
        let (op, sign) = normalize_constraint(con);
        let base = r * cols;
        for &(v, coeff) in &con.terms {
            tab.a[base + v.index()] += sign * coeff;
        }
        tab.b[r] = sign * con.rhs;
        // Row equilibration: scale the row so its largest structural
        // coefficient has magnitude 1. This keeps rows with very different
        // natural units (e.g. occupation times vs. plain counts) comparable
        // and avoids pivoting on tiny, noise-dominated entries.
        equilibrate_row(&mut tab.a[base..base + n], &mut tab.b[r]);
        match op {
            ConstraintOp::Le => {
                tab.a[base + next_slack] = 1.0;
                tab.basis[r] = next_slack;
                next_slack += 1;
            }
            ConstraintOp::Ge => {
                tab.a[base + next_slack] = -1.0;
                next_slack += 1;
                tab.a[base + next_art] = 1.0;
                tab.basis[r] = next_art;
                artificial_cols.push(next_art);
                next_art += 1;
            }
            ConstraintOp::Eq => {
                tab.a[base + next_art] = 1.0;
                tab.basis[r] = next_art;
                artificial_cols.push(next_art);
                next_art += 1;
            }
        }
    }
    Assembled {
        tab,
        artificial_cols,
    }
}

/// Scales a row so its largest structural coefficient has magnitude 1 when
/// its natural scale is far from unity (the sparse assembly applies the
/// same rule in `sparse::build_structural_row`).
fn equilibrate_row(structural: &mut [f64], rhs: &mut f64) {
    let row_scale = structural.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    if row_scale > 0.0 && !(1e-3..=1e3).contains(&row_scale) {
        for value in structural.iter_mut() {
            *value /= row_scale;
        }
        *rhs /= row_scale;
    }
}

/// Default pivot budget for an LP of the given size: simplex rarely
/// needs more than a few times `rows + cols` pivots on well-scaled problems.
pub(crate) fn default_iteration_budget(
    options: &SimplexOptions,
    rows: usize,
    cols: usize,
) -> usize {
    if options.max_iterations > 0 {
        options.max_iterations
    } else {
        200 * (rows + cols) + 2_000
    }
}

/// Runs phase 1 (when artificials exist) and phase 2 on an assembled
/// tableau. `phase2_cost` must already be in *maximization* form (one entry
/// per column). Returns the total pivot count; on success the tableau holds
/// an optimal basis.
fn two_phase(
    tab: &mut Tableau,
    artificial_cols: &[usize],
    phase2_cost: &[f64],
    options: &SimplexOptions,
) -> Result<usize, LpError> {
    let rows = tab.rows;
    let cols = tab.cols;
    let max_iterations = default_iteration_budget(options, rows, cols);
    let mut total_iterations = 0usize;

    // Phase 1: drive the artificial variables to zero.
    if !artificial_cols.is_empty() {
        let art_base = *artificial_cols.iter().min().expect("non-empty");
        let mut phase1_cost = vec![0.0; cols];
        for &c in artificial_cols {
            phase1_cost[c] = -1.0; // maximise -(sum of artificials)
        }
        let (status, iters) = optimize(tab, &phase1_cost, options, max_iterations);
        total_iterations += iters;
        match status {
            SolveStatus::Optimal => {}
            SolveStatus::IterationLimit => return Err(LpError::IterationLimit),
            // Phase 1 is bounded by construction; treat anything else as a bug.
            SolveStatus::Unbounded | SolveStatus::Infeasible => {
                return Err(LpError::IterationLimit)
            }
        }
        let artificial_sum: f64 = tab
            .basis
            .iter()
            .enumerate()
            .filter(|&(_, &bc)| bc >= art_base)
            .map(|(r, _)| tab.b[r])
            .sum();
        if artificial_sum > options.feasibility_tolerance {
            return Err(LpError::Infeasible);
        }
        // Pivot basic artificials (at value ~0) out of the basis when possible.
        for r in 0..rows {
            if tab.basis[r] >= art_base {
                if let Some(col) =
                    (0..art_base).find(|&c| tab.at(r, c).abs() > options.pivot_tolerance)
                {
                    tab.pivot(r, col);
                }
            }
        }
        // Bar artificial columns from phase 2.
        for &c in artificial_cols {
            tab.allowed[c] = false;
        }
    }

    // Phase 2: optimise the real objective.
    let remaining = max_iterations.saturating_sub(total_iterations).max(100);
    let (status, iters) = optimize(tab, phase2_cost, options, remaining);
    total_iterations += iters;
    match status {
        SolveStatus::Optimal => Ok(total_iterations),
        SolveStatus::Unbounded => Err(LpError::Unbounded),
        SolveStatus::IterationLimit => Err(LpError::IterationLimit),
        SolveStatus::Infeasible => Err(LpError::Infeasible),
    }
}

/// Extracts the structural-variable values from an optimal tableau.
fn extract_values(tab: &Tableau, n: usize) -> Vec<f64> {
    let mut values = vec![0.0; n];
    for r in 0..tab.rows {
        let bc = tab.basis[r];
        if bc < n {
            values[bc] = tab.b[r].max(0.0);
        }
    }
    values
}

/// The phase-2 cost row (maximization form) of `problem`, padded to `cols`.
pub(crate) fn maximization_cost(problem: &LpProblem, cols: usize) -> Vec<f64> {
    let sign = match problem.sense() {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    let mut cost = vec![0.0; cols];
    for (j, &c) in problem.objective().iter().enumerate() {
        cost[j] = sign * c;
    }
    cost
}

/// Solves `problem` with the sparse revised simplex (the engine of the
/// private `sparse` module).
pub fn solve(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    if !bcast_obs::enabled() {
        return crate::sparse::solve(problem, options);
    }
    let _span = bcast_obs::span!(bcast_obs::names::SPAN_LP_SOLVE);
    let start = std::time::Instant::now();
    let result = crate::sparse::solve(problem, options);
    let pivots = result.as_ref().map_or(0, |sol| sol.iterations) as u64;
    bcast_obs::counter_add(bcast_obs::names::LP_COLD_SOLVES, 1);
    bcast_obs::counter_add(bcast_obs::names::LP_PIVOTS, pivots);
    bcast_obs::emit_with(|| bcast_obs::Event::LpSolve {
        kind: bcast_obs::LpSolveKind::Cold,
        rows: problem.constraints().len(),
        cols: problem.num_vars(),
        pivots,
        status: solve_status_str(&result),
        t_ns: start.elapsed().as_nanos() as u64,
    });
    result
}

/// Journal status tag of a solve outcome.
pub(crate) fn solve_status_str(result: &Result<LpSolution, LpError>) -> &'static str {
    match result {
        Ok(_) => "optimal",
        Err(LpError::Infeasible) => "infeasible",
        Err(LpError::Unbounded) => "unbounded",
        Err(LpError::IterationLimit) => "iteration_limit",
        Err(LpError::Singular) => "singular",
        Err(_) => "error",
    }
}

/// Solves `problem` cold with the dense full-tableau method — the
/// differential oracle the tests compare the sparse engine against. Only
/// the [`SimplexOptions`] tolerances, the iteration cap and the Bland
/// threshold apply; nothing outside the tests calls it.
pub fn solve_dense(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    problem.validate()?;
    let n = problem.num_vars();
    let mut asm = assemble(n, problem.constraints());
    let phase2_cost = maximization_cost(problem, asm.tab.cols);
    let total_iterations = two_phase(&mut asm.tab, &asm.artificial_cols, &phase2_cost, options)?;
    let values = extract_values(&asm.tab, n);
    let objective = problem.eval_objective(&values);
    Ok(LpSolution {
        objective,
        values,
        status: SolveStatus::Optimal,
        iterations: total_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpProblem, Sense, VarId};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), z = 36.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 5.0);
        lp.add_le(&[(x, 1.0)], 4.0);
        lp.add_le(&[(y, 2.0)], 12.0);
        lp.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
        assert!(lp.max_violation(&sol.values) < 1e-7);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x + 2y >= 6 → (2, 2), z = 10.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 2.0);
        let y = lp.add_var("y", 3.0);
        lp.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_ge(&[(x, 1.0), (y, 2.0)], 6.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 10.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x <= 3 → objective 5.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 5.0);
        lp.add_le(&[(x, 1.0)], 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 5.0);
        assert_close(sol.value(x) + sol.value(y), 5.0);
    }

    #[test]
    fn infeasible_problem_is_detected() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        lp.add_le(&[(x, 1.0)], 1.0);
        lp.add_ge(&[(x, 1.0)], 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_detected() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 0.0);
        lp.add_ge(&[(x, 1.0), (y, -1.0)], 0.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // x - y <= -1 with max x + 0y, x,y >= 0, and x <= 3: optimum x=3 (y >= 4).
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 0.0);
        lp.add_le(&[(x, 1.0), (y, -1.0)], -1.0);
        lp.add_le(&[(x, 1.0)], 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
        assert!(sol.value(y) >= 4.0 - 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic cycling-prone example (Beale); Bland fallback must terminate.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x1 = lp.add_var("x1", 0.75);
        let x2 = lp.add_var("x2", -150.0);
        let x3 = lp.add_var("x3", 0.02);
        let x4 = lp.add_var("x4", -6.0);
        lp.add_le(&[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        lp.add_le(&[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        lp.add_le(&[(x3, 1.0)], 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.05);
    }

    #[test]
    fn zero_variable_problem() {
        let lp = LpProblem::new(Sense::Maximize);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.objective, 0.0);
        assert!(sol.values.is_empty());
    }

    #[test]
    fn no_constraints_bounded_only_by_nonnegativity() {
        // max -x with x >= 0 → x = 0.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", -1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.0);
        assert_close(sol.value(x), 0.0);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y = 2 stated twice plus max x + y.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 2.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn repeated_terms_are_summed() {
        // max x s.t. 0.5x + 0.5x <= 3 → x = 3.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        lp.add_le(&[(x, 0.5), (x, 0.5)], 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.value(x), 3.0);
    }

    #[test]
    fn transportation_problem() {
        // 2 supplies (10, 20), 2 demands (15, 15), costs [[1,2],[3,1]].
        // Optimal: s0->d0:10, s1->d0:5, s1->d1:15 → cost 10 + 15 + 15 = 40.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x00 = lp.add_var("x00", 1.0);
        let x01 = lp.add_var("x01", 2.0);
        let x10 = lp.add_var("x10", 3.0);
        let x11 = lp.add_var("x11", 1.0);
        lp.add_le(&[(x00, 1.0), (x01, 1.0)], 10.0);
        lp.add_le(&[(x10, 1.0), (x11, 1.0)], 20.0);
        lp.add_ge(&[(x00, 1.0), (x10, 1.0)], 15.0);
        lp.add_ge(&[(x01, 1.0), (x11, 1.0)], 15.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 40.0);
        assert!(lp.max_violation(&sol.values) < 1e-7);
    }

    #[test]
    fn larger_random_feasible_problem_is_primal_feasible() {
        // A deterministic pseudo-random LP: maximise Σ x_i subject to random
        // packing constraints. The optimum is unknown a priori; we check the
        // solver returns a feasible point with a non-trivial objective.
        let mut lp = LpProblem::new(Sense::Maximize);
        let n = 30;
        let vars: Vec<VarId> = (0..n).map(|i| lp.add_var(format!("x{i}"), 1.0)).collect();
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..40 {
            let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 0.1 + next())).collect();
            lp.add_le(&terms, 5.0 + 5.0 * next());
        }
        let sol = lp.solve().unwrap();
        assert!(sol.objective > 1.0);
        assert!(lp.max_violation(&sol.values) < 1e-6);
    }

    #[test]
    fn weak_duality_holds_on_paired_problems() {
        // Primal: max c'x s.t. Ax <= b; Dual: min b'y s.t. A'y >= c.
        // Strong duality: optimal objectives coincide.
        let a = [[2.0, 1.0, 1.0], [1.0, 3.0, 2.0], [2.0, 2.0, 3.0_f64]];
        let b = [10.0, 15.0, 20.0];
        let c = [4.0, 5.0, 6.0];

        let mut primal = LpProblem::new(Sense::Maximize);
        let xs: Vec<VarId> = (0..3)
            .map(|i| primal.add_var(format!("x{i}"), c[i]))
            .collect();
        for i in 0..3 {
            let terms: Vec<_> = (0..3).map(|j| (xs[j], a[i][j])).collect();
            primal.add_le(&terms, b[i]);
        }
        let psol = primal.solve().unwrap();

        let mut dual = LpProblem::new(Sense::Minimize);
        let ys: Vec<VarId> = (0..3)
            .map(|i| dual.add_var(format!("y{i}"), b[i]))
            .collect();
        for j in 0..3 {
            let terms: Vec<_> = (0..3).map(|i| (ys[i], a[i][j])).collect();
            dual.add_ge(&terms, c[j]);
        }
        let dsol = dual.solve().unwrap();
        assert_close(psol.objective, dsol.objective);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_le(&[(x, 1.0), (y, 1.0)], 10.0);
        let opts = SimplexOptions {
            max_iterations: 1,
            ..SimplexOptions::default()
        };
        // With a single allowed pivot the solver may or may not converge; it
        // must either return an optimal solution or the iteration-limit error,
        // never panic or loop forever.
        match lp.solve_with(&opts) {
            Ok(sol) => assert!(sol.iterations <= 1),
            Err(e) => assert_eq!(e, LpError::IterationLimit),
        }
    }
}
