//! Property-based tests of the simplex solver (compiled as a child module of
//! the crate so they can live next to the implementation; see `lib.rs`).

use crate::basis::{EtaBasis, ScatterVec};
use crate::incremental::RowUpdate;
use crate::{
    solve_dense, ColId, ConstraintOp, LpError, LpProblem, NewCol, RowId, Sense, SimplexOptions,
    SimplexState, VarId,
};
use proptest::prelude::*;

/// A random packing LP: maximise Σ cᵢ xᵢ subject to Ax ≤ b with non-negative
/// data. Always feasible (x = 0) and always bounded whenever every variable
/// appears in at least one constraint with a positive coefficient — the
/// generator enforces that by adding a final x ≤ bound row for every
/// variable.
#[derive(Clone, Debug)]
struct PackingLp {
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
    bounds: Vec<f64>,
}

fn packing_strategy() -> impl Strategy<Value = PackingLp> {
    (2usize..6, 1usize..6).prop_flat_map(|(vars, rows)| {
        let objective = proptest::collection::vec(0.0f64..5.0, vars);
        let row = (proptest::collection::vec(0.0f64..3.0, vars), 0.5f64..10.0);
        let rows = proptest::collection::vec(row, rows);
        let bounds = proptest::collection::vec(0.5f64..8.0, vars);
        (objective, rows, bounds).prop_map(|(objective, rows, bounds)| PackingLp {
            objective,
            rows,
            bounds,
        })
    })
}

fn build(lp: &PackingLp) -> (LpProblem, Vec<VarId>) {
    let mut problem = LpProblem::new(Sense::Maximize);
    let vars: Vec<VarId> = lp
        .objective
        .iter()
        .enumerate()
        .map(|(i, &c)| problem.add_var(format!("x{i}"), c))
        .collect();
    for (coeffs, rhs) in &lp.rows {
        let terms: Vec<(VarId, f64)> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        problem.add_le(&terms, *rhs);
    }
    for (v, &b) in vars.iter().zip(&lp.bounds) {
        problem.add_le(&[(*v, 1.0)], b);
    }
    (problem, vars)
}

/// One step of the column/row churn walk, as plain generated data:
/// `(kind, pick, coeff, rhs)` where `kind` selects the operation
/// (0 = add column, 1 = delete column, 2 = append row, 3 = rewrite row,
/// 4 = delete row, 5 = append, rewrite or delete an `=` row, or add a
/// column into one) and the rest parameterise it.
type ChurnOp = (u8, usize, f64, f64);

fn churn_op() -> impl Strategy<Value = ChurnOp> {
    (0u8..6, 0usize..64, 0.1f64..3.0, 0.0f64..6.0)
}

fn churn_ops() -> impl Strategy<Value = Vec<ChurnOp>> {
    proptest::collection::vec(churn_op(), 4..12)
}

/// One step of a batched churn walk: the op, then a re-solve only when the
/// second field is 0 (about every other op), so edits pile up between
/// re-solves as they do in a cut-generation round.
type BatchedOp = (ChurnOp, u8);

fn batched_churn_ops() -> impl Strategy<Value = Vec<BatchedOp>> {
    proptest::collection::vec((churn_op(), 0u8..2), 4..12)
}

/// The shared mutable bookkeeping of a churn walk: which handles exist,
/// which base rows carry an artificial and which row protects
/// boundedness. Both the warm-vs-cold walk and the snapshot round-trip
/// walk drive their states through this one op applier, so they exercise
/// identical interleavings.
#[derive(Clone)]
struct ChurnDriver {
    live_vars: Vec<VarId>,
    appended_cols: Vec<ColId>,
    appended_rows: Vec<RowId>,
    /// The appended `=` rows, all with rhs 0.
    eq_rows: Vec<RowId>,
    /// The base rows with an artificial (see [`churn_base`]): the two
    /// copies of the `=` row, then the `≥` row.
    pinned: [RowId; 3],
    /// The variable `s` of the `≥` row, which no op puts in another row.
    ge_var: VarId,
    protect: RowId,
}

impl ChurnDriver {
    /// Applies one op to `warm`; `false` means the op was a structural
    /// no-op (e.g. a delete with nothing to delete) and verification
    /// should be skipped.
    fn apply(&mut self, warm: &mut SimplexState, (kind, pick, coeff, rhs): ChurnOp) -> bool {
        match kind {
            // Append a profitable column, sometimes with a term in an
            // appended cut row (signed: `rhs − 3 ∈ [−3, 3)`, scaled by 10⁴
            // for one pick in four, so that the term sets the row's
            // equilibration scale), and for one pick in three with a
            // signed term in a pinned row (in one copy of the `=` row, it
            // forces the column to zero).
            0 => {
                let mut terms = vec![(self.protect, coeff)];
                if !self.appended_rows.is_empty() {
                    let scale = if pick % 4 == 0 { 1.0e4 } else { 1.0 };
                    terms.push((
                        self.appended_rows[pick % self.appended_rows.len()],
                        scale * (rhs - 3.0),
                    ));
                }
                if pick % 3 == 0 {
                    terms.push((self.pinned[(pick / 3) % 3], rhs - 3.0));
                }
                let cols = warm
                    .add_cols(&[NewCol::new(coeff + rhs, terms)])
                    .expect("valid column");
                self.live_vars.push(cols[0].var());
                self.appended_cols.push(cols[0]);
            }
            // Delete an appended column — possibly one the basis uses.
            1 if !self.appended_cols.is_empty() => {
                let col = self
                    .appended_cols
                    .swap_remove(pick % self.appended_cols.len());
                let var = col.var();
                warm.delete_cols(&[col]).expect("live handle");
                self.live_vars.retain(|&v| v != var);
            }
            // Append a `≤` row over a subset of the live columns.
            2 => {
                let terms: Vec<(VarId, f64)> = self
                    .live_vars
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| (j + pick) % 3 != 0)
                    .map(|(j, &v)| (v, coeff * ((j % 4) as f64 + 0.5)))
                    .collect();
                if terms.is_empty() {
                    return false;
                }
                self.appended_rows.push(
                    warm.add_row(&terms, ConstraintOp::Le, rhs)
                        .expect("valid row"),
                );
            }
            // Rewrite an appended row in place (signed coefficients), or
            // for one pick in three a pinned row: a copy of the `=` row
            // keeps rhs 0 and the `≥` row keeps its own variable, so both
            // stay satisfiable.
            3 if pick % 3 == 0 || !self.appended_rows.is_empty() => {
                let mut terms: Vec<(VarId, f64)> = self
                    .live_vars
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| (v, coeff - (j % 3) as f64))
                    .collect();
                let (row, rhs) = match (pick % 3, (pick / 3) % 3) {
                    (0, 2) => {
                        terms.push((self.ge_var, 1.0));
                        (self.pinned[2], rhs)
                    }
                    (0, copy) => (self.pinned[copy], 0.0),
                    _ => (self.appended_rows[pick % self.appended_rows.len()], rhs),
                };
                warm.update_coeffs(&[RowUpdate::new(row, terms, rhs)])
                    .expect("valid update");
            }
            // Delete an appended row, binding or not, as cut purges and
            // churn steps do.
            4 if !self.appended_rows.is_empty() => {
                let row = self
                    .appended_rows
                    .swap_remove(pick % self.appended_rows.len());
                warm.delete_rows(&[row]).expect("live handle");
            }
            // The `=` rows: delete one, add a column with a signed term in
            // one, or append or rewrite one over a subset of the live
            // columns with signed coefficients. The rhs stays 0, so x = 0
            // stays feasible; the new row's artificial starts basic at
            // minus the row's activity, so appends reach both the dual
            // pivoting it out and the cold fallback for one left above 0.
            5 => {
                let existing = (!self.eq_rows.is_empty()).then(|| pick % self.eq_rows.len());
                match (pick % 4, existing) {
                    (0, Some(i)) => {
                        let row = self.eq_rows.swap_remove(i);
                        warm.delete_rows(&[row]).expect("live handle");
                    }
                    (1, Some(i)) => {
                        let terms = vec![(self.protect, coeff), (self.eq_rows[i], rhs - 3.0)];
                        let cols = warm
                            .add_cols(&[NewCol::new(coeff + rhs, terms)])
                            .expect("valid column");
                        self.live_vars.push(cols[0].var());
                        self.appended_cols.push(cols[0]);
                    }
                    (which, existing) => {
                        let terms: Vec<(VarId, f64)> = self
                            .live_vars
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| (j + pick) % 3 != 0)
                            .map(|(j, &v)| {
                                let sign = if (j + which) % 2 == 0 { 1.0 } else { -1.0 };
                                (v, sign * coeff * ((j % 4) as f64 + 0.5))
                            })
                            .collect();
                        if terms.is_empty() {
                            return false;
                        }
                        match (which, existing) {
                            (2, Some(i)) => warm
                                .update_coeffs(&[RowUpdate::new(self.eq_rows[i], terms, 0.0)])
                                .expect("valid update"),
                            _ => self.eq_rows.push(
                                warm.add_row(&terms, ConstraintOp::Eq, 0.0)
                                    .expect("valid row"),
                            ),
                        }
                    }
                }
            }
            _ => return false,
        }
        true
    }
}

/// Builds the protected-base warm state both walks start from: the packing
/// LP plus three rows that the cold layout gives an artificial — two
/// copies of `x₀ − x₁ = 0`, which leave one artificial basic at zero in a
/// redundant row, and `x₀ + s ≥ bound₀` over a costly variable `s` that no
/// other row holds — and the protected row `Σ x + s ≤ 100`.
fn churn_base(lp: &PackingLp) -> (SimplexState, ChurnDriver) {
    let (mut problem, vars) = build(lp);
    let ge_var = problem.add_var("s", -1.0);
    let first = problem.constraints().len();
    let pair = [(vars[0], 1.0), (vars[1], -1.0)];
    problem.add_eq(&pair, 0.0);
    problem.add_eq(&pair, 0.0);
    problem.add_ge(&[(vars[0], 1.0), (ge_var, 1.0)], lp.bounds[0]);
    let mut all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
    all.push((ge_var, 1.0));
    problem.add_le(&all, 100.0);
    let mut warm = SimplexState::new(&problem).expect("valid base");
    warm.solve().expect("base solvable");
    let base = warm.base_rows();
    let driver = ChurnDriver {
        live_vars: vars,
        appended_cols: Vec::new(),
        appended_rows: Vec::new(),
        eq_rows: Vec::new(),
        pinned: [base[first], base[first + 1], base[first + 2]],
        ge_var,
        protect: base[first + 3],
    };
    (warm, driver)
}

/// Replays `ops` against one warm state, re-solving and differencing
/// against the dense oracle's cold solve of the materialised problem after
/// every operation.
///
/// Boundedness/feasibility invariant: a protected base row caps the sum of
/// every column — present and future — at 100 (each appended column carries
/// a positive coefficient there). Every `≤` row of the walk has a
/// non-negative rhs, the `=` rows (base and appended) keep rhs 0, and
/// besides the protected row only the `≥` row holds `s`, with coefficient
/// 1 and an rhs below 100, so `x = 0` with `s` at that rhs stays feasible
/// and the walk can never make the LP unbounded or infeasible.
fn churn_walk(lp: &PackingLp, ops: &[ChurnOp]) {
    let (mut warm, mut driver) = churn_base(lp);
    for &op in ops {
        if !driver.apply(&mut warm, op) {
            continue;
        }
        let kind = op.0;
        let w = warm.resolve().expect("churn keeps the LP solvable");
        let cold_problem = warm.to_problem();
        let c = solve_dense(&cold_problem, &SimplexOptions::default())
            .expect("the dense oracle agrees on solvability");
        prop_assert!(
            (w.objective - c.objective).abs() <= 1e-9 * c.objective.abs().max(1.0),
            "churn op {kind}: warm {} vs dense {}",
            w.objective,
            c.objective
        );
        prop_assert!(
            cold_problem.max_violation(&w.values) < 1e-6,
            "warm point infeasible after churn op {kind} (violation {})",
            cold_problem.max_violation(&w.values)
        );
    }
}

/// One re-solve's answer, bit for bit: objective, values and pivots.
fn solve_bits(state: &mut SimplexState) -> (u64, Vec<u64>, usize) {
    let sol = state.resolve().expect("churn keeps the LP solvable");
    let values = sol.values.iter().map(|v| v.to_bits()).collect();
    (sol.objective.to_bits(), values, sol.iterations)
}

/// Snapshot round-trip under batched churn: at every split point of the
/// walk, the live state and `restore(capture())` taken there are driven
/// through the remaining ops, and every re-solve must return the same
/// objective and value bits and the same pivot count. After every op both
/// must report equal `stats()` — which also shows that the restore was not
/// refused, since a refusal counts a cold fallback — and equal captures.
fn snapshot_round_trip_walk(lp: &PackingLp, ops: &[BatchedOp]) {
    for split in 0..=ops.len() {
        let (mut live, mut driver) = churn_base(lp);
        for &(op, resolve) in &ops[..split] {
            if driver.apply(&mut live, op) && resolve == 0 {
                live.resolve().expect("churn keeps the LP solvable");
            }
        }
        let mut restored = SimplexState::restore(&live.capture()).expect("a live capture restores");
        let mut twin = driver.clone();
        for (i, &(op, resolve)) in ops.iter().enumerate().skip(split) {
            let kind = op.0;
            let applied = driver.apply(&mut live, op);
            prop_assert_eq!(applied, twin.apply(&mut restored, op));
            if applied && resolve == 0 {
                prop_assert!(
                    solve_bits(&mut live) == solve_bits(&mut restored),
                    "split {split}, op {i} (kind {kind}): the restored state re-solved differently"
                );
            }
            prop_assert_eq!(
                live.stats(),
                restored.stats(),
                "split {}, op {} (kind {})",
                split,
                i,
                kind
            );
            prop_assert!(
                live.capture() == restored.capture(),
                "split {split}, op {i} (kind {kind}): captures differ"
            );
        }
        prop_assert!(
            solve_bits(&mut live) == solve_bits(&mut restored),
            "split {split}: the final re-solve differs"
        );
        prop_assert_eq!(
            live.stats(),
            restored.stats(),
            "split {}: final stats",
            split
        );
    }
}

/// A random nonsingular basis for the LU differential test: strictly
/// column-diagonally-dominant columns (so nonsingularity is guaranteed by
/// construction) with random sparsity and per-column scales spanning six
/// orders of magnitude, plus a probe vector and a few entering columns to
/// exercise the eta-on-LU update path.
#[derive(Clone, Debug)]
struct BasisCase {
    m: usize,
    cols: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    enterings: Vec<(Vec<f64>, usize)>,
}

fn basis_case_strategy() -> impl Strategy<Value = BasisCase> {
    (2usize..9).prop_flat_map(|m| {
        let entries = proptest::collection::vec(-1.0f64..1.0, m * m);
        let mask = proptest::collection::vec(0.0f64..1.0, m * m);
        let scales = proptest::collection::vec(-3i32..4, m);
        let rhs = proptest::collection::vec(-2.0f64..2.0, m);
        let ups = proptest::collection::vec(
            (proptest::collection::vec(-1.0f64..1.0, m), 0usize..8),
            0..4,
        );
        (entries, mask, scales, rhs, ups).prop_map(
            move |(entries, mask, scales, rhs, enterings)| {
                let mut cols = vec![vec![0.0f64; m]; m];
                for (k, col) in cols.iter_mut().enumerate() {
                    let s = 10f64.powi(scales[k]);
                    for (i, slot) in col.iter_mut().enumerate() {
                        let e = entries[k * m + i];
                        *slot = s * if i == k {
                            m as f64 + 1.0 + e.abs()
                        } else if mask[k * m + i] < 0.6 {
                            e
                        } else {
                            0.0
                        };
                    }
                }
                BasisCase {
                    m,
                    cols,
                    rhs,
                    enterings,
                }
            },
        )
    })
}

/// Dense Gauss–Jordan oracle with full partial pivoting: `x = M⁻¹ b` for
/// the matrix whose `k`-th column is `cols[k]`.
fn dense_solve(cols: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let m = b.len();
    let mut a = vec![vec![0.0f64; m + 1]; m];
    for (i, row) in a.iter_mut().enumerate() {
        for (k, col) in cols.iter().enumerate() {
            row[k] = col[i];
        }
        row[m] = b[i];
    }
    for k in 0..m {
        let piv = (k..m)
            .max_by(|&x, &y| a[x][k].abs().partial_cmp(&a[y][k].abs()).unwrap())
            .unwrap();
        a.swap(k, piv);
        let pivot_row = a[k].clone();
        for (i, row) in a.iter_mut().enumerate() {
            if i == k {
                continue;
            }
            let f = row[k] / pivot_row[k];
            if f == 0.0 {
                continue;
            }
            for (c, &pv) in pivot_row.iter().enumerate().skip(k) {
                row[c] -= f * pv;
            }
        }
    }
    (0..m).map(|i| a[i][m] / a[i][i]).collect()
}

/// `x = M⁻ᵀ b` via the same oracle on the transpose.
fn dense_solve_t(cols: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let m = b.len();
    let t: Vec<Vec<f64>> = (0..m)
        .map(|k| (0..m).map(|i| cols[i][k]).collect())
        .collect();
    dense_solve(&t, b)
}

/// FTRAN/BTRAN of `basis` must agree with dense solves against the matrix
/// whose `r`-th column is `mat[r]`, at 1e-9 relative to the solution norm.
fn assert_lu_matches_oracle(
    basis: &EtaBasis,
    mat: &[Vec<f64>],
    rhs: &[f64],
    probe: &mut ScatterVec,
    what: &str,
) {
    let m = rhs.len();
    probe.ensure_len(m);
    for (transposed, oracle) in [
        (false, dense_solve(mat, rhs)),
        (true, dense_solve_t(mat, rhs)),
    ] {
        probe.clear();
        for (i, &v) in rhs.iter().enumerate() {
            if v != 0.0 {
                probe.add(i as u32, v);
            }
        }
        if transposed {
            basis.btran(probe);
        } else {
            basis.ftran(probe);
        }
        let norm = oracle.iter().fold(1.0f64, |n, &v| n.max(v.abs()));
        for (i, &expect) in oracle.iter().enumerate() {
            let got = probe.get(i as u32);
            prop_assert!(
                (got - expect).abs() <= 1e-9 * norm,
                "{what} {}[{i}]: {got} vs oracle {expect} (norm {norm})",
                if transposed { "btran" } else { "ftran" },
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The Markowitz LU differential: factorize random (graded, sparse,
    /// guaranteed-nonsingular) bases and check FTRAN/BTRAN against a dense
    /// Gauss–Jordan oracle at 1e-9, then replace columns through the
    /// eta-on-LU update path and check again after every pivot.
    #[test]
    fn lu_factorization_matches_the_dense_oracle(case in basis_case_strategy()) {
        let m = case.m;
        let sparse: Vec<Vec<(u32, f64)>> = case
            .cols
            .iter()
            .map(|c| {
                c.iter()
                    .enumerate()
                    .filter(|(_, v)| **v != 0.0)
                    .map(|(i, &v)| (i as u32, v))
                    .collect()
            })
            .collect();
        let mut basis = EtaBasis::new();
        let mut work = ScatterVec::default();
        let mut probe = ScatterVec::default();
        let assignment = basis
            .refactorize(m, &(0..m).collect::<Vec<_>>(), |j| &sparse[j], 1e-7, &mut work)
            .expect("diagonally dominant bases are nonsingular");
        // The factorization's column order: position r holds the column the
        // LU pivoted on row r.
        let mut mat: Vec<Vec<f64>> = assignment.iter().map(|&c| case.cols[c].clone()).collect();
        assert_lu_matches_oracle(&basis, &mat, &case.rhs, &mut probe, "fresh");
        // Eta-on-LU updates: pivot entering columns in, one per step, and
        // re-verify the transforms against the mutated matrix.
        for (step, (ecol, pick)) in case.enterings.iter().enumerate() {
            work.ensure_len(m);
            work.clear();
            for (i, &v) in ecol.iter().enumerate() {
                if v != 0.0 {
                    work.add(i as u32, v);
                }
            }
            basis.ftran(&mut work);
            let alpha_max = (0..m as u32).fold(0.0f64, |n, i| n.max(work.get(i).abs()));
            let candidates: Vec<usize> = (0..m)
                .filter(|&r| work.get(r as u32).abs() >= 0.1 * alpha_max)
                .collect();
            if alpha_max < 1e-9 || candidates.is_empty() {
                continue; // entering column ~ dependent; skip the pivot
            }
            let r = candidates[pick % candidates.len()];
            basis.update(&work, r as u32);
            mat[r] = ecol.clone();
            assert_lu_matches_oracle(&basis, &mat, &case.rhs, &mut probe,
                &format!("after update {step}"));
        }
    }

    /// The solver returns a primal-feasible point whose objective is at
    /// least as good as a few simple feasible candidates (x = 0 and the
    /// single-variable corners).
    #[test]
    fn packing_lps_solve_to_feasible_and_dominant_points(lp in packing_strategy()) {
        let (problem, vars) = build(&lp);
        let solution = problem.solve().expect("packing LPs are feasible and bounded");
        prop_assert!(problem.max_violation(&solution.values) < 1e-6,
            "violation {}", problem.max_violation(&solution.values));
        // Dominates the origin.
        prop_assert!(solution.objective >= -1e-9);
        // Dominates every single-variable corner that is feasible.
        for (i, &v) in vars.iter().enumerate() {
            // Largest feasible value of variable i alone.
            let mut limit = lp.bounds[i];
            for (coeffs, rhs) in &lp.rows {
                if coeffs[i] > 1e-12 {
                    limit = limit.min(rhs / coeffs[i]);
                }
            }
            let corner_objective = problem.objective_coefficient(v) * limit;
            prop_assert!(solution.objective >= corner_objective - 1e-6,
                "corner {i} with objective {corner_objective} beats the solver");
        }
    }

    /// Strong duality on random packing problems: the dual (a covering LP)
    /// has the same optimal value.
    #[test]
    fn strong_duality_holds(lp in packing_strategy()) {
        let (primal, _) = build(&lp);
        let psol = primal.solve().expect("primal solvable");

        // Dual: minimise b'y + bounds'z  s.t.  A'y + z ≥ c,  y, z ≥ 0.
        let mut dual = LpProblem::new(Sense::Minimize);
        let ys: Vec<VarId> = lp
            .rows
            .iter()
            .enumerate()
            .map(|(i, (_, rhs))| dual.add_var(format!("y{i}"), *rhs))
            .collect();
        let zs: Vec<VarId> = lp
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| dual.add_var(format!("z{i}"), b))
            .collect();
        for j in 0..lp.objective.len() {
            let mut terms: Vec<(VarId, f64)> = lp
                .rows
                .iter()
                .enumerate()
                .map(|(i, (coeffs, _))| (ys[i], coeffs[j]))
                .collect();
            terms.push((zs[j], 1.0));
            dual.add_ge(&terms, lp.objective[j]);
        }
        let dsol = dual.solve().expect("dual solvable");
        prop_assert!((psol.objective - dsol.objective).abs()
            <= 1e-6 * psol.objective.abs().max(1.0),
            "primal {} vs dual {}", psol.objective, dsol.objective);
    }

    /// Warm-started dual simplex agrees with the cold solver on appended
    /// rows: random dual-feasible starts (the packing optimum), tightened
    /// packing rows that cut the optimum off, and fully degenerate
    /// `Σ ±x ≥ 0` difference rows (the PR 1 stall class).
    #[test]
    fn warm_append_agrees_with_cold(
        lp in packing_strategy(),
        tighten in 0.3f64..0.95,
        pairs in proptest::collection::vec((0usize..6, 0usize..6), 1..4),
    ) {
        let (problem, vars) = build(&lp);
        let mut warm = SimplexState::new(&problem)
            .expect("valid base");
        let first = warm.solve().expect("base solvable");
        // Degenerate difference rows x_i − x_j ≥ 0.
        for (i, j) in pairs {
            let a = vars[i % vars.len()];
            let b = vars[j % vars.len()];
            if a == b {
                continue;
            }
            warm.add_row(&[(a, 1.0), (b, -1.0)], ConstraintOp::Ge, 0.0)
                .expect("valid row");
            let w = warm.resolve().expect("difference rows keep x = 0 feasible");
            let cold_problem = warm.to_problem();
            let c = cold_problem.solve().expect("cold agrees on feasibility");
            prop_assert!((w.objective - c.objective).abs()
                <= 1e-6 * c.objective.abs().max(1.0),
                "degenerate append: warm {} vs cold {}", w.objective, c.objective);
            prop_assert!(cold_problem.max_violation(&w.values) < 1e-6);
        }
        // A binding packing row: Σ x_i ≤ tighten · Σ x_i*.
        let total: f64 = first.values.iter().sum();
        if total > 1e-6 {
            let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            warm.add_row(&terms, ConstraintOp::Le, tighten * total)
                .expect("valid row");
            let w = warm.resolve().expect("tightened packing stays feasible");
            let cold_problem = warm.to_problem();
            let c = cold_problem.solve().expect("cold agrees");
            prop_assert!((w.objective - c.objective).abs()
                <= 1e-6 * c.objective.abs().max(1.0),
                "binding append: warm {} vs cold {}", w.objective, c.objective);
            prop_assert!(cold_problem.max_violation(&w.values) < 1e-6);
        }
    }

    /// Deleting every appended row returns the solver to the base optimum,
    /// whether the rows were binding (refactorization path) or slack
    /// (in-place removal).
    #[test]
    fn deleting_appended_rows_restores_the_base_optimum(
        lp in packing_strategy(),
        tighten in 0.3f64..0.95,
    ) {
        let (problem, vars) = build(&lp);
        let base_objective = problem.solve().expect("base solvable").objective;
        let mut warm = SimplexState::new(&problem)
            .expect("valid base");
        let first = warm.solve().expect("base solvable");
        let total: f64 = first.values.iter().sum();
        let mut ids = Vec::new();
        let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        // One binding, one slack row.
        ids.push(warm.add_row(&terms, ConstraintOp::Le, (tighten * total).max(0.05))
            .expect("valid row"));
        ids.push(warm.add_row(&terms, ConstraintOp::Le, total + 10.0)
            .expect("valid row"));
        warm.resolve().expect("still feasible");
        warm.delete_rows(&ids).expect("handles valid");
        let restored = warm.resolve().expect("base solvable");
        prop_assert!((restored.objective - base_objective).abs()
            <= 1e-6 * base_objective.abs().max(1.0),
            "restored {} vs base {}", restored.objective, base_objective);
    }

    /// A row that contradicts non-negativity makes the warm path report
    /// `Infeasible`, exactly like a cold solve of the same problem.
    #[test]
    fn infeasible_after_append_is_detected(lp in packing_strategy(), k in 0usize..6) {
        let (problem, vars) = build(&lp);
        let mut warm = SimplexState::new(&problem)
            .expect("valid base");
        warm.solve().expect("base solvable");
        let v = vars[k % vars.len()];
        warm.add_row(&[(v, 1.0)], ConstraintOp::Le, -1.0).expect("valid row");
        prop_assert_eq!(warm.resolve().unwrap_err(), LpError::Infeasible);
        prop_assert_eq!(warm.to_problem().solve().unwrap_err(), LpError::Infeasible);
    }

    /// In-place coefficient updates of existing rows — the drift substrate —
    /// keep warm ≡ cold and never corrupt the basis, including sign flips
    /// and zeroed coefficients. Every perturbed row keeps a strictly
    /// positive rhs, so x = 0 stays feasible and the LP stays solvable.
    #[test]
    fn update_coeffs_random_perturbations_agree_with_cold(
        lp in packing_strategy(),
        perturbations in proptest::collection::vec(
            proptest::collection::vec((-1.5f64..2.5, 0.0f64..1.0), 2..7),
            1..4,
        ),
    ) {
        let (problem, vars) = build(&lp);
        let mut warm = SimplexState::new(&problem)
            .expect("valid base");
        warm.solve().expect("base solvable");
        let rows = warm.base_rows();
        for step in perturbations {
            // Rescale each packing row by a per-variable factor in
            // [−1.5, 2.5): sign flips and zeroing included (a factor with
            // magnitude below 0.25 zeroes the coefficient outright).
            let updates: Vec<RowUpdate> = lp
                .rows
                .iter()
                .enumerate()
                .map(|(i, (coeffs, rhs))| {
                    let terms: Vec<(VarId, f64)> = vars
                        .iter()
                        .enumerate()
                        .map(|(j, &v)| {
                            let (factor, _) = step[(i + j) % step.len()];
                            let scaled = if factor.abs() < 0.25 { 0.0 } else { coeffs[j] * factor };
                            (v, scaled)
                        })
                        .collect();
                    RowUpdate::new(rows[i], terms, rhs.max(0.5))
                })
                .collect();
            warm.update_coeffs(&updates).expect("valid update batch");
            let w = warm.resolve().expect("x = 0 keeps the LP feasible");
            let cold_problem = warm.to_problem();
            let c = cold_problem.solve().expect("cold agrees on feasibility");
            prop_assert!((w.objective - c.objective).abs()
                <= 1e-6 * c.objective.abs().max(1.0),
                "update: warm {} vs cold {}", w.objective, c.objective);
            prop_assert!(cold_problem.max_violation(&w.values) < 1e-6,
                "warm point infeasible after update (violation {})",
                cold_problem.max_violation(&w.values));
        }
    }

    /// A batch containing an unknown (or deleted) handle fails atomically:
    /// the state keeps solving to the same optimum as before the attempt.
    #[test]
    fn update_coeffs_unknown_row_fails_atomically(
        lp in packing_strategy(),
        bogus in 1000usize..2000,
        scale in 0.2f64..3.0,
    ) {
        let (problem, vars) = build(&lp);
        let mut warm = SimplexState::new(&problem)
            .expect("valid base");
        let before = warm.solve().expect("base solvable").objective;
        let rows = warm.base_rows();
        let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, scale)).collect();
        let err = warm
            .update_coeffs(&[
                RowUpdate::new(rows[0], terms.clone(), 1.0),
                RowUpdate::new(RowId(bogus), terms.clone(), 1.0),
            ])
            .unwrap_err();
        prop_assert_eq!(err, LpError::UnknownRow(bogus));
        // A deleted appended row is rejected the same way.
        let appended = warm
            .add_row(&terms, ConstraintOp::Le, 1000.0)
            .expect("valid row");
        warm.resolve().expect("still solvable");
        warm.delete_rows(&[appended]).expect("handle valid");
        let err = warm
            .update_coeffs(&[RowUpdate::new(appended, terms, 1.0)])
            .unwrap_err();
        prop_assert_eq!(err, LpError::UnknownRow(appended.index()));
        let after = warm.resolve().expect("state still consistent").objective;
        prop_assert!((after - before).abs() <= 1e-6 * before.abs().max(1.0),
            "failed update changed the optimum: {before} -> {after}");
    }

    /// The sparse revised simplex agrees with the dense tableau oracle:
    /// identical status and objective (1e-9 relative) on random packing
    /// LPs, and the sparse engine's point is feasible for the model.
    #[test]
    fn sparse_engine_matches_dense_on_packing_lps(lp in packing_strategy()) {
        let (problem, _) = build(&lp);
        let sparse = problem.solve().expect("sparse solves packing LPs");
        let dense = solve_dense(&problem, &SimplexOptions::default())
            .expect("dense solves packing LPs");
        prop_assert!((sparse.objective - dense.objective).abs()
            <= 1e-9 * dense.objective.abs().max(1.0),
            "sparse {} vs dense {}", sparse.objective, dense.objective);
        prop_assert!(problem.max_violation(&sparse.values) < 1e-6,
            "sparse point infeasible (violation {})",
            problem.max_violation(&sparse.values));
    }

    /// Sparse ≡ dense including *degenerate* rows (`x_i − x_j ≥ 0` chains
    /// with zero right-hand sides — the historical stall class) and mixed
    /// `=` rows, at every refactorization interval from per-pivot to
    /// effectively-never.
    #[test]
    fn sparse_engine_matches_dense_on_degenerate_lps(
        lp in packing_strategy(),
        pairs in proptest::collection::vec((0usize..6, 0usize..6), 1..5),
        pin in 0.1f64..2.0,
        interval_pick in 0usize..5,
    ) {
        let interval = [1usize, 2, 7, 64, 100_000][interval_pick];
        let (mut problem, vars) = build(&lp);
        for (i, j) in pairs {
            let a = vars[i % vars.len()];
            let b = vars[j % vars.len()];
            if a != b {
                problem.add_ge(&[(a, 1.0), (b, -1.0)], 0.0);
            }
        }
        // An equality row exercises phase 1 on both solvers.
        problem.add_eq(&[(vars[0], 1.0)], pin.min(lp.bounds[0]));
        let sparse_opts = SimplexOptions {
            refactor_interval: interval,
            ..SimplexOptions::default()
        };
        match (
            problem.solve_with(&sparse_opts),
            solve_dense(&problem, &SimplexOptions::default()),
        ) {
            (Ok(s), Ok(d)) => {
                prop_assert!((s.objective - d.objective).abs()
                    <= 1e-9 * d.objective.abs().max(1.0),
                    "interval {interval}: sparse {} vs dense {}", s.objective, d.objective);
                prop_assert!(problem.max_violation(&s.values) < 1e-6);
            }
            (Err(se), Err(de)) => prop_assert_eq!(se, de, "verdicts differ"),
            (s, d) => prop_assert!(false, "solvability differs: sparse {s:?} vs dense {d:?}"),
        }
    }

    /// Sparse ≡ dense on *infeasible* models: both solvers must return
    /// `Infeasible`, never a bogus optimum.
    #[test]
    fn sparse_engine_matches_dense_on_infeasible_lps(
        lp in packing_strategy(),
        k in 0usize..6,
        gap in 0.5f64..5.0,
    ) {
        let (mut problem, vars) = build(&lp);
        // x_k ≥ bound_k + gap contradicts x_k ≤ bound_k.
        let v = vars[k % vars.len()];
        problem.add_ge(&[(v, 1.0)], lp.bounds[k % vars.len()] + gap);
        prop_assert_eq!(problem.solve().unwrap_err(), LpError::Infeasible);
        prop_assert_eq!(
            solve_dense(&problem, &SimplexOptions::default()).unwrap_err(),
            LpError::Infeasible
        );
    }

    /// Random interleavings of `add_cols` / `delete_cols` / `add_row` /
    /// `update_coeffs` / `delete_rows` keep the warm state equal to the
    /// dense oracle's cold solve of the materialised problem at 1e-9
    /// relative after **every** operation — the node-churn substrate of the
    /// dynamic-platform pipeline.
    #[test]
    fn column_churn_interleavings_keep_warm_equal_to_cold(
        lp in packing_strategy(),
        ops in churn_ops(),
    ) {
        churn_walk(&lp, &ops);
    }

    /// Snapshot round-trip under random churn interleavings, batched
    /// between re-solves: a state restored from a capture at any point
    /// continues bit for bit as the live one — objective and value bits,
    /// pivots, stats — the persistence substrate of the crash-safe service.
    #[test]
    fn snapshot_round_trip_survives_churn_interleavings(
        lp in packing_strategy(),
        ops in batched_churn_ops(),
    ) {
        snapshot_round_trip_walk(&lp, &ops);
    }

    /// Deleting an unknown or already-deleted column handle fails atomically
    /// with `LpError::UnknownCol`: nothing in the batch is applied, live
    /// handles in the same batch survive, and the state keeps solving to
    /// the cold optimum.
    #[test]
    fn deleting_unknown_columns_fails_atomically(
        lp in packing_strategy(),
        bogus in 1000usize..2000,
        obj in 0.5f64..4.0,
    ) {
        let (mut problem, vars) = build(&lp);
        let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        problem.add_le(&all, 100.0);
        let mut warm = SimplexState::new(&problem).expect("valid base");
        let before = warm.solve().expect("base solvable").objective;
        let protect = *warm.base_rows().last().expect("protected row exists");
        // Never-issued handle.
        prop_assert_eq!(
            warm.delete_cols(&[ColId(bogus)]).unwrap_err(),
            LpError::UnknownCol(bogus)
        );
        // A batch mixing a live handle with a bogus one deletes nothing.
        let cols = warm
            .add_cols(&[NewCol::new(obj, vec![(protect, 1.0)])])
            .expect("valid column");
        warm.resolve().expect("solvable with the new column");
        prop_assert_eq!(
            warm.delete_cols(&[cols[0], ColId(bogus)]).unwrap_err(),
            LpError::UnknownCol(bogus)
        );
        let with_col = warm.resolve().expect("column survived").objective;
        let cold_problem = warm.to_problem();
        let cold = solve_dense(&cold_problem, &SimplexOptions::default())
            .expect("cold agrees")
            .objective;
        prop_assert!(
            (with_col - cold).abs() <= 1e-9 * cold.abs().max(1.0),
            "failed batch changed the state: warm {with_col} vs cold {cold}"
        );
        // Deleting twice: the second attempt is rejected and the
        // restored base optimum is intact.
        warm.delete_cols(&[cols[0]]).expect("live handle");
        prop_assert_eq!(
            warm.delete_cols(&[cols[0]]).unwrap_err(),
            LpError::UnknownCol(cols[0].index())
        );
        let after = warm.resolve().expect("solvable").objective;
        prop_assert!(
            (after - before).abs() <= 1e-6 * before.abs().max(1.0),
            "restored {after} vs base {before}"
        );
    }

    /// Scaling every coefficient of the objective scales the optimum.
    #[test]
    fn objective_scaling_is_linear(lp in packing_strategy(), scale in 0.1f64..4.0) {
        let (problem, vars) = build(&lp);
        let base = problem.solve().unwrap().objective;
        let mut scaled = problem.clone();
        for (i, &v) in vars.iter().enumerate() {
            scaled.set_objective(v, lp.objective[i] * scale);
        }
        let scaled_obj = scaled.solve().unwrap().objective;
        prop_assert!((scaled_obj - scale * base).abs() <= 1e-6 * (scale * base).abs().max(1.0));
    }
}
