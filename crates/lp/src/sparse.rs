//! The **sparse revised simplex**, the one LP engine behind
//! [`crate::solve`] and [`crate::incremental::SimplexState`]: column-wise
//! constraint storage, a Markowitz sparse LU basis with bounded eta updates
//! ([`crate::basis`]), sparse FTRAN/BTRAN kernels, and Devex pricing for
//! both the primal and the dual method.
//!
//! The LPs of this project are far from dense: a port row has one nonzero
//! per incident edge, a cut row one nonzero per crossing edge — a handful
//! of entries over ~n² edge variables. The revised method only ever works
//! with
//!
//! * one FTRAN (`B⁻¹ a_q`, the entering column) per pivot,
//! * one BTRAN (`B⁻ᵀ e_r`, the leaving row's pricing vector) per pivot,
//! * one sparse row pass (`ρᵀ A`) to update the reduced costs,
//!
//! all proportional to the nonzeros actually involved, which is what makes
//! 500- and 1000-node platforms tractable. Devex keeps one reference
//! framework per pricing pass, surviving refactorizations, and both loops
//! keep a Bland anti-cycling fallback — latched on genuine lack of
//! progress, scaled with problem size — so the incremental layer's "cold
//! fallback is authoritative" contract holds.
//!
//! The assembly applies the *same* normalization as the dense oracle
//! [`simplex::solve_dense`] ([`simplex::normalize_constraint`], row
//! equilibration, artificial-free `≥ 0` rewrite), so both solve literally
//! the same standard form and their optima agree to solver tolerance —
//! asserted by the differential proptests in `tests_prop.rs` and by
//! `tests/lp_sparse.rs`.

use crate::basis::{EtaBasis, ScatterVec};
use crate::model::{Constraint, ConstraintOp, LpError, LpProblem, LpSolution};
use crate::simplex::{
    self, SimplexOptions, SolveStatus, BLAND_THRESHOLD, COST_TOLERANCE, FEASIBILITY_TOLERANCE,
    PIVOT_TOLERANCE,
};

/// The assembled LP in sparse standard form `Ax = b` (after slack /
/// artificial augmentation), built by [`assemble`] and never edited
/// afterwards except for the basis and the enterable columns, which the
/// simplex passes move.
pub(crate) struct SparseProblem {
    /// Number of constraint rows.
    pub(crate) m: usize,
    /// Total number of columns (structural + slack + artificial).
    pub(crate) ncols: usize,
    /// Row-major nonzeros (including slack/artificial entries).
    pub(crate) row_nz: Vec<Vec<(u32, f64)>>,
    /// Column-major mirror of `row_nz`.
    pub(crate) col_nz: Vec<Vec<(u32, f64)>>,
    /// Right-hand side per row (non-negative after normalization for rows
    /// with an artificial; a slack-form row may go negative — the dual's
    /// cue).
    pub(crate) b: Vec<f64>,
    /// Columns that may enter the basis.
    pub(crate) allowed: Vec<bool>,
    /// Basic column of each row position.
    pub(crate) basis: Vec<usize>,
}

/// Sums sparse `(var, coeff)` terms into dense-indexed structural values,
/// applies the row-equilibration rule of the dense oracle's assembly, and
/// returns the surviving nonzeros (exact zeros are dropped).
fn build_structural_row(
    n: usize,
    terms: &[(crate::model::VarId, f64)],
    sign: f64,
    rhs: &mut f64,
    scratch: &mut ScatterVec,
) -> Vec<(u32, f64)> {
    scratch.ensure_len(n);
    scratch.clear();
    for &(v, c) in terms {
        scratch.add(v.index() as u32, sign * c);
    }
    // Row equilibration — same rule as `simplex::equilibrate_row`: scale so
    // the largest structural coefficient has magnitude 1 when the natural
    // scale is far from unity.
    let row_scale = scratch
        .support()
        .iter()
        .fold(0.0f64, |acc, &i| acc.max(scratch.get(i).abs()));
    let scale = if row_scale > 0.0 && !(1e-3..=1e3).contains(&row_scale) {
        *rhs /= row_scale;
        row_scale
    } else {
        1.0
    };
    let mut out: Vec<(u32, f64)> = scratch
        .support()
        .iter()
        .filter_map(|&i| {
            let v = scratch.get(i) / scale;
            (v != 0.0).then_some((i, v))
        })
        .collect();
    out.sort_unstable_by_key(|&(i, _)| i);
    out
}

/// The auxiliary columns of one assembled row: its slack (or surplus), its
/// artificial, or both.
#[derive(Clone, Copy)]
pub(crate) struct Aux {
    pub(crate) slack: Option<usize>,
    pub(crate) art: Option<usize>,
}

/// The columns and starting basis of a cold solve (see [`cold_layout`]).
pub(crate) struct ColdLayout {
    /// Total column count.
    pub(crate) cols: usize,
    /// Auxiliary columns per row.
    pub(crate) aux: Vec<Aux>,
    /// Basic column per row.
    pub(crate) basis: Vec<usize>,
    /// Every artificial column, in row order.
    pub(crate) artificial_cols: Vec<usize>,
}

/// Where a cold solve puts the auxiliary columns of `constraints` over `n`
/// structural variables, and the basis it starts from. The columns are
/// `[structural | slack | artificial]`, numbered in row order after
/// [`simplex::normalize_constraint`]: a `≤` row gets a basic slack, a `≥`
/// row a surplus and a basic artificial, an `=` row a basic artificial.
pub(crate) fn cold_layout<'a>(
    n: usize,
    constraints: impl Iterator<Item = &'a Constraint>,
) -> ColdLayout {
    let ops: Vec<ConstraintOp> = constraints
        .map(|c| simplex::normalize_constraint(c).0)
        .collect();
    let num_slack = ops.iter().filter(|&&op| op != ConstraintOp::Eq).count();
    let num_artificial = ops.iter().filter(|&&op| op != ConstraintOp::Le).count();
    let mut layout = ColdLayout {
        cols: n + num_slack + num_artificial,
        aux: Vec::with_capacity(ops.len()),
        basis: Vec::with_capacity(ops.len()),
        artificial_cols: Vec::with_capacity(num_artificial),
    };
    let mut next_slack = n;
    let mut next_art = n + num_slack;
    for op in ops {
        let slack = (op != ConstraintOp::Eq).then_some(next_slack);
        let art = (op != ConstraintOp::Le).then_some(next_art);
        next_slack += usize::from(slack.is_some());
        next_art += usize::from(art.is_some());
        layout.aux.push(Aux { slack, art });
        layout
            .basis
            .push(art.or(slack).expect("every row gets a column"));
        layout.artificial_cols.extend(art);
    }
    layout
}

/// The one assembly of the sparse standard form `Ax = b`: every cold solve
/// and every factorization of a warm state starts from a problem built
/// here. `rows` are the constraints in assembled-row order, each with its
/// auxiliary columns; `cols`, `basis` and `allowed` complete the layout.
///
/// This is the only code that orients a row; the rows come in as they
/// were declared. A row with an artificial is written as the cold solve
/// writes it: in the orientation of [`simplex::normalize_constraint`],
/// with slack `+1` (surplus `−1` on a normalized `≥` row) and artificial
/// `+1`. A row without one is written as a `≤` row (a `≥` row negated)
/// with slack `+1`; its right-hand side may be negative, which is the dual
/// simplex's cue. Both rules agree wherever a cold layout gives a row no
/// artificial. Every row is equilibrated by [`build_structural_row`].
pub(crate) fn assemble<'a>(
    n: usize,
    cols: usize,
    rows: impl Iterator<Item = (&'a Constraint, Aux)>,
    basis: Vec<usize>,
    allowed: Vec<bool>,
) -> SparseProblem {
    let m = basis.len();
    let mut row_nz = Vec::with_capacity(m);
    let mut b = Vec::with_capacity(m);
    let mut scratch = ScatterVec::default();
    for (con, aux) in rows {
        let (op, sign) = match (aux.art, con.op) {
            (Some(_), _) => simplex::normalize_constraint(con),
            (None, ConstraintOp::Ge) => (ConstraintOp::Le, -1.0),
            (None, _) => (ConstraintOp::Le, 1.0),
        };
        let mut rhs = sign * con.rhs;
        let mut row = build_structural_row(n, &con.terms, sign, &mut rhs, &mut scratch);
        if let Some(slack) = aux.slack {
            let coeff = if op == ConstraintOp::Ge { -1.0 } else { 1.0 };
            row.push((slack as u32, coeff));
        }
        if let Some(art) = aux.art {
            row.push((art as u32, 1.0));
        }
        row_nz.push(row);
        b.push(rhs);
    }
    debug_assert_eq!(row_nz.len(), m);
    let mut col_nz = vec![Vec::new(); cols];
    for (r, row) in row_nz.iter().enumerate() {
        for &(c, v) in row {
            col_nz[c as usize].push((r as u32, v));
        }
    }
    SparseProblem {
        m,
        ncols: cols,
        row_nz,
        col_nz,
        b,
        allowed,
        basis,
    }
}

/// Assembles `constraints` under their cold layout, with the layout's
/// artificial columns for phase 1: the start of a one-shot cold solve.
pub(crate) fn assemble_cold(n: usize, constraints: &[Constraint]) -> (SparseProblem, Vec<usize>) {
    let layout = cold_layout(n, constraints.iter());
    let cols = layout.cols;
    let prob = assemble(
        n,
        cols,
        constraints.iter().zip(layout.aux),
        layout.basis,
        vec![true; cols],
    );
    (prob, layout.artificial_cols)
}

/// The revised-simplex solver state: problem, factorization, basic values,
/// reduced costs, pricing weights, and reusable sparse workspaces.
///
/// A solver lives on one assembled problem: an edit of a warm state
/// assembles a new one rather than patching `prob`. Within it, the basic
/// values and reduced costs are recomputed after every factorization, and
/// the pricing weights are reset at the start of every pass.
pub(crate) struct SparseSimplex {
    pub(crate) prob: SparseProblem,
    eta: EtaBasis,
    /// Value of the basic variable of each row position (`B⁻¹ b`).
    pub(crate) x_b: Vec<f64>,
    /// Reduced costs per column, for the cost vector of the running loop.
    d: Vec<f64>,
    /// Primal Devex reference weights (per column).
    w_col: Vec<f64>,
    /// Dual Devex reference weights (per row).
    w_row: Vec<f64>,
    /// Basic membership per column — pricing must never re-enter a basic
    /// column: reduced-cost drift can make a basic column *look* attractive
    /// and FTRAN noise can then pick a foreign leaving row, silently
    /// duplicating the column in the basis (an exactly singular basis the
    /// next refactorization cannot express).
    in_basis: Vec<bool>,
    ws_ftran: ScatterVec,
    ws_btran: ScatterVec,
    ws_tab: ScatterVec,
    ws_fact: ScatterVec,
    /// True when the running solve attempt aborted on a singular
    /// refactorization (reported as [`LpError::Singular`]).
    singular: bool,
}

impl SparseSimplex {
    pub(crate) fn new(prob: SparseProblem) -> Self {
        let m = prob.m;
        let ncols = prob.ncols;
        SparseSimplex {
            prob,
            eta: EtaBasis::new(),
            x_b: vec![0.0; m],
            d: vec![0.0; ncols],
            w_col: vec![1.0; ncols],
            w_row: vec![1.0; m],
            in_basis: Vec::new(),
            ws_ftran: ScatterVec::default(),
            ws_btran: ScatterVec::default(),
            ws_tab: ScatterVec::default(),
            ws_fact: ScatterVec::default(),
            singular: false,
        }
    }

    /// The reduced-cost row of the last [`compute_reduced_costs`]
    /// (or loop-internal) refresh.
    pub(crate) fn reduced_costs(&self) -> &[f64] {
        &self.d
    }

    /// Refactorizes the current basis and recomputes `x_B`. Returns `false`
    /// when the basis is numerically singular (caller must fall back cold).
    pub(crate) fn factorize(&mut self) -> bool {
        let m = self.prob.m;
        let cols = &self.prob.col_nz;
        let Some(new_basis) = self.eta.refactorize(
            m,
            &self.prob.basis,
            |j| &cols[j],
            PIVOT_TOLERANCE,
            &mut self.ws_fact,
        ) else {
            self.singular = true;
            return false;
        };
        // The Markowitz elimination picks its own pivot rows, so the basis
        // assignment comes back *permuted*: `new_basis[r]` need not be the
        // old `basis[r]`. The row-indexed dual pricing weights must follow
        // their variables through that permutation — `w_row[r]` describes
        // the basic variable assigned to row `r`, and leaving it
        // position-indexed scrambles the pricing framework at every
        // refactorization. On the 200-node cut masters that scrambling
        // turned ~100-pivot warm dual re-solves into multi-thousand-pivot
        // plateau walks.
        if self.w_row.len() == m && self.prob.basis.len() == m {
            let mut old_row = vec![usize::MAX; self.prob.ncols];
            for (r, &bc) in self.prob.basis.iter().enumerate() {
                old_row[bc] = r;
            }
            let old_w = std::mem::take(&mut self.w_row);
            self.w_row = new_basis
                .iter()
                .map(|&bc| match old_row[bc] {
                    usize::MAX => 1.0,
                    r => old_w[r],
                })
                .collect();
        }
        self.prob.basis = new_basis;
        self.in_basis.clear();
        self.in_basis.resize(self.prob.ncols, false);
        for &bc in &self.prob.basis {
            self.in_basis[bc] = true;
        }
        self.recompute_x_b();
        // Note: the Devex weights are *not* reset here — the reference
        // framework belongs to the running pricing pass, not to the
        // factorization, and resetting it every refactorization would
        // degrade Devex to near-Dantzig on any pass longer than the
        // refactorization interval.
        self.w_col.resize(self.prob.ncols, 1.0);
        self.w_row.resize(self.prob.m.max(self.w_row.len()), 1.0);
        true
    }

    /// `x_B = B⁻¹ b`, from scratch.
    fn recompute_x_b(&mut self) {
        let m = self.prob.m;
        self.ws_ftran.ensure_len(m);
        self.ws_ftran.clear();
        for (r, &bv) in self.prob.b.iter().enumerate() {
            if bv != 0.0 {
                self.ws_ftran.add(r as u32, bv);
            }
        }
        self.eta.ftran(&mut self.ws_ftran);
        self.x_b.clear();
        self.x_b.resize(m, 0.0);
        for &r in self.ws_ftran.support() {
            self.x_b[r as usize] = self.ws_ftran.get(r);
        }
    }

    /// Recomputes the reduced-cost row `d = c − (B⁻ᵀ c_B)ᵀ A` from scratch.
    pub(crate) fn compute_reduced_costs(&mut self, cost: &[f64]) {
        let m = self.prob.m;
        let mut y = vec![0.0; m];
        for (r, &bc) in self.prob.basis.iter().enumerate() {
            y[r] = cost[bc];
        }
        self.eta.btran_dense(&mut y);
        self.d.clear();
        self.d.resize(self.prob.ncols, 0.0);
        for (j, dj) in self.d.iter_mut().enumerate() {
            let mut dot = 0.0;
            for &(r, a) in &self.prob.col_nz[j] {
                dot += y[r as usize] * a;
            }
            *dj = cost[j] - dot;
        }
    }

    /// Loads column `q` into the FTRAN workspace and applies `B⁻¹`.
    fn ftran_column(&mut self, q: usize) {
        self.ws_ftran.ensure_len(self.prob.m);
        self.ws_ftran.clear();
        for &(r, v) in &self.prob.col_nz[q] {
            self.ws_ftran.add(r, v);
        }
        self.eta.ftran(&mut self.ws_ftran);
    }

    /// Computes tableau row `r` (`e_rᵀ B⁻¹ A`) into `ws_tab` via BTRAN plus
    /// one sparse row pass.
    fn compute_tab_row(&mut self, r: usize) {
        let m = self.prob.m;
        self.ws_btran.ensure_len(m);
        self.ws_btran.clear();
        self.ws_btran.add(r as u32, 1.0);
        self.eta.btran(&mut self.ws_btran);
        self.ws_tab.ensure_len(self.prob.ncols);
        self.ws_tab.clear();
        for &row in self.ws_btran.support() {
            let y = self.ws_btran.get(row);
            if y == 0.0 {
                continue;
            }
            for &(c, a) in &self.prob.row_nz[row as usize] {
                self.ws_tab.add(c, y * a);
            }
        }
    }

    /// Applies the pivot `(entering q, leaving row position r)`: updates
    /// `x_B`, appends the eta, and swaps the basis. `ws_ftran` must hold the
    /// FTRAN'd entering column.
    fn apply_pivot(&mut self, q: usize, r: usize) {
        let pivot_val = self.ws_ftran.get(r as u32);
        let theta = self.x_b[r] / pivot_val;
        for &i in self.ws_ftran.support() {
            self.x_b[i as usize] -= theta * self.ws_ftran.get(i);
        }
        self.x_b[r] = theta;
        self.eta.update(&self.ws_ftran, r as u32);
        self.in_basis[self.prob.basis[r]] = false;
        self.in_basis[q] = true;
        self.prob.basis[r] = q;
    }

    /// Updates the reduced costs after a pivot on `(q, r)` using the tableau
    /// row in `ws_tab` (pivot element `tab_q`).
    fn update_reduced_costs(&mut self, q: usize, tab_q: f64) {
        let factor = self.d[q] / tab_q;
        if factor != 0.0 {
            for &j in self.ws_tab.support() {
                self.d[j as usize] -= factor * self.ws_tab.get(j);
            }
        }
        self.d[q] = 0.0;
    }

    /// Primal Devex weight update after a pivot on `(q, r)`.
    fn update_primal_devex(&mut self, q: usize, leaving_col: usize, tab_q: f64) {
        let wq = self.w_col[q];
        for &j in self.ws_tab.support() {
            let j = j as usize;
            if j == q || !self.prob.allowed[j] {
                continue;
            }
            let ratio = self.ws_tab.get(j as u32) / tab_q;
            let candidate = ratio * ratio * wq;
            if candidate > self.w_col[j] {
                self.w_col[j] = candidate;
            }
        }
        self.w_col[leaving_col] = (wq / (tab_q * tab_q)).max(1.0);
    }

    /// Dual Devex (row) weight update after a pivot leaving at row `r` with
    /// FTRAN'd entering column in `ws_ftran` (pivot element `alpha_r`).
    fn update_dual_devex(&mut self, r: usize, alpha_r: f64) {
        let wr = self.w_row[r];
        for &i in self.ws_ftran.support() {
            let i = i as usize;
            if i == r {
                continue;
            }
            let ratio = self.ws_ftran.get(i as u32) / alpha_r;
            let candidate = ratio * ratio * wr;
            if candidate > self.w_row[i] {
                self.w_row[i] = candidate;
            }
        }
        self.w_row[r] = (wr / (alpha_r * alpha_r)).max(1.0);
    }

    /// Ensures the factorization is live and the reduced costs match `cost`.
    /// Returns `false` on a singular basis.
    fn refresh(&mut self, cost: &[f64]) -> bool {
        if !self.factorize() {
            return false;
        }
        self.compute_reduced_costs(cost);
        true
    }

    /// The revised **primal** simplex, maximising `cost`: starts from a
    /// primal-feasible basis, returns `(status, pivots)`.
    ///
    /// `assume_fresh` skips the entry refresh — only for callers that *just*
    /// ran [`factorize`](Self::factorize) +
    /// [`compute_reduced_costs`](Self::compute_reduced_costs) with the same
    /// `cost` (or got the state back from a loop that ended on a fresh
    /// verdict): every refactorization is a full Markowitz LU pass, and the
    /// warm re-solves of the incremental layer are often
    /// zero-pivot, so redundant refreshes would dominate their cost.
    pub(crate) fn primal(
        &mut self,
        cost: &[f64],
        options: &SimplexOptions,
        max_iterations: usize,
        assume_fresh: bool,
    ) -> (SolveStatus, usize) {
        if !assume_fresh && !self.refresh(cost) {
            return (SolveStatus::IterationLimit, 0);
        }
        // Fresh Devex reference framework for this pass.
        self.w_col.clear();
        self.w_col.resize(self.prob.ncols, 1.0);
        let mut iterations = 0usize;
        let mut degenerate_run = 0usize;
        let mut bland_sticky = false;
        loop {
            if self.eta.should_refactorize(options.refactor_interval) && !self.refresh(cost) {
                return (SolveStatus::IterationLimit, iterations);
            }
            if iterations >= max_iterations {
                return (SolveStatus::IterationLimit, iterations);
            }
            // The anti-cycling latch keys on a *degeneracy plateau* scaled
            // with the row count (same rationale as the dual's latch:
            // legitimate plateaus deepen with problem size), and it releases
            // on the first strictly improving pivot. Bland's rule guarantees
            // escape from the plateau it latched on, and once the objective
            // strictly moves no earlier basis can recur, so handing pricing
            // back to Devex is safe. A permanently sticky latch at
            // a flat 64-pivot trigger turned the 500-node cold masters into
            // ~800k-pivot Bland walks — first-index pricing is the
            // anti-cycling tool of last resort, not a pricing rule.
            if degenerate_run >= BLAND_THRESHOLD + self.prob.m {
                bland_sticky = true;
            } else if degenerate_run == 0 {
                bland_sticky = false;
            }
            // Entering column.
            let mut entering: Option<usize> = None;
            if bland_sticky {
                entering = self
                    .d
                    .iter()
                    .zip(self.prob.allowed.iter().zip(&self.in_basis))
                    .position(|(&dj, (&ok, &basic))| ok && !basic && dj > COST_TOLERANCE);
            } else {
                let mut best = 0.0f64;
                for (j, (&dj, &ok)) in self.d.iter().zip(&self.prob.allowed).enumerate() {
                    if ok && !self.in_basis[j] && dj > COST_TOLERANCE {
                        let score = dj * dj / self.w_col[j];
                        if score > best {
                            best = score;
                            entering = Some(j);
                        }
                    }
                }
            }
            let Some(q) = entering else {
                // Verdicts are only issued from a fresh factorization: the
                // eta file accumulates drift, and "prices out" measured on a
                // stale file can be noise. Refactorize and re-verify.
                if self.eta.updates_since_refactor() > 0 {
                    if !self.refresh(cost) {
                        return (SolveStatus::IterationLimit, iterations);
                    }
                    continue;
                }
                return (SolveStatus::Optimal, iterations);
            };
            self.ftran_column(q);
            // Ratio test: min x_B[r]/α_r over α_r > tol; near-ties prefer the
            // largest pivot magnitude (Harris-lite), then the smallest row.
            // Bland mode: smallest basic index among the exact minima.
            let mut best_ratio = f64::INFINITY;
            for &r in self.ws_ftran.support() {
                let a = self.ws_ftran.get(r);
                if a > PIVOT_TOLERANCE {
                    let ratio = self.x_b[r as usize] / a;
                    if ratio < best_ratio {
                        best_ratio = ratio;
                    }
                }
            }
            if !best_ratio.is_finite() {
                if self.eta.updates_since_refactor() > 0 {
                    if !self.refresh(cost) {
                        return (SolveStatus::IterationLimit, iterations);
                    }
                    continue;
                }
                return (SolveStatus::Unbounded, iterations);
            }
            // The tie window is deliberately wider than the dense oracle's
            // (1e-9 relative vs 1e-12): grouping near-degenerate ratios and
            // taking the largest pivot magnitude among them keeps the
            // revised method off noise-sized pivots that the basis updates
            // would amplify.
            let slack = 1e-9 * (1.0 + best_ratio.abs());
            let mut leaving: Option<usize> = None;
            let mut best_key = (0.0f64, usize::MAX);
            for &r in self.ws_ftran.support() {
                let r = r as usize;
                let a = self.ws_ftran.get(r as u32);
                if a <= PIVOT_TOLERANCE {
                    continue;
                }
                let ratio = self.x_b[r] / a;
                if ratio > best_ratio + slack {
                    continue;
                }
                if bland_sticky {
                    if leaving.is_none() || self.prob.basis[r] < self.prob.basis[leaving.unwrap()] {
                        leaving = Some(r);
                    }
                } else {
                    let key = (a, usize::MAX - r);
                    if leaving.is_none() || key > best_key {
                        best_key = key;
                        leaving = Some(r);
                    }
                }
            }
            let Some(r) = leaving else {
                if self.eta.updates_since_refactor() > 0 {
                    if !self.refresh(cost) {
                        return (SolveStatus::IterationLimit, iterations);
                    }
                    continue;
                }
                return (SolveStatus::Unbounded, iterations);
            };
            degenerate_run = if best_ratio <= 1e-9 {
                degenerate_run + 1
            } else {
                0
            };
            let pivot_val = self.ws_ftran.get(r as u32);
            if pivot_val.abs() <= PIVOT_TOLERANCE {
                // Numerically unusable pivot: flush the eta file and retry
                // once from a fresh factorization; persisting means the
                // caller must go cold.
                if self.eta.updates_since_refactor() > 0 {
                    if !self.refresh(cost) {
                        return (SolveStatus::IterationLimit, iterations);
                    }
                    continue;
                }
                return (SolveStatus::IterationLimit, iterations);
            }
            let leaving_col = self.prob.basis[r];
            self.compute_tab_row(r);
            self.update_reduced_costs(q, pivot_val);
            self.update_primal_devex(q, leaving_col, pivot_val);
            self.apply_pivot(q, r);
            iterations += 1;
        }
    }

    /// The revised **dual** simplex, maximising `cost`: starts from a
    /// dual-feasible basis and restores primal feasibility. A numeric
    /// blow-up or an exhausted budget returns
    /// [`SolveStatus::IterationLimit`] so the incremental layer
    /// refactorizes cold.
    pub(crate) fn dual(
        &mut self,
        cost: &[f64],
        options: &SimplexOptions,
        max_iterations: usize,
        assume_fresh: bool,
    ) -> (SolveStatus, usize) {
        if !assume_fresh && !self.refresh(cost) {
            return (SolveStatus::IterationLimit, 0);
        }
        // Fresh Devex reference framework for this pass.
        self.w_row.clear();
        self.w_row.resize(self.prob.m, 1.0);
        let feas = FEASIBILITY_TOLERANCE;
        let mut iterations = 0usize;
        let mut bland_sticky = false;
        let infeasibility =
            |x_b: &[f64]| -> f64 { x_b.iter().map(|&v| (-v).max(0.0)).sum::<f64>() };
        let initial_infeasibility = infeasibility(&self.x_b);
        let mut best_infeasibility = initial_infeasibility;
        let mut no_progress = 0usize;
        // No separate plateau give-up for the sparse dual: a premature
        // stall verdict forces a cold two-phase re-solve that costs an
        // order of magnitude more pivots than walking the plateau out (at
        // 200 nodes: ~2k plateau pivots vs 20–40k per cold solve). The
        // caller's budget is the only cap; cycling is still broken by the
        // Bland latch below, and a numeric blow-up still bails out early.
        let stall_limit = max_iterations;
        loop {
            if self.eta.should_refactorize(options.refactor_interval) && !self.refresh(cost) {
                return (SolveStatus::IterationLimit, iterations);
            }
            // The anti-cycling latch keys on the *infeasibility plateau*,
            // not on degenerate dual ratios: cut masters have nearly all
            // reduced costs at zero, so every dual ratio is ~0 and a
            // ratio-based latch would hand the whole pass to Bland's crawl
            // while the pivots are in fact still draining primal
            // infeasibility. A genuine cycle makes no infeasibility
            // progress, which `no_progress` catches — scaled with the row
            // count, because legitimate plateaus deepen with problem size
            // and the latch permanently trades Devex for Bland's crawl.
            if no_progress >= 4 * BLAND_THRESHOLD + self.prob.m {
                bland_sticky = true;
            }
            // Leaving row.
            let mut leaving: Option<usize> = None;
            if bland_sticky {
                let mut best_basis = usize::MAX;
                for (r, &xb) in self.x_b.iter().enumerate() {
                    if xb < -feas && self.prob.basis[r] < best_basis {
                        best_basis = self.prob.basis[r];
                        leaving = Some(r);
                    }
                }
            } else {
                let mut best = 0.0f64;
                for (r, &xb) in self.x_b.iter().enumerate() {
                    if xb < -feas {
                        let score = xb * xb / self.w_row[r];
                        if score > best {
                            best = score;
                            leaving = Some(r);
                        }
                    }
                }
            }
            let Some(r) = leaving else {
                // As in the primal loop: only certify optimality from a
                // freshly refactorized basis.
                if self.eta.updates_since_refactor() > 0 {
                    if !self.refresh(cost) {
                        return (SolveStatus::IterationLimit, iterations);
                    }
                    continue;
                }
                return (SolveStatus::Optimal, iterations);
            };
            if iterations >= max_iterations {
                return (SolveStatus::IterationLimit, iterations);
            }
            // Entering column: dual ratio test over the tableau row.
            self.compute_tab_row(r);
            let mut best_ratio = f64::INFINITY;
            for &j in self.ws_tab.support() {
                let j = j as usize;
                if !self.prob.allowed[j] || self.in_basis[j] {
                    continue;
                }
                let a = self.ws_tab.get(j as u32);
                if a >= -PIVOT_TOLERANCE {
                    continue;
                }
                let ratio = self.d[j].min(0.0) / a;
                if ratio < best_ratio {
                    best_ratio = ratio;
                }
            }
            if !best_ratio.is_finite() {
                // The violated row has no negative entry: unsatisfiable —
                // but only certify it from a fresh factorization.
                if self.eta.updates_since_refactor() > 0 {
                    if !self.refresh(cost) {
                        return (SolveStatus::IterationLimit, iterations);
                    }
                    continue;
                }
                return (SolveStatus::Infeasible, iterations);
            }
            let ratio_slack = 1e-9 * (1.0 + best_ratio.abs());
            let mut entering: Option<usize> = None;
            let mut best_pivot = 0.0f64;
            let mut best_index = usize::MAX;
            for &j in self.ws_tab.support() {
                let j = j as usize;
                if !self.prob.allowed[j] || self.in_basis[j] {
                    continue;
                }
                let a = self.ws_tab.get(j as u32);
                if a >= -PIVOT_TOLERANCE {
                    continue;
                }
                let ratio = self.d[j].min(0.0) / a;
                if ratio > best_ratio + ratio_slack {
                    continue;
                }
                if bland_sticky {
                    // Smallest index attaining (near) the minimum.
                    if j < best_index {
                        best_index = j;
                        entering = Some(j);
                    }
                } else if a.abs() > best_pivot || (a.abs() == best_pivot && j < best_index) {
                    best_pivot = a.abs();
                    best_index = j;
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                return (SolveStatus::Infeasible, iterations);
            };
            self.ftran_column(q);
            let alpha_r = self.ws_ftran.get(r as u32);
            if alpha_r.abs() <= PIVOT_TOLERANCE {
                if self.eta.updates_since_refactor() > 0 {
                    if !self.refresh(cost) {
                        return (SolveStatus::IterationLimit, iterations);
                    }
                    continue;
                }
                return (SolveStatus::IterationLimit, iterations);
            }
            self.update_reduced_costs(q, self.ws_tab.get(q as u32));
            self.update_dual_devex(r, alpha_r);
            self.apply_pivot(q, r);
            iterations += 1;
            let current = infeasibility(&self.x_b);
            if current < best_infeasibility * (1.0 - 1e-9) {
                best_infeasibility = current;
                no_progress = 0;
            } else {
                no_progress += 1;
                if no_progress >= stall_limit {
                    return (SolveStatus::IterationLimit, iterations);
                }
            }
            if !current.is_finite() || current > 1e8 * initial_infeasibility.max(1.0) {
                return (SolveStatus::IterationLimit, iterations);
            }
        }
    }

    /// Runs phase 1 (when `artificial_cols`, the artificial columns of a
    /// cold layout, is not empty) and phase 2, with the dense oracle's
    /// error mapping.
    ///
    /// An [`LpError::IterationLimit`] from the first attempt is retried once
    /// from the initial basis with per-pivot refactorization
    /// (`refactor_interval = 1`): a pivot taken on accumulated FTRAN noise
    /// can make the basis exactly singular on the ±1 cut-row structure, and
    /// a maximally fresh factorization cannot accumulate that noise.
    ///
    /// An attempt that still ends on a singular refactorization is a
    /// factorization defeat, not a budget verdict: it is reported as
    /// [`LpError::Singular`] (and counted in `lp.singular_fallback`), so a
    /// caller is never told to raise a budget that cannot help. Genuine
    /// budget exhaustion stays [`LpError::IterationLimit`].
    pub(crate) fn two_phase(
        &mut self,
        phase2_cost: &[f64],
        artificial_cols: &[usize],
        options: &SimplexOptions,
    ) -> Result<usize, LpError> {
        self.singular = false;
        let basis0 = self.prob.basis.clone();
        let allowed0 = self.prob.allowed.clone();
        let mut result = self.two_phase_inner(phase2_cost, artificial_cols, options);
        if matches!(result, Err(LpError::IterationLimit)) && options.refactor_interval > 1 {
            self.singular = false;
            self.prob.basis = basis0;
            self.prob.allowed = allowed0;
            let retry = SimplexOptions {
                refactor_interval: 1,
                ..*options
            };
            result = self.two_phase_inner(phase2_cost, artificial_cols, &retry);
        }
        if matches!(result, Err(LpError::IterationLimit)) && self.singular {
            bcast_obs::counter_add(bcast_obs::names::LP_SINGULAR_FALLBACK, 1);
            return Err(LpError::Singular);
        }
        result
    }

    fn two_phase_inner(
        &mut self,
        phase2_cost: &[f64],
        artificial_cols: &[usize],
        options: &SimplexOptions,
    ) -> Result<usize, LpError> {
        let max_iterations =
            simplex::default_iteration_budget(options, self.prob.m, self.prob.ncols);
        let mut total_iterations = 0usize;
        if !artificial_cols.is_empty() {
            let art_base = *artificial_cols.iter().min().expect("non-empty");
            let mut phase1_cost = vec![0.0; self.prob.ncols];
            for &c in artificial_cols {
                phase1_cost[c] = -1.0;
            }
            let (status, iters) = self.primal(&phase1_cost, options, max_iterations, false);
            total_iterations += iters;
            match status {
                SolveStatus::Optimal => {}
                // Phase 1 is bounded by construction; anything else is a
                // numerical failure.
                _ => return Err(LpError::IterationLimit),
            }
            let artificial_sum: f64 = self
                .prob
                .basis
                .iter()
                .enumerate()
                .filter(|&(_, &bc)| bc >= art_base)
                .map(|(r, _)| self.x_b[r])
                .sum();
            if artificial_sum > FEASIBILITY_TOLERANCE {
                return Err(LpError::Infeasible);
            }
            // Pivot basic artificials (at value ~0) out where possible.
            for r in 0..self.prob.m {
                if self.prob.basis[r] < art_base {
                    continue;
                }
                self.compute_tab_row(r);
                let mut candidate: Option<usize> = None;
                for &j in self.ws_tab.support() {
                    let j = j as usize;
                    if j < art_base
                        && !self.in_basis[j]
                        && self.ws_tab.get(j as u32).abs() > PIVOT_TOLERANCE
                        && candidate.is_none_or(|c| j < c)
                    {
                        candidate = Some(j);
                    }
                }
                if let Some(c) = candidate {
                    self.ftran_column(c);
                    if self.ws_ftran.get(r as u32).abs() > PIVOT_TOLERANCE {
                        self.apply_pivot(c, r);
                    }
                }
            }
            for &c in artificial_cols {
                self.prob.allowed[c] = false;
            }
        }
        let remaining = max_iterations.saturating_sub(total_iterations).max(100);
        let (status, iters) = self.primal(phase2_cost, options, remaining, false);
        total_iterations += iters;
        match status {
            SolveStatus::Optimal => Ok(total_iterations),
            SolveStatus::Unbounded => Err(LpError::Unbounded),
            SolveStatus::IterationLimit => Err(LpError::IterationLimit),
            SolveStatus::Infeasible => Err(LpError::Infeasible),
        }
    }

    /// Structural-variable values of the current basis (clamped at 0 like
    /// the dense extractor).
    pub(crate) fn extract_values(&self, n: usize) -> Vec<f64> {
        let mut values = vec![0.0; n];
        for (r, &bc) in self.prob.basis.iter().enumerate() {
            if bc < n {
                values[bc] = self.x_b[r].max(0.0);
            }
        }
        values
    }

    /// Drives basic column `col` out of the basis with one forced pivot —
    /// the largest-magnitude eligible entry of its basis row enters in its
    /// place — which may cost primal or dual feasibility; the caller bars
    /// the column and repairs that on the next re-solve. Returns `false`
    /// when no eligible pivot exists (the caller must go cold).
    ///
    /// The pivot always runs on a fresh factorization of the stored basis
    /// order: factorizing permutes `prob.basis`, so the column's row is
    /// looked up only afterwards, and a state rebuilt from the same basis
    /// order takes the same pivot bit for bit.
    pub(crate) fn drive_out(&mut self, col: usize) -> bool {
        if !self.factorize() {
            return false;
        }
        let r = self
            .prob
            .basis
            .iter()
            .position(|&bc| bc == col)
            .expect("factorizing permutes the basis, it keeps its columns");
        self.compute_tab_row(r);
        let mut entering: Option<usize> = None;
        let mut best = PIVOT_TOLERANCE;
        for &j in self.ws_tab.support() {
            let j = j as usize;
            if j == col || !self.prob.allowed[j] || self.in_basis[j] {
                continue;
            }
            let mag = self.ws_tab.get(j as u32).abs();
            if mag > best {
                best = mag;
                entering = Some(j);
            }
        }
        let Some(q) = entering else {
            return false;
        };
        self.ftran_column(q);
        if self.ws_ftran.get(r as u32).abs() <= PIVOT_TOLERANCE {
            return false;
        }
        self.apply_pivot(q, r);
        true
    }
}

/// Solves `problem` with the sparse revised simplex (one-shot, two-phase):
/// the entry point behind [`crate::solve`].
pub(crate) fn solve(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    problem.validate()?;
    let n = problem.num_vars();
    let (prob, artificial_cols) = assemble_cold(n, problem.constraints());
    let cost = simplex::maximization_cost(problem.sense(), problem.objective(), prob.ncols);
    let mut sim = SparseSimplex::new(prob);
    let iterations = sim.two_phase(&cost, &artificial_cols, options)?;
    let values = sim.extract_values(n);
    let objective = problem.eval_objective(&values);
    Ok(LpSolution {
        objective,
        values,
        status: SolveStatus::Optimal,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sense, VarId};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_maximization_sparse() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 5.0);
        lp.add_le(&[(x, 1.0)], 4.0);
        lp.add_le(&[(y, 2.0)], 12.0);
        lp.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let sol = solve(&lp, &SimplexOptions::default()).unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn phase1_and_statuses_match_dense_semantics() {
        // Infeasible.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        lp.add_le(&[(x, 1.0)], 1.0);
        lp.add_ge(&[(x, 1.0)], 2.0);
        assert_eq!(
            solve(&lp, &SimplexOptions::default()).unwrap_err(),
            LpError::Infeasible
        );
        // Unbounded.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 0.0);
        lp.add_ge(&[(x, 1.0), (y, -1.0)], 0.0);
        assert_eq!(
            solve(&lp, &SimplexOptions::default()).unwrap_err(),
            LpError::Unbounded
        );
        // Equality + minimization with ≥ rows.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 2.0);
        let y = lp.add_var("y", 3.0);
        lp.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_ge(&[(x, 1.0), (y, 2.0)], 6.0);
        let sol = solve(&lp, &SimplexOptions::default()).unwrap();
        assert_close(sol.objective, 10.0);
    }

    #[test]
    fn degenerate_beale_terminates_sparse() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x1 = lp.add_var("x1", 0.75);
        let x2 = lp.add_var("x2", -150.0);
        let x3 = lp.add_var("x3", 0.02);
        let x4 = lp.add_var("x4", -6.0);
        lp.add_le(&[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        lp.add_le(&[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        lp.add_le(&[(x3, 1.0)], 1.0);
        let sol = solve(&lp, &SimplexOptions::default()).unwrap();
        assert_close(sol.objective, 0.05);
    }

    #[test]
    fn tight_refactorization_intervals_stay_exact() {
        // Refactorizing after every pivot (interval 1) and after every other
        // pivot must give the same optimum as the default interval — the
        // eta-file length is a performance knob, never a correctness one.
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..8)
            .map(|i| lp.add_var(format!("x{i}"), 1.0 + (i as f64) * 0.3))
            .collect();
        let mut state = 0xFEEDu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..10 {
            let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 0.1 + next())).collect();
            lp.add_le(&terms, 1.0 + 4.0 * next());
        }
        let reference = solve(&lp, &SimplexOptions::default()).unwrap();
        for interval in [0usize, 1, 2, 3, 1000] {
            let sol = solve(
                &lp,
                &SimplexOptions {
                    refactor_interval: interval,
                    ..SimplexOptions::default()
                },
            )
            .unwrap();
            assert!(
                (sol.objective - reference.objective).abs()
                    <= 1e-9 * reference.objective.abs().max(1.0),
                "interval {interval}: {} vs {}",
                sol.objective,
                reference.objective
            );
        }
    }

    #[test]
    fn equilibrated_rows_match_dense() {
        // A row whose natural scale is ~1e6 exercises the equilibration
        // branch of the sparse assembly.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_le(&[(x, 2.0e6), (y, 1.0e6)], 4.0e6);
        lp.add_le(&[(y, 1.0)], 1.5);
        let sparse = solve(&lp, &SimplexOptions::default()).unwrap();
        let dense = simplex::solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_close(sparse.objective, dense.objective);
    }

    #[test]
    fn singular_start_basis_is_reported_as_singular() {
        // Columns x and y are parallel ((1, 2) each), so a basis holding
        // both cannot be factorized. Both the first attempt and the
        // interval-1 retry start from that basis: the verdict must be
        // `Singular`, never a budget verdict.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_le(&[(x, 2.0), (y, 2.0)], 8.0);
        let (mut prob, artificial_cols) = assemble_cold(lp.num_vars(), lp.constraints());
        prob.basis = vec![x.index(), y.index()];
        let cost = simplex::maximization_cost(lp.sense(), lp.objective(), prob.ncols);
        let mut sim = SparseSimplex::new(prob);
        assert_eq!(
            sim.two_phase(&cost, &artificial_cols, &SimplexOptions::default()),
            Err(LpError::Singular)
        );
    }
}
