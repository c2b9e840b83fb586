//! Sparse LU basis factorization with **Markowitz ordering** and
//! **threshold partial pivoting**, updated across pivots by an eta file.
//!
//! The revised simplex method never forms `B⁻¹` explicitly. The inverse is
//! kept as a product of elementary (eta) matrices:
//!
//! ```text
//!   B⁻¹ = E_t · … · E_1 · U_1 · … · U_m · L_m · … · L_1
//! ```
//!
//! * **Refactorization** runs a right-looking sparse Gaussian elimination
//!   over the basis. At every step the pivot is chosen by the Markowitz
//!   count `(row_nnz − 1)(col_nnz − 1)` among entries passing the threshold
//!   test `|a| ≥ τ · colmax` — the classic fill-reducing order with bounded
//!   multipliers (≤ 1/τ), so element growth stays controlled and a basis is
//!   declared singular only when an *entire active column* cancels to noise
//!   relative to its own original scale. (The previous product-form pass
//!   restricted pivoting to not-yet-claimed rows, which could misdeclare an
//!   ill-conditioned-but-nonsingular basis singular — the seed-2004 stall.)
//!   The factors are stored as two eta sequences: unit-diagonal `L` etas
//!   holding the multipliers and `U` etas holding the frozen upper columns.
//! * **Update** appends one eta per simplex pivot (the FTRAN'd entering
//!   column, pivoted at the leaving row) — O(nnz) per pivot — on top of the
//!   LU (bounded eta-on-LU; a periodic refactorization compresses the file
//!   and flushes floating-point drift).
//! * **FTRAN** (`B⁻¹ a`) applies `L` forward, `U` backward, then the update
//!   etas forward on a scattered sparse vector; **BTRAN** (`B⁻ᵀ y`) applies
//!   the transposed kernels in the reverse order.
//!
//! The file grows by one eta per pivot, and both transforms get slower and
//! drift further from `B⁻¹` as it grows; [`EtaBasis::should_refactorize`]
//! triggers a periodic refactorization, and a refactorization that fails
//! (numerically singular basis) tells the caller to fall back to a cold
//! solve — or, when the cold solve itself cannot factorize, to report
//! `LpError::Singular`.

/// One eta matrix: identity except for column `pivot`, which holds the
/// transformed entering column. Applying it to a vector `w`:
///
/// ```text
///   t = w[pivot] / pivot_val
///   w[i] -= nz_i · t   (i ≠ pivot)
///   w[pivot] = t
/// ```
#[derive(Clone, Debug)]
pub(crate) struct Eta {
    /// The pivot row of this eta.
    pivot: u32,
    /// Value of the transformed column at the pivot row.
    pivot_val: f64,
    /// Off-pivot nonzeros `(row, value)` of the transformed column.
    nz: Vec<(u32, f64)>,
}

impl Eta {
    /// Forward application (see the type-level doc).
    #[inline]
    fn apply(&self, w: &mut ScatterVec) {
        let wp = w.get(self.pivot);
        if wp == 0.0 {
            return;
        }
        let t = wp / self.pivot_val;
        w.set(self.pivot, t);
        for &(i, v) in &self.nz {
            w.add(i, -v * t);
        }
    }

    /// Transposed application: `y[pivot] = (y[pivot] − nz · y) / pivot_val`.
    #[inline]
    fn apply_t(&self, y: &mut ScatterVec) {
        let mut s = y.get(self.pivot);
        for &(i, v) in &self.nz {
            s -= v * y.get(i);
        }
        y.set(self.pivot, s / self.pivot_val);
    }

    /// Transposed application on a dense vector.
    #[inline]
    fn apply_t_dense(&self, y: &mut [f64]) {
        let mut s = y[self.pivot as usize];
        for &(i, v) in &self.nz {
            s -= v * y[i as usize];
        }
        y[self.pivot as usize] = s / self.pivot_val;
    }
}

/// A sparse vector scattered over a dense workspace: values plus an explicit
/// support list, the standard sparse-kernel representation (gather/scatter).
///
/// The support list may contain indices whose value has cancelled to zero —
/// iteration must tolerate (and may skip) them.
#[derive(Clone, Debug, Default)]
pub(crate) struct ScatterVec {
    val: Vec<f64>,
    mark: Vec<bool>,
    support: Vec<u32>,
}

impl ScatterVec {
    /// Grows the workspace to dimension `n` (values stay valid).
    pub(crate) fn ensure_len(&mut self, n: usize) {
        if self.val.len() < n {
            self.val.resize(n, 0.0);
            self.mark.resize(n, false);
        }
    }

    /// Clears the support (O(support), not O(n)).
    pub(crate) fn clear(&mut self) {
        for &i in &self.support {
            self.val[i as usize] = 0.0;
            self.mark[i as usize] = false;
        }
        self.support.clear();
    }

    /// Adds `v` to entry `i`, extending the support when needed.
    #[inline]
    pub(crate) fn add(&mut self, i: u32, v: f64) {
        let idx = i as usize;
        if !self.mark[idx] {
            self.mark[idx] = true;
            self.support.push(i);
        }
        self.val[idx] += v;
    }

    /// Overwrites entry `i` with `v`.
    #[inline]
    pub(crate) fn set(&mut self, i: u32, v: f64) {
        let idx = i as usize;
        if !self.mark[idx] {
            self.mark[idx] = true;
            self.support.push(i);
        }
        self.val[idx] = v;
    }

    /// Value of entry `i` (0 outside the support).
    #[inline]
    pub(crate) fn get(&self, i: u32) -> f64 {
        self.val[i as usize]
    }

    /// The (unsorted) support indices.
    #[inline]
    pub(crate) fn support(&self) -> &[u32] {
        &self.support
    }
}

/// The LU-plus-eta-file factorization of an `m × m` basis matrix.
pub(crate) struct EtaBasis {
    m: usize,
    /// Unit-diagonal multiplier etas of the LU, applied forward in FTRAN.
    lower: Vec<Eta>,
    /// Upper-triangular etas of the LU (frozen `U` columns), applied in
    /// reverse order in FTRAN (column-oriented back substitution).
    upper: Vec<Eta>,
    /// Pivot updates appended since the last refactorization, applied last.
    update_etas: Vec<Eta>,
    /// Total in-place refactorizations performed (monitoring only; these are
    /// basis-preserving and distinct from the incremental solver's *cold*
    /// refactorization fallbacks).
    pub(crate) refactor_count: usize,
}

/// Values below this are dropped when an eta is gathered: they are pure
/// cancellation noise and only inflate the file.
const ETA_DROP_TOL: f64 = 1e-13;

/// Threshold-pivoting relaxation factor: an entry qualifies as a pivot when
/// `|a| ≥ LU_TAU · colmax`, which bounds every multiplier by `1/LU_TAU` and
/// with it the element growth of the elimination.
const LU_TAU: f64 = 0.05;

/// Cap on equal-minimal-count candidate columns examined per pivot step.
const LU_CANDIDATES: usize = 16;

impl EtaBasis {
    /// An empty factorization of dimension 0 (refactorize before use).
    pub(crate) fn new() -> Self {
        EtaBasis {
            m: 0,
            lower: Vec::new(),
            upper: Vec::new(),
            update_etas: Vec::new(),
            refactor_count: 0,
        }
    }

    /// Number of pivot updates appended since the last refactorization.
    pub(crate) fn updates_since_refactor(&self) -> usize {
        self.update_etas.len()
    }

    /// True when the eta file is due for a periodic refactorization.
    pub(crate) fn should_refactorize(&self, interval: usize) -> bool {
        self.update_etas.len() >= interval.max(1)
    }

    /// Rebuilds the factorization for the basis whose `k`-th column is
    /// `column(basis[k])`. On success the basis assignment is returned
    /// *re-permuted*: `new_basis[r]` is the column pivoted on row `r` (the
    /// pivoting row choice is free, so positions move). Returns `None` when
    /// the basis is numerically singular — the caller must fall back to a
    /// cold solve.
    ///
    /// Right-looking elimination with Markowitz ordering and threshold
    /// partial pivoting; all tie-breaks are by the smaller index, so the
    /// pass is deterministic.
    pub(crate) fn refactorize<'a>(
        &mut self,
        m: usize,
        basis: &[usize],
        mut column: impl FnMut(usize) -> &'a [(u32, f64)],
        pivot_tol: f64,
        work: &mut ScatterVec,
    ) -> Option<Vec<usize>> {
        let _span = bcast_obs::span!(bcast_obs::names::SPAN_REFACTOR);
        let _lu_span = bcast_obs::span!(bcast_obs::names::SPAN_LU_FACTOR);
        bcast_obs::counter_add(bcast_obs::names::LP_REFACTORIZATIONS, 1);
        debug_assert_eq!(basis.len(), m);
        self.m = m;
        self.lower.clear();
        self.upper.clear();
        self.update_etas.clear();
        self.refactor_count += 1;
        work.ensure_len(m);

        // ---- active-submatrix setup (column-major) ----------------------
        let mut cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        for &col in basis.iter() {
            cols.push(column(col).to_vec());
        }
        // Per-column scale of the *original* column: the reference both the
        // drop tolerance and the singularity verdict are relative to, so
        // legitimately tiny-scaled columns (port rows of soft-failed links
        // sit ~1e-6 below their neighbours after equilibration) factorize
        // while a column whose active part is pure cancellation noise does
        // not.
        let mut scale = vec![0.0f64; m];
        let mut row_count = vec![0u32; m];
        // Columns (possibly stale) known to contain each row; append-only,
        // entries are verified against the actual column on use.
        let mut row_cols: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (j, col) in cols.iter().enumerate() {
            if col.is_empty() {
                return None;
            }
            for &(i, v) in col {
                scale[j] = scale[j].max(v.abs());
                row_count[i as usize] += 1;
                row_cols[i as usize].push(j as u32);
            }
        }
        // Lazy bucket queue on column counts: stale entries (count changed
        // or column eliminated) are purged when encountered.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); m + 1];
        for (j, col) in cols.iter().enumerate() {
            buckets[col.len()].push(j as u32);
        }
        let mut alive_col = vec![true; m];
        // Frozen U entries per column: `(pivot_row, value)` recorded when
        // that row was pivoted (right-looking updates never touch them).
        let mut ucols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut new_basis = vec![usize::MAX; m];
        // Scatter workspace for column rewrites (stamped, so no O(m) clear).
        let mut wval = vec![0.0f64; m];
        let mut wstamp = vec![0u32; m];
        let mut stamp = 0u32;
        let mut fill: Vec<u32> = Vec::new();
        let mut cand: Vec<u32> = Vec::with_capacity(LU_CANDIDATES);
        // Counts only shrink via rewrites (which re-push), so the bucket
        // scan can resume from the smaller of the last minimum and the
        // smallest count pushed since.
        let mut scan_from = 1usize;

        for _ in 0..m {
            // ---- pivot selection ----------------------------------------
            cand.clear();
            let mut found_cnt = 0usize;
            for (cnt, bucket) in buckets.iter_mut().enumerate().take(m + 1).skip(scan_from) {
                let mut idx = 0;
                while idx < bucket.len() {
                    let j = bucket[idx] as usize;
                    if !alive_col[j] || cols[j].len() != cnt {
                        bucket.swap_remove(idx);
                        continue;
                    }
                    cand.push(j as u32);
                    idx += 1;
                    if cand.len() >= LU_CANDIDATES {
                        break;
                    }
                }
                if !cand.is_empty() {
                    found_cnt = cnt;
                    break;
                }
            }
            if cand.is_empty() {
                // Every alive column carries an entry in some bucket, so
                // this means an active column emptied out: singular.
                return None;
            }
            scan_from = found_cnt;
            cand.sort_unstable();

            let mut best: Option<(u64, u32, u32)> = None; // (cost, row, col)
            for &jc in &cand {
                let j = jc as usize;
                let col = &cols[j];
                let mut colmax = 0.0f64;
                for &(_, v) in col {
                    colmax = colmax.max(v.abs());
                }
                // Singularity is *relative*: the whole active column has
                // cancelled to noise against its own original magnitude.
                // The absolute floor catches the all-zero column.
                let floor = (pivot_tol * 1e-4 * scale[j]).max(1e-290);
                if colmax <= floor {
                    return None;
                }
                let thresh = LU_TAU * colmax;
                let ccount = col.len() as u64;
                let mut cbest: Option<(u64, f64, u32)> = None;
                for &(i, v) in col {
                    let mag = v.abs();
                    if mag < thresh {
                        continue;
                    }
                    let cost = (row_count[i as usize] as u64 - 1) * (ccount - 1);
                    let better = match cbest {
                        None => true,
                        Some((bc, bm, br)) => {
                            cost < bc || (cost == bc && (mag > bm || (mag == bm && i < br)))
                        }
                    };
                    if better {
                        cbest = Some((cost, mag, i));
                    }
                }
                // The max-magnitude entry always passes the threshold.
                let (cost, _, row) = cbest.expect("threshold admits the column max");
                // Across candidates ties go to the smaller column id
                // (candidates are sorted ascending).
                if best.is_none_or(|(bc, _, _)| cost < bc) {
                    best = Some((cost, row, jc));
                }
                if cost == 0 {
                    break; // nothing beats a fill-free pivot
                }
            }
            let (_, p, c) = best.expect("candidate set nonempty");
            let (p, c) = (p as usize, c as usize);

            // ---- elimination at (p, c) ----------------------------------
            let col_c = std::mem::take(&mut cols[c]);
            alive_col[c] = false;
            new_basis[p] = basis[c];
            let mut a_pc = 0.0f64;
            for &(i, v) in &col_c {
                row_count[i as usize] -= 1;
                if i as usize == p {
                    a_pc = v;
                }
            }
            debug_assert!(a_pc != 0.0, "pivot entry must be in the column");
            let mut mults: Vec<(u32, f64)> = Vec::with_capacity(col_c.len() - 1);
            for &(i, v) in &col_c {
                if i as usize != p {
                    mults.push((i, v / a_pc));
                }
            }

            // Rewrite every other active column containing row p:
            //   col_j ← col_j − (a_pj / a_pc) · col_c  over active rows ≠ p,
            // freezing (p, a_pj) into the U column of j.
            let rcols = std::mem::take(&mut row_cols[p]);
            for &jc in &rcols {
                let j = jc as usize;
                if !alive_col[j] {
                    continue;
                }
                let mut a_pj = 0.0f64;
                let mut present = false;
                for &(i, v) in &cols[j] {
                    if i as usize == p {
                        a_pj = v;
                        present = true;
                        break;
                    }
                }
                if !present {
                    continue; // stale row_cols entry
                }
                ucols[j].push((p as u32, a_pj));
                stamp = stamp.wrapping_add(1);
                if stamp == 0 {
                    // Wrapped: invalidate everything once.
                    wstamp.iter_mut().for_each(|s| *s = u32::MAX);
                    stamp = 1;
                }
                let old = std::mem::take(&mut cols[j]);
                for &(i, v) in &old {
                    if i as usize == p {
                        continue;
                    }
                    wval[i as usize] = v;
                    wstamp[i as usize] = stamp;
                }
                fill.clear();
                for &(i, mlt) in &mults {
                    let iu = i as usize;
                    if wstamp[iu] != stamp {
                        wval[iu] = 0.0;
                        wstamp[iu] = stamp;
                        fill.push(i);
                    }
                    wval[iu] -= a_pj * mlt;
                }
                // Entries this far below the column's own scale are
                // cancellation noise; dropping them keeps the active matrix
                // (and the singularity verdict) clean.
                let drop_floor = scale[j] * 1e-16;
                let mut newcol = Vec::with_capacity(old.len() + fill.len());
                for &(i, _) in &old {
                    if i as usize == p {
                        continue;
                    }
                    let v = wval[i as usize];
                    if v.abs() > drop_floor {
                        newcol.push((i, v));
                    } else {
                        row_count[i as usize] -= 1;
                    }
                }
                for &i in &fill {
                    let v = wval[i as usize];
                    if v.abs() > drop_floor {
                        newcol.push((i, v));
                        row_count[i as usize] += 1;
                        row_cols[i as usize].push(jc);
                    }
                }
                row_count[p] = row_count[p].saturating_sub(1);
                if newcol.is_empty() {
                    return None;
                }
                let newlen = newcol.len();
                cols[j] = newcol;
                buckets[newlen].push(jc);
                scan_from = scan_from.min(newlen);
            }

            // ---- record the step's etas ---------------------------------
            mults.retain(|&(_, v)| v.abs() > ETA_DROP_TOL);
            if !mults.is_empty() {
                self.lower.push(Eta {
                    pivot: p as u32,
                    pivot_val: 1.0,
                    nz: mults,
                });
            }
            let unz = std::mem::take(&mut ucols[c]);
            if !unz.is_empty() || a_pc != 1.0 {
                self.upper.push(Eta {
                    pivot: p as u32,
                    pivot_val: a_pc,
                    nz: unz,
                });
            }
        }
        Some(new_basis)
    }

    /// Appends the pivot eta for an entering column whose FTRAN'd form is in
    /// `alpha`, leaving at `pivot_row`. `alpha` must be the *current-basis*
    /// representation (i.e. already FTRAN'd).
    pub(crate) fn update(&mut self, alpha: &ScatterVec, pivot_row: u32) {
        let _span = bcast_obs::span!(bcast_obs::names::SPAN_LU_UPDATE);
        let pivot_val = alpha.get(pivot_row);
        debug_assert!(pivot_val != 0.0, "eta pivot must be nonzero");
        let mut nz = Vec::with_capacity(alpha.support().len().saturating_sub(1));
        for &i in alpha.support() {
            if i == pivot_row {
                continue;
            }
            let value = alpha.get(i);
            if value.abs() > ETA_DROP_TOL {
                nz.push((i, value));
            }
        }
        self.update_etas.push(Eta {
            pivot: pivot_row,
            pivot_val,
            nz,
        });
        bcast_obs::gauge_set(bcast_obs::names::LP_ETA_LEN, self.eta_len() as f64);
    }

    /// Total etas across the LU factors and the update file.
    fn eta_len(&self) -> usize {
        self.lower.len() + self.upper.len() + self.update_etas.len()
    }

    /// FTRAN: overwrites `w` with `B⁻¹ w` (sparse in, sparse out).
    ///
    /// The span guard here (and on the BTRANs below) is one relaxed atomic
    /// load when instrumentation is off. When it is on, the guard itself
    /// costs a few hundred nanoseconds per call, which on kernels this
    /// small makes the journaled `lp.ftran`/`lp.btran` times *upper
    /// bounds* — fine for the phase split `solver_report` prints.
    pub(crate) fn ftran(&self, w: &mut ScatterVec) {
        let _span = bcast_obs::span!(bcast_obs::names::SPAN_FTRAN);
        for eta in &self.lower {
            eta.apply(w);
        }
        for eta in self.upper.iter().rev() {
            eta.apply(w);
        }
        for eta in &self.update_etas {
            eta.apply(w);
        }
    }

    /// BTRAN: overwrites `y` with `B⁻ᵀ y` (sparse in, sparse out).
    pub(crate) fn btran(&self, y: &mut ScatterVec) {
        let _span = bcast_obs::span!(bcast_obs::names::SPAN_BTRAN);
        for eta in self.update_etas.iter().rev() {
            eta.apply_t(y);
        }
        for eta in &self.upper {
            eta.apply_t(y);
        }
        for eta in self.lower.iter().rev() {
            eta.apply_t(y);
        }
    }

    /// Dense BTRAN for vectors that are not usefully sparse (the pricing
    /// vector `y = B⁻ᵀ c_B`).
    pub(crate) fn btran_dense(&self, y: &mut [f64]) {
        let _span = bcast_obs::span!(bcast_obs::names::SPAN_BTRAN);
        for eta in self.update_etas.iter().rev() {
            eta.apply_t_dense(y);
        }
        for eta in &self.upper {
            eta.apply_t_dense(y);
        }
        for eta in self.lower.iter().rev() {
            eta.apply_t_dense(y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Factorizes the basis made of the given dense columns and checks
    /// FTRAN/BTRAN against a directly computed inverse action.
    fn check_roundtrip(cols: &[Vec<f64>]) {
        let m = cols.len();
        let sparse: Vec<Vec<(u32, f64)>> = cols
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
        let assignment = basis
            .refactorize(
                m,
                &(0..m).collect::<Vec<_>>(),
                |j| &sparse[j],
                1e-10,
                &mut work,
            )
            .expect("nonsingular");
        // FTRAN of column `assignment[r]` must be e_r.
        for (r, &col) in assignment.iter().enumerate() {
            work.clear();
            for &(i, v) in &sparse[col] {
                work.add(i, v);
            }
            basis.ftran(&mut work);
            for i in 0..m as u32 {
                let expected = if i as usize == r { 1.0 } else { 0.0 };
                assert!(
                    (work.get(i) - expected).abs() < 1e-9,
                    "ftran(col {col})[{i}] = {}, expected {expected}",
                    work.get(i)
                );
            }
        }
        // BTRAN ∘ Bᵀ must be the identity: for each r, y = BTRAN(e_r) then
        // y · B[:, assignment[s]] = δ_{rs}.
        for r in 0..m as u32 {
            work.clear();
            work.add(r, 1.0);
            basis.btran(&mut work);
            for (s, &col) in assignment.iter().enumerate() {
                let dot: f64 = sparse[col].iter().map(|&(i, v)| v * work.get(i)).sum();
                let expected = if s == r as usize { 1.0 } else { 0.0 };
                assert!(
                    (dot - expected).abs() < 1e-9,
                    "btran(e_{r}) · col {col} = {dot}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn identity_and_permutation_bases_roundtrip() {
        check_roundtrip(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        check_roundtrip(&[
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
            vec![3.0, 0.0, 0.0],
        ]);
    }

    #[test]
    fn dense_random_basis_roundtrips() {
        let mut state = 0x1234u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let m = 7;
        let cols: Vec<Vec<f64>> = (0..m)
            .map(|k| {
                (0..m)
                    .map(|i| if i == k { 2.0 + next() } else { next() })
                    .collect()
            })
            .collect();
        check_roundtrip(&cols);
    }

    #[test]
    fn singular_basis_is_rejected() {
        let cols = [vec![1.0, 2.0], vec![2.0, 4.0]]; // rank 1
        let sparse: Vec<Vec<(u32, f64)>> = cols
            .iter()
            .map(|c| c.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect())
            .collect();
        let mut basis = EtaBasis::new();
        let mut work = ScatterVec::default();
        assert!(basis
            .refactorize(2, &[0, 1], |j| &sparse[j], 1e-10, &mut work)
            .is_none());
    }

    /// The false-singular regression the Markowitz LU exists to fix:
    /// columns of wildly different scales (soft-failed links sit orders of
    /// magnitude below their neighbours) must factorize — singularity is
    /// judged relative to each column's own magnitude, and threshold
    /// pivoting keeps the cancellation from swallowing the small columns.
    #[test]
    fn graded_column_scales_factorize() {
        let mut state = 0x5678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let m = 7;
        let cols: Vec<Vec<f64>> = (0..m)
            .map(|k| {
                let s = 10f64.powi(k - 3); // 1e-3 … 1e3
                (0..m)
                    .map(|i| s * if i == k { 2.0 + next() } else { next() })
                    .collect()
            })
            .collect();
        check_roundtrip(&cols);
    }

    #[test]
    fn updates_track_a_changing_basis() {
        // Start from the identity basis of a 3x3 system, then pivot in a new
        // column and check FTRAN maps it to the pivot unit vector.
        let id: Vec<Vec<(u32, f64)>> = (0..3).map(|i| vec![(i as u32, 1.0)]).collect();
        let entering: Vec<(u32, f64)> = vec![(0, 1.0), (1, 2.0), (2, 4.0)];
        let mut basis = EtaBasis::new();
        let mut work = ScatterVec::default();
        basis
            .refactorize(3, &[0, 1, 2], |j| &id[j], 1e-10, &mut work)
            .unwrap();
        // FTRAN the entering column (identity basis: unchanged), pivot row 1.
        work.clear();
        for &(i, v) in &entering {
            work.add(i, v);
        }
        basis.ftran(&mut work);
        basis.update(&work, 1);
        assert_eq!(basis.updates_since_refactor(), 1);
        // Now FTRAN of the entering column must be e_1.
        work.clear();
        for &(i, v) in &entering {
            work.add(i, v);
        }
        basis.ftran(&mut work);
        assert!((work.get(0) - 0.0).abs() < 1e-12);
        assert!((work.get(1) - 1.0).abs() < 1e-12);
        assert!((work.get(2) - 0.0).abs() < 1e-12);
        // And the old basis columns map to e_0 / e_2 still.
        work.clear();
        work.add(0, 1.0);
        basis.ftran(&mut work);
        assert!((work.get(0) - 1.0).abs() < 1e-12);
        assert!(work.get(1).abs() < 1e-12);
    }

    #[test]
    fn refactorization_interval_is_honoured() {
        let mut basis = EtaBasis::new();
        let mut work = ScatterVec::default();
        let id: Vec<Vec<(u32, f64)>> = (0..2).map(|i| vec![(i as u32, 1.0)]).collect();
        basis
            .refactorize(2, &[0, 1], |j| &id[j], 1e-10, &mut work)
            .unwrap();
        assert!(!basis.should_refactorize(2));
        for pivot in [0u32, 1, 0] {
            work.clear();
            work.add(pivot, 1.0);
            basis.update(&work, pivot);
        }
        assert!(basis.should_refactorize(2));
        assert!(basis.should_refactorize(1));
        assert!(!basis.should_refactorize(64));
        // An interval of 0 behaves like 1 (refactorize after every pivot).
        basis
            .refactorize(2, &[0, 1], |j| &id[j], 1e-10, &mut work)
            .unwrap();
        assert!(!basis.should_refactorize(0));
        work.clear();
        work.add(0, 1.0);
        basis.update(&work, 0);
        assert!(basis.should_refactorize(0));
    }
}
