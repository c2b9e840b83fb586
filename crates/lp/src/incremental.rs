//! Incremental LP solving: a persistent sparse simplex basis re-optimized
//! by the **dual simplex** method as rows and columns are appended,
//! deleted, and edited.
//!
//! The cut-generation master LP of the broadcast-throughput bound is the
//! textbook use case: every master round *appends* a handful of violated cut
//! rows to a previously optimal LP (and occasionally *deletes* stale ones).
//! Re-solving from scratch discards the basis, rebuilds phase 1 and walks the
//! whole phase-2 path again; warm-starting reuses all of it. The live state
//! is the sparse revised simplex of the private `sparse` module (Markowitz
//! LU basis, Devex pricing), refactorized lazily on the next re-solve after
//! an edit:
//!
//! * **Append** — a new `≤` row gets a fresh basic slack column. The old
//!   columns stay basic, the reduced costs of all old columns are untouched
//!   and the new slack prices out at zero — the basis stays *dual
//!   feasible*, only the new row's basic value may be negative. The dual
//!   simplex then restores primal feasibility in a few pivots instead of a
//!   full re-solve.
//! * **Delete** — a row whose slack is *basic* owns a unit slack column, so
//!   dropping the row together with that column removes the constraint
//!   exactly, leaves every other basic value untouched, and preserves both
//!   primal and dual feasibility (the deleted row was non-binding, so its
//!   multiplier was zero). Deleting a *binding* row would genuinely change
//!   the basis; that rare case falls back to a cold refactorization and is
//!   counted in [`IncrementalStats::refactorizations`].
//! * **Update** — [`SimplexState::update_coeffs`] edits the coefficients
//!   and right-hand sides of *existing* rows in place, the substrate for
//!   chained LP instances whose data drifts (dynamic platforms: link costs
//!   change, the constraint structure does not). The edited rows are
//!   rewritten and the **current basis** is refactorized under the new
//!   coefficients, then repaired: a still-dual-feasible basis goes through
//!   the dual simplex as after an append; a basis that lost dual
//!   feasibility but kept primal feasibility goes straight to the primal
//!   pass; a basis that lost both runs a zero-objective dual phase (any
//!   basis is dual feasible for a zero objective) to restore primal
//!   feasibility first. Anything the in-place path cannot express — a
//!   singular basis, rows carrying artificials, a stalled repair — falls
//!   back to a cold refactorization, so an update can never change *what*
//!   is computed, only how many pivots it takes.
//!
//! The state is created from an [`LpProblem`] snapshot (the immutable
//! "skeleton": variables, objective, base rows); rows appended through
//! [`SimplexState::add_row`] can later be deleted incrementally, and both
//! base and appended rows can be edited through
//! [`SimplexState::update_coeffs`] (base-row handles come from
//! [`SimplexState::base_rows`]).

use crate::basis::ScatterVec;
use crate::model::{Constraint, ConstraintOp, LpError, LpProblem, LpSolution, Sense, VarId};
use crate::simplex::{self, SimplexOptions, SolveStatus};
use crate::sparse::{self, SparseSimplex};

/// Stable handle of a row added to (or created with) a [`SimplexState`].
///
/// Row ids are never reused, so a handle stays valid (and simply refers to a
/// deleted row) after any sequence of additions and deletions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub(crate) usize);

impl RowId {
    /// The raw row index (the value [`LpError::UnknownRow`] reports).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw index, for snapshot-restore plumbing:
    /// callers persisting handles across a [`SimplexState::capture`] /
    /// [`SimplexState::restore`] round trip store `index()` and reconstruct
    /// here. A fabricated index refers to whatever row (live, deleted, or
    /// none) holds that slot — the state's accessors report `UnknownRow`
    /// for out-of-range ids rather than panicking.
    pub fn from_index(index: usize) -> RowId {
        RowId(index)
    }
}

/// Stable handle of a structural column added to (or created with) a
/// [`SimplexState`] — the column-side mirror of [`RowId`].
///
/// Column ids are never reused: deleting a column leaves a tombstone, so
/// every handle (and every [`VarId`]) issued earlier keeps its meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColId(pub(crate) usize);

impl ColId {
    /// The raw column index (the value [`LpError::UnknownCol`] reports).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw index — the column-side mirror of
    /// [`RowId::from_index`], with the same caveats.
    pub fn from_index(index: usize) -> ColId {
        ColId(index)
    }

    /// The [`VarId`] of this column, for referencing it in constraint terms
    /// (appended rows, [`RowUpdate`]s) after the fact.
    pub fn var(self) -> VarId {
        VarId(self.0)
    }
}

/// One structural column to append through [`SimplexState::add_cols`]: an
/// objective coefficient plus sparse coefficients into *existing* rows
/// (addressed by their [`RowId`] handles, exactly as issued).
#[derive(Clone, Debug)]
pub struct NewCol {
    /// Objective coefficient of the new variable (original sense).
    pub objective: f64,
    /// Sparse coefficients into existing live rows. A row handle may appear
    /// at most once; rows not listed get a zero coefficient.
    pub terms: Vec<(RowId, f64)>,
}

impl NewCol {
    /// Convenience constructor.
    pub fn new(objective: f64, terms: Vec<(RowId, f64)>) -> Self {
        NewCol { objective, terms }
    }
}

/// Counters describing how much work the incremental solver actually did —
/// the observable behind the "warm starting pays" claim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Solves performed from scratch (initial factorization + fallbacks).
    pub cold_solves: usize,
    /// Re-optimizations that reused the previous basis.
    pub warm_solves: usize,
    /// Cold refactorizations forced by a deletion the incremental path could
    /// not express (binding row, or a row still carrying an artificial).
    pub refactorizations: usize,
    /// Total simplex pivots, all phases and both pricing directions.
    pub total_pivots: usize,
    /// Pivots performed by the dual simplex (subset of `total_pivots`).
    pub dual_pivots: usize,
    /// Physical rows appended after construction.
    pub rows_added: usize,
    /// Physical rows deleted.
    pub rows_deleted: usize,
    /// Physical rows whose coefficients were edited in place.
    pub rows_updated: usize,
    /// Structural columns appended after construction.
    pub cols_added: usize,
    /// Structural columns deleted (tombstoned).
    pub cols_deleted: usize,
}

/// One stored (problem-form) row; kept so cold refactorizations can rebuild
/// the LP from first principles.
#[derive(Clone, Debug)]
struct StoredRow {
    terms: Vec<(VarId, f64)>,
    op: ConstraintOp,
    rhs: f64,
}

impl StoredRow {
    fn as_constraint(&self) -> Constraint {
        Constraint {
            terms: self.terms.clone(),
            op: self.op,
            rhs: self.rhs,
        }
    }
}

/// One in-place coefficient edit of an existing row, consumed in batches by
/// [`SimplexState::update_coeffs`].
#[derive(Clone, Debug)]
pub struct RowUpdate {
    /// Handle of the row to edit (base or appended).
    pub row: RowId,
    /// The new sparse left-hand side (replaces the old terms entirely).
    pub terms: Vec<(VarId, f64)>,
    /// The new right-hand side.
    pub rhs: f64,
}

impl RowUpdate {
    /// Convenience constructor.
    pub fn new(row: RowId, terms: Vec<(VarId, f64)>, rhs: f64) -> Self {
        RowUpdate { row, terms, rhs }
    }
}

/// The live sparse revised-simplex state plus the bookkeeping that ties
/// physical rows to their assembled rows and auxiliary columns. Appends
/// keep the basis dual feasible, non-binding deletions are exact and free,
/// and anything inexpressible falls back to an authoritative cold solve.
struct Fact {
    sim: SparseSimplex,
    /// Maximization-form cost per column (structural costs + zeros).
    cost: Vec<f64>,
    /// Per *physical* row: its slack/surplus column, if any.
    slack_col: Vec<Option<usize>>,
    /// Per *physical* row: its artificial column, if any.
    art_col: Vec<Option<usize>>,
    /// Per *physical* row: its current assembled-row index (shifts down as
    /// earlier rows are deleted; `None` once deleted).
    row_of: Vec<Option<usize>>,
    /// True when rows were appended or updated since the last optimization.
    stale: bool,
}

/// A linear program whose optimal basis persists across row additions and
/// deletions, re-optimized by warm-started dual simplex.
///
/// ```
/// use bcast_lp::{ConstraintOp, LpProblem, Sense, SimplexOptions, SimplexState};
///
/// // max x + y  s.t.  x ≤ 3, y ≤ 2
/// let mut lp = LpProblem::new(Sense::Maximize);
/// let x = lp.add_var("x", 1.0);
/// let y = lp.add_var("y", 1.0);
/// lp.add_le(&[(x, 1.0)], 3.0);
/// lp.add_le(&[(y, 1.0)], 2.0);
///
/// let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
/// assert_eq!(state.solve().unwrap().objective, 5.0);
///
/// // Append a cut: x + y ≤ 4. The old optimum (3, 2) violates it; the dual
/// // simplex repairs the basis in a pivot or two instead of re-solving.
/// let cut = state.add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0).unwrap();
/// assert_eq!(state.resolve().unwrap().objective, 4.0);
///
/// // Delete it again: the relaxed optimum returns.
/// state.delete_rows(&[cut]).unwrap();
/// assert_eq!(state.resolve().unwrap().objective, 5.0);
/// ```
pub struct SimplexState {
    options: SimplexOptions,
    sense: Sense,
    /// Structural objective coefficients (original sense).
    objective: Vec<f64>,
    /// All physical rows ever added, by [`RowId`] order of creation.
    rows: Vec<StoredRow>,
    /// Liveness per physical row (deleted rows stay in `rows` as tombstones).
    live: Vec<bool>,
    /// Liveness per structural column, by [`ColId`] order of creation.
    /// Deleted columns stay in `objective` as zero-cost tombstones so every
    /// [`VarId`] keeps its index across any sequence of column edits.
    cols_live: Vec<bool>,
    /// Physical rows of each [`RowId`] (an `=` append expands to two rows).
    groups: Vec<Vec<usize>>,
    /// Constraint operator each [`RowId`] was declared with (needed to
    /// re-apply the storage normalization when the row is updated).
    group_ops: Vec<ConstraintOp>,
    /// Number of groups that came from the base [`LpProblem`] (their stored
    /// rows are verbatim; appended groups are normalized to `≤` form).
    base_groups: usize,
    fact: Option<Fact>,
    stats: IncrementalStats,
}

impl SimplexState {
    /// Snapshots `problem` (variables, objective, constraints) as the base
    /// of an incremental solver. Nothing is solved yet; the first call to
    /// [`solve`](Self::solve) / [`resolve`](Self::resolve) factorizes cold.
    pub fn new(problem: &LpProblem, options: SimplexOptions) -> Result<Self, LpError> {
        problem.validate()?;
        let mut state = SimplexState {
            options,
            sense: problem.sense(),
            objective: problem.objective().to_vec(),
            rows: Vec::new(),
            live: Vec::new(),
            cols_live: vec![true; problem.objective().len()],
            groups: Vec::new(),
            group_ops: Vec::new(),
            base_groups: 0,
            fact: None,
            stats: IncrementalStats::default(),
        };
        for con in problem.constraints() {
            state.push_group(
                vec![StoredRow {
                    terms: con.terms.clone(),
                    op: con.op,
                    rhs: con.rhs,
                }],
                con.op,
            );
        }
        state.base_groups = state.groups.len();
        Ok(state)
    }

    /// Handles of the base problem's constraints, in declaration order —
    /// the addressing scheme for [`update_coeffs`](Self::update_coeffs) on
    /// rows that were part of the construction snapshot.
    pub fn base_rows(&self) -> Vec<RowId> {
        (0..self.base_groups).map(RowId).collect()
    }

    /// Number of structural variable slots (construction columns plus every
    /// [`add_cols`](Self::add_cols) append; deleted columns keep their slot
    /// as a tombstone so [`VarId`] indexing stays stable).
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// The column handle of a live variable. Construction-time columns were
    /// never returned by [`add_cols`](Self::add_cols); this issues their
    /// handles on demand (and re-issues appended ones). Deleted or unknown
    /// variables are rejected with [`LpError::UnknownCol`].
    pub fn col_id(&self, var: VarId) -> Result<ColId, LpError> {
        if var.index() >= self.num_vars() || !self.cols_live[var.index()] {
            return Err(LpError::UnknownCol(var.index()));
        }
        Ok(ColId(var.index()))
    }

    /// Number of live rows (physical; an appended `=` counts as two).
    pub fn num_rows(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// The accumulated work counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Bookkeeping of every path that discards the live factorization: the
    /// next solve is forced through the cold refactorization fallback, which
    /// the `lp.cold_refactor_fallback` counter makes visible in
    /// `solver_report` digests (recovery-forced cold solves included).
    fn note_cold_fallback(&mut self) {
        self.stats.refactorizations += 1;
        bcast_obs::counter_add(bcast_obs::names::LP_COLD_REFACTOR_FALLBACK, 1);
    }

    /// Appends one constraint and returns its handle. The solver is not
    /// re-optimized until the next [`resolve`](Self::resolve).
    ///
    /// `≥` rows are stored negated as `≤` rows so every appended row carries
    /// exactly one slack column (no artificials, hence no phase 1); an `=`
    /// row expands to the `≤`/`≥` pair under a single handle.
    pub fn add_row(
        &mut self,
        terms: &[(VarId, f64)],
        op: ConstraintOp,
        rhs: f64,
    ) -> Result<RowId, LpError> {
        let ids = self.add_rows(&[Constraint {
            terms: terms.to_vec(),
            op,
            rhs,
        }])?;
        Ok(ids[0])
    }

    /// Appends several constraints (see [`add_row`](Self::add_row)) and
    /// returns one handle per constraint. On a live factorization the whole
    /// batch is absorbed by one refactorization at the next re-solve.
    pub fn add_rows(&mut self, rows: &[Constraint]) -> Result<Vec<RowId>, LpError> {
        for con in rows {
            self.validate_terms(&con.terms, con.rhs)?;
        }
        let first_physical = self.rows.len();
        let mut ids = Vec::with_capacity(rows.len());
        for con in rows {
            let negated = || {
                con.terms
                    .iter()
                    .map(|&(v, c)| (v, -c))
                    .collect::<Vec<(VarId, f64)>>()
            };
            let physical = match con.op {
                ConstraintOp::Le => vec![StoredRow {
                    terms: con.terms.clone(),
                    op: ConstraintOp::Le,
                    rhs: con.rhs,
                }],
                ConstraintOp::Ge => vec![StoredRow {
                    terms: negated(),
                    op: ConstraintOp::Le,
                    rhs: -con.rhs,
                }],
                ConstraintOp::Eq => vec![
                    StoredRow {
                        terms: con.terms.clone(),
                        op: ConstraintOp::Le,
                        rhs: con.rhs,
                    },
                    StoredRow {
                        terms: negated(),
                        op: ConstraintOp::Le,
                        rhs: -con.rhs,
                    },
                ],
            };
            self.stats.rows_added += physical.len();
            ids.push(self.push_group(physical, con.op));
        }
        if let Some(fact) = self.fact.as_mut() {
            fact.slack_col.resize(self.rows.len(), None);
            fact.art_col.resize(self.rows.len(), None);
            fact.row_of.resize(self.rows.len(), None);
            // Each stored row (always `≤` form) gets a fresh basic slack; the
            // basis (old columns + new slacks) carries over verbatim, so dual
            // feasibility is preserved and the next refactorization absorbs
            // the new rows.
            for (p, row) in self.rows.iter().enumerate().skip(first_physical) {
                fact.row_of[p] = Some(fact.sim.prob.m);
                fact.slack_col[p] = Some(fact.sim.append_le_row(&row.terms, row.rhs));
                fact.cost.push(0.0);
                fact.stale = true;
            }
        }
        Ok(ids)
    }

    /// Deletes the given rows. Non-binding rows (slack basic) are removed in
    /// place, preserving the optimal basis; a binding or artificial-carrying
    /// row forces a cold refactorization on the next solve. Ids of rows
    /// already deleted are ignored.
    ///
    /// A handle this state never issued is rejected up front
    /// ([`LpError::UnknownRow`]) with the state untouched, so a failed call
    /// can never leave the factorization disagreeing with the stored rows.
    pub fn delete_rows(&mut self, ids: &[RowId]) -> Result<(), LpError> {
        if let Some(&RowId(bad)) = ids.iter().find(|&&RowId(id)| id >= self.groups.len()) {
            return Err(LpError::UnknownRow(bad));
        }
        let mut needs_refactor = false;
        for &RowId(id) in ids {
            for p in self.groups[id].clone() {
                if !self.live[p] {
                    continue;
                }
                self.live[p] = false;
                self.stats.rows_deleted += 1;
                if let Some(fact) = self.fact.as_mut() {
                    needs_refactor |= !remove_physical_row(fact, p);
                }
            }
        }
        if needs_refactor {
            self.fact = None;
            self.note_cold_fallback();
        }
        Ok(())
    }

    /// Edits the coefficients and right-hand sides of existing rows in
    /// place — the cross-instance warm start for chained LPs whose data
    /// drifts while their structure stays fixed (the dynamic-platform
    /// master LP re-solved after every link-cost drift step is the intended
    /// customer). Each update replaces the row's whole left-hand side and
    /// right-hand side; the operator it was declared with is kept (an
    /// updated `=` append refreshes both physical rows of its pair).
    ///
    /// The batch is **atomic**: every update is validated up front, and a
    /// handle this state never issued — or one whose row was deleted — is
    /// rejected with [`LpError::UnknownRow`] before anything is touched, so
    /// a failed call can never leave the factorization disagreeing with the
    /// stored rows.
    ///
    /// With a live factorization the edited rows are rewritten, the
    /// **current basis** is refactorized under the new coefficients, and the
    /// next [`resolve`](Self::resolve) repairs it (dual pass, primal pass,
    /// or a zero-objective dual phase when both feasibilities were lost). An
    /// edit the in-place path cannot express (rows carrying artificials, a
    /// basis gone singular under the new coefficients) falls back to a cold
    /// refactorization — exactly like a binding-row deletion, and counted
    /// the same way — so updating coefficients can never change the
    /// returned verdict, only the pivot count.
    pub fn update_coeffs(&mut self, updates: &[RowUpdate]) -> Result<(), LpError> {
        for update in updates {
            let RowId(id) = update.row;
            if id >= self.groups.len() || self.groups[id].iter().any(|&p| !self.live[p]) {
                return Err(LpError::UnknownRow(id));
            }
            self.validate_terms(&update.terms, update.rhs)?;
        }
        if updates.is_empty() {
            return Ok(());
        }
        for update in updates {
            let RowId(id) = update.row;
            let physical = regenerate_stored_rows(
                self.group_ops[id],
                id < self.base_groups,
                &update.terms,
                update.rhs,
            );
            debug_assert_eq!(physical.len(), self.groups[id].len());
            for (&p, row) in self.groups[id].clone().iter().zip(physical) {
                self.rows[p] = row;
                self.stats.rows_updated += 1;
            }
        }
        if let Some(fact) = self.fact.as_mut() {
            let touched: Vec<usize> = updates
                .iter()
                .flat_map(|u| self.groups[u.row.0].clone())
                .collect();
            if rewrite_rows(fact, &self.rows, &touched, &self.options) {
                fact.stale = true;
            } else {
                self.fact = None;
                self.note_cold_fallback();
            }
        }
        Ok(())
    }

    /// Appends structural columns (new variables) and returns one handle per
    /// column. The new variables enter **nonbasic at value zero**: every
    /// existing basic value is unchanged, so a primal-feasible basis stays
    /// primal feasible and the next [`resolve`](Self::resolve) merely prices
    /// the new columns in (normally a short primal pass from the old
    /// vertex). With a live factorization the system is re-derived from the
    /// stored rows **in the current basis**, and anything the in-place path
    /// cannot express falls back to an authoritative cold refactorization,
    /// so adding columns can never change the verdict.
    ///
    /// The batch is **atomic**: every column is validated up front
    /// ([`LpError::UnknownRow`] for a dead or foreign row handle,
    /// [`LpError::NotFinite`] for non-finite data) before anything is
    /// touched.
    pub fn add_cols(&mut self, cols: &[NewCol]) -> Result<Vec<ColId>, LpError> {
        for col in cols {
            if !col.objective.is_finite() {
                return Err(LpError::NotFinite);
            }
            for &(RowId(id), c) in &col.terms {
                if id >= self.groups.len() || self.groups[id].iter().any(|&p| !self.live[p]) {
                    return Err(LpError::UnknownRow(id));
                }
                if !c.is_finite() {
                    return Err(LpError::NotFinite);
                }
            }
        }
        if cols.is_empty() {
            return Ok(Vec::new());
        }
        let mut ids = Vec::with_capacity(cols.len());
        for col in cols {
            let var = VarId(self.objective.len());
            ids.push(ColId(var.0));
            self.objective.push(col.objective);
            self.cols_live.push(true);
            for &(RowId(id), c) in &col.terms {
                for (slot, &p) in self.groups[id].clone().iter().enumerate() {
                    // Base rows are stored verbatim; appended groups were
                    // normalized to `≤` form (`≥` negated, `=` expanded to a
                    // direct/negated pair). Mirror that normalization or the
                    // stored rows would stop agreeing with `add_rows`.
                    let sign = if id < self.base_groups {
                        1.0
                    } else {
                        match self.group_ops[id] {
                            ConstraintOp::Le => 1.0,
                            ConstraintOp::Ge => -1.0,
                            ConstraintOp::Eq => {
                                if slot == 0 {
                                    1.0
                                } else {
                                    -1.0
                                }
                            }
                        }
                    };
                    self.rows[p].terms.push((var, sign * c));
                }
            }
        }
        self.stats.cols_added += cols.len();
        if let Some(fact) = self.fact.as_mut() {
            if rebuild_grown(fact, &self.rows, &self.live, self.objective.len()) {
                fact.cost = maximization_cost(self.sense, &self.objective, fact.sim.prob.ncols);
                fact.stale = true;
            } else {
                self.fact = None;
                self.note_cold_fallback();
            }
        }
        Ok(ids)
    }

    /// Deletes the given columns, tombstoning their [`VarId`]s (indices are
    /// never reused, so handles issued earlier keep their meaning). A column
    /// that is **nonbasic** in the live factorization sits at value zero, so
    /// removing it is exact and free; a **basic** column is driven out by
    /// one forced pivot and the next [`resolve`](Self::resolve) repairs
    /// whatever feasibility that pivot cost — the same bounded dual/primal
    /// repair as after a coefficient update, with the cold refactorization
    /// as the authoritative fallback, so deleting columns can never change
    /// the verdict, only the pivot count.
    ///
    /// Unlike row deletion, deleting a column twice is an error: the batch
    /// is **atomic**, and any unknown, already-deleted, or repeated
    /// [`ColId`] is rejected up front with [`LpError::UnknownCol`] before
    /// anything is touched.
    pub fn delete_cols(&mut self, ids: &[ColId]) -> Result<(), LpError> {
        for (i, &ColId(id)) in ids.iter().enumerate() {
            if id >= self.objective.len() || !self.cols_live[id] || ids[..i].contains(&ColId(id)) {
                return Err(LpError::UnknownCol(id));
            }
        }
        if ids.is_empty() {
            return Ok(());
        }
        for &ColId(id) in ids {
            self.cols_live[id] = false;
            self.objective[id] = 0.0;
            for row in self.rows.iter_mut() {
                row.terms.retain(|&(v, _)| v.index() != id);
            }
        }
        self.stats.cols_deleted += ids.len();
        let options = self.options;
        let mut pivots = 0usize;
        let mut ok = true;
        if let Some(fact) = self.fact.as_mut() {
            for &ColId(id) in ids {
                fact.cost[id] = 0.0;
                let was_basic = fact.sim.prob.basis.contains(&id);
                if !fact.sim.delete_column(id, &options) {
                    ok = false;
                    break;
                }
                if was_basic {
                    pivots += 1;
                }
            }
            if ok {
                fact.stale = true;
            }
        }
        self.stats.total_pivots += pivots;
        bcast_obs::counter_add(bcast_obs::names::LP_PIVOTS, pivots as u64);
        if !ok {
            self.fact = None;
            self.note_cold_fallback();
        }
        Ok(())
    }

    /// Solves (or re-solves) the problem. Identical to
    /// [`resolve`](Self::resolve); both names exist because the first call
    /// is necessarily a cold solve while later calls are warm.
    pub fn solve(&mut self) -> Result<LpSolution, LpError> {
        self.resolve()
    }

    /// Re-optimizes after row changes: a dual-simplex pass restores primal
    /// feasibility from the prior basis, then a (normally zero-pivot) primal
    /// pass certifies optimality. Falls back to a cold two-phase solve when
    /// no factorization is alive.
    ///
    /// The warm passes run under a budget proportional to the LP size;
    /// any outcome other than a clean optimum (degenerate stall, apparent
    /// infeasibility, numerical drift) discards the factorization and
    /// re-solves cold, which is authoritative for the feasible / unbounded
    /// verdict and is counted in [`IncrementalStats::refactorizations`].
    pub fn resolve(&mut self) -> Result<LpSolution, LpError> {
        if !bcast_obs::enabled() {
            return self.resolve_inner();
        }
        let warm = self.fact.is_some();
        let _span = if warm {
            bcast_obs::span!(bcast_obs::names::SPAN_LP_RESOLVE)
        } else {
            bcast_obs::span!(bcast_obs::names::SPAN_LP_SOLVE)
        };
        let start = std::time::Instant::now();
        let (rows, cols) = (self.rows.len(), self.num_vars());
        let result = self.resolve_inner();
        let pivots = result.as_ref().map_or(0, |sol| sol.iterations) as u64;
        bcast_obs::counter_add(
            if warm {
                bcast_obs::names::LP_RESOLVES
            } else {
                bcast_obs::names::LP_COLD_SOLVES
            },
            1,
        );
        bcast_obs::counter_add(bcast_obs::names::LP_PIVOTS, pivots);
        bcast_obs::emit_with(|| bcast_obs::Event::LpSolve {
            kind: if warm {
                bcast_obs::LpSolveKind::Resolve
            } else {
                bcast_obs::LpSolveKind::Cold
            },
            rows,
            cols,
            pivots,
            status: simplex::solve_status_str(&result),
            t_ns: start.elapsed().as_nanos() as u64,
        });
        result
    }

    fn resolve_inner(&mut self) -> Result<LpSolution, LpError> {
        let options = self.options;
        let Some(fact) = self.fact.as_mut() else {
            return self.cold_solve();
        };
        let (clean, pivots, dual_pivots) = fact.reoptimize(&options);
        self.stats.dual_pivots += dual_pivots;
        if !clean {
            self.stats.total_pivots += pivots;
            // Stall, apparent infeasibility, or a soured basis: discard the
            // factorization and let the cold two-phase solve give the
            // authoritative answer. Warm starting can therefore never change
            // *what* is returned, only how many pivots it takes. The wasted
            // warm pivots are charged to the returned solution so callers'
            // iteration totals stay honest.
            self.fact = None;
            self.note_cold_fallback();
            let mut solution = self.cold_solve()?;
            solution.iterations += pivots;
            return Ok(solution);
        }
        self.stats.total_pivots += pivots;
        self.fact.as_mut().expect("factorization alive").stale = false;
        self.stats.warm_solves += 1;
        Ok(self.extract(pivots))
    }

    /// The problem (base + live appended rows) as a plain [`LpProblem`] —
    /// the cold-solver view, used by the differential tests.
    pub fn to_problem(&self) -> LpProblem {
        let mut lp = LpProblem::new(self.sense);
        for (i, &c) in self.objective.iter().enumerate() {
            lp.add_var(format!("x{i}"), c);
        }
        for (p, row) in self.rows.iter().enumerate() {
            if self.live[p] {
                lp.add_constraint(&row.terms, row.op, row.rhs);
            }
        }
        lp
    }

    fn push_group(&mut self, physical: Vec<StoredRow>, op: ConstraintOp) -> RowId {
        let id = RowId(self.groups.len());
        let mut indices = Vec::with_capacity(physical.len());
        for row in physical {
            indices.push(self.rows.len());
            self.rows.push(row);
            self.live.push(true);
        }
        self.groups.push(indices);
        self.group_ops.push(op);
        id
    }

    fn validate_terms(&self, terms: &[(VarId, f64)], rhs: f64) -> Result<(), LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NotFinite);
        }
        for &(v, c) in terms {
            if v.index() >= self.num_vars() || !self.cols_live[v.index()] {
                return Err(LpError::UnknownVariable(v));
            }
            if !c.is_finite() {
                return Err(LpError::NotFinite);
            }
        }
        Ok(())
    }

    /// Cold path: assemble every live row from scratch and run the ordinary
    /// two-phase solve, then adopt the resulting basis as the warm state.
    fn cold_solve(&mut self) -> Result<LpSolution, LpError> {
        let live_physical: Vec<usize> = (0..self.rows.len()).filter(|&p| self.live[p]).collect();
        let constraints: Vec<Constraint> = live_physical
            .iter()
            .map(|&p| self.rows[p].as_constraint())
            .collect();
        let prob = sparse::assemble_sparse(self.num_vars(), &constraints);
        let cost = maximization_cost(self.sense, &self.objective, prob.ncols);
        let mut slack_col = vec![None; self.rows.len()];
        let mut art_col = vec![None; self.rows.len()];
        let mut row_of = vec![None; self.rows.len()];
        for (i, &p) in live_physical.iter().enumerate() {
            slack_col[p] = prob.slack_col[i];
            art_col[p] = prob.art_col[i];
            row_of[p] = Some(i);
        }
        let mut fact = Fact {
            sim: SparseSimplex::new(prob),
            cost,
            slack_col,
            art_col,
            row_of,
            stale: false,
        };
        let pivots = fact.sim.two_phase(&fact.cost, &self.options)?;
        self.fact = Some(fact);
        self.stats.cold_solves += 1;
        self.stats.total_pivots += pivots;
        Ok(self.extract(pivots))
    }

    fn extract(&self, pivots: usize) -> LpSolution {
        let values = self
            .fact
            .as_ref()
            .expect("factorization alive")
            .sim
            .extract_values(self.num_vars());
        let objective = self.objective.iter().zip(&values).map(|(c, x)| c * x).sum();
        LpSolution {
            objective,
            values,
            status: SolveStatus::Optimal,
            iterations: pivots,
        }
    }
}

/// The stored (physical) form of a row declared as `terms op rhs`: base
/// rows are stored verbatim (the cold assembly handles every operator),
/// appended rows are normalized to `≤` form exactly as in
/// [`SimplexState::add_rows`] — the two paths must keep agreeing or an
/// update would silently change a row's meaning.
fn regenerate_stored_rows(
    op: ConstraintOp,
    base: bool,
    terms: &[(VarId, f64)],
    rhs: f64,
) -> Vec<StoredRow> {
    let verbatim = || StoredRow {
        terms: terms.to_vec(),
        op,
        rhs,
    };
    if base {
        return vec![verbatim()];
    }
    let negated = || StoredRow {
        terms: terms.iter().map(|&(v, c)| (v, -c)).collect(),
        op: ConstraintOp::Le,
        rhs: -rhs,
    };
    match op {
        ConstraintOp::Le => vec![StoredRow {
            terms: terms.to_vec(),
            op: ConstraintOp::Le,
            rhs,
        }],
        ConstraintOp::Ge => vec![negated()],
        ConstraintOp::Eq => vec![
            StoredRow {
                terms: terms.to_vec(),
                op: ConstraintOp::Le,
                rhs,
            },
            negated(),
        ],
    }
}

impl Fact {
    /// The warm repair after edits: refactorize the (possibly grown or
    /// edited) basis, read the reduced costs, pick the repair pass, then
    /// certify optimality with a primal pass. Returns `(clean, pivots,
    /// dual_pivots)`; anything but a clean optimum sends the caller cold.
    ///
    /// The budget sits deliberately far below the cold solver's: a warm
    /// re-solve normally needs a handful of pivots, and a warm pass that
    /// does not converge quickly is numerically suspect — better to
    /// refactorize than to chase a drifting basis.
    fn reoptimize(&mut self, options: &SimplexOptions) -> (bool, usize, usize) {
        let budget = (4 * (self.sim.prob.m + self.sim.prob.ncols)).max(200);
        let mut pivots = 0usize;
        let mut dual_pivots = 0usize;
        let mut clean = true;
        // `primary_fresh`: the factorization is live and the reduced costs
        // match `self.cost`, so the next pass may skip its entry refresh
        // (each refresh is a full refactorization — the dominant cost of a
        // zero-pivot warm re-solve).
        let mut primary_fresh = false;
        if self.stale {
            if self.sim.factorize(options) {
                // Classify the start basis. Pure row appends leave the old
                // reduced costs untouched — dual feasible — and are repaired
                // by the dual simplex. A coefficient update can break dual
                // feasibility: if the basis at least stayed primal feasible,
                // the primal pass below re-optimizes directly; if it lost
                // both, a dual phase with a zero objective (for which any
                // basis prices out) restores primal feasibility first.
                self.sim.compute_reduced_costs(&self.cost);
                primary_fresh = true;
                let dual_feasible = self
                    .sim
                    .reduced_costs()
                    .iter()
                    .zip(&self.sim.prob.allowed)
                    .all(|(&dj, &ok)| !ok || dj <= options.cost_tolerance);
                if dual_feasible {
                    let (status, iters) = self.sim.dual(&self.cost, options, budget, true);
                    pivots += iters;
                    dual_pivots += iters;
                    clean = status == SolveStatus::Optimal;
                } else if self
                    .sim
                    .x_b
                    .iter()
                    .any(|&bi| bi < -options.feasibility_tolerance)
                {
                    let zero = vec![0.0; self.sim.prob.ncols];
                    // The factorization from the classification above is
                    // still live — only the reduced costs must be redone for
                    // the zero objective (one BTRAN + column pass, far below
                    // another full refactorization).
                    self.sim.compute_reduced_costs(&zero);
                    let (status, iters) = self.sim.dual(&zero, options, budget, true);
                    pivots += iters;
                    dual_pivots += iters;
                    clean = status == SolveStatus::Optimal;
                    // `d` now belongs to the zero cost; the primal pass below
                    // must refresh for the real one.
                    primary_fresh = false;
                }
            } else {
                // Singular under the edited coefficients: only a cold solve
                // can answer.
                clean = false;
            }
        }
        if clean {
            // Primal cleanup: after a clean dual pass (or a pure deletion)
            // the basis is already optimal and this prices out in zero
            // pivots; it guards the rare case where floating-point drift
            // left a column with a marginally positive reduced cost.
            let remaining = budget.saturating_sub(pivots).max(100);
            let (status, iters) = self
                .sim
                .primal(&self.cost, options, remaining, primary_fresh);
            pivots += iters;
            clean = status == SolveStatus::Optimal;
        }
        (clean, pivots, dual_pivots)
    }

    /// True when physical row `p` (stored as `row`) sits in the live
    /// problem as a plain slack-form row — a slack, no artificial, an
    /// assembled position — in an orientation [`slack_form_sign`] can
    /// reproduce: the acceptance rule of every in-place rebuild.
    fn is_slack_form(&self, p: usize, row: &StoredRow) -> bool {
        self.slack_col[p].is_some()
            && self.art_col[p].is_none()
            && self.row_of[p].is_some()
            && slack_form_sign(row).is_some()
    }
}

/// The orientation a live slack-form row was assembled with: appended rows
/// (always stored `≤`) and `≤` base rows sit verbatim (`+1`), while a base
/// `≥` row with `rhs ≤ 0` was assembled sign-flipped (`-1`, the
/// artificial-free `≥ 0` rewrite — see `simplex::normalize_constraint`).
/// Any other shape carries an artificial under cold assembly, so the
/// in-place paths refuse it (`None`) rather than guess an orientation.
fn slack_form_sign(row: &StoredRow) -> Option<f64> {
    match row.op {
        ConstraintOp::Le => Some(1.0),
        ConstraintOp::Ge if row.rhs <= 0.0 => Some(-1.0),
        _ => None,
    }
}

/// Assembles the stored rows `rows[p]` for `p` in `order` (assembled-row
/// order) in their slack-form orientation over `n` structural columns, each
/// with its slack column `slack_of(p)`. Every row must pass
/// [`slack_form_sign`]. Returns the sparse rows and right-hand sides.
fn assemble_slack_rows(
    rows: &[StoredRow],
    order: &[usize],
    n: usize,
    slack_of: impl Fn(usize) -> usize,
) -> (Vec<Vec<(u32, f64)>>, Vec<f64>) {
    let mut scratch = ScatterVec::default();
    let mut row_nz = Vec::with_capacity(order.len());
    let mut b = Vec::with_capacity(order.len());
    for &p in order {
        let sign = slack_form_sign(&rows[p]).expect("checked by the caller");
        let mut rhs = sign * rows[p].rhs;
        let mut row = sparse::build_structural_row(n, &rows[p].terms, sign, &mut rhs, &mut scratch);
        row.push((slack_of(p) as u32, 1.0));
        row_nz.push(row);
        b.push(rhs);
    }
    (row_nz, b)
}

/// Re-derives the whole sparse problem from the stored rows for a *grown*
/// variable space of `n` structural columns — old structural columns keep
/// their indices, every auxiliary column shifts right by the growth — while
/// keeping the current basis (the new columns enter nonbasic, so the basic
/// values are unchanged). Returns `false` when the system cannot adopt the
/// old basis (a live row failing [`Fact::is_slack_form`], or a basis
/// holding a barred column), in which case the caller refactorizes cold.
fn rebuild_grown(fact: &mut Fact, rows: &[StoredRow], live: &[bool], n: usize) -> bool {
    let n_old = fact.sim.prob.n_struct;
    debug_assert!(n >= n_old);
    let k = n - n_old;
    let m = fact.sim.prob.m;
    let live_rows: Vec<usize> = (0..rows.len()).filter(|&p| live[p]).collect();
    if live_rows.len() != m || live_rows.iter().any(|&p| !fact.is_slack_form(p, &rows[p])) {
        return false;
    }
    let shift = |c: usize| if c >= n_old { c + k } else { c };
    let old = &fact.sim.prob;
    let ncols = old.ncols + k;
    let mut allowed = Vec::with_capacity(ncols);
    allowed.extend_from_slice(&old.allowed[..n_old]);
    allowed.extend(std::iter::repeat_n(true, k));
    allowed.extend_from_slice(&old.allowed[n_old..]);
    let basis: Vec<usize> = old.basis.iter().map(|&bc| shift(bc)).collect();
    if basis.iter().any(|&bc| bc >= ncols || !allowed[bc]) {
        return false;
    }
    let artificial_cols: Vec<usize> = old.artificial_cols.iter().map(|&c| shift(c)).collect();
    let prob_slack_col: Vec<Option<usize>> = old.slack_col.iter().map(|o| o.map(shift)).collect();
    let prob_art_col: Vec<Option<usize>> = old.art_col.iter().map(|o| o.map(shift)).collect();
    // Rebuild the rows in their current assembled order, each with the same
    // (shifted) slack column it was introduced with.
    let mut pos_to_p = vec![usize::MAX; m];
    for &p in &live_rows {
        pos_to_p[fact.row_of[p].expect("checked above")] = p;
    }
    let (row_nz, b) = assemble_slack_rows(rows, &pos_to_p, n, |p| {
        shift(fact.slack_col[p].expect("checked above"))
    });
    let mut prob = sparse::SparseProblem {
        m,
        n_struct: n,
        ncols,
        row_nz,
        col_nz: vec![Vec::new(); ncols],
        b,
        allowed,
        basis,
        artificial_cols,
        slack_col: prob_slack_col,
        art_col: prob_art_col,
        cols_stale: false,
    };
    prob.rebuild_cols();
    fact.sim = SparseSimplex::new(prob);
    for col in fact.slack_col.iter_mut().flatten() {
        if *col >= n_old {
            *col += k;
        }
    }
    for col in fact.art_col.iter_mut().flatten() {
        if *col >= n_old {
            *col += k;
        }
    }
    true
}

/// Tries to remove physical row `p` from the live problem without breaking
/// the basis: the row's slack must be basic (a non-binding row), and no
/// basic artificial may pin it. The removal drops the constraint row and
/// its unit slack column from the sparse store — the remaining basic values
/// are provably unchanged, so the deletion stays free. Returns `false` when
/// only a cold refactorization can express the deletion.
fn remove_physical_row(fact: &mut Fact, p: usize) -> bool {
    // A lingering basic artificial (degenerate redundant row) pins the
    // basis in a way plain row removal cannot untangle.
    if let Some(art) = fact.art_col[p] {
        if fact.sim.prob.basis.contains(&art) {
            return false;
        }
        fact.sim.bar_column(art);
    }
    // An initial `=` row has no slack; there is no column to carry the
    // deletion through the basis.
    let Some(slack) = fact.slack_col[p] else {
        return false;
    };
    let Some(row) = fact.row_of[p] else {
        return false;
    };
    if !fact.sim.remove_row(row, slack) {
        // Slack nonbasic: the row is binding, deletion moves the optimum.
        return false;
    }
    for r in fact.row_of.iter_mut().flatten() {
        if *r > row {
            *r -= 1;
        }
    }
    fact.row_of[p] = None;
    fact.slack_col[p] = None;
    fact.art_col[p] = None;
    true
}

/// In-place coefficient edits: only the `touched` physical rows are
/// rewritten (the rest stay verbatim), each must still pass
/// [`Fact::is_slack_form`], and the batch ends with a same-basis
/// refactorization. Returns `false` when the edit cannot be expressed
/// in-place (changed row shape, or the old basis gone singular under the
/// new coefficients), in which case the caller refactorizes cold.
fn rewrite_rows(
    fact: &mut Fact,
    rows: &[StoredRow],
    touched: &[usize],
    options: &SimplexOptions,
) -> bool {
    if touched.iter().any(|&p| !fact.is_slack_form(p, &rows[p])) {
        return false;
    }
    for &p in touched {
        fact.sim.rewrite_row(
            fact.row_of[p].expect("checked above"),
            &rows[p].terms,
            slack_form_sign(&rows[p]).expect("checked above"),
            rows[p].rhs,
            fact.slack_col[p].expect("checked above"),
        );
    }
    fact.sim.refactor_same_basis(options)
}

// ---------------------------------------------------------------------------
// Snapshot / restore — plain-data capture of the incremental solver
// ---------------------------------------------------------------------------

/// One stored physical row of a [`SimplexSnapshot`] (the public mirror of
/// the private row store: already normalized exactly as the state keeps it).
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotRow {
    /// Sparse left-hand side, in stored (normalized) form.
    pub terms: Vec<(VarId, f64)>,
    /// Stored operator (appended rows are always `≤`; base rows verbatim).
    pub op: ConstraintOp,
    /// Stored right-hand side.
    pub rhs: f64,
}

/// Capture of the live factorization's *restorable* core: the basis and the
/// row/column bookkeeping, deliberately **without** the LU factors, pricing
/// weights, or basic values — those are rebuilt deterministically by
/// [`SimplexState::restore`], which is what makes a restored state
/// *canonical* (two restores from equal snapshots are bit-identical).
#[derive(Clone, Debug, PartialEq)]
pub struct FactSnapshot {
    /// Total column count (structural + slack + artificial).
    pub cols: usize,
    /// Basic column per assembled row.
    pub basis: Vec<usize>,
    /// Enterable flag per column (barred tombstones stay barred).
    pub allowed: Vec<bool>,
    /// Artificial column indices of the original cold assembly.
    pub artificial_cols: Vec<usize>,
    /// Per *physical* row: its slack/surplus column, if any.
    pub slack_col: Vec<Option<usize>>,
    /// Per *physical* row: its artificial column, if any.
    pub art_col: Vec<Option<usize>>,
    /// Per *physical* row: its assembled-row index.
    pub row_of: Vec<Option<usize>>,
}

/// Complete plain-data capture of a [`SimplexState`], sufficient to rebuild
/// the solver deterministically via [`SimplexState::restore`]. All fields
/// are public and contain no solver internals (no factorization numbers),
/// so callers can serialize them with any codec that preserves `f64` bits.
#[derive(Clone, Debug, PartialEq)]
pub struct SimplexSnapshot {
    /// Solver options the state was built with.
    pub options: SimplexOptions,
    /// Objective sense.
    pub sense: Sense,
    /// Structural objective coefficients (original sense), tombstones zero.
    pub objective: Vec<f64>,
    /// All physical rows ever added, including tombstones, in order.
    pub rows: Vec<SnapshotRow>,
    /// Liveness per physical row.
    pub live: Vec<bool>,
    /// Liveness per structural column.
    pub cols_live: Vec<bool>,
    /// Physical rows of each [`RowId`] group.
    pub groups: Vec<Vec<usize>>,
    /// Declared operator per group.
    pub group_ops: Vec<ConstraintOp>,
    /// Number of groups that came from the base problem.
    pub base_groups: usize,
    /// Work counters carried across the snapshot boundary.
    pub stats: IncrementalStats,
    /// Restorable core of the live factorization, if one was alive.
    pub fact: Option<FactSnapshot>,
}

impl SimplexState {
    /// Captures the state as plain data (see [`SimplexSnapshot`]). The live
    /// factorization is reduced to its restorable core — basis and
    /// bookkeeping, not numbers — so `capture` alone does **not** define a
    /// canonical state; pair it with [`restore`](Self::restore) (or use
    /// [`snapshot`](Self::snapshot), which does both) when bit-identical
    /// recovery is required.
    pub fn capture(&self) -> SimplexSnapshot {
        let fact = self.fact.as_ref().map(|f| FactSnapshot {
            cols: f.sim.prob.ncols,
            basis: f.sim.prob.basis.clone(),
            allowed: f.sim.prob.allowed.clone(),
            artificial_cols: f.sim.prob.artificial_cols.clone(),
            slack_col: f.slack_col.clone(),
            art_col: f.art_col.clone(),
            row_of: f.row_of.clone(),
        });
        SimplexSnapshot {
            options: self.options,
            sense: self.sense,
            objective: self.objective.clone(),
            rows: self
                .rows
                .iter()
                .map(|r| SnapshotRow {
                    terms: r.terms.clone(),
                    op: r.op,
                    rhs: r.rhs,
                })
                .collect(),
            live: self.live.clone(),
            cols_live: self.cols_live.clone(),
            groups: self.groups.clone(),
            group_ops: self.group_ops.clone(),
            base_groups: self.base_groups,
            stats: self.stats,
            fact,
        }
    }

    /// Rebuilds a solver from a [`SimplexSnapshot`].
    ///
    /// The factorization core is re-adopted **warm** when the snapshot's
    /// basis passes the same acceptance rules as the in-place rebuild paths
    /// (plain slack-form rows, no live artificials);
    /// otherwise — including any basis the rules refuse — the factorization
    /// is dropped and the next [`resolve`](Self::resolve) answers with an
    /// authoritative cold solve, counted like every other cold fallback.
    /// Either way the rebuilt state is *canonical*: every
    /// restore of an equal snapshot produces bit-identical solver behaviour,
    /// because all transient numbers (LU factors, pricing weights, basic
    /// values) are re-derived from the snapshot data alone.
    ///
    /// Structurally invalid snapshots (inconsistent lengths, out-of-range
    /// indices, non-finite data) are rejected with
    /// [`LpError::CorruptSnapshot`] — restore never panics on bad input.
    pub fn restore(snapshot: &SimplexSnapshot) -> Result<Self, LpError> {
        validate_snapshot(snapshot)?;
        let mut state = SimplexState {
            options: snapshot.options,
            sense: snapshot.sense,
            objective: snapshot.objective.clone(),
            rows: snapshot
                .rows
                .iter()
                .map(|r| StoredRow {
                    terms: r.terms.clone(),
                    op: r.op,
                    rhs: r.rhs,
                })
                .collect(),
            live: snapshot.live.clone(),
            cols_live: snapshot.cols_live.clone(),
            groups: snapshot.groups.clone(),
            group_ops: snapshot.group_ops.clone(),
            base_groups: snapshot.base_groups,
            fact: None,
            stats: snapshot.stats,
        };
        if let Some(fs) = snapshot.fact.as_ref() {
            if !state.adopt_fact(fs) {
                // The snapshot's basis cannot be re-adopted: degrade to a
                // cold solve on the next resolve, exactly like any other
                // inexpressible in-place edit.
                state.fact = None;
                state.note_cold_fallback();
            }
        }
        Ok(state)
    }

    /// Captures the state **and canonicalizes it in place**: the live
    /// factorization is replaced by the restore-side rebuild of its own
    /// capture, so the surviving process continues from *exactly* the state
    /// a crash-recovered process would restore to. This is what makes
    /// snapshot-based recovery bit-identical to the uninterrupted run.
    pub fn snapshot(&mut self) -> SimplexSnapshot {
        let snapshot = self.capture();
        *self = Self::restore(&snapshot).expect("own capture is structurally valid");
        snapshot
    }

    /// Re-adopts the captured factorization core under the acceptance rules
    /// of the in-place rebuild paths. Returns `false` on refusal (caller
    /// falls back to a cold solve).
    fn adopt_fact(&mut self, fs: &FactSnapshot) -> bool {
        let n = self.objective.len();
        let live_rows: Vec<usize> = (0..self.rows.len()).filter(|&p| self.live[p]).collect();
        let m = live_rows.len();
        if fs.basis.len() != m || fs.allowed.len() != fs.cols || fs.cols < n {
            return false;
        }
        if fs.slack_col.len() != self.rows.len()
            || fs.art_col.len() != self.rows.len()
            || fs.row_of.len() != self.rows.len()
        {
            return false;
        }
        for &p in &live_rows {
            let Some(slack) = fs.slack_col[p] else {
                return false;
            };
            if slack >= fs.cols
                || fs.art_col[p].is_some()
                || slack_form_sign(&self.rows[p]).is_none()
            {
                return false;
            }
        }
        if fs.basis.iter().any(|&bc| bc >= fs.cols || !fs.allowed[bc]) {
            return false;
        }
        // Assembled-row order must be a permutation of the live rows.
        let mut pos_to_p = vec![usize::MAX; m];
        for &p in &live_rows {
            let Some(pos) = fs.row_of[p] else {
                return false;
            };
            if pos >= m || pos_to_p[pos] != usize::MAX {
                return false;
            }
            pos_to_p[pos] = p;
        }
        if fs.artificial_cols.iter().any(|&c| c >= fs.cols) {
            return false;
        }
        let (row_nz, b) = assemble_slack_rows(&self.rows, &pos_to_p, n, |p| {
            fs.slack_col[p].expect("checked above")
        });
        let mut prob = sparse::SparseProblem {
            m,
            n_struct: n,
            ncols: fs.cols,
            row_nz,
            col_nz: vec![Vec::new(); fs.cols],
            b,
            allowed: fs.allowed.clone(),
            basis: fs.basis.clone(),
            artificial_cols: fs.artificial_cols.clone(),
            slack_col: pos_to_p.iter().map(|&p| fs.slack_col[p]).collect(),
            art_col: pos_to_p.iter().map(|&p| fs.art_col[p]).collect(),
            cols_stale: false,
        };
        prob.rebuild_cols();
        // `SparseSimplex::new` is the canonical reset: fresh LU factors,
        // pricing weights, and scratch — everything transient is re-derived
        // on the next factorization.
        self.fact = Some(Fact {
            sim: SparseSimplex::new(prob),
            cost: maximization_cost(self.sense, &self.objective, fs.cols),
            slack_col: fs.slack_col.clone(),
            art_col: fs.art_col.clone(),
            row_of: fs.row_of.clone(),
            stale: true,
        });
        true
    }
}

/// Maximization-form cost vector over `cols` total columns: the structural
/// objective in the sense of the solver, zeros on every auxiliary column.
fn maximization_cost(sense: Sense, objective: &[f64], cols: usize) -> Vec<f64> {
    let sign = match sense {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    let mut cost = vec![0.0; cols];
    for (j, &c) in objective.iter().enumerate() {
        cost[j] = sign * c;
    }
    cost
}

/// Structural validation of a snapshot before any of it is indexed: every
/// check that, if skipped, could panic the restore paths on malformed input.
fn validate_snapshot(s: &SimplexSnapshot) -> Result<(), LpError> {
    let n = s.objective.len();
    let bad = || LpError::CorruptSnapshot;
    if s.cols_live.len() != n || s.live.len() != s.rows.len() {
        return Err(bad());
    }
    if s.group_ops.len() != s.groups.len() || s.base_groups > s.groups.len() {
        return Err(bad());
    }
    if s.objective.iter().any(|c| !c.is_finite()) {
        return Err(bad());
    }
    for row in &s.rows {
        if !row.rhs.is_finite() {
            return Err(bad());
        }
        for &(v, c) in &row.terms {
            if v.index() >= n || !c.is_finite() {
                return Err(bad());
            }
        }
    }
    let mut seen = vec![false; s.rows.len()];
    for group in &s.groups {
        if group.is_empty() {
            return Err(bad());
        }
        for &p in group {
            if p >= s.rows.len() || seen[p] {
                return Err(bad());
            }
            seen[p] = true;
        }
    }
    if !seen.iter().all(|&v| v) {
        return Err(bad());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    fn base_problem() -> (LpProblem, VarId, VarId) {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), z = 36.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 5.0);
        lp.add_le(&[(x, 1.0)], 4.0);
        lp.add_le(&[(y, 2.0)], 12.0);
        lp.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        (lp, x, y)
    }

    #[test]
    fn first_solve_matches_the_cold_solver() {
        let (lp, _, _) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        let warm = state.solve().unwrap();
        let cold = lp.solve().unwrap();
        assert_close(warm.objective, cold.objective);
        assert_eq!(state.stats().cold_solves, 1);
    }

    #[test]
    fn appended_cut_is_reoptimized_dually() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 6.0)
            .unwrap();
        let warm = state.resolve().unwrap();
        let cold = state.to_problem().solve().unwrap();
        assert_close(warm.objective, cold.objective);
        assert!(state.stats().dual_pivots > 0, "dual simplex never ran");
        assert_eq!(state.stats().cold_solves, 1, "append fell back to cold");
    }

    #[test]
    fn ge_and_eq_appends_agree_with_cold() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        state
            .add_row(&[(x, 1.0), (y, -1.0)], ConstraintOp::Ge, 0.0)
            .unwrap();
        let warm = state.resolve().unwrap();
        assert_close(
            warm.objective,
            state.to_problem().solve().unwrap().objective,
        );
        state.add_row(&[(x, 1.0)], ConstraintOp::Eq, 1.0).unwrap();
        let warm = state.resolve().unwrap();
        assert_close(
            warm.objective,
            state.to_problem().solve().unwrap().objective,
        );
    }

    #[test]
    fn deleting_a_nonbinding_row_is_free() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        // x + y ≤ 100 is slack at (2, 6): deletion must not refactorize.
        let id = state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 100.0)
            .unwrap();
        state.resolve().unwrap();
        let pivots_before = state.stats().total_pivots;
        state.delete_rows(&[id]).unwrap();
        let sol = state.resolve().unwrap();
        assert_close(sol.objective, 36.0);
        assert_eq!(state.stats().refactorizations, 0);
        assert_eq!(state.stats().total_pivots, pivots_before);
    }

    #[test]
    fn deleting_a_binding_row_refactorizes_and_recovers() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let id = state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0)
            .unwrap();
        let constrained = state.resolve().unwrap();
        assert!(constrained.objective < 36.0 - 1e-7);
        state.delete_rows(&[id]).unwrap();
        let relaxed = state.resolve().unwrap();
        assert_close(relaxed.objective, 36.0);
        assert_eq!(state.stats().refactorizations, 1);
    }

    #[test]
    fn infeasible_append_is_detected() {
        let (lp, x, _) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        state.add_row(&[(x, 1.0)], ConstraintOp::Le, -1.0).unwrap();
        assert_eq!(state.resolve().unwrap_err(), LpError::Infeasible);
        // The state recovers by cold-solving once the offender is gone…
        // (the factorization was discarded, so this exercises the rebuild).
        assert_eq!(state.resolve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn double_delete_is_idempotent() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let id = state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 50.0)
            .unwrap();
        state.resolve().unwrap();
        let deleted_before = state.stats().rows_deleted;
        state.delete_rows(&[id]).unwrap();
        state.delete_rows(&[id]).unwrap();
        assert_eq!(state.stats().rows_deleted, deleted_before + 1);
        assert_close(state.resolve().unwrap().objective, 36.0);
    }

    #[test]
    fn rows_added_before_first_solve_are_folded_into_the_cold_factorization() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        let id = state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 6.0)
            .unwrap();
        let sol = state.solve().unwrap();
        assert_close(sol.objective, state.to_problem().solve().unwrap().objective);
        // …and can still be deleted incrementally afterwards (they are ≤
        // rows, so the cold assembly gave them a slack column).
        state.delete_rows(&[id]).unwrap();
        assert_close(state.resolve().unwrap().objective, 36.0);
    }

    #[test]
    fn unknown_variable_and_nonfinite_rows_are_rejected() {
        let (lp, x, _) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        assert_eq!(
            state
                .add_row(&[(VarId(9), 1.0)], ConstraintOp::Le, 1.0)
                .unwrap_err(),
            LpError::UnknownVariable(VarId(9))
        );
        assert_eq!(
            state
                .add_row(&[(x, f64::NAN)], ConstraintOp::Le, 1.0)
                .unwrap_err(),
            LpError::NotFinite
        );
    }

    #[test]
    fn delete_with_an_unknown_id_is_rejected_and_leaves_the_state_untouched() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let id = state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0)
            .unwrap();
        let constrained = state.resolve().unwrap();
        // The batch mixes a valid (binding!) row with a bogus handle: the
        // whole call must fail without deleting anything, or the live basis
        // would disagree with the stored rows.
        let err = state.delete_rows(&[id, RowId(9_999)]).unwrap_err();
        assert_eq!(err, LpError::UnknownRow(9_999));
        assert_eq!(state.num_rows(), 4, "a row was deleted despite the error");
        let sol = state.resolve().unwrap();
        assert_close(sol.objective, constrained.objective);
        assert_close(sol.objective, state.to_problem().solve().unwrap().objective);
    }

    #[test]
    fn updating_a_binding_base_row_tracks_the_cold_solver() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        // Tighten the binding row 3x + 2y ≤ 18 to 3x + 2y ≤ 12 in place.
        let rows = state.base_rows();
        state
            .update_coeffs(&[RowUpdate::new(rows[2], vec![(x, 3.0), (y, 2.0)], 12.0)])
            .unwrap();
        let warm = state.resolve().unwrap();
        let cold = state.to_problem().solve().unwrap();
        assert_close(warm.objective, cold.objective);
        // …and relax it again: back to the original optimum, still warm.
        state
            .update_coeffs(&[RowUpdate::new(rows[2], vec![(x, 3.0), (y, 2.0)], 18.0)])
            .unwrap();
        assert_close(state.resolve().unwrap().objective, 36.0);
        assert!(state.stats().rows_updated >= 2);
    }

    #[test]
    fn coefficient_scaling_of_every_row_matches_cold() {
        // The drift shape: every base row's coefficients are rescaled (like
        // link costs drifting), warm must equal cold at each step.
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let rows = state.base_rows();
        for scale in [1.3, 0.7, 2.4, 0.45] {
            let updates = vec![
                RowUpdate::new(rows[0], vec![(x, scale)], 4.0),
                RowUpdate::new(rows[1], vec![(y, 2.0 * scale)], 12.0),
                RowUpdate::new(rows[2], vec![(x, 3.0 * scale), (y, 2.0 * scale)], 18.0),
            ];
            state.update_coeffs(&updates).unwrap();
            let warm = state.resolve().unwrap();
            let cold = state.to_problem().solve().unwrap();
            assert_close(warm.objective, cold.objective);
        }
    }

    #[test]
    fn updating_an_appended_ge_row_keeps_its_normalization() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let id = state
            .add_row(&[(x, 1.0), (y, -1.0)], ConstraintOp::Ge, 0.0)
            .unwrap();
        state.resolve().unwrap();
        // Flip the row's sense of direction: y − x ≥ 0 instead.
        state
            .update_coeffs(&[RowUpdate::new(id, vec![(x, -1.0), (y, 1.0)], 0.0)])
            .unwrap();
        let warm = state.resolve().unwrap();
        let cold = state.to_problem().solve().unwrap();
        assert_close(warm.objective, cold.objective);
        // The stored problem must contain the row as a `≥` constraint.
        let problem = state.to_problem();
        assert_eq!(problem.num_constraints(), 4);
    }

    #[test]
    fn updating_an_appended_eq_pair_updates_both_rows() {
        let (lp, x, _) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let id = state.add_row(&[(x, 1.0)], ConstraintOp::Eq, 1.0).unwrap();
        let pinned = state.resolve().unwrap();
        assert_close(pinned.value(x), 1.0);
        state
            .update_coeffs(&[RowUpdate::new(id, vec![(x, 1.0)], 3.0)])
            .unwrap();
        let warm = state.resolve().unwrap();
        assert_close(warm.value(x), 3.0);
        assert_close(
            warm.objective,
            state.to_problem().solve().unwrap().objective,
        );
    }

    #[test]
    fn updates_preserve_flipped_base_ge_rows() {
        // A base `x − y ≥ 0` row is stored verbatim but *assembled*
        // sign-flipped into `y − x ≤ 0` (the artificial-free rewrite). The
        // in-basis rebuild must reproduce that orientation, or an update of
        // an unrelated row silently turns the constraint around:
        // max x + y s.t. x ≤ 4, y ≤ 3, x − y ≥ 0 has optimum 7 at (4, 3);
        // with the row flipped to x ≤ y the warm optimum would differ from
        // cold while both report Optimal.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_le(&[(x, 1.0)], 4.0);
        lp.add_le(&[(y, 1.0)], 3.0);
        lp.add_ge(&[(x, 1.0), (y, -1.0)], 0.0);
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let rows = state.base_rows();
        for rhs in [5.0, 2.0, 6.0] {
            state
                .update_coeffs(&[RowUpdate::new(rows[0], vec![(x, 1.0)], rhs)])
                .unwrap();
            let warm = state.resolve().unwrap();
            let cold = state.to_problem().solve().unwrap();
            assert_close(warm.objective, cold.objective);
        }
        // Updating the `≥ 0` row itself (staying in flipped-slack form)
        // must track cold too.
        state
            .update_coeffs(&[RowUpdate::new(rows[2], vec![(x, 1.0), (y, -2.0)], 0.0)])
            .unwrap();
        let warm = state.resolve().unwrap();
        let cold = state.to_problem().solve().unwrap();
        assert_close(warm.objective, cold.objective);
        // Updating it to a positive rhs changes its assembled shape
        // (artificial form): the rebuild must refuse and go cold, still
        // agreeing with the reference.
        state
            .update_coeffs(&[RowUpdate::new(rows[2], vec![(x, 1.0), (y, -1.0)], 1.0)])
            .unwrap();
        let warm = state.resolve().unwrap();
        let cold = state.to_problem().solve().unwrap();
        assert_close(warm.objective, cold.objective);
    }

    #[test]
    fn update_with_bad_handles_is_atomic() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let rows = state.base_rows();
        let before = state.resolve().unwrap().objective;
        // Unknown handle: the whole batch must fail without touching row 0.
        let err = state
            .update_coeffs(&[
                RowUpdate::new(rows[0], vec![(x, 9.0)], 1.0),
                RowUpdate::new(RowId(999), vec![(y, 1.0)], 1.0),
            ])
            .unwrap_err();
        assert_eq!(err, LpError::UnknownRow(999));
        // A deleted row is as unknown as a never-issued one.
        let appended = state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 100.0)
            .unwrap();
        state.resolve().unwrap();
        state.delete_rows(&[appended]).unwrap();
        let err = state
            .update_coeffs(&[RowUpdate::new(appended, vec![(x, 1.0)], 5.0)])
            .unwrap_err();
        assert_eq!(err, LpError::UnknownRow(appended.0));
        // Non-finite data is rejected before anything is written.
        let err = state
            .update_coeffs(&[RowUpdate::new(rows[0], vec![(x, f64::NAN)], 1.0)])
            .unwrap_err();
        assert_eq!(err, LpError::NotFinite);
        assert_close(state.resolve().unwrap().objective, before);
        assert_eq!(state.stats().rows_updated, 0);
    }

    #[test]
    fn update_that_makes_the_lp_infeasible_is_detected_warm_and_cold() {
        let (lp, x, _) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let id = state.add_row(&[(x, 1.0)], ConstraintOp::Le, 10.0).unwrap();
        state.resolve().unwrap();
        state
            .update_coeffs(&[RowUpdate::new(id, vec![(x, 1.0)], -2.0)])
            .unwrap();
        assert_eq!(state.resolve().unwrap_err(), LpError::Infeasible);
        assert_eq!(state.to_problem().solve().unwrap_err(), LpError::Infeasible);
        // Recover by updating the row back to a satisfiable form.
        state
            .update_coeffs(&[RowUpdate::new(id, vec![(x, 1.0)], 10.0)])
            .unwrap();
        assert_close(state.resolve().unwrap().objective, 36.0);
    }

    #[test]
    fn updates_compose_with_appends_and_deletions() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let cut = state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 6.0)
            .unwrap();
        state.resolve().unwrap();
        // Drift the base rows, keep the cut, then relax the cut via update.
        let rows = state.base_rows();
        state
            .update_coeffs(&[RowUpdate::new(rows[2], vec![(x, 2.0), (y, 2.0)], 18.0)])
            .unwrap();
        let warm = state.resolve().unwrap();
        assert_close(
            warm.objective,
            state.to_problem().solve().unwrap().objective,
        );
        state
            .update_coeffs(&[RowUpdate::new(cut, vec![(x, 1.0), (y, 1.0)], 50.0)])
            .unwrap();
        let warm = state.resolve().unwrap();
        assert_close(
            warm.objective,
            state.to_problem().solve().unwrap().objective,
        );
        state.delete_rows(&[cut]).unwrap();
        let warm = state.resolve().unwrap();
        assert_close(
            warm.objective,
            state.to_problem().solve().unwrap().objective,
        );
    }

    #[test]
    fn appended_column_is_priced_in_warm() {
        let (lp, _, _) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let rows = state.base_rows();
        // A profitable new activity consuming the binding row's capacity.
        let cols = state
            .add_cols(&[NewCol::new(4.0, vec![(rows[2], 2.0)])])
            .unwrap();
        assert_eq!(cols.len(), 1);
        let warm = state.resolve().unwrap();
        let cold = state.to_problem().solve().unwrap();
        assert_close(warm.objective, cold.objective);
        assert_eq!(state.stats().cold_solves, 1, "column append went cold");
        // The new variable is addressable in later rows.
        state
            .add_row(&[(cols[0].var(), 1.0)], ConstraintOp::Le, 1.0)
            .unwrap();
        let warm = state.resolve().unwrap();
        assert_close(
            warm.objective,
            state.to_problem().solve().unwrap().objective,
        );
    }

    #[test]
    fn unprofitable_appended_column_costs_nothing() {
        let (lp, _, _) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let rows = state.base_rows();
        let pivots_before = state.stats().total_pivots;
        state
            .add_cols(&[NewCol::new(-1.0, vec![(rows[0], 1.0)])])
            .unwrap();
        let warm = state.resolve().unwrap();
        assert_close(warm.objective, 36.0);
        assert_eq!(state.stats().total_pivots, pivots_before);
        assert_eq!(state.stats().cold_solves, 1);
    }

    #[test]
    fn deleting_a_nonbasic_column_is_free_and_a_basic_one_is_driven_out() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 5.0);
        let z = lp.add_var("z", 0.1); // never worth using: nonbasic at opt
        lp.add_le(&[(x, 1.0)], 4.0);
        lp.add_le(&[(y, 2.0)], 12.0);
        lp.add_le(&[(x, 3.0), (y, 2.0), (z, 5.0)], 18.0);
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        // z is nonbasic: deletion must not refactorize or pivot.
        let pivots_before = state.stats().total_pivots;
        state.delete_cols(&[ColId(z.index())]).unwrap();
        let warm = state.resolve().unwrap();
        assert_close(warm.objective, 36.0);
        assert_eq!(state.stats().total_pivots, pivots_before);
        assert_eq!(state.stats().refactorizations, 0);
        // x is basic at (2, 6): deletion drives it out and repairs.
        state.delete_cols(&[ColId(x.index())]).unwrap();
        let warm = state.resolve().unwrap();
        let cold = state.to_problem().solve().unwrap();
        assert_close(warm.objective, cold.objective);
        assert_close(warm.objective, 30.0); // max 5y, 2y ≤ 12
        assert_close(warm.value(x), 0.0);
        assert_eq!(state.stats().cols_deleted, 2);
    }

    #[test]
    fn column_edits_keep_varid_indexing_stable() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let rows = state.base_rows();
        let added = state
            .add_cols(&[NewCol::new(1.0, vec![(rows[0], 1.0)])])
            .unwrap();
        state.delete_cols(&[ColId(x.index())]).unwrap();
        // The tombstone keeps y and the appended column at their indices.
        assert_eq!(added[0].var(), VarId(2));
        let warm = state.resolve().unwrap();
        let cold = state.to_problem().solve().unwrap();
        assert_close(warm.objective, cold.objective);
        assert_close(warm.value(y), cold.value(y));
        assert_close(warm.value(added[0].var()), cold.value(added[0].var()));
        // Referencing the deleted variable in new data is rejected.
        assert_eq!(
            state
                .add_row(&[(x, 1.0)], ConstraintOp::Le, 1.0)
                .unwrap_err(),
            LpError::UnknownVariable(x)
        );
    }

    #[test]
    fn unknown_column_deletes_are_atomic() {
        let (lp, x, _) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let before = state.resolve().unwrap().objective;
        // Never-issued handle.
        let err = state
            .delete_cols(&[ColId(x.index()), ColId(999)])
            .unwrap_err();
        assert_eq!(err, LpError::UnknownCol(999));
        // A repeated handle within one batch is as bad.
        let err = state
            .delete_cols(&[ColId(x.index()), ColId(x.index())])
            .unwrap_err();
        assert_eq!(err, LpError::UnknownCol(x.index()));
        assert_eq!(state.stats().cols_deleted, 0);
        assert_close(state.resolve().unwrap().objective, before);
        // An already-deleted handle is as unknown as a foreign one.
        state.delete_cols(&[ColId(x.index())]).unwrap();
        let err = state.delete_cols(&[ColId(x.index())]).unwrap_err();
        assert_eq!(err, LpError::UnknownCol(x.index()));
    }

    #[test]
    fn add_cols_validates_handles_and_data_atomically() {
        let (lp, _, _) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let rows = state.base_rows();
        let err = state
            .add_cols(&[NewCol::new(1.0, vec![(RowId(77), 1.0)])])
            .unwrap_err();
        assert_eq!(err, LpError::UnknownRow(77));
        let err = state
            .add_cols(&[NewCol::new(f64::NAN, vec![])])
            .unwrap_err();
        assert_eq!(err, LpError::NotFinite);
        let err = state
            .add_cols(&[NewCol::new(1.0, vec![(rows[0], f64::INFINITY)])])
            .unwrap_err();
        assert_eq!(err, LpError::NotFinite);
        assert_eq!(state.stats().cols_added, 0);
        assert_eq!(state.num_vars(), 2);
        assert_close(state.resolve().unwrap().objective, 36.0);
    }

    #[test]
    fn columns_into_appended_ge_and_eq_rows_keep_their_normalization() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let ge = state
            .add_row(&[(x, 1.0), (y, -1.0)], ConstraintOp::Ge, -10.0)
            .unwrap();
        let eq = state.add_row(&[(x, 1.0)], ConstraintOp::Eq, 2.0).unwrap();
        state.resolve().unwrap();
        // A column with coefficients in the `≥` row and the `=` pair:
        // the stored (negated) physical rows must see mirrored signs.
        state
            .add_cols(&[NewCol::new(2.0, vec![(ge, 1.0), (eq, 1.0)])])
            .unwrap();
        let warm = state.resolve().unwrap();
        let cold = state.to_problem().solve().unwrap();
        assert_close(warm.objective, cold.objective);
    }

    #[test]
    fn column_and_row_edits_compose() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        let rows = state.base_rows();
        let cols = state
            .add_cols(&[
                NewCol::new(4.0, vec![(rows[2], 2.0)]),
                NewCol::new(1.0, vec![(rows[0], 1.0), (rows[1], 1.0)]),
            ])
            .unwrap();
        assert_close(
            state.resolve().unwrap().objective,
            state.to_problem().solve().unwrap().objective,
        );
        let cut = state
            .add_row(&[(x, 1.0), (cols[0].var(), 1.0)], ConstraintOp::Le, 3.0)
            .unwrap();
        assert_close(
            state.resolve().unwrap().objective,
            state.to_problem().solve().unwrap().objective,
        );
        state
            .update_coeffs(&[RowUpdate::new(
                cut,
                vec![(y, 1.0), (cols[1].var(), 2.0)],
                4.0,
            )])
            .unwrap();
        assert_close(
            state.resolve().unwrap().objective,
            state.to_problem().solve().unwrap().objective,
        );
        state.delete_cols(&[cols[0]]).unwrap();
        assert_close(
            state.resolve().unwrap().objective,
            state.to_problem().solve().unwrap().objective,
        );
        state.delete_rows(&[cut]).unwrap();
        assert_close(
            state.resolve().unwrap().objective,
            state.to_problem().solve().unwrap().objective,
        );
    }

    #[test]
    fn degenerate_zero_rhs_ge_appends_terminate() {
        // The PR 1 stall class: `Σ ±x ≥ 0` rows are fully degenerate. A
        // chain of them must terminate and agree with the cold solver.
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..4).map(|i| lp.add_var(format!("x{i}"), 1.0)).collect();
        for &v in &vars {
            lp.add_le(&[(v, 1.0)], 3.0);
        }
        let mut state = SimplexState::new(&lp, SimplexOptions::default()).unwrap();
        state.solve().unwrap();
        for i in 0..vars.len() {
            let j = (i + 1) % vars.len();
            state
                .add_row(&[(vars[i], 1.0), (vars[j], -1.0)], ConstraintOp::Ge, 0.0)
                .unwrap();
            let warm = state.resolve().unwrap();
            let cold = state.to_problem().solve().unwrap();
            assert_close(warm.objective, cold.objective);
        }
    }
}
