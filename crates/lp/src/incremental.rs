//! Incremental LP solving: a persistent sparse simplex basis re-optimized
//! by the **dual simplex** method as rows and columns are appended,
//! deleted, and edited.
//!
//! The cut-generation master LP of the broadcast-throughput bound is the
//! textbook use case: every master round *appends* a handful of violated cut
//! rows to a previously optimal LP (and occasionally *deletes* stale ones).
//! Re-solving from scratch discards the basis, rebuilds phase 1 and walks the
//! whole phase-2 path again; warm-starting reuses all of it.
//!
//! The warm state is the stored rows plus a **basis layout**
//! ([`FactSnapshot`]): the basis in its stored order, which columns may
//! enter, and each row's slack and artificial column. Every row is stored
//! once, as it was declared, and [`RowId`]`(i)` is row `i`; a live row's
//! assembled position is its rank among the live rows, so the layout does
//! not store it. An edit changes only the rows and the layout. Every
//! factorization starts from a problem assembled from the stored rows
//! under the layout by the one assembly that also starts every cold solve
//! (the private `sparse::assemble`), which is the only code that orients a
//! row; an assembly is reused only while no edit has come after it. So
//! the solver's problem is always a function of the stored rows and the
//! layout, and a capture is a clone of both. The edits:
//!
//! * **Append** — a new row gets the next assembled position and one
//!   fresh basic column, as a cold layout would give it. For a `≤` or `≥`
//!   row that column is its slack (the assembly writes a `≥` row negated,
//!   so the slack enters with `+1`); an `=` row has no slack and gets an
//!   artificial, which may not enter the basis again once it leaves. The
//!   old columns stay basic, the reduced costs of all old columns are
//!   untouched and the new column prices out at zero — the basis stays
//!   *dual feasible*, only the new row's basic value may be negative. The
//!   dual simplex then restores primal feasibility in a few pivots instead
//!   of a full re-solve. A re-solve that ends with an `=` row's artificial
//!   basic above zero solved a relaxed problem and goes cold.
//! * **Delete** — a row whose slack is *basic* owns a unit slack column, so
//!   dropping the row together with that column removes the constraint
//!   exactly, leaves every other basic value untouched, and preserves both
//!   primal and dual feasibility (the deleted row was non-binding, so its
//!   multiplier was zero). Deleting a *binding* row would genuinely change
//!   the basis; that case falls back to a cold solve and is counted in
//!   [`IncrementalStats::refactorizations`]. A deleted row keeps its id
//!   but not its terms.
//! * **Update** — [`SimplexState::update_coeffs`] edits the coefficients
//!   and right-hand sides of *existing* rows, the substrate for chained LP
//!   instances whose data drifts (dynamic platforms: link costs change,
//!   the constraint structure does not). The **current basis** is
//!   refactorized under the new coefficients, then repaired: a
//!   still-dual-feasible basis goes through the dual simplex as after an
//!   append; a basis that lost dual feasibility but kept primal
//!   feasibility goes straight to the primal pass; a basis that lost both
//!   runs a zero-objective dual phase (any basis is dual feasible for a
//!   zero objective) to restore primal feasibility first. A basis gone
//!   singular or a stalled repair falls back to a cold solve, so an update
//!   can never change *what* is computed, only how many pivots it takes.
//!
//! The state is created from an [`LpProblem`] snapshot (the immutable
//! "skeleton": variables, objective, base rows); rows appended through
//! [`SimplexState::add_row`] can later be deleted incrementally, and both
//! base and appended rows can be edited through
//! [`SimplexState::update_coeffs`] (base-row handles come from
//! [`SimplexState::base_rows`]).

use crate::model::{Constraint, ConstraintOp, LpError, LpProblem, LpSolution, Sense, VarId};
use crate::simplex::{self, SimplexOptions, SolveStatus, COST_TOLERANCE, FEASIBILITY_TOLERANCE};
use crate::sparse::{self, Aux, SparseSimplex};

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
    /// Cold fallbacks: warm states dropped because an edit or a warm pass
    /// could not keep the basis (a binding row deleted, a basis gone
    /// singular, a basic column with no pivot to drive it out, an unclean
    /// warm pass), so the next solve was cold. Each is also counted under
    /// its `lp.cold_refactor_fallback.*` reason.
    pub refactorizations: usize,
    /// Total simplex pivots, all phases and both pricing directions.
    pub total_pivots: usize,
    /// Pivots performed by the dual simplex (subset of `total_pivots`).
    pub dual_pivots: usize,
    /// Rows appended after construction (an `=` row counts once).
    pub rows_added: usize,
    /// Rows deleted.
    pub rows_deleted: usize,
    /// Rows whose coefficients were edited in place.
    pub rows_updated: usize,
    /// Structural columns appended after construction.
    pub cols_added: usize,
    /// Structural columns deleted (tombstoned).
    pub cols_deleted: usize,
}

/// One coefficient edit of an existing row, consumed in batches by
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

/// The warm state beside the stored rows: the basis layout, which every
/// edit updates, and the problem last assembled from the rows under it,
/// which only solves and factorizations use and which the next edit drops.
struct Fact {
    layout: FactSnapshot,
    assembly: Option<Assembly>,
}

/// One assembly of the stored rows under a layout, with the
/// maximization-form cost of its columns.
struct Assembly {
    sim: SparseSimplex,
    cost: Vec<f64>,
}

/// A linear program whose optimal basis persists across row additions and
/// deletions, re-optimized by warm-started dual simplex.
///
/// ```
/// use bcast_lp::{ConstraintOp, LpProblem, Sense, SimplexState};
///
/// // max x + y  s.t.  x ≤ 3, y ≤ 2
/// let mut lp = LpProblem::new(Sense::Maximize);
/// let x = lp.add_var("x", 1.0);
/// let y = lp.add_var("y", 1.0);
/// lp.add_le(&[(x, 1.0)], 3.0);
/// lp.add_le(&[(y, 1.0)], 2.0);
///
/// let mut state = SimplexState::new(&lp).unwrap();
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
    sense: Sense,
    /// Structural objective coefficients (original sense).
    objective: Vec<f64>,
    /// Every row ever added, by [`RowId`], as it was declared; `None` once
    /// deleted.
    rows: Vec<Option<Constraint>>,
    /// Liveness per structural column, by [`ColId`] order of creation.
    /// Deleted columns stay in `objective` as zero-cost tombstones so every
    /// [`VarId`] keeps its index across any sequence of column edits.
    cols_live: Vec<bool>,
    /// Number of rows that came from the base [`LpProblem`].
    base_rows: usize,
    fact: Option<Fact>,
    stats: IncrementalStats,
}

impl SimplexState {
    /// Snapshots `problem` (variables, objective, constraints) as the base
    /// of an incremental solver. Nothing is solved yet; the first call to
    /// [`solve`](Self::solve) / [`resolve`](Self::resolve) factorizes cold.
    /// Every solve runs at [`SimplexOptions::default`]; only the one-shot
    /// [`solve`](crate::solve) takes other options.
    pub fn new(problem: &LpProblem) -> Result<Self, LpError> {
        problem.validate()?;
        Ok(SimplexState {
            sense: problem.sense(),
            objective: problem.objective().to_vec(),
            rows: problem.constraints().iter().cloned().map(Some).collect(),
            cols_live: vec![true; problem.objective().len()],
            base_rows: problem.constraints().len(),
            fact: None,
            stats: IncrementalStats::default(),
        })
    }

    /// Handles of the base problem's constraints, in declaration order —
    /// the addressing scheme for [`update_coeffs`](Self::update_coeffs) on
    /// rows that were part of the construction snapshot.
    pub fn base_rows(&self) -> Vec<RowId> {
        (0..self.base_rows).map(RowId).collect()
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

    /// Number of live rows (an `=` row counts once).
    pub fn num_rows(&self) -> usize {
        self.rows.iter().flatten().count()
    }

    /// True when `id` names a row that exists and was not deleted.
    fn is_live(&self, RowId(id): RowId) -> bool {
        matches!(self.rows.get(id), Some(Some(_)))
    }

    /// The accumulated work counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Bookkeeping of every path that discards the warm state: the next
    /// solve is forced through the cold refactorization fallback, which
    /// the `lp.cold_refactor_fallback` counter makes visible in
    /// `solver_report` digests (recovery-forced cold solves included).
    /// `reason` is the `lp.cold_refactor_fallback.*` counter of the path.
    fn note_cold_fallback(&mut self, reason: &'static str) {
        self.stats.refactorizations += 1;
        bcast_obs::counter_add(bcast_obs::names::LP_COLD_REFACTOR_FALLBACK, 1);
        bcast_obs::counter_add(reason, 1);
    }

    /// Appends one constraint, stored as declared, and returns its handle.
    /// The solver is not re-optimized until the next
    /// [`resolve`](Self::resolve).
    ///
    /// On a warm state the row gets one fresh basic column: a `≤` or `≥`
    /// row its slack, so no phase 1 is needed; an `=` row an artificial
    /// that may not re-enter the basis once it leaves. A re-solve that
    /// ends with that artificial basic above zero goes cold.
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
    /// returns one handle per constraint. On a warm state the whole batch is
    /// absorbed by one assembly and refactorization at the next re-solve.
    pub fn add_rows(&mut self, rows: &[Constraint]) -> Result<Vec<RowId>, LpError> {
        for con in rows {
            self.validate_terms(&con.terms, con.rhs)?;
        }
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let first = self.rows.len();
        self.rows.extend(rows.iter().cloned().map(Some));
        self.stats.rows_added += rows.len();
        if let Some(fact) = self.fact.as_mut() {
            // Each row gets the next assembled position and a fresh basic
            // column; the basis (old columns + new ones) carries over
            // verbatim, so dual feasibility is preserved.
            let layout = fact.edit();
            for con in rows {
                let col = layout.cols;
                let eq = con.op == ConstraintOp::Eq;
                layout.slack_col.push((!eq).then_some(col));
                layout.art_col.push(eq.then_some(col));
                layout.basis.push(col);
                layout.allowed.push(!eq);
                layout.cols += 1;
            }
        }
        Ok((first..self.rows.len()).map(RowId).collect())
    }

    /// Deletes the given rows; a deleted row keeps its id but not its
    /// terms. Non-binding rows (slack basic) leave the layout with their
    /// slack, preserving the optimal basis; a binding row, an `=` row (no
    /// slack to carry the deletion) or a row pinned by a basic artificial
    /// forces a cold solve on the next re-solve. Ids of rows already
    /// deleted are ignored.
    ///
    /// A handle this state never issued is rejected up front
    /// ([`LpError::UnknownRow`]) with the state untouched, so a failed call
    /// can never leave the layout disagreeing with the stored rows.
    pub fn delete_rows(&mut self, ids: &[RowId]) -> Result<(), LpError> {
        if let Some(&RowId(bad)) = ids.iter().find(|&&RowId(id)| id >= self.rows.len()) {
            return Err(LpError::UnknownRow(bad));
        }
        let mut needs_refactor = false;
        for &RowId(id) in ids {
            if self.rows[id].take().is_none() {
                continue;
            }
            self.stats.rows_deleted += 1;
            if let Some(fact) = self.fact.as_mut() {
                needs_refactor |= !fact.edit().remove_row(id);
            }
        }
        if needs_refactor {
            self.fact = None;
            self.note_cold_fallback(bcast_obs::names::LP_FALLBACK_BINDING_ROW_DELETE);
        }
        Ok(())
    }

    /// Edits the coefficients and right-hand sides of existing rows — the
    /// cross-instance warm start for chained LPs whose data drifts while
    /// their structure stays fixed (the dynamic-platform master LP re-solved
    /// after every link-cost drift step is the intended customer). Each
    /// update replaces the row's whole left-hand side and right-hand side;
    /// the operator it was declared with is kept.
    ///
    /// The batch is **atomic**: every update is validated up front, and a
    /// handle this state never issued — or one whose row was deleted — is
    /// rejected with [`LpError::UnknownRow`] before anything is touched, so
    /// a failed call can never leave the layout disagreeing with the
    /// stored rows.
    ///
    /// On a warm state the **current basis** is refactorized under the new
    /// coefficients (which puts its stored order in the factorization's
    /// pivot order), and the next [`resolve`](Self::resolve) repairs it
    /// (dual pass, primal pass, or a zero-objective dual phase when both
    /// feasibilities were lost). A basis gone singular under the new
    /// coefficients falls back to a cold solve — exactly like a
    /// binding-row deletion, and counted the same way — so updating
    /// coefficients can never change the returned verdict, only the pivot
    /// count.
    pub fn update_coeffs(&mut self, updates: &[RowUpdate]) -> Result<(), LpError> {
        for update in updates {
            if !self.is_live(update.row) {
                return Err(LpError::UnknownRow(update.row.0));
            }
            self.validate_terms(&update.terms, update.rhs)?;
        }
        if updates.is_empty() {
            return Ok(());
        }
        for update in updates {
            let row = self.rows[update.row.0].as_mut().expect("validated above");
            row.terms.clone_from(&update.terms);
            row.rhs = update.rhs;
        }
        self.stats.rows_updated += updates.len();
        if let Some(fact) = self.fact.as_mut() {
            fact.edit();
            if !fact.on_assembly(
                &self.rows,
                self.sense,
                &self.objective,
                SparseSimplex::factorize,
            ) {
                self.fact = None;
                self.note_cold_fallback(bcast_obs::names::LP_FALLBACK_REFUSED_UPDATE);
            }
        }
        Ok(())
    }

    /// Appends structural columns (new variables) and returns one handle per
    /// column. The new variables enter **nonbasic at value zero**: every
    /// existing basic value is unchanged, so a primal-feasible basis stays
    /// primal feasible and the next [`resolve`](Self::resolve) merely prices
    /// the new columns in (normally a short primal pass from the old
    /// vertex). The new columns take the structural ids after the old ones,
    /// so every slack and artificial of the layout moves up by the growth.
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
            for &(row, c) in &col.terms {
                if !self.is_live(row) {
                    return Err(LpError::UnknownRow(row.0));
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
                let row = self.rows[id].as_mut().expect("validated above");
                row.terms.push((var, c));
            }
        }
        self.stats.cols_added += cols.len();
        if let Some(fact) = self.fact.as_mut() {
            fact.edit()
                .grow(self.objective.len() - cols.len(), cols.len());
        }
        Ok(ids)
    }

    /// Deletes the given columns, tombstoning their [`VarId`]s (indices are
    /// never reused, so handles issued earlier keep their meaning). A column
    /// that is **nonbasic** in the warm basis sits at value zero, so barring
    /// it is exact and free; a **basic** column is driven out by one forced
    /// pivot, on the problem as it stands before the batch strips any term,
    /// and the next [`resolve`](Self::resolve) repairs whatever feasibility
    /// that pivot cost — the same bounded dual/primal repair as after a
    /// coefficient update, with the cold solve as the authoritative
    /// fallback, so deleting columns can never change the verdict, only the
    /// pivot count.
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
        let mut pivots = 0usize;
        let mut ok = true;
        if let Some(fact) = self.fact.as_mut() {
            for &ColId(id) in ids {
                if fact.layout.basis.contains(&id) {
                    let drive_out = |sim: &mut SparseSimplex| sim.drive_out(id);
                    if !fact.on_assembly(&self.rows, self.sense, &self.objective, drive_out) {
                        ok = false;
                        break;
                    }
                    pivots += 1;
                }
                fact.edit().allowed[id] = false;
            }
        }
        for &ColId(id) in ids {
            self.cols_live[id] = false;
            self.objective[id] = 0.0;
            for row in self.rows.iter_mut().flatten() {
                row.terms.retain(|&(v, _)| v.index() != id);
            }
        }
        self.stats.cols_deleted += ids.len();
        self.stats.total_pivots += pivots;
        bcast_obs::counter_add(bcast_obs::names::LP_PIVOTS, pivots as u64);
        if !ok {
            self.fact = None;
            self.note_cold_fallback(bcast_obs::names::LP_FALLBACK_REFUSED_COLUMN_DELETE);
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
        let live_cols = self.cols_live.iter().filter(|&&live| live).count();
        let (rows, cols) = (self.num_rows(), live_cols);
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
        let Some(fact) = self.fact.as_mut() else {
            return self.cold_solve();
        };
        let (clean, pivots, dual_pivots) = fact.reoptimize(&self.rows, self.sense, &self.objective);
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
            self.note_cold_fallback(bcast_obs::names::LP_FALLBACK_UNCLEAN_WARM_PASS);
            let mut solution = self.cold_solve()?;
            solution.iterations += pivots;
            return Ok(solution);
        }
        self.stats.total_pivots += pivots;
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
        for row in self.rows.iter().flatten() {
            lp.add_constraint(&row.terms, row.op, row.rhs);
        }
        lp
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

    /// Cold path: lay out every live row as a fresh cold solve does, run
    /// the ordinary two-phase solve on its assembly, then keep the basis it
    /// ends on as the warm state. The cold layout's artificial columns go
    /// to this solve's phase 1 and nowhere else.
    fn cold_solve(&mut self) -> Result<LpSolution, LpError> {
        let cold = sparse::cold_layout(self.num_vars(), self.rows.iter().flatten());
        let mut layout = FactSnapshot {
            cols: cold.cols,
            basis: cold.basis,
            allowed: vec![true; cold.cols],
            slack_col: vec![None; self.rows.len()],
            art_col: vec![None; self.rows.len()],
        };
        let live = (0..self.rows.len()).filter(|&p| self.rows[p].is_some());
        for (p, aux) in live.zip(cold.aux) {
            layout.slack_col[p] = aux.slack;
            layout.art_col[p] = aux.art;
        }
        let mut fact = Fact {
            layout,
            assembly: None,
        };
        let Assembly { sim, cost } = fact.assembly(&self.rows, self.sense, &self.objective);
        let pivots = sim.two_phase(cost, &cold.artificial_cols, &SimplexOptions::default())?;
        fact.keep_basis();
        self.fact = Some(fact);
        self.stats.cold_solves += 1;
        self.stats.total_pivots += pivots;
        Ok(self.extract(pivots))
    }

    fn extract(&self, pivots: usize) -> LpSolution {
        let values = self
            .fact
            .as_ref()
            .and_then(|fact| fact.assembly.as_ref())
            .expect("a solve just ran on the assembly")
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

impl Fact {
    /// Starts an edit of the layout: the last assembly no longer matches.
    fn edit(&mut self) -> &mut FactSnapshot {
        self.assembly = None;
        &mut self.layout
    }

    /// The assembly to factorize: the last one while no edit has come
    /// after it, else the stored `rows` assembled under the layout — the
    /// live rows in [`RowId`] order, each with its slack and artificial
    /// columns.
    fn assembly(
        &mut self,
        rows: &[Option<Constraint>],
        sense: Sense,
        objective: &[f64],
    ) -> &mut Assembly {
        let layout = &self.layout;
        self.assembly.get_or_insert_with(|| {
            let live = rows.iter().enumerate().filter_map(|(p, row)| {
                let aux = Aux {
                    slack: layout.slack_col[p],
                    art: layout.art_col[p],
                };
                row.as_ref().map(|row| (row, aux))
            });
            let prob = sparse::assemble(
                objective.len(),
                layout.cols,
                live,
                layout.basis.clone(),
                layout.allowed.clone(),
            );
            Assembly {
                sim: SparseSimplex::new(prob),
                cost: simplex::maximization_cost(sense, objective, layout.cols),
            }
        })
    }

    /// Keeps the basis the assembly's simplex ended on, in its stored
    /// order, and its enterable columns as the layout's.
    fn keep_basis(&mut self) {
        let assembly = self.assembly.as_ref();
        let prob = &assembly.expect("a solve just ran on the assembly").sim.prob;
        self.layout.basis.clone_from(&prob.basis);
        self.layout.allowed.clone_from(&prob.allowed);
    }

    /// Runs `op` on the assembly of the stored rows and, when it succeeds,
    /// keeps the basis it leaves in its stored order. `op` is a
    /// refactorization (which puts the basis in the factorization's pivot
    /// order) or a forced pivot (`SparseSimplex::drive_out`); it returns
    /// `false` on a singular basis or when no eligible pivot exists.
    fn on_assembly(
        &mut self,
        rows: &[Option<Constraint>],
        sense: Sense,
        objective: &[f64],
        op: impl FnOnce(&mut SparseSimplex) -> bool,
    ) -> bool {
        let ok = op(&mut self.assembly(rows, sense, objective).sim);
        if ok {
            self.keep_basis();
        }
        ok
    }

    /// The warm repair after edits: factorize the basis, in its stored
    /// order, on the assembly of the stored rows, read the reduced costs,
    /// pick the repair pass, then certify optimality with a primal pass.
    /// Returns `(clean, pivots, dual_pivots)`; anything but a clean optimum
    /// sends the caller cold.
    ///
    /// Every call starts from that fresh factorization, whatever the state
    /// did since the last one, so a state restored from a capture (which
    /// keeps the layout and nothing transient) repairs exactly like the
    /// live one.
    ///
    /// The budget sits deliberately far below the cold solver's: a warm
    /// re-solve normally needs a handful of pivots, and a warm pass that
    /// does not converge quickly is numerically suspect — better to
    /// refactorize than to chase a drifting basis.
    fn reoptimize(
        &mut self,
        rows: &[Option<Constraint>],
        sense: Sense,
        objective: &[f64],
    ) -> (bool, usize, usize) {
        let options = &SimplexOptions::default();
        let Assembly { sim, cost } = self.assembly(rows, sense, objective);
        let budget = (4 * (sim.prob.m + sim.prob.ncols)).max(200);
        if !sim.factorize() {
            // Singular under the edited coefficients: only a cold solve can
            // answer.
            return (false, 0, 0);
        }
        let mut pivots = 0usize;
        let mut dual_pivots = 0usize;
        let mut clean = true;
        // Classify the start basis. Pure row appends leave the old reduced
        // costs untouched — dual feasible — and are repaired by the dual
        // simplex. A coefficient update can break dual feasibility: if the
        // basis at least stayed primal feasible, the primal pass below
        // re-optimizes directly; if it lost both, a dual phase with a zero
        // objective (for which any basis prices out) restores primal
        // feasibility first.
        sim.compute_reduced_costs(cost);
        // `primary_fresh`: the factorization is live and the reduced costs
        // match `cost`, so the primal pass may skip its entry refresh
        // (each refresh is a full refactorization — the dominant cost of a
        // zero-pivot warm re-solve).
        let mut primary_fresh = true;
        let dual_feasible = sim
            .reduced_costs()
            .iter()
            .zip(&sim.prob.allowed)
            .all(|(&dj, &ok)| !ok || dj <= COST_TOLERANCE);
        if dual_feasible {
            let (status, iters) = sim.dual(cost, options, budget, true);
            pivots += iters;
            dual_pivots += iters;
            clean = status == SolveStatus::Optimal;
        } else if sim.x_b.iter().any(|&bi| bi < -FEASIBILITY_TOLERANCE) {
            let zero = vec![0.0; sim.prob.ncols];
            // The factorization from the classification above is still live
            // — only the reduced costs must be redone for the zero objective
            // (one BTRAN + column pass, far below another full
            // refactorization).
            sim.compute_reduced_costs(&zero);
            let (status, iters) = sim.dual(&zero, options, budget, true);
            pivots += iters;
            dual_pivots += iters;
            clean = status == SolveStatus::Optimal;
            // `d` now belongs to the zero cost; the primal pass below must
            // refresh for the real one.
            primary_fresh = false;
        }
        if clean {
            // Primal cleanup: after a clean dual pass (or a pure deletion)
            // the basis is already optimal and this prices out in zero
            // pivots; it guards the rare case where floating-point drift
            // left a column with a marginally positive reduced cost.
            let remaining = budget.saturating_sub(pivots).max(100);
            let (status, iters) = sim.primal(cost, options, remaining, primary_fresh);
            pivots += iters;
            clean = status == SolveStatus::Optimal;
        }
        if clean {
            // A basic artificial (a cold start leaves one in a redundant
            // row) stays at zero only while the edits keep its row
            // redundant. A pass that moved one off zero optimized a relaxed
            // problem, so the cold solve answers instead. Only an
            // artificial can be basic and barred from entering.
            clean = sim
                .prob
                .basis
                .iter()
                .zip(&sim.x_b)
                .all(|(&bc, &value)| sim.prob.allowed[bc] || value <= FEASIBILITY_TOLERANCE);
        }
        self.keep_basis();
        (clean, pivots, dual_pivots)
    }
}

impl FactSnapshot {
    /// Drops live row `p` and its slack from the layout, keeping
    /// the basis. That needs the slack basic (a non-binding row) and no
    /// basic artificial pinning the row: the slack is the row's unit
    /// column, so every other basic value stays, and every live row above
    /// `p` moves down one assembled position with its rank. Returns
    /// `false`, with the layout unchanged, when only a cold solve can
    /// express the deletion (an `=` row has no slack to carry it).
    fn remove_row(&mut self, p: usize) -> bool {
        let Some(slack) = self.slack_col[p] else {
            return false;
        };
        if self.art_col[p].is_some_and(|art| self.basis.contains(&art)) {
            return false;
        }
        let Some(pos) = self.basis.iter().position(|&bc| bc == slack) else {
            return false;
        };
        self.basis.remove(pos);
        self.allowed[slack] = false;
        if let Some(art) = self.art_col[p] {
            self.allowed[art] = false;
        }
        self.slack_col[p] = None;
        self.art_col[p] = None;
        true
    }

    /// Makes room for `k` structural columns appended after the first
    /// `n_old`: every slack and artificial moves up by `k`, and the new
    /// columns may enter. They start nonbasic at zero, so the basic values
    /// stay.
    fn grow(&mut self, n_old: usize, k: usize) {
        let shift = |c: &mut usize| {
            if *c >= n_old {
                *c += k;
            }
        };
        self.basis.iter_mut().for_each(shift);
        self.slack_col.iter_mut().flatten().for_each(shift);
        self.art_col.iter_mut().flatten().for_each(shift);
        self.allowed
            .splice(n_old..n_old, std::iter::repeat_n(true, k));
        self.cols += k;
    }
}

// ---------------------------------------------------------------------------
// Snapshot / restore — plain-data capture of the incremental solver
// ---------------------------------------------------------------------------

/// One live row of a [`SimplexSnapshot`]: the row exactly as it was
/// declared (or last updated), with the columns appended since. The state
/// stores every row in that one form and only the assembly orients it, so
/// a snapshot row is the stored [`Constraint`] itself.
pub type SnapshotRow = Constraint;

/// The basis layout of a warm [`SimplexState`]: the basis in its stored
/// order, which columns may enter, and the columns of each row's slack and
/// artificial. A live row's assembled position is its rank among the live
/// rows: a cold layout numbers them in [`RowId`] order, an append takes
/// the next position with the next id, and a delete moves every row above
/// it down one. Together with the stored rows the layout is the whole warm
/// state: edits change only the rows and this layout, and every
/// factorization starts from a problem assembled from the rows under it,
/// by the same assembly that starts a cold solve. The LU factors, basic
/// values and pricing weights are rebuilt from it before each use, so a
/// capture is a clone of the layout and [`SimplexState::restore`]
/// continues exactly as the captured state would have.
#[derive(Clone, Debug, PartialEq)]
pub struct FactSnapshot {
    /// Total column count (structural + slack + artificial).
    pub cols: usize,
    /// Basic column per assembled row, in stored order.
    pub basis: Vec<usize>,
    /// Enterable flag per column (barred tombstones stay barred).
    pub allowed: Vec<bool>,
    /// Per row, by [`RowId`]: its slack/surplus column, if any.
    pub slack_col: Vec<Option<usize>>,
    /// Per row, by [`RowId`]: its artificial column, if any.
    pub art_col: Vec<Option<usize>>,
}

/// Complete plain-data capture of a [`SimplexState`], sufficient to rebuild
/// the solver via [`SimplexState::restore`], which then continues bit for
/// bit as the captured state. All fields are public and contain no solver
/// internals (no factorization numbers), so callers can serialize them with
/// any codec that preserves `f64` bits.
///
/// Row `i` is the row of [`RowId`]`(i)`, as declared; a deleted row keeps
/// its slot, as `None`, but not its terms.
#[derive(Clone, Debug, PartialEq)]
pub struct SimplexSnapshot {
    /// Objective sense.
    pub sense: Sense,
    /// Structural objective coefficients (original sense), tombstones zero.
    pub objective: Vec<f64>,
    /// Every row ever added, by [`RowId`]; `None` once deleted.
    pub rows: Vec<Option<SnapshotRow>>,
    /// Liveness per structural column.
    pub cols_live: Vec<bool>,
    /// Number of rows that came from the base problem (the first ones).
    pub base_rows: usize,
    /// Work counters carried across the snapshot boundary.
    pub stats: IncrementalStats,
    /// Basis layout of the warm state, if the state was warm.
    pub fact: Option<FactSnapshot>,
}

impl SimplexState {
    /// Captures the state as plain data (see [`SimplexSnapshot`]), leaving
    /// the state untouched. A warm state is captured as its basis layout —
    /// basis and bookkeeping, not numbers — which is all
    /// [`restore`](Self::restore) needs to continue bit for bit.
    pub fn capture(&self) -> SimplexSnapshot {
        let fact = self.fact.as_ref().map(|f| f.layout.clone());
        SimplexSnapshot {
            sense: self.sense,
            objective: self.objective.clone(),
            rows: self.rows.clone(),
            cols_live: self.cols_live.clone(),
            base_rows: self.base_rows,
            stats: self.stats,
            fact,
        }
    }

    /// Rebuilds a solver from a [`SimplexSnapshot`]. A captured basis
    /// layout is adopted as it is, so a state captured warm restores warm,
    /// whatever its rows look like.
    ///
    /// The restored state continues **exactly** as the captured one: every
    /// later edit and solve gives the same bits, pivots and
    /// [`stats`](Self::stats). That holds by construction, because the live
    /// state keeps nothing else across an operation either: every
    /// factorization starts from the stored rows assembled under the layout
    /// and from the basis in its stored order (re-solves, coefficient
    /// updates and forced column deletions all factorize first), and each
    /// simplex pass starts from fresh pricing weights.
    ///
    /// Structurally invalid snapshots (inconsistent lengths, out-of-range or
    /// repeated indices, a layout that does not cover the live rows,
    /// non-finite data) are rejected with [`LpError::CorruptSnapshot`] —
    /// restore never panics on bad input.
    pub fn restore(snapshot: &SimplexSnapshot) -> Result<Self, LpError> {
        validate_snapshot(snapshot)?;
        Ok(SimplexState {
            sense: snapshot.sense,
            objective: snapshot.objective.clone(),
            rows: snapshot.rows.clone(),
            cols_live: snapshot.cols_live.clone(),
            base_rows: snapshot.base_rows,
            fact: snapshot.fact.clone().map(|layout| Fact {
                layout,
                assembly: None,
            }),
            stats: snapshot.stats,
        })
    }
}

/// Structural validation of a snapshot before any of it is indexed: every
/// check that, if skipped, could panic the restore paths on malformed input.
fn validate_snapshot(s: &SimplexSnapshot) -> Result<(), LpError> {
    let n = s.objective.len();
    let bad = || LpError::CorruptSnapshot;
    if s.cols_live.len() != n || s.base_rows > s.rows.len() {
        return Err(bad());
    }
    if s.objective.iter().any(|c| !c.is_finite()) {
        return Err(bad());
    }
    for row in s.rows.iter().flatten() {
        if !row.rhs.is_finite() {
            return Err(bad());
        }
        for &(v, c) in &row.terms {
            if v.index() >= n || !c.is_finite() {
                return Err(bad());
            }
        }
    }
    match &s.fact {
        Some(layout) if !valid_layout(s, layout) => Err(bad()),
        _ => Ok(()),
    }
}

/// True when `layout` describes a warm state over `s`'s rows that every
/// path can assemble and factorize without indexing out of range: a live
/// row has a slack exactly when it is not `=` and an `=` row has an
/// artificial, a deleted row has neither, no column serves two rows, no
/// structural column serves as an auxiliary one, no artificial may enter
/// (a warm pass that priced one in would solve a relaxed problem), and the
/// basis holds distinct columns, one per live row.
fn valid_layout(s: &SimplexSnapshot, layout: &FactSnapshot) -> bool {
    let (n, rows, cols) = (s.objective.len(), s.rows.len(), layout.cols);
    let m = s.rows.iter().flatten().count();
    if cols < n
        || layout.allowed.len() != cols
        || layout.basis.len() != m
        || layout.slack_col.len() != rows
        || layout.art_col.len() != rows
    {
        return false;
    }
    let mut taken = vec![false; cols];
    for (p, row) in s.rows.iter().enumerate() {
        let (slack, art) = (layout.slack_col[p], layout.art_col[p]);
        let Some(row) = row else {
            if slack.is_some() || art.is_some() {
                return false;
            }
            continue;
        };
        let eq = row.op == ConstraintOp::Eq;
        if slack.is_some() == eq || (eq && art.is_none()) {
            return false;
        }
        for c in slack.into_iter().chain(art) {
            if c < n || c >= cols || taken[c] {
                return false;
            }
            taken[c] = true;
        }
        if art.is_some_and(|a| layout.allowed[a]) {
            return false;
        }
    }
    let mut basic = vec![false; cols];
    layout
        .basis
        .iter()
        .all(|&c| c < cols && !std::mem::replace(&mut basic[c], true))
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
        let mut state = SimplexState::new(&lp).unwrap();
        let warm = state.solve().unwrap();
        let cold = lp.solve().unwrap();
        assert_close(warm.objective, cold.objective);
        assert_eq!(state.stats().cold_solves, 1);
    }

    #[test]
    fn appended_cut_is_reoptimized_dually() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
    fn updating_an_appended_eq_row_moves_its_pin() {
        let (lp, x, _) = base_problem();
        let mut state = SimplexState::new(&lp).unwrap();
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
    fn eq_appends_stay_warm_until_their_artificial_stays_positive() {
        // At the optimum (2, 6), `x = 1` leaves the new row's artificial
        // basic at 1 − 2 < 0: the dual pivots it out and the re-solve
        // stays warm; `y = 5` then leaves it at 5 − 6 < 0 too. From (2, 6)
        // again, `x = 3` leaves it at 3 − 2 > 0, which no warm pass drives
        // out: the re-solve must go cold and still answer the pinned
        // problem.
        let (lp, x, y) = base_problem();
        let dense = |state: &SimplexState| {
            crate::solve_dense(&state.to_problem(), &SimplexOptions::default()).unwrap()
        };
        let mut state = SimplexState::new(&lp).unwrap();
        state.solve().unwrap();
        for (var, rhs) in [(x, 1.0), (y, 5.0)] {
            state.add_row(&[(var, 1.0)], ConstraintOp::Eq, rhs).unwrap();
            let warm = state.resolve().unwrap();
            assert_close(warm.objective, dense(&state).objective);
            assert_close(warm.value(var), rhs);
        }
        assert_eq!(state.stats().cold_solves, 1, "an `=` append went cold");
        assert_eq!(state.stats().rows_added, 2, "an `=` row counts once");
        assert_eq!(state.num_rows(), 5);
        let mut state = SimplexState::new(&lp).unwrap();
        state.solve().unwrap();
        state.add_row(&[(x, 1.0)], ConstraintOp::Eq, 3.0).unwrap();
        let warm = state.resolve().unwrap();
        assert_close(warm.objective, dense(&state).objective);
        assert_close(warm.value(x), 3.0);
        assert_eq!(state.stats().refactorizations, 1, "the guard went cold");
        assert_eq!(state.stats().cold_solves, 2);
    }

    #[test]
    fn a_layout_with_an_enterable_artificial_is_corrupt() {
        let (lp, x, _) = base_problem();
        let mut state = SimplexState::new(&lp).unwrap();
        state.solve().unwrap();
        let eq = state.add_row(&[(x, 1.0)], ConstraintOp::Eq, 3.0).unwrap();
        let mut snapshot = state.capture();
        assert!(SimplexState::restore(&snapshot).is_ok());
        let layout = snapshot.fact.as_mut().expect("warm");
        let art = layout.art_col[eq.index()].expect("an `=` row has an artificial");
        layout.allowed[art] = true;
        assert_eq!(
            SimplexState::restore(&snapshot).err(),
            Some(LpError::CorruptSnapshot)
        );
    }

    #[test]
    fn a_deleted_row_keeps_no_terms() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp).unwrap();
        state.solve().unwrap();
        let slack = state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 100.0)
            .unwrap();
        let binding = state
            .add_row(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 7.0)
            .unwrap();
        state.resolve().unwrap();
        state.delete_rows(&[slack]).unwrap();
        assert!(state.rows[slack.index()].is_none());
        assert!(state.capture().rows[slack.index()].is_none());
        assert_eq!(state.stats().refactorizations, 0, "the delete stayed warm");
        // x is basic: the forced pivot and the stripped terms see only the
        // live rows, and the answer still matches the dense oracle.
        assert!(state
            .fact
            .as_ref()
            .expect("warm")
            .layout
            .basis
            .contains(&x.index()));
        state.delete_cols(&[ColId(x.index())]).unwrap();
        let warm = state.resolve().unwrap();
        let dense = crate::solve_dense(&state.to_problem(), &SimplexOptions::default()).unwrap();
        assert_close(warm.objective, dense.objective);
        assert_eq!(state.stats().cold_solves, 1, "the column delete went cold");
        // A binding delete goes cold, and keeps nothing either.
        state.delete_rows(&[binding]).unwrap();
        let capture = state.capture();
        assert_eq!(capture.rows.len(), 5);
        assert_eq!(capture.rows.iter().flatten().count(), 3);
        assert_close(
            state.resolve().unwrap().objective,
            crate::solve_dense(&state.to_problem(), &SimplexOptions::default())
                .unwrap()
                .objective,
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
    fn deleting_a_basic_column_after_row_edits_stays_warm() {
        // An appended row (or a non-binding row deleted) leaves the live LU
        // stale. The forced pivot that drives a basic column out must look
        // the column's row up after refactorizing, which permutes the basis
        // order; a row looked up before pivots out another basic variable,
        // bars a column that is still basic, and sends the next resolve
        // cold. Both LPs below moved the deleted column's row that way.
        struct Case {
            objective: &'static [f64],
            rows: &'static [(&'static [f64], f64)],
            bounds: &'static [f64],
            delete_appended_row: bool,
            col: usize,
        }
        let cases = [
            Case {
                objective: &[3.0, 5.0, 3.0],
                rows: &[
                    (&[1.0, 2.0, 1.0], 6.0),
                    (&[1.0, 2.0, 0.0], 7.0),
                    (&[1.0, 3.0, 2.0], 8.0),
                ],
                bounds: &[3.0, 4.0, 5.0],
                delete_appended_row: false,
                col: 1,
            },
            Case {
                objective: &[3.0, 2.0, 1.0, 2.0, 3.0],
                rows: &[
                    (&[2.0, 2.0, 3.0, 2.0, 2.0], 6.0),
                    (&[2.0, 1.0, 0.0, 0.0, 1.0], 4.0),
                    (&[0.0, 3.0, 0.0, 2.0, 3.0], 2.0),
                ],
                bounds: &[4.0, 4.0, 3.0, 5.0, 3.0],
                delete_appended_row: true,
                col: 3,
            },
        ];
        for case in cases {
            let mut lp = LpProblem::new(Sense::Maximize);
            let vars: Vec<VarId> = case
                .objective
                .iter()
                .enumerate()
                .map(|(i, &c)| lp.add_var(format!("x{i}"), c))
                .collect();
            for (coeffs, rhs) in case.rows {
                let terms: Vec<(VarId, f64)> = vars.iter().copied().zip(coeffs.to_vec()).collect();
                lp.add_le(&terms, *rhs);
            }
            for (&v, &bound) in vars.iter().zip(case.bounds) {
                lp.add_le(&[(v, 1.0)], bound);
            }
            let mut state = SimplexState::new(&lp).unwrap();
            state.solve().unwrap();
            let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            let slack_row = state.add_row(&all, ConstraintOp::Le, 1000.0).unwrap();
            if case.delete_appended_row {
                state.resolve().unwrap();
                state.delete_rows(&[slack_row]).unwrap();
            }
            let basis = &state.fact.as_ref().expect("warm").layout.basis;
            assert!(basis.contains(&case.col), "the deleted column is basic");
            let before = state.stats();
            state.delete_cols(&[ColId(case.col)]).unwrap();
            let warm = state.resolve().unwrap();
            assert_eq!(state.stats().refactorizations, before.refactorizations);
            assert_eq!(state.stats().cold_solves, before.cold_solves);
            let dense =
                crate::solve_dense(&state.to_problem(), &SimplexOptions::default()).unwrap();
            assert_close(warm.objective, dense.objective);
            assert_close(warm.value(vars[case.col]), 0.0);
        }
    }

    #[test]
    fn deleting_a_scale_setting_column_keeps_restore_exact() {
        // The first row is equilibrated by z's coefficient (5000). Once z
        // is deleted the row must be rescaled as its stored form now
        // assembles: a row that kept the old scale solved to y =
        // 1.416666666666667 live against 1.4166666666666667 restored.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 2.0);
        let y = lp.add_var("y", 3.0);
        let z = lp.add_var("z", 0.1);
        lp.add_le(&[(x, 0.1), (y, 0.6), (z, 5000.0)], 1.0);
        lp.add_le(&[(x, 1.0)], 1.5);
        lp.add_le(&[(y, 1.0)], 2.5);
        let mut state = SimplexState::new(&lp).unwrap();
        state.solve().unwrap();
        state.delete_cols(&[ColId(z.index())]).unwrap();
        let mut restored = SimplexState::restore(&state.capture()).unwrap();
        let live = state.resolve().unwrap();
        let again = restored.resolve().unwrap();
        assert_eq!(live.objective.to_bits(), again.objective.to_bits());
        for v in [x, y, z] {
            assert_eq!(live.value(v).to_bits(), again.value(v).to_bits());
        }
        assert_eq!(live.iterations, again.iterations);
        assert_eq!(state.stats(), restored.stats());
        assert_close(live.value(y), 0.85 / 0.6);
    }

    #[test]
    fn an_equality_base_row_stays_warm_through_column_growth_and_restore() {
        // The `=` row carries an artificial. The layout keeps such a row
        // like any other, so a column append, a restore and an update of
        // the row itself all stay warm.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 5.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_le(&[(x, 1.0)], 3.0);
        lp.add_le(&[(y, 1.0)], 2.0);
        let mut state = SimplexState::new(&lp).unwrap();
        assert_close(state.solve().unwrap().objective, 16.0);
        let eq = state.base_rows()[0];
        let z = state
            .add_cols(&[NewCol::new(4.0, vec![(eq, 1.0)])])
            .unwrap()[0]
            .var();
        let dense = |state: &SimplexState| {
            crate::solve_dense(&state.to_problem(), &SimplexOptions::default()).unwrap()
        };
        let warm = state.resolve().unwrap();
        assert_close(warm.objective, dense(&state).objective);
        assert_close(warm.value(z), 2.0);
        let mut restored = SimplexState::restore(&state.capture()).unwrap();
        let update = RowUpdate::new(eq, vec![(x, 1.0), (y, 1.0), (z, 1.0)], 3.0);
        state.update_coeffs(std::slice::from_ref(&update)).unwrap();
        restored.update_coeffs(&[update]).unwrap();
        let live = state.resolve().unwrap();
        let again = restored.resolve().unwrap();
        assert_close(again.objective, dense(&restored).objective);
        assert_eq!(live.objective.to_bits(), again.objective.to_bits());
        for st in [&state, &restored] {
            assert_eq!(st.stats().cold_solves, 1, "a solve went cold");
            assert_eq!(st.stats().refactorizations, 0, "a fallback was counted");
        }
    }

    #[test]
    fn a_basic_artificial_moved_off_zero_sends_the_resolve_cold() {
        // Two copies of the `=` row leave one artificial basic at zero in
        // a redundant row after the cold solve. A column entering only the
        // copy, negated, makes that artificial grow with it: a warm pass
        // that kept it basic would report z = 1 for a problem that forces
        // z = 0.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_le(&[(x, 1.0)], 3.0);
        lp.add_le(&[(y, 1.0)], 3.0);
        let mut state = SimplexState::new(&lp).unwrap();
        assert_close(state.solve().unwrap().objective, 4.0);
        let rows = state.base_rows();
        let z = state
            .add_cols(&[NewCol::new(10.0, vec![(rows[1], -1.0)])])
            .unwrap()[0]
            .var();
        state.add_row(&[(z, 1.0)], ConstraintOp::Le, 1.0).unwrap();
        let sol = state.resolve().unwrap();
        let dense = crate::solve_dense(&state.to_problem(), &SimplexOptions::default()).unwrap();
        assert_close(sol.objective, dense.objective);
        assert_close(sol.value(z), 0.0);
    }

    #[test]
    fn column_edits_keep_varid_indexing_stable() {
        let (lp, x, y) = base_problem();
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
        state.solve().unwrap();
        let ge = state
            .add_row(&[(x, 1.0), (y, -1.0)], ConstraintOp::Ge, -10.0)
            .unwrap();
        let eq = state.add_row(&[(x, 1.0)], ConstraintOp::Eq, 2.0).unwrap();
        state.resolve().unwrap();
        // A column with coefficients in the `≥` row and the `=` row: the
        // assembly must orient the new terms with the rest of each row.
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
        let mut state = SimplexState::new(&lp).unwrap();
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
        let mut state = SimplexState::new(&lp).unwrap();
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
