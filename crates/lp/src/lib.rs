//! # bcast-lp — a self-contained linear-programming substrate
//!
//! The paper computes the optimal broadcast throughput of the
//! Multiple-Tree-Pipelined (MTP) problem by solving a linear program with
//! Maple or MuPAD. This crate replaces those external tools with a
//! from-scratch two-phase simplex solver built on one engine, a **sparse
//! revised simplex**: column-wise constraint storage, a Markowitz sparse LU
//! basis with bounded eta updates and periodic refactorization, sparse
//! FTRAN/BTRAN kernels, and Devex pricing for both the primal and the dual
//! method.
//!
//! * [`LpProblem`] — a model builder: named non-negative variables, linear
//!   constraints (`≤`, `≥`, `=`), a linear objective to maximise or minimise.
//! * [`solve`] / [`LpProblem::solve`] — a one-shot two-phase solve.
//!   [`SimplexOptions`] (iteration cap, refactorization interval) are set
//!   only here, through [`solve`] and [`LpProblem::solve_with`].
//! * [`SimplexState`] — an *incremental* solver: the optimal basis persists
//!   across appended, deleted, and coefficient-updated rows and columns and
//!   is re-optimized by warm-started dual simplex (the cut-generation master
//!   LP is the intended customer). It always runs at the default options,
//!   so its [`SimplexSnapshot`] stores none.
//! * [`LpSolution`] — objective value and per-variable values.
//! * [`solve_dense`] — a cold one-shot dense-tableau solver, kept only as
//!   the differential oracle the tests compare the sparse engine against.
//!
//! The solver is exact enough for the LPs of this reproduction (hundreds of
//! variables, thousands of rows at the 200-node platform scale); it is not
//! intended to compete with industrial LP codes.
//!
//! ```
//! use bcast_lp::{LpProblem, Sense};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x, y >= 0
//! let mut lp = LpProblem::new(Sense::Maximize);
//! let x = lp.add_var("x", 3.0);
//! let y = lp.add_var("y", 2.0);
//! lp.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! lp.add_le(&[(x, 1.0), (y, 3.0)], 6.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-9);
//! assert!((sol.value(x) - 4.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
pub mod incremental;
pub mod model;
pub mod simplex;
pub(crate) mod sparse;

pub use incremental::{
    ColId, FactSnapshot, IncrementalStats, NewCol, RowId, RowUpdate, SimplexSnapshot, SimplexState,
    SnapshotRow,
};
pub use model::{Constraint, ConstraintOp, LpError, LpProblem, LpSolution, Sense, VarId};
pub use simplex::{solve, solve_dense, SimplexOptions, SolveStatus};

#[cfg(test)]
mod tests_prop;
