//! LP model builder: variables, constraints, objective, solution container.

use crate::simplex::{self, SimplexOptions, SolveStatus};
use std::fmt;

/// Index of a decision variable inside an [`LpProblem`].
///
/// All variables are non-negative (`x ≥ 0`); this matches every LP used by
/// the broadcast-throughput computations, where variables are throughputs,
/// message counts or occupation times.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub usize);

impl VarId {
    /// The variable index as `usize`.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Optimisation direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sense {
    /// Maximise the objective.
    Maximize,
    /// Minimise the objective.
    Minimize,
}

/// Comparison operator of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConstraintOp {
    /// `Σ aᵢ xᵢ ≤ b`
    Le,
    /// `Σ aᵢ xᵢ ≥ b`
    Ge,
    /// `Σ aᵢ xᵢ = b`
    Eq,
}

impl fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintOp::Le => write!(f, "<="),
            ConstraintOp::Ge => write!(f, ">="),
            ConstraintOp::Eq => write!(f, "="),
        }
    }
}

/// A single linear constraint in sparse form.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Sparse `(variable, coefficient)` terms.
    pub terms: Vec<(VarId, f64)>,
    /// Comparison operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// Errors reported by the model builder or the solver.
#[derive(Clone, Debug, PartialEq)]
pub enum LpError {
    /// The problem has no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The iteration limit was exceeded before reaching optimality.
    IterationLimit,
    /// The simplex basis could not be factorized, even with per-pivot
    /// refactorization: a numerical defeat that a larger iteration budget
    /// cannot cure.
    Singular,
    /// A constraint or the objective referenced an unknown variable.
    UnknownVariable(VarId),
    /// A row handle passed to the incremental solver was never issued by it
    /// (carries the raw row index).
    UnknownRow(usize),
    /// A column handle passed to the incremental solver was never issued by
    /// it, or refers to a column already deleted (carries the raw index).
    UnknownCol(usize),
    /// A coefficient or right-hand side was not finite.
    NotFinite,
    /// A [`SimplexSnapshot`](crate::incremental::SimplexSnapshot) failed the
    /// structural validation of
    /// [`SimplexState::restore`](crate::incremental::SimplexState::restore):
    /// inconsistent lengths, out-of-range indices, or non-finite data.
    CorruptSnapshot,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "the linear program is infeasible"),
            LpError::Unbounded => write!(f, "the linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::Singular => write!(f, "the simplex basis became numerically singular"),
            LpError::UnknownVariable(v) => write!(f, "unknown variable x{}", v.0),
            LpError::UnknownRow(r) => write!(f, "unknown row handle #{r}"),
            LpError::UnknownCol(c) => write!(f, "unknown column handle #{c}"),
            LpError::NotFinite => write!(f, "non-finite coefficient in the model"),
            LpError::CorruptSnapshot => write!(f, "structurally invalid solver snapshot"),
        }
    }
}

impl std::error::Error for LpError {}

/// Solution of an [`LpProblem`]: optimal objective and variable values.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal objective value (in the problem's own sense).
    pub objective: f64,
    /// Value of every variable, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Solver status (always [`SolveStatus::Optimal`] when returned via `Ok`).
    pub status: SolveStatus,
    /// Number of simplex pivots performed (phase 1 + phase 2).
    pub iterations: usize,
}

impl LpSolution {
    /// Value of variable `v` in the optimal solution.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }
}

/// A linear program over non-negative variables.
#[derive(Clone, Debug)]
pub struct LpProblem {
    sense: Sense,
    /// Objective coefficient per variable.
    objective: Vec<f64>,
    /// Human-readable variable names (used in Debug output and tests).
    names: Vec<String>,
    constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimisation sense.
    pub fn new(sense: Sense) -> Self {
        LpProblem {
            sense,
            objective: Vec::new(),
            names: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Optimisation sense of the problem.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a non-negative variable with the given objective coefficient.
    pub fn add_var(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        let id = VarId(self.objective.len());
        self.objective.push(objective);
        self.names.push(name.into());
        id
    }

    /// Changes the objective coefficient of an existing variable.
    pub fn set_objective(&mut self, var: VarId, coefficient: f64) {
        self.objective[var.0] = coefficient;
    }

    /// Objective coefficient of `var`.
    pub fn objective_coefficient(&self, var: VarId) -> f64 {
        self.objective[var.0]
    }

    /// Name given to `var` when it was created.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.names[var.0]
    }

    /// Adds a constraint `Σ terms op rhs`. Terms may repeat a variable; the
    /// coefficients are summed.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], op: ConstraintOp, rhs: f64) {
        self.constraints.push(Constraint {
            terms: terms.to_vec(),
            op,
            rhs,
        });
    }

    /// Convenience: adds `Σ terms ≤ rhs`.
    pub fn add_le(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(terms, ConstraintOp::Le, rhs);
    }

    /// Convenience: adds `Σ terms ≥ rhs`.
    pub fn add_ge(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(terms, ConstraintOp::Ge, rhs);
    }

    /// Convenience: adds `Σ terms = rhs`.
    pub fn add_eq(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(terms, ConstraintOp::Eq, rhs);
    }

    /// Read-only access to the constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Read-only access to the objective vector.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Validates the model: every referenced variable exists and every
    /// number is finite.
    pub fn validate(&self) -> Result<(), LpError> {
        for &c in &self.objective {
            if !c.is_finite() {
                return Err(LpError::NotFinite);
            }
        }
        for con in &self.constraints {
            if !con.rhs.is_finite() {
                return Err(LpError::NotFinite);
            }
            for &(v, c) in &con.terms {
                if v.0 >= self.objective.len() {
                    return Err(LpError::UnknownVariable(v));
                }
                if !c.is_finite() {
                    return Err(LpError::NotFinite);
                }
            }
        }
        Ok(())
    }

    /// Solves the problem with default simplex options.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        simplex::solve(self, &SimplexOptions::default())
    }

    /// Solves the problem with explicit simplex options.
    pub fn solve_with(&self, options: &SimplexOptions) -> Result<LpSolution, LpError> {
        simplex::solve(self, options)
    }

    /// Evaluates the objective at a given point (no feasibility check).
    pub fn eval_objective(&self, values: &[f64]) -> f64 {
        self.objective.iter().zip(values).map(|(c, x)| c * x).sum()
    }

    /// Returns the largest constraint violation of `values` (0 when feasible).
    ///
    /// Useful in tests and debug assertions to check that a solver output is
    /// primal feasible.
    pub fn max_violation(&self, values: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for x in values {
            worst = worst.max(-x); // non-negativity
        }
        for con in &self.constraints {
            let lhs: f64 = con.terms.iter().map(|&(v, c)| c * values[v.0]).sum();
            let viol = match con.op {
                ConstraintOp::Le => lhs - con.rhs,
                ConstraintOp::Ge => con.rhs - lhs,
                ConstraintOp::Eq => (lhs - con.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_vars_and_constraints() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 2.0);
        lp.add_le(&[(x, 1.0), (y, 1.0)], 10.0);
        lp.add_ge(&[(x, 1.0)], 1.0);
        lp.add_eq(&[(y, 1.0)], 3.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 3);
        assert_eq!(lp.var_name(x), "x");
        assert_eq!(lp.objective_coefficient(y), 2.0);
        assert_eq!(lp.constraints()[0].op, ConstraintOp::Le);
        assert_eq!(lp.constraints()[1].op, ConstraintOp::Ge);
        assert_eq!(lp.constraints()[2].op, ConstraintOp::Eq);
    }

    #[test]
    fn set_objective_overwrites() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        lp.set_objective(x, -4.0);
        assert_eq!(lp.objective_coefficient(x), -4.0);
        assert_eq!(lp.sense(), Sense::Minimize);
    }

    #[test]
    fn validate_catches_unknown_variable() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let _x = lp.add_var("x", 1.0);
        lp.add_le(&[(VarId(7), 1.0)], 1.0);
        assert_eq!(lp.validate(), Err(LpError::UnknownVariable(VarId(7))));
    }

    #[test]
    fn validate_catches_non_finite() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", f64::NAN);
        assert_eq!(lp.validate(), Err(LpError::NotFinite));
        lp.set_objective(x, 1.0);
        lp.add_le(&[(x, f64::INFINITY)], 1.0);
        assert_eq!(lp.validate(), Err(LpError::NotFinite));
    }

    #[test]
    fn eval_and_violation() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 1.0);
        lp.add_le(&[(x, 1.0), (y, 1.0)], 2.0);
        assert_eq!(lp.eval_objective(&[1.0, 1.0]), 4.0);
        assert_eq!(lp.max_violation(&[1.0, 1.0]), 0.0);
        assert!(lp.max_violation(&[3.0, 0.0]) > 0.9);
        assert!(lp.max_violation(&[-1.0, 0.0]) > 0.9);
    }

    #[test]
    fn display_of_ops_and_errors() {
        assert_eq!(ConstraintOp::Le.to_string(), "<=");
        assert_eq!(ConstraintOp::Ge.to_string(), ">=");
        assert_eq!(ConstraintOp::Eq.to_string(), "=");
        assert!(LpError::Infeasible.to_string().contains("infeasible"));
        assert!(LpError::Unbounded.to_string().contains("unbounded"));
    }
}
