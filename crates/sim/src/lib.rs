//! # bcast-sim — discrete-event simulation of pipelined broadcasts
//!
//! The throughput formulas used by the heuristics (`bcast-core::throughput`)
//! are closed-form steady-state expressions. This crate provides an
//! independent, event-driven simulation of the actual slice-by-slice
//! broadcast so that those formulas can be validated and so that transient
//! behaviour (pipeline fill, makespan of finite messages) can be studied:
//!
//! * every node forwards each slice to its children in a fixed order
//!   (store-and-forward, head-of-line);
//! * under the **one-port** model a node's sends serialise on its send port
//!   and its receives on its receive port (the two directions overlap);
//! * under the **multi-port** model only the per-message sender overhead
//!   serialises, while link occupations overlap.
//!
//! The main entry points are [`simulate_broadcast`], which returns a
//! [`SimulationReport`] with per-slice completion times, the makespan, and
//! an estimated steady-state period/throughput obtained from the completion
//! times of the last slices (after the pipeline has filled), and
//! [`simulate_schedule`], the schedule-driven execution mode that replays a
//! synthesized [`bcast_sched::PeriodicSchedule`] (multi-tree periodic
//! broadcast) with full feasibility checking, so the schedule's simulated
//! throughput can be compared against the LP bound and the tree heuristics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod report;
pub mod schedule_exec;

pub use engine::simulate_broadcast;
pub use report::SimulationReport;
pub use schedule_exec::simulate_schedule;
