//! # bcast-service — crash-safe multi-session solver daemon
//!
//! A state machine that owns many named solver sessions — each a drifting
//! platform, a live warm-started cut-generation session, and the current
//! periodic broadcast schedule — and mutates them *only* through a
//! deterministic, serializable command vocabulary:
//!
//! * **Write-ahead command log** (`wal.bin`): every command is length-
//!   prefixed, checksummed, and `fsync`ed before it executes. Torn final
//!   records are detected and discarded on read; the valid prefix always
//!   survives.
//! * **Snapshots** (`snapshot.bin`): the `Snapshot` command captures every
//!   session — simplex basis, cut pool, schedule, step log — into a single
//!   checksummed file, and changes nothing. Every factorization is built
//!   from the stored basis order, which the capture keeps, so a run
//!   restored from the snapshot continues bit for bit as the never-crashed
//!   run, at any snapshot cadence.
//! * **Recovery**: restore the latest valid snapshot, replay the WAL tail
//!   (skipping the reads `QuerySchedule` and `Snapshot`).
//!   A corrupt snapshot degrades to a full replay from sequence 1 (the WAL
//!   is never pruned) — never a panic, and the recovered service still
//!   answers every query.
//! * **Fault injection**: a [`FaultPlan`] kills the service at a seeded
//!   [`KillPoint`] — before/mid/after the WAL append, before/after
//!   execution, or mid-snapshot-write — leaving exactly the artifacts a
//!   `SIGKILL` would. `tests/service_crash.rs` proves recovery from every
//!   kill point is bit-identical to never crashing.
//! * **Platform-digest cache**: sessions created on structurally identical
//!   platforms (same topology, same cost bits) seed their cut pools from
//!   the first session's active cuts.
//!
//! No serialization framework is involved: the wire format is a small
//! hand-rolled little-endian codec ([`wire`]) with checksums and
//! allocation guards, so corrupt bytes fail decoding cleanly instead of
//! panicking or over-allocating.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod command;
pub mod error;
pub mod fault;
pub mod service;
pub mod session;
pub mod snapshot;
pub mod wal;
pub mod wire;

pub use command::{Command, PlatformFamily, SessionSpec};
pub use error::ServiceError;
pub use fault::{flip_byte, truncate_file, FaultPlan, KillPoint};
pub use service::{Outcome, RecoveryReport, Service};
pub use session::{ScheduleStats, Session, SessionImage, StepStats};
pub use snapshot::ServiceImage;
pub use wal::{Wal, WalRecord, WalTail};
