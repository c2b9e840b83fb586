//! The crash-safe multi-session solver service.
//!
//! ## Write-ahead discipline
//!
//! [`Service::apply`] logs every command durably *before* executing it:
//!
//! 1. append the encoded command to the WAL (`sync_data`),
//! 2. execute it against the in-memory sessions,
//! 3. return the outcome.
//!
//! Execution is a pure function of the service state (see
//! `crate::command`), so a crash anywhere in that sequence is recoverable:
//! a command lost before the append was never acknowledged; a command
//! logged but not executed is replayed; a command logged *and* executed is
//! replayed onto the restored base and reaches the same state.
//!
//! ## Recovery
//!
//! [`Service::open`] restores the latest valid snapshot file (if any) and
//! replays the WAL records after the snapshot's sequence number. A
//! missing, torn, or bit-flipped snapshot is *not* fatal: the WAL is never
//! pruned, so recovery degrades to a full replay from sequence 1 — slower,
//! bit-identical, counted in `service.corrupt_artifacts`. The snapshot is
//! an optimization; the log is the authority.
//!
//! ## Exact restore and crash equivalence
//!
//! The `Snapshot` command only reads the live sessions: it writes each
//! one's [`crate::session::Session::capture`] and changes nothing. A
//! session restored from that image continues bit for bit as the live
//! one, because every factorization of its master LP is built from the
//! stored basis order, which the image keeps (see
//! `bcast_lp::SimplexState::restore`). So every step after a recovery
//! produces the pivots, throughputs and schedules of the never-crashed
//! run, whatever the snapshot cadence. That is the invariant the
//! differential crash harness in `tests/service_crash.rs` locks.
//!
//! Replay therefore applies only the commands that change state:
//! `QuerySchedule` and `Snapshot` records are skipped (and still counted
//! in [`RecoveryReport::replayed`]).

use crate::command::Command;
use crate::error::ServiceError;
use crate::fault::{FaultPlan, KillPoint};
use crate::session::{generate_platform, platform_digest, ScheduleStats, Session, StepStats};
use crate::snapshot::{read_snapshot, write_snapshot, ServiceImage};
use crate::wal::{Wal, WalTail};
use bcast_core::CutGenOptions;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// What one command did. Rejections are deterministic outcomes, not
/// errors: they are logged and replayed like every other command and
/// leave the state untouched both times.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// `CreateSession` succeeded; `digest_hit` says whether the
    /// platform-digest cache seeded the new session's cut pool.
    Created {
        /// The digest cache had cuts for this platform.
        digest_hit: bool,
    },
    /// `DriftStep` or `NodeChurn` advanced the session one trace step.
    Stepped {
        /// The step's statistics (also appended to the session log).
        stats: StepStats,
    },
    /// `Resolve` re-solved the current platform in place.
    Resolved {
        /// Optimal throughput (must match the last step's).
        tp: f64,
        /// Pivots the warm resolve spent.
        pivots: usize,
    },
    /// `QuerySchedule` — `None` before the first step.
    Schedule(Option<ScheduleStats>),
    /// `Snapshot` captured every session and wrote the file.
    SnapshotWritten,
    /// The command was refused deterministically; nothing changed.
    Rejected {
        /// Human-readable refusal.
        reason: String,
    },
}

/// What [`Service::open`] found on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot file was restored (valid and all sessions rebuildable).
    pub snapshot_restored: bool,
    /// Why a snapshot file that existed was rejected (corrupt or
    /// unrestorable), as the error's text; recovery then fell back to a
    /// full WAL replay. `None` when no snapshot was rejected.
    pub snapshot_rejected: Option<String>,
    /// WAL records replayed after the restored base, counting the
    /// `QuerySchedule` and `Snapshot` records that replay skips.
    pub replayed: usize,
    /// The WAL ended in a torn record whose bytes were discarded.
    pub wal_torn: bool,
}

/// A crash-safe, multi-session solver daemon state machine. All
/// durability lives under one directory: `wal.bin` (the authority) and
/// `snapshot.bin` (the optimization).
pub struct Service {
    dir: PathBuf,
    wal: Wal,
    sessions: BTreeMap<String, Session>,
    digest_cache: BTreeMap<u64, Vec<Vec<bool>>>,
    next_seq: u64,
    fault: FaultPlan,
    recovery: RecoveryReport,
}

impl Service {
    /// Opens the service at `dir` (created if absent), recovering whatever
    /// state its artifacts describe. `fault` is the (at most one) injected
    /// crash of this instance — [`FaultPlan::none`] in production.
    pub fn open(dir: &Path, fault: FaultPlan) -> Result<Service, ServiceError> {
        let (service, _t) = bcast_obs::timed(bcast_obs::names::SPAN_SERVICE_RECOVER, || {
            Service::open_inner(dir, fault)
        });
        service
    }

    fn open_inner(dir: &Path, fault: FaultPlan) -> Result<Service, ServiceError> {
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join("snapshot.bin");
        let wal_path = dir.join("wal.bin");
        let had_artifacts = wal_path.exists() || snap_path.exists();

        let mut recovery = RecoveryReport {
            snapshot_restored: false,
            snapshot_rejected: None,
            replayed: 0,
            wal_torn: false,
        };
        let mut sessions = BTreeMap::new();
        let mut digest_cache = BTreeMap::new();
        let mut base_seq = 0u64;

        // Restore the snapshot if it is wholly valid. Any failure — bad
        // checksum, malformed payload, a session image the solver refuses
        // to rebuild — rejects the *entire* snapshot and falls back to
        // replaying the full WAL: a half-restored base would replay the
        // tail onto the wrong state.
        match read_snapshot(&snap_path) {
            Ok(None) => {}
            Ok(Some(image)) => match restore_sessions(&image) {
                Ok(restored) => {
                    sessions = restored;
                    digest_cache = image.digest_cache;
                    base_seq = image.seq;
                    recovery.snapshot_restored = true;
                }
                Err(reason) => recovery.snapshot_rejected = Some(reason),
            },
            Err(ServiceError::Io(e)) => return Err(ServiceError::Io(e)),
            Err(e) => recovery.snapshot_rejected = Some(e.to_string()),
        }
        if recovery.snapshot_rejected.is_some() {
            bcast_obs::counter_add(bcast_obs::names::SERVICE_CORRUPT_ARTIFACTS, 1);
        }

        let wal = Wal::open(&wal_path)?;
        let (records, tail) = wal.records()?;
        recovery.wal_torn = matches!(tail, WalTail::Torn { .. });
        if recovery.wal_torn {
            bcast_obs::counter_add(bcast_obs::names::SERVICE_CORRUPT_ARTIFACTS, 1);
        }
        let next_seq = records.last().map_or(1, |r| r.seq + 1);

        let mut service = Service {
            dir: dir.to_path_buf(),
            wal,
            sessions,
            digest_cache,
            next_seq,
            fault,
            recovery,
        };
        for record in &records {
            if record.seq <= base_seq {
                continue;
            }
            let command = Command::decode(&record.payload).map_err(|e| {
                ServiceError::Corrupt(format!(
                    "WAL record {} passed its checksum but does not decode: {e}",
                    record.seq
                ))
            })?;
            // Reads change no state, so replay skips them. It ignores
            // execution outcomes (including deterministic solver errors):
            // the live run already surfaced them to its client and kept
            // going, so recovery does the same.
            if !matches!(command, Command::QuerySchedule { .. } | Command::Snapshot) {
                let _ = service.execute(&command, record.seq);
            }
            service.recovery.replayed += 1;
        }
        if had_artifacts {
            bcast_obs::counter_add(bcast_obs::names::SERVICE_RECOVERIES, 1);
        }
        Ok(service)
    }

    /// How this instance's recovery went.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Next WAL sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Live session names, sorted.
    pub fn session_names(&self) -> Vec<String> {
        self.sessions.keys().cloned().collect()
    }

    /// Read access to a session (for the harness's state comparisons).
    pub fn session(&self, name: &str) -> Option<&Session> {
        self.sessions.get(name)
    }

    /// Digest-cache entries (digest, cut count), sorted by digest.
    pub fn digest_cache_summary(&self) -> Vec<(u64, usize)> {
        self.digest_cache
            .iter()
            .map(|(digest, cuts)| (*digest, cuts.len()))
            .collect()
    }

    /// Applies one command through the write-ahead discipline (see the
    /// module docs). [`ServiceError::Killed`] means the injected fault
    /// fired: the on-disk artifacts are in whatever state the crash left
    /// them, and the instance must be dropped and re-opened.
    pub fn apply(&mut self, command: &Command) -> Result<Outcome, ServiceError> {
        let (outcome, _t) = bcast_obs::timed(bcast_obs::names::SPAN_SERVICE_APPLY, || {
            self.apply_inner(command)
        });
        outcome
    }

    fn apply_inner(&mut self, command: &Command) -> Result<Outcome, ServiceError> {
        bcast_obs::counter_add(bcast_obs::names::SERVICE_COMMANDS, 1);
        let seq = self.next_seq;
        if self.fault.hits(KillPoint::BeforeAppend(seq)) {
            return Err(ServiceError::Killed(KillPoint::BeforeAppend(seq)));
        }
        let payload = command.encode();
        if self.fault.hits(KillPoint::MidAppend(seq)) {
            self.wal.append_torn(seq, &payload)?;
            return Err(ServiceError::Killed(KillPoint::MidAppend(seq)));
        }
        self.wal.append(seq, &payload)?;
        self.next_seq = seq + 1;
        if self.fault.hits(KillPoint::BeforeExec(seq)) {
            return Err(ServiceError::Killed(KillPoint::BeforeExec(seq)));
        }
        let outcome = self.execute(command, seq)?;
        if self.fault.hits(KillPoint::AfterExec(seq)) {
            return Err(ServiceError::Killed(KillPoint::AfterExec(seq)));
        }
        Ok(outcome)
    }

    /// Executes one command against the in-memory state, live or on
    /// replay (which never passes the reads `QuerySchedule` and
    /// `Snapshot`, so the snapshot file is written only live).
    fn execute(&mut self, command: &Command, seq: u64) -> Result<Outcome, ServiceError> {
        match command {
            Command::CreateSession { name, spec } => {
                if self.sessions.contains_key(name) {
                    return Ok(Outcome::Rejected {
                        reason: format!("session {name:?} already exists"),
                    });
                }
                if let Some(reason) = spec.rejection() {
                    return Ok(Outcome::Rejected { reason });
                }
                let digest = platform_digest(&generate_platform(spec));
                let seed_cuts = self.digest_cache.get(&digest).cloned();
                let digest_hit = seed_cuts.is_some();
                if digest_hit {
                    bcast_obs::counter_add(bcast_obs::names::SERVICE_DIGEST_HITS, 1);
                }
                let options = CutGenOptions {
                    seed_cuts: seed_cuts
                        .unwrap_or_default()
                        .into_iter()
                        .map(|source_side| bcast_core::NodeCutSet { source_side })
                        .collect(),
                    ..CutGenOptions::default()
                };
                let session = Session::create(*spec, options)?;
                self.sessions.insert(name.clone(), session);
                Ok(Outcome::Created { digest_hit })
            }
            Command::DriftStep { session } => self.advance(session, false),
            Command::NodeChurn { session } => self.advance(session, true),
            Command::QuerySchedule { session } => match self.sessions.get(session) {
                None => Ok(unknown(session)),
                Some(s) => Ok(Outcome::Schedule(s.schedule_stats())),
            },
            Command::Resolve { session } => match self.sessions.get_mut(session) {
                None => Ok(unknown(session)),
                Some(s) if s.steps_done() == 0 => Ok(Outcome::Rejected {
                    reason: "nothing to resolve before the first step".into(),
                }),
                Some(s) => {
                    let (tp, pivots) = s.resolve()?;
                    Ok(Outcome::Resolved { tp, pivots })
                }
            },
            Command::Snapshot => {
                let image = ServiceImage {
                    seq,
                    digest_cache: self.digest_cache.clone(),
                    sessions: self
                        .sessions
                        .iter()
                        .map(|(name, session)| (name.clone(), session.capture()))
                        .collect(),
                };
                let torn = self.fault.hits(KillPoint::MidSnapshotWrite(seq));
                write_snapshot(&self.dir.join("snapshot.bin"), &image, torn)?;
                if torn {
                    return Err(ServiceError::Killed(KillPoint::MidSnapshotWrite(seq)));
                }
                bcast_obs::counter_add(bcast_obs::names::SERVICE_SNAPSHOTS, 1);
                Ok(Outcome::SnapshotWritten)
            }
        }
    }

    /// The shared `DriftStep`/`NodeChurn` path: deterministic rejection
    /// checks, the step itself, then the digest-cache fill after a
    /// session's first solve.
    fn advance(&mut self, name: &str, churn: bool) -> Result<Outcome, ServiceError> {
        let Some(session) = self.sessions.get_mut(name) else {
            return Ok(unknown(name));
        };
        if let Some(reason) = session.advance_rejection(churn) {
            return Ok(Outcome::Rejected { reason });
        }
        let stats = session.advance()?;
        if session.steps_done() == 1 {
            let digest = session.platform_digest();
            let cuts = session.sharable_cuts();
            self.digest_cache.entry(digest).or_insert(cuts);
        }
        Ok(Outcome::Stepped { stats })
    }
}

fn unknown(name: &str) -> Outcome {
    Outcome::Rejected {
        reason: format!("unknown session {name:?}"),
    }
}

/// Rebuilds every session of `image`, or says which one could not be
/// rebuilt and why, as `session "<name>": <reason>`.
fn restore_sessions(image: &ServiceImage) -> Result<BTreeMap<String, Session>, String> {
    let mut sessions = BTreeMap::new();
    for (name, session_image) in &image.sessions {
        let session =
            Session::restore(session_image).map_err(|e| format!("session {name:?}: {e}"))?;
        sessions.insert(name.clone(), session);
    }
    Ok(sessions)
}
