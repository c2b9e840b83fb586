//! The deterministic command vocabulary of the service.
//!
//! Sessions are mutated *only* through [`Command`]s, and every command's
//! execution is a pure function of the service state it is applied to —
//! no wall clock, no ambient RNG, no thread-count dependence in the
//! results. That is what makes the write-ahead log a complete recovery
//! story: replaying the logged commands over the restored base state
//! reproduces the live state bit for bit.
//!
//! A session's workload — the platform, its drift/churn trace, and the
//! broadcast parameters — is fully described by its [`SessionSpec`]. The
//! trace is a pure function of the spec (`DriftTrace::generate` is
//! seeded), so neither the platform nor the trace is ever persisted; both
//! are regenerated on create *and* on recovery, which keeps snapshots
//! proportional to solver state rather than to trace length.

use crate::wire::{Reader, WireError, Writer};

/// Which platform generator a session draws its base platform from (the
/// paper's three families, `paper`-parameterised).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlatformFamily {
    /// `random_platform(RandomPlatformConfig::paper(nodes, density))`.
    Random {
        /// Processor count.
        nodes: usize,
        /// Link density.
        density: f64,
    },
    /// `tiers_platform(TiersConfig::paper(nodes, density))`.
    Tiers {
        /// Total node count.
        nodes: usize,
        /// Target density.
        density: f64,
    },
    /// `gaussian_platform(GaussianPlatformConfig::paper(nodes))`.
    Gaussian {
        /// Processor count.
        nodes: usize,
    },
}

/// Complete description of one session's workload. Everything a session
/// ever computes is a deterministic function of this spec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionSpec {
    /// Platform family and size.
    pub family: PlatformFamily,
    /// Seed of the platform generator's RNG.
    pub platform_seed: u64,
    /// Pipelined slice size in bytes.
    pub slice_size: f64,
    /// Batch size `B` of the schedule synthesis.
    pub batch: usize,
    /// Drift steps of the trace (the trace has `drift_steps + 1`
    /// snapshots; snapshot 0 is the unperturbed platform).
    pub drift_steps: usize,
    /// Seed of the drift trace.
    pub drift_seed: u64,
    /// `true` generates a node-churn trace (`DriftConfig::with_churn`
    /// rates on top of failures); `false` a cost-drift + link-failure
    /// trace (`DriftConfig::with_failures`). The broadcast source is node
    /// 0 in both, as in the drift ablation binary.
    pub churn: bool,
}

/// One service command. See the module docs for the determinism contract.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Creates a named session: generates the platform and trace from the
    /// spec, builds the cut-generation session (seeded from the
    /// platform-digest cache on a hit), solves nothing yet.
    CreateSession {
        /// Unique session name.
        name: String,
        /// The session's workload.
        spec: SessionSpec,
    },
    /// Advances the named session one step along its trace, a step that
    /// keeps the node set (link costs drift, links fail or recover).
    /// Rejected (deterministically, without mutating) when the next step
    /// changes the node set — that step is a [`Command::NodeChurn`] — or
    /// when the trace is exhausted. Both commands run the same step; they
    /// differ only in which steps they accept.
    DriftStep {
        /// Target session.
        session: String,
    },
    /// Advances the named session one step that changes the node set (the
    /// step remaps the cut pool, adds and deletes LP columns, and grafts
    /// and prunes schedule trees). Rejected when the next step does *not*
    /// change the node set.
    NodeChurn {
        /// Target session.
        session: String,
    },
    /// Reads the named session's current schedule statistics. Mutates
    /// nothing (logged like every command; replays as the same no-op).
    QuerySchedule {
        /// Target session.
        session: String,
    },
    /// Re-solves the named session's current platform snapshot in place —
    /// a warm no-op resolve exercising the persistent basis. Rejected
    /// before the first step.
    Resolve {
        /// Target session.
        session: String,
    },
    /// Canonicalizes every session and writes the service snapshot file.
    Snapshot,
}

impl Command {
    /// The session a command targets, if any.
    pub fn session(&self) -> Option<&str> {
        match self {
            Command::CreateSession { name, .. } => Some(name),
            Command::DriftStep { session }
            | Command::NodeChurn { session }
            | Command::QuerySchedule { session }
            | Command::Resolve { session } => Some(session),
            Command::Snapshot => None,
        }
    }

    /// Encodes the command as WAL payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        put_command(&mut w, self);
        w.into_bytes()
    }

    /// Decodes a command from WAL payload bytes (total: corrupt payloads
    /// yield `Err`, never a panic).
    pub fn decode(bytes: &[u8]) -> Result<Command, WireError> {
        let mut r = Reader::new(bytes);
        let command = get_command(&mut r)?;
        r.finish()?;
        Ok(command)
    }
}

fn put_family(w: &mut Writer, family: &PlatformFamily) {
    match *family {
        PlatformFamily::Random { nodes, density } => {
            w.put_u8(0);
            w.put_usize(nodes);
            w.put_f64(density);
        }
        PlatformFamily::Tiers { nodes, density } => {
            w.put_u8(1);
            w.put_usize(nodes);
            w.put_f64(density);
        }
        PlatformFamily::Gaussian { nodes } => {
            w.put_u8(2);
            w.put_usize(nodes);
        }
    }
}

fn get_family(r: &mut Reader) -> Result<PlatformFamily, WireError> {
    Ok(match r.get_u8()? {
        0 => PlatformFamily::Random {
            nodes: r.get_usize()?,
            density: r.get_f64()?,
        },
        1 => PlatformFamily::Tiers {
            nodes: r.get_usize()?,
            density: r.get_f64()?,
        },
        2 => PlatformFamily::Gaussian {
            nodes: r.get_usize()?,
        },
        t => return Err(WireError::BadTag(t)),
    })
}

pub(crate) fn put_spec(w: &mut Writer, spec: &SessionSpec) {
    put_family(w, &spec.family);
    w.put_u64(spec.platform_seed);
    w.put_f64(spec.slice_size);
    w.put_usize(spec.batch);
    w.put_usize(spec.drift_steps);
    w.put_u64(spec.drift_seed);
    w.put_bool(spec.churn);
}

pub(crate) fn get_spec(r: &mut Reader) -> Result<SessionSpec, WireError> {
    Ok(SessionSpec {
        family: get_family(r)?,
        platform_seed: r.get_u64()?,
        slice_size: r.get_f64()?,
        batch: r.get_usize()?,
        drift_steps: r.get_usize()?,
        drift_seed: r.get_u64()?,
        churn: r.get_bool()?,
    })
}

fn put_command(w: &mut Writer, command: &Command) {
    match command {
        Command::CreateSession { name, spec } => {
            w.put_u8(0);
            w.put_str(name);
            put_spec(w, spec);
        }
        Command::DriftStep { session } => {
            w.put_u8(1);
            w.put_str(session);
        }
        Command::NodeChurn { session } => {
            w.put_u8(2);
            w.put_str(session);
        }
        Command::QuerySchedule { session } => {
            w.put_u8(3);
            w.put_str(session);
        }
        Command::Resolve { session } => {
            w.put_u8(4);
            w.put_str(session);
        }
        Command::Snapshot => w.put_u8(5),
    }
}

fn get_command(r: &mut Reader) -> Result<Command, WireError> {
    Ok(match r.get_u8()? {
        0 => Command::CreateSession {
            name: r.get_str()?,
            spec: get_spec(r)?,
        },
        1 => Command::DriftStep {
            session: r.get_str()?,
        },
        2 => Command::NodeChurn {
            session: r.get_str()?,
        },
        3 => Command::QuerySchedule {
            session: r.get_str()?,
        },
        4 => Command::Resolve {
            session: r.get_str()?,
        },
        5 => Command::Snapshot,
        t => return Err(WireError::BadTag(t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specimen_spec() -> SessionSpec {
        SessionSpec {
            family: PlatformFamily::Tiers {
                nodes: 20,
                density: 0.10,
            },
            platform_seed: 7025,
            slice_size: 1.0e6,
            batch: 16,
            drift_steps: 8,
            drift_seed: 0xC4A1,
            churn: true,
        }
    }

    #[test]
    fn commands_round_trip() {
        let commands = vec![
            Command::CreateSession {
                name: "tiers-a".into(),
                spec: specimen_spec(),
            },
            Command::DriftStep {
                session: "tiers-a".into(),
            },
            Command::NodeChurn {
                session: "tiers-a".into(),
            },
            Command::QuerySchedule {
                session: "tiers-a".into(),
            },
            Command::Resolve {
                session: "tiers-a".into(),
            },
            Command::Snapshot,
        ];
        for command in commands {
            let bytes = command.encode();
            assert_eq!(Command::decode(&bytes).unwrap(), command);
        }
    }

    #[test]
    fn corrupt_command_bytes_fail_cleanly() {
        let bytes = Command::CreateSession {
            name: "x".into(),
            spec: specimen_spec(),
        }
        .encode();
        // Every truncation fails or decodes to *something* without
        // panicking; the full buffer with a bad tag fails.
        for cut in 0..bytes.len() {
            let _ = Command::decode(&bytes[..cut]);
        }
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(Command::decode(&bad).is_err());
    }
}
