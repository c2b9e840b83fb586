//! The service snapshot file: a single checksummed image of every
//! session's captured solver state plus the platform-digest cache.
//!
//! ## On-disk format
//!
//! ```text
//! file    := magic "BSNP" | version u32 | payload | checksum u64
//! payload := seq u64 | digest_cache | sessions
//! ```
//!
//! The checksum is 64-bit FNV-1a over the payload bytes. The file is
//! overwritten in place by each `Snapshot` command; a crash mid-write
//! therefore tears the *only* snapshot — which is safe, because the WAL is
//! never pruned: a rejected snapshot degrades recovery to a full command
//! replay from sequence 1, slower but bit-identical. The snapshot is an
//! optimization, never the authority.
//!
//! `seq` is the WAL sequence number of the `Snapshot` command itself:
//! recovery restores the image and replays only records with a larger
//! sequence number.

use crate::codec::{
    get_schedule_parts, get_session_snapshot, put_schedule_parts, put_session_snapshot,
};
use crate::command::{get_spec, put_spec};
use crate::error::ServiceError;
use crate::session::{SessionImage, StepStats};
use crate::wire::{checksum, Reader, WireError, Writer};
use std::collections::BTreeMap;
use std::path::Path;

const SNAP_MAGIC: &[u8; 4] = b"BSNP";
/// Version 2 dropped the engine and pricing bytes from the encoded
/// `SimplexOptions`, `FactSnapshot` and `CutGenOptions`; version 3 dropped
/// the secondary objective from the encoded `SimplexSnapshot`; version 4
/// dropped the four simplex tolerances from the encoded `SimplexOptions`
/// and the iteration budget from the encoded `CutGenOptions`; version 5
/// stores each `SimplexSnapshot` row once, as declared, and a deleted row
/// as an empty slot (the per-row liveness flags, the row groups and their
/// operators went, and the base group count became a base row count), and
/// drops each `CutSnapshot`'s crossing edges, which restore recomputes
/// from the cut's node side; version 6 stores a schedule as the parts its
/// timetable is assembled from (source, model, slice size, LP bound, trees
/// and rounding), dropping the period, transfers, rounds, port busy times
/// and largest lag, which restore re-assembles, and drops each
/// `FactSnapshot`'s artificial-column list and row positions (a row's
/// position is its rank among the live rows); version 7 drops the port
/// model byte from a schedule's parts, since every schedule is one-port.
/// Older files are rejected as corrupt and recovery replays the WAL
/// instead.
const SNAP_VERSION: u32 = 7;

/// Everything a snapshot file holds.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceImage {
    /// WAL sequence number of the `Snapshot` command that produced this
    /// image; replay resumes after it.
    pub seq: u64,
    /// Platform digest → active cuts of the first solve on a platform with
    /// that digest.
    pub digest_cache: BTreeMap<u64, Vec<Vec<bool>>>,
    /// Name-sorted session images.
    pub sessions: Vec<(String, SessionImage)>,
}

fn put_step_stats(w: &mut Writer, s: &StepStats) {
    w.put_usize(s.step);
    w.put_f64(s.tp);
    w.put_usize(s.pivots);
    w.put_usize(s.rounds);
    w.put_usize(s.reused_cuts);
    w.put_usize(s.kept_trees);
    w.put_usize(s.repair_ops);
    w.put_usize(s.grafted);
    w.put_usize(s.pruned);
    w.put_f64(s.efficiency);
    w.put_f64(s.sim_tp);
}

fn get_step_stats(r: &mut Reader) -> Result<StepStats, WireError> {
    Ok(StepStats {
        step: r.get_usize()?,
        tp: r.get_f64()?,
        pivots: r.get_usize()?,
        rounds: r.get_usize()?,
        reused_cuts: r.get_usize()?,
        kept_trees: r.get_usize()?,
        repair_ops: r.get_usize()?,
        grafted: r.get_usize()?,
        pruned: r.get_usize()?,
        efficiency: r.get_f64()?,
        sim_tp: r.get_f64()?,
    })
}

fn put_session_image(w: &mut Writer, image: &SessionImage) {
    put_spec(w, &image.spec);
    w.put_usize(image.steps_done);
    put_session_snapshot(w, &image.solver);
    match &image.schedule {
        None => w.put_u8(0),
        Some(parts) => {
            w.put_u8(1);
            put_schedule_parts(w, parts);
        }
    }
    w.put_seq(&image.log, put_step_stats);
}

fn get_session_image(r: &mut Reader) -> Result<SessionImage, WireError> {
    let spec = get_spec(r)?;
    let steps_done = r.get_usize()?;
    let solver = get_session_snapshot(r)?;
    let schedule = match r.get_u8()? {
        0 => None,
        1 => Some(get_schedule_parts(r)?),
        t => return Err(WireError::BadTag(t)),
    };
    let log = r.get_seq(88, get_step_stats)?;
    Ok(SessionImage {
        spec,
        steps_done,
        solver,
        schedule,
        log,
    })
}

/// Encodes the full file bytes (magic, version, payload, checksum).
pub fn encode_snapshot(image: &ServiceImage) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.put_u64(image.seq);
    payload.put_usize(image.digest_cache.len());
    for (digest, cuts) in &image.digest_cache {
        payload.put_u64(*digest);
        payload.put_seq(cuts, |w, side| {
            w.put_seq(side, |w, b| w.put_bool(*b));
        });
    }
    payload.put_usize(image.sessions.len());
    for (name, session) in &image.sessions {
        payload.put_str(name);
        put_session_image(&mut payload, session);
    }
    let payload = payload.into_bytes();
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
    bytes
}

/// Decodes full file bytes. Any damage — short file, bad magic or
/// version, checksum mismatch, malformed payload — is an `Err`, never a
/// panic: the caller degrades to WAL replay.
pub fn decode_snapshot(bytes: &[u8]) -> Result<ServiceImage, ServiceError> {
    if bytes.len() < 16 {
        return Err(ServiceError::Corrupt("snapshot file too short".into()));
    }
    if &bytes[0..4] != SNAP_MAGIC {
        return Err(ServiceError::Corrupt("snapshot magic mismatch".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(ServiceError::Corrupt(format!(
            "snapshot version {version} (expected {SNAP_VERSION})"
        )));
    }
    let payload = &bytes[8..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if checksum(payload) != stored {
        return Err(ServiceError::Corrupt("snapshot checksum mismatch".into()));
    }
    let mut r = Reader::new(payload);
    let seq = r.get_u64()?;
    let cache_len = r.get_len(16)?;
    let mut digest_cache = BTreeMap::new();
    for _ in 0..cache_len {
        let digest = r.get_u64()?;
        let cuts = r.get_seq(8, |r| r.get_seq(1, |r| r.get_bool()))?;
        digest_cache.insert(digest, cuts);
    }
    let n_sessions = r.get_len(8)?;
    let mut sessions = Vec::with_capacity(n_sessions);
    for _ in 0..n_sessions {
        let name = r.get_str()?;
        let image = get_session_image(&mut r)?;
        sessions.push((name, image));
    }
    r.finish()?;
    Ok(ServiceImage {
        seq,
        digest_cache,
        sessions,
    })
}

/// Writes the snapshot file in place, durably. `torn` simulates a crash
/// mid-write: only the first half of the bytes land on disk.
pub fn write_snapshot(path: &Path, image: &ServiceImage, torn: bool) -> Result<(), ServiceError> {
    use std::io::Write;
    let bytes = encode_snapshot(image);
    let cut = if torn {
        (bytes.len() / 2).max(1)
    } else {
        bytes.len()
    };
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes[..cut])?;
    file.sync_all()?;
    Ok(())
}

/// Reads the snapshot file. `Ok(None)` when absent (a fresh directory);
/// `Err(Corrupt)` on any damage.
pub fn read_snapshot(path: &Path) -> Result<Option<ServiceImage>, ServiceError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ServiceError::Io(e)),
    };
    decode_snapshot(&bytes).map(Some)
}
