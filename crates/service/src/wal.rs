//! The versioned write-ahead command log.
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic "BWAL" | version u32 | record*
//! record := len u32 | seq u64 | payload bytes | checksum u64
//! ```
//!
//! `len` counts the bytes *after* the length prefix (`8 + payload + 8`),
//! and the checksum is 64-bit FNV-1a over `seq || payload`. Appends are
//! flushed with `sync_data` before the command executes — the log is
//! write-*ahead*: a logged command may not have executed (recovery replays
//! it; execution is deterministic), but an executed command is always
//! logged.
//!
//! ## Torn-write detection
//!
//! [`Wal::read_records`] accepts the longest valid prefix: it stops at the
//! first record whose length prefix promises more bytes than remain, whose
//! checksum mismatches, or whose sequence number breaks the strictly
//! increasing chain — and reports *how* it stopped so the service can
//! count the discarded tail. A kill mid-append (or a literal power cut)
//! therefore costs at most the unacknowledged final command, never the
//! log.

use crate::error::ServiceError;
use crate::wire::{checksum, Reader, Writer};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const WAL_MAGIC: &[u8; 4] = b"BWAL";
/// WAL records carry commands and session specs but no solver options, so
/// the snapshot format's version 2 (which dropped the engine and pricing
/// option bytes) left the log format unchanged at version 1.
const WAL_VERSION: u32 = 1;

/// How reading the log ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// The file ended exactly on a record boundary.
    Clean,
    /// The final record was torn mid-write (short or checksum-mismatched);
    /// `dropped_bytes` of it were discarded.
    Torn {
        /// Bytes of the discarded tail.
        dropped_bytes: usize,
    },
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Strictly increasing sequence number (1-based).
    pub seq: u64,
    /// The encoded command (see `crate::command`).
    pub payload: Vec<u8>,
}

/// An open write-ahead log: an append handle plus the path for re-reads.
pub struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` and validates its
    /// header. A file too short to hold the header is treated as empty
    /// and re-headered — a kill between `create` and the header write is
    /// indistinguishable from that. A wrong magic or version is
    /// [`ServiceError::Corrupt`]: silently appending records another
    /// format's reader would misparse helps nobody.
    pub fn open(path: &Path) -> Result<Wal, ServiceError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len < 8 {
            file.set_len(0)?;
            let mut header = Writer::new();
            header.put_u8(WAL_MAGIC[0]);
            header.put_u8(WAL_MAGIC[1]);
            header.put_u8(WAL_MAGIC[2]);
            header.put_u8(WAL_MAGIC[3]);
            header.put_u32(WAL_VERSION);
            file.write_all(&header.into_bytes())?;
            file.sync_data()?;
        } else {
            let mut header = [0u8; 8];
            {
                let mut reader = &file;
                reader.read_exact(&mut header)?;
            }
            if &header[0..4] != WAL_MAGIC {
                return Err(ServiceError::Corrupt("WAL magic mismatch".into()));
            }
            let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
            if version != WAL_VERSION {
                return Err(ServiceError::Corrupt(format!(
                    "WAL version {version} (expected {WAL_VERSION})"
                )));
            }
        }
        Ok(Wal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Encodes one record (without appending it) — shared by the real
    /// append and the mid-append fault, which writes only a prefix.
    pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut record = Writer::new();
        record.put_u32((8 + payload.len() + 8) as u32);
        record.put_u64(seq);
        let mut sum_input = Vec::with_capacity(8 + payload.len());
        sum_input.extend_from_slice(&seq.to_le_bytes());
        sum_input.extend_from_slice(payload);
        let mut bytes = record.into_bytes();
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&checksum(&sum_input).to_le_bytes());
        bytes
    }

    /// Appends the record durably (`sync_data` before returning).
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> Result<(), ServiceError> {
        let bytes = Wal::encode_record(seq, payload);
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// The mid-append fault: writes roughly half the record and flushes,
    /// leaving a torn tail exactly as a crash mid-`write` would.
    pub fn append_torn(&mut self, seq: u64, payload: &[u8]) -> Result<(), ServiceError> {
        let bytes = Wal::encode_record(seq, payload);
        let cut = (bytes.len() / 2).max(1);
        self.file.write_all(&bytes[..cut])?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Reads every valid record (see the module docs for the acceptance
    /// rule) plus how the log ended.
    pub fn read_records(path: &Path) -> Result<(Vec<WalRecord>, WalTail), ServiceError> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < 8 || &bytes[0..4] != WAL_MAGIC {
            return Err(ServiceError::Corrupt("WAL header unreadable".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != WAL_VERSION {
            return Err(ServiceError::Corrupt(format!(
                "WAL version {version} (expected {WAL_VERSION})"
            )));
        }
        let mut records = Vec::new();
        let body = &bytes[8..];
        let mut pos = 0usize;
        let mut last_seq = 0u64;
        // Manual framing over `body`: any shortfall, checksum mismatch, or
        // sequence break from a record's start onward is a torn tail (the
        // valid prefix survives), not an error.
        while pos < body.len() {
            let dropped = body.len() - pos;
            let torn = WalTail::Torn {
                dropped_bytes: dropped,
            };
            if dropped < 4 {
                return Ok((records, torn));
            }
            let len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
            if len < 16 || len > dropped - 4 {
                return Ok((records, torn));
            }
            let mut reader = Reader::new(&body[pos + 4..pos + 4 + len]);
            let seq = reader.get_u64().expect("length checked above");
            let payload = body[pos + 12..pos + 4 + len - 8].to_vec();
            let stored_sum =
                u64::from_le_bytes(body[pos + 4 + len - 8..pos + 4 + len].try_into().unwrap());
            let mut sum_input = Vec::with_capacity(8 + payload.len());
            sum_input.extend_from_slice(&seq.to_le_bytes());
            sum_input.extend_from_slice(&payload);
            if checksum(&sum_input) != stored_sum || seq != last_seq + 1 {
                return Ok((records, torn));
            }
            last_seq = seq;
            records.push(WalRecord { seq, payload });
            pos += 4 + len;
        }
        Ok((records, WalTail::Clean))
    }

    /// Re-reads this log's records from disk.
    pub fn records(&self) -> Result<(Vec<WalRecord>, WalTail), ServiceError> {
        Wal::read_records(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{flip_byte, truncate_file};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bcast-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.bin");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(1, b"alpha").unwrap();
        wal.append(2, b"").unwrap();
        wal.append(3, b"gamma-gamma").unwrap();
        let (records, tail) = wal.records().unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].payload, b"alpha");
        assert_eq!(records[1].payload, b"");
        assert_eq!(records[2].seq, 3);

        // Re-open appends after the existing tail.
        let mut wal = Wal::open(&path).unwrap();
        wal.append(4, b"delta").unwrap();
        let (records, tail) = wal.records().unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.bin");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(1, b"keep me").unwrap();
        wal.append_torn(2, b"lose me").unwrap();
        let (records, tail) = Wal::read_records(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(tail, WalTail::Torn { dropped_bytes } if dropped_bytes > 0));

        // Every truncation point of a healthy two-record log yields a
        // valid (possibly empty) prefix — never an error, never garbage.
        let pristine = path.with_extension("pristine");
        {
            let mut wal = Wal::open(&pristine).unwrap();
            wal.append(1, b"first").unwrap();
            wal.append(2, b"second").unwrap();
        }
        let full_bytes = std::fs::read(&pristine).unwrap();
        for cut in 8..full_bytes.len() as u64 {
            std::fs::write(&path, &full_bytes).unwrap();
            truncate_file(&path, cut).unwrap();
            let (records, _) = Wal::read_records(&path).unwrap();
            assert!(records.len() <= 2, "cut at {cut}");
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.seq, i as u64 + 1, "cut at {cut}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_invalidates_the_record() {
        let dir = tmp_dir("flip");
        let path = dir.join("wal.bin");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(1, b"payload-bytes").unwrap();
        // Flip one payload byte (skip the 8-byte header, 4-byte len, 8-byte
        // seq): the checksum must reject the record.
        flip_byte(&path, 8 + 4 + 8 + 2).unwrap();
        let (records, tail) = Wal::read_records(&path).unwrap();
        assert!(records.is_empty());
        assert!(matches!(tail, WalTail::Torn { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
