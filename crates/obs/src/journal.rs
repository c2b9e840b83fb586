//! The structured JSONL event journal.
//!
//! [`install_journal`] opens (truncates) a file, writes a `meta` record,
//! resets the span/metric accumulators, and enables the sink; from then on
//! every [`emit`] appends one JSON object per line. [`flush_journal`]
//! appends the sorted span/counter/gauge dumps plus a final `run_end`
//! record carrying the run's wall-clock, then disables the sink.
//!
//! The schema is versioned ([`SCHEMA`]) and the field order of every record
//! type is fixed, so two runs of the same deterministic pipeline produce
//! byte-identical journals modulo the wall-clock fields (`t_ns`, `warm_ns`,
//! `cold_ns`, `total_ns`, `wall_ns` — everything `_ns`-suffixed). The
//! golden test in `crates/experiments` relies on exactly that.
//!
//! Every event record carries a `"span"` field holding the emitting
//! thread's current span path, which is how `solver_report` attributes LP
//! solves (and their pivots) to pipeline phases.
//!
//! JSON is hand-built: the journal is part of the zero-dependency leaf
//! crate, so there is no serde here. Floats go through Rust's shortest
//! round-trip `Display` (non-finite values become `null`).

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The journal schema version, written into the `meta` record. Bump it
/// whenever a record type, field, or stable dotted name changes meaning.
pub const SCHEMA: &str = "bcast-obs/2";

/// What produced an `lp_solve` record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpSolveKind {
    /// A from-scratch (phase-1 + phase-2) solve.
    Cold,
    /// A warm re-optimization of a persistent incremental state.
    Resolve,
}

impl LpSolveKind {
    fn as_str(self) -> &'static str {
        match self {
            LpSolveKind::Cold => "cold",
            LpSolveKind::Resolve => "resolve",
        }
    }
}

/// What produced a `sched_repair` record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// A full schedule synthesis from an optimal solution.
    Synthesize,
    /// An incremental repair of a step that kept the node set (an
    /// identity remap: only link costs drifted).
    Repair,
    /// An incremental repair of a step that changed the node set.
    RepairChurn,
}

impl RepairKind {
    fn as_str(self) -> &'static str {
        match self {
            RepairKind::Synthesize => "synthesize",
            RepairKind::Repair => "repair",
            RepairKind::RepairChurn => "repair_churn",
        }
    }
}

/// One journal event. Serialized as a single JSON line with fixed field
/// order; see the module docs for the schema.
#[derive(Clone, Debug)]
pub enum Event {
    /// One LP solve, cold or warm.
    LpSolve {
        /// Cold solve or incremental resolve.
        kind: LpSolveKind,
        /// Live constraint rows at solve time (deleted rows not counted).
        rows: usize,
        /// Live structural columns at solve time (deleted columns not
        /// counted).
        cols: usize,
        /// Simplex pivots this solve performed.
        pivots: u64,
        /// Terminal status (`"optimal"`, `"unbounded"`, …).
        status: &'static str,
        /// Wall-clock of the solve, nanoseconds.
        t_ns: u64,
    },
    /// One separation round of the cut-generation loop.
    SepRound {
        /// Session step (0 for one-shot solves).
        step: u64,
        /// Round index within the solve, starting at 1.
        round: u64,
        /// Master-LP throughput at the end of the round.
        tp: f64,
        /// Violated cuts added this round.
        new_cuts: u64,
        /// Separations skipped by the screen this round.
        screened: u64,
        /// Wall-clock of the round, nanoseconds.
        t_ns: u64,
    },
    /// One completed cut-generation solve (a session step or a one-shot).
    CutGenStep {
        /// Session step (0 for one-shot solves).
        step: u64,
        /// Separation rounds the solve took.
        rounds: u64,
        /// Simplex pivots the solve took (master re-solves included).
        pivots: u64,
        /// Cuts carried over from the previous step's pool.
        reused_cuts: u64,
        /// Optimal throughput reached.
        tp: f64,
        /// Wall-clock of the solve, nanoseconds.
        t_ns: u64,
    },
    /// One schedule synthesis or repair.
    SchedRepair {
        /// Full synthesis, drift repair, or churn repair.
        kind: RepairKind,
        /// True when a repair fell back to full resynthesis.
        full_rebuild: bool,
        /// Previous-period trees kept.
        kept: u64,
        /// Nodes grafted onto kept trees.
        grafted: u64,
        /// Nodes pruned from kept trees.
        pruned: u64,
        /// Achieved/optimal throughput ratio of the result.
        efficiency: f64,
        /// Wall-clock, nanoseconds.
        t_ns: u64,
    },
    /// One step of a drift or churn trace (emitted by the experiment
    /// binaries, which see both the warm and the cold side).
    DriftStep {
        /// Step index within the trace.
        step: u64,
        /// `"drift"` or `"churn"`.
        kind: &'static str,
        /// Wall-clock of the warm-started solve, nanoseconds.
        warm_ns: u64,
        /// Wall-clock of the cold baseline solve, nanoseconds.
        cold_ns: u64,
        /// Relative throughput disagreement between the two solves.
        tp_rel_err: f64,
    },
}

struct JournalState {
    writer: BufWriter<File>,
    start: Instant,
}

static JOURNAL: Mutex<Option<JournalState>> = Mutex::new(None);

/// Appends a minimally escaped JSON string literal to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an f64 as JSON (`null` when non-finite; Rust's shortest
/// round-trip `Display` otherwise, with a `.0` forced onto integral values
/// so the field stays typed as a float).
fn push_json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else {
        let len = out.len();
        let _ = write!(out, "{v}");
        if !out[len..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

impl Event {
    /// Renders the event as one JSON line (no trailing newline), tagged
    /// with `span` — the emitting thread's span path at emit time.
    fn to_json(&self, span: &str) -> String {
        let mut s = String::with_capacity(160);
        match self {
            Event::LpSolve {
                kind,
                rows,
                cols,
                pivots,
                status,
                t_ns,
            } => {
                s.push_str("{\"type\":\"lp_solve\",\"span\":");
                push_json_str(&mut s, span);
                let _ = write!(
                    s,
                    ",\"kind\":\"{}\",\"rows\":{rows},\"cols\":{cols},\
                     \"pivots\":{pivots},\"status\":\"{status}\",\"t_ns\":{t_ns}}}",
                    kind.as_str(),
                );
            }
            Event::SepRound {
                step,
                round,
                tp,
                new_cuts,
                screened,
                t_ns,
            } => {
                s.push_str("{\"type\":\"sep_round\",\"span\":");
                push_json_str(&mut s, span);
                let _ = write!(s, ",\"step\":{step},\"round\":{round},\"tp\":");
                push_json_f64(&mut s, *tp);
                let _ = write!(
                    s,
                    ",\"new_cuts\":{new_cuts},\"screened\":{screened},\"t_ns\":{t_ns}}}"
                );
            }
            Event::CutGenStep {
                step,
                rounds,
                pivots,
                reused_cuts,
                tp,
                t_ns,
            } => {
                s.push_str("{\"type\":\"cutgen_step\",\"span\":");
                push_json_str(&mut s, span);
                let _ = write!(
                    s,
                    ",\"step\":{step},\"rounds\":{rounds},\"pivots\":{pivots},\
                     \"reused_cuts\":{reused_cuts},\"tp\":"
                );
                push_json_f64(&mut s, *tp);
                let _ = write!(s, ",\"t_ns\":{t_ns}}}");
            }
            Event::SchedRepair {
                kind,
                full_rebuild,
                kept,
                grafted,
                pruned,
                efficiency,
                t_ns,
            } => {
                s.push_str("{\"type\":\"sched_repair\",\"span\":");
                push_json_str(&mut s, span);
                let _ = write!(
                    s,
                    ",\"kind\":\"{}\",\"full_rebuild\":{full_rebuild},\"kept\":{kept},\
                     \"grafted\":{grafted},\"pruned\":{pruned},\"efficiency\":",
                    kind.as_str(),
                );
                push_json_f64(&mut s, *efficiency);
                let _ = write!(s, ",\"t_ns\":{t_ns}}}");
            }
            Event::DriftStep {
                step,
                kind,
                warm_ns,
                cold_ns,
                tp_rel_err,
            } => {
                s.push_str("{\"type\":\"drift_step\",\"span\":");
                push_json_str(&mut s, span);
                let _ = write!(
                    s,
                    ",\"step\":{step},\"kind\":\"{kind}\",\"warm_ns\":{warm_ns},\
                     \"cold_ns\":{cold_ns},\"tp_rel_err\":"
                );
                push_json_f64(&mut s, *tp_rel_err);
                s.push('}');
            }
        }
        s
    }
}

/// Opens `path` (truncating any previous journal), writes the `meta`
/// record, clears the span/counter accumulators, and enables the sink.
/// `binary` names the producing program and lands in the `meta` record.
pub fn install_journal(path: &Path, binary: &str) -> io::Result<()> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    let mut meta = String::with_capacity(80);
    meta.push_str("{\"type\":\"meta\",\"schema\":");
    push_json_str(&mut meta, SCHEMA);
    meta.push_str(",\"binary\":");
    push_json_str(&mut meta, binary);
    meta.push('}');
    writeln!(writer, "{meta}")?;
    let mut journal = JOURNAL.lock().expect("journal poisoned");
    *journal = Some(JournalState {
        writer,
        start: Instant::now(),
    });
    drop(journal);
    crate::reset_spans();
    crate::reset_metrics();
    crate::enable();
    Ok(())
}

/// True while a journal sink is installed (between [`install_journal`] and
/// [`flush_journal`]).
pub fn journal_installed() -> bool {
    crate::enabled() && JOURNAL.lock().expect("journal poisoned").is_some()
}

/// Appends one event record to the installed journal. A no-op (one atomic
/// load) when the sink is disabled, and free of I/O when no journal is
/// installed (plain [`crate::enable`] without a journal).
pub fn emit(event: Event) {
    if !crate::enabled() {
        return;
    }
    let mut journal = JOURNAL.lock().expect("journal poisoned");
    if let Some(state) = journal.as_mut() {
        let line = event.to_json(&crate::span::current_path());
        let _ = writeln!(state.writer, "{line}");
    }
}

/// Like [`emit`], but builds the event lazily — use when assembling the
/// record itself costs something (allocation, arithmetic over large
/// structures) that the disabled path must not pay.
pub fn emit_with(f: impl FnOnce() -> Event) {
    if !crate::enabled() {
        return;
    }
    emit(f());
}

/// Appends the sorted span/counter/gauge dumps and the final `run_end`
/// record (carrying the wall-clock since [`install_journal`]), flushes the
/// file, removes the sink, and disables collection. A no-op when no
/// journal is installed.
pub fn flush_journal() -> io::Result<()> {
    let Some(mut state) = JOURNAL.lock().expect("journal poisoned").take() else {
        return Ok(());
    };
    for (path, stat) in crate::span_stats() {
        let mut line = String::with_capacity(96);
        line.push_str("{\"type\":\"span\",\"path\":");
        push_json_str(&mut line, &path);
        let _ = write!(
            line,
            ",\"calls\":{},\"total_ns\":{}}}",
            stat.calls, stat.total_ns
        );
        writeln!(state.writer, "{line}")?;
    }
    for (name, value) in crate::counters_snapshot() {
        let mut line = String::with_capacity(64);
        line.push_str("{\"type\":\"counter\",\"name\":");
        push_json_str(&mut line, name);
        let _ = write!(line, ",\"value\":{value}}}");
        writeln!(state.writer, "{line}")?;
    }
    for (name, value) in crate::gauges_snapshot() {
        let mut line = String::with_capacity(64);
        line.push_str("{\"type\":\"gauge\",\"name\":");
        push_json_str(&mut line, name);
        line.push_str(",\"value\":");
        push_json_f64(&mut line, value);
        line.push('}');
        writeln!(state.writer, "{line}")?;
    }
    writeln!(
        state.writer,
        "{{\"type\":\"run_end\",\"wall_ns\":{}}}",
        state.start.elapsed().as_nanos() as u64
    )?;
    state.writer.flush()?;
    crate::disable();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::sink_lock;

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bcast-obs-test-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn journal_round_trip_has_fixed_field_order() {
        let _guard = sink_lock();
        let path = temp_journal("roundtrip");
        install_journal(&path, "unit-test").unwrap();
        {
            let _s = crate::span::SpanGuard::enter("phase");
            emit(Event::LpSolve {
                kind: LpSolveKind::Resolve,
                rows: 12,
                cols: 30,
                pivots: 44,
                status: "optimal",
                t_ns: 1234,
            });
        }
        crate::counter_add("test.pivots", 44);
        crate::gauge_set("test.level", 2.0);
        emit(Event::DriftStep {
            step: 3,
            kind: "drift",
            warm_ns: 10,
            cold_ns: 20,
            tp_rel_err: 0.0,
        });
        flush_journal().unwrap();
        assert!(!journal_installed());

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"meta\",\"schema\":\"bcast-obs/2\",\"binary\":\"unit-test\"}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"lp_solve\",\"span\":\"phase\",\"kind\":\"resolve\",\
             \"rows\":12,\"cols\":30,\"pivots\":44,\"status\":\"optimal\",\"t_ns\":1234}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"drift_step\",\"span\":\"\",\"step\":3,\"kind\":\"drift\",\
             \"warm_ns\":10,\"cold_ns\":20,\"tp_rel_err\":0.0}"
        );
        // span dump (sorted), then counters, then gauges, then run_end.
        assert!(lines[3].starts_with("{\"type\":\"span\",\"path\":\"phase\",\"calls\":1,"));
        assert_eq!(
            lines[4],
            "{\"type\":\"counter\",\"name\":\"test.pivots\",\"value\":44}"
        );
        assert_eq!(
            lines[5],
            "{\"type\":\"gauge\",\"name\":\"test.level\",\"value\":2.0}"
        );
        assert!(lines[6].starts_with("{\"type\":\"run_end\",\"wall_ns\":"));
        assert_eq!(lines.len(), 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn emit_without_journal_is_a_no_op() {
        let _guard = sink_lock();
        crate::disable();
        assert!(!journal_installed());
        emit(Event::DriftStep {
            step: 0,
            kind: "drift",
            warm_ns: 0,
            cold_ns: 0,
            tp_rel_err: 0.0,
        });
        // enable() without a journal: emit locks, finds no sink, drops.
        crate::enable();
        emit_with(|| Event::DriftStep {
            step: 0,
            kind: "drift",
            warm_ns: 0,
            cold_ns: 0,
            tp_rel_err: 0.0,
        });
        crate::disable();
        flush_journal().unwrap();
    }

    #[test]
    fn json_floats_are_shortest_roundtrip_with_forced_point() {
        let mut s = String::new();
        push_json_f64(&mut s, 1.0);
        s.push(' ');
        push_json_f64(&mut s, 0.30000000000000004);
        s.push(' ');
        push_json_f64(&mut s, f64::NAN);
        assert_eq!(s, "1.0 0.30000000000000004 null");
    }
}
