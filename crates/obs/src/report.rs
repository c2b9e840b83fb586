//! Journal ingestion: parsing, schema validation, and the per-phase
//! breakdown behind the `solver_report` binary.
//!
//! Journals are flat JSON objects, one per line (see [`crate::journal`]),
//! so the parser here handles exactly that subset: string, number, bool,
//! and null values — no nesting. It is hand-rolled because this crate sits
//! at the bottom of the workspace dependency graph and pulls in nothing.
//!
//! [`check`] validates a journal against the [`crate::journal::SCHEMA`]
//! contract (known record types, required fields of the right kind, meta
//! first, run_end present). [`build_report`] turns a valid journal into a
//! [`Report`]: the span tree with inclusive/self times, per-phase pivot
//! attribution from `lp_solve` records, hot-kernel aggregation by leaf
//! name, and the span-coverage ratio (summed depth-0 span time over
//! measured wall-clock).

use std::collections::HashMap;

use crate::journal::SCHEMA;

// ---- flat JSON ---------------------------------------------------------

/// A scalar value of a flat journal record.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A JSON number (journals never need more than f64 range).
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON null (non-finite floats are journaled as null).
    Null,
}

/// One parsed journal record: key → scalar, insertion order dropped.
pub type Record = HashMap<String, Value>;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number {text:?}"))
            }
            Some(b'{' | b'[') => Err("nested values are not part of the journal schema".into()),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected keyword {word:?}"))
        }
    }
}

/// Parses one journal line — a flat JSON object of scalar values.
pub fn parse_line(line: &str) -> Result<Record, String> {
    let mut p = Parser::new(line);
    p.expect(b'{')?;
    let mut record = Record::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.bump();
        return Ok(record);
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.expect(b':')?;
        let value = p.parse_value()?;
        record.insert(key, value);
        p.skip_ws();
        match p.bump() {
            Some(b',') => continue,
            Some(b'}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    p.skip_ws();
    if p.peek().is_some() {
        return Err("trailing bytes after object".into());
    }
    Ok(record)
}

// ---- schema validation -------------------------------------------------

/// Field kinds of the schema contract.
#[derive(Clone, Copy)]
enum Kind {
    Str,
    Num,
    Bool,
    /// Number or null (non-finite floats journal as null).
    NumOrNull,
}

fn required_fields(record_type: &str) -> Option<&'static [(&'static str, Kind)]> {
    use Kind::*;
    Some(match record_type {
        "meta" => &[("schema", Str), ("binary", Str)],
        "lp_solve" => &[
            ("span", Str),
            ("kind", Str),
            ("rows", Num),
            ("cols", Num),
            ("pivots", Num),
            ("status", Str),
            ("t_ns", Num),
        ],
        "sep_round" => &[
            ("span", Str),
            ("step", Num),
            ("round", Num),
            ("tp", NumOrNull),
            ("new_cuts", Num),
            ("screened", Num),
            ("t_ns", Num),
        ],
        "cutgen_step" => &[
            ("span", Str),
            ("step", Num),
            ("rounds", Num),
            ("pivots", Num),
            ("reused_cuts", Num),
            ("tp", NumOrNull),
            ("t_ns", Num),
        ],
        "sched_repair" => &[
            ("span", Str),
            ("kind", Str),
            ("full_rebuild", Bool),
            ("kept", Num),
            ("grafted", Num),
            ("pruned", Num),
            ("efficiency", NumOrNull),
            ("t_ns", Num),
        ],
        "drift_step" => &[
            ("span", Str),
            ("step", Num),
            ("kind", Str),
            ("warm_ns", Num),
            ("cold_ns", Num),
            ("tp_rel_err", NumOrNull),
        ],
        "span" => &[("path", Str), ("calls", Num), ("total_ns", Num)],
        "counter" => &[("name", Str), ("value", Num)],
        "gauge" => &[("name", Str), ("value", NumOrNull)],
        "run_end" => &[("wall_ns", Num)],
        _ => return None,
    })
}

fn kind_matches(value: &Value, kind: Kind) -> bool {
    matches!(
        (value, kind),
        (Value::Str(_), Kind::Str)
            | (Value::Num(_), Kind::Num)
            | (Value::Bool(_), Kind::Bool)
            | (Value::Num(_) | Value::Null, Kind::NumOrNull)
    )
}

/// Summary returned by a successful [`check`].
#[derive(Debug)]
pub struct CheckSummary {
    /// Total records in the journal.
    pub records: usize,
    /// Record count per type, sorted by type name.
    pub by_type: Vec<(String, usize)>,
}

/// Validates journal text against the schema contract: every line parses
/// as a flat object with a known `type`, all required fields present with
/// the right kind, a `meta` record (with the supported schema version)
/// first, and a `run_end` record present.
pub fn check(text: &str) -> Result<CheckSummary, String> {
    let mut by_type: HashMap<String, usize> = HashMap::new();
    let mut saw_run_end = false;
    let mut records = 0usize;
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        // A final line that fails to parse is almost always a torn write —
        // the producer died (or was killed) mid-record. Name it as such so
        // the CI gate's failure reads as "crash artifact", not "schema
        // drift"; either way the check fails.
        let record = match parse_line(line) {
            Ok(record) => record,
            Err(e) if i + 1 == lines.len() && records > 0 => {
                return Err(format!(
                    "line {lineno}: torn final record (journal truncated mid-write): {e}"
                ))
            }
            Err(e) => return Err(format!("line {lineno}: {e}")),
        };
        let Some(Value::Str(rtype)) = record.get("type") else {
            return Err(format!("line {lineno}: missing string field \"type\""));
        };
        let fields = required_fields(rtype)
            .ok_or_else(|| format!("line {lineno}: unknown record type {rtype:?}"))?;
        for &(name, kind) in fields {
            match record.get(name) {
                None => {
                    return Err(format!(
                        "line {lineno}: {rtype} record missing field {name:?}"
                    ))
                }
                Some(v) if !kind_matches(v, kind) => {
                    return Err(format!(
                        "line {lineno}: {rtype} field {name:?} has wrong kind"
                    ))
                }
                Some(_) => {}
            }
        }
        if lineno == 1 {
            if rtype != "meta" {
                return Err("line 1: journal must start with a meta record".into());
            }
            match record.get("schema") {
                Some(Value::Str(s)) if s == SCHEMA => {}
                Some(Value::Str(s)) => {
                    return Err(format!("unsupported schema {s:?} (expected {SCHEMA:?})"))
                }
                _ => unreachable!("schema presence checked above"),
            }
        } else if rtype == "meta" {
            return Err(format!("line {lineno}: duplicate meta record"));
        }
        saw_run_end |= rtype == "run_end";
        *by_type.entry(rtype.clone()).or_insert(0) += 1;
        records += 1;
    }
    if records == 0 {
        return Err("empty journal".into());
    }
    if !saw_run_end {
        return Err("journal has no run_end record (was flush_journal called?)".into());
    }
    let mut by_type: Vec<(String, usize)> = by_type.into_iter().collect();
    by_type.sort();
    Ok(CheckSummary { records, by_type })
}

// ---- the per-phase breakdown -------------------------------------------

/// One row of the phase table: a span path with inclusive/self time and
/// the pivots of the LP solves that ran under it.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Full span path (`/`-joined names).
    pub path: String,
    /// Nesting depth (number of `/` separators).
    pub depth: usize,
    /// Completed spans recorded under this path.
    pub calls: u64,
    /// Inclusive wall-clock, nanoseconds.
    pub total_ns: u64,
    /// Inclusive minus the direct children's inclusive time.
    pub self_ns: u64,
    /// Simplex pivots of `lp_solve` records emitted at or under this path.
    pub pivots: u64,
}

/// One row of the hot-kernel table: a span leaf name aggregated across
/// every path it appears under.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// The leaf span name (e.g. `lp.ftran`).
    pub name: String,
    /// Summed calls across all paths ending in this name.
    pub calls: u64,
    /// Summed inclusive time across those paths, nanoseconds.
    pub total_ns: u64,
}

/// The digested journal behind `solver_report`.
#[derive(Debug)]
pub struct Report {
    /// Producing binary, from the meta record.
    pub binary: String,
    /// Run wall-clock from the `run_end` record, nanoseconds.
    pub wall_ns: u64,
    /// Span tree rows in path order (so children follow their parent).
    pub phases: Vec<PhaseRow>,
    /// Leaf-name aggregation, sorted by total time descending.
    pub kernels: Vec<KernelRow>,
    /// Counter dump, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Summed depth-0 span time over `wall_ns` — the fraction of the run
    /// the span tree accounts for.
    pub coverage: f64,
    /// Total LP solves seen, split (cold, resolve).
    pub lp_solves: (u64, u64),
}

fn num(record: &Record, key: &str) -> f64 {
    match record.get(key) {
        Some(Value::Num(n)) => *n,
        _ => 0.0,
    }
}

fn str_field<'r>(record: &'r Record, key: &str) -> &'r str {
    match record.get(key) {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

/// Builds the [`Report`] from validated journal text. Call [`check`]
/// first; this function assumes the schema holds and skips unparseable
/// lines silently.
pub fn build_report(text: &str) -> Report {
    let mut binary = String::new();
    let mut wall_ns = 0u64;
    let mut spans: Vec<(String, u64, u64)> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut pivots_by_span: HashMap<String, u64> = HashMap::new();
    let mut lp_cold = 0u64;
    let mut lp_resolve = 0u64;
    for line in text.lines() {
        let Ok(record) = parse_line(line) else {
            continue;
        };
        match str_field(&record, "type") {
            "meta" => binary = str_field(&record, "binary").to_string(),
            "run_end" => wall_ns = num(&record, "wall_ns") as u64,
            "span" => spans.push((
                str_field(&record, "path").to_string(),
                num(&record, "calls") as u64,
                num(&record, "total_ns") as u64,
            )),
            "counter" => counters.push((
                str_field(&record, "name").to_string(),
                num(&record, "value") as u64,
            )),
            "lp_solve" => {
                *pivots_by_span
                    .entry(str_field(&record, "span").to_string())
                    .or_insert(0) += num(&record, "pivots") as u64;
                match str_field(&record, "kind") {
                    "resolve" => lp_resolve += 1,
                    _ => lp_cold += 1,
                }
            }
            _ => {}
        }
    }
    spans.sort_by(|a, b| a.0.cmp(&b.0));

    let mut phases: Vec<PhaseRow> = Vec::with_capacity(spans.len());
    for (path, calls, total_ns) in &spans {
        let depth = path.matches('/').count();
        let child_prefix = format!("{path}/");
        let children_ns: u64 = spans
            .iter()
            .filter(|(p, _, _)| {
                p.starts_with(&child_prefix) && p[child_prefix.len()..].matches('/').count() == 0
            })
            .map(|(_, _, ns)| *ns)
            .sum();
        let pivots: u64 = pivots_by_span
            .iter()
            .filter(|(span, _)| *span == path || span.starts_with(&child_prefix))
            .map(|(_, p)| *p)
            .sum();
        phases.push(PhaseRow {
            path: path.clone(),
            depth,
            calls: *calls,
            total_ns: *total_ns,
            self_ns: total_ns.saturating_sub(children_ns),
            pivots,
        });
    }

    let mut kernel_map: HashMap<&str, (u64, u64)> = HashMap::new();
    for (path, calls, total_ns) in &spans {
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let entry = kernel_map.entry(leaf).or_insert((0, 0));
        entry.0 += calls;
        entry.1 += total_ns;
    }
    let mut kernels: Vec<KernelRow> = kernel_map
        .into_iter()
        .map(|(name, (calls, total_ns))| KernelRow {
            name: name.to_string(),
            calls,
            total_ns,
        })
        .collect();
    kernels.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

    let root_ns: u64 = phases
        .iter()
        .filter(|row| row.depth == 0)
        .map(|row| row.total_ns)
        .sum();
    let coverage = if wall_ns > 0 {
        root_ns as f64 / wall_ns as f64
    } else {
        0.0
    };

    Report {
        binary,
        wall_ns,
        phases,
        kernels,
        counters,
        coverage,
        lp_solves: (lp_cold, lp_resolve),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

/// Renders the report as the text `solver_report` prints.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "journal: {} ({})\nwall-clock: {:.3} s   span coverage: {:.1}%   lp solves: {} cold + {} warm\n\n",
        report.binary,
        SCHEMA,
        report.wall_ns as f64 / 1.0e9,
        report.coverage * 100.0,
        report.lp_solves.0,
        report.lp_solves.1,
    ));
    out.push_str(&format!(
        "{:<52} {:>9} {:>11} {:>11} {:>7} {:>10}\n",
        "phase", "calls", "total ms", "self ms", "% wall", "pivots"
    ));
    for row in &report.phases {
        let name = row.path.rsplit('/').next().unwrap_or(&row.path);
        let label = format!("{}{}", "  ".repeat(row.depth), name);
        let pct = if report.wall_ns > 0 {
            row.total_ns as f64 / report.wall_ns as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<52} {:>9} {:>11.1} {:>11.1} {:>6.1}% {:>10}\n",
            label,
            row.calls,
            ms(row.total_ns),
            ms(row.self_ns),
            pct,
            row.pivots,
        ));
    }
    if !report.kernels.is_empty() {
        out.push_str(&format!(
            "\n{:<28} {:>11} {:>11}\n",
            "kernel (all paths)", "calls", "total ms"
        ));
        for k in &report.kernels {
            out.push_str(&format!(
                "{:<28} {:>11} {:>11.1}\n",
                k.name,
                k.calls,
                ms(k.total_ns)
            ));
        }
    }
    if !report.counters.is_empty() {
        out.push_str(&format!("\n{:<36} {:>14}\n", "counter", "value"));
        for (name, value) in &report.counters {
            out.push_str(&format!("{name:<36} {value:>14}\n"));
        }
    }
    out
}

// ---- two journals side by side -----------------------------------------

/// One row of [`diff`]: a span leaf name's `(calls, total_ns)` in two
/// journals, `(0, 0)` on a side where the name does not appear.
#[derive(Debug)]
pub(crate) struct KernelDelta {
    /// The leaf span name.
    name: String,
    /// Calls and inclusive nanoseconds in the first journal.
    before: (u64, u64),
    /// Calls and inclusive nanoseconds in the second journal.
    after: (u64, u64),
}

fn ms_per_call((calls, total_ns): (u64, u64)) -> Option<f64> {
    (calls > 0).then(|| ms(total_ns) / calls as f64)
}

impl KernelDelta {
    /// Milliseconds per call in the second journal over the first: 1 when
    /// they are equal, `None` when a side has no call.
    fn ratio(&self) -> Option<f64> {
        let (before, after) = (ms_per_call(self.before)?, ms_per_call(self.after)?);
        Some(if after == before { 1.0 } else { after / before })
    }

    /// The change in total time, second journal minus first, in ms.
    fn delta_ms(&self) -> f64 {
        ms(self.after.1) - ms(self.before.1)
    }
}

/// Pairs the hot-kernel tables of two reports by span name, largest change
/// in total time first (ties by name).
pub(crate) fn diff(before: &Report, after: &Report) -> Vec<KernelDelta> {
    let mut rows: Vec<KernelDelta> = before
        .kernels
        .iter()
        .map(|k| KernelDelta {
            name: k.name.clone(),
            before: (k.calls, k.total_ns),
            after: (0, 0),
        })
        .collect();
    for k in &after.kernels {
        match rows.iter_mut().find(|row| row.name == k.name) {
            Some(row) => row.after = (k.calls, k.total_ns),
            None => rows.push(KernelDelta {
                name: k.name.clone(),
                before: (0, 0),
                after: (k.calls, k.total_ns),
            }),
        }
    }
    rows.sort_by(|a, b| {
        b.delta_ms()
            .abs()
            .total_cmp(&a.delta_ms().abs())
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

/// Renders the hot-kernel tables of two reports side by side as the text
/// `solver_report --diff` prints: one header line per journal, then one
/// row per span name with the calls and ms per call on each side, their
/// ratio (`-` where a side has no call) and the change in total time,
/// largest change first.
pub fn render_diff(before: &Report, after: &Report) -> String {
    let mut out = String::new();
    for (side, report) in [("A", before), ("B", after)] {
        out.push_str(&format!(
            "{side}: {} ({:.3} s wall-clock)\n",
            report.binary,
            report.wall_ns as f64 / 1.0e9
        ));
    }
    out.push_str(&format!(
        "\n{:<28} {:>9} {:>11} {:>9} {:>11} {:>7} {:>13}\n",
        "kernel (all paths)", "calls A", "ms/call A", "calls B", "ms/call B", "B/A", "Δ total ms"
    ));
    let cell = |value: Option<f64>, digits: usize| match value {
        Some(v) => format!("{v:.digits$}"),
        None => "-".into(),
    };
    for row in diff(before, after) {
        out.push_str(&format!(
            "{:<28} {:>9} {:>11} {:>9} {:>11} {:>7} {:>13.1}\n",
            row.name,
            row.before.0,
            cell(ms_per_call(row.before), 4),
            row.after.0,
            cell(ms_per_call(row.after), 4),
            cell(row.ratio(), 2),
            row.delta_ms(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"type\":\"meta\",\"schema\":\"bcast-obs/2\",\"binary\":\"test\"}\n",
        "{\"type\":\"lp_solve\",\"span\":\"run/cut_gen.solve/lp.resolve\",\"kind\":\"resolve\",",
        "\"rows\":10,\"cols\":20,\"pivots\":7,\"status\":\"optimal\",\"t_ns\":500}\n",
        "{\"type\":\"lp_solve\",\"span\":\"run/cut_gen.solve/lp.solve\",\"kind\":\"cold\",",
        "\"rows\":10,\"cols\":20,\"pivots\":13,\"status\":\"optimal\",\"t_ns\":900}\n",
        "{\"type\":\"span\",\"path\":\"run\",\"calls\":1,\"total_ns\":1000}\n",
        "{\"type\":\"span\",\"path\":\"run/cut_gen.solve\",\"calls\":2,\"total_ns\":800}\n",
        "{\"type\":\"span\",\"path\":\"run/cut_gen.solve/lp.ftran\",\"calls\":40,\"total_ns\":300}\n",
        "{\"type\":\"counter\",\"name\":\"lp.pivots\",\"value\":20}\n",
        "{\"type\":\"run_end\",\"wall_ns\":1100}\n",
    );

    #[test]
    fn check_accepts_a_valid_journal_and_counts_types() {
        let summary = check(SAMPLE).expect("valid journal");
        assert_eq!(summary.records, 8);
        let spans = summary
            .by_type
            .iter()
            .find(|(t, _)| t == "span")
            .map(|(_, n)| *n);
        assert_eq!(spans, Some(3));
    }

    #[test]
    fn check_rejects_bad_journals() {
        assert!(check("").is_err());
        assert!(
            check("{\"type\":\"meta\",\"schema\":\"bcast-obs/999\",\"binary\":\"x\"}").is_err()
        );
        assert!(check("{\"type\":\"run_end\",\"wall_ns\":1}").is_err());
        let missing_field = concat!(
            "{\"type\":\"meta\",\"schema\":\"bcast-obs/2\",\"binary\":\"x\"}\n",
            "{\"type\":\"span\",\"path\":\"a\",\"calls\":1}\n",
            "{\"type\":\"run_end\",\"wall_ns\":1}\n"
        );
        let err = check(missing_field).unwrap_err();
        assert!(err.contains("total_ns"), "unexpected error: {err}");
    }

    #[test]
    fn check_names_a_torn_final_record() {
        // A journal whose producer was killed mid-write: the last line is
        // cut off mid-record. Every cut point of the final record must be
        // rejected — and named as a torn write, not generic schema drift.
        let trimmed = SAMPLE.trim_end_matches('\n');
        let last_line_start = trimmed.rfind('\n').expect("multi-line sample") + 1;
        for cut in last_line_start + 1..trimmed.len() {
            let err = check(&trimmed[..cut]).expect_err("torn journal accepted");
            assert!(
                err.contains("torn final record") || err.contains("run_end"),
                "cut at {cut}: unexpected error: {err}"
            );
        }
        // Torn *mid-file* damage keeps the plain diagnostics.
        let mut mid = String::from(&SAMPLE[..last_line_start - 1]);
        mid.truncate(mid.len() / 2);
        mid.push('\n');
        mid.push_str(&SAMPLE[last_line_start..]);
        let err = check(&mid).expect_err("mid-file damage accepted");
        assert!(!err.contains("torn final record"), "unexpected: {err}");
    }

    #[test]
    fn report_computes_self_time_pivots_and_coverage() {
        let report = build_report(SAMPLE);
        assert_eq!(report.binary, "test");
        assert_eq!(report.wall_ns, 1100);
        assert_eq!(report.lp_solves, (1, 1));

        let by_path: HashMap<&str, &PhaseRow> = report
            .phases
            .iter()
            .map(|row| (row.path.as_str(), row))
            .collect();
        // Inclusive minus direct children.
        assert_eq!(by_path["run"].self_ns, 1000 - 800);
        assert_eq!(by_path["run/cut_gen.solve"].self_ns, 800 - 300);
        // All 20 pivots land under run and run/cut_gen.solve.
        assert_eq!(by_path["run"].pivots, 20);
        assert_eq!(by_path["run/cut_gen.solve"].pivots, 20);
        assert_eq!(by_path["run/cut_gen.solve/lp.ftran"].pivots, 0);
        // Coverage = depth-0 total over wall.
        assert!((report.coverage - 1000.0 / 1100.0).abs() < 1e-12);
        // Kernel aggregation by leaf name.
        assert!(report
            .kernels
            .iter()
            .any(|k| k.name == "lp.ftran" && k.calls == 40));
        // Render doesn't panic and mentions the coverage figure.
        let text = render(&report);
        assert!(text.contains("span coverage: 90.9%"), "{text}");
    }

    #[test]
    fn diff_pairs_kernels_by_name_and_sorts_by_the_change_in_total_time() {
        let after_text = concat!(
            "{\"type\":\"meta\",\"schema\":\"bcast-obs/2\",\"binary\":\"after\"}\n",
            "{\"type\":\"span\",\"path\":\"run\",\"calls\":1,\"total_ns\":700}\n",
            "{\"type\":\"span\",\"path\":\"run/cut_gen.solve\",\"calls\":2,\"total_ns\":800}\n",
            "{\"type\":\"span\",\"path\":\"run/cut_gen.solve/lp.ftran\",\"calls\":80,\"total_ns\":200}\n",
            "{\"type\":\"span\",\"path\":\"run/sched.assemble\",\"calls\":5,\"total_ns\":50}\n",
            "{\"type\":\"run_end\",\"wall_ns\":800}\n",
        );
        check(after_text).expect("valid journal");
        let (before, after) = (build_report(SAMPLE), build_report(after_text));
        let rows = diff(&before, &after);
        let names: Vec<&str> = rows.iter().map(|row| row.name.as_str()).collect();
        // |Δ total|: run 300 ns, lp.ftran 100, sched.assemble 50, cut_gen.solve 0.
        assert_eq!(
            names,
            ["run", "lp.ftran", "sched.assemble", "cut_gen.solve"]
        );
        let ftran = &rows[1];
        assert_eq!((ftran.before, ftran.after), ((40, 300), (80, 200)));
        // 2.5 ns per call against 7.5.
        assert!((ftran.ratio().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((ftran.delta_ms() + 1.0e-4).abs() < 1e-15);
        assert_eq!(rows[2].before, (0, 0));
        assert_eq!(rows[2].ratio(), None);
        assert_eq!(rows[3].ratio(), Some(1.0));
        let text = render_diff(&before, &after);
        assert!(
            text.starts_with("A: test (0.000 s wall-clock)\nB: after"),
            "{text}"
        );
        let assemble = text
            .lines()
            .find(|line| line.starts_with("sched.assemble"))
            .expect("a row per name");
        let cells: Vec<&str> = assemble.split_whitespace().collect();
        assert_eq!(
            cells,
            ["sched.assemble", "0", "-", "5", "0.0000", "-", "0.0"]
        );

        // A journal against itself: every ratio is 1 and nothing changes.
        let same = diff(&before, &before);
        assert_eq!(same.len(), before.kernels.len());
        assert!(same
            .iter()
            .all(|row| row.ratio() == Some(1.0) && row.delta_ms() == 0.0));
        let text = render_diff(&before, &before);
        assert!(text
            .lines()
            .skip(4)
            .all(|line| line.split_whitespace().nth(5) == Some("1.00")));
    }

    #[test]
    fn parser_handles_escapes_and_rejects_nesting() {
        let rec = parse_line("{\"a\":\"x\\n\\\"y\\\"\",\"b\":-1.5e3,\"c\":true,\"d\":null}")
            .expect("parses");
        assert_eq!(rec["a"], Value::Str("x\n\"y\"".into()));
        assert_eq!(rec["b"], Value::Num(-1500.0));
        assert_eq!(rec["c"], Value::Bool(true));
        assert_eq!(rec["d"], Value::Null);
        assert!(parse_line("{\"a\":{}}").is_err());
        assert!(parse_line("{\"a\":1} trailing").is_err());
    }
}
