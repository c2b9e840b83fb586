//! Differential crash harness for the solver service (`bcast-service`).
//!
//! Every test drives the same deterministic command script twice:
//!
//! * **baseline** — one service instance, never interrupted;
//! * **crashed** — a fresh instance armed with one seeded [`KillPoint`],
//!   killed mid-script, dropped without cleanup, re-opened from its
//!   on-disk artifacts, and driven through the rest of the script.
//!
//! The contract is *bit-identity*: the recovered run's per-step log
//! (throughput, pivot counts, repair operations, schedule efficiency,
//! simulated throughput — compared on the raw `f64` bits), its command
//! outcomes, and its digest-cache contents must equal the baseline's
//! exactly. The kill matrix covers **every** command boundary of the
//! script × all five kill kinds × the three platform families, on churn
//! traces seed-probed to contain at least one join *and* one leave.
//!
//! A second group injects *artifact corruption* (bit flips and
//! truncations in `snapshot.bin` and `wal.bin`) and asserts recovery
//! degrades gracefully — a full WAL replay or a shorter-but-valid command
//! prefix — with the session still answering queries, and never a panic.

use bcast_service::command::MAX_SESSION_NODES;
use bcast_service::snapshot::{encode_snapshot, read_snapshot};
use bcast_service::{
    flip_byte, session::generate_trace, truncate_file, Command, FaultPlan, KillPoint, Outcome,
    PlatformFamily, Service, ServiceError, SessionSpec, StepStats,
};
use broadcast_trees::prelude::{DriftEvent, EdgeId};
use std::path::PathBuf;

const SLICE: f64 = 1.0e6;
const STEPS: usize = 3;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcast-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A churn spec for `family` whose trace contains at least one join and
/// one leave (seed-probed deterministically, like the drift binary).
fn churny_spec(family: PlatformFamily, platform_seed: u64, base_drift_seed: u64) -> SessionSpec {
    for probe in 0..64u64 {
        let spec = SessionSpec {
            family,
            platform_seed,
            slice_size: SLICE,
            batch: 16,
            drift_steps: STEPS,
            drift_seed: base_drift_seed + 1000 * probe,
            churn: true,
        };
        let trace = generate_trace(&spec);
        let mut joins = 0usize;
        let mut leaves = 0usize;
        for step in 0..trace.len() {
            for event in &trace.step(step).events {
                match event {
                    DriftEvent::NodeJoin(_) => joins += 1,
                    DriftEvent::NodeLeave(_) => leaves += 1,
                    _ => {}
                }
            }
        }
        if joins > 0 && leaves > 0 {
            return spec;
        }
    }
    panic!("no churny seed found for {family:?} in 64 probes");
}

fn fixtures() -> Vec<(&'static str, SessionSpec)> {
    vec![
        (
            "random-12",
            churny_spec(
                PlatformFamily::Random {
                    nodes: 12,
                    density: 0.12,
                },
                7024,
                0xC4A1,
            ),
        ),
        (
            "tiers-12",
            churny_spec(
                PlatformFamily::Tiers {
                    nodes: 12,
                    density: 0.10,
                },
                7025,
                0xC4A2,
            ),
        ),
        (
            "gaussian-12",
            churny_spec(PlatformFamily::Gaussian { nodes: 12 }, 7026, 0xC4A3),
        ),
    ]
}

/// The deterministic command script of one session: create, walk the
/// whole trace (drift or churn per the trace's remaps), query after every
/// step, snapshot every other step, then a warm resolve and a final
/// query. The command kind per step is decided from the regenerated
/// trace, exactly as a client following the rejection contract would.
fn script(name: &str, spec: &SessionSpec) -> Vec<Command> {
    let trace = generate_trace(spec);
    let mut commands = vec![Command::CreateSession {
        name: name.into(),
        spec: *spec,
    }];
    for step in 0..trace.len() {
        let churn = step > 0 && !trace.remap(step - 1, step).is_identity();
        commands.push(if churn {
            Command::NodeChurn {
                session: name.into(),
            }
        } else {
            Command::DriftStep {
                session: name.into(),
            }
        });
        commands.push(Command::QuerySchedule {
            session: name.into(),
        });
        if (step + 1) % 2 == 0 {
            commands.push(Command::Snapshot);
        }
    }
    commands.push(Command::Resolve {
        session: name.into(),
    });
    commands.push(Command::QuerySchedule {
        session: name.into(),
    });
    commands
}

/// Everything the harness compares between two runs of the same script.
/// `outcomes[i]` is `None` only for the (at most one) command that was
/// durable but unacknowledged at the kill: replay re-derived its effect —
/// which the log/state comparison covers — but its `Outcome` value was
/// returned to nobody.
#[derive(Debug, PartialEq)]
struct RunTrace {
    outcomes: Vec<Option<Outcome>>,
    log: Vec<StepStats>,
    steps_done: usize,
    digest_cache: Vec<(u64, usize)>,
}

fn bits_of(log: &[StepStats]) -> Vec<(usize, u64, usize, usize, u64, u64)> {
    log.iter()
        .map(|s| {
            (
                s.step,
                s.tp.to_bits(),
                s.pivots,
                s.repair_ops,
                s.efficiency.to_bits(),
                s.sim_tp.to_bits(),
            )
        })
        .collect()
}

fn run_trace_of(service: &Service, name: &str, outcomes: Vec<Option<Outcome>>) -> RunTrace {
    let session = service.session(name).expect("session exists");
    RunTrace {
        outcomes,
        log: session.log().to_vec(),
        steps_done: session.steps_done(),
        digest_cache: service.digest_cache_summary(),
    }
}

/// The never-crashed reference run.
fn baseline(tag: &str, name: &str, commands: &[Command]) -> RunTrace {
    let dir = tmp_dir(tag);
    let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
    let outcomes: Vec<Option<Outcome>> = commands
        .iter()
        .map(|c| Some(service.apply(c).expect("baseline apply")))
        .collect();
    let run = run_trace_of(&service, name, outcomes);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// One crashed run: drive until the armed kill fires, drop the instance,
/// re-open, and finish the script from the first non-durable command
/// (`next_seq - 1`, which is exactly what a client that never got an
/// acknowledgement for its in-flight command would re-submit).
fn crashed_run(tag: &str, name: &str, commands: &[Command], kill: KillPoint) -> RunTrace {
    let dir = tmp_dir(tag);
    let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(commands.len());
    {
        let mut service = Service::open(&dir, FaultPlan::kill_at(kill)).expect("open armed");
        let mut killed = false;
        for command in commands {
            match service.apply(command) {
                Ok(outcome) => outcomes.push(Some(outcome)),
                Err(ServiceError::Killed(point)) => {
                    assert_eq!(point, kill, "the armed kill fired");
                    killed = true;
                    break;
                }
                Err(e) => panic!("unexpected error before the kill: {e}"),
            }
        }
        assert!(killed, "kill point {kill:?} never fired");
        // Dropped without any cleanup: exactly what SIGKILL leaves.
    }
    let mut service = Service::open(&dir, FaultPlan::none()).expect("recovery never fails");
    let resume_at = (service.next_seq() - 1) as usize;
    assert!(
        resume_at >= outcomes.len(),
        "recovery lost an acknowledged command: resume at {resume_at}, acknowledged {}",
        outcomes.len()
    );
    // Between the acknowledged prefix and the re-submitted tail sits at
    // most one durable-but-unacknowledged command: the WAL replay already
    // applied its effect (which the state comparison verifies), but its
    // outcome value was never returned to anyone — recorded as `None`.
    for _ in outcomes.len()..resume_at {
        outcomes.push(None);
    }
    for command in &commands[resume_at..] {
        outcomes.push(Some(service.apply(command).expect("post-recovery apply")));
    }
    let run = run_trace_of(&service, name, outcomes);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// The full kill matrix: every command boundary × all five kill kinds ×
/// all three platform families, each recovered run bit-identical to the
/// baseline.
#[test]
fn every_kill_point_recovers_bit_identically() {
    for (name, spec) in fixtures() {
        let commands = script(name, &spec);
        let reference = baseline(&format!("base-{name}"), name, &commands);
        assert_eq!(reference.steps_done, STEPS + 1, "{name}: full trace walked");
        for seq in 1..=commands.len() as u64 {
            for kill in KillPoint::all_at(seq) {
                // Mid-snapshot-write kills only fire on Snapshot commands;
                // arming them elsewhere would never kill. Skip those.
                if matches!(kill, KillPoint::MidSnapshotWrite(_))
                    && !matches!(commands[(seq - 1) as usize], Command::Snapshot)
                {
                    continue;
                }
                let run = crashed_run(
                    &format!("kill-{name}-{seq}-{kill:?}"),
                    name,
                    &commands,
                    kill,
                );
                assert_eq!(
                    bits_of(&run.log),
                    bits_of(&reference.log),
                    "{name}: per-step log after {kill:?}"
                );
                assert_eq!(run.log, reference.log, "{name}: log after {kill:?}");
                assert_eq!(run.steps_done, reference.steps_done, "{name}: {kill:?}");
                assert_eq!(
                    run.digest_cache, reference.digest_cache,
                    "{name}: digest cache after {kill:?}"
                );
                assert_eq!(run.outcomes.len(), reference.outcomes.len());
                for (i, (got, want)) in run.outcomes.iter().zip(&reference.outcomes).enumerate() {
                    if got.is_some() {
                        assert_eq!(got, want, "{name}: outcome {i} after {kill:?}");
                    }
                }
            }
        }
    }
}

/// `commands` with its snapshots moved: one after every command
/// (`every_step: None`), or one after every `k`-th step (`Some(k)`; a `k`
/// beyond the trace length never snapshots).
fn with_cadence(commands: &[Command], every_step: Option<usize>) -> Vec<Command> {
    let mut out = Vec::new();
    let mut steps = 0usize;
    for command in commands.iter().filter(|c| !matches!(c, Command::Snapshot)) {
        out.push(command.clone());
        let step = matches!(
            command,
            Command::DriftStep { .. } | Command::NodeChurn { .. }
        );
        steps += usize::from(step);
        if every_step.is_none_or(|k| step && steps.is_multiple_of(k)) {
            out.push(Command::Snapshot);
        }
    }
    out
}

/// A snapshot is a read: the same script snapshotted after every command,
/// after every third step, and never gives bit-identical per-step logs and
/// outcomes, and a recovery from each snapshot a run wrote (a crash right
/// after it, so nothing is replayed) continues to the same logs.
#[test]
fn snapshot_cadence_changes_no_bit() {
    for (name, spec) in fixtures() {
        let base = script(name, &spec);
        let never = with_cadence(&base, Some(STEPS + 2));
        assert!(!never.iter().any(|c| matches!(c, Command::Snapshot)));
        let reference = baseline(&format!("cadence-never-{name}"), name, &never);
        assert_eq!(reference.steps_done, STEPS + 1, "{name}: full trace walked");
        for (label, every_step) in [("every-command", None), ("every-3rd-step", Some(3))] {
            let commands = with_cadence(&base, every_step);
            let run = baseline(&format!("cadence-{label}-{name}"), name, &commands);
            assert_eq!(bits_of(&run.log), bits_of(&reference.log), "{name} {label}");
            assert_eq!(run.log, reference.log, "{name} {label}: log");
            assert_eq!(run.digest_cache, reference.digest_cache, "{name} {label}");
            let reads: Vec<&Option<Outcome>> = run
                .outcomes
                .iter()
                .filter(|o| **o != Some(Outcome::SnapshotWritten))
                .collect();
            assert_eq!(reads, reference.outcomes.iter().collect::<Vec<_>>());

            for (at, _) in commands
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c, Command::Snapshot))
            {
                let dir = tmp_dir(&format!("cadence-{label}-{name}-{at}"));
                {
                    let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
                    for command in &commands[..=at] {
                        service.apply(command).expect("apply");
                    }
                }
                let mut service = Service::open(&dir, FaultPlan::none()).expect("recover");
                let recovery = service.recovery();
                assert!(recovery.snapshot_restored, "{name} {label} @{at}");
                assert_eq!(recovery.replayed, 0, "{name} {label} @{at}");
                for command in &commands[at + 1..] {
                    service.apply(command).expect("post-recovery apply");
                }
                let log = service.session(name).expect("session").log().to_vec();
                assert_eq!(
                    bits_of(&log),
                    bits_of(&reference.log),
                    "{name} {label}: recovered from the snapshot at command {at}"
                );
                assert_eq!(log, reference.log, "{name} {label} @{at}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Corrupt snapshot files — bit flips and truncations at many offsets —
/// must degrade recovery to the authoritative WAL replay: same state as
/// the baseline, queries still answered, never a panic.
#[test]
fn corrupt_snapshot_degrades_to_wal_replay() {
    let (name, spec) = ("tiers-12", fixtures().remove(1).1);
    let commands = script(name, &spec);
    let reference = baseline("corrupt-base", name, &commands);

    let dir = tmp_dir("corrupt-snap");
    {
        let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
        for command in &commands {
            service.apply(command).expect("apply");
        }
    }
    let snap = dir.join("snapshot.bin");
    let snap_len = std::fs::metadata(&snap).expect("snapshot written").len();

    // Flip a byte at several offsets spread over the file (header, seq,
    // cache, session payload, checksum), truncate to several lengths.
    let offsets = [
        0,
        5,
        9,
        snap_len / 3,
        snap_len / 2,
        snap_len - 9,
        snap_len - 1,
    ];
    let pristine = std::fs::read(&snap).expect("read snapshot");
    for offset in offsets {
        std::fs::write(&snap, &pristine).expect("restore pristine snapshot");
        flip_byte(&snap, offset).expect("flip");
        let mut service =
            Service::open(&dir, FaultPlan::none()).expect("corrupt snapshot not fatal");
        assert!(
            service.recovery().snapshot_rejected.is_some(),
            "offset {offset}: corruption detected"
        );
        // Every WAL record replays (the trailing queries of earlier loop
        // iterations included) — nothing but the log carried recovery.
        assert!(service.recovery().replayed >= commands.len(), "full replay");
        let run = run_trace_of(&service, name, Vec::new());
        assert_eq!(
            bits_of(&run.log),
            bits_of(&reference.log),
            "offset {offset}"
        );
        // The session still answers queries.
        let outcome = service
            .apply(&Command::QuerySchedule {
                session: name.into(),
            })
            .expect("query after degrade");
        assert!(matches!(outcome, Outcome::Schedule(Some(_))));
    }
    for cut in [0u64, 3, 9, snap_len / 2, snap_len - 1] {
        std::fs::write(&snap, &pristine).expect("restore pristine snapshot");
        truncate_file(&snap, cut).expect("truncate");
        let service = Service::open(&dir, FaultPlan::none()).expect("torn snapshot not fatal");
        assert!(
            service.recovery().snapshot_rejected.is_some(),
            "cut {cut}: detected"
        );
        let run = run_trace_of(&service, name, Vec::new());
        assert_eq!(bits_of(&run.log), bits_of(&reference.log), "cut {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `CreateSession` whose spec is outside what the generators, the solver
/// and the schedule synthesis accept is rejected with a reason, not a
/// panic: live, and again when the directory is reopened and the WAL
/// replays it. No session is created (a `DriftStep` right after finds
/// none), and a valid spec under the same name then creates the session.
/// A snapshot whose session image carries such a spec is refused, not
/// restored, and the WAL replay rebuilds the session instead.
#[test]
fn out_of_range_specs_are_rejected_live_and_on_replay() {
    let valid = SessionSpec {
        family: PlatformFamily::Tiers {
            nodes: 12,
            density: 0.10,
        },
        platform_seed: 7025,
        slice_size: SLICE,
        batch: 16,
        drift_steps: STEPS,
        drift_seed: 0xC4A2,
        churn: false,
    };
    let random = |nodes, density| PlatformFamily::Random { nodes, density };
    let bad = [
        SessionSpec {
            family: random(0, 0.12),
            ..valid
        },
        SessionSpec {
            family: random(12, 2.0),
            ..valid
        },
        SessionSpec {
            family: random(12, f64::NAN),
            ..valid
        },
        SessionSpec {
            family: PlatformFamily::Tiers {
                nodes: 1,
                density: 0.10,
            },
            ..valid
        },
        SessionSpec {
            family: PlatformFamily::Gaussian { nodes: 0 },
            ..valid
        },
        SessionSpec { batch: 0, ..valid },
        SessionSpec {
            batch: 1 << 40,
            ..valid
        },
        SessionSpec {
            slice_size: 0.0,
            ..valid
        },
        SessionSpec {
            slice_size: -1.0,
            ..valid
        },
        SessionSpec {
            slice_size: f64::INFINITY,
            ..valid
        },
        // Traces that would not fit in memory, or whose length overflows
        // (none of these is ever generated).
        SessionSpec {
            drift_steps: usize::MAX / 2,
            ..valid
        },
        SessionSpec {
            drift_steps: usize::MAX,
            churn: true,
            ..valid
        },
        // One node has no edges, but every snapshot still costs memory.
        SessionSpec {
            family: random(1, 0.12),
            drift_steps: usize::MAX / 2,
            ..valid
        },
        SessionSpec {
            family: PlatformFamily::Gaussian { nodes: 1 },
            drift_steps: usize::MAX,
            ..valid
        },
        SessionSpec {
            family: random(MAX_SESSION_NODES + 1, 0.12),
            ..valid
        },
        SessionSpec {
            family: PlatformFamily::Tiers {
                nodes: MAX_SESSION_NODES + 1,
                density: 0.10,
            },
            ..valid
        },
        SessionSpec {
            family: PlatformFamily::Gaussian {
                nodes: MAX_SESSION_NODES + 1,
            },
            ..valid
        },
    ];
    let name = "out-of-range";
    let mut script = Vec::new();
    for spec in &bad {
        script.push(Command::CreateSession {
            name: name.into(),
            spec: *spec,
        });
        script.push(Command::DriftStep {
            session: name.into(),
        });
    }
    let apply_all = |service: &mut Service| -> Vec<Outcome> {
        script
            .iter()
            .map(|command| service.apply(command).expect("an outcome, not an error"))
            .collect()
    };

    let dir = tmp_dir("out-of-range");
    let live = {
        let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
        apply_all(&mut service)
    };
    for (command, outcome) in script.iter().zip(&live) {
        assert!(
            matches!(outcome, Outcome::Rejected { .. }),
            "{command:?} was not rejected: {outcome:?}"
        );
    }
    let mut service = Service::open(&dir, FaultPlan::none()).expect("replay does not panic");
    assert_eq!(service.recovery().replayed, script.len());
    assert!(
        service.session_names().is_empty(),
        "replay created a session"
    );
    assert_eq!(
        apply_all(&mut service),
        live,
        "the same outcomes after reopening"
    );
    let created = service
        .apply(&Command::CreateSession {
            name: name.into(),
            spec: valid,
        })
        .expect("a valid spec creates");
    assert_eq!(created, Outcome::Created { digest_hit: false });
    let snapshot = service.apply(&Command::Snapshot).expect("snapshot");
    assert_eq!(snapshot, Outcome::SnapshotWritten);
    drop(service);
    let snap = dir.join("snapshot.bin");
    let mut image = read_snapshot(&snap)
        .expect("snapshot readable")
        .expect("snapshot written");
    image.sessions[0].1.spec = bad[0];
    std::fs::write(&snap, encode_snapshot(&image)).expect("rewrite snapshot");
    let service = Service::open(&dir, FaultPlan::none()).expect("a bad image is not fatal");
    let rejected = service.recovery().snapshot_rejected.as_deref();
    assert!(
        rejected.is_some_and(|r| r.starts_with("session \"out-of-range\": ")),
        "bad spec image refused, naming its session: {rejected:?}"
    );
    assert_eq!(service.session_names(), vec![name.to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot written by the previous format (version field 7, which still
/// encoded the solver options and each session's node and edge counts,
/// `TP` column and port keys) is rejected as `Corrupt` with
/// the version message — the version sits outside the checksummed
/// payload, so nothing else trips — recovery says
/// so, and it replays the whole WAL to the same per-step logs as the
/// uninterrupted run.
#[test]
fn old_snapshot_version_is_rejected_and_replayed() {
    let (name, spec) = ("tiers-12", fixtures().remove(1).1);
    let commands = script(name, &spec);
    let reference = baseline("old-version-base", name, &commands);

    let dir = tmp_dir("old-version");
    {
        let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
        for command in &commands {
            service.apply(command).expect("apply");
        }
    }
    let snap = dir.join("snapshot.bin");
    let mut bytes = std::fs::read(&snap).expect("snapshot written");
    bytes[4..8].copy_from_slice(&7u32.to_le_bytes());
    std::fs::write(&snap, &bytes).expect("rewrite snapshot");
    match bcast_service::snapshot::decode_snapshot(&bytes) {
        Err(ServiceError::Corrupt(message)) => {
            assert_eq!(message, "snapshot version 7 (expected 8)")
        }
        other => panic!("a version-7 snapshot must be rejected as corrupt: {other:?}"),
    }
    let service = Service::open(&dir, FaultPlan::none()).expect("old snapshot not fatal");
    assert_eq!(
        service.recovery().snapshot_rejected.as_deref(),
        Some("corrupt artifact: snapshot version 7 (expected 8)"),
        "old version detected"
    );
    assert!(!service.recovery().snapshot_restored);
    assert!(service.recovery().replayed >= commands.len(), "full replay");
    let run = run_trace_of(&service, name, Vec::new());
    assert_eq!(bits_of(&run.log), bits_of(&reference.log));
    assert_eq!(run.log, reference.log);
    assert_eq!(run.steps_done, reference.steps_done);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot whose checksum is valid but whose schedule trees were
/// rewritten by `rewrite` is refused by `PeriodicSchedule::from_parts` for
/// `reason`, recovery says so, and the WAL replay continues to the
/// uninterrupted run's log. Restore re-assembles the timetable from the
/// trees, which it cannot do for a tree that is not a spanning
/// arborescence listed parent before child or for a tree count other than
/// the batch size.
fn malformed_tree_is_rejected_and_replayed(
    tag: &str,
    rewrite: fn(&mut Vec<Vec<EdgeId>>),
    reason: &str,
) {
    let name = "trees";
    let spec = SessionSpec {
        family: PlatformFamily::Tiers {
            nodes: 12,
            density: 0.10,
        },
        platform_seed: 7025,
        slice_size: SLICE,
        batch: 8,
        drift_steps: 5,
        drift_seed: 0xC4A2,
        churn: false,
    };
    let mut commands = vec![Command::CreateSession {
        name: name.into(),
        spec,
    }];
    let step = Command::DriftStep {
        session: name.into(),
    };
    commands.extend(std::iter::repeat_n(step.clone(), 3));
    commands.push(Command::Snapshot);
    let snapshot_at = commands.len();
    commands.extend(std::iter::repeat_n(step, 3));
    let reference = baseline(&format!("{tag}-base"), name, &commands);

    let dir = tmp_dir(tag);
    {
        let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
        for command in &commands[..snapshot_at] {
            service.apply(command).expect("apply");
        }
    }
    let snap = dir.join("snapshot.bin");
    let mut image = read_snapshot(&snap)
        .expect("snapshot readable")
        .expect("snapshot written");
    let parts = image.sessions[0].1.schedule.as_mut().expect("a schedule");
    rewrite(&mut parts.trees);
    std::fs::write(&snap, encode_snapshot(&image)).expect("rewrite snapshot");
    let mut service = Service::open(&dir, FaultPlan::none()).expect("a bad tree is not fatal");
    assert_eq!(
        service.recovery().snapshot_rejected,
        Some(format!(
            "session \"{name}\": schedule failure: invalid schedule: schedule parts: {reason}"
        )),
        "{tag}: the tree check fired"
    );
    assert!(!service.recovery().snapshot_restored);
    assert_eq!(service.recovery().replayed, snapshot_at);
    for command in &commands[snapshot_at..] {
        service.apply(command).expect("post-recovery apply");
    }
    let run = run_trace_of(&service, name, Vec::new());
    assert_eq!(bits_of(&run.log), bits_of(&reference.log), "{tag}");
    assert_eq!(run.log, reference.log, "{tag}");
    let _ = std::fs::remove_dir_all(&dir);
}

const NOT_IN_ORDER: &str = "tree 0 is not a spanning arborescence listed parent before child";

#[test]
fn snapshot_tree_with_a_repeated_edge_is_rejected() {
    let rewrite = |trees: &mut Vec<Vec<EdgeId>>| {
        let tree = &mut trees[0];
        let last = tree.len() - 1;
        tree[last] = tree[0];
    };
    malformed_tree_is_rejected_and_replayed("tree-repeated-edge", rewrite, NOT_IN_ORDER);
}

#[test]
fn snapshot_tree_listed_children_first_is_rejected() {
    let rewrite = |trees: &mut Vec<Vec<EdgeId>>| trees[0].reverse();
    malformed_tree_is_rejected_and_replayed("tree-children-first", rewrite, NOT_IN_ORDER);
}

#[test]
fn snapshot_with_one_tree_too_many_is_rejected() {
    let rewrite = |trees: &mut Vec<Vec<EdgeId>>| trees.push(trees[0].clone());
    let reason = "9 trees for a batch of 8 slices";
    malformed_tree_is_rejected_and_replayed("tree-one-too-many", rewrite, reason);
}

/// A fleet that holds one-node sessions restores from its snapshot. Cut
/// generation bounds a one-node platform's throughput by +∞, the schedule
/// keeps that as its LP bound, and `from_parts` accepts it on one node
/// only; rejecting it would reject the whole snapshot and replay the WAL.
#[test]
fn one_node_sessions_restore_from_the_snapshot() {
    let spec = |family| SessionSpec {
        family,
        platform_seed: 7025,
        slice_size: SLICE,
        batch: 8,
        drift_steps: 2,
        drift_seed: 0xC4A2,
        churn: false,
    };
    let fleet = [
        (
            "tiers-12",
            spec(PlatformFamily::Tiers {
                nodes: 12,
                density: 0.10,
            }),
        ),
        (
            "random-1",
            spec(PlatformFamily::Random {
                nodes: 1,
                density: 0.12,
            }),
        ),
        ("gaussian-1", spec(PlatformFamily::Gaussian { nodes: 1 })),
    ];
    let mut commands: Vec<Command> = fleet
        .iter()
        .map(|&(name, spec)| Command::CreateSession {
            name: name.into(),
            spec,
        })
        .collect();
    commands.extend(fleet.iter().map(|&(name, _)| Command::DriftStep {
        session: name.into(),
    }));
    commands.push(Command::Snapshot);

    let dir = tmp_dir("one-node");
    let live: Vec<Vec<StepStats>> = {
        let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
        for command in &commands {
            service.apply(command).expect("apply");
        }
        fleet
            .iter()
            .map(|(name, _)| service.session(name).expect("session").log().to_vec())
            .collect()
    };
    let service = Service::open(&dir, FaultPlan::none()).expect("reopen");
    assert_eq!(service.recovery().snapshot_rejected, None, "rejected");
    assert!(service.recovery().snapshot_restored);
    assert_eq!(service.recovery().replayed, 0);
    for ((name, _), live) in fleet.iter().zip(&live) {
        let restored = service.session(name).expect("session restored").log();
        assert_eq!(bits_of(restored), bits_of(live), "{name}");
        assert_eq!(restored, live.as_slice(), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn or bit-flipped WAL tail loses at most the damaged suffix: the
/// valid prefix recovers cleanly and re-submitting the lost commands
/// reconverges with the baseline.
#[test]
fn damaged_wal_tail_keeps_the_valid_prefix() {
    let (name, spec) = ("tiers-12", fixtures().remove(1).1);
    let commands = script(name, &spec);
    let reference = baseline("wal-base", name, &commands);

    let dir = tmp_dir("wal-damage");
    {
        let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
        for command in &commands {
            service.apply(command).expect("apply");
        }
    }
    // Remove the snapshot so the WAL alone carries recovery, then chop
    // the log at arbitrary byte lengths.
    std::fs::remove_file(dir.join("snapshot.bin")).expect("drop snapshot");
    let wal = dir.join("wal.bin");
    let pristine = std::fs::read(&wal).expect("read wal");
    for cut in [
        8u64,
        21,
        pristine.len() as u64 / 2,
        pristine.len() as u64 - 5,
    ] {
        std::fs::write(&wal, &pristine).expect("restore pristine wal");
        truncate_file(&wal, cut).expect("truncate");
        let mut service = Service::open(&dir, FaultPlan::none()).expect("torn WAL not fatal");
        let resume_at = (service.next_seq() - 1) as usize;
        assert!(resume_at <= commands.len(), "cut {cut}");
        for command in &commands[resume_at..] {
            service.apply(command).expect("re-submit");
        }
        let run = run_trace_of(&service, name, Vec::new());
        assert_eq!(bits_of(&run.log), bits_of(&reference.log), "cut {cut}");
    }
    // A flipped byte inside the final record invalidates only that record.
    std::fs::write(&wal, &pristine).expect("restore pristine wal");
    flip_byte(&wal, pristine.len() as u64 - 3).expect("flip");
    let mut service = Service::open(&dir, FaultPlan::none()).expect("flipped WAL not fatal");
    let resume_at = (service.next_seq() - 1) as usize;
    assert_eq!(resume_at, commands.len() - 1, "exactly one record lost");
    for command in &commands[resume_at..] {
        service.apply(command).expect("re-submit");
    }
    let run = run_trace_of(&service, name, Vec::new());
    assert_eq!(bits_of(&run.log), bits_of(&reference.log));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two sessions on byte-identical platforms share a digest-cache entry:
/// the second `CreateSession` reports a hit, seeds its cut pool from the
/// first session's binding cuts, and still reaches the identical
/// throughput on its first step.
#[test]
fn digest_cache_seeds_identical_topologies() {
    let (_, spec) = fixtures().remove(1);
    let dir = tmp_dir("digest");
    let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
    let first = service
        .apply(&Command::CreateSession {
            name: "a".into(),
            spec,
        })
        .expect("create a");
    assert_eq!(first, Outcome::Created { digest_hit: false });
    let Outcome::Stepped { stats: step_a } = service
        .apply(&Command::DriftStep {
            session: "a".into(),
        })
        .expect("step a")
    else {
        panic!("step a not stepped");
    };
    assert_eq!(service.digest_cache_summary().len(), 1, "cache filled");

    let second = service
        .apply(&Command::CreateSession {
            name: "b".into(),
            spec,
        })
        .expect("create b");
    assert_eq!(second, Outcome::Created { digest_hit: true }, "cache hit");
    let Outcome::Stepped { stats: step_b } = service
        .apply(&Command::DriftStep {
            session: "b".into(),
        })
        .expect("step b")
    else {
        panic!("step b not stepped");
    };
    // Same platform, same optimum — but the seeded session walks a
    // different cut/pivot path, so compare values, not bits.
    assert!(
        (step_a.tp - step_b.tp).abs() <= 1e-9 * step_a.tp.abs().max(1.0),
        "identical platforms, identical optimum: {} vs {}",
        step_a.tp,
        step_b.tp
    );
    // A duplicate create is rejected deterministically, not an error.
    let dup = service
        .apply(&Command::CreateSession {
            name: "a".into(),
            spec,
        })
        .expect("duplicate create");
    assert!(matches!(dup, Outcome::Rejected { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}
