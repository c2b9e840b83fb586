//! Multi-session stress for the solver service (`bcast-service`).
//!
//! One service instance owns many named sessions at once — different
//! platform families, different seeds, churn and plain-drift traces
//! mixed — and the harness drives them through an *interleaved* command
//! schedule: every round, each session advances one step and answers a
//! query, then a single `Snapshot` captures the whole fleet.
//!
//! Contracts:
//!
//! * **isolation** — each session's per-step log is bit-identical to a
//!   solo run of the same session in its own service, which takes no
//!   snapshot at all (a snapshot is a read);
//! * **crash-safety under load** — a kill fired mid-interleaving
//!   recovers to the uninterrupted multi-session run, every session
//!   intact, per-step bits equal.

use bcast_service::{
    session::generate_trace, Command, FaultPlan, KillPoint, Outcome, PlatformFamily, Service,
    ServiceError, SessionSpec, StepStats,
};
use broadcast_trees::prelude::DriftEvent;
use std::path::PathBuf;

const SLICE: f64 = 1.0e6;
const STEPS: usize = 3;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcast-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A churn spec whose trace contains at least one join and one leave
/// (seed-probed deterministically, like the drift binary).
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

fn drift_spec(family: PlatformFamily, platform_seed: u64, drift_seed: u64) -> SessionSpec {
    SessionSpec {
        family,
        platform_seed,
        slice_size: SLICE,
        batch: 16,
        drift_steps: STEPS,
        drift_seed,
        churn: false,
    }
}

/// Six sessions: one churn + one plain-drift trace per family, all on
/// *distinct* platform seeds so the digest cache cannot couple them and
/// the solo-vs-fleet differential is a pure isolation check.
fn fleet() -> Vec<(&'static str, SessionSpec)> {
    vec![
        (
            "rand-churn",
            churny_spec(
                PlatformFamily::Random {
                    nodes: 11,
                    density: 0.14,
                },
                9101,
                0xA001,
            ),
        ),
        (
            "rand-drift",
            drift_spec(
                PlatformFamily::Random {
                    nodes: 10,
                    density: 0.16,
                },
                9102,
                0xA002,
            ),
        ),
        (
            "tiers-churn",
            churny_spec(
                PlatformFamily::Tiers {
                    nodes: 12,
                    density: 0.10,
                },
                9103,
                0xA003,
            ),
        ),
        (
            "tiers-drift",
            drift_spec(
                PlatformFamily::Tiers {
                    nodes: 11,
                    density: 0.12,
                },
                9104,
                0xA004,
            ),
        ),
        (
            "gauss-churn",
            churny_spec(PlatformFamily::Gaussian { nodes: 11 }, 9105, 0xA005),
        ),
        (
            "gauss-drift",
            drift_spec(PlatformFamily::Gaussian { nodes: 10 }, 9106, 0xA006),
        ),
    ]
}

/// The step command (drift vs churn) a trace-following client issues for
/// `step` of `spec`'s trace.
fn step_command(name: &str, spec: &SessionSpec, step: usize) -> Command {
    let trace = generate_trace(spec);
    let churn = step > 0 && !trace.remap(step - 1, step).is_identity();
    if churn {
        Command::NodeChurn {
            session: name.into(),
        }
    } else {
        Command::DriftStep {
            session: name.into(),
        }
    }
}

/// The interleaved fleet schedule: create everything, then round-robin —
/// each round advances every session one step and queries it, then one
/// `Snapshot` captures the fleet — then a final warm resolve per session.
fn interleaved_script(fleet: &[(&'static str, SessionSpec)]) -> Vec<Command> {
    let mut commands: Vec<Command> = fleet
        .iter()
        .map(|(name, spec)| Command::CreateSession {
            name: (*name).into(),
            spec: *spec,
        })
        .collect();
    let rounds = generate_trace(&fleet[0].1).len();
    for step in 0..rounds {
        for (name, spec) in fleet {
            commands.push(step_command(name, spec, step));
            commands.push(Command::QuerySchedule {
                session: (*name).into(),
            });
        }
        commands.push(Command::Snapshot);
    }
    for (name, _) in fleet {
        commands.push(Command::Resolve {
            session: (*name).into(),
        });
    }
    commands
}

/// The solo schedule of one session: its steps and queries in the order
/// of the interleaved run, with no `Snapshot` — a snapshot changes no
/// state, so the interleaved run's fleet snapshots must not show.
fn solo_script(name: &str, spec: &SessionSpec) -> Vec<Command> {
    let mut commands = vec![Command::CreateSession {
        name: name.into(),
        spec: *spec,
    }];
    for step in 0..generate_trace(spec).len() {
        commands.push(step_command(name, spec, step));
        commands.push(Command::QuerySchedule {
            session: name.into(),
        });
    }
    commands.push(Command::Resolve {
        session: name.into(),
    });
    commands
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

fn drive(service: &mut Service, commands: &[Command]) {
    for command in commands {
        let outcome = service.apply(command).expect("stress apply");
        assert!(
            !matches!(outcome, Outcome::Rejected { .. }),
            "schedule follows the contract, nothing rejects: {outcome:?}"
        );
    }
}

fn fleet_logs(service: &Service, fleet: &[(&'static str, SessionSpec)]) -> Vec<Vec<StepStats>> {
    fleet
        .iter()
        .map(|(name, _)| {
            service
                .session(name)
                .expect("session exists")
                .log()
                .to_vec()
        })
        .collect()
}

/// Interleaving many sessions through one service changes nothing about
/// any of them: per-session step logs are bit-identical to solo runs.
#[test]
fn interleaved_sessions_match_solo_runs_bit_for_bit() {
    let fleet = fleet();
    let dir = tmp_dir("fleet");
    let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
    drive(&mut service, &interleaved_script(&fleet));
    let interleaved = fleet_logs(&service, &fleet);
    assert_eq!(
        service.session_names().len(),
        fleet.len(),
        "every session lives"
    );
    for ((name, spec), fleet_log) in fleet.iter().zip(&interleaved) {
        assert_eq!(fleet_log.len(), STEPS + 1, "{name}: full trace walked");
        let solo_dir = tmp_dir(&format!("solo-{name}"));
        let mut solo = Service::open(&solo_dir, FaultPlan::none()).expect("open solo");
        drive(&mut solo, &solo_script(name, spec));
        let solo_log = solo.session(name).expect("solo session").log().to_vec();
        assert_eq!(
            bits_of(fleet_log),
            bits_of(&solo_log),
            "{name}: interleaving perturbed the session"
        );
        assert_eq!(*fleet_log, solo_log, "{name}: full stats differ");
        let _ = std::fs::remove_dir_all(&solo_dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills fired mid-interleaving — including inside a fleet-wide snapshot
/// write — recover to the uninterrupted multi-session run: every session
/// intact, every per-step log bit-identical.
#[test]
fn fleet_recovers_from_kills_under_interleaved_load() {
    let fleet = fleet();
    let commands = interleaved_script(&fleet);
    let dir = tmp_dir("fleet-base");
    let mut service = Service::open(&dir, FaultPlan::none()).expect("open");
    drive(&mut service, &commands);
    let reference = fleet_logs(&service, &fleet);
    let _ = std::fs::remove_dir_all(&dir);

    let first_snapshot_seq = 1 + commands
        .iter()
        .position(|c| matches!(c, Command::Snapshot))
        .expect("schedule snapshots") as u64;
    let mid = commands.len() as u64 / 2;
    let kills = [
        KillPoint::BeforeAppend(mid),
        KillPoint::AfterExec(mid),
        KillPoint::MidAppend(commands.len() as u64 - 2),
        KillPoint::MidSnapshotWrite(first_snapshot_seq),
    ];
    for kill in kills {
        let dir = tmp_dir(&format!("fleet-{kill:?}"));
        {
            let mut armed = Service::open(&dir, FaultPlan::kill_at(kill)).expect("open armed");
            let mut killed = false;
            for command in &commands {
                match armed.apply(command) {
                    Ok(_) => {}
                    Err(ServiceError::Killed(point)) => {
                        assert_eq!(point, kill);
                        killed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error before the kill: {e}"),
                }
            }
            assert!(killed, "kill {kill:?} never fired");
        }
        let mut recovered = Service::open(&dir, FaultPlan::none()).expect("recovery");
        let resume_at = (recovered.next_seq() - 1) as usize;
        assert!(resume_at <= commands.len(), "{kill:?}");
        drive(&mut recovered, &commands[resume_at..]);
        let logs = fleet_logs(&recovered, &fleet);
        for ((name, _), (got, want)) in fleet.iter().zip(logs.iter().zip(&reference)) {
            assert_eq!(
                bits_of(got),
                bits_of(want),
                "{name}: diverged after {kill:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
