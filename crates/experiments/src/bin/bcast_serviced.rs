//! Headless driver for the crash-safe solver service (`bcast-service`).
//!
//! Opens (or re-opens) a service directory, creates one session from the
//! command-line spec if it does not exist yet, and walks its drift trace
//! to the end — drift steps, churn steps, periodic snapshots, a final
//! warm `Resolve` — printing one golden-trace line per completed step
//! with the throughput *bits* (exact, not rounded) and the pivot count.
//!
//! The `--kill-seq`/`--kill-kind` flags arm the service's fault injection:
//! when the kill fires the process exits with status 3, leaving the WAL
//! and snapshot artifacts exactly as a `SIGKILL` would. Re-running with
//! the same `--dir` recovers and continues; the CI smoke asserts the
//! concatenated golden lines of the killed+resumed run equal those of an
//! uninterrupted run.
//!
//! Before any golden line, stderr gets one `recovered:` line: whether a
//! snapshot was restored, why one was rejected (`none`, or the quoted
//! reason), how many WAL records were replayed, and whether the WAL ended
//! in a torn record.
//!
//! ```text
//! cargo run --release -p bcast-experiments --bin bcast_serviced -- \
//!     --dir /tmp/svc --family tiers --nodes 20 --steps 8 --seed 7025 \
//!     [--churn] [--snapshot-every K] [--kill-seq N --kill-kind mid-append]
//! ```

use bcast_service::{
    Command, FaultPlan, KillPoint, Outcome, PlatformFamily, Service, ServiceError, SessionSpec,
};
use std::path::PathBuf;
use std::process::ExitCode;

const SESSION: &str = "main";

struct Args {
    dir: PathBuf,
    family: String,
    nodes: usize,
    density: f64,
    steps: usize,
    seed: u64,
    churn: bool,
    snapshot_every: usize,
    kill: Option<KillPoint>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bcast_serviced --dir PATH [--family random|tiers|gaussian] [--nodes N] \
         [--density D] [--steps S] [--seed SEED] [--churn] [--snapshot-every K] \
         [--kill-seq N --kill-kind before-append|mid-append|before-exec|after-exec|mid-snapshot]"
    );
    std::process::exit(EXIT_USAGE.into());
}

fn parse_args() -> Args {
    let mut dir = None;
    let mut family = "tiers".to_string();
    let mut nodes = 20usize;
    let mut density = 0.10f64;
    let mut steps = 8usize;
    let mut seed = 7025u64;
    let mut churn = false;
    let mut snapshot_every = 3usize;
    let mut kill_seq: Option<u64> = None;
    let mut kill_kind: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value("--dir"))),
            "--family" => family = value("--family"),
            "--nodes" => nodes = value("--nodes").parse().unwrap_or_else(|_| usage()),
            "--density" => density = value("--density").parse().unwrap_or_else(|_| usage()),
            "--steps" => steps = value("--steps").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--churn" => churn = true,
            "--snapshot-every" => {
                snapshot_every = value("--snapshot-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--kill-seq" => {
                kill_seq = Some(value("--kill-seq").parse().unwrap_or_else(|_| usage()))
            }
            "--kill-kind" => kill_kind = Some(value("--kill-kind")),
            _ => {
                eprintln!("unknown flag {flag}");
                usage()
            }
        }
    }
    let kill = match (kill_seq, kill_kind.as_deref()) {
        (None, None) => None,
        (Some(seq), Some(kind)) => Some(match kind {
            "before-append" => KillPoint::BeforeAppend(seq),
            "mid-append" => KillPoint::MidAppend(seq),
            "before-exec" => KillPoint::BeforeExec(seq),
            "after-exec" => KillPoint::AfterExec(seq),
            "mid-snapshot" => KillPoint::MidSnapshotWrite(seq),
            _ => usage(),
        }),
        _ => usage(),
    };
    Args {
        dir: dir.unwrap_or_else(|| usage()),
        family,
        nodes,
        density,
        steps,
        seed,
        churn,
        snapshot_every,
        kill,
    }
}

fn spec_of(args: &Args) -> SessionSpec {
    let family = match args.family.as_str() {
        "random" => PlatformFamily::Random {
            nodes: args.nodes,
            density: args.density,
        },
        "tiers" => PlatformFamily::Tiers {
            nodes: args.nodes,
            density: args.density,
        },
        "gaussian" => PlatformFamily::Gaussian { nodes: args.nodes },
        _ => usage(),
    };
    SessionSpec {
        family,
        platform_seed: args.seed,
        slice_size: 1.0e6,
        batch: 16,
        drift_steps: args.steps,
        drift_seed: args.seed ^ 0xC4A1,
        churn: args.churn,
    }
}

/// Exit status 2: a bad argument, including a spec the service refuses.
const EXIT_USAGE: u8 = 2;

/// Exit status 3: the armed kill point fired. The artifacts under
/// `--dir` are exactly what a crash would leave; re-running recovers.
const EXIT_KILLED: u8 = 3;

fn main() -> ExitCode {
    let args = parse_args();
    let fault = args
        .kill
        .map(FaultPlan::kill_at)
        .unwrap_or_else(FaultPlan::none);
    let mut service = match Service::open(&args.dir, fault) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("open failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recovery = service.recovery().clone();
    eprintln!(
        "recovered: snapshot_restored={} snapshot_rejected={} replayed={} wal_torn={}",
        recovery.snapshot_restored,
        recovery
            .snapshot_rejected
            .as_ref()
            .map_or_else(|| "none".to_string(), |reason| format!("{reason:?}")),
        recovery.replayed,
        recovery.wal_torn
    );

    if service.session(SESSION).is_none() {
        let create = Command::CreateSession {
            name: SESSION.into(),
            spec: spec_of(&args),
        };
        if let Err(code) = drive(&mut service, &create) {
            return code;
        }
        // A spec the service refuses is a bad argument; `drive` printed
        // the reason.
        if service.session(SESSION).is_none() {
            return ExitCode::from(EXIT_USAGE);
        }
    }

    loop {
        let session = service.session(SESSION).expect("created above");
        let done = session.steps_done();
        if done >= session.trace_len() {
            break;
        }
        let command = if session.next_step_is_churn() {
            Command::NodeChurn {
                session: SESSION.into(),
            }
        } else {
            Command::DriftStep {
                session: SESSION.into(),
            }
        };
        if let Err(code) = drive(&mut service, &command) {
            return code;
        }
        if args.snapshot_every > 0 && (done + 1) % args.snapshot_every == 0 {
            if let Err(code) = drive(&mut service, &Command::Snapshot) {
                return code;
            }
        }
    }
    for command in [
        Command::Resolve {
            session: SESSION.into(),
        },
        Command::QuerySchedule {
            session: SESSION.into(),
        },
    ] {
        if let Err(code) = drive(&mut service, &command) {
            return code;
        }
    }

    // The golden trace: the full per-step log, with exact f64 bits. A
    // killed-and-resumed run must print exactly these lines.
    let session = service.session(SESSION).expect("created above");
    for s in session.log() {
        println!(
            "step={} tp_bits={:016x} pivots={} rounds={} reused={} kept={} repairs={} \
             grafted={} pruned={} eff_bits={:016x} sim_tp_bits={:016x}",
            s.step,
            s.tp.to_bits(),
            s.pivots,
            s.rounds,
            s.reused_cuts,
            s.kept_trees,
            s.repair_ops,
            s.grafted,
            s.pruned,
            s.efficiency.to_bits(),
            s.sim_tp.to_bits()
        );
    }
    // `next_seq` is diagnostics, not golden output: a killed Snapshot
    // command is not re-issued on resume (the cadence is derived from
    // `steps_done`), so the WAL length may legitimately differ between an
    // uninterrupted run and a killed+resumed one. Solver state may not.
    println!("final steps={}", session.steps_done());
    eprintln!("next_seq={}", service.next_seq());
    ExitCode::SUCCESS
}

/// Applies one command; maps an injected kill to exit status 3 and any
/// other error to a failure. Outcomes are narrated to stderr (the golden
/// stdout carries only the step log).
fn drive(service: &mut Service, command: &Command) -> Result<(), ExitCode> {
    match service.apply(command) {
        Ok(Outcome::Rejected { reason }) => {
            eprintln!("rejected: {reason}");
            Ok(())
        }
        Ok(outcome) => {
            eprintln!("applied seq={}: {outcome:?}", service.next_seq() - 1);
            Ok(())
        }
        Err(ServiceError::Killed(point)) => {
            eprintln!("killed at {point:?}");
            Err(ExitCode::from(EXIT_KILLED))
        }
        Err(e) => {
            eprintln!("command failed: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}
