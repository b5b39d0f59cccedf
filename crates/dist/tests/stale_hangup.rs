//! A worker declared dead by heartbeat timeout costs exactly one death
//! and one respawn: once its process is killed, the hangup its old
//! connection reports must not be taken for the replacement's death.
//!
//! This test runs without the libtest harness because its binary
//! doubles as the worker program the coordinator spawns. Slot 0's first
//! launch impersonates a worker that says hello and then goes silent
//! with its connection open — no results, no heartbeats — until the
//! coordinator kills it. Every other launch runs the real worker.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

use hetrta_dist::{run_distributed, DistConfig, DistMsg, WorkerLauncher};
use hetrta_engine::{Engine, GeneratorPreset, SweepSpec};

/// Flag naming the directory in which slot 0's first launch leaves its
/// mark; it precedes the coordinator's standard worker flags.
const MARK_FLAG: &str = "--silent-mark";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(MARK_FLAG) {
        worker(&args[2..], Path::new(&args[1]));
    } else {
        timed_out_worker_costs_one_death_and_one_respawn();
        println!("test timed_out_worker_costs_one_death_and_one_respawn ... ok");
    }
}

/// The spawned side: silent the first time slot 0 starts, the real
/// worker otherwise.
fn worker(args: &[String], mark_dir: &Path) {
    let flag = |name: &str| {
        let at = args.iter().position(|a| a == name).expect("standard flag");
        args[at + 1].clone()
    };
    let slot: usize = flag("--worker").parse().expect("worker id");
    let first = std::fs::File::create_new(mark_dir.join(format!("slot{slot}"))).is_ok();
    if slot == 0 && first {
        let mut stream = TcpStream::connect(flag("--connect")).expect("connect");
        DistMsg::Hello { worker: slot }
            .write_to(&mut stream)
            .expect("hello");
        stream.flush().expect("flush hello");
        // Read until the kill (or the coordinator's hangup); send nothing.
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
        return;
    }
    let status = Command::new(env!("CARGO_BIN_EXE_hetrta-dist-worker"))
        .args(args)
        .status()
        .expect("run the worker");
    std::process::exit(status.code().unwrap_or(1));
}

fn timed_out_worker_costs_one_death_and_one_respawn() {
    let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.1, 0.3], 6, 0x57A1E);
    let local = Engine::new(1).run(&spec).expect("local run");

    let mark_dir = std::env::temp_dir().join(format!("hetrta-stale-hangup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&mark_dir);
    std::fs::create_dir_all(&mark_dir).expect("mark dir");
    let mut config = DistConfig::local(
        2,
        WorkerLauncher {
            program: std::env::current_exe().expect("test binary path"),
            args: vec![MARK_FLAG.into(), mark_dir.display().to_string()],
        },
    );
    config.worker_threads = 1;
    // Real workers beat every 200 ms, well inside this.
    config.heartbeat_timeout = Duration::from_millis(600);

    let out = run_distributed(&spec, &config, &hetrta_obs::NOOP, None, |_| {})
        .expect("the sweep survives the silent worker");
    let _ = std::fs::remove_dir_all(&mark_dir);

    assert_eq!(out.worker_deaths, 1, "only the silent process died");
    assert_eq!(out.respawns, 1, "one replacement, not two");
    assert_eq!(out.completed, out.total, "zero lost jobs");
    assert_eq!(
        out.aggregate, local.aggregate,
        "the aggregate is bitwise the local one"
    );
}
