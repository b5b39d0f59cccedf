//! Standalone dist worker binary.
//!
//! Spawned by the coordinator (and by the integration tests); the
//! `hetrta dist worker` subcommand accepts the same flags and calls the
//! same [`hetrta_dist::run_worker`] entry point.

use std::path::PathBuf;
use std::time::Duration;

use hetrta_dist::{run_worker, WorkerConfig};

fn parse_args(args: &[String]) -> Result<WorkerConfig, String> {
    let mut config = WorkerConfig {
        addr: String::new(),
        worker: 0,
        threads: 0,
        cache_dir: None,
        heartbeat_every: WorkerConfig::DEFAULT_HEARTBEAT,
        chaos: None,
        die_after: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a {what}"))
        };
        match flag.as_str() {
            "--connect" => config.addr = value("coordinator address")?,
            "--worker" => {
                config.worker = value("worker id")?
                    .parse()
                    .map_err(|_| format!("{flag} needs a number"))?;
            }
            "--threads" => {
                config.threads = value("thread count")?
                    .parse()
                    .map_err(|_| format!("{flag} needs a number"))?;
            }
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value("directory")?)),
            "--heartbeat-ms" => {
                let ms: u64 = value("milliseconds")?
                    .parse()
                    .map_err(|_| format!("{flag} needs a number"))?;
                config.heartbeat_every = Duration::from_millis(ms.max(1));
            }
            "--chaos" => {
                let raw = value("seed")?;
                let seed = raw
                    .strip_prefix("0x")
                    .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16))
                    .map_err(|_| format!("{flag} needs a seed (decimal or 0x hex)"))?;
                config.chaos = Some(seed);
            }
            "--die-after" => {
                config.die_after = Some(
                    value("result count")?
                        .parse()
                        .map_err(|_| format!("{flag} needs a number"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.addr.is_empty() {
        return Err("--connect <host:port> is required".into());
    }
    Ok(config)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("hetrta-dist-worker: {msg}");
            eprintln!(
                "usage: hetrta-dist-worker --connect <host:port> [--worker N] \
                 [--threads N] [--cache-dir DIR] [--heartbeat-ms N] [--chaos SEED] \
                 [--die-after N]"
            );
            std::process::exit(2);
        }
    };
    match run_worker(&config, &hetrta_obs::NOOP) {
        Ok(_jobs) => {}
        Err(e) => {
            eprintln!("hetrta-dist-worker: {e}");
            std::process::exit(1);
        }
    }
}
