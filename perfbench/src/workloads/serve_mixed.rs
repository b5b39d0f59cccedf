//! `serve_mixed`: a `hetrta serve --threads 2` daemon in its own
//! process, driven by 2 closed-loop clients through
//! `hetrta_serve::ServeClient`. Each sweep opens a fresh connection, as
//! the CLI does. Sweeps are small (40 jobs) and alternate between one
//! fixed spec (warm: result-cache reads) and a fresh seed (cold), so the
//! accept loop, admission, framing and the wire codec set the latency.
//!
//! The daemon is restarted every [`SESSION_SWEEPS`] sweeps, so each daemon
//! does the same work however fast it is, and its peak memory does not
//! grow with the sweep rate. Each daemon lifetime (a session) yields one
//! p90 sample; the run reports their median, so a host hiccup during one
//! session does not decide the run's tail.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use hetrta_engine::{GeneratorPreset, SweepAggregate, SweepSpec};
use hetrta_serve::{ClientError, Progress, ServeClient};

use super::{derive_seed, engine, engine_probe, graph_meta, layer_report, overhead, seeds_json};
use super::{spec_graph_sizes, RunCtx, THREADS};
use crate::checks;
use crate::json::Json;
use crate::report::{Report, TAIL_PERCENTILE};
use crate::stats::{median, percentile, ratio};
use crate::sys;
use crate::trace::Tracer;

/// Sweeps per daemon lifetime (split evenly over the clients): enough
/// for ten samples beyond a p99 (reported per layer) and a hundred
/// beyond the session's p90.
const SESSION_SWEEPS: usize = 1000;
const TINY_SESSION_SWEEPS: usize = 12;
/// The run continues past its seconds until this many sweeps completed.
const MIN_SWEEPS: usize = 1000;
const TINY_MIN_SWEEPS: usize = 24;
/// Index space of the warm spec's seed (cold seeds count from 1).
const WARM: u64 = 0;

/// The small-preset sweep: cores {2,8} × fractions {0.1,0.3} × 10 tasks.
pub fn spec(seed: u64) -> SweepSpec {
    SweepSpec::fractions(GeneratorPreset::Small, vec![2, 8], vec![0.1, 0.3], 10, seed)
}

/// A daemon process; killed on drop if still running.
struct Daemon {
    child: Child,
    addr: String,
    /// Forwards the daemon's stderr; ends when the daemon does.
    stderr: Option<thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon on a free port and waits until it answers.
    fn start(hetrta: &std::path::Path) -> Result<Daemon, String> {
        let mut child = Command::new(hetrta)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &THREADS.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", hetrta.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let announced = lines.next().and_then(Result::ok).unwrap_or_default();
        // Keep draining so the daemon never blocks on a full pipe.
        let stderr =
            thread::spawn(move || lines.map_while(Result::ok).for_each(|l| eprintln!("{l}")));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr: Some(stderr),
        };
        daemon.addr = announced
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("daemon did not announce its address: {announced:?}"))?
            .to_string();
        ServeClient::connect(&daemon.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("daemon not ready: {e}"))?;
        Ok(daemon)
    }

    /// Peak memory, then a graceful drain; waits for the process to end.
    fn stop(mut self) -> Result<f64, String> {
        let rss = sys::peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0);
        ServeClient::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(stderr) = self.stderr.take() {
            stderr
                .join()
                .map_err(|_| "daemon stderr forwarder panicked")?;
        }
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(rss)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

/// One client-observed sweep.
struct Sweep {
    warm: bool,
    seed: u64,
    /// Connect + submit → `Accepted`.
    accept: Duration,
    /// `Accepted` → `Done`.
    exec: Duration,
    busy_retries: u64,
    /// Reply frames read, `Accepted` and `Done` included.
    frames: u64,
    outcome: Result<SweepAggregate, String>,
}

fn one_sweep(
    addr: &str,
    spec: &SweepSpec,
    warm: bool,
    tracer: Option<&Tracer>,
    unit: u64,
) -> Sweep {
    let mut sweep = Sweep {
        warm,
        seed: spec.seeds[0],
        accept: Duration::ZERO,
        exec: Duration::ZERO,
        busy_retries: 0,
        frames: 0,
        outcome: Err(String::new()),
    };
    let started = Instant::now();
    let traced = |name, f: &mut dyn FnMut() -> Result<(), ClientError>| match tracer {
        Some(t) => t.span(name, unit, f),
        None => f(),
    };
    let mut client = None;
    let accepted = traced("serve.accept", &mut || {
        let c = client.insert(ServeClient::connect(addr)?);
        loop {
            sweep.frames += 1;
            match c.submit("bench", spec) {
                Err(ClientError::Busy { retry_after_ms }) => {
                    sweep.busy_retries += 1;
                    thread::sleep(Duration::from_millis(retry_after_ms));
                }
                other => return other.map(drop),
            }
        }
    });
    sweep.accept = started.elapsed();
    let exec_started = Instant::now();
    let mut aggregate = None;
    let done = accepted.and_then(|()| {
        traced("serve.exec", &mut || {
            let c = client.as_mut().expect("connected");
            loop {
                sweep.frames += 1;
                if let Progress::Done(outcome) = c.next_progress()? {
                    aggregate = Some(outcome.aggregate);
                    return Ok(());
                }
            }
        })
    });
    sweep.exec = exec_started.elapsed();
    sweep.outcome = done
        .map_err(|e| format!("sweep seed {}: {e}", sweep.seed))
        .map(|()| aggregate.expect("done carries the aggregate"));
    sweep
}

/// Runs `per_client` sweeps on each of the clients against one daemon.
/// Client `c`'s sweep `k` is warm when `c + k` is even, so half the
/// sweeps in flight are warm at any time.
fn session(
    addr: &str,
    seed: u64,
    first_cold: u64,
    per_client: usize,
    tracer: Option<&Tracer>,
) -> (Vec<Sweep>, f64) {
    let started = Instant::now();
    let sweeps = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|c| {
                scope.spawn(move || {
                    (0..per_client)
                        .map(|k| {
                            let warm = (c + k) % 2 == 0;
                            let index = first_cold + (c * per_client + k) as u64;
                            let spec = spec(derive_seed(seed, if warm { WARM } else { index }));
                            one_sweep(addr, &spec, warm, tracer, index)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (sweeps, started.elapsed().as_secs_f64())
}

/// The sweeps of one daemon's lifetime and the wall time the clients took.
struct Session {
    sweeps: Vec<Sweep>,
    wall_s: f64,
}

/// The sessions of one phase.
#[derive(Default)]
struct Phase {
    sessions: Vec<Session>,
}

impl Phase {
    fn sweeps(&self) -> impl Iterator<Item = &Sweep> {
        self.sessions.iter().flat_map(|s| &s.sweeps)
    }

    fn wall_s(&self) -> f64 {
        self.sessions.iter().map(|s| s.wall_s).sum()
    }
}

fn run_sessions(
    ctx: &RunCtx,
    report: &mut Report,
    until: impl Fn(&Phase) -> bool,
    tracer: Option<&Tracer>,
) -> Phase {
    let per_client = if ctx.tiny {
        TINY_SESSION_SWEEPS
    } else {
        SESSION_SWEEPS
    } / THREADS;
    let warm = spec(derive_seed(ctx.seed, WARM));
    let mut phase = Phase::default();
    while !until(&phase) {
        let t = Instant::now();
        let daemon = match Daemon::start(&ctx.hetrta) {
            Ok(d) => d,
            Err(e) => {
                report.errors.push(e);
                break;
            }
        };
        report.e2e.setup_s.push(t.elapsed().as_secs_f64());
        // Prime the warm spec so its sweeps read the result cache.
        let primed = ServeClient::connect(&daemon.addr)
            .and_then(|mut c| c.run_to_completion("bench", &warm, |_| {}))
            .map(drop)
            .map_err(|e| format!("priming the warm spec: {e}"));
        report.check(primed);
        let first_cold = 1 + (phase.sessions.len() * per_client * THREADS) as u64;
        let (sweeps, wall_s) = session(&daemon.addr, ctx.seed, first_cold, per_client, tracer);
        phase.sessions.push(Session { sweeps, wall_s });
        match daemon.stop() {
            Ok(rss) => report.e2e.peak_rss_mb = report.e2e.peak_rss_mb.max(rss),
            Err(e) => report.errors.push(e),
        }
    }
    phase
}

pub fn run(ctx: &RunCtx, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let budget = ctx.plain_budget();
    let min_sweeps = if ctx.tiny {
        TINY_MIN_SWEEPS
    } else {
        MIN_SWEEPS
    };
    let min_sweeps = if ctx.trace { 1 } else { min_sweeps };
    sys::reset_own_peak_rss();
    let started = Instant::now();
    let plain = run_sessions(
        ctx,
        &mut report,
        |p| p.sweeps().count() >= min_sweeps && started.elapsed() >= budget,
        None,
    );
    report.e2e.peak_rss_mb = report.e2e.peak_rss_mb.max(sys::own_peak_rss_mb());

    let jobs_per_sweep = spec(0).job_count() as u64;
    let mut warm_seen = None;
    let mut cold_seen = None;
    for session in &plain.sessions {
        let (mut done, mut warm_jobs, mut warm_s) = (0, 0, 0.0);
        let mut session_ms = Vec::with_capacity(session.sweeps.len());
        for sweep in &session.sweeps {
            let latency_s = (sweep.accept + sweep.exec).as_secs_f64();
            session_ms.push(latency_s * 1e3);
            if let Some(agg) = report.jobs(jobs_per_sweep, sweep.outcome.clone()) {
                done += 1;
                if sweep.warm {
                    warm_jobs += jobs_per_sweep;
                    warm_s += latency_s;
                    warm_seen.get_or_insert(agg);
                } else {
                    cold_seen.get_or_insert((sweep.seed, agg));
                }
            }
        }
        report.e2e.cold(done * jobs_per_sweep, done, session.wall_s);
        report.e2e.replay(warm_jobs, warm_s);
        report
            .e2e
            .tail_ms
            .push(percentile(&session_ms, TAIL_PERCENTILE));
        report.e2e.sweep_ms.extend(session_ms);
    }

    // Every warm result must be bitwise the in-process run of the warm
    // spec, and one cold result that of its own spec.
    let warm_spec = spec(derive_seed(ctx.seed, WARM));
    let reference = engine().and_then(|e| e.run(&warm_spec).map_err(|e| e.to_string()));
    match &reference {
        Ok(reference) => {
            let warm_fp = checks::fingerprint(&reference.aggregate);
            let bad = plain
                .sweeps()
                .filter(|s| s.warm)
                .filter_map(|s| s.outcome.as_ref().ok())
                .filter(|agg| checks::fingerprint(agg) != warm_fp)
                .count();
            if bad > 0 {
                report
                    .errors
                    .push(format!("{bad} warm sweeps differ from the in-process run"));
            }
            if warm_seen.is_none() {
                report.errors.push("no warm sweep completed".into());
            }
        }
        Err(e) => report.errors.push(format!("in-process reference: {e}")),
    }
    match &cold_seen {
        Some((seed, agg)) => {
            let cold_ref = engine().and_then(|e| e.run(&spec(*seed)).map_err(|e| e.to_string()));
            report.check(cold_ref.and_then(|r| checks::same_bits("cold sweep", agg, &r.aggregate)));
        }
        None => report.errors.push("no cold sweep completed".into()),
    }

    if ctx.trace {
        let sessions = plain.sessions.len();
        let traced = run_sessions(
            ctx,
            &mut report,
            |p| p.sessions.len() >= sessions,
            Some(tracer),
        );
        report.layer(
            "obs.trace_overhead_frac",
            overhead(traced.wall_s(), plain.wall_s()),
        );
        let ms = |f: fn(&Sweep) -> Duration| {
            let xs: Vec<f64> = traced.sweeps().map(|s| f(s).as_secs_f64() * 1e3).collect();
            median(&xs)
        };
        let plain_ms: Vec<f64> = plain
            .sweeps()
            .map(|s| (s.accept + s.exec).as_secs_f64() * 1e3)
            .collect();
        report.layer("serve.sweep_p99_ms", percentile(&plain_ms, 99.0));
        report.layer("serve.accept_ms", ms(|s| s.accept));
        report.layer("serve.exec_ms", ms(|s| s.exec));
        let n = traced.sweeps().count() as f64;
        let busy: u64 = traced.sweeps().map(|s| s.busy_retries).sum();
        let frames: u64 = traced.sweeps().map(|s| s.frames).sum();
        report.layer("serve.busy_retries", busy as f64);
        report.layer("serve.frames_per_sweep", ratio(frames as f64, n));
        for sweep in traced.sweeps() {
            report.jobs(jobs_per_sweep, sweep.outcome.clone().map(drop));
        }
        // The in-process view of the same warm spec: engine probe and
        // layer pass (near zero: each sweep is tiny).
        if let (Ok(reference), Some(probe)) = (
            &reference,
            report.jobs(jobs_per_sweep, engine_probe(&warm_spec)),
        ) {
            layer_report(
                &mut report,
                tracer,
                &warm_spec,
                &reference.aggregate,
                &probe,
            );
        }
    }
    let (nodes, edges) = spec_graph_sizes(&warm_spec);
    graph_meta(&mut report, &nodes, &edges);
    let mut seeds = vec![warm_spec.seeds[0]];
    seeds.extend(cold_seen.map(|(s, _)| s));
    report
        .meta
        .push(("workload_seeds".into(), seeds_json(&seeds)));
    report
        .meta
        .push(("jobs_per_sweep".into(), Json::Int(jobs_per_sweep)));
    report
        .meta
        .push(("sweeps".into(), Json::Int(plain.sweeps().count() as u64)));
    report.meta.push((
        "daemon_sessions".into(),
        Json::Int(plain.sessions.len() as u64),
    ));
    report
}
