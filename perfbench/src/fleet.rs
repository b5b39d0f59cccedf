//! The fleet and persistence layers, measured per layer only.
//!
//! One cycle runs `hetrta_dist::run_distributed` over 2 spawned
//! `hetrta dist worker` processes × 1 thread with a fresh shared disk
//! cache and journal (a cold sweep: disk writes, journal records), then a
//! fresh fleet replays the same spec from the disk cache (reads). Both
//! aggregates must be bitwise the in-process run's.
//!
//! Fleet wall times are not an end-to-end metric of the benchmark: on the
//! 2-CPU host the bounds were set on, a cycle's time moves in 200 ms steps
//! (the workers' heartbeat cadence) and small-file disk writes swing it by
//! up to 2× between runs, so no bound it could be held to would mean
//! anything. The traced run of `sweep_small` calls [`fleet_layers`].

use std::path::{Path, PathBuf};
use std::time::Instant;

use hetrta_dist::{run_distributed, DistConfig, DistOutcome, WorkerLauncher};
use hetrta_engine::cache::result_key;
use hetrta_engine::obs::NoopRecorder;
use hetrta_engine::{DiskCache, JobMetrics, JobResult, JournalConfig, SweepJournal, SweepSpec};

use crate::checks;
use crate::json::Json;
use crate::report::Report;
use crate::stats::ratio;
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{engine, sweep_small, RunCtx, THREADS};

fn config(hetrta: &Path, cache_dir: Option<PathBuf>, journal: Option<PathBuf>) -> DistConfig {
    let launcher = WorkerLauncher {
        program: hetrta.to_path_buf(),
        args: vec!["dist".into(), "worker".into()],
    };
    let mut config = DistConfig::local(THREADS, launcher);
    config.worker_threads = 1;
    config.cache_dir = cache_dir;
    config.journal = journal.map(JournalConfig::new);
    config
}

/// One cold + warm cycle's observations.
struct Cycle {
    cold: DistOutcome,
    warm: DistOutcome,
    cold_s: f64,
    warm_s: f64,
    disk_bytes: u64,
}

fn cycle(ctx: &RunCtx, spec: &SweepSpec) -> Result<Cycle, String> {
    let dir = ctx.scratch.join("fleet");
    let (cache, journal) = (dir.join("cache"), dir.join("journal"));
    let t = Instant::now();
    let cold = run_distributed(
        spec,
        &config(&ctx.hetrta, Some(cache.clone()), Some(journal.clone())),
        &NoopRecorder,
        None,
        |_| {},
    )
    .map_err(|e| format!("cold fleet sweep: {e}"))?;
    let cold_s = t.elapsed().as_secs_f64();
    let disk_bytes = sys::dir_bytes(&cache) + sys::dir_bytes(&journal);
    let t = Instant::now();
    let warm = run_distributed(
        spec,
        &config(&ctx.hetrta, Some(cache), None),
        &NoopRecorder,
        None,
        |_| {},
    )
    .map_err(|e| format!("warm fleet replay: {e}"))?;
    let warm_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Cycle {
        cold,
        warm,
        cold_s,
        warm_s,
        disk_bytes,
    })
}

/// Times the persistence layers on one spec's real job results, each
/// call in its own span: `DiskCache::store_result` and `load_result` for
/// every outcome, and `SweepJournal::record_done` for every job.
fn persistence_probe(ctx: &RunCtx, spec: &SweepSpec, tracer: &Tracer, report: &mut Report) {
    let mut results: Vec<JobResult> = Vec::new();
    let indices: Vec<usize> = (0..spec.job_count().min(PROBE_JOBS)).collect();
    let ran = engine().and_then(|e| {
        e.run_job_subset(spec, &indices, |r| results.push(r))
            .map_err(|e| e.to_string())
    });
    if report.jobs(indices.len() as u64, ran).is_none() {
        return;
    }
    let dir = ctx.scratch.join("persistence-probe");
    let disk = match DiskCache::open(dir.join("cache")) {
        Ok(disk) => disk,
        Err(e) => return report.errors.push(format!("disk cache: {e}")),
    };
    for r in &results {
        let Ok(JobMetrics::Outcomes(outcomes)) = &r.metrics else {
            continue;
        };
        for (k, outcome) in outcomes.iter().enumerate() {
            let key = result_key(r.identity, outcome.key(), k as u64);
            tracer.span("engine.disk_store", r.index as u64, || {
                disk.store_result(key, outcome)
            });
            let back = tracer.span("engine.disk_load", r.index as u64, || disk.load_result(key));
            if back.as_ref() != Some(outcome) {
                report.errors.push(format!(
                    "disk cache returned a different outcome for job {}",
                    r.index
                ));
            }
        }
    }
    report.layer("engine.disk_write_failed", disk.write_failed() as f64);
    match SweepJournal::open(
        &JournalConfig::new(dir.join("journal")),
        spec,
        spec.job_count(),
    ) {
        Ok((journal, _replay)) => {
            for r in &results {
                tracer.span("engine.journal_record", r.index as u64, || {
                    journal.record_done(r)
                });
            }
            journal.seal();
        }
        Err(e) => report.errors.push(format!("journal: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tasks per grid point of the fleet cycle: 12 cells × 50 = 600 jobs.
const PER_POINT: usize = 50;
/// Jobs whose outcomes the persistence probe stores, loads and journals.
const PROBE_JOBS: usize = 200;

/// Runs one fleet cycle on the `sweep_small` grid at [`PER_POINT`] tasks
/// per point and the persistence probe, and sets the `dist.*`,
/// `engine.disk_*` and `engine.journal_record_us` metrics.
pub fn fleet_layers(ctx: &RunCtx, seed: u64, tracer: &Tracer, report: &mut Report) {
    let mut spec = sweep_small::spec(seed, ctx.tiny);
    spec.jobs_per_point = spec.jobs_per_point.min(PER_POINT);
    let jobs = spec.job_count() as u64;
    let Some(c) = report.jobs(2 * jobs, cycle(ctx, &spec)) else {
        return;
    };
    match engine().and_then(|e| e.run(&spec).map_err(|e| e.to_string())) {
        Ok(reference) => {
            report.check(checks::same_bits(
                "cold fleet",
                &c.cold.aggregate,
                &reference.aggregate,
            ));
            report.check(checks::same_bits(
                "warm fleet",
                &c.warm.aggregate,
                &reference.aggregate,
            ));
            report.check(checks::theorem1(&c.cold.aggregate));
        }
        Err(e) => report.errors.push(format!("in-process reference: {e}")),
    }
    if c.cold.completed != c.cold.total || c.warm.completed != c.warm.total {
        report.errors.push("a fleet left jobs unfinished".into());
    }
    let per_job = |x: u64| ratio(x as f64, jobs as f64);
    report.layer("engine.disk_bytes_per_job", per_job(c.disk_bytes));
    report.layer("dist.tx_bytes_per_job", per_job(c.cold.bytes_tx));
    report.layer("dist.rx_bytes_per_job", per_job(c.cold.bytes_rx));
    report.layer(
        "dist.redispatched",
        (c.cold.redispatched_jobs + c.warm.redispatched_jobs) as f64,
    );
    let per_worker = &c.cold.worker_jobs;
    if let (Some(&max), Some(&min)) = (per_worker.iter().max(), per_worker.iter().min()) {
        report.layer("dist.worker_balance", ratio(max as f64, min as f64));
    }
    report
        .meta
        .push(("fleet_cold_s".into(), Json::Num(c.cold_s)));
    report
        .meta
        .push(("fleet_warm_s".into(), Json::Num(c.warm_s)));
    persistence_probe(ctx, &spec, tracer, report);
}
