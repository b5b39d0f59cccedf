//! Metric names, units, and the per-run report every workload fills.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{median, percentile, ratio};
use crate::trace::LayerTotals;

/// The tail percentile of `sweep_p90_ms`. On the 2-CPU host the bounds
/// were set on, a run's p99 of the daemon's ~5 ms sweeps moved by 20% from
/// run to run with no change in code; the p90 (still ≥ 100 samples beyond
/// it per daemon) held within 5%. The p99 is reported per layer.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// End-to-end metrics (`--trace 0`), emitted by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sweep_p50_ms", "ms"),
    ("sweep_p90_ms", "ms"),
    ("sweeps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), emitted by every workload; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.generate_ms", "ms"),
    ("dag.clone_ms", "ms"),
    ("engine.hash_ms", "ms"),
    ("core.transform_ms", "ms"),
    ("api.derived_ms", "ms"),
    ("api.sampled_ms", "ms"),
    ("api.anytime_ms", "ms"),
    ("sim.makespan_ms", "ms"),
    ("dag.nodes", "count"),
    ("dag.edges", "count"),
    ("api.het_us", "us"),
    ("api.hom_us", "us"),
    ("api.sim_us", "us"),
    ("core.r_het_us", "us"),
    ("engine.job_wall_us_p50", "us"),
    ("engine.job_wall_us_p99", "us"),
    ("engine.pool_busy_frac", "frac"),
    ("engine.pool_steals", "count"),
    ("engine.result_hit_ratio", "frac"),
    ("engine.transform_hit_ratio", "frac"),
    ("engine.derived_hit_ratio", "frac"),
    ("engine.input_hit_ratio", "frac"),
    ("engine.aggregate_us", "us"),
    ("engine.replay_jobs_per_s", "1/s"),
    ("serve.sweep_p99_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.busy_retries", "count"),
    ("serve.frames_per_sweep", "count"),
    ("engine.wire_encode_us", "us"),
    ("engine.wire_decode_us", "us"),
    ("engine.disk_store_us", "us"),
    ("engine.disk_load_us", "us"),
    ("engine.journal_record_us", "us"),
    ("engine.disk_write_failed", "count"),
    ("engine.disk_bytes_per_job", "B"),
    ("dist.tx_bytes_per_job", "B"),
    ("dist.rx_bytes_per_job", "B"),
    ("dist.redispatched", "count"),
    ("dist.worker_balance", "ratio"),
    ("failed_frac", "frac"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.layer_sum_frac", "frac"),
];

/// Span name → per-layer metric and its scale from milliseconds.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("gen.generate", "gen.generate_ms", 1.0),
    ("dag.clone", "dag.clone_ms", 1.0),
    ("engine.hash", "engine.hash_ms", 1.0),
    ("core.transform", "core.transform_ms", 1.0),
    ("api.derived", "api.derived_ms", 1.0),
    ("api.sampled", "api.sampled_ms", 1.0),
    ("api.anytime", "api.anytime_ms", 1.0),
    ("sim.makespan", "sim.makespan_ms", 1.0),
    ("api.het", "api.het_us", 1e3),
    ("api.hom", "api.hom_us", 1e3),
    ("api.sim", "api.sim_us", 1e3),
    ("core.r_het", "core.r_het_us", 1e3),
    ("engine.aggregate", "engine.aggregate_us", 1e3),
    ("engine.wire_encode", "engine.wire_encode_us", 1e3),
    ("engine.wire_decode", "engine.wire_decode_us", 1e3),
    ("engine.disk_store", "engine.disk_store_us", 1e3),
    ("engine.disk_load", "engine.disk_load_us", 1e3),
    ("engine.journal_record", "engine.journal_record_us", 1e3),
];

/// Spans that make up a job of the layer pass (the `job` span itself
/// holds the remainder).
const JOB_LAYERS: &[&str] = &[
    "job",
    "gen.generate",
    "engine.hash",
    "core.transform",
    "api.derived",
    "api.het",
    "api.hom",
    "api.sim",
    "api.sampled",
    "api.anytime",
    "api.other",
];

/// The raw samples behind the end-to-end metrics. Rates are recorded
/// per unit of work (a sweep, a job, a daemon session) and
/// reported as medians, so one slow unit does not move the run's value.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds to bring the system to ready, once per set-up.
    pub setup_s: Vec<f64>,
    /// Cold jobs per second, per unit.
    pub jobs_per_s: Vec<f64>,
    /// Latency of each counted sweep, submit to result, in ms.
    pub sweep_ms: Vec<f64>,
    /// Per-unit tail latencies, in ms, where a unit holds enough sweeps
    /// for one; without them the tail is taken over `sweep_ms`.
    pub tail_ms: Vec<f64>,
    /// Sweeps per second, per unit.
    pub sweeps_per_s: Vec<f64>,
    /// Warm-replayed jobs per second, per unit. Reported per layer
    /// (`engine.replay_jobs_per_s`): a replay takes microseconds to tens
    /// of milliseconds, too short to hold to an end-to-end bound.
    pub replay_jobs_per_s: Vec<f64>,
    /// Largest `VmHWM` among the workload's processes.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Records a unit of `sweeps` sweeps and `jobs` cold jobs that took
    /// `wall_s` seconds.
    pub fn cold(&mut self, jobs: u64, sweeps: u64, wall_s: f64) {
        self.jobs_per_s.push(ratio(jobs as f64, wall_s));
        self.sweeps_per_s.push(ratio(sweeps as f64, wall_s));
    }

    /// Records `jobs` warm jobs replayed in `wall_s` seconds.
    pub fn replay(&mut self, jobs: u64, wall_s: f64) {
        self.replay_jobs_per_s.push(ratio(jobs as f64, wall_s));
    }

    fn values(&self) -> [f64; 6] {
        [
            median(&self.setup_s),
            median(&self.jobs_per_s),
            median(&self.sweep_ms),
            if self.tail_ms.is_empty() {
                percentile(&self.sweep_ms, TAIL_PERCENTILE)
            } else {
                median(&self.tail_ms)
            },
            median(&self.sweeps_per_s),
            self.peak_rss_mb,
        ]
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: EndToEnd,
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks and job failures, in order.
    pub errors: Vec<String>,
    /// Attribution facts: seeds, job counts, graph sizes.
    pub meta: Vec<(String, Json)>,
}

impl Report {
    /// Records a job-level outcome of `jobs` jobs.
    pub fn jobs<T>(&mut self, jobs: u64, outcome: Result<T, String>) -> Option<T> {
        self.attempted += jobs;
        match outcome {
            Ok(value) => Some(value),
            Err(message) => {
                self.failed += jobs;
                self.errors.push(message);
                None
            }
        }
    }

    /// Records a correctness check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(message) = outcome {
            self.errors.push(message);
        }
    }

    /// Sets a per-layer metric (must be one of [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Sets the span-derived per-layer metrics from a folded table;
    /// `job_wall_s` is the engine's own summed job time for the same
    /// jobs, the base of `obs.layer_sum_frac`.
    pub fn layers_from_fold(
        &mut self,
        table: &BTreeMap<&'static str, LayerTotals>,
        job_wall_s: f64,
    ) {
        for (span, metric, scale) in SPAN_METRICS {
            if let Some(t) = table.get(span) {
                self.layer(metric, t.self_ms_per_call() * scale);
            }
        }
        let layer_ns: u64 = JOB_LAYERS
            .iter()
            .filter_map(|name| table.get(name))
            .map(|t| t.self_ns)
            .sum();
        self.layer(
            "obs.layer_sum_frac",
            ratio(layer_ns as f64 / 1e9, job_wall_s),
        );
    }

    /// The metrics object of the result line.
    pub fn metrics_json(&self, trace: bool) -> Json {
        let entry = |value: f64, unit: &str| {
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ])
        };
        if trace {
            let mut layers = self.layers.clone();
            layers.insert(
                "failed_frac",
                ratio(self.failed as f64, self.attempted as f64),
            );
            layers.insert(
                "engine.replay_jobs_per_s",
                median(&self.e2e.replay_jobs_per_s),
            );
            Json::obj(
                PER_LAYER.iter().map(|(name, unit)| {
                    (*name, entry(layers.get(name).copied().unwrap_or(0.0), unit))
                }),
            )
        } else {
            let values = self.e2e.values();
            Json::obj(
                END_TO_END
                    .iter()
                    .zip(values)
                    .map(|((name, unit), value)| (*name, entry(value, unit))),
            )
        }
    }
}
