//! The workloads and what they share.

pub mod graph_1m;
pub mod serve_mixed;
pub mod sweep_small;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetrta_engine::{
    AnalysisRegistry, Engine, EngineBuilder, EngineOutput, SessionConfig, SweepAggregate,
    SweepEvent, SweepSpec, TraceRecorder,
};

use crate::json::Json;
use crate::report::Report;
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::{checks, layers};

/// Engine threads, daemon threads and client connections: the load comes
/// from one process with no more of them than the host's CPUs.
pub const THREADS: usize = 2;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Seconds-long sizes for the benchmark's own tests.
    pub tiny: bool,
    /// The `hetrta` CLI binary (daemon and fleet workers).
    pub hetrta: PathBuf,
    /// A private directory for caches and journals.
    pub scratch: PathBuf,
}

impl RunCtx {
    /// Seconds the measured (plain) phase runs for: all of them, or half
    /// when a traced phase repeats the same work afterwards.
    pub fn plain_budget(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// SplitMix64 of `seed` and `index`: independent, reproducible seeds.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        ^ index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh engine on [`THREADS`] threads.
pub fn engine() -> Result<Engine, String> {
    EngineBuilder::new()
        .threads(THREADS)
        .build()
        .map_err(|e| e.to_string())
}

/// Engine builds timed per set-up: one build takes tens of microseconds,
/// so several are timed and the run reports their median.
const SETUP_BUILDS: usize = 16;

/// Builds [`SETUP_BUILDS`] fresh engines, recording each build time as a
/// set-up sample, and returns the last one.
pub fn timed_engine(report: &mut Report) -> Option<Engine> {
    let mut built = None;
    for _ in 0..SETUP_BUILDS {
        drop(built.take());
        let t = Instant::now();
        let engine = report.jobs(0, engine())?;
        report.e2e.setup_s.push(t.elapsed().as_secs_f64());
        built = Some(engine);
    }
    built
}

/// What a traced engine run of one spec observed.
#[derive(Debug)]
pub struct EngineProbe {
    pub wall_s: f64,
    pub output: EngineOutput,
    /// Worker wall time of every job (`SweepEvent::JobFinished`).
    pub job_walls: Vec<Duration>,
    pub busy_us: u64,
    pub idle_us: u64,
}

/// Runs `spec` on a fresh engine with a `hetrta-obs` trace recorder and
/// per-job events on, draining the event stream as it goes.
pub fn engine_probe(spec: &SweepSpec) -> Result<EngineProbe, String> {
    let engine = EngineBuilder::new()
        .threads(THREADS)
        .with_recorder(Arc::new(TraceRecorder::new()))
        .build()
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let handle = engine
        .submit_with(spec, SessionConfig::default())
        .map_err(|e| e.to_string())?;
    let mut job_walls = Vec::new();
    while let Some(event) = handle.next_event() {
        match event {
            SweepEvent::JobFinished { wall_time, .. } => job_walls.push(wall_time),
            SweepEvent::SweepFinished { .. } => break,
            _ => {}
        }
    }
    let output = handle.wait().map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let snapshot = engine.metrics().snapshot();
    Ok(EngineProbe {
        wall_s,
        output,
        job_walls,
        busy_us: snapshot.counter("pool.busy_us").unwrap_or(0),
        idle_us: snapshot.counter("pool.idle_us").unwrap_or(0),
    })
}

impl EngineProbe {
    /// Summed worker wall time of the jobs, in seconds.
    pub fn job_wall_s(&self) -> f64 {
        self.job_walls.iter().map(Duration::as_secs_f64).sum()
    }

    /// Sets the `engine.*` pool and cache metrics.
    pub fn report(&self, report: &mut Report) {
        let us: Vec<f64> = self
            .job_walls
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        report.layer("engine.job_wall_us_p50", median(&us));
        report.layer("engine.job_wall_us_p99", percentile(&us, 99.0));
        report.layer(
            "engine.pool_busy_frac",
            ratio(self.busy_us as f64, (self.busy_us + self.idle_us) as f64),
        );
        let stats = &self.output.stats;
        report.layer(
            "engine.pool_steals",
            stats.per_worker_steals.iter().sum::<u64>() as f64,
        );
        report.layer("engine.result_hit_ratio", stats.result_cache.hit_rate());
        report.layer(
            "engine.transform_hit_ratio",
            stats.transform_cache.hit_rate(),
        );
        report.layer("engine.derived_hit_ratio", stats.derived_cache.hit_rate());
        report.layer("engine.input_hit_ratio", stats.input_cache.hit_rate());
    }
}

/// `traced / plain - 1` over the same work.
pub fn overhead(traced_s: f64, plain_s: f64) -> f64 {
    ratio(traced_s, plain_s) - 1.0
}

/// Records the node and edge counts (min / median / max over distinct
/// graphs) of a layer pass in the run's attribution facts.
pub fn graph_meta(report: &mut Report, nodes: &[f64], edges: &[f64]) {
    let summary = |xs: &[f64]| {
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(0.0, f64::max);
        Json::obj([
            ("graphs", Json::Int(xs.len() as u64)),
            ("min", Json::Num(if xs.is_empty() { 0.0 } else { min })),
            ("median", Json::Num(median(xs))),
            ("max", Json::Num(max)),
        ])
    };
    report.meta.push(("graph_nodes".into(), summary(nodes)));
    report.meta.push(("graph_edges".into(), summary(edges)));
}

/// A JSON list of seeds.
pub fn seeds_json(seeds: &[u64]) -> Json {
    Json::Arr(seeds.iter().map(|&s| Json::Int(s)).collect())
}

/// Node and edge counts of every distinct graph `spec` generates.
pub fn spec_graph_sizes(spec: &SweepSpec) -> (Vec<f64>, Vec<f64>) {
    let (_cells, jobs) = spec.expand();
    let mut seen = std::collections::HashSet::new();
    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
    for job in &jobs {
        if !seen.insert(job.payload.input.identity_hash()) {
            continue;
        }
        if let hetrta_engine::JobInput::BatchTask {
            batch,
            fraction,
            task_index,
        } = &job.payload.input
        {
            if let Ok(task) = batch.task(*task_index, *fraction) {
                nodes.push(task.dag().node_count() as f64);
                edges.push(task.dag().edge_count() as f64);
            }
        }
    }
    (nodes, edges)
}

/// The per-layer half of a traced run on one representative spec: the
/// engine probe's pool and cache metrics, the layer pass (whose
/// aggregate must be bitwise `reference`, the engine's result for
/// `spec`), wire round trips, and the folded span table.
pub fn layer_report(
    report: &mut Report,
    tracer: &Tracer,
    spec: &SweepSpec,
    reference: &SweepAggregate,
    probe: &EngineProbe,
) {
    probe.report(report);
    let registry = AnalysisRegistry::builtin();
    match layers::layer_pass(spec, &registry, tracer, 0) {
        Ok(pass) => {
            report.layer("dag.nodes", median(&pass.nodes));
            report.layer("dag.edges", median(&pass.edges));
            let agg = layers::aggregate(spec, pass.results, tracer, u64::MAX);
            report.check(agg.and_then(|a| checks::same_bits("layer pass", &a, reference)));
        }
        Err(e) => report.check(Err(format!("layer pass: {e}"))),
    }
    report.check(layers::wire_roundtrips(
        spec,
        reference,
        WIRE_REPS,
        tracer,
        u64::MAX,
    ));
    report.layers_from_fold(&tracer.fold(), probe.job_wall_s());
}

/// Wire round trips per traced run (enough for a stable per-call mean).
const WIRE_REPS: usize = 50;
