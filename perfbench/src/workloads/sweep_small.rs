//! `sweep_small`: in-process Figure-8-style sweeps on a fresh 2-thread
//! engine each — thousands of sub-millisecond jobs, so scheduling, the
//! memo caches, hashing and aggregation are a large share of the time.

use std::time::Instant;

use hetrta_engine::{AnalysisSelection, GeneratorPreset, SweepSpec};

use super::{
    derive_seed, engine, engine_probe, graph_meta, layer_report, overhead, seeds_json, timed_engine,
};
use super::{spec_graph_sizes, RunCtx};
use crate::checks;
use crate::report::Report;
use crate::sys;
use crate::trace::Tracer;

/// The grid: `LargePaper` (NFJ, 100–250 nodes), cores {2,4,8} × offload
/// fractions {0.02,0.1,0.25,0.5}, `het,hom,sim` with the transformed task
/// simulated too. 400 tasks per point give 4,800 jobs.
pub fn spec(seed: u64, tiny: bool) -> SweepSpec {
    let per_point = if tiny { 3 } else { 400 };
    let mut spec = SweepSpec::fractions(
        GeneratorPreset::LargePaper,
        vec![2, 4, 8],
        vec![0.02, 0.1, 0.25, 0.5],
        per_point,
        seed,
    )
    .with_analyses(AnalysisSelection::from_keys(["het", "hom", "sim"]));
    spec.sim_transformed = true;
    spec
}

/// One small untimed sweep first, so the first timed sweep does not pay
/// for a cold process.
fn warm_up(report: &mut Report, ctx: &RunCtx) {
    let mut spec = spec(derive_seed(ctx.seed, u64::MAX), ctx.tiny);
    spec.jobs_per_point = spec.jobs_per_point.min(WARM_UP_PER_POINT);
    let jobs = spec.job_count() as u64;
    let ran = engine().and_then(|e| e.run(&spec).map_err(|e| e.to_string()));
    if let Some(out) = report.jobs(jobs, ran) {
        report.check(checks::theorem1(&out.aggregate));
    }
}

/// Tasks per point of the warm-up sweep.
const WARM_UP_PER_POINT: usize = 40;
/// Warm reruns per sweep, each timed on its own (one takes ~40 ms).
const REPLAYS: usize = 5;

pub fn run(ctx: &RunCtx, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let budget = ctx.plain_budget();
    let mut seeds = Vec::new();
    let mut first_aggregate = None;
    let mut plain_wall_s = 0.0;
    warm_up(&mut report, ctx);
    sys::reset_own_peak_rss();
    let started = Instant::now();
    // Each sweep: fresh engine (set-up), cold run, warm reruns, checks.
    while seeds.is_empty() || started.elapsed() < budget {
        let seed = derive_seed(ctx.seed, seeds.len() as u64);
        seeds.push(seed);
        let spec = spec(seed, ctx.tiny);
        let jobs = spec.job_count() as u64;

        let Some(engine) = timed_engine(&mut report) else {
            break;
        };

        let t = Instant::now();
        let cold = engine.run(&spec).map_err(|e| e.to_string());
        let wall = t.elapsed().as_secs_f64();
        let Some(cold) = report.jobs(jobs, cold) else {
            continue;
        };
        report.e2e.cold(jobs, 1, wall);
        report.e2e.sweep_ms.push(wall * 1e3);
        plain_wall_s += wall;

        for _ in 0..REPLAYS {
            let t = Instant::now();
            let warm = engine.run(&spec).map_err(|e| e.to_string());
            let wall = t.elapsed().as_secs_f64();
            if let Some(warm) = report.jobs(jobs, warm) {
                report.e2e.replay(jobs, wall);
                report.check(checks::same_bits(
                    "warm replay",
                    &warm.aggregate,
                    &cold.aggregate,
                ));
            }
        }
        report.check(checks::theorem1(&cold.aggregate));
        first_aggregate.get_or_insert(cold.aggregate);
    }
    report.e2e.peak_rss_mb = sys::own_peak_rss_mb();

    let spec0 = spec(seeds[0], ctx.tiny);
    if ctx.trace {
        // The same sweeps again on traced engines, then the layer pass.
        let mut traced_wall_s = 0.0;
        let mut probe0 = None;
        for &seed in &seeds {
            let s = spec(seed, ctx.tiny);
            if let Some(probe) = report.jobs(s.job_count() as u64, engine_probe(&s)) {
                traced_wall_s += probe.wall_s;
                report.check(checks::theorem1(&probe.output.aggregate));
                probe0.get_or_insert(probe);
            }
        }
        report.layer(
            "obs.trace_overhead_frac",
            overhead(traced_wall_s, plain_wall_s),
        );
        crate::fleet::fleet_layers(ctx, seeds[0], tracer, &mut report);
        if let (Some(probe), Some(reference)) = (&probe0, &first_aggregate) {
            layer_report(&mut report, tracer, &spec0, reference, probe);
        }
    }
    let (nodes, edges) = spec_graph_sizes(&spec0);
    graph_meta(&mut report, &nodes, &edges);
    report
        .meta
        .push(("workload_seeds".into(), seeds_json(&seeds)));
    report.meta.push((
        "jobs_per_sweep".into(),
        crate::json::Json::Int(spec0.job_count() as u64),
    ));
    report
}
