//! `graph_1m`: one job of the 10⁶-node tier at a time — `het`,
//! `sampled` (budget 4) and `anytime` on a `LargeGraphs(1_000_000)` task
//! at m = 8 and offload fraction 0.2, each on a fresh engine. All kernel,
//! no engine overhead.
//!
//! The tier's generator accepts any size from a quarter of its cap
//! upward, so a seed alone would swing the job's size (and time) by 2×.
//! To keep runs comparable, each job's seed is the one of a few seeded
//! candidates whose graph lies closest to [`TARGET_NODES`]; candidate
//! generation is input preparation and is not timed.

use std::time::Instant;

use hetrta_engine::{AnalysisSelection, GeneratorPreset, SweepSpec};
use hetrta_gen::series::BatchSpec;
use hetrta_gen::NfjParams;

use super::{
    derive_seed, engine_probe, graph_meta, layer_report, overhead, seeds_json, timed_engine,
};
use super::{RunCtx, THREADS};
use crate::checks;
use crate::json::Json;
use crate::report::Report;
use crate::sys;
use crate::trace::Tracer;

const N_MAX: usize = 1_000_000;
/// Sizes cluster just above the tier's floor of 250,000 nodes, so a
/// target there is met closely by one of a few candidates.
const TARGET_NODES: f64 = 260_000.0;
const CANDIDATES: u64 = 10;
const TINY_N_MAX: usize = 20_000;
const TINY_TARGET_NODES: f64 = 6_000.0;
const FRACTION: f64 = 0.2;
/// Warm reruns per job: one is served from the result cache in well
/// under a millisecond, so the run reports the median of many.
const REPLAYS: usize = 200;

fn n_max(tiny: bool) -> usize {
    if tiny {
        TINY_N_MAX
    } else {
        N_MAX
    }
}

/// One job: `LargeGraphs(n_max)` at m = 8, fraction 0.2,
/// `het,sampled,anytime` with a sample budget of 4.
pub fn spec(seed: u64, tiny: bool) -> SweepSpec {
    let mut spec = SweepSpec::fractions(
        GeneratorPreset::LargeGraphs(n_max(tiny)),
        vec![8],
        vec![FRACTION],
        1,
        seed,
    )
    .with_analyses(AnalysisSelection::from_keys(["het", "sampled", "anytime"]));
    spec.sample_budget = 4;
    spec
}

/// The candidate seed for job `job` whose graph is closest to the target
/// size, with that graph's node and edge counts. Candidates are generated
/// on [`THREADS`] threads.
pub fn pick_seed(seed: u64, job: u64, tiny: bool) -> Result<(u64, usize, usize), String> {
    let target = if tiny {
        TINY_TARGET_NODES
    } else {
        TARGET_NODES
    };
    let candidates: Vec<u64> = (0..CANDIDATES)
        .map(|c| derive_seed(seed, job * CANDIDATES + c))
        .collect();
    let sized = std::thread::scope(|scope| {
        let handles: Vec<_> = candidates
            .chunks(candidates.len().div_ceil(THREADS))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&candidate| {
                            // The engine derives the job's task exactly like this.
                            let task =
                                BatchSpec::new(NfjParams::large_graphs(n_max(tiny)), 1, candidate)
                                    .task(0, FRACTION)
                                    .map_err(|e| format!("candidate generation failed: {e}"))?;
                            Ok((candidate, task.dag().node_count(), task.dag().edge_count()))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("candidate thread"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    sized
        .into_iter()
        .flatten()
        .min_by(|a, b| {
            (a.1 as f64 - target)
                .abs()
                .total_cmp(&(b.1 as f64 - target).abs())
        })
        .ok_or_else(|| "no candidates".into())
}

/// Picks job `job`'s input in a child process (`perfbench pick-graph`),
/// so the candidates' memory never counts towards the run's peak.
fn pick_in_child(seed: u64, job: u64, tiny: bool) -> Result<(u64, usize, usize), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["pick-graph", &seed.to_string(), &job.to_string()]);
    if tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("pick-graph: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<u64> = text
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    match (out.status.success(), fields.as_slice()) {
        (true, &[s, n, e]) => Ok((s, n as usize, e as usize)),
        _ => Err(format!(
            "pick-graph failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

pub fn run(ctx: &RunCtx, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let budget = ctx.plain_budget();
    let (mut seeds, mut nodes, mut edges) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_aggregate = None;
    let mut measured_s = 0.0;
    // Each job: pick its input, fresh engine (set-up), cold run, warm
    // replays, checks. Candidate picking is outside the measured time.
    while seeds.is_empty() || measured_s < budget.as_secs_f64() {
        let (seed, n, e) = match pick_in_child(ctx.seed, seeds.len() as u64, ctx.tiny) {
            Ok(picked) => picked,
            Err(message) => {
                report.errors.push(message);
                break;
            }
        };
        seeds.push(seed);
        nodes.push(n as f64);
        edges.push(e as f64);
        let spec = spec(seed, ctx.tiny);
        sys::reset_own_peak_rss();
        let phase = Instant::now();

        let Some(engine) = timed_engine(&mut report) else {
            break;
        };

        let t = Instant::now();
        let cold = engine.run(&spec).map_err(|e| e.to_string());
        let wall = t.elapsed().as_secs_f64();
        let Some(cold) = report.jobs(1, cold) else {
            continue;
        };
        report.e2e.cold(1, 1, wall);
        report.e2e.sweep_ms.push(wall * 1e3);

        for _ in 0..REPLAYS {
            let t = Instant::now();
            let warm = engine.run(&spec).map_err(|e| e.to_string());
            let wall = t.elapsed().as_secs_f64();
            if let Some(warm) = report.jobs(1, warm) {
                report.e2e.replay(1, wall);
                report.check(checks::same_bits(
                    "warm replay",
                    &warm.aggregate,
                    &cold.aggregate,
                ));
            }
        }
        report.check(checks::bracket(&cold.aggregate));
        drop(engine);
        measured_s += phase.elapsed().as_secs_f64();
        report.e2e.peak_rss_mb = report.e2e.peak_rss_mb.max(sys::own_peak_rss_mb());
        first_aggregate.get_or_insert(cold.aggregate);
    }

    if ctx.trace {
        // The first job again on a traced engine, then the layer pass.
        let spec0 = spec(seeds[0], ctx.tiny);
        if let (Some(probe), Some(reference)) = (
            report.jobs(1, engine_probe(&spec0)),
            first_aggregate.as_ref(),
        ) {
            report.check(checks::bracket(&probe.output.aggregate));
            if let Some(plain_ms) = report.e2e.sweep_ms.first() {
                report.layer(
                    "obs.trace_overhead_frac",
                    overhead(probe.wall_s, plain_ms / 1e3),
                );
            }
            layer_report(&mut report, tracer, &spec0, reference, &probe);
        }
    }
    graph_meta(&mut report, &nodes, &edges);
    report
        .meta
        .push(("workload_seeds".into(), seeds_json(&seeds)));
    report.meta.push(("jobs_per_sweep".into(), Json::Int(1)));
    report
}
