//! The traced per-layer pass: the benchmark re-runs a workload's jobs by
//! calling each crate's public functions itself, one span per call, so
//! the folded self times attribute a job's time to generate, hash,
//! transform, derived data and each analysis key.
//!
//! The pass mirrors what one engine job does (materialize, content hash,
//! then every selected analysis through an [`AnalysisContext`] that
//! computes the transformation and derived data once per input) and
//! returns the outcomes as [`JobResult`]s, so the caller can aggregate
//! them and check they are bitwise what the engine produced.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use hetrta_api::{AnalysisContext, AnalysisInput, AnalysisRegistry, AnalysisRequest, DerivedData};
use hetrta_core::TransformedTask;
use hetrta_dag::HeteroDagTask;
use hetrta_engine::cache::hash_input;
use hetrta_engine::wire::{decode_spec, decode_update, encode_spec, encode_update};
use hetrta_engine::{
    AggregateUpdate, Aggregator, Job, JobInput, JobMetrics, JobResult, SweepAggregate, SweepSpec,
};
use hetrta_sim::policy::RandomTieBreak;
use hetrta_sim::{simulate_makespan, Platform, SimWorkspace};

use crate::trace::Tracer;

/// An [`AnalysisContext`] owned by the benchmark: it computes Algorithm 1
/// and the derived data at most once per input, each inside its own span,
/// so an analysis span's self time excludes them.
struct TimedContext<'a> {
    tracer: &'a Tracer,
    unit: u64,
    transform: RefCell<Option<TransformedTask>>,
    derived: RefCell<Option<Arc<DerivedData>>>,
}

impl AnalysisContext for TimedContext<'_> {
    fn transform(&self, task: &HeteroDagTask) -> Result<TransformedTask, String> {
        if let Some(t) = self.transform.borrow().as_ref() {
            return Ok(t.clone());
        }
        let t = self
            .tracer
            .span("core.transform", self.unit, || hetrta_core::transform(task))
            .map_err(|e| e.to_string())?;
        *self.transform.borrow_mut() = Some(t.clone());
        Ok(t)
    }

    fn derived(&self, task: &HeteroDagTask) -> Result<Arc<DerivedData>, String> {
        if let Some(d) = self.derived.borrow().as_ref() {
            return Ok(Arc::clone(d));
        }
        let d = self
            .tracer
            .span("api.derived", self.unit, || {
                DerivedData::compute(task.dag())
            })
            .map(Arc::new)?;
        *self.derived.borrow_mut() = Some(Arc::clone(&d));
        Ok(d)
    }
}

/// Span name of one registry key's `Analysis::run`.
fn analysis_span(key: &str) -> &'static str {
    match key {
        "het" => "api.het",
        "hom" => "api.hom",
        "sim" => "api.sim",
        "sampled" => "api.sampled",
        "anytime" => "api.anytime",
        _ => "api.other",
    }
}

/// What the pass produced besides its spans.
#[derive(Debug, Default)]
pub struct LayerPass {
    /// One result per job, in expansion order.
    pub results: Vec<JobResult>,
    /// Node count of every distinct generated graph.
    pub nodes: Vec<f64>,
    /// Edge count of every distinct generated graph.
    pub edges: Vec<f64>,
}

/// Runs every job of `spec` through direct calls, grouping the jobs that
/// share an input (one graph analysed at several core counts) the way the
/// engine's input and transform memos do. Span units are
/// `unit_base + first job index` of each input.
///
/// Besides the `job` spans, a `probe` span per input times three calls
/// the job does not make on its own: `Dag::clone`, a standalone
/// `r_het`, and one `simulate_makespan` sample.
pub fn layer_pass(
    spec: &SweepSpec,
    registry: &AnalysisRegistry,
    tracer: &Tracer,
    unit_base: u64,
) -> Result<LayerPass, String> {
    let (_cells, jobs) = spec.expand();
    let mut groups: Vec<Vec<&Job>> = Vec::new();
    let mut by_identity: HashMap<u128, usize> = HashMap::new();
    for job in &jobs {
        let slot = *by_identity
            .entry(job.payload.input.identity_hash())
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[slot].push(job);
    }

    let mut pass = LayerPass {
        results: Vec::with_capacity(jobs.len()),
        ..LayerPass::default()
    };
    let mut ws = SimWorkspace::new();
    for group in groups {
        let first = group[0];
        let unit = unit_base + first.index as u64;
        let ctx = TimedContext {
            tracer,
            unit,
            transform: RefCell::new(None),
            derived: RefCell::new(None),
        };
        let request = tracer.span("job", unit, || -> Result<AnalysisRequest, String> {
            let JobInput::BatchTask {
                batch,
                fraction,
                task_index,
            } = &first.payload.input
            else {
                return Err("the layer pass covers per-task sweeps only".into());
            };
            let task = tracer
                .span("gen.generate", unit, || batch.task(*task_index, *fraction))
                .map_err(|e| format!("generation failed: {e}"))?;
            let input = AnalysisInput::Task(task);
            tracer.span("engine.hash", unit, || black_box(hash_input(&input)));
            let mut request = AnalysisRequest {
                input,
                params: first.payload.params.clone(),
            };
            for job in &group {
                request.params = job.payload.params.clone();
                let mut outcomes = Vec::with_capacity(job.payload.analyses.len());
                for key in job.payload.analyses.iter() {
                    let analysis = registry.get(key).map_err(|e| e.to_string())?;
                    let outcome = tracer
                        .span(analysis_span(key), unit, || analysis.run(&request, &ctx))
                        .map_err(|e| e.to_string())?;
                    outcomes.push(outcome);
                }
                pass.results.push(JobResult {
                    index: job.index,
                    cell: job.cell,
                    worker: 0,
                    identity: job.payload.input.identity_hash(),
                    cache_hit: false,
                    wall_time: Duration::ZERO,
                    timings: Vec::new(),
                    metrics: Ok(JobMetrics::Outcomes(outcomes)),
                });
            }
            Ok(request)
        })?;

        let AnalysisInput::Task(task) = &request.input else {
            unreachable!("built as a task above")
        };
        let m = first.payload.params.m;
        tracer.span("probe", unit, || {
            let copy = tracer.span("dag.clone", unit, || black_box(task.dag().clone()));
            drop(copy);
            if let Some(t) = ctx.transform.borrow().as_ref() {
                black_box(
                    tracer
                        .span("core.r_het", unit, || hetrta_core::r_het(t, m))
                        .ok(),
                );
            }
            black_box(
                tracer
                    .span("sim.makespan", unit, || {
                        simulate_makespan(
                            &mut ws,
                            task.dag(),
                            Some(task.offloaded()),
                            Platform::with_accelerator(m as usize),
                            &mut RandomTieBreak::new(spec.sample_seed),
                        )
                    })
                    .ok(),
            );
        });
        pass.nodes.push(task.dag().node_count() as f64);
        pass.edges.push(task.dag().edge_count() as f64);
    }
    pass.results.sort_by_key(|r| r.index);
    Ok(pass)
}

/// Folds `results` through the engine's public aggregator inside an
/// `engine.aggregate` span (accept every result, then finalize).
pub fn aggregate(
    spec: &SweepSpec,
    results: Vec<JobResult>,
    tracer: &Tracer,
    unit: u64,
) -> Result<SweepAggregate, String> {
    let (cells, jobs) = spec.expand();
    let total = jobs.len();
    drop(jobs);
    tracer.span("engine.aggregate", unit, || {
        let mut aggregator = Aggregator::new(cells, total, spec.cell_shape());
        for result in results {
            aggregator.accept(result);
        }
        aggregator.finalize().map_err(|e| e.to_string())
    })
}

/// Times the engine's wire codec on a workload's own spec and aggregate:
/// each `engine.wire_encode` span encodes the spec and the aggregate as a
/// keyframe update, each `engine.wire_decode` span decodes both back.
/// Round trips must reproduce the inputs bit for bit.
pub fn wire_roundtrips(
    spec: &SweepSpec,
    agg: &SweepAggregate,
    reps: usize,
    tracer: &Tracer,
    unit: u64,
) -> Result<(), String> {
    let update = AggregateUpdate::Keyframe {
        seq: 0,
        aggregate: agg.clone(),
    };
    for _ in 0..reps {
        let (spec_text, update_text) = tracer.span("engine.wire_encode", unit, || {
            (encode_spec(spec), encode_update(&update))
        });
        let (spec_back, update_back) = tracer.span("engine.wire_decode", unit, || {
            (decode_spec(&spec_text), decode_update(&update_text))
        });
        let spec_back = spec_back.map_err(|e| format!("decode_spec: {e}"))?;
        let update_back = update_back.map_err(|e| format!("decode_update: {e}"))?;
        if encode_spec(&spec_back) != spec_text || encode_update(&update_back) != update_text {
            return Err("wire round trip changed the spec or the aggregate".into());
        }
    }
    Ok(())
}
