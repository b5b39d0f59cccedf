//! Builtin [`Analysis`] adapters over the workspace's entry points.
//!
//! Each adapter is a thin, pure wrapper: it consumes a typed
//! [`AnalysisRequest`], calls the existing crate entry point, and reduces
//! the result to a tagged [`AnalysisOutcome`]. Floating-point operations
//! mirror the pre-registry serial loops operation-for-operation so
//! engine-routed sweeps reproduce them bitwise (pinned by the
//! `engine_parity` integration tests of `hetrta-bench`).

use std::cell::RefCell;
use std::sync::Arc;

use hetrta_core::federated::{federated_partition, AnalysisKind};
use hetrta_core::{r_het, r_hom_parts};
use hetrta_dag::algo::CriticalPath;
use hetrta_exact::bounds::root_bound_with_path;
use hetrta_exact::{
    list_schedule_with_path, solve_with, ExactError, SolverConfig, SolverWorkspace,
    MAX_NODES_SUPPORTED,
};
use hetrta_sched::model::{AnalysisModel, DeviceModel};
use hetrta_sched::{gedf_test, gfp_test};
use hetrta_sim::policy::{BreadthFirst, RandomTieBreak};
use hetrta_sim::{explore_worst_case, simulate_makespan, Platform, SimWorkspace};
use hetrta_suspend::BaselineComparison;

thread_local! {
    // Per-thread reusable workspaces: each worker of a batch engine's pool
    // owns one of each, so steady-state sweeps re-run the simulator and the
    // exact solver without per-job heap churn. Analyses stay pure — the
    // workspaces hold scratch buffers, never results.
    static SIM_WORKSPACE: RefCell<SimWorkspace> = RefCell::new(SimWorkspace::new());
    static SOLVER_WORKSPACE: RefCell<SolverWorkspace> = RefCell::new(SolverWorkspace::new());
}

use crate::registry::{InputKind, ParamDigest};
use crate::{
    AcceptanceOutcome, Analysis, AnalysisContext, AnalysisOutcome, AnalysisParams, AnalysisRequest,
    AnytimeOutcome, ApiError, CondOutcome, ExactOutcome, HetOutcome, SampledOutcome, SimOutcome,
    SuspendOutcome,
};

/// The nine builtin analyses, in their canonical registration order.
pub(crate) fn builtin_analyses() -> Vec<Arc<dyn Analysis>> {
    vec![
        Arc::new(HetAnalysis),
        Arc::new(HomAnalysis),
        Arc::new(SimAnalysis),
        Arc::new(ExactAnalysis),
        Arc::new(CondAnalysis),
        Arc::new(SuspendAnalysis),
        Arc::new(AcceptanceAnalysis),
        Arc::new(SampledSimAnalysis),
        Arc::new(AnytimeExactAnalysis),
    ]
}

fn digest_m(params: &AnalysisParams) -> u64 {
    let mut h = ParamDigest::new();
    h.push(params.m);
    h.finish()
}

/// `"het"` — Algorithm 1 transformation + Theorem 1 response-time bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct HetAnalysis;

impl Analysis for HetAnalysis {
    fn key(&self) -> &str {
        "het"
    }

    fn describe(&self) -> &str {
        "heterogeneous RTA: Algorithm 1 transformation + Theorem 1 (R_het, scenario)"
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let task = request.input.as_task(self.key())?;
        let m = request.params.m;
        let fail = |message: String| ApiError::failed("het", message);
        let transformed = ctx
            .transform(task)
            .map_err(|e| fail(format!("transformation failed: {e}")))?;
        let het = r_het(&transformed, m).map_err(|e| fail(format!("R_het failed: {e}")))?;
        let derived = ctx
            .derived(task)
            .map_err(|e| fail(format!("derived data failed: {e}")))?;
        let r_hom_original = r_hom_parts(derived.length(), derived.volume, m)
            .map_err(|e| fail(format!("R_hom failed: {e}")))?;
        let r_hom_transformed = het.r_hom_transformed();
        let deadline = task.deadline().to_rational();
        let r_het_value = het.value();
        // improvement_percent mirrors AnalysisReport::improvement_percent
        // operation-for-operation so engine and serial sweeps agree bitwise.
        let het_f = r_het_value.to_f64();
        let improvement = if het_f == 0.0 {
            0.0
        } else {
            100.0 * (r_hom_original.to_f64() - het_f) / het_f
        };
        Ok(AnalysisOutcome::Het(HetOutcome {
            r_het: het_f,
            r_hom_original: r_hom_original.to_f64(),
            r_hom_transformed: r_hom_transformed.to_f64(),
            scenario: het.scenario(),
            improvement_percent: improvement,
            schedulable_het: r_het_value <= deadline,
            schedulable_hom: r_hom_original <= deadline,
        }))
    }

    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        digest_m(params)
    }
}

/// `"hom"` — Eq. 1 on the original DAG.
#[derive(Debug, Clone, Copy, Default)]
pub struct HomAnalysis;

impl Analysis for HomAnalysis {
    fn key(&self) -> &str {
        "hom"
    }

    fn describe(&self) -> &str {
        "homogeneous RTA baseline: Eq. 1 (R_hom) on the original DAG"
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let task = request.input.as_task(self.key())?;
        let fail = |message: String| ApiError::failed("hom", message);
        let derived = ctx
            .derived(task)
            .map_err(|e| fail(format!("derived data failed: {e}")))?;
        let r = r_hom_parts(derived.length(), derived.volume, request.params.m)
            .map_err(|e| fail(format!("R_hom failed: {e}")))?;
        Ok(AnalysisOutcome::Hom { r_hom: r.to_f64() })
    }

    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        digest_m(params)
    }

    fn cost_hint(&self) -> u8 {
        0
    }
}

/// `"sim"` — breadth-first simulation (optionally of `τ'` too).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimAnalysis;

impl Analysis for SimAnalysis {
    fn key(&self) -> &str {
        "sim"
    }

    fn describe(&self) -> &str {
        "work-conserving breadth-first simulation (optionally of the transformed task too)"
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let task = request.input.as_task(self.key())?;
        let platform = Platform::with_accelerator(request.params.m as usize);
        let fail = |message: String| ApiError::failed("sim", message);
        SIM_WORKSPACE.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            let original = simulate_makespan(
                ws,
                task.dag(),
                Some(task.offloaded()),
                platform,
                &mut BreadthFirst::new(),
            )
            .map_err(|e| fail(format!("simulation failed: {e}")))?;
            let transformed_makespan = if request.params.sim_transformed {
                let t = ctx
                    .transform(task)
                    .map_err(|e| fail(format!("transformation failed: {e}")))?;
                let result = simulate_makespan(
                    ws,
                    t.transformed(),
                    Some(task.offloaded()),
                    platform,
                    &mut BreadthFirst::new(),
                )
                .map_err(|e| fail(format!("simulation failed: {e}")))?;
                Some(result.get())
            } else {
                None
            };
            Ok(AnalysisOutcome::Sim(SimOutcome {
                makespan: original.get(),
                transformed_makespan,
            }))
        })
    }

    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        let mut h = ParamDigest::new();
        h.push(params.m);
        h.push(u64::from(params.sim_transformed));
        h.finish()
    }

    fn cost_hint(&self) -> u8 {
        3
    }
}

/// `"exact"` — bounded exact minimum-makespan solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactAnalysis;

impl Analysis for ExactAnalysis {
    fn key(&self) -> &str {
        "exact"
    }

    fn describe(&self) -> &str {
        "bounded exact minimum-makespan solve (branch-and-bound ILP substitute)"
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let task = request.input.as_task(self.key())?;
        if task.dag().node_count() > MAX_NODES_SUPPORTED {
            return Ok(AnalysisOutcome::Exact(None));
        }
        let mut config = SolverConfig::default();
        if let Some(budget) = request.params.exact_node_budget {
            config.max_nodes = budget;
        }
        let solved = SOLVER_WORKSPACE.with(|ws| {
            solve_with(
                &mut ws.borrow_mut(),
                task.dag(),
                Some(task.offloaded()),
                request.params.m,
                &config,
            )
        });
        match solved {
            Ok(sol) => Ok(AnalysisOutcome::Exact(Some(ExactOutcome {
                makespan: sol.makespan().get(),
                optimal: sol.is_optimal(),
            }))),
            // A budget/size refusal is data ("unsolved"), not a failure.
            Err(_) => Ok(AnalysisOutcome::Exact(None)),
        }
    }

    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        let mut h = ParamDigest::new();
        h.push(params.m);
        match params.exact_node_budget {
            None => h.push(0),
            Some(budget) => {
                h.push(1);
                h.push(budget);
            }
        }
        h.finish()
    }

    fn cost_hint(&self) -> u8 {
        4
    }
}

/// `"cond"` — conditional-DAG bounds (flatten-all, DP, enumeration).
#[derive(Debug, Clone, Copy, Default)]
pub struct CondAnalysis;

impl Analysis for CondAnalysis {
    fn key(&self) -> &str {
        "cond"
    }

    fn describe(&self) -> &str {
        "conditional-DAG bounds: flatten-all vs cond-aware DP vs exact enumeration"
    }

    fn input_kind(&self) -> InputKind {
        InputKind::Cond
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let expr = request.input.as_cond(self.key())?;
        let m = request.params.m;
        let fail = |message: String| ApiError::failed("cond", message);
        let flattened = hetrta_cond::r_parallel_flattening(expr, m)
            .map_err(|e| fail(format!("flatten-all bound failed: {e}")))?;
        let cond_aware = hetrta_cond::r_cond(expr, m)
            .map_err(|e| fail(format!("cond-aware bound failed: {e}")))?;
        // Any enumeration refusal (cap, size) is a skipped sample, exactly
        // like the serial ablation's `let Ok(..) else continue`.
        let exact = hetrta_cond::r_cond_exact(expr, m, request.params.realization_cap)
            .ok()
            .map(|v| v.to_f64());
        Ok(AnalysisOutcome::Cond(CondOutcome {
            flattened: flattened.to_f64(),
            cond_aware: cond_aware.to_f64(),
            exact,
            realizations: expr.realization_count(),
        }))
    }

    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        let mut h = ParamDigest::new();
        h.push(params.m);
        h.push(params.realization_cap as u64);
        h.finish()
    }

    fn cost_hint(&self) -> u8 {
        2
    }
}

/// `"suspend"` — self-suspending baselines (+ optional worst-case search).
#[derive(Debug, Clone, Copy, Default)]
pub struct SuspendAnalysis;

impl Analysis for SuspendAnalysis {
    fn key(&self) -> &str {
        "suspend"
    }

    fn describe(&self) -> &str {
        "self-suspending baselines (oblivious, barrier, naive) vs Theorem 1"
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let task = request.input.as_task(self.key())?;
        let m = request.params.m;
        let c = BaselineComparison::compute(task, m)
            .map_err(|e| ApiError::failed("suspend", format!("baseline comparison failed: {e}")))?;
        let (worst_observed, naive_violated) = if request.params.explore_seeds > 0 {
            let worst = explore_worst_case(
                task.dag(),
                Some(task.offloaded()),
                Platform::with_accelerator(m as usize),
                request.params.explore_seeds,
            )
            .map_err(|e| {
                ApiError::failed("suspend", format!("worst-case exploration failed: {e}"))
            })?
            .makespan();
            (
                Some(worst.get()),
                Some(worst.to_rational() > c.naive_unsound),
            )
        } else {
            (None, None)
        };
        Ok(AnalysisOutcome::Suspend(SuspendOutcome {
            oblivious: c.oblivious.to_f64(),
            phase_barrier: c.phase_barrier.to_f64(),
            r_het_tight: c.r_het_tight.to_f64(),
            naive_unsound: c.naive_unsound.to_f64(),
            worst_observed,
            naive_violated,
        }))
    }

    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        let mut h = ParamDigest::new();
        h.push(params.m);
        h.push(params.explore_seeds);
        h.finish()
    }

    fn cost_hint(&self) -> u8 {
        3
    }
}

/// `"acceptance"` — the six task-set schedulability tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptanceAnalysis;

impl Analysis for AcceptanceAnalysis {
    fn key(&self) -> &str {
        "acceptance"
    }

    fn describe(&self) -> &str {
        "task-set acceptance: GFP/GEDF/federated × homogeneous/heterogeneous"
    }

    fn input_kind(&self) -> InputKind {
        InputKind::TaskSet
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let set = request.input.as_task_set(self.key())?;
        let cores = request.params.m;
        let het = AnalysisModel::Heterogeneous(DeviceModel::DedicatedPerTask);
        let mut accepted = [false; 6];
        let outcome: Result<(), String> = (|| {
            accepted[0] = gfp_test(set, cores, AnalysisModel::Homogeneous)
                .map_err(|e| e.to_string())?
                .is_schedulable();
            accepted[1] = gfp_test(set, cores, het)
                .map_err(|e| e.to_string())?
                .is_schedulable();
            accepted[2] = gedf_test(set, cores, AnalysisModel::Homogeneous)
                .map_err(|e| e.to_string())?
                .is_schedulable();
            accepted[3] = gedf_test(set, cores, het)
                .map_err(|e| e.to_string())?
                .is_schedulable();
            accepted[4] = federated_partition(set, cores, AnalysisKind::Homogeneous)
                .map_err(|e| e.to_string())?
                .is_schedulable();
            accepted[5] = federated_partition(set, cores, AnalysisKind::Heterogeneous)
                .map_err(|e| e.to_string())?
                .is_schedulable();
            Ok(())
        })();
        outcome
            .map_err(|e| ApiError::failed("acceptance", format!("acceptance tests failed: {e}")))?;
        Ok(AnalysisOutcome::Acceptance(AcceptanceOutcome { accepted }))
    }

    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        digest_m(params)
    }

    fn cost_hint(&self) -> u8 {
        2
    }
}

/// Per-sample seed of the `sampled` analysis: a fixed odd multiplier
/// (the 64-bit golden-ratio constant) decorrelates consecutive sample
/// indices while keeping the derivation pure, so any worker can recompute
/// sample `i` of base seed `s` without coordination.
#[must_use]
fn sample_seed(base: u64, index: usize) -> u64 {
    base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `"sampled"` — seeded sampled makespan simulation (mean + 95% CI).
#[derive(Debug, Clone, Copy, Default)]
pub struct SampledSimAnalysis;

impl Analysis for SampledSimAnalysis {
    fn key(&self) -> &str {
        "sampled"
    }

    fn describe(&self) -> &str {
        "sampled makespan simulation: k seeded random-tie-break runs, mean + 95% CI"
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let task = request.input.as_task(self.key())?;
        let platform = Platform::with_accelerator(request.params.m as usize);
        let k = request.params.sample_budget.max(1);
        let base = request.params.sample_seed;
        let fail = |message: String| ApiError::failed("sampled", message);
        SIM_WORKSPACE.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            // Sequential accumulation in sample order: the mean and CI are
            // a pure function of (seed, budget), bitwise-reproducible on
            // any thread or worker count.
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            let (mut min, mut max) = (u64::MAX, 0u64);
            for i in 0..k {
                let mut policy = RandomTieBreak::new(sample_seed(base, i));
                let makespan = simulate_makespan(
                    ws,
                    task.dag(),
                    Some(task.offloaded()),
                    platform,
                    &mut policy,
                )
                .map_err(|e| fail(format!("simulation failed: {e}")))?
                .get();
                let x = makespan as f64;
                sum += x;
                sum_sq += x * x;
                min = min.min(makespan);
                max = max.max(makespan);
            }
            let count = k as f64;
            let mean = sum / count;
            let ci_half = if k > 1 {
                // Unbiased sample variance; the subtraction can go
                // slightly negative in floating point when all samples
                // are equal, hence the clamp.
                let var = (sum_sq - sum * sum / count).max(0.0) / (count - 1.0);
                1.96 * (var / count).sqrt()
            } else {
                0.0
            };
            Ok(AnalysisOutcome::Sampled(SampledOutcome {
                mean,
                ci_half,
                min,
                max,
                count: k as u64,
            }))
        })
    }

    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        let mut h = ParamDigest::new();
        h.push(params.m);
        h.push(params.sample_budget as u64);
        h.push(params.sample_seed);
        h.finish()
    }

    fn cost_hint(&self) -> u8 {
        4
    }
}

/// `"anytime"` — anytime exact bounds: the full solver inside its size
/// cap, an `O(V + E)` lower bound + list-schedule upper bound beyond it.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnytimeExactAnalysis;

impl Analysis for AnytimeExactAnalysis {
    fn key(&self) -> &str {
        "anytime"
    }

    fn describe(&self) -> &str {
        "anytime exact bounds: best lower/upper makespan bound at budget exhaustion, any size"
    }

    fn run(
        &self,
        request: &AnalysisRequest,
        _ctx: &dyn AnalysisContext,
    ) -> Result<AnalysisOutcome, ApiError> {
        let task = request.input.as_task(self.key())?;
        let m = request.params.m;
        let dag = task.dag();
        let fail = |message: String| ApiError::failed("anytime", message);
        if dag.node_count() <= MAX_NODES_SUPPORTED {
            let mut config = SolverConfig::default();
            if let Some(budget) = request.params.exact_node_budget {
                config.max_nodes = budget;
            }
            let sol = SOLVER_WORKSPACE
                .with(|ws| {
                    solve_with(
                        &mut ws.borrow_mut(),
                        dag,
                        Some(task.offloaded()),
                        m,
                        &config,
                    )
                })
                .map_err(|e| fail(format!("solver failed: {e}")))?;
            return Ok(AnalysisOutcome::Anytime(AnytimeOutcome {
                lower: sol.lower_bound().get(),
                upper: sol.makespan().get(),
                optimal: sol.is_optimal(),
            }));
        }
        // Past the solver's cap: never refuse. Root bound below, CP-first
        // list schedule above — both near-linear in the graph size and
        // sharing one critical-path pass, so the bracket stays available
        // at n = 10⁵–10⁶. The list schedule runs before the bound: it
        // rejects m = 0 with a typed error where the bound would panic.
        let list_failed = |e: ExactError| fail(format!("list schedule failed: {e}"));
        let cp = CriticalPath::try_of(dag).map_err(|e| list_failed(e.into()))?;
        let (upper, _) =
            list_schedule_with_path(dag, &cp, Some(task.offloaded()), m).map_err(list_failed)?;
        let lower = root_bound_with_path(dag, &cp, Some(task.offloaded()), m);
        Ok(AnalysisOutcome::Anytime(AnytimeOutcome {
            lower: lower.get(),
            upper: upper.get(),
            optimal: lower == upper,
        }))
    }

    fn cache_params(&self, params: &AnalysisParams) -> u64 {
        let mut h = ParamDigest::new();
        h.push(params.m);
        match params.exact_node_budget {
            None => h.push(0),
            Some(budget) => {
                h.push(1);
                h.push(budget);
            }
        }
        h.finish()
    }

    fn cost_hint(&self) -> u8 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisInput, DirectContext};
    use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};

    fn figure1_task() -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let v1 = b.node("v1", Ticks::new(1));
        let v2 = b.node("v2", Ticks::new(4));
        let v3 = b.node("v3", Ticks::new(6));
        let v4 = b.node("v4", Ticks::new(2));
        let v5 = b.node("v5", Ticks::new(1));
        let voff = b.node("v_off", Ticks::new(4));
        b.edges([
            (v1, v2),
            (v1, v3),
            (v1, v4),
            (v4, voff),
            (v2, v5),
            (v3, v5),
            (voff, v5),
        ])
        .unwrap();
        HeteroDagTask::new(b.build().unwrap(), voff, Ticks::new(50), Ticks::new(50)).unwrap()
    }

    #[test]
    fn het_matches_the_analysis_report() {
        let request = AnalysisRequest::task(figure1_task(), 2);
        let AnalysisOutcome::Het(h) = HetAnalysis.run(&request, &DirectContext).unwrap() else {
            panic!("het outcome")
        };
        assert_eq!(h.r_het, 12.0);
        assert_eq!(h.r_hom_original, 13.0);
        assert_eq!(h.r_hom_transformed, 14.0);
        assert!(h.schedulable_het && h.schedulable_hom);
        let report = hetrta_core::HeterogeneousAnalysis::run(&figure1_task(), 2).unwrap();
        assert_eq!(h.improvement_percent, report.improvement_percent());
    }

    #[test]
    fn sim_and_exact_agree_on_figure1() {
        let mut request = AnalysisRequest::task(figure1_task(), 2);
        request.params.sim_transformed = true;
        let AnalysisOutcome::Sim(s) = SimAnalysis.run(&request, &DirectContext).unwrap() else {
            panic!("sim outcome")
        };
        assert_eq!(s.makespan, 12);
        assert!(s.transformed_makespan.is_some());
        let AnalysisOutcome::Exact(Some(e)) = ExactAnalysis.run(&request, &DirectContext).unwrap()
        else {
            panic!("exact outcome")
        };
        assert_eq!(e.makespan, 8);
        assert!(e.optimal);
    }

    #[test]
    fn suspend_reports_figure1_bounds() {
        let mut request = AnalysisRequest::task(figure1_task(), 2);
        request.params.explore_seeds = 8;
        let AnalysisOutcome::Suspend(s) = SuspendAnalysis.run(&request, &DirectContext).unwrap()
        else {
            panic!("suspend outcome")
        };
        // Figure 1 numbers: oblivious 13, naive 11, R_het~ 12.
        assert_eq!(s.oblivious, 13.0);
        assert_eq!(s.naive_unsound, 11.0);
        assert_eq!(s.r_het_tight, 12.0);
        let worst = s.worst_observed.expect("exploration ran");
        assert_eq!(
            s.naive_violated,
            Some(worst as f64 > s.naive_unsound),
            "violation bit consistent with the observed worst case"
        );
    }

    #[test]
    fn input_mismatch_is_a_typed_error() {
        let request = AnalysisRequest::task_set(vec![figure1_task()], 2);
        let err = HetAnalysis.run(&request, &DirectContext).unwrap_err();
        assert!(matches!(err, ApiError::InputMismatch { .. }));
        assert!(err.to_string().contains("expects a task"));
    }

    #[test]
    fn cache_params_track_only_relevant_knobs() {
        let mut a = AnalysisParams::new(2);
        let mut b = AnalysisParams::new(2);
        b.exact_node_budget = Some(10);
        // The budget matters to exact, not to het.
        assert_eq!(HetAnalysis.cache_params(&a), HetAnalysis.cache_params(&b));
        assert_ne!(
            ExactAnalysis.cache_params(&a),
            ExactAnalysis.cache_params(&b)
        );
        a.m = 4;
        assert_ne!(HetAnalysis.cache_params(&a), HetAnalysis.cache_params(&b));
        let mut c = AnalysisParams::new(2);
        c.sim_transformed = true;
        assert_ne!(
            SimAnalysis.cache_params(&AnalysisParams::new(2)),
            SimAnalysis.cache_params(&c)
        );
    }

    #[test]
    fn sampled_is_seed_deterministic_and_brackets_the_sim() {
        let mut request = AnalysisRequest::task(figure1_task(), 2);
        request.params.sample_budget = 16;
        request.params.sample_seed = 0xDAC_2018;
        let AnalysisOutcome::Sampled(a) = SampledSimAnalysis.run(&request, &DirectContext).unwrap()
        else {
            panic!("sampled outcome")
        };
        assert_eq!(a.count, 16);
        assert!(a.min <= a.max);
        assert!(a.mean >= a.min as f64 && a.mean <= a.max as f64);
        assert!(a.ci_half >= 0.0);
        // Bitwise reproducible from (seed, budget) alone.
        let AnalysisOutcome::Sampled(b) = SampledSimAnalysis.run(&request, &DirectContext).unwrap()
        else {
            panic!("sampled outcome")
        };
        assert_eq!(a, b);
        // A different seed is allowed to differ; a different budget must
        // change the count.
        request.params.sample_budget = 4;
        let AnalysisOutcome::Sampled(c) = SampledSimAnalysis.run(&request, &DirectContext).unwrap()
        else {
            panic!("sampled outcome")
        };
        assert_eq!(c.count, 4);
    }

    #[test]
    fn anytime_is_optimal_on_figure1_and_never_refuses_large_graphs() {
        let request = AnalysisRequest::task(figure1_task(), 2);
        let AnalysisOutcome::Anytime(a) =
            AnytimeExactAnalysis.run(&request, &DirectContext).unwrap()
        else {
            panic!("anytime outcome")
        };
        // Matches the exact solver on the small instance.
        assert_eq!(a.upper, 8);
        assert_eq!(a.lower, 8);
        assert!(a.optimal);

        // A graph past the solver cap still yields a bracket.
        let mut b = DagBuilder::new();
        let nodes: Vec<_> = (0..(MAX_NODES_SUPPORTED + 10))
            .map(|i| b.node(format!("v{i}"), Ticks::new(1 + (i as u64 % 3))))
            .collect();
        for pair in nodes.windows(2) {
            b.edge(pair[0], pair[1]).unwrap();
        }
        let task = HeteroDagTask::new(
            b.build().unwrap(),
            nodes[5],
            Ticks::new(100_000),
            Ticks::new(100_000),
        )
        .unwrap();
        let request = AnalysisRequest::task(task, 2);
        let AnalysisOutcome::Anytime(big) =
            AnytimeExactAnalysis.run(&request, &DirectContext).unwrap()
        else {
            panic!("anytime outcome")
        };
        assert!(big.lower <= big.upper);
        assert!(big.lower > 0);
    }

    #[test]
    fn anytime_degraded_budget_still_brackets() {
        let mut request = AnalysisRequest::task(figure1_task(), 2);
        // One search node: the solver cannot prove optimality, but the
        // anytime contract still yields lower ≤ optimum ≤ upper.
        request.params.exact_node_budget = Some(1);
        let AnalysisOutcome::Anytime(a) =
            AnytimeExactAnalysis.run(&request, &DirectContext).unwrap()
        else {
            panic!("anytime outcome")
        };
        assert!(a.lower <= 8 && 8 <= a.upper);
    }

    #[test]
    fn acceptance_runs_on_a_singleton_set() {
        let request = AnalysisRequest {
            input: AnalysisInput::TaskSet(vec![figure1_task()]),
            params: AnalysisParams::new(2),
        };
        let AnalysisOutcome::Acceptance(a) =
            AcceptanceAnalysis.run(&request, &DirectContext).unwrap()
        else {
            panic!("acceptance outcome")
        };
        // A single light task is accepted by every test.
        assert_eq!(a.accepted, [true; 6]);
    }
}
