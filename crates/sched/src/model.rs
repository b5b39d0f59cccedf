//! Shared types of the global schedulability tests.
//!
//! ## Composition of Theorem 1 with inter-task interference
//!
//! The single-task bounds (Eq. 1 and Theorem 1) follow the Graham window
//! argument: `R ≤ chain + (interfering workload)/m`. Under global
//! scheduling, other tasks add their host workload to the same window, so
//! the composed bound is
//!
//! ```text
//! R_k = intra_k(I_k) + I_k / m        I_k = Σ_j W_j(window)
//! ```
//!
//! with `W_j` the carry-in workload bound of
//! [`workload`](crate::workload). The intra-task term needs care in the
//! heterogeneous case because Theorem 1's scenarios are classified by
//! comparing `C_off` against `R_hom(G_par)` — a bound that holds **in
//! isolation** but can be exceeded when other tasks delay `G_par`. The
//! composition stays sound because the classification is equivalent to
//! taking the *larger* of the two scenario-2 equations:
//!
//! ```text
//! Eq3 − Eq4 = C_off − (len(G_par) + (vol(G_par) − len(G_par))/m)
//!           = C_off − R_hom(G_par)
//! ```
//!
//! so `max(Eq3, Eq4)` *is* the faithful Theorem 1 value, with no pivot
//! comparison left to be perturbed by interference. Under interference the
//! max is still sound by a case split on the actual execution of the
//! barrier section (`G_par` ∥ `v_off`):
//!
//! * **Scenario 1** (`v_off` off the critical path of `G'`) is
//!   interference-robust as stated: some path of `G_par` is longer than
//!   `C_off`, and host interference only delays it further, so the device
//!   returns strictly before the barrier's host side completes and Eq. 2's
//!   discount of `C_off` remains safe.
//! * If the device returns **after** `G_par` drains (even with the
//!   interference charged to the window), the barrier lasts `C_off` and no
//!   `G_par` work delays the post-join chain — Eq. 3's argument.
//! * Otherwise the chain passes through `G_par` and Eq. 4's substitution
//!   applies — additionally capped by Eq. 1 on `G'`, which is sound
//!   unconditionally (the
//!   [`HetBound::tight_value`](hetrta_core::HetBound::tight_value)
//!   rationale for non-generic structures).
//!
//! Whichever case materializes, its bound is ≤ the max we use. The
//! empirical cross-check lives in `tests/empirical.rs`: sets accepted by
//! these tests never miss a deadline in the sporadic simulator.

use hetrta_core::{r_hom, r_hom_dag, transform, TransformedTask};
use hetrta_dag::{HeteroDagTask, Rational, Ticks};

use crate::taskset::{interference_heterogeneous, interference_homogeneous};
use crate::workload::InterferingTask;
use crate::SchedError;

/// How the accelerator is shared among tasks (heterogeneous analyses only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceModel {
    /// Every task owns a device (the paper's single-task model, and the
    /// platform assumption of `hetrta-core::federated`): offloads never
    /// queue.
    DedicatedPerTask,
    /// All tasks share **one** FIFO, non-preemptive device. Every job
    /// overlapping the window may enqueue its offload ahead of ours; the
    /// analysis adds that queueing delay and additionally requires device
    /// utilization `Σ C_off_j / T_j ≤ 1` (a diverging device queue breaks
    /// the per-window job-count bound).
    SharedFifo,
}

/// Which response-time model the test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisModel {
    /// Everything executes on the host; Eq. 1 intra-task term and full
    /// volumes as interference (the baseline the paper compares against).
    Homogeneous,
    /// `v_off` executes on the accelerator; Theorem-1 intra-task term
    /// (interference-robust composition, see the module docs) and host
    /// volumes as interference.
    Heterogeneous(DeviceModel),
}

/// Outcome of the response-time iteration for one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskVerdict {
    /// Index of the task in the input slice.
    pub task: usize,
    /// The converged response-time bound, or `None` when the iteration
    /// exceeded the deadline (or the iteration cap) — unschedulable.
    pub response_bound: Option<Rational>,
    /// The task's relative deadline, for reporting.
    pub deadline: Ticks,
}

impl TaskVerdict {
    /// `true` if a bound exists and meets the deadline.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        match &self.response_bound {
            Some(r) => *r <= self.deadline.to_rational(),
            None => false,
        }
    }
}

/// Outcome of a set-level schedulability test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetVerdict {
    /// Per-task verdicts, in input order.
    pub per_task: Vec<TaskVerdict>,
    /// The model the test ran with.
    pub model: AnalysisModel,
}

impl SetVerdict {
    /// `true` if every task's bound meets its deadline.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        !self.per_task.is_empty() && self.per_task.iter().all(TaskVerdict::is_schedulable)
    }

    /// The verdict of one task.
    #[must_use]
    pub fn task(&self, index: usize) -> Option<&TaskVerdict> {
        self.per_task.iter().find(|v| v.task == index)
    }
}

/// Precomputed per-task analysis context shared by the FP and EDF tests.
#[derive(Debug)]
pub(crate) struct TaskCtx {
    pub deadline: Ticks,
    /// Eq. 1 on the original DAG (homogeneous intra-task term).
    pub r_hom: Rational,
    /// The transformed task (heterogeneous intra-task term inputs).
    pub transformed: TransformedTask,
    /// Eq. 1 on `G'` (the Scenario 2.2 cap).
    pub r_hom_transformed: Rational,
    /// Interference summary when everything runs on the host.
    pub interf_hom: InterferingTask,
    /// Interference summary when `v_off` runs on the device.
    pub interf_het: InterferingTask,
}

impl TaskCtx {
    pub(crate) fn build(task: &HeteroDagTask, m: u64) -> Result<TaskCtx, SchedError> {
        let transformed = transform(task)?;
        let r_hom_transformed = r_hom_dag(transformed.transformed(), m)?;
        Ok(TaskCtx {
            deadline: task.deadline(),
            r_hom: r_hom(&task.as_homogeneous(), m)?,
            transformed,
            r_hom_transformed,
            interf_hom: interference_homogeneous(task),
            interf_het: interference_heterogeneous(task),
        })
    }

    /// The intra-task response-time term under `model` — constant in the
    /// inter-task interference (see the module docs: `max(Eq3, Eq4)`
    /// replaces the pivot comparison, so no classification can be
    /// perturbed by other tasks).
    pub(crate) fn intra_bound(&self, model: AnalysisModel, m: u64) -> Rational {
        match model {
            AnalysisModel::Homogeneous => self.r_hom,
            AnalysisModel::Heterogeneous(_) => {
                let t = &self.transformed;
                let len2 = t.len_transformed().to_rational();
                let vol2 = t.vol_transformed().to_rational();
                let c_off = t.c_off().to_rational();
                let m_r = Rational::from_integer(m as i128);
                if !t.off_on_critical_path() {
                    // Eq. 2 — robust to interference (module docs).
                    len2 + (vol2 - len2 - c_off) / m_r
                } else {
                    // max(Eq3, Eq4 capped by Eq.1-on-G').
                    let eq3 = len2 + (vol2 - len2 - t.vol_g_par().to_rational()) / m_r;
                    let len_par = t.len_g_par().to_rational();
                    let eq4 = len2 - c_off + len_par + (vol2 - len2 - len_par) / m_r;
                    eq3.max(eq4.min(self.r_hom_transformed))
                }
            }
        }
    }

    /// The interference summary other tasks see under `model`.
    pub(crate) fn interference(&self, model: AnalysisModel) -> &InterferingTask {
        match model {
            AnalysisModel::Homogeneous => &self.interf_hom,
            AnalysisModel::Heterogeneous(_) => &self.interf_het,
        }
    }
}

/// Builds the per-task contexts for a whole set.
pub(crate) fn build_contexts(tasks: &[HeteroDagTask], m: u64) -> Result<Vec<TaskCtx>, SchedError> {
    if m == 0 {
        return Err(SchedError::ZeroCores);
    }
    tasks.iter().map(|t| TaskCtx::build(t, m)).collect()
}

/// Necessary condition for [`DeviceModel::SharedFifo`]: the single device
/// must not be over-utilized.
pub(crate) fn device_utilization_ok(tasks: &[HeteroDagTask]) -> bool {
    let u = tasks
        .iter()
        .map(|t| Rational::new(t.c_off().get() as i128, t.period().get() as i128))
        .fold(Rational::ZERO, |a, b| a + b);
    u <= Rational::ONE
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::DagBuilder;

    fn task(c_off: u64, period: u64) -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(1));
        let k = b.node("k", Ticks::new(c_off));
        let p = b.node("p", Ticks::new(4));
        let z = b.node("z", Ticks::new(1));
        b.edges([(a, k), (a, p), (k, z), (p, z)]).unwrap();
        HeteroDagTask::new(
            b.build().unwrap(),
            k,
            Ticks::new(period),
            Ticks::new(period),
        )
        .unwrap()
    }

    #[test]
    fn intra_hom_matches_eq1() {
        let t = task(3, 20);
        let ctx = TaskCtx::build(&t, 2).unwrap();
        // vol = 9, len = 6 → 6 + 3/2 = 7.5
        assert_eq!(
            ctx.intra_bound(AnalysisModel::Homogeneous, 2),
            Rational::new(15, 2)
        );
    }

    #[test]
    fn intra_het_scenario1_uses_eq2() {
        // p (4) is longer than c_off (3): scenario 1.
        let t = task(3, 20);
        let ctx = TaskCtx::build(&t, 2).unwrap();
        let het = AnalysisModel::Heterogeneous(DeviceModel::DedicatedPerTask);
        assert!(!ctx.transformed.off_on_critical_path());
        // G': a(1) → sync → {k(3), p(4)} → z(1); len 6, vol 9.
        // Eq.2: 6 + (9 − 6 − 3)/2 = 6.
        assert_eq!(ctx.intra_bound(het, 2), Rational::from_integer(6));
    }

    #[test]
    fn intra_het_matches_faithful_theorem1_value() {
        // The max(Eq3, Eq4) form must agree with hetrta-core's scenario
        // classification on generic structures.
        for c_off in [2u64, 4, 6, 10, 16] {
            let t = task(c_off, 60);
            let ctx = TaskCtx::build(&t, 2).unwrap();
            let het = AnalysisModel::Heterogeneous(DeviceModel::DedicatedPerTask);
            let faithful = hetrta_core::r_het(&ctx.transformed, 2).unwrap();
            assert_eq!(
                ctx.intra_bound(het, 2),
                faithful.tight_value(),
                "c_off = {c_off}"
            );
        }
    }

    #[test]
    fn het_intra_never_exceeds_hom_on_transformed() {
        for c in [1u64, 3, 5, 8, 12, 20] {
            let t = task(c, 60);
            let ctx = TaskCtx::build(&t, 4).unwrap();
            let het = AnalysisModel::Heterogeneous(DeviceModel::DedicatedPerTask);
            let v = ctx.intra_bound(het, 4);
            assert!(v <= ctx.r_hom_transformed.max(ctx.r_hom), "c_off {c}: {v}");
        }
    }

    #[test]
    fn device_utilization_check() {
        assert!(device_utilization_ok(&[task(3, 20), task(5, 10)]));
        assert!(!device_utilization_ok(&[task(9, 10), task(5, 20)]));
    }

    #[test]
    fn verdicts() {
        let v = TaskVerdict {
            task: 0,
            response_bound: Some(Rational::from_integer(9)),
            deadline: Ticks::new(10),
        };
        assert!(v.is_schedulable());
        let miss = TaskVerdict {
            response_bound: None,
            ..v.clone()
        };
        assert!(!miss.is_schedulable());
        let set = SetVerdict {
            per_task: vec![v, miss],
            model: AnalysisModel::Homogeneous,
        };
        assert!(!set.is_schedulable());
        assert!(set.task(0).unwrap().is_schedulable());
        assert!(SetVerdict {
            per_task: vec![],
            model: AnalysisModel::Homogeneous
        }
        .is_schedulable()
        .eq(&false));
    }

    #[test]
    fn zero_cores_rejected() {
        assert!(matches!(
            build_contexts(&[task(3, 20)], 0),
            Err(SchedError::ZeroCores)
        ));
    }
}
