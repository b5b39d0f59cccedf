//! Global-EDF schedulability test for heterogeneous DAG task sets.
//!
//! Under global EDF, a job of `τ_k` can only be delayed by jobs with
//! earlier absolute deadlines, and the interference any task `τ_j ≠ τ_k`
//! contributes within the *problem window* `[release, deadline)` of length
//! `D_k` is bounded by the carry-in workload function with shift `R_j`.
//! The test evaluates, for every task,
//!
//! ```text
//! R_k = intra_k + I_k/m [+ B_k]     I_k = Σ_{j ≠ k} W_j(D_k)
//! ```
//!
//! and declares the set schedulable when `R_k ≤ D_k` for all `k`. The
//! carry-in shifts use `R_j = D_j` (first-deadline-miss argument: when the
//! first miss happens, every earlier job met its deadline, so each
//! interfering task's carry-in job started within `D_j` of its release).
//! The window is a constant, so no fixed-point iteration is needed —
//! except under [`DeviceModel::SharedFifo`], where the blocking term
//! depends on the (window-sized) device queue and a single evaluation at
//! `L = D_k` already covers it.
//!
//! ## Limited carry-in
//!
//! [`gedf_test`] applies the classical refinement (used for conditional
//! DAG tasks by Melani et al., ECRTS 2015): extend the problem window to
//! the last instant before it at which some core is idle; at that instant
//! at most `m − 1` jobs are executing, so at most `m − 1` interfering
//! tasks contribute *carry-in* workload. The interference is therefore
//! `Σ_j W_j^NC` plus the `m − 1` largest differences `W_j^CI − W_j^NC` —
//! never more than charging carry-in to everybody
//! ([`CarryIn::AllTasks`], available via [`gedf_test_with`] for
//! comparison).

use hetrta_dag::{HeteroDagTask, Rational};

use crate::model::{
    build_contexts, device_utilization_ok, AnalysisModel, DeviceModel, SetVerdict, TaskVerdict,
};
use crate::workload::{carry_in_workload, device_demand, no_carry_in_workload};
use crate::SchedError;

/// How many interfering tasks are charged carry-in workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CarryIn {
    /// Every interfering task gets the carry-in bound (most pessimistic;
    /// kept for comparison and ablation).
    AllTasks,
    /// At most `m − 1` interfering tasks get carry-in (the busy-window
    /// extension argument); the default of [`gedf_test`].
    LimitedMinusOne,
}

/// Global-EDF schedulability test on `m` host cores.
///
/// Task order in the slice is irrelevant (EDF has no static priorities).
///
/// # Errors
///
/// - [`SchedError::ZeroCores`] if `m == 0`;
/// - [`SchedError::Analysis`] if a task's graph is structurally invalid.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};
/// use hetrta_sched::gedf::gedf_test;
/// use hetrta_sched::model::AnalysisModel;
///
/// # fn mk(c_off: u64, t: u64) -> HeteroDagTask {
/// #     let mut b = DagBuilder::new();
/// #     let a = b.node("a", Ticks::new(1));
/// #     let k = b.node("k", Ticks::new(c_off));
/// #     let z = b.node("z", Ticks::new(1));
/// #     b.edges([(a, k), (k, z)]).unwrap();
/// #     HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(t), Ticks::new(t)).unwrap()
/// # }
/// let tasks = vec![mk(2, 20), mk(3, 25)];
/// assert!(gedf_test(&tasks, 2, AnalysisModel::Homogeneous)?.is_schedulable());
/// # Ok::<(), hetrta_sched::SchedError>(())
/// ```
pub fn gedf_test(
    tasks: &[HeteroDagTask],
    m: u64,
    model: AnalysisModel,
) -> Result<SetVerdict, SchedError> {
    gedf_test_with(tasks, m, model, CarryIn::LimitedMinusOne)
}

/// [`gedf_test`] with an explicit carry-in policy (ablation hook).
///
/// # Errors
///
/// See [`gedf_test`].
pub fn gedf_test_with(
    tasks: &[HeteroDagTask],
    m: u64,
    model: AnalysisModel,
    carry_in: CarryIn,
) -> Result<SetVerdict, SchedError> {
    let ctxs = build_contexts(tasks, m)?;
    if matches!(model, AnalysisModel::Heterogeneous(DeviceModel::SharedFifo))
        && !device_utilization_ok(tasks)
    {
        let per_task = ctxs
            .iter()
            .enumerate()
            .map(|(k, c)| TaskVerdict {
                task: k,
                response_bound: None,
                deadline: c.deadline,
            })
            .collect();
        return Ok(SetVerdict { per_task, model });
    }

    let m_r = Rational::from_integer(m as i128);
    let mut per_task = Vec::with_capacity(ctxs.len());
    for (k, ctx) in ctxs.iter().enumerate() {
        let window = ctx.deadline.to_rational();
        let mut inter = Rational::ZERO;
        let mut ci_extras: Vec<Rational> = Vec::with_capacity(ctxs.len());
        for (j, other) in ctxs.iter().enumerate() {
            if j != k {
                let ci = carry_in_workload(
                    other.interference(model),
                    window,
                    other.deadline.to_rational(),
                    m,
                );
                match carry_in {
                    CarryIn::AllTasks => inter += ci,
                    CarryIn::LimitedMinusOne => {
                        let nc = no_carry_in_workload(other.interference(model), window, m);
                        inter += nc;
                        ci_extras.push(ci - nc);
                    }
                }
            }
        }
        if carry_in == CarryIn::LimitedMinusOne {
            // Charge only the m − 1 largest carry-in surpluses.
            ci_extras.sort_unstable_by(|a, b| b.partial_cmp(a).expect("rationals are ordered"));
            for extra in ci_extras.into_iter().take((m as usize).saturating_sub(1)) {
                inter += extra;
            }
        }
        let mut r = ctx.intra_bound(model, m) + inter / m_r;
        if let AnalysisModel::Heterogeneous(DeviceModel::SharedFifo) = model {
            for (j, other) in ctxs.iter().enumerate() {
                if j != k {
                    r += device_demand(&other.interf_het, window, other.deadline.to_rational());
                }
            }
        }
        let bound = if r <= window { Some(r) } else { None };
        per_task.push(TaskVerdict {
            task: k,
            response_bound: bound,
            deadline: ctx.deadline,
        });
    }
    Ok(SetVerdict { per_task, model })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfp::gfp_test;
    use crate::model::DeviceModel;
    use hetrta_dag::{DagBuilder, Ticks};

    fn chain(c_off: u64, t: u64) -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(1));
        let k = b.node("k", Ticks::new(c_off));
        let z = b.node("z", Ticks::new(1));
        b.edges([(a, k), (k, z)]).unwrap();
        HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(t), Ticks::new(t)).unwrap()
    }

    fn forkjoin(w: u64, branches: usize, c_off: u64, t: u64) -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::new(1));
        let sink = b.node("sink", Ticks::new(1));
        let k = b.node("k", Ticks::new(c_off));
        b.edges([(src, k), (k, sink)]).unwrap();
        for i in 0..branches {
            let p = b.node(format!("p{i}"), Ticks::new(w));
            b.edges([(src, p), (p, sink)]).unwrap();
        }
        HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(t), Ticks::new(t)).unwrap()
    }

    const HET: AnalysisModel = AnalysisModel::Heterogeneous(DeviceModel::DedicatedPerTask);

    #[test]
    fn single_task_reduces_to_intra_bound() {
        let t = forkjoin(4, 3, 5, 100);
        let v = gedf_test(std::slice::from_ref(&t), 2, AnalysisModel::Homogeneous).unwrap();
        let expected = hetrta_core::r_hom(&t.as_homogeneous(), 2).unwrap();
        assert_eq!(v.per_task[0].response_bound, Some(expected));
    }

    #[test]
    fn light_sets_pass_heavy_sets_fail() {
        let light = vec![chain(2, 40), chain(2, 50)];
        let heavy = vec![forkjoin(10, 6, 1, 16), forkjoin(10, 6, 1, 16)];
        assert!(gedf_test(&light, 2, HET).unwrap().is_schedulable());
        assert!(!gedf_test(&heavy, 2, AnalysisModel::Homogeneous)
            .unwrap()
            .is_schedulable());
    }

    #[test]
    fn het_dominates_hom_for_offload_heavy_sets() {
        let tasks = vec![chain(20, 30), chain(20, 36), chain(18, 40)];
        let hom = gedf_test(&tasks, 2, AnalysisModel::Homogeneous).unwrap();
        let het = gedf_test(&tasks, 2, HET).unwrap();
        assert!(!hom.is_schedulable());
        assert!(het.is_schedulable());
    }

    #[test]
    fn order_invariance() {
        let a = vec![chain(5, 30), chain(3, 25), chain(7, 45)];
        let mut b = a.clone();
        b.reverse();
        let va = gedf_test(&a, 2, HET).unwrap();
        let vb = gedf_test(&b, 2, HET).unwrap();
        assert_eq!(va.is_schedulable(), vb.is_schedulable());
        // Same multiset of bounds.
        let mut ba: Vec<_> = va.per_task.iter().map(|t| t.response_bound).collect();
        let mut bb: Vec<_> = vb.per_task.iter().map(|t| t.response_bound).collect();
        ba.sort_by(|x, y| x.partial_cmp(y).unwrap());
        bb.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(ba, bb);
    }

    #[test]
    fn shared_device_never_tightens() {
        let tasks = vec![chain(6, 60), chain(6, 70)];
        let ded = gedf_test(&tasks, 2, HET).unwrap();
        let shared = gedf_test(
            &tasks,
            2,
            AnalysisModel::Heterogeneous(DeviceModel::SharedFifo),
        )
        .unwrap();
        for k in 0..2 {
            if let (Some(rd), Some(rs)) = (
                ded.per_task[k].response_bound,
                shared.per_task[k].response_bound,
            ) {
                assert!(rs >= rd);
            }
        }
    }

    #[test]
    fn gfp_and_gedf_agree_on_trivial_sets() {
        // One tiny task: both reduce to the single-task bound.
        let tasks = vec![chain(2, 100)];
        let fp = gfp_test(&tasks, 2, HET).unwrap();
        let edf = gedf_test(&tasks, 2, HET).unwrap();
        assert_eq!(
            fp.per_task[0].response_bound,
            edf.per_task[0].response_bound
        );
    }

    #[test]
    fn zero_cores_is_an_error() {
        assert!(matches!(
            gedf_test(&[chain(1, 10)], 0, AnalysisModel::Homogeneous),
            Err(SchedError::ZeroCores)
        ));
    }

    #[test]
    fn limited_carry_in_dominates_full_carry_in() {
        let tasks = vec![
            chain(4, 25),
            chain(6, 30),
            chain(3, 40),
            forkjoin(3, 3, 2, 50),
        ];
        for m in [2u64, 4, 8] {
            for model in [AnalysisModel::Homogeneous, HET] {
                let limited = gedf_test_with(&tasks, m, model, CarryIn::LimitedMinusOne).unwrap();
                let full = gedf_test_with(&tasks, m, model, CarryIn::AllTasks).unwrap();
                for (l, f) in limited.per_task.iter().zip(&full.per_task) {
                    match (&l.response_bound, &f.response_bound) {
                        (Some(rl), Some(rf)) => assert!(rl <= rf, "m {m}: {rl} > {rf}"),
                        (Some(_), None) => {} // limited accepts more: fine
                        (None, Some(_)) => panic!("limited carry-in rejected what full accepted"),
                        (None, None) => {}
                    }
                }
            }
        }
    }

    #[test]
    fn limited_carry_in_reduces_to_full_on_one_core() {
        // m = 1 charges zero carry-in surpluses: strictly tighter than
        // the all-tasks policy, never looser.
        let tasks = vec![chain(2, 30), chain(2, 45)];
        let limited = gedf_test_with(&tasks, 1, HET, CarryIn::LimitedMinusOne).unwrap();
        let full = gedf_test_with(&tasks, 1, HET, CarryIn::AllTasks).unwrap();
        for (l, f) in limited.per_task.iter().zip(&full.per_task) {
            if let (Some(rl), Some(rf)) = (&l.response_bound, &f.response_bound) {
                assert!(rl <= rf);
            }
        }
    }
}
