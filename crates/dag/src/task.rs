//! Sporadic DAG tasks, homogeneous and heterogeneous.

use crate::algo::CriticalPath;
use crate::{Dag, DagError, NodeId, Rational, Ticks};

/// A sporadic DAG task `τ = <G, T, D>` executing entirely on the host
/// (the homogeneous model the paper starts from).
///
/// `T` is the minimum inter-arrival time and `D ≤ T` the constrained
/// relative deadline. The graph is stored by value; it is validated to have
/// a constrained deadline at construction, while structural validation of
/// `G` itself is the responsibility of
/// [`DagBuilder`](crate::DagBuilder) / [`validate_task_model`](crate::validate_task_model).
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, DagTask, Ticks};
///
/// let mut b = DagBuilder::new();
/// let a = b.node("a", Ticks::new(4));
/// let z = b.node("z", Ticks::new(2));
/// b.edge(a, z)?;
/// let task = DagTask::new(b.build()?, Ticks::new(20), Ticks::new(10))?;
/// assert_eq!(task.volume(), Ticks::new(6));
/// assert_eq!(task.utilization(), hetrta_dag::Rational::new(6, 20));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DagTask {
    dag: Dag,
    period: Ticks,
    deadline: Ticks,
}

impl DagTask {
    /// Creates a task, enforcing the constrained deadline `D ≤ T`.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::DeadlineExceedsPeriod`] if `deadline > period`.
    pub fn new(dag: Dag, period: Ticks, deadline: Ticks) -> Result<Self, DagError> {
        if deadline > period {
            return Err(DagError::DeadlineExceedsPeriod {
                deadline: deadline.get(),
                period: period.get(),
            });
        }
        Ok(DagTask {
            dag,
            period,
            deadline,
        })
    }

    /// Creates an implicit-deadline task (`D = T`).
    ///
    /// # Errors
    ///
    /// Never fails today; returns `Result` for signature stability.
    pub fn implicit_deadline(dag: Dag, period: Ticks) -> Result<Self, DagError> {
        Self::new(dag, period, period)
    }

    /// The task's DAG `G`.
    #[must_use]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Minimum inter-arrival time `T`.
    #[must_use]
    pub fn period(&self) -> Ticks {
        self.period
    }

    /// Constrained relative deadline `D`.
    #[must_use]
    pub fn deadline(&self) -> Ticks {
        self.deadline
    }

    /// `vol(G)`: total sequential workload.
    #[must_use]
    pub fn volume(&self) -> Ticks {
        self.dag.volume()
    }

    /// `len(G)`: critical-path length.
    #[must_use]
    pub fn critical_path_length(&self) -> Ticks {
        CriticalPath::of(&self.dag).length()
    }

    /// Task utilization `vol(G) / T`.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    #[must_use]
    pub fn utilization(&self) -> Rational {
        assert!(!self.period.is_zero(), "utilization of a zero-period task");
        Rational::new(self.volume().get() as i128, self.period.get() as i128)
    }

    /// Consumes the task and returns its DAG.
    #[must_use]
    pub fn into_dag(self) -> Dag {
        self.dag
    }
}

/// A sporadic DAG task with one node offloaded to the accelerator device —
/// the heterogeneous model of the paper (Section 2).
///
/// `V = {v_1, …, v_n, v_off}`: every node executes on the host except the
/// designated `v_off`, which executes on the single accelerator and never
/// competes for host cores.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};
///
/// let mut b = DagBuilder::new();
/// let a = b.node("a", Ticks::new(1));
/// let k = b.node("kernel", Ticks::new(8)); // will run on the GPU
/// let z = b.node("z", Ticks::new(1));
/// b.edges([(a, k), (k, z)])?;
/// let task = HeteroDagTask::new(b.build()?, k, Ticks::new(30), Ticks::new(30))?;
/// assert_eq!(task.c_off(), Ticks::new(8));
/// assert_eq!(task.host_volume(), Ticks::new(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HeteroDagTask {
    dag: Dag,
    offloaded: NodeId,
    period: Ticks,
    deadline: Ticks,
}

impl HeteroDagTask {
    /// Creates a heterogeneous task with `offloaded` as `v_off`.
    ///
    /// # Errors
    ///
    /// - [`DagError::UnknownNode`] if `offloaded` is not a node of `dag`;
    /// - [`DagError::DeadlineExceedsPeriod`] if `deadline > period`.
    pub fn new(
        dag: Dag,
        offloaded: NodeId,
        period: Ticks,
        deadline: Ticks,
    ) -> Result<Self, DagError> {
        if !dag.contains_node(offloaded) {
            return Err(DagError::UnknownNode(offloaded));
        }
        if deadline > period {
            return Err(DagError::DeadlineExceedsPeriod {
                deadline: deadline.get(),
                period: period.get(),
            });
        }
        Ok(HeteroDagTask {
            dag,
            offloaded,
            period,
            deadline,
        })
    }

    /// Like [`HeteroDagTask::new`] but additionally rejects an offloaded
    /// node that is the unique source or sink of the DAG.
    ///
    /// The generic transformed structure of the paper (Figure 4) has host
    /// work both before `v_sync` and after the join of `G_par` and `v_off`;
    /// offloading the source or sink degenerates it. The analysis still
    /// copes, but generators use this constructor to mirror the evaluation
    /// setup.
    ///
    /// # Errors
    ///
    /// Everything [`HeteroDagTask::new`] reports, plus
    /// [`DagError::InvalidOffloadedNode`] for a source/sink offload.
    pub fn new_strict(
        dag: Dag,
        offloaded: NodeId,
        period: Ticks,
        deadline: Ticks,
    ) -> Result<Self, DagError> {
        if dag.source() == Some(offloaded) || dag.sink() == Some(offloaded) {
            return Err(DagError::InvalidOffloadedNode(offloaded));
        }
        Self::new(dag, offloaded, period, deadline)
    }

    /// The task's DAG `G` (host nodes plus `v_off`).
    #[must_use]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The offloaded node `v_off`.
    #[must_use]
    pub fn offloaded(&self) -> NodeId {
        self.offloaded
    }

    /// `C_off`: WCET of the offloaded node on the accelerator.
    #[must_use]
    pub fn c_off(&self) -> Ticks {
        self.dag.wcet(self.offloaded)
    }

    /// Minimum inter-arrival time `T`.
    #[must_use]
    pub fn period(&self) -> Ticks {
        self.period
    }

    /// Constrained relative deadline `D`.
    #[must_use]
    pub fn deadline(&self) -> Ticks {
        self.deadline
    }

    /// `vol(G)` including the offloaded node (the paper's definition).
    #[must_use]
    pub fn volume(&self) -> Ticks {
        self.dag.volume()
    }

    /// Workload that runs on the host: `vol(G) − C_off`.
    #[must_use]
    pub fn host_volume(&self) -> Ticks {
        self.volume() - self.c_off()
    }

    /// Fraction `C_off / vol(G)` — the x-axis of every figure of the
    /// paper's evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the volume is zero.
    #[must_use]
    pub fn offload_fraction(&self) -> Rational {
        assert!(
            !self.volume().is_zero(),
            "offload fraction of a zero-volume task"
        );
        Rational::new(self.c_off().get() as i128, self.volume().get() as i128)
    }

    /// `len(G)`: critical-path length of the full DAG.
    #[must_use]
    pub fn critical_path_length(&self) -> Ticks {
        CriticalPath::of(&self.dag).length()
    }

    /// Reinterprets the task as homogeneous (as if `v_off` executed on a
    /// host core) — the baseline the paper compares against.
    #[must_use]
    pub fn as_homogeneous(&self) -> DagTask {
        DagTask {
            dag: self.dag.clone(),
            period: self.period,
            deadline: self.deadline,
        }
    }

    /// Consumes the task and returns its DAG.
    #[must_use]
    pub fn into_dag(self) -> Dag {
        self.dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    fn simple_dag() -> (Dag, NodeId, NodeId, NodeId) {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(2));
        let k = b.node("k", Ticks::new(6));
        let z = b.node("z", Ticks::new(2));
        b.edges([(a, k), (k, z)]).unwrap();
        (b.build().unwrap(), a, k, z)
    }

    #[test]
    fn constrained_deadline_enforced() {
        let (dag, ..) = simple_dag();
        let err = DagTask::new(dag, Ticks::new(10), Ticks::new(11)).unwrap_err();
        assert_eq!(
            err,
            DagError::DeadlineExceedsPeriod {
                deadline: 11,
                period: 10
            }
        );
    }

    #[test]
    fn implicit_deadline_sets_d_equal_t() {
        let (dag, ..) = simple_dag();
        let t = DagTask::implicit_deadline(dag, Ticks::new(25)).unwrap();
        assert_eq!(t.deadline(), t.period());
    }

    #[test]
    fn task_accessors() {
        let (dag, ..) = simple_dag();
        let t = DagTask::new(dag, Ticks::new(20), Ticks::new(15)).unwrap();
        assert_eq!(t.volume(), Ticks::new(10));
        assert_eq!(t.critical_path_length(), Ticks::new(10));
        assert_eq!(t.utilization(), Rational::new(1, 2));
        assert_eq!(t.dag().node_count(), 3);
        assert_eq!(t.into_dag().node_count(), 3);
    }

    #[test]
    fn hetero_requires_known_offloaded_node() {
        let (dag, ..) = simple_dag();
        let bogus = NodeId::from_index(9);
        assert_eq!(
            HeteroDagTask::new(dag, bogus, Ticks::new(10), Ticks::new(10)).unwrap_err(),
            DagError::UnknownNode(bogus)
        );
    }

    #[test]
    fn hetero_volume_split() {
        let (dag, _, k, _) = simple_dag();
        let t = HeteroDagTask::new(dag, k, Ticks::new(20), Ticks::new(20)).unwrap();
        assert_eq!(t.c_off(), Ticks::new(6));
        assert_eq!(t.host_volume(), Ticks::new(4));
        assert_eq!(t.volume(), Ticks::new(10));
        assert_eq!(t.offload_fraction(), Rational::new(6, 10));
    }

    #[test]
    fn strict_rejects_source_and_sink() {
        let (dag, a, _, z) = simple_dag();
        assert_eq!(
            HeteroDagTask::new_strict(dag.clone(), a, Ticks::new(10), Ticks::new(10)).unwrap_err(),
            DagError::InvalidOffloadedNode(a)
        );
        assert_eq!(
            HeteroDagTask::new_strict(dag, z, Ticks::new(10), Ticks::new(10)).unwrap_err(),
            DagError::InvalidOffloadedNode(z)
        );
    }

    #[test]
    fn strict_accepts_interior_node() {
        let (dag, _, k, _) = simple_dag();
        assert!(HeteroDagTask::new_strict(dag, k, Ticks::new(10), Ticks::new(10)).is_ok());
    }

    #[test]
    fn as_homogeneous_preserves_timing_parameters() {
        let (dag, _, k, _) = simple_dag();
        let t = HeteroDagTask::new(dag, k, Ticks::new(20), Ticks::new(18)).unwrap();
        let hom = t.as_homogeneous();
        assert_eq!(hom.period(), Ticks::new(20));
        assert_eq!(hom.deadline(), Ticks::new(18));
        assert_eq!(hom.volume(), t.volume());
    }
}
