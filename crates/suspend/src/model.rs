//! Self-suspending views of a heterogeneous DAG task.
//!
//! Before DAG-aware heterogeneous analyses, real-time tasks that offload
//! work were modeled as *self-suspending* tasks (see the review the paper
//! cites as \[8\], Chen et al. 2017): the processor-side computation
//! suspends while the device runs. This module derives the two classical
//! views from a [`HeteroDagTask`]:
//!
//! * [`PhaseDecomposition`] — the DAG split into the three phases induced
//!   by `v_off`: everything that must precede it, everything parallel to
//!   it, everything that must follow it (multiprocessor view);
//! * [`FlatSuspendingTask`] — the fully sequentialized
//!   `(C¹, S, C²)` *dynamic self-suspending* model used by the
//!   uniprocessor literature.

use hetrta_dag::algo::Reachability;
use hetrta_dag::{Dag, HeteroDagTask, Ticks};

use crate::SuspendError;

/// The DAG split around `v_off`: `pred → (par ∥ v_off) → succ`.
///
/// `pred` is the sub-DAG induced by `Pred(v_off)`, `par` by the nodes
/// parallel to `v_off` (the same node set as the paper's `G_par`), and
/// `succ` by `Succ(v_off)`. Together with `v_off` they partition the
/// task's nodes.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, HeteroDagTask, Ticks};
/// use hetrta_suspend::PhaseDecomposition;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let pre = b.node("pre", Ticks::new(2));
/// let gpu = b.node("gpu", Ticks::new(8));
/// let cpu = b.node("cpu", Ticks::new(5));
/// let post = b.node("post", Ticks::new(1));
/// b.edges([(pre, gpu), (pre, cpu), (gpu, post), (cpu, post)])?;
/// let task = HeteroDagTask::new(b.build()?, gpu, Ticks::new(30), Ticks::new(30))?;
///
/// let phases = PhaseDecomposition::of(&task)?;
/// assert_eq!(phases.pred().volume(), Ticks::new(2));
/// assert_eq!(phases.par().volume(), Ticks::new(5));
/// assert_eq!(phases.succ().volume(), Ticks::new(1));
/// assert_eq!(phases.c_off(), Ticks::new(8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PhaseDecomposition {
    pred: Dag,
    par: Dag,
    succ: Dag,
    c_off: Ticks,
}

impl PhaseDecomposition {
    /// Splits `task` around its offloaded node.
    ///
    /// # Errors
    ///
    /// [`SuspendError::Dag`] if the graph is cyclic.
    pub fn of(task: &HeteroDagTask) -> Result<Self, SuspendError> {
        let dag = task.dag();
        let off = task.offloaded();
        let reach = Reachability::of(dag)?;
        Ok(PhaseDecomposition {
            pred: dag.induced_subgraph(reach.ancestors(off)).0,
            par: dag.induced_subgraph(&reach.parallel(off)).0,
            succ: dag.induced_subgraph(reach.descendants(off)).0,
            c_off: dag.wcet(off),
        })
    }

    /// The sub-DAG of nodes that must complete before `v_off` starts.
    #[must_use]
    pub fn pred(&self) -> &Dag {
        &self.pred
    }

    /// The sub-DAG of nodes parallel to `v_off` (the paper's `G_par`
    /// node set).
    #[must_use]
    pub fn par(&self) -> &Dag {
        &self.par
    }

    /// The sub-DAG of nodes that cannot start before `v_off` completes.
    #[must_use]
    pub fn succ(&self) -> &Dag {
        &self.succ
    }

    /// `C_off` — the suspension length in the self-suspending view.
    #[must_use]
    pub fn c_off(&self) -> Ticks {
        self.c_off
    }

    /// Sanity: the three phases plus `v_off` account for the whole task.
    #[must_use]
    pub fn accounts_for(&self, task: &HeteroDagTask) -> bool {
        self.pred.volume() + self.par.volume() + self.succ.volume() + self.c_off == task.volume()
    }
}

/// The fully sequentialized self-suspending view `(C¹, S, C²)`:
/// execute `C¹`, suspend for up to `S`, execute `C²`.
///
/// `C¹` collects the host work that can start before the suspension ends
/// (predecessors of `v_off` **and** the parallel nodes — on a uniprocessor
/// any of it can be scheduled while the device runs, but the classical
/// model serializes it); `C²` is the work strictly after `v_off`. This is
/// the *dynamic* self-suspending model: the suspension may occur anywhere
/// within the job, with total length at most `S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatSuspendingTask {
    /// Host execution before the suspension may end (`vol(pred) + vol(par)`).
    pub c1: Ticks,
    /// Maximum suspension length (`C_off`).
    pub suspension: Ticks,
    /// Host execution after the suspension (`vol(succ)`).
    pub c2: Ticks,
    /// Minimum inter-arrival time.
    pub period: Ticks,
    /// Constrained relative deadline.
    pub deadline: Ticks,
}

impl FlatSuspendingTask {
    /// Flattens `task` into the classical `(C¹, S, C²)` shape.
    ///
    /// # Errors
    ///
    /// [`SuspendError::Dag`] if the graph is cyclic.
    pub fn of(task: &HeteroDagTask) -> Result<Self, SuspendError> {
        let phases = PhaseDecomposition::of(task)?;
        Ok(FlatSuspendingTask {
            c1: phases.pred().volume() + phases.par().volume(),
            suspension: phases.c_off(),
            c2: phases.succ().volume(),
            period: task.period(),
            deadline: task.deadline(),
        })
    }

    /// Total host execution `C = C¹ + C²`.
    #[must_use]
    pub fn execution(&self) -> Ticks {
        self.c1 + self.c2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::DagBuilder;

    /// Figure 1(a) of the paper (reconstructed WCETs).
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
    fn figure1_phases() {
        let task = figure1_task();
        let p = PhaseDecomposition::of(&task).unwrap();
        // Pred(v_off) = {v1, v4}: vol 3. Par = {v2, v3}: vol 10. Succ = {v5}: 1.
        assert_eq!(p.pred().volume(), Ticks::new(3));
        assert_eq!(p.par().volume(), Ticks::new(10));
        assert_eq!(p.succ().volume(), Ticks::new(1));
        assert_eq!(p.c_off(), Ticks::new(4));
        assert!(p.accounts_for(&task));
    }

    #[test]
    fn phases_preserve_internal_edges() {
        let task = figure1_task();
        let p = PhaseDecomposition::of(&task).unwrap();
        // v1 → v4 is the only pred-internal edge.
        assert_eq!(p.pred().edge_count(), 1);
        // v2 and v3 are parallel: no internal edge.
        assert_eq!(p.par().edge_count(), 0);
    }

    #[test]
    fn flattening_matches_phase_volumes() {
        let task = figure1_task();
        let flat = FlatSuspendingTask::of(&task).unwrap();
        assert_eq!(flat.c1, Ticks::new(13));
        assert_eq!(flat.suspension, Ticks::new(4));
        assert_eq!(flat.c2, Ticks::new(1));
        assert_eq!(flat.execution(), Ticks::new(14));
        assert_eq!(flat.execution() + flat.suspension, task.volume());
    }

    #[test]
    fn chain_task_has_empty_par() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(2));
        let k = b.node("k", Ticks::new(5));
        let z = b.node("z", Ticks::new(3));
        b.edges([(a, k), (k, z)]).unwrap();
        let task =
            HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(20), Ticks::new(20)).unwrap();
        let p = PhaseDecomposition::of(&task).unwrap();
        assert!(p.par().is_empty());
        assert_eq!(p.pred().volume(), Ticks::new(2));
        assert_eq!(p.succ().volume(), Ticks::new(3));
        assert!(p.accounts_for(&task));
    }

    #[test]
    fn par_matches_papers_g_par() {
        let task = figure1_task();
        let p = PhaseDecomposition::of(&task).unwrap();
        let t = hetrta_core::transform(&task).unwrap();
        assert_eq!(p.par().volume(), t.vol_g_par());
        assert_eq!(p.par().node_count(), t.g_par().node_count());
    }
}
