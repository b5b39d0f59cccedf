//! Critical-path computation (`len(G)`).

use crate::algo::topological_order;
use crate::{Dag, DagError, NodeId, Ticks};

/// The critical path of a DAG: its length `len(G)` and a witness path.
///
/// `len(G)` is the WCET of the longest chain of the DAG — the minimum time
/// needed to execute the task on infinitely many cores (Section 2 of the
/// paper). The computation also exposes, for every node `v`:
///
/// * [`head`](CriticalPath::head): the longest-path length *ending at* `v`,
///   **including** `C_v`;
/// * [`tail`](CriticalPath::tail): the longest-path length *starting at*
///   `v`, **including** `C_v`.
///
/// `head(v) + tail(v) − C_v` is the length of the longest path through `v`;
/// `v` lies on a critical path iff this equals `len(G)`. The head/tail
/// decomposition also feeds the exact solver's per-node release/deadline
/// lower bounds.
///
/// Works on any DAG, including disconnected ones and ones with multiple
/// sources/sinks (needed for the parallel sub-DAG `G_par`). The length of an
/// empty graph is zero.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks, algo::CriticalPath};
///
/// let mut builder = DagBuilder::new();
/// let a = builder.unlabeled_node(Ticks::new(2));
/// let b = builder.unlabeled_node(Ticks::new(3));
/// let c = builder.unlabeled_node(Ticks::new(1));
/// builder.edges([(a, b), (a, c)])?;
/// let dag = builder.freeze(); // two sinks: `build()` would normalize
/// let cp = CriticalPath::of(&dag);
/// assert_eq!(cp.length(), Ticks::new(5));
/// assert_eq!(cp.path(), &[a, b]);
/// assert!(cp.contains(b) && !cp.contains(c));
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CriticalPath {
    length: Ticks,
    path: Vec<NodeId>,
    head: Vec<Ticks>,
    tail: Vec<Ticks>,
}

impl CriticalPath {
    /// Computes the critical path of `dag`.
    ///
    /// # Panics
    ///
    /// Panics if `dag` contains a cycle (use [`CriticalPath::try_of`] for
    /// untrusted graphs).
    #[must_use]
    pub fn of(dag: &Dag) -> Self {
        Self::try_of(dag).expect("critical path requires an acyclic graph")
    }

    /// Computes the critical path, reporting cycles as errors.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cycle`] if the graph is not acyclic.
    pub fn try_of(dag: &Dag) -> Result<Self, DagError> {
        let n = dag.node_count();
        let order = topological_order(dag)?;
        let mut head = vec![Ticks::ZERO; n];
        for &v in &order {
            let best_pred = dag
                .predecessors(v)
                .iter()
                .map(|&p| head[p.index()])
                .max()
                .unwrap_or(Ticks::ZERO);
            head[v.index()] = best_pred + dag.wcet(v);
        }
        let mut tail = vec![Ticks::ZERO; n];
        for &v in order.iter().rev() {
            let best_succ = dag
                .successors(v)
                .iter()
                .map(|&s| tail[s.index()])
                .max()
                .unwrap_or(Ticks::ZERO);
            tail[v.index()] = best_succ + dag.wcet(v);
        }
        let length = head.iter().copied().max().unwrap_or(Ticks::ZERO);

        // Reconstruct one witness path, deterministically (smallest index
        // among equally-long choices).
        let mut path = Vec::new();
        if n > 0 {
            let start = (0..n)
                .map(NodeId::from_index)
                .filter(|&v| dag.in_degree(v) == 0)
                .max_by_key(|&v| (tail[v.index()], core::cmp::Reverse(v.index())))
                .expect("acyclic non-empty graph has a source");
            let mut cur = start;
            path.push(cur);
            loop {
                let next = dag
                    .successors(cur)
                    .iter()
                    .copied()
                    .max_by_key(|&s| (tail[s.index()], core::cmp::Reverse(s.index())));
                match next {
                    Some(s) if !dag.successors(cur).is_empty() => {
                        path.push(s);
                        cur = s;
                    }
                    _ => break,
                }
            }
        }
        debug_assert_eq!(
            path.iter().map(|&v| dag.wcet(v)).sum::<Ticks>(),
            length,
            "witness path must realize len(G)"
        );
        Ok(CriticalPath {
            length,
            path,
            head,
            tail,
        })
    }

    /// `len(G)`, the length of the longest path.
    #[must_use]
    pub fn length(&self) -> Ticks {
        self.length
    }

    /// One longest path, from a source to a sink, in execution order.
    #[must_use]
    pub fn path(&self) -> &[NodeId] {
        &self.path
    }

    /// Longest-path length ending at `v`, including `C_v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the analyzed graph.
    #[must_use]
    pub fn head(&self, v: NodeId) -> Ticks {
        self.head[v.index()]
    }

    /// Longest-path length starting at `v`, including `C_v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the analyzed graph.
    #[must_use]
    pub fn tail(&self, v: NodeId) -> Ticks {
        self.tail[v.index()]
    }

    /// Length of the longest path passing through `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the analyzed graph.
    #[must_use]
    pub fn through(&self, v: NodeId, dag: &Dag) -> Ticks {
        self.head[v.index()] + self.tail[v.index()] - dag.wcet(v)
    }

    /// `true` if `v` lies on *some* critical path (not necessarily the
    /// stored witness).
    ///
    /// This is the test "`v_off` belongs to the critical path" that selects
    /// between Scenario 1 and Scenarios 2.x in Theorem 1. Note that it asks
    /// whether *any* longest path contains `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the analyzed graph.
    #[must_use]
    pub fn on_critical_path(&self, v: NodeId, dag: &Dag) -> bool {
        self.through(v, dag) == self.length
    }

    /// `true` if `v` is on the stored witness path.
    #[must_use]
    pub fn contains(&self, v: NodeId) -> bool {
        self.path.contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    /// The DAG of Figure 1(a) of the paper. The figure gives only aggregate
    /// values (vol = 18, len = 8 via {v1, v3, v5}, R_hom = 13 for m = 2,
    /// unsafely-reduced bound 11, worst het response 12, transformed length
    /// 10); the WCETs below — C1=1, C2=4, C3=6, C4=2, C5=1, C_off=4 —
    /// reproduce all of them.
    fn figure1() -> (Dag, [NodeId; 6]) {
        let mut b = DagBuilder::new();
        let v1 = b.node("v1", Ticks::new(1));
        let v2 = b.node("v2", Ticks::new(4));
        let v3 = b.node("v3", Ticks::new(6));
        let v4 = b.node("v4", Ticks::new(2));
        let v5 = b.node("v5", Ticks::new(1));
        let voff = b.node("v_off", Ticks::new(4));
        for (f, t) in [
            (v1, v2),
            (v1, v3),
            (v1, v4),
            (v4, voff),
            (v2, v5),
            (v3, v5),
            (voff, v5),
        ] {
            b.edge(f, t).unwrap();
        }
        let dag = b.freeze();
        (dag, [v1, v2, v3, v4, v5, voff])
    }

    #[test]
    fn figure1_volume_and_length_match_paper() {
        let (dag, _) = figure1();
        assert_eq!(dag.volume(), Ticks::new(18));
        let cp = CriticalPath::of(&dag);
        assert_eq!(cp.length(), Ticks::new(8));
    }

    #[test]
    fn head_tail_decomposition() {
        let (dag, [v1, v2, v3, v4, v5, voff]) = figure1();
        let cp = CriticalPath::of(&dag);
        assert_eq!(cp.head(v1), Ticks::new(1));
        assert_eq!(cp.head(v4), Ticks::new(3));
        assert_eq!(cp.head(voff), Ticks::new(7));
        assert_eq!(cp.tail(v5), Ticks::new(1));
        assert_eq!(cp.tail(v1), Ticks::new(8));
        // longest path through v2 is v1,v2,v5 = 6
        assert_eq!(cp.through(v2, &dag), Ticks::new(6));
        assert!(cp.on_critical_path(v3, &dag));
        // v4 and v_off are on the tied 8-long chain v1,v4,v_off,v5
        assert!(cp.on_critical_path(v4, &dag));
        assert!(cp.on_critical_path(voff, &dag));
        assert!(!cp.on_critical_path(v2, &dag));
    }

    #[test]
    fn witness_path_realizes_length() {
        let (dag, _) = figure1();
        let cp = CriticalPath::of(&dag);
        let sum: Ticks = cp.path().iter().map(|&v| dag.wcet(v)).sum();
        assert_eq!(sum, cp.length());
        // consecutive nodes are connected
        for w in cp.path().windows(2) {
            assert!(dag.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn empty_graph_has_zero_length() {
        let cp = CriticalPath::of(&Dag::new());
        assert_eq!(cp.length(), Ticks::ZERO);
        assert!(cp.path().is_empty());
    }

    #[test]
    fn single_node() {
        let mut b = DagBuilder::new();
        let a = b.unlabeled_node(Ticks::new(7));
        let dag = b.freeze();
        let cp = CriticalPath::of(&dag);
        assert_eq!(cp.length(), Ticks::new(7));
        assert_eq!(cp.path(), &[a]);
        assert!(cp.on_critical_path(a, &dag));
    }

    #[test]
    fn disconnected_components_take_max() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::new(3));
        let b = builder.unlabeled_node(Ticks::new(5));
        let c = builder.unlabeled_node(Ticks::new(4));
        builder.edge(a, c).unwrap(); // chain of 7 vs isolated 5
        let dag = builder.freeze();
        let cp = CriticalPath::of(&dag);
        assert_eq!(cp.length(), Ticks::new(7));
        assert!(!cp.on_critical_path(b, &dag));
    }

    #[test]
    fn zero_wcet_nodes_are_handled() {
        let mut b = DagBuilder::new();
        let src = b.unlabeled_node(Ticks::ZERO);
        let a = b.unlabeled_node(Ticks::new(4));
        let sink = b.unlabeled_node(Ticks::ZERO);
        b.edge(src, a).unwrap();
        b.edge(a, sink).unwrap();
        let dag = b.freeze();
        let cp = CriticalPath::of(&dag);
        assert_eq!(cp.length(), Ticks::new(4));
        assert!(cp.on_critical_path(src, &dag));
    }

    #[test]
    fn try_of_rejects_cycles() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, a).unwrap();
        let dag = builder.freeze();
        assert!(CriticalPath::try_of(&dag).is_err());
    }
}
