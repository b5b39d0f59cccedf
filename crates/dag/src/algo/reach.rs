//! All-pairs reachability closure.

use crate::algo::topological_order;
use crate::{BitSet, Dag, DagError, NodeId};

/// Precomputed reachability information for a DAG.
///
/// For every node `v` the closure stores the descendant set
/// `Succ(v)` (all nodes reachable from `v`, excluding `v` itself) and the
/// ancestor set `Pred(v)` (all nodes from which `v` can be reached,
/// excluding `v`). These are exactly the `Pred(v_off)` / `Succ(v_off)` sets
/// used by Algorithm 1 of the paper, and the complement
/// `V \ Pred(v) \ Succ(v) \ {v}` is the *parallel set* of `v`.
///
/// Construction costs `O(V · E / 64)` time and `O(V² / 64)` space via
/// bit-set union along a reverse topological sweep.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks, algo::Reachability};
///
/// let mut builder = DagBuilder::new();
/// let a = builder.unlabeled_node(Ticks::ONE);
/// let b = builder.unlabeled_node(Ticks::ONE);
/// let c = builder.unlabeled_node(Ticks::ONE);
/// builder.edges([(a, b), (a, c)])?;
/// let dag = builder.freeze(); // two sinks: `build()` would normalize
/// let reach = Reachability::of(&dag)?;
/// assert!(reach.descendants(a).contains(c));
/// assert!(reach.ancestors(c).contains(a));
/// assert!(reach.parallel(b).contains(c)); // b and c are unordered
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Reachability {
    descendants: Vec<BitSet>,
    ancestors: Vec<BitSet>,
}

impl Reachability {
    /// Computes the reachability closure of `dag`.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cycle`] if the graph is not acyclic.
    pub fn of(dag: &Dag) -> Result<Self, DagError> {
        let n = dag.node_count();
        let order = topological_order(dag)?;
        // Build each row in place (take/put-back instead of a fresh
        // allocation per node): the only heap traffic is the 2·n row sets
        // the result owns anyway.
        let mut descendants = vec![BitSet::new(n); n];
        for &v in order.iter().rev() {
            // succ sets of children are already complete.
            let mut set = core::mem::take(&mut descendants[v.index()]);
            for &s in dag.successors(v) {
                set.insert(s);
                set.union_with(&descendants[s.index()]);
            }
            descendants[v.index()] = set;
        }
        let mut ancestors = vec![BitSet::new(n); n];
        for &v in &order {
            let mut set = core::mem::take(&mut ancestors[v.index()]);
            for &p in dag.predecessors(v) {
                set.insert(p);
                set.union_with(&ancestors[p.index()]);
            }
            ancestors[v.index()] = set;
        }
        Ok(Reachability {
            descendants,
            ancestors,
        })
    }

    /// `Succ(v)`: all nodes reachable from `v` (excluding `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the analyzed graph.
    #[must_use]
    pub fn descendants(&self, v: NodeId) -> &BitSet {
        &self.descendants[v.index()]
    }

    /// `Pred(v)`: all nodes from which `v` is reachable (excluding `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the analyzed graph.
    #[must_use]
    pub fn ancestors(&self, v: NodeId) -> &BitSet {
        &self.ancestors[v.index()]
    }

    /// The parallel set of `v`: nodes neither ordered before nor after `v`
    /// (`V \ Pred(v) \ Succ(v) \ {v}`).
    ///
    /// This is the node set `V_par` of the sub-DAG `G_par` in the paper when
    /// `v` is the offloaded node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the analyzed graph.
    #[must_use]
    pub fn parallel(&self, v: NodeId) -> BitSet {
        let n = self.descendants.len();
        let mut set = BitSet::full(n);
        set.difference_with(&self.descendants[v.index()]);
        set.difference_with(&self.ancestors[v.index()]);
        set.remove(v);
        set
    }

    /// `true` if there is a directed path `from → … → to` (strict:
    /// `false` when `from == to`).
    #[must_use]
    pub fn is_ordered_before(&self, from: NodeId, to: NodeId) -> bool {
        self.descendants[from.index()].contains(to)
    }

    /// `true` if `a` and `b` may execute in parallel (no path in either
    /// direction, and `a != b`).
    #[must_use]
    pub fn are_parallel(&self, a: NodeId, b: NodeId) -> bool {
        a != b && !self.is_ordered_before(a, b) && !self.is_ordered_before(b, a)
    }

    /// Number of nodes in the analyzed graph.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.descendants.len()
    }
}

/// The ancestor and descendant sets of a *single* node — `(Pred(v),
/// Succ(v))`, both excluding `v` — computed by one reverse and one forward
/// traversal in `O(V + E)` time and `O(V/8)` space.
///
/// This is the closure-free alternative to [`Reachability::of`] when only
/// one node's sets matter (Algorithm 1 needs exactly
/// `Pred(v_off)`/`Succ(v_off)`): at n = 10⁶ the full closure would need
/// ~2×125 GB, the two per-node sets ~250 KB. The returned sets are
/// bitwise the closure's [`Reachability::ancestors`] /
/// [`Reachability::descendants`] rows.
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic (the same
/// contract as [`Reachability::of`]).
///
/// # Panics
///
/// Panics if `v` is not a node of `dag`.
pub fn node_reach_sets(dag: &Dag, v: NodeId) -> Result<(BitSet, BitSet), DagError> {
    // Typed acyclicity check up front: a cyclic graph must error, not
    // yield traversal sets that silently mean something else.
    topological_order(dag)?;
    let n = dag.node_count();
    let mut ancestors = BitSet::new(n);
    let mut stack = vec![v];
    while let Some(x) = stack.pop() {
        for &p in dag.predecessors(x) {
            if ancestors.insert(p) {
                stack.push(p);
            }
        }
    }
    let mut descendants = BitSet::new(n);
    stack.push(v);
    while let Some(x) = stack.pop() {
        for &s in dag.successors(x) {
            if descendants.insert(s) {
                stack.push(s);
            }
        }
    }
    Ok((ancestors, descendants))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagBuilder, Ticks};

    /// Builds the DAG of Figure 3(a) of the paper (11 nodes + v_off).
    /// Node layout (indices):
    ///   v1=0, v2=1, v3=2, v7=3, v8=4, v9=5, v_off=6, v11=7, v12=8 …
    /// A simplified shape capturing the same pred/succ/parallel structure.
    fn fig3_like() -> (Dag, Vec<NodeId>) {
        let mut b = DagBuilder::new();
        let v: Vec<NodeId> = (0..8)
            .map(|i| b.node(format!("v{i}"), Ticks::ONE))
            .collect();
        // v0 -> v1, v0 -> v3 ; v1 -> v4, v1 -> v2 ; v3 -> v4 is transitive-free
        for (f, t) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
            (6, 7),
        ] {
            b.edge(v[f], v[t]).unwrap();
        }
        let dag = b.freeze();
        (dag, v)
    }

    #[test]
    fn descendants_and_ancestors_chain() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        let c = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, c).unwrap();
        let dag = builder.freeze();
        let r = Reachability::of(&dag).unwrap();
        assert_eq!(r.descendants(a).len(), 2);
        assert_eq!(r.ancestors(c).len(), 2);
        assert!(r.descendants(c).is_empty());
        assert!(r.ancestors(a).is_empty());
        assert!(r.is_ordered_before(a, c));
        assert!(!r.is_ordered_before(c, a));
    }

    #[test]
    fn parallel_set_excludes_self_and_ordered() {
        let (dag, v) = fig3_like();
        let r = Reachability::of(&dag).unwrap();
        // v4 (index 4) and v5 (index 5) are parallel.
        assert!(r.are_parallel(v[4], v[5]));
        let par = r.parallel(v[4]);
        assert!(par.contains(v[5]));
        assert!(!par.contains(v[4]));
        assert!(!par.contains(v[0])); // ancestor
        assert!(!par.contains(v[6])); // descendant
    }

    #[test]
    fn parallel_of_source_is_empty_in_connected_dag() {
        let (dag, v) = fig3_like();
        let r = Reachability::of(&dag).unwrap();
        assert!(r.parallel(v[0]).is_empty());
        assert!(r.parallel(v[7]).is_empty());
    }

    #[test]
    fn closure_matches_reaches_queries() {
        let (dag, _) = fig3_like();
        let r = Reachability::of(&dag).unwrap();
        for a in dag.node_ids() {
            for b in dag.node_ids() {
                if a != b {
                    assert_eq!(
                        r.is_ordered_before(a, b),
                        dag.reaches(a, b),
                        "mismatch for {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_is_an_error() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, a).unwrap();
        let dag = builder.freeze();
        assert!(matches!(Reachability::of(&dag), Err(DagError::Cycle(_))));
    }

    #[test]
    fn node_reach_sets_match_closure_rows() {
        let (dag, _) = fig3_like();
        let r = Reachability::of(&dag).unwrap();
        for v in dag.node_ids() {
            let (anc, desc) = node_reach_sets(&dag, v).unwrap();
            assert_eq!(&anc, r.ancestors(v), "ancestors of {v}");
            assert_eq!(&desc, r.descendants(v), "descendants of {v}");
        }
    }

    #[test]
    fn node_reach_sets_cycle_is_an_error() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, a).unwrap();
        let dag = builder.freeze();
        assert!(matches!(node_reach_sets(&dag, a), Err(DagError::Cycle(_))));
    }

    #[test]
    fn are_parallel_is_irreflexive() {
        let (dag, v) = fig3_like();
        let r = Reachability::of(&dag).unwrap();
        for &x in &v {
            assert!(!r.are_parallel(x, x));
        }
        assert_eq!(r.node_count(), dag.node_count());
    }
}
