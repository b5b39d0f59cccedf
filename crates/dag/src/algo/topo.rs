//! Topological ordering (Kahn's algorithm).

use crate::{Dag, DagError, NodeId};

/// Computes a topological order of the nodes of `dag`.
///
/// Ties are broken by node index (lowest first), which makes the order
/// deterministic and — because the generators label nodes in creation
/// order — stable across runs.
///
/// # Errors
///
/// Returns [`DagError::Cycle`] with a witness node if the graph contains a
/// directed cycle.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks, algo::topological_order};
///
/// let mut builder = DagBuilder::new();
/// let a = builder.unlabeled_node(Ticks::ONE);
/// let b = builder.unlabeled_node(Ticks::ONE);
/// builder.edge(a, b)?;
/// let dag = builder.build()?;
/// assert_eq!(topological_order(&dag)?, vec![a, b]);
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
pub fn topological_order(dag: &Dag) -> Result<Vec<NodeId>, DagError> {
    let n = dag.node_count();
    let mut in_deg: Vec<u32> = (0..n)
        .map(|i| dag.in_degree(NodeId::from_index(i)) as u32)
        .collect();
    // A BinaryHeap would give the smallest-index-first property directly but
    // costs O(E log V); node ids are created in roughly topological order by
    // the builders, so FIFO seeding in index order is near-optimal and
    // deterministic. The order vector doubles as the FIFO queue (a cursor
    // chases the push end), so the sweep allocates exactly two flat vectors.
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    order.extend(
        (0..n)
            .map(NodeId::from_index)
            .filter(|&v| in_deg[v.index()] == 0),
    );
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &s in dag.successors(v) {
            in_deg[s.index()] -= 1;
            if in_deg[s.index()] == 0 {
                order.push(s);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let witness = (0..n)
            .map(NodeId::from_index)
            .find(|&v| in_deg[v.index()] > 0)
            .expect("cycle implies a node with positive residual in-degree");
        Err(DagError::Cycle(witness))
    }
}

/// `true` if `dag` contains no directed cycle.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks, algo::is_acyclic};
///
/// let mut builder = DagBuilder::new();
/// let a = builder.unlabeled_node(Ticks::ONE);
/// let b = builder.unlabeled_node(Ticks::ONE);
/// builder.edge(a, b)?;
/// assert!(is_acyclic(&builder.build()?));
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
#[must_use]
pub fn is_acyclic(dag: &Dag) -> bool {
    topological_order(dag).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagBuilder, Ticks};

    #[test]
    fn empty_graph_is_acyclic() {
        let dag = Dag::new();
        assert_eq!(topological_order(&dag).unwrap(), Vec::<NodeId>::new());
        assert!(is_acyclic(&dag));
    }

    #[test]
    fn chain_order() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        let c = builder.unlabeled_node(Ticks::ONE);
        builder.edge(b, c).unwrap();
        builder.edge(a, b).unwrap();
        let dag = builder.freeze();
        assert_eq!(topological_order(&dag).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn diamond_respects_precedence() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        let c = builder.unlabeled_node(Ticks::ONE);
        let d = builder.unlabeled_node(Ticks::ONE);
        for (f, t) in [(a, b), (a, c), (b, d), (c, d)] {
            builder.edge(f, t).unwrap();
        }
        let dag = builder.freeze();
        let order = topological_order(&dag).unwrap();
        let pos = |v: NodeId| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(a) < pos(b) && pos(a) < pos(c));
        assert!(pos(b) < pos(d) && pos(c) < pos(d));
    }

    #[test]
    fn cycle_is_reported_with_witness() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, a).unwrap();
        let dag = builder.freeze();
        match topological_order(&dag) {
            Err(DagError::Cycle(w)) => assert!(w == a || w == b),
            other => panic!("expected cycle, got {other:?}"),
        }
        assert!(!is_acyclic(&dag));
    }

    #[test]
    fn disconnected_components_are_ordered() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        let c = builder.unlabeled_node(Ticks::ONE);
        builder.edge(b, c).unwrap();
        let dag = builder.freeze();
        let order = topological_order(&dag).unwrap();
        assert_eq!(order.len(), 3);
        assert!(order.contains(&a));
    }
}
