//! DAG width — the maximum number of jobs that can run simultaneously.
//!
//! By Dilworth's theorem the *width* of the precedence order (the largest
//! antichain, i.e. the largest set of pairwise-parallel nodes) equals the
//! minimum number of chains covering all nodes; we compute it as
//! `n − maximum matching` in the bipartite *reachability* graph
//! (Fulkerson's construction on the transitive closure). The width tells a
//! designer how many host cores a task can ever exploit — adding more than
//! `width(G) − 1` cores (one job may be on the accelerator) never helps.

use crate::algo::Reachability;
use crate::{Dag, DagError, NodeId};

/// Computes the width of `dag` (maximum antichain size).
///
/// Runs Fulkerson's chain-cover construction: a maximum bipartite matching
/// on the full reachability relation via repeated augmenting-path search
/// (`O(V·E')` with `E'` edges of the closure — fine for model-scale
/// graphs).
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks, algo::width};
///
/// let mut builder = DagBuilder::new();
/// let f = builder.unlabeled_node(Ticks::ONE);
/// let a = builder.unlabeled_node(Ticks::ONE);
/// let b = builder.unlabeled_node(Ticks::ONE);
/// let c = builder.unlabeled_node(Ticks::ONE);
/// let j = builder.unlabeled_node(Ticks::ONE);
/// for mid in [a, b, c] {
///     builder.edge(f, mid)?;
///     builder.edge(mid, j)?;
/// }
/// let dag = builder.build()?;
/// assert_eq!(width(&dag)?, 3); // {a, b, c} run in parallel
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
pub fn width(dag: &Dag) -> Result<usize, DagError> {
    let n = dag.node_count();
    if n == 0 {
        return Ok(0);
    }
    let reach = Reachability::of(dag)?;
    // Bipartite graph: left copy u → right copy w iff u strictly reaches w.
    // match_right[w] = left node matched to w.
    let mut match_right: Vec<Option<usize>> = vec![None; n];
    let mut matched = 0usize;
    for u in 0..n {
        let mut visited = vec![false; n];
        if augment(u, &reach, &mut visited, &mut match_right) {
            matched += 1;
        }
    }
    Ok(n - matched)
}

fn augment(
    u: usize,
    reach: &Reachability,
    visited: &mut [bool],
    match_right: &mut [Option<usize>],
) -> bool {
    for w in reach.descendants(NodeId::from_index(u)).iter() {
        let wi = w.index();
        if visited[wi] {
            continue;
        }
        visited[wi] = true;
        if match_right[wi].is_none()
            || augment(
                match_right[wi].expect("checked some"),
                reach,
                visited,
                match_right,
            )
        {
            match_right[wi] = Some(u);
            return true;
        }
    }
    false
}

/// A maximum antichain witness: a largest set of pairwise-parallel nodes.
///
/// Derived from the chain cover by taking one node per chain level via the
/// classical König-style alternating reachability; for simplicity (and
/// because the callers only need a witness, not a canonical one) this
/// implementation greedily extends an antichain in topological order and
/// verifies its size against [`width`].
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic.
pub fn max_antichain(dag: &Dag) -> Result<Vec<NodeId>, DagError> {
    let target = width(dag)?;
    let reach = Reachability::of(dag)?;
    // Greedy with backtracking over nodes ordered by |Pred| + |Succ|
    // (least-constrained first) — exact because it retries alternatives.
    let mut nodes: Vec<NodeId> = dag.node_ids().collect();
    nodes.sort_by_key(|&v| reach.ancestors(v).len() + reach.descendants(v).len());
    let mut best: Vec<NodeId> = Vec::new();
    let mut current: Vec<NodeId> = Vec::new();
    search(&nodes, 0, &reach, target, &mut current, &mut best);
    debug_assert_eq!(best.len(), target, "antichain witness must match width");
    Ok(best)
}

fn search(
    nodes: &[NodeId],
    from: usize,
    reach: &Reachability,
    target: usize,
    current: &mut Vec<NodeId>,
    best: &mut Vec<NodeId>,
) -> bool {
    if current.len() == target {
        *best = current.clone();
        return true;
    }
    if from >= nodes.len() || current.len() + (nodes.len() - from) < target {
        return false;
    }
    for i in from..nodes.len() {
        let v = nodes[i];
        if current.iter().all(|&u| reach.are_parallel(u, v)) {
            current.push(v);
            if search(nodes, i + 1, reach, target, current, best) {
                return true;
            }
            current.pop();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagBuilder, Ticks};

    #[test]
    fn chain_has_width_one() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        let c = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, c).unwrap();
        let dag = builder.freeze();
        assert_eq!(width(&dag).unwrap(), 1);
        assert_eq!(max_antichain(&dag).unwrap().len(), 1);
    }

    #[test]
    fn independent_nodes_width_n() {
        let mut b = DagBuilder::new();
        for _ in 0..5 {
            b.unlabeled_node(Ticks::ONE);
        }
        let dag = b.freeze();
        assert_eq!(width(&dag).unwrap(), 5);
        assert_eq!(max_antichain(&dag).unwrap().len(), 5);
    }

    #[test]
    fn fork_join_width_equals_branches() {
        let mut b = DagBuilder::new();
        let f = b.unlabeled_node(Ticks::ONE);
        let j = b.unlabeled_node(Ticks::ONE);
        let mids: Vec<NodeId> = (0..4)
            .map(|_| {
                let v = b.unlabeled_node(Ticks::ONE);
                b.edge(f, v).unwrap();
                b.edge(v, j).unwrap();
                v
            })
            .collect();
        let dag = b.freeze();
        assert_eq!(width(&dag).unwrap(), 4);
        let anti = max_antichain(&dag).unwrap();
        assert_eq!(anti.len(), 4);
        for &v in &anti {
            assert!(mids.contains(&v));
        }
    }

    #[test]
    fn nested_structure() {
        // f → {a → {x, y} → b, c} → j : width 3 ({x, y, c})
        let mut builder = DagBuilder::new();
        let f = builder.unlabeled_node(Ticks::ONE);
        let a = builder.unlabeled_node(Ticks::ONE);
        let x = builder.unlabeled_node(Ticks::ONE);
        let y = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        let c = builder.unlabeled_node(Ticks::ONE);
        let j = builder.unlabeled_node(Ticks::ONE);
        for (s, t) in [
            (f, a),
            (a, x),
            (a, y),
            (x, b),
            (y, b),
            (b, j),
            (f, c),
            (c, j),
        ] {
            builder.edge(s, t).unwrap();
        }
        let dag = builder.freeze();
        assert_eq!(width(&dag).unwrap(), 3);
        let anti = max_antichain(&dag).unwrap();
        assert_eq!(anti.len(), 3);
        // witness is pairwise parallel
        let reach = Reachability::of(&dag).unwrap();
        for i in 0..anti.len() {
            for k in (i + 1)..anti.len() {
                assert!(reach.are_parallel(anti[i], anti[k]));
            }
        }
    }

    #[test]
    fn empty_graph() {
        assert_eq!(width(&Dag::new()).unwrap(), 0);
        assert!(max_antichain(&Dag::new()).unwrap().is_empty());
    }

    #[test]
    fn cycle_reported() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, a).unwrap();
        let dag = builder.freeze();
        assert!(width(&dag).is_err());
    }
}
