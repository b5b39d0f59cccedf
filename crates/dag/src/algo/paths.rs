//! Path counting and bounded enumeration.

use crate::algo::topological_order;
use crate::{Dag, DagError, NodeId};

/// Counts the number of distinct directed paths from `from` to `to`
/// (a path of zero edges counts when `from == to`).
///
/// Uses saturating arithmetic: on graphs with an astronomically large
/// number of paths the result clamps at `u128::MAX`.
///
/// # Errors
///
/// Returns [`DagError::UnknownNode`] for out-of-range ids and
/// [`DagError::Cycle`] if the graph is not acyclic.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks, algo::count_paths};
///
/// let mut builder = DagBuilder::new();
/// let a = builder.unlabeled_node(Ticks::ONE);
/// let b = builder.unlabeled_node(Ticks::ONE);
/// let c = builder.unlabeled_node(Ticks::ONE);
/// let d = builder.unlabeled_node(Ticks::ONE);
/// builder.edges([(a, b), (a, c), (b, d), (c, d)])?;
/// let dag = builder.build()?;
/// assert_eq!(count_paths(&dag, a, d)?, 2);
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
pub fn count_paths(dag: &Dag, from: NodeId, to: NodeId) -> Result<u128, DagError> {
    if !dag.contains_node(from) {
        return Err(DagError::UnknownNode(from));
    }
    if !dag.contains_node(to) {
        return Err(DagError::UnknownNode(to));
    }
    let order = topological_order(dag)?;
    let mut count = vec![0u128; dag.node_count()];
    count[from.index()] = 1;
    for &v in &order {
        if count[v.index()] == 0 {
            continue;
        }
        let c = count[v.index()];
        for &s in dag.successors(v) {
            count[s.index()] = count[s.index()].saturating_add(c);
        }
    }
    Ok(count[to.index()])
}

/// The outcome of a bounded path enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEnumeration {
    /// The enumerated source-to-sink paths, each a node sequence in
    /// execution order, in deterministic DFS order.
    pub paths: Vec<Vec<NodeId>>,
    /// `true` when the graph has more paths than the requested limit —
    /// the enumeration stopped early rather than being exhaustive.
    pub truncated: bool,
}

/// Enumerates up to `limit` source-to-sink paths of `dag`, each as a node
/// sequence in execution order.
///
/// Intended for diagnostics and tests on small graphs; the number of paths
/// can be exponential, hence the mandatory bound. When the graph has more
/// than `limit` paths the result is flagged
/// [`truncated`](PathEnumeration::truncated) instead of silently stopping.
///
/// The walk is an explicit-stack DFS, so path depth is bounded by available
/// memory, not the thread's call stack — a 100 000-node chain enumerates
/// fine.
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic.
pub fn enumerate_paths(dag: &Dag, limit: usize) -> Result<PathEnumeration, DagError> {
    topological_order(dag)?; // cycle check
    let mut out = Vec::new();
    let mut truncated = false;
    // DFS state: `path` is the current node sequence, `cursor[d]` the next
    // successor index to explore at depth `d`.
    let mut path: Vec<NodeId> = Vec::new();
    let mut cursor: Vec<usize> = Vec::new();
    'sources: for src in dag.sources() {
        path.clear();
        cursor.clear();
        path.push(src);
        cursor.push(0);
        while let Some(&next) = cursor.last() {
            let v = *path.last().expect("path and cursor move together");
            let succs = dag.successors(v);
            if succs.is_empty() {
                // A leaf of the walk is always a complete path: emitting the
                // (limit + 1)-th one instead records the truncation.
                if out.len() == limit {
                    truncated = true;
                    break 'sources;
                }
                out.push(path.clone());
                path.pop();
                cursor.pop();
            } else if next < succs.len() {
                *cursor.last_mut().expect("checked non-empty") += 1;
                path.push(succs[next]);
                cursor.push(0);
            } else {
                path.pop();
                cursor.pop();
            }
        }
    }
    Ok(PathEnumeration {
        paths: out,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagBuilder, Ticks};

    fn diamond() -> (Dag, [NodeId; 4]) {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        let c = builder.unlabeled_node(Ticks::ONE);
        let d = builder.unlabeled_node(Ticks::ONE);
        for (f, t) in [(a, b), (a, c), (b, d), (c, d)] {
            builder.edge(f, t).unwrap();
        }
        let dag = builder.freeze();
        (dag, [a, b, c, d])
    }

    #[test]
    fn count_in_diamond() {
        let (dag, [a, b, _, d]) = diamond();
        assert_eq!(count_paths(&dag, a, d).unwrap(), 2);
        assert_eq!(count_paths(&dag, b, d).unwrap(), 1);
        assert_eq!(count_paths(&dag, d, a).unwrap(), 0);
        assert_eq!(count_paths(&dag, a, a).unwrap(), 1);
    }

    #[test]
    fn count_unknown_node() {
        let (dag, [a, ..]) = diamond();
        let bogus = NodeId::from_index(42);
        assert!(matches!(
            count_paths(&dag, a, bogus),
            Err(DagError::UnknownNode(_))
        ));
        assert!(matches!(
            count_paths(&dag, bogus, a),
            Err(DagError::UnknownNode(_))
        ));
    }

    #[test]
    fn enumerate_diamond_paths() {
        let (dag, [a, b, c, d]) = diamond();
        let result = enumerate_paths(&dag, 100).unwrap();
        assert_eq!(result.paths.len(), 2);
        assert!(!result.truncated);
        assert!(result.paths.contains(&vec![a, b, d]));
        assert!(result.paths.contains(&vec![a, c, d]));
    }

    #[test]
    fn enumeration_respects_limit_and_reports_truncation() {
        let (dag, _) = diamond();
        let result = enumerate_paths(&dag, 1).unwrap();
        assert_eq!(result.paths.len(), 1);
        assert!(result.truncated, "a second path exists beyond the limit");
        // An exact limit is not truncation.
        let exact = enumerate_paths(&dag, 2).unwrap();
        assert_eq!(exact.paths.len(), 2);
        assert!(!exact.truncated);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // A recursive DFS would need ~100k stack frames here.
        let mut b = DagBuilder::new();
        let mut prev = b.unlabeled_node(Ticks::ONE);
        let first = prev;
        for _ in 0..100_000 {
            let v = b.unlabeled_node(Ticks::ONE);
            b.edge(prev, v).unwrap();
            prev = v;
        }
        let dag = b.freeze();
        let result = enumerate_paths(&dag, 10).unwrap();
        assert_eq!(result.paths.len(), 1);
        assert!(!result.truncated);
        assert_eq!(result.paths[0].len(), 100_001);
        assert_eq!(result.paths[0][0], first);
    }

    #[test]
    fn exponential_path_count_does_not_overflow() {
        // A ladder of k diamonds has 2^k paths; build k = 140 > 128 bits.
        let mut b = DagBuilder::new();
        let mut prev = b.unlabeled_node(Ticks::ONE);
        let first = prev;
        for _ in 0..140 {
            let l = b.unlabeled_node(Ticks::ONE);
            let r = b.unlabeled_node(Ticks::ONE);
            let join = b.unlabeled_node(Ticks::ONE);
            b.edge(prev, l).unwrap();
            b.edge(prev, r).unwrap();
            b.edge(l, join).unwrap();
            b.edge(r, join).unwrap();
            prev = join;
        }
        let dag = b.freeze();
        assert_eq!(count_paths(&dag, first, prev).unwrap(), u128::MAX);
    }

    #[test]
    fn isolated_node_is_its_own_path() {
        let mut b = DagBuilder::new();
        let a = b.unlabeled_node(Ticks::ONE);
        let dag = b.freeze();
        let result = enumerate_paths(&dag, 10).unwrap();
        assert_eq!(result.paths, vec![vec![a]]);
        assert!(!result.truncated);
    }
}
