//! Whole-model structural validation.

use crate::algo::{is_acyclic, transitive};
use crate::{Dag, DagError, NodeId};

/// A structural summary of a DAG, produced by [`validate_task_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureReport {
    /// Number of nodes `|V|`.
    pub nodes: usize,
    /// Number of edges `|E|`.
    pub edges: usize,
    /// The unique source node.
    pub source: NodeId,
    /// The unique sink node.
    pub sink: NodeId,
    /// Number of nodes with zero WCET (dummy terminals, `v_sync`, …).
    pub zero_wcet_nodes: usize,
}

/// Validates that `dag` satisfies the paper's task-model constraints
/// (Section 2) and returns a structural summary.
///
/// Checks, in order:
///
/// 1. non-empty;
/// 2. acyclic;
/// 3. exactly one source and one sink;
/// 4. no transitive edges.
///
/// Safe on the n=10⁵–10⁶ tier: the transitive-edge check is the
/// closure-free [`transitive::find_transitive_edge`] — `O(V + E)` on
/// layered/graded graphs, `O(V)` extra memory always — so validating a
/// generated DAG never reintroduces the reachability-closure cost the
/// generators avoid.
///
/// # Errors
///
/// The first violated constraint is reported as the corresponding
/// [`DagError`] variant.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks, validate_task_model};
///
/// let mut builder = DagBuilder::new();
/// let a = builder.unlabeled_node(Ticks::new(1));
/// let b = builder.unlabeled_node(Ticks::new(2));
/// builder.edge(a, b)?;
/// // `freeze()` skips validation; check the model explicitly.
/// let report = validate_task_model(&builder.freeze())?;
/// assert_eq!(report.nodes, 2);
/// assert_eq!(report.source, a);
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
pub fn validate_task_model(dag: &Dag) -> Result<StructureReport, DagError> {
    if dag.is_empty() {
        return Err(DagError::Empty);
    }
    if !is_acyclic(dag) {
        // Recompute for the witness; cheap relative to clarity.
        return Err(crate::algo::topological_order(dag).unwrap_err());
    }
    let sources = dag.sources();
    if sources.len() != 1 {
        return Err(DagError::MultipleSources(sources));
    }
    let sinks = dag.sinks();
    if sinks.len() != 1 {
        return Err(DagError::MultipleSinks(sinks));
    }
    if let Some((u, w)) = transitive::find_transitive_edge(dag)? {
        return Err(DagError::TransitiveEdge(u, w));
    }
    Ok(StructureReport {
        nodes: dag.node_count(),
        edges: dag.edge_count(),
        source: sources[0],
        sink: sinks[0],
        zero_wcet_nodes: dag.node_ids().filter(|&v| dag.wcet(v).is_zero()).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagBuilder, Ticks};

    #[test]
    fn valid_chain_reports_structure() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::new(1));
        let b = builder.unlabeled_node(Ticks::ZERO);
        let c = builder.unlabeled_node(Ticks::new(3));
        builder.edge(a, b).unwrap();
        builder.edge(b, c).unwrap();
        let dag = builder.freeze();
        let r = validate_task_model(&dag).unwrap();
        assert_eq!(
            r,
            StructureReport {
                nodes: 3,
                edges: 2,
                source: a,
                sink: c,
                zero_wcet_nodes: 1
            }
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            validate_task_model(&Dag::new()).unwrap_err(),
            DagError::Empty
        );
    }

    #[test]
    fn cycle_rejected_before_terminal_check() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, a).unwrap();
        let dag = builder.freeze();
        assert!(matches!(validate_task_model(&dag), Err(DagError::Cycle(_))));
    }

    #[test]
    fn multi_sink_rejected() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        let c = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(a, c).unwrap();
        let dag = builder.freeze();
        assert!(
            matches!(validate_task_model(&dag), Err(DagError::MultipleSinks(v)) if v == vec![b, c])
        );
    }

    #[test]
    fn transitive_edge_rejected() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        let c = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, c).unwrap();
        builder.edge(a, c).unwrap();
        let dag = builder.freeze();
        assert_eq!(
            validate_task_model(&dag).unwrap_err(),
            DagError::TransitiveEdge(a, c)
        );
    }
}
