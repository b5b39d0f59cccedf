//! Error types for DAG construction and validation.

use core::fmt;

use crate::NodeId;

/// Errors produced when constructing or validating a DAG task model.
///
/// The paper's task model (Section 2) imposes structural constraints; each
/// violation maps to one variant. All fallible operations in this crate
/// return `Result<_, DagError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagError {
    /// A node id referenced a node that does not exist in the graph.
    UnknownNode(NodeId),
    /// An edge `(v, v)` was requested; the model has no self-loops.
    SelfLoop(NodeId),
    /// The edge already exists; `E ⊆ V × V` is a set, not a multiset.
    DuplicateEdge(NodeId, NodeId),
    /// The graph contains a directed cycle (witness node on the cycle).
    Cycle(NodeId),
    /// The graph has no nodes at all.
    Empty,
    /// The graph has more than one source node (nodes without predecessors).
    MultipleSources(Vec<NodeId>),
    /// The graph has more than one sink node (nodes without successors).
    MultipleSinks(Vec<NodeId>),
    /// A transitive edge `(u, w)` exists although a longer path `u → … → w`
    /// also exists; the model forbids transitive edges.
    TransitiveEdge(NodeId, NodeId),
    /// The designated offloaded node is invalid in context (e.g. it is the
    /// unique source or sink of the task and the degenerate structure was
    /// not explicitly allowed).
    InvalidOffloadedNode(NodeId),
    /// The task's constrained-deadline requirement `D ≤ T` is violated.
    DeadlineExceedsPeriod {
        /// Relative deadline `D`.
        deadline: u64,
        /// Minimum inter-arrival time `T`.
        period: u64,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownNode(v) => write!(f, "unknown node {v}"),
            DagError::SelfLoop(v) => write!(f, "self-loop on node {v}"),
            DagError::DuplicateEdge(a, b) => write!(f, "duplicate edge ({a}, {b})"),
            DagError::Cycle(v) => write!(f, "graph contains a cycle through {v}"),
            DagError::Empty => write!(f, "graph has no nodes"),
            DagError::MultipleSources(vs) => {
                write!(f, "graph has {} sources (expected exactly one)", vs.len())
            }
            DagError::MultipleSinks(vs) => {
                write!(f, "graph has {} sinks (expected exactly one)", vs.len())
            }
            DagError::TransitiveEdge(a, b) => {
                write!(
                    f,
                    "transitive edge ({a}, {b}) is forbidden by the task model"
                )
            }
            DagError::InvalidOffloadedNode(v) => {
                write!(f, "node {v} cannot be the offloaded node in this context")
            }
            DagError::DeadlineExceedsPeriod { deadline, period } => {
                write!(
                    f,
                    "constrained deadline violated: D = {deadline} > T = {period}"
                )
            }
        }
    }
}

impl std::error::Error for DagError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let cases: Vec<(DagError, &str)> = vec![
            (
                DagError::UnknownNode(NodeId::from_index(3)),
                "unknown node n3",
            ),
            (
                DagError::SelfLoop(NodeId::from_index(1)),
                "self-loop on node n1",
            ),
            (
                DagError::DuplicateEdge(NodeId::from_index(0), NodeId::from_index(1)),
                "duplicate edge (n0, n1)",
            ),
            (DagError::Empty, "graph has no nodes"),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn error_trait_object_compatible() {
        fn takes_err(_: &(dyn std::error::Error + Send + Sync)) {}
        takes_err(&DagError::Empty);
    }

    #[test]
    fn deadline_message_mentions_both_values() {
        let e = DagError::DeadlineExceedsPeriod {
            deadline: 10,
            period: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("10") && msg.contains('5'));
    }
}
