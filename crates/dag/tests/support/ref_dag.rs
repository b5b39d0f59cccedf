//! `RefDag`: the storage of the parity references.
//!
//! The parity suites (dummy normalization here, the generators in
//! `hetrta-gen`, the Algorithm-1 rewiring in `hetrta-core`) replay the
//! original edge-by-edge algorithms and compare their output with the
//! bulk constructors bitwise, adjacency order included. Those algorithms
//! need a graph they can edit, and `Dag` is frozen, so they run on this
//! model instead: one successor and one predecessor list per node.
//! Adding an edge pushes it onto the end of both of its endpoints' lists;
//! removing one is an order-preserving `retain` on both. That is the
//! ordering contract of the `Dag`'s CSR segments, so
//! [`RefDag::freeze`] yields the graph the same edit sequence describes.
//!
//! Per-node lists, not one flat edge list: a clone of a frozen `Dag`
//! ([`RefDag::of`]) must keep its predecessor segments verbatim, and a
//! flat list frozen by `Dag::from_parts` only reproduces predecessor
//! orders that follow the successor-major edge order.
//!
//! Shared by path (`#[path = ...] mod ref_dag;`) with the other crates'
//! parity tests, each of which uses a different subset of it.
#![allow(dead_code)]

use hetrta_dag::{Dag, DagError, NodeId, Ticks};

/// An editable graph with insertion-ordered adjacency lists.
#[derive(Debug, Clone, Default)]
pub struct RefDag {
    wcets: Vec<Ticks>,
    labels: Vec<String>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
}

impl RefDag {
    pub fn new() -> Self {
        RefDag::default()
    }

    /// An editable copy of a frozen graph, adjacency order included.
    pub fn of(dag: &Dag) -> Self {
        RefDag {
            wcets: dag.node_ids().map(|v| dag.wcet(v)).collect(),
            labels: dag.node_ids().map(|v| dag.label(v).to_owned()).collect(),
            succs: dag.node_ids().map(|v| dag.successors(v).to_vec()).collect(),
            preds: dag
                .node_ids()
                .map(|v| dag.predecessors(v).to_vec())
                .collect(),
        }
    }

    pub fn add_labeled_node(&mut self, label: impl Into<String>, wcet: Ticks) -> NodeId {
        let id = NodeId::from_index(self.wcets.len());
        self.wcets.push(wcet);
        self.labels.push(label.into());
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Appends `(from, to)` to the end of both endpoints' lists, with the
    /// per-edge checks of `DagBuilder::edge`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), DagError> {
        for v in [from, to] {
            if v.index() >= self.node_count() {
                return Err(DagError::UnknownNode(v));
            }
        }
        if from == to {
            return Err(DagError::SelfLoop(from));
        }
        if self.has_edge(from, to) {
            return Err(DagError::DuplicateEdge(from, to));
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        Ok(())
    }

    /// Removes `(from, to)` keeping every other edge's relative order;
    /// `None` if the edge does not exist.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Option<()> {
        if !self.has_edge(from, to) {
            return None;
        }
        self.succs[from.index()].retain(|&v| v != to);
        self.preds[to.index()].retain(|&v| v != from);
        Some(())
    }

    pub fn node_count(&self) -> usize {
        self.wcets.len()
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::from_index)
    }

    pub fn wcet(&self, v: NodeId) -> Ticks {
        self.wcets[v.index()]
    }

    pub fn label(&self, v: NodeId) -> &str {
        &self.labels[v.index()]
    }

    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succs
            .get(from.index())
            .is_some_and(|succs| succs.contains(&to))
    }

    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        &self.succs[v.index()]
    }

    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        &self.preds[v.index()]
    }

    /// Every edge, grouped by source in successor-list order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |v| self.successors(v).iter().map(move |&s| (v, s)))
    }

    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.preds[v.index()].is_empty())
            .collect()
    }

    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.succs[v.index()].is_empty())
            .collect()
    }

    /// The frozen graph, with every adjacency list as its CSR segment.
    pub fn freeze(&self) -> Dag {
        fn flatten(lists: &[Vec<NodeId>]) -> (Vec<u32>, Vec<NodeId>) {
            let mut off = Vec::with_capacity(lists.len() + 1);
            off.push(0);
            let mut flat = Vec::new();
            for list in lists {
                flat.extend_from_slice(list);
                off.push(u32::try_from(flat.len()).expect("edge count fits u32"));
            }
            (off, flat)
        }
        let (succ_off, succs) = flatten(&self.succs);
        let (pred_off, preds) = flatten(&self.preds);
        Dag::from_csr_parts(
            self.wcets.clone(),
            self.labels.clone(),
            succ_off,
            succs,
            pred_off,
            preds,
        )
    }
}
