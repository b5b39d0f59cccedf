//! DAG storage in a compressed-sparse-row (CSR) layout.

use core::fmt;

use crate::{BitSet, DagError, NodeId, Ticks};

/// A directed acyclic graph of jobs, each with a worst-case execution time.
///
/// `Dag` is the `G = (V, E)` of the paper's task model: nodes represent
/// sequential jobs characterized by a WCET, edges represent precedence
/// constraints. The structure is **immutable after freeze**: graphs are
/// accumulated in a [`DagBuilder`](crate::DagBuilder) (or assembled in
/// bulk via [`Dag::from_parts`]) and frozen into this compressed-sparse-row
/// form exactly once, in `O(|V| + |E|)`. The *model* constraints
/// (acyclicity, single source/sink, no transitive edges) are enforced at
/// the boundaries by [`DagBuilder::build`](crate::DagBuilder::build) and
/// [`validate_task_model`](crate::validate_task_model). Only node
/// *attributes* (WCETs, labels) stay mutable — the offload sizing of the
/// generators rewrites them in place without touching the structure.
///
/// Node ids are dense indices in insertion order; nodes cannot be removed
/// (the model never needs it and stable ids keep cross-references between
/// the original DAG `G` and the transformed `G'` trivial).
///
/// # Storage layout
///
/// Adjacency is compressed-sparse-row: one flat successor array and one
/// flat predecessor array, each indexed by a per-node offset table, with
/// WCETs in a parallel slice. The analysis kernels in [`crate::algo`]
/// therefore traverse contiguous memory — [`Dag::successors`] and
/// [`Dag::predecessors`] are slices into one allocation, and cloning a
/// graph copies six flat vectors instead of `2·|V|` heap blocks. Because
/// the structure never changes after freeze, nothing ever shifts inside
/// the flat arrays. A graph is built only through a
/// [`DagBuilder`](crate::DagBuilder) or one of the bulk constructors
/// ([`Dag::from_parts`], [`Dag::from_csr_parts`]); there is no edge-level
/// mutator. Test fixtures that need structurally invalid graphs (cycles,
/// transitive edges) freeze them with
/// [`DagBuilder::freeze`](crate::DagBuilder::freeze), which skips model
/// validation.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks};
///
/// let mut b = DagBuilder::new();
/// let a = b.unlabeled_node(Ticks::new(2));
/// let c = b.unlabeled_node(Ticks::new(3));
/// b.edge(a, c)?;
/// let dag = b.build()?;
/// assert_eq!(dag.node_count(), 2);
/// assert_eq!(dag.volume(), Ticks::new(5));
/// assert!(dag.has_edge(a, c));
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
#[derive(Clone)]
pub struct Dag {
    wcets: Vec<Ticks>,
    labels: Vec<String>,
    /// Successor segment of node `i`: `succs[succ_off[i]..succ_off[i + 1]]`,
    /// in edge-insertion order.
    succ_off: Vec<u32>,
    succs: Vec<NodeId>,
    /// Predecessor segment of node `i`, symmetric to `succ_off`/`succs`.
    pred_off: Vec<u32>,
    preds: Vec<NodeId>,
}

impl Default for Dag {
    fn default() -> Self {
        Dag {
            wcets: Vec::new(),
            labels: Vec::new(),
            succ_off: vec![0],
            succs: Vec::new(),
            pred_off: vec![0],
            preds: Vec::new(),
        }
    }
}

impl Dag {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Dag::default()
    }

    /// Number of nodes `|V|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.wcets.len()
    }

    /// Number of edges `|E|`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succs.len()
    }

    /// `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wcets.is_empty()
    }

    /// `true` if `id` refers to a node of this graph.
    #[must_use]
    pub fn contains_node(&self, id: NodeId) -> bool {
        id.index() < self.wcets.len()
    }

    fn check_node(&self, id: NodeId) -> Result<(), DagError> {
        if self.contains_node(id) {
            Ok(())
        } else {
            Err(DagError::UnknownNode(id))
        }
    }

    /// WCET of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    #[must_use]
    pub fn wcet(&self, id: NodeId) -> Ticks {
        self.wcets[id.index()]
    }

    /// WCET of a node, `None` if the id is out of range.
    #[must_use]
    pub fn get_wcet(&self, id: NodeId) -> Option<Ticks> {
        self.wcets.get(id.index()).copied()
    }

    /// Replaces the WCET of a node.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownNode`] if `id` is out of range.
    pub fn set_wcet(&mut self, id: NodeId, wcet: Ticks) -> Result<(), DagError> {
        self.check_node(id)?;
        self.wcets[id.index()] = wcet;
        Ok(())
    }

    /// Label of a node (empty string if unlabeled).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    #[must_use]
    pub fn label(&self, id: NodeId) -> &str {
        &self.labels[id.index()]
    }

    /// Replaces the label of a node.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownNode`] if `id` is out of range.
    pub fn set_label(&mut self, id: NodeId, label: impl Into<String>) -> Result<(), DagError> {
        self.check_node(id)?;
        self.labels[id.index()] = label.into();
        Ok(())
    }

    /// `true` if the edge `(from, to)` exists.
    #[must_use]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.contains_node(from) && self.contains_node(to) && self.successors(from).contains(&to)
    }

    /// Direct successors of a node, in edge-insertion order — a slice into
    /// the flat CSR edge array.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    #[must_use]
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succs[self.succ_off[id.index()] as usize..self.succ_off[id.index() + 1] as usize]
    }

    /// Direct predecessors of a node, in edge-insertion order — a slice
    /// into the flat CSR edge array.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    #[must_use]
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        &self.preds[self.pred_off[id.index()] as usize..self.pred_off[id.index() + 1] as usize]
    }

    /// Out-degree of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    #[must_use]
    pub fn out_degree(&self, id: NodeId) -> usize {
        (self.succ_off[id.index() + 1] - self.succ_off[id.index()]) as usize
    }

    /// In-degree of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    #[must_use]
    pub fn in_degree(&self, id: NodeId) -> usize {
        (self.pred_off[id.index() + 1] - self.pred_off[id.index()]) as usize
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> NodeIter {
        NodeIter {
            next: 0,
            count: self.node_count(),
        }
    }

    /// Iterates over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            dag: self,
            from: 0,
            succ_pos: 0,
        }
    }

    /// All nodes without predecessors, in index order.
    #[must_use]
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.in_degree(v) == 0)
            .collect()
    }

    /// All nodes without successors, in index order.
    #[must_use]
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.out_degree(v) == 0)
            .collect()
    }

    /// The unique source, if there is exactly one.
    #[must_use]
    pub fn source(&self) -> Option<NodeId> {
        let mut it = self.node_ids().filter(|&v| self.in_degree(v) == 0);
        let first = it.next()?;
        if it.next().is_none() {
            Some(first)
        } else {
            None
        }
    }

    /// The unique sink, if there is exactly one.
    #[must_use]
    pub fn sink(&self) -> Option<NodeId> {
        let mut it = self.node_ids().filter(|&v| self.out_degree(v) == 0);
        let first = it.next()?;
        if it.next().is_none() {
            Some(first)
        } else {
            None
        }
    }

    /// `vol(G)`: the sum of all node WCETs (Section 2 of the paper).
    ///
    /// On a parallel architecture this is the WCET of the task when executed
    /// entirely sequentially.
    #[must_use]
    pub fn volume(&self) -> Ticks {
        self.wcets.iter().copied().sum()
    }

    /// Sum of the WCETs of the nodes in `set`.
    ///
    /// Indices in `set` beyond the node count are ignored.
    #[must_use]
    pub fn volume_of(&self, set: &BitSet) -> Ticks {
        set.iter().filter_map(|v| self.get_wcet(v)).sum()
    }

    /// `true` if `from` can reach `to` through directed edges
    /// (including `from == to`).
    #[must_use]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if !self.contains_node(from) || !self.contains_node(to) {
            return false;
        }
        if from == to {
            return true;
        }
        let mut visited = BitSet::new(self.node_count());
        let mut stack = vec![from];
        visited.insert(from);
        while let Some(v) = stack.pop() {
            for &s in self.successors(v) {
                if s == to {
                    return true;
                }
                if visited.insert(s) {
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Extracts the subgraph induced by `nodes`.
    ///
    /// Returns the new graph together with the mapping *new id → old id*
    /// (position `i` of the vector holds the original id of new node `i`).
    /// Edges of `self` with both endpoints in `nodes` are preserved. Labels
    /// and WCETs are copied.
    ///
    /// This is how the parallel sub-DAG `G_par` is materialized from the
    /// parallel node set `V_par`.
    #[must_use]
    pub fn induced_subgraph(&self, nodes: &BitSet) -> (Dag, Vec<NodeId>) {
        let mut wcets = Vec::with_capacity(nodes.len());
        let mut labels = Vec::with_capacity(nodes.len());
        let mut old_of_new: Vec<NodeId> = Vec::with_capacity(nodes.len());
        let mut new_of_old: Vec<Option<NodeId>> = vec![None; self.node_count()];
        for old in nodes.iter().filter(|&v| self.contains_node(v)) {
            new_of_old[old.index()] = Some(NodeId::from_index(old_of_new.len()));
            old_of_new.push(old);
            wcets.push(self.wcet(old));
            labels.push(self.label(old).to_owned());
        }
        let edges: Vec<(NodeId, NodeId)> = self
            .edges()
            .filter_map(
                |(from, to)| match (new_of_old[from.index()], new_of_old[to.index()]) {
                    (Some(nf), Some(nt)) => Some((nf, nt)),
                    _ => None,
                },
            )
            .collect();
        (Dag::from_parts(wcets, labels, &edges), old_of_new)
    }

    /// Builds a graph in one `O(|V| + |E|)` pass from parallel node arrays
    /// and an already-validated edge list (in-range endpoints, no
    /// self-loops, no duplicates — the caller guarantees it; violations
    /// are caught by `debug_assert` only).
    ///
    /// Successor and predecessor segments come out in edge-list order —
    /// each edge lands at the end of both of its endpoints' segments, as
    /// if the edges were inserted one by one. Bulk constructors (the
    /// builder's freeze, induced
    /// subgraphs, the generators) must not change adjacency iteration
    /// order, because downstream float reductions replay adjacency order
    /// and are pinned bitwise.
    ///
    /// This is the freeze primitive of the builder-first construction
    /// pipeline; most callers want [`DagBuilder`](crate::DagBuilder),
    /// which layers per-edge validation (and, via
    /// [`build`](crate::DagBuilder::build), model validation) on top.
    #[must_use]
    pub fn from_parts(wcets: Vec<Ticks>, labels: Vec<String>, edges: &[(NodeId, NodeId)]) -> Dag {
        let n = wcets.len();
        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        for &(from, to) in edges {
            debug_assert!(from.index() < n && to.index() < n && from != to);
            succ_off[from.index() + 1] += 1;
            pred_off[to.index() + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        let mut succs = vec![NodeId::from_index(0); edges.len()];
        let mut preds = vec![NodeId::from_index(0); edges.len()];
        let mut succ_cursor = succ_off.clone();
        let mut pred_cursor = pred_off.clone();
        for &(from, to) in edges {
            succs[succ_cursor[from.index()] as usize] = to;
            succ_cursor[from.index()] += 1;
            preds[pred_cursor[to.index()] as usize] = from;
            pred_cursor[to.index()] += 1;
        }
        Dag {
            wcets,
            labels,
            succ_off,
            succs,
            pred_off,
            preds,
        }
    }

    /// Assembles a graph directly from its six CSR arrays, in `O(1)`.
    ///
    /// For bulk constructors that already know both adjacency views —
    /// e.g. the transitive reduction (which filters each successor and
    /// predecessor segment of an existing graph) and the Algorithm-1
    /// rewiring (which derives the transformed segments from the original
    /// ones). Unlike [`Dag::from_parts`], the per-node segment *orders*
    /// are taken verbatim, so a caller can preserve the exact adjacency
    /// order of a source graph even where a flat edge list could not
    /// express it.
    ///
    /// The caller guarantees consistency: monotonic offset tables of
    /// length `|V| + 1` ending at the edge count, in-range node ids, and
    /// successor/predecessor views describing the same edge set.
    /// Violations are caught by `debug_assert` only.
    #[must_use]
    pub fn from_csr_parts(
        wcets: Vec<Ticks>,
        labels: Vec<String>,
        succ_off: Vec<u32>,
        succs: Vec<NodeId>,
        pred_off: Vec<u32>,
        preds: Vec<NodeId>,
    ) -> Dag {
        let n = wcets.len();
        debug_assert_eq!(labels.len(), n);
        debug_assert_eq!(succ_off.len(), n + 1);
        debug_assert_eq!(pred_off.len(), n + 1);
        debug_assert_eq!(*succ_off.last().unwrap_or(&0) as usize, succs.len());
        debug_assert_eq!(*pred_off.last().unwrap_or(&0) as usize, preds.len());
        debug_assert_eq!(succs.len(), preds.len());
        debug_assert!(succ_off.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(pred_off.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(succs.iter().chain(&preds).all(|v| v.index() < n));
        Dag {
            wcets,
            labels,
            succ_off,
            succs,
            pred_off,
            preds,
        }
    }
}

impl fmt::Debug for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Dag {{ nodes: {}, edges: {} }}",
            self.node_count(),
            self.edge_count()
        )?;
        for v in self.node_ids() {
            let label = if self.label(v).is_empty() {
                String::new()
            } else {
                format!(" ({})", self.label(v))
            };
            writeln!(
                f,
                "  {v}{label} C={} -> {:?}",
                self.wcet(v),
                self.successors(v)
            )?;
        }
        Ok(())
    }
}

/// Iterator over node ids, produced by [`Dag::node_ids`].
#[derive(Debug, Clone)]
pub struct NodeIter {
    next: usize,
    count: usize,
}

impl Iterator for NodeIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.count {
            let id = NodeId::from_index(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.count - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for NodeIter {}

/// Iterator over edges, produced by [`Dag::edges`].
#[derive(Debug)]
pub struct EdgeIter<'a> {
    dag: &'a Dag,
    from: usize,
    succ_pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        while self.from < self.dag.node_count() {
            let succs = self.dag.successors(NodeId::from_index(self.from));
            if self.succ_pos < succs.len() {
                let edge = (NodeId::from_index(self.from), succs[self.succ_pos]);
                self.succ_pos += 1;
                return Some(edge);
            }
            self.from += 1;
            self.succ_pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    fn diamond() -> (Dag, [NodeId; 4]) {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(1));
        let bn = b.node("b", Ticks::new(2));
        let c = b.node("c", Ticks::new(3));
        let d = b.node("d", Ticks::new(4));
        b.edges([(a, bn), (a, c), (bn, d), (c, d)]).unwrap();
        (b.freeze(), [a, bn, c, d])
    }

    #[test]
    fn node_and_edge_counts() {
        let (dag, _) = diamond();
        assert_eq!(dag.node_count(), 4);
        assert_eq!(dag.edge_count(), 4);
        assert!(!dag.is_empty());
        assert!(Dag::new().is_empty());
    }

    #[test]
    fn adjacency() {
        let (dag, [a, b, c, d]) = diamond();
        assert_eq!(dag.successors(a), &[b, c]);
        assert_eq!(dag.predecessors(d), &[b, c]);
        assert_eq!(dag.out_degree(a), 2);
        assert_eq!(dag.in_degree(a), 0);
        assert!(dag.has_edge(a, b));
        assert!(!dag.has_edge(b, a));
    }

    #[test]
    fn unknown_node_rejected() {
        let (mut dag, _) = diamond();
        let bogus = NodeId::from_index(99);
        assert_eq!(
            dag.set_wcet(bogus, Ticks::ZERO),
            Err(DagError::UnknownNode(bogus))
        );
        assert_eq!(dag.set_label(bogus, "x"), Err(DagError::UnknownNode(bogus)));
    }

    #[test]
    fn sources_and_sinks() {
        let (dag, [a, _, _, d]) = diamond();
        assert_eq!(dag.sources(), vec![a]);
        assert_eq!(dag.sinks(), vec![d]);
        assert_eq!(dag.source(), Some(a));
        assert_eq!(dag.sink(), Some(d));

        let mut b = DagBuilder::new();
        let x = b.unlabeled_node(Ticks::ONE);
        let y = b.unlabeled_node(Ticks::ONE);
        let z = b.unlabeled_node(Ticks::ONE);
        b.edges([(x, z), (y, z)]).unwrap();
        let two_sources = b.freeze();
        assert_eq!(two_sources.source(), None);
        assert_eq!(two_sources.sources().len(), 2);
    }
    #[test]
    fn volume_sums_wcets() {
        let (dag, [_, b, c, _]) = diamond();
        assert_eq!(dag.volume(), Ticks::new(10));
        let mut set = BitSet::new(4);
        set.insert(b);
        set.insert(c);
        assert_eq!(dag.volume_of(&set), Ticks::new(5));
    }

    #[test]
    fn reaches_follows_paths() {
        let (dag, [a, b, c, d]) = diamond();
        assert!(dag.reaches(a, d));
        assert!(dag.reaches(a, a));
        assert!(!dag.reaches(b, c));
        assert!(!dag.reaches(d, a));
    }

    #[test]
    fn edge_iterator_yields_all_edges() {
        let (dag, [a, b, c, d]) = diamond();
        let edges: Vec<_> = dag.edges().collect();
        assert_eq!(edges, vec![(a, b), (a, c), (b, d), (c, d)]);
    }

    #[test]
    fn node_iterator_is_exact_size() {
        let (dag, _) = diamond();
        let it = dag.node_ids();
        assert_eq!(it.len(), 4);
        assert_eq!(it.collect::<Vec<_>>().len(), 4);
    }

    #[test]
    fn induced_subgraph_preserves_internal_edges() {
        let (dag, [_, b, c, d]) = diamond();
        let mut set = BitSet::new(4);
        set.insert(b);
        set.insert(c);
        set.insert(d);
        let (sub, mapping) = dag.induced_subgraph(&set);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // b->d, c->d
        assert_eq!(mapping, vec![b, c, d]);
        assert_eq!(sub.volume(), Ticks::new(9));
        assert_eq!(sub.label(NodeId::from_index(0)), "b");
    }

    #[test]
    fn induced_subgraph_of_empty_set_is_empty() {
        let (dag, _) = diamond();
        let (sub, mapping) = dag.induced_subgraph(&BitSet::new(4));
        assert!(sub.is_empty());
        assert!(mapping.is_empty());
        assert_eq!(sub.volume(), Ticks::ZERO);
    }

    #[test]
    fn labels_and_wcets_are_mutable() {
        let (mut dag, [a, ..]) = diamond();
        dag.set_wcet(a, Ticks::new(42)).unwrap();
        dag.set_label(a, "start").unwrap();
        assert_eq!(dag.wcet(a), Ticks::new(42));
        assert_eq!(dag.label(a), "start");
        assert_eq!(dag.get_wcet(NodeId::from_index(77)), None);
    }

    #[test]
    fn debug_output_mentions_nodes() {
        let (dag, _) = diamond();
        let s = format!("{dag:?}");
        assert!(s.contains("nodes: 4"));
        assert!(s.contains("(a)"));
    }
}
