//! CSR-refactor parity tests: the flat compressed-sparse-row `Dag` frozen
//! by `DagBuilder` must behave exactly like a naive nested-adjacency
//! reference model fed the same construction sequence — adjacency,
//! degrees, iteration order, topological validity, the reachability
//! matrix, and the critical-path length all agree.

use hetrta_dag::algo::{topological_order, CriticalPath, Reachability};
use hetrta_dag::{Dag, DagBuilder, NodeId, Ticks};
use proptest::prelude::*;

/// The pre-refactor representation: one `Vec` of successors/predecessors
/// per node, edges in insertion order.
#[derive(Debug, Default, Clone)]
struct RefGraph {
    wcets: Vec<u64>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
}

impl RefGraph {
    fn add_node(&mut self, wcet: u64) -> NodeId {
        let id = NodeId::from_index(self.wcets.len());
        self.wcets.push(wcet);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
    }

    fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (i, succs) in self.succs.iter().enumerate() {
            for &s in succs {
                out.push((NodeId::from_index(i), s));
            }
        }
        out
    }

    /// Reference reachability: DFS per source.
    fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.wcets.len()];
        let mut stack = vec![from];
        while let Some(v) = stack.pop() {
            for &s in &self.succs[v.index()] {
                if s == to {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Reference `len(G)` by longest-path DP over any topological order.
    fn critical_path_length(&self) -> u64 {
        let n = self.wcets.len();
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut order: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &s in &self.succs[v] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    order.push(s.index());
                }
            }
        }
        let mut dist = vec![0u64; n];
        for &v in &order {
            let best = self.preds[v]
                .iter()
                .map(|p| dist[p.index()])
                .max()
                .unwrap_or(0);
            dist[v] = best + self.wcets[v];
        }
        dist.into_iter().max().unwrap_or(0)
    }
}

/// Builds the CSR `Dag` and the reference model through the *same* random
/// construction sequence of forward edges (acyclic by construction).
fn arb_pair() -> impl Strategy<Value = (Dag, RefGraph)> {
    (
        1usize..24,
        proptest::collection::vec(0u8..100, 0..600),
        proptest::collection::vec(1u64..50, 1..24),
    )
        .prop_map(|(n, edge_coins, wcets)| {
            let mut b = DagBuilder::new();
            let mut reference = RefGraph::default();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| {
                    let w = wcets[i % wcets.len()];
                    reference.add_node(w);
                    b.unlabeled_node(Ticks::new(w))
                })
                .collect();
            let mut coin = edge_coins.into_iter().cycle();
            for i in 0..n {
                for j in (i + 1)..n {
                    if coin.next().unwrap_or(0) < 35 {
                        b.edge(ids[i], ids[j]).unwrap();
                        reference.add_edge(ids[i], ids[j]);
                    }
                }
            }
            (b.freeze(), reference)
        })
}

proptest! {
    #[test]
    fn adjacency_and_degrees_match_the_reference((dag, reference) in arb_pair()) {
        prop_assert_eq!(dag.node_count(), reference.wcets.len());
        prop_assert_eq!(dag.edge_count(), reference.edges().len());
        for v in dag.node_ids() {
            prop_assert_eq!(dag.successors(v), &reference.succs[v.index()][..]);
            prop_assert_eq!(dag.predecessors(v), &reference.preds[v.index()][..]);
            prop_assert_eq!(dag.out_degree(v), reference.succs[v.index()].len());
            prop_assert_eq!(dag.in_degree(v), reference.preds[v.index()].len());
            prop_assert_eq!(dag.wcet(v).get(), reference.wcets[v.index()]);
        }
        // The edge iterator yields the same edges in the same order.
        let csr_edges: Vec<_> = dag.edges().collect();
        prop_assert_eq!(csr_edges, reference.edges());
    }

    #[test]
    fn topological_order_is_valid_on_both((dag, reference) in arb_pair()) {
        let order = topological_order(&dag).unwrap();
        prop_assert_eq!(order.len(), reference.wcets.len());
        let mut pos = vec![0usize; dag.node_count()];
        for (p, &v) in order.iter().enumerate() {
            pos[v.index()] = p;
        }
        for (f, t) in reference.edges() {
            prop_assert!(pos[f.index()] < pos[t.index()]);
        }
    }

    #[test]
    fn reachability_matrix_matches_the_reference((dag, reference) in arb_pair()) {
        let r = Reachability::of(&dag).unwrap();
        for a in dag.node_ids() {
            for b in dag.node_ids() {
                if a == b { continue; }
                prop_assert_eq!(
                    r.is_ordered_before(a, b),
                    reference.reaches(a, b),
                    "{} -> {}", a, b
                );
            }
        }
    }

    #[test]
    fn critical_path_length_matches_the_reference((dag, reference) in arb_pair()) {
        let cp = CriticalPath::of(&dag);
        prop_assert_eq!(cp.length().get(), reference.critical_path_length());
    }
}
