//! Property-based tests for the DAG substrate.

use hetrta_dag::algo::{
    count_paths, is_acyclic, topological_order, transitive, CriticalPath, Reachability,
};
#[path = "support/ref_dag.rs"]
mod ref_dag;

use hetrta_dag::{BitSet, Dag, DagBuilder, NodeId, Rational, Ticks};
use proptest::prelude::*;
use ref_dag::RefDag;

/// Strategy: a random DAG over `n ∈ [1, 24]` nodes where each forward pair
/// `(i, j)`, `i < j`, is an edge with probability ~`density`. Forward-only
/// edges guarantee acyclicity by construction.
fn arb_dag() -> impl Strategy<Value = Dag> {
    (
        1usize..24,
        proptest::collection::vec(0u8..100, 0..600),
        proptest::collection::vec(1u64..50, 1..24),
    )
        .prop_map(|(n, edge_coins, wcets)| {
            let mut b = DagBuilder::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| b.unlabeled_node(Ticks::new(wcets[i % wcets.len()])))
                .collect();
            let mut coin = edge_coins.into_iter().cycle();
            for i in 0..n {
                for j in (i + 1)..n {
                    if coin.next().unwrap_or(0) < 30 {
                        b.edge(ids[i], ids[j]).unwrap();
                    }
                }
            }
            b.freeze()
        })
}

proptest! {
    #[test]
    fn forward_construction_is_acyclic(dag in arb_dag()) {
        prop_assert!(is_acyclic(&dag));
    }

    #[test]
    fn topological_order_respects_all_edges(dag in arb_dag()) {
        let order = topological_order(&dag).unwrap();
        prop_assert_eq!(order.len(), dag.node_count());
        let mut pos = vec![0usize; dag.node_count()];
        for (p, &v) in order.iter().enumerate() {
            pos[v.index()] = p;
        }
        for (f, t) in dag.edges() {
            prop_assert!(pos[f.index()] < pos[t.index()]);
        }
    }

    #[test]
    fn reachability_matches_dfs(dag in arb_dag()) {
        let r = Reachability::of(&dag).unwrap();
        for a in dag.node_ids() {
            for b in dag.node_ids() {
                if a == b { continue; }
                prop_assert_eq!(r.is_ordered_before(a, b), dag.reaches(a, b));
            }
        }
    }

    #[test]
    fn parallel_ancestor_descendant_partition(dag in arb_dag()) {
        // For every v: {v} ∪ Pred(v) ∪ Succ(v) ∪ Par(v) = V, pairwise disjoint.
        let r = Reachability::of(&dag).unwrap();
        for v in dag.node_ids() {
            let anc = r.ancestors(v);
            let desc = r.descendants(v);
            let par = r.parallel(v);
            prop_assert!(anc.is_disjoint(desc));
            prop_assert!(anc.is_disjoint(&par));
            prop_assert!(desc.is_disjoint(&par));
            prop_assert!(!par.contains(v));
            prop_assert_eq!(anc.len() + desc.len() + par.len() + 1, dag.node_count());
        }
    }

    #[test]
    fn critical_path_dominates_every_enumerated_path(dag in arb_dag()) {
        let cp = CriticalPath::of(&dag);
        let paths = hetrta_dag::algo::enumerate_paths(&dag, 200).unwrap().paths;
        for p in paths {
            let len: Ticks = p.iter().map(|&v| dag.wcet(v)).sum();
            prop_assert!(len <= cp.length());
        }
    }

    #[test]
    fn critical_path_length_bounded_by_volume(dag in arb_dag()) {
        let cp = CriticalPath::of(&dag);
        prop_assert!(cp.length() <= dag.volume());
        // and at least the largest single WCET
        let max_wcet = dag.node_ids().map(|v| dag.wcet(v)).max().unwrap();
        prop_assert!(cp.length() >= max_wcet);
    }

    #[test]
    fn head_tail_consistency(dag in arb_dag()) {
        let cp = CriticalPath::of(&dag);
        for v in dag.node_ids() {
            // head/tail include the node's own WCET
            prop_assert!(cp.head(v) >= dag.wcet(v));
            prop_assert!(cp.tail(v) >= dag.wcet(v));
            prop_assert!(cp.through(v, &dag) <= cp.length());
        }
        // at least one node attains len(G)
        prop_assert!(dag.node_ids().any(|v| cp.on_critical_path(v, &dag)));
    }

    #[test]
    fn transitive_reduction_preserves_reachability(dag in arb_dag()) {
        let reduced = transitive::transitive_reduction(&dag).unwrap();
        prop_assert!(transitive::is_transitively_reduced(&reduced).unwrap());
        let r1 = Reachability::of(&dag).unwrap();
        let r2 = Reachability::of(&reduced).unwrap();
        for a in dag.node_ids() {
            for b in dag.node_ids() {
                if a == b { continue; }
                prop_assert_eq!(
                    r1.is_ordered_before(a, b),
                    r2.is_ordered_before(a, b),
                    "reachability changed for {} -> {}", a, b
                );
            }
        }
    }

    #[test]
    fn closure_free_reduction_matches_bitset_closure_edge_for_edge(dag in arb_dag()) {
        // The closure-free structural path (levels + pruned mark-DFS) must
        // be indistinguishable from the all-pairs bitset-closure reference:
        // same witness edge, same surviving edges in the same CSR segment
        // order, bitwise.
        prop_assert_eq!(
            transitive::find_transitive_edge(&dag).unwrap(),
            transitive::find_transitive_edge_via_closure(&dag).unwrap()
        );
        let fast = transitive::transitive_reduction(&dag).unwrap();
        let slow = transitive::transitive_reduction_via_closure(&dag).unwrap();
        prop_assert_eq!(fast.node_count(), slow.node_count());
        prop_assert_eq!(fast.edge_count(), slow.edge_count());
        for v in fast.node_ids() {
            prop_assert_eq!(fast.successors(v), slow.successors(v));
            prop_assert_eq!(fast.predecessors(v), slow.predecessors(v));
        }
    }

    #[test]
    fn transitive_reduction_preserves_critical_path(dag in arb_dag()) {
        // Longest paths never use transitive shortcuts (WCETs are ≥ 1).
        let reduced = transitive::transitive_reduction(&dag).unwrap();
        prop_assert_eq!(CriticalPath::of(&reduced).length(), CriticalPath::of(&dag).length());
    }

    #[test]
    fn induced_subgraph_volume_matches_set(dag in arb_dag(), seed in 0u64..1000) {
        let mut set = BitSet::new(dag.node_count());
        for v in dag.node_ids() {
            if (v.index() as u64).wrapping_mul(2654435761).wrapping_add(seed) % 3 == 0 {
                set.insert(v);
            }
        }
        let (sub, mapping) = dag.induced_subgraph(&set);
        prop_assert_eq!(sub.node_count(), set.len());
        prop_assert_eq!(sub.volume(), dag.volume_of(&set));
        // every sub edge maps back to an original edge
        for (f, t) in sub.edges() {
            prop_assert!(dag.has_edge(mapping[f.index()], mapping[t.index()]));
        }
        prop_assert!(is_acyclic(&sub));
    }

    #[test]
    fn path_counts_are_monotone_under_edge_removal(dag in arb_dag()) {
        let sources = dag.sources();
        let sinks = dag.sinks();
        let (src, sink) = (sources[0], sinks[sinks.len() - 1]);
        let full = count_paths(&dag, src, sink).unwrap();
        if dag.edge_count() > 0 {
            let mut b = DagBuilder::new();
            for v in dag.node_ids() {
                b.unlabeled_node(dag.wcet(v));
            }
            b.edges(dag.edges().skip(1)).unwrap();
            let pruned = b.freeze();
            let fewer = count_paths(&pruned, src, sink).unwrap();
            prop_assert!(fewer <= full);
        }
    }
}

proptest! {
    #[test]
    fn rational_field_laws(an in -1000i128..1000, ad in 1i128..50, bn in -1000i128..1000, bd in 1i128..50, cn in -1000i128..1000, cd in 1i128..50) {
        let a = Rational::new(an, ad);
        let b = Rational::new(bn, bd);
        let c = Rational::new(cn, cd);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, Rational::ZERO);
        if !b.is_zero() {
            prop_assert_eq!(a / b * b, a);
        }
    }

    #[test]
    fn rational_order_is_total_and_compatible(an in -100i128..100, ad in 1i128..20, bn in -100i128..100, bd in 1i128..20) {
        let a = Rational::new(an, ad);
        let b = Rational::new(bn, bd);
        prop_assert_eq!(a < b, b > a);
        if a <= b {
            let d = b - a;
            prop_assert!(!d.is_negative());
            prop_assert!(a.to_f64() <= b.to_f64() + 1e-9);
        }
    }

    #[test]
    fn rational_floor_ceil_bracket(an in -10000i128..10000, ad in 1i128..100) {
        let a = Rational::new(an, ad);
        let f = Rational::from_integer(a.floor());
        let c = Rational::from_integer(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!((c - f) <= Rational::ONE);
        if a.is_integer() {
            prop_assert_eq!(a.floor(), a.ceil());
        }
    }
}

proptest! {
    #[test]
    fn bitset_roundtrip(indices in proptest::collection::btree_set(0usize..500, 0..60)) {
        let mut s = BitSet::new(500);
        for &i in &indices {
            prop_assert!(s.insert(NodeId::from_index(i)));
        }
        prop_assert_eq!(s.len(), indices.len());
        let got: Vec<usize> = s.iter().map(|n| n.index()).collect();
        let want: Vec<usize> = indices.iter().copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bitset_demorgan(xs in proptest::collection::btree_set(0usize..128, 0..40), ys in proptest::collection::btree_set(0usize..128, 0..40)) {
        let mut a = BitSet::new(128);
        let mut b = BitSet::new(128);
        a.extend(xs.iter().map(|&i| NodeId::from_index(i)));
        b.extend(ys.iter().map(|&i| NodeId::from_index(i)));
        // |A ∪ B| + |A ∩ B| = |A| + |B|
        let mut u = a.clone();
        u.union_with(&b);
        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert_eq!(u.len() + i.len(), a.len() + b.len());
        // A \ B ⊆ A and disjoint from B
        let mut d = a.clone();
        d.difference_with(&b);
        prop_assert!(d.is_subset(&a));
        prop_assert!(d.is_disjoint(&b));
    }
}

mod io_roundtrip {
    use hetrta_dag::io::{parse_task, render_task, TaskKind};
    use hetrta_dag::{Dag, DagBuilder, HeteroDagTask, NodeId, Ticks};
    use proptest::prelude::*;

    /// Random single-source/single-sink DAG without transitive edges: built
    /// as a random fork-join-ish layering, then validated.
    fn arb_task() -> impl Strategy<Value = HeteroDagTask> {
        (
            2usize..8,
            proptest::collection::vec(1u64..40, 2..8),
            0usize..100,
        )
            .prop_map(|(width, wcets, off_pick)| {
                let mut b = DagBuilder::new();
                let src = b.node("src", Ticks::new(wcets[0]));
                let sink = b.node("sink", Ticks::new(wcets[1 % wcets.len()]));
                let mut mids = Vec::new();
                for i in 0..width {
                    let v = b.node(format!("mid{i}"), Ticks::new(wcets[i % wcets.len()]));
                    b.edge(src, v).unwrap();
                    b.edge(v, sink).unwrap();
                    mids.push(v);
                }
                let dag = b.freeze();
                let off = mids[off_pick % mids.len()];
                let vol = dag.volume();
                HeteroDagTask::new(dag, off, vol, vol).unwrap()
            })
    }

    proptest! {
        #[test]
        fn render_parse_roundtrip(task in arb_task()) {
            let text = render_task(&task);
            let parsed = parse_task(&text).unwrap();
            let TaskKind::Heterogeneous(task2) = parsed.task else {
                return Err(TestCaseError::fail("offload lost in roundtrip"));
            };
            prop_assert_eq!(task.volume(), task2.volume());
            prop_assert_eq!(task.c_off(), task2.c_off());
            prop_assert_eq!(task.dag().node_count(), task2.dag().node_count());
            prop_assert_eq!(task.dag().edge_count(), task2.dag().edge_count());
            prop_assert_eq!(task.period(), task2.period());
            prop_assert_eq!(task.deadline(), task2.deadline());
            // edge structure preserved up to renaming: compare sorted WCET
            // pairs across edges
            let pairs = |d: &Dag| {
                let mut v: Vec<(u64, u64)> = d
                    .edges()
                    .map(|(a, b)| (d.wcet(a).get(), d.wcet(b).get()))
                    .collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(pairs(task.dag()), pairs(task2.dag()));
            let _ = NodeId::from_index(0);
        }
    }
}

// ------------------------------------------------------------------------
// Builder-first freeze parity: `DagBuilder::build`'s single-pass freeze
// (including the mutation-free dummy-terminal normalization) must equal
// the legacy path — incremental `add_edge` insertion plus dummy
// mutation on the editable `RefDag` reference — bitwise, adjacency order
// included.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_dummy_normalization_matches_legacy_mutation(
        uppers in 1usize..6,
        lowers in 1usize..6,
        edge_coins in proptest::collection::vec(0u8..100, 1..64),
        wcets in proptest::collection::vec(1u64..50, 1..12),
    ) {
        // A random bipartite graph: upper→lower edges only, so it is
        // acyclic and transitively reduced by construction, but usually
        // has multiple sources and sinks — the dummy-normalization case.
        let n = uppers + lowers;
        let mut coin = edge_coins.iter().copied().cycle();
        let mut edges = Vec::new();
        for u in 0..uppers {
            for l in 0..lowers {
                if coin.next().unwrap_or(0) < 40 {
                    edges.push((NodeId::from_index(u), NodeId::from_index(uppers + l)));
                }
            }
        }

        // Builder-first path.
        let mut b = DagBuilder::new();
        for i in 0..n {
            b.node(format!("v{i}"), Ticks::new(wcets[i % wcets.len()]));
        }
        b.edges(edges.iter().copied()).unwrap();
        b.add_dummy_terminals();
        let built = b.build().unwrap();

        // Legacy path: the raw graph by incremental insertion, then the
        // dummy terminals mutated on.
        let mut legacy = RefDag::new();
        for i in 0..n {
            legacy.add_labeled_node(format!("v{i}"), Ticks::new(wcets[i % wcets.len()]));
        }
        for &(f, t) in &edges {
            legacy.add_edge(f, t).unwrap();
        }
        let sources = legacy.sources();
        if sources.len() > 1 {
            let src = legacy.add_labeled_node("src", Ticks::ZERO);
            for s in sources {
                legacy.add_edge(src, s).unwrap();
            }
        }
        let sinks = legacy.sinks();
        if sinks.len() > 1 {
            let sink = legacy.add_labeled_node("sink", Ticks::ZERO);
            for s in sinks {
                legacy.add_edge(s, sink).unwrap();
            }
        }
        let legacy = legacy.freeze();

        prop_assert_eq!(built.node_count(), legacy.node_count());
        prop_assert_eq!(built.edge_count(), legacy.edge_count());
        for v in built.node_ids() {
            prop_assert_eq!(built.wcet(v), legacy.wcet(v));
            prop_assert_eq!(built.label(v), legacy.label(v));
            prop_assert_eq!(built.successors(v), legacy.successors(v));
            prop_assert_eq!(built.predecessors(v), legacy.predecessors(v));
        }
    }
}
