//! Algorithm-1 rewiring parity: the mutation-free CSR assembly in
//! `hetrta_core::transform` must produce a transformed graph **bitwise
//! identical** to the legacy path (clone the task graph, then
//! `remove_edge`/`add_edge` per rerouted edge) — same `v_sync` id, same
//! adjacency order in every successor and predecessor segment, same
//! derived quantities. The legacy reference below is a verbatim copy of
//! the pre-refactor implementation; only its storage changed, to the
//! editable `RefDag` shared with the other parity suites.

#[path = "../../dag/tests/support/ref_dag.rs"]
mod ref_dag;

use hetrta_core::transform;
use hetrta_dag::algo::Reachability;
use hetrta_dag::{BitSet, Dag, HeteroDagTask, NodeId, Ticks};
use hetrta_gen::offload::{make_hetero_task, CoffSizing, OffloadSelection};
use hetrta_gen::{generate_nfj, NfjParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ref_dag::RefDag;

/// The pre-refactor Algorithm 1: mutate a clone of the task graph.
/// Returns `(G', v_sync, V_par)`.
fn legacy_transform(task: &HeteroDagTask) -> (Dag, NodeId, BitSet) {
    let reach = Reachability::of(task.dag()).expect("acyclic");
    let dag = task.dag();
    let v_off = task.offloaded();
    let n = dag.node_count();

    let pred = reach.ancestors(v_off).clone();
    let succ = reach.descendants(v_off).clone();

    let mut g2 = RefDag::of(dag);
    let sync = g2.add_labeled_node("v_sync", Ticks::ZERO);

    let direct_pred: Vec<NodeId> = g2.predecessors(v_off).to_vec();
    for &vi in &direct_pred {
        g2.remove_edge(vi, v_off).expect("direct pred edge");
        if !g2.has_edge(vi, sync) {
            g2.add_edge(vi, sync).expect("fresh sync edge");
        }
        for vj in g2.successors(vi).to_vec() {
            if vj == sync {
                continue;
            }
            g2.remove_edge(vi, vj).expect("snapshot edge");
            if !g2.has_edge(sync, vj) {
                g2.add_edge(sync, vj).expect("rerouted edge");
            }
        }
    }

    g2.add_edge(sync, v_off).expect("barrier edge");

    for vi in pred.iter().filter(|v| !direct_pred.contains(v)) {
        for vj in g2.successors(vi).to_vec() {
            if vj == sync || pred.contains(vj) {
                continue;
            }
            assert!(!succ.contains(vj), "transitive edge slipped through");
            g2.remove_edge(vi, vj).expect("snapshot edge");
            if !g2.has_edge(sync, vj) {
                g2.add_edge(sync, vj).expect("rerouted edge");
            }
        }
    }

    let mut par_nodes = BitSet::full(n);
    par_nodes.difference_with(&pred);
    par_nodes.difference_with(&succ);
    par_nodes.remove(v_off);

    (g2.freeze(), sync, par_nodes)
}

fn assert_same_dag(new: &Dag, legacy: &Dag) {
    assert_eq!(new.node_count(), legacy.node_count(), "node count");
    assert_eq!(new.edge_count(), legacy.edge_count(), "edge count");
    for v in new.node_ids() {
        assert_eq!(new.wcet(v), legacy.wcet(v), "wcet of {v}");
        assert_eq!(new.label(v), legacy.label(v), "label of {v}");
        assert_eq!(
            new.successors(v),
            legacy.successors(v),
            "successor segment of {v}"
        );
        assert_eq!(
            new.predecessors(v),
            legacy.predecessors(v),
            "predecessor segment of {v}"
        );
    }
}

fn random_task(seed: u64, fraction: f64) -> HeteroDagTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = generate_nfj(&NfjParams::small_tasks(), &mut rng).expect("generation succeeds");
    if dag.node_count() < 3 {
        return random_task(seed.wrapping_add(0x9e37_79b9), fraction);
    }
    make_hetero_task(
        dag,
        OffloadSelection::AnyInterior,
        CoffSizing::VolumeFraction(fraction),
        &mut rng,
    )
    .expect("offload assignment succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn transform_matches_legacy_mutation_path(seed in 0u64..100_000, pct in 1u32..70) {
        let task = random_task(seed, f64::from(pct) / 100.0);
        let t = transform(&task).expect("transformable");
        let (legacy_g2, legacy_sync, legacy_par) = legacy_transform(&task);

        prop_assert_eq!(t.sync_node(), legacy_sync);
        assert_same_dag(t.transformed(), &legacy_g2);
        prop_assert_eq!(t.par_nodes().iter().collect::<Vec<_>>(),
                        legacy_par.iter().collect::<Vec<_>>());
        // Every offloaded node in G' hangs directly off the barrier.
        prop_assert!(t.transformed().has_edge(legacy_sync, task.offloaded()));
    }
}

/// Offloading *every* interior node of a fixed graph covers the edit-set
/// corners the uniform sampler rarely hits (off at a fork, at a join,
/// with shared parallel successors).
#[test]
fn transform_matches_legacy_for_every_offload_choice() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = generate_nfj(&NfjParams::small_tasks(), &mut rng).expect("generates");
        let n = dag.node_count();
        for v in 0..n {
            let v = NodeId::from_index(v);
            if Some(v) == dag.source() || Some(v) == dag.sink() {
                continue;
            }
            let task = HeteroDagTask::new(dag.clone(), v, Ticks::new(10_000), Ticks::new(10_000))
                .expect("valid task");
            let t = transform(&task).expect("transformable");
            let (legacy_g2, legacy_sync, _) = legacy_transform(&task);
            assert_eq!(t.sync_node(), legacy_sync);
            assert_same_dag(t.transformed(), &legacy_g2);
        }
    }
}
