//! Parity of the critical-path-first list schedule with a reference model
//! of it.
//!
//! The reference keeps the ready set as a `Vec` sorted by
//! `(tail descending, id ascending)` — `binary_search` + `insert`, then
//! `remove(0)` — and releases zero-WCET chains by recursion: the plain
//! formulation of the schedule. The heap-ordered implementation must
//! reproduce its makespan and every start time on random graphs with
//! zero-WCET nodes and an offloaded node, for m = 1..8.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hetrta_dag::algo::CriticalPath;
use hetrta_dag::{Dag, DagBuilder, NodeId, Ticks};
use hetrta_exact::bounds::{root_bound, root_bound_with_path};
use hetrta_exact::{list_schedule_cp_first, list_schedule_with_path};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random DAG on up to 64 nodes (edges only forward in index order, so
/// acyclic), about a third of them zero-WCET, with an optional offloaded
/// node of positive WCET.
fn random_graph(seed: u64) -> (Dag, Option<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..65usize);
    let density = rng.gen_range(1..6u32);
    let mut b = DagBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| {
            let wcet = if rng.gen_range(0..3u32) == 0 {
                0
            } else {
                rng.gen_range(1..10u64)
            };
            b.unlabeled_node(Ticks::new(wcet))
        })
        .collect();
    for j in 1..n {
        for i in 0..j {
            if rng.gen_range(0..20u32) < density {
                b.edge(nodes[i], nodes[j]).expect("forward edge");
            }
        }
    }
    let dag = b.freeze();
    let candidates: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&v| !dag.wcet(v).is_zero())
        .collect();
    let offloaded = (!candidates.is_empty() && rng.gen_range(0..4u32) > 0)
        .then(|| candidates[rng.gen_range(0..candidates.len())]);
    (dag, offloaded)
}

/// The reference list schedule: `(makespan, start_times)`.
fn reference(dag: &Dag, offloaded: Option<NodeId>, m: u64) -> (Ticks, Vec<Ticks>) {
    struct Run<'a> {
        dag: &'a Dag,
        offloaded: Option<NodeId>,
        tails: Vec<u64>,
        remaining: Vec<usize>,
        starts: Vec<Ticks>,
        ready: Vec<NodeId>,
        running: BinaryHeap<Reverse<(u64, u32)>>,
    }
    impl Run<'_> {
        fn release(&mut self, v: NodeId, now: u64) {
            let w = self.dag.wcet(v).get();
            if w == 0 {
                self.starts[v.index()] = Ticks::new(now);
                for &s in self.dag.successors(v) {
                    self.remaining[s.index()] -= 1;
                    if self.remaining[s.index()] == 0 {
                        self.release(s, now);
                    }
                }
            } else if self.offloaded == Some(v) {
                self.starts[v.index()] = Ticks::new(now);
                self.running.push(Reverse((now + w, v.index() as u32)));
            } else {
                let key = |x: &NodeId| (Reverse(self.tails[x.index()]), x.index());
                let pos = self
                    .ready
                    .binary_search_by(|x| key(x).cmp(&key(&v)))
                    .unwrap_or_else(|p| p);
                self.ready.insert(pos, v);
            }
        }
    }

    let cp = CriticalPath::of(dag);
    let mut run = Run {
        dag,
        offloaded,
        tails: dag.node_ids().map(|v| cp.tail(v).get()).collect(),
        remaining: dag.node_ids().map(|v| dag.in_degree(v)).collect(),
        starts: vec![Ticks::ZERO; dag.node_count()],
        ready: Vec::new(),
        running: BinaryHeap::new(),
    };
    let mut free: BinaryHeap<Reverse<u64>> = (0..m).map(|_| Reverse(0)).collect();
    let mut now = 0u64;
    for v in dag.sources() {
        run.release(v, now);
    }
    loop {
        while !run.ready.is_empty() {
            let Some(&Reverse(core_free)) = free.peek() else {
                break;
            };
            if core_free > now {
                break;
            }
            free.pop();
            let v = run.ready.remove(0);
            run.starts[v.index()] = Ticks::new(now);
            let finish = now + dag.wcet(v).get();
            free.push(Reverse(finish));
            run.running.push(Reverse((finish, v.index() as u32)));
        }
        let Some(&Reverse((fin, _))) = run.running.peek() else {
            break;
        };
        now = fin;
        while let Some(&Reverse((f, vi))) = run.running.peek() {
            if f != now {
                break;
            }
            run.running.pop();
            for &s in dag.successors(NodeId::from_index(vi as usize)) {
                run.remaining[s.index()] -= 1;
                if run.remaining[s.index()] == 0 {
                    run.release(s, now);
                }
            }
        }
    }
    let makespan = dag
        .node_ids()
        .map(|v| run.starts[v.index()] + dag.wcet(v))
        .max()
        .unwrap_or(Ticks::ZERO);
    (makespan, run.starts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn heap_list_schedule_matches_the_sorted_vector_reference(
        seed in 0u64..1_000_000,
        m in 1u64..9,
    ) {
        let (dag, offloaded) = random_graph(seed);
        let expected = reference(&dag, offloaded, m);
        let got = list_schedule_cp_first(&dag, offloaded, m).unwrap();
        prop_assert_eq!(&got, &expected);
        let cp = CriticalPath::of(&dag);
        prop_assert_eq!(list_schedule_with_path(&dag, &cp, offloaded, m).unwrap(), expected);
        prop_assert_eq!(
            root_bound_with_path(&dag, &cp, offloaded, m),
            root_bound(&dag, offloaded, m)
        );
    }
}

#[test]
fn long_zero_wcet_chain_list_schedules_on_a_small_stack() {
    // 10⁵ zero-WCET nodes in a chain between two unit nodes: the release
    // cascade is one frame stack, not 10⁵ nested calls.
    const CHAIN: usize = 100_000;
    let mut b = DagBuilder::new();
    let first = b.unlabeled_node(Ticks::ONE);
    let mut prev = first;
    for _ in 0..CHAIN {
        let v = b.unlabeled_node(Ticks::ZERO);
        b.edge(prev, v).unwrap();
        prev = v;
    }
    let last = b.unlabeled_node(Ticks::ONE);
    b.edge(prev, last).unwrap();
    let dag = b.freeze();
    let (makespan, starts) = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || list_schedule_cp_first(&dag, Some(last), 2).unwrap())
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(makespan, Ticks::new(2));
    assert!(starts[1..=CHAIN].iter().all(|&s| s == Ticks::ONE));
}
