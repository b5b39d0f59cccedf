//! Parity of the event loop with a reference model of it.
//!
//! The reference keeps the host ready queue as a `Vec<NodeId>` in release
//! order, removes the chosen node with `Vec::remove`, releases zero-WCET
//! chains by recursion and logs one interval per node — the plain
//! formulation of the engine's semantics. Its four policies are written
//! out against the vector (head, tail, longest tail, seeded uniform index)
//! rather than through the `Policy` trait, so the comparison also covers
//! the policies' port to the rank-based ready queue. The engine must
//! reproduce the reference's makespan and, through `simulate`, its whole
//! interval log on random graphs with zero-WCET nodes and an offloaded
//! node, for m = 1..8 and every policy.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hetrta_dag::algo::CriticalPath;
use hetrta_dag::{Dag, DagBuilder, NodeId, Ticks};
use hetrta_sim::policy::{BreadthFirst, CriticalPathFirst, DepthFirst, Policy, RandomTieBreak};
use hetrta_sim::{simulate, simulate_makespan, Interval, Platform, Resource, SimWorkspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random DAG on up to 48 nodes (edges only forward in index order, so
/// acyclic), about a third of them zero-WCET, with an optional offloaded
/// node of positive WCET.
fn random_graph(seed: u64) -> (Dag, Option<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..49usize);
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

#[derive(Debug, Clone, Copy)]
enum RefPolicy {
    BreadthFirst,
    DepthFirst,
    CriticalPathFirst,
    Random(u64),
}

impl RefPolicy {
    fn engine(self) -> Box<dyn Policy> {
        match self {
            RefPolicy::BreadthFirst => Box::new(BreadthFirst::new()),
            RefPolicy::DepthFirst => Box::new(DepthFirst::new()),
            RefPolicy::CriticalPathFirst => Box::new(CriticalPathFirst::new()),
            RefPolicy::Random(seed) => Box::new(RandomTieBreak::new(seed)),
        }
    }
}

/// Running nodes as `(finish, node, (kind, unit))` with kind 0 for a host
/// core and 1 for a device: simultaneous completions pop host first.
type Running = BinaryHeap<Reverse<(u64, u32, (u8, usize))>>;

/// The reference event loop: `(makespan, intervals sorted by (start, node))`.
fn reference(
    dag: &Dag,
    offloaded: Option<NodeId>,
    platform: Platform,
    policy: RefPolicy,
) -> (Ticks, Vec<Interval>) {
    struct Run<'a> {
        dag: &'a Dag,
        offloaded: Option<NodeId>,
        remaining: Vec<usize>,
        ready_time: Vec<Ticks>,
        intervals: Vec<Interval>,
        ready_host: Vec<NodeId>,
        ready_accel: Vec<NodeId>,
    }
    impl Run<'_> {
        fn release(&mut self, v: NodeId, now: Ticks) {
            self.ready_time[v.index()] = now;
            if self.dag.wcet(v).is_zero() {
                self.intervals.push(Interval {
                    node: v,
                    start: now,
                    finish: now,
                    resource: Resource::Instant,
                    ready: now,
                });
                for &s in self.dag.successors(v) {
                    self.remaining[s.index()] -= 1;
                    if self.remaining[s.index()] == 0 {
                        self.release(s, now);
                    }
                }
            } else if self.offloaded == Some(v) {
                self.ready_accel.push(v);
            } else {
                self.ready_host.push(v);
            }
        }
    }

    let tails: Vec<u64> = {
        let cp = CriticalPath::of(dag);
        dag.node_ids().map(|v| cp.tail(v).get()).collect()
    };
    let mut rng = match policy {
        RefPolicy::Random(seed) => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };
    let mut run = Run {
        dag,
        offloaded,
        remaining: dag.node_ids().map(|v| dag.in_degree(v)).collect(),
        ready_time: vec![Ticks::ZERO; dag.node_count()],
        intervals: Vec::new(),
        ready_host: Vec::new(),
        ready_accel: Vec::new(),
    };
    let mut free_cores: BinaryHeap<Reverse<usize>> = (0..platform.cores()).map(Reverse).collect();
    let mut free_accels: BinaryHeap<Reverse<usize>> =
        (0..platform.accelerators()).map(Reverse).collect();
    let mut running: Running = BinaryHeap::new();
    let mut now = Ticks::ZERO;
    for v in dag.sources() {
        run.release(v, now);
    }
    loop {
        while !run.ready_accel.is_empty() && !free_accels.is_empty() {
            let v = run.ready_accel.remove(0);
            let Reverse(dev) = free_accels.pop().unwrap();
            let finish = now + dag.wcet(v);
            running.push(Reverse((finish.get(), v.index() as u32, (1, dev))));
            run.intervals.push(Interval {
                node: v,
                start: now,
                finish,
                resource: Resource::Accelerator(dev),
                ready: run.ready_time[v.index()],
            });
        }
        while !run.ready_host.is_empty() && !free_cores.is_empty() {
            let ready = &run.ready_host;
            let idx = match policy {
                RefPolicy::BreadthFirst => 0,
                RefPolicy::DepthFirst => ready.len() - 1,
                RefPolicy::CriticalPathFirst => {
                    let mut best = 0;
                    for (i, v) in ready.iter().enumerate() {
                        if tails[v.index()] > tails[ready[best].index()] {
                            best = i;
                        }
                    }
                    best
                }
                RefPolicy::Random(_) => rng.as_mut().unwrap().gen_range(0..ready.len()),
            };
            let v = run.ready_host.remove(idx);
            let Reverse(core) = free_cores.pop().unwrap();
            let finish = now + dag.wcet(v);
            running.push(Reverse((finish.get(), v.index() as u32, (0, core))));
            run.intervals.push(Interval {
                node: v,
                start: now,
                finish,
                resource: Resource::HostCore(core),
                ready: run.ready_time[v.index()],
            });
        }
        let Some(Reverse((finish, vi, (kind, unit)))) = running.pop() else {
            break;
        };
        now = Ticks::new(finish);
        if kind == 0 {
            free_cores.push(Reverse(unit));
        } else {
            free_accels.push(Reverse(unit));
        }
        for &s in dag.successors(NodeId::from_index(vi as usize)) {
            run.remaining[s.index()] -= 1;
            if run.remaining[s.index()] == 0 {
                run.release(s, now);
            }
        }
    }
    assert_eq!(run.intervals.len(), dag.node_count(), "reference stalled");
    let makespan = run
        .intervals
        .iter()
        .map(|i| i.finish)
        .max()
        .unwrap_or(Ticks::ZERO);
    run.intervals.sort_by_key(|i| (i.start, i.node));
    (makespan, run.intervals)
}

fn platform_for(offloaded: Option<NodeId>, m: usize) -> Platform {
    if offloaded.is_some() {
        Platform::with_accelerator(m)
    } else {
        Platform::host_only(m)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn event_loop_matches_the_vector_queue_reference(seed in 0u64..1_000_000, m in 1usize..9) {
        let (dag, offloaded) = random_graph(seed);
        let platform = platform_for(offloaded, m);
        let mut ws = SimWorkspace::new();
        for policy in [
            RefPolicy::BreadthFirst,
            RefPolicy::DepthFirst,
            RefPolicy::CriticalPathFirst,
            RefPolicy::Random(seed ^ 0x5EED),
        ] {
            let (makespan, intervals) = reference(&dag, offloaded, platform, policy);
            let full = simulate(&dag, offloaded, platform, policy.engine().as_mut()).unwrap();
            prop_assert_eq!(full.makespan(), makespan, "{:?}: simulate makespan", policy);
            prop_assert_eq!(full.intervals(), &intervals[..], "{:?}: interval log", policy);
            let fast =
                simulate_makespan(&mut ws, &dag, offloaded, platform, policy.engine().as_mut())
                    .unwrap();
            prop_assert_eq!(fast, makespan, "{:?}: simulate_makespan", policy);
        }
    }
}

#[test]
fn long_zero_wcet_chain_simulates_on_a_small_stack() {
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
    let makespan = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let mut ws = SimWorkspace::new();
            let platform = Platform::with_accelerator(2);
            let fast = simulate_makespan(
                &mut ws,
                &dag,
                Some(last),
                platform,
                &mut RandomTieBreak::new(3),
            )
            .unwrap();
            let full =
                simulate(&dag, None, Platform::host_only(2), &mut BreadthFirst::new()).unwrap();
            assert_eq!(full.intervals().len(), CHAIN + 2);
            assert_eq!(full.makespan(), fast);
            fast
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(makespan, Ticks::new(2));
}
