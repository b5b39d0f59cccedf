//! Ready-queue scheduling policies.
//!
//! All policies are *work-conserving*: the engine never leaves a host core
//! idle while the ready queue is non-empty. A policy only decides **which**
//! ready node a free core takes next.

use hetrta_dag::algo::CriticalPath;
use hetrta_dag::Dag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ReadyQueue;

/// Context handed to a policy when it must pick a ready node.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// The graph being executed.
    pub dag: &'a Dag,
    /// Current simulation time (ticks).
    pub now: u64,
}

/// A ready-queue discipline.
///
/// The engine maintains the host ready queue in *readiness order* (FIFO
/// arrival order, ties broken deterministically) and hands policies a
/// read-only view of it: [`ReadyQueue::len`], [`ReadyQueue::get`] by rank
/// and in-order [`ReadyQueue::iter`]. `choose` returns the *rank* (0 =
/// released earliest) of the node a free core should execute next; the
/// engine removes it in `O(log n)`.
///
/// Implementations must return a rank `< ready.len()`; the engine panics
/// otherwise (a policy bug, not a recoverable condition).
pub trait Policy {
    /// Picks the rank of the next node to run from the ready queue.
    fn choose(&mut self, ready: &ReadyQueue, ctx: &PolicyContext<'_>) -> usize;

    /// Human-readable policy name (used in traces and reports).
    fn name(&self) -> &'static str;

    /// Called once before a simulation so stateful policies can
    /// precompute per-graph data or reset seeds.
    fn prepare(&mut self, dag: &Dag) {
        let _ = dag;
    }
}

/// The GOMP-like work-conserving **breadth-first** scheduler assumed by the
/// paper's evaluation (§5.2): ready nodes are served strictly in the order
/// they became ready (FIFO).
#[derive(Debug, Clone, Default)]
pub struct BreadthFirst;

impl BreadthFirst {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        BreadthFirst
    }
}

impl Policy for BreadthFirst {
    fn choose(&mut self, _ready: &ReadyQueue, _ctx: &PolicyContext<'_>) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "breadth-first"
    }
}

/// LIFO ("depth-first") discipline: always run the most recently released
/// node, emulating depth-first task exploration in untied OpenMP runtimes.
#[derive(Debug, Clone, Default)]
pub struct DepthFirst;

impl DepthFirst {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        DepthFirst
    }
}

impl Policy for DepthFirst {
    fn choose(&mut self, ready: &ReadyQueue, _ctx: &PolicyContext<'_>) -> usize {
        ready.len() - 1
    }

    fn name(&self) -> &'static str {
        "depth-first"
    }
}

/// Critical-path-first: always run the ready node with the longest
/// remaining chain (`tail` length). A strong heuristic that list-scheduling
/// literature calls HLF/CP; used as the incumbent seed of the exact solver
/// and as an ablation point against breadth-first.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathFirst {
    tails: Vec<u64>,
}

impl CriticalPathFirst {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        CriticalPathFirst { tails: Vec::new() }
    }
}

impl Policy for CriticalPathFirst {
    fn prepare(&mut self, dag: &Dag) {
        let cp = CriticalPath::of(dag);
        self.tails = dag.node_ids().map(|v| cp.tail(v).get()).collect();
    }

    fn choose(&mut self, ready: &ReadyQueue, _ctx: &PolicyContext<'_>) -> usize {
        ready
            .iter()
            .enumerate()
            .max_by_key(|&(i, v)| {
                (
                    self.tails.get(v.index()).copied().unwrap_or(0),
                    usize::MAX - i,
                )
            })
            .map(|(i, _)| i)
            .expect("engine never calls choose with an empty queue")
    }

    fn name(&self) -> &'static str {
        "critical-path-first"
    }
}

/// Seeded random tie-breaking: picks a uniformly random ready node. Running
/// many seeds explores the space of work-conserving schedules to probe
/// worst-case behaviour (the anomaly of the paper's Figure 1(c) is found
/// this way).
#[derive(Debug, Clone)]
pub struct RandomTieBreak {
    seed: u64,
    rng: StdRng,
}

impl RandomTieBreak {
    /// Creates the policy with a seed (re-applied at every `prepare`).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomTieBreak {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Policy for RandomTieBreak {
    fn prepare(&mut self, _dag: &Dag) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn choose(&mut self, ready: &ReadyQueue, _ctx: &PolicyContext<'_>) -> usize {
        self.rng.gen_range(0..ready.len())
    }

    fn name(&self) -> &'static str {
        "random-tie-break"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::Ticks;

    fn ctx_dag() -> Dag {
        let mut dag = Dag::new();
        let a = dag.add_node(Ticks::new(5));
        let b = dag.add_node(Ticks::new(1));
        let c = dag.add_node(Ticks::new(9));
        dag.add_edge(a, b).unwrap();
        dag.add_edge(a, c).unwrap();
        dag
    }

    #[test]
    fn breadth_first_picks_head() {
        let dag = ctx_dag();
        let ready = ReadyQueue::of(&[1, 2]);
        let ctx = PolicyContext { dag: &dag, now: 0 };
        assert_eq!(BreadthFirst::new().choose(&ready, &ctx), 0);
        assert_eq!(BreadthFirst::new().name(), "breadth-first");
    }

    #[test]
    fn depth_first_picks_tail() {
        let dag = ctx_dag();
        let ready = ReadyQueue::of(&[1, 2]);
        let ctx = PolicyContext { dag: &dag, now: 0 };
        assert_eq!(DepthFirst::new().choose(&ready, &ctx), 1);
    }

    #[test]
    fn critical_path_first_prefers_long_tail() {
        let dag = ctx_dag();
        let mut p = CriticalPathFirst::new();
        p.prepare(&dag);
        // node 2 has tail 9, node 1 tail 1
        let ready = ReadyQueue::of(&[1, 2]);
        let ctx = PolicyContext { dag: &dag, now: 0 };
        assert_eq!(p.choose(&ready, &ctx), 1);
        // first-index tie-break
        let ready_same = ReadyQueue::of(&[1, 1]);
        assert_eq!(p.choose(&ready_same, &ctx), 0);
    }

    #[test]
    fn random_policy_is_reproducible_after_prepare() {
        let dag = ctx_dag();
        let ready = ReadyQueue::of(&[0, 1, 2]);
        let ctx = PolicyContext { dag: &dag, now: 0 };
        let mut p1 = RandomTieBreak::new(42);
        let mut p2 = RandomTieBreak::new(42);
        p1.prepare(&dag);
        p2.prepare(&dag);
        let picks1: Vec<usize> = (0..10).map(|_| p1.choose(&ready, &ctx)).collect();
        let picks2: Vec<usize> = (0..10).map(|_| p2.choose(&ready, &ctx)).collect();
        assert_eq!(picks1, picks2);
        assert!(picks1.iter().all(|&i| i < 3));
    }
}
