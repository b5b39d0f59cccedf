//! List-scheduling heuristics (incumbent seeds for the solver).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hetrta_dag::algo::CriticalPath;
use hetrta_dag::{Dag, NodeId, Ticks};

use crate::ExactError;

/// A critical-path-first (longest remaining chain) work-conserving list
/// schedule on `m` host cores plus an accelerator for `offloaded`.
///
/// Semantics match `hetrta-sim`: non-preemptive, the offloaded node starts
/// the moment it is ready, zero-WCET nodes complete instantly without a
/// core. Returns `(makespan, start_times)`.
///
/// This is both the solver's initial incumbent and a strong standalone
/// heuristic (HLF — "highest level first" — in the classic scheduling
/// literature).
///
/// # Errors
///
/// - [`ExactError::ZeroCores`] if `m == 0`;
/// - [`ExactError::Dag`] if the graph is cyclic or `offloaded` is unknown.
pub fn list_schedule_cp_first(
    dag: &Dag,
    offloaded: Option<NodeId>,
    m: u64,
) -> Result<(Ticks, Vec<Ticks>), ExactError> {
    // Argument errors take precedence over a cycle found by the path pass.
    check_args(dag, offloaded, m)?;
    let cp = CriticalPath::try_of(dag)?;
    list_schedule_with_path(dag, &cp, offloaded, m)
}

/// [`list_schedule_cp_first`] with the graph's [`CriticalPath`] supplied
/// by the caller, so one critical-path pass serves both the schedule and
/// a lower bound such as [`crate::bounds::root_bound_with_path`].
///
/// The ready set is a max-heap on `(tail, smallest id)` — a strict total
/// order, so the pick sequence is fully determined — and every operation
/// on it is `O(log n)`: the whole schedule costs `O((V + E) log V)`.
///
/// # Errors
///
/// As [`list_schedule_cp_first`]; a cyclic graph has no critical path, so
/// the cycle is reported while computing `cp`.
///
/// # Panics
///
/// Panics if `cp` was computed for a graph with fewer nodes than `dag`.
pub fn list_schedule_with_path(
    dag: &Dag,
    cp: &CriticalPath,
    offloaded: Option<NodeId>,
    m: u64,
) -> Result<(Ticks, Vec<Ticks>), ExactError> {
    check_args(dag, offloaded, m)?;
    let n = dag.node_count();
    let mut run = ListRun {
        dag,
        cp,
        offloaded,
        remaining: (0..n)
            .map(|i| dag.in_degree(NodeId::from_index(i)) as u32)
            .collect(),
        starts: vec![Ticks::ZERO; n],
        done: 0,
        running: BinaryHeap::new(),
        ready: BinaryHeap::new(),
        stack: Vec::new(),
    };
    let mut free: BinaryHeap<Reverse<u64>> = (0..m).map(|_| Reverse(0u64)).collect();
    let mut now = 0u64;

    for v in dag.sources() {
        if run.settle(v, now) {
            run.complete(v, now);
        }
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
            let (_, Reverse(id)) = run.ready.pop().expect("checked non-empty");
            let v = NodeId::from_index(id as usize);
            run.starts[v.index()] = Ticks::new(now);
            let finish = now + dag.wcet(v).get();
            free.push(Reverse(finish));
            run.running.push(Reverse((finish, id)));
        }
        // next event: earliest running completion
        let Some(&Reverse((fin, _))) = run.running.peek() else {
            break;
        };
        now = fin;
        while let Some(&Reverse((f, vi))) = run.running.peek() {
            if f != now {
                break;
            }
            run.running.pop();
            run.done += 1;
            run.complete(NodeId::from_index(vi as usize), now);
        }
    }
    if run.done != n {
        return Err(ExactError::Dag(hetrta_dag::DagError::Cycle(
            (0..n)
                .map(NodeId::from_index)
                .find(|v| run.remaining[v.index()] > 0)
                .unwrap_or(NodeId::from_index(0)),
        )));
    }
    let starts = run.starts;
    let makespan = dag
        .node_ids()
        .map(|v| starts[v.index()] + dag.wcet(v))
        .max()
        .unwrap_or(Ticks::ZERO);
    Ok((makespan, starts))
}

/// The argument checks shared by both entry points.
fn check_args(dag: &Dag, offloaded: Option<NodeId>, m: u64) -> Result<(), ExactError> {
    if m == 0 {
        return Err(ExactError::ZeroCores);
    }
    match offloaded {
        Some(off) if !dag.contains_node(off) => {
            Err(ExactError::Dag(hetrta_dag::DagError::UnknownNode(off)))
        }
        _ => Ok(()),
    }
}

/// Mutable state of one list-schedule run.
struct ListRun<'a> {
    dag: &'a Dag,
    cp: &'a CriticalPath,
    offloaded: Option<NodeId>,
    /// Unfinished predecessors per node.
    remaining: Vec<u32>,
    starts: Vec<Ticks>,
    done: usize,
    /// (finish, node)
    running: BinaryHeap<Reverse<(u64, u32)>>,
    /// Ready host jobs, popped by max tail (ties: smallest id).
    ready: BinaryHeap<(Ticks, Reverse<u32>)>,
    /// Explicit DFS frames `(node, next successor slot)` of the zero-WCET
    /// release cascade.
    stack: Vec<(NodeId, u32)>,
}

impl ListRun<'_> {
    /// Records `v` ready at `now`: starts the offloaded node, queues host
    /// work, and returns `true` for a zero-WCET node, which completes
    /// instantly (its successors are then the caller's to release).
    fn settle(&mut self, v: NodeId, now: u64) -> bool {
        let w = self.dag.wcet(v).get();
        if w == 0 {
            self.starts[v.index()] = Ticks::new(now);
            self.done += 1;
            return true;
        }
        let id = v.index() as u32;
        if self.offloaded == Some(v) {
            self.starts[v.index()] = Ticks::new(now);
            self.running.push(Reverse((now + w, id)));
        } else {
            self.ready.push((self.cp.tail(v), Reverse(id)));
        }
        false
    }

    /// `v` finished at `now`: releases the successors it was the last
    /// predecessor of, cascading through zero-WCET nodes in the pre-order
    /// of a recursive depth-first walk (successor slice order) without
    /// recursing.
    fn complete(&mut self, v: NodeId, now: u64) {
        self.stack.push((v, 0));
        while let Some(frame) = self.stack.last_mut() {
            let Some(&s) = self.dag.successors(frame.0).get(frame.1 as usize) else {
                self.stack.pop();
                continue;
            };
            frame.1 += 1;
            self.remaining[s.index()] -= 1;
            if self.remaining[s.index()] == 0 && self.settle(s, now) {
                self.stack.push((s, 0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::DagBuilder;

    fn figure1() -> (Dag, NodeId) {
        let mut b = DagBuilder::new();
        let v1 = b.node("v1", Ticks::new(1));
        let v2 = b.node("v2", Ticks::new(4));
        let v3 = b.node("v3", Ticks::new(6));
        let v4 = b.node("v4", Ticks::new(2));
        let v5 = b.node("v5", Ticks::new(1));
        let voff = b.node("v_off", Ticks::new(4));
        b.edges([
            (v1, v2),
            (v1, v3),
            (v1, v4),
            (v4, voff),
            (v2, v5),
            (v3, v5),
            (voff, v5),
        ])
        .unwrap();
        (b.build().unwrap(), voff)
    }

    #[test]
    fn cp_first_achieves_optimum_on_figure1() {
        let (dag, voff) = figure1();
        let (makespan, starts) = list_schedule_cp_first(&dag, Some(voff), 2).unwrap();
        assert_eq!(makespan, Ticks::new(8));
        assert_eq!(starts.len(), 6);
    }

    #[test]
    fn single_core_serializes_host_work() {
        let (dag, voff) = figure1();
        let (makespan, _) = list_schedule_cp_first(&dag, Some(voff), 1).unwrap();
        // host work = 14, plus possible accelerator overlap; serial host is
        // the dominant term here: v1(1) then 13 more host ticks, with v_off
        // overlapping. 14 ≤ makespan ≤ 18.
        assert!(
            makespan >= Ticks::new(14) && makespan <= Ticks::new(18),
            "{makespan}"
        );
    }

    #[test]
    fn homogeneous_schedule_uses_host_for_all() {
        let (dag, _) = figure1();
        let (makespan, starts) = list_schedule_cp_first(&dag, None, 2).unwrap();
        assert!(makespan >= Ticks::new(9)); // ceil(18/2)
        assert!(makespan <= Ticks::new(13)); // R_hom
                                             // precedence sanity
        for (f, t) in dag.edges() {
            assert!(starts[f.index()] + dag.wcet(f) <= starts[t.index()]);
        }
    }

    #[test]
    fn zero_cores_rejected() {
        let (dag, voff) = figure1();
        assert_eq!(
            list_schedule_cp_first(&dag, Some(voff), 0).unwrap_err(),
            ExactError::ZeroCores
        );
    }

    #[test]
    fn unknown_offload_rejected() {
        let (dag, _) = figure1();
        assert!(list_schedule_cp_first(&dag, Some(NodeId::from_index(77)), 2).is_err());
    }

    #[test]
    fn cyclic_graph_rejected() {
        let mut builder = DagBuilder::new();
        let a = builder.unlabeled_node(Ticks::ONE);
        let b = builder.unlabeled_node(Ticks::ONE);
        builder.edge(a, b).unwrap();
        builder.edge(b, a).unwrap();
        let dag = builder.freeze();
        assert!(list_schedule_cp_first(&dag, None, 1).is_err());
    }
}
