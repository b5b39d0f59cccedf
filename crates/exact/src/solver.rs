//! Branch-and-bound search over active schedules.
//!
//! Serial schedule-generation branching: each search node dispatches one
//! precedence-eligible job at its earliest feasible start time. The set of
//! schedules reachable this way is exactly the set of *active* schedules,
//! which contains a makespan-optimal schedule (the classical
//! list-scheduling/RCPSP result — `P|prec|Cmax` is RCPSP with one unit
//! resource of capacity `m`). Dedicated-resource moves (the offloaded node;
//! zero-WCET nodes) are dispatched greedily, which is dominance-optimal:
//! they consume no shared capacity, so starting them at their ready time
//! can only relax constraints.

use std::collections::HashMap;

use hetrta_dag::algo::{topological_order, CriticalPath};
use hetrta_dag::{Dag, DagError, HeteroDagTask, NodeId, Ticks};

use crate::bounds::{root_bound_with_path, water_filling_bound};
use crate::heuristics::list_schedule_with_path;
use crate::schedule::{ExactSchedule, Optimality};
use crate::ExactError;

/// Tuning knobs of the exact solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum number of branch-and-bound nodes to explore before giving up
    /// with [`Optimality::Feasible`]. The paper's analogue is the "12 hour
    /// CPLEX budget" per instance.
    pub max_nodes: u64,
    /// Maximum dominance signatures remembered per scheduled-set (memory
    /// cap of the dominance store).
    pub max_memo_per_mask: usize,
    /// Optional wall-clock budget; on expiry the search stops with
    /// [`Optimality::Feasible`] (checked every few thousand nodes, so the
    /// overrun is bounded and the per-node overhead negligible).
    pub time_limit: Option<std::time::Duration>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 2_000_000,
            max_memo_per_mask: 64,
            time_limit: None,
        }
    }
}

/// Maximum node count the solver supports (scheduled sets are `u128`
/// bitmasks). The paper's ILP experiment is limited to 100-node tasks for
/// the same order-of-magnitude reason.
pub const MAX_NODES_SUPPORTED: usize = 128;

/// Computes the minimum makespan of `dag` on `m` identical host cores plus
/// (if `offloaded` is set) one dedicated accelerator.
///
/// Returns the best schedule found together with its [`Optimality`] status:
/// `Optimal` when the search space was exhausted or the incumbent met the
/// lower bound, `Feasible` when the node budget ran out first.
///
/// # Errors
///
/// - [`ExactError::ZeroCores`] if `m == 0`;
/// - [`ExactError::Dag`] if the graph is cyclic, `offloaded` is unknown, or
///   the graph exceeds [`MAX_NODES_SUPPORTED`] nodes.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks};
/// use hetrta_exact::{solve, SolverConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Figure 1(a): optimal heterogeneous makespan is 8 on m = 2.
/// let mut b = DagBuilder::new();
/// let v1 = b.node("v1", Ticks::new(1));
/// let v2 = b.node("v2", Ticks::new(4));
/// let v3 = b.node("v3", Ticks::new(6));
/// let v4 = b.node("v4", Ticks::new(2));
/// let v5 = b.node("v5", Ticks::new(1));
/// let voff = b.node("v_off", Ticks::new(4));
/// b.edges([(v1, v2), (v1, v3), (v1, v4), (v4, voff), (v2, v5), (v3, v5), (voff, v5)])?;
/// let dag = b.build()?;
/// let sol = solve(&dag, Some(voff), 2, &SolverConfig::default())?;
/// assert_eq!(sol.makespan(), Ticks::new(8));
/// assert!(sol.is_optimal());
/// # Ok(())
/// # }
/// ```
pub fn solve(
    dag: &Dag,
    offloaded: Option<NodeId>,
    m: u64,
    config: &SolverConfig,
) -> Result<ExactSchedule, ExactError> {
    solve_with(&mut SolverWorkspace::new(), dag, offloaded, m, config)
}

/// Reusable scratch state of the branch-and-bound search: per-node tail
/// and WCET tables, the chain-bound estimation buffer, and the dominance
/// memo.
///
/// One workspace serves any number of sequential solves; each
/// [`solve_with`] call resets (but does not reallocate) the buffers.
/// Batch engines keep one per worker thread so steady-state sweeps do
/// near-zero setup allocation per solved instance — and the chain bound,
/// evaluated at every search node, stops allocating entirely.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    tails: Vec<u64>,
    wcets: Vec<u64>,
    est_finish: Vec<u64>,
    memo: HashMap<u128, Vec<Vec<u64>>>,
}

impl SolverWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        SolverWorkspace::default()
    }
}

/// [`solve`] with caller-owned scratch state (see [`SolverWorkspace`]).
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with(
    ws: &mut SolverWorkspace,
    dag: &Dag,
    offloaded: Option<NodeId>,
    m: u64,
    config: &SolverConfig,
) -> Result<ExactSchedule, ExactError> {
    if m == 0 {
        return Err(ExactError::ZeroCores);
    }
    if let Some(off) = offloaded {
        if !dag.contains_node(off) {
            return Err(ExactError::Dag(DagError::UnknownNode(off)));
        }
    }
    let n = dag.node_count();
    if n > MAX_NODES_SUPPORTED {
        return Err(ExactError::Dag(DagError::UnknownNode(NodeId::from_index(
            n,
        ))));
    }
    if n == 0 {
        return Ok(ExactSchedule::new(
            Ticks::ZERO,
            Vec::new(),
            Optimality::Optimal,
            Ticks::ZERO,
            0,
        ));
    }
    let topo = topological_order(dag)?;
    let cp = CriticalPath::try_of(dag)?;
    let SolverWorkspace {
        tails,
        wcets,
        est_finish,
        memo,
    } = ws;
    tails.clear();
    tails.extend(dag.node_ids().map(|v| cp.tail(v).get()));
    wcets.clear();
    wcets.extend(dag.node_ids().map(|v| dag.wcet(v).get()));
    est_finish.clear();
    est_finish.resize(n, 0);
    memo.clear();

    // Incumbent from the CP-first list schedule.
    let (inc_makespan, inc_starts) = list_schedule_with_path(dag, &cp, offloaded, m)?;
    let root_lb = root_bound_with_path(dag, &cp, offloaded, m);

    let mut search = Search {
        dag,
        offloaded,
        topo: &topo,
        tails,
        wcets,
        est_finish,
        config,
        best_makespan: inc_makespan.get(),
        best_starts: inc_starts.iter().map(|t| t.get()).collect(),
        explored: 0,
        exhausted: false,
        memo,
        deadline: config.time_limit.map(|d| std::time::Instant::now() + d),
    };

    if inc_makespan > root_lb {
        let mut state = State {
            mask: 0,
            starts: vec![0; n],
            finishes: vec![0; n],
            cores: vec![0; m as usize],
            scheduled_count: 0,
            remaining_work: wcets
                .iter()
                .enumerate()
                .filter(|&(i, _)| Some(NodeId::from_index(i)) != offloaded)
                .map(|(_, &w)| w)
                .sum(),
        };
        search.dfs(&mut state);
    }

    let status = if search.exhausted {
        Optimality::Feasible
    } else {
        Optimality::Optimal
    };
    let lower_bound = match status {
        Optimality::Optimal => Ticks::new(search.best_makespan),
        Optimality::Feasible => root_lb,
    };
    Ok(ExactSchedule::new(
        Ticks::new(search.best_makespan),
        search.best_starts.iter().map(|&t| Ticks::new(t)).collect(),
        status,
        lower_bound,
        search.explored,
    ))
}

/// Convenience wrapper: minimum makespan of a [`HeteroDagTask`].
///
/// # Errors
///
/// See [`solve`].
pub fn solve_hetero_task(
    task: &HeteroDagTask,
    m: u64,
    config: &SolverConfig,
) -> Result<ExactSchedule, ExactError> {
    solve(task.dag(), Some(task.offloaded()), m, config)
}

#[derive(Clone)]
struct State {
    mask: u128,
    starts: Vec<u64>,
    finishes: Vec<u64>,
    /// Sorted host-core availability times.
    cores: Vec<u64>,
    scheduled_count: usize,
    /// Unscheduled host work.
    remaining_work: u64,
}

struct Search<'a> {
    dag: &'a Dag,
    offloaded: Option<NodeId>,
    topo: &'a [NodeId],
    tails: &'a [u64],
    wcets: &'a [u64],
    /// Chain-bound estimation buffer (fully overwritten per evaluation).
    est_finish: &'a mut Vec<u64>,
    config: &'a SolverConfig,
    best_makespan: u64,
    best_starts: Vec<u64>,
    explored: u64,
    exhausted: bool,
    memo: &'a mut HashMap<u128, Vec<Vec<u64>>>,
    deadline: Option<std::time::Instant>,
}

impl Search<'_> {
    fn is_scheduled(state: &State, v: NodeId) -> bool {
        state.mask & (1u128 << v.index()) != 0
    }

    fn ready_time(&self, state: &State, v: NodeId) -> Option<u64> {
        let mut ready = 0u64;
        for &p in self.dag.predecessors(v) {
            if !Self::is_scheduled(state, p) {
                return None;
            }
            ready = ready.max(state.finishes[p.index()]);
        }
        Some(ready)
    }

    /// Dispatches all dominant moves (offloaded node, zero-WCET nodes) in
    /// place; returns `true` if anything was dispatched.
    fn dispatch_dominant(&self, state: &mut State) -> bool {
        let mut any = false;
        loop {
            let mut progressed = false;
            for i in 0..self.dag.node_count() {
                let v = NodeId::from_index(i);
                if Self::is_scheduled(state, v) {
                    continue;
                }
                let dedicated = Some(v) == self.offloaded || self.wcets[i] == 0;
                if !dedicated {
                    continue;
                }
                if let Some(ready) = self.ready_time(state, v) {
                    state.mask |= 1u128 << i;
                    state.starts[i] = ready;
                    state.finishes[i] = ready + self.wcets[i];
                    state.scheduled_count += 1;
                    // dedicated moves never consume host work budget:
                    // zero-WCET contributes 0; the offloaded node was never
                    // part of remaining_work.
                    progressed = true;
                    any = true;
                }
            }
            if !progressed {
                return any;
            }
        }
    }

    /// Chain lower bound: earliest possible completion of the whole task
    /// from this partial state, ignoring future core contention.
    ///
    /// Evaluated at every search node — the estimation buffer lives in the
    /// [`SolverWorkspace`] and is fully overwritten here, so the bound is
    /// allocation-free.
    fn chain_bound(&mut self, state: &State) -> u64 {
        let est_finish = &mut *self.est_finish;
        let mut bound = state.finishes.iter().copied().max().unwrap_or(0);
        let earliest_core = state.cores[0];
        for &v in self.topo {
            let i = v.index();
            if Self::is_scheduled(state, v) {
                est_finish[i] = state.finishes[i];
                continue;
            }
            let mut ready = 0u64;
            for &p in self.dag.predecessors(v) {
                ready = ready.max(est_finish[p.index()]);
            }
            let host = Some(v) != self.offloaded && self.wcets[i] > 0;
            if host {
                ready = ready.max(earliest_core);
            }
            est_finish[i] = ready + self.wcets[i];
            // tail already includes C_v
            bound = bound.max(ready + self.tails[i]);
        }
        bound
    }

    fn dfs(&mut self, state: &mut State) {
        if self.exhausted {
            return;
        }
        self.explored += 1;
        if self.explored > self.config.max_nodes {
            self.exhausted = true;
            return;
        }
        if self.explored.is_multiple_of(4096) {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() >= deadline {
                    self.exhausted = true;
                    return;
                }
            }
        }

        self.dispatch_dominant(state);

        let n = self.dag.node_count();
        if state.scheduled_count == n {
            let makespan = state.finishes.iter().copied().max().unwrap_or(0);
            if makespan < self.best_makespan {
                self.best_makespan = makespan;
                self.best_starts = state.starts.clone();
            }
            return;
        }

        // Bounds.
        let lb_chain = self.chain_bound(state);
        let lb_work = water_filling_bound(&state.cores, state.remaining_work);
        let lb = lb_chain.max(lb_work);
        if lb >= self.best_makespan {
            return;
        }

        // Dominance: signature = sorted core availability + finish times of
        // scheduled nodes that still gate unscheduled successors.
        let mut sig = state.cores.clone();
        for i in 0..n {
            let v = NodeId::from_index(i);
            if Self::is_scheduled(state, v)
                && self
                    .dag
                    .successors(v)
                    .iter()
                    .any(|&s| !Self::is_scheduled(state, s))
            {
                sig.push(state.finishes[i]);
            }
        }
        let entries = self.memo.entry(state.mask).or_default();
        if entries
            .iter()
            .any(|e| e.len() == sig.len() && e.iter().zip(&sig).all(|(a, b)| a <= b))
        {
            return;
        }
        if entries.len() < self.config.max_memo_per_mask {
            entries.push(sig);
        }

        // Eligible host jobs with their earliest feasible starts.
        let mut candidates: Vec<(u64, u64, usize)> = Vec::new(); // (start, -tail sortkey later, idx)
        for i in 0..n {
            let v = NodeId::from_index(i);
            if Self::is_scheduled(state, v) {
                continue;
            }
            if let Some(ready) = self.ready_time(state, v) {
                let start = ready.max(state.cores[0]);
                candidates.push((start, u64::MAX - self.tails[i], i));
            }
        }
        debug_assert!(
            !candidates.is_empty(),
            "non-terminal state must have eligible jobs"
        );
        candidates.sort_unstable();

        for (start, _, i) in candidates {
            let w = self.wcets[i];
            // Prune: even this single job busts the incumbent.
            if start + self.tails[i] >= self.best_makespan {
                continue;
            }
            // Assign the latest-available core not later than `start`
            // (dominant among identical cores).
            let core_idx = match state.cores.binary_search(&start) {
                Ok(mut k) => {
                    while k + 1 < state.cores.len() && state.cores[k + 1] <= start {
                        k += 1;
                    }
                    k
                }
                Err(0) => 0, // start < all free times ⇒ start == cores[0] case handled by max above
                Err(k) => k - 1,
            };
            let mut child = state.clone();
            child.mask |= 1u128 << i;
            child.starts[i] = start;
            child.finishes[i] = start + w;
            child.scheduled_count += 1;
            child.remaining_work -= w;
            child.cores.remove(core_idx);
            let pos = child.cores.partition_point(|&c| c <= start + w);
            child.cores.insert(pos, start + w);
            self.dfs(&mut child);
            if self.best_makespan <= lb {
                // proved optimal for this subtree's ancestors too
                return;
            }
            if self.exhausted {
                return;
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

    fn assert_valid_schedule(dag: &Dag, offloaded: Option<NodeId>, m: u64, sol: &ExactSchedule) {
        // precedence
        for (f, t) in dag.edges() {
            assert!(
                sol.start_of(f) + dag.wcet(f) <= sol.start_of(t),
                "precedence ({f},{t}) violated"
            );
        }
        // host capacity at every start event
        let host: Vec<NodeId> = dag
            .node_ids()
            .filter(|&v| Some(v) != offloaded && !dag.wcet(v).is_zero())
            .collect();
        for &v in &host {
            let s = sol.start_of(v);
            let overlapping = host
                .iter()
                .filter(|&&u| sol.start_of(u) <= s && s < sol.start_of(u) + dag.wcet(u))
                .count();
            assert!(overlapping as u64 <= m, "capacity exceeded at {s}");
        }
    }

    #[test]
    fn figure1_heterogeneous_optimum_is_8() {
        let (dag, voff) = figure1();
        let sol = solve(&dag, Some(voff), 2, &SolverConfig::default()).unwrap();
        assert_eq!(sol.makespan(), Ticks::new(8));
        assert!(sol.is_optimal());
        assert_valid_schedule(&dag, Some(voff), 2, &sol);
    }

    #[test]
    fn figure1_homogeneous_optimum() {
        let (dag, _) = figure1();
        let sol = solve(&dag, None, 2, &SolverConfig::default()).unwrap();
        // all 18 units on 2 cores, len 8 → lower bound 9; a 9-schedule
        // exists: c0: v1(0-1), v2(1-5), v4(5-7)… let the solver decide.
        assert!(sol.makespan() >= Ticks::new(9));
        assert!(sol.makespan() <= Ticks::new(10));
        assert!(sol.is_optimal());
        assert_valid_schedule(&dag, None, 2, &sol);
    }

    #[test]
    fn chain_is_trivially_optimal() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(3));
        let c = b.node("c", Ticks::new(4));
        b.edge(a, c).unwrap();
        let dag = b.build().unwrap();
        let sol = solve(&dag, None, 4, &SolverConfig::default()).unwrap();
        assert_eq!(sol.makespan(), Ticks::new(7));
        assert!(sol.is_optimal());
        assert_eq!(sol.explored_nodes(), 0); // incumbent met the root bound
    }

    #[test]
    fn independent_jobs_pack_like_bins() {
        // 4 jobs of sizes 5,4,3,3 on 2 cores with dummy terminals:
        // optimum is ceil(15/2) = 8 (5+3 | 4+3… = 8/7 → 8).
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ZERO);
        let sink = b.node("sink", Ticks::ZERO);
        for (i, w) in [5u64, 4, 3, 3].into_iter().enumerate() {
            let v = b.node(format!("j{i}"), Ticks::new(w));
            b.edge(src, v).unwrap();
            b.edge(v, sink).unwrap();
        }
        let dag = b.build().unwrap();
        let sol = solve(&dag, None, 2, &SolverConfig::default()).unwrap();
        assert_eq!(sol.makespan(), Ticks::new(8));
        assert!(sol.is_optimal());
    }

    #[test]
    fn anomaly_case_where_list_scheduling_is_suboptimal() {
        // Classic Graham anomaly shape: greedy CP-first can be beaten.
        // jobs: a(3), b(2), c(2), d(4) with d after b; m=2.
        // CP-first may run a,b then c,d → 3 + … ; optimum packs b first.
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ZERO);
        let sink = b.node("sink", Ticks::ZERO);
        let ja = b.node("a", Ticks::new(3));
        let jb = b.node("b", Ticks::new(2));
        let jc = b.node("c", Ticks::new(2));
        let jd = b.node("d", Ticks::new(4));
        b.edges([
            (src, ja),
            (src, jb),
            (src, jc),
            (jb, jd),
            (ja, sink),
            (jc, sink),
            (jd, sink),
        ])
        .unwrap();
        let dag = b.build().unwrap();
        let sol = solve(&dag, None, 2, &SolverConfig::default()).unwrap();
        // optimum: core0: b(0-2), d(2-6); core1: a(0-3), c(3-5) → 6
        assert_eq!(sol.makespan(), Ticks::new(6));
        assert!(sol.is_optimal());
    }

    #[test]
    fn accelerator_overlap_reduces_makespan() {
        // host chain 6 + offloaded 6 in parallel: with accelerator the
        // makespan is 8 (1+6+1), homogeneous on one core it is 14.
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ONE);
        let sink = b.node("sink", Ticks::ONE);
        let h = b.node("h", Ticks::new(6));
        let k = b.node("k", Ticks::new(6));
        b.edges([(src, h), (src, k), (h, sink), (k, sink)]).unwrap();
        let dag = b.build().unwrap();
        let het = solve(&dag, Some(k), 1, &SolverConfig::default()).unwrap();
        assert_eq!(het.makespan(), Ticks::new(8));
        let hom = solve(&dag, None, 1, &SolverConfig::default()).unwrap();
        assert_eq!(hom.makespan(), Ticks::new(14));
    }

    #[test]
    fn budget_exhaustion_reports_feasible() {
        // A dense random-ish instance with a tiny budget.
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ZERO);
        let sink = b.node("sink", Ticks::ZERO);
        let mut mids = Vec::new();
        for i in 0..12 {
            let v = b.node(format!("m{i}"), Ticks::new(3 + (i % 5) as u64));
            b.edge(src, v).unwrap();
            b.edge(v, sink).unwrap();
            mids.push(v);
        }
        let dag = b.build().unwrap();
        let cfg = SolverConfig {
            max_nodes: 3,
            ..SolverConfig::default()
        };
        let sol = solve(&dag, None, 3, &cfg).unwrap();
        // whatever happened, the incumbent is a valid schedule and the
        // status reflects the truncated search (unless the incumbent
        // already met the root bound).
        assert!(sol.makespan() >= sol.lower_bound());
        assert_valid_schedule(&dag, None, 3, &sol);
    }

    #[test]
    fn empty_and_oversized_graphs() {
        let sol = solve(&Dag::new(), None, 2, &SolverConfig::default()).unwrap();
        assert_eq!(sol.makespan(), Ticks::ZERO);
        let mut big = Dag::new();
        for _ in 0..129 {
            big.add_node(Ticks::ONE);
        }
        assert!(solve(&big, None, 2, &SolverConfig::default()).is_err());
    }

    #[test]
    fn zero_cores_rejected() {
        let (dag, voff) = figure1();
        assert_eq!(
            solve(&dag, Some(voff), 0, &SolverConfig::default()).unwrap_err(),
            ExactError::ZeroCores
        );
    }

    #[test]
    fn zero_time_limit_still_returns_incumbent() {
        // A hard-ish instance with an expired clock: the solver must return
        // the (valid) list-schedule incumbent immediately.
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ZERO);
        let sink = b.node("sink", Ticks::ZERO);
        for i in 0..14 {
            let v = b.node(format!("j{i}"), Ticks::new(3 + (i % 7) as u64));
            b.edge(src, v).unwrap();
            b.edge(v, sink).unwrap();
        }
        let dag = b.build().unwrap();
        let cfg = SolverConfig {
            time_limit: Some(std::time::Duration::ZERO),
            ..SolverConfig::default()
        };
        let sol = solve(&dag, None, 3, &cfg).unwrap();
        assert!(sol.makespan() >= sol.lower_bound());
        assert_valid_schedule(&dag, None, 3, &sol);
    }

    #[test]
    fn solve_hetero_task_wrapper() {
        let (dag, voff) = figure1();
        let task = HeteroDagTask::new(dag, voff, Ticks::new(99), Ticks::new(99)).unwrap();
        let sol = solve_hetero_task(&task, 2, &SolverConfig::default()).unwrap();
        assert_eq!(sol.makespan(), Ticks::new(8));
    }
}
