//! Builder-first generation parity: every generator must produce a DAG
//! **bitwise identical** to the one the legacy edge-by-edge mutation path
//! produced — same node ids, same WCETs and labels, and the same
//! adjacency *order* in both the successor and predecessor CSR segments
//! (downstream float reductions replay adjacency order, so order is part
//! of the contract, not an implementation detail).
//!
//! The reference implementations below are verbatim copies of the
//! pre-refactor generators (incremental `add_labeled_node`/`add_edge`,
//! the clone-and-`remove_edge` transitive reduction, and mutation-based
//! dummy terminal normalization). Only their storage changed: they edit
//! the `RefDag` shared with the other parity suites and freeze it once.

#[path = "../../dag/tests/support/ref_dag.rs"]
mod ref_dag;

use hetrta_dag::algo::Reachability;
use hetrta_dag::{Dag, NodeId, Ticks};
use hetrta_gen::layered::{generate_layered, LayeredParams};
use hetrta_gen::openmp::{Program, Stmt};
use hetrta_gen::{generate_nfj, NfjParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ref_dag::RefDag;

/// Asserts complete structural identity, adjacency order included.
fn assert_same_dag(new: &Dag, legacy: &Dag, what: &str) {
    assert_eq!(new.node_count(), legacy.node_count(), "{what}: node count");
    assert_eq!(new.edge_count(), legacy.edge_count(), "{what}: edge count");
    for v in new.node_ids() {
        assert_eq!(new.wcet(v), legacy.wcet(v), "{what}: wcet of {v}");
        assert_eq!(new.label(v), legacy.label(v), "{what}: label of {v}");
        assert_eq!(
            new.successors(v),
            legacy.successors(v),
            "{what}: successor segment of {v}"
        );
        assert_eq!(
            new.predecessors(v),
            legacy.predecessors(v),
            "{what}: predecessor segment of {v}"
        );
    }
}

/// The pre-refactor transitive reduction: clone, then `remove_edge` every
/// redundant edge.
fn legacy_transitive_reduction(dag: &RefDag) -> RefDag {
    let reach = Reachability::of(&dag.freeze()).expect("acyclic");
    let mut reduced = dag.clone();
    let edges: Vec<(NodeId, NodeId)> = dag.edges().collect();
    for (u, w) in edges {
        let redundant = dag
            .successors(u)
            .iter()
            .any(|&s| s != w && reach.is_ordered_before(s, w));
        if redundant {
            reduced.remove_edge(u, w).expect("edge exists");
        }
    }
    reduced
}

/// The pre-refactor dummy-terminal normalization: freeze first, then
/// mutate the frozen graph.
fn legacy_add_dummy_terminals(dag: &mut RefDag) {
    let sources = dag.sources();
    if sources.len() > 1 {
        let src = dag.add_labeled_node("src", Ticks::ZERO);
        for s in sources {
            dag.add_edge(src, s).expect("fresh source edges are unique");
        }
    }
    let sinks = dag.sinks();
    if sinks.len() > 1 {
        let sink = dag.add_labeled_node("sink", Ticks::ZERO);
        for s in sinks {
            dag.add_edge(s, sink).expect("fresh sink edges are unique");
        }
    }
}

// ---------------------------------------------------------------- NFJ --

/// Verbatim copy of the pre-refactor NFJ sampler (mutating a graph).
fn legacy_nfj_expand<R: Rng + ?Sized>(
    dag: &mut RefDag,
    depth: usize,
    params: &NfjParams,
    rng: &mut R,
    c_range: (u64, u64),
) -> (NodeId, NodeId) {
    let wcet = |rng: &mut R| Ticks::new(rng.gen_range(c_range.0..=c_range.1));
    if depth < params.max_depth() && rng.gen_bool(params.p_par()) {
        let fork = dag.add_labeled_node(format!("fork@{depth}"), wcet(rng));
        let join = dag.add_labeled_node(format!("join@{depth}"), wcet(rng));
        let branches = rng.gen_range(2..=params.n_par());
        for _ in 0..branches {
            let (entry, exit) = legacy_nfj_expand(dag, depth + 1, params, rng, c_range);
            dag.add_edge(fork, entry).expect("fresh branch entry");
            dag.add_edge(exit, join).expect("fresh branch exit");
        }
        (fork, join)
    } else {
        let t = dag.add_labeled_node(format!("t@{depth}"), wcet(rng));
        (t, t)
    }
}

/// The pre-refactor `generate_nfj` rejection loop.
fn legacy_generate_nfj<R: Rng + ?Sized>(
    params: &NfjParams,
    rng: &mut R,
    c_range: (u64, u64),
) -> Option<Dag> {
    for _ in 0..1_000 {
        let mut dag = RefDag::new();
        legacy_nfj_expand(&mut dag, 0, params, rng, c_range);
        let n = dag.node_count();
        if n >= params.n_min() && n <= params.n_max() {
            return Some(dag.freeze());
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nfj_builder_path_matches_legacy_mutation_path(
        seed: u64,
        n_par in 2usize..8,
        depth in 1usize..5,
        p_pct in 0u32..101,
        n_min in 1usize..8,
    ) {
        // Wide accepted range, but a nontrivial lower bound so the
        // rejection loop (and its shared RNG stream) is exercised too.
        let params = NfjParams::new(n_par, depth, n_min, 100_000)
            .with_p_par(f64::from(p_pct) / 100.0)
            .with_wcet_range(1, 50)
            .with_max_attempts(1_000);
        let new = generate_nfj(&params, &mut StdRng::seed_from_u64(seed));
        let legacy = legacy_generate_nfj(&params, &mut StdRng::seed_from_u64(seed), (1, 50));
        match (new, legacy) {
            (Ok(new), Some(legacy)) => assert_same_dag(&new, &legacy, "nfj"),
            (Err(_), None) => {}
            (new, legacy) => panic!("acceptance diverged: {new:?} vs {legacy:?}"),
        }
    }
}

// ------------------------------------------------------------ layered --

/// Verbatim copy of the pre-refactor layered generator.
fn legacy_generate_layered<R: Rng + ?Sized>(params: &LayeredParams, rng: &mut R) -> Dag {
    let mut dag = RefDag::new();
    let mut layers: Vec<Vec<NodeId>> = Vec::with_capacity(params.layers);
    for l in 0..params.layers {
        let width = rng.gen_range(params.width_min..=params.width_max);
        let layer: Vec<NodeId> = (0..width)
            .map(|i| {
                dag.add_labeled_node(
                    format!("l{l}_{i}"),
                    Ticks::new(rng.gen_range(params.c_min..=params.c_max)),
                )
            })
            .collect();
        layers.push(layer);
    }
    for w in layers.windows(2) {
        let (upper, lower) = (&w[0], &w[1]);
        for &b in lower {
            let anchor = upper[rng.gen_range(0..upper.len())];
            let _ = dag.add_edge(anchor, b);
            for &a in upper {
                if a != anchor && rng.gen_bool(params.p_edge) {
                    let _ = dag.add_edge(a, b);
                }
            }
        }
    }
    let reduced = legacy_transitive_reduction(&dag);
    // Pre-refactor normalization: re-encode through incremental mutation,
    // then mutate dummy terminals onto the frozen graph.
    let mut norm = RefDag::new();
    for v in reduced.node_ids() {
        norm.add_labeled_node(reduced.label(v).to_owned(), reduced.wcet(v));
    }
    for (f, t) in reduced.edges() {
        norm.add_edge(f, t).expect("reduced edges are valid");
    }
    legacy_add_dummy_terminals(&mut norm);
    norm.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn layered_builder_path_matches_legacy_mutation_path(
        seed: u64,
        layers in 1usize..6,
        width_min in 1usize..4,
        extra_width in 0usize..4,
        p_pct in 0u32..101,
    ) {
        let params = LayeredParams {
            layers,
            width_min,
            width_max: width_min + extra_width,
            p_edge: f64::from(p_pct) / 100.0,
            c_min: 1,
            c_max: 100,
        };
        let new = generate_layered(&params, &mut StdRng::seed_from_u64(seed))
            .expect("valid params");
        let legacy = legacy_generate_layered(&params, &mut StdRng::seed_from_u64(seed));
        assert_same_dag(&new, &legacy, "layered");
    }
}

// ------------------------------------------------------------- OpenMP --

/// Verbatim copy of the pre-refactor OpenMP lowering (mutating a graph).
struct LegacyLowering {
    dag: RefDag,
    offloaded: Option<NodeId>,
    sync_counter: usize,
}

impl LegacyLowering {
    fn region(&mut self, program: &Program, entry: NodeId) -> NodeId {
        let mut current = entry;
        let mut open: Vec<NodeId> = Vec::new();
        for stmt in program.stmts() {
            match stmt {
                Stmt::Work(label, wcet) => {
                    let v = self.dag.add_labeled_node(label.clone(), Ticks::new(*wcet));
                    self.dag.add_edge(current, v).expect("fresh work edge");
                    current = v;
                }
                Stmt::Spawn(sub) => {
                    let exit = self.region(sub, current);
                    open.push(exit);
                }
                Stmt::Offload(label, wcet) => {
                    assert!(self.offloaded.is_none(), "parity inputs have ≤ 1 offload");
                    let v = self.dag.add_labeled_node(label.clone(), Ticks::new(*wcet));
                    self.dag.add_edge(current, v).expect("fresh offload edge");
                    self.offloaded = Some(v);
                    open.push(v);
                }
                Stmt::Taskwait => {
                    current = self.join(current, &mut open);
                }
            }
        }
        self.join(current, &mut open)
    }

    fn join(&mut self, current: NodeId, open: &mut Vec<NodeId>) -> NodeId {
        if open.is_empty() {
            return current;
        }
        let j = self
            .dag
            .add_labeled_node(format!("taskwait{}", self.sync_counter), Ticks::ZERO);
        self.sync_counter += 1;
        for exit in open.drain(..) {
            if !self.dag.has_edge(exit, j) {
                self.dag.add_edge(exit, j).expect("deduped join edge");
            }
        }
        if !self.dag.has_edge(current, j) {
            self.dag.add_edge(current, j).expect("deduped join edge");
        }
        j
    }
}

fn legacy_lower(program: &Program) -> (Dag, Option<NodeId>) {
    let mut lowering = LegacyLowering {
        dag: RefDag::new(),
        offloaded: None,
        sync_counter: 0,
    };
    let source = lowering.dag.add_labeled_node("entry", Ticks::ZERO);
    lowering.region(program, source);
    (
        legacy_transitive_reduction(&lowering.dag).freeze(),
        lowering.offloaded,
    )
}

/// A random structured program: works, nested spawns (some empty — the
/// case that makes the join dedup matter), taskwaits, at most one
/// offload.
fn random_program<R: Rng + ?Sized>(rng: &mut R, depth: usize, offload_budget: &mut u32) -> Program {
    let len = rng.gen_range(1..=5);
    let mut stmts = Vec::with_capacity(len);
    for i in 0..len {
        let roll = rng.gen_range(0u32..10);
        match roll {
            0..=3 => stmts.push(Stmt::work(format!("w{depth}_{i}"), rng.gen_range(1..=20))),
            4..=6 if depth > 0 => {
                // Empty spawns (~1 in 4) exercise the duplicate-join path.
                let sub = if rng.gen_bool(0.25) {
                    Program::new(Vec::new())
                } else {
                    random_program(rng, depth - 1, offload_budget)
                };
                stmts.push(Stmt::spawn(sub));
            }
            7 if *offload_budget > 0 => {
                *offload_budget -= 1;
                stmts.push(Stmt::offload(
                    format!("off{depth}_{i}"),
                    rng.gen_range(1..=30),
                ));
            }
            _ => stmts.push(Stmt::Taskwait),
        }
    }
    Program::new(stmts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn openmp_builder_path_matches_legacy_mutation_path(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offload_budget = 1u32;
        let program = random_program(&mut rng, 3, &mut offload_budget);
        let (legacy_dag, legacy_off) = legacy_lower(&program);
        let lowered = program.lower().expect("structured programs lower");
        assert_same_dag(&lowered.dag, &legacy_dag, "openmp");
        prop_assert_eq!(lowered.offloaded, legacy_off);
    }
}
