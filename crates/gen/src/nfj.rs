//! Nested fork-join DAG generation (the paper's generator, §5.1).

use hetrta_dag::{Dag, NodeId, Ticks};
use rand::Rng;

use crate::GenError;

/// Parameters of the nested fork-join generator.
///
/// Terminology follows the paper:
///
/// * `p_par` — probability that a node expands into a parallel sub-DAG
///   (the complement `1 − p_par` yields a terminal node);
/// * `n_par` — maximum number of branches of any parallel sub-DAG
///   (each sub-DAG draws its branch count uniformly from `[2, n_par]`);
/// * `max_depth` — maximum recursion depth; it "also determines the longest
///   possible path of the DAG", which is `2·max_depth + 1` nodes (every
///   level adds a fork and a join around its branches);
/// * `n_min ..= n_max` — accepted node-count range, enforced by rejection
///   sampling;
/// * `c_min ..= c_max` — uniform WCET range of every node (paper: `[1, 100]`).
///
/// Construct via [`NfjParams::new`] or the paper presets, then customize
/// with the `with_*` methods:
///
/// ```
/// use hetrta_gen::NfjParams;
///
/// let p = NfjParams::large_tasks().with_node_range(250, 400);
/// assert_eq!(p.n_min(), 250);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NfjParams {
    p_par: f64,
    n_par: usize,
    max_depth: usize,
    n_min: usize,
    n_max: usize,
    c_min: u64,
    c_max: u64,
    max_attempts: usize,
}

impl NfjParams {
    /// Creates parameters with the paper's defaults for everything not
    /// explicitly given: `p_par = 0.5`, WCETs in `[1, 100]`, 100 000
    /// rejection attempts.
    #[must_use]
    pub fn new(n_par: usize, max_depth: usize, n_min: usize, n_max: usize) -> Self {
        NfjParams {
            p_par: 0.5,
            n_par,
            max_depth,
            n_min,
            n_max,
            c_min: 1,
            c_max: 100,
            max_attempts: 100_000,
        }
    }

    /// The paper's *small tasks*: `n ≤ 100`, `n_par = 6`, `max_depth = 3`
    /// (longest possible path: 7 nodes). Used for the ILP-comparison
    /// experiment (Fig. 7).
    #[must_use]
    pub fn small_tasks() -> Self {
        NfjParams::new(6, 3, 3, 100)
    }

    /// The paper's *large tasks*: `n ∈ [100, 400]`, `n_par = 8`,
    /// `max_depth = 5` (longest possible path: 11 nodes). Used for
    /// Figs. 6, 8 and 9.
    #[must_use]
    pub fn large_tasks() -> Self {
        NfjParams::new(8, 5, 100, 400)
    }

    /// The *large-graph* tier (beyond the paper's sizes): nested
    /// fork-join graphs of up to `n_max` nodes, accepted from
    /// `n_max / 4` upward.
    ///
    /// The recursion depth is derived from the target size (the NFJ
    /// process grows geometrically with depth, roughly ×5 per level at
    /// `n_par = 8`), and the expansion probability is raised to `0.85` so
    /// degenerate single-node samples are rare. Rejected samples are only
    /// drawn, never built, and the accepted one is built in
    /// `O(|V| + |E|)`, which is what makes this tier practical: `hetrta engine sweep
    /// --n-max 10000` sweeps ten-thousand-node DAGs.
    ///
    /// # Examples
    ///
    /// ```
    /// use hetrta_gen::NfjParams;
    ///
    /// let p = NfjParams::large_graphs(10_000);
    /// assert_eq!(p.n_min(), 2_500);
    /// assert_eq!(p.n_max(), 10_000);
    /// ```
    #[must_use]
    pub fn large_graphs(n_max: usize) -> Self {
        // depth ≈ log₅(0.75·n_max): lands the typical sample size inside
        // the [n_max/4, n_max] acceptance window (tuned empirically).
        let target = (0.75 * n_max.max(4) as f64).ln() / 5f64.ln();
        let depth = (target.round() as usize).max(3);
        NfjParams::new(8, depth, (n_max / 4).max(1), n_max)
            .with_p_par(0.85)
            .with_max_attempts(1_000)
    }

    /// Sets the probability of parallel expansion.
    #[must_use]
    pub fn with_p_par(mut self, p_par: f64) -> Self {
        self.p_par = p_par;
        self
    }

    /// Sets the accepted node-count range.
    #[must_use]
    pub fn with_node_range(mut self, n_min: usize, n_max: usize) -> Self {
        self.n_min = n_min;
        self.n_max = n_max;
        self
    }

    /// Sets the WCET range `[c_min, c_max]`.
    #[must_use]
    pub fn with_wcet_range(mut self, c_min: u64, c_max: u64) -> Self {
        self.c_min = c_min;
        self.c_max = c_max;
        self
    }

    /// Sets the rejection-sampling attempt budget.
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Probability of parallel expansion.
    #[must_use]
    pub fn p_par(&self) -> f64 {
        self.p_par
    }

    /// Maximum branches per parallel sub-DAG.
    #[must_use]
    pub fn n_par(&self) -> usize {
        self.n_par
    }

    /// Maximum recursion depth.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Minimum accepted node count.
    #[must_use]
    pub fn n_min(&self) -> usize {
        self.n_min
    }

    /// Maximum accepted node count.
    #[must_use]
    pub fn n_max(&self) -> usize {
        self.n_max
    }

    /// Minimum per-node WCET (ticks).
    #[must_use]
    pub fn c_min(&self) -> u64 {
        self.c_min
    }

    /// Maximum per-node WCET (ticks).
    #[must_use]
    pub fn c_max(&self) -> u64 {
        self.c_max
    }

    /// Rejection-sampling attempt budget.
    #[must_use]
    pub fn max_attempts(&self) -> usize {
        self.max_attempts
    }

    /// Longest possible path (in nodes) any generated DAG can have:
    /// `2·max_depth + 1`.
    #[must_use]
    pub fn longest_possible_path(&self) -> usize {
        2 * self.max_depth + 1
    }

    fn validate(&self) -> Result<(), GenError> {
        if !(0.0..=1.0).contains(&self.p_par) {
            return Err(GenError::InvalidParams(format!(
                "p_par = {} not in [0, 1]",
                self.p_par
            )));
        }
        if self.n_par < 2 {
            return Err(GenError::InvalidParams(format!(
                "n_par = {} must be ≥ 2",
                self.n_par
            )));
        }
        if self.n_min == 0 || self.n_min > self.n_max {
            return Err(GenError::InvalidParams(format!(
                "node range [{}, {}] is empty or zero",
                self.n_min, self.n_max
            )));
        }
        if self.c_min == 0 || self.c_min > self.c_max {
            return Err(GenError::InvalidParams(format!(
                "WCET range [{}, {}] is empty or contains zero",
                self.c_min, self.c_max
            )));
        }
        if self.max_attempts == 0 {
            return Err(GenError::InvalidParams("max_attempts must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// Generates one random nested fork-join DAG according to `params`.
///
/// The recursive expansion starts from a single node. A node at depth
/// `d < max_depth` becomes, with probability `p_par`, a parallel sub-DAG:
/// a fork node, `b ∈ [2, n_par]` recursively expanded branches and a join
/// node. Otherwise it becomes a terminal node. Every materialized node draws
/// its WCET uniformly from `[c_min, c_max]`.
///
/// By construction the result is acyclic, has exactly one source and one
/// sink, and contains no transitive edges — it satisfies the paper's task
/// model without post-processing.
///
/// # Errors
///
/// - [`GenError::InvalidParams`] for inconsistent parameters;
/// - [`GenError::AttemptsExhausted`] if no sample hits `[n_min, n_max]`
///   within the attempt budget.
///
/// # Examples
///
/// ```
/// use hetrta_gen::{generate_nfj, NfjParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let dag = generate_nfj(&NfjParams::small_tasks(), &mut rng)?;
/// assert!(dag.node_count() >= 3 && dag.node_count() <= 100);
/// # Ok::<(), hetrta_gen::GenError>(())
/// ```
pub fn generate_nfj<R: Rng + ?Sized>(params: &NfjParams, rng: &mut R) -> Result<Dag, GenError> {
    params.validate()?;
    let mut shape = Vec::new();
    for attempt in 1..=params.max_attempts {
        // Draw the sample's shape first — every random value, in the
        // expansion's order — and materialize only a sample the rejection
        // sampler accepts. A rejected sample costs its draws, not a graph
        // of nodes, labels and edges, so generation time tracks the
        // accepted graph's size rather than how many samples a seed
        // happens to reject.
        shape.clear();
        let n = draw_shape(&mut shape, 0, params, rng);
        if n >= params.n_min && n <= params.n_max {
            // Valid by construction (acyclic, single terminals, no
            // transitive edges), so the unvalidated freeze suffices.
            let dag = materialize(&shape, n);
            debug_assert!(hetrta_dag::validate_task_model(&dag).is_ok());
            return Ok(dag);
        }
        if attempt == params.max_attempts {
            return Err(GenError::AttemptsExhausted { attempts: attempt });
        }
    }
    unreachable!("loop returns or errors on the last attempt")
}

/// One abstract node of a drawn sample, in expansion pre-order.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A fork and a join around `branches` sub-DAGs (the steps that
    /// follow, one subtree each).
    Parallel {
        fork: Ticks,
        join: Ticks,
        branches: usize,
    },
    /// A single node.
    Terminal(Ticks),
}

/// Expands one abstract node at `depth` without building it: appends its
/// steps to `shape` and returns its node count. The draws — expansion
/// coin, fork and join WCETs, branch count, then each branch — are those
/// of building the node directly, so the RNG stream is the same either
/// way.
fn draw_shape<R: Rng + ?Sized>(
    shape: &mut Vec<Step>,
    depth: usize,
    params: &NfjParams,
    rng: &mut R,
) -> usize {
    let wcet = |rng: &mut R| Ticks::new(rng.gen_range(params.c_min..=params.c_max));
    if depth < params.max_depth && rng.gen_bool(params.p_par) {
        let fork = wcet(rng);
        let join = wcet(rng);
        let branches = rng.gen_range(2..=params.n_par);
        shape.push(Step::Parallel {
            fork,
            join,
            branches,
        });
        let mut n = 2;
        for _ in 0..branches {
            n += draw_shape(shape, depth + 1, params, rng);
        }
        n
    } else {
        shape.push(Step::Terminal(wcet(rng)));
        1
    }
}

/// The graph of a drawn `shape` with `n` nodes: nodes in creation order
/// (fork, join, then each branch), edges in insertion order (fork → entry,
/// exit → join after each branch), labels `fork@d` / `join@d` / `t@d`.
fn materialize(shape: &[Step], n: usize) -> Dag {
    let mut parts = Parts {
        wcets: Vec::with_capacity(n),
        labels: Vec::with_capacity(n),
        // Every step but the root is one branch: two edges each.
        edges: Vec::with_capacity(2 * (shape.len() - 1)),
        depth_labels: Vec::new(),
    };
    let mut steps = shape.iter();
    parts.expand(&mut steps, 0);
    debug_assert!(steps.next().is_none() && parts.wcets.len() == n);
    Dag::from_parts(parts.wcets, parts.labels, &parts.edges)
}

/// The graph under construction by [`materialize`].
struct Parts {
    wcets: Vec<Ticks>,
    labels: Vec<String>,
    edges: Vec<(NodeId, NodeId)>,
    /// `[fork, join, terminal]` labels per depth, formatted once.
    depth_labels: Vec<[String; 3]>,
}

impl Parts {
    /// Builds the next abstract node of `steps` at `depth`; returns its
    /// (entry, exit) node ids.
    fn expand(&mut self, steps: &mut std::slice::Iter<'_, Step>, depth: usize) -> (NodeId, NodeId) {
        if depth == self.depth_labels.len() {
            self.depth_labels.push([
                format!("fork@{depth}"),
                format!("join@{depth}"),
                format!("t@{depth}"),
            ]);
        }
        match *steps.next().expect("the shape covers every node") {
            Step::Parallel {
                fork,
                join,
                branches,
            } => {
                let fork = self.node(depth, 0, fork);
                let join = self.node(depth, 1, join);
                for _ in 0..branches {
                    let (entry, exit) = self.expand(steps, depth + 1);
                    self.edges.push((fork, entry));
                    self.edges.push((exit, join));
                }
                (fork, join)
            }
            Step::Terminal(wcet) => {
                let t = self.node(depth, 2, wcet);
                (t, t)
            }
        }
    }

    fn node(&mut self, depth: usize, kind: usize, wcet: Ticks) -> NodeId {
        let id = NodeId::from_index(self.wcets.len());
        self.wcets.push(wcet);
        self.labels.push(self.depth_labels[depth][kind].clone());
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_dag::algo::{transitive, CriticalPath};
    use hetrta_dag::{validate_task_model, DagBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn presets_match_paper() {
        let small = NfjParams::small_tasks();
        assert_eq!(small.n_par(), 6);
        assert_eq!(small.max_depth(), 3);
        assert_eq!(small.longest_possible_path(), 7);
        let large = NfjParams::large_tasks();
        assert_eq!(large.n_par(), 8);
        assert_eq!(large.max_depth(), 5);
        assert_eq!(large.longest_possible_path(), 11);
        assert_eq!(large.p_par(), 0.5);
    }

    #[test]
    fn generated_dags_satisfy_task_model() {
        let mut rng = StdRng::seed_from_u64(42);
        let params = NfjParams::small_tasks();
        for _ in 0..50 {
            let dag = generate_nfj(&params, &mut rng).unwrap();
            validate_task_model(&dag).expect("model holds");
            assert!(transitive::is_transitively_reduced(&dag).unwrap());
        }
    }

    #[test]
    fn node_counts_respect_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = NfjParams::large_tasks().with_node_range(100, 250);
        for _ in 0..10 {
            let dag = generate_nfj(&params, &mut rng).unwrap();
            assert!(
                (100..=250).contains(&dag.node_count()),
                "n = {}",
                dag.node_count()
            );
        }
    }

    #[test]
    fn longest_path_bounded_by_depth() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = NfjParams::small_tasks().with_wcet_range(1, 1);
        for _ in 0..30 {
            let dag = generate_nfj(&params, &mut rng).unwrap();
            // WCETs all 1, so len(G) equals the hop count of the longest path.
            let len = CriticalPath::of(&dag).length().get() as usize;
            assert!(len <= params.longest_possible_path());
        }
    }

    #[test]
    fn wcets_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let params = NfjParams::small_tasks().with_wcet_range(5, 9);
        let dag = generate_nfj(&params, &mut rng).unwrap();
        for v in dag.node_ids() {
            let c = dag.wcet(v).get();
            assert!((5..=9).contains(&c));
        }
    }

    #[test]
    fn p_par_zero_yields_single_node() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = NfjParams::new(4, 3, 1, 1).with_p_par(0.0);
        let dag = generate_nfj(&params, &mut rng).unwrap();
        assert_eq!(dag.node_count(), 1);
    }

    #[test]
    fn p_par_one_always_expands_to_full_depth() {
        let mut rng = StdRng::seed_from_u64(1);
        // With p_par = 1 every node expands until max_depth, so the DAG has
        // at least 2·max_depth + 1 nodes on its longest chain.
        let params = NfjParams::new(2, 2, 1, 1000)
            .with_p_par(1.0)
            .with_wcet_range(1, 1);
        let dag = generate_nfj(&params, &mut rng).unwrap();
        let len = CriticalPath::of(&dag).length().get() as usize;
        assert_eq!(len, params.longest_possible_path());
    }

    #[test]
    fn unreachable_range_exhausts_attempts() {
        let mut rng = StdRng::seed_from_u64(1);
        // Node counts of the NFJ process are odd at p_par=0 (exactly 1);
        // requiring n = 2 can never succeed.
        let params = NfjParams::new(4, 2, 2, 2)
            .with_p_par(0.0)
            .with_max_attempts(10);
        assert_eq!(
            generate_nfj(&params, &mut rng).unwrap_err(),
            GenError::AttemptsExhausted { attempts: 10 }
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let bad_p = NfjParams::small_tasks().with_p_par(1.5);
        assert!(matches!(
            generate_nfj(&bad_p, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
        let bad_range = NfjParams::small_tasks().with_node_range(10, 5);
        assert!(matches!(
            generate_nfj(&bad_range, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
        let bad_wcet = NfjParams::small_tasks().with_wcet_range(0, 10);
        assert!(matches!(
            generate_nfj(&bad_wcet, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
        let bad_npar = NfjParams::new(1, 3, 1, 10);
        assert!(matches!(
            generate_nfj(&bad_npar, &mut rng),
            Err(GenError::InvalidParams(_))
        ));
    }

    /// The builder-based generator the shape-first one replaced: every
    /// attempt builds its sample through a [`DagBuilder`].
    fn reference_generate(params: &NfjParams, rng: &mut StdRng) -> Option<Dag> {
        fn expand(
            b: &mut DagBuilder,
            depth: usize,
            params: &NfjParams,
            rng: &mut StdRng,
        ) -> (NodeId, NodeId) {
            let wcet = |rng: &mut StdRng| Ticks::new(rng.gen_range(params.c_min..=params.c_max));
            if depth < params.max_depth && rng.gen_bool(params.p_par) {
                let fork = b.node(format!("fork@{depth}"), wcet(rng));
                let join = b.node(format!("join@{depth}"), wcet(rng));
                let branches = rng.gen_range(2..=params.n_par);
                for _ in 0..branches {
                    let (entry, exit) = expand(b, depth + 1, params, rng);
                    b.edge(fork, entry).unwrap();
                    b.edge(exit, join).unwrap();
                }
                (fork, join)
            } else {
                let t = b.node(format!("t@{depth}"), wcet(rng));
                (t, t)
            }
        }
        for _ in 0..params.max_attempts {
            let mut b = DagBuilder::new();
            expand(&mut b, 0, params, rng);
            if (params.n_min..=params.n_max).contains(&b.node_count()) {
                return Some(b.freeze());
            }
        }
        None
    }

    #[test]
    fn shape_first_generation_matches_the_builder_reference() {
        let cases = [
            NfjParams::small_tasks(),
            NfjParams::large_tasks(),
            NfjParams::large_tasks().with_node_range(150, 200),
            NfjParams::large_graphs(20_000),
            NfjParams::new(3, 4, 1, 1_000).with_p_par(1.0),
            NfjParams::new(4, 2, 2, 2)
                .with_p_par(0.0)
                .with_max_attempts(5),
        ];
        for params in &cases {
            for seed in 0..12 {
                let mut fast = StdRng::seed_from_u64(seed);
                let mut slow = StdRng::seed_from_u64(seed);
                let got = generate_nfj(params, &mut fast).ok();
                let want = reference_generate(params, &mut slow);
                // The RNG stream continues identically (task offloading
                // draws from it next).
                assert_eq!(
                    fast.gen::<u64>(),
                    slow.gen::<u64>(),
                    "{params:?} seed {seed}"
                );
                let (got, want) = match (got, want) {
                    (Some(got), Some(want)) => (got, want),
                    (None, None) => continue,
                    _ => panic!("{params:?} seed {seed}: only one generator failed"),
                };
                assert_eq!(got.node_count(), want.node_count());
                assert_eq!(got.edge_count(), want.edge_count());
                for v in want.node_ids() {
                    assert_eq!(got.wcet(v), want.wcet(v));
                    assert_eq!(got.label(v), want.label(v));
                    assert_eq!(got.successors(v), want.successors(v));
                    assert_eq!(got.predecessors(v), want.predecessors(v));
                }
            }
        }
    }

    #[test]
    fn determinism_per_seed() {
        let params = NfjParams::small_tasks();
        let d1 = generate_nfj(&params, &mut StdRng::seed_from_u64(99)).unwrap();
        let d2 = generate_nfj(&params, &mut StdRng::seed_from_u64(99)).unwrap();
        assert_eq!(d1.node_count(), d2.node_count());
        assert_eq!(d1.edge_count(), d2.edge_count());
        assert_eq!(d1.volume(), d2.volume());
    }
}
