//! Response-time analysis: Equation 1 (`R_hom`) and Theorem 1 (`R_het`).
//!
//! All bounds are computed in exact [`Rational`] arithmetic: the equations
//! divide integer workloads by the core count `m`, and the *comparison*
//! `C_off ⋛ R_hom(G_par)` decides which bound applies — floating-point
//! round-off there could select the wrong scenario.

use core::fmt;

use hetrta_dag::algo::CriticalPath;
use hetrta_dag::{Dag, DagTask, Rational, Ticks};

use crate::transform::TransformedTask;
use crate::AnalysisError;

/// The execution scenario of Theorem 1 that applies to a transformed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// **Scenario 1**: `v_off` does not belong to the critical path of `G'`.
    /// Some path of `G_par` is longer than `C_off`, so the offloaded node
    /// can never delay the task; its WCET is discounted from the
    /// self-interference term (Eq. 2).
    OffNotOnCriticalPath,
    /// **Scenario 2.1**: `v_off` is on the critical path and
    /// `C_off ≥ R_hom(G_par)` — the host finishes the parallel sub-DAG
    /// before the accelerator returns, so *all* of `vol(G_par)` is
    /// discounted (Eq. 3).
    OffOnCriticalPathDominant,
    /// **Scenario 2.2**: `v_off` is on the critical path but
    /// `C_off ≤ R_hom(G_par)` — the parallel sub-DAG determines the finish
    /// of the barrier section; `C_off` is replaced by `R_hom(G_par)` in the
    /// chain term (Eq. 4).
    OffOnCriticalPathDominated,
}

impl Scenario {
    /// The paper's label for the scenario (`"1"`, `"2.1"`, `"2.2"`).
    #[must_use]
    pub fn paper_label(self) -> &'static str {
        match self {
            Scenario::OffNotOnCriticalPath => "1",
            Scenario::OffOnCriticalPathDominant => "2.1",
            Scenario::OffOnCriticalPathDominated => "2.2",
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario {}", self.paper_label())
    }
}

/// Equation 1 applied to a bare graph: `R_hom(G) = len(G) + (vol(G) − len(G))/m`.
///
/// This is the classical bound for a DAG executed by any work-conserving
/// scheduler on `m` identical cores. The paper also applies it to the
/// (possibly disconnected, multi-terminal) sub-DAG `G_par`, which this
/// function supports; an empty graph yields zero.
///
/// # Errors
///
/// - [`AnalysisError::ZeroCores`] if `m == 0`;
/// - [`AnalysisError::Dag`] if the graph is cyclic.
///
/// # Examples
///
/// ```
/// use hetrta_core::r_hom_dag;
/// use hetrta_dag::{DagBuilder, Rational, Ticks};
///
/// let mut b = DagBuilder::new();
/// let v1 = b.unlabeled_node(Ticks::new(4));
/// let v2 = b.unlabeled_node(Ticks::new(4));
/// b.edge(v1, v2)?;
/// let dag = b.build()?;
/// // len = 8, vol = 8 → bound 8 regardless of m
/// assert_eq!(r_hom_dag(&dag, 4)?, Rational::from_integer(8));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn r_hom_dag(dag: &Dag, m: u64) -> Result<Rational, AnalysisError> {
    if m == 0 {
        return Err(AnalysisError::ZeroCores);
    }
    let len = CriticalPath::try_of(dag)?.length();
    let vol = dag.volume();
    Ok(graham(len, vol, len, m))
}

/// Equation 1 from precomputed parts: `len(G) + (vol(G) − len(G))/m`.
///
/// Operation-for-operation identical to [`r_hom_dag`] — callers that
/// already hold `len(G)` and `vol(G)` (e.g. through a derived-data cache
/// or a [`TransformedTask`]) skip the critical-path recomputation and get
/// the bitwise-same rational.
///
/// # Errors
///
/// [`AnalysisError::ZeroCores`] if `m == 0`.
pub fn r_hom_parts(len: Ticks, vol: Ticks, m: u64) -> Result<Rational, AnalysisError> {
    if m == 0 {
        return Err(AnalysisError::ZeroCores);
    }
    Ok(graham(len, vol, len, m))
}

/// `chain + (vol − discount)/m` with everything exact.
fn graham(chain: Ticks, vol: Ticks, discount: Ticks, m: u64) -> Rational {
    debug_assert!(vol >= discount);
    chain.to_rational()
        + Rational::new((vol - discount).get() as i128, 1) / Rational::from_integer(m as i128)
}

/// Equation 1 on a task: `R_hom(τ)`.
///
/// # Errors
///
/// See [`r_hom_dag`].
pub fn r_hom(task: &DagTask, m: u64) -> Result<Rational, AnalysisError> {
    r_hom_dag(task.dag(), m)
}

/// The result of Theorem 1 for one transformed task and core count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HetBound {
    scenario: Scenario,
    r_het: Rational,
    r_hom_g_par: Rational,
    r_hom_transformed: Rational,
    m: u64,
}

impl HetBound {
    /// Which scenario of Theorem 1 applied.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The heterogeneous response-time upper bound `R_het(τ')`, exactly as
    /// stated by Theorem 1.
    #[must_use]
    pub fn value(&self) -> Rational {
        self.r_het
    }

    /// `min(R_het(τ'), R_hom(G'))` — never worse than the homogeneous
    /// bound on the transformed graph (see the Scenario 2.2 tightness
    /// note in the [`r_het`] documentation).
    #[must_use]
    pub fn tight_value(&self) -> Rational {
        self.r_het.min(self.r_hom_transformed)
    }

    /// Eq. 1 applied to the transformed graph `G'`.
    #[must_use]
    pub fn r_hom_transformed(&self) -> Rational {
        self.r_hom_transformed
    }

    /// `R_hom(G_par)` — the Eq. 1 bound of the parallel sub-DAG, the pivot
    /// of the scenario 2.1 / 2.2 distinction.
    #[must_use]
    pub fn r_hom_g_par(&self) -> Rational {
        self.r_hom_g_par
    }

    /// The host core count the bound was computed for.
    #[must_use]
    pub fn cores(&self) -> u64 {
        self.m
    }
}

/// Theorem 1: the heterogeneous response-time bound `R_het(τ')` of a
/// transformed task on `m` host cores plus one accelerator.
///
/// The three scenarios (see [`Scenario`]) are selected exactly as in the
/// paper:
///
/// 1. `v_off ∉` critical path of `G'` → Eq. 2:
///    `len(G') + (vol(G') − len(G') − C_off)/m`;
/// 2. `v_off ∈` critical path and `C_off ≥ R_hom(G_par)` → Eq. 3:
///    `len(G') + (vol(G') − len(G') − vol(G_par))/m`;
/// 3. `v_off ∈` critical path and `C_off < R_hom(G_par)` → Eq. 4:
///    `len(G') − C_off + len(G_par) + (vol(G') − len(G') − len(G_par))/m`.
///
/// At `C_off = R_hom(G_par)` Equations 3 and 4 coincide (shown in the paper
/// after the proof); we classify the boundary as Scenario 2.1.
///
/// ## A note on Scenario 2.2 tightness
///
/// Theorem 1 is derived for the generic transformed structure of the
/// paper's Figure 4, where `G_par` and `v_off` rejoin before the remaining
/// sub-DAG. On arbitrary task graphs (still within the model) the exits of
/// `G_par` may attach at different depths of `Succ(v_off)`; Equation 4 then
/// remains a *sound* upper bound but can exceed the plain Eq. 1 bound on
/// `G'` (it inflates the chain term by `len(G_par) − C_off` while only
/// discounting `len(G_par)/m`). [`HetBound::value`] returns the faithful
/// Theorem 1 value; use [`HetBound::tight_value`] for
/// `min(R_het, R_hom(G'))`, which is sound for `τ'` because both inputs
/// are.
///
/// # Errors
///
/// Returns [`AnalysisError::ZeroCores`] if `m == 0`.
///
/// # Examples
///
/// ```
/// use hetrta_core::{r_het, transform, Scenario};
/// use hetrta_dag::{DagBuilder, HeteroDagTask, Rational, Ticks};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Figure 1(a) of the paper (reconstructed WCETs), m = 2.
/// let mut b = DagBuilder::new();
/// let v1 = b.node("v1", Ticks::new(1));
/// let v2 = b.node("v2", Ticks::new(4));
/// let v3 = b.node("v3", Ticks::new(6));
/// let v4 = b.node("v4", Ticks::new(2));
/// let v5 = b.node("v5", Ticks::new(1));
/// let voff = b.node("v_off", Ticks::new(4));
/// b.edges([(v1, v2), (v1, v3), (v1, v4), (v4, voff), (v2, v5), (v3, v5), (voff, v5)])?;
/// let task = HeteroDagTask::new(b.build()?, voff, Ticks::new(50), Ticks::new(50))?;
///
/// let bound = r_het(&transform(&task)?, 2)?;
/// assert_eq!(bound.scenario(), Scenario::OffNotOnCriticalPath);
/// // Eq. 2: 10 + (18 − 10 − 4)/2 = 12
/// assert_eq!(bound.value(), Rational::from_integer(12));
/// # Ok(())
/// # }
/// ```
pub fn r_het(t: &TransformedTask, m: u64) -> Result<HetBound, AnalysisError> {
    if m == 0 {
        return Err(AnalysisError::ZeroCores);
    }
    let len2 = t.len_transformed();
    let vol2 = t.vol_transformed();
    let c_off = t.c_off();
    // `len(G_par)` and `vol(G_par)` were computed by the transformation;
    // feeding them to Eq. 1 directly is bitwise identical to re-deriving
    // the critical path of `G_par` here.
    let r_hom_g_par = graham(t.len_g_par(), t.vol_g_par(), t.len_g_par(), m);
    let r_hom_transformed = graham(len2, vol2, len2, m);

    let (scenario, r_het) = if !t.off_on_critical_path() {
        // Eq. 2. vol(G') − len(G') ≥ C_off because v_off is outside the
        // critical path, so the subtraction below cannot underflow.
        (
            Scenario::OffNotOnCriticalPath,
            graham(len2, vol2, len2 + c_off, m),
        )
    } else if c_off.to_rational() >= r_hom_g_par {
        // Eq. 3.
        (
            Scenario::OffOnCriticalPathDominant,
            graham(len2, vol2, len2 + t.vol_g_par(), m),
        )
    } else {
        // Eq. 4.
        let chain = len2 - c_off + t.len_g_par();
        (
            Scenario::OffOnCriticalPathDominated,
            graham(chain, vol2, len2 + t.len_g_par(), m),
        )
    };
    Ok(HetBound {
        scenario,
        r_het,
        r_hom_g_par,
        r_hom_transformed,
        m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::transform;
    use hetrta_dag::{DagBuilder, HeteroDagTask, NodeId};

    fn figure1_task() -> HeteroDagTask {
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
        HeteroDagTask::new(b.build().unwrap(), voff, Ticks::new(50), Ticks::new(50)).unwrap()
    }

    /// Builds a fork-join task `src → {host_chain, v_off} → sink` where the
    /// host branch is a chain of `k` nodes of WCET `w` and `C_off` is given.
    fn forkjoin_task(k: usize, w: u64, c_off: u64) -> HeteroDagTask {
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ONE);
        let sink = b.node("sink", Ticks::ONE);
        let voff = b.node("v_off", Ticks::new(c_off));
        b.edge(src, voff).unwrap();
        b.edge(voff, sink).unwrap();
        let mut prev = src;
        for i in 0..k {
            let v = b.node(format!("h{i}"), Ticks::new(w));
            b.edge(prev, v).unwrap();
            prev = v;
        }
        b.edge(prev, sink).unwrap();
        HeteroDagTask::new(
            b.build().unwrap(),
            voff,
            Ticks::new(10_000),
            Ticks::new(10_000),
        )
        .unwrap()
    }

    #[test]
    fn r_hom_matches_paper_example() {
        let task = figure1_task();
        let r = r_hom(&task.as_homogeneous(), 2).unwrap();
        assert_eq!(r, Rational::from_integer(13));
    }

    #[test]
    fn r_hom_is_exact_rational_for_odd_interference() {
        let task = figure1_task();
        // m = 4: 8 + 10/4 = 10.5
        let r = r_hom(&task.as_homogeneous(), 4).unwrap();
        assert_eq!(r, Rational::new(21, 2));
    }

    #[test]
    fn r_hom_zero_cores_rejected() {
        let task = figure1_task();
        assert_eq!(
            r_hom(&task.as_homogeneous(), 0).unwrap_err(),
            AnalysisError::ZeroCores
        );
        let t = transform(&task).unwrap();
        assert_eq!(r_het(&t, 0).unwrap_err(), AnalysisError::ZeroCores);
    }

    #[test]
    fn r_hom_empty_graph_is_zero() {
        assert_eq!(r_hom_dag(&Dag::new(), 2).unwrap(), Rational::ZERO);
    }

    #[test]
    fn figure1_is_scenario_1_with_bound_12() {
        let t = transform(&figure1_task()).unwrap();
        let b = r_het(&t, 2).unwrap();
        assert_eq!(b.scenario(), Scenario::OffNotOnCriticalPath);
        assert_eq!(b.value(), Rational::from_integer(12));
        // R_hom(G_par) = 6 + (10-6)/2 = 8 > C_off = 4, consistent with
        // len(G_par) > C_off required by Scenario 1.
        assert_eq!(b.r_hom_g_par(), Rational::from_integer(8));
        assert_eq!(b.cores(), 2);
    }

    #[test]
    fn scenario_2_1_when_c_off_dominates() {
        // Host branch: 2 nodes of WCET 2 (len 4, vol 4); C_off = 50.
        // After transform, v_off is on the critical path and
        // C_off ≥ R_hom(G_par).
        let task = forkjoin_task(2, 2, 50);
        let t = transform(&task).unwrap();
        let b = r_het(&t, 2).unwrap();
        assert_eq!(b.scenario(), Scenario::OffOnCriticalPathDominant);
        // G' chain: src(1) → v_sync(0) → v_off(50) → sink(1): len 52.
        assert_eq!(t.len_transformed(), Ticks::new(52));
        // vol = 1+1+50+4 = 56, vol(G_par) = 4 → R = 52 + (56-52-4)/2 = 52.
        assert_eq!(b.value(), Rational::from_integer(52));
    }

    #[test]
    fn scenario_2_2_when_g_par_dominates() {
        // Host branch: 4 nodes of WCET 5 (len 20 = vol, chain); C_off = 10.
        // v_off on critical path? G' chain through host branch:
        // src(1) + sync(0) + 20 + sink(1) = 22; through v_off: 12. So v_off
        // NOT on critical path → scenario 1. To force scenario 2 we need
        // C_off > len(G_par) but C_off < R_hom(G_par): make G_par wide.
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ONE);
        let sink = b.node("sink", Ticks::ONE);
        let voff = b.node("v_off", Ticks::new(12));
        b.edge(src, voff).unwrap();
        b.edge(voff, sink).unwrap();
        // 6 parallel host nodes of WCET 5: len(G_par) = 5, vol = 30,
        // R_hom(G_par) on m=2 = 5 + 25/2 = 17.5 > C_off = 12 > len = 5.
        for i in 0..6 {
            let v = b.node(format!("p{i}"), Ticks::new(5));
            b.edge(src, v).unwrap();
            b.edge(v, sink).unwrap();
        }
        let task = HeteroDagTask::new(b.build().unwrap(), voff, Ticks::new(1000), Ticks::new(1000))
            .unwrap();
        let t = transform(&task).unwrap();
        // G' critical path: src(1) → sync(0) → v_off(12) → sink(1) = 14
        // vs parallel nodes: 1+0+5+1 = 7. So v_off IS on the critical path.
        assert!(t.off_on_critical_path());
        let bound = r_het(&t, 2).unwrap();
        assert_eq!(bound.scenario(), Scenario::OffOnCriticalPathDominated);
        // Eq. 4: len(G')=14, vol=44, len(G_par)=5, C_off=12:
        // 14 − 12 + 5 + (44 − 14 − 5)/2 = 7 + 12.5 = 19.5
        assert_eq!(bound.value(), Rational::new(39, 2));
        assert_eq!(bound.r_hom_g_par(), Rational::new(35, 2));
    }

    #[test]
    fn boundary_c_off_equals_r_hom_gpar_scenarios_coincide() {
        // Same wide structure, C_off tuned so C_off = R_hom(G_par).
        // 4 parallel nodes of WCET 4 on m=2: R_hom(G_par) = 4 + 12/2 = 10.
        let mut b = DagBuilder::new();
        let src = b.node("src", Ticks::ONE);
        let sink = b.node("sink", Ticks::ONE);
        let voff = b.node("v_off", Ticks::new(10));
        b.edge(src, voff).unwrap();
        b.edge(voff, sink).unwrap();
        for i in 0..4 {
            let v = b.node(format!("p{i}"), Ticks::new(4));
            b.edge(src, v).unwrap();
            b.edge(v, sink).unwrap();
        }
        let task = HeteroDagTask::new(b.build().unwrap(), voff, Ticks::new(1000), Ticks::new(1000))
            .unwrap();
        let t = transform(&task).unwrap();
        let bound = r_het(&t, 2).unwrap();
        assert_eq!(bound.scenario(), Scenario::OffOnCriticalPathDominant);
        // Eq. 3: len(G') = 12, vol = 28, vol(G_par) = 16:
        //   12 + (28 − 12 − 16)/2 = 12.
        assert_eq!(bound.value(), Rational::from_integer(12));
        // Eq. 4 at the boundary gives the same value:
        //   12 − 10 + 4 + (28 − 12 − 4)/2 = 6 + 6 = 12. (paper remark)
        let eq4 = Rational::from_integer(12 - 10 + 4) + Rational::new(28 - 12 - 4, 2);
        assert_eq!(eq4, bound.value());
    }

    #[test]
    fn degenerate_chain_is_scenario_2_1() {
        let mut b = DagBuilder::new();
        let a = b.node("a", Ticks::new(2));
        let k = b.node("k", Ticks::new(5));
        let z = b.node("z", Ticks::new(2));
        b.edges([(a, k), (k, z)]).unwrap();
        let task =
            HeteroDagTask::new(b.build().unwrap(), k, Ticks::new(20), Ticks::new(20)).unwrap();
        let t = transform(&task).unwrap();
        let bound = r_het(&t, 4).unwrap();
        // G_par empty: R_hom(G_par) = 0 ≤ C_off → scenario 2.1;
        // R = len(G') + (vol − len − 0)/m = 9 + 0/4 = 9.
        assert_eq!(bound.scenario(), Scenario::OffOnCriticalPathDominant);
        assert_eq!(bound.value(), Rational::from_integer(9));
    }

    #[test]
    fn scenario_labels() {
        assert_eq!(Scenario::OffNotOnCriticalPath.paper_label(), "1");
        assert_eq!(Scenario::OffOnCriticalPathDominant.paper_label(), "2.1");
        assert_eq!(Scenario::OffOnCriticalPathDominated.paper_label(), "2.2");
        assert_eq!(Scenario::OffNotOnCriticalPath.to_string(), "scenario 1");
    }

    #[test]
    fn r_het_more_precise_than_r_hom_on_transformed_task_for_large_coff() {
        let task = forkjoin_task(3, 2, 40);
        let t = transform(&task).unwrap();
        let het = r_het(&t, 4).unwrap().value();
        let hom_on_transformed = r_hom_dag(t.transformed(), 4).unwrap();
        assert!(het <= hom_on_transformed, "{het} > {hom_on_transformed}");
    }

    #[test]
    fn unknown_scenarios_never_underflow() {
        // Stress many shapes; graham() debug-asserts vol ≥ discount.
        for k in 1..6 {
            for c in [1u64, 3, 9, 27, 81] {
                let task = forkjoin_task(k, 2, c);
                let t = transform(&task).unwrap();
                for m in [1u64, 2, 3, 8, 16] {
                    let b = r_het(&t, m).unwrap();
                    assert!(!b.value().is_negative());
                }
            }
        }
        let _ = NodeId::from_index(0);
    }
}
