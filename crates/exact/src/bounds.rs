//! Makespan lower bounds.

use hetrta_dag::algo::CriticalPath;
use hetrta_dag::{Dag, NodeId, Ticks};

/// The critical-path lower bound: no schedule can finish before `len(G)`.
#[must_use]
pub fn critical_path_bound(dag: &Dag) -> Ticks {
    CriticalPath::of(dag).length()
}

/// The workload ("area") lower bound for `m` host cores with the node
/// `offloaded` excluded from host work: `ceil((vol − C_off)/m)`.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn workload_bound(dag: &Dag, offloaded: Option<NodeId>, m: u64) -> Ticks {
    assert!(m > 0, "workload bound needs at least one core");
    let off = offloaded.map_or(Ticks::ZERO, |v| dag.wcet(v));
    (dag.volume() - off).div_ceil(m)
}

/// The root lower bound used by the solver:
/// `max(len(G), ceil(host volume / m))`.
///
/// # Panics
///
/// Panics if `m == 0`.
///
/// # Examples
///
/// ```
/// use hetrta_dag::{DagBuilder, Ticks};
/// use hetrta_exact::bounds::root_bound;
///
/// let mut b = DagBuilder::new();
/// let v1 = b.unlabeled_node(Ticks::new(3));
/// let v2 = b.unlabeled_node(Ticks::new(3));
/// let v3 = b.unlabeled_node(Ticks::new(3));
/// b.edge(v1, v2)?;
/// let dag = b.freeze(); // v3 floats free: two sources, two sinks
/// // len = 6; workload = ceil(9/2) = 5 → bound 6
/// assert_eq!(root_bound(&dag, None, 2), Ticks::new(6));
/// # let _ = v3;
/// # Ok::<(), hetrta_dag::DagError>(())
/// ```
#[must_use]
pub fn root_bound(dag: &Dag, offloaded: Option<NodeId>, m: u64) -> Ticks {
    root_bound_with_path(dag, &CriticalPath::of(dag), offloaded, m)
}

/// [`root_bound`] from a [`CriticalPath`] the caller already holds (the
/// `anytime` bracket shares one with
/// [`crate::list_schedule_with_path`]).
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn root_bound_with_path(
    dag: &Dag,
    cp: &CriticalPath,
    offloaded: Option<NodeId>,
    m: u64,
) -> Ticks {
    cp.length().max(workload_bound(dag, offloaded, m))
}

/// Water-filling workload bound from a partial state: the minimal `M` such
/// that the host cores, free from times `core_free`, can absorb `work`
/// more ticks by `M`: `Σ_i max(0, M − F_i) ≥ work`.
///
/// Used by the solver to bound every open branch. `core_free` need not be
/// sorted.
#[must_use]
pub fn water_filling_bound(core_free: &[u64], work: u64) -> u64 {
    if work == 0 {
        return core_free.iter().copied().min().unwrap_or(0);
    }
    let mut f: Vec<u64> = core_free.to_vec();
    f.sort_unstable();
    // Raise the water level band by band.
    let mut remaining = work as u128;
    let m = f.len() as u128;
    for i in 0..f.len() {
        let width = (i + 1) as u128;
        let band = if i + 1 < f.len() {
            (f[i + 1] - f[i]) as u128
        } else {
            u128::MAX
        };
        if width.saturating_mul(band) >= remaining {
            return f[i] + (remaining as u64).div_ceil(width as u64);
        }
        remaining -= width * band;
    }
    // unreachable: the last band is unbounded
    f[f.len() - 1] + (remaining as u64).div_ceil(m as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_filling_equal_cores() {
        // 3 cores all free at 0, 9 units of work → level 3.
        assert_eq!(water_filling_bound(&[0, 0, 0], 9), 3);
        // 10 units → ceil(10/3) = 4
        assert_eq!(water_filling_bound(&[0, 0, 0], 10), 4);
    }

    #[test]
    fn water_filling_staggered_cores() {
        // cores free at 0 and 4; 2 units fit on the first core by t=2.
        assert_eq!(water_filling_bound(&[4, 0], 2), 2);
        // 6 units: first core works 0..5, second 4..5 → level 5
        assert_eq!(water_filling_bound(&[4, 0], 6), 5);
        // 0 work: bound is the earliest core availability
        assert_eq!(water_filling_bound(&[4, 2], 0), 2);
    }

    #[test]
    fn water_filling_single_core() {
        assert_eq!(water_filling_bound(&[7], 5), 12);
    }

    #[test]
    fn workload_bound_excludes_offloaded() {
        let mut dag = Dag::new();
        let a = dag.add_node(Ticks::new(10));
        let k = dag.add_node(Ticks::new(6));
        dag.add_edge(a, k).unwrap();
        assert_eq!(workload_bound(&dag, None, 2), Ticks::new(8));
        assert_eq!(workload_bound(&dag, Some(k), 2), Ticks::new(5));
    }

    #[test]
    fn root_bound_takes_max() {
        let mut dag = Dag::new();
        let a = dag.add_node(Ticks::new(2));
        let b = dag.add_node(Ticks::new(2));
        let c = dag.add_node(Ticks::new(20));
        dag.add_edge(a, b).unwrap();
        let _ = c;
        // len = 20 (isolated c), workload = ceil(24/4) = 6
        assert_eq!(root_bound(&dag, None, 4), Ticks::new(20));
        // with m = 1: workload 24 > len 20
        assert_eq!(root_bound(&dag, None, 1), Ticks::new(24));
    }
}
