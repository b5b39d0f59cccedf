//! Solution representation.

use hetrta_dag::{NodeId, Ticks};

/// Whether the returned makespan is proven minimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Optimality {
    /// The search completed (or the incumbent met the lower bound): the
    /// makespan is the exact minimum.
    Optimal,
    /// The node budget was exhausted first: the makespan is an upper bound
    /// on the minimum (compare with [`ExactSchedule::lower_bound`]).
    Feasible,
}

/// A (possibly proven-optimal) schedule found by the solver.
#[derive(Debug, Clone)]
pub struct ExactSchedule {
    makespan: Ticks,
    starts: Vec<Ticks>,
    optimality: Optimality,
    lower_bound: Ticks,
    explored: u64,
}

impl ExactSchedule {
    pub(crate) fn new(
        makespan: Ticks,
        starts: Vec<Ticks>,
        optimality: Optimality,
        lower_bound: Ticks,
        explored: u64,
    ) -> Self {
        ExactSchedule {
            makespan,
            starts,
            optimality,
            lower_bound,
            explored,
        }
    }

    /// The makespan of the best schedule found.
    #[must_use]
    pub fn makespan(&self) -> Ticks {
        self.makespan
    }

    /// Start time of each node (indexed by [`NodeId`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the solved graph.
    #[must_use]
    pub fn start_of(&self, v: NodeId) -> Ticks {
        self.starts[v.index()]
    }

    /// All start times, indexed by node id.
    #[must_use]
    pub fn starts(&self) -> &[Ticks] {
        &self.starts
    }

    /// Proof status of the makespan.
    #[must_use]
    pub fn optimality(&self) -> Optimality {
        self.optimality
    }

    /// `true` if the makespan is the proven minimum.
    #[must_use]
    pub fn is_optimal(&self) -> bool {
        self.optimality == Optimality::Optimal
    }

    /// The best lower bound established during the search; equals
    /// [`makespan`](ExactSchedule::makespan) when optimal.
    #[must_use]
    pub fn lower_bound(&self) -> Ticks {
        self.lower_bound
    }

    /// Number of branch-and-bound nodes explored.
    #[must_use]
    pub fn explored_nodes(&self) -> u64 {
        self.explored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let s = ExactSchedule::new(
            Ticks::new(10),
            vec![Ticks::ZERO, Ticks::new(3)],
            Optimality::Optimal,
            Ticks::new(10),
            42,
        );
        assert_eq!(s.makespan(), Ticks::new(10));
        assert_eq!(s.start_of(NodeId::from_index(1)), Ticks::new(3));
        assert_eq!(s.starts().len(), 2);
        assert!(s.is_optimal());
        assert_eq!(s.lower_bound(), Ticks::new(10));
        assert_eq!(s.explored_nodes(), 42);
    }

    #[test]
    fn feasible_status() {
        let s = ExactSchedule::new(
            Ticks::new(12),
            vec![],
            Optimality::Feasible,
            Ticks::new(10),
            7,
        );
        assert!(!s.is_optimal());
        assert_eq!(s.optimality(), Optimality::Feasible);
    }
}
