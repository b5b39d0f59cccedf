//! # hetrta-exact — exact minimum makespan of heterogeneous DAG tasks
//!
//! The paper's accuracy experiment (§5.3, Figure 7) compares the analytical
//! bounds against "the minimum time interval needed to execute a given
//! heterogeneous DAG task on m cores and one accelerator device", computed
//! by an ILP formulation solved with IBM CPLEX. CPLEX is proprietary; this
//! crate substitutes a **branch-and-bound solver over active schedules**
//! that computes the *same quantity exactly* (see DESIGN.md §4):
//!
//! * serial schedule-generation branching (every active schedule is
//!   reachable; the active set contains an optimal schedule for makespan);
//! * dedicated-resource dominance: the offloaded node and zero-WCET nodes
//!   are dispatched greedily (provably optimal);
//! * critical-path + workload ("water-filling") lower bounds at every node;
//! * a critical-path-first list schedule as the initial incumbent;
//! * state dominance pruning keyed on the scheduled set;
//! * an explored-node budget with [`Optimality`] status, mirroring the
//!   paper's "instances CPLEX solved within 12 h" cutoff.
//!
//! For users who *do* have an external MILP solver, [`lp`] renders the
//! time-indexed ILP formulation (after Melani et al., ASP-DAC 2017 — the
//! paper's reference \[13\]) in CPLEX LP file format.
//!
//! ## Example
//!
//! ```
//! use hetrta_dag::{DagBuilder, Ticks};
//! use hetrta_exact::{solve, SolverConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let a = b.node("a", Ticks::new(1));
//! let x = b.node("x", Ticks::new(4));
//! let y = b.node("y", Ticks::new(4));
//! let z = b.node("z", Ticks::new(1));
//! b.edges([(a, x), (a, y), (x, z), (y, z)])?;
//! let dag = b.build()?;
//!
//! let sol = solve(&dag, None, 2, &SolverConfig::default())?;
//! assert_eq!(sol.makespan(), Ticks::new(6)); // a; x ∥ y; z
//! assert!(sol.is_optimal());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
mod error;
mod heuristics;
pub mod lp;
mod schedule;
mod solver;

pub use error::ExactError;
pub use heuristics::{list_schedule_cp_first, list_schedule_with_path};
pub use schedule::{ExactSchedule, Optimality};
pub use solver::{
    solve, solve_hetero_task, solve_with, SolverConfig, SolverWorkspace, MAX_NODES_SUPPORTED,
};
