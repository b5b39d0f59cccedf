//! # hetrta-sim — heterogeneous DAG execution simulator
//!
//! Discrete-event simulation of a DAG task on a platform with `m` identical
//! host cores plus one accelerator device, under *work-conserving*
//! scheduling. This is the experimental substrate of §5.2 of
//! *Serrano & Quiñones, DAC 2018*: the paper "simulate\[s\] the execution of
//! the original and transformed DAG tasks, assuming the work-conserving
//! breadth-first scheduler implemented in GOMP" — exactly the
//! [`policy::BreadthFirst`] policy here.
//!
//! * [`Platform`] — core count + whether an accelerator exists;
//! * [`policy`] — pluggable ready-queue disciplines (breadth-first /
//!   depth-first / critical-path-first / seeded-random for worst-case
//!   exploration), choosing by rank from the [`ReadyQueue`];
//! * [`simulate`] — the engine; produces a [`SimResult`] with makespan and
//!   the full per-node schedule;
//! * [`trace`] — schedule validation (precedence, capacity,
//!   work-conservation) and ASCII Gantt rendering;
//! * [`explore_worst_case`] — max makespan over a set of policies and
//!   random tie-break seeds (used to probe the tightness of the analytical
//!   bounds).
//!
//! ## Example
//!
//! ```
//! use hetrta_dag::{DagBuilder, Ticks};
//! use hetrta_sim::{policy::BreadthFirst, simulate, Platform};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let a = b.node("a", Ticks::new(1));
//! let x = b.node("x", Ticks::new(3));
//! let y = b.node("y", Ticks::new(3));
//! let z = b.node("z", Ticks::new(1));
//! b.edges([(a, x), (a, y), (x, z), (y, z)])?;
//! let dag = b.build()?;
//!
//! let result = simulate(&dag, None, Platform::host_only(2), &mut BreadthFirst::new())?;
//! assert_eq!(result.makespan(), Ticks::new(5)); // a; x ∥ y; z
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod error;
pub mod metrics;
pub mod policy;
mod ready;
pub mod sporadic;
pub mod trace;

pub use engine::{
    explore_worst_case, simulate, simulate_hetero_task, simulate_makespan, simulate_multi,
    Interval, Platform, Resource, SimResult, SimWorkspace,
};
pub use error::SimError;
pub use ready::ReadyQueue;
