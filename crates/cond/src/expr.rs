//! Series-parallel **conditional** task expressions.
//!
//! The conditional DAG model (Melani et al., ECRTS 2015 — the paper's
//! reference \[12\]) extends the DAG task with *exclusive* branches: at a
//! conditional fork, exactly one successor sub-graph executes per job,
//! chosen at run time. Nested fork-join programs with `if`/`switch`
//! constructs are naturally series-parallel, so this crate models tasks as
//! expression trees:
//!
//! * [`CondExpr::leaf`] — a sequential job with a WCET;
//! * [`CondExpr::series`] — children execute one after another;
//! * [`CondExpr::parallel`] — children all execute, concurrently;
//! * [`CondExpr::conditional`] — **exactly one** child executes.
//!
//! A *realization* fixes every conditional choice, yielding a plain DAG
//! that `hetrta-dag`/`hetrta-core` can analyze and `hetrta-sim` can run.

use hetrta_dag::{Dag, DagBuilder, DagError, NodeId, Ticks};

use crate::CondError;

/// A series-parallel conditional task expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CondExpr {
    /// A sequential job.
    Leaf {
        /// Display label (propagated into expanded DAGs).
        label: String,
        /// Worst-case execution time.
        wcet: Ticks,
    },
    /// Children execute in order.
    Series(Vec<CondExpr>),
    /// Children all execute, concurrently (fork-join).
    Parallel(Vec<CondExpr>),
    /// Exactly one child executes per job (exclusive branches).
    Conditional(Vec<CondExpr>),
}

impl CondExpr {
    /// A leaf job.
    #[must_use]
    pub fn leaf(label: impl Into<String>, wcet: u64) -> Self {
        CondExpr::Leaf {
            label: label.into(),
            wcet: Ticks::new(wcet),
        }
    }

    /// Sequential composition.
    #[must_use]
    pub fn series(children: impl Into<Vec<CondExpr>>) -> Self {
        CondExpr::Series(children.into())
    }

    /// Fork-join composition.
    #[must_use]
    pub fn parallel(children: impl Into<Vec<CondExpr>>) -> Self {
        CondExpr::Parallel(children.into())
    }

    /// Exclusive-branch composition.
    #[must_use]
    pub fn conditional(branches: impl Into<Vec<CondExpr>>) -> Self {
        CondExpr::Conditional(branches.into())
    }

    /// Structural validation: no empty composite, no zero-branch
    /// conditional.
    ///
    /// # Errors
    ///
    /// [`CondError::EmptyComposite`] naming the offending composite kind.
    pub fn validate(&self) -> Result<(), CondError> {
        match self {
            CondExpr::Leaf { .. } => Ok(()),
            CondExpr::Series(cs) | CondExpr::Parallel(cs) | CondExpr::Conditional(cs) => {
                if cs.is_empty() {
                    return Err(CondError::EmptyComposite(self.kind_name()));
                }
                cs.iter().try_for_each(CondExpr::validate)
            }
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            CondExpr::Leaf { .. } => "leaf",
            CondExpr::Series(_) => "series",
            CondExpr::Parallel(_) => "parallel",
            CondExpr::Conditional(_) => "conditional",
        }
    }

    /// Number of leaves (over all branches).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        match self {
            CondExpr::Leaf { .. } => 1,
            CondExpr::Series(cs) | CondExpr::Parallel(cs) | CondExpr::Conditional(cs) => {
                cs.iter().map(CondExpr::leaf_count).sum()
            }
        }
    }

    /// Number of distinct realizations (products of conditional choices).
    /// Saturates at `u64::MAX`.
    #[must_use]
    pub fn realization_count(&self) -> u64 {
        match self {
            CondExpr::Leaf { .. } => 1,
            CondExpr::Series(cs) | CondExpr::Parallel(cs) => cs
                .iter()
                .fold(1u64, |acc, c| acc.saturating_mul(c.realization_count())),
            CondExpr::Conditional(cs) => cs
                .iter()
                .fold(0u64, |acc, c| acc.saturating_add(c.realization_count())),
        }
    }

    /// Worst-case workload `W*`: the maximum total execution over all
    /// realizations (DP: sum over series/parallel, max over branches).
    #[must_use]
    pub fn worst_case_workload(&self) -> Ticks {
        match self {
            CondExpr::Leaf { wcet, .. } => *wcet,
            CondExpr::Series(cs) | CondExpr::Parallel(cs) => cs
                .iter()
                .map(CondExpr::worst_case_workload)
                .fold(Ticks::ZERO, |a, b| a + b),
            CondExpr::Conditional(cs) => cs
                .iter()
                .map(CondExpr::worst_case_workload)
                .fold(Ticks::ZERO, Ticks::max),
        }
    }

    /// Worst-case critical-path length `len*`: the maximum over all
    /// realizations of the realization's critical path (DP: sum over
    /// series, max over parallel and branches).
    #[must_use]
    pub fn worst_case_length(&self) -> Ticks {
        match self {
            CondExpr::Leaf { wcet, .. } => *wcet,
            CondExpr::Series(cs) => cs
                .iter()
                .map(CondExpr::worst_case_length)
                .fold(Ticks::ZERO, |a, b| a + b),
            CondExpr::Parallel(cs) | CondExpr::Conditional(cs) => cs
                .iter()
                .map(CondExpr::worst_case_length)
                .fold(Ticks::ZERO, Ticks::max),
        }
    }

    /// Expands one realization to a plain DAG. `choices` supplies the
    /// branch index for each conditional, in depth-first pre-order; its
    /// entries are consumed left to right.
    ///
    /// The expansion adds zero-WCET fork/join nodes where a composite
    /// needs them, so the result always has a unique source and sink and
    /// no transitive edges — a valid task-model DAG.
    ///
    /// # Errors
    ///
    /// - [`CondError::ChoiceOutOfRange`] / [`CondError::MissingChoices`]
    ///   when `choices` does not match the structure;
    /// - [`CondError::Dag`] if graph construction fails (internal).
    pub fn expand(&self, choices: &[usize]) -> Result<Realization, CondError> {
        self.validate()?;
        let mut b = DagBuilder::new();
        let mut cursor = 0usize;
        let source = b.node("source", Ticks::ZERO);
        let sink = b.node("sink", Ticks::ZERO);
        let mut ctx = Expand {
            b,
            choices,
            cursor: &mut cursor,
            offload_label: None,
            offload: None,
        };
        let (first, last) = ctx.walk(self, source)?;
        ctx.b.edge(last, sink).map_err(CondError::Dag)?;
        let _ = first;
        if *ctx.cursor < choices.len() {
            return Err(CondError::MissingChoices {
                expected: *ctx.cursor,
                got: choices.len(),
            });
        }
        let offload = ctx.offload;
        let dag = ctx.b.build().map_err(CondError::Dag)?;
        Ok(Realization { dag, offload })
    }

    /// Enumerates every realization's choice vector, up to `cap` entries
    /// (`None` means the structure has more than `cap` realizations).
    #[must_use]
    pub fn enumerate_choices(&self, cap: usize) -> Option<Vec<Vec<usize>>> {
        let mut out = vec![Vec::new()];
        self.collect_choices(&mut out, cap)?;
        Some(out)
    }

    fn collect_choices(&self, acc: &mut Vec<Vec<usize>>, cap: usize) -> Option<()> {
        match self {
            CondExpr::Leaf { .. } => Some(()),
            CondExpr::Series(cs) | CondExpr::Parallel(cs) => {
                cs.iter().try_for_each(|c| c.collect_choices(acc, cap))
            }
            CondExpr::Conditional(cs) => {
                let prefixes = std::mem::take(acc);
                for prefix in prefixes {
                    for (i, branch) in cs.iter().enumerate() {
                        let mut sub = vec![{
                            let mut p = prefix.clone();
                            p.push(i);
                            p
                        }];
                        branch.collect_choices(&mut sub, cap)?;
                        acc.extend(sub);
                        if acc.len() > cap {
                            return None;
                        }
                    }
                }
                Some(())
            }
        }
    }
}

/// One expanded realization: a plain task-model DAG plus the offloaded
/// node when the realization contains the offloaded leaf (see
/// [`crate::HetCondTask`]).
#[derive(Debug, Clone)]
pub struct Realization {
    /// The expanded DAG (unique zero-WCET source/sink added).
    pub dag: Dag,
    /// The node corresponding to the offloaded leaf, if it executed.
    pub offload: Option<NodeId>,
}

struct Expand<'a> {
    b: DagBuilder,
    choices: &'a [usize],
    cursor: &'a mut usize,
    offload_label: Option<&'a str>,
    offload: Option<NodeId>,
}

impl Expand<'_> {
    /// Walks `expr`, wiring it after `entry`; returns (first, last) nodes
    /// of the constructed fragment (single entry/exit per fragment).
    fn walk(&mut self, expr: &CondExpr, entry: NodeId) -> Result<(NodeId, NodeId), CondError> {
        match expr {
            CondExpr::Leaf { label, wcet } => {
                let v = self.b.node(label.clone(), *wcet);
                self.b.edge(entry, v).map_err(CondError::Dag)?;
                if self.offload_label == Some(label.as_str()) && self.offload.is_none() {
                    self.offload = Some(v);
                }
                Ok((v, v))
            }
            CondExpr::Series(cs) => {
                let mut prev = entry;
                let mut first = None;
                for c in cs {
                    let (f, l) = self.walk(c, prev)?;
                    first.get_or_insert(f);
                    prev = l;
                }
                Ok((first.expect("validated non-empty"), prev))
            }
            CondExpr::Parallel(cs) => {
                let fork = self.b.node("fork", Ticks::ZERO);
                self.b.edge(entry, fork).map_err(CondError::Dag)?;
                let join = self.b.node("join", Ticks::ZERO);
                for c in cs {
                    let (_, l) = self.walk(c, fork)?;
                    self.b.edge(l, join).map_err(CondError::Dag)?;
                }
                Ok((fork, join))
            }
            CondExpr::Conditional(cs) => {
                let i = *self
                    .choices
                    .get(*self.cursor)
                    .ok_or(CondError::MissingChoices {
                        expected: *self.cursor + 1,
                        got: self.choices.len(),
                    })?;
                *self.cursor += 1;
                if i >= cs.len() {
                    return Err(CondError::ChoiceOutOfRange {
                        index: i,
                        branches: cs.len(),
                    });
                }
                self.walk(&cs[i], entry)
            }
        }
    }
}

/// Expands a realization with an offload label: leaves matching `label`
/// become the offloaded node of the realization.
pub(crate) fn expand_with_offload(
    expr: &CondExpr,
    choices: &[usize],
    label: &str,
) -> Result<Realization, CondError> {
    expr.validate()?;
    let mut b = DagBuilder::new();
    let mut cursor = 0usize;
    let source = b.node("source", Ticks::ZERO);
    let sink = b.node("sink", Ticks::ZERO);
    let mut ctx = Expand {
        b,
        choices,
        cursor: &mut cursor,
        offload_label: Some(label),
        offload: None,
    };
    let (_, last) = ctx.walk(expr, source)?;
    ctx.b.edge(last, sink).map_err(CondError::Dag)?;
    if *ctx.cursor != choices.len() {
        return Err(CondError::MissingChoices {
            expected: *ctx.cursor,
            got: choices.len(),
        });
    }
    let offload = ctx.offload;
    let dag = ctx.b.build().map_err(CondError::Dag)?;
    Ok(Realization { dag, offload })
}

impl From<DagError> for CondError {
    fn from(e: DagError) -> Self {
        CondError::Dag(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a ; (b ∥ if(c1|c2)) ; d`
    fn sample() -> CondExpr {
        CondExpr::series(vec![
            CondExpr::leaf("a", 2),
            CondExpr::parallel(vec![
                CondExpr::leaf("b", 5),
                CondExpr::conditional(vec![CondExpr::leaf("c1", 3), CondExpr::leaf("c2", 9)]),
            ]),
            CondExpr::leaf("d", 1),
        ])
    }

    #[test]
    fn dp_quantities() {
        let e = sample();
        // W* = 2 + 5 + max(3, 9) + 1 = 17
        assert_eq!(e.worst_case_workload(), Ticks::new(17));
        // len* = 2 + max(5, max(3, 9)) + 1 = 12
        assert_eq!(e.worst_case_length(), Ticks::new(12));
        assert_eq!(e.leaf_count(), 5);
        assert_eq!(e.realization_count(), 2);
    }

    #[test]
    fn expansion_matches_choice() {
        let e = sample();
        let r1 = e.expand(&[0]).unwrap();
        let r2 = e.expand(&[1]).unwrap();
        // Realization volumes: 2+5+3+1 = 11 and 2+5+9+1 = 17.
        assert_eq!(r1.dag.volume(), Ticks::new(11));
        assert_eq!(r2.dag.volume(), Ticks::new(17));
        hetrta_dag::validate_task_model(&r1.dag).unwrap();
        hetrta_dag::validate_task_model(&r2.dag).unwrap();
    }

    #[test]
    fn dp_bounds_every_realization() {
        let e = sample();
        for choices in e.enumerate_choices(64).unwrap() {
            let r = e.expand(&choices).unwrap();
            assert!(r.dag.volume() <= e.worst_case_workload());
            let len = hetrta_dag::algo::CriticalPath::of(&r.dag).length();
            assert!(len <= e.worst_case_length());
        }
    }

    #[test]
    fn enumerate_counts_match() {
        let e = sample();
        assert_eq!(
            e.enumerate_choices(64).unwrap().len(),
            e.realization_count() as usize
        );
        // Nested conditionals multiply.
        let nested = CondExpr::parallel(vec![
            CondExpr::conditional(vec![CondExpr::leaf("x", 1), CondExpr::leaf("y", 2)]),
            CondExpr::conditional(vec![
                CondExpr::leaf("u", 1),
                CondExpr::conditional(vec![CondExpr::leaf("v", 2), CondExpr::leaf("w", 3)]),
            ]),
        ]);
        assert_eq!(nested.realization_count(), 6);
        assert_eq!(nested.enumerate_choices(64).unwrap().len(), 6);
        assert!(nested.enumerate_choices(3).is_none());
    }

    #[test]
    fn validation_rejects_empty_composites() {
        assert!(CondExpr::series(vec![]).validate().is_err());
        assert!(CondExpr::conditional(vec![]).validate().is_err());
        assert!(CondExpr::parallel(vec![CondExpr::Series(vec![])])
            .validate()
            .is_err());
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn bad_choice_vectors_are_rejected() {
        let e = sample();
        assert!(matches!(
            e.expand(&[]),
            Err(CondError::MissingChoices { .. })
        ));
        assert!(matches!(
            e.expand(&[7]),
            Err(CondError::ChoiceOutOfRange { .. })
        ));
        assert!(matches!(
            e.expand(&[0, 0]),
            Err(CondError::MissingChoices { .. })
        ));
    }

    #[test]
    fn pure_dag_expression_has_one_realization() {
        let e = CondExpr::parallel(vec![CondExpr::leaf("x", 4), CondExpr::leaf("y", 6)]);
        assert_eq!(e.realization_count(), 1);
        let r = e.expand(&[]).unwrap();
        assert_eq!(r.dag.volume(), Ticks::new(10));
    }
}
