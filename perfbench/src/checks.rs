//! Correctness checks applied to every timed run, so that a faster wrong
//! answer fails the benchmark instead of improving it.

use hetrta_engine::wire::encode_update;
use hetrta_engine::{AggregateUpdate, CellKind, SweepAggregate, TaskCellSummary};

/// Relative slack for comparing means of per-job quantities that satisfy
/// an inequality job by job (the two means round independently).
const MEAN_SLACK: f64 = 1e-9;

fn task_cells(agg: &SweepAggregate) -> Result<Vec<(usize, &TaskCellSummary)>, String> {
    agg.cells
        .iter()
        .enumerate()
        .map(|(i, cell)| match &cell.kind {
            CellKind::Task(t) if cell.samples > 0 => Ok((i, t)),
            CellKind::Task(_) => Err(format!("cell {i} aggregated no jobs")),
            _ => Err(format!("cell {i} is not a per-task cell")),
        })
        .collect()
}

/// Theorem 1: `R_het` bounds every work-conserving schedule of τ′, so in
/// every cell the mean simulated makespan of the transformed task stays
/// at or below the mean `R_het`.
pub fn theorem1(agg: &SweepAggregate) -> Result<(), String> {
    if agg.cells.is_empty() {
        return Err("empty aggregate".into());
    }
    for (i, t) in task_cells(agg)? {
        let sim = t
            .mean_sim_transformed
            .ok_or_else(|| format!("cell {i} has no transformed simulation"))?;
        // Written so that a NaN on either side fails the check too.
        let bounded = sim <= t.mean_r_het * (1.0 + MEAN_SLACK);
        if !bounded {
            return Err(format!(
                "cell {i}: mean simulated makespan of τ′ {sim} exceeds mean R_het {}",
                t.mean_r_het
            ));
        }
    }
    Ok(())
}

/// The makespan bracket of the large-graph analyses, for cells of one job
/// each: the anytime lower bound is at most the best sampled schedule,
/// which is at most the worst one.
pub fn bracket(agg: &SweepAggregate) -> Result<(), String> {
    if let Some(cell) = agg.cells.iter().find(|c| c.samples != 1) {
        return Err(format!(
            "cell m={} holds {} jobs, not one",
            cell.m, cell.samples
        ));
    }
    if agg.cells.is_empty() {
        return Err("empty aggregate".into());
    }
    for (i, t) in task_cells(agg)? {
        let sampled = t
            .sampled
            .as_ref()
            .ok_or(format!("cell {i} has no sampled summary"))?;
        let anytime = t
            .anytime
            .as_ref()
            .ok_or(format!("cell {i} has no anytime summary"))?;
        let (min, max) = (sampled.min as f64, sampled.max as f64);
        if !(anytime.mean_lower <= min && min <= max) {
            return Err(format!(
                "cell {i}: bounds out of order: anytime lower {} ≤ sampled min {min} ≤ sampled max {max} fails",
                anytime.mean_lower
            ));
        }
    }
    Ok(())
}

/// The bit-exact wire text of an aggregate (floats travel as bit
/// patterns, so equal texts mean bitwise-equal aggregates).
pub fn fingerprint(agg: &SweepAggregate) -> String {
    encode_update(&AggregateUpdate::Keyframe {
        seq: 0,
        aggregate: agg.clone(),
    })
}

/// `got` must be bitwise the reference aggregate.
pub fn same_bits(
    what: &str,
    got: &SweepAggregate,
    reference: &SweepAggregate,
) -> Result<(), String> {
    if fingerprint(got) == fingerprint(reference) {
        Ok(())
    } else {
        Err(format!(
            "{what}: aggregate differs from the in-process Engine::run of the same spec"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_engine::{AnalysisSelection, Engine, GeneratorPreset, SweepSpec};

    fn small_aggregate(keys: &[&str], per_point: usize) -> SweepAggregate {
        let mut spec = SweepSpec::fractions(
            GeneratorPreset::Small,
            vec![2, 4],
            vec![0.1, 0.3],
            per_point,
            5,
        )
        .with_analyses(AnalysisSelection::from_keys(keys.iter().copied()));
        spec.sim_transformed = true;
        spec.sample_budget = 4;
        Engine::new(1)
            .run(&spec)
            .expect("small sweep runs")
            .aggregate
    }

    fn first_task(agg: &mut SweepAggregate) -> &mut TaskCellSummary {
        match &mut agg.cells[0].kind {
            CellKind::Task(t) => t,
            _ => panic!("task cell"),
        }
    }

    #[test]
    fn theorem1_holds_and_catches_a_corrupted_bound() {
        let mut agg = small_aggregate(&["het", "hom", "sim"], 3);
        theorem1(&agg).expect("Theorem 1 holds on real output");
        let t = first_task(&mut agg);
        t.mean_r_het = t.mean_sim_transformed.unwrap() * 0.5;
        assert!(theorem1(&agg).unwrap_err().contains("exceeds mean R_het"));
    }

    #[test]
    fn theorem1_refuses_a_missing_simulation() {
        let agg = small_aggregate(&["het"], 3);
        assert!(theorem1(&agg).is_err());
    }

    #[test]
    fn bracket_holds_and_catches_out_of_order_bounds() {
        let mut agg = small_aggregate(&["het", "sampled", "anytime"], 1);
        bracket(&agg).expect("bracket holds on real output");
        let t = first_task(&mut agg);
        let sampled = t.sampled.as_mut().unwrap();
        sampled.min = sampled.max + 1;
        assert!(bracket(&agg).unwrap_err().contains("out of order"));

        let mut agg = small_aggregate(&["het", "sampled", "anytime"], 1);
        let t = first_task(&mut agg);
        t.anytime.as_mut().unwrap().mean_lower = t.sampled.as_ref().unwrap().min as f64 + 1.0;
        assert!(bracket(&agg).is_err());

        let agg = small_aggregate(&["het", "sampled", "anytime"], 2);
        assert!(bracket(&agg).unwrap_err().contains("not one"));
    }

    #[test]
    fn a_corrupted_aggregate_is_not_bitwise_equal() {
        let reference = small_aggregate(&["het", "hom", "sim"], 3);
        let mut got = reference.clone();
        same_bits("copy", &got, &reference).expect("identical copy");
        let t = first_task(&mut got);
        t.mean_r_het = f64::from_bits(t.mean_r_het.to_bits() ^ 1);
        assert!(same_bits("flip", &got, &reference).is_err());
        got.cells.pop();
        assert!(same_bits("short", &got, &reference).is_err());
    }
}
