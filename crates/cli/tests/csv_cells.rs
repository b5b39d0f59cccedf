//! The `engine sweep --csv` cell block never shows an analysis that did
//! not run as `0`: its columns stay empty.

use std::process::Command;

fn sweep_csv(analyses: &str) -> Vec<Vec<String>> {
    let out = Command::new(env!("CARGO_BIN_EXE_hetrta"))
        .args([
            "engine",
            "sweep",
            "--cores",
            "2",
            "--fractions",
            "0.1,0.3",
            "--per-point",
            "3",
            "--sample-budget",
            "4",
            "--exact-budget",
            "2000",
            "--analyses",
            analyses,
            "--csv",
        ])
        .output()
        .expect("run hetrta");
    assert!(
        out.status.success(),
        "hetrta failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf8 output")
        .lines()
        .take_while(|l| !l.is_empty())
        .map(|l| l.split(',').map(String::from).collect())
        .collect()
}

/// The named column of every data row.
fn column(rows: &[Vec<String>], name: &str) -> Vec<String> {
    let at = rows[0]
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("no column {name} in {:?}", rows[0]));
    rows[1..].iter().map(|row| row[at].clone()).collect()
}

#[test]
fn unselected_bound_columns_are_empty_not_zero() {
    let rows = sweep_csv("sampled,anytime");
    assert_eq!(rows.len(), 3, "header + two cells: {rows:?}");
    for name in [
        "mean_r_het",
        "mean_r_hom",
        "mean_sim_makespan",
        "exact_solved",
    ] {
        assert!(
            column(&rows, name).iter().all(String::is_empty),
            "{name} must stay empty without its analysis: {rows:?}"
        );
    }
    for name in ["sampled_mean", "anytime_lower", "anytime_upper"] {
        assert!(
            column(&rows, name).iter().all(|c| !c.is_empty()),
            "{name} must be filled: {rows:?}"
        );
    }
}

#[test]
fn hom_alone_fills_only_the_homogeneous_bound() {
    let rows = sweep_csv("hom,sampled");
    assert!(column(&rows, "mean_r_het").iter().all(String::is_empty));
    for cell in column(&rows, "mean_r_hom") {
        assert!(cell.parse::<f64>().is_ok_and(|r| r > 0.0), "{rows:?}");
    }
    let both = sweep_csv("het,sampled");
    for name in ["mean_r_het", "mean_r_hom"] {
        for cell in column(&both, name) {
            assert!(
                cell.parse::<f64>().is_ok_and(|r| r > 0.0),
                "{name}: {both:?}"
            );
        }
    }
}

/// The columns only `het` fills besides `mean_r_het`.
const HET_ONLY: [&str; 7] = [
    "s1",
    "s21",
    "s22",
    "mean_improvement",
    "max_improvement",
    "schedulable_het",
    "schedulable_hom",
];

#[test]
fn scenario_and_schedulability_columns_need_het() {
    for analyses in ["sampled,anytime", "hom,sampled"] {
        let rows = sweep_csv(analyses);
        for name in HET_ONLY {
            assert!(
                column(&rows, name).iter().all(String::is_empty),
                "{name} must stay empty without het ({analyses}): {rows:?}"
            );
        }
    }
    let with_het = sweep_csv("het,sampled");
    for name in HET_ONLY {
        assert!(
            column(&with_het, name)
                .iter()
                .all(|c| c.parse::<f64>().is_ok()),
            "{name} must be filled with het: {with_het:?}"
        );
    }
}
