//! Analytic-vs-simulated rank verification (the fig. 7 question,
//! generalized): for every sim objective, how closely does the cheap
//! analytic ranking of the survivors match the simulated one?

use f1_skyline::plan::QueryPlan;
use f1_skyline::query::Objective;
use f1_skyline::session::ResultSet;
use f1_skyline::tier2::{SimRow, VerificationEntry, VerificationReport};

/// How many worst rank disagreements a [`VerificationEntry`] names.
const MAX_OUTLIERS: usize = 3;

/// The analytic objective a sim objective is verified against: the
/// paper validates simulated stopping behaviour against the analytic
/// safe velocity, so `SafeVelocity` is preferred whenever the plan
/// carries it; otherwise the plan's primary (first) objective stands in.
fn analytic_counterpart(plan: &QueryPlan) -> Option<Objective> {
    let objectives = plan.objectives();
    objectives
        .iter()
        .copied()
        .find(|o| *o == Objective::SafeVelocity)
        .or_else(|| objectives.first().copied())
}

/// Builds the per-objective verification report over the simulated rows.
pub(crate) fn build_report(
    plan: &QueryPlan,
    result: &ResultSet,
    rows: &[SimRow],
) -> VerificationReport {
    let mut entries = Vec::with_capacity(plan.sim_objectives().len());
    let Some(analytic) = analytic_counterpart(plan) else {
        return VerificationReport { entries };
    };
    let analytic_pos = plan
        .objectives()
        .iter()
        .position(|o| *o == analytic)
        .unwrap_or(0);
    for (pos, sim_objective) in plan.sim_objectives().iter().enumerate() {
        // Orient both columns as "goodness" (larger = better build) so
        // tau's sign is comparable across minimize/maximize objectives.
        let orient = |v: f64, maximize: bool| if maximize { v } else { -v };
        // A row the result does not hold reads as NaN, like a missing
        // sim value.
        let analytic_col: Vec<f64> = rows
            .iter()
            .map(|r| {
                orient(
                    result.try_value(r.index, analytic_pos).unwrap_or(f64::NAN),
                    analytic.maximize(),
                )
            })
            .collect();
        let sim_col: Vec<f64> = rows
            .iter()
            .map(|r| {
                orient(
                    r.values.get(pos).copied().unwrap_or(f64::NAN),
                    sim_objective.maximize(),
                )
            })
            .collect();
        let tau = kendall_tau_b(&analytic_col, &sim_col);
        entries.push(VerificationEntry {
            objective: *sim_objective,
            analytic,
            tau,
            agreement: tau.abs(),
            outliers: rank_outliers(rows, &analytic_col, &sim_col),
        });
    }
    VerificationReport { entries }
}

/// Tie-adjusted Kendall rank correlation (tau-b) between two equally
/// long columns, `0.0` when either column has no comparable (untied)
/// pair. O(n²), which is fine: n is the survivor budget (≤ 64).
pub(crate) fn kendall_tau_b(a: &[f64], b: &[f64]) -> f64 {
    let mut concordant = 0u64;
    let mut discordant = 0u64;
    let mut ties_a = 0u64;
    let mut ties_b = 0u64;
    let mut pairs = 0u64;
    for (i, (&ai, &bi)) in a.iter().zip(b).enumerate() {
        for (&aj, &bj) in a.iter().zip(b).skip(i + 1) {
            pairs += 1;
            let da = ai.total_cmp(&aj);
            let db = bi.total_cmp(&bj);
            // Pairs tied in both columns count toward both tie tallies
            // (standard tau-b accounting).
            if da.is_eq() {
                ties_a += 1;
            }
            if db.is_eq() {
                ties_b += 1;
            }
            if !da.is_eq() && !db.is_eq() {
                if da == db {
                    concordant += 1;
                } else {
                    discordant += 1;
                }
            }
        }
    }
    let comparable_a = pairs - ties_a;
    let comparable_b = pairs - ties_b;
    if comparable_a == 0 || comparable_b == 0 {
        return 0.0;
    }
    let denom = ((comparable_a as f64) * (comparable_b as f64)).sqrt();
    ((concordant as f64) - (discordant as f64)) / denom
}

/// The candidate ids whose rank moved furthest between the analytic and
/// simulated goodness orderings — worst first, displacement ≥ 2 only,
/// capped at [`MAX_OUTLIERS`].
fn rank_outliers(rows: &[SimRow], analytic: &[f64], sim: &[f64]) -> Vec<u64> {
    let rank = |col: &[f64]| -> Vec<usize> {
        // Position of each row in the descending-goodness order; ties
        // broken by candidate id so the ranking (and therefore the
        // outlier list) is deterministic.
        let mut order: Vec<usize> = (0..col.len()).collect();
        order.sort_unstable_by(|&x, &y| {
            let vx = col.get(x).copied().unwrap_or(f64::NAN);
            let vy = col.get(y).copied().unwrap_or(f64::NAN);
            vy.total_cmp(&vx).then_with(|| {
                let ix = rows.get(x).map_or(0, |r| r.candidate_id);
                let iy = rows.get(y).map_or(0, |r| r.candidate_id);
                ix.cmp(&iy)
            })
        });
        let mut ranks = vec![0usize; col.len()];
        for (position, row) in order.into_iter().enumerate() {
            if let Some(slot) = ranks.get_mut(row) {
                *slot = position;
            }
        }
        ranks
    };
    let ra = rank(analytic);
    let rs = rank(sim);
    let mut displaced: Vec<(usize, u64)> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, row)| {
            let a = ra.get(i).copied()?;
            let s = rs.get(i).copied()?;
            let d = a.abs_diff(s);
            (d >= 2).then_some((d, row.candidate_id))
        })
        .collect();
    displaced.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
    displaced
        .into_iter()
        .take(MAX_OUTLIERS)
        .map(|(_, id)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_of_identical_orderings_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((kendall_tau_b(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_of_reversed_orderings_is_minus_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau_b(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_handles_ties_and_degenerate_columns() {
        // All-tied column: no comparable pair, tau defined as 0.
        assert_eq!(kendall_tau_b(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(kendall_tau_b(&[], &[]), 0.0);
        assert_eq!(kendall_tau_b(&[1.0], &[2.0]), 0.0);
        // Partially tied columns stay within [-1, 1].
        let tau = kendall_tau_b(&[1.0, 1.0, 2.0, 3.0], &[1.0, 2.0, 2.0, 4.0]);
        assert!((-1.0..=1.0).contains(&tau), "tau-b out of range: {tau}");
        assert!(tau > 0.0);
    }

    #[test]
    fn a_row_the_result_does_not_hold_reads_as_nan() {
        use std::sync::Arc;

        use f1_components::Catalog;
        use f1_skyline::plan::SimObjective;
        use f1_skyline::session::Session;

        let plan = QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
            .sim_objective(SimObjective::MissionRobustness { trials: 2 })
            .survivor_budget(4)
            .build()
            .unwrap();
        let result = Session::new(Arc::new(Catalog::paper()))
            .with_tier2(Arc::new(crate::SimHarness::default()))
            .run(&plan)
            .unwrap();
        let mut rows = result.sim().unwrap().rows.clone();
        rows.push(SimRow {
            candidate_id: u64::MAX,
            index: usize::MAX,
            values: vec![1.0],
        });
        let report = build_report(&plan, &result, &rows);
        assert_eq!(report.entries.len(), 1);
        assert!((-1.0..=1.0).contains(&report.entries[0].tau));
    }

    #[test]
    fn tau_is_total_on_infinities() {
        // +inf sentinels (unsimulable p99) must tie with each other and
        // order after finite values without NaN poisoning.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [f64::INFINITY, f64::INFINITY, 1.0, 2.0];
        let tau = kendall_tau_b(&a, &b);
        assert!(tau.is_finite());
    }
}
