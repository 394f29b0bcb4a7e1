//! Pins the tier-2 values of the gusty and degraded environments.
//!
//! The tier-2 goldens are calm: calm trials at the derated velocity
//! never infract, so every robustness value they hold is `1.0`, and a
//! change that moves an infraction verdict still passes them. This test
//! runs the [`ScenarioConfig::gusty`] and [`ScenarioConfig::degraded`]
//! presets, where trials do infract, over the paper catalog and a
//! synthesized 10⁴-candidate catalog, and folds every sim block (each
//! row's candidate id, survivor index and value bits, and the
//! verification report) into one FNV-1a digest. It asserts that some
//! robustness values lie strictly inside `(0, 1)`, so the digest covers
//! trials on both sides of the infraction verdict.
//!
//! The digest must not move when trials get cheaper; a change to the
//! simulated physics, the disturbance draw or the seed scheme moves it
//! on purpose and re-blesses [`SCENARIO_BITS`]. Like every tier-2
//! golden it depends on the platform's `ln` and `cos`.

use std::sync::Arc;

use f1_components::Catalog;
use f1_sim::{ScenarioConfig, SimHarness};
use f1_skyline::plan::{QueryPlan, SimObjective};
use f1_skyline::query::{Knob, KnobSweep, Objective};
use f1_skyline::session::Session;
use f1_skyline::tier2::SimBlock;

/// The digest of every sim block below.
const SCENARIO_BITS: u64 = 0x4021_5350_f674_5e43;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn block(&mut self, block: &SimBlock) {
        self.u64(block.rows.len() as u64);
        for row in &block.rows {
            self.u64(row.candidate_id);
            self.u64(row.index as u64);
            for &v in &row.values {
                self.f64(v);
            }
        }
        for entry in &block.report.entries {
            self.f64(entry.tau);
            self.f64(entry.agreement);
            self.u64(entry.outliers.len() as u64);
            for &id in &entry.outliers {
                self.u64(id);
            }
        }
    }
}

/// Robustness over 32 trials and the pipeline p99, ranked by safe
/// velocity and TDP; `range_scale` shortens the sensing range.
fn plan(range_scale: f64, budget: usize) -> QueryPlan {
    QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
        .sweep(KnobSweep::new(Knob::SensorRangeScale, vec![range_scale]))
        .sim_objective(SimObjective::MissionRobustness { trials: 32 })
        .sim_objective(SimObjective::PipelineP99Latency)
        .survivor_budget(budget)
        .build()
        .expect("valid tier-2 plan")
}

#[test]
fn gusty_and_degraded_sim_values_are_pinned() {
    // The paper catalog at its own ranges, and the synthesized catalog
    // of the fig. 7 floor in its short-range, decision-rate-limited
    // regime, where the derated velocity sits near the infraction edge.
    let runs = [
        (Catalog::paper(), plan(1.0, 32)),
        (Catalog::synthesize(0x5EED_F1F0, 10), plan(0.02, 64)),
    ];
    let mut hash = Fnv::new();
    let mut inside = 0;
    for config in [ScenarioConfig::gusty(), ScenarioConfig::degraded()] {
        let harness = Arc::new(SimHarness::new(config).expect("preset is valid"));
        for (catalog, plan) in &runs {
            let result = Session::new(Arc::new(catalog.clone()))
                .with_tier2(harness.clone())
                .run(plan)
                .expect("tier-2 query");
            let block = result.sim().expect("sim block");
            assert!(!block.rows.is_empty(), "no survivors simulated");
            hash.block(block);
            inside += block
                .rows
                .iter()
                .filter_map(|r| r.values.first())
                .filter(|&&v| v > 0.0 && v < 1.0)
                .count();
        }
    }
    assert!(inside > 0, "no robustness value inside (0, 1)");
    assert_eq!(
        hash.0, SCENARIO_BITS,
        "gusty/degraded sim bits moved: {:#018x} ({inside} robustness values inside (0, 1))",
        hash.0
    );
}
