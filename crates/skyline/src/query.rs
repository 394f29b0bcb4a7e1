//! The vocabulary of a design-space query: typed objectives,
//! constraints and Table II knob sweeps.
//!
//! A query names what to optimize ([`Objective`]), what to filter
//! ([`Constraint`]), and which continuous Table II knob ranges to sweep
//! around each discrete candidate ([`KnobSweep`]). A
//! [`PlanBuilder`](crate::PlanBuilder) compiles them into an owned
//! [`QueryPlan`](crate::QueryPlan), and a [`Session`](crate::Session)
//! runs it on the shard kernel; each kept build comes back as a
//! [`QueryPoint`].
//!
//! ```
//! use std::sync::Arc;
//! use f1_components::Catalog;
//! use f1_skyline::plan::QueryPlan;
//! use f1_skyline::query::{Constraint, Knob, KnobSweep, Objective};
//! use f1_skyline::session::Session;
//! use f1_units::Watts;
//!
//! let plan = QueryPlan::builder()
//!     .objectives(&[
//!         Objective::SafeVelocity,
//!         Objective::TotalTdp,
//!         Objective::PayloadMass,
//!         Objective::MissionEnergyWhPerKm,
//!     ])
//!     .constraint(Constraint::MaxTotalTdp(Watts::new(20.0)))
//!     .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
//!     .build()?;
//! let result = Session::new(Arc::new(Catalog::paper())).run(&plan)?;
//! assert!(!result.frontier().is_empty());
//! # Ok::<(), f1_skyline::SkylineError>(())
//! ```

use f1_components::AirframeId;
use f1_model::ModelError;
use f1_units::{Grams, MetersPerSecond, Watts};

use crate::dse::{Candidate, Outcome, Scored};
use crate::SkylineError;

pub use crate::mission::SENSOR_STACK_POWER_W;

/// One optimization axis of a query.
///
/// The first objective of a query is its **primary** objective: ranked
/// reports ([`ResultSet::ranked`](crate::ResultSet::ranked)) sort by it.
/// Frontiers treat all objectives simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Objective {
    /// F-1 safe velocity (m/s) — maximize.
    SafeVelocity,
    /// Combined compute TDP (W) — minimize.
    TotalTdp,
    /// Total payload mass including heatsink (g) — minimize.
    PayloadMass,
    /// Cruise energy per kilometre (Wh/km) at the achieved safe velocity,
    /// from the momentum-theory power model of [`crate::mission`] —
    /// minimize. Infeasible builds score `+∞` and never reach a frontier.
    MissionEnergyWhPerKm,
    /// Hover endurance (minutes) on the query's battery — maximize.
    /// Requires a mounted battery; infeasible builds score zero.
    HoverEnduranceMin,
}

impl Objective {
    /// Every objective, in the order used by reports.
    pub const ALL: [Self; 5] = [
        Self::SafeVelocity,
        Self::TotalTdp,
        Self::PayloadMass,
        Self::MissionEnergyWhPerKm,
        Self::HoverEnduranceMin,
    ];

    /// Whether bigger values are better (`false`: smaller is better).
    #[must_use]
    pub fn maximize(self) -> bool {
        matches!(self, Self::SafeVelocity | Self::HoverEnduranceMin)
    }

    /// `v` as a key to minimize: negated when bigger is better — the
    /// convention of every frontier over objective values.
    pub(crate) fn minimized(self, v: f64) -> f64 {
        if self.maximize() {
            -v
        } else {
            v
        }
    }

    /// Position of this objective in [`Objective::ALL`] — its bit in
    /// the shard kernel's objective-set masks.
    pub(crate) fn all_index(self) -> usize {
        match self {
            Self::SafeVelocity => 0,
            Self::TotalTdp => 1,
            Self::PayloadMass => 2,
            Self::MissionEnergyWhPerKm => 3,
            Self::HoverEnduranceMin => 4,
        }
    }

    /// Short human label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::SafeVelocity => "velocity",
            Self::TotalTdp => "tdp",
            Self::PayloadMass => "payload",
            Self::MissionEnergyWhPerKm => "energy",
            Self::HoverEnduranceMin => "endurance",
        }
    }

    /// The unit the objective's values are reported in.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            Self::SafeVelocity => "m/s",
            Self::TotalTdp => "W",
            Self::PayloadMass => "g",
            Self::MissionEnergyWhPerKm => "Wh/km",
            Self::HoverEnduranceMin => "min",
        }
    }
}

impl core::fmt::Display for Objective {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Objective {
    type Err = String;

    /// Parses the CLI spellings: `velocity`/`vsafe`, `tdp`/`power`,
    /// `payload`/`mass`, `energy`, `endurance`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "velocity" | "vsafe" | "safe-velocity" => Ok(Self::SafeVelocity),
            "tdp" | "power" => Ok(Self::TotalTdp),
            "payload" | "mass" => Ok(Self::PayloadMass),
            "energy" | "wh-per-km" => Ok(Self::MissionEnergyWhPerKm),
            "endurance" | "hover-endurance" => Ok(Self::HoverEnduranceMin),
            other => Err(format!(
                "unknown objective {other:?} (try velocity, tdp, payload, energy, endurance)"
            )),
        }
    }
}

/// A hard filter applied to every evaluated candidate before ranking and
/// frontier computation. Filtered candidates are counted in
/// [`ResultSet::dropped`](crate::ResultSet::dropped), not returned.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Constraint {
    /// Keep builds achieving at least this safe velocity (also drops
    /// infeasible builds, whose velocity is zero).
    MinVelocity(MetersPerSecond),
    /// Keep builds whose combined compute TDP is at most this.
    MaxTotalTdp(Watts),
    /// Keep builds whose payload (incl. heatsink) is at most this.
    MaxPayload(Grams),
    /// Keep only builds that can hover.
    FeasibleOnly,
}

impl Constraint {
    /// Does this outcome satisfy the constraint?
    #[must_use]
    pub fn admits(&self, outcome: &Outcome) -> bool {
        self.admits_scored(&Scored::of(outcome))
    }

    /// Does a candidate with these kernel values satisfy the constraint?
    #[inline]
    pub(crate) fn admits_scored(&self, scored: &Scored) -> bool {
        match *self {
            Self::MinVelocity(v) => scored.velocity >= v,
            Self::MaxTotalTdp(w) => scored.total_tdp <= w,
            Self::MaxPayload(g) => scored.payload <= g,
            Self::FeasibleOnly => scored.feasible,
        }
    }
}

/// A continuous knob from paper Table II, swept *around* each discrete
/// catalog candidate (the §VI-A "what-if" generalized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Knob {
    /// Multiply the platform TDP (throughput unchanged, heatsink resized
    /// — the paper's AGX 30 W → 15 W study is `TdpScale` at 0.5).
    TdpScale,
    /// Multiply the sensor frame rate.
    SensorRateScale,
    /// Multiply the sensor range.
    SensorRangeScale,
    /// Add extra payload mass in grams (cargo, ballast). Values must be
    /// ≥ 0: the build's own parts and the mounted battery cannot be
    /// shed by a sweep (shedding battery mass while its energy still
    /// backs the endurance objective would fabricate impossible
    /// frontier points; use [`Knob::TdpScale`] for the
    /// heatsink-shedding what-if).
    PayloadDelta,
    /// Multiply the airframe's base (frame + motors + ESC) mass —
    /// Table II's "Drone Weight". Evaluated through per-setting airframe
    /// variant tables; a lighter frame buys acceleration headroom.
    WeightScale,
    /// Multiply the per-rotor pull (thrust) — Table II's "Rotor Pull".
    /// Evaluated through per-setting airframe variant tables.
    RotorPull,
}

impl Knob {
    /// The paper Table II parameter this knob corresponds to.
    #[must_use]
    pub fn table2_parameter(self) -> &'static str {
        match self {
            Self::TdpScale => "Compute TDP",
            Self::SensorRateScale => "Sensor Framerate",
            Self::SensorRangeScale => "Sensor Range",
            Self::PayloadDelta => "Payload Weight",
            Self::WeightScale => "Drone Weight",
            Self::RotorPull => "Rotor Pull",
        }
    }

    /// The token naming this knob in canonical plan keys.
    pub(crate) fn key_token(self) -> &'static str {
        match self {
            Self::TdpScale => "tdp_scale",
            Self::SensorRateScale => "sensor_rate_scale",
            Self::SensorRangeScale => "sensor_range_scale",
            Self::PayloadDelta => "payload_delta",
            Self::WeightScale => "weight_scale",
            Self::RotorPull => "rotor_pull",
        }
    }

    /// Inverse of [`key_token`](Self::key_token).
    pub(crate) fn from_key_token(token: &str) -> Option<Self> {
        match token {
            "tdp_scale" => Some(Self::TdpScale),
            "sensor_rate_scale" => Some(Self::SensorRateScale),
            "sensor_range_scale" => Some(Self::SensorRangeScale),
            "payload_delta" => Some(Self::PayloadDelta),
            "weight_scale" => Some(Self::WeightScale),
            "rotor_pull" => Some(Self::RotorPull),
            _ => None,
        }
    }
}

/// One swept knob with its values. Multiple sweeps combine as a
/// cartesian product; sweeps of the same knob compose (scales multiply,
/// deltas add).
#[derive(Debug, Clone, PartialEq)]
pub struct KnobSweep {
    knob: Knob,
    values: Vec<f64>,
}

impl KnobSweep {
    /// A sweep over explicit values (scale factors, or gram deltas for
    /// [`Knob::PayloadDelta`]). Include `1.0` (or `0.0` for deltas) to
    /// keep the unmodified candidate in the result set.
    #[must_use]
    pub fn new(knob: Knob, values: Vec<f64>) -> Self {
        Self { knob, values }
    }

    /// A sweep over `steps` evenly spaced values in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2` or the interval is not ordered.
    #[must_use]
    // analyze::allow(panic, scope = "fn", reason = "documented `# Panics` contract of a programmatic constructor; plan keys spell their sweep values and reach KnobSweep::new")
    pub fn linear(knob: Knob, lo: f64, hi: f64, steps: usize) -> Self {
        assert!(steps >= 2, "need at least two sweep steps");
        assert!(lo < hi, "sweep interval must be ordered");
        let values = (0..steps)
            .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
            .collect();
        Self { knob, values }
    }

    /// The swept knob.
    #[must_use]
    pub fn knob(&self) -> Knob {
        self.knob
    }

    /// The swept values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub(crate) fn validate(&self) -> Result<(), SkylineError> {
        let out_of_domain = |value: f64, expected: &'static str| {
            SkylineError::Model(ModelError::OutOfDomain {
                parameter: "knob sweep value",
                value,
                expected,
            })
        };
        if self.values.is_empty() {
            return Err(out_of_domain(f64::NAN, "at least one sweep value"));
        }
        for &v in &self.values {
            match self.knob {
                Knob::TdpScale
                | Knob::SensorRateScale
                | Knob::SensorRangeScale
                | Knob::WeightScale
                | Knob::RotorPull => {
                    if !(v.is_finite() && v > 0.0) {
                        return Err(out_of_domain(v, "finite scale factor > 0"));
                    }
                }
                Knob::PayloadDelta => {
                    // Negative deltas are rejected outright: there is no
                    // baseline cargo to shed, so a negative value could
                    // only erase part or battery mass while objectives
                    // (hover endurance) kept crediting the full battery
                    // energy — a physically impossible frontier point.
                    if !(v.is_finite() && v >= 0.0) {
                        return Err(out_of_domain(v, "finite payload delta >= 0 (g)"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The resolved knob values one evaluated point was produced under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobSetting {
    /// TDP scale factor (1 = stock).
    pub tdp_scale: f64,
    /// Sensor frame-rate scale factor (1 = stock).
    pub sensor_rate_scale: f64,
    /// Sensor range scale factor (1 = stock).
    pub sensor_range_scale: f64,
    /// Extra payload mass (0 = stock; the query's battery, if any, is
    /// accounted separately).
    pub payload_delta: Grams,
    /// Airframe base-mass scale factor (1 = stock).
    pub weight_scale: f64,
    /// Per-rotor pull scale factor (1 = stock).
    pub rotor_pull_scale: f64,
}

impl KnobSetting {
    /// The stock, unswept setting.
    pub const IDENTITY: Self = Self {
        tdp_scale: 1.0,
        sensor_rate_scale: 1.0,
        sensor_range_scale: 1.0,
        payload_delta: Grams::ZERO,
        weight_scale: 1.0,
        rotor_pull_scale: 1.0,
    };

    /// Is this the stock setting?
    #[must_use]
    pub fn is_identity(&self) -> bool {
        *self == Self::IDENTITY
    }

    /// Compact human description of the non-stock knobs, e.g.
    /// `"tdp×0.50 weight×0.80"`; empty for the identity setting.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        let mut scale = |label: &str, v: f64| {
            if v != 1.0 {
                parts.push(format!("{label}×{v:.2}"));
            }
        };
        scale("tdp", self.tdp_scale);
        scale("rate", self.sensor_rate_scale);
        scale("range", self.sensor_range_scale);
        scale("weight", self.weight_scale);
        scale("pull", self.rotor_pull_scale);
        if self.payload_delta != Grams::ZERO {
            parts.push(format!("load+{:.0}g", self.payload_delta.get()));
        }
        parts.join(" ")
    }

    pub(crate) fn apply(mut self, knob: Knob, value: f64) -> Self {
        match knob {
            Knob::TdpScale => self.tdp_scale *= value,
            Knob::SensorRateScale => self.sensor_rate_scale *= value,
            Knob::SensorRangeScale => self.sensor_range_scale *= value,
            Knob::PayloadDelta => {
                self.payload_delta = Grams::new(self.payload_delta.get() + value);
            }
            Knob::WeightScale => self.weight_scale *= value,
            Knob::RotorPull => self.rotor_pull_scale *= value,
        }
        self
    }
}

/// Parameters of the cruise/hover power model used by the energy
/// objectives; defaults match [`crate::mission::MissionSpec::over`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionProfile {
    /// Hover figure of merit for the momentum-theory power estimate.
    pub figure_of_merit: f64,
    /// Parasitic power coefficient, W/(m/s)³.
    pub parasitic_coeff: f64,
    /// Usable battery fraction (depth-of-discharge guard).
    pub battery_reserve: f64,
}

impl Default for MissionProfile {
    fn default() -> Self {
        Self {
            figure_of_merit: crate::mission::DEFAULT_FIGURE_OF_MERIT,
            parasitic_coeff: crate::mission::DEFAULT_PARASITIC_COEFF,
            battery_reserve: crate::mission::DEFAULT_BATTERY_RESERVE,
        }
    }
}

impl MissionProfile {
    pub(crate) fn validate(&self) -> Result<(), SkylineError> {
        let out_of_domain = |parameter, value, expected| {
            SkylineError::Model(ModelError::OutOfDomain {
                parameter,
                value,
                expected,
            })
        };
        if !(self.figure_of_merit.is_finite()
            && self.figure_of_merit > 0.0
            && self.figure_of_merit <= 1.0)
        {
            return Err(out_of_domain(
                "figure of merit",
                self.figure_of_merit,
                "0 < FoM <= 1",
            ));
        }
        if !(self.parasitic_coeff.is_finite() && self.parasitic_coeff >= 0.0) {
            return Err(out_of_domain(
                "parasitic coeff",
                self.parasitic_coeff,
                "finite and >= 0",
            ));
        }
        if !(self.battery_reserve.is_finite()
            && self.battery_reserve > 0.0
            && self.battery_reserve <= 1.0)
        {
            return Err(out_of_domain(
                "battery reserve",
                self.battery_reserve,
                "0 < reserve <= 1",
            ));
        }
        Ok(())
    }
}

/// One evaluated point of a query: a discrete candidate, the knob
/// setting it was evaluated under, and its outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPoint {
    /// The airframe the build flies on.
    pub airframe: AirframeId,
    /// The discrete catalog candidate (stock throughput/ids; the knob
    /// setting describes how the parts were modified).
    pub candidate: Candidate,
    /// The knob setting this point was evaluated under.
    pub setting: KnobSetting,
    /// The F-1 outcome.
    pub outcome: Outcome,
}

/// The number of distinct objectives a query can carry
/// ([`Objective::ALL`] — objective lists are deduplicated), which bounds
/// a kernel row at a stack array.
pub(crate) const MAX_OBJECTIVES: usize = Objective::ALL.len();

/// The objectives a plan with none specified runs under — the classic
/// (velocity ↑, TDP ↓, payload ↓) Pareto.
pub const DEFAULT_OBJECTIVES: [Objective; 3] = [
    Objective::SafeVelocity,
    Objective::TotalTdp,
    Objective::PayloadMass,
];

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::dse::Engine;
    use crate::plan::{PlanBuilder, QueryPlan};
    use crate::session::{ResultSet, Session};
    use f1_components::{names, Catalog};

    /// Builds `plan` and runs it through a fresh session over the paper
    /// catalog.
    fn run(plan: PlanBuilder) -> Result<Arc<ResultSet>, SkylineError> {
        Session::new(Arc::new(Catalog::paper())).run(&plan.build()?)
    }

    #[test]
    fn constraints_filter_and_count() {
        let all = run(QueryPlan::builder()).unwrap();
        let constrained = run(QueryPlan::builder()
            .constraint(Constraint::MaxTotalTdp(Watts::new(5.0)))
            .constraint(Constraint::FeasibleOnly))
        .unwrap();
        assert!(constrained.len() < all.len());
        assert_eq!(constrained.len() + constrained.dropped(), all.len());
        for point in constrained.iter_points() {
            assert!(point.outcome.feasible);
            assert!(point.outcome.total_tdp.get() <= 5.0);
        }
    }

    #[test]
    fn min_velocity_drops_infeasible() {
        let result = run(
            QueryPlan::builder().constraint(Constraint::MinVelocity(MetersPerSecond::new(0.1)))
        )
        .unwrap();
        assert!(result.iter_points().all(|p| p.outcome.feasible));
    }

    #[test]
    fn tdp_sweep_reproduces_parts_level_what_if() {
        // The §VI-A AGX 30 W → 15 W study as a knob sweep: identical
        // arithmetic to the hand-built evaluate_parts path.
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let spark = catalog.airframe_id(names::DJI_SPARK).unwrap();
        let result = run(QueryPlan::builder()
            .airframes(&[spark])
            .sensors(&[catalog.sensor_id(names::RGB_60).unwrap()])
            .computes(&[catalog.compute_id(names::AGX).unwrap()])
            .algorithms(&[catalog.algorithm_id(names::DRONET).unwrap()])
            .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5])))
        .unwrap();
        assert_eq!(result.len(), 2);
        let stock = result.try_point(0).unwrap();
        let halved = result.try_point(1).unwrap();
        assert!(stock.setting.is_identity());
        assert_eq!(halved.setting.tdp_scale, 0.5);
        let manual = engine
            .evaluate_parts(
                catalog.airframe(names::DJI_SPARK).unwrap(),
                catalog.sensor(names::RGB_60).unwrap(),
                &catalog
                    .compute(names::AGX)
                    .unwrap()
                    .with_tdp_scaled(0.5)
                    .unwrap(),
                catalog.throughput(names::AGX, names::DRONET).unwrap(),
            )
            .unwrap();
        assert_eq!(halved.outcome, manual);
        assert!(halved.outcome.payload < stock.outcome.payload);
    }

    #[test]
    fn payload_delta_and_range_sweeps_shift_outcomes() {
        let catalog = Catalog::paper();
        let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
        let result = run(QueryPlan::builder()
            .airframes(&[pelican])
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![0.0, 200.0]))
            .sweep(KnobSweep::new(Knob::SensorRangeScale, vec![1.0, 2.0])))
        .unwrap();
        let points: Vec<QueryPoint> = result.iter_points().collect();
        // 4 settings per candidate.
        let per_candidate = 4;
        assert_eq!(points.len() % per_candidate, 0);
        // Extra payload can only lower (or keep) velocity; extra range
        // can only raise (or keep) it.
        let base = points.iter().find(|p| p.setting.is_identity()).unwrap();
        let heavy = points
            .iter()
            .find(|p| {
                p.candidate == base.candidate
                    && p.setting.payload_delta.get() == 200.0
                    && p.setting.sensor_range_scale == 1.0
            })
            .unwrap();
        assert!(heavy.outcome.payload > base.outcome.payload);
        assert!(heavy.outcome.velocity <= base.outcome.velocity);
        let far = points
            .iter()
            .find(|p| {
                p.candidate == base.candidate
                    && p.setting.payload_delta.get() == 0.0
                    && p.setting.sensor_range_scale == 2.0
            })
            .unwrap();
        assert!(far.outcome.velocity >= base.outcome.velocity);
    }

    #[test]
    fn airframe_knob_sweeps_shift_outcomes_through_variant_tables() {
        // Table II's drone-weight / rotor-pull knobs: a lighter frame or
        // stronger rotors can only help (more acceleration headroom ⇒
        // velocity up, or unchanged when another stage binds); the
        // payload objective must be untouched (the *frame* changed, not
        // the carried mass).
        let catalog = Catalog::paper();
        let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
        let result = run(QueryPlan::builder()
            .airframes(&[pelican])
            .sweep(KnobSweep::new(Knob::WeightScale, vec![1.0, 0.7]))
            .sweep(KnobSweep::new(Knob::RotorPull, vec![1.0, 1.3])))
        .unwrap();
        let points: Vec<QueryPoint> = result.iter_points().collect();
        let base = points.iter().find(|p| p.setting.is_identity()).unwrap();
        let light = points
            .iter()
            .find(|p| {
                p.candidate == base.candidate
                    && p.setting.weight_scale == 0.7
                    && p.setting.rotor_pull_scale == 1.0
            })
            .unwrap();
        let strong = points
            .iter()
            .find(|p| {
                p.candidate == base.candidate
                    && p.setting.weight_scale == 1.0
                    && p.setting.rotor_pull_scale == 1.3
            })
            .unwrap();
        assert!(light.outcome.velocity >= base.outcome.velocity);
        assert!(strong.outcome.velocity >= base.outcome.velocity);
        assert_eq!(light.outcome.payload, base.outcome.payload);
        assert_eq!(strong.outcome.payload, base.outcome.payload);
        // Somewhere in the catalog the physics roof must actually move.
        assert!(
            points
                .iter()
                .filter(|p| p.setting.weight_scale == 0.7)
                .zip(points.iter().filter(|p| p.setting.is_identity()))
                .any(|(l, b)| l.outcome.roof > b.outcome.roof),
            "weight scale 0.7 never raised a physics roof"
        );

        // A heavier frame can tip marginal builds into infeasibility.
        let heavy = run(QueryPlan::builder()
            .airframes(&[pelican])
            .sweep(KnobSweep::new(Knob::WeightScale, vec![3.0])))
        .unwrap();
        let infeasible_heavy = heavy.iter_points().filter(|p| !p.outcome.feasible).count();
        let infeasible_base = points
            .iter()
            .filter(|p| p.setting.is_identity() && !p.outcome.feasible)
            .count();
        assert!(infeasible_heavy >= infeasible_base);
    }

    #[test]
    fn airframe_knob_sweeps_match_manual_variants() {
        // The variant-table path must equal hand-built airframe variants
        // bit for bit.
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let spark_id = catalog.airframe_id(names::DJI_SPARK).unwrap();
        let result = run(QueryPlan::builder()
            .airframes(&[spark_id])
            .sensors(&[catalog.sensor_id(names::RGB_60).unwrap()])
            .computes(&[catalog.compute_id(names::NCS).unwrap()])
            .algorithms(&[catalog.algorithm_id(names::DRONET).unwrap()])
            .sweep(KnobSweep::new(Knob::WeightScale, vec![0.8]))
            .sweep(KnobSweep::new(Knob::RotorPull, vec![1.2])))
        .unwrap();
        assert_eq!(result.len(), 1);
        let variant = catalog
            .airframe(names::DJI_SPARK)
            .unwrap()
            .with_base_mass_scaled(0.8)
            .unwrap()
            .with_rotor_pull_scaled(1.2)
            .unwrap();
        let manual = engine
            .evaluate_parts(
                &variant,
                catalog.sensor(names::RGB_60).unwrap(),
                catalog.compute(names::NCS).unwrap(),
                catalog.throughput(names::NCS, names::DRONET).unwrap(),
            )
            .unwrap();
        assert_eq!(result.try_point(0).unwrap().outcome, manual);
    }

    #[test]
    fn negative_payload_delta_is_rejected_and_cannot_erase_mass() {
        // Sweeps cannot shed part or battery mass: negative deltas are
        // rejected up front (there is no baseline cargo to remove, and
        // partially erasing a mounted battery's mass while endurance
        // credits its full energy would fabricate impossible frontier
        // points).
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
        let battery = catalog.battery_id(names::BATTERY_PELICAN).unwrap();
        let err = run(QueryPlan::builder()
            .airframes(&[pelican])
            .battery(battery)
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![-10.0])))
        .unwrap_err();
        assert!(matches!(err, SkylineError::Model(_)));

        // Direct callers of evaluate_parts_loaded get the same floor:
        // negative extra payload contributes nothing, never less.
        let spark = catalog.airframe(names::DJI_SPARK).unwrap();
        let sensor = catalog.sensor(names::RGB_60).unwrap();
        let ncs = catalog.compute(names::NCS).unwrap();
        let rate = catalog.throughput(names::NCS, names::DRONET).unwrap();
        let stock = engine.evaluate_parts(spark, sensor, ncs, rate).unwrap();
        let shed = engine
            .evaluate_parts_loaded(spark, sensor, ncs, rate, Grams::new(-10_000.0))
            .unwrap();
        assert_eq!(shed.payload, stock.payload);
    }

    #[test]
    fn energy_objective_ranks_and_is_finite_for_feasible() {
        let result = run(QueryPlan::builder()
            .objectives(&[Objective::MissionEnergyWhPerKm, Objective::SafeVelocity])
            .constraint(Constraint::FeasibleOnly))
        .unwrap();
        assert!(!result.is_empty());
        for i in 0..result.len() {
            let energy = result.value(i, 0);
            assert!(energy.is_finite() && energy > 0.0);
        }
        // Ranked ascending by energy (primary objective, minimized).
        let ranked = result.ranked();
        for pair in ranked.windows(2) {
            assert!(result.value(pair[0], 0) <= result.value(pair[1], 0));
        }
    }

    #[test]
    fn endurance_objective_needs_and_uses_a_battery() {
        let catalog = Catalog::paper();
        let err = run(QueryPlan::builder().objective(Objective::HoverEnduranceMin)).unwrap_err();
        assert!(matches!(err, SkylineError::IncompleteSystem { .. }));

        let battery = catalog.battery_id(names::BATTERY_PELICAN).unwrap();
        let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
        let result = run(QueryPlan::builder()
            .airframes(&[pelican])
            .objective(Objective::HoverEnduranceMin)
            .battery(battery)
            .constraint(Constraint::FeasibleOnly))
        .unwrap();
        assert!(!result.is_empty());
        for i in 0..result.len() {
            let endurance = result.value(i, 0);
            assert!(endurance.is_finite() && endurance > 0.0);
            // A Pelican-sized pack hovers a research quad for minutes,
            // not hours.
            assert!(endurance < 120.0, "endurance {endurance} min");
        }
        // The battery's mass rides along as payload.
        let unloaded = run(QueryPlan::builder()
            .airframes(&[pelican])
            .constraint(Constraint::FeasibleOnly))
        .unwrap();
        let battery_mass = catalog.battery_by_id(battery).mass().get();
        let loaded_first = result.try_point(0).unwrap();
        let unloaded_match = unloaded
            .iter_points()
            .find(|p| p.candidate == loaded_first.candidate)
            .unwrap();
        assert!(
            (loaded_first.outcome.payload.get()
                - unloaded_match.outcome.payload.get()
                - battery_mass)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn four_objective_frontier_contains_three_objective_frontier_candidates() {
        // Adding an objective can only grow (or keep) the frontier set:
        // a point undominated on (v, tdp, payload) stays undominated when
        // energy is added.
        let three = run(QueryPlan::builder()).unwrap();
        let four = run(QueryPlan::builder().objectives(&[
            Objective::SafeVelocity,
            Objective::TotalTdp,
            Objective::PayloadMass,
            Objective::MissionEnergyWhPerKm,
        ]))
        .unwrap();
        assert!(four.frontier().len() >= three.frontier().len());
        for &i in three.frontier() {
            assert!(
                four.frontier().contains(&i),
                "3-objective frontier point {i} missing from 4-objective frontier"
            );
        }
    }

    #[test]
    fn ranked_orders_by_primary_objective() {
        let catalog = Catalog::paper();
        // Primary = TDP: every airframe's slice of the ranking must be
        // ascending in TDP among feasible entries, not descending in
        // velocity.
        let result =
            run(QueryPlan::builder().objectives(&[Objective::TotalTdp, Objective::SafeVelocity]))
                .unwrap();
        let ranked = result.ranked();
        assert_eq!(ranked.len(), result.len());
        for (airframe, _) in catalog.airframe_entries() {
            let keys: Vec<_> = ranked
                .iter()
                .map(|&i| result.try_key(i).unwrap())
                .filter(|key| key.airframe == airframe)
                .collect();
            assert!(!keys.is_empty());
            let tdps: Vec<f64> = keys
                .iter()
                .filter(|key| key.feasible)
                .map(|key| catalog.compute_by_id(key.candidate.compute).tdp().get())
                .collect();
            for pair in tdps.windows(2) {
                assert!(pair[0] <= pair[1], "{airframe:?}: {tdps:?}");
            }
            // Feasible entries precede infeasible ones.
            if let Some(pos) = keys.iter().position(|key| !key.feasible) {
                assert!(keys[pos..].iter().all(|key| !key.feasible));
            }
        }
    }

    #[test]
    fn duplicate_objectives_are_deduplicated() {
        let result = run(QueryPlan::builder().objectives(&[
            Objective::SafeVelocity,
            Objective::SafeVelocity,
            Objective::TotalTdp,
        ]))
        .unwrap();
        assert_eq!(
            result.objectives(),
            [Objective::SafeVelocity, Objective::TotalTdp]
        );
    }

    #[test]
    fn invalid_sweeps_and_profiles_are_rejected() {
        for knob in [Knob::TdpScale, Knob::WeightScale, Knob::RotorPull] {
            assert!(
                run(QueryPlan::builder().sweep(KnobSweep::new(knob, vec![0.0]))).is_err(),
                "{knob:?}"
            );
        }
        assert!(run(QueryPlan::builder().sweep(KnobSweep::new(Knob::TdpScale, vec![]))).is_err());
        assert!(
            run(QueryPlan::builder().sweep(KnobSweep::new(Knob::PayloadDelta, vec![f64::NAN])))
                .is_err()
        );
        let profile = MissionProfile {
            figure_of_merit: 1.5,
            ..MissionProfile::default()
        };
        assert!(run(QueryPlan::builder().mission_profile(profile)).is_err());
    }

    #[test]
    fn nonfinite_energy_points_are_counted_not_silently_dropped() {
        // Regression: a sensor-range scale of 1e-307 crushes the sensing
        // range toward the smallest normal float. Builds stay feasible
        // (they can hover) but the achieved velocity collapses toward
        // zero, so the Wh/km energy objective overflows to +∞. Those
        // points used to vanish from the frontier with no accounting;
        // they must be counted.
        let result = run(QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity, Objective::MissionEnergyWhPerKm])
            .constraint(Constraint::FeasibleOnly)
            .sweep(KnobSweep::new(Knob::SensorRangeScale, vec![1e-307])))
        .unwrap();
        assert!(!result.is_empty());
        assert!(result.iter_points().all(|p| p.outcome.feasible));
        // Every kept point is feasible with +∞ energy: all counted.
        assert_eq!(result.nonfinite(), result.len());
        // Excluded from the frontier domain, but never lost from points.
        let (keys, map) = result.minimized_keys();
        assert!(keys.is_empty() && map.is_empty());
        assert!(result.frontier().is_empty());
        // A finite-valued query counts zero.
        let finite = run(QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity, Objective::MissionEnergyWhPerKm])
            .constraint(Constraint::FeasibleOnly))
        .unwrap();
        assert_eq!(finite.nonfinite(), 0);
        assert!(!finite.frontier().is_empty());
        // The count is exactly the feasible rows holding a non-finite
        // value.
        let counted = (0..result.len())
            .filter(|&i| {
                result.try_key(i).unwrap().feasible
                    && result.try_row(i).unwrap().iter().any(|v| !v.is_finite())
            })
            .count();
        assert_eq!(counted, result.nonfinite());
    }

    #[test]
    fn out_of_domain_knob_variants_fail_before_the_pass_naming_the_knob() {
        // 1e308 passes the sweep-value validation (finite, positive) but
        // scales the catalog rates/ranges/masses to infinity: the
        // variant build must reject it before any evaluation runs,
        // naming the knob.
        for (knob, expected) in [
            (Knob::SensorRateScale, "Sensor Framerate"),
            (Knob::SensorRangeScale, "Sensor Range"),
            (Knob::TdpScale, "Compute TDP"),
            (Knob::WeightScale, "Drone Weight"),
            (Knob::RotorPull, "Rotor Pull"),
        ] {
            let err =
                run(QueryPlan::builder().sweep(KnobSweep::new(knob, vec![1e308]))).unwrap_err();
            match err {
                SkylineError::KnobVariant { knob, value, .. } => {
                    assert_eq!(knob, expected);
                    assert_eq!(value, 1e308);
                }
                other => panic!("expected KnobVariant, got {other:?}"),
            }
        }
        // Stacked payload deltas compose by addition: two individually
        // valid values summing to +∞ must fail the same way, not panic
        // in the units layer.
        let err = run(QueryPlan::builder()
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![1e308]))
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![1e308])))
        .unwrap_err();
        assert!(matches!(
            err,
            SkylineError::KnobVariant {
                knob: "Payload Weight",
                ..
            }
        ));
    }

    #[test]
    fn objective_parsing_round_trips() {
        for objective in Objective::ALL {
            let parsed: Objective = objective.label().parse().unwrap();
            assert_eq!(parsed, objective);
        }
        assert!("warp-drive".parse::<Objective>().is_err());
    }

    #[test]
    fn knob_tokens_round_trip() {
        for knob in [
            Knob::TdpScale,
            Knob::SensorRateScale,
            Knob::SensorRangeScale,
            Knob::PayloadDelta,
            Knob::WeightScale,
            Knob::RotorPull,
        ] {
            assert_eq!(Knob::from_key_token(knob.key_token()), Some(knob));
        }
        assert_eq!(Knob::from_key_token("warp"), None);
    }

    #[test]
    fn knob_setting_describe_is_compact() {
        assert_eq!(KnobSetting::IDENTITY.describe(), "");
        let setting = KnobSetting::IDENTITY
            .apply(Knob::TdpScale, 0.5)
            .apply(Knob::WeightScale, 0.8)
            .apply(Knob::PayloadDelta, 150.0);
        let text = setting.describe();
        assert!(text.contains("tdp×0.50"));
        assert!(text.contains("weight×0.80"));
        assert!(text.contains("load+150g"));
    }

    #[test]
    fn queries_are_deterministic() {
        let build = || {
            run(QueryPlan::builder()
                .objectives(&[
                    Objective::SafeVelocity,
                    Objective::TotalTdp,
                    Objective::MissionEnergyWhPerKm,
                ])
                .sweep(KnobSweep::linear(Knob::TdpScale, 0.5, 1.0, 3)))
            .unwrap()
        };
        assert_eq!(build(), build());
    }
}
