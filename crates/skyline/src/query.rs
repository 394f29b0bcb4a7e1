//! The composable DSE query API: typed objectives, constraints and knob
//! sweeps over the exploration engine.
//!
//! [`Engine::explore_all`](crate::dse::Engine::explore_all) hardcodes one
//! objective set — the (safe velocity, TDP, payload) Pareto. This module
//! makes the exploration *expressible*: a [`Query`] names what to
//! optimize ([`Objective`]), what to filter ([`Constraint`]), and which
//! continuous Table II knob ranges to sweep around each discrete
//! candidate ([`KnobSweep`]).
//!
//! Since the compile/execute split, [`Query`] is a thin borrowed facade:
//! [`Query::run`] compiles the request into an owned
//! [`QueryPlan`] and executes it on the
//! same shard kernel that backs [`Session::run`](crate::Session::run) —
//! use [`Query::plan`] to keep the compiled plan and hand it to a
//! session for caching, batching and multi-threaded serving.
//!
//! ```
//! use f1_components::{names, Catalog};
//! use f1_skyline::dse::Engine;
//! use f1_skyline::query::{Constraint, Knob, KnobSweep, Objective};
//! use f1_units::Watts;
//!
//! let catalog = Catalog::paper();
//! let engine = Engine::new(&catalog);
//! let result = engine
//!     .query()
//!     .objectives(&[
//!         Objective::SafeVelocity,
//!         Objective::TotalTdp,
//!         Objective::PayloadMass,
//!         Objective::MissionEnergyWhPerKm,
//!     ])
//!     .constraint(Constraint::MaxTotalTdp(Watts::new(20.0)))
//!     .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
//!     .run()?;
//! assert!(!result.frontier().is_empty());
//! # Ok::<(), f1_skyline::SkylineError>(())
//! ```

use std::collections::BTreeMap;

use f1_components::{AirframeId, AlgorithmId, BatteryId, ComputeId, SensorId};
use f1_model::ModelError;
use f1_units::{Grams, MetersPerSecond, Watts};

use crate::dse::{Candidate, DseOutcome, DseResult, Engine, Outcome, Scored};
use crate::plan::{PlanBuilder, QueryPlan};
use crate::session::{run_plans, ResultSet};
use crate::SkylineError;

pub use crate::mission::SENSOR_STACK_POWER_W;

/// One optimization axis of a query.
///
/// The first objective of a query is its **primary** objective: ranked
/// reports ([`ResultSet::ranked`], [`Engine::describe_query`]) sort by
/// it. Frontiers treat all objectives simultaneously.
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
/// [`ResultSet::dropped`], not returned.
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

/// A builder-style, composable design-space query over an [`Engine`].
///
/// Construct with [`Engine::query`]; see the [module docs](self) for a
/// full example. With no explicit objectives, constraints or sweeps, a
/// query reproduces the engine's classic 3-objective exploration —
/// [`Engine::explore_all`] is literally a default query.
///
/// A `Query` borrows the engine; [`Query::plan`] compiles the identical
/// request into an owned [`QueryPlan`] for the
/// [`Session`](crate::Session) serving path.
#[derive(Debug, Clone)]
pub struct Query<'e, 'c> {
    engine: &'e Engine<'c>,
    builder: PlanBuilder,
}

/// The objectives a query with none specified runs under — the engine's
/// classic (velocity ↑, TDP ↓, payload ↓) Pareto.
pub const DEFAULT_OBJECTIVES: [Objective; 3] = [
    Objective::SafeVelocity,
    Objective::TotalTdp,
    Objective::PayloadMass,
];

impl<'e, 'c> Query<'e, 'c> {
    pub(crate) fn new(engine: &'e Engine<'c>) -> Self {
        Self {
            engine,
            builder: QueryPlan::builder(),
        }
    }

    /// Appends one objective (the first appended is the primary).
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.builder = self.builder.objective(objective);
        self
    }

    /// Replaces the objective list (first entry is the primary).
    #[must_use]
    pub fn objectives(mut self, objectives: &[Objective]) -> Self {
        self.builder = self.builder.objectives(objectives);
        self
    }

    /// Adds a hard constraint.
    #[must_use]
    pub fn constraint(mut self, constraint: Constraint) -> Self {
        self.builder = self.builder.constraint(constraint);
        self
    }

    /// Adds a knob sweep (cartesian product with any earlier sweeps).
    #[must_use]
    pub fn sweep(mut self, sweep: KnobSweep) -> Self {
        self.builder = self.builder.sweep(sweep);
        self
    }

    /// Restricts the query to these airframes (default: all).
    #[must_use]
    pub fn airframes(mut self, ids: &[AirframeId]) -> Self {
        self.builder = self.builder.airframes(ids);
        self
    }

    /// Restricts the query to these sensors (default: all).
    #[must_use]
    pub fn sensors(mut self, ids: &[SensorId]) -> Self {
        self.builder = self.builder.sensors(ids);
        self
    }

    /// Restricts the query to these compute platforms (default: all).
    #[must_use]
    pub fn computes(mut self, ids: &[ComputeId]) -> Self {
        self.builder = self.builder.computes(ids);
        self
    }

    /// Restricts the query to these algorithms (default: all).
    #[must_use]
    pub fn algorithms(mut self, ids: &[AlgorithmId]) -> Self {
        self.builder = self.builder.algorithms(ids);
        self
    }

    /// Mounts a battery on every candidate: its mass joins the payload,
    /// and [`Objective::HoverEnduranceMin`] draws on its capacity.
    #[must_use]
    pub fn battery(mut self, id: BatteryId) -> Self {
        self.builder = self.builder.battery(id);
        self
    }

    /// Overrides the power-model parameters of the energy objectives.
    #[must_use]
    pub fn mission_profile(mut self, profile: MissionProfile) -> Self {
        self.builder = self.builder.mission_profile(profile);
        self
    }

    /// Sets the point-materialization policy (see
    /// [`KeepPoints`](crate::KeepPoints)): `Auto` (default) streams
    /// only past [`crate::shard::STREAM_AUTO_THRESHOLD`] candidates,
    /// `All` always retains every point, `FrontierOnly` always streams.
    #[must_use]
    pub fn keep_points(mut self, keep_points: crate::KeepPoints) -> Self {
        self.builder = self.builder.keep_points(keep_points);
        self
    }

    /// The objectives this query will run under (the default set if none
    /// were specified, deduplicated preserving first occurrence).
    #[must_use]
    pub fn resolved_objectives(&self) -> Vec<Objective> {
        self.builder.resolved_objectives()
    }

    /// Compiles this query into an owned, engine-free [`QueryPlan`] —
    /// the value to cache, batch and serve through a
    /// [`Session`](crate::Session).
    ///
    /// # Errors
    ///
    /// Same validation as [`PlanBuilder::build`].
    pub fn plan(&self) -> Result<QueryPlan, SkylineError> {
        self.builder.clone().build()
    }

    /// Compiles and runs the query: one parallel shard-kernel pass over
    /// every airframe × knob setting × characterized candidate —
    /// evaluation, constraint filtering, objective extraction and the
    /// per-shard skylines all happen inside the pass — followed by the
    /// exact frontier merge.
    ///
    /// This is a compatibility wrapper over [`plan`](Self::plan) plus
    /// the shard kernel ([`crate::shard`]) that backs
    /// [`Session::run`](crate::Session::run); unlike a session it
    /// caches nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SkylineError::IncompleteSystem`] when
    /// [`Objective::HoverEnduranceMin`] is requested without a
    /// [`battery`](Self::battery), [`SkylineError::Model`] for invalid
    /// sweep values or mission-profile parameters, and
    /// [`SkylineError::KnobVariant`] — naming the offending knob — when
    /// a sweep value produces an out-of-domain component variant. All of
    /// these surface **before** the parallel pass; an evaluation error
    /// raised mid-pass (unreachable for catalog parts and validated
    /// variants) is propagated deterministically in enumeration order.
    /// Infeasible builds are outcomes, not errors.
    pub fn run(&self) -> Result<ResultSet, SkylineError> {
        self.run_impl(true)
    }

    /// [`run`](Self::run) without the frontier pass, for the classic
    /// `explore_*` wrappers that only re-rank points and would discard
    /// it ([`Exploration::pareto_frontier`](crate::dse::Exploration)
    /// computes its own on demand). The returned result's `frontier()`
    /// is empty.
    pub(crate) fn run_without_frontier(&self) -> Result<ResultSet, SkylineError> {
        self.run_impl(false)
    }

    fn run_impl(&self, with_frontier: bool) -> Result<ResultSet, SkylineError> {
        let plan = self.plan()?;
        let mut results = run_plans(&self.engine.pass_context(), &[&plan], with_frontier)?;
        Ok(results.pop().expect("one plan in, one result out"))
    }
}

impl<'c> Engine<'c> {
    /// Starts a composable design-space query over this engine's catalog.
    /// See the [`query`](self) module docs for the full API.
    #[must_use]
    pub fn query(&self) -> Query<'_, 'c> {
        Query::new(self)
    }

    /// Renders a query result into the string-keyed [`DseResult`]
    /// compatibility view, one per airframe (in airframe-name order),
    /// each ranked by the query's **primary objective** — feasible
    /// first, ties in enumeration order.
    #[must_use]
    pub fn describe_query(&self, result: &ResultSet) -> Vec<DseResult> {
        let catalog = self.catalog();
        let key = |index| {
            result
                .try_key(index)
                .expect("ranked indices are stored rows")
        };
        let mut groups: BTreeMap<AirframeId, Vec<usize>> = BTreeMap::new();
        for index in result.ranked() {
            groups.entry(key(index).airframe).or_default().push(index);
        }
        self.airframe_ids()
            .iter()
            .filter_map(|id| groups.get(id).map(|indices| (id, indices)))
            .map(|(&airframe, indices)| DseResult {
                airframe: catalog.airframe_by_id(airframe).name().to_owned(),
                ranked: indices
                    .iter()
                    .map(|&i| {
                        let point = result.point(i);
                        DseOutcome {
                            sensor: catalog
                                .sensor_by_id(point.candidate.sensor)
                                .name()
                                .to_owned(),
                            compute: catalog
                                .compute_by_id(point.candidate.compute)
                                .name()
                                .to_owned(),
                            algorithm: catalog
                                .algorithm_by_id(point.candidate.algorithm)
                                .name()
                                .to_owned(),
                            velocity: point.outcome.velocity,
                            bound: point.outcome.bound,
                            feasible: point.outcome.feasible,
                        }
                    })
                    .collect(),
                uncharacterized: result.uncharacterized(),
                // Per-airframe slice of the query-wide count, so the
                // reports sum back to `result.nonfinite()`.
                nonfinite: indices
                    .iter()
                    .filter(|&&i| {
                        key(i).feasible
                            && (0..result.objectives().len())
                                .any(|p| !result.value(i, p).is_finite())
                    })
                    .count(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_components::{names, Catalog};

    #[test]
    fn default_query_matches_classic_exploration() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let result = engine.query().run().unwrap();
        let classic = engine.explore_all().unwrap();
        assert_eq!(result.points().len(), classic.evaluated_count());
        assert_eq!(result.objectives(), DEFAULT_OBJECTIVES);
        // Identical frontier membership (order differs: the classic API
        // reports in (airframe, rank) order, the query in enumeration
        // order).
        let classic_frontier = classic.pareto_frontier();
        assert_eq!(result.frontier().len(), classic_frontier.len());
        for point in result.frontier_points() {
            assert!(classic_frontier.iter().any(|p| {
                p.airframe == point.airframe
                    && *p.evaluated
                        == crate::dse::Evaluated {
                            candidate: point.candidate,
                            outcome: point.outcome,
                        }
            }));
        }
    }

    #[test]
    fn constraints_filter_and_count() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let all = engine.query().run().unwrap();
        let constrained = engine
            .query()
            .constraint(Constraint::MaxTotalTdp(Watts::new(5.0)))
            .constraint(Constraint::FeasibleOnly)
            .run()
            .unwrap();
        assert!(constrained.points().len() < all.points().len());
        assert_eq!(
            constrained.points().len() + constrained.dropped(),
            all.points().len()
        );
        for point in constrained.points() {
            assert!(point.outcome.feasible);
            assert!(point.outcome.total_tdp.get() <= 5.0);
        }
    }

    #[test]
    fn min_velocity_drops_infeasible() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let result = engine
            .query()
            .constraint(Constraint::MinVelocity(MetersPerSecond::new(0.1)))
            .run()
            .unwrap();
        assert!(result.points().iter().all(|p| p.outcome.feasible));
    }

    #[test]
    fn tdp_sweep_reproduces_parts_level_what_if() {
        // The §VI-A AGX 30 W → 15 W study as a knob sweep: identical
        // arithmetic to the hand-built evaluate_parts path.
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let spark = catalog.airframe_id(names::DJI_SPARK).unwrap();
        let result = engine
            .query()
            .airframes(&[spark])
            .sensors(&[catalog.sensor_id(names::RGB_60).unwrap()])
            .computes(&[catalog.compute_id(names::AGX).unwrap()])
            .algorithms(&[catalog.algorithm_id(names::DRONET).unwrap()])
            .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
            .run()
            .unwrap();
        assert_eq!(result.points().len(), 2);
        let stock = &result.points()[0];
        let halved = &result.points()[1];
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
        let engine = Engine::new(&catalog);
        let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
        let result = engine
            .query()
            .airframes(&[pelican])
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![0.0, 200.0]))
            .sweep(KnobSweep::new(Knob::SensorRangeScale, vec![1.0, 2.0]))
            .run()
            .unwrap();
        // 4 settings per candidate.
        let per_candidate = 4;
        assert_eq!(result.points().len() % per_candidate, 0);
        // Extra payload can only lower (or keep) velocity; extra range
        // can only raise (or keep) it.
        let base = result
            .points()
            .iter()
            .find(|p| p.setting.is_identity())
            .unwrap();
        let heavy = result
            .points()
            .iter()
            .find(|p| {
                p.candidate == base.candidate
                    && p.setting.payload_delta.get() == 200.0
                    && p.setting.sensor_range_scale == 1.0
            })
            .unwrap();
        assert!(heavy.outcome.payload > base.outcome.payload);
        assert!(heavy.outcome.velocity <= base.outcome.velocity);
        let far = result
            .points()
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
        let engine = Engine::new(&catalog);
        let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
        let result = engine
            .query()
            .airframes(&[pelican])
            .sweep(KnobSweep::new(Knob::WeightScale, vec![1.0, 0.7]))
            .sweep(KnobSweep::new(Knob::RotorPull, vec![1.0, 1.3]))
            .run()
            .unwrap();
        let base = result
            .points()
            .iter()
            .find(|p| p.setting.is_identity())
            .unwrap();
        let light = result
            .points()
            .iter()
            .find(|p| {
                p.candidate == base.candidate
                    && p.setting.weight_scale == 0.7
                    && p.setting.rotor_pull_scale == 1.0
            })
            .unwrap();
        let strong = result
            .points()
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
            result
                .points()
                .iter()
                .filter(|p| p.setting.weight_scale == 0.7)
                .zip(result.points().iter().filter(|p| p.setting.is_identity()))
                .any(|(l, b)| l.outcome.roof > b.outcome.roof),
            "weight scale 0.7 never raised a physics roof"
        );

        // A heavier frame can tip marginal builds into infeasibility.
        let heavy = engine
            .query()
            .airframes(&[pelican])
            .sweep(KnobSweep::new(Knob::WeightScale, vec![3.0]))
            .run()
            .unwrap();
        let infeasible_heavy = heavy
            .points()
            .iter()
            .filter(|p| !p.outcome.feasible)
            .count();
        let infeasible_base = result
            .points()
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
        let result = engine
            .query()
            .airframes(&[spark_id])
            .sensors(&[catalog.sensor_id(names::RGB_60).unwrap()])
            .computes(&[catalog.compute_id(names::NCS).unwrap()])
            .algorithms(&[catalog.algorithm_id(names::DRONET).unwrap()])
            .sweep(KnobSweep::new(Knob::WeightScale, vec![0.8]))
            .sweep(KnobSweep::new(Knob::RotorPull, vec![1.2]))
            .run()
            .unwrap();
        assert_eq!(result.points().len(), 1);
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
        assert_eq!(result.points()[0].outcome, manual);
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
        let err = engine
            .query()
            .airframes(&[pelican])
            .battery(battery)
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![-10.0]))
            .run()
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
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let result = engine
            .query()
            .objectives(&[Objective::MissionEnergyWhPerKm, Objective::SafeVelocity])
            .constraint(Constraint::FeasibleOnly)
            .run()
            .unwrap();
        assert!(!result.points().is_empty());
        for i in 0..result.points().len() {
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
        let engine = Engine::new(&catalog);
        let err = engine
            .query()
            .objective(Objective::HoverEnduranceMin)
            .run()
            .unwrap_err();
        assert!(matches!(err, SkylineError::IncompleteSystem { .. }));

        let battery = catalog.battery_id(names::BATTERY_PELICAN).unwrap();
        let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
        let result = engine
            .query()
            .airframes(&[pelican])
            .objective(Objective::HoverEnduranceMin)
            .battery(battery)
            .constraint(Constraint::FeasibleOnly)
            .run()
            .unwrap();
        assert!(!result.points().is_empty());
        for i in 0..result.points().len() {
            let endurance = result.value(i, 0);
            assert!(endurance.is_finite() && endurance > 0.0);
            // A Pelican-sized pack hovers a research quad for minutes,
            // not hours.
            assert!(endurance < 120.0, "endurance {endurance} min");
        }
        // The battery's mass rides along as payload.
        let unloaded = engine
            .query()
            .airframes(&[pelican])
            .constraint(Constraint::FeasibleOnly)
            .run()
            .unwrap();
        let battery_mass = catalog.battery_by_id(battery).mass().get();
        let loaded_first = &result.points()[0];
        let unloaded_match = unloaded
            .points()
            .iter()
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
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let three = engine.query().run().unwrap();
        let four = engine
            .query()
            .objectives(&[
                Objective::SafeVelocity,
                Objective::TotalTdp,
                Objective::PayloadMass,
                Objective::MissionEnergyWhPerKm,
            ])
            .run()
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
    fn describe_query_ranks_by_primary_objective() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        // Primary = TDP: every airframe's report must be ascending in
        // TDP among feasible entries, not descending in velocity.
        let result = engine
            .query()
            .objectives(&[Objective::TotalTdp, Objective::SafeVelocity])
            .run()
            .unwrap();
        let reports = engine.describe_query(&result);
        assert_eq!(reports.len(), catalog.airframe_count());
        for report in &reports {
            let tdps: Vec<f64> = report
                .ranked
                .iter()
                .filter(|o| o.feasible)
                .map(|o| catalog.compute(&o.compute).unwrap().tdp().get())
                .collect();
            for pair in tdps.windows(2) {
                assert!(pair[0] <= pair[1], "{}: {tdps:?}", report.airframe);
            }
            // Feasible entries precede infeasible ones.
            let first_infeasible = report.ranked.iter().position(|o| !o.feasible);
            if let Some(pos) = first_infeasible {
                assert!(report.ranked[pos..].iter().all(|o| !o.feasible));
            }
        }
    }

    #[test]
    fn duplicate_objectives_are_deduplicated() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let result = engine
            .query()
            .objectives(&[
                Objective::SafeVelocity,
                Objective::SafeVelocity,
                Objective::TotalTdp,
            ])
            .run()
            .unwrap();
        assert_eq!(
            result.objectives(),
            [Objective::SafeVelocity, Objective::TotalTdp]
        );
    }

    #[test]
    fn invalid_sweeps_and_profiles_are_rejected() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        for knob in [Knob::TdpScale, Knob::WeightScale, Knob::RotorPull] {
            assert!(
                engine
                    .query()
                    .sweep(KnobSweep::new(knob, vec![0.0]))
                    .run()
                    .is_err(),
                "{knob:?}"
            );
        }
        assert!(engine
            .query()
            .sweep(KnobSweep::new(Knob::TdpScale, vec![]))
            .run()
            .is_err());
        assert!(engine
            .query()
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![f64::NAN]))
            .run()
            .is_err());
        let profile = MissionProfile {
            figure_of_merit: 1.5,
            ..MissionProfile::default()
        };
        assert!(engine.query().mission_profile(profile).run().is_err());
    }

    #[test]
    fn nonfinite_energy_points_are_counted_not_silently_dropped() {
        // Regression: a sensor-range scale of 1e-307 crushes the sensing
        // range toward the smallest normal float. Builds stay feasible
        // (they can hover) but the achieved velocity collapses toward
        // zero, so the Wh/km energy objective overflows to +∞. Those
        // points used to vanish from the frontier with no accounting;
        // they must be counted.
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let result = engine
            .query()
            .objectives(&[Objective::SafeVelocity, Objective::MissionEnergyWhPerKm])
            .constraint(Constraint::FeasibleOnly)
            .sweep(KnobSweep::new(Knob::SensorRangeScale, vec![1e-307]))
            .run()
            .unwrap();
        assert!(!result.points().is_empty());
        assert!(result.points().iter().all(|p| p.outcome.feasible));
        // Every kept point is feasible with +∞ energy: all counted.
        assert_eq!(result.nonfinite(), result.points().len());
        // Excluded from the frontier domain, but never lost from points.
        let (keys, map) = result.minimized_keys();
        assert!(keys.is_empty() && map.is_empty());
        assert!(result.frontier().is_empty());
        // A finite-valued query counts zero.
        let finite = engine
            .query()
            .objectives(&[Objective::SafeVelocity, Objective::MissionEnergyWhPerKm])
            .constraint(Constraint::FeasibleOnly)
            .run()
            .unwrap();
        assert_eq!(finite.nonfinite(), 0);
        assert!(!finite.frontier().is_empty());
        // The per-airframe reports carry their slice of the count and
        // sum back to the query-wide total.
        let reports = engine.describe_query(&result);
        assert_eq!(
            reports.iter().map(|r| r.nonfinite).sum::<usize>(),
            result.nonfinite()
        );
        assert!(reports.iter().any(|r| r.nonfinite > 0));
    }

    #[test]
    fn out_of_domain_knob_variants_fail_before_the_pass_naming_the_knob() {
        // 1e308 passes the sweep-value validation (finite, positive) but
        // scales the catalog rates/ranges/masses to infinity: the
        // variant build must reject it before any evaluation runs,
        // naming the knob.
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        for (knob, expected) in [
            (Knob::SensorRateScale, "Sensor Framerate"),
            (Knob::SensorRangeScale, "Sensor Range"),
            (Knob::TdpScale, "Compute TDP"),
            (Knob::WeightScale, "Drone Weight"),
            (Knob::RotorPull, "Rotor Pull"),
        ] {
            let err = engine
                .query()
                .sweep(KnobSweep::new(knob, vec![1e308]))
                .run()
                .unwrap_err();
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
        let err = engine
            .query()
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![1e308]))
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![1e308]))
            .run()
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
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let build = || {
            engine
                .query()
                .objectives(&[
                    Objective::SafeVelocity,
                    Objective::TotalTdp,
                    Objective::MissionEnergyWhPerKm,
                ])
                .sweep(KnobSweep::linear(Knob::TdpScale, 0.5, 1.0, 3))
                .run()
                .unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn query_plan_compiles_the_same_request() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let query = engine
            .query()
            .objectives(&[Objective::TotalTdp, Objective::SafeVelocity])
            .constraint(Constraint::FeasibleOnly)
            .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]));
        let plan = query.plan().unwrap();
        assert_eq!(
            plan.objectives(),
            [Objective::TotalTdp, Objective::SafeVelocity]
        );
        // The borrowed run and the owned plan through a session agree.
        let borrowed = query.run().unwrap();
        let session = crate::session::Session::new(std::sync::Arc::new(Catalog::paper()));
        let owned = session.run(&plan).unwrap();
        assert_eq!(*owned, borrowed);
    }
}
