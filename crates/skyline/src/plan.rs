//! Owned, executable query plans — the **compile** half of the
//! compile/execute split.
//!
//! [`Engine::query()`](crate::dse::Engine::query) builds a query that
//! borrows the engine and its catalog, which is fine for one-shot
//! exploration but useless for a *service*: a borrowed query cannot be
//! cached, sent to another thread, or replayed against a shared catalog.
//! A [`QueryPlan`] is the owned, `Send + Sync` compilation of the same
//! request: objectives, constraints, Table II knob sweeps (expanded and
//! validated at build time) and an optional subspace restriction, with
//! **no engine or catalog lifetime** anywhere in the type. Plans execute
//! against a [`Session`](crate::Session), which runs each plan on the
//! shard kernel (batches of plans with one evaluation signature in one
//! fused parallel pass) and memoizes results under each plan's
//! [canonical key](QueryPlan::key).
//!
//! ```
//! use f1_skyline::plan::QueryPlan;
//! use f1_skyline::query::{Constraint, Knob, KnobSweep, Objective};
//! use f1_units::Watts;
//!
//! let plan = QueryPlan::builder()
//!     .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
//!     .constraint(Constraint::MaxTotalTdp(Watts::new(20.0)))
//!     .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
//!     .build()?;
//! // The canonical key identifies the plan for caching and dedup, and
//! // round-trips the whole plan.
//! let replayed = QueryPlan::from_key(plan.key())?;
//! assert_eq!(plan, replayed);
//! # Ok::<(), f1_skyline::SkylineError>(())
//! ```

use f1_components::{AirframeId, AlgorithmId, BatteryId, ComputeId, SensorId};
use f1_units::{Grams, MetersPerSecond, Watts};
use serde::{Deserialize, Serialize};

use crate::query::{
    Constraint, Knob, KnobSetting, KnobSweep, MissionProfile, Objective, DEFAULT_OBJECTIVES,
};
use crate::SkylineError;

/// Version prefix of the canonical plan key format.
const KEY_PREFIX: &str = "f1.plan.v1";

/// Point-materialization policy of a plan: what the shard kernel
/// ([`crate::shard`]) retains, not which executor runs. Retaining keeps
/// every kept [`QueryPoint`](crate::query::QueryPoint) in the result;
/// streaming keeps only the Pareto frontier, a bounded top-k and the
/// accounting counters (see the *streamed mode* section of
/// [`ResultSet`](crate::session::ResultSet)).
///
/// Streaming bounds peak memory by O(shard + frontier + k) instead of
/// O(candidates), which is what makes 10⁷–10⁸-candidate spaces
/// practical; the frontier, top-k ranking and all counters are
/// bit-identical to a retaining run of the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KeepPoints {
    /// Retain every point up to [`STREAM_AUTO_THRESHOLD`](crate::shard::STREAM_AUTO_THRESHOLD)
    /// evaluation jobs, stream above it. The default.
    #[default]
    Auto,
    /// Always retain every kept point, whatever the scale.
    All,
    /// Always stream: frontier + top-k + accounting only.
    FrontierOnly,
}

impl KeepPoints {
    /// The canonical key token of this policy.
    fn key_token(self) -> &'static str {
        match self {
            KeepPoints::Auto => "auto",
            KeepPoints::All => "all",
            KeepPoints::FrontierOnly => "frontier",
        }
    }

    fn from_key_token(tok: &str) -> Option<Self> {
        match tok {
            "auto" => Some(KeepPoints::Auto),
            "all" => Some(KeepPoints::All),
            "frontier" => Some(KeepPoints::FrontierOnly),
            _ => None,
        }
    }
}

/// Default number of tier-1 survivors a tier-2 plan simulates when no
/// explicit [`PlanBuilder::survivor_budget`] is set. Equal to the
/// streamed top-k depth, so the default budget is always fully
/// addressable in streamed results.
pub const DEFAULT_SURVIVOR_BUDGET: usize = crate::shard::STREAM_TOP_K;

/// Upper bound on [`SimObjective::MissionRobustness`] trial counts —
/// tier-2 cost is `survivors × trials`, and an absurd trial count in a
/// plan key must not be able to wedge an executor.
pub const MAX_SIM_TRIALS: u32 = 10_000;

/// A tier-2, simulation-backed objective: declared in the plan next to
/// the analytic [`Objective`]s, but evaluated **after** the tier-1
/// analytic pass, and only on the survivor set (Pareto frontier ∪
/// ranked top-k). Evaluation is delegated to the session's installed
/// [`Tier2Evaluator`](crate::Tier2Evaluator) (the `f1-sim` crate
/// provides the flightsim/pipeline-backed implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimObjective {
    /// Fraction of `trials` seeded `StopScenario` disturbance trials the
    /// candidate completes without a tracking infraction (maximized).
    /// Seeds derive deterministically from (plan key, candidate id,
    /// trial index), so results are bit-identical across cache hits,
    /// batch shapes, shard boundaries and delta repair.
    MissionRobustness {
        /// Number of disturbance trials per survivor (1..=[`MAX_SIM_TRIALS`]).
        trials: u32,
    },
    /// End-to-end p99 latency in seconds of the candidate's
    /// sense→compute→control pipeline under a `PipelineSim` run
    /// (minimized; `+∞` when the pipeline never completes an action).
    PipelineP99Latency,
}

impl SimObjective {
    /// Stable column label of this objective in results and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimObjective::MissionRobustness { .. } => "robustness",
            SimObjective::PipelineP99Latency => "p99_latency",
        }
    }

    /// Whether larger values are better (mirrors
    /// [`Objective::maximize`](crate::query::Objective)).
    #[must_use]
    pub fn maximize(self) -> bool {
        matches!(self, SimObjective::MissionRobustness { .. })
    }

    /// Discriminant used to deduplicate sim objectives by kind at build
    /// time (first occurrence wins, like analytic objectives).
    fn kind(self) -> u8 {
        match self {
            SimObjective::MissionRobustness { .. } => 0,
            SimObjective::PipelineP99Latency => 1,
        }
    }

    /// The canonical key token of this objective.
    fn key_token(self) -> String {
        match self {
            SimObjective::MissionRobustness { trials } => format!("robustness:{trials}"),
            SimObjective::PipelineP99Latency => "p99".to_owned(),
        }
    }

    fn from_key_token(tok: &str) -> Result<Self, SkylineError> {
        if tok == "p99" {
            return Ok(SimObjective::PipelineP99Latency);
        }
        if let Some(trials) = tok.strip_prefix("robustness:") {
            let trials = trials.parse::<u32>().map_err(|_| SkylineError::PlanKey {
                reason: format!("bad tier-2 trial count {trials:?}"),
            })?;
            return Ok(SimObjective::MissionRobustness { trials });
        }
        Err(SkylineError::PlanKey {
            reason: format!("unknown tier-2 objective {tok:?}"),
        })
    }

    fn validate(self) -> Result<(), SkylineError> {
        if let SimObjective::MissionRobustness { trials } = self {
            if trials == 0 || trials > MAX_SIM_TRIALS {
                return Err(SkylineError::Tier2 {
                    reason: format!(
                        "robustness trial count must be in 1..={MAX_SIM_TRIALS}, got {trials}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// An owned, validated, executable design-space query.
///
/// Built with [`QueryPlan::builder`] (or compiled from a borrowed query
/// via [`Query::plan`](crate::query::Query::plan)); executed with
/// [`Session::run`](crate::Session::run) or batched through
/// [`Session::run_batch`](crate::Session::run_batch). A plan is plain
/// data — `Send + Sync`, cloneable, hashable through its canonical
/// [`key`](Self::key) — so it can live in request queues, cache maps and
/// thread pools.
///
/// Subspace restrictions carry interned component ids, which are only
/// meaningful in the catalog that minted them; executing a plan against
/// a different catalog fails with [`SkylineError::PlanCatalog`].
///
/// The serde derives are inert markers today (`crates/ext/serde`); the
/// working wire format is the canonical key: [`key`](Self::key) /
/// [`from_key`](Self::from_key) round-trip the entire plan as a string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryPlan {
    objectives: Vec<Objective>,
    constraints: Vec<Constraint>,
    sweeps: Vec<KnobSweep>,
    settings: Vec<KnobSetting>,
    airframes: Option<Vec<AirframeId>>,
    sensors: Option<Vec<SensorId>>,
    computes: Option<Vec<ComputeId>>,
    algorithms: Option<Vec<AlgorithmId>>,
    battery: Option<BatteryId>,
    profile: MissionProfile,
    keep_points: KeepPoints,
    sim_objectives: Vec<SimObjective>,
    survivor_budget: usize,
    key: String,
}

impl QueryPlan {
    /// Starts building a plan.
    #[must_use]
    pub fn builder() -> PlanBuilder {
        PlanBuilder::new()
    }

    /// The plan's objectives: deduplicated, primary first, never empty
    /// (an unspecified objective list resolves to
    /// [`DEFAULT_OBJECTIVES`]).
    #[must_use]
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// The plan's hard constraints, in canonical (sorted, deduplicated)
    /// order.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The plan's knob sweeps, in application order.
    #[must_use]
    pub fn sweeps(&self) -> &[KnobSweep] {
        &self.sweeps
    }

    /// The expanded knob settings (cartesian product of the sweeps,
    /// identity first when no sweeps are present).
    #[must_use]
    pub fn settings(&self) -> &[KnobSetting] {
        &self.settings
    }

    /// The airframe restriction (`None` = every catalog airframe).
    #[must_use]
    pub fn airframes(&self) -> Option<&[AirframeId]> {
        self.airframes.as_deref()
    }

    /// The sensor restriction (`None` = every catalog sensor).
    #[must_use]
    pub fn sensors(&self) -> Option<&[SensorId]> {
        self.sensors.as_deref()
    }

    /// The compute restriction (`None` = every catalog platform).
    #[must_use]
    pub fn computes(&self) -> Option<&[ComputeId]> {
        self.computes.as_deref()
    }

    /// The algorithm restriction (`None` = every catalog algorithm).
    #[must_use]
    pub fn algorithms(&self) -> Option<&[AlgorithmId]> {
        self.algorithms.as_deref()
    }

    /// The mounted battery, if any.
    #[must_use]
    pub fn battery(&self) -> Option<BatteryId> {
        self.battery
    }

    /// The power-model parameters of the energy objectives.
    #[must_use]
    pub fn mission_profile(&self) -> MissionProfile {
        self.profile
    }

    /// The plan's point-materialization policy (see [`KeepPoints`]).
    #[must_use]
    pub fn keep_points(&self) -> KeepPoints {
        self.keep_points
    }

    /// The plan's tier-2 (simulation-backed) objectives, deduplicated by
    /// kind in declaration order; empty for a pure analytic plan.
    #[must_use]
    pub fn sim_objectives(&self) -> &[SimObjective] {
        &self.sim_objectives
    }

    /// How many tier-1 survivors (frontier ∪ ranked top-k) the tier-2
    /// pass simulates. Always in
    /// `1..=`[`STREAM_TOP_K`](crate::shard::STREAM_TOP_K), so the whole
    /// survivor set is addressable even in streamed results;
    /// [`DEFAULT_SURVIVOR_BUDGET`] when unset or when the plan has no
    /// sim objectives.
    #[must_use]
    pub fn survivor_budget(&self) -> usize {
        self.survivor_budget
    }

    /// Whether this plan declares any tier-2 objectives (and therefore
    /// needs a [`Tier2Evaluator`](crate::Tier2Evaluator) at execution).
    #[must_use]
    pub fn has_tier2(&self) -> bool {
        !self.sim_objectives.is_empty()
    }

    /// Whether any objective needs the momentum-theory power model.
    pub(crate) fn needs_power(&self) -> bool {
        self.objectives.iter().any(|o| {
            matches!(
                o,
                Objective::MissionEnergyWhPerKm | Objective::HoverEnduranceMin
            )
        })
    }

    /// The canonical plan key: a deterministic, versioned string
    /// identifying this plan. Semantically equal plans (same objectives,
    /// canonicalized constraints, sweeps, subspace, battery and mission
    /// profile) produce the same key, so it serves as the hash/dedup
    /// identity in [`Session`](crate::Session)'s result cache — and it
    /// round-trips: [`from_key`](Self::from_key) rebuilds the plan.
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Parses a [canonical key](Self::key) back into a plan, re-running
    /// every build-time validation. The key must be in **canonical
    /// form** — sections in their fixed order, canonical float
    /// formatting, deduplicated objectives, sorted constraints — i.e.
    /// exactly what [`key`](Self::key) emits: the rebuilt plan's key is
    /// required to round-trip back to the input, so two distinct
    /// accepted strings can never alias one cache identity.
    ///
    /// # Errors
    ///
    /// Returns [`SkylineError::PlanKey`] for a malformed, truncated,
    /// reordered or non-canonical key, plus any error
    /// [`PlanBuilder::build`] can produce.
    pub fn from_key(key: &str) -> Result<Self, SkylineError> {
        let plan = parse_key(key)?.build()?;
        if plan.key() != key {
            return Err(SkylineError::PlanKey {
                reason: format!(
                    "key is not in canonical form (canonicalizes to {:?})",
                    plan.key()
                ),
            });
        }
        Ok(plan)
    }
}

fn fmt_float(v: f64) -> String {
    // `{:?}` is Rust's shortest round-trip formatting: parsing the
    // output with `str::parse::<f64>()` recovers the exact bits, which
    // the canonical key relies on.
    format!("{v:?}")
}

fn parse_float(s: &str, what: &str) -> Result<f64, SkylineError> {
    s.parse().map_err(|_| SkylineError::PlanKey {
        reason: format!("bad {what} value {s:?}"),
    })
}

fn fmt_ids<T: Copy>(ids: Option<&[T]>, index: impl Fn(T) -> usize) -> String {
    match ids {
        None => "*".to_owned(),
        Some(list) => list
            .iter()
            .map(|&id| index(id).to_string())
            .collect::<Vec<_>>()
            .join(","),
    }
}

fn parse_ids<T>(
    section: &str,
    what: &str,
    from_index: impl Fn(usize) -> T,
) -> Result<Option<Vec<T>>, SkylineError> {
    if section == "*" {
        return Ok(None);
    }
    if section.is_empty() {
        return Ok(Some(Vec::new()));
    }
    section
        .split(',')
        .map(|tok| {
            tok.parse::<usize>()
                .map(&from_index)
                .map_err(|_| SkylineError::PlanKey {
                    reason: format!("bad {what} id {tok:?}"),
                })
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Canonical ordering rank of a constraint: discriminant first, then
/// value (`total_cmp`), so sorted constraint lists are deterministic.
fn constraint_rank(c: &Constraint) -> (u8, f64) {
    match *c {
        Constraint::FeasibleOnly => (0, 0.0),
        Constraint::MinVelocity(v) => (1, v.get()),
        Constraint::MaxTotalTdp(w) => (2, w.get()),
        Constraint::MaxPayload(g) => (3, g.get()),
    }
}

fn fmt_constraint(c: &Constraint) -> String {
    match *c {
        Constraint::FeasibleOnly => "feasible".to_owned(),
        Constraint::MinVelocity(v) => format!("min_velocity={}", fmt_float(v.get())),
        Constraint::MaxTotalTdp(w) => format!("max_tdp={}", fmt_float(w.get())),
        Constraint::MaxPayload(g) => format!("max_payload={}", fmt_float(g.get())),
    }
}

fn parse_constraint(tok: &str) -> Result<Constraint, SkylineError> {
    if tok == "feasible" {
        return Ok(Constraint::FeasibleOnly);
    }
    let (name, value) = tok.split_once('=').ok_or_else(|| SkylineError::PlanKey {
        reason: format!("bad constraint {tok:?}"),
    })?;
    let v = parse_float(value, "constraint")?;
    match name {
        "min_velocity" => Ok(Constraint::MinVelocity(MetersPerSecond::new(v))),
        "max_tdp" => Ok(Constraint::MaxTotalTdp(Watts::new(v))),
        "max_payload" => Ok(Constraint::MaxPayload(Grams::new(v))),
        other => Err(SkylineError::PlanKey {
            reason: format!("unknown constraint {other:?}"),
        }),
    }
}

fn build_key(plan: &PlanParts<'_>) -> String {
    let objectives = plan
        .objectives
        .iter()
        .map(|o| o.label())
        .collect::<Vec<_>>()
        .join(",");
    let constraints = plan
        .constraints
        .iter()
        .map(fmt_constraint)
        .collect::<Vec<_>>()
        .join(";");
    let sweeps = plan
        .sweeps
        .iter()
        .map(|s| {
            format!(
                "{}:{}",
                s.knob().key_token(),
                s.values()
                    .iter()
                    .map(|&v| fmt_float(v))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect::<Vec<_>>()
        .join(";");
    let battery = plan
        .battery
        .map_or_else(|| "-".to_owned(), |id| id.index().to_string());
    let tier2 = if plan.sim_objectives.is_empty() {
        "-".to_owned()
    } else {
        format!(
            "{}@{}",
            plan.sim_objectives
                .iter()
                .map(|o| o.key_token())
                .collect::<Vec<_>>()
                .join(";"),
            plan.survivor_budget
        )
    };
    format!(
        "{KEY_PREFIX}|o={objectives}|c={constraints}|s={sweeps}|af={}|sn={}|cp={}|al={}|b={battery}|mp={},{},{}|kp={}|t2={tier2}",
        fmt_ids(plan.airframes, AirframeId::index),
        fmt_ids(plan.sensors, SensorId::index),
        fmt_ids(plan.computes, ComputeId::index),
        fmt_ids(plan.algorithms, AlgorithmId::index),
        fmt_float(plan.profile.figure_of_merit),
        fmt_float(plan.profile.parasitic_coeff),
        fmt_float(plan.profile.battery_reserve),
        plan.keep_points.key_token(),
    )
}

/// Borrowed view of the fields that define a plan's identity, shared by
/// key construction from both the builder and the built plan.
struct PlanParts<'a> {
    objectives: &'a [Objective],
    constraints: &'a [Constraint],
    sweeps: &'a [KnobSweep],
    airframes: Option<&'a [AirframeId]>,
    sensors: Option<&'a [SensorId]>,
    computes: Option<&'a [ComputeId]>,
    algorithms: Option<&'a [AlgorithmId]>,
    battery: Option<BatteryId>,
    profile: MissionProfile,
    keep_points: KeepPoints,
    sim_objectives: &'a [SimObjective],
    survivor_budget: usize,
}

/// The fixed section order of a canonical key. Enforced on parse:
/// reordered, duplicated, missing or extra sections are all
/// [`SkylineError::PlanKey`] — a key is a cache identity, so exactly
/// one accepted spelling may exist per plan.
const KEY_SECTIONS: [&str; 11] = ["o", "c", "s", "af", "sn", "cp", "al", "b", "mp", "kp", "t2"];

fn parse_key(key: &str) -> Result<PlanBuilder, SkylineError> {
    let mut sections = key.split('|');
    if sections.next() != Some(KEY_PREFIX) {
        return Err(SkylineError::PlanKey {
            reason: format!("expected {KEY_PREFIX:?} prefix"),
        });
    }
    let mut builder = PlanBuilder::new();
    for expected in KEY_SECTIONS {
        let section = sections.next().ok_or_else(|| SkylineError::PlanKey {
            reason: format!("truncated key: missing section {expected:?}"),
        })?;
        let (tag, body) = section
            .split_once('=')
            .ok_or_else(|| SkylineError::PlanKey {
                reason: format!("malformed section {section:?}"),
            })?;
        if tag != expected {
            return Err(SkylineError::PlanKey {
                reason: format!("expected section {expected:?}, found {tag:?}"),
            });
        }
        match tag {
            "o" => {
                for tok in body.split(',').filter(|t| !t.is_empty()) {
                    let objective: Objective = tok
                        .parse()
                        .map_err(|e| SkylineError::PlanKey { reason: e })?;
                    builder = builder.objective(objective);
                }
            }
            "c" => {
                for tok in body.split(';').filter(|t| !t.is_empty()) {
                    builder = builder.constraint(parse_constraint(tok)?);
                }
            }
            "s" => {
                for tok in body.split(';').filter(|t| !t.is_empty()) {
                    let (knob, values) =
                        tok.split_once(':').ok_or_else(|| SkylineError::PlanKey {
                            reason: format!("bad sweep {tok:?}"),
                        })?;
                    let knob = Knob::from_key_token(knob).ok_or_else(|| SkylineError::PlanKey {
                        reason: format!("unknown knob {knob:?}"),
                    })?;
                    let values = values
                        .split(',')
                        .map(|v| parse_float(v, "sweep"))
                        .collect::<Result<Vec<_>, _>>()?;
                    builder = builder.sweep(KnobSweep::new(knob, values));
                }
            }
            "af" => builder.airframes = parse_ids(body, "airframe", AirframeId::from_index)?,
            "sn" => builder.sensors = parse_ids(body, "sensor", SensorId::from_index)?,
            "cp" => builder.computes = parse_ids(body, "compute", ComputeId::from_index)?,
            "al" => builder.algorithms = parse_ids(body, "algorithm", AlgorithmId::from_index)?,
            "b" => {
                builder.battery = if body == "-" {
                    None
                } else {
                    Some(BatteryId::from_index(body.parse().map_err(|_| {
                        SkylineError::PlanKey {
                            reason: format!("bad battery id {body:?}"),
                        }
                    })?))
                };
            }
            "mp" => {
                let parts: Vec<&str> = body.split(',').collect();
                let [fom, parasitic, reserve] = parts.as_slice() else {
                    return Err(SkylineError::PlanKey {
                        reason: format!("mission profile needs 3 fields, got {body:?}"),
                    });
                };
                builder = builder.mission_profile(MissionProfile {
                    figure_of_merit: parse_float(fom, "figure of merit")?,
                    parasitic_coeff: parse_float(parasitic, "parasitic coeff")?,
                    battery_reserve: parse_float(reserve, "battery reserve")?,
                });
            }
            "kp" => {
                builder.keep_points =
                    KeepPoints::from_key_token(body).ok_or_else(|| SkylineError::PlanKey {
                        reason: format!("unknown keep-points policy {body:?}"),
                    })?;
            }
            "t2" => {
                if body != "-" {
                    let (objectives, budget) =
                        body.rsplit_once('@').ok_or_else(|| SkylineError::PlanKey {
                            reason: format!("bad tier-2 section {body:?} (missing @budget)"),
                        })?;
                    for tok in objectives.split(';').filter(|t| !t.is_empty()) {
                        builder = builder.sim_objective(SimObjective::from_key_token(tok)?);
                    }
                    builder = builder.survivor_budget(budget.parse::<usize>().map_err(|_| {
                        SkylineError::PlanKey {
                            reason: format!("bad survivor budget {budget:?}"),
                        }
                    })?);
                }
            }
            // analyze::allow(panic, reason = "the tag was validated against KEY_SECTIONS before dispatch; this arm is dead by construction")
            _ => unreachable!("tag was checked against the expected section"),
        }
    }
    if let Some(extra) = sections.next() {
        return Err(SkylineError::PlanKey {
            reason: format!("trailing section {extra:?}"),
        });
    }
    Ok(builder)
}

/// Builder for [`QueryPlan`]. Mirrors the borrowed
/// [`Query`](crate::query::Query) builder method-for-method, but
/// finishes with a fallible [`build`](Self::build) that front-loads
/// every catalog-independent validation.
#[derive(Debug, Clone, Default)]
pub struct PlanBuilder {
    objectives: Vec<Objective>,
    constraints: Vec<Constraint>,
    sweeps: Vec<KnobSweep>,
    airframes: Option<Vec<AirframeId>>,
    sensors: Option<Vec<SensorId>>,
    computes: Option<Vec<ComputeId>>,
    algorithms: Option<Vec<AlgorithmId>>,
    battery: Option<BatteryId>,
    profile: Option<MissionProfile>,
    keep_points: KeepPoints,
    sim_objectives: Vec<SimObjective>,
    survivor_budget: Option<usize>,
}

impl PlanBuilder {
    fn new() -> Self {
        Self::default()
    }

    /// Appends one objective (the first appended is the primary).
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objectives.push(objective);
        self
    }

    /// Replaces the objective list (first entry is the primary).
    #[must_use]
    pub fn objectives(mut self, objectives: &[Objective]) -> Self {
        self.objectives = objectives.to_vec();
        self
    }

    /// Adds a hard constraint.
    #[must_use]
    pub fn constraint(mut self, constraint: Constraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Adds a knob sweep (cartesian product with any earlier sweeps).
    #[must_use]
    pub fn sweep(mut self, sweep: KnobSweep) -> Self {
        self.sweeps.push(sweep);
        self
    }

    /// Restricts the plan to these airframes (default: all).
    #[must_use]
    pub fn airframes(mut self, ids: &[AirframeId]) -> Self {
        self.airframes = Some(ids.to_vec());
        self
    }

    /// Restricts the plan to these sensors (default: all).
    #[must_use]
    pub fn sensors(mut self, ids: &[SensorId]) -> Self {
        self.sensors = Some(ids.to_vec());
        self
    }

    /// Restricts the plan to these compute platforms (default: all).
    #[must_use]
    pub fn computes(mut self, ids: &[ComputeId]) -> Self {
        self.computes = Some(ids.to_vec());
        self
    }

    /// Restricts the plan to these algorithms (default: all).
    #[must_use]
    pub fn algorithms(mut self, ids: &[AlgorithmId]) -> Self {
        self.algorithms = Some(ids.to_vec());
        self
    }

    /// Mounts a battery on every candidate: its mass joins the payload,
    /// and [`Objective::HoverEnduranceMin`] draws on its capacity.
    #[must_use]
    pub fn battery(mut self, id: BatteryId) -> Self {
        self.battery = Some(id);
        self
    }

    /// Overrides the power-model parameters of the energy objectives.
    #[must_use]
    pub fn mission_profile(mut self, profile: MissionProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Sets the point-materialization policy (default
    /// [`KeepPoints::Auto`]; see [`KeepPoints`]).
    #[must_use]
    pub fn keep_points(mut self, keep_points: KeepPoints) -> Self {
        self.keep_points = keep_points;
        self
    }

    /// Appends a tier-2 (simulation-backed) objective, evaluated on the
    /// tier-1 survivor set after the analytic pass (see
    /// [`SimObjective`]). Duplicate kinds deduplicate at build time,
    /// first occurrence winning.
    #[must_use]
    pub fn sim_objective(mut self, objective: SimObjective) -> Self {
        self.sim_objectives.push(objective);
        self
    }

    /// Caps how many tier-1 survivors the tier-2 pass simulates
    /// (default [`DEFAULT_SURVIVOR_BUDGET`]; must be
    /// `1..=`[`STREAM_TOP_K`](crate::shard::STREAM_TOP_K) so the
    /// survivor set stays addressable in streamed results). Ignored —
    /// and canonicalized away — when the plan has no sim objectives.
    #[must_use]
    pub fn survivor_budget(mut self, budget: usize) -> Self {
        self.survivor_budget = Some(budget);
        self
    }

    /// The objectives the built plan will run under (the default set if
    /// none were specified, deduplicated preserving first occurrence).
    #[must_use]
    pub fn resolved_objectives(&self) -> Vec<Objective> {
        let mut out: Vec<Objective> = Vec::new();
        let source: &[Objective] = if self.objectives.is_empty() {
            &DEFAULT_OBJECTIVES
        } else {
            &self.objectives
        };
        for &o in source {
            if !out.contains(&o) {
                out.push(o);
            }
        }
        out
    }

    /// Validates and compiles the plan: objectives resolved and
    /// deduplicated, constraints canonicalized (sorted, duplicates
    /// removed), subspace id lists deduplicated preserving first
    /// occurrence, mission profile domain-checked, sweep values
    /// domain-checked and expanded into the cartesian product of
    /// [`KnobSetting`]s (duplicate composed settings deduplicated
    /// preserving first occurrence, so e.g. a `[0.5, 0.5]` sweep
    /// evaluates one variant, not two), and the canonical key computed.
    /// Dedup happens *before* the key, so a plan spelled with duplicate
    /// ids shares its cache identity with the clean spelling — and delta
    /// [`refresh`](crate::Session::refresh) stays incremental for it
    /// (repair used to bail to a cold run on duplicates). Catalog-
    /// *dependent* validation (scaled part magnitudes) happens at
    /// execution, still strictly before the parallel pass.
    ///
    /// # Errors
    ///
    /// Returns [`SkylineError::IncompleteSystem`] when
    /// [`Objective::HoverEnduranceMin`] is requested without a battery,
    /// [`SkylineError::Model`] for invalid sweep values or profile
    /// parameters, and [`SkylineError::KnobVariant`] when composed
    /// payload deltas overflow.
    pub fn build(self) -> Result<QueryPlan, SkylineError> {
        let objectives = self.resolved_objectives();
        let profile = self.profile.unwrap_or_default();
        profile.validate()?;
        if objectives.contains(&Objective::HoverEnduranceMin) && self.battery.is_none() {
            return Err(SkylineError::IncompleteSystem {
                missing: "battery (the hover-endurance objective needs one)",
            });
        }
        // Duplicate values *within* a sweep expand to duplicate composed
        // settings, which the settings dedup below drops — so removing
        // them here cannot change the evaluated space, but it does make
        // the canonical key (built from the sweeps) agree with the clean
        // spelling.
        let sweeps: Vec<KnobSweep> = self
            .sweeps
            .into_iter()
            .map(|s| KnobSweep::new(s.knob(), dedup_first(s.values().to_vec())))
            .collect();
        let settings = dedup_first(expand_settings(&sweeps)?);
        let airframes = self.airframes.map(dedup_first);
        let sensors = self.sensors.map(dedup_first);
        let computes = self.computes.map(dedup_first);
        let algorithms = self.algorithms.map(dedup_first);
        let mut constraints = self.constraints;
        constraints.sort_by(|a, b| {
            let (ra, va) = constraint_rank(a);
            let (rb, vb) = constraint_rank(b);
            ra.cmp(&rb).then_with(|| va.total_cmp(&vb))
        });
        constraints.dedup();
        let mut sim_objectives: Vec<SimObjective> = Vec::new();
        for &so in &self.sim_objectives {
            so.validate()?;
            if !sim_objectives.iter().any(|o| o.kind() == so.kind()) {
                sim_objectives.push(so);
            }
        }
        if let Some(budget) = self.survivor_budget {
            if budget == 0 || budget > crate::shard::STREAM_TOP_K {
                return Err(SkylineError::Tier2 {
                    reason: format!(
                        "survivor budget must be in 1..={}, got {budget}",
                        crate::shard::STREAM_TOP_K
                    ),
                });
            }
        }
        // Without sim objectives the budget is inert, so it collapses to
        // the default — the canonical key (`t2=-`) carries no budget and
        // a round-tripped plan must compare equal.
        let survivor_budget = if sim_objectives.is_empty() {
            DEFAULT_SURVIVOR_BUDGET
        } else {
            self.survivor_budget.unwrap_or(DEFAULT_SURVIVOR_BUDGET)
        };
        let key = build_key(&PlanParts {
            objectives: &objectives,
            constraints: &constraints,
            sweeps: &sweeps,
            airframes: airframes.as_deref(),
            sensors: sensors.as_deref(),
            computes: computes.as_deref(),
            algorithms: algorithms.as_deref(),
            battery: self.battery,
            profile,
            keep_points: self.keep_points,
            sim_objectives: &sim_objectives,
            survivor_budget,
        });
        Ok(QueryPlan {
            objectives,
            constraints,
            sweeps,
            settings,
            airframes,
            sensors,
            computes,
            algorithms,
            battery: self.battery,
            profile,
            keep_points: self.keep_points,
            sim_objectives,
            survivor_budget,
            key,
        })
    }
}

/// Order-preserving first-occurrence dedup; O(n²) on lists that are
/// at most catalog-sized (and typically tiny).
fn dedup_first<T: PartialEq>(list: Vec<T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(list.len());
    for item in list {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// Expands a sweep list into the cartesian product of knob settings,
/// validating each sweep's values and every composed setting.
fn expand_settings(sweeps: &[KnobSweep]) -> Result<Vec<KnobSetting>, SkylineError> {
    let mut out = vec![KnobSetting::IDENTITY];
    for sweep in sweeps {
        sweep.validate()?;
        let mut next = Vec::with_capacity(out.len() * sweep.values().len());
        for setting in &out {
            for &value in sweep.values() {
                // Same-knob payload sweeps compose by addition, and two
                // individually valid deltas can sum to +∞ — which would
                // panic in the `Grams` constructor inside `apply`.
                // Scales compose by multiplication on plain f64 fields;
                // an overflowed scale is caught by the variant builder's
                // magnitude guard at execution time.
                if sweep.knob() == Knob::PayloadDelta
                    && !(setting.payload_delta.get() + value).is_finite()
                {
                    return Err(SkylineError::KnobVariant {
                        knob: Knob::PayloadDelta.table2_parameter(),
                        value,
                        source: f1_components::ComponentError::InvalidField {
                            field: "payload_delta",
                            reason: format!(
                                "composed payload delta must be finite, got {}",
                                setting.payload_delta.get() + value
                            ),
                        },
                    });
                }
                next.push(setting.apply(sweep.knob(), value));
            }
        }
        out = next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_units::Watts;

    fn sample_plan() -> QueryPlan {
        QueryPlan::builder()
            .objectives(&[
                Objective::TotalTdp,
                Objective::SafeVelocity,
                Objective::MissionEnergyWhPerKm,
            ])
            .constraint(Constraint::MaxTotalTdp(Watts::new(20.0)))
            .constraint(Constraint::FeasibleOnly)
            .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
            .sweep(KnobSweep::new(Knob::WeightScale, vec![1.0, 0.8]))
            .airframes(&[AirframeId::from_index(0), AirframeId::from_index(2)])
            .battery(BatteryId::from_index(1))
            .build()
            .unwrap()
    }

    #[test]
    fn plans_are_send_sync_owned_values() {
        fn assert_send_sync<T: Send + Sync + Clone + 'static>() {}
        assert_send_sync::<QueryPlan>();
    }

    #[test]
    fn build_resolves_defaults_and_canonicalizes() {
        let plan = QueryPlan::builder().build().unwrap();
        assert_eq!(plan.objectives(), DEFAULT_OBJECTIVES);
        assert_eq!(plan.settings(), [KnobSetting::IDENTITY]);
        assert!(plan.constraints().is_empty());

        // Constraint order and duplicates do not change the identity.
        let a = QueryPlan::builder()
            .constraint(Constraint::MaxTotalTdp(Watts::new(5.0)))
            .constraint(Constraint::FeasibleOnly)
            .build()
            .unwrap();
        let b = QueryPlan::builder()
            .constraint(Constraint::FeasibleOnly)
            .constraint(Constraint::MaxTotalTdp(Watts::new(5.0)))
            .constraint(Constraint::FeasibleOnly)
            .build()
            .unwrap();
        assert_eq!(a.key(), b.key());
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_plans_have_distinct_keys() {
        let base = QueryPlan::builder().build().unwrap();
        let capped = QueryPlan::builder()
            .constraint(Constraint::MaxTotalTdp(Watts::new(5.0)))
            .build()
            .unwrap();
        let reordered = QueryPlan::builder()
            .objectives(&[Objective::TotalTdp, Objective::SafeVelocity])
            .build()
            .unwrap();
        assert_ne!(base.key(), capped.key());
        assert_ne!(base.key(), reordered.key());
        assert_ne!(capped.key(), reordered.key());
    }

    #[test]
    fn key_round_trips_exactly() {
        let plan = sample_plan();
        let replayed = QueryPlan::from_key(plan.key()).unwrap();
        assert_eq!(plan, replayed);
        assert_eq!(plan.key(), replayed.key());

        // Including awkward float values.
        let tricky = QueryPlan::builder()
            .constraint(Constraint::MinVelocity(MetersPerSecond::new(1e-307)))
            .sweep(KnobSweep::new(Knob::SensorRangeScale, vec![1e-307, 3.5]))
            .build()
            .unwrap();
        assert_eq!(QueryPlan::from_key(tricky.key()).unwrap(), tricky);
    }

    #[test]
    fn malformed_keys_are_rejected() {
        for bad in [
            "",
            "f2.plan.v9|o=velocity",
            "f1.plan.v1|o=velocity", // missing profile
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto", // missing t2
            "f1.plan.v1|o=warp|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=-", // bad objective
            "f1.plan.v1|o=velocity|c=max_tdp=x|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=-",
            "f1.plan.v1|o=velocity|c=|s=warp:1|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=-",
            "f1.plan.v1|o=velocity|c=|s=|af=1,zz|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=-",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=?|mp=0.65,0.08,0.8|kp=auto|t2=-",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08|kp=auto|t2=-",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=sometimes|t2=-",
            // tier-2 section: missing budget, unknown objective, bad
            // trials, bad budget, empty objective list, non-canonical
            // duplicate kind.
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=robustness:8",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=warp@16",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=robustness:x@16",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=p99@zz",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=@16",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=p99;p99@16",
        ] {
            let err = QueryPlan::from_key(bad).unwrap_err();
            assert!(
                matches!(err, SkylineError::PlanKey { .. }),
                "{bad:?} gave {err:?}"
            );
        }
        // A parseable key still re-runs semantic validation.
        let err = QueryPlan::from_key(
            "f1.plan.v1|o=endurance|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=-",
        )
        .unwrap_err();
        assert!(matches!(err, SkylineError::IncompleteSystem { .. }));
        // ...including tier-2 domain validation (trials and budget out
        // of range parse fine but fail the build).
        for bad in [
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=robustness:0@16",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=robustness:99999@16",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=p99@0",
            "f1.plan.v1|o=velocity|c=|s=|af=*|sn=*|cp=*|al=*|b=-|mp=0.65,0.08,0.8|kp=auto|t2=p99@65",
        ] {
            let err = QueryPlan::from_key(bad).unwrap_err();
            assert!(
                matches!(err, SkylineError::Tier2 { .. }),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn tier2_section_is_part_of_the_key_and_round_trips() {
        let analytic = QueryPlan::builder().build().unwrap();
        assert!(!analytic.has_tier2());
        assert!(analytic.key().ends_with("|t2=-"));
        assert_eq!(analytic.survivor_budget(), DEFAULT_SURVIVOR_BUDGET);

        let two_tier = QueryPlan::builder()
            .sim_objective(SimObjective::MissionRobustness { trials: 32 })
            .sim_objective(SimObjective::PipelineP99Latency)
            .survivor_budget(16)
            .build()
            .unwrap();
        assert!(two_tier.has_tier2());
        assert!(two_tier.key().ends_with("|t2=robustness:32;p99@16"));
        assert_eq!(two_tier.survivor_budget(), 16);
        assert_ne!(two_tier.key(), analytic.key());
        let replayed = QueryPlan::from_key(two_tier.key()).unwrap();
        assert_eq!(replayed, two_tier);
        assert_eq!(replayed.sim_objectives(), two_tier.sim_objectives());

        // Duplicate kinds dedup (first wins), like analytic objectives.
        let dup = QueryPlan::builder()
            .sim_objective(SimObjective::MissionRobustness { trials: 8 })
            .sim_objective(SimObjective::MissionRobustness { trials: 99 })
            .build()
            .unwrap();
        assert_eq!(
            dup.sim_objectives(),
            [SimObjective::MissionRobustness { trials: 8 }]
        );

        // A budget without sim objectives is inert and canonicalizes
        // away: same key, same plan, default budget.
        let budget_only = QueryPlan::builder().survivor_budget(16).build().unwrap();
        assert_eq!(budget_only.key(), analytic.key());
        assert_eq!(budget_only, analytic);
        assert_eq!(budget_only.survivor_budget(), DEFAULT_SURVIVOR_BUDGET);
    }

    #[test]
    fn tier2_build_validation() {
        assert!(matches!(
            QueryPlan::builder()
                .sim_objective(SimObjective::MissionRobustness { trials: 0 })
                .build()
                .unwrap_err(),
            SkylineError::Tier2 { .. }
        ));
        assert!(matches!(
            QueryPlan::builder()
                .sim_objective(SimObjective::PipelineP99Latency)
                .survivor_budget(0)
                .build()
                .unwrap_err(),
            SkylineError::Tier2 { .. }
        ));
        assert!(matches!(
            QueryPlan::builder()
                .sim_objective(SimObjective::PipelineP99Latency)
                .survivor_budget(crate::shard::STREAM_TOP_K + 1)
                .build()
                .unwrap_err(),
            SkylineError::Tier2 { .. }
        ));
    }

    #[test]
    fn keep_points_is_part_of_the_key_and_round_trips() {
        let auto = QueryPlan::builder().build().unwrap();
        assert_eq!(auto.keep_points(), KeepPoints::Auto);
        for kp in [KeepPoints::All, KeepPoints::FrontierOnly] {
            let plan = QueryPlan::builder().keep_points(kp).build().unwrap();
            assert_eq!(plan.keep_points(), kp);
            assert_ne!(plan.key(), auto.key());
            let replayed = QueryPlan::from_key(plan.key()).unwrap();
            assert_eq!(replayed, plan);
            assert_eq!(replayed.keep_points(), kp);
        }
    }

    #[test]
    fn duplicate_subspace_ids_and_settings_canonicalize_at_build() {
        // Duplicate ids collapse to the clean spelling — same key, same
        // cache identity, and repair no longer sees duplicates at all.
        let dup = QueryPlan::builder()
            .airframes(&[
                AirframeId::from_index(1),
                AirframeId::from_index(0),
                AirframeId::from_index(1),
            ])
            .computes(&[ComputeId::from_index(2), ComputeId::from_index(2)])
            .build()
            .unwrap();
        let clean = QueryPlan::builder()
            .airframes(&[AirframeId::from_index(1), AirframeId::from_index(0)])
            .computes(&[ComputeId::from_index(2)])
            .build()
            .unwrap();
        assert_eq!(dup.key(), clean.key());
        assert_eq!(dup, clean);
        // First occurrence wins, order preserved.
        assert_eq!(
            dup.airframes().unwrap(),
            [AirframeId::from_index(1), AirframeId::from_index(0)]
        );

        // Duplicate sweep values dedupe within each sweep (they can
        // only expand to duplicate composed settings), so the sloppy
        // spelling shares its key — and cache entry — with the clean
        // one.
        let swept = QueryPlan::builder()
            .sweep(KnobSweep::new(Knob::TdpScale, vec![0.5, 0.5]))
            .build()
            .unwrap();
        assert_eq!(swept.settings().len(), 1);
        assert_eq!(swept.settings()[0].tdp_scale, 0.5);
        assert_eq!(swept.sweeps().len(), 1);
        assert_eq!(swept.sweeps()[0].values(), [0.5]);
        let clean_swept = QueryPlan::builder()
            .sweep(KnobSweep::new(Knob::TdpScale, vec![0.5]))
            .build()
            .unwrap();
        assert_eq!(swept.key(), clean_swept.key());
        assert_eq!(swept, clean_swept);
    }

    #[test]
    fn build_validates_like_the_borrowed_query() {
        assert!(matches!(
            QueryPlan::builder()
                .objective(Objective::HoverEnduranceMin)
                .build()
                .unwrap_err(),
            SkylineError::IncompleteSystem { .. }
        ));
        assert!(QueryPlan::builder()
            .sweep(KnobSweep::new(Knob::TdpScale, vec![0.0]))
            .build()
            .is_err());
        assert!(QueryPlan::builder()
            .mission_profile(MissionProfile {
                figure_of_merit: 1.5,
                ..MissionProfile::default()
            })
            .build()
            .is_err());
        // Stacked payload deltas summing to +∞ fail at build.
        assert!(matches!(
            QueryPlan::builder()
                .sweep(KnobSweep::new(Knob::PayloadDelta, vec![1e308]))
                .sweep(KnobSweep::new(Knob::PayloadDelta, vec![1e308]))
                .build()
                .unwrap_err(),
            SkylineError::KnobVariant {
                knob: "Payload Weight",
                ..
            }
        ));
    }

    #[test]
    fn settings_expand_as_cartesian_product() {
        let plan = sample_plan();
        // 2 TDP scales × 2 weight scales.
        assert_eq!(plan.settings().len(), 4);
        assert!(plan.settings()[0].is_identity());
        assert_eq!(plan.settings()[3].tdp_scale, 0.5);
        assert_eq!(plan.settings()[3].weight_scale, 0.8);
    }
}
