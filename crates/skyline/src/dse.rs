//! Automated design-space exploration over the component catalog.
//!
//! The paper's conclusion: "We believe that the model can be used for
//! automated design space exploration and aid with generating an optimal
//! domain-specific architecture best suited for a UAV." This module holds
//! the evaluation core that exploration runs on:
//!
//! * [`Engine`] enumerates candidates **lazily over interned ids**
//!   ([`f1_components::SensorId`] × [`f1_components::ComputeId`] ×
//!   [`f1_components::AlgorithmId`]) against a dense
//!   [`ThroughputTable`], with **zero string hashing and zero
//!   per-candidate allocation**, and evaluates one set of parts on an
//!   airframe ([`Engine::evaluate_parts`]), including what-if parts that
//!   are not in the catalog;
//! * the shard kernel ([`crate::shard`]) splits that evaluation into a
//!   per-(sensor, compute) pair stage and a per-candidate Eq. 4 score,
//!   and **propagates** model errors as [`SkylineError`] instead of
//!   panicking (an un-liftable payload is an infeasible outcome, not an
//!   error).
//!
//! Queries over the catalog — what to optimize, filter and sweep — are
//! [`QueryPlan`](crate::QueryPlan)s run by a
//! [`Session`](crate::Session); see [`crate::query`] for the vocabulary.

use f1_components::{
    Airframe, AlgorithmId, Catalog, ComputeId, ComputePlatform, Sensor, SensorId, ThroughputTable,
};
use f1_model::analysis::DesignAssessment;
use f1_model::heatsink::HeatsinkModel;
use f1_model::pipeline::StageRates;
use f1_model::roofline::{Bound, Roofline, Saturation};
use f1_model::safety::SafetyModel;
use f1_units::{Grams, Hertz, MetersPerSecond, Watts};

use crate::SkylineError;

/// One sensor × compute × algorithm combination, by interned id, with its
/// characterized throughput already resolved. `Copy` — the evaluation
/// loop moves these around without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The sensor.
    pub sensor: SensorId,
    /// The compute platform.
    pub compute: ComputeId,
    /// The autonomy algorithm.
    pub algorithm: AlgorithmId,
    /// Characterized throughput of the algorithm on the platform.
    pub throughput: Hertz,
}

/// The F-1 outcome of evaluating one set of parts on an airframe,
/// independent of how the parts were chosen.
///
/// `feasible` is the authoritative flag: the engine produces `Some` for
/// `bound`/`compute_assessment`/`roofline` and non-zero
/// `velocity`/`roof`/`knee` exactly when `feasible` is true. The struct
/// stays flat-and-`Copy` for the hot loop rather than encoding that as
/// an enum; don't hand-construct inconsistent values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Whether the build can hover at all.
    pub feasible: bool,
    /// Achieved safe velocity (zero when infeasible).
    pub velocity: MetersPerSecond,
    /// The physics roof (zero when infeasible).
    pub roof: MetersPerSecond,
    /// The roofline knee rate (zero when infeasible).
    pub knee: Hertz,
    /// Bound classification (`None` when infeasible).
    pub bound: Option<Bound>,
    /// Combined TDP of the onboard compute (Pareto objective ↓).
    pub total_tdp: Watts,
    /// Total payload mass including the TDP-sized heatsink (objective ↓).
    pub payload: Grams,
    /// Compute stage vs. knee assessment (`None` when infeasible).
    pub compute_assessment: Option<DesignAssessment>,
    /// The roofline, for charting (`None` when infeasible).
    pub roofline: Option<Roofline>,
}

impl Outcome {
    fn infeasible(total_tdp: Watts, payload: Grams) -> Self {
        Self {
            feasible: false,
            velocity: MetersPerSecond::ZERO,
            roof: MetersPerSecond::ZERO,
            knee: Hertz::ZERO,
            bound: None,
            total_tdp,
            payload,
            compute_assessment: None,
            roofline: None,
        }
    }
}

/// What the shard kernel computes of one candidate: its feasibility, its
/// Eq. 4 safe velocity, and its pair's TDP and payload. Every
/// [`Constraint`](crate::query::Constraint) and objective column reads
/// these four values (the power-model objectives also read the pair), so
/// the kernel builds no [`Outcome`]; each value is bit-identical to the
/// same field of the candidate's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Scored {
    pub(crate) feasible: bool,
    pub(crate) velocity: MetersPerSecond,
    pub(crate) total_tdp: Watts,
    pub(crate) payload: Grams,
}

impl Scored {
    /// The four values of a full outcome.
    pub(crate) fn of(outcome: &Outcome) -> Self {
        Self {
            feasible: outcome.feasible,
            velocity: outcome.velocity,
            total_tdp: outcome.total_tdp,
            payload: outcome.payload,
        }
    }
}

/// The per-candidate evaluator over one catalog's parts.
///
/// Construction snapshots the catalog's sensor, compute and algorithm
/// ids (in name order, so enumeration is deterministic) and its
/// throughput matrix into a dense [`ThroughputTable`]; enumeration and
/// evaluation never touch a string, and nothing borrows the catalog.
#[derive(Debug, Clone)]
pub struct Engine {
    sensors: Vec<SensorId>,
    computes: Vec<ComputeId>,
    algorithms: Vec<AlgorithmId>,
    table: ThroughputTable,
    heatsink: HeatsinkModel,
    saturation: Saturation,
}

impl Engine {
    /// Builds an engine over the catalog with the same heatsink model and
    /// knee saturation [`UavSystem`](crate::UavSystem) uses, so engine
    /// outcomes match `UavSystem::from_catalog(..).analyze()` exactly.
    #[must_use]
    pub fn new(catalog: &Catalog) -> Self {
        Self {
            sensors: catalog.sensor_entries().map(|(id, _)| id).collect(),
            computes: catalog.compute_entries().map(|(id, _)| id).collect(),
            algorithms: catalog.algorithm_entries().map(|(id, _)| id).collect(),
            table: catalog.throughput_table(),
            heatsink: HeatsinkModel::paper_calibrated(),
            saturation: Saturation::DEFAULT,
        }
    }

    /// Lazily enumerates every characterized sensor × compute × algorithm
    /// candidate (airframe-independent), in deterministic name order —
    /// sensor-major over
    /// [`ThroughputTable::characterized_pairs`](f1_components::ThroughputTable::characterized_pairs),
    /// the same pair order the shard kernel ([`crate::shard`]) decodes
    /// candidates from.
    pub fn candidates(&self) -> impl Iterator<Item = Candidate> + '_ {
        self.sensors.iter().flat_map(move |&sensor| {
            self.table
                .characterized_pairs(&self.computes, &self.algorithms)
                .map(move |(compute, algorithm, throughput)| Candidate {
                    sensor,
                    compute,
                    algorithm,
                    throughput,
                })
        })
    }

    /// Evaluates arbitrary parts (used for what-if platforms that are not
    /// in the catalog, e.g. a TDP-scaled variant).
    ///
    /// This intentionally mirrors the single-compute, no-battery slice of
    /// [`UavSystem`](crate::UavSystem)'s payload/safety composition
    /// without allocating a system; the `engine_matches_uav_system_analysis`
    /// test pins the two paths together over the whole catalog — change
    /// them in lockstep.
    ///
    /// # Errors
    ///
    /// Propagates model-domain errors as [`SkylineError::Model`]. An
    /// over-heavy payload is **not** an error: it yields an infeasible
    /// [`Outcome`].
    pub fn evaluate_parts(
        &self,
        airframe: &Airframe,
        sensor: &Sensor,
        platform: &ComputePlatform,
        throughput: Hertz,
    ) -> Result<Outcome, SkylineError> {
        self.evaluate_parts_loaded(airframe, sensor, platform, throughput, Grams::ZERO)
    }

    /// [`evaluate_parts`](Self::evaluate_parts) with extra payload mass
    /// riding along (a mission battery, cargo, or a
    /// [`Knob::PayloadDelta`](crate::query::Knob::PayloadDelta) sweep
    /// value). The **extra** contribution is floored at zero as
    /// defense-in-depth for direct callers: a negative value
    /// contributes nothing rather than erasing platform, heatsink or
    /// sensor mass and evaluating a physically impossible build. (Plan
    /// validation rejects negative payload deltas outright.)
    ///
    /// Runs `pair_stage` and then `algo_stage`, the two halves the shard
    /// kernel of [`crate::shard`] runs apart.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate_parts`](Self::evaluate_parts).
    pub fn evaluate_parts_loaded(
        &self,
        airframe: &Airframe,
        sensor: &Sensor,
        platform: &ComputePlatform,
        throughput: Hertz,
        extra_payload: Grams,
    ) -> Result<Outcome, SkylineError> {
        let pair = pair_stage(
            &self.heatsink,
            self.saturation,
            airframe,
            sensor,
            platform,
            extra_payload,
        )?;
        algo_stage(&pair, throughput)
    }
}

/// The algorithm-independent half of [`Engine::evaluate_parts_loaded`]:
/// everything that depends only on (airframe, sensor, compute platform,
/// extra payload) — payload mass, loaded dynamics, the safety model, the
/// roofline with its knee, roof and Eq. 4 constants, and the sensor and
/// control stage rates. The shard kernel of [`crate::shard`] hoists
/// this out of its inner loop, computing it once per (sensor, compute)
/// pair instead of once per candidate; per algorithm, [`algo_stage`]
/// builds the full outcome and [`PairStage::score`] the kernel's four
/// values. Splitting here cannot change bits: every per-candidate value
/// is computed by the same functions from the same inputs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PairStage {
    /// The payload is too heavy to hover: every algorithm on this pair
    /// yields the same infeasible outcome.
    Infeasible {
        /// Combined compute TDP, carried into the infeasible outcome.
        total_tdp: Watts,
        /// Total payload mass, carried into the infeasible outcome.
        payload: Grams,
    },
    /// The build hovers: the roofline every algorithm on this pair
    /// shares.
    Ready {
        /// Combined compute TDP.
        total_tdp: Watts,
        /// Total payload mass.
        payload: Grams,
        /// The shared safety roofline, with its knee, roof, optimal band
        /// and Eq. 4 constants computed once.
        roofline: Roofline,
        /// The sensor's frame rate.
        sensor_rate: Hertz,
        /// The airframe's control-loop rate.
        control_rate: Hertz,
    },
}

impl PairStage {
    /// Whether candidates of this pair come out feasible. Feasibility is
    /// decided entirely at the pair stage (it is a mass/thrust check),
    /// which is what lets the shard kernel hoist the mission power model
    /// per pair.
    pub(crate) fn feasible(&self) -> bool {
        matches!(self, PairStage::Ready { .. })
    }

    /// The pair's total TDP (defined in both variants).
    pub(crate) fn total_tdp(&self) -> Watts {
        match self {
            PairStage::Infeasible { total_tdp, .. } | PairStage::Ready { total_tdp, .. } => {
                *total_tdp
            }
        }
    }

    /// The pair's total payload mass (defined in both variants).
    pub(crate) fn payload(&self) -> Grams {
        match self {
            PairStage::Infeasible { payload, .. } | PairStage::Ready { payload, .. } => *payload,
        }
    }

    /// The shard kernel's per-candidate work: the stage rates validated
    /// exactly as [`StageRates::new`] does, the action throughput and
    /// its Eq. 4 velocity on the pair's roofline. The values equal the
    /// same fields of [`algo_stage`]'s outcome bit for bit, which reaches
    /// its velocity through the same [`Roofline::velocity_at`].
    ///
    /// # Errors
    ///
    /// Propagates [`StageRates`] domain errors as [`SkylineError::Model`].
    #[inline]
    pub(crate) fn score(&self, throughput: Hertz) -> Result<Scored, SkylineError> {
        match self {
            PairStage::Infeasible { total_tdp, payload } => Ok(Scored {
                feasible: false,
                velocity: MetersPerSecond::ZERO,
                total_tdp: *total_tdp,
                payload: *payload,
            }),
            PairStage::Ready {
                total_tdp,
                payload,
                roofline,
                sensor_rate,
                control_rate,
            } => {
                let rates = StageRates::new(*sensor_rate, throughput, *control_rate)?;
                Ok(Scored {
                    feasible: true,
                    velocity: roofline.velocity_at(rates.action_throughput()),
                    total_tdp: *total_tdp,
                    payload: *payload,
                })
            }
        }
    }
}

/// Computes the algorithm-independent [`PairStage`] of the evaluation
/// kernel. See [`Engine::evaluate_parts`] for the contract; the statement
/// sequence is byte-for-byte the prefix of the original fused kernel.
///
/// # Errors
///
/// Propagates model-domain errors as [`SkylineError::Model`]; an
/// over-heavy payload is the `Infeasible` variant, not an error.
pub(crate) fn pair_stage(
    heatsink: &HeatsinkModel,
    saturation: Saturation,
    airframe: &Airframe,
    sensor: &Sensor,
    platform: &ComputePlatform,
    extra_payload: Grams,
) -> Result<PairStage, SkylineError> {
    let total_tdp = platform.tdp();
    let payload = Grams::new(
        platform.fielded_mass().get()
            + heatsink.mass_for(total_tdp).get()
            + sensor.mass().get()
            + extra_payload.get().max(0.0),
    );
    let dynamics = airframe.loaded_dynamics(payload)?;
    let Ok(a_max) = dynamics.a_max() else {
        return Ok(PairStage::Infeasible { total_tdp, payload });
    };
    let safety = SafetyModel::new(a_max, sensor.range())?;
    let roofline = Roofline::with_saturation(safety, saturation);
    Ok(PairStage::Ready {
        total_tdp,
        payload,
        roofline,
        sensor_rate: sensor.frame_rate(),
        control_rate: airframe.control_rate(),
    })
}

/// Finishes the evaluation kernel for one algorithm on a computed
/// [`PairStage`]: stage rates, roofline classification and the design
/// assessment, the full outcome that late materialization rebuilds
/// (`pair_stage` + `algo_stage` is [`Engine::evaluate_parts_loaded`]).
/// The shard kernel's [`PairStage::score`] computes the same velocity,
/// TDP, payload and feasibility without the rest.
///
/// # Errors
///
/// Propagates [`StageRates`] domain errors as [`SkylineError::Model`].
pub(crate) fn algo_stage(pair: &PairStage, throughput: Hertz) -> Result<Outcome, SkylineError> {
    match pair {
        PairStage::Infeasible { total_tdp, payload } => {
            Ok(Outcome::infeasible(*total_tdp, *payload))
        }
        PairStage::Ready {
            total_tdp,
            payload,
            roofline,
            sensor_rate,
            control_rate,
        } => {
            let rates = StageRates::new(*sensor_rate, throughput, *control_rate)?;
            let bound = roofline.classify(&rates);
            Ok(Outcome {
                feasible: true,
                velocity: bound.velocity,
                roof: bound.roof,
                knee: bound.knee.rate,
                bound: Some(bound.bound),
                total_tdp: *total_tdp,
                payload: *payload,
                compute_assessment: Some(DesignAssessment::of(roofline, rates.compute())),
                roofline: Some(*roofline),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::plan::QueryPlan;
    use crate::session::{ResultSet, Session};
    use crate::system::UavSystem;
    use f1_components::names;

    /// Runs the default 3-objective plan over one airframe, by name,
    /// through a fresh session over the paper catalog.
    fn explore(airframe: &str) -> Result<Arc<ResultSet>, SkylineError> {
        let catalog = Arc::new(Catalog::paper());
        let plan = QueryPlan::builder()
            .airframes(&[catalog.airframe_id(airframe)?])
            .build()?;
        Session::new(catalog).run(&plan)
    }

    #[test]
    fn explores_pelican_and_ranks() {
        let result = explore(names::ASCTEC_PELICAN).unwrap();
        assert!(!result.is_empty());
        // Ranked descending by velocity among feasible entries.
        let feasible: Vec<f64> = result
            .ranked()
            .into_iter()
            .filter(|&i| result.try_key(i).unwrap().feasible)
            .map(|i| result.value(i, 0))
            .collect();
        for w in feasible.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // Pelican can lift everything in the catalog.
        let best = result.best().unwrap();
        assert!(best.outcome.velocity.get() > 0.0);
    }

    #[test]
    fn best_pelican_build_uses_a_light_fast_combo() {
        // The winner should be physics-bound (fast algorithm) and use a
        // lightweight platform; heavyweights like SPA-on-TX2 must rank low.
        let result = explore(names::ASCTEC_PELICAN).unwrap();
        let best = result.best().unwrap();
        assert_eq!(best.outcome.bound, Some(Bound::Physics));
        let worst_feasible = result
            .ranked()
            .into_iter()
            .rfind(|&i| result.try_key(i).unwrap().feasible)
            .unwrap();
        assert!(best.outcome.velocity.get() > result.value(worst_feasible, 0));
    }

    #[test]
    fn nano_uav_rejects_heavy_platforms() {
        let catalog = Catalog::paper();
        let agx = catalog.compute_id(names::AGX).unwrap();
        let tx2 = catalog.compute_id(names::TX2).unwrap();
        let result = explore(names::NANO_UAV).unwrap();
        // AGX/TX2 builds are infeasible on the nano frame.
        assert!((0..result.len()).any(|i| {
            let key = result.try_key(i).unwrap();
            !key.feasible && (key.candidate.compute == agx || key.candidate.compute == tx2)
        }));
        // But PULP-DroNet flies.
        let best = catalog
            .compute_by_id(result.best().unwrap().candidate.compute)
            .name();
        assert!(
            best == names::PULP || best == names::NAVION || best == names::NCS,
            "best nano compute was {best}"
        );
    }

    #[test]
    fn uncharacterized_pairs_are_counted_not_evaluated() {
        let result = explore(names::DJI_SPARK).unwrap();
        assert!(result.uncharacterized() > 0);
    }

    #[test]
    fn unknown_airframe_is_an_error() {
        assert!(explore("Ingenuity").is_err());
    }

    #[test]
    fn engine_matches_uav_system_analysis() {
        // The id-interned fast path must agree with the full
        // UavSystem::from_catalog + analyze pipeline on EVERY airframe ×
        // candidate of the catalog. This test is the contract that keeps
        // Engine::evaluate_parts and UavSystem's payload/safety
        // composition from drifting apart — extend one, extend the other.
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        for (_, airframe) in catalog.airframe_entries() {
            for candidate in engine.candidates() {
                let sensor = catalog.sensor_by_id(candidate.sensor);
                let compute = catalog.compute_by_id(candidate.compute);
                let fast = engine
                    .evaluate_parts(airframe, sensor, compute, candidate.throughput)
                    .unwrap();
                let system = UavSystem::from_catalog(
                    &catalog,
                    airframe.name(),
                    sensor.name(),
                    compute.name(),
                    catalog.algorithm_by_id(candidate.algorithm).name(),
                )
                .unwrap();
                match system.analyze() {
                    Ok(analysis) => {
                        assert!(fast.feasible);
                        assert_eq!(fast.velocity, analysis.bound.velocity);
                        assert_eq!(fast.bound, Some(analysis.bound.bound));
                        assert_eq!(fast.knee, analysis.bound.knee.rate);
                        assert_eq!(fast.payload, analysis.payload);
                    }
                    Err(SkylineError::CannotHover { .. }) => {
                        assert!(!fast.feasible);
                    }
                    Err(other) => panic!("unexpected analysis error: {other}"),
                }
            }
        }
    }

    #[test]
    fn candidate_enumeration_is_lazy_and_characterized_only() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let total = catalog.sensor_count() * catalog.compute_count() * catalog.algorithm_count();
        let candidates: Vec<Candidate> = engine.candidates().collect();
        assert!(candidates.len() < total);
        assert_eq!(
            candidates.len(),
            catalog.sensor_count() * catalog.matrix().len()
        );
        // Every candidate's throughput matches the string-keyed lookup.
        for c in &candidates {
            let compute = catalog.compute_by_id(c.compute).name();
            let algorithm = catalog.algorithm_by_id(c.algorithm).name();
            assert_eq!(
                catalog.throughput(compute, algorithm).unwrap(),
                c.throughput
            );
        }
    }

    /// The shard kernel's four values equal the full evaluation's bit for
    /// bit, and the full evaluation's knee, roof, bound and assessment
    /// equal Eq. 4 and the knee's closed form written out literally, over
    /// feasible and infeasible pairs, every bound kind and TDP-, rate-,
    /// range- and weight-scaled parts.
    #[test]
    fn kernel_values_equal_full_evaluation_bit_for_bit() {
        use f1_model::analysis::DesignGap;
        use f1_units::Millimeters;

        let catalog = Catalog::paper();
        let heatsink = HeatsinkModel::paper_calibrated();
        let saturation = Saturation::DEFAULT;
        let mut airframes: Vec<Airframe> =
            catalog.airframe_entries().map(|(_, a)| a.clone()).collect();
        for a in airframes.clone() {
            airframes.push(a.with_base_mass_scaled(1.6).unwrap());
        }
        // A slow flight-controller loop makes control-bound points.
        airframes.push(
            Airframe::builder("Slow loop")
                .base_mass(Grams::new(400.0))
                .rotor_count(4)
                .rotor_pull_gf(500.0)
                .frame_size(Millimeters::new(300.0))
                .control_rate(Hertz::new(6.0))
                .build()
                .unwrap(),
        );
        let mut sensors: Vec<Sensor> = Vec::new();
        for (_, s) in catalog.sensor_entries() {
            for (rate, range) in [(1.0, 1.0), (0.1, 1.0), (4.0, 1.0), (1.0, 0.5), (1.0, 3.0)] {
                sensors.push(
                    Sensor::new(
                        s.name(),
                        s.modality(),
                        s.frame_rate() * rate,
                        s.range() * range,
                        s.mass(),
                    )
                    .unwrap(),
                );
            }
        }
        let mut computes: Vec<ComputePlatform> = Vec::new();
        for (_, c) in catalog.compute_entries() {
            computes.push(c.clone());
            computes.push(c.with_tdp_scaled(0.5).unwrap());
            computes.push(c.with_tdp_scaled(3.0).unwrap());
        }
        let throughputs = [0.3, 1.1, 4.0, 9.0, 30.0, 43.0, 60.0, 178.0, 900.0, 5000.0];

        let (mut feasible, mut infeasible) = (0usize, 0usize);
        let mut bounds = Vec::new();
        for airframe in &airframes {
            for sensor in &sensors {
                for platform in &computes {
                    let stage = pair_stage(
                        &heatsink,
                        saturation,
                        airframe,
                        sensor,
                        platform,
                        Grams::ZERO,
                    )
                    .unwrap();
                    for hz in throughputs {
                        let scored = stage.score(Hertz::new(hz)).unwrap();
                        let full = algo_stage(&stage, Hertz::new(hz)).unwrap();
                        assert_eq!(
                            scored.velocity.get().to_bits(),
                            full.velocity.get().to_bits()
                        );
                        assert_eq!(
                            scored.total_tdp.get().to_bits(),
                            full.total_tdp.get().to_bits()
                        );
                        assert_eq!(scored.payload.get().to_bits(), full.payload.get().to_bits());
                        assert_eq!(scored.feasible, full.feasible);
                        let PairStage::Ready { roofline, .. } = stage else {
                            assert_eq!(
                                full,
                                Outcome::infeasible(stage.total_tdp(), stage.payload())
                            );
                            infeasible += 1;
                            continue;
                        };
                        feasible += 1;
                        // The closed forms as the model spelled them before
                        // the per-roofline constants were hoisted.
                        let a = roofline.safety().a_max().get();
                        let d = roofline.safety().range().get();
                        let eta = saturation.get();
                        let roof = (2.0 * d * a).sqrt();
                        let knee = 1.0 / ((2.0 * d / a).sqrt() * ((1.0 - eta * eta) / (2.0 * eta)));
                        let (fs, fc, fctl) =
                            (sensor.frame_rate().get(), hz, airframe.control_rate().get());
                        let f = fs.min(fc).min(fctl);
                        let t = (1.0 / f).max(0.0);
                        let v = 2.0 * d / ((t * t + 2.0 * d / a).sqrt() + t);
                        let mut slowest = (Bound::Sensor, fs);
                        if fc < slowest.1 {
                            slowest = (Bound::Compute, fc);
                        }
                        if fctl < slowest.1 {
                            slowest = (Bound::Control, fctl);
                        }
                        let bound = if f >= knee { Bound::Physics } else { slowest.0 };
                        let (lo, hi) = (knee * (1.0 - 0.05), knee * (1.0 + 0.05));
                        let gap = |factor: f64| DesignGap {
                            achieved: Hertz::new(fc),
                            required: Hertz::new(knee),
                            factor,
                        };
                        let assessment = if fc >= lo && fc <= hi {
                            DesignAssessment::Optimal
                        } else if fc > hi {
                            DesignAssessment::OverProvisioned(gap(fc / knee))
                        } else {
                            DesignAssessment::UnderProvisioned(gap(knee / fc))
                        };
                        assert_eq!(full.velocity.get().to_bits(), v.to_bits());
                        assert_eq!(full.roof.get().to_bits(), roof.to_bits());
                        assert_eq!(full.knee.get().to_bits(), knee.to_bits());
                        assert_eq!(full.bound, Some(bound));
                        assert_eq!(full.compute_assessment, Some(assessment));
                        assert_eq!(full.roofline, Some(roofline));
                        if !bounds.contains(&bound) {
                            bounds.push(bound);
                        }
                    }
                }
            }
        }
        assert!(feasible > 0 && infeasible > 0, "{feasible} / {infeasible}");
        assert_eq!(bounds.len(), 4, "bound kinds seen: {bounds:?}");
    }

    #[test]
    fn evaluate_parts_supports_what_if_platforms() {
        // The §VI-A AGX 30 W → 15 W what-if: halving TDP keeps throughput
        // but sheds heatsink mass, raising the roof.
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let spark = catalog.airframe(names::DJI_SPARK).unwrap();
        let sensor = catalog.sensor(names::RGB_60).unwrap();
        let agx = catalog.compute(names::AGX).unwrap();
        let rate = catalog.throughput(names::AGX, names::DRONET).unwrap();
        let stock = engine.evaluate_parts(spark, sensor, agx, rate).unwrap();
        let halved = agx.with_tdp_scaled(0.5).unwrap();
        let optimized = engine.evaluate_parts(spark, sensor, &halved, rate).unwrap();
        assert!(optimized.payload < stock.payload);
        assert!(optimized.roof > stock.roof);
    }
}
