//! UAV system assembly and automatic analysis.

use f1_components::{Airframe, AutonomyAlgorithm, Battery, Catalog, ComputePlatform, Sensor};
use f1_model::analysis::DesignAssessment;
use f1_model::heatsink::HeatsinkModel;
use f1_model::physics::BodyDynamics;
use f1_model::pipeline::StageRates;
use f1_model::roofline::{Bound, BoundAnalysis, Roofline, Saturation};
use f1_model::safety::SafetyModel;
use f1_units::{Grams, Hertz, Watts};

use crate::knobs::Knobs;
use crate::SkylineError;

/// A fully-assembled UAV system: airframe + sensor + onboard computer(s) +
/// autonomy algorithm (+ optional dedicated battery and extra payload).
///
/// Multiple compute platforms model modular redundancy (§VI-C): each adds
/// its fielded mass and TDP-derived heatsink mass; throughput stays that of
/// one unit (replicas vote, they don't parallelize).
#[derive(Debug, Clone, PartialEq)]
pub struct UavSystem {
    name: String,
    airframe: Airframe,
    sensor: Sensor,
    computes: Vec<ComputePlatform>,
    algorithm: AutonomyAlgorithm,
    compute_throughput: Hertz,
    battery: Option<Battery>,
    extra_payload: Grams,
    heatsink: HeatsinkModel,
    saturation: Saturation,
}

impl UavSystem {
    /// Starts building a system.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> UavSystemBuilder {
        UavSystemBuilder {
            name: name.into(),
            airframe: None,
            sensor: None,
            computes: Vec::new(),
            algorithm: None,
            compute_throughput: None,
            battery: None,
            extra_payload: Grams::ZERO,
            heatsink: HeatsinkModel::paper_calibrated(),
            saturation: Saturation::DEFAULT,
        }
    }

    /// Assembles a system from catalog component names, resolving the
    /// compute throughput from the catalog's characterization matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SkylineError::Component`] for unknown names or an
    /// uncharacterized platform × algorithm pair.
    pub fn from_catalog(
        catalog: &Catalog,
        airframe: &str,
        sensor: &str,
        compute: &str,
        algorithm: &str,
    ) -> Result<Self, SkylineError> {
        // The parts resolve first, so an unknown name is reported as
        // unknown and not as an uncharacterized pair.
        Self::builder(format!("{airframe} / {compute} / {algorithm}"))
            .airframe(catalog.airframe(airframe)?.clone())
            .sensor(catalog.sensor(sensor)?.clone())
            .compute(catalog.compute(compute)?.clone())
            .algorithm(catalog.algorithm(algorithm)?.clone())
            .compute_throughput(catalog.throughput(compute, algorithm)?)
            .build()
    }

    /// Builds a system directly from raw Table II knobs, bypassing the
    /// catalog (Skyline's "user-defined knobs" path).
    ///
    /// # Errors
    ///
    /// Returns a validation error for out-of-domain knobs, or a component
    /// error if the synthetic parts are inconsistent.
    pub fn from_knobs(name: impl Into<String>, knobs: &Knobs) -> Result<Self, SkylineError> {
        knobs.validate()?;
        let name = name.into();
        let airframe = Airframe::builder(format!("{name} (airframe)"))
            .base_mass(knobs.drone_weight)
            .rotor_count(1)
            .rotor_pull_gf(knobs.rotor_pull.get())
            .build()?;
        let sensor = Sensor::new(
            format!("{name} (sensor)"),
            f1_components::SensorModality::RgbCamera,
            knobs.sensor_framerate,
            knobs.sensor_range,
            Grams::ZERO,
        )?;
        let compute = ComputePlatform::builder(format!("{name} (compute)"))
            .mass(Grams::ZERO)
            .tdp(knobs.compute_tdp)
            .build()?;
        let algorithm = AutonomyAlgorithm::end_to_end(format!("{name} (algorithm)"))?;
        Self::builder(name)
            .airframe(airframe)
            .sensor(sensor)
            .compute(compute)
            .algorithm(algorithm)
            .compute_throughput(knobs.compute_throughput())
            .extra_payload(knobs.payload_weight)
            .build()
    }

    /// The system's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The airframe.
    #[must_use]
    pub fn airframe(&self) -> &Airframe {
        &self.airframe
    }

    /// The sensor.
    #[must_use]
    pub fn sensor(&self) -> &Sensor {
        &self.sensor
    }

    /// The onboard computer(s); more than one means modular redundancy.
    #[must_use]
    pub fn computes(&self) -> &[ComputePlatform] {
        &self.computes
    }

    /// The autonomy algorithm.
    #[must_use]
    pub fn algorithm(&self) -> &AutonomyAlgorithm {
        &self.algorithm
    }

    /// The characterized compute throughput of the algorithm on one unit
    /// of the onboard computer.
    #[must_use]
    pub fn compute_throughput(&self) -> Hertz {
        self.compute_throughput
    }

    /// The knee saturation used for rooflines.
    #[must_use]
    pub fn saturation(&self) -> Saturation {
        self.saturation
    }

    /// The heatsink model used to convert TDP into payload mass.
    #[must_use]
    pub fn heatsink(&self) -> &HeatsinkModel {
        &self.heatsink
    }

    /// The dedicated mission battery, if one was added.
    #[must_use]
    pub fn battery(&self) -> Option<&Battery> {
        self.battery.as_ref()
    }

    /// Heatsink mass for one compute unit.
    #[must_use]
    pub fn heatsink_mass(&self, compute: &ComputePlatform) -> Grams {
        self.heatsink.mass_for(compute.tdp())
    }

    /// Combined TDP across compute units.
    #[must_use]
    pub fn total_tdp(&self) -> Watts {
        Watts::new(self.computes.iter().map(|c| c.tdp().get()).sum())
    }

    /// Total payload mass: computes (fielded + heatsink) + sensor +
    /// battery + extra payload.
    #[must_use]
    pub fn payload_mass(&self) -> Grams {
        let compute_mass: f64 = self
            .computes
            .iter()
            .map(|c| c.fielded_mass().get() + self.heatsink_mass(c).get())
            .sum();
        Grams::new(
            compute_mass
                + self.sensor.mass().get()
                + self.battery.as_ref().map_or(0.0, |b| b.mass().get())
                + self.extra_payload.get(),
        )
    }

    /// Loaded body dynamics of the assembled system.
    ///
    /// # Errors
    ///
    /// Propagates dynamics-domain errors (cannot occur for valid builds).
    pub fn body_dynamics(&self) -> Result<BodyDynamics, SkylineError> {
        Ok(self.airframe.loaded_dynamics(self.payload_mass())?)
    }

    /// The safety model (Eq. 4 parameters) of the assembled system.
    ///
    /// # Errors
    ///
    /// Returns [`SkylineError::CannotHover`] when the payload exceeds the
    /// thrust budget.
    pub fn safety_model(&self) -> Result<SafetyModel, SkylineError> {
        let body = self.body_dynamics()?;
        let a_max = body.a_max().map_err(|_| SkylineError::CannotHover {
            system: self.name.clone(),
            takeoff_g: body.total_mass().to_grams().get(),
            liftable_g: self.airframe.payload_capacity().get() + self.airframe.base_mass().get(),
        })?;
        Ok(SafetyModel::new(a_max, self.sensor.range())?)
    }

    /// The F-1 roofline of the assembled system.
    ///
    /// # Errors
    ///
    /// Same as [`safety_model`](Self::safety_model).
    pub fn roofline(&self) -> Result<Roofline, SkylineError> {
        Ok(Roofline::with_saturation(
            self.safety_model()?,
            self.saturation,
        ))
    }

    /// The sensor/compute/control stage rates (Eq. 3 inputs).
    ///
    /// # Errors
    ///
    /// Returns a model-domain error if any rate is non-positive (cannot
    /// occur for valid builds).
    pub fn stage_rates(&self) -> Result<StageRates, SkylineError> {
        Ok(StageRates::new(
            self.sensor.frame_rate(),
            self.compute_throughput,
            self.airframe.control_rate(),
        )?)
    }

    /// Runs the full automatic analysis (paper §V-D): bounds, knee, design
    /// assessment and optimization recommendations.
    ///
    /// # Errors
    ///
    /// Returns [`SkylineError::CannotHover`] for infeasible builds.
    pub fn analyze(&self) -> Result<SystemAnalysis, SkylineError> {
        let roofline = self.roofline()?;
        let rates = self.stage_rates()?;
        let bound = roofline.classify(&rates);
        let assessment = DesignAssessment::of(&roofline, bound.action_throughput);
        // The paper's per-component framing (§VI-B: "DroNet … over-
        // provisioned by 4.13×") measures the *algorithm's* throughput
        // against the knee, independent of the sensor cap.
        let compute_assessment = DesignAssessment::of(&roofline, rates.compute());
        let mut recommendations = Vec::new();
        match bound.bound {
            Bound::Compute => {
                recommendations.push(Recommendation::ImproveCompute {
                    factor: assessment.speedup_required(),
                });
            }
            Bound::Sensor => {
                recommendations.push(Recommendation::ImproveSensor {
                    factor: assessment.speedup_required(),
                });
            }
            Bound::Control => {
                recommendations.push(Recommendation::ImproveControl {
                    factor: assessment.speedup_required(),
                });
            }
            Bound::Physics => {
                let surplus = compute_assessment.surplus_factor();
                if surplus > 1.5 {
                    let heatsink_total: f64 = self
                        .computes
                        .iter()
                        .map(|c| self.heatsink_mass(c).get())
                        .sum();
                    recommendations.push(Recommendation::TradeComputeForTdp {
                        surplus_factor: surplus,
                        current_tdp: self.total_tdp(),
                        heatsink_mass: Grams::new(heatsink_total),
                    });
                } else {
                    recommendations.push(Recommendation::Balanced);
                }
            }
        }
        // Payload feasibility warning relative to the size class.
        let budget = self.airframe.size_class().typical_payload_budget();
        if self.payload_mass() > budget {
            recommendations.push(Recommendation::PayloadHeavyForClass {
                payload: self.payload_mass(),
                class_budget: budget,
            });
        }
        Ok(SystemAnalysis {
            system_name: self.name.clone(),
            payload: self.payload_mass(),
            takeoff_mass_g: self.airframe.base_mass().get() + self.payload_mass().get(),
            bound,
            assessment,
            compute_assessment,
            recommendations,
        })
    }

    /// Returns a copy with the compute throughput replaced (what-if).
    ///
    /// # Errors
    ///
    /// Rejects non-positive rates.
    pub fn with_compute_throughput(&self, throughput: Hertz) -> Result<Self, SkylineError> {
        if !(throughput.get().is_finite() && throughput.get() > 0.0) {
            return Err(SkylineError::Model(f1_model::ModelError::OutOfDomain {
                parameter: "compute throughput",
                value: throughput.get(),
                expected: "finite and > 0",
            }));
        }
        let mut out = self.clone();
        out.compute_throughput = throughput;
        Ok(out)
    }

    /// Returns a copy with extra payload added.
    #[must_use]
    pub fn with_extra_payload(&self, extra: Grams) -> Self {
        let mut out = self.clone();
        out.extra_payload += extra;
        out
    }

    /// Returns a copy with the primary compute platform swapped (heatsink
    /// and mass recomputed); throughput must be re-supplied by the caller.
    #[must_use]
    pub fn with_compute_platform(&self, compute: ComputePlatform, throughput: Hertz) -> Self {
        let mut out = self.clone();
        out.computes = vec![compute];
        out.compute_throughput = throughput;
        out
    }

    pub(crate) fn push_compute(&mut self, compute: ComputePlatform) {
        self.computes.push(compute);
    }

    pub(crate) fn rename(&mut self, name: String) {
        self.name = name;
    }
}

/// An optimization tip from the automatic analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Recommendation {
    /// Compute-bound: improve the algorithm/platform throughput by this
    /// factor to reach the knee.
    ImproveCompute {
        /// Required speedup.
        factor: f64,
    },
    /// Sensor-bound: a faster sensor is needed.
    ImproveSensor {
        /// Required speedup.
        factor: f64,
    },
    /// Control-bound: the flight-controller loop is the bottleneck.
    ImproveControl {
        /// Required speedup.
        factor: f64,
    },
    /// Physics-bound with large compute surplus: trade performance for
    /// TDP/heatsink weight (§VI-A's AGX 30 W → 15 W what-if).
    TradeComputeForTdp {
        /// How over-provisioned the pipeline is.
        surplus_factor: f64,
        /// Current combined TDP.
        current_tdp: Watts,
        /// Current combined heatsink mass.
        heatsink_mass: Grams,
    },
    /// The design is balanced (at the knee).
    Balanced,
    /// The payload is heavy for the airframe's size class.
    PayloadHeavyForClass {
        /// Actual payload.
        payload: Grams,
        /// Typical budget for the class.
        class_budget: Grams,
    },
}

impl core::fmt::Display for Recommendation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ImproveCompute { factor } => write!(
                f,
                "compute-bound: improve compute throughput by {factor:.2}× to reach the knee"
            ),
            Self::ImproveSensor { factor } => write!(
                f,
                "sensor-bound: increase sensor frame rate by {factor:.2}× to reach the knee"
            ),
            Self::ImproveControl { factor } => write!(
                f,
                "control-bound: raise the flight-controller loop rate by {factor:.2}×"
            ),
            Self::TradeComputeForTdp {
                surplus_factor,
                current_tdp,
                heatsink_mass,
            } => write!(
                f,
                "physics-bound with {surplus_factor:.1}× compute surplus: lower TDP \
                 (now {current_tdp:.1}, heatsink {heatsink_mass:.0}) to shed payload weight"
            ),
            Self::Balanced => write!(f, "balanced design: action throughput is at the knee"),
            Self::PayloadHeavyForClass {
                payload,
                class_budget,
            } => write!(
                f,
                "payload {payload:.0} exceeds the typical {class_budget:.0} budget for this size class"
            ),
        }
    }
}

/// The automatic-analysis output (paper §V-D).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemAnalysis {
    /// The system's name.
    pub system_name: String,
    /// Total payload mass.
    pub payload: Grams,
    /// Take-off mass in grams.
    pub takeoff_mass_g: f64,
    /// Bound classification, velocity, roof and knee.
    pub bound: BoundAnalysis,
    /// Optimal / over- / under-provisioned assessment of the *pipeline*
    /// (Eq. 3 action throughput vs the knee).
    pub assessment: DesignAssessment,
    /// Assessment of the *compute stage alone* vs the knee — the paper's
    /// per-component over/under-provisioning factors.
    pub compute_assessment: DesignAssessment,
    /// Optimization tips.
    pub recommendations: Vec<Recommendation>,
}

impl core::fmt::Display for SystemAnalysis {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "━━ {} ━━", self.system_name)?;
        writeln!(
            f,
            "payload {:.0}  take-off {:.0} g",
            self.payload, self.takeoff_mass_g
        )?;
        writeln!(
            f,
            "f_action {:.2}  v_safe {:.2}  roof {:.2}  {}",
            self.bound.action_throughput, self.bound.velocity, self.bound.roof, self.bound.knee
        )?;
        writeln!(f, "{} · {}", self.bound.bound, self.assessment)?;
        for r in &self.recommendations {
            writeln!(f, "  → {r}")?;
        }
        Ok(())
    }
}

/// Builder for [`UavSystem`].
#[derive(Debug, Clone)]
pub struct UavSystemBuilder {
    name: String,
    airframe: Option<Airframe>,
    sensor: Option<Sensor>,
    computes: Vec<ComputePlatform>,
    algorithm: Option<AutonomyAlgorithm>,
    compute_throughput: Option<Hertz>,
    battery: Option<Battery>,
    extra_payload: Grams,
    heatsink: HeatsinkModel,
    saturation: Saturation,
}

impl UavSystemBuilder {
    /// Sets the airframe.
    #[must_use]
    pub fn airframe(mut self, airframe: Airframe) -> Self {
        self.airframe = Some(airframe);
        self
    }

    /// Sets the sensor.
    #[must_use]
    pub fn sensor(mut self, sensor: Sensor) -> Self {
        self.sensor = Some(sensor);
        self
    }

    /// Adds an onboard computer (call twice for dual redundancy).
    #[must_use]
    pub fn compute(mut self, compute: ComputePlatform) -> Self {
        self.computes.push(compute);
        self
    }

    /// Sets the autonomy algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: AutonomyAlgorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Sets the characterized compute throughput.
    #[must_use]
    pub fn compute_throughput(mut self, throughput: Hertz) -> Self {
        self.compute_throughput = Some(throughput);
        self
    }

    /// Adds a dedicated mission battery to the payload.
    #[must_use]
    pub fn battery(mut self, battery: Battery) -> Self {
        self.battery = Some(battery);
        self
    }

    /// Adds extra payload mass (calibration weights, gimbals, …).
    #[must_use]
    pub fn extra_payload(mut self, extra: Grams) -> Self {
        self.extra_payload = extra;
        self
    }

    /// Overrides the heatsink model.
    #[must_use]
    pub fn heatsink(mut self, model: HeatsinkModel) -> Self {
        self.heatsink = model;
        self
    }

    /// Overrides the knee saturation.
    #[must_use]
    pub fn saturation(mut self, saturation: Saturation) -> Self {
        self.saturation = saturation;
        self
    }

    /// Finishes the assembly.
    ///
    /// # Errors
    ///
    /// Returns [`SkylineError::IncompleteSystem`] if any required part is
    /// missing, or a model error for a non-positive throughput.
    pub fn build(self) -> Result<UavSystem, SkylineError> {
        let airframe = self.airframe.ok_or(SkylineError::IncompleteSystem {
            missing: "airframe",
        })?;
        let sensor = self
            .sensor
            .ok_or(SkylineError::IncompleteSystem { missing: "sensor" })?;
        if self.computes.is_empty() {
            return Err(SkylineError::IncompleteSystem {
                missing: "onboard compute",
            });
        }
        let algorithm = self.algorithm.ok_or(SkylineError::IncompleteSystem {
            missing: "algorithm",
        })?;
        let throughput = self
            .compute_throughput
            .ok_or(SkylineError::IncompleteSystem {
                missing: "compute throughput",
            })?;
        if !(throughput.get().is_finite() && throughput.get() > 0.0) {
            return Err(SkylineError::Model(f1_model::ModelError::OutOfDomain {
                parameter: "compute throughput",
                value: throughput.get(),
                expected: "finite and > 0",
            }));
        }
        Ok(UavSystem {
            name: self.name,
            airframe,
            sensor,
            computes: self.computes,
            algorithm,
            compute_throughput: throughput,
            battery: self.battery,
            extra_payload: self.extra_payload,
            heatsink: self.heatsink,
            saturation: self.saturation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_components::{names, ComponentError};

    fn catalog() -> Catalog {
        Catalog::paper()
    }

    fn pelican_tx2_dronet() -> UavSystem {
        UavSystem::from_catalog(
            &catalog(),
            names::ASCTEC_PELICAN,
            names::RGBD_60,
            names::TX2,
            names::DRONET,
        )
        .unwrap()
    }

    #[test]
    fn from_catalog_resolves_throughput() {
        let sys = pelican_tx2_dronet();
        assert!((sys.compute_throughput().get() - 178.0).abs() < 1e-9);
        assert_eq!(sys.computes().len(), 1);
    }

    #[test]
    fn from_catalog_names_the_unknown_family_before_the_throughput() {
        let cat = catalog();
        let parts = [
            names::ASCTEC_PELICAN,
            names::RGBD_60,
            names::TX2,
            names::DRONET,
        ];
        let families = [
            "airframe",
            "sensor",
            "compute platform",
            "autonomy algorithm",
        ];
        for (slot, family) in families.into_iter().enumerate() {
            let mut picked = parts;
            picked[slot] = "Nope";
            let [airframe, sensor, compute, algorithm] = picked;
            let err = UavSystem::from_catalog(&cat, airframe, sensor, compute, algorithm);
            assert_eq!(
                err.unwrap_err(),
                SkylineError::Component(ComponentError::UnknownComponent {
                    family,
                    name: "Nope".to_owned(),
                })
            );
        }
        // Both parts exist, but VGG16 was never characterized on the NCS.
        let err = UavSystem::from_catalog(
            &cat,
            names::ASCTEC_PELICAN,
            names::RGBD_60,
            names::NCS,
            names::VGG16,
        );
        assert_eq!(
            err.unwrap_err(),
            SkylineError::Component(ComponentError::MissingThroughput {
                platform: names::NCS.to_owned(),
                algorithm: names::VGG16.to_owned(),
            })
        );
    }

    #[test]
    fn payload_includes_heatsink() {
        let sys = pelican_tx2_dronet();
        // TX2 85 g + 15 W heatsink (~85 g) + RGB-D 30 g.
        let payload = sys.payload_mass().get();
        let heatsink = sys.heatsink_mass(&sys.computes()[0]).get();
        assert!(heatsink > 50.0 && heatsink < 110.0, "heatsink {heatsink}");
        assert!((payload - (85.0 + heatsink + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn pelican_dronet_is_physics_bound_and_over_provisioned() {
        // §VI-B: DroNet on TX2 (178 Hz) is over-provisioned ~4× against the
        // Pelican knee.
        let analysis = pelican_tx2_dronet().analyze().unwrap();
        assert_eq!(analysis.bound.bound, Bound::Physics);
        let surplus = analysis.compute_assessment.surplus_factor();
        assert!(
            (surplus - 178.0 / 43.43).abs() < 0.2,
            "surplus {surplus} (knee {})",
            analysis.bound.knee.rate
        );
        assert!(analysis
            .recommendations
            .iter()
            .any(|r| matches!(r, Recommendation::TradeComputeForTdp { .. })));
    }

    #[test]
    fn spa_on_tx2_is_compute_bound_needing_big_speedup() {
        // §VI-B: the SPA pipeline at 1.1 Hz needs ~39× to reach the knee.
        let sys = UavSystem::from_catalog(
            &catalog(),
            names::ASCTEC_PELICAN,
            names::RGBD_60,
            names::TX2,
            names::MAVBENCH_PD,
        )
        .unwrap();
        let analysis = sys.analyze().unwrap();
        assert_eq!(analysis.bound.bound, Bound::Compute);
        let speedup = analysis.assessment.speedup_required();
        assert!(speedup > 20.0 && speedup < 70.0, "speedup {speedup}");
        assert!(analysis
            .recommendations
            .iter()
            .any(|r| matches!(r, Recommendation::ImproveCompute { .. })));
    }

    #[test]
    fn sensor_bound_detection() {
        // A 5 Hz sensor in front of a fast algorithm: sensor-bound.
        let cat = catalog();
        let slow_sensor = cat
            .sensor(names::RGBD_60)
            .unwrap()
            .with_frame_rate(Hertz::new(5.0))
            .unwrap();
        let sys = UavSystem::builder("slow-sensor test")
            .airframe(cat.airframe(names::ASCTEC_PELICAN).unwrap().clone())
            .sensor(slow_sensor)
            .compute(cat.compute(names::TX2).unwrap().clone())
            .algorithm(cat.algorithm(names::DRONET).unwrap().clone())
            .compute_throughput(Hertz::new(178.0))
            .build()
            .unwrap();
        let analysis = sys.analyze().unwrap();
        assert_eq!(analysis.bound.bound, Bound::Sensor);
        assert!(analysis
            .recommendations
            .iter()
            .any(|r| matches!(r, Recommendation::ImproveSensor { .. })));
    }

    #[test]
    fn nano_with_agx_cannot_hover() {
        let sys = UavSystem::from_catalog(
            &catalog(),
            names::NANO_UAV,
            names::NANO_CAM_60,
            names::AGX,
            names::DRONET,
        )
        .unwrap();
        match sys.analyze() {
            Err(SkylineError::CannotHover { takeoff_g, .. }) => {
                assert!(takeoff_g > 400.0);
            }
            other => panic!("expected CannotHover, got {other:?}"),
        }
    }

    #[test]
    fn builder_requires_all_parts() {
        let cat = catalog();
        let b = UavSystem::builder("incomplete");
        assert!(matches!(
            b.clone().build(),
            Err(SkylineError::IncompleteSystem {
                missing: "airframe"
            })
        ));
        let b = b.airframe(cat.airframe(names::DJI_SPARK).unwrap().clone());
        assert!(matches!(
            b.clone().build(),
            Err(SkylineError::IncompleteSystem { missing: "sensor" })
        ));
        let b = b.sensor(cat.sensor(names::RGB_60).unwrap().clone());
        assert!(matches!(
            b.clone().build(),
            Err(SkylineError::IncompleteSystem {
                missing: "onboard compute"
            })
        ));
        let b = b.compute(cat.compute(names::NCS).unwrap().clone());
        assert!(matches!(
            b.clone().build(),
            Err(SkylineError::IncompleteSystem {
                missing: "algorithm"
            })
        ));
        let b = b.algorithm(cat.algorithm(names::DRONET).unwrap().clone());
        assert!(matches!(
            b.clone().build(),
            Err(SkylineError::IncompleteSystem {
                missing: "compute throughput"
            })
        ));
        assert!(b.compute_throughput(Hertz::new(150.0)).build().is_ok());
    }

    #[test]
    fn from_knobs_round_trip() {
        let sys = UavSystem::from_knobs("knob UAV", &Knobs::default()).unwrap();
        let analysis = sys.analyze().unwrap();
        assert!(analysis.bound.velocity.get() > 0.0);
        assert!((sys.compute_throughput().get() - 178.0).abs() < 1e-9);
        // Payload is the knob value plus the TDP-derived heatsink (the
        // Table II TDP knob exists exactly to size the heatsink).
        let heatsink = sys.heatsink().mass_for(Knobs::default().compute_tdp);
        assert_eq!(sys.payload_mass(), Grams::new(150.0) + heatsink);
    }

    #[test]
    fn what_if_mutators() {
        let sys = pelican_tx2_dronet();
        let faster = sys.with_compute_throughput(Hertz::new(230.0)).unwrap();
        assert!((faster.compute_throughput().get() - 230.0).abs() < 1e-9);
        assert!(sys.with_compute_throughput(Hertz::ZERO).is_err());

        let heavier = sys.with_extra_payload(Grams::new(200.0));
        assert!(heavier.payload_mass() > sys.payload_mass());
        let a1 = sys.analyze().unwrap();
        let a2 = heavier.analyze().unwrap();
        assert!(a2.bound.roof < a1.bound.roof);
    }

    #[test]
    fn swap_compute_platform() {
        let cat = catalog();
        let sys = pelican_tx2_dronet();
        let ncs = cat.compute(names::NCS).unwrap().clone();
        let swapped = sys.with_compute_platform(ncs, Hertz::new(150.0));
        assert!(swapped.payload_mass() < sys.payload_mass());
        assert_eq!(swapped.computes().len(), 1);
    }

    #[test]
    fn analysis_display_is_informative() {
        let text = pelican_tx2_dronet().analyze().unwrap().to_string();
        assert!(text.contains("physics-bound"), "{text}");
        assert!(text.contains("→"), "{text}");
    }
}
