//! The F-1 roofline: curve, knee point, ceilings and bound classification.
//!
//! Plotting Eq. 4's safe velocity against the action throughput (log-x)
//! produces a roofline-like curve: a rising region where faster decisions
//! buy velocity, and a flat roof `v_max = √(2·d·a_max)` where only better
//! physics helps. The *knee point* separates the two. Any operating point
//! left of the knee is sensor- or compute-bound (paper Fig. 4a); any point
//! at or beyond it is physics-bound.

use f1_units::{Hertz, Meters, MetersPerSecond, MetersPerSecondSquared, Seconds};
use serde::{Deserialize, Serialize};

use crate::analysis::DesignAssessment;
use crate::pipeline::{Stage, StageRates};
use crate::safety::{Eq4, SafetyModel};
use crate::ModelError;

/// The saturation fraction η ∈ (0, 1) defining where the knee sits on the
/// asymptotic Eq. 4 curve: the knee is the smallest action rate reaching
/// `η · v_max`.
///
/// The paper draws the knee where the curve visually flattens; η makes that
/// judgement explicit and tunable. `Saturation::default()` is 0.98; the
/// paper's Fig. 5b knee (100 Hz at a = 50 m/s², d = 10 m) corresponds to
/// η ≈ 0.984.
///
/// # Examples
///
/// ```
/// use f1_model::roofline::Saturation;
/// let eta = Saturation::new(0.95)?;
/// assert!((eta.get() - 0.95).abs() < 1e-12);
/// assert!(Saturation::new(1.0).is_err());
/// # Ok::<(), f1_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Saturation(f64);

impl Saturation {
    /// The default knee saturation, η = 0.98.
    pub const DEFAULT: Saturation = Saturation(0.98);

    /// Creates a saturation fraction.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] unless `0 < η < 1`.
    pub fn new(eta: f64) -> Result<Self, ModelError> {
        if !(eta.is_finite() && eta > 0.0 && eta < 1.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "saturation η",
                value: eta,
                expected: "0 < η < 1",
            });
        }
        Ok(Self(eta))
    }

    /// The fraction value.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// The knee-period coefficient `(1 − η²) / (2η)` such that
    /// `T_knee = √(2d/a) · coefficient`.
    #[must_use]
    pub fn knee_coefficient(self) -> f64 {
        (1.0 - self.0 * self.0) / (2.0 * self.0)
    }
}

impl Default for Saturation {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// The roofline's knee: the minimum action throughput that saturates the
/// physics roof, and the velocity reached there.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KneePoint {
    /// The knee action throughput `f_k`.
    pub rate: Hertz,
    /// The safe velocity at the knee, `η · v_max`.
    pub velocity: MetersPerSecond,
}

impl core::fmt::Display for KneePoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "knee at {:.1} → {:.2}", self.rate, self.velocity)
    }
}

/// Which UAV subsystem limits the safe velocity at an operating point
/// (paper Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bound {
    /// The action throughput exceeds the knee; only body dynamics limit
    /// velocity.
    Physics,
    /// The sensor's frame rate is the pipeline bottleneck and sits below
    /// the knee.
    Sensor,
    /// The autonomy algorithm's throughput on the onboard computer is the
    /// bottleneck and sits below the knee.
    Compute,
    /// The flight-controller loop is the bottleneck and sits below the knee
    /// (rare — inner loops run at ~1 kHz — but possible with degraded
    /// controllers).
    Control,
}

impl Bound {
    /// The pipeline stage responsible, if the bound is a pipeline stage.
    #[must_use]
    pub fn stage(self) -> Option<Stage> {
        match self {
            Bound::Physics => None,
            Bound::Sensor => Some(Stage::Sensor),
            Bound::Compute => Some(Stage::Compute),
            Bound::Control => Some(Stage::Control),
        }
    }
}

impl core::fmt::Display for Bound {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Bound::Physics => "physics-bound",
            Bound::Sensor => "sensor-bound",
            Bound::Compute => "compute-bound",
            Bound::Control => "control-bound",
        })
    }
}

/// Full bound-and-bottleneck analysis of one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundAnalysis {
    /// Which subsystem limits the velocity.
    pub bound: Bound,
    /// The operating action throughput, `min(f_s, f_c, f_ctl)` (Eq. 3).
    pub action_throughput: Hertz,
    /// The safe velocity achieved at this operating point (exact Eq. 4).
    pub velocity: MetersPerSecond,
    /// The physics roof `v_max`.
    pub roof: MetersPerSecond,
    /// The roofline's knee.
    pub knee: KneePoint,
}

impl BoundAnalysis {
    /// Fraction of the physics roof actually achieved, `v / v_max` ∈ (0, 1].
    #[must_use]
    pub fn roof_utilization(&self) -> f64 {
        self.velocity / self.roof
    }

    /// Velocity still on the table if the pipeline reached the knee.
    #[must_use]
    pub fn velocity_headroom(&self) -> MetersPerSecond {
        MetersPerSecond::new((self.knee.velocity.get() - self.velocity.get()).max(0.0))
    }
}

/// The F-1 roofline for one UAV configuration.
///
/// Everything that depends on the configuration alone is computed once,
/// at construction: Eq. 4's `2d` and `2d/a_max`, the roof, the knee and
/// the knee's default ±5 % optimal band
/// ([`DesignAssessment::of`](crate::analysis::DesignAssessment::of)).
/// An operating point then costs one Eq. 4 evaluation.
///
/// # Examples
///
/// ```
/// use f1_model::prelude::*;
///
/// let safety = SafetyModel::new(MetersPerSecondSquared::new(50.0), Meters::new(10.0))?;
/// let roofline = Roofline::new(safety);
///
/// // DroNet on TX2 behind a 30 FPS camera: sensor sets the pace…
/// let rates = StageRates::new(Hertz::new(30.0), Hertz::new(178.0), Hertz::new(1000.0))?;
/// let analysis = roofline.classify(&rates);
/// assert_eq!(analysis.bound, Bound::Sensor);
/// # Ok::<(), f1_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    safety: SafetyModel,
    saturation: Saturation,
    eq4: Eq4,
    roof: MetersPerSecond,
    knee: KneePoint,
    /// The knee's default optimal band, `[f_k·(1−tol), f_k·(1+tol)]`.
    band: (f64, f64),
}

impl Roofline {
    /// Builds a roofline with the default knee saturation (η = 0.98).
    #[must_use]
    pub fn new(safety: SafetyModel) -> Self {
        Self::with_saturation(safety, Saturation::DEFAULT)
    }

    /// Builds a roofline with an explicit knee saturation.
    ///
    /// The knee in closed form: `T_k = √(2d/a)·(1−η²)/(2η)`,
    /// `f_k = 1/T_k`, `v_k = η·v_max`.
    #[must_use]
    pub fn with_saturation(safety: SafetyModel, saturation: Saturation) -> Self {
        let eq4 = safety.eq4();
        let roof = safety.peak_velocity();
        let t_k = eq4.knee_period_scale() * saturation.knee_coefficient();
        let knee = KneePoint {
            rate: Seconds::new(t_k).frequency(),
            velocity: roof * saturation.get(),
        };
        Self {
            safety,
            saturation,
            eq4,
            roof,
            knee,
            band: DesignAssessment::band(knee.rate, DesignAssessment::DEFAULT_TOLERANCE),
        }
    }

    /// The underlying safety model.
    #[must_use]
    pub fn safety(&self) -> &SafetyModel {
        &self.safety
    }

    /// The knee saturation η.
    #[must_use]
    pub fn saturation(&self) -> Saturation {
        self.saturation
    }

    /// The physics roof `v_max = √(2·d·a_max)`.
    #[inline]
    #[must_use]
    pub fn roof(&self) -> MetersPerSecond {
        self.roof
    }

    /// The knee point (see [`with_saturation`](Self::with_saturation)).
    #[inline]
    #[must_use]
    pub fn knee(&self) -> KneePoint {
        self.knee
    }

    /// The knee's optimal band at the default tolerance, as
    /// [`DesignAssessment::of`] reads it.
    #[inline]
    pub(crate) fn optimal_band(&self) -> (f64, f64) {
        self.band
    }

    /// Exact Eq. 4 velocity at an action rate.
    #[inline]
    #[must_use]
    pub fn velocity_at(&self, f_action: Hertz) -> MetersPerSecond {
        self.eq4.velocity_at_rate(f_action)
    }

    /// Eq. 4's two model constants as [`velocity_at`](Self::velocity_at)
    /// reads them, `(2d, 2d/a_max)`: at a positive action rate `f` with
    /// period `T = 1/f`, the velocity is `2d / (√(T² + 2d/a_max) + T)`.
    /// For a caller that evaluates many rates on one roofline in its own
    /// loop.
    #[inline]
    #[must_use]
    pub fn eq4_constants(&self) -> (f64, f64) {
        self.eq4.constants()
    }

    /// The classical two-segment linearization of the roofline:
    /// `v ≈ min(d·f, v_max)` — the slanted "bandwidth" line meeting the
    /// flat roof.
    ///
    /// The paper names the gap between this and the exact curve as one of
    /// its error sources (§IV, "linearization error").
    #[must_use]
    pub fn linearized_velocity_at(&self, f_action: Hertz) -> MetersPerSecond {
        if f_action.get() <= 0.0 {
            return MetersPerSecond::ZERO;
        }
        let slant = self.safety.range() * f_action;
        slant.min(self.roof())
    }

    /// Relative linearization error at an action rate:
    /// `(v_linear − v_exact) / v_exact ≥ 0` (the linearization is always
    /// optimistic).
    #[must_use]
    pub fn linearization_error_at(&self, f_action: Hertz) -> f64 {
        let exact = self.velocity_at(f_action);
        if exact.get() <= 0.0 {
            return 0.0;
        }
        (self.linearized_velocity_at(f_action).get() - exact.get()) / exact.get()
    }

    /// Samples the exact roofline curve at `n` log-spaced action rates in
    /// `[f_lo, f_hi]`, for plotting.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the rate interval is not positive and ordered.
    #[must_use]
    pub fn sample_log(&self, f_lo: Hertz, f_hi: Hertz, n: usize) -> Vec<(Hertz, MetersPerSecond)> {
        assert!(n >= 2, "need at least two samples");
        assert!(
            f_lo.get() > 0.0 && f_hi > f_lo,
            "rate interval must be positive and ordered"
        );
        let lo = f_lo.get().ln();
        let hi = f_hi.get().ln();
        (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                let f = Hertz::new((lo + (hi - lo) * t).exp());
                (f, self.velocity_at(f))
            })
            .collect()
    }

    /// The velocity ceiling a pipeline stage imposes when running at rate
    /// `f` (paper Fig. 4a's "sensor-bound ceiling" / "compute-bound
    /// ceiling"): the Eq. 4 velocity at `f`, clipped to the roof.
    #[must_use]
    pub fn ceiling_at(&self, f: Hertz) -> MetersPerSecond {
        self.velocity_at(f).min(self.roof())
    }

    /// The per-stage velocity ceilings of Fig. 4a: for each pipeline stage
    /// running below the knee, the ceiling its rate imposes on the safe
    /// velocity. Stages at or beyond the knee impose no ceiling below the
    /// roof and are omitted.
    #[must_use]
    pub fn stage_ceilings(&self, rates: &StageRates) -> Vec<(Stage, Hertz, MetersPerSecond)> {
        let knee = self.knee();
        Stage::ALL
            .into_iter()
            .filter_map(|stage| {
                let f = rates.stage(stage);
                if f < knee.rate {
                    Some((stage, f, self.ceiling_at(f)))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Classifies an operating point (paper Fig. 4a): physics-bound at or
    /// beyond the knee, otherwise attributed to the slowest pipeline stage.
    #[must_use]
    pub fn classify(&self, rates: &StageRates) -> BoundAnalysis {
        let f_action = rates.action_throughput();
        let knee = self.knee;
        let bound = if f_action >= knee.rate {
            Bound::Physics
        } else {
            match rates.bottleneck() {
                Stage::Sensor => Bound::Sensor,
                Stage::Compute => Bound::Compute,
                Stage::Control => Bound::Control,
            }
        };
        BoundAnalysis {
            bound,
            action_throughput: f_action,
            velocity: self.velocity_at(f_action),
            roof: self.roof,
            knee,
        }
    }

    /// Inverse calibration: the `a_max` that places the knee at a desired
    /// rate for a given sensing range and saturation,
    /// `a = 2·d·c²·f_k²` with `c = (1−η²)/(2η)`.
    ///
    /// The paper reports knee rates for its case-study UAVs (43 Hz for the
    /// AscTec Pelican study, ~30 Hz for DJI Spark, 26 Hz for the nano-UAV);
    /// this solves for the body dynamics consistent with those knees.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if the knee rate or range are
    /// non-positive.
    pub fn calibrate_a_max(
        range: Meters,
        knee_rate: Hertz,
        saturation: Saturation,
    ) -> Result<MetersPerSecondSquared, ModelError> {
        if range.get() <= 0.0 {
            return Err(ModelError::OutOfDomain {
                parameter: "sensing range d",
                value: range.get(),
                expected: "> 0",
            });
        }
        if knee_rate.get() <= 0.0 {
            return Err(ModelError::OutOfDomain {
                parameter: "knee rate",
                value: knee_rate.get(),
                expected: "> 0",
            });
        }
        let c = saturation.knee_coefficient();
        Ok(MetersPerSecondSquared::new(
            2.0 * range.get() * c * c * knee_rate.get() * knee_rate.get(),
        ))
    }
}

impl core::fmt::Display for Roofline {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Roofline(roof = {:.2}, {}, η = {})",
            self.roof(),
            self.knee(),
            self.saturation.get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_roofline() -> Roofline {
        let safety =
            SafetyModel::new(MetersPerSecondSquared::new(50.0), Meters::new(10.0)).unwrap();
        Roofline::with_saturation(safety, Saturation::new(0.984).unwrap())
    }

    #[test]
    fn saturation_validation() {
        assert!(Saturation::new(0.0).is_err());
        assert!(Saturation::new(1.0).is_err());
        assert!(Saturation::new(-0.5).is_err());
        assert!(Saturation::new(f64::NAN).is_err());
        assert!(Saturation::new(0.5).is_ok());
        assert!((Saturation::default().get() - 0.98).abs() < 1e-12);
    }

    #[test]
    fn fig5_knee_near_100hz() {
        // Paper Fig. 5b: knee at ~100 Hz for a = 50 m/s², d = 10 m.
        let knee = fig5_roofline().knee();
        assert!(
            (knee.rate.get() - 100.0).abs() < 5.0,
            "knee = {}",
            knee.rate
        );
        assert!((knee.velocity.get() - 0.984 * 1000f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn knee_closed_form_matches_curve() {
        // velocity_at(f_k) must equal η·v_max by construction.
        let r = fig5_roofline();
        let knee = r.knee();
        let v = r.velocity_at(knee.rate);
        assert!((v.get() - knee.velocity.get()).abs() < 1e-9);
    }

    #[test]
    fn knee_scales_with_physics() {
        // Fig. 4c: higher a_max ⇒ higher roof and higher knee rate.
        let d = Meters::new(10.0);
        let slow = Roofline::new(SafetyModel::new(MetersPerSecondSquared::new(5.0), d).unwrap());
        let fast = Roofline::new(SafetyModel::new(MetersPerSecondSquared::new(50.0), d).unwrap());
        assert!(fast.roof() > slow.roof());
        assert!(fast.knee().rate > slow.knee().rate);
    }

    #[test]
    fn linearization_is_optimistic_and_tight_at_extremes() {
        let r = fig5_roofline();
        for &f in &[0.1, 1.0, 3.0, 10.0, 100.0, 1000.0] {
            let err = r.linearization_error_at(Hertz::new(f));
            assert!(err >= 0.0, "f = {f}: err = {err}");
        }
        // Far below the knee v ≈ d·f (error → 0)…
        assert!(r.linearization_error_at(Hertz::new(0.01)) < 0.01);
        // …far above it v ≈ v_max (error → 0)…
        assert!(r.linearization_error_at(Hertz::new(1e5)) < 0.01);
        // …and the worst case sits near the two-segment intersection
        // f = v_max/d = √(2a/d).
        let f_cross = (2.0 * 50.0 / 10.0f64).sqrt();
        let worst = r.linearization_error_at(Hertz::new(f_cross));
        assert!(worst > 0.2, "worst-case error = {worst}");
    }

    #[test]
    fn sample_log_monotone_increasing_velocity() {
        let r = fig5_roofline();
        let samples = r.sample_log(Hertz::new(0.1), Hertz::new(1e4), 200);
        assert_eq!(samples.len(), 200);
        for w in samples.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        // The curve must approach (but never exceed) the roof.
        let last = samples.last().unwrap().1;
        assert!(last <= r.roof());
        assert!(last.get() > 0.999 * r.roof().get());
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn sample_log_rejects_single_point() {
        let _ = fig5_roofline().sample_log(Hertz::new(1.0), Hertz::new(10.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive and ordered")]
    fn sample_log_rejects_bad_interval() {
        let _ = fig5_roofline().sample_log(Hertz::new(10.0), Hertz::new(1.0), 10);
    }

    #[test]
    fn classify_physics_bound_beyond_knee() {
        let r = fig5_roofline();
        let rates =
            StageRates::new(Hertz::new(1000.0), Hertz::new(500.0), Hertz::new(1000.0)).unwrap();
        let a = r.classify(&rates);
        assert_eq!(a.bound, Bound::Physics);
        assert!(a.roof_utilization() > 0.98);
        assert_eq!(a.bound.stage(), None);
    }

    #[test]
    fn classify_compute_bound() {
        let r = fig5_roofline();
        // Compute at 5 Hz, sensor at 60 Hz: compute-bound (knee ~100 Hz).
        let rates = StageRates::new(Hertz::new(60.0), Hertz::new(5.0), Hertz::new(1000.0)).unwrap();
        let a = r.classify(&rates);
        assert_eq!(a.bound, Bound::Compute);
        assert_eq!(a.bound.stage(), Some(Stage::Compute));
        assert!((a.action_throughput.get() - 5.0).abs() < 1e-12);
        assert!(a.velocity < a.knee.velocity);
        assert!(a.velocity_headroom().get() > 0.0);
    }

    #[test]
    fn classify_sensor_bound() {
        let r = fig5_roofline();
        // Paper Fig. 4a: sensor-bound requires f_sensor < f_knee and
        // f_compute > f_sensor.
        let rates =
            StageRates::new(Hertz::new(30.0), Hertz::new(178.0), Hertz::new(1000.0)).unwrap();
        assert_eq!(r.classify(&rates).bound, Bound::Sensor);
    }

    #[test]
    fn classify_control_bound() {
        let r = fig5_roofline();
        let rates = StageRates::new(Hertz::new(60.0), Hertz::new(178.0), Hertz::new(8.0)).unwrap();
        assert_eq!(r.classify(&rates).bound, Bound::Control);
    }

    #[test]
    fn classify_at_exact_knee_is_physics() {
        let r = fig5_roofline();
        let knee = r.knee();
        let rates = StageRates::new(knee.rate, Hertz::new(1e6), Hertz::new(1e6)).unwrap();
        assert_eq!(r.classify(&rates).bound, Bound::Physics);
    }

    #[test]
    fn ceiling_clips_to_roof() {
        let r = fig5_roofline();
        assert!(r.ceiling_at(Hertz::new(1e6)) <= r.roof());
        let low = r.ceiling_at(Hertz::new(1.0));
        assert!((low.get() - r.velocity_at(Hertz::new(1.0)).get()).abs() < 1e-12);
    }

    #[test]
    fn stage_ceilings_only_below_knee() {
        let r = fig5_roofline(); // knee ≈ 100 Hz
        let rates = StageRates::new(Hertz::new(30.0), Hertz::new(5.0), Hertz::new(1000.0)).unwrap();
        let ceilings = r.stage_ceilings(&rates);
        // Sensor (30 Hz) and compute (5 Hz) are below the knee; control is
        // not.
        assert_eq!(ceilings.len(), 2);
        assert_eq!(ceilings[0].0, Stage::Sensor);
        assert_eq!(ceilings[1].0, Stage::Compute);
        // The compute ceiling sits below the sensor ceiling (Fig. 4a's
        // nesting), and both sit below the roof.
        assert!(ceilings[1].2 < ceilings[0].2);
        assert!(ceilings[0].2 < r.roof());

        // A fully-provisioned pipeline has no ceilings at all.
        let fast =
            StageRates::new(Hertz::new(500.0), Hertz::new(500.0), Hertz::new(1000.0)).unwrap();
        assert!(r.stage_ceilings(&fast).is_empty());
    }

    #[test]
    fn calibrate_a_max_round_trips_knee() {
        let d = Meters::new(4.5);
        let eta = Saturation::default();
        for &f_k in &[10.0, 26.0, 30.0, 43.0, 100.0] {
            let a = Roofline::calibrate_a_max(d, Hertz::new(f_k), eta).unwrap();
            let r = Roofline::with_saturation(SafetyModel::new(a, d).unwrap(), eta);
            assert!(
                (r.knee().rate.get() - f_k).abs() / f_k < 1e-9,
                "f_k = {f_k}: got {}",
                r.knee().rate
            );
        }
    }

    #[test]
    fn calibrate_rejects_bad_inputs() {
        let eta = Saturation::default();
        assert!(Roofline::calibrate_a_max(Meters::ZERO, Hertz::new(10.0), eta).is_err());
        assert!(Roofline::calibrate_a_max(Meters::new(3.0), Hertz::ZERO, eta).is_err());
    }

    #[test]
    fn display_is_informative() {
        let s = fig5_roofline().to_string();
        assert!(s.contains("roof"));
        assert!(s.contains("knee"));
    }
}
