//! The safety model (paper Eq. 4).
//!
//! A UAV senses obstacles up to `d` meters away and commits to a new action
//! every `T_action` seconds. In the worst case an obstacle appears right
//! after a decision, so the vehicle travels `v·T_action` blind and must then
//! brake at `a_max` within the remaining distance. Solving
//! `v·T + v²/(2a) = d` for `v` yields the paper's Eq. 4:
//!
//! ```text
//! v_safe = a_max · (√(T_action² + 2d/a_max) − T_action)
//! ```

use f1_units::{Hertz, Meters, MetersPerSecond, MetersPerSecondSquared, Seconds};
use serde::{Deserialize, Serialize};

use crate::ModelError;

/// The safety model: maximum acceleration plus sensing range.
///
/// This is the physics side of the F-1 model. Combined with an action
/// throughput it yields the maximum velocity at which the UAV can always
/// stop before a newly-sensed obstacle.
///
/// # Examples
///
/// ```
/// use f1_model::safety::SafetyModel;
/// use f1_units::{Meters, MetersPerSecondSquared, Seconds};
///
/// // Paper Fig. 5 parameters.
/// let m = SafetyModel::new(MetersPerSecondSquared::new(50.0), Meters::new(10.0))?;
/// let v = m.safe_velocity(Seconds::new(1.0));
/// assert!((v.get() - 9.16).abs() < 0.01); // point "A" in Fig. 5b
/// # Ok::<(), f1_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SafetyModel {
    a_max: MetersPerSecondSquared,
    range: Meters,
}

impl SafetyModel {
    /// Creates a safety model from a maximum acceleration and sensing range.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] unless both parameters are finite
    /// and strictly positive — Eq. 4 is undefined otherwise.
    pub fn new(a_max: MetersPerSecondSquared, range: Meters) -> Result<Self, ModelError> {
        if !(a_max.get().is_finite() && a_max.get() > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "a_max",
                value: a_max.get(),
                expected: "finite and > 0",
            });
        }
        if !(range.get().is_finite() && range.get() > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "sensing range d",
                value: range.get(),
                expected: "finite and > 0",
            });
        }
        Ok(Self { a_max, range })
    }

    /// The maximum acceleration `a_max`.
    #[must_use]
    pub fn a_max(&self) -> MetersPerSecondSquared {
        self.a_max
    }

    /// The sensing range `d`.
    #[must_use]
    pub fn range(&self) -> Meters {
        self.range
    }

    /// Returns a copy with a different maximum acceleration.
    ///
    /// # Errors
    ///
    /// Same domain requirements as [`SafetyModel::new`].
    pub fn with_a_max(&self, a_max: MetersPerSecondSquared) -> Result<Self, ModelError> {
        Self::new(a_max, self.range)
    }

    /// Returns a copy with a different sensing range.
    ///
    /// # Errors
    ///
    /// Same domain requirements as [`SafetyModel::new`].
    pub fn with_range(&self, range: Meters) -> Result<Self, ModelError> {
        Self::new(self.a_max, range)
    }

    /// Eq. 4's two model constants, `2d` and `2d/a_max`.
    #[inline]
    pub(crate) fn eq4(&self) -> Eq4 {
        let two_d = 2.0 * self.range.get();
        Eq4 {
            two_d,
            two_d_over_a: two_d / self.a_max.get(),
        }
    }

    /// Paper Eq. 4: the maximum safe velocity for a given action period.
    ///
    /// A non-positive period is treated as the `T → 0` limit (the physics
    /// roof). The function is continuous, strictly decreasing in `T`, and
    /// approaches `d/T` as `T → ∞`.
    #[must_use]
    pub fn safe_velocity(&self, t_action: Seconds) -> MetersPerSecond {
        self.eq4().velocity(t_action)
    }

    /// Eq. 4 evaluated at an action *rate* instead of a period.
    ///
    /// A zero rate yields zero velocity (the UAV never decides, so it may
    /// never move); an infinite rate is out of the unit type's domain.
    #[must_use]
    pub fn safe_velocity_at_rate(&self, f_action: Hertz) -> MetersPerSecond {
        self.eq4().velocity_at_rate(f_action)
    }

    /// The physics roof: `v_max = √(2·d·a_max)`, the `T → 0` limit of Eq. 4.
    ///
    /// No decision rate, however fast, can push the safe velocity above this
    /// value; only better physics (more thrust, less weight) or a longer
    /// sensing range can.
    #[must_use]
    pub fn peak_velocity(&self) -> MetersPerSecond {
        MetersPerSecond::new((2.0 * self.range.get() * self.a_max.get()).sqrt())
    }

    /// Inverse of Eq. 4: the action period needed to fly safely at `v`.
    ///
    /// Closed form: `T = d/v − v/(2a)`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::OutOfDomain`] if `v ≤ 0`.
    /// * [`ModelError::VelocityUnreachable`] if `v ≥ peak_velocity()` — no
    ///   finite decision rate reaches the roof exactly.
    pub fn action_period_for(&self, v: MetersPerSecond) -> Result<Seconds, ModelError> {
        if !(v.get().is_finite() && v.get() > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "velocity",
                value: v.get(),
                expected: "finite and > 0",
            });
        }
        let peak = self.peak_velocity();
        if v >= peak {
            return Err(ModelError::VelocityUnreachable {
                requested: v.get(),
                peak: peak.get(),
            });
        }
        let t = self.range.get() / v.get() - v.get() / (2.0 * self.a_max.get());
        Ok(Seconds::new(t))
    }

    /// Inverse of Eq. 4 in rate form: the minimum action throughput needed
    /// to fly safely at `v`.
    ///
    /// # Errors
    ///
    /// Same as [`action_period_for`](Self::action_period_for).
    pub fn action_rate_for(&self, v: MetersPerSecond) -> Result<Hertz, ModelError> {
        let t = self.action_period_for(v)?;
        t.try_frequency().map_err(ModelError::from)
    }

    /// The worst-case stopping distance when travelling at `v` with action
    /// period `T`: blind travel plus braking, `v·T + v²/(2a)`.
    ///
    /// `safe_velocity` is exactly the `v` making this equal the sensing
    /// range.
    #[must_use]
    pub fn stopping_distance(&self, v: MetersPerSecond, t_action: Seconds) -> Meters {
        let blind = v * t_action;
        blind + v.braking_distance(self.a_max)
    }

    /// Whether flying at `v` with action period `T` is safe (worst-case stop
    /// within the sensing range).
    #[must_use]
    pub fn is_safe(&self, v: MetersPerSecond, t_action: Seconds) -> bool {
        self.stopping_distance(v, t_action) <= self.range
    }
}

/// Paper Eq. 4 over its two model constants, `2d` and `2d/a_max`: the
/// one spelling of the formula. [`SafetyModel::safe_velocity`] computes
/// the constants per call; a [`Roofline`](crate::roofline::Roofline)
/// computes them once and reuses them for every operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Eq4 {
    two_d: f64,
    two_d_over_a: f64,
}

impl Eq4 {
    /// `v = a(√(T² + 2d/a) − T)` at action period `T`, a non-positive
    /// period taken as `T → 0`. For large `T` the two terms nearly
    /// cancel, so it is computed through the conjugate:
    /// `v = 2d / (√(T² + 2d/a) + T)`.
    #[inline]
    pub(crate) fn velocity(self, t_action: Seconds) -> MetersPerSecond {
        let t = t_action.get().max(0.0);
        let root = (t * t + self.two_d_over_a).sqrt();
        MetersPerSecond::new(self.two_d / (root + t))
    }

    /// [`velocity`](Self::velocity) at an action rate; a non-positive
    /// rate yields zero.
    #[inline]
    pub(crate) fn velocity_at_rate(self, f_action: Hertz) -> MetersPerSecond {
        if f_action.get() <= 0.0 {
            return MetersPerSecond::ZERO;
        }
        self.velocity(f_action.period())
    }

    /// The two constants, `(2d, 2d/a_max)`.
    #[inline]
    pub(crate) fn constants(self) -> (f64, f64) {
        (self.two_d, self.two_d_over_a)
    }

    /// `√(2d/a_max)`, the action period scale of the roofline's knee.
    pub(crate) fn knee_period_scale(self) -> f64 {
        self.two_d_over_a.sqrt()
    }
}

impl core::fmt::Display for SafetyModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "SafetyModel(a_max = {:.3}, d = {:.2})",
            self.a_max, self.range
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5() -> SafetyModel {
        SafetyModel::new(MetersPerSecondSquared::new(50.0), Meters::new(10.0)).unwrap()
    }

    #[test]
    fn rejects_non_positive_parameters() {
        assert!(SafetyModel::new(MetersPerSecondSquared::ZERO, Meters::new(1.0)).is_err());
        assert!(SafetyModel::new(MetersPerSecondSquared::new(-1.0), Meters::new(1.0)).is_err());
        assert!(SafetyModel::new(MetersPerSecondSquared::new(1.0), Meters::ZERO).is_err());
    }

    #[test]
    fn fig5_asymptote_is_31_6() {
        // Paper §III.D: "as T_action → 0, the velocity → 32" (√1000 ≈ 31.62).
        let m = fig5();
        assert!((m.peak_velocity().get() - 1000f64.sqrt()).abs() < 1e-12);
        let near_roof = m.safe_velocity(Seconds::new(1e-9));
        assert!((near_roof.get() - m.peak_velocity().get()).abs() < 1e-6);
    }

    #[test]
    fn fig5_point_a_matches_paper() {
        // Point A: 1 Hz → ~10 m/s in the paper (exact Eq. 4 value 9.161).
        let v = fig5().safe_velocity_at_rate(Hertz::new(1.0));
        assert!((v.get() - 9.1608).abs() < 1e-3, "{v}");
    }

    #[test]
    fn fig5_knee_to_100x_yields_tiny_gain() {
        // Paper: "after the knee-point, even 100× improvement in f_action
        // results in only 1.0004× improvement in velocity." Exact Eq. 4
        // puts the gain at ≈1.016 from 100 Hz; the paper quotes the gain of
        // the last decade of its plot. Either way: well under 2 %.
        let m = fig5();
        let at_knee = m.safe_velocity_at_rate(Hertz::new(100.0));
        let at_100x = m.safe_velocity_at_rate(Hertz::new(10_000.0));
        let gain = at_100x / at_knee;
        assert!(gain < 1.02, "gain = {gain}");
        assert!(gain > 1.0);
        // From 1 kHz (one decade past the knee) the residual gain is ≤ 0.2 %.
        let deep = m.safe_velocity_at_rate(Hertz::new(100_000.0))
            / m.safe_velocity_at_rate(Hertz::new(1000.0));
        assert!(deep < 1.002, "deep gain = {deep}");
    }

    #[test]
    fn velocity_monotone_decreasing_in_period() {
        let m = fig5();
        let mut prev = m.safe_velocity(Seconds::new(0.001));
        for i in 1..=500 {
            let t = Seconds::new(0.001 + i as f64 * 0.01);
            let v = m.safe_velocity(t);
            assert!(v < prev, "not decreasing at T = {t}");
            prev = v;
        }
    }

    #[test]
    fn large_period_approaches_d_over_t() {
        let m = fig5();
        let t = Seconds::new(100.0);
        let v = m.safe_velocity(t);
        let approx = m.range().get() / t.get();
        assert!((v.get() - approx).abs() / approx < 0.01);
    }

    #[test]
    fn inverse_round_trips() {
        let m = fig5();
        for &v in &[0.5, 2.0, 9.16, 25.0, 31.0] {
            let t = m.action_period_for(MetersPerSecond::new(v)).unwrap();
            let back = m.safe_velocity(t);
            assert!((back.get() - v).abs() < 1e-9, "v = {v}: got {back}");
        }
    }

    #[test]
    fn inverse_rejects_roof_and_beyond() {
        let m = fig5();
        let peak = m.peak_velocity();
        assert!(matches!(
            m.action_period_for(peak),
            Err(ModelError::VelocityUnreachable { .. })
        ));
        assert!(m.action_period_for(peak * 1.1).is_err());
        assert!(m.action_period_for(MetersPerSecond::ZERO).is_err());
        assert!(m.action_period_for(MetersPerSecond::new(-1.0)).is_err());
    }

    #[test]
    fn stopping_distance_at_safe_velocity_equals_range() {
        let m = fig5();
        let t = Seconds::new(0.25);
        let v = m.safe_velocity(t);
        let d = m.stopping_distance(v, t);
        assert!((d.get() - m.range().get()).abs() < 1e-9);
        // is_safe is a strict boundary check, so probe just inside/outside.
        assert!(m.is_safe(v * 0.9999, t));
        assert!(!m.is_safe(v * 1.001, t));
    }

    #[test]
    fn zero_rate_means_zero_velocity() {
        assert_eq!(
            fig5().safe_velocity_at_rate(Hertz::ZERO),
            MetersPerSecond::ZERO
        );
    }

    #[test]
    fn uav_a_scenario() {
        // §IV: UAV-A, d = 3 m, 10 Hz loop rate → predicted v_safe ≈ 2.13 m/s.
        // With the thrust-margin physics of Table I the effective a_max is
        // ≈ 0.81 m/s²; Eq. 4 then gives 2.1 m/s at 10 Hz.
        let m = SafetyModel::new(MetersPerSecondSquared::new(0.81), Meters::new(3.0)).unwrap();
        let v = m.safe_velocity_at_rate(Hertz::new(10.0));
        assert!((v.get() - 2.13).abs() < 0.05, "{v}");
    }

    #[test]
    fn with_mutators_validate() {
        let m = fig5();
        assert!(m.with_a_max(MetersPerSecondSquared::new(1.0)).is_ok());
        assert!(m.with_a_max(MetersPerSecondSquared::ZERO).is_err());
        assert!(m.with_range(Meters::new(3.0)).is_ok());
        assert!(m.with_range(Meters::new(-3.0)).is_err());
    }

    #[test]
    fn display_mentions_parameters() {
        let s = fig5().to_string();
        assert!(s.contains("a_max"));
        assert!(s.contains("50.000"));
    }

    #[test]
    fn serde_round_trip() {
        let m = fig5();
        let json = serde_json_like(&m);
        assert!(json.contains("a_max") && json.contains("range"));
    }

    /// Minimal smoke check that the type is serde-serializable without
    /// pulling serde_json into the dependency tree.
    fn serde_json_like(m: &SafetyModel) -> String {
        // Use the Debug output as a proxy; the derive is checked at compile
        // time by this function's trait bounds.
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<SafetyModel>();
        format!("{m:?}")
    }
}
