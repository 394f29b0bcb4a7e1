//! Body-dynamics estimation (paper Eq. 5 and Fig. 8).
//!
//! The physics roof of the F-1 model is set by how hard the UAV can
//! accelerate. The paper estimates the upper bound on acceleration from the
//! total rotor thrust `T`, pitch angle `α`, take-off mass `m` and drag `F_D`:
//!
//! ```text
//! a_y = (T·cos α − m·g) / m
//! a_x = (T·sin α − F_D) / m
//! a_max = |(a_x, a_y)|
//! ```
//!
//! The F-1 model itself ignores drag (it is an early-phase tool); this
//! module still implements a quadratic [`DragModel`] because drag is the
//! paper's stated dominant source of model error, and the flight simulator
//! and the drag ablation need it.

use f1_units::{
    Kilograms, Meters, MetersPerSecond, MetersPerSecondSquared, Newtons, Radians, Seconds,
    STANDARD_GRAVITY,
};
use serde::{Deserialize, Serialize};

use crate::ModelError;

/// Horizontal and vertical acceleration components from Eq. 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccelComponents {
    /// Horizontal acceleration `a_x` (along the direction of travel).
    pub horizontal: MetersPerSecondSquared,
    /// Vertical acceleration `a_y` (positive up; 0 means altitude hold).
    pub vertical: MetersPerSecondSquared,
}

impl AccelComponents {
    /// The magnitude `|a| = √(a_x² + a_y²)` — the paper's `a_max` vector sum.
    #[must_use]
    pub fn magnitude(&self) -> MetersPerSecondSquared {
        MetersPerSecondSquared::new(self.horizontal.get().hypot(self.vertical.get()))
    }

    /// Whether the vehicle can at least hold altitude (`a_y ≥ 0`).
    #[must_use]
    pub fn sustains_altitude(&self) -> bool {
        self.vertical.get() >= 0.0
    }
}

/// How the pitch angle `α` in Eq. 5 is chosen when estimating `a_max`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum PitchPolicy {
    /// Keep the airframe level (`α = 0`) and use only the vertical thrust
    /// margin: `a = (T − m·g)/m`.
    ///
    /// This is the conservative estimate that best matches the paper's
    /// validation drones (Table I / Fig. 9): the stop-before-obstacle
    /// manoeuvre brakes with the thrust margin while holding position.
    #[default]
    VerticalMargin,
    /// Pitch exactly enough that the vertical thrust component cancels
    /// gravity; the entire remaining thrust accelerates horizontally:
    /// `a = g·√((T/W)² − 1)`.
    AltitudeHold,
    /// A fixed commanded pitch angle; both Eq. 5 components contribute.
    FixedPitch(Radians),
    /// The acceleration-maximizing pitch subject to a frame tilt limit and
    /// to never descending (`a_y ≥ 0`).
    MaxTilt {
        /// The airframe's tilt limit.
        limit: Radians,
    },
}

/// Quadratic aerodynamic drag, `F_D = c·v²`.
///
/// # Examples
///
/// ```
/// use f1_model::physics::DragModel;
/// use f1_units::MetersPerSecond;
///
/// let drag = DragModel::quadratic(0.5)?;
/// let f = drag.force(MetersPerSecond::new(2.0));
/// assert!((f.get() - 2.0).abs() < 1e-12);
/// assert!(DragModel::none().force(MetersPerSecond::new(100.0)).get() == 0.0);
/// # Ok::<(), f1_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DragModel {
    /// Drag coefficient in N/(m/s)².
    coefficient: f64,
}

impl DragModel {
    /// The drag-free model used by F-1 itself.
    #[must_use]
    pub fn none() -> Self {
        Self { coefficient: 0.0 }
    }

    /// Quadratic drag with the given coefficient in N/(m/s)².
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if the coefficient is negative or
    /// non-finite.
    pub fn quadratic(coefficient: f64) -> Result<Self, ModelError> {
        if !(coefficient.is_finite() && coefficient >= 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "drag coefficient",
                value: coefficient,
                expected: "finite and >= 0",
            });
        }
        Ok(Self { coefficient })
    }

    /// The drag coefficient in N/(m/s)².
    #[inline]
    #[must_use]
    pub fn coefficient(&self) -> f64 {
        self.coefficient
    }

    /// Whether this model produces no drag at any speed.
    #[inline]
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.coefficient == 0.0
    }

    /// Drag force at a given airspeed (always opposing motion; the returned
    /// magnitude is non-negative).
    #[inline]
    #[must_use]
    pub fn force(&self, v: MetersPerSecond) -> Newtons {
        Newtons::new(self.coefficient * v.get() * v.get())
    }

    /// Braking distance from `v0` under constant deceleration `a` *plus*
    /// this drag: integrates `m·dv/dt = −m·a − c·v²` in closed form,
    ///
    /// ```text
    /// d = (m / 2c) · ln(1 + c·v0² / (m·a))
    /// ```
    ///
    /// With `c = 0` this degenerates to the kinematic `v0²/(2a)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if `a ≤ 0` or the mass is
    /// non-positive.
    pub fn braking_distance(
        &self,
        v0: MetersPerSecond,
        decel: MetersPerSecondSquared,
        mass: Kilograms,
    ) -> Result<Meters, ModelError> {
        if decel.get() <= 0.0 {
            return Err(ModelError::OutOfDomain {
                parameter: "deceleration",
                value: decel.get(),
                expected: "> 0",
            });
        }
        if mass.get() <= 0.0 {
            return Err(ModelError::OutOfDomain {
                parameter: "mass",
                value: mass.get(),
                expected: "> 0",
            });
        }
        let v = v0.get().max(0.0);
        if self.coefficient == 0.0 {
            return Ok(Meters::new(v * v / (2.0 * decel.get())));
        }
        let m = mass.get();
        let c = self.coefficient;
        let a = decel.get();
        Ok(Meters::new(
            m / (2.0 * c) * (1.0 + c * v * v / (m * a)).ln(),
        ))
    }
}

impl Default for DragModel {
    fn default() -> Self {
        Self::none()
    }
}

/// Body dynamics of a fully-loaded UAV: take-off mass, total rotor thrust,
/// and the pitch policy used to estimate `a_max`.
///
/// # Examples
///
/// ```
/// use f1_model::physics::{BodyDynamics, PitchPolicy};
/// use f1_units::{GramForce, Grams};
///
/// // Table I, UAV-A: base 1030 g + payload 590 g, 4 × 435 gf of pull.
/// let dyn_a = BodyDynamics::from_grams(
///     Grams::new(1030.0) + Grams::new(590.0),
///     GramForce::new(435.0 * 4.0),
///     PitchPolicy::VerticalMargin,
/// )?;
/// let a = dyn_a.a_max()?;
/// assert!((a.get() - 0.726).abs() < 0.01);
/// # Ok::<(), f1_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BodyDynamics {
    total_mass: Kilograms,
    total_thrust: Newtons,
    policy: PitchPolicy,
}

impl BodyDynamics {
    /// Creates a body-dynamics model from SI quantities.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if mass or thrust are
    /// non-positive or non-finite.
    pub fn new(
        total_mass: Kilograms,
        total_thrust: Newtons,
        policy: PitchPolicy,
    ) -> Result<Self, ModelError> {
        if !(total_mass.get().is_finite() && total_mass.get() > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "total mass",
                value: total_mass.get(),
                expected: "finite and > 0",
            });
        }
        if !(total_thrust.get().is_finite() && total_thrust.get() > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "total thrust",
                value: total_thrust.get(),
                expected: "finite and > 0",
            });
        }
        Ok(Self {
            total_mass,
            total_thrust,
            policy,
        })
    }

    /// Convenience constructor in the units UAV spec sheets use: grams of
    /// mass and gram-force of rotor pull.
    ///
    /// # Errors
    ///
    /// Same as [`BodyDynamics::new`].
    pub fn from_grams(
        total_mass: f1_units::Grams,
        total_pull: f1_units::GramForce,
        policy: PitchPolicy,
    ) -> Result<Self, ModelError> {
        Self::new(total_mass.to_kilograms(), total_pull.to_newtons(), policy)
    }

    /// Take-off mass.
    #[must_use]
    pub fn total_mass(&self) -> Kilograms {
        self.total_mass
    }

    /// Total rotor thrust.
    #[must_use]
    pub fn total_thrust(&self) -> Newtons {
        self.total_thrust
    }

    /// The pitch policy used by [`a_max`](Self::a_max).
    #[must_use]
    pub fn policy(&self) -> PitchPolicy {
        self.policy
    }

    /// Returns a copy with a different pitch policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PitchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with extra payload mass added (e.g. a heatsink or a
    /// redundant computer).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if the resulting mass is
    /// non-positive.
    pub fn with_added_mass(&self, extra: Kilograms) -> Result<Self, ModelError> {
        Self::new(self.total_mass + extra, self.total_thrust, self.policy)
    }

    /// Thrust-to-weight ratio `T / (m·g)`.
    #[must_use]
    pub fn thrust_to_weight(&self) -> f64 {
        self.total_thrust.get() / (self.total_mass.get() * STANDARD_GRAVITY)
    }

    /// Whether the rotors can support the take-off weight at all.
    #[must_use]
    pub fn can_hover(&self) -> bool {
        self.thrust_to_weight() >= 1.0
    }

    /// Paper Eq. 5: acceleration components at pitch `α` and airspeed-
    /// dependent drag force `f_d`.
    #[must_use]
    pub fn accel_components(&self, pitch: Radians, drag_force: Newtons) -> AccelComponents {
        let t = self.total_thrust.get();
        let m = self.total_mass.get();
        let ax = (t * pitch.sin() - drag_force.get()) / m;
        let ay = (t * pitch.cos() - m * STANDARD_GRAVITY) / m;
        AccelComponents {
            horizontal: MetersPerSecondSquared::new(ax),
            vertical: MetersPerSecondSquared::new(ay),
        }
    }

    /// The maximum-acceleration estimate `a_max` under this body's pitch
    /// policy, ignoring drag (as the F-1 model does).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InsufficientThrust`] when the policy requires a
    /// positive thrust margin (all policies do: a UAV that cannot hover
    /// cannot brake safely either) and `T ≤ m·g`, or when a fixed pitch
    /// would make the vehicle descend.
    pub fn a_max(&self) -> Result<MetersPerSecondSquared, ModelError> {
        let weight = self.total_mass.get() * STANDARD_GRAVITY;
        let thrust = self.total_thrust.get();
        let insufficient = || ModelError::InsufficientThrust {
            available_thrust_n: thrust,
            required_weight_n: weight,
        };
        if thrust <= weight {
            return Err(insufficient());
        }
        let r = thrust / weight; // thrust-to-weight, > 1 here
        let a = match self.policy {
            PitchPolicy::VerticalMargin => (thrust - weight) / self.total_mass.get(),
            PitchPolicy::AltitudeHold => STANDARD_GRAVITY * (r * r - 1.0).sqrt(),
            PitchPolicy::FixedPitch(alpha) => {
                let comp = self.accel_components(alpha, Newtons::ZERO);
                if !comp.sustains_altitude() {
                    return Err(insufficient());
                }
                comp.magnitude().get()
            }
            PitchPolicy::MaxTilt { limit } => {
                // |a(α)| is monotone increasing in α (d|a|²/dα = 2(T/m)·g·sin α > 0),
                // so the optimum sits at the smaller of the tilt limit and the
                // altitude-hold pitch acos(1/r).
                let alpha_hold = Radians::from_cos_clamped(1.0 / r);
                let alpha = if limit < alpha_hold {
                    limit
                } else {
                    alpha_hold
                };
                self.accel_components(alpha, Newtons::ZERO)
                    .magnitude()
                    .get()
            }
        };
        Ok(MetersPerSecondSquared::new(a))
    }

    /// Drag-aware worst-case stopping distance from speed `v0` with blind
    /// time `t_blind`: coast at `v0` for `t_blind` (drag ignored while
    /// coasting — conservative), then brake at `a_max` aided by drag.
    ///
    /// # Errors
    ///
    /// Propagates [`a_max`](Self::a_max) errors.
    pub fn stopping_distance_with_drag(
        &self,
        v0: MetersPerSecond,
        t_blind: Seconds,
        drag: &DragModel,
    ) -> Result<Meters, ModelError> {
        let a = self.a_max()?;
        let blind = v0 * t_blind;
        let brake = drag.braking_distance(v0, a, self.total_mass)?;
        Ok(blind + brake)
    }

    /// The drag-aware counterpart of Eq. 4: the largest velocity whose
    /// drag-aware stopping distance fits the sensing range, found by
    /// bisection (the drag term makes the closed form intractable).
    ///
    /// With [`DragModel::none`] this converges to the Eq. 4 value; with
    /// drag it is strictly larger — the F-1 model's drag-free assumption
    /// is *conservative* for braking, which is why the paper can afford
    /// to omit drag in an early-phase tool.
    ///
    /// # Errors
    ///
    /// Propagates [`a_max`](Self::a_max) errors, rejects a non-positive
    /// range or negative blind time, and returns
    /// [`ModelError::NoConvergence`] if bisection stalls (cannot happen
    /// for finite inputs within the iteration budget).
    pub fn drag_aware_safe_velocity(
        &self,
        drag: &DragModel,
        t_action: Seconds,
        range: Meters,
    ) -> Result<MetersPerSecond, ModelError> {
        if !(range.get().is_finite() && range.get() > 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "sensing range d",
                value: range.get(),
                expected: "finite and > 0",
            });
        }
        if !(t_action.get().is_finite() && t_action.get() >= 0.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "T_action",
                value: t_action.get(),
                expected: "finite and >= 0",
            });
        }
        let a = self.a_max()?;
        // Upper bracket: the drag-free Eq. 4 value is a lower bound on the
        // drag-aware one; double it until the stopping distance overshoots.
        let eq4 = crate::safety::SafetyModel::new(a, range)?.safe_velocity(t_action);
        let mut lo = 0.0f64;
        let mut hi = eq4.get().max(1e-6);
        let mut expansions = 0u32;
        while self
            .stopping_distance_with_drag(MetersPerSecond::new(hi), t_action, drag)?
            .get()
            <= range.get()
        {
            hi *= 2.0;
            expansions += 1;
            if expansions > 64 {
                return Err(ModelError::NoConvergence {
                    solver: "drag_aware_safe_velocity bracket",
                    iterations: expansions,
                });
            }
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let stop = self
                .stopping_distance_with_drag(MetersPerSecond::new(mid), t_action, drag)?
                .get();
            if stop <= range.get() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(MetersPerSecond::new(lo))
    }
}

impl core::fmt::Display for BodyDynamics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "BodyDynamics(m = {:.3}, T = {:.2}, T/W = {:.2})",
            self.total_mass,
            self.total_thrust,
            self.thrust_to_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_units::{Degrees, GramForce, Grams};

    fn uav_a() -> BodyDynamics {
        BodyDynamics::from_grams(
            Grams::new(1620.0),
            GramForce::new(4.0 * 435.0),
            PitchPolicy::VerticalMargin,
        )
        .unwrap()
    }

    #[test]
    fn rejects_non_positive_inputs() {
        assert!(BodyDynamics::new(
            Kilograms::ZERO,
            Newtons::new(1.0),
            PitchPolicy::VerticalMargin
        )
        .is_err());
        assert!(BodyDynamics::new(
            Kilograms::new(1.0),
            Newtons::new(-1.0),
            PitchPolicy::VerticalMargin
        )
        .is_err());
    }

    #[test]
    fn uav_a_thrust_to_weight() {
        let d = uav_a();
        assert!((d.thrust_to_weight() - 1740.0 / 1620.0).abs() < 1e-9);
        assert!(d.can_hover());
    }

    #[test]
    fn vertical_margin_a_max() {
        // (1740 − 1620) gf of margin on 1620 g: a = g·120/1620 ≈ 0.726 m/s².
        let a = uav_a().a_max().unwrap();
        assert!((a.get() - STANDARD_GRAVITY * 120.0 / 1620.0).abs() < 1e-9);
    }

    #[test]
    fn altitude_hold_exceeds_vertical_margin() {
        let d = uav_a();
        let vm = d.a_max().unwrap();
        let ah = d.with_policy(PitchPolicy::AltitudeHold).a_max().unwrap();
        assert!(ah > vm);
        // Closed form: g·√(r² − 1).
        let r = d.thrust_to_weight();
        assert!((ah.get() - STANDARD_GRAVITY * (r * r - 1.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn overloaded_uav_cannot_accelerate() {
        // UAV-B style overload: 1830 g on 1740 gf of thrust.
        let d = BodyDynamics::from_grams(
            Grams::new(1830.0),
            GramForce::new(1740.0),
            PitchPolicy::VerticalMargin,
        )
        .unwrap();
        assert!(!d.can_hover());
        assert!(matches!(
            d.a_max(),
            Err(ModelError::InsufficientThrust { .. })
        ));
    }

    #[test]
    fn fixed_pitch_matches_eq5() {
        let d = uav_a();
        let alpha = Degrees::new(10.0).to_radians();
        let comp = d.accel_components(alpha, Newtons::ZERO);
        let t = d.total_thrust().get();
        let m = d.total_mass().get();
        assert!((comp.horizontal.get() - t * alpha.sin() / m).abs() < 1e-12);
        assert!((comp.vertical.get() - (t * alpha.cos() - m * STANDARD_GRAVITY) / m).abs() < 1e-12);
    }

    #[test]
    fn fixed_pitch_descending_is_rejected() {
        // At 45° the thrust's vertical component is far below the weight for
        // a T/W of 1.07, so the policy is infeasible.
        let d = uav_a().with_policy(PitchPolicy::FixedPitch(Degrees::new(45.0).to_radians()));
        assert!(matches!(
            d.a_max(),
            Err(ModelError::InsufficientThrust { .. })
        ));
    }

    #[test]
    fn max_tilt_saturates_at_altitude_hold() {
        let d = uav_a();
        let unconstrained = d
            .with_policy(PitchPolicy::MaxTilt {
                limit: Degrees::new(89.0).to_radians(),
            })
            .a_max()
            .unwrap();
        let hold = d.with_policy(PitchPolicy::AltitudeHold).a_max().unwrap();
        assert!((unconstrained.get() - hold.get()).abs() < 1e-9);
    }

    #[test]
    fn max_tilt_respects_limit() {
        let d = BodyDynamics::from_grams(
            Grams::new(1000.0),
            GramForce::new(2000.0), // T/W = 2
            PitchPolicy::MaxTilt {
                limit: Degrees::new(20.0).to_radians(),
            },
        )
        .unwrap();
        let a = d.a_max().unwrap();
        let at_limit = d
            .accel_components(Degrees::new(20.0).to_radians(), Newtons::ZERO)
            .magnitude();
        assert!((a.get() - at_limit.get()).abs() < 1e-12);
        // Relaxing the limit strictly helps when T/W is generous.
        let relaxed = d
            .with_policy(PitchPolicy::MaxTilt {
                limit: Degrees::new(45.0).to_radians(),
            })
            .a_max()
            .unwrap();
        assert!(relaxed > a);
    }

    #[test]
    fn heavier_payload_lowers_a_max() {
        // Fig. 4c / Fig. 9: payload weight monotonically lowers a_max.
        let d = uav_a();
        let heavier = d.with_added_mass(Kilograms::new(0.05)).unwrap();
        assert!(heavier.a_max().unwrap() < d.a_max().unwrap());
    }

    #[test]
    fn drag_free_braking_matches_kinematics() {
        let drag = DragModel::none();
        let d = drag
            .braking_distance(
                MetersPerSecond::new(10.0),
                MetersPerSecondSquared::new(5.0),
                Kilograms::new(1.5),
            )
            .unwrap();
        assert!((d.get() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn drag_shortens_braking() {
        let v = MetersPerSecond::new(10.0);
        let a = MetersPerSecondSquared::new(5.0);
        let m = Kilograms::new(1.5);
        let without = DragModel::none().braking_distance(v, a, m).unwrap();
        let with = DragModel::quadratic(0.3)
            .unwrap()
            .braking_distance(v, a, m)
            .unwrap();
        assert!(with < without);
        // Drag vanishing recovers the kinematic limit.
        let tiny = DragModel::quadratic(1e-12)
            .unwrap()
            .braking_distance(v, a, m)
            .unwrap();
        assert!((tiny.get() - without.get()).abs() < 1e-6);
    }

    #[test]
    fn drag_rejects_bad_inputs() {
        assert!(DragModel::quadratic(-0.1).is_err());
        assert!(DragModel::quadratic(f64::NAN).is_err());
        let drag = DragModel::quadratic(0.1).unwrap();
        assert!(drag
            .braking_distance(
                MetersPerSecond::new(1.0),
                MetersPerSecondSquared::ZERO,
                Kilograms::new(1.0)
            )
            .is_err());
        assert!(drag
            .braking_distance(
                MetersPerSecond::new(1.0),
                MetersPerSecondSquared::new(1.0),
                Kilograms::ZERO
            )
            .is_err());
    }

    #[test]
    fn stopping_distance_with_drag_composes() {
        let d = uav_a();
        let drag = DragModel::quadratic(0.2).unwrap();
        let v = MetersPerSecond::new(2.0);
        let t = Seconds::new(0.1);
        let total = d.stopping_distance_with_drag(v, t, &drag).unwrap();
        let blind = v * t;
        assert!(total > blind);
        let drag_free = d
            .stopping_distance_with_drag(v, t, &DragModel::none())
            .unwrap();
        assert!(total < drag_free);
    }

    #[test]
    fn drag_aware_velocity_converges_to_eq4_without_drag() {
        let d = uav_a();
        let range = Meters::new(3.0);
        let t = Seconds::new(0.1);
        let eq4 = crate::safety::SafetyModel::new(d.a_max().unwrap(), range)
            .unwrap()
            .safe_velocity(t);
        let solved = d
            .drag_aware_safe_velocity(&DragModel::none(), t, range)
            .unwrap();
        assert!((solved.get() - eq4.get()).abs() < 1e-6, "{solved} vs {eq4}");
    }

    #[test]
    fn drag_raises_the_safe_velocity() {
        let d = uav_a();
        let range = Meters::new(3.0);
        let t = Seconds::new(0.1);
        let dry = d
            .drag_aware_safe_velocity(&DragModel::none(), t, range)
            .unwrap();
        let draggy = d
            .drag_aware_safe_velocity(&DragModel::quadratic(0.1).unwrap(), t, range)
            .unwrap();
        assert!(draggy > dry);
    }

    #[test]
    fn drag_aware_velocity_rejects_bad_domain() {
        let d = uav_a();
        assert!(d
            .drag_aware_safe_velocity(&DragModel::none(), Seconds::new(0.1), Meters::ZERO)
            .is_err());
        assert!(d
            .drag_aware_safe_velocity(&DragModel::none(), Seconds::new(-0.1), Meters::new(3.0))
            .is_err());
    }

    #[test]
    fn accel_components_magnitude() {
        let c = AccelComponents {
            horizontal: MetersPerSecondSquared::new(3.0),
            vertical: MetersPerSecondSquared::new(4.0),
        };
        assert!((c.magnitude().get() - 5.0).abs() < 1e-12);
        assert!(c.sustains_altitude());
    }
}
