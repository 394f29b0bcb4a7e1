//! Longitudinal vehicle dynamics with actuation lag and drag.
//!
//! The validation scenario is a straight-line dash-and-brake, so the
//! simulator models the longitudinal axis: position, velocity, and an
//! *achieved* acceleration that follows the commanded acceleration through
//! a first-order lag (the attitude loop plus motor response — the paper's
//! "sudden movements (e.g., jerk)… can affect the drone's dynamics").
//! Quadratic drag opposes motion. Vertical balance is folded into the
//! commanded-acceleration limits, which come from the same
//! [`BodyDynamics`](f1_model::physics::BodyDynamics) estimate the F-1 model
//! uses — i.e. the flight controller is configured with the model's own
//! acceleration cap, exactly as the paper's MAVROS controller "precisely
//! control[s] the drone's position, velocity, and acceleration".

use f1_model::physics::DragModel;
use f1_model::ModelError;
use f1_units::{Kilograms, Meters, MetersPerSecond, MetersPerSecondSquared, Seconds};

/// The kinematic state of the simulated vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleState {
    /// Longitudinal position (m).
    pub position: Meters,
    /// Longitudinal velocity (m/s).
    pub velocity: MetersPerSecond,
    /// Achieved longitudinal acceleration (m/s²), lagging the command.
    pub accel: MetersPerSecondSquared,
}

/// Longitudinal dynamics parameters of one vehicle build.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleDynamics {
    mass: Kilograms,
    /// Maximum forward (acceleration) command, m/s².
    accel_limit: MetersPerSecondSquared,
    /// Maximum braking (deceleration) command, m/s².
    brake_limit: MetersPerSecondSquared,
    /// First-order time constant with which achieved acceleration tracks
    /// the command.
    response_lag: Seconds,
    drag: DragModel,
}

impl VehicleDynamics {
    /// Creates a vehicle from its mass, acceleration/braking authority,
    /// actuation lag and drag model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfDomain`] if mass, limits or lag are
    /// non-positive/non-finite.
    pub fn new(
        mass: Kilograms,
        accel_limit: MetersPerSecondSquared,
        brake_limit: MetersPerSecondSquared,
        response_lag: Seconds,
        drag: DragModel,
    ) -> Result<Self, ModelError> {
        for (name, v) in [
            ("mass", mass.get()),
            ("accel_limit", accel_limit.get()),
            ("brake_limit", brake_limit.get()),
            ("response_lag", response_lag.get()),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ModelError::OutOfDomain {
                    parameter: name,
                    value: v,
                    expected: "finite and > 0",
                });
            }
        }
        Ok(Self {
            mass,
            accel_limit,
            brake_limit,
            response_lag,
            drag,
        })
    }

    /// Builds the vehicle whose braking authority equals an F-1
    /// [`BodyDynamics`](f1_model::physics::BodyDynamics) estimate — the
    /// configuration used for model validation.
    ///
    /// # Errors
    ///
    /// Propagates `a_max` errors (e.g. insufficient thrust) and
    /// constructor domain errors.
    pub fn from_body_dynamics(
        body: &f1_model::physics::BodyDynamics,
        response_lag: Seconds,
        drag: DragModel,
    ) -> Result<Self, ModelError> {
        let a = body.a_max()?;
        Self::new(body.total_mass(), a, a, response_lag, drag)
    }

    /// Vehicle mass.
    #[must_use]
    pub fn mass(&self) -> Kilograms {
        self.mass
    }

    /// Maximum commanded forward acceleration.
    #[must_use]
    pub fn accel_limit(&self) -> MetersPerSecondSquared {
        self.accel_limit
    }

    /// Maximum commanded deceleration.
    #[must_use]
    pub fn brake_limit(&self) -> MetersPerSecondSquared {
        self.brake_limit
    }

    /// Actuation response lag.
    #[must_use]
    pub fn response_lag(&self) -> Seconds {
        self.response_lag
    }

    /// The drag model.
    #[must_use]
    pub fn drag(&self) -> &DragModel {
        &self.drag
    }

    /// Advances the state by `dt` under a commanded acceleration (positive
    /// = accelerate, negative = brake) and an additive acceleration
    /// disturbance. Semi-implicit Euler; velocity is floored at zero once
    /// the vehicle brakes to a stop (the controller holds position).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    #[must_use]
    pub fn step(
        &self,
        state: VehicleState,
        commanded_accel: MetersPerSecondSquared,
        disturbance: MetersPerSecondSquared,
        dt: Seconds,
    ) -> VehicleState {
        assert!(dt.get() > 0.0, "dt must be positive, got {dt}");
        self.advance(state, commanded_accel, disturbance, dt, self.lag_alpha(dt))
    }

    /// The fraction of the command error that the achieved acceleration
    /// closes in one step of `dt`: `min(dt/τ, 1)` for the response lag
    /// `τ`. A loop with a fixed `dt` computes it once.
    pub(crate) fn lag_alpha(&self, dt: Seconds) -> f64 {
        (dt.get() / self.response_lag.get()).min(1.0)
    }

    /// [`step`](Self::step) with the lag fraction `alpha` from
    /// [`lag_alpha`](Self::lag_alpha) already computed for this `dt`.
    #[inline]
    pub(crate) fn advance(
        &self,
        state: VehicleState,
        commanded_accel: MetersPerSecondSquared,
        disturbance: MetersPerSecondSquared,
        dt: Seconds,
        alpha: f64,
    ) -> VehicleState {
        let cmd = commanded_accel
            .get()
            .clamp(-self.brake_limit.get(), self.accel_limit.get());
        // Achieved acceleration lags the command (first order).
        let achieved = state.accel.get() + (cmd - state.accel.get()) * alpha;
        // Drag always opposes motion.
        let v = state.velocity.get();
        let drag_acc = self.drag.force(state.velocity.abs()).get() / self.mass.get();
        let total = achieved - drag_acc * v.signum() + disturbance.get();
        let mut new_v = v + total * dt.get();
        // A braking vehicle stops; it does not reverse into the obstacle's
        // direction of approach (the position controller holds the stop).
        if cmd <= 0.0 && v >= 0.0 && new_v < 0.0 {
            new_v = 0.0;
        }
        let new_x = state.position.get() + 0.5 * (v + new_v) * dt.get();
        VehicleState {
            position: Meters::new(new_x),
            velocity: MetersPerSecond::new(new_v),
            accel: MetersPerSecondSquared::new(achieved),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uav_a_like() -> VehicleDynamics {
        VehicleDynamics::new(
            Kilograms::new(1.62),
            MetersPerSecondSquared::new(0.8),
            MetersPerSecondSquared::new(0.8),
            Seconds::new(0.08),
            DragModel::none(),
        )
        .unwrap()
    }

    fn settle(dyn_: &VehicleDynamics, mut s: VehicleState, cmd: f64, steps: usize) -> VehicleState {
        for _ in 0..steps {
            s = dyn_.step(
                s,
                MetersPerSecondSquared::new(cmd),
                MetersPerSecondSquared::ZERO,
                Seconds::new(0.001),
            );
        }
        s
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(VehicleDynamics::new(
            Kilograms::ZERO,
            MetersPerSecondSquared::new(1.0),
            MetersPerSecondSquared::new(1.0),
            Seconds::new(0.1),
            DragModel::none(),
        )
        .is_err());
        assert!(VehicleDynamics::new(
            Kilograms::new(1.0),
            MetersPerSecondSquared::ZERO,
            MetersPerSecondSquared::new(1.0),
            Seconds::new(0.1),
            DragModel::none(),
        )
        .is_err());
        assert!(VehicleDynamics::new(
            Kilograms::new(1.0),
            MetersPerSecondSquared::new(1.0),
            MetersPerSecondSquared::new(1.0),
            Seconds::ZERO,
            DragModel::none(),
        )
        .is_err());
    }

    #[test]
    fn acceleration_approaches_command() {
        let d = uav_a_like();
        let s = settle(&d, VehicleState::default(), 0.8, 1000); // 1 s >> 80 ms lag
        assert!((s.accel.get() - 0.8).abs() < 0.01);
        assert!(s.velocity.get() > 0.0);
    }

    #[test]
    fn lag_delays_braking() {
        let d = uav_a_like();
        let cruising = VehicleState {
            position: Meters::ZERO,
            velocity: MetersPerSecond::new(2.0),
            accel: MetersPerSecondSquared::ZERO,
        };
        // After 40 ms (half the lag constant) the achieved deceleration is
        // well short of the command.
        let s = settle(&d, cruising, -0.8, 40);
        assert!(s.accel.get() > -0.5, "achieved {}", s.accel);
    }

    #[test]
    fn braking_stops_not_reverses() {
        let d = uav_a_like();
        let slow = VehicleState {
            position: Meters::ZERO,
            velocity: MetersPerSecond::new(0.05),
            accel: MetersPerSecondSquared::new(-0.8),
        };
        let s = settle(&d, slow, -0.8, 2000);
        assert_eq!(s.velocity.get(), 0.0);
    }

    #[test]
    fn stopping_distance_exceeds_ideal_kinematics() {
        // With actuation lag, the simulated stop takes longer than v²/2a —
        // the mechanism behind the paper's optimistic-model error.
        let d = uav_a_like();
        let v0 = 2.0;
        let mut s = VehicleState {
            position: Meters::ZERO,
            velocity: MetersPerSecond::new(v0),
            accel: MetersPerSecondSquared::ZERO,
        };
        let mut steps = 0;
        while s.velocity.get() > 0.0 && steps < 100_000 {
            s = d.step(
                s,
                MetersPerSecondSquared::new(-0.8),
                MetersPerSecondSquared::ZERO,
                Seconds::new(0.001),
            );
            steps += 1;
        }
        let ideal = v0 * v0 / (2.0 * 0.8);
        assert!(
            s.position.get() > ideal * 1.02,
            "sim {} vs ideal {}",
            s.position.get(),
            ideal
        );
        // The excess is roughly v0 · τ.
        assert!(s.position.get() < ideal + 2.0 * v0 * 0.08);
    }

    #[test]
    fn drag_assists_braking() {
        let no_drag = uav_a_like();
        let with_drag = VehicleDynamics::new(
            Kilograms::new(1.62),
            MetersPerSecondSquared::new(0.8),
            MetersPerSecondSquared::new(0.8),
            Seconds::new(0.08),
            DragModel::quadratic(0.5).unwrap(),
        )
        .unwrap();
        let cruise = VehicleState {
            position: Meters::ZERO,
            velocity: MetersPerSecond::new(2.0),
            accel: MetersPerSecondSquared::ZERO,
        };
        let stop = |d: &VehicleDynamics| -> f64 { settle(d, cruise, -0.8, 20_000).position.get() };
        assert!(stop(&with_drag) < stop(&no_drag));
    }

    #[test]
    fn from_body_dynamics_uses_a_max() {
        use f1_model::physics::{BodyDynamics, PitchPolicy};
        use f1_units::{GramForce, Grams};
        let body = BodyDynamics::from_grams(
            Grams::new(1620.0),
            GramForce::new(1880.0),
            PitchPolicy::VerticalMargin,
        )
        .unwrap();
        let v = VehicleDynamics::from_body_dynamics(&body, Seconds::new(0.08), DragModel::none())
            .unwrap();
        assert!((v.brake_limit().get() - body.a_max().unwrap().get()).abs() < 1e-12);
        assert_eq!(v.mass(), Kilograms::new(1.62));
    }

    #[test]
    fn command_is_clamped_to_limits() {
        let d = uav_a_like();
        let s = settle(&d, VehicleState::default(), 100.0, 2000);
        // Achieved acceleration saturates at the 0.8 limit.
        assert!(s.accel.get() <= 0.8 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let d = uav_a_like();
        let _ = d.step(
            VehicleState::default(),
            MetersPerSecondSquared::ZERO,
            MetersPerSecondSquared::ZERO,
            Seconds::ZERO,
        );
    }
}
