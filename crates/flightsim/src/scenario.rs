//! The stop-before-obstacle trial protocol (paper §IV).
//!
//! The drone cruises at a commanded velocity; an obstacle becomes sensible
//! at the sensing range; the autonomy loop notices at its next decision
//! tick and commands maximum braking; the trial records where the vehicle
//! stops. An *infraction* means the vehicle passed the obstacle position —
//! exactly the paper's criterion ("if infractions exist beyond the 3 m, it
//! signifies that the drone has collided").
//!
//! Recorded trials and verdict-only trials share one integration loop;
//! the recording is observation only and never changes an outcome. A
//! verdict-only trial ([`StopScenario::infracts`]) ends as soon as its
//! infraction verdict is certain, usually at its first braking step.

use f1_units::{Hertz, Meters, MetersPerSecond, MetersPerSecondSquared, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::disturbance::DisturbanceModel;
use crate::dynamics::{VehicleDynamics, VehicleState};
use crate::pid::Pid;

/// The most steps a trial integrates: 10 simulated minutes at 1 kHz.
const MAX_STEPS: usize = 600_000;

/// A verdict-only trial decides "no infraction" early only when its
/// bound on the stop position lies this fraction of the sensing range
/// short of the obstacle (see [`StopScenario::simulate`]).
const VERDICT_MARGIN: f64 = 1e-6;

/// Where in the decision period the obstacle appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPhase {
    /// The obstacle appears immediately *after* a decision tick, so the
    /// vehicle flies blind for a full action period — the worst case that
    /// Eq. 4 models.
    WorstCase,
    /// The obstacle appears at a uniformly random phase of the decision
    /// period.
    Random,
}

/// One recorded trajectory sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectorySample {
    /// Absolute simulation time since the start of the run (s).
    pub time: Seconds,
    /// Position relative to the detection point (m); the obstacle sits at
    /// the sensing range.
    pub position: Meters,
    /// Velocity (m/s).
    pub velocity: MetersPerSecond,
}

/// A decimated trajectory recording.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    samples: Vec<TrajectorySample>,
}

impl Trajectory {
    /// The recorded samples in time order.
    #[must_use]
    pub fn samples(&self) -> &[TrajectorySample] {
        &self.samples
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the recording is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The peak recorded velocity.
    #[must_use]
    pub fn max_velocity(&self) -> MetersPerSecond {
        self.samples
            .iter()
            .map(|s| s.velocity)
            .fold(MetersPerSecond::ZERO, MetersPerSecond::max)
    }

    /// The final recorded position.
    #[must_use]
    pub fn final_position(&self) -> Option<Meters> {
        self.samples.last().map(|s| s.position)
    }
}

/// Outcome of one stop trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// The commanded cruise velocity.
    pub commanded_velocity: MetersPerSecond,
    /// Where the vehicle stopped, relative to the detection point.
    pub stop_position: Meters,
    /// Whether the vehicle passed the obstacle (stop position beyond the
    /// sensing range).
    pub infraction: bool,
    /// When braking was commanded, relative to obstacle appearance.
    pub brake_time: Seconds,
    /// The recorded trajectory.
    pub trajectory: Trajectory,
}

/// How a run of the integration loop ended.
struct Ending {
    /// The last integrated position: the stop position, unless a
    /// verdict-only run ended before the stop.
    position: Meters,
    /// Whether the vehicle passes the obstacle.
    infraction: bool,
}

impl Ending {
    /// The outcome of a recorded run, which always ends at the stop.
    fn recorded(
        self,
        commanded_velocity: MetersPerSecond,
        brake_delay: f64,
        samples: Vec<TrajectorySample>,
    ) -> TrialOutcome {
        TrialOutcome {
            commanded_velocity,
            stop_position: self.position,
            infraction: self.infraction,
            brake_time: Seconds::new(brake_delay),
            trajectory: Trajectory { samples },
        }
    }
}

impl TrialOutcome {
    /// Stopping margin: obstacle distance minus stop position (negative on
    /// infraction).
    #[must_use]
    pub fn margin(&self, sensing_range: Meters) -> Meters {
        sensing_range - self.stop_position
    }
}

/// The stop-before-obstacle scenario configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StopScenario {
    dynamics: VehicleDynamics,
    decision_rate: Hertz,
    sensing_range: Meters,
    disturbance: DisturbanceModel,
    phase: DecisionPhase,
    dt: Seconds,
    record_every: usize,
}

impl StopScenario {
    /// Creates a noise-free, worst-case-phase scenario with a 1 kHz physics
    /// step (the flight controller's inner-loop rate, §II-D).
    ///
    /// # Panics
    ///
    /// Panics if the decision rate is not positive with a finite period
    /// (a subnormal rate such as `1e-310` Hz has an infinite one), or if
    /// the sensing range is non-positive.
    #[must_use]
    pub fn new(dynamics: VehicleDynamics, decision_rate: Hertz, sensing_range: Meters) -> Self {
        assert!(
            decision_rate.get() > 0.0 && decision_rate.get().recip().is_finite(),
            "decision rate must be positive with a finite period, got {decision_rate}"
        );
        assert!(
            sensing_range.get() > 0.0,
            "sensing range must be positive, got {sensing_range}"
        );
        Self {
            dynamics,
            decision_rate,
            sensing_range,
            disturbance: DisturbanceModel::none(),
            phase: DecisionPhase::WorstCase,
            dt: Seconds::new(0.001),
            record_every: 5,
        }
    }

    /// The configuration used for paper-style validation: worst-case phase
    /// plus a small payload-jerk disturbance.
    #[must_use]
    pub fn paper_validation(
        dynamics: VehicleDynamics,
        decision_rate: Hertz,
        sensing_range: Meters,
    ) -> Self {
        Self::new(dynamics, decision_rate, sensing_range)
            .with_disturbance(DisturbanceModel::gaussian(0.03).expect("static std-dev is valid"))
    }

    /// Sets the disturbance model.
    #[must_use]
    pub fn with_disturbance(mut self, disturbance: DisturbanceModel) -> Self {
        self.disturbance = disturbance;
        self
    }

    /// Sets the decision-phase model.
    #[must_use]
    pub fn with_phase(mut self, phase: DecisionPhase) -> Self {
        self.phase = phase;
        self
    }

    /// Sets the physics timestep.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt ≤ 10 ms`.
    #[must_use]
    pub fn with_timestep(mut self, dt: Seconds) -> Self {
        assert!(
            dt.get() > 0.0 && dt.get() <= 0.01,
            "timestep must be in (0, 10 ms], got {dt}"
        );
        self.dt = dt;
        self
    }

    /// The vehicle dynamics.
    #[must_use]
    pub fn dynamics(&self) -> &VehicleDynamics {
        &self.dynamics
    }

    /// The decision (action) rate.
    #[must_use]
    pub fn decision_rate(&self) -> Hertz {
        self.decision_rate
    }

    /// The sensing range (obstacle distance).
    #[must_use]
    pub fn sensing_range(&self) -> Meters {
        self.sensing_range
    }

    fn brake_delay(&self, rng: &mut StdRng) -> f64 {
        let period = self.decision_rate.period().get();
        match self.phase {
            DecisionPhase::WorstCase => period,
            DecisionPhase::Random => rng.gen_range(0.0..period),
        }
    }

    /// Runs one trial from cruise: at `t = 0` the vehicle crosses the
    /// detection point at the commanded velocity with the obstacle one
    /// sensing range ahead. Deterministic per seed.
    #[must_use]
    pub fn run_trial(&self, commanded_velocity: MetersPerSecond, seed: u64) -> TrialOutcome {
        let mut samples = Vec::new();
        let (delay, ending) = self.cruise_trial(commanded_velocity, seed, Some(&mut samples));
        ending.recorded(commanded_velocity, delay, samples)
    }

    /// Whether the trial [`run_trial`](Self::run_trial) runs infracts:
    /// the same verdict, bit for bit, for callers that only count
    /// infractions. It records nothing and stops integrating as soon as
    /// the verdict is certain, usually at the first braking step.
    #[must_use]
    pub fn infracts(&self, commanded_velocity: MetersPerSecond, seed: u64) -> bool {
        self.cruise_trial(commanded_velocity, seed, None)
            .1
            .infraction
    }

    /// A cruise trial; returns the brake delay and how the run ended.
    fn cruise_trial(
        &self,
        commanded_velocity: MetersPerSecond,
        seed: u64,
        recording: Option<&mut Vec<TrajectorySample>>,
    ) -> (f64, Ending) {
        let mut rng = StdRng::seed_from_u64(seed);
        let delay = self.brake_delay(&mut rng);
        let state = VehicleState {
            position: Meters::ZERO,
            velocity: commanded_velocity,
            accel: MetersPerSecondSquared::ZERO,
        };
        let ending = self.simulate(
            state,
            commanded_velocity,
            Some(0.0),
            delay,
            &mut rng,
            recording,
        );
        (delay, ending)
    }

    /// Runs a full §IV-style profile: the vehicle starts *at rest* far
    /// enough back to reach the commanded velocity, cruises through the
    /// detection point, and brakes. This is the Fig. 7a trajectory shape.
    #[must_use]
    pub fn run_full_profile(&self, commanded_velocity: MetersPerSecond, seed: u64) -> TrialOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = commanded_velocity.get();
        let a = self.dynamics.accel_limit().get();
        // Ramp distance plus two seconds of cruise to settle the velocity loop.
        let approach = v * v / (2.0 * a) * 1.5 + v * 2.0;
        let state = VehicleState {
            position: Meters::new(-approach),
            velocity: MetersPerSecond::ZERO,
            accel: MetersPerSecondSquared::ZERO,
        };
        // Brake is armed `brake_delay` after the detection-point crossing,
        // which `simulate` discovers during the run.
        let delay = self.brake_delay(&mut rng);
        let mut samples = Vec::new();
        let ending = self.simulate(
            state,
            commanded_velocity,
            None,
            delay,
            &mut rng,
            Some(&mut samples),
        );
        ending.recorded(commanded_velocity, delay, samples)
    }

    /// The integration loop every trial runs. `crossing_known`:
    /// `Some(0.0)` when the run starts at the detection point (cruise
    /// trials); `None` when the vehicle approaches it during the run
    /// (full profiles). `recording`: `Some` collects the trajectory, one
    /// sample every `record_every` steps plus the terminal state, in
    /// absolute simulation time, and the run goes to its stop; `None`
    /// keeps only the verdict, and the run ends as soon as it is
    /// certain.
    ///
    /// Everything fixed for the trial is computed before the first step:
    /// the lag fraction, the brake command and, once the crossing is
    /// known, the time braking starts. The steps themselves compute what
    /// [`VehicleDynamics::step`] computes, in the same order, so hoisting
    /// changes no bit of the outcome.
    ///
    /// # When the verdict is certain
    ///
    /// A braking step that leaves `v > 0` is followed only by braking
    /// steps whose velocity floor keeps `v ≥ 0`, so the position never
    /// decreases again. From such a step on, with position `x`,
    /// velocity `v`, achieved acceleration `a`, brake limit `B` and
    /// range `r`:
    ///
    /// - **Infraction** if `x > r`: the stop lies at or beyond `x`. This
    ///   is exact in floating point, where adding a non-negative step
    ///   never lowers `x`.
    /// - **No infraction** if `0 ≤ x` and
    ///   `x + w²/(2h) + w·dt < r − VERDICT_MARGIN·r`. Here `h`, the brake
    ///   limit less the largest disturbance `D` (from
    ///   [`DisturbanceModel::max_abs`]) and a rounding allowance (below),
    ///   must be positive, and `w = v + max(0, a + B)·dt·(1 − α)/α` for
    ///   the lag fraction `α`
    ///   (the lag term is 0 when `α = 1`). The achieved acceleration
    ///   approaches `−B` as `−B + (a + B)(1 − α)^k`, whose excess over
    ///   `−B` sums to at most `w − v` of velocity; drag only slows the
    ///   vehicle; and no draw exceeds `D`. So the velocity `k` steps on
    ///   is at most `max(0, w − h·k·dt)`, and the trapezoidal positions
    ///   those velocities integrate to add at most `w²/(2h) + w·dt`.
    ///
    /// The bound holds for exact arithmetic on the rounded state; the
    /// steps that follow round again, in two kinds of error:
    ///
    /// - *Acceleration-sized.* The lag recurrence can settle up to about
    ///   `2.5·max(A, B)·ε/α` off its exact value (`A` the acceleration
    ///   limit, `ε` the machine epsilon), and the net acceleration and
    ///   its product with `dt` round by a few `ε·(A + D)`. Together they
    ///   stay below `8·ε·(A + B)/α`, which `h` gives up as well.
    /// - *Relative.* A step inflates the velocity by at most a factor
    ///   `1 + 2ε`, at most `1 + 3·10⁻¹⁰` over the `MAX_STEPS` = 600,000
    ///   step cap, and rounds a position in `[0, r)` by at most `ε·r/2`.
    ///
    /// So the stop lands within about `4·10⁻¹⁰·r` of the bound. The
    /// margin, `10⁻⁶` of the range, covers that and the bound's own
    /// rounding. A trial whose bound lands inside the margin runs to its
    /// stop.
    fn simulate(
        &self,
        mut state: VehicleState,
        commanded_velocity: MetersPerSecond,
        crossing_known: Option<f64>,
        brake_delay: f64,
        rng: &mut StdRng,
        mut recording: Option<&mut Vec<TrajectorySample>>,
    ) -> Ending {
        let dt = self.dt.get();
        let alpha = self.dynamics.lag_alpha(self.dt);
        let brake = self.dynamics.brake_limit().get();
        let brake_cmd = MetersPerSecondSquared::new(-brake);
        let range = self.sensing_range.get();
        let verdict_only = recording.is_none();
        // The early "no infraction" test (see the doc above): the lag
        // gain `dt·(1 − α)/α`, the stopping distance per (m/s)² `1/(2h)`
        // when the brake beats every disturbance, and the limit the
        // bound must stay under.
        let lag_gain = if alpha < 1.0 {
            dt * (1.0 - alpha) / alpha
        } else {
            0.0
        };
        let accel_limit = self.dynamics.accel_limit().get();
        let headroom =
            brake - self.disturbance.max_abs() - 8.0 * f64::EPSILON * (accel_limit + brake) / alpha;
        let per_v2 = (headroom > 0.0).then(|| 0.5 / headroom);
        let short_of = range - VERDICT_MARGIN * range;
        let mut brake_at = crossing_known.map(|tc| tc + brake_delay);
        let mut abs_t = 0.0;
        let mut velocity_pid = Pid::new(2.0, 0.2, 0.0)
            .with_integral_limit(0.4)
            .with_output_limit(accel_limit);
        let mut braking = false;
        // Steps left until the next recorded sample; step 0 records.
        let mut until_record = 0;
        for _ in 0..MAX_STEPS {
            if !braking {
                // Detection-point crossing (full-profile mode).
                if brake_at.is_none() && state.position.get() >= 0.0 {
                    brake_at = Some(abs_t + brake_delay);
                }
                braking = brake_at.is_some_and(|at| abs_t >= at);
            }
            let cmd = if braking {
                brake_cmd
            } else {
                let err = commanded_velocity.get() - state.velocity.get();
                MetersPerSecondSquared::new(velocity_pid.update(err, dt))
            };
            let disturbance = self.disturbance.sample(rng);
            state = self
                .dynamics
                .advance(state, cmd, disturbance, self.dt, alpha);
            abs_t += dt;
            if let Some(samples) = &mut recording {
                if until_record == 0 {
                    samples.push(TrajectorySample {
                        time: Seconds::new(abs_t),
                        position: state.position,
                        velocity: state.velocity,
                    });
                    until_record = self.record_every;
                }
                until_record -= 1;
            }
            if braking {
                let v = state.velocity.get();
                if v <= 0.0 {
                    break;
                }
                if verdict_only {
                    let x = state.position.get();
                    if x > range {
                        return Ending {
                            position: state.position,
                            infraction: true,
                        };
                    }
                    if let Some(per_v2) = per_v2 {
                        let w = v + (state.accel.get() + brake).max(0.0) * lag_gain;
                        if x >= 0.0 && x + w * w * per_v2 + w * dt < short_of {
                            return Ending {
                                position: state.position,
                                infraction: false,
                            };
                        }
                    }
                }
            }
        }
        if let Some(samples) = &mut recording {
            // Always record the terminal state so the trajectory ends
            // exactly at the stop position.
            let at_end = TrajectorySample {
                time: Seconds::new(abs_t),
                position: state.position,
                velocity: state.velocity,
            };
            if samples.last().map_or(true, |s| s.time < at_end.time) {
                samples.push(at_end);
            }
        }
        Ending {
            position: state.position,
            infraction: state.position > self.sensing_range,
        }
    }

    /// Runs `n` trials with distinct derived seeds and reports whether the
    /// commanded velocity is safe (zero infractions — the paper rejects a
    /// velocity on *any* infraction, e.g. "with 2 m/s, the UAV-A had
    /// infractions twice out of five trials. But we still consider this
    /// velocity to be unsafe").
    #[must_use]
    pub fn is_velocity_safe(&self, v: MetersPerSecond, trials: usize, seed: u64) -> bool {
        // Seeds derive through the shared splitmix convention
        // (`crate::seed::trial_seed`), not `seed + i`: consecutive
        // trials get decorrelated RNG streams, and the same (seed,
        // trial) pair reproduces the same trial everywhere.
        (0..trials).all(|i| !self.infracts(v, crate::seed::trial_seed(seed, 0, i as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_model::physics::DragModel;
    use f1_model::safety::SafetyModel;
    use f1_units::Kilograms;

    fn uav_a_scenario() -> StopScenario {
        let dynamics = VehicleDynamics::new(
            Kilograms::new(1.62),
            MetersPerSecondSquared::new(0.8),
            MetersPerSecondSquared::new(0.8),
            Seconds::new(0.08),
            DragModel::none(),
        )
        .unwrap();
        StopScenario::new(dynamics, Hertz::new(10.0), Meters::new(3.0))
    }

    #[test]
    fn slow_cruise_always_stops_safely() {
        // Paper Fig. 7a: "For the 1.5 m/s the UAV-A will always stop safely."
        let s = uav_a_scenario();
        assert!(s.is_velocity_safe(MetersPerSecond::new(1.5), 5, 42));
    }

    #[test]
    fn fast_cruise_always_collides() {
        // Paper Fig. 7a: "For 2.5 m/s, the UAV-A will always have infractions."
        let s = uav_a_scenario();
        let out = s.run_trial(MetersPerSecond::new(2.5), 42);
        assert!(out.infraction);
        assert!(out.stop_position > Meters::new(3.0));
        assert!(out.margin(Meters::new(3.0)).get() < 0.0);
    }

    #[test]
    fn simulated_stop_is_longer_than_eq4_ideal() {
        // The whole point of the validation: real (simulated) flight is
        // slightly worse than the F-1 ideal because of actuation lag.
        let s = uav_a_scenario();
        let model = SafetyModel::new(MetersPerSecondSquared::new(0.8), Meters::new(3.0)).unwrap();
        let v_pred = model.safe_velocity(Hertz::new(10.0).period());
        // At exactly the predicted safe velocity the simulation overshoots.
        let out = s.run_trial(v_pred, 7);
        assert!(
            out.infraction,
            "expected overshoot at v_pred = {v_pred}, stopped at {}",
            out.stop_position
        );
        // But modestly: within ~15 % of the range.
        assert!(out.stop_position.get() < 3.0 * 1.15);
    }

    #[test]
    fn worst_case_brake_delay_is_full_period() {
        let s = uav_a_scenario();
        let out = s.run_trial(MetersPerSecond::new(1.5), 1);
        assert!((out.brake_time.get() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn random_phase_brakes_earlier_on_average() {
        let s = uav_a_scenario().with_phase(DecisionPhase::Random);
        let mean: f64 = (0..200)
            .map(|i| s.run_trial(MetersPerSecond::new(1.5), i).brake_time.get())
            .sum::<f64>()
            / 200.0;
        assert!(mean < 0.08, "mean brake delay = {mean}");
        assert!(mean > 0.02);
    }

    #[test]
    fn trajectory_is_recorded_and_monotone_in_time() {
        let s = uav_a_scenario();
        let out = s.run_trial(MetersPerSecond::new(1.8), 3);
        assert!(!out.trajectory.is_empty());
        let samples = out.trajectory.samples();
        for w in samples.windows(2) {
            assert!(w[1].time > w[0].time);
            assert!(w[1].position >= w[0].position);
        }
        assert!((out.trajectory.max_velocity().get() - 1.8).abs() < 0.1);
        assert_eq!(out.trajectory.final_position(), Some(out.stop_position));
    }

    #[test]
    fn full_profile_reaches_cruise_then_stops() {
        let s = uav_a_scenario();
        let out = s.run_full_profile(MetersPerSecond::new(1.5), 11);
        let peak = out.trajectory.max_velocity().get();
        assert!((peak - 1.5).abs() < 0.15, "peak = {peak}");
        assert!(!out.infraction);
        // The vehicle ends at rest at its stop position.
        let last = out.trajectory.samples().last().unwrap();
        assert!(last.velocity.get() <= 0.01);
    }

    #[test]
    fn disturbances_change_outcomes_across_seeds() {
        let s = uav_a_scenario().with_disturbance(DisturbanceModel::gaussian(0.05).unwrap());
        let a = s.run_trial(MetersPerSecond::new(1.9), 1).stop_position;
        let b = s.run_trial(MetersPerSecond::new(1.9), 2).stop_position;
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = uav_a_scenario().with_disturbance(DisturbanceModel::gaussian(0.05).unwrap());
        let a = s.run_trial(MetersPerSecond::new(1.9), 9);
        let b = s.run_trial(MetersPerSecond::new(1.9), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn higher_velocity_stops_longer() {
        let s = uav_a_scenario();
        let lo = s.run_trial(MetersPerSecond::new(1.0), 5).stop_position;
        let hi = s.run_trial(MetersPerSecond::new(2.0), 5).stop_position;
        assert!(hi > lo);
    }

    #[test]
    #[should_panic(expected = "decision rate")]
    fn zero_rate_rejected() {
        let d = uav_a_scenario().dynamics().clone();
        let _ = StopScenario::new(d, Hertz::ZERO, Meters::new(3.0));
    }

    #[test]
    #[should_panic(expected = "decision rate")]
    fn rate_whose_period_overflows_rejected() {
        // 1/1e-310 overflows to infinity: every trial would panic later,
        // in the brake delay's `Hertz::period`.
        let d = uav_a_scenario().dynamics().clone();
        let _ = StopScenario::new(d, Hertz::new(1e-310), Meters::new(3.0));
    }

    #[test]
    #[should_panic(expected = "timestep")]
    fn oversized_timestep_rejected() {
        let _ = uav_a_scenario().with_timestep(Seconds::new(0.5));
    }
}
