//! Property-based tests of the flight simulator's physical sanity.

use f1_flightsim::{DecisionPhase, DisturbanceModel, StopScenario, VehicleDynamics};
use f1_model::physics::DragModel;
use f1_model::safety::SafetyModel;
use f1_units::{Hertz, Kilograms, Meters, MetersPerSecond, MetersPerSecondSquared, Seconds};
use proptest::prelude::*;

fn scenario(a: f64, lag: f64, d: f64, rate: f64) -> StopScenario {
    let dynamics = VehicleDynamics::new(
        Kilograms::new(1.5),
        MetersPerSecondSquared::new(a),
        MetersPerSecondSquared::new(a),
        Seconds::new(lag),
        DragModel::none(),
    )
    .unwrap();
    StopScenario::new(dynamics, Hertz::new(rate), Meters::new(d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stop position grows monotonically with commanded velocity.
    #[test]
    fn stop_position_monotone_in_velocity(
        a in 0.5f64..5.0, v in 0.5f64..4.0, bump in 1.05f64..1.5
    ) {
        let s = scenario(a, 0.05, 3.0, 10.0);
        let slow = s.run_trial(MetersPerSecond::new(v), 7).stop_position;
        let fast = s.run_trial(MetersPerSecond::new(v * bump), 7).stop_position;
        prop_assert!(fast > slow);
    }

    /// The noise-free simulated stop is never shorter than the Eq. 4 ideal
    /// (lag only hurts), and exceeds it by at most ~v·τ plus the braking
    /// build-up.
    #[test]
    fn simulated_stop_bounded_by_theory(a in 0.5f64..5.0, v in 0.5f64..4.0, lag in 0.01f64..0.3) {
        let s = scenario(a, lag, 3.0, 10.0);
        let out = s.run_trial(MetersPerSecond::new(v), 11);
        let ideal = v * 0.1 + v * v / (2.0 * a); // blind + kinematic braking
        prop_assert!(out.stop_position.get() >= ideal - 1e-6);
        prop_assert!(
            out.stop_position.get() <= ideal + 2.5 * v * lag + 0.05,
            "stop {} vs ideal {} (lag {lag})",
            out.stop_position.get(),
            ideal
        );
    }

    /// If Eq. 4 declares a velocity unsafe by a wide margin, the simulator
    /// must also produce an infraction (the sim is never *more* optimistic
    /// than the model).
    #[test]
    fn sim_never_more_optimistic_than_model(a in 0.5f64..5.0, d in 1.0f64..6.0) {
        let model = SafetyModel::new(
            MetersPerSecondSquared::new(a), Meters::new(d)).unwrap();
        let v_unsafe = model.safe_velocity(Seconds::new(0.1)) * 1.2;
        let s = scenario(a, 0.05, d, 10.0);
        let out = s.run_trial(v_unsafe, 13);
        prop_assert!(out.infraction, "sim stopped at {} inside {}", out.stop_position.get(), d);
    }

    /// Determinism: identical seeds give identical outcomes.
    #[test]
    fn deterministic(a in 0.5f64..5.0, v in 0.5f64..4.0, seed in 0u64..50) {
        let s = scenario(a, 0.05, 3.0, 10.0);
        let x = s.run_trial(MetersPerSecond::new(v), seed);
        let y = s.run_trial(MetersPerSecond::new(v), seed);
        prop_assert_eq!(x, y);
    }

    /// A faster decision loop never reduces the safe envelope: with a
    /// higher decision rate, any velocity that was safe stays safe.
    #[test]
    fn faster_decisions_never_hurt(a in 0.5f64..5.0, v in 0.3f64..3.0) {
        let slow_loop = scenario(a, 0.05, 3.0, 5.0);
        let fast_loop = scenario(a, 0.05, 3.0, 50.0);
        let v = MetersPerSecond::new(v);
        if !slow_loop.run_trial(v, 17).infraction {
            prop_assert!(!fast_loop.run_trial(v, 17).infraction);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A verdict-only trial reaches the verdict its recorded trial
    /// reaches, on both sides of the infraction edge, in every phase,
    /// disturbance, bias, drag, lag and timestep regime.
    #[test]
    fn verdicts_match_recorded_trials(
        a in 0.5f64..5.0,
        v in 0.5f64..5.0,
        lag in 0.01f64..0.3,
        sigma in 0.0f64..0.3,
        bias in -0.3f64..0.3,
        drag in 0.0f64..0.1,
        rate in 2.0f64..200.0,
        dt_ms in 0.5f64..10.0,
        random_phase in 0u8..2,
        seed in 0u64..1_000_000
    ) {
        let s = tier2_like(a, lag, drag, rate, random_phase == 1)
            .with_disturbance(
                DisturbanceModel::gaussian(sigma).unwrap().with_bias(bias).unwrap(),
            )
            .with_timestep(Seconds::new(dt_ms * 1e-3));
        let v = MetersPerSecond::new(v);
        let recorded = s.run_trial(v, seed);
        prop_assert!(!recorded.trajectory.is_empty());
        prop_assert_eq!(recorded.trajectory.final_position(), Some(recorded.stop_position));
        prop_assert_eq!(s.infracts(v, seed), recorded.infraction);
    }
}

/// A 1.62 kg build braking at `a` m/s² with quadratic drag, deciding at
/// `rate` Hz, 3 m from the obstacle.
fn tier2_like(a: f64, lag: f64, drag: f64, rate: f64, random_phase: bool) -> StopScenario {
    let dynamics = VehicleDynamics::new(
        Kilograms::new(1.62),
        MetersPerSecondSquared::new(a),
        MetersPerSecondSquared::new(a),
        Seconds::new(lag),
        DragModel::quadratic(drag).unwrap(),
    )
    .unwrap();
    let phase = if random_phase {
        DecisionPhase::Random
    } else {
        DecisionPhase::WorstCase
    };
    StopScenario::new(dynamics, Hertz::new(rate), Meters::new(3.0)).with_phase(phase)
}

/// Verdicts at the infraction edge itself: for each seed, bisect the
/// commanded velocity at which the recorded trial starts to infract,
/// then compare verdicts at and around it, where stops land within
/// nanometres of the obstacle and no early "no infraction" may fire.
#[test]
fn verdicts_match_at_the_infraction_edge() {
    // (sigma, bias, timestep in ms, random phase): calm, gusty with a
    // disturbance that can beat the brake, a tailwind bias, a coarse
    // and a fine step.
    let regimes = [
        (0.02, 0.0, 1.0, true),
        (0.2, 0.0, 1.0, true),
        (0.05, 0.2, 1.0, false),
        (0.05, -0.1, 10.0, true),
        (0.0, 0.0, 0.5, false),
    ];
    for (sigma, bias, dt_ms, random_phase) in regimes {
        let s = tier2_like(2.0, 0.12, 0.05, 20.0, random_phase)
            .with_disturbance(
                DisturbanceModel::gaussian(sigma)
                    .unwrap()
                    .with_bias(bias)
                    .unwrap(),
            )
            .with_timestep(Seconds::new(dt_ms * 1e-3));
        let infracts = |v: f64, seed: u64| s.run_trial(MetersPerSecond::new(v), seed).infraction;
        for seed in 0..6 {
            let (mut lo, mut hi) = (0.5, 8.0);
            assert!(!infracts(lo, seed) && infracts(hi, seed));
            while hi - lo > 1e-12 {
                let mid = 0.5 * (lo + hi);
                if infracts(mid, seed) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            for v in [
                lo,
                hi,
                lo * (1.0 - 1e-9),
                hi * (1.0 + 1e-9),
                lo * 0.999,
                hi * 1.001,
            ] {
                let v = MetersPerSecond::new(v);
                assert_eq!(
                    s.infracts(v, seed),
                    s.run_trial(v, seed).infraction,
                    "sigma {sigma}, bias {bias}, dt {dt_ms} ms, seed {seed}, v {v}"
                );
            }
        }
    }
}
