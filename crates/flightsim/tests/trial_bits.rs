//! Pins the exact bits that stop-before-obstacle trials produce.
//!
//! The tier-2 goldens cannot see a stop position move: calm robustness
//! trials never infract, so every robustness value they hold is `1.0`.
//! This test is the gate instead. It runs `run_trial`,
//! `run_full_profile`, `is_velocity_safe` and `find_safe_velocity` over
//! a fixed grid — the calm, gusty and degraded tier-2 environments
//! written out as literals, both decision phases, velocities on both
//! sides of the infraction edge, more than 10³ seeds — and folds every
//! stop position, brake time, infraction, search result and recorded
//! sample into one FNV-1a digest.
//!
//! The digest must not move when the integration loop is restructured
//! or optimized. Changing the integrator, the disturbance draw or the
//! seed derivation changes the simulated bits on purpose; such a change
//! re-blesses [`TRIAL_BITS`] and says so. The digest depends on the
//! platform's `ln` and `cos`, like every tier-2 golden.

use f1_flightsim::{
    find_safe_velocity, trial_seed, DecisionPhase, DisturbanceModel, SearchConfig, StopScenario,
    TrialOutcome, VehicleDynamics,
};
use f1_model::physics::DragModel;
use f1_units::{Hertz, Kilograms, Meters, MetersPerSecond, MetersPerSecondSquared, Seconds};

/// The digest of the whole grid.
const TRIAL_BITS: u64 = 0x0161_3542_c730_8533;

/// A tier-2 environment: disturbance sigma (m/s²), quadratic drag
/// coefficient and decision-rate scale.
struct Environment {
    sigma: f64,
    drag: f64,
    rate_scale: f64,
}

/// Calm, gusty and degraded, as `f1-sim`'s scenario presets define them.
const ENVIRONMENTS: [Environment; 3] = [
    Environment {
        sigma: 0.02,
        drag: 0.05,
        rate_scale: 1.0,
    },
    Environment {
        sigma: 0.20,
        drag: 0.08,
        rate_scale: 1.0,
    },
    Environment {
        sigma: 0.05,
        drag: 0.05,
        rate_scale: 0.5,
    },
];

const PHASES: [DecisionPhase; 2] = [DecisionPhase::WorstCase, DecisionPhase::Random];

/// Commanded velocities (m/s) across the infraction edge of the test
/// vehicle: in every environment and phase the slowest never infracts
/// and the fastest always does; the edge cells in between split.
const VELOCITIES: [f64; 5] = [3.0, 3.3, 3.36, 3.42, 3.7];

/// Cruise trials per grid cell: 3 · 2 · 5 · 40 = 1,200 seeds.
const TRIAL_SEEDS: u64 = 40;

fn scenario(env: &Environment, phase: DecisionPhase) -> StopScenario {
    // A 1.62 kg build braking at 2 m/s² with the tier-2 brake lag,
    // deciding at 20 Hz with a 3 m sensing range.
    let dynamics = VehicleDynamics::new(
        Kilograms::new(1.62),
        MetersPerSecondSquared::new(2.0),
        MetersPerSecondSquared::new(2.0),
        Seconds::new(0.12),
        DragModel::quadratic(env.drag).unwrap(),
    )
    .unwrap();
    StopScenario::new(
        dynamics,
        Hertz::new(20.0 * env.rate_scale),
        Meters::new(3.0),
    )
    .with_disturbance(DisturbanceModel::gaussian(env.sigma).unwrap())
    .with_phase(phase)
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn outcome(&mut self, out: &TrialOutcome) {
        self.f64(out.commanded_velocity.get());
        self.f64(out.stop_position.get());
        self.f64(out.brake_time.get());
        self.u64(u64::from(out.infraction));
        let samples = out.trajectory.samples();
        self.u64(samples.len() as u64);
        for s in samples {
            self.f64(s.time.get());
            self.f64(s.position.get());
            self.f64(s.velocity.get());
        }
    }
}

/// Every (environment, phase, velocity) cell with its index.
fn cells() -> impl Iterator<Item = (u64, &'static Environment, DecisionPhase, f64)> {
    ENVIRONMENTS
        .iter()
        .flat_map(|env| PHASES.iter().map(move |&phase| (env, phase)))
        .flat_map(|(env, phase)| VELOCITIES.iter().map(move |&v| (env, phase, v)))
        .zip(0u64..)
        .map(|((env, phase, v), cell)| (cell, env, phase, v))
}

#[test]
fn trial_bits_are_pinned() {
    let mut hash = Fnv::new();
    let mut infractions = Vec::new();
    for (cell, env, phase, v) in cells() {
        let s = scenario(env, phase);
        let v = MetersPerSecond::new(v);
        let mut infracted = 0;
        for i in 0..TRIAL_SEEDS {
            let out = s.run_trial(v, trial_seed(1, cell, i));
            hash.outcome(&out);
            infracted += u64::from(out.infraction);
        }
        infractions.push(infracted);
        for i in 0..4 {
            hash.outcome(&s.run_full_profile(v, trial_seed(2, cell, i)));
        }
        for i in 0..8 {
            hash.u64(u64::from(s.is_velocity_safe(v, 5, trial_seed(3, cell, i))));
        }
    }
    for env in &ENVIRONMENTS {
        for phase in PHASES {
            let s = scenario(env, phase);
            let config = SearchConfig {
                v_max: MetersPerSecond::new(6.0),
                resolution: MetersPerSecond::new(0.01),
                trials: 3,
            };
            for seed in [5, 6] {
                let found = find_safe_velocity(&s, &config, seed);
                hash.f64(found.safe_velocity.get());
                hash.u64(found.trials_run as u64);
                hash.u64(u64::from(found.floor_unsafe));
            }
        }
    }
    for row in infractions.chunks(VELOCITIES.len()) {
        assert_eq!(row.first(), Some(&0), "infractions per velocity: {row:?}");
        assert_eq!(
            row.last(),
            Some(&TRIAL_SEEDS),
            "infractions per velocity: {row:?}"
        );
    }
    assert_eq!(hash.0, TRIAL_BITS, "trial bits moved: {:#018x}", hash.0);
}
