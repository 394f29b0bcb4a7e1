//! # `f1-flightsim` — flight simulation and the stop-before-obstacle protocol
//!
//! The paper validates the F-1 model with real flights: four custom S500
//! drones fly at commanded velocities toward an obstacle 3 m away and brake
//! on detection; the measured safe velocity is compared with the model's
//! prediction, showing the model is optimistic by 5.1–9.5 %. This crate
//! reproduces that experiment in simulation.
//!
//! The simulator deliberately includes the effects the F-1 model *omits* —
//! the paper names them as its error sources (§IV):
//!
//! 1. **Brake-engagement lag**: the attitude loop and motors take tens of
//!    milliseconds to establish the braking attitude
//!    ([`VehicleDynamics::response_lag`]).
//! 2. **Aerodynamic drag** ([`f1_model::physics::DragModel`]).
//! 3. **Payload jerk / disturbances**: mounting compliance and gusts
//!    perturb the deceleration ([`DisturbanceModel`]).
//! 4. **Discrete decisions**: the autonomy loop reacts only at its tick
//!    (worst-case blind time, which Eq. 4 *does* model).
//!
//! Searching the simulator for the largest velocity with zero infractions
//! over repeated trials therefore reproduces the paper's model-vs-flight
//! error band by the same mechanism as the real experiment.
//!
//! # One integration loop, pinned bits
//!
//! Every [`StopScenario`] trial runs one integration loop at a 1 kHz
//! step. [`StopScenario::run_trial`] and [`StopScenario::run_full_profile`]
//! record a decimated [`Trajectory`] and run to the stop.
//! [`StopScenario::infracts`], which [`StopScenario::is_velocity_safe`],
//! [`find_safe_velocity`] and the tier-2 robustness objective use, keeps
//! only the infraction verdict and ends the loop once the verdict is
//! certain: an infraction as soon as the braking vehicle is past the
//! obstacle, since its position never decreases; none as soon as a
//! bound on the stop position, which holds against the largest draw
//! [`DisturbanceModel::max_abs`] allows, lies a margin short of the
//! obstacle. A calm trial settles at its first braking step. Its verdict
//! is the recorded trial's, bit for bit. What is fixed for a trial (the
//! lag fraction `min(dt/τ, 1)`, the brake command, the brake time once
//! the crossing is known, the bound's constants) is computed before the
//! first step, and in an optimized build a step makes no out-of-line
//! call except `ln` and `cos` in the disturbance draw. Each expression
//! keeps its operations and their order, so restructuring the loop moves
//! no bit.
//!
//! The test `tests/trial_bits.rs` is the gate for that: it folds the
//! outcomes and recorded samples of more than 10³ seeded trials over the
//! calm, gusty and degraded tier-2 environments, both decision phases and
//! velocities across the infraction edge into one FNV-1a digest. Changing
//! the integrator, the disturbance draw or the seed derivation moves it
//! and needs a deliberate re-bless.
//!
//! # Examples
//!
//! ```
//! use f1_flightsim::{StopScenario, VehicleDynamics};
//! use f1_model::physics::DragModel;
//! use f1_units::*;
//!
//! // UAV-A-like vehicle: 1.62 kg, F-1 a_max ≈ 0.8 m/s².
//! let dynamics = VehicleDynamics::new(
//!     Kilograms::new(1.62),
//!     MetersPerSecondSquared::new(0.8),
//!     MetersPerSecondSquared::new(0.8),
//!     Seconds::new(0.08),
//!     DragModel::quadratic(0.05)?,
//! )?;
//! let scenario = StopScenario::paper_validation(dynamics, Hertz::new(10.0), Meters::new(3.0));
//! let outcome = scenario.run_trial(MetersPerSecond::new(1.5), 42);
//! assert!(!outcome.infraction); // 1.5 m/s always stops safely (paper Fig. 7a)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disturbance;
mod dynamics;
mod pid;
mod planar;
mod scenario;
mod search;
mod seed;
mod validation;

pub use disturbance::DisturbanceModel;
pub use dynamics::{VehicleDynamics, VehicleState};
pub use pid::Pid;
pub use planar::{PlanarDynamics, PlanarState};
pub use scenario::{DecisionPhase, StopScenario, Trajectory, TrajectorySample, TrialOutcome};
pub use search::{find_safe_velocity, SafeVelocityResult, SearchConfig};
pub use seed::{mix64, trial_seed};
pub use validation::{validate_custom_drones, DroneValidation, ValidationConfig, ValidationReport};
