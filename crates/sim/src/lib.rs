//! # `f1-sim` — two-tier simulation evaluation (fig. 7 generalized)
//!
//! The F-1 model is analytic and fast — millions of candidate builds per
//! second through the DSE shard kernel — but the paper's own validation
//! (§IV, fig. 7) shows it is optimistic by 5.1–9.5 % against real flights
//! because it omits brake lag, drag, disturbances and decision phase.
//! `f1-skyline` therefore exposes a *two-tier* evaluation hook
//! ([`f1_skyline::Tier2Evaluator`]): tier 1 ranks the whole catalog
//! analytically; tier 2 re-scores only the **survivors** (Pareto frontier
//! ∪ top-k) with the real simulators from `f1-flightsim` and
//! `f1-pipeline`, and reports how well the analytic ranking agreed with
//! the simulated one. This crate is the tier-2 implementation.
//!
//! * [`SimHarness`] — the evaluator. Install on a session with
//!   [`f1_skyline::Session::with_tier2`]; plans opt in per query with
//!   [`f1_skyline::PlanBuilder::sim_objective`].
//! * [`ScenarioConfig`] — the disturbance environment: [`calm`],
//!   [`gusty wind`] and [`degraded decision rate`] presets.
//! * [`candidate_id`] / [`plan_base_seed`] — the deterministic identity
//!   scheme: every trial seed is
//!   [`trial_seed`]`(plan_base_seed(key), candidate_id(point), trial)`,
//!   so tier-2 values are bit-identical across cache hits, batch shapes,
//!   shard boundaries, storage modes and delta repair.
//!
//! Simulated objectives ([`f1_skyline::SimObjective`]):
//!
//! * **`MissionRobustness { trials }`** — the fraction of `trials` seeded
//!   stop-before-obstacle runs ([`f1_flightsim::StopScenario`], random
//!   decision phase, gaussian disturbance, drag, brake lag) the build
//!   completes without infraction at a derated commanded velocity.
//! * **`PipelineP99Latency`** — end-to-end p99 latency (seconds) of the
//!   sense→compute→actuate pipeline ([`f1_pipeline::PipelineSim`]) with
//!   log-normal compute jitter and frame drops.
//!
//! Infeasible or unsimulable survivors degrade to sentinels (robustness
//! `0.0`, latency `+∞`) — one broken design never aborts a whole query.
//! A rate whose period `1/rate` is not finite is unsimulable too.
//!
//! # Cost
//!
//! servebench's `verify_tier2` plans (about 17 survivors × 32 trials)
//! run about 540 robustness trials and 17 pipeline simulations per
//! query. A trial runs through
//! [`StopScenario::infracts`](f1_flightsim::StopScenario::infracts),
//! which stops integrating once its infraction verdict is certain and
//! reaches the verdict a fully integrated trial reaches. A calm trial
//! settles at its first braking step, about 18 steps instead of about
//! 1,230, so the 256-action pipeline p99 simulation is now most of a
//! survivor's cost. A cheaper disturbance draw or integrator would
//! change the simulated bits, so it needs a deliberate re-bless of the
//! trial-bits digest in `f1-flightsim`, of the gusty/degraded digest in
//! `tests/scenario_bits.rs` and of the tier-2 goldens, and a re-check of
//! the fig07 floors.
//!
//! [`calm`]: ScenarioConfig::calm
//! [`gusty wind`]: ScenarioConfig::gusty
//! [`degraded decision rate`]: ScenarioConfig::degraded
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use f1_components::Catalog;
//! use f1_skyline::{QueryPlan, Session, SimObjective};
//! use f1_skyline::query::Objective;
//! use f1_sim::SimHarness;
//!
//! let session = Session::new(Arc::new(Catalog::paper()))
//!     .with_tier2(Arc::new(SimHarness::default()));
//! let plan = QueryPlan::builder()
//!     .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
//!     .sim_objective(SimObjective::MissionRobustness { trials: 8 })
//!     .sim_objective(SimObjective::PipelineP99Latency)
//!     .survivor_budget(8)
//!     .build()?;
//! let result = session.run(&plan)?;
//! let sim = result.sim().expect("tier-2 plans carry a sim block");
//! assert_eq!(sim.objectives.len(), 2);
//! assert!(!sim.rows.is_empty());
//! # Ok::<(), f1_skyline::SkylineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod harness;
mod identity;
mod verify;

pub use config::ScenarioConfig;
pub use f1_flightsim::{mix64, trial_seed};
pub use harness::SimHarness;
pub use identity::{candidate_id, plan_base_seed};
