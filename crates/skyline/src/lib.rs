//! # `f1-skyline` — the Skyline analysis engine (paper §V)
//!
//! Skyline is the paper's interactive tool over the F-1 model. This crate
//! is its engine:
//!
//! * [`Knobs`] — the user-settable UAV parameters of paper Table II.
//! * [`UavSystem`] — a full UAV assembled from catalog components (or raw
//!   knobs): airframe + sensor + onboard computer(s) + autonomy algorithm;
//!   it derives payload mass (including the TDP-driven heatsink), body
//!   dynamics, stage rates and the F-1 roofline.
//! * [`SystemAnalysis`] — the "Automatic Analysis" pane: bound
//!   classification, knee, design assessment and optimization tips.
//! * [`redundancy`] — N-modular-redundancy what-ifs (paper §VI-C).
//! * [`sweep`] — a crossbeam-parallel parameter sweep engine for
//!   characterization studies (payload sweeps, TDP sweeps, full-system
//!   matrices).
//! * [`chart`] — roofline chart construction on top of `f1-plot`.
//! * [`dse`] — the per-candidate evaluator behind automated
//!   design-space exploration over the catalog (the paper's conclusion
//!   proposes exactly this use).
//! * [`query`] — the vocabulary of a DSE query: typed objectives,
//!   constraints and Table II knob sweeps.
//! * [`plan`] / [`session`] — the one query path, split into compile
//!   and execute: owned `Send + Sync` [`QueryPlan`]s with canonical
//!   cache keys, built by a [`PlanBuilder`] and executed (batches of one
//!   evaluation signature in one kernel pass, and memoized) by a
//!   [`Session`] over an `Arc<Catalog>`, producing columnar
//!   [`ResultSet`]s with bounded-heap top-k.
//! * [`shard`] — the shard kernel behind every pass:
//!   (airframe × knob setting)-aligned shards evaluated over
//!   struct-of-arrays slabs with per-pair hoisting, each reduced to its
//!   local skyline and, per the plan's [`KeepPoints`], either retained
//!   or streamed down to frontier + top-k + accounting — streaming is
//!   what makes 10⁷-candidate catalogs interactive with bounded memory.
//! * [`frontier`] — O(n log n) sort-and-sweep Pareto skylines.
//! * [`tier2`] — the two-tier evaluation hook: plans may declare
//!   simulation-backed [`SimObjective`]s, evaluated by an installed
//!   [`Tier2Evaluator`] (the `f1-sim` crate) on the tier-1 survivor set
//!   only, with an analytic-vs-simulated rank-agreement
//!   [`VerificationReport`] attached to the result.
//!
//! # Examples
//!
//! ```
//! use f1_components::{names, Catalog};
//! use f1_skyline::UavSystem;
//!
//! let catalog = Catalog::paper();
//! // §VI-B: AscTec Pelican + TX2 running DroNet behind an RGB-D camera.
//! let system = UavSystem::from_catalog(
//!     &catalog,
//!     names::ASCTEC_PELICAN,
//!     names::RGBD_60,
//!     names::TX2,
//!     names::DRONET,
//! )?;
//! let analysis = system.analyze()?;
//! // DroNet on TX2 exceeds the knee: the UAV is physics-bound.
//! assert_eq!(analysis.bound.bound, f1_model::roofline::Bound::Physics);
//! # Ok::<(), f1_skyline::SkylineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod dse;
mod error;
pub mod frontier;
mod knobs;
pub mod mission;
pub mod plan;
pub mod query;
pub mod redundancy;
mod repair;
pub mod report;
mod rows;
pub mod session;
pub mod shard;
pub mod sweep;
mod system;
pub mod tier2;

pub use error::SkylineError;
pub use knobs::{KnobDescription, Knobs};
pub use plan::{KeepPoints, PlanBuilder, QueryPlan, SimObjective};
pub use session::{CacheStats, ResultSet, RowKey, Session};
pub use system::{Recommendation, SystemAnalysis, UavSystem, UavSystemBuilder};
pub use tier2::{
    SimBlock, SimRow, SimStats, SimUsage, Tier2Context, Tier2Evaluation, Tier2Evaluator,
    VerificationEntry, VerificationReport,
};
