//! The shard kernel: the one executor behind every pass, from a
//! single 10⁴-candidate what-if to an 8-plan batch to a 10⁷-candidate
//! streamed query.
//!
//! `run` takes a group of plans that share one evaluation signature
//! (subspace, knob settings and battery) and splits their common space
//! into **(airframe × knob setting)-aligned shards**, run in parallel:
//!
//! * **Lazy enumeration.** A candidate is a `sensor × characterized
//!   (compute, algorithm) pair` coordinate decoded on the fly from the
//!   pair list
//!   ([`ThroughputTable::characterized_pairs`](f1_components::ThroughputTable::characterized_pairs)
//!   order) — the cross product is never held in memory.
//! * **One evaluation for the whole group.** Each run is scored once;
//!   each plan then applies its own constraint filter and keeps its own
//!   rows of the shared objective columns and feasibility mask.
//! * **Pair hoisting.** Shards never cross an (airframe, setting)
//!   block, and candidates within a block are sensor-major over the
//!   compute-major pair list, so everything but the algorithm's
//!   throughput is computed once per (sensor, compute) pair by
//!   `pair_stage`: payload, TDP, loaded dynamics and feasibility, the
//!   sensor and control stage rates, and the safety roofline with its
//!   knee, roof, optimal band and Eq. 4's `2d` and `2d/a`. The mission
//!   power model is built once per pair and distinct mission profile.
//! * **The run is the unit of work.** A run is the consecutive
//!   candidates of one (sensor, compute) pair, one per characterized
//!   algorithm, clipped to its shard: a pair that straddles a shard
//!   boundary is two runs, each with its own pair stage. Per run the
//!   kernel builds the pair stage once and computes the run's Eq. 4
//!   velocities (`PairStage::velocities`, bit for bit what
//!   `PairStage::score` gives one candidate) and, for each profile a
//!   plan keeps a candidate of, its mission energies, each in one loop
//!   over the run. It decides each plan's pair-level constraints
//!   (`MaxTotalTdp`, `MaxPayload`, `FeasibleOnly`) once and its
//!   `MinVelocity` floors per candidate, fills the TDP, payload,
//!   endurance, feasibility and job columns in bulk, and offers each
//!   frontier group the candidates any of its plans kept, in job order:
//!   a group's plans can keep their rows in several value sets (one
//!   objective set ranked in different orders). The kernel builds no
//!   `Outcome`; the full outcome (bound, knee, assessment) is rebuilt
//!   only for materialized points, by `algo_stage` on the same velocity
//!   function.
//! * **Struct-of-arrays slabs.** Within a shard, each plan's objective
//!   values land in contiguous per-column `f64` slabs and its
//!   feasibility in a flat mask; the merge carries the mask into the
//!   result's feasibility column, which ranking reads.
//! * **Shared local skylines.** Each shard reduces the frontier domain
//!   to a local Pareto frontier (a cheap dominance prefilter, then one
//!   exact skyline) before the serial merge. Plans with the same
//!   objective set whose constraints are all downward-closed
//!   (`frontier_reducible`) share one skyline: a Table II budget
//!   sweep reduces once, not once per plan.
//!
//! A result never stores a point. Each stored row is the candidate's
//! **job index** into the pass's `PassSpace` (the resolved part
//! lists, the pair list with throughputs, the settings and the variant
//! parts), which every result of the pass shares behind an `Arc`,
//! beside the value and feasibility columns. A [`QueryPoint`] is rebuilt
//! on demand by running the pass's `pair_stage` and then `algo_stage`
//! over the same parts, which is bit-deterministic and reaches the
//! pass's velocity through the same function (late materialization).
//!
//! `PassSpace` is the only definition of the job index: `coord` and
//! `coords` decode a job, and its `index` maps another space's
//! coordinates into it (`JobIndex::placement_of`). Delta repair resolves
//! the new epoch's space, indexes it once, and places every cached row
//! and every delta-slab row through that index, so no other module
//! rebuilds the enumeration order.
//!
//! Each plan's [`KeepPoints`] policy decides what it keeps beyond its
//! counters and frontier:
//!
//! * **Retaining** (`All`, and `Auto` at or below
//!   [`STREAM_AUTO_THRESHOLD`] jobs): every kept row. The merge joins
//!   the shards in enumeration order into columns sized to the kept
//!   rows.
//! * **Streaming** (`FrontierOnly`, and `Auto` above the threshold):
//!   only a bounded top-[`STREAM_TOP_K`] ranking besides the frontier,
//!   so peak memory is O(shard + frontier + k), not O(n).
//!
//! The serial merge is **exact**, not approximate:
//!
//! * frontier(S ∪ D) = frontier(frontier(S) ∪ frontier(D)) — the same
//!   identity delta repair relies on — so one final
//!   [`frontier::pareto_min`] over the concatenated shard frontiers is
//!   the skyline of every kept row (global kept indices come from a
//!   prefix sum over per-shard kept counts, and both the member list
//!   and the survivors are ascending). A plan that shares a skyline
//!   keeps the shared frontier's members it kept.
//! * The rank order (feasible first, then the primary objective, ties
//!   by enumeration index) restricted to one shard *is* the shard's
//!   local rank order, so the global top-K is a subset of the union of
//!   per-shard top-Ks and a single merge-sort-and-truncate of that
//!   union is the exact prefix of the full ranking.
//!
//! Bit-identity between the modes, batch shapes and standalone runs is
//! property-tested (`tests/stream_properties.rs`,
//! `tests/session_properties.rs`), an oracle that bypasses the kernel
//! checks both modes (`tests/kernel_oracle.rs`), and the scale target
//! is pinned by `tests/stream_scale.rs`.

use std::borrow::Cow;
use std::sync::Arc;

use f1_components::{
    Airframe, AirframeId, AlgorithmId, Catalog, ComponentError, ComputeId, ComputePlatform, Sensor,
    SensorId,
};
use f1_model::heatsink::HeatsinkModel;
use f1_model::mission::{hover_endurance, PowerModel};
use f1_model::roofline::Saturation;
use f1_units::{Grams, Hertz, Meters, MetersPerSecond};

use crate::dse::{algo_stage, pair_stage, Candidate, PairStage, Scored};
use crate::frontier;
use crate::plan::{KeepPoints, QueryPlan};
use crate::query::{
    Constraint, Knob, KnobSetting, MissionProfile, Objective, QueryPoint, MAX_OBJECTIVES,
};
use crate::session::{rank_order, EpochState, ResultSet, StreamedMeta};
use crate::sweep::parallel_map_indices;
use crate::SkylineError;

/// Maximum candidates per shard. Shards never cross an (airframe ×
/// knob-setting) block boundary, so a block smaller than this is one
/// shard. 65536 four-objective rows are ~2 MB of slab — still a small,
/// bounded working set, while big enough that intra-shard domination
/// (the window prefilter plus one exact local skyline) culls most
/// points before the cross-shard merge: smaller shards shift work into
/// the merge's concatenated-frontier skyline, which measures slower at
/// 10⁷ candidates. Still yields ~150 shards per 10⁷ for work stealing.
pub const SHARD_SIZE: usize = 65536;

/// How many best-ranked points a streamed result retains. The stored
/// prefix equals `ranked()[..STREAM_TOP_K]` of a retained result
/// exactly (including tie order).
pub const STREAM_TOP_K: usize = 64;

/// Job count above which a [`KeepPoints::Auto`] plan streams instead of
/// retaining every row. Below this the retained columns cost a few
/// tens of MB at most and callers keep random access; above it,
/// retaining is what makes 10⁷ queries impossible, so streaming wins.
pub const STREAM_AUTO_THRESHOLD: usize = 2_000_000;

/// Pre-built component variants for one knob setting, indexed by
/// position in the pass's resolved sensor/compute/airframe lists.
#[derive(Debug, PartialEq)]
struct VariantParts {
    sensors: Vec<Sensor>,
    computes: Vec<ComputePlatform>,
    airframes: Vec<Airframe>,
    extra_payload: Grams,
}

/// One characterized (compute, algorithm) pair of the resolved
/// subspace, with the compute's position for variant lookup.
#[derive(Debug, PartialEq)]
pub(crate) struct PairEntry {
    compute_pos: u32,
    pub(crate) compute: ComputeId,
    pub(crate) algorithm: AlgorithmId,
    pub(crate) throughput: Hertz,
}

/// A job index's position in its [`PassSpace`]: airframe, knob setting,
/// sensor and characterized pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Coord {
    pub(crate) airframe: usize,
    pub(crate) setting: usize,
    pub(crate) sensor: usize,
    pub(crate) pair: usize,
}

/// The space one pass enumerates, shared behind an `Arc` by every
/// result of the pass: the plan group's resolved (active-filtered) part
/// lists, the characterized pair list with its throughputs, the knob
/// settings and the per-setting variant parts. A job index —
/// airframe-major, then setting, then sensor, then pair — is all a
/// stored row needs: its build identity decodes from the lists, and
/// its [`QueryPoint`] rebuilds from the variant parts through the
/// `pair_stage` the pass ran and `algo_stage`.
#[derive(Debug, PartialEq)]
pub(crate) struct PassSpace {
    pub(crate) airframes: Vec<AirframeId>,
    pub(crate) sensors: Vec<SensorId>,
    pub(crate) pairs: Vec<PairEntry>,
    pub(crate) settings: Vec<KnobSetting>,
    variants: Vec<VariantParts>,
    heatsink: HeatsinkModel,
    saturation: Saturation,
    /// Sensor × compute × algorithm combinations of the subspace whose
    /// pair was never characterized.
    pub(crate) uncharacterized: usize,
}

impl PassSpace {
    /// Resolves a plan's subspace at `state`'s epoch ([`Parts::of`]),
    /// snapshots the characterized pair list in compute-major order and
    /// builds the per-setting variants.
    ///
    /// # Errors
    ///
    /// [`SkylineError::KnobVariant`] for an out-of-domain sweep variant.
    pub(crate) fn resolve(state: &EpochState, plan: &QueryPlan) -> Result<Self, SkylineError> {
        let parts = Parts::of(state, plan);
        Self::over(
            state,
            plan,
            parts.airframes.into_owned(),
            parts.sensors.into_owned(),
            &parts.computes,
            &parts.algorithms,
        )
    }

    /// The space of `plan`'s knob settings and battery over explicit part
    /// lists, all active at `state`'s epoch, scored with the
    /// paper-calibrated heatsink model and the default knee saturation.
    ///
    /// # Errors
    ///
    /// [`SkylineError::KnobVariant`] for an out-of-domain sweep variant.
    pub(crate) fn over(
        state: &EpochState,
        plan: &QueryPlan,
        airframes: Vec<AirframeId>,
        sensors: Vec<SensorId>,
        computes: &[ComputeId],
        algorithms: &[AlgorithmId],
    ) -> Result<Self, SkylineError> {
        let catalog = state.catalog();
        let mut pairs = Vec::new();
        for (compute_pos, &compute) in computes.iter().enumerate() {
            for (_, algorithm, throughput) in state
                .table
                .characterized_pairs(std::slice::from_ref(&compute), algorithms)
            {
                pairs.push(PairEntry {
                    compute_pos: compute_pos as u32,
                    compute,
                    algorithm,
                    throughput,
                });
            }
        }
        let battery_mass = plan
            .battery()
            .map_or(0.0, |id| catalog.battery_by_id(id).mass().get());
        let variants = build_variants(
            catalog,
            &sensors,
            computes,
            &airframes,
            plan.settings(),
            battery_mass,
        )?;
        Ok(Self {
            uncharacterized: sensors.len() * (computes.len() * algorithms.len() - pairs.len()),
            airframes,
            sensors,
            pairs,
            settings: plan.settings().to_vec(),
            variants,
            heatsink: HeatsinkModel::paper_calibrated(),
            saturation: Saturation::DEFAULT,
        })
    }

    /// Candidates per (airframe, setting) block.
    fn cand_count(&self) -> usize {
        self.sensors.len() * self.pairs.len()
    }

    /// Evaluation jobs of the whole space.
    pub(crate) fn job_count(&self) -> usize {
        self.airframes.len() * self.settings.len() * self.cand_count()
    }

    /// The airframe a setting's builds fly, scaled when the setting
    /// scales an airframe knob.
    // analyze::allow(indexing, scope = "fn", reason = "positions come from coordinates decoded in this space")
    fn airframe(&self, airframe: usize, setting: usize) -> &Airframe {
        &self.variants[setting].airframes[airframe]
    }

    /// The coordinates of `job` (a job of this space).
    pub(crate) fn coord(&self, job: u64) -> Coord {
        let pairs = self.pairs.len() as u64;
        let cands = self.sensors.len() as u64 * pairs;
        let settings = self.settings.len() as u64;
        let (block, cand) = (job / cands, job % cands);
        // Each quotient is below the length of the list it indexes.
        Coord {
            airframe: (block / settings) as usize,
            setting: (block % settings) as usize,
            sensor: (cand / pairs) as usize,
            pair: (cand % pairs) as usize,
        }
    }

    /// The coordinates of every job in `jobs`, decoded without a
    /// division per job while consecutive jobs stay on one sensor's
    /// row of pairs (the common case for ascending jobs).
    pub(crate) fn coords<'s>(&'s self, jobs: &'s [u64]) -> impl Iterator<Item = Coord> + 's {
        let pairs = self.pairs.len() as u64;
        let mut row: Option<(u64, Coord)> = None;
        jobs.iter().map(move |&job| {
            if let Some((start, coord)) = &mut row {
                if let Some(offset) = job.checked_sub(*start).filter(|&o| o < pairs) {
                    coord.pair = offset as usize;
                    return *coord;
                }
            }
            let coord = self.coord(job);
            row = Some((job - coord.pair as u64, coord));
            coord
        })
    }

    /// The build at `coord`: airframe, candidate and knob setting, with
    /// no evaluation.
    // analyze::allow(indexing, scope = "fn", reason = "coordinates are decoded from jobs of this space")
    pub(crate) fn key(&self, coord: Coord) -> (AirframeId, Candidate, KnobSetting) {
        let entry = &self.pairs[coord.pair];
        (
            self.airframes[coord.airframe],
            Candidate {
                sensor: self.sensors[coord.sensor],
                compute: entry.compute,
                algorithm: entry.algorithm,
                throughput: entry.throughput,
            },
            self.settings[coord.setting],
        )
    }

    /// Rebuilds the point of `job` — bit-identical to what the pass
    /// scored: the same pair stage over the same parts, and the full
    /// outcome on the same velocity function.
    // analyze::allow(indexing, scope = "fn", reason = "coordinates are decoded from jobs of this space")
    pub(crate) fn point(&self, job: u64) -> Result<QueryPoint, SkylineError> {
        let coord = self.coord(job);
        let (id, candidate, setting) = self.key(coord);
        let parts = &self.variants[coord.setting];
        let airframe = self.airframe(coord.airframe, coord.setting);
        let sensor = &parts.sensors[coord.sensor];
        let stage = pair_stage(
            &self.heatsink,
            self.saturation,
            airframe,
            sensor,
            &parts.computes[self.pairs[coord.pair].compute_pos as usize],
            parts.extra_payload,
        )?;
        Ok(QueryPoint {
            airframe: id,
            candidate,
            setting,
            outcome: algo_stage(&stage, candidate.throughput)?,
        })
    }

    /// This space's position tables by part id, built once to place any
    /// number of other spaces' rows ([`JobIndex::placement_of`]).
    pub(crate) fn index(&self) -> JobIndex<'_> {
        // Pairs by (compute, algorithm) id: the table spans this space's
        // largest ids, at most the shape of the epoch's throughput table.
        let stride = self.pairs.iter().map(|p| p.algorithm.index() + 1).max();
        let stride = stride.unwrap_or(0);
        JobIndex {
            space: self,
            airframes: position_table(self.airframes.iter().map(|id| id.index())),
            sensors: position_table(self.sensors.iter().map(|id| id.index())),
            pairs: position_table(self.pairs.iter().map(|p| pair_key(p, stride))),
            stride,
        }
    }
}

/// A pair's slot in a [`JobIndex`] pair table of row length `stride`.
fn pair_key(pair: &PairEntry, stride: usize) -> usize {
    pair.compute.index() * stride + pair.algorithm.index()
}

/// The position of each of `indices` (dense id indices) in its list, as
/// a table indexed by id index.
fn position_table(indices: impl Iterator<Item = usize> + Clone) -> Vec<Option<u32>> {
    let mut table = vec![None; indices.clone().max().map_or(0, |max| max + 1)];
    for (pos, index) in indices.enumerate() {
        if let Some(slot) = table.get_mut(index) {
            *slot = Some(pos as u32);
        }
    }
    table
}

/// The position at `index` in a [`position_table`], `None` off its list.
fn position(table: &[Option<u32>], index: usize) -> Option<u32> {
    table.get(index).copied().flatten()
}

/// The position of each of `indices` (dense id indices) in its list,
/// looked up by index with one array read, no hashing.
pub(crate) fn positions(
    indices: impl Iterator<Item = usize> + Clone,
) -> impl Fn(usize) -> Option<u32> {
    let table = position_table(indices);
    move |index| position(&table, index)
}

/// A space's airframe, sensor and pair positions by part id (see
/// [`PassSpace::index`]).
pub(crate) struct JobIndex<'s> {
    space: &'s PassSpace,
    airframes: Vec<Option<u32>>,
    sensors: Vec<Option<u32>>,
    /// Pair positions by [`pair_key`].
    pairs: Vec<Option<u32>>,
    stride: usize,
}

impl JobIndex<'_> {
    /// Where the rows of `other`, a space of the same plan over other
    /// part lists (the plan at an older epoch, or a delta-repair slab),
    /// land in the indexed space's job index. Each of its (airframe,
    /// setting) blocks, sensors and pairs gets its job offset there,
    /// looked up by id; a part the space does not enumerate, and a pair
    /// whose throughput differs there, get `None`.
    // analyze::allow(indexing, scope = "fn", reason = "a pair position comes from the table over the indexed space's own pairs")
    pub(crate) fn placement_of(&self, other: &PassSpace) -> Placement {
        let space = self.space;
        let pairs = space.pairs.len() as u64;
        let per_setting = space.sensors.len() as u64 * pairs;
        let per_airframe = space.settings.len() as u64 * per_setting;
        let setting_offsets: Vec<Option<u64>> = other
            .settings
            .iter()
            .map(|s| Some(space.settings.iter().position(|t| t == s)? as u64 * per_setting))
            .collect();
        Placement {
            blocks: other
                .airframes
                .iter()
                .flat_map(|id| {
                    let airframe = position(&self.airframes, id.index());
                    setting_offsets
                        .iter()
                        .map(move |&setting| Some(u64::from(airframe?) * per_airframe + setting?))
                })
                .collect(),
            settings: other.settings.len(),
            sensors: other
                .sensors
                .iter()
                .map(|id| Some(u64::from(position(&self.sensors, id.index())?) * pairs))
                .collect(),
            pairs: other
                .pairs
                .iter()
                .map(|p| {
                    let key = (p.algorithm.index() < self.stride).then(|| pair_key(p, self.stride));
                    let pos = position(&self.pairs, key?)?;
                    (space.pairs[pos as usize].throughput == p.throughput).then_some(u64::from(pos))
                })
                .collect(),
        }
    }
}

/// Another space's rows placed in a target space's job index (see
/// [`JobIndex::placement_of`]): the target job offset of each
/// (airframe, setting) block, sensor and pair of the placed space,
/// `None` where the target does not enumerate the part.
pub(crate) struct Placement {
    /// One offset per (airframe, setting) block, airframe-major.
    blocks: Vec<Option<u64>>,
    /// Settings per airframe of the placed space.
    settings: usize,
    sensors: Vec<Option<u64>>,
    pairs: Vec<Option<u64>>,
}

impl Placement {
    /// The target job of `coord`, a coordinate of the placed space: the
    /// sum of its block, sensor and pair offsets, `None` when the target
    /// does not enumerate the build.
    // analyze::allow(indexing, scope = "fn", reason = "coordinates are decoded from jobs of the placed space, whose lists sized the tables")
    pub(crate) fn job(&self, coord: Coord) -> Option<u64> {
        Some(
            self.blocks[coord.airframe * self.settings + coord.setting]?
                + self.sensors[coord.sensor]?
                + self.pairs[coord.pair]?,
        )
    }
}

/// The part lists a plan enumerates at one epoch: its explicit lists or
/// the epoch's defaults, retired parts filtered out, so cold runs and
/// delta repairs agree on the enumeration at every epoch.
pub(crate) struct Parts<'s> {
    pub(crate) airframes: Cow<'s, [AirframeId]>,
    pub(crate) sensors: Cow<'s, [SensorId]>,
    pub(crate) computes: Cow<'s, [ComputeId]>,
    pub(crate) algorithms: Cow<'s, [AlgorithmId]>,
}

impl<'s> Parts<'s> {
    pub(crate) fn of(state: &'s EpochState, plan: &'s QueryPlan) -> Self {
        let catalog = state.catalog();
        Self {
            airframes: active_ids(plan.airframes().unwrap_or(&state.airframes), |id| {
                catalog.airframe_is_active(id)
            }),
            sensors: active_ids(plan.sensors().unwrap_or(&state.sensors), |id| {
                catalog.sensor_is_active(id)
            }),
            computes: active_ids(plan.computes().unwrap_or(&state.computes), |id| {
                catalog.compute_is_active(id)
            }),
            algorithms: active_ids(plan.algorithms().unwrap_or(&state.algorithms), |id| {
                catalog.algorithm_is_active(id)
            }),
        }
    }
}

/// Filters a component-id list to the catalog's active (non-retired)
/// ids, borrowing when nothing is filtered — which is always the case
/// for the session/engine default lists (built from active entries) and
/// for explicit plan subspaces on an unretired catalog.
fn active_ids<T: Copy>(list: &[T], is_active: impl Fn(T) -> bool) -> Cow<'_, [T]> {
    if list.iter().all(|&id| is_active(id)) {
        Cow::Borrowed(list)
    } else {
        Cow::Owned(list.iter().copied().filter(|&id| is_active(id)).collect())
    }
}

/// Builds the per-setting component variants of a pass.
///
/// This is where sweep variants are **validated**: every scaled sensor,
/// compute platform and airframe is constructed (and domain-checked)
/// here, before the parallel pass, so an out-of-domain knob value
/// surfaces as [`SkylineError::KnobVariant`] naming the offending knob
/// instead of aborting a running evaluation.
fn build_variants(
    catalog: &Catalog,
    sensors: &[SensorId],
    computes: &[ComputeId],
    airframes: &[AirframeId],
    settings: &[KnobSetting],
    battery_mass: f64,
) -> Result<Vec<VariantParts>, SkylineError> {
    // A scaled magnitude must stay positive and finite *before* it
    // reaches the unit types (whose constructors panic on non-finite
    // values) or the component constructors.
    let scaled = |base: f64, knob: Knob, scale: f64, field: &'static str| {
        let value = base * scale;
        if value.is_finite() && value > 0.0 {
            Ok(value)
        } else {
            Err(SkylineError::KnobVariant {
                knob: knob.table2_parameter(),
                value: scale,
                source: ComponentError::InvalidField {
                    field,
                    reason: format!("scaled magnitude must be positive and finite, got {value}"),
                },
            })
        }
    };
    settings
        .iter()
        .map(|setting| {
            let sensors = sensors
                .iter()
                .map(|&id| {
                    let s = catalog.sensor_by_id(id);
                    if setting.sensor_rate_scale == 1.0 && setting.sensor_range_scale == 1.0 {
                        Ok(s.clone())
                    } else {
                        let rate = scaled(
                            s.frame_rate().get(),
                            Knob::SensorRateScale,
                            setting.sensor_rate_scale,
                            "frame_rate",
                        )?;
                        let range = scaled(
                            s.range().get(),
                            Knob::SensorRangeScale,
                            setting.sensor_range_scale,
                            "range",
                        )?;
                        // `scaled` has already validated both magnitudes;
                        // any residual constructor error is a
                        // catalog-field problem, not a knob one.
                        Sensor::new(
                            s.name(),
                            s.modality(),
                            Hertz::new(rate),
                            Meters::new(range),
                            s.mass(),
                        )
                        .map_err(SkylineError::from)
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            let computes = computes
                .iter()
                .map(|&id| {
                    let c = catalog.compute_by_id(id);
                    if setting.tdp_scale == 1.0 {
                        Ok(c.clone())
                    } else {
                        // Guards the product: `with_tdp_scaled` only
                        // validates the factor, and an overflowed TDP
                        // would panic inside the Watts constructor.
                        scaled(c.tdp().get(), Knob::TdpScale, setting.tdp_scale, "tdp")?;
                        c.with_tdp_scaled(setting.tdp_scale)
                            .map_err(SkylineError::from)
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            let airframes = airframes
                .iter()
                .map(|&id| {
                    let a = catalog.airframe_by_id(id);
                    scaled(
                        a.base_mass().get(),
                        Knob::WeightScale,
                        setting.weight_scale,
                        "base_mass",
                    )?;
                    scaled(
                        a.rotor_pull().get(),
                        Knob::RotorPull,
                        setting.rotor_pull_scale,
                        "rotor_pull",
                    )?;
                    let a = if setting.weight_scale == 1.0 {
                        a.clone()
                    } else {
                        a.with_base_mass_scaled(setting.weight_scale)?
                    };
                    if setting.rotor_pull_scale == 1.0 {
                        Ok(a)
                    } else {
                        a.with_rotor_pull_scaled(setting.rotor_pull_scale)
                            .map_err(SkylineError::from)
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(VariantParts {
                sensors,
                computes,
                airframes,
                extra_payload: Grams::new(battery_mass + setting.payload_delta.get()),
            })
        })
        .collect()
}

/// The keep-points decision: [`KeepPoints::All`] never streams,
/// [`KeepPoints::FrontierOnly`] always does, and [`KeepPoints::Auto`]
/// streams when the job count exceeds [`STREAM_AUTO_THRESHOLD`].
fn streams(keep: KeepPoints, job_count: usize) -> bool {
    match keep {
        KeepPoints::All => false,
        KeepPoints::FrontierOnly => true,
        KeepPoints::Auto => job_count > STREAM_AUTO_THRESHOLD,
    }
}

/// Whether every constraint of the plan is **downward-closed** with
/// respect to the plan's own minimized objective keys: a cap on a
/// minimized objective, a floor on a maximized one, or plain
/// feasibility (which the frontier domain already implies).
///
/// For such plans the kept set is dominance-downward-closed — if build
/// `b` dominates build `a` and `a` passed the constraints, then `b`
/// passed them too, because each constraint bounds an objective on
/// which `b` is at least as good. Consequently
/// `frontier(kept) = frontier(domain) ∩ kept` **exactly** (membership
/// and tie handling) for any domain between the kept set and every
/// eligible build: a dominated point stays dominated by a kept
/// dominator, and no new frontier point can appear. Plans with one
/// objective set (e.g. a Table II budget sweep) therefore share **one**
/// skyline over the union of what they kept, plus one O(n)
/// intersection each.
fn frontier_reducible(plan: &QueryPlan) -> bool {
    plan.constraints().iter().all(|c| match c {
        Constraint::FeasibleOnly => true,
        Constraint::MinVelocity(_) => plan.objectives().contains(&Objective::SafeVelocity),
        Constraint::MaxTotalTdp(_) => plan.objectives().contains(&Objective::TotalTdp),
        Constraint::MaxPayload(_) => plan.objectives().contains(&Objective::PayloadMass),
    })
}

/// One plan of the group, as the run loop reads it.
struct Member {
    /// The constraints every candidate of a (sensor, compute) pair meets
    /// or fails together (`MaxTotalTdp`, `MaxPayload`, `FeasibleOnly`),
    /// decided once per run.
    pair_constraints: Vec<Constraint>,
    /// The `MinVelocity` constraints, decided per candidate.
    floors: Vec<Constraint>,
    /// The value set whose rows this plan keeps a subset of.
    set: usize,
    stream: bool,
    /// The frontier group whose skyline this plan reads (`None` without
    /// a frontier pass).
    group: Option<usize>,
}

/// Plans with one objective list and mission profile compute identical
/// rows, so a shard computes and stores one row per candidate any of
/// them keeps, and each plan records which rows it kept.
struct ValueSet<'p> {
    objectives: &'p [Objective],
    /// Index into the group's distinct mission profiles, for plans with
    /// a power-model objective.
    profile: Option<usize>,
    members: Vec<usize>,
    /// Whether a retaining plan reads the rows after the shard; a set of
    /// streaming plans drops them once each plan reduced its share.
    retained: bool,
}

/// One frontier group: plans whose kept rows reduce through one skyline.
struct FrontierGroup {
    /// The key order, the first member's objectives.
    objectives: Vec<Objective>,
    /// The members' mission profile, when their objectives need one.
    profile: Option<usize>,
    /// `Some((objective-set bitmask, profile))` for a group of
    /// frontier-reducible plans, which later such plans may join.
    shared: Option<(u8, Option<usize>)>,
    /// The plans that read this skyline, possibly from several value
    /// sets (one objective set ranked in different orders).
    members: Vec<usize>,
}

/// One distinct mission profile's power state on the current run.
struct ProfilePower {
    profile: MissionProfile,
    wants_endurance: bool,
    /// Whether `power`, `endurance` and `energies` describe the current
    /// run; they are built when a plan of the profile keeps one of its
    /// candidates, so a fully dropped pair builds no power model.
    ready: bool,
    power: Option<PowerModel>,
    endurance: f64,
    /// The run's mission energies, one per candidate.
    energies: Vec<f64>,
}

impl ProfilePower {
    fn new(profile: MissionProfile, wants_endurance: bool) -> Self {
        Self {
            profile,
            wants_endurance,
            ready: false,
            power: None,
            endurance: 0.0,
            energies: Vec::new(),
        }
    }

    /// Builds the pair's power model and hover endurance — the same
    /// construction for every plan of the profile; every argument is
    /// pair-level, which is what lets it hoist — and the energies of the
    /// run's `velocities`.
    fn prepare(
        &mut self,
        stage: &PairStage,
        airframe: &Airframe,
        battery_wh: Option<f64>,
        velocities: &[MetersPerSecond],
    ) -> Result<(), SkylineError> {
        self.ready = true;
        self.power = if stage.feasible() {
            Some(crate::mission::power_model_for_parts(
                airframe,
                airframe.takeoff_mass(stage.payload()),
                stage.total_tdp(),
                self.profile.figure_of_merit,
                self.profile.parasitic_coeff,
            )?)
        } else {
            None
        };
        self.endurance = 0.0;
        if self.wants_endurance {
            if let Some(p) = &self.power {
                // analyze::allow(panic, reason = "plan validation rejects endurance plans without a battery, and a pass shares its battery")
                let wh = battery_wh.expect("endurance plans mount a battery");
                self.endurance = hover_endurance(p, wh, self.profile.battery_reserve)?.get();
            }
        }
        let mut energies = std::mem::take(&mut self.energies);
        energies.clear();
        energies.extend(velocities.iter().map(|&v| self.energy(v)));
        self.energies = energies;
        Ok(())
    }

    /// The mission energy per km at cruise velocity `v`.
    #[inline]
    fn energy(&self, v: MetersPerSecond) -> f64 {
        match &self.power {
            Some(p) if v.get() > 0.0 => p.power_at(v).get() * (1000.0 / v.get()) / 3600.0,
            _ => f64::INFINITY,
        }
    }
}

/// Which of a run's candidates a plan admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admits {
    /// None: a pair-level constraint fails.
    Nothing,
    /// All: the pair-level constraints hold, and the plan sets no
    /// velocity floor.
    Everything,
    /// Those its velocity floors admit, per the plan's run mask.
    Masked,
}

/// A run's per-candidate state, reused from run to run of a shard.
struct RunScratch {
    velocities: Vec<MetersPerSecond>,
    /// Per plan, which of the run's candidates it admits.
    admits: Vec<Admits>,
    /// Per plan, its velocity floors' verdict per candidate, read when
    /// it admits [`Admits::Masked`].
    masks: Vec<Vec<bool>>,
    /// A value set's kept candidates, as run positions.
    kept: Vec<u32>,
}

impl RunScratch {
    /// Whether plan `m` admits run candidate `i`.
    // analyze::allow(indexing, scope = "fn", reason = "m indexes the group's plans and i the current run, which size the admits and masks")
    #[inline]
    fn admits(&self, m: usize, i: usize) -> bool {
        match self.admits[m] {
            Admits::Nothing => false,
            Admits::Everything => true,
            Admits::Masked => self.masks[m][i],
        }
    }

    /// Whether plan `m` admits any candidate of the run.
    // analyze::allow(indexing, scope = "fn", reason = "m indexes the group's plans, which size the admits and masks")
    fn admits_any(&self, m: usize) -> bool {
        match self.admits[m] {
            Admits::Nothing => false,
            Admits::Everything => true,
            Admits::Masked => self.masks[m].contains(&true),
        }
    }

    /// The run positions any of `members` admits, into `kept`.
    // analyze::allow(indexing, scope = "fn", reason = "members index the group's plans, which size the admits")
    fn keep(&mut self, members: &[usize]) {
        let mut kept = std::mem::take(&mut self.kept);
        kept.clear();
        let n = self.velocities.len() as u32;
        if members
            .iter()
            .any(|&m| self.admits[m] == Admits::Everything)
        {
            kept.extend(0..n);
        } else if members.iter().any(|&m| self.admits[m] == Admits::Masked) {
            kept.extend((0..n).filter(|&i| members.iter().any(|&m| self.admits(m, i as usize))));
        }
        self.kept = kept;
    }
}

/// A pass's plans as its runs read them.
struct Plans<'p> {
    members: Vec<Member>,
    sets: Vec<ValueSet<'p>>,
    groups: Vec<FrontierGroup>,
}

/// One run: the consecutive candidates of one (sensor, compute) pair in
/// a shard, one per characterized algorithm, sharing its pair stage.
struct Run<'r> {
    stage: &'r PairStage,
    /// The run's pairs, in enumeration order.
    pairs: &'r [PairEntry],
    /// The shard-local index of the run's first candidate.
    local: u32,
    /// The job of the run's first candidate.
    job: u64,
}

/// One shard's state as its runs fill it.
struct ShardState {
    slabs: Vec<SetSlab>,
    shares: Vec<Share>,
    skylines: Vec<frontier::PrefilteredSkyline>,
    powers: Vec<ProfilePower>,
    scratch: RunScratch,
}

impl ShardState {
    /// Scores `run` for every plan of the pass: the run's Eq. 4
    /// velocities and, for a profile a plan keeps a candidate of, its
    /// energies, each in one loop over the run; each plan's pair-level
    /// constraints once and its velocity floors per candidate; each value
    /// set's rows, with the pair-constant columns filled in bulk; and
    /// each frontier group's offers, in ascending job order.
    // analyze::allow(indexing, scope = "fn", reason = "plan, set, group and profile positions index the lists built with the plans; run positions index the run's scratch")
    // analyze::allow(panic, scope = "fn", reason = "sets and groups with a power-model objective carry a mission profile")
    fn run(
        &mut self,
        plans: &Plans<'_>,
        run: Run<'_>,
        airframe: &Airframe,
        battery_wh: Option<f64>,
    ) -> Result<(), SkylineError> {
        let Self {
            slabs,
            shares,
            skylines,
            powers,
            scratch,
        } = self;
        let stage = run.stage;
        stage.velocities(
            run.pairs.iter().map(|p| p.throughput),
            &mut scratch.velocities,
        )?;
        let n = scratch.velocities.len();
        let pair = Scored {
            feasible: stage.feasible(),
            velocity: MetersPerSecond::ZERO,
            total_tdp: stage.total_tdp(),
            payload: stage.payload(),
        };

        for (m, member) in plans.members.iter().enumerate() {
            scratch.admits[m] = if !member
                .pair_constraints
                .iter()
                .all(|c| c.admits_scored(&pair))
            {
                Admits::Nothing
            } else if member.floors.is_empty() {
                Admits::Everything
            } else {
                let mask = &mut scratch.masks[m];
                mask.clear();
                mask.extend(scratch.velocities.iter().map(|&velocity| {
                    let scored = Scored { velocity, ..pair };
                    member.floors.iter().all(|c| c.admits_scored(&scored))
                }));
                Admits::Masked
            };
        }
        for power in powers.iter_mut() {
            power.ready = false;
        }
        for set in &plans.sets {
            let Some(p) = set.profile else {
                continue;
            };
            if !powers[p].ready && set.members.iter().any(|&m| scratch.admits_any(m)) {
                powers[p].prepare(stage, airframe, battery_wh, &scratch.velocities)?;
            }
        }

        let (tdp, payload) = (pair.total_tdp.get(), pair.payload.get());
        // A row is finite when its pair-constant values are and, with the
        // energy objective, its energy is: a velocity is finite by
        // construction.
        let finite = |pair_finite: bool, energies: Option<&[f64]>, i: u32| {
            pair_finite && energies.map_or(true, |e| e[i as usize].is_finite())
        };
        for (set, slab) in plans.sets.iter().zip(slabs.iter_mut()) {
            scratch.keep(&set.members);
            let kept = &scratch.kept;
            let power = set.profile.map(|p| &powers[p]);
            let base = slab.jobs.len() as u32;
            let mut pair_finite = true;
            let mut energies = None;
            // The whole run, or the candidates a velocity floor admits.
            let whole = kept.len() == n;
            for (col, &objective) in slab.cols.iter_mut().zip(set.objectives) {
                let constant = match objective {
                    Objective::SafeVelocity => {
                        let velocities = &scratch.velocities;
                        if whole {
                            col.extend(velocities.iter().map(|v| v.get()));
                        } else {
                            col.extend(kept.iter().map(|&i| velocities[i as usize].get()));
                        }
                        continue;
                    }
                    Objective::MissionEnergyWhPerKm => {
                        let e = &power.expect("power sets carry a profile").energies;
                        if whole {
                            col.extend_from_slice(e);
                        } else {
                            col.extend(kept.iter().map(|&i| e[i as usize]));
                        }
                        energies = Some(&e[..]);
                        continue;
                    }
                    Objective::TotalTdp => tdp,
                    Objective::PayloadMass => payload,
                    Objective::HoverEnduranceMin => {
                        power.expect("power sets carry a profile").endurance
                    }
                };
                col.extend(std::iter::repeat(constant).take(kept.len()));
                pair_finite &= constant.is_finite();
            }
            slab.feasible
                .extend(std::iter::repeat(pair.feasible).take(kept.len()));
            slab.jobs
                .extend(kept.iter().map(|&i| run.job + u64::from(i)));
            // The set's kept rows that are feasible but not finite, counted
            // once for every plan that keeps them all.
            let nonfinite = || {
                if pair.feasible {
                    kept.iter()
                        .filter(|&&i| !finite(pair_finite, energies, i))
                        .count()
                } else {
                    0
                }
            };
            let mut whole_nonfinite = None;
            for &m in &set.members {
                let share = &mut shares[m];
                let admitted = match scratch.admits[m] {
                    Admits::Nothing => 0,
                    Admits::Everything => {
                        if let Some(rows) = &mut share.rows {
                            rows.extend(base..base + kept.len() as u32);
                        }
                        share.nonfinite += *whole_nonfinite.get_or_insert_with(nonfinite);
                        kept.len()
                    }
                    Admits::Masked => {
                        let mut admitted = 0;
                        for (r, &i) in (base..).zip(kept) {
                            if !scratch.admits(m, i as usize) {
                                continue;
                            }
                            admitted += 1;
                            if let Some(rows) = &mut share.rows {
                                rows.push(r);
                            }
                            if pair.feasible && !finite(pair_finite, energies, i) {
                                share.nonfinite += 1;
                            }
                        }
                        admitted
                    }
                };
                share.dropped += n - admitted;
            }
        }

        // Offers, group by group: a group's plans can keep rows in
        // several value sets, and its skyline takes each candidate any of
        // them keeps once, in job order.
        if !pair.feasible {
            return Ok(());
        }
        for (group, skyline) in plans.groups.iter().zip(skylines.iter_mut()) {
            scratch.keep(&group.members);
            if scratch.kept.is_empty() {
                continue;
            }
            let power = group.profile.map(|p| &powers[p]);
            let mut key = [0.0f64; MAX_OBJECTIVES];
            let (mut velocity_slot, mut energy_slot) = (None, None);
            let mut pair_finite = true;
            for (j, (slot, &objective)) in key.iter_mut().zip(&group.objectives).enumerate() {
                let constant = match objective {
                    Objective::SafeVelocity => {
                        velocity_slot = Some(j);
                        continue;
                    }
                    Objective::MissionEnergyWhPerKm => {
                        energy_slot = Some(j);
                        continue;
                    }
                    Objective::TotalTdp => tdp,
                    Objective::PayloadMass => payload,
                    Objective::HoverEnduranceMin => {
                        power.expect("power groups carry a profile").endurance
                    }
                };
                *slot = objective.minimized(constant);
                pair_finite &= constant.is_finite();
            }
            let energies =
                energy_slot.map(|_| &power.expect("power groups carry a profile").energies[..]);
            for &i in &scratch.kept {
                if !finite(pair_finite, energies, i) {
                    continue;
                }
                if let Some(j) = velocity_slot {
                    key[j] =
                        Objective::SafeVelocity.minimized(scratch.velocities[i as usize].get());
                }
                if let (Some(j), Some(e)) = (energy_slot, energies) {
                    key[j] = Objective::MissionEnergyWhPerKm.minimized(e[i as usize]);
                }
                skyline.offer(run.local + i, &key);
            }
        }
        Ok(())
    }
}

/// A value set's rows of one shard, struct-of-arrays: one value column
/// per objective, the feasibility mask and each row's job, ascending.
struct SetSlab {
    cols: Vec<Vec<f64>>,
    feasible: Vec<bool>,
    jobs: Vec<u64>,
}

/// One plan's share of a shard's [`SetSlab`].
struct Share {
    dropped: usize,
    nonfinite: usize,
    /// The set rows the plan kept, ascending; `None` when the plan is its
    /// set's only member, which keeps every row.
    rows: Option<Vec<u32>>,
    /// The plan's kept rows on the local skyline of its frontier group,
    /// as ascending positions among its kept rows.
    frontier: Vec<u32>,
}

impl Share {
    /// Number of kept rows.
    fn kept(&self, slab: &SetSlab) -> usize {
        self.rows.as_ref().map_or(slab.jobs.len(), Vec::len)
    }

    /// The set row of kept row `i`.
    // analyze::allow(indexing, scope = "fn", reason = "i < kept(): callers enumerate the plan's kept rows")
    fn row(&self, i: usize) -> usize {
        self.rows.as_ref().map_or(i, |rows| rows[i] as usize)
    }

    /// Kept row `i` as a survivor.
    // analyze::allow(indexing, scope = "fn", reason = "row(i) is a row of the slab; every column has one entry per row")
    fn survivor(&self, slab: &SetSlab, i: u32) -> Survivor {
        let r = self.row(i as usize);
        let mut row = [0.0f64; MAX_OBJECTIVES];
        for (slot, col) in row.iter_mut().zip(&slab.cols) {
            *slot = col[r];
        }
        Survivor {
            local: i,
            job: slab.jobs[r],
            row,
            feasible: slab.feasible[r],
        }
    }

    /// The best [`STREAM_TOP_K`] kept rows under the rank order
    /// restricted to this shard (feasible first, the primary objective,
    /// enumeration ties), in rank order.
    // analyze::allow(indexing, scope = "fn", reason = "row() maps kept rows to rows of the slab")
    fn topk(&self, slab: &SetSlab, primary_max: bool) -> Vec<u32> {
        let rank = |&a: &u32, &b: &u32| {
            let (ra, rb) = (self.row(a as usize), self.row(b as usize));
            rank_order(
                primary_max,
                (slab.feasible[ra], a as usize),
                (slab.feasible[rb], b as usize),
                || (slab.cols[0][ra], slab.cols[0][rb]),
            )
        };
        let mut order: Vec<u32> = (0..self.kept(slab) as u32).collect();
        // Partition the best K in O(n), then sort just those — the rank
        // comparator is total (index tiebreak), so this equals the full
        // sort-and-truncate exactly.
        if order.len() > STREAM_TOP_K {
            order.select_nth_unstable_by(STREAM_TOP_K - 1, rank);
            order.truncate(STREAM_TOP_K);
        }
        order.sort_unstable_by(rank);
        order
    }
}

/// A row a streaming shard retained.
struct Survivor {
    local: u32,
    job: u64,
    row: [f64; MAX_OBJECTIVES],
    feasible: bool,
}

/// One streaming plan's reduction of a shard: accounting plus the
/// bounded survivor sets.
struct Reduced {
    kept: usize,
    dropped: usize,
    nonfinite: usize,
    /// Local frontier, ascending local index.
    frontier: Vec<Survivor>,
    /// Local bounded top-k, rank order.
    topk: Vec<Survivor>,
}

/// One plan's part of an evaluated shard.
enum Part {
    Retained(Share),
    Streamed(Reduced),
}

/// One evaluated shard: each value set's rows (`None` once only
/// streaming plans read them), each plan's part, and each frontier
/// group's local skyline as jobs with their keys (row-major).
struct ShardOut {
    slabs: Vec<Option<SetSlab>>,
    parts: Vec<Part>,
    skylines: Vec<(Vec<u64>, Vec<f64>)>,
}

/// Runs a group of plans with one evaluation signature (see
/// `session::same_pass`) through the shard kernel over the first plan's
/// resolved space, frontier pass included; see [`run_over`].
///
/// # Errors
///
/// As [`run_over`], and [`SkylineError::KnobVariant`] for an
/// out-of-domain sweep variant.
pub(crate) fn run(
    state: &EpochState,
    plans: &[&QueryPlan],
) -> Result<Vec<ResultSet>, SkylineError> {
    match plans.first() {
        Some(first) => run_over(
            Arc::new(PassSpace::resolve(state, first)?),
            state,
            plans,
            true,
        ),
        None => Ok(Vec::new()),
    }
}

/// Runs plans that share `space`'s evaluation signature through the
/// shard kernel, one result per plan in order: a retained [`ResultSet`]
/// (every kept row) or a streamed one (exact frontier, exact bounded
/// top-k, exact accounting), as each plan's [`KeepPoints`] policy
/// decides. Without a frontier pass every plan retains: delta repair,
/// the one caller that skips the frontier, reads every row of its
/// slabs.
///
/// # Errors
///
/// Evaluation-kernel model errors ([`SkylineError::Model`]), which
/// catalog parts and validated variants never produce.
// analyze::allow(indexing, scope = "fn", reason = "kernel: positions index the part lists, slabs, sets and groups they were enumerated from")
// analyze::allow(panic, scope = "fn", reason = "a space whose block exceeds the u32 shard coordinates is refused up front, the one assert; pair stages, profile slots and merged result slots are set before use; job positions are usizes, at most 64 bits wide")
pub(crate) fn run_over(
    space: Arc<PassSpace>,
    state: &EpochState,
    plans: &[&QueryPlan],
    with_frontier: bool,
) -> Result<Vec<ResultSet>, SkylineError> {
    let settings = space.settings.len();
    let cand_count = space.cand_count();
    let job_count = space.job_count();
    assert!(
        cand_count <= u32::MAX as usize,
        "per-block candidate space exceeds the shard kernel's u32 coordinates"
    );
    let battery_wh = plans
        .first()
        .and_then(|plan| plan.battery())
        .map(|id| state.catalog().battery_by_id(id).energy_watt_hours());

    // Distinct mission profiles of the power-needing plans, the value
    // sets, and the frontier groups: the frontier-reducible plans of
    // one objective set (and profile, when it shapes the values) share
    // one.
    let mut profiles: Vec<(MissionProfile, bool)> = Vec::new();
    let mut sets: Vec<ValueSet<'_>> = Vec::new();
    let mut groups: Vec<FrontierGroup> = Vec::new();
    let mut members: Vec<Member> = Vec::with_capacity(plans.len());
    for (m, plan) in plans.iter().enumerate() {
        let objectives = plan.objectives();
        let profile = plan.needs_power().then(|| {
            let profile = plan.mission_profile();
            let slot = profiles
                .iter()
                .position(|&(p, _)| p == profile)
                .unwrap_or_else(|| {
                    profiles.push((profile, false));
                    profiles.len() - 1
                });
            profiles[slot].1 |= objectives.contains(&Objective::HoverEnduranceMin);
            slot
        });
        let stream = with_frontier && streams(plan.keep_points(), job_count);
        let set = match sets
            .iter()
            .position(|v| v.objectives == objectives && v.profile == profile)
        {
            Some(set) => set,
            None => {
                sets.push(ValueSet {
                    objectives,
                    profile,
                    members: Vec::new(),
                    retained: false,
                });
                sets.len() - 1
            }
        };
        sets[set].members.push(m);
        sets[set].retained |= !stream;
        let mask = objectives
            .iter()
            .fold(0u8, |mask, o| mask | 1 << o.all_index());
        let shared = frontier_reducible(plan).then_some((mask, profile));
        let group = with_frontier.then(|| {
            match groups
                .iter()
                .position(|g| shared.is_some() && g.shared == shared)
            {
                Some(g) => g,
                None => {
                    groups.push(FrontierGroup {
                        objectives: objectives.to_vec(),
                        profile,
                        shared,
                        members: Vec::new(),
                    });
                    groups.len() - 1
                }
            }
        });
        if let Some(g) = group {
            groups[g].members.push(m);
        }
        let (floors, pair_constraints) = plan
            .constraints()
            .iter()
            .partition(|c| matches!(c, Constraint::MinVelocity(_)));
        members.push(Member {
            pair_constraints,
            floors,
            set,
            stream,
            group,
        });
    }
    let group_plans = Plans {
        members,
        sets,
        groups,
    };
    let Plans {
        members,
        sets,
        groups,
    } = &group_plans;

    // An empty space has no shards, and the merge of none is the empty
    // result of either mode.
    let shards_per_block = cand_count.div_ceil(SHARD_SIZE);
    let shard_count = space.airframes.len() * settings * shards_per_block;
    let pair_count = space.pairs.len();
    // Where the run of each pair ends: the pair list is compute-major,
    // so one compute's pairs are one sensor's run on it.
    let mut run_ends = vec![pair_count; pair_count];
    for p in (1..pair_count).rev() {
        run_ends[p - 1] = if space.pairs[p - 1].compute_pos == space.pairs[p].compute_pos {
            run_ends[p]
        } else {
            p
        };
    }

    let eval_shard = |shard: usize| -> Result<ShardOut, SkylineError> {
        let block = shard / shards_per_block;
        let start = (shard % shards_per_block) * SHARD_SIZE;
        let end = (start + SHARD_SIZE).min(cand_count);
        let (airframe_pos, setting_pos) = (block / settings, block % settings);
        let parts = &space.variants[setting_pos];
        let airframe = space.airframe(airframe_pos, setting_pos);
        let first_job = u64::try_from(block * cand_count + start).expect("job indices fit u64");

        let cap = end - start;
        let mut state = ShardState {
            slabs: sets
                .iter()
                .map(|set| SetSlab {
                    cols: (0..set.objectives.len())
                        .map(|_| Vec::with_capacity(cap))
                        .collect(),
                    feasible: Vec::with_capacity(cap),
                    jobs: Vec::with_capacity(cap),
                })
                .collect(),
            shares: members
                .iter()
                .map(|member| Share {
                    dropped: 0,
                    nonfinite: 0,
                    rows: (sets[member.set].members.len() > 1).then(Vec::new),
                    frontier: Vec::new(),
                })
                .collect(),
            skylines: groups
                .iter()
                .map(|g| frontier::PrefilteredSkyline::new(g.objectives.len()))
                .collect(),
            powers: profiles
                .iter()
                .map(|&(profile, wants_endurance)| ProfilePower::new(profile, wants_endurance))
                .collect(),
            scratch: RunScratch {
                velocities: Vec::new(),
                admits: vec![Admits::Nothing; members.len()],
                masks: members.iter().map(|_| Vec::new()).collect(),
                kept: Vec::new(),
            },
        };

        // One run per (sensor, compute) pair, clipped to the shard: a
        // pair that straddles a shard boundary is two runs, one in each
        // shard, and each builds its own pair stage.
        let mut c = start;
        while c < end {
            let (sensor_pos, first) = (c / pair_count, c % pair_count);
            let pairs = &space.pairs[first..run_ends[first].min(first + (end - c))];
            let stage = pair_stage(
                &space.heatsink,
                space.saturation,
                airframe,
                &parts.sensors[sensor_pos],
                &parts.computes[pairs[0].compute_pos as usize],
                parts.extra_payload,
            )?;
            let local = (c - start) as u32;
            state.run(
                &group_plans,
                Run {
                    stage: &stage,
                    pairs,
                    local,
                    job: first_job + u64::from(local),
                },
                airframe,
                battery_wh,
            )?;
            c += pairs.len();
        }
        let ShardState {
            slabs,
            shares,
            skylines,
            ..
        } = state;

        // Each group's local skyline as jobs, and each plan's local
        // frontier: the skyline members it kept, as kept-row positions.
        let skylines: Vec<(Vec<u64>, Vec<f64>)> = skylines
            .into_iter()
            .map(|skyline| {
                let (ids, keys) = skyline.finish();
                (
                    ids.into_iter()
                        .map(|id| first_job + u64::from(id))
                        .collect(),
                    keys,
                )
            })
            .collect();
        let parts: Vec<Part> = members
            .iter()
            .zip(shares)
            .map(|(member, mut share)| {
                let slab = &slabs[member.set];
                if let Some(g) = member.group {
                    let kept = share.kept(slab);
                    let mut i = 0usize;
                    for &survivor in &skylines[g].0 {
                        while i < kept && slab.jobs[share.row(i)] < survivor {
                            i += 1;
                        }
                        if i < kept && slab.jobs[share.row(i)] == survivor {
                            share.frontier.push(i as u32);
                        }
                    }
                }
                if !member.stream {
                    return Part::Retained(share);
                }
                // Streaming: reduce to the local frontier and bounded
                // top-k.
                let primary_max = sets[member.set].objectives[0].maximize();
                Part::Streamed(Reduced {
                    kept: share.kept(slab),
                    dropped: share.dropped,
                    nonfinite: share.nonfinite,
                    frontier: share
                        .frontier
                        .iter()
                        .map(|&i| share.survivor(slab, i))
                        .collect(),
                    topk: share
                        .topk(slab, primary_max)
                        .into_iter()
                        .map(|i| share.survivor(slab, i))
                        .collect(),
                })
            })
            .collect();
        let slabs = sets
            .iter()
            .zip(slabs)
            .map(|(set, slab)| set.retained.then_some(slab))
            .collect();
        Ok(ShardOut {
            slabs,
            parts,
            skylines,
        })
    };

    // One shard per work-stealing chunk: shards are already chunk-sized
    // (≤ SHARD_SIZE jobs), so finer chunking would only split reducers.
    // A one-shard space runs on the calling thread.
    let outs: Vec<ShardOut> = parallel_map_indices(shard_count, 1, eval_shard)
        .into_iter()
        .collect::<Result<_, _>>()?;

    // Transpose to per-set slabs and per-plan parts, in shard order.
    let mut set_slabs: Vec<Vec<SetSlab>> = sets.iter().map(|_| Vec::new()).collect();
    let mut plan_parts: Vec<Vec<Part>> = members.iter().map(|_| Vec::new()).collect();
    let mut group_keys: Vec<(Vec<u64>, Vec<f64>)> =
        groups.iter().map(|_| (Vec::new(), Vec::new())).collect();
    for out in outs {
        for (slabs, slab) in set_slabs.iter_mut().zip(out.slabs) {
            slabs.extend(slab);
        }
        for (parts, part) in plan_parts.iter_mut().zip(out.parts) {
            parts.push(part);
        }
        for ((jobs, keys), (shard_jobs, shard_keys)) in group_keys.iter_mut().zip(out.skylines) {
            jobs.extend(shard_jobs);
            keys.extend(shard_keys);
        }
    }
    // Each group's frontier: the skyline of the shards' local skylines,
    // as ascending jobs.
    let group_frontiers: Vec<Vec<u64>> = groups
        .iter()
        .zip(&group_keys)
        .map(|(group, (jobs, keys))| {
            frontier::pareto_min(group.objectives.len(), keys)
                .into_iter()
                .map(|i| jobs[i])
                .collect()
        })
        .collect();
    let frontier_of = |m: usize| members[m].group.map_or(&[][..], |g| &group_frontiers[g]);
    let objectives_of = |m: usize| sets[members[m].set].objectives.to_vec();

    let mut results: Vec<Option<ResultSet>> = members.iter().map(|_| None).collect();
    let mut gathered: Vec<usize> = Vec::new();
    for (m, (member, parts)) in members.iter().zip(&mut plan_parts).enumerate() {
        if member.stream {
            results[m] = Some(merge_streamed(
                objectives_of(m),
                &space,
                std::mem::take(parts),
                frontier_of(m),
            ));
        } else if sets[member.set].members.len() > 1 {
            gathered.push(m);
        }
    }
    // Retaining plans of a shared set gather their rows from the set's
    // slabs, in parallel: each writes fresh columns of its own.
    let gathers = parallel_map_indices(gathered.len(), 1, |i| {
        let m = gathered[i];
        let slabs = &set_slabs[members[m].set];
        let shares = retained_shares(&plan_parts[m]);
        let (total, dropped, nonfinite, frontier) = tally(slabs, &shares, frontier_of(m));
        let k = slabs.first().map_or(0, |slab| slab.cols.len());
        let mut columns: Vec<Vec<f64>> = (0..k).map(|_| Vec::with_capacity(total)).collect();
        let mut feasible = Vec::with_capacity(total);
        let mut jobs = Vec::with_capacity(total);
        for (slab, share) in slabs.iter().zip(&shares) {
            let rows = share.rows.as_deref().unwrap_or_default();
            for (column, col) in columns.iter_mut().zip(&slab.cols) {
                column.extend(rows.iter().map(|&r| col[r as usize]));
            }
            feasible.extend(rows.iter().map(|&r| slab.feasible[r as usize]));
            jobs.extend(rows.iter().map(|&r| slab.jobs[r as usize]));
        }
        ResultSet::retained(
            objectives_of(m),
            Arc::clone(&space),
            jobs,
            columns,
            feasible,
            frontier,
            space.uncharacterized,
            dropped,
            nonfinite,
        )
    });
    for (&m, result) in gathered.iter().zip(gathers) {
        results[m] = Some(result);
    }
    // A set's only plan takes its slabs: the first shard's columns grow
    // in place and the rest append, so shard 0's rows are never copied.
    for (set, slabs) in sets.iter().zip(set_slabs) {
        let [m] = set.members[..] else {
            continue;
        };
        if members[m].stream {
            continue;
        }
        let shares = retained_shares(&plan_parts[m]);
        let (total, dropped, nonfinite, frontier) = tally(&slabs, &shares, frontier_of(m));
        let mut slabs = slabs.into_iter();
        let (mut columns, mut feasible, mut jobs) = match slabs.next() {
            Some(slab) => (slab.cols, slab.feasible, slab.jobs),
            None => (
                vec![Vec::new(); set.objectives.len()],
                Vec::new(),
                Vec::new(),
            ),
        };
        for column in &mut columns {
            column.reserve_exact(total - column.len());
        }
        feasible.reserve_exact(total - feasible.len());
        jobs.reserve_exact(total - jobs.len());
        for slab in slabs {
            for (column, col) in columns.iter_mut().zip(&slab.cols) {
                column.extend_from_slice(col);
            }
            feasible.extend_from_slice(&slab.feasible);
            jobs.extend_from_slice(&slab.jobs);
        }
        for column in &mut columns {
            column.shrink_to_fit();
        }
        feasible.shrink_to_fit();
        jobs.shrink_to_fit();
        results[m] = Some(ResultSet::retained(
            set.objectives.to_vec(),
            Arc::clone(&space),
            jobs,
            columns,
            feasible,
            frontier,
            space.uncharacterized,
            dropped,
            nonfinite,
        ));
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every plan's result was merged"))
        .collect())
}

/// A retaining plan's shares, in shard order.
fn retained_shares(parts: &[Part]) -> Vec<&Share> {
    parts
        .iter()
        .filter_map(|part| match part {
            Part::Retained(share) => Some(share),
            Part::Streamed(_) => None,
        })
        .collect()
}

/// A retaining plan's accounting over its shard shares: kept rows,
/// dropped, nonfinite, and its frontier as global indices — the local
/// frontier rows whose job is on the group's `frontier` (ascending).
// analyze::allow(indexing, scope = "fn", reason = "local frontier positions index the plan's kept rows of each slab")
fn tally(
    slabs: &[SetSlab],
    shares: &[&Share],
    frontier: &[u64],
) -> (usize, usize, usize, Vec<usize>) {
    let (mut total, mut dropped, mut nonfinite) = (0usize, 0usize, 0usize);
    let mut candidates: Vec<(u64, usize)> = Vec::new();
    for (slab, share) in slabs.iter().zip(shares) {
        candidates.extend(
            share
                .frontier
                .iter()
                .map(|&i| (slab.jobs[share.row(i as usize)], total + i as usize)),
        );
        total += share.kept(slab);
        dropped += share.dropped;
        nonfinite += share.nonfinite;
    }
    let frontier = on_frontier(candidates.into_iter(), |&(job, _)| job, frontier)
        .into_iter()
        .map(|(_, index)| index)
        .collect();
    (total, dropped, nonfinite, frontier)
}

/// Keeps the candidates whose job is in `frontier`; both ascend by job.
fn on_frontier<T>(
    candidates: impl Iterator<Item = T>,
    job: impl Fn(&T) -> u64,
    frontier: &[u64],
) -> Vec<T> {
    let mut members = frontier.iter().peekable();
    candidates
        .filter(|candidate| {
            let job = job(candidate);
            while members.next_if(|&&f| f < job).is_some() {}
            members.peek() == Some(&&job)
        })
        .collect()
}

/// The streaming merge of one plan's shard reductions: the exact
/// frontier and top-k, stored rows = frontier ∪ top-k. `frontier` is
/// the plan's frontier group's frontier, as ascending jobs.
// analyze::allow(indexing, scope = "fn", reason = "a plan has a primary objective, and row prefixes are bounded by the objective count")
fn merge_streamed(
    objectives: Vec<Objective>,
    space: &Arc<PassSpace>,
    parts: Vec<Part>,
    frontier: &[u64],
) -> ResultSet {
    let k = objectives.len();
    let reduced: Vec<Reduced> = parts
        .into_iter()
        .filter_map(|part| match part {
            Part::Streamed(reduced) => Some(reduced),
            Part::Retained(_) => None,
        })
        .collect();
    // Global kept indices are a prefix sum over per-shard kept counts.
    let mut offsets = Vec::with_capacity(reduced.len());
    let (mut total_kept, mut dropped, mut nonfinite) = (0usize, 0usize, 0usize);
    for out in &reduced {
        offsets.push(total_kept);
        total_kept += out.kept;
        dropped += out.dropped;
        nonfinite += out.nonfinite;
    }
    let global = |offset: usize, s: &Survivor| offset + s.local as usize;
    let members: Vec<(usize, &Survivor)> = on_frontier(
        reduced
            .iter()
            .zip(&offsets)
            .flat_map(|(out, &offset)| out.frontier.iter().map(move |s| (global(offset, s), s))),
        |&(_, s)| s.job,
        frontier,
    );

    // Exact top-k: the global top-K is a subset of the union of shard
    // top-Ks (each shard kept the best K under the restriction of the
    // global order), so sort-and-truncate of the union is the exact
    // prefix of the full ranking.
    let primary_max = objectives[0].maximize();
    let mut topk: Vec<(usize, &Survivor)> = reduced
        .iter()
        .zip(&offsets)
        .flat_map(|(out, &offset)| out.topk.iter().map(move |s| (global(offset, s), s)))
        .collect();
    topk.sort_unstable_by(|&(ga, a), &(gb, b)| {
        rank_order(primary_max, (a.feasible, ga), (b.feasible, gb), || {
            (a.row[0], b.row[0])
        })
    });
    topk.truncate(STREAM_TOP_K);

    // Stored rows = frontier ∪ top-k, ascending global index.
    let mut stored: Vec<(usize, &Survivor)> = members.iter().chain(topk.iter()).copied().collect();
    stored.sort_unstable_by_key(|&(g, _)| g);
    stored.dedup_by_key(|&mut (g, _)| g);

    let mut columns: Vec<Vec<f64>> = (0..k).map(|_| Vec::with_capacity(stored.len())).collect();
    for &(_, s) in &stored {
        for (col, &v) in columns.iter_mut().zip(&s.row[..k]) {
            col.push(v);
        }
    }
    let meta = StreamedMeta {
        total_kept,
        stored: stored.iter().map(|&(g, _)| g).collect(),
        topk: topk.iter().map(|&(g, _)| g).collect(),
    };
    ResultSet::retained(
        objectives,
        Arc::clone(space),
        stored.iter().map(|&(_, s)| s.job).collect(),
        columns,
        stored.iter().map(|&(_, s)| s.feasible).collect(),
        members.iter().map(|&(g, _)| g).collect(),
        space.uncharacterized,
        dropped,
        nonfinite,
    )
    .streamed(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::KnobSweep;
    use f1_components::{names, Catalog, CatalogDelta, CatalogStore};

    /// The space of a two-setting sweep at the store's current epoch.
    fn space_at(store: &CatalogStore) -> PassSpace {
        let plan = QueryPlan::builder()
            .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
            .build()
            .unwrap();
        PassSpace::resolve(&EpochState::new(store.current()), &plan).unwrap()
    }

    #[test]
    fn a_space_placed_into_itself_maps_every_job_to_itself() {
        let space = space_at(&CatalogStore::new(Catalog::paper()));
        assert!(space.airframes.len() >= 2 && space.settings.len() == 2);
        let placement = space.index().placement_of(&space);
        let jobs: Vec<u64> = (0..space.job_count() as u64).collect();
        for (&job, coord) in jobs.iter().zip(space.coords(&jobs)) {
            assert_eq!(placement.job(coord), Some(job));
        }
    }

    #[test]
    fn placement_across_a_delta_keeps_survivors_and_drops_the_rest() {
        let store = CatalogStore::new(Catalog::paper());
        let old = space_at(&store);
        let catalog = Arc::clone(store.current().catalog());
        let retired = catalog.sensor_id(names::RGB_60).unwrap();
        let patched = (
            catalog.compute_id(names::TX2).unwrap(),
            catalog.algorithm_id(names::DRONET).unwrap(),
        );
        let delta = CatalogDelta::new()
            .retire_sensor(names::RGB_60)
            .patch_throughput(names::TX2, names::DRONET, Hertz::new(123.0));
        store.apply(&delta).unwrap();
        let new = space_at(&store);
        let placement = new.index().placement_of(&old);
        let jobs: Vec<u64> = (0..old.job_count() as u64).collect();
        let mut placed = 0;
        for coord in old.coords(&jobs) {
            let (airframe, candidate, setting) = old.key(coord);
            let dead =
                candidate.sensor == retired || (candidate.compute, candidate.algorithm) == patched;
            assert_eq!(placement.job(coord).is_none(), dead, "{candidate:?}");
            if let Some(job) = placement.job(coord) {
                assert_eq!(new.key(new.coord(job)), (airframe, candidate, setting));
                placed += 1;
            }
        }
        // Every new job but the re-characterized pair's is a survivor's.
        let repatched = new.airframes.len() * new.settings.len() * new.sensors.len();
        assert_eq!(placed + repatched, new.job_count());
    }
}
