//! The shard kernel: the executor behind every single-plan pass, from a
//! 10⁴-candidate what-if to a 10⁷-candidate streamed query.
//!
//! The kernel splits a plan's evaluation into **(airframe × knob
//! setting)-aligned shards** and runs them in parallel:
//!
//! * **Lazy enumeration.** A candidate is a `sensor × characterized
//!   (compute, algorithm) pair` coordinate decoded on the fly from the
//!   pair list
//!   ([`ThroughputTable::characterized_pairs`](f1_components::ThroughputTable::characterized_pairs)
//!   order) — the cross product is never held in memory.
//! * **Pair hoisting.** Shards never cross an (airframe, setting)
//!   block, and candidates within a block are sensor-major over the
//!   compute-major pair list, so the algorithm-independent
//!   `pair_stage` — payload, dynamics,
//!   safety roofline — and the mission power model are computed once
//!   per (sensor, compute) pair instead of once per candidate.
//! * **Struct-of-arrays slabs.** Within a shard, objective values land
//!   in contiguous per-column `f64` slabs and feasibility in a flat
//!   mask, so the finite/accounting sweeps are branch-light column
//!   scans over dense memory.
//! * **Local skylines.** Each shard reduces its eligible rows to a
//!   local Pareto frontier (a cheap dominance prefilter, then one exact
//!   skyline) before the serial merge.
//!
//! The plan's [`KeepPoints`] policy decides what a shard keeps beyond
//! its counters and local frontier:
//!
//! * **Retaining** (`All`, and `Auto` at or below
//!   [`STREAM_AUTO_THRESHOLD`] jobs): a [`QueryPoint`] for every kept
//!   row next to its column slabs. The merge joins the shards in
//!   enumeration order into the result's one point store, sized to the
//!   kept rows.
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
//!   and the survivors are ascending).
//! * The rank order (feasible first, then the primary objective, ties
//!   by enumeration index) restricted to one shard *is* the shard's
//!   local rank order, so the global top-K is a subset of the union of
//!   per-shard top-Ks and a single merge-sort-and-truncate of that
//!   union is the exact prefix of the full ranking.
//!
//! Batches of two or more plans with one evaluation signature run on
//! the fused shared pass of [`crate::session`] instead, which evaluates
//! each candidate once for the whole batch.
//!
//! Bit-identity between the two modes and with the shared pass is
//! property-tested (`tests/stream_properties.rs`,
//! `tests/session_properties.rs`), an oracle that bypasses the kernel
//! checks both modes (`tests/kernel_oracle.rs`), and the scale target
//! is pinned by `tests/stream_scale.rs`.

use std::borrow::Cow;

use f1_components::{Airframe, AirframeId, AlgorithmId, ComputeId, SensorId};
use f1_model::mission::{hover_endurance, PowerModel};
use f1_units::Hertz;

use crate::dse::{algo_stage, pair_stage, Candidate, PairStage};
use crate::frontier;
use crate::plan::{KeepPoints, QueryPlan};
use crate::query::{Objective, QueryPoint, MAX_OBJECTIVES};
use crate::session::{
    active_ids, build_variants, minimized_row, PassContext, ResultSet, StreamedMeta,
};
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

/// How many recent prefilter survivors each eligible row is probed
/// against before the exact local skyline. Purely a constant-factor
/// dial: any value yields identical results (the prefilter only drops
/// rows a retained row dominates).
const PREFILTER_WINDOW: usize = 16;

/// Job count above which a [`KeepPoints::Auto`] plan streams instead of
/// retaining every point. Below this the full point store costs a few
/// hundred MB at most and callers keep random access; above it,
/// retaining is what makes 10⁷ queries impossible, so streaming wins.
pub const STREAM_AUTO_THRESHOLD: usize = 2_000_000;

/// One characterized (compute, algorithm) pair of the resolved
/// subspace, with the compute's position for variant lookup.
struct PairEntry {
    compute_pos: u32,
    compute: ComputeId,
    algorithm: AlgorithmId,
    throughput: Hertz,
}

/// The resolved (active-filtered) component subspace of a plan plus its
/// characterized pair list — everything needed to decode a flat job
/// index into parts without materializing candidates.
struct Space<'a> {
    airframes: Cow<'a, [AirframeId]>,
    sensors: Cow<'a, [SensorId]>,
    computes: Cow<'a, [ComputeId]>,
    algorithms: Cow<'a, [AlgorithmId]>,
    pairs: Vec<PairEntry>,
}

impl Space<'_> {
    /// Candidates per (airframe, setting) block.
    fn cand_count(&self) -> usize {
        self.sensors.len() * self.pairs.len()
    }

    /// Evaluation jobs over `settings` knob settings.
    fn job_count(&self, settings: usize) -> usize {
        self.airframes.len() * settings * self.cand_count()
    }

    /// Sensor × compute × algorithm combinations skipped because the
    /// pair was never characterized — counted once per subspace, the
    /// same convention as the fused shared pass.
    fn uncharacterized(&self) -> usize {
        self.sensors.len() * self.computes.len() * self.algorithms.len() - self.cand_count()
    }
}

/// Resolves a plan's subspace exactly as the fused shared pass does
/// (explicit plan lists or session defaults, retired components
/// filtered), then snapshots the characterized pair list in the shared
/// compute-major order.
fn resolve_space<'a>(ctx: &PassContext<'a>, plan: &'a QueryPlan) -> Space<'a> {
    let catalog = ctx.catalog;
    let airframes = active_ids(plan.airframes().unwrap_or(ctx.airframes), |id| {
        catalog.airframe_is_active(id)
    });
    let sensors = active_ids(plan.sensors().unwrap_or(ctx.sensors), |id| {
        catalog.sensor_is_active(id)
    });
    let computes = active_ids(plan.computes().unwrap_or(ctx.computes), |id| {
        catalog.compute_is_active(id)
    });
    let algorithms = active_ids(plan.algorithms().unwrap_or(ctx.algorithms), |id| {
        catalog.algorithm_is_active(id)
    });
    let mut pairs = Vec::new();
    for (compute_pos, &compute) in computes.iter().enumerate() {
        for (_, algorithm, throughput) in ctx
            .table
            .characterized_pairs(std::slice::from_ref(&compute), &algorithms)
        {
            pairs.push(PairEntry {
                compute_pos: compute_pos as u32,
                compute,
                algorithm,
                throughput,
            });
        }
    }
    Space {
        airframes,
        sensors,
        computes,
        algorithms,
        pairs,
    }
}

/// The keep-points decision: [`KeepPoints::All`] never streams,
/// [`KeepPoints::FrontierOnly`] always does, and [`KeepPoints::Auto`]
/// streams when the job count (only computed for `Auto`) exceeds
/// [`STREAM_AUTO_THRESHOLD`].
fn streams(keep: KeepPoints, job_count: impl FnOnce() -> usize) -> bool {
    match keep {
        KeepPoints::All => false,
        KeepPoints::FrontierOnly => true,
        KeepPoints::Auto => job_count() > STREAM_AUTO_THRESHOLD,
    }
}

/// Whether a plan runs in streaming mode (see [`streams`]). A streaming
/// plan never joins a shared batch pass.
pub(crate) fn should_stream(ctx: &PassContext<'_>, plan: &QueryPlan) -> bool {
    streams(plan.keep_points(), || {
        resolve_space(ctx, plan).job_count(plan.settings().len())
    })
}

/// One evaluated shard: its counters, struct-of-arrays slabs over its
/// kept rows, and its local Pareto frontier.
struct Slab {
    dropped: usize,
    nonfinite: usize,
    /// One value column per objective, one row per kept candidate.
    cols: Vec<Vec<f64>>,
    feasible: Vec<bool>,
    /// Retaining mode: every kept row's point (empty when streaming).
    points: Vec<QueryPoint>,
    /// Streaming mode: every kept row's in-block candidate coordinate,
    /// from which the few survivors are rebuilt (empty when retaining).
    kept_cand: Vec<u32>,
    /// Local Pareto frontier, ascending kept-row index (empty without a
    /// frontier pass).
    frontier: Vec<u32>,
}

impl Slab {
    /// Number of kept rows.
    fn kept(&self) -> usize {
        self.feasible.len()
    }

    /// Kept row `r`'s objective values.
    fn row(&self, r: u32) -> [f64; MAX_OBJECTIVES] {
        let mut row = [0.0f64; MAX_OBJECTIVES];
        for (slot, col) in row.iter_mut().zip(&self.cols) {
            // analyze::allow(indexing, reason = "r is a kept-row index of this slab; every column has one entry per kept row")
            *slot = col[r as usize];
        }
        row
    }
}

/// A survivor row a streaming shard retained: its local kept index plus
/// everything needed to emit the stored point without re-walking the
/// shard.
struct Survivor {
    local: u32,
    point: QueryPoint,
    row: [f64; MAX_OBJECTIVES],
    feasible: bool,
}

/// One streaming shard's reduction: accounting plus the bounded
/// survivor sets.
struct ShardOut {
    kept: usize,
    dropped: usize,
    nonfinite: usize,
    /// Local Pareto frontier, ascending local index.
    frontier: Vec<Survivor>,
    /// Local bounded top-k, rank order.
    topk: Vec<Survivor>,
}

/// The skyline of the concatenated shard frontiers' objective rows, as
/// positions in `rows` (ascending).
fn merge_frontiers(
    objectives: &[Objective],
    rows: impl Iterator<Item = [f64; MAX_OBJECTIVES]>,
) -> Vec<usize> {
    let mut keys: Vec<f64> = Vec::new();
    for row in rows {
        keys.extend(row.iter().zip(objectives).map(|(&v, o)| o.minimized(v)));
    }
    frontier::pareto_min(objectives.len(), &keys)
}

/// Runs one plan through the shard kernel: a retained [`ResultSet`]
/// (every kept point) or a streamed one (exact frontier, exact bounded
/// top-k, exact accounting, only frontier ∪ top-k points materialized),
/// as the plan's [`KeepPoints`] policy decides.
///
/// # Errors
///
/// [`SkylineError::KnobVariant`] for an out-of-domain sweep variant
/// (before any shard runs), plus evaluation-kernel model errors
/// ([`SkylineError::Model`]), which catalog parts and validated
/// variants never produce.
// analyze::allow(indexing, scope = "fn", reason = "kernel: positions index the part lists and tables they were enumerated from")
pub(crate) fn run(
    ctx: &PassContext<'_>,
    plan: &QueryPlan,
    with_frontier: bool,
) -> Result<ResultSet, SkylineError> {
    let catalog = ctx.catalog;
    let space = resolve_space(ctx, plan);
    let settings = plan.settings();
    let objectives: Vec<Objective> = plan.objectives().to_vec();
    let k = objectives.len();
    let uncharacterized = space.uncharacterized();

    let cand_count = space.cand_count();
    let stream = streams(plan.keep_points(), || space.job_count(settings.len()));
    assert!(
        cand_count <= u32::MAX as usize,
        "per-block candidate space exceeds the shard kernel's u32 coordinates"
    );

    let battery = plan.battery().map(|id| catalog.battery_by_id(id));
    let battery_mass = battery.map_or(0.0, |b| b.mass().get());
    let battery_wh = battery.map(f1_components::Battery::energy_watt_hours);
    let variants = build_variants(
        ctx,
        &space.sensors,
        &space.computes,
        &space.airframes,
        settings,
        battery_mass,
    )?;
    let airframe_refs: Vec<&Airframe> = space
        .airframes
        .iter()
        .map(|&id| catalog.airframe_by_id(id))
        .collect();

    // An empty space has no shards, and the merge of none is the empty
    // result of either mode.
    let shards_per_block = cand_count.div_ceil(SHARD_SIZE);
    let shard_count = space.airframes.len() * settings.len() * shards_per_block;
    let pair_count = space.pairs.len();
    let constraints = plan.constraints();
    let needs_power = plan.needs_power();
    let wants_endurance = objectives.contains(&Objective::HoverEnduranceMin);
    let profile = plan.mission_profile();
    let primary_max = objectives[0].maximize();

    // A shard's (airframe position, setting position, candidate range).
    let locate = |shard: usize| {
        let block = shard / shards_per_block;
        let start = (shard % shards_per_block) * SHARD_SIZE;
        (
            block / settings.len(),
            block % settings.len(),
            start,
            (start + SHARD_SIZE).min(cand_count),
        )
    };
    let airframe_of = |airframe_pos: usize, setting_pos: usize| {
        variants[setting_pos]
            .airframes
            .as_ref()
            .map_or(airframe_refs[airframe_pos], |a| &a[airframe_pos])
    };
    let point_at = |airframe_pos: usize, setting_pos: usize, c: usize, outcome| {
        let sensor_pos = c / pair_count;
        let entry = &space.pairs[c % pair_count];
        QueryPoint {
            airframe: space.airframes[airframe_pos],
            candidate: Candidate {
                sensor: space.sensors[sensor_pos],
                compute: entry.compute,
                algorithm: entry.algorithm,
                throughput: entry.throughput,
            },
            setting: settings[setting_pos],
            outcome,
        }
    };

    let eval_shard = |shard: usize| -> Result<Slab, SkylineError> {
        let (airframe_pos, setting_pos, start, end) = locate(shard);
        let parts = &variants[setting_pos];
        let airframe = airframe_of(airframe_pos, setting_pos);

        // Struct-of-arrays slabs over this shard's kept rows.
        let cap = end - start;
        let mut cols: Vec<Vec<f64>> = (0..k).map(|_| Vec::with_capacity(cap)).collect();
        let mut feasible: Vec<bool> = Vec::with_capacity(cap);
        let mut points: Vec<QueryPoint> = Vec::with_capacity(if stream { 0 } else { cap });
        let mut kept_cand: Vec<u32> = Vec::with_capacity(if stream { cap } else { 0 });
        let mut dropped = 0usize;

        // Per-(sensor, compute) hoisted state: the pair stage, and —
        // deferred to the pair's first *kept* candidate, so a fully
        // dropped pair builds no power model — the mission power model
        // and the pair-constant hover endurance.
        let mut cur_pair = (usize::MAX, u32::MAX);
        let mut pair = None::<PairStage>;
        let mut power: Option<PowerModel> = None;
        let mut power_ready = false;
        let mut endurance = 0.0f64;

        for c in start..end {
            let sensor_pos = c / pair_count;
            let entry = &space.pairs[c % pair_count];
            if cur_pair != (sensor_pos, entry.compute_pos) {
                cur_pair = (sensor_pos, entry.compute_pos);
                pair = Some(pair_stage(
                    ctx.heatsink,
                    ctx.saturation,
                    airframe,
                    &parts.sensors[sensor_pos],
                    &parts.computes[entry.compute_pos as usize],
                    parts.extra_payload,
                )?);
                power = None;
                power_ready = false;
                endurance = 0.0;
            }
            // analyze::allow(panic, reason = "the loop sets `pair` on the first candidate of every (sensor, compute) block")
            let stage = pair.as_ref().expect("pair stage set on first candidate");
            let outcome = algo_stage(
                stage,
                airframe,
                &parts.sensors[sensor_pos],
                entry.throughput,
            )?;
            if !constraints.iter().all(|con| con.admits(&outcome)) {
                dropped += 1;
                continue;
            }
            if needs_power && !power_ready {
                power_ready = true;
                // The shared pass's per-job `fill_values` construction
                // (same argument expressions); every argument is
                // pair-level, which is what lets it hoist.
                power = if stage.feasible() {
                    Some(crate::mission::power_model_for_parts(
                        airframe,
                        airframe.takeoff_mass(stage.payload()),
                        stage.total_tdp(),
                        profile.figure_of_merit,
                        profile.parasitic_coeff,
                    )?)
                } else {
                    None
                };
                if wants_endurance {
                    endurance = match &power {
                        Some(p) => {
                            // analyze::allow(panic, reason = "plan validation rejects endurance plans without a battery")
                            let wh = battery_wh.expect(
                                "plan validation rejects endurance plans without a battery",
                            );
                            hover_endurance(p, wh, profile.battery_reserve)?.get()
                        }
                        None => 0.0,
                    };
                }
            }
            for (col, &objective) in cols.iter_mut().zip(&objectives) {
                col.push(match objective {
                    Objective::SafeVelocity => outcome.velocity.get(),
                    Objective::TotalTdp => outcome.total_tdp.get(),
                    Objective::PayloadMass => outcome.payload.get(),
                    Objective::MissionEnergyWhPerKm => match &power {
                        Some(p) if outcome.velocity.get() > 0.0 => {
                            let v = outcome.velocity;
                            p.power_at(v).get() * (1000.0 / v.get()) / 3600.0
                        }
                        _ => f64::INFINITY,
                    },
                    Objective::HoverEnduranceMin => endurance,
                });
            }
            feasible.push(outcome.feasible);
            if stream {
                kept_cand.push(c as u32);
            } else {
                points.push(point_at(airframe_pos, setting_pos, c, outcome));
            }
        }

        // Columnar finite sweep: a row is frontier-eligible when
        // feasible and every objective value is finite; feasible rows
        // excluded for non-finite values are the `nonfinite` counter.
        let kept = feasible.len();
        let mut finite = vec![true; kept];
        for col in &cols {
            for (flag, v) in finite.iter_mut().zip(col) {
                *flag &= v.is_finite();
            }
        }
        let nonfinite = feasible
            .iter()
            .zip(&finite)
            .filter(|&(&feas, &fin)| feas && !fin)
            .count();

        // Local Pareto frontier over the eligible rows, with a cheap
        // dominance prefilter in front of the exact skyline. Enumeration
        // order visits one (sensor, compute) pair's algorithms
        // back-to-back, so a dominated row's dominator is usually a few
        // rows back: probing the most recent survivors kills most rows
        // in O(window) before the superlinear exact pass. Exactness is
        // preserved — a discarded row is dominated by a *retained* one,
        // so the survivor set's skyline is the full set's skyline.
        let mut local_frontier: Vec<u32> = Vec::new();
        if with_frontier {
            let mut keys: Vec<f64> = Vec::new();
            let mut map: Vec<u32> = Vec::new();
            let mut minkey = [0.0f64; MAX_OBJECTIVES];
            for r in 0..kept {
                if !(feasible[r] && finite[r]) {
                    continue;
                }
                for (slot, v) in minkey.iter_mut().zip(minimized_row(&cols, &objectives, r)) {
                    *slot = v;
                }
                let window = map.len().saturating_sub(PREFILTER_WINDOW);
                let dominated = (window..map.len())
                    .rev()
                    .any(|m| frontier::dominates_min(&keys[m * k..m * k + k], &minkey[..k]));
                if dominated {
                    continue;
                }
                map.push(r as u32);
                keys.extend_from_slice(&minkey[..k]);
            }
            local_frontier = frontier::pareto_min(k, &keys)
                .into_iter()
                .map(|i| map[i])
                .collect();
        }
        Ok(Slab {
            dropped,
            nonfinite,
            cols,
            feasible,
            points,
            kept_cand,
            frontier: local_frontier,
        })
    };

    // One shard per work-stealing chunk: shards are already chunk-sized
    // (≤ SHARD_SIZE jobs), so finer chunking would only split reducers.
    // A one-shard space runs on the calling thread.
    if !stream {
        let slabs: Vec<Slab> = parallel_map_indices(shard_count, 1, eval_shard)
            .into_iter()
            .collect::<Result<_, _>>()?;
        return Ok(merge_retained(objectives, slabs, uncharacterized));
    }

    // Streaming: reduce each shard to its local frontier and bounded
    // top-k, re-deriving only those survivors' outcomes (the same inputs
    // through the same kernel are bit-deterministic).
    let reduce_shard = |shard: usize| -> Result<ShardOut, SkylineError> {
        let slab = eval_shard(shard)?;
        let (airframe_pos, setting_pos, _, _) = locate(shard);
        let parts = &variants[setting_pos];
        let airframe = airframe_of(airframe_pos, setting_pos);

        // Local bounded top-k under the global rank order restricted to
        // this shard (feasible first, primary objective, enumeration
        // ties) — the global index is offset + local, so local order is
        // the restriction of the global order.
        let rank = |a: u32, b: u32| {
            let (a, b) = (a as usize, b as usize);
            slab.feasible[b]
                .cmp(&slab.feasible[a])
                .then_with(|| {
                    let (va, vb) = (slab.cols[0][a], slab.cols[0][b]);
                    if primary_max {
                        vb.total_cmp(&va)
                    } else {
                        va.total_cmp(&vb)
                    }
                })
                .then_with(|| a.cmp(&b))
        };
        let mut order: Vec<u32> = (0..slab.kept() as u32).collect();
        // Partition the best K in O(n), then sort just those — the rank
        // comparator is total (index tiebreak), so this equals the full
        // sort-and-truncate exactly.
        if slab.kept() > STREAM_TOP_K {
            order.select_nth_unstable_by(STREAM_TOP_K - 1, |&a, &b| rank(a, b));
            order.truncate(STREAM_TOP_K);
        }
        order.sort_unstable_by(|&a, &b| rank(a, b));

        let build = |r: u32| -> Result<Survivor, SkylineError> {
            let c = slab.kept_cand[r as usize] as usize;
            let sensor_pos = c / pair_count;
            let entry = &space.pairs[c % pair_count];
            let stage = pair_stage(
                ctx.heatsink,
                ctx.saturation,
                airframe,
                &parts.sensors[sensor_pos],
                &parts.computes[entry.compute_pos as usize],
                parts.extra_payload,
            )?;
            let outcome = algo_stage(
                &stage,
                airframe,
                &parts.sensors[sensor_pos],
                entry.throughput,
            )?;
            Ok(Survivor {
                local: r,
                point: point_at(airframe_pos, setting_pos, c, outcome),
                row: slab.row(r),
                feasible: slab.feasible[r as usize],
            })
        };
        Ok(ShardOut {
            kept: slab.kept(),
            dropped: slab.dropped,
            nonfinite: slab.nonfinite,
            frontier: slab
                .frontier
                .iter()
                .map(|&r| build(r))
                .collect::<Result<_, _>>()?,
            topk: order.iter().map(|&r| build(r)).collect::<Result<_, _>>()?,
        })
    };
    let outs: Vec<ShardOut> = parallel_map_indices(shard_count, 1, reduce_shard)
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(merge_streamed(objectives, &outs, uncharacterized))
}

/// The retaining merge: every shard's points and column slabs joined in
/// shard (= enumeration) order into one store sized to the kept rows,
/// and the frontier merged from the shards' local skylines.
// analyze::allow(indexing, scope = "fn", reason = "merge positions come from pareto_min over the member list built alongside")
fn merge_retained(
    objectives: Vec<Objective>,
    slabs: Vec<Slab>,
    uncharacterized: usize,
) -> ResultSet {
    let mut members: Vec<usize> = Vec::new();
    let mut offset = 0usize;
    for slab in &slabs {
        members.extend(slab.frontier.iter().map(|&r| offset + r as usize));
        offset += slab.kept();
    }
    let rows = slabs
        .iter()
        .flat_map(|slab| slab.frontier.iter().map(|&r| slab.row(r)));
    let frontier = merge_frontiers(&objectives, rows)
        .into_iter()
        .map(|i| members[i])
        .collect();

    let total_kept = offset;
    let mut points: Vec<QueryPoint> = Vec::with_capacity(total_kept);
    let mut columns: Vec<Vec<f64>> = (0..objectives.len())
        .map(|_| Vec::with_capacity(total_kept))
        .collect();
    let (mut dropped, mut nonfinite) = (0usize, 0usize);
    for slab in slabs {
        dropped += slab.dropped;
        nonfinite += slab.nonfinite;
        points.extend(slab.points);
        for (column, col) in columns.iter_mut().zip(&slab.cols) {
            column.extend_from_slice(col);
        }
    }
    ResultSet::from_own_points(
        objectives,
        points,
        columns,
        frontier,
        uncharacterized,
        dropped,
        nonfinite,
    )
}

/// The streaming merge: exact frontier and top-k from the shards'
/// survivors, stored rows = frontier ∪ top-k.
// analyze::allow(indexing, scope = "fn", reason = "merge positions come from pareto_min over the member list built alongside")
fn merge_streamed(
    objectives: Vec<Objective>,
    outs: &[ShardOut],
    uncharacterized: usize,
) -> ResultSet {
    let k = objectives.len();
    let primary_max = objectives[0].maximize();
    // Global kept indices are a prefix sum over per-shard kept counts.
    let mut offsets = Vec::with_capacity(outs.len());
    let (mut total_kept, mut dropped, mut nonfinite) = (0usize, 0usize, 0usize);
    for out in outs {
        offsets.push(total_kept);
        total_kept += out.kept;
        dropped += out.dropped;
        nonfinite += out.nonfinite;
    }

    let members: Vec<(usize, &Survivor)> = outs
        .iter()
        .zip(&offsets)
        .flat_map(|(out, &offset)| {
            out.frontier
                .iter()
                .map(move |s| (offset + s.local as usize, s))
        })
        .collect();
    let rows = members.iter().map(|(_, s)| s.row);
    let frontier: Vec<(usize, &Survivor)> = merge_frontiers(&objectives, rows)
        .into_iter()
        .map(|i| members[i])
        .collect();

    // Exact top-k: the global top-K is a subset of the union of shard
    // top-Ks (each shard kept the best K under the restriction of the
    // global order), so sort-and-truncate of the union is the exact
    // prefix of the full ranking.
    let mut topk: Vec<(usize, &Survivor)> = outs
        .iter()
        .zip(&offsets)
        .flat_map(|(out, &offset)| out.topk.iter().map(move |s| (offset + s.local as usize, s)))
        .collect();
    topk.sort_unstable_by(|a, b| {
        b.1.feasible
            .cmp(&a.1.feasible)
            .then_with(|| {
                let (va, vb) = (a.1.row[0], b.1.row[0]);
                if primary_max {
                    vb.total_cmp(&va)
                } else {
                    va.total_cmp(&vb)
                }
            })
            .then_with(|| a.0.cmp(&b.0))
    });
    topk.truncate(STREAM_TOP_K);

    // Stored rows = frontier ∪ top-k, ascending global index.
    let mut stored: Vec<(usize, &Survivor)> = frontier.iter().chain(topk.iter()).copied().collect();
    stored.sort_unstable_by_key(|&(g, _)| g);
    stored.dedup_by_key(|&mut (g, _)| g);

    let stored_points: Vec<QueryPoint> = stored.iter().map(|&(_, s)| s.point).collect();
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
    ResultSet::from_streamed(
        objectives,
        stored_points,
        columns,
        frontier.iter().map(|&(g, _)| g).collect(),
        meta,
        uncharacterized,
        dropped,
        nonfinite,
    )
}
