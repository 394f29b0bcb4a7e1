//! Incremental re-query: repairing a cached [`ResultSet`] across a
//! catalog delta instead of re-evaluating 10⁵ candidates from scratch.
//!
//! [`Session::refresh`](crate::Session::refresh) calls into this module
//! when it holds a result computed at an older [`CatalogEpoch`] than the
//! store's current one. The repair exploits the store's id-stability
//! contract (adds append fresh ids, retirements tombstone in place, part
//! records are immutable once added):
//!
//! * **Survivors** — candidates whose four parts are active at both
//!   epochs and whose platform × algorithm throughput is unchanged —
//!   evaluate to bit-identical outcomes, so their cached rows are copied
//!   verbatim.
//! * **Retired** candidates are masked out of the merged result.
//! * **Net-new** candidates (any fresh part, or a re-characterized /
//!   newly characterized throughput pair) are the only ones evaluated,
//!   on the shard kernel like a cold run — as a handful of
//!   cross-product *slabs* that exactly tile `new-space ∖ survivors`.
//! * The merged point list is reassembled in the **new epoch's
//!   enumeration order**, and the new frontier is obtained by merging
//!   the incremental skyline of the delta points into the cached
//!   frontier (`frontier(S ∪ D) = frontier(frontier(S) ∪ frontier(D))`,
//!   exact including ties). If a retirement removed a cached frontier
//!   point, the survivor frontier is recomputed over the survivors
//!   first — still without re-running any physics.
//!
//! The result is **bit-identical** to a cold run at the new epoch
//! (property-tested in `tests/delta_repair.rs`), at a small fraction of
//! the cost for small deltas.

use std::sync::Arc;

use f1_components::{AirframeId, AlgorithmId, ComputeId, SensorId, ThroughputTable};

use crate::frontier;
use crate::plan::{KeepPoints, QueryPlan};
use crate::query::{KnobSetting, Objective, QueryPoint};
use crate::session::{minimized_row, run_plans, EpochState, PassContext, PointRef, ResultSet};
use crate::SkylineError;

/// Outcome of a repair attempt.
pub(crate) enum Repair {
    /// The delta does not intersect the plan's design space: the cached
    /// result is the current-epoch answer as-is.
    Unchanged,
    /// The repaired result — bit-identical to a cold run at the new
    /// epoch. Boxed: a `ResultSet` (columns + segments + streamed meta)
    /// dwarfs the other variants.
    Repaired(Box<ResultSet>),
    /// Repair is not applicable to this plan (e.g. duplicate subspace
    /// ids make the enumeration mapping ambiguous); run cold.
    Cold,
}

/// How one component family's slice of the plan's subspace moved
/// between the two epochs. All lists are raw dense indices, in the
/// enumeration order of their epoch (plan order for explicit
/// subspaces, name order for defaults); retained ids keep their
/// relative order in both, which is what makes the merge a linear
/// two-pointer pass.
struct FamilyDelta {
    /// The new epoch's enumeration list.
    new_list: Vec<u32>,
    /// id → position in `new_list` (indexed over the new id space).
    new_pos: Vec<Option<u32>>,
    /// Ids enumerated at the new epoch but not the old (appended parts).
    fresh: Vec<u32>,
    /// Ids enumerated at both epochs, in new-list order.
    retained: Vec<u32>,
    /// Whether any old-epoch id left the enumeration (a retirement
    /// intersecting the plan's subspace).
    lost_any: bool,
    /// Duplicate ids in the enumeration make position mapping
    /// ambiguous — bail to a cold run.
    ambiguous: bool,
}

// analyze::allow(indexing, scope = "fn", reason = "membership tables are sized to the full id space (new_space), which bounds every id")
fn family_delta(
    plan_list: Option<Vec<u32>>,
    old_default: &[u32],
    new_default: &[u32],
    old_active: impl Fn(u32) -> bool,
    new_active: impl Fn(u32) -> bool,
    new_space: usize,
) -> FamilyDelta {
    let (old_list, new_list): (Vec<u32>, Vec<u32>) = match plan_list {
        Some(list) => (
            list.iter().copied().filter(|&id| old_active(id)).collect(),
            list.iter().copied().filter(|&id| new_active(id)).collect(),
        ),
        None => (old_default.to_vec(), new_default.to_vec()),
    };
    let mut old_member = vec![false; new_space];
    for &id in &old_list {
        old_member[id as usize] = true;
    }
    let mut new_pos: Vec<Option<u32>> = vec![None; new_space];
    let mut ambiguous = false;
    for (pos, &id) in new_list.iter().enumerate() {
        if new_pos[id as usize].is_some() {
            ambiguous = true;
        }
        new_pos[id as usize] = Some(pos as u32);
    }
    let fresh = new_list
        .iter()
        .copied()
        .filter(|&id| !old_member[id as usize])
        .collect();
    let retained = new_list
        .iter()
        .copied()
        .filter(|&id| old_member[id as usize])
        .collect();
    let lost_any = old_list.iter().any(|&id| new_pos[id as usize].is_none());
    FamilyDelta {
        new_list,
        new_pos,
        fresh,
        retained,
        lost_any,
        ambiguous,
    }
}

/// Arithmetic index of the new epoch's candidate enumeration (the
/// sensor-major, compute-middle, algorithm-minor nesting of a cold
/// pass, filtered to characterized pairs): position lookups are a few
/// array reads, no hashing — the repair touches every surviving point
/// once, so this is the hot loop.
struct CandIndex {
    /// `(compute position × algo-count + algo position)` → rank among
    /// the compute's characterized algorithms.
    rank: Vec<Option<u32>>,
    /// Start offset of each compute block within one sensor block.
    prefix: Vec<u32>,
    /// Characterized pairs per sensor block.
    per_sensor: u32,
    algo_count: usize,
}

impl CandIndex {
    // analyze::allow(indexing, scope = "fn", reason = "rank/prefix are sized computes*algos and computes; j and a come from enumerate()")
    fn build(table: &ThroughputTable, computes: &[u32], algorithms: &[u32]) -> Self {
        let algo_count = algorithms.len();
        let mut rank = vec![None; computes.len() * algo_count];
        let mut prefix = vec![0u32; computes.len()];
        let mut total = 0u32;
        for (j, &c) in computes.iter().enumerate() {
            prefix[j] = total;
            let mut r = 0u32;
            for (a, &g) in algorithms.iter().enumerate() {
                if table
                    .get(
                        ComputeId::from_index(c as usize),
                        AlgorithmId::from_index(g as usize),
                    )
                    .is_some()
                {
                    rank[j * algo_count + a] = Some(r);
                    r += 1;
                }
            }
            total += r;
        }
        Self {
            rank,
            prefix,
            per_sensor: total,
            algo_count,
        }
    }

    // analyze::allow(indexing, scope = "fn", reason = "rank and prefix were sized for every (compute_pos, algo_pos) by build()")
    fn pos(&self, sensor_pos: u32, compute_pos: u32, algo_pos: u32) -> Option<u64> {
        let r = self.rank[compute_pos as usize * self.algo_count + algo_pos as usize]?;
        Some(
            u64::from(sensor_pos) * u64::from(self.per_sensor)
                + u64::from(self.prefix[compute_pos as usize])
                + u64::from(r),
        )
    }
}

/// Everything needed to place an evaluated point into the new epoch's
/// global job order.
struct NewOrder<'a> {
    airframes: &'a FamilyDelta,
    sensors: &'a FamilyDelta,
    computes: &'a FamilyDelta,
    algorithms: &'a FamilyDelta,
    cand: CandIndex,
    settings: &'a [KnobSetting],
    /// Jobs per airframe block (`settings × candidates`).
    per_airframe: u64,
    /// Candidates per setting block.
    n_cand: u64,
}

impl NewOrder<'_> {
    /// The point's job index in the new epoch's enumeration, or `None`
    /// when the point is no longer enumerated (a part retired or the
    /// pair no longer characterized).
    // analyze::allow(indexing, scope = "fn", reason = "new_pos tables are sized to the full id space; part indices are catalog ids")
    fn job_of(&self, point: &QueryPoint) -> Option<u64> {
        let a = self.airframes.new_pos[point.airframe.index()]?;
        let s = self.sensors.new_pos[point.candidate.sensor.index()]?;
        let c = self.computes.new_pos[point.candidate.compute.index()]?;
        let g = self.algorithms.new_pos[point.candidate.algorithm.index()]?;
        let setting = self.settings.iter().position(|x| x == &point.setting)? as u64;
        let cand = self.cand.pos(s, c, g)?;
        Some(u64::from(a) * self.per_airframe + setting * self.n_cand + cand)
    }
}

fn raw<T: Copy>(ids: &[T], index: impl Fn(T) -> usize) -> Vec<u32> {
    ids.iter().map(|&id| index(id) as u32).collect()
}

/// One delta point awaiting its slot in the merge: the new-epoch job
/// index, the slab that evaluated it, and its index there.
struct DeltaPoint {
    job: u64,
    slab: u32,
    idx: u32,
}

/// Builds a plan identical to `plan` except restricted to one
/// cross-product slab of the delta space. The slab always retains its
/// points, whatever its size: the merge splices every one of them.
fn slab_plan(
    plan: &QueryPlan,
    airframes: &[u32],
    sensors: &[u32],
    computes: &[u32],
    algorithms: &[u32],
) -> Result<QueryPlan, SkylineError> {
    let mut builder = QueryPlan::builder()
        .objectives(plan.objectives())
        .mission_profile(plan.mission_profile())
        .keep_points(KeepPoints::All)
        .airframes(&raw_ids::<AirframeId>(airframes))
        .sensors(&raw_ids::<SensorId>(sensors))
        .computes(&raw_ids::<ComputeId>(computes))
        .algorithms(&raw_ids::<AlgorithmId>(algorithms));
    for &constraint in plan.constraints() {
        builder = builder.constraint(constraint);
    }
    for sweep in plan.sweeps() {
        builder = builder.sweep(sweep.clone());
    }
    if let Some(battery) = plan.battery() {
        builder = builder.battery(battery);
    }
    builder.build()
}

fn raw_ids<T: From<RawId>>(ids: &[u32]) -> Vec<T> {
    ids.iter().map(|&id| T::from(RawId(id))).collect()
}

/// Adapter so `raw_ids` can mint each typed id family from a raw dense
/// index through one generic path.
struct RawId(u32);

macro_rules! raw_id_from {
    ($($ty:ty),*) => {$(
        impl From<RawId> for $ty {
            fn from(raw: RawId) -> Self {
                Self::from_index(raw.0 as usize)
            }
        }
    )*};
}
raw_id_from!(AirframeId, SensorId, ComputeId, AlgorithmId);

/// The skyline over a subset of merged points (merged indices in,
/// merged indices out). Infeasible points and non-finite rows are
/// excluded, mirroring [`ResultSet::minimized_keys`].
// analyze::allow(indexing, scope = "fn", reason = "m indexes row-aligned columns; frontier indices map back through `map`, built alongside keys")
fn skyline_of(
    indices: &[u32],
    feasible: &impl Fn(u32) -> bool,
    columns: &[Vec<f64>],
    objectives: &[Objective],
) -> Vec<u32> {
    let dims = objectives.len();
    let mut keys = Vec::with_capacity(indices.len() * dims);
    let mut map = Vec::with_capacity(indices.len());
    'points: for &m in indices {
        if !feasible(m) {
            continue;
        }
        let m = m as usize;
        for column in columns {
            if !column[m].is_finite() {
                continue 'points;
            }
        }
        map.push(m as u32);
        keys.extend(minimized_row(columns, objectives, m));
    }
    frontier::pareto_min(dims, &keys)
        .into_iter()
        .map(|i| map[i])
        .collect()
}

/// frontier(S ∪ D) = frontier(frontier(S) ∪ frontier(D)) for two
/// skylines `s` (the survivors') and `d` (the delta points'), as
/// ascending merged indices. Dominance is transitive, so every dominated
/// point has a frontier dominator, and no member of a skyline dominates
/// another member of it. So the delta points that join are those no
/// survivor dominates, and only they can push a survivor out: a delta
/// point that survivor `t` dominates cannot dominate another survivor,
/// or `t` would too. Against a small delta set that is far fewer
/// dominance probes than a skyline over the union.
fn union_frontier(
    s: &[u32],
    d: &[u32],
    columns: &[Vec<f64>],
    objectives: &[Objective],
) -> Vec<usize> {
    let dims = objectives.len();
    let keys = |members: &[u32]| -> Vec<f64> {
        members
            .iter()
            .flat_map(|&m| minimized_row(columns, objectives, m as usize))
            .collect()
    };
    let undominated = |members: &[u32], rows: &[f64], others: &[f64]| -> (Vec<u32>, Vec<f64>) {
        let mut kept = (Vec::new(), Vec::new());
        for (&m, row) in members.iter().zip(rows.chunks_exact(dims)) {
            if !others
                .chunks_exact(dims)
                .any(|other| frontier::dominates_min(other, row))
            {
                kept.0.push(m);
                kept.1.extend_from_slice(row);
            }
        }
        kept
    };
    let s_keys = keys(s);
    let (joining, joining_keys) = undominated(d, &keys(d), &s_keys);
    let (mut out, _) = undominated(s, &s_keys, &joining_keys);
    out.extend(joining);
    out.sort_unstable();
    out.into_iter().map(|m| m as usize).collect()
}

/// The repaired result under construction: 8-byte point references
/// plus the f64 columns. The surviving point rows are NOT copied: the
/// store is `cached`'s segments plus ONE fresh segment gathering the
/// (small) delta set — one segment per repair, not per slab, so chained
/// refreshes reach `refresh`'s compaction threshold by repair count,
/// not by slab count. Survivor *runs* (maximal stretches of consecutive
/// cached indices with no delta point between them) go through bulk
/// extends.
struct Merged<'c> {
    cached: &'c ResultSet,
    kept: Vec<PointRef>,
    columns: Vec<Vec<f64>>,
    /// The delta points, in merge order.
    fresh: Vec<QueryPoint>,
    /// The segment index `fresh` will take.
    fresh_segment: u32,
    /// Merged position of every delta point, ascending.
    of_delta: Vec<u32>,
    /// Merged positions of the cached frontier points that survived,
    /// ascending.
    frontier_survivors: Vec<u32>,
    /// How far the cached frontier has been walked.
    frontier_cursor: usize,
}

impl<'c> Merged<'c> {
    /// Sized for every cached point surviving plus `delta` fresh ones.
    fn new(cached: &'c ResultSet, fresh_segment: u32, delta: usize) -> Self {
        let capacity = cached.len() + delta;
        Self {
            cached,
            kept: Vec::with_capacity(capacity),
            columns: (0..cached.objectives().len())
                .map(|_| Vec::with_capacity(capacity))
                .collect(),
            fresh: Vec::with_capacity(delta),
            fresh_segment,
            of_delta: Vec::with_capacity(delta),
            frontier_survivors: Vec::with_capacity(cached.frontier().len()),
            frontier_cursor: 0,
        }
    }

    /// Appends the cached rows `lo..hi`, all survivors. Cached frontier
    /// points below `hi` that no run covered were dead.
    // analyze::allow(indexing, scope = "fn", reason = "lo <= hi <= cached.len(); the frontier cursor is checked against the frontier length")
    fn extend_cached(&mut self, lo: usize, hi: usize) {
        let frontier = self.cached.frontier();
        while let Some(&f) = frontier.get(self.frontier_cursor) {
            if f >= hi {
                break;
            }
            if f >= lo {
                self.frontier_survivors
                    .push((self.kept.len() + (f - lo)) as u32);
            }
            self.frontier_cursor += 1;
        }
        self.kept.extend((lo..hi).map(|i| self.cached.point_ref(i)));
        for (pos, column) in self.columns.iter_mut().enumerate() {
            column.extend_from_slice(&self.cached.column(pos)[lo..hi]);
        }
    }

    /// Appends point `idx` of a delta slab.
    // analyze::allow(indexing, scope = "fn", reason = "idx < slab.len(): delta points were collected from 0..slab.len()")
    // analyze::allow(panic, scope = "fn", reason = "delta sets are a few thousand points at most, far inside u32")
    fn push_delta(&mut self, slab: &ResultSet, idx: usize) {
        self.of_delta.push(self.kept.len() as u32);
        self.kept.push(PointRef {
            segment: self.fresh_segment,
            index: u32::try_from(self.fresh.len()).expect("delta sets stay small"),
        });
        self.fresh.push(*slab.point(idx));
        for (pos, column) in self.columns.iter_mut().enumerate() {
            column.push(slab.column(pos)[idx]);
        }
    }
}

/// Repairs `cached` (computed at `old`) into the result the same plan
/// produces at `new` — see the [module docs](self).
// analyze::allow(indexing, scope = "fn", reason = "merge kernel: slab, survivor and delta indices are constructed in-range by the enumeration and run-length loops")
// analyze::allow(panic, scope = "fn", reason = "merge invariants (one result per slab plan, new-epoch enumeration covers slab points, delta counts fit u32/usize) hold by construction")
pub(crate) fn repair_result(
    old: &EpochState,
    new: &EpochState,
    ctx: &PassContext<'_>,
    plan: &QueryPlan,
    cached: &ResultSet,
) -> Result<Repair, SkylineError> {
    let settings = plan.settings();
    // Duplicate settings would make the setting → slot mapping
    // ambiguous. `PlanBuilder::build` canonicalizes them away, so this
    // is dead defense against hand-round-tripped keys, not a live path.
    if settings
        .iter()
        .enumerate()
        .any(|(i, s)| settings[..i].contains(s))
    {
        return Ok(Repair::Cold);
    }
    let old_cat = old.catalog();
    let new_cat = new.catalog();
    let airframes = family_delta(
        plan.airframes().map(|ids| raw(ids, AirframeId::index)),
        &raw(&old.airframes, AirframeId::index),
        &raw(&new.airframes, AirframeId::index),
        |id| old_cat.airframe_is_active(AirframeId::from_index(id as usize)),
        |id| new_cat.airframe_is_active(AirframeId::from_index(id as usize)),
        new_cat.airframe_count(),
    );
    let sensors = family_delta(
        plan.sensors().map(|ids| raw(ids, SensorId::index)),
        &raw(&old.sensors, SensorId::index),
        &raw(&new.sensors, SensorId::index),
        |id| old_cat.sensor_is_active(SensorId::from_index(id as usize)),
        |id| new_cat.sensor_is_active(SensorId::from_index(id as usize)),
        new_cat.sensor_count(),
    );
    let computes = family_delta(
        plan.computes().map(|ids| raw(ids, ComputeId::index)),
        &raw(&old.computes, ComputeId::index),
        &raw(&new.computes, ComputeId::index),
        |id| old_cat.compute_is_active(ComputeId::from_index(id as usize)),
        |id| new_cat.compute_is_active(ComputeId::from_index(id as usize)),
        new_cat.compute_count(),
    );
    let algorithms = family_delta(
        plan.algorithms().map(|ids| raw(ids, AlgorithmId::index)),
        &raw(&old.algorithms, AlgorithmId::index),
        &raw(&new.algorithms, AlgorithmId::index),
        |id| old_cat.algorithm_is_active(AlgorithmId::from_index(id as usize)),
        |id| new_cat.algorithm_is_active(AlgorithmId::from_index(id as usize)),
        new_cat.algorithm_count(),
    );
    if airframes.ambiguous || sensors.ambiguous || computes.ambiguous || algorithms.ambiguous {
        return Ok(Repair::Cold);
    }

    // Throughput pairs among retained parts whose characterization
    // changed (patched value, or newly characterized): their candidates
    // must be re-evaluated, grouped per compute so each group is a
    // cross-product slab.
    let mut changed: Vec<(u32, Vec<u32>)> = Vec::new();
    for &c in &computes.retained {
        let cid = ComputeId::from_index(c as usize);
        let algos: Vec<u32> = algorithms
            .retained
            .iter()
            .copied()
            .filter(|&g| {
                let gid = AlgorithmId::from_index(g as usize);
                match new.table.get(cid, gid) {
                    Some(value) => old.table.get(cid, gid) != Some(value),
                    None => false,
                }
            })
            .collect();
        if !algos.is_empty() {
            changed.push((c, algos));
        }
    }

    let untouched = [&airframes, &sensors, &computes, &algorithms]
        .iter()
        .all(|f| f.fresh.is_empty() && !f.lost_any)
        && changed.is_empty();
    if untouched {
        return Ok(Repair::Unchanged);
    }

    // A streamed result holds only its frontier ∪ top-k rows: there is
    // no full point store to splice fresh slabs into, and a fresh point
    // can evict arbitrary stored rows from both bounded sets. Delta
    // repair for a *touched* epoch therefore re-streams cold (the
    // streaming pass is the one sized for its catalogs); an untouched
    // epoch short-circuits to `Unchanged` above, which covers the
    // common refresh loop.
    if cached.is_streamed() {
        return Ok(Repair::Cold);
    }

    let cand = CandIndex::build(ctx.table, &computes.new_list, &algorithms.new_list);
    let n_cand = sensors.new_list.len() as u64 * u64::from(cand.per_sensor);
    let per_airframe = settings.len() as u64 * n_cand;
    let jobs_total = airframes.new_list.len() as u64 * per_airframe;
    let uncharacterized = sensors.new_list.len()
        * (computes.new_list.len() * algorithms.new_list.len() - cand.per_sensor as usize);
    let order = NewOrder {
        airframes: &airframes,
        sensors: &sensors,
        computes: &computes,
        algorithms: &algorithms,
        cand,
        settings,
        per_airframe,
        n_cand,
    };

    // The delta slabs exactly tile `new-space ∖ (retained × retained ×
    // retained × retained-with-unchanged-throughput)` as disjoint cross
    // products, so every non-survivor candidate is evaluated exactly
    // once and on the same kernel as a cold run.
    type SlabSpec<'s> = (&'s [u32], &'s [u32], &'s [u32], &'s [u32]);
    let mut specs: Vec<SlabSpec<'_>> = vec![
        (
            &airframes.fresh,
            &sensors.new_list,
            &computes.new_list,
            &algorithms.new_list,
        ),
        (
            &airframes.retained,
            &sensors.fresh,
            &computes.new_list,
            &algorithms.new_list,
        ),
        (
            &airframes.retained,
            &sensors.retained,
            &computes.fresh,
            &algorithms.new_list,
        ),
        (
            &airframes.retained,
            &sensors.retained,
            &computes.retained,
            &algorithms.fresh,
        ),
    ];
    let changed_slabs: Vec<(Vec<u32>, &Vec<u32>)> =
        changed.iter().map(|(c, algos)| (vec![*c], algos)).collect();
    for (c, algos) in &changed_slabs {
        specs.push((&airframes.retained, &sensors.retained, c, algos));
    }
    let mut slabs: Vec<ResultSet> = Vec::new();
    for (a, s, c, g) in specs {
        if a.is_empty() || s.is_empty() || c.is_empty() || g.is_empty() {
            continue;
        }
        let slab = slab_plan(plan, a, s, c, g)?;
        let mut results = run_plans(ctx, &[&slab], false)?;
        slabs.push(results.pop().expect("one slab plan in, one result out"));
    }

    // Collect and order the delta points by their slot in the new
    // enumeration. Each slab's own enumeration is already ascending in
    // the global order, but slabs interleave, so one sort over the
    // (small) delta set is the simplest exact merge key.
    let mut delta: Vec<DeltaPoint> = Vec::new();
    for (slab_pos, slab) in slabs.iter().enumerate() {
        for idx in 0..slab.len() {
            let job = order
                .job_of(slab.point(idx))
                .expect("slab points are enumerated at the new epoch");
            delta.push(DeltaPoint {
                job,
                slab: slab_pos as u32,
                idx: idx as u32,
            });
        }
    }
    delta.sort_unstable_by_key(|d| d.job);

    // One linear merge over the cached points into the new enumeration
    // order. Survivors keep all parts enumerated AND their throughput
    // pair unchanged (a changed pair re-evaluates through its slab);
    // they come out in ascending new-enumeration order — retained ids
    // keep their relative order, so the cached order IS the new order
    // restricted to survivors — and each delta point is emitted before
    // the first survivor whose job follows it. `nonfinite` is maintained
    // by *subtracting* the dead points' contribution from the cached
    // count (deaths are the small set; a full recount would rescan
    // every column).
    let dims = plan.objectives().len();
    let mut segments: Vec<Arc<Vec<QueryPoint>>> = cached.segments().to_vec();
    let mut merged = Merged::new(cached, segments.len() as u32, delta.len());
    let mut nonfinite = cached.nonfinite();
    let mut pending = delta.iter().peekable();
    // First cached index of the survivor run not yet emitted.
    let mut run_lo = 0usize;
    let mut last_job = None::<u64>;
    for i in 0..cached.len() {
        let point = cached.point(i);
        let alive = ctx
            .table
            .get(point.candidate.compute, point.candidate.algorithm)
            == Some(point.candidate.throughput);
        let Some(job) = (if alive { order.job_of(point) } else { None }) else {
            merged.extend_cached(run_lo, i);
            run_lo = i + 1;
            if point.outcome.feasible && (0..dims).any(|pos| !cached.column(pos)[i].is_finite()) {
                nonfinite -= 1;
            }
            continue;
        };
        debug_assert!(last_job.map_or(true, |last| last < job), "survivor order");
        last_job = Some(job);
        if pending.peek().is_some_and(|d| d.job < job) {
            merged.extend_cached(run_lo, i);
            run_lo = i;
            while let Some(d) = pending.next_if(|d| d.job < job) {
                merged.push_delta(&slabs[d.slab as usize], d.idx as usize);
            }
        }
        debug_assert!(
            pending.peek().map_or(true, |d| d.job != job),
            "slabs and survivors are disjoint"
        );
    }
    merged.extend_cached(run_lo, cached.len());
    for d in pending {
        merged.push_delta(&slabs[d.slab as usize], d.idx as usize);
    }
    let Merged {
        mut kept,
        mut columns,
        fresh,
        of_delta,
        frontier_survivors,
        ..
    } = merged;
    // The buffers were sized for every cached point surviving; release
    // what the dead ones left unused.
    kept.shrink_to_fit();
    for column in &mut columns {
        column.shrink_to_fit();
    }
    if !fresh.is_empty() {
        segments.push(Arc::new(fresh));
    }
    // The slabs' nonfinite accounting transfers verbatim: every slab
    // point entered the merged result.
    nonfinite += slabs.iter().map(ResultSet::nonfinite).sum::<usize>();

    let dropped = usize::try_from(jobs_total).expect("job counts fit usize") - kept.len();

    // Frontier merge. If every cached frontier point survived, the
    // survivor frontier IS the cached frontier (removing dominated
    // points cannot promote others while all their dominators remain);
    // otherwise recompute it over the survivors — still no physics.
    let feasible = |m: u32| -> bool {
        segments[kept[m as usize].segment as usize][kept[m as usize].index as usize]
            .outcome
            .feasible
    };
    let objectives = plan.objectives();
    let base: Vec<u32> = if frontier_survivors.len() == cached.frontier().len() {
        frontier_survivors
    } else {
        // Survivors are every merged position a delta point did not take.
        let mut deltas = of_delta.iter().copied().peekable();
        let survivor_indices: Vec<u32> = (0..kept.len() as u32)
            .filter(|&m| deltas.next_if_eq(&m).is_none())
            .collect();
        skyline_of(&survivor_indices, &feasible, &columns, objectives)
    };
    let delta_skyline = skyline_of(&of_delta, &feasible, &columns, objectives);
    let merged_frontier = union_frontier(&base, &delta_skyline, &columns, objectives);

    Ok(Repair::Repaired(Box::new(ResultSet::from_segments(
        objectives.to_vec(),
        segments,
        kept,
        columns,
        merged_frontier,
        uncharacterized,
        dropped,
        nonfinite,
    ))))
}
