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
//!   verbatim, re-indexed to their job in the new epoch's enumeration.
//! * **Retired** candidates are masked out of the merged result.
//! * **Net-new** candidates (any fresh part, or a re-characterized /
//!   newly characterized throughput pair) are the only ones evaluated,
//!   on the shard kernel like a cold run — as a handful of
//!   cross-product *slabs* that exactly tile `new-space ∖ survivors`.
//! * The merged rows — job indices beside the value and feasibility
//!   columns, no points — are reassembled in the **new epoch's
//!   enumeration order** over the new epoch's pass space, exactly the
//!   space a cold run builds. The repair resolves that space before it
//!   places anything, indexes it once, then places every cached survivor
//!   and every slab row through that index (`JobIndex::placement_of`):
//!   the job index is the space's, and this module never encodes one.
//! * The new frontier is obtained by merging the incremental skyline of
//!   the delta points into the survivors' frontier
//!   (`frontier(S ∪ D) = frontier(frontier(S) ∪ frontier(D))`, exact
//!   including ties). The survivors' frontier is the cached frontier
//!   minus its dead members (retired or re-evaluated), plus the
//!   survivors that only those dead members dominated
//!   ([`frontier::promoted`]) — found by one scan of the survivors
//!   against the few dead keys and a skyline over just the survivors
//!   those keys dominate, without re-running any physics.
//!
//! The result is **bit-identical** to a cold run at the new epoch
//! (property-tested in `tests/delta_repair.rs`), at a small fraction of
//! the cost for small deltas.

use std::sync::Arc;

use f1_components::{AirframeId, AlgorithmId, ComputeId, SensorId};

use crate::frontier;
use crate::plan::QueryPlan;
use crate::query::{Objective, MAX_OBJECTIVES};
use crate::session::{minimized_row, EpochState, ResultSet};
use crate::shard::{positions, Parts, PassSpace, Placement};
use crate::SkylineError;

/// Outcome of a repair attempt.
pub(crate) enum Repair {
    /// The delta does not intersect the plan's design space: the cached
    /// result is the current-epoch answer as-is.
    Unchanged,
    /// The repaired result — bit-identical to a cold run at the new
    /// epoch. Boxed: a `ResultSet` (columns + jobs + streamed meta)
    /// dwarfs the other variants.
    Repaired(Box<ResultSet>),
    /// The cached result is streamed, so there are no stored rows to
    /// splice the delta into; run cold.
    Cold,
}

/// How one component family's slice of the plan's subspace moved
/// between the two epochs. All lists are in the enumeration order of
/// their epoch (plan order for explicit subspaces, name order for
/// defaults); retained ids keep their relative order in both, which is
/// what makes the merge a linear two-pointer pass.
struct FamilyDelta<T> {
    /// The new epoch's enumeration list.
    new_list: Vec<T>,
    /// Ids enumerated at the new epoch but not the old (appended parts).
    fresh: Vec<T>,
    /// Ids enumerated at both epochs, in new-list order.
    retained: Vec<T>,
    /// Whether any old-epoch id left the enumeration (a retirement
    /// intersecting the plan's subspace).
    lost_any: bool,
}

impl<T> FamilyDelta<T> {
    /// Whether the family gained or lost an enumerated part.
    fn moved(&self) -> bool {
        !self.fresh.is_empty() || self.lost_any
    }
}

fn family_delta<T: Copy>(old: &[T], new: &[T], index: impl Fn(T) -> usize) -> FamilyDelta<T> {
    let was = positions(old.iter().map(|&id| index(id)));
    let (retained, fresh): (Vec<T>, Vec<T>) = new.iter().partition(|&&id| was(index(id)).is_some());
    FamilyDelta {
        // The lists hold no duplicates (`PlanBuilder::build` dedups them),
        // so an old id left the enumeration exactly when fewer were
        // retained.
        lost_any: retained.len() < old.len(),
        new_list: new.to_vec(),
        fresh,
        retained,
    }
}

/// One delta point awaiting its slot in the merge: the new-epoch job
/// index, the slab that evaluated it, and its index there.
struct DeltaPoint {
    job: u64,
    slab: u32,
    idx: u32,
}

/// A row's minimized keys when it is frontier-eligible: feasible, with
/// every value (`value(pos)` for objective position `pos`) finite,
/// mirroring [`ResultSet::minimized_keys`].
fn eligible_row(
    feasible: bool,
    value: impl Fn(usize) -> f64,
    objectives: &[Objective],
) -> Option<[f64; MAX_OBJECTIVES]> {
    if !feasible {
        return None;
    }
    let mut row = [0.0f64; MAX_OBJECTIVES];
    for (pos, (slot, objective)) in row.iter_mut().zip(objectives).enumerate() {
        let value = value(pos);
        if !value.is_finite() {
            return None;
        }
        *slot = objective.minimized(value);
    }
    Some(row)
}

/// The frontier-eligible members of `indices` (merged indices) with
/// their minimized keys ([`eligible_row`]).
// analyze::allow(indexing, scope = "fn", reason = "m indexes the row-aligned feasibility and value columns")
fn eligible_rows<'a>(
    indices: impl Iterator<Item = u32> + 'a,
    feasible: &'a [bool],
    columns: &'a [Vec<f64>],
    objectives: &'a [Objective],
) -> impl Iterator<Item = (u32, [f64; MAX_OBJECTIVES])> + 'a {
    indices.filter_map(move |m| {
        let row = eligible_row(
            feasible[m as usize],
            |pos| columns[pos][m as usize],
            objectives,
        );
        Some((m, row?))
    })
}

/// frontier(S ∪ D) = frontier(frontier(S) ∪ frontier(D)) for two
/// skylines `s` (the survivors') and `d` (the delta points'), each given
/// with its minimized keys (row-major, `dims` per member), as ascending
/// merged indices. Dominance is transitive, so every dominated point has
/// a frontier dominator, and no member of a skyline dominates another
/// member of it. So the delta points that join are those no survivor
/// dominates, and only they can push a survivor out: a delta point that
/// survivor `t` dominates cannot dominate another survivor, or `t` would
/// too. Against a small delta set that is far fewer dominance probes
/// than a skyline over the union. Both sides are sorted by their first
/// key, since a dominator's first key is at most the dominated point's:
/// a probe scans only that prefix, nearest first, with the fixed-width
/// dominance test.
fn union_frontier(dims: usize, s: &[u32], s_keys: &[f64], d: &[u32], d_keys: &[f64]) -> Vec<usize> {
    frontier::with_width!(dims, |D| union_frontier_at::<D>(s, s_keys, d, d_keys))
}

/// [`union_frontier`] over rows of width `D`.
// analyze::allow(indexing, scope = "fn", reason = "a probe's prefix is a partition point of the same sorted rows")
fn union_frontier_at<const D: usize>(
    s: &[u32],
    s_keys: &[f64],
    d: &[u32],
    d_keys: &[f64],
) -> Vec<usize> {
    // Members with their rows, sorted by first key.
    let sorted = |members: &[u32], keys: &[f64]| -> Vec<(u32, [f64; D])> {
        let mut sorted: Vec<(u32, [f64; D])> = members
            .iter()
            .zip(keys.chunks_exact(D))
            .map(|(&m, row)| (m, frontier::fixed_row(row.iter().copied())))
            .collect();
        sorted.sort_unstable_by(|a, b| a.1[0].total_cmp(&b.1[0]));
        sorted
    };
    // The members no row of `others` dominates, in `members` order. A
    // member's candidate dominators are the prefix of `others` up to its
    // first key; one below that prefix's per-coordinate minimum in any
    // coordinate has no dominator there, and is not probed.
    let undominated = |members: &[(u32, [f64; D])], others: &[(u32, [f64; D])]| {
        let mut floors = Vec::with_capacity(others.len() + 1);
        let mut floor = [f64::INFINITY; D];
        floors.push(floor);
        for (_, other) in others {
            for (low, &v) in floor.iter_mut().zip(other) {
                *low = low.min(v);
            }
            floors.push(floor);
        }
        let kept: Vec<(u32, [f64; D])> = members
            .iter()
            .filter(|(_, row)| {
                let prefix = others.partition_point(|(_, other)| other[0] <= row[0]);
                if row.iter().zip(&floors[prefix]).any(|(v, low)| v < low) {
                    return true;
                }
                !others[..prefix]
                    .iter()
                    .rev()
                    .any(|(_, other)| frontier::dominates_fixed(other, row))
            })
            .copied()
            .collect();
        kept
    };
    let survivors = sorted(s, s_keys);
    // The joining points keep the delta side's order, by first key.
    let joining = undominated(&sorted(d, d_keys), &survivors);
    let mut out: Vec<usize> = undominated(&survivors, &joining)
        .iter()
        .chain(&joining)
        .map(|&(m, _)| m as usize)
        .collect();
    out.sort_unstable();
    out
}

/// One stretch of the merged rows, in order.
#[derive(Clone, Copy)]
enum Segment {
    /// Cached rows `lo..hi`, all survivors.
    Cached(usize, usize),
    /// Row `idx` of delta slab `slab`.
    Delta { slab: u32, idx: u32 },
}

/// The repaired result under construction: new-epoch job indices, the
/// feasibility column, and the segments the value columns are copied
/// from afterwards ([`columns`](Self::columns)). Survivor *runs*
/// (maximal stretches of consecutive cached indices with no delta point
/// between them) are one segment each; their jobs are pushed as they
/// are mapped, so `jobs` runs ahead of the feasibility column by the
/// pending run.
struct Merged<'c> {
    cached: &'c ResultSet,
    jobs: Vec<u64>,
    /// The feasibility column, row-aligned with `jobs`.
    feasible: Vec<bool>,
    segments: Vec<Segment>,
    /// Merged position of every delta point, ascending.
    of_delta: Vec<u32>,
    /// Merged positions of the cached frontier points that survived,
    /// ascending.
    frontier_survivors: Vec<u32>,
    /// Their minimized keys, row-major, read while their run is copied.
    live_keys: Vec<f64>,
    /// Minimized keys of the cached frontier points that did not
    /// survive (retired or re-evaluated), row-major.
    dead_keys: Vec<f64>,
    /// How far the cached frontier has been walked.
    frontier_cursor: usize,
    /// The cached `nonfinite` count minus the dead rows' share.
    nonfinite: usize,
}

impl<'c> Merged<'c> {
    /// Sized for every cached point surviving plus `delta` fresh ones.
    fn new(cached: &'c ResultSet, delta: usize) -> Self {
        let capacity = cached.len() + delta;
        Self {
            cached,
            jobs: Vec::with_capacity(capacity),
            feasible: Vec::with_capacity(capacity),
            segments: Vec::new(),
            of_delta: Vec::with_capacity(delta),
            frontier_survivors: Vec::with_capacity(cached.frontier().len()),
            live_keys: Vec::new(),
            dead_keys: Vec::new(),
            frontier_cursor: 0,
            nonfinite: cached.nonfinite(),
        }
    }

    /// One linear merge of the cached rows with the `delta` points of
    /// `slabs` (ascending by job) into the new enumeration order. A
    /// cached row is placed at its new job through `placement`; one with
    /// no job there is dead (retired, or re-evaluated in a slab). The
    /// survivors come out ascending — retained ids keep their relative
    /// order, so the cached order IS the new order restricted to
    /// survivors — and each delta point is emitted before the first
    /// survivor whose job follows it. `nonfinite` loses the dead rows'
    /// contribution (deaths are the small set; a full recount would
    /// rescan every column).
    ///
    /// The per-row loop stays out of line: inlined into the much larger
    /// `repair_result`, more of its state lived on the stack, and the
    /// merge of 10⁵ rows measured about 4% slower.
    // analyze::allow(indexing, scope = "fn", reason = "i enumerates the cached rows; delta points name a slab and one of its rows")
    #[inline(never)]
    fn merge(&mut self, placement: &Placement, slabs: &[ResultSet], delta: &[DeltaPoint]) {
        let cached = self.cached;
        let (space, jobs) = cached.rows();
        let dims = cached.objectives().len();
        let mut pending = delta.iter().peekable();
        // First cached index of the survivor run not yet emitted.
        let mut run_lo = 0usize;
        let mut last_job = None::<u64>;
        for (i, coord) in space.coords(jobs).enumerate() {
            let Some(job) = placement.job(coord) else {
                self.extend_cached(run_lo, i);
                run_lo = i + 1;
                if cached.feasibility()[i]
                    && (0..dims).any(|pos| !cached.column(pos)[i].is_finite())
                {
                    self.nonfinite -= 1;
                }
                continue;
            };
            debug_assert!(last_job.map_or(true, |last| last < job), "survivor order");
            last_job = Some(job);
            if pending.peek().is_some_and(|d| d.job < job) {
                self.extend_cached(run_lo, i);
                run_lo = i;
                while let Some(d) = pending.next_if(|d| d.job < job) {
                    self.push_delta(slabs, d);
                }
            }
            debug_assert!(
                pending.peek().map_or(true, |d| d.job != job),
                "slabs and survivors are disjoint"
            );
            self.jobs.push(job);
        }
        self.extend_cached(run_lo, cached.len());
        for d in pending {
            self.push_delta(slabs, d);
        }
    }

    /// Appends cached rows `lo..hi`, all survivors, whose new jobs were
    /// already pushed. Cached frontier points below `lo` that no run
    /// covered were dead: their keys are recorded for the frontier's
    /// promotion step.
    // analyze::allow(indexing, scope = "fn", reason = "lo <= hi <= cached.len(); the frontier cursor is checked against the frontier length")
    fn extend_cached(&mut self, lo: usize, hi: usize) {
        let (cached, frontier) = (self.cached, self.cached.frontier());
        let key = |f: usize| {
            let objectives = cached.objectives();
            objectives
                .iter()
                .enumerate()
                .map(move |(pos, o)| o.minimized(cached.column(pos)[f]))
        };
        while let Some(&f) = frontier.get(self.frontier_cursor) {
            if f >= hi {
                break;
            }
            if f >= lo {
                self.frontier_survivors
                    .push((self.feasible.len() + (f - lo)) as u32);
                self.live_keys.extend(key(f));
            } else {
                self.dead_keys.extend(key(f));
            }
            self.frontier_cursor += 1;
        }
        debug_assert_eq!(self.jobs.len(), self.feasible.len() + (hi - lo));
        if lo < hi {
            self.segments.push(Segment::Cached(lo, hi));
        }
        self.feasible
            .extend_from_slice(&self.cached.feasibility()[lo..hi]);
    }

    /// Appends delta point `d`, a row of one of `slabs`.
    // analyze::allow(indexing, scope = "fn", reason = "delta points name a slab and one of its rows")
    fn push_delta(&mut self, slabs: &[ResultSet], d: &DeltaPoint) {
        self.of_delta.push(self.jobs.len() as u32);
        self.jobs.push(d.job);
        self.segments.push(Segment::Delta {
            slab: d.slab,
            idx: d.idx,
        });
        self.feasible
            .push(slabs[d.slab as usize].feasibility()[d.idx as usize]);
    }

    /// Copies merged value column `pos` into `column`, segment by
    /// segment.
    // analyze::allow(indexing, scope = "fn", reason = "segments name cached rows and slab rows that exist; pos is below the objective count")
    fn fill(&self, pos: usize, column: &mut Vec<f64>, slabs: &[ResultSet]) {
        let cached = self.cached.column(pos);
        for &segment in &self.segments {
            match segment {
                Segment::Cached(lo, hi) => column.extend_from_slice(&cached[lo..hi]),
                Segment::Delta { slab, idx } => {
                    column.push(slabs[slab as usize].column(pos)[idx as usize]);
                }
            }
        }
    }

    /// The frontier-eligible delta points with their minimized keys
    /// ([`eligible_row`]), read from `slabs`, as merged indices.
    // analyze::allow(indexing, scope = "fn", reason = "delta points name a slab and one of its rows")
    fn delta_rows<'a>(
        &'a self,
        delta: &'a [DeltaPoint],
        slabs: &'a [ResultSet],
        objectives: &'a [Objective],
    ) -> impl Iterator<Item = (u32, [f64; MAX_OBJECTIVES])> + 'a {
        // The delta points were merged in `delta`'s order.
        self.of_delta.iter().zip(delta).filter_map(move |(&m, d)| {
            let (slab, idx) = (&slabs[d.slab as usize], d.idx as usize);
            let row = eligible_row(
                slab.feasibility()[idx],
                |pos| slab.column(pos)[idx],
                objectives,
            );
            Some((m, row?))
        })
    }
}

/// Repairs `cached` (computed at `old`) into the result the same plan
/// produces at `new` — see the [module docs](self).
// analyze::allow(panic, scope = "fn", reason = "merge invariants (one result per slab plan, the new epoch's space enumerates every slab point) hold by construction")
pub(crate) fn repair_result(
    old: &EpochState,
    new: &EpochState,
    plan: &QueryPlan,
    cached: &ResultSet,
) -> Result<Repair, SkylineError> {
    let (was, now) = (Parts::of(old, plan), Parts::of(new, plan));
    let airframes = family_delta(&was.airframes, &now.airframes, AirframeId::index);
    let sensors = family_delta(&was.sensors, &now.sensors, SensorId::index);
    let computes = family_delta(&was.computes, &now.computes, ComputeId::index);
    let algorithms = family_delta(&was.algorithms, &now.algorithms, AlgorithmId::index);

    // Throughput pairs among retained parts whose characterization
    // changed (patched value, or newly characterized): their candidates
    // must be re-evaluated, grouped per compute so each group is a
    // cross-product slab.
    let mut changed: Vec<([ComputeId; 1], Vec<AlgorithmId>)> = Vec::new();
    for &c in &computes.retained {
        let algos: Vec<AlgorithmId> = algorithms
            .retained
            .iter()
            .copied()
            .filter(|&g| {
                let value = new.table.get(c, g);
                value.is_some() && old.table.get(c, g) != value
            })
            .collect();
        if !algos.is_empty() {
            changed.push(([c], algos));
        }
    }

    let untouched =
        !(airframes.moved() || sensors.moved() || computes.moved() || algorithms.moved())
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

    // The new epoch's space, exactly the one a cold run resolves: every
    // row lands at its job there.
    let space = Arc::new(PassSpace::resolve(new, plan)?);

    // The delta slabs exactly tile `new-space ∖ (retained × retained ×
    // retained × retained-with-unchanged-throughput)` as disjoint cross
    // products, so every non-survivor candidate is evaluated exactly
    // once and on the same kernel as a cold run.
    type SlabSpec<'s> = (
        &'s [AirframeId],
        &'s [SensorId],
        &'s [ComputeId],
        &'s [AlgorithmId],
    );
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
    for (c, algos) in &changed {
        specs.push((&airframes.retained, &sensors.retained, c, algos));
    }
    specs.retain(|(a, s, c, g)| !(a.is_empty() || s.is_empty() || c.is_empty() || g.is_empty()));
    // Each slab is a pass of the plan over its own parts (retaining every
    // row: no frontier pass). Most are one small shard, so they run one
    // after another: side by side, starting the threads cost more than
    // it saved. A slab of several shards runs them in parallel itself.
    let slabs: Vec<ResultSet> = specs
        .iter()
        .map(|&(a, s, c, g)| {
            let slab = PassSpace::over(new, plan, a.to_vec(), s.to_vec(), c, g)?;
            crate::shard::run_over(Arc::new(slab), new, &[plan], false)
                .map(|mut results| results.pop().expect("one slab plan in, one result out"))
        })
        .collect::<Result<_, _>>()?;

    // Collect and order the delta points by their job in the new space.
    // Each slab's own enumeration is already ascending in the global
    // order, but slabs interleave, so one sort over the (small) delta
    // set is the simplest exact merge key.
    let index = space.index();
    let mut delta: Vec<DeltaPoint> = Vec::new();
    for (slab_pos, slab) in slabs.iter().enumerate() {
        let (slab_space, jobs) = slab.rows();
        let placement = index.placement_of(slab_space);
        for (idx, coord) in slab_space.coords(jobs).enumerate() {
            delta.push(DeltaPoint {
                job: placement
                    .job(coord)
                    .expect("slab points are enumerated at the new epoch"),
                slab: slab_pos as u32,
                idx: idx as u32,
            });
        }
    }
    delta.sort_unstable_by_key(|d| d.job);

    let mut merged = Merged::new(cached, delta.len());
    merged.merge(&index.placement_of(cached.rows().0), &slabs, &delta);

    // Frontier merge, with no physics: the delta points' skyline joins
    // the survivors' frontier. The survivors' frontier is the cached
    // frontier's surviving members plus the survivors off it that only
    // dead members dominated: with no dead member that is the surviving
    // members alone, since removing dominated points promotes nothing
    // while all their dominators remain.
    let objectives = plan.objectives();
    let dims = objectives.len();
    let frontier_over = |base: &[u32], base_keys: &[f64]| {
        let mut delta_skyline = frontier::PrefilteredSkyline::new(dims);
        for (m, row) in merged.delta_rows(&delta, &slabs, objectives) {
            delta_skyline.offer(m, &row);
        }
        let (delta_skyline, delta_keys) = delta_skyline.finish();
        union_frontier(dims, base, base_keys, &delta_skyline, &delta_keys)
    };
    // Copying the value columns is most of a repair's time, and in a
    // fresh process most of that is the first touch of their pages. The
    // columns are allocated here, where a running server's allocator
    // reuses freed memory, and a second thread fills all but a third of
    // them while this one finds the frontier, which without a dead
    // member reads only the survivors' keys and the slabs, and fills the
    // rest. A promotion reads the merged columns, so it waits for them.
    let rows = merged.feasible.len();
    let mut columns: Vec<Vec<f64>> = (0..dims).map(|_| Vec::with_capacity(rows)).collect();
    let (ours, theirs) = columns.split_at_mut(dims / 3);
    let fill = |columns: &mut [Vec<f64>], first: usize| {
        for (pos, column) in (first..).zip(columns) {
            merged.fill(pos, column, &slabs);
        }
    };
    let mut merged_frontier = None;
    std::thread::scope(|scope| {
        scope.spawn(|| fill(theirs, dims / 3));
        if merged.dead_keys.is_empty() {
            merged_frontier = Some(frontier_over(&merged.frontier_survivors, &merged.live_keys));
        }
        fill(ours, 0);
    });
    let merged_frontier = merged_frontier.unwrap_or_else(|| {
        // The candidates are every merged position that neither a delta
        // point nor a surviving frontier member took.
        let (mut base, mut base_keys) =
            (merged.frontier_survivors.clone(), merged.live_keys.clone());
        let mut deltas = merged.of_delta.iter().copied().peekable();
        let mut members = base.iter().copied().peekable();
        let off_frontier = (0..merged.jobs.len() as u32)
            .filter(|&m| deltas.next_if_eq(&m).is_none() && members.next_if_eq(&m).is_none());
        let promoted = frontier::promoted(
            dims,
            &merged.dead_keys,
            &base_keys,
            eligible_rows(off_frontier, &merged.feasible, &columns, objectives),
        );
        for m in promoted {
            base_keys.extend(minimized_row(&columns, objectives, m as usize));
            base.push(m);
        }
        frontier_over(&base, &base_keys)
    });
    let Merged {
        mut jobs,
        mut feasible,
        nonfinite,
        ..
    } = merged;
    // The buffers were sized for every cached point surviving; release
    // what the dead ones left unused.
    jobs.shrink_to_fit();
    feasible.shrink_to_fit();
    // The slabs' nonfinite accounting transfers verbatim: every slab
    // point entered the merged result.
    let nonfinite = nonfinite + slabs.iter().map(ResultSet::nonfinite).sum::<usize>();

    let (uncharacterized, dropped) = (space.uncharacterized, space.job_count() - jobs.len());
    Ok(Repair::Repaired(Box::new(ResultSet::retained(
        objectives.to_vec(),
        space,
        jobs,
        columns,
        feasible,
        merged_frontier,
        uncharacterized,
        dropped,
        nonfinite,
    ))))
}
