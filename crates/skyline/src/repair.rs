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
//! * The merged rows — records of jobs, feasibility and pair-constant
//!   values beside the dense per-candidate columns, no points — are
//!   reassembled in the **new epoch's enumeration order** over the new
//!   epoch's pass space, exactly the space a cold run builds. The repair
//!   resolves that space before it places anything, indexes it once,
//!   then places every cached survivor and every slab row through that
//!   index (`JobIndex::placement_of`): the job index is the space's, and
//!   this module never encodes one. Rows are pushed through the same
//!   coalescing writer a cold run uses, so the repaired records are a
//!   cold run's, however many repairs came before.
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
use crate::query::MAX_OBJECTIVES;
use crate::rows::{Record, Rows};
use crate::session::{EpochState, ResultSet};
use crate::shard::{positions, Parts, PassSpace, Placement, SHARD_SIZE};
use crate::SkylineError;

/// Outcome of a repair attempt.
pub(crate) enum Repair {
    /// The delta does not intersect the plan's design space: the cached
    /// result is the current-epoch answer as-is.
    Unchanged,
    /// The repaired result — bit-identical to a cold run at the new
    /// epoch. Boxed: a `ResultSet` (rows + streamed meta) dwarfs the
    /// other variants.
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
/// index, the slab that evaluated it, its index there and the slab
/// record that holds it.
struct DeltaPoint {
    job: u64,
    slab: u32,
    idx: u32,
    record: Record,
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

/// The repaired result under construction: the merged rows, whose
/// records are pushed as rows are placed and whose dense columns are
/// copied afterwards from the segments ([`fill`]). Survivor
/// *runs* (maximal stretches of consecutive cached indices with no
/// delta point between them) are one segment each; their rows are
/// pushed as they are mapped, so the rows run ahead of the segments by
/// the pending run.
struct Merged<'c> {
    cached: &'c ResultSet,
    rows: Rows,
    segments: Vec<Segment>,
    /// Merged position of every delta point, ascending.
    of_delta: Vec<u32>,
    /// The cached frontier's rows with their minimized keys.
    frontier: Vec<(usize, [f64; MAX_OBJECTIVES])>,
    /// Merged positions of the cached frontier points that survived,
    /// ascending.
    frontier_survivors: Vec<u32>,
    /// Their minimized keys, row-major.
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
    fn new(cached: &'c ResultSet) -> Self {
        let rows = cached.stored().1;
        // A frontier point is feasible with finite values.
        let frontier = rows.walk(cached.frontier().iter().copied());
        let frontier = frontier.map(|(f, record)| (f, rows.key(record, f).unwrap_or_default()));
        Self {
            cached,
            rows: Rows::with_capacity(cached.objectives(), 0),
            segments: Vec::new(),
            of_delta: Vec::new(),
            frontier: frontier.collect(),
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
    /// rescan every row).
    ///
    /// The per-row loop stays out of line: inlined into the much larger
    /// `repair_result`, more of its state lived on the stack, and the
    /// merge of 10⁵ rows measured about 4% slower.
    #[inline(never)]
    fn merge(&mut self, placement: &Placement, delta: &[DeltaPoint]) {
        let (space, rows) = self.cached.stored();
        let mut pending = delta.iter().peekable();
        // First cached index of the survivor run not yet emitted.
        let mut run_lo = 0usize;
        let mut last_job = None::<u64>;
        for (record, span) in rows.stretches() {
            // The record's rows as (first row, its new job, how many): all
            // at once when they land on consecutive jobs, as most do, and
            // one by one otherwise.
            let whole = placement.run(space.coord(record.job), span.len());
            let jobs = record.job..record.job_at(span.end);
            let one_by_one = whole.is_none().then(|| {
                span.clone()
                    .zip(space.coords(jobs))
                    .map(|(i, coord)| (i, placement.job(coord), 1))
            });
            let placed = whole.map(|job| (span.start, Some(job), span.len()));
            for (i, job, count) in placed.into_iter().chain(one_by_one.into_iter().flatten()) {
                let Some(job) = job else {
                    self.extend_cached(run_lo, i);
                    run_lo = i + 1;
                    if record.feasible && rows.key(record, i).is_none() {
                        self.nonfinite -= 1;
                    }
                    continue;
                };
                debug_assert!(last_job.map_or(true, |last| last < job), "survivor order");
                last_job = Some(job + count as u64 - 1);
                if pending.peek().is_some_and(|d| d.job < job) {
                    self.extend_cached(run_lo, i);
                    run_lo = i;
                    while let Some(d) = pending.next_if(|d| d.job < job) {
                        self.push_delta(d);
                    }
                }
                debug_assert!(
                    pending.peek().map_or(true, |d| d.job >= job + count as u64),
                    "slabs and survivors are disjoint"
                );
                self.rows
                    .push(job, count, record.feasible, record.constants);
            }
        }
        self.extend_cached(run_lo, rows.len());
        for d in pending {
            self.push_delta(d);
        }
    }

    /// Closes the segment of cached rows `lo..hi`, all survivors, whose
    /// rows were already pushed. Cached frontier points below `lo` that
    /// no run covered were dead: their keys are recorded for the
    /// frontier's promotion step.
    fn extend_cached(&mut self, lo: usize, hi: usize) {
        let dims = self.cached.objectives().len();
        // The merged position of cached row `lo`.
        let start = self.rows.len() - (hi - lo);
        while let Some(&(f, key)) = self.frontier.get(self.frontier_cursor) {
            if f >= hi {
                break;
            }
            let key = key.into_iter().take(dims);
            if f >= lo {
                self.frontier_survivors.push((start + (f - lo)) as u32);
                self.live_keys.extend(key);
            } else {
                self.dead_keys.extend(key);
            }
            self.frontier_cursor += 1;
        }
        if lo < hi {
            self.segments.push(Segment::Cached(lo, hi));
        }
    }

    /// Appends delta point `d`.
    fn push_delta(&mut self, d: &DeltaPoint) {
        self.of_delta.push(self.rows.len() as u32);
        self.segments.push(Segment::Delta {
            slab: d.slab,
            idx: d.idx,
        });
        let DeltaPoint { job, record, .. } = *d;
        self.rows.push(job, 1, record.feasible, record.constants);
    }
}

/// Copies the merged dense columns of `rows` from the cached rows and
/// the slabs, segment by segment, into the room reserved for them.
// analyze::allow(indexing, scope = "fn", reason = "segments name cached rows and slab rows that exist")
fn fill(rows: &mut Rows, segments: &[Segment], cached: &Rows, slabs: &[ResultSet]) {
    for (c, column) in rows.dense_mut().iter_mut().enumerate() {
        let values = cached.dense(c);
        for &segment in segments {
            match segment {
                Segment::Cached(lo, hi) => column.extend_from_slice(&values[lo..hi]),
                Segment::Delta { slab, idx } => {
                    column.push(slabs[slab as usize].stored().1.dense(c)[idx as usize]);
                }
            }
        }
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
        let (slab_space, rows) = slab.stored();
        let placement = index.placement_of(slab_space);
        for ((idx, &record), coord) in rows.iter().zip(slab_space.coords(rows.jobs())) {
            delta.push(DeltaPoint {
                job: placement
                    .job(coord)
                    .expect("slab points are enumerated at the new epoch"),
                slab: slab_pos as u32,
                idx: idx as u32,
                record,
            });
        }
    }
    delta.sort_unstable_by_key(|d| d.job);

    let mut merged = Merged::new(cached);
    merged.merge(&index.placement_of(cached.stored().0), &delta);
    let Merged {
        mut rows,
        segments,
        of_delta,
        frontier_survivors: mut base,
        live_keys: mut base_keys,
        dead_keys,
        nonfinite,
        ..
    } = merged;

    // Frontier merge, with no physics: the delta points' skyline joins
    // the survivors' frontier. The survivors' frontier is the cached
    // frontier's surviving members plus the survivors off it that only
    // dead members dominated: with no dead member that is the surviving
    // members alone, since removing dominated points promotes nothing
    // while all their dominators remain.
    let dims = plan.objectives().len();
    let union = |base: &[u32], base_keys: &[f64]| {
        let mut delta_skyline = frontier::PrefilteredSkyline::new(dims);
        // The delta points were merged in `delta`'s order.
        for (&m, d) in of_delta.iter().zip(&delta) {
            let slab = slabs.get(d.slab as usize).map(|slab| slab.stored().1);
            if let Some(key) = slab.and_then(|slab| slab.key(&d.record, d.idx as usize)) {
                delta_skyline.offer(m, &key);
            }
        }
        let (delta_skyline, delta_keys) = delta_skyline.finish();
        union_frontier(dims, base, base_keys, &delta_skyline, &delta_keys)
    };
    // Copying the dense columns is most of a repair's time, and in a
    // fresh process most of that is the first touch of their pages. They
    // are allocated here, where a running server's allocator reuses
    // freed memory. A repair of more rows than a shard holds fills them
    // on a second thread while this one merges the frontier, which
    // without a dead member reads only the survivors' keys and the
    // slabs. A smaller one, such as a serving delta's, does both here:
    // there a thread costs more CPU than it saves. A promotion reads the
    // merged columns, so it waits for them.
    rows.reserve_exact(rows.len());
    let cached_rows = cached.stored().1;
    let merged_frontier = if dead_keys.is_empty() && rows.len() > SHARD_SIZE {
        std::thread::scope(|scope| {
            scope.spawn(|| fill(&mut rows, &segments, cached_rows, &slabs));
            union(&base, &base_keys)
        })
    } else {
        fill(&mut rows, &segments, cached_rows, &slabs);
        if !dead_keys.is_empty() {
            // The candidates are every eligible merged row that neither a
            // delta point nor a surviving frontier member took.
            let mut taken: Vec<u32> = of_delta.iter().chain(&base).copied().collect();
            taken.sort_unstable();
            let mut taken = taken.into_iter().peekable();
            let eligible = rows
                .keys()
                .map(|(m, key)| (m as u32, key))
                .filter(|&(m, _)| {
                    while taken.next_if(|&t| t < m).is_some() {}
                    taken.peek() != Some(&m)
                });
            for m in frontier::promoted(dims, &dead_keys, &base_keys, eligible) {
                let key = rows
                    .record(m as usize)
                    .and_then(|r| rows.key(r, m as usize));
                base_keys.extend(key.into_iter().flatten().take(dims));
                base.push(m);
            }
        }
        union(&base, &base_keys)
    };

    rows.shrink_to_fit();
    // The slabs' nonfinite accounting transfers verbatim: every slab
    // point entered the merged result.
    let nonfinite = nonfinite + slabs.iter().map(ResultSet::nonfinite).sum::<usize>();

    let (uncharacterized, dropped) = (space.uncharacterized, space.job_count() - rows.len());
    Ok(Repair::Repaired(Box::new(ResultSet::retained(
        space,
        rows,
        merged_frontier,
        uncharacterized,
        dropped,
        nonfinite,
    ))))
}

#[cfg(test)]
mod tests {
    use f1_components::{Catalog, CatalogDelta, CatalogStore};
    use f1_units::{Hertz, Watts};

    use crate::query::{Constraint, Objective};
    use crate::session::Session;

    use super::*;

    /// Twenty single-pair throughput patches in a row, each repaired from
    /// the previous repair: the records never fragment, because every
    /// writer coalesces rows into the one encoding a cold run has.
    #[test]
    fn successive_repairs_keep_a_cold_runs_records() {
        let catalog = Catalog::synthesize(42, 12);
        let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
        let pairs: Vec<(String, String, f64)> = catalog
            .matrix()
            .iter()
            .map(|(compute, algorithm, hz)| (compute.to_owned(), algorithm.to_owned(), hz.get()))
            .collect();
        let store = Arc::new(CatalogStore::new(catalog));
        let session = Session::over(Arc::clone(&store));
        let plan = QueryPlan::builder()
            .objectives(&[
                Objective::SafeVelocity,
                Objective::TotalTdp,
                Objective::PayloadMass,
                Objective::MissionEnergyWhPerKm,
            ])
            .constraint(Constraint::MaxTotalTdp(Watts::new(30.0)))
            .airframes(&[airframe])
            .build()
            .unwrap();
        session.run(&plan).unwrap();
        for epoch in 0..20u32 {
            let (compute, algorithm, hz) = &pairs[(epoch as usize * 7) % pairs.len()];
            let hz = Hertz::new(hz * (0.9 + 0.04 * f64::from(epoch % 5)));
            store
                .apply(&CatalogDelta::new().patch_throughput(compute, algorithm, hz))
                .unwrap();
            let repaired = session.refresh(&plan).unwrap();
            let cold = Session::over(Arc::clone(&store)).run(&plan).unwrap();
            assert_eq!(session.cache_stats().repairs, u64::from(epoch) + 1);
            let records = |result: &ResultSet| result.stored().1.records().to_vec();
            assert_eq!(records(&repaired), records(&cold), "epoch {epoch}");
            assert_eq!(*repaired, *cold, "epoch {epoch}");
        }
    }
}
