//! The **execute** half of the compile/execute split: a shared-pass,
//! plan-cached [`Session`] over an `Arc<Catalog>`, and the columnar
//! [`ResultSet`] it produces.
//!
//! A [`Session`] is the serving-side counterpart of
//! [`Engine`](crate::dse::Engine): it owns its catalog (no lifetimes in
//! the public API), is `Send + Sync`, and executes owned
//! [`QueryPlan`]s:
//!
//! * [`Session::run`] executes one plan on the shard kernel
//!   ([`crate::shard`]), which hoists the algorithm-independent work per
//!   (sensor, compute) pair and reduces shards in parallel.
//! * [`Session::run_batch`] fuses a whole batch of plans into **one**
//!   parallel pass — candidates are enumerated and the momentum-theory
//!   outcome evaluated *once*, then each plan's constraint filter and
//!   objective rows are applied in-pass — so eight what-if questions
//!   over a 10⁵-candidate catalog cost barely more than one.
//! * Completed results are memoized under each plan's
//!   [canonical key](crate::plan::QueryPlan::key): a repeated query is a
//!   cache lookup returning the same `Arc<ResultSet>`, not a pass.
//!
//! ```
//! use std::sync::Arc;
//! use f1_components::Catalog;
//! use f1_skyline::plan::QueryPlan;
//! use f1_skyline::query::Objective;
//! use f1_skyline::session::Session;
//!
//! let session = Session::new(Arc::new(Catalog::paper()));
//! let plan = QueryPlan::builder()
//!     .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
//!     .build()?;
//! let result = session.run(&plan)?;          // one kernel pass
//! let again = session.run(&plan)?;           // plan-cache hit
//! assert!(Arc::ptr_eq(&result, &again));
//! let top = result.top_k(3);                 // bounded-heap, no full sort
//! assert_eq!(top, &result.ranked()[..3]);
//! # Ok::<(), f1_skyline::SkylineError>(())
//! ```

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use f1_components::{
    Airframe, AirframeId, AlgorithmId, Catalog, CatalogEpoch, CatalogStore, ComponentError,
    ComputeId, ComputePlatform, EpochSnapshot, Sensor, SensorId, ThroughputTable,
};
use f1_model::heatsink::HeatsinkModel;
use f1_model::mission::{hover_endurance, PowerModel};
use f1_model::roofline::Saturation;
use f1_units::{Grams, Hertz, Meters};
use serde::{Deserialize, Serialize};

use crate::dse::{evaluate_parts_with, Candidate, Outcome};
use crate::plan::QueryPlan;
use crate::query::{
    Constraint, Knob, KnobSetting, MissionProfile, Objective, QueryPoint, MAX_OBJECTIVES,
};
use crate::sweep::{auto_chunk_size, parallel_map_indices};
use crate::tier2::{SharedTier2, SimBlock, SimStats, Tier2Context};
use crate::{frontier, SkylineError};

// ---------------------------------------------------------------------
// ResultSet
// ---------------------------------------------------------------------

/// The columnar result of executing one plan: every evaluated point that
/// passed the constraints, per-objective value columns, and the Pareto
/// frontier.
///
/// Objective values are stored **column-major** — one contiguous
/// `Vec<f64>` per objective ([`column`](Self::column)) — the layout a
/// serving tier wants for export, streaming top-k selection and
/// columnar analytics. Point identity (airframe, candidate, knob
/// setting, outcome) stays row-wise in [`points`](Self::points).
///
/// Ranked access scales down gracefully: [`top_k`](Self::top_k) selects
/// the best *k* with a bounded heap in O(n log k) without materializing
/// the full ranking, [`pages`](Self::pages) iterates fixed-size windows
/// for paged serving, and [`ranked`](Self::ranked) still materializes
/// everything when asked.
///
/// The serde derives are inert markers today (`crates/ext/serde`); the
/// working export format is [`to_json`](Self::to_json).
///
/// Internally, result sets produced by one shared-pass batch all point
/// into **one** `Arc`-shared store of evaluated points (a plan holds
/// the indices its constraints kept), so an 8-plan batch materializes
/// the heavyweight point rows once, not eight times. [`point`] and the
/// iterators read through the indirection for free;
/// [`points`](Self::points) materializes a contiguous slice lazily on
/// first call.
///
/// # Streamed mode
///
/// Plans whose [`KeepPoints`](crate::plan::KeepPoints) policy resolves
/// to streaming never materialize the full point store: the shard
/// kernel ([`crate::shard`]) keeps the Pareto frontier, a bounded top-k
/// ([`crate::shard::STREAM_TOP_K`] indices) and the accounting
/// counters, all **bit-identical** to a materializing run of the same
/// plan and still addressed by the same global enumeration indices.
/// Accessors that need an arbitrary point ([`points`](Self::points),
/// [`minimized_keys`](Self::minimized_keys), [`point`](Self::point) on
/// a non-stored index) panic with a clear message in streamed mode;
/// [`frontier`](Self::frontier), [`top_k`](Self::top_k),
/// [`best`](Self::best), [`to_json`](Self::to_json) and the counters
/// work in both. [`is_streamed`](Self::is_streamed) and
/// [`stored_indices`](Self::stored_indices) report the mode.
///
/// [`point`]: Self::point
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultSet {
    objectives: Vec<Objective>,
    /// Point storage **segments**. Segment 0 is the producing pass's
    /// store (the points at least one plan of the batch kept, in
    /// enumeration order, shared across the batch); incremental delta
    /// repair splices the slab passes' stores as further segments, so a
    /// repaired result shares the surviving point rows with the result
    /// it was repaired from instead of duplicating tens of megabytes.
    segments: Vec<Arc<Vec<QueryPoint>>>,
    /// References into `segments` this plan kept, in enumeration order
    /// (`None`: segment 0 *is* the point list).
    kept: Option<Vec<PointRef>>,
    /// Lazily materialized contiguous point list for
    /// [`points`](Self::points) when `kept` is `Some`.
    points_cache: std::sync::OnceLock<Vec<QueryPoint>>,
    /// One column per objective, each `len()` long, in each objective's
    /// natural (unnegated) unit.
    columns: Vec<Vec<f64>>,
    frontier: Vec<usize>,
    uncharacterized: usize,
    dropped: usize,
    nonfinite: usize,
    /// `Some` when this result was produced in streaming mode:
    /// segment 0 holds only the stored (frontier ∪ top-k) points and
    /// `columns` only their rows, while indices everywhere stay global.
    streamed: Option<StreamedMeta>,
    /// The tier-2 simulation block, attached by the session after the
    /// tier-1 pass for plans with sim objectives (see [`crate::tier2`]).
    /// Part of the result's logical identity: memoized, spilled and
    /// equality-compared with everything else.
    sim: Option<SimBlock>,
}

/// The streamed-mode bookkeeping of a [`ResultSet`]: how many points
/// the plan logically kept, which global indices were materialized, and
/// the bounded top-k ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct StreamedMeta {
    /// Logical kept-point count (what `len()` reports).
    pub(crate) total_kept: usize,
    /// Ascending global indices of the stored points — row `r` of
    /// segment 0 and of every column is the point `stored[r]`.
    pub(crate) stored: Vec<usize>,
    /// Global indices of the best-ranked points, in rank order, at most
    /// [`crate::shard::STREAM_TOP_K`] of them. Always a subset of
    /// `stored`.
    pub(crate) topk: Vec<usize>,
}

impl PartialEq for ResultSet {
    /// Logical equality: same objectives, same point sequence (read
    /// through the shared store without materializing), same columns,
    /// frontier and accounting. Streamed results compare their stored
    /// subset (plus the streamed bookkeeping itself); a streamed and a
    /// materializing result are never equal — they answer different
    /// queries even when produced from the same plan shape.
    fn eq(&self, other: &Self) -> bool {
        self.objectives == other.objectives
            && self.len() == other.len()
            && self.columns == other.columns
            && self.frontier == other.frontier
            && self.uncharacterized == other.uncharacterized
            && self.dropped == other.dropped
            && self.nonfinite == other.nonfinite
            && self.streamed == other.streamed
            && self.sim == other.sim
            && match &self.streamed {
                None => (0..self.len()).all(|i| self.point(i) == other.point(i)),
                Some(meta) => meta.stored.iter().all(|&i| self.point(i) == other.point(i)),
            }
    }
}

/// One kept point's location in a [`ResultSet`]'s segmented store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PointRef {
    pub(crate) segment: u32,
    pub(crate) index: u32,
}

impl ResultSet {
    /// Builds a result whose `store` is exactly its kept point list.
    pub(crate) fn from_own_points(
        objectives: Vec<Objective>,
        points: Vec<QueryPoint>,
        columns: Vec<Vec<f64>>,
        frontier: Vec<usize>,
        uncharacterized: usize,
        dropped: usize,
        nonfinite: usize,
    ) -> Self {
        Self {
            objectives,
            segments: vec![Arc::new(points)],
            kept: None,
            points_cache: std::sync::OnceLock::new(),
            columns,
            frontier,
            uncharacterized,
            dropped,
            nonfinite,
            streamed: None,
            sim: None,
        }
    }

    /// Builds a streamed-mode result: `stored_points` (and the column
    /// rows) cover only the frontier ∪ top-k survivors, ascending by
    /// global index; `meta` carries the logical count and rankings.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_streamed(
        objectives: Vec<Objective>,
        stored_points: Vec<QueryPoint>,
        columns: Vec<Vec<f64>>,
        frontier: Vec<usize>,
        meta: StreamedMeta,
        uncharacterized: usize,
        dropped: usize,
        nonfinite: usize,
    ) -> Self {
        debug_assert_eq!(stored_points.len(), meta.stored.len());
        debug_assert!(meta.stored.windows(2).all(|w| w[0] < w[1]));
        Self {
            objectives,
            segments: vec![Arc::new(stored_points)],
            kept: None,
            points_cache: std::sync::OnceLock::new(),
            columns,
            frontier,
            uncharacterized,
            dropped,
            nonfinite,
            streamed: Some(meta),
            sim: None,
        }
    }

    /// Rebuilds a (materializing) result whose point store has grown
    /// many repair-spliced segments into a single contiguous segment.
    /// Logically equal to `self` (same points, columns, frontier and
    /// counters) — only the storage layout changes, trading one copy of
    /// the kept points for O(1)-segment reads afterwards.
    pub(crate) fn compacted(&self) -> Self {
        debug_assert!(self.streamed.is_none(), "streamed results have one segment");
        Self {
            objectives: self.objectives.clone(),
            segments: vec![Arc::new(self.points().to_vec())],
            kept: None,
            points_cache: std::sync::OnceLock::new(),
            columns: self.columns.clone(),
            frontier: self.frontier.clone(),
            uncharacterized: self.uncharacterized,
            dropped: self.dropped,
            nonfinite: self.nonfinite,
            streamed: None,
            sim: self.sim.clone(),
        }
    }

    /// Builds a result over an explicit segmented store — the
    /// incremental-repair constructor: surviving points reference the
    /// repaired result's segments, delta points reference the slab
    /// passes' stores.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_segments(
        objectives: Vec<Objective>,
        segments: Vec<Arc<Vec<QueryPoint>>>,
        kept: Vec<PointRef>,
        columns: Vec<Vec<f64>>,
        frontier: Vec<usize>,
        uncharacterized: usize,
        dropped: usize,
        nonfinite: usize,
    ) -> Self {
        Self {
            objectives,
            segments,
            kept: Some(kept),
            points_cache: std::sync::OnceLock::new(),
            columns,
            frontier,
            uncharacterized,
            dropped,
            nonfinite,
            streamed: None,
            sim: None,
        }
    }

    /// The point storage segments (for the repair path, which splices
    /// new segment lists from old ones).
    pub(crate) fn segments(&self) -> &[Arc<Vec<QueryPoint>>] {
        &self.segments
    }

    /// The segmented-store location of the point at `index`
    /// (materializing results only — repair never splices a streamed
    /// result).
    // analyze::allow(indexing, scope = "fn", reason = "callers pass indices < len(), the kept vec length — crate-internal accessor")
    pub(crate) fn point_ref(&self, index: usize) -> PointRef {
        debug_assert!(self.streamed.is_none());
        match &self.kept {
            None => PointRef {
                segment: 0,
                index: index as u32,
            },
            Some(kept) => kept[index],
        }
    }

    /// Whether this result was produced in streamed mode (frontier +
    /// top-k + accounting only; see the type-level *streamed mode*
    /// section).
    #[must_use]
    pub fn is_streamed(&self) -> bool {
        self.streamed.is_some()
    }

    /// Global indices of the materialized points of a streamed result
    /// (the frontier ∪ top-k survivors), ascending; `None` for a
    /// materializing result, where every index `0..len()` is available.
    #[must_use]
    pub fn stored_indices(&self) -> Option<&[usize]> {
        self.streamed.as_ref().map(|m| m.stored.as_slice())
    }

    /// Number of point-store segments (1 after a cold pass or
    /// compaction; delta repair splices more). Diagnostic — the
    /// accessors hide segmentation entirely.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Maps a global point index to its row position in the stored
    /// columns/points, panicking for an index a streamed result did not
    /// keep.
    // analyze::allow(panic, scope = "fn", reason = "documented `# Panics` contract for unstored streamed indices; serving code routes through try_point")
    fn row_pos(&self, index: usize) -> usize {
        match &self.streamed {
            None => index,
            Some(meta) => meta.stored.binary_search(&index).unwrap_or_else(|_| {
                panic!(
                    "point {index} is not materialized in this streamed result \
                     (only the frontier and top-k are stored; see stored_indices())"
                )
            }),
        }
    }

    /// Number of stored rows (= `len()` for materializing results, the
    /// stored-subset size for streamed ones).
    fn rows_len(&self) -> usize {
        self.streamed
            .as_ref()
            .map_or_else(|| self.len(), |m| m.stored.len())
    }

    /// The global index of stored row `r` (identity when materializing).
    // analyze::allow(indexing, scope = "fn", reason = "r ranges over rows_len() == stored.len() at every call site")
    fn row_global(&self, r: usize) -> usize {
        self.streamed.as_ref().map_or(r, |m| m.stored[r])
    }

    /// The plan's objectives, primary first.
    #[must_use]
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// The point at `index`, in deterministic enumeration order
    /// (airframe-major, then knob setting, then sensor × compute ×
    /// algorithm in name order). Reads through the batch-shared store —
    /// prefer this (or the iterators) over [`points`](Self::points) when
    /// a contiguous slice isn't needed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or if a streamed result did
    /// not store the point (only frontier and top-k indices are
    /// addressable then).
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "documented `# Panics` accessor; try_point is the checked sibling the serving tier uses")
    pub fn point(&self, index: usize) -> &QueryPoint {
        if self.streamed.is_some() {
            return &self.segments[0][self.row_pos(index)];
        }
        match &self.kept {
            None => &self.segments[0][index],
            Some(kept) => {
                let r = kept[index];
                &self.segments[r.segment as usize][r.index as usize]
            }
        }
    }

    /// Non-panicking [`point`](Self::point): `None` when `index` is out
    /// of range, or when a streamed result did not materialize the
    /// point (only frontier ∪ top-k indices are stored then). This is
    /// the accessor a serving tier should route client-supplied indices
    /// through — a bad request becomes a structured error, not a dead
    /// worker.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "every index is checked against len() or comes from a binary_search hit")
    pub fn try_point(&self, index: usize) -> Option<&QueryPoint> {
        if index >= self.len() {
            return None;
        }
        match &self.streamed {
            Some(meta) => {
                let r = meta.stored.binary_search(&index).ok()?;
                Some(&self.segments[0][r])
            }
            None => match &self.kept {
                None => Some(&self.segments[0][index]),
                Some(kept) => {
                    let r = kept[index];
                    Some(&self.segments[r.segment as usize][r.index as usize])
                }
            },
        }
    }

    /// Non-panicking [`points`](Self::points): `None` for a streamed
    /// result, whose full point list was never materialized (use
    /// [`stored_indices`](Self::stored_indices) with
    /// [`try_point`](Self::try_point) instead).
    #[must_use]
    pub fn try_points(&self) -> Option<&[QueryPoint]> {
        if self.streamed.is_some() {
            return None;
        }
        Some(self.points())
    }

    /// Non-panicking [`row`](Self::row): the objective values of point
    /// `index` across the columns, `None` when the index is out of
    /// range or unstored in a streamed result.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "row index is a binary_search hit or checked against len(); columns are row-aligned")
    pub fn try_row(&self, index: usize) -> Option<Vec<f64>> {
        if index >= self.len() {
            return None;
        }
        let r = match &self.streamed {
            Some(meta) => meta.stored.binary_search(&index).ok()?,
            None => index,
        };
        Some(self.columns.iter().map(|c| c[r]).collect())
    }

    /// Every kept point as a contiguous slice, in enumeration order.
    /// When this result shares a batch's point store and kept only a
    /// subset, the slice is materialized lazily on first call (and
    /// cached); [`point`](Self::point), [`iter_points`](Self::iter_points)
    /// and the ranked/paged accessors never pay that copy.
    ///
    /// # Panics
    ///
    /// Panics on a streamed result — the full point list was never
    /// materialized. Use [`stored_indices`](Self::stored_indices) with
    /// [`point`](Self::point), or [`iter_points`](Self::iter_points),
    /// which yields the stored subset.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "segment 0 always exists; kept refs were built in-range by the enumeration pass")
    pub fn points(&self) -> &[QueryPoint] {
        assert!(
            self.streamed.is_none(),
            "a streamed result set does not materialize every point; \
             use stored_indices()/point(i) or iter_points()"
        );
        match &self.kept {
            None => &self.segments[0],
            Some(kept) => self.points_cache.get_or_init(|| {
                kept.iter()
                    .map(|r| self.segments[r.segment as usize][r.index as usize])
                    .collect()
            }),
        }
    }

    /// Iterates the stored points in enumeration order, reading through
    /// the shared store. For a materializing result that is every kept
    /// point; for a streamed one, the stored (frontier ∪ top-k) subset.
    pub fn iter_points(&self) -> impl Iterator<Item = &QueryPoint> {
        (0..self.rows_len()).map(|r| self.point(self.row_global(r)))
    }

    /// Number of points the plan kept. In streamed mode this is the
    /// logical count — how many candidates passed the constraints — not
    /// the (much smaller) number of stored points.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "segments is never empty: every constructor seeds segment 0")
    pub fn len(&self) -> usize {
        if let Some(meta) = &self.streamed {
            return meta.total_kept;
        }
        self.kept.as_ref().map_or(self.segments[0].len(), Vec::len)
    }

    /// Whether the result holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The contiguous value column of the objective at `position` in
    /// [`objectives`](Self::objectives). In streamed mode the column
    /// holds only the stored rows, aligned with
    /// [`stored_indices`](Self::stored_indices).
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "documented `# Panics` contract; column_for is the checked sibling")
    pub fn column(&self, position: usize) -> &[f64] {
        &self.columns[position]
    }

    /// The value column of `objective`, if the plan carried it.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "position comes from iter().position over the same objectives vec")
    pub fn column_for(&self, objective: Objective) -> Option<&[f64]> {
        self.objectives
            .iter()
            .position(|&o| o == objective)
            .map(|pos| self.columns[pos].as_slice())
    }

    /// The value of point `index` under the objective at `position`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, or if a streamed result
    /// did not store the point.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "documented `# Panics` contract; the row index is validated by row_pos")
    pub fn value(&self, index: usize, position: usize) -> f64 {
        self.columns[position][self.row_pos(index)]
    }

    /// The objective values of point `index` gathered across the
    /// columns, aligned with [`objectives`](Self::objectives).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or if a streamed result did
    /// not store the point.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "row index validated by row_pos; columns are row-aligned")
    pub fn row(&self, index: usize) -> Vec<f64> {
        let r = self.row_pos(index);
        self.columns.iter().map(|c| c[r]).collect()
    }

    /// Indices (into [`points`](Self::points)) of the Pareto frontier
    /// over all objectives jointly, ascending. Only feasible points with
    /// finite objective values participate.
    #[must_use]
    pub fn frontier(&self) -> &[usize] {
        &self.frontier
    }

    /// The frontier as points, in enumeration order.
    pub fn frontier_points(&self) -> impl Iterator<Item = &QueryPoint> {
        self.frontier.iter().map(|&i| self.point(i))
    }

    /// The rank comparator: feasible before infeasible, then by the
    /// primary objective, ties in enumeration order. Total.
    // analyze::allow(indexing, scope = "fn", reason = "comparator only sees indices < len() produced by the ranking loops")
    fn rank_cmp(&self, a: usize, b: usize) -> Ordering {
        self.point(b)
            .outcome
            .feasible
            .cmp(&self.point(a).outcome.feasible)
            .then_with(|| {
                let (va, vb) = (self.columns[0][a], self.columns[0][b]);
                if self.objectives[0].maximize() {
                    vb.total_cmp(&va)
                } else {
                    va.total_cmp(&vb)
                }
            })
            .then_with(|| a.cmp(&b))
    }

    /// Indices of all points ranked best-first: feasible before
    /// infeasible, then by the **primary** (first) objective; ties keep
    /// enumeration order. Materializes and sorts the full index vector —
    /// prefer [`top_k`](Self::top_k) when only the head is needed.
    ///
    /// A streamed result returns its bounded top-k ranking (at most
    /// [`crate::shard::STREAM_TOP_K`] indices) — the exact prefix of
    /// what the full ranking would have been.
    #[must_use]
    pub fn ranked(&self) -> Vec<usize> {
        if let Some(meta) = &self.streamed {
            return meta.topk.clone();
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| self.rank_cmp(a, b));
        order
    }

    /// The best `k` point indices in rank order, selected with a bounded
    /// heap in O(n log k) — no full sort, no O(n) ranking allocation
    /// beyond the heap. Equals `ranked()[..k]` exactly (including tie
    /// order). `k` larger than the result just returns the full ranking.
    ///
    /// A streamed result serves the prefix of its bounded top-k
    /// ranking; `k` beyond [`crate::shard::STREAM_TOP_K`] clamps to
    /// what was kept.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "slice bound is clamped to the stored top-k length first")
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        if let Some(meta) = &self.streamed {
            return meta.topk[..k.min(meta.topk.len())].to_vec();
        }
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        // Max-heap ordered worst-first via `Reverse`-free trick: the heap
        // key inverts the rank comparator, so `peek` is the worst kept
        // index and a better candidate evicts it.
        struct Key<'a> {
            set: &'a ResultSet,
            index: usize,
        }
        impl PartialEq for Key<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.index == other.index
            }
        }
        impl Eq for Key<'_> {}
        impl PartialOrd for Key<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Key<'_> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Greater = worse, so BinaryHeap's max is the eviction
                // candidate.
                self.set.rank_cmp(self.index, other.index)
            }
        }
        let mut heap: BinaryHeap<Key<'_>> = BinaryHeap::with_capacity(k + 1);
        for index in 0..self.len() {
            let key = Key { set: self, index };
            if heap.len() < k {
                heap.push(key);
            } else if let Some(worst) = heap.peek() {
                if key.cmp(worst) == Ordering::Less {
                    heap.pop();
                    heap.push(key);
                }
            }
        }
        heap.into_sorted_vec()
            .into_iter()
            .map(|k| k.index)
            .collect()
    }

    /// The best feasible point by the primary objective, if any —
    /// bounded-heap selection, no full ranking.
    #[must_use]
    pub fn best(&self) -> Option<&QueryPoint> {
        self.top_k(1)
            .first()
            .map(|&i| self.point(i))
            .filter(|p| p.outcome.feasible)
    }

    /// One fixed-size window of the result, for paged serving.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero (`offset` past the end just yields an
    /// empty page).
    #[must_use]
    pub fn page(&self, offset: usize, limit: usize) -> ResultPage<'_> {
        assert!(limit > 0, "page limit must be positive");
        let start = offset.min(self.len());
        let end = offset.saturating_add(limit).min(self.len());
        ResultPage {
            set: self,
            start,
            end,
        }
    }

    /// Iterates the whole result as consecutive pages of at most
    /// `limit` points, in enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn pages(&self, limit: usize) -> impl Iterator<Item = ResultPage<'_>> {
        assert!(limit > 0, "page limit must be positive");
        (0..self.len().div_ceil(limit)).map(move |p| self.page(p * limit, limit))
    }

    /// Sensor × compute × algorithm combinations skipped **per airframe
    /// and knob setting** because the platform × algorithm pair was never
    /// characterized.
    #[must_use]
    pub fn uncharacterized(&self) -> usize {
        self.uncharacterized
    }

    /// Number of evaluated points rejected by the plan's constraints.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of **feasible** points whose objective row contains a
    /// non-finite value (e.g. [`Objective::MissionEnergyWhPerKm`] at a
    /// vanishing achieved velocity → `+∞`). Such points stay in
    /// [`points`](Self::points) and the ranked report but cannot
    /// participate in the frontier, which is defined over finite keys
    /// only — this counter is the accounting for that exclusion, so no
    /// feasible point ever vanishes silently.
    #[must_use]
    pub fn nonfinite(&self) -> usize {
        self.nonfinite
    }

    /// The tier-2 simulation block, when this result was produced by a
    /// plan with sim objectives on a session with a
    /// [`Tier2Evaluator`](crate::tier2::Tier2Evaluator) installed.
    #[must_use]
    pub fn sim(&self) -> Option<&SimBlock> {
        self.sim.as_ref()
    }

    /// Returns this result with `block` attached as its tier-2 sim
    /// block (session-internal: the block is computed once per
    /// `(plan key, epoch)` and memoized with the result).
    pub(crate) fn with_sim(mut self, block: SimBlock) -> Self {
        self.sim = Some(block);
        self
    }

    /// The tier-1 **survivor set** a tier-2 pass simulates: Pareto
    /// frontier ∪ the best `budget` ranked indices, deduplicated,
    /// ascending. Works identically in materializing and streamed mode
    /// for `budget ≤ `[`STREAM_TOP_K`](crate::shard::STREAM_TOP_K) —
    /// a streamed result stores exactly frontier ∪ top-k, so every
    /// survivor is addressable via [`point`](Self::point)/[`value`](Self::value).
    #[must_use]
    pub fn survivors(&self, budget: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self.frontier.clone();
        out.extend(self.top_k(budget));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The frontier's input domain: minimized objective-key rows
    /// (maximize objectives negated) for every feasible point with
    /// finite values, plus the map from key-row position back to the
    /// index in [`points`](Self::points). This is exactly what
    /// [`frontier`](Self::frontier) was computed from — benchmarks and
    /// tests that compare skyline algorithms against the naive scan
    /// should extract keys through here so they keep measuring the
    /// production path. Feasible points skipped for non-finite rows are
    /// counted by [`nonfinite`](Self::nonfinite).
    ///
    /// # Panics
    ///
    /// Panics on a streamed result: the full key domain was reduced
    /// shard-by-shard and never materialized.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "i < len() and columns are row-aligned with the point list")
    pub fn minimized_keys(&self) -> (Vec<f64>, Vec<usize>) {
        assert!(
            self.streamed.is_none(),
            "a streamed result set never materialized its full frontier key domain"
        );
        let mut keys = Vec::new();
        let mut map = Vec::new();
        'points: for i in 0..self.len() {
            let point = self.point(i);
            if !point.outcome.feasible {
                continue;
            }
            for column in &self.columns {
                if !column[i].is_finite() {
                    continue 'points;
                }
            }
            map.push(i);
            keys.extend(minimized_row(&self.columns, &self.objectives, i));
        }
        (keys, map)
    }

    /// Serializes the result for serving: a self-describing JSON
    /// document with the objective schema, the per-objective value
    /// columns (column-major, `null` for non-finite values — JSON has
    /// no `Infinity`), the catalog-resolved build identity of every
    /// point, the frontier indices and the accounting counters. The
    /// catalog must be the one the plan executed against.
    ///
    /// A streamed result exports its stored (frontier ∪ top-k) rows
    /// plus a `"stored"` array mapping each row to its global index
    /// (`"count"` stays the logical kept count), so consumers can tell
    /// the modes apart.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "pos enumerates self.objectives; columns are objective-aligned by construction")
    pub fn to_json(&self, catalog: &Catalog) -> String {
        let mut out = String::with_capacity(64 + self.len() * 96);
        out.push_str("{\n  \"objectives\": [");
        for (i, o) in self.objectives.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"label\": {}, \"unit\": {}, \"maximize\": {}}}",
                json_string(o.label()),
                json_string(o.unit()),
                o.maximize()
            ));
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"count\": {}, \"dropped\": {}, \"uncharacterized\": {}, \"nonfinite\": {},\n",
            self.len(),
            self.dropped,
            self.uncharacterized,
            self.nonfinite
        ));
        if let Some(meta) = &self.streamed {
            out.push_str("  \"stored\": [");
            for (i, g) in meta.stored.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&g.to_string());
            }
            out.push_str("],\n");
        }
        out.push_str("  \"columns\": {");
        for (pos, objective) in self.objectives.iter().enumerate() {
            if pos > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(objective.label()));
            out.push_str(": [");
            for (i, v) in self.columns[pos].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_number(*v));
            }
            out.push(']');
        }
        out.push_str("},\n  \"builds\": [");
        for i in 0..self.rows_len() {
            let point = self.point(self.row_global(i));
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"airframe\": ");
            out.push_str(&json_string(catalog.airframe_by_id(point.airframe).name()));
            out.push_str(", \"sensor\": ");
            out.push_str(&json_string(
                catalog.sensor_by_id(point.candidate.sensor).name(),
            ));
            out.push_str(", \"compute\": ");
            out.push_str(&json_string(
                catalog.compute_by_id(point.candidate.compute).name(),
            ));
            out.push_str(", \"algorithm\": ");
            out.push_str(&json_string(
                catalog.algorithm_by_id(point.candidate.algorithm).name(),
            ));
            out.push_str(&format!(", \"feasible\": {}", point.outcome.feasible));
            if !point.setting.is_identity() {
                let s = &point.setting;
                out.push_str(&format!(
                    ", \"setting\": {{\"tdp_scale\": {}, \"sensor_rate_scale\": {}, \
                     \"sensor_range_scale\": {}, \"payload_delta_g\": {}, \
                     \"weight_scale\": {}, \"rotor_pull_scale\": {}}}",
                    json_number(s.tdp_scale),
                    json_number(s.sensor_rate_scale),
                    json_number(s.sensor_range_scale),
                    json_number(s.payload_delta.get()),
                    json_number(s.weight_scale),
                    json_number(s.rotor_pull_scale),
                ));
            }
            out.push('}');
        }
        out.push_str("\n  ],\n  \"frontier\": [");
        for (i, f) in self.frontier.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&f.to_string());
        }
        out.push(']');
        if let Some(sim) = &self.sim {
            out.push_str(",\n  \"sim\": {\n    \"objectives\": [");
            for (i, o) in sim.objectives.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"label\": {}, \"maximize\": {}}}",
                    json_string(o.label()),
                    o.maximize()
                ));
            }
            out.push_str("],\n    \"survivors\": [");
            for (i, row) in sim.rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"id\": {}, \"index\": {}, \"values\": [",
                    row.candidate_id, row.index
                ));
                for (j, v) in row.values.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_number(*v));
                }
                out.push_str("]}");
            }
            out.push_str("\n    ],\n    \"report\": [");
            for (i, entry) in sim.report.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"objective\": {}, \"analytic\": {}, \"tau\": {}, \
                     \"agreement\": {}, \"outliers\": [{}]}}",
                    json_string(entry.objective.label()),
                    json_string(entry.analytic.label()),
                    json_number(entry.tau),
                    json_number(entry.agreement),
                    entry
                        .outliers
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            out.push_str("\n    ]\n  }");
        }
        out.push_str("\n}\n");
        out
    }
}

/// Row `row` of row-aligned objective `columns` as minimized keys
/// ([`Objective::minimized`]), one per objective, in order — the key
/// convention of [`ResultSet::minimized_keys`] and every executor's
/// frontier.
pub(crate) fn minimized_row<'a>(
    columns: &'a [Vec<f64>],
    objectives: &'a [Objective],
    row: usize,
) -> impl Iterator<Item = f64> + 'a {
    columns
        .iter()
        .zip(objectives)
        // analyze::allow(indexing, reason = "callers pass a row of these row-aligned columns")
        .map(move |(c, o)| o.minimized(c[row]))
}

/// One fixed-size window of a [`ResultSet`], for paged serving.
#[derive(Debug, Clone, Copy)]
pub struct ResultPage<'a> {
    set: &'a ResultSet,
    start: usize,
    end: usize,
}

impl<'a> ResultPage<'a> {
    /// Index of the first point in this page.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.start
    }

    /// Number of points in this page.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the page is empty (offset past the end).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The page's points, in enumeration order (materializes the parent
    /// result's contiguous point list on first access — see
    /// [`ResultSet::points`]).
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "page bounds were clamped to the result length in page()")
    pub fn points(&self) -> &'a [QueryPoint] {
        &self.set.points()[self.start..self.end]
    }

    /// The page's slice of an objective's value column.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "documented `# Panics` contract; page bounds clamped in page()")
    pub fn column(&self, position: usize) -> &'a [f64] {
        &self.set.columns[position][self.start..self.end]
    }

    /// Iterates `(result index, point)` pairs of the page.
    pub fn rows(self) -> impl Iterator<Item = (usize, &'a QueryPoint)> {
        let start = self.start;
        self.points()
            .iter()
            .enumerate()
            .map(move |(i, p)| (start + i, p))
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

// ---------------------------------------------------------------------
// The fused shared-pass executor
// ---------------------------------------------------------------------

/// Everything a pass needs, borrowed: both [`Engine`](crate::dse::Engine)
/// (catalog by reference) and [`Session`] (catalog behind `Arc`) project
/// themselves into one of these, so the borrowed compatibility query and
/// the owned serving path execute the **same** code.
pub(crate) struct PassContext<'a> {
    pub catalog: &'a Catalog,
    pub airframes: &'a [AirframeId],
    pub sensors: &'a [SensorId],
    pub computes: &'a [ComputeId],
    pub algorithms: &'a [AlgorithmId],
    pub table: &'a ThroughputTable,
    pub heatsink: &'a HeatsinkModel,
    pub saturation: Saturation,
}

/// Pre-built component variants for one knob setting, indexed by
/// position in the group's resolved sensor/compute/airframe lists.
/// Shared with the shard kernel ([`crate::shard`]), which resolves
/// settings through the same construction so both executors evaluate
/// byte-identical parts.
pub(crate) struct VariantParts {
    pub(crate) sensors: Vec<Sensor>,
    pub(crate) computes: Vec<ComputePlatform>,
    /// `Some` only when the setting scales an airframe knob (drone
    /// weight / rotor pull); `None` shares the stock catalog airframes.
    pub(crate) airframes: Option<Vec<Airframe>>,
    pub(crate) extra_payload: Grams,
}

/// An indexed candidate: the public [`Candidate`] plus positions into
/// the group's resolved lists (for variant lookup without id → position
/// maps in the hot loop).
#[derive(Clone, Copy)]
struct IndexedCandidate {
    candidate: Candidate,
    sensor_pos: u32,
    compute_pos: u32,
}

/// One odd-profile plan's verdict on one evaluated job. Plans whose
/// mission profile differs from the group's shared profile cannot read
/// the shared per-job value cache, so the pass materializes their rows
/// explicitly (a rare path — co-profiled batches produce no rows at
/// all).
enum PlanRow {
    /// Rejected by a constraint.
    Dropped,
    /// Passed every constraint: objective row (the first
    /// `objectives.len()` slots are meaningful).
    Kept([f64; MAX_OBJECTIVES]),
}

/// Per-job output of the fused pass: the shared outcome, the bitmask of
/// member plans whose constraints admit it, the shared-profile value
/// cache (each objective computed **once** per job, in
/// [`Objective::ALL`] order, `NaN` where no kept plan needs it), and —
/// only when the group has odd-profile members — their materialized
/// rows. Everything is inline except the rare odd-row vector
/// (`Vec::new()` does not allocate), so a batch pass allocates nothing
/// per job.
type JobOut = (Outcome, u64, [f64; MAX_OBJECTIVES], Vec<PlanRow>);

/// Validates that every id a plan carries is in range for the catalog.
fn validate_plan_ids(ctx: &PassContext<'_>, plan: &QueryPlan) -> Result<(), SkylineError> {
    fn check<T: Copy>(
        ids: Option<&[T]>,
        index: impl Fn(T) -> usize,
        count: usize,
        family: &'static str,
    ) -> Result<(), SkylineError> {
        for &id in ids.unwrap_or_default() {
            if index(id) >= count {
                return Err(SkylineError::PlanCatalog {
                    family,
                    index: index(id),
                    count,
                });
            }
        }
        Ok(())
    }
    let catalog = ctx.catalog;
    check(
        plan.airframes(),
        AirframeId::index,
        catalog.airframe_count(),
        "airframe",
    )?;
    check(
        plan.sensors(),
        SensorId::index,
        catalog.sensor_count(),
        "sensor",
    )?;
    check(
        plan.computes(),
        ComputeId::index,
        catalog.compute_count(),
        "compute",
    )?;
    check(
        plan.algorithms(),
        AlgorithmId::index,
        catalog.algorithm_count(),
        "algorithm",
    )?;
    if let Some(battery) = plan.battery() {
        if battery.index() >= catalog.battery_count() {
            return Err(SkylineError::PlanCatalog {
                family: "battery",
                index: battery.index(),
                count: catalog.battery_count(),
            });
        }
    }
    Ok(())
}

/// Two plans can share one evaluation pass when everything that shapes
/// the evaluated *outcomes* matches: the candidate subspace, the
/// expanded knob settings and the mounted battery (its mass rides on
/// every build). Objectives, constraints and mission profiles are
/// per-plan, applied in-pass.
fn same_pass(a: &QueryPlan, b: &QueryPlan) -> bool {
    a.airframes() == b.airframes()
        && a.sensors() == b.sensors()
        && a.computes() == b.computes()
        && a.algorithms() == b.algorithms()
        && a.settings() == b.settings()
        && a.battery() == b.battery()
}

/// Runs a batch of plans. Plans with the same evaluation signature share
/// one fused parallel pass; a plan alone in its pass runs on the shard
/// kernel ([`crate::shard::run`]). Results come back aligned with
/// `plans`.
// analyze::allow(indexing, scope = "fn", reason = "slot indices come from enumerate() over plans and stay < plans.len()")
// analyze::allow(panic, scope = "fn", reason = "the grouping loop assigns every plan index to exactly one group")
pub(crate) fn run_plans(
    ctx: &PassContext<'_>,
    plans: &[&QueryPlan],
    with_frontier: bool,
) -> Result<Vec<ResultSet>, SkylineError> {
    for plan in plans {
        validate_plan_ids(ctx, plan)?;
    }
    let mut out: Vec<Option<ResultSet>> = (0..plans.len()).map(|_| None).collect();
    // Plans whose keep-points policy resolves to streaming run through
    // the shard kernel, one bounded-memory pass each — streaming a
    // 10⁷-candidate member through the shared batch store would defeat
    // the policy's whole point. The rest group by pass signature below.
    let mut retaining: Vec<usize> = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        if crate::shard::should_stream(ctx, plan) {
            out[i] = Some(crate::shard::run(ctx, plan, with_frontier)?);
        } else {
            retaining.push(i);
        }
    }
    // Group by pass signature (order-preserving; batches are small, the
    // quadratic scan is noise next to a single evaluation).
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in &retaining {
        let plan = plans[i];
        match groups
            .iter_mut()
            .find(|members| same_pass(plans[members[0]], plan))
        {
            Some(members) => members.push(i),
            None => groups.push(vec![i]),
        }
    }
    for members in groups {
        // The per-job kept set is a u64 bitmask; a (pathological) group
        // beyond 64 members re-runs the pass per 64-plan chunk.
        for chunk in members.chunks(64) {
            if let [only] = *chunk {
                out[only] = Some(crate::shard::run(ctx, plans[only], with_frontier)?);
                continue;
            }
            let group_plans: Vec<&QueryPlan> = chunk.iter().map(|&i| plans[i]).collect();
            let results = run_group(ctx, &group_plans, with_frontier)?;
            for (&slot, result) in chunk.iter().zip(results) {
                out[slot] = Some(result);
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every plan belongs to exactly one group"))
        .collect())
}

/// Builds the per-setting component variants for one pass group.
///
/// This is where sweep variants are **validated**: every scaled sensor,
/// compute platform and airframe is constructed (and domain-checked)
/// here, before the batched parallel pass, so an out-of-domain knob
/// value surfaces as [`SkylineError::KnobVariant`] naming the offending
/// knob instead of aborting a running evaluation.
pub(crate) fn build_variants(
    ctx: &PassContext<'_>,
    sensors: &[SensorId],
    computes: &[ComputeId],
    airframes: &[AirframeId],
    settings: &[KnobSetting],
    battery_mass: f64,
) -> Result<Vec<VariantParts>, SkylineError> {
    let catalog = ctx.catalog;
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
            let airframes = if setting.weight_scale == 1.0 && setting.rotor_pull_scale == 1.0 {
                None
            } else {
                Some(
                    airframes
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
                        .collect::<Result<Vec<_>, _>>()?,
                )
            };
            Ok(VariantParts {
                sensors,
                computes,
                airframes,
                extra_payload: Grams::new(battery_mass + setting.payload_delta.get()),
            })
        })
        .collect()
}

/// Per-plan execution state precomputed before the pass.
struct PlanExec<'p> {
    plan: &'p QueryPlan,
    /// Positions of the plan's objectives in [`Objective::ALL`] order —
    /// the gather indices into the shared per-job value cache.
    all_indices: Vec<usize>,
    /// Bitmask over [`Objective::ALL`] positions.
    obj_mask: u8,
    /// Whether this plan reads the shared value cache: its objectives
    /// are profile-independent, or its profile equals the group's
    /// shared profile.
    shared: bool,
    /// Dense index into the per-job odd-row vector when `!shared`.
    odd_pos: usize,
}

/// Fills the requested slots (an [`Objective::ALL`]-order bitmask) of
/// one job's value cache. Each objective is computed **once per job**
/// and the momentum-theory power model is derived once, no matter how
/// many plans of the batch read the values.
// analyze::allow(indexing, scope = "fn", reason = "idx enumerates Objective::ALL, whose length is MAX_OBJECTIVES")
fn fill_values(
    mask: u8,
    vals: &mut [f64; MAX_OBJECTIVES],
    airframe: &Airframe,
    outcome: &Outcome,
    battery_wh: Option<f64>,
    profile: MissionProfile,
) -> Result<(), SkylineError> {
    let needs_power = mask & (ENERGY_BIT | ENDURANCE_BIT) != 0;
    let power: Option<PowerModel> = if needs_power && outcome.feasible {
        Some(crate::mission::power_model_for_parts(
            airframe,
            airframe.takeoff_mass(outcome.payload),
            outcome.total_tdp,
            profile.figure_of_merit,
            profile.parasitic_coeff,
        )?)
    } else {
        None
    };
    for (idx, objective) in Objective::ALL.iter().enumerate() {
        if mask & (1 << idx) == 0 {
            continue;
        }
        vals[idx] = match objective {
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
            Objective::HoverEnduranceMin => match &power {
                Some(p) => {
                    let wh = battery_wh
                        // analyze::allow(panic, reason = "plan validation rejects endurance objectives without a battery before execution")
                        .expect("plan validation rejects endurance plans without a battery");
                    hover_endurance(p, wh, profile.battery_reserve)?.get()
                }
                None => 0.0,
            },
        };
    }
    Ok(())
}

/// [`Objective::ALL`] bit of [`Objective::MissionEnergyWhPerKm`].
const ENERGY_BIT: u8 = 1 << 3;
/// [`Objective::ALL`] bit of [`Objective::HoverEnduranceMin`].
const ENDURANCE_BIT: u8 = 1 << 4;

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
/// and tie handling): a dominated point stays dominated by a kept
/// dominator, and no new frontier point can appear. A batch of
/// co-shaped plans (same objective set, e.g. a Table II budget sweep)
/// therefore shares **one** skyline pass plus O(n) intersections,
/// instead of one skyline per plan.
fn frontier_reducible(plan: &QueryPlan) -> bool {
    plan.constraints().iter().all(|c| match c {
        Constraint::FeasibleOnly => true,
        Constraint::MinVelocity(_) => plan.objectives().contains(&Objective::SafeVelocity),
        Constraint::MaxTotalTdp(_) => plan.objectives().contains(&Objective::TotalTdp),
        Constraint::MaxPayload(_) => plan.objectives().contains(&Objective::PayloadMass),
    })
}

/// Filters a component-id list to the catalog's active (non-retired)
/// ids, borrowing when nothing is filtered — which is always the case
/// for the session/engine default lists (built from active entries) and
/// for explicit plan subspaces on an unretired catalog.
pub(crate) fn active_ids<T: Copy>(list: &[T], is_active: impl Fn(T) -> bool) -> Cow<'_, [T]> {
    if list.iter().all(|&id| is_active(id)) {
        Cow::Borrowed(list)
    } else {
        Cow::Owned(list.iter().copied().filter(|&id| is_active(id)).collect())
    }
}

/// Runs one pass group of two or more plans: a single fused batched
/// parallel pass over every airframe × knob setting × characterized
/// candidate — evaluation once, then each member plan's constraint
/// filter and objective rows — followed by the per-plan O(n log n)
/// frontiers, shared between co-shaped plans where
/// [`frontier_reducible`] allows.
// analyze::allow(indexing, scope = "fn", reason = "fused-pass kernel: every index derives from enumerate()/chunks over the slices it indexes; per-element re-checks cost measurable throughput here")
fn run_group(
    ctx: &PassContext<'_>,
    plans: &[&QueryPlan],
    with_frontier: bool,
) -> Result<Vec<ResultSet>, SkylineError> {
    let rep = plans[0];
    let catalog = ctx.catalog;
    // Retired components keep their ids but leave the design space:
    // explicit plan subspaces are filtered here, so cold runs and
    // incremental repairs agree on the enumeration at every epoch.
    let airframes = active_ids(rep.airframes().unwrap_or(ctx.airframes), |id| {
        catalog.airframe_is_active(id)
    });
    let sensors = active_ids(rep.sensors().unwrap_or(ctx.sensors), |id| {
        catalog.sensor_is_active(id)
    });
    let computes = active_ids(rep.computes().unwrap_or(ctx.computes), |id| {
        catalog.compute_is_active(id)
    });
    let algorithms = active_ids(rep.algorithms().unwrap_or(ctx.algorithms), |id| {
        catalog.algorithm_is_active(id)
    });
    let (airframes, sensors, computes, algorithms): (
        &[AirframeId],
        &[SensorId],
        &[ComputeId],
        &[AlgorithmId],
    ) = (&airframes, &sensors, &computes, &algorithms);
    let settings = rep.settings();

    // Same nesting order as Engine::candidates, so a default plan
    // enumerates identically to the classic exploration.
    let mut candidates: Vec<IndexedCandidate> = Vec::new();
    for (sensor_pos, &sensor) in sensors.iter().enumerate() {
        for (compute_pos, &compute) in computes.iter().enumerate() {
            for &algorithm in algorithms {
                if let Some(throughput) = ctx.table.get(compute, algorithm) {
                    candidates.push(IndexedCandidate {
                        candidate: Candidate {
                            sensor,
                            compute,
                            algorithm,
                            throughput,
                        },
                        sensor_pos: sensor_pos as u32,
                        compute_pos: compute_pos as u32,
                    });
                }
            }
        }
    }
    let uncharacterized = sensors.len() * computes.len() * algorithms.len() - candidates.len();

    let battery = rep.battery().map(|id| catalog.battery_by_id(id));
    let battery_mass = battery.map_or(0.0, |b| b.mass().get());
    let battery_wh = battery.map(f1_components::Battery::energy_watt_hours);
    let variants = build_variants(ctx, sensors, computes, airframes, settings, battery_mass)?;
    let airframe_refs: Vec<&Airframe> = airframes
        .iter()
        .map(|&id| catalog.airframe_by_id(id))
        .collect();

    // The profile the batch's value cache is computed under: the first
    // power-needing plan's. Plans with profile-independent objectives
    // share the cache regardless; a power-needing plan with a different
    // profile is an "odd" member and materializes its own rows.
    let shared_profile = plans
        .iter()
        .find(|p| p.needs_power())
        .map(|p| p.mission_profile());
    let mut odd_count = 0usize;
    let execs: Vec<PlanExec<'_>> = plans
        .iter()
        .map(|plan| {
            let all_indices: Vec<usize> = plan.objectives().iter().map(|o| o.all_index()).collect();
            let obj_mask = all_indices.iter().fold(0u8, |m, &i| m | (1 << i));
            let shared = !plan.needs_power() || shared_profile == Some(plan.mission_profile());
            let odd_pos = if shared {
                usize::MAX
            } else {
                odd_count += 1;
                odd_count - 1
            };
            PlanExec {
                plan,
                all_indices,
                obj_mask,
                shared,
                odd_pos,
            }
        })
        .collect();

    // Airframe-major job order (then setting, then candidate) — the
    // explore_all compatibility wrapper relies on this layout. Jobs are
    // plain indices into that nesting; the fused pass writes each
    // (outcome, rows) straight into its slot of the output buffer, so
    // input order is output order.
    let per_airframe = settings.len() * candidates.len();
    let job_count = airframes.len() * per_airframe;
    // job_count > 0 implies candidates and settings are non-empty, so
    // the decode divisions are safe whenever a job exists.
    let decode = |job: usize| {
        (
            job / per_airframe,
            (job / candidates.len()) % settings.len(),
            job % candidates.len(),
        )
    };
    let evaluated = parallel_map_indices(job_count, auto_chunk_size(job_count), |job| {
        let (airframe_pos, setting_pos, candidate_pos) = decode(job);
        let indexed = &candidates[candidate_pos];
        let parts = &variants[setting_pos];
        let airframe: &Airframe = parts
            .airframes
            .as_ref()
            .map_or(airframe_refs[airframe_pos], |a| &a[airframe_pos]);
        let outcome = evaluate_parts_with(
            ctx.heatsink,
            ctx.saturation,
            airframe,
            &parts.sensors[indexed.sensor_pos as usize],
            &parts.computes[indexed.compute_pos as usize],
            indexed.candidate.throughput,
            parts.extra_payload,
        )?;
        // Cheap per-plan constraint filter first: objective values are
        // only derived for points at least one plan keeps.
        let mut kept_mask = 0u64;
        for (i, exec) in execs.iter().enumerate() {
            if exec.plan.constraints().iter().all(|c| c.admits(&outcome)) {
                kept_mask |= 1 << i;
            }
        }
        let mut vals = [f64::NAN; MAX_OBJECTIVES];
        let mut odd_rows: Vec<PlanRow> = Vec::new();
        if kept_mask != 0 {
            // One value-cache fill for the union of the keeping shared
            // plans' objectives: the power model and every objective are
            // computed once per job regardless of batch width.
            let mut union_mask = 0u8;
            for (i, exec) in execs.iter().enumerate() {
                if exec.shared && kept_mask & (1 << i) != 0 {
                    union_mask |= exec.obj_mask;
                }
            }
            if union_mask != 0 {
                fill_values(
                    union_mask,
                    &mut vals,
                    airframe,
                    &outcome,
                    battery_wh,
                    shared_profile.unwrap_or_default(),
                )?;
            }
            if odd_count > 0 {
                odd_rows = Vec::with_capacity(odd_count);
                for (i, exec) in execs.iter().enumerate().filter(|(_, e)| !e.shared) {
                    if kept_mask & (1 << i) != 0 {
                        let mut own = [f64::NAN; MAX_OBJECTIVES];
                        fill_values(
                            exec.obj_mask,
                            &mut own,
                            airframe,
                            &outcome,
                            battery_wh,
                            exec.plan.mission_profile(),
                        )?;
                        let mut row = [0.0; MAX_OBJECTIVES];
                        for (slot, &idx) in row.iter_mut().zip(&exec.all_indices) {
                            *slot = own[idx];
                        }
                        odd_rows.push(PlanRow::Kept(row));
                    } else {
                        odd_rows.push(PlanRow::Dropped);
                    }
                }
            }
        }
        Ok::<JobOut, SkylineError>((outcome, kept_mask, vals, odd_rows))
    });

    // Identify the shared-skyline sets up front (see
    // `frontier_reducible`): one skyline over the union domain per
    // distinct objective set with at least two reducible members; each
    // member then intersects in O(n). The union of the members' kept
    // sets is itself downward-closed, so restricting the domain to jobs
    // some member kept is exact.
    let mut share_sets: Vec<(u8, u64)> = Vec::new();
    if with_frontier {
        let mut counted: Vec<(u8, u64, usize)> = Vec::new();
        for (i, exec) in execs.iter().enumerate() {
            if exec.shared && frontier_reducible(exec.plan) {
                match counted.iter_mut().find(|(mask, ..)| *mask == exec.obj_mask) {
                    Some((_, bits, count)) => {
                        *bits |= 1 << i;
                        *count += 1;
                    }
                    None => counted.push((exec.obj_mask, 1 << i, 1)),
                }
            }
        }
        share_sets = counted
            .into_iter()
            .filter(|&(_, _, count)| count >= 2)
            .map(|(mask, bits, _)| (mask, bits))
            .collect();
    }

    // One fused sequential sweep over the evaluated buffer builds every
    // member plan's points, columns and kept-job list plus each share
    // set's skyline domain — the job buffer (tens of MB at 10⁵
    // candidates) is streamed ONCE instead of once per plan, which is
    // what makes an 8-plan batch land near the cost of one query.
    struct PlanAccum {
        columns: Vec<Vec<f64>>,
        kept_jobs: Vec<u32>,
        nonfinite: usize,
    }
    // Exact preallocation from a cheap mask pre-scan: growth
    // reallocations would otherwise rewrite each plan's point and
    // column buffers about once over, interleaved across the batch.
    let mut kept_counts = vec![0usize; execs.len()];
    let mut union_count = 0usize;
    for (_, kept_mask, _, _) in evaluated.iter().flatten() {
        union_count += usize::from(*kept_mask != 0);
        for (i, count) in kept_counts.iter_mut().enumerate() {
            *count += usize::from(kept_mask & (1 << i) != 0);
        }
    }
    let mut accums: Vec<PlanAccum> = execs
        .iter()
        .zip(&kept_counts)
        .map(|(exec, &kept)| PlanAccum {
            columns: vec![Vec::with_capacity(kept); exec.all_indices.len()],
            kept_jobs: Vec::with_capacity(kept),
            nonfinite: 0,
        })
        .collect();
    // The batch-shared point store: the points at least one member
    // plan kept, built ONCE in enumeration order (plans hold indices
    // into it), so the heavyweight point rows are never materialized
    // per plan — and jobs every plan dropped are never retained.
    let mut store: Vec<QueryPoint> = Vec::with_capacity(union_count);
    // (keys, job map) per share set, filled during the sweep.
    let mut domains: Vec<(Vec<f64>, Vec<u32>)> = share_sets
        .iter()
        .map(|_| (Vec::new(), Vec::new()))
        .collect();
    let job_total = evaluated.len();
    for (job, result) in evaluated.into_iter().enumerate() {
        // Propagate the first evaluation error in enumeration order
        // (unreachable for catalog parts and validated variants).
        let (outcome, kept_mask, vals, odd_rows) = result?;
        if kept_mask == 0 {
            continue;
        }
        let (airframe_pos, setting_pos, candidate_pos) = decode(job);
        store.push(QueryPoint {
            airframe: airframes[airframe_pos],
            candidate: candidates[candidate_pos].candidate,
            setting: settings[setting_pos],
            outcome,
        });
        let store_pos = (store.len() - 1) as u32;
        for (plan_pos, (exec, accum)) in execs.iter().zip(&mut accums).enumerate() {
            if kept_mask & (1 << plan_pos) == 0 {
                continue;
            }
            let k = exec.all_indices.len();
            let mut row = [0.0; MAX_OBJECTIVES];
            if exec.shared {
                for (slot, &idx) in row.iter_mut().zip(&exec.all_indices) {
                    *slot = vals[idx];
                }
            } else {
                match &odd_rows[exec.odd_pos] {
                    PlanRow::Kept(r) => row = *r,
                    // analyze::allow(panic, reason = "the kept bit is only set in the same iteration that stored the odd row")
                    PlanRow::Dropped => unreachable!("kept bit set for a dropped odd row"),
                }
            }
            if outcome.feasible && row[..k].iter().any(|v| !v.is_finite()) {
                accum.nonfinite += 1;
            }
            for (column, &v) in accum.columns.iter_mut().zip(&row[..k]) {
                column.push(v);
            }
            accum.kept_jobs.push(store_pos);
        }
        if outcome.feasible {
            'sets: for (&(mask, bits), (keys, map)) in share_sets.iter().zip(&mut domains) {
                if kept_mask & bits == 0 {
                    continue;
                }
                for (idx, v) in vals.iter().enumerate() {
                    if mask & (1 << idx) != 0 && !v.is_finite() {
                        continue 'sets;
                    }
                }
                map.push(store_pos);
                for (idx, objective) in Objective::ALL.iter().enumerate() {
                    if mask & (1 << idx) != 0 {
                        keys.push(objective.minimized(vals[idx]));
                    }
                }
            }
        }
    }

    // One skyline per share set over its union domain.
    let share_frontiers: Vec<Vec<u32>> = share_sets
        .iter()
        .zip(&domains)
        .map(|(&(mask, _), (keys, map))| {
            frontier::pareto_min(mask.count_ones() as usize, keys)
                .iter()
                .map(|&i| map[i])
                .collect()
        })
        .collect();

    // Per-plan frontiers: share-set members intersect (exact by the
    // downward-closure argument), the rest run their own skyline — in
    // parallel, since at 10⁵ points the d≥4 skyline of a non-reducible
    // plan is the per-plan cost that would otherwise serialize a batch.
    let frontiers: Vec<Vec<usize>> = if with_frontier {
        parallel_map_indices(plans.len(), 1, |plan_pos| {
            let exec = &execs[plan_pos];
            let accum = &accums[plan_pos];
            let bit = 1u64 << plan_pos;
            let shared = share_sets
                .iter()
                .position(|&(mask, bits)| mask == exec.obj_mask && bits & bit != 0);
            if let Some(set_pos) = shared {
                // Intersect the shared skyline's store positions with
                // this plan's kept list (both ascending), mapping to
                // kept positions.
                let kept_jobs = &accum.kept_jobs;
                let mut out = Vec::new();
                let mut ki = 0usize;
                for &frontier_pos in &share_frontiers[set_pos] {
                    while ki < kept_jobs.len() && kept_jobs[ki] < frontier_pos {
                        ki += 1;
                    }
                    if ki < kept_jobs.len() && kept_jobs[ki] == frontier_pos {
                        out.push(ki);
                    }
                }
                out
            } else {
                let k = exec.all_indices.len();
                let mut keys = Vec::new();
                let mut map = Vec::new();
                'points: for (i, &job) in accum.kept_jobs.iter().enumerate() {
                    if !store[job as usize].outcome.feasible {
                        continue;
                    }
                    for column in &accum.columns {
                        if !column[i].is_finite() {
                            continue 'points;
                        }
                    }
                    map.push(i);
                    keys.extend(minimized_row(&accum.columns, exec.plan.objectives(), i));
                }
                frontier::pareto_min(k, &keys)
                    .into_iter()
                    .map(|i| map[i])
                    .collect()
            }
        })
    } else {
        vec![Vec::new(); plans.len()]
    };

    let store = Arc::new(store);
    Ok(execs
        .iter()
        .zip(accums)
        .zip(frontiers)
        .map(|((exec, accum), frontier)| ResultSet {
            objectives: exec.plan.objectives().to_vec(),
            dropped: job_total - accum.kept_jobs.len(),
            segments: vec![Arc::clone(&store)],
            // A plan that kept every job reads the store directly —
            // `points()` is then free, not a lazy copy.
            kept: (accum.kept_jobs.len() != store.len()).then_some(
                accum
                    .kept_jobs
                    .into_iter()
                    .map(|index| PointRef { segment: 0, index })
                    .collect(),
            ),
            points_cache: std::sync::OnceLock::new(),
            columns: accum.columns,
            frontier,
            uncharacterized,
            nonfinite: accum.nonfinite,
            streamed: None,
            sim: None,
        })
        .collect())
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// Segment-count threshold past which [`Session::refresh`] compacts a
/// repaired result's spliced point store back into one contiguous
/// segment. Each delta repair adds roughly one segment per slab pass;
/// compaction bounds the indirection long-lived sessions accumulate
/// while keeping the amortized copy cost a small fraction of repairs.
pub const COMPACT_SEGMENT_THRESHOLD: usize = 8;

/// Cache accounting of a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Plan lookups served from the memo cache.
    pub hits: u64,
    /// Plan lookups that required a pass.
    pub misses: u64,
    /// Completed results currently held.
    pub entries: usize,
    /// Entries dropped by the LRU size cap (see
    /// [`Session::with_cache_capacity`]).
    pub evictions: u64,
    /// Results produced by incremental delta repair
    /// ([`Session::refresh`]) instead of a cold pass.
    pub repairs: u64,
}

/// One memoized result with its last-used tick (for LRU eviction).
#[derive(Debug)]
struct MemoSlot {
    result: Arc<ResultSet>,
    tick: u64,
}

/// The session memo cache: results keyed by
/// `(canonical plan key, catalog epoch)`, with optional size-capped LRU
/// eviction. Epochs nest under the plan key so
/// [`Session::refresh`] can find the newest older-epoch result to
/// repair from without scanning the whole cache.
#[derive(Debug, Default)]
struct MemoCache {
    plans: HashMap<String, BTreeMap<u64, MemoSlot>>,
    len: usize,
    capacity: Option<usize>,
    tick: u64,
    evictions: u64,
}

impl MemoCache {
    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn get(&mut self, key: &str, epoch: u64) -> Option<Arc<ResultSet>> {
        let tick = self.bump();
        let slot = self.plans.get_mut(key)?.get_mut(&epoch)?;
        slot.tick = tick;
        Some(Arc::clone(&slot.result))
    }

    /// The newest cached result of this plan at an epoch strictly before
    /// `epoch` — the repair source for [`Session::refresh`].
    fn newest_before(&mut self, key: &str, epoch: u64) -> Option<(u64, Arc<ResultSet>)> {
        let tick = self.bump();
        let (&found, slot) = self.plans.get_mut(key)?.range_mut(..epoch).next_back()?;
        slot.tick = tick;
        Some((found, Arc::clone(&slot.result)))
    }

    fn insert(&mut self, key: &str, epoch: u64, result: Arc<ResultSet>) {
        let tick = self.bump();
        let by_epoch = self.plans.entry(key.to_owned()).or_default();
        if by_epoch.insert(epoch, MemoSlot { result, tick }).is_none() {
            self.len += 1;
        }
        if let Some(capacity) = self.capacity {
            while self.len > capacity {
                self.evict_lru();
            }
        }
    }

    /// Drops the least-recently-used entry (linear scan: capped caches
    /// are small, and eviction is off the lookup fast path). Only the
    /// victim's plan key is cloned. Tick ties break on `(key, epoch)`
    /// so the victim does not depend on hash iteration order.
    fn evict_lru(&mut self) {
        let victim = self
            .plans
            // analyze::allow(determinism, reason = "min over a total order (tick, key, epoch) — hash iteration order cannot change the victim")
            .iter()
            .flat_map(|(key, by_epoch)| {
                by_epoch
                    .iter()
                    .map(move |(&epoch, slot)| (slot.tick, key, epoch))
            })
            .min_by_key(|&(tick, key, epoch)| (tick, key, epoch))
            .map(|(_, key, epoch)| (key.clone(), epoch));
        if let Some((key, epoch)) = victim {
            // analyze::allow(panic, reason = "victim key was read from this map under &mut self — no concurrent removal possible")
            let by_epoch = self.plans.get_mut(&key).expect("victim key exists");
            by_epoch.remove(&epoch);
            if by_epoch.is_empty() {
                self.plans.remove(&key);
            }
            self.len -= 1;
            self.evictions += 1;
        }
    }

    fn clear(&mut self) {
        self.plans.clear();
        self.len = 0;
    }
}

/// One epoch's execution snapshot: the pinned catalog plus everything a
/// pass derives from it once (active id lists in name order, the dense
/// throughput table). Sessions build one per epoch they touch and share
/// it across runs.
#[derive(Debug)]
pub(crate) struct EpochState {
    pub(crate) snapshot: EpochSnapshot,
    pub(crate) airframes: Vec<AirframeId>,
    pub(crate) sensors: Vec<SensorId>,
    pub(crate) computes: Vec<ComputeId>,
    pub(crate) algorithms: Vec<AlgorithmId>,
    pub(crate) table: ThroughputTable,
}

impl EpochState {
    fn new(snapshot: EpochSnapshot) -> Self {
        let catalog = snapshot.catalog();
        Self {
            airframes: catalog.airframe_entries().map(|(id, _)| id).collect(),
            sensors: catalog.sensor_entries().map(|(id, _)| id).collect(),
            computes: catalog.compute_entries().map(|(id, _)| id).collect(),
            algorithms: catalog.algorithm_entries().map(|(id, _)| id).collect(),
            table: catalog.throughput_table(),
            snapshot,
        }
    }

    pub(crate) fn catalog(&self) -> &Arc<Catalog> {
        self.snapshot.catalog()
    }

    pub(crate) fn epoch(&self) -> CatalogEpoch {
        self.snapshot.epoch()
    }
}

/// A shared, thread-safe query-execution service over a **versioned**
/// catalog store.
///
/// A session binds to a [`CatalogStore`] rather than one catalog: every
/// published [`CatalogEpoch`] is an immutable `Arc<Catalog>` snapshot,
/// and the session derives one execution state per epoch it touches
/// (active id lists in name order, dense throughput table,
/// paper-calibrated heatsink model) — exactly what
/// [`Engine::new`](crate::dse::Engine::new) derives for its borrowed
/// catalog. The session is `Send + Sync` and free of lifetimes: clone
/// the `Arc`s, move it into a server, share it across threads.
///
/// * [`run`](Self::run) executes at the store's **current** epoch;
///   [`run_at`](Self::run_at) pins any published epoch.
/// * Results are memoized by `(plan key, epoch)`, optionally size-capped
///   with LRU eviction ([`with_cache_capacity`](Self::with_cache_capacity)).
/// * [`refresh`](Self::refresh) brings a plan to the current epoch by
///   **incrementally repairing** the newest cached older-epoch result
///   across the catalog delta: only net-new candidates are evaluated,
///   retired candidates are masked out, and the frontier is merged —
///   exactly (bit-identical to a cold run), at a fraction of the cost
///   for small deltas.
///
/// See the [module docs](self) for the shared-pass and caching
/// semantics, and [`QueryPlan`] for the owned request type.
#[derive(Debug)]
pub struct Session {
    store: Arc<CatalogStore>,
    heatsink: HeatsinkModel,
    saturation: Saturation,
    states: Mutex<HashMap<u64, Arc<EpochState>>>,
    cache: Mutex<MemoCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    repairs: AtomicU64,
    /// The tier-2 evaluation hook for plans with sim objectives; `None`
    /// (the default) fails such plans with [`SkylineError::Tier2`].
    tier2: Option<SharedTier2>,
    sim_evaluations: AtomicU64,
    sim_survivors: AtomicU64,
    sim_trials: AtomicU64,
    sim_reused: AtomicU64,
    sim_millis: AtomicU64,
}

impl Session {
    /// Opens a session over a single shared catalog (a private
    /// single-epoch store; use [`over`](Self::over) to share a store —
    /// and its delta stream — between sessions).
    #[must_use]
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self::over(Arc::new(CatalogStore::from_shared(catalog)))
    }

    /// Opens a session bound to a shared versioned catalog store.
    #[must_use]
    pub fn over(store: Arc<CatalogStore>) -> Self {
        Self {
            store,
            heatsink: HeatsinkModel::paper_calibrated(),
            saturation: Saturation::DEFAULT,
            states: Mutex::new(HashMap::new()),
            cache: Mutex::new(MemoCache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            tier2: None,
            sim_evaluations: AtomicU64::new(0),
            sim_survivors: AtomicU64::new(0),
            sim_trials: AtomicU64::new(0),
            sim_reused: AtomicU64::new(0),
            sim_millis: AtomicU64::new(0),
        }
    }

    /// Installs the tier-2 evaluation hook: plans declaring
    /// [`SimObjective`](crate::plan::SimObjective)s have their tier-1
    /// survivor set simulated by `evaluator` and the resulting
    /// [`SimBlock`] merged into the memoized result (see
    /// [`crate::tier2`]). Without an evaluator such plans fail with
    /// [`SkylineError::Tier2`]; pure analytic plans never invoke it.
    #[must_use]
    pub fn with_tier2(mut self, evaluator: SharedTier2) -> Self {
        self.tier2 = Some(evaluator);
        self
    }

    /// Caps the memo cache at `capacity` results, evicting the
    /// least-recently-used entry past the cap
    /// ([`CacheStats::evictions`] counts drops). Uncapped by default.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .capacity = Some(capacity);
        self
    }

    /// The versioned catalog store this session executes against.
    #[must_use]
    pub fn store(&self) -> &Arc<CatalogStore> {
        &self.store
    }

    /// The catalog of the store's current epoch.
    #[must_use]
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(self.store.current().catalog())
    }

    /// The store's current epoch.
    #[must_use]
    pub fn epoch(&self) -> CatalogEpoch {
        self.store.current_epoch()
    }

    /// How many per-epoch execution states a session retains. States
    /// are derived data (rebuildable from the store at any time), so a
    /// session following a rolling stream of catalog deltas stays
    /// bounded: the oldest epochs' states are dropped past the cap and
    /// transparently rebuilt if an old epoch is pinned again.
    const MAX_EPOCH_STATES: usize = 8;

    /// The execution state for an epoch snapshot, derived once and
    /// shared across runs (until evicted by [`Self::MAX_EPOCH_STATES`]).
    fn state_for(&self, snapshot: &EpochSnapshot) -> Arc<EpochState> {
        let mut states = self
            .states
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let state = Arc::clone(
            states
                .entry(snapshot.epoch().get())
                .or_insert_with(|| Arc::new(EpochState::new(snapshot.clone()))),
        );
        while states.len() > Self::MAX_EPOCH_STATES {
            // analyze::allow(panic, reason = "an entry was inserted into this map a few lines above")
            let oldest = *states.keys().min().expect("map is non-empty");
            states.remove(&oldest);
        }
        state
    }

    fn current_state(&self) -> Arc<EpochState> {
        self.state_for(&self.store.current())
    }

    fn state_at(&self, epoch: CatalogEpoch) -> Result<Arc<EpochState>, SkylineError> {
        match self.store.at(epoch) {
            Some(snapshot) => Ok(self.state_for(&snapshot)),
            None => Err(SkylineError::UnknownEpoch {
                requested: epoch.get(),
                latest: self.store.current_epoch().get(),
            }),
        }
    }

    fn pass_context<'a>(&'a self, state: &'a EpochState) -> PassContext<'a> {
        PassContext {
            catalog: state.catalog(),
            airframes: &state.airframes,
            sensors: &state.sensors,
            computes: &state.computes,
            algorithms: &state.algorithms,
            table: &state.table,
            heatsink: &self.heatsink,
            saturation: self.saturation,
        }
    }

    /// Runs the tier-2 hook for a plan with sim objectives and attaches
    /// the returned [`SimBlock`] to `result`; pass-through for pure
    /// analytic plans. `prior` is the cached result a delta repair
    /// started from, letting the evaluator reuse sim rows of survivors
    /// whose tier-1 point is unchanged.
    fn attach_tier2(
        &self,
        plan: &QueryPlan,
        state: &EpochState,
        result: ResultSet,
        prior: Option<&ResultSet>,
    ) -> Result<ResultSet, SkylineError> {
        if !plan.has_tier2() {
            return Ok(result);
        }
        let Some(evaluator) = &self.tier2 else {
            return Err(SkylineError::Tier2 {
                reason: "plan declares sim objectives but this session has no tier-2 \
                         evaluator installed (see Session::with_tier2; the f1-sim crate \
                         provides the flightsim/pipeline-backed implementation)"
                    .to_owned(),
            });
        };
        // Wall-clock feeds only the sim_millis counter, never result bytes.
        let started = std::time::Instant::now();
        let evaluation = evaluator.evaluate(&Tier2Context {
            catalog: state.catalog(),
            plan,
            result: &result,
            prior,
        })?;
        self.sim_evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        self.sim_survivors
            .fetch_add(evaluation.block.rows.len() as u64, AtomicOrdering::Relaxed);
        self.sim_trials
            .fetch_add(evaluation.usage.trials, AtomicOrdering::Relaxed);
        self.sim_reused
            .fetch_add(evaluation.usage.reused_rows, AtomicOrdering::Relaxed);
        self.sim_millis.fetch_add(
            started.elapsed().as_millis() as u64,
            AtomicOrdering::Relaxed,
        );
        Ok(result.with_sim(evaluation.block))
    }

    /// Cache read with no hit/miss accounting.
    fn peek(&self, key: &str, epoch: u64) -> Option<Arc<ResultSet>> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key, epoch)
    }

    fn insert(&self, key: &str, epoch: u64, result: Arc<ResultSet>) {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, epoch, result);
    }

    /// Executes one plan at the store's **current** epoch: a memo-cache
    /// lookup by `(`[canonical key](QueryPlan::key)`, epoch)` first, one
    /// shard-kernel pass on a miss. The cached `Arc` is returned as-is, so
    /// repeated queries are pointer-identical — bit-identical objective
    /// rows and frontier indices by construction.
    ///
    /// # Errors
    ///
    /// [`SkylineError::PlanCatalog`] when the plan's ids don't belong to
    /// this session's catalog, [`SkylineError::KnobVariant`] when a
    /// sweep value produces an out-of-domain part variant (both strictly
    /// before the pass), plus any evaluation error, propagated
    /// deterministically in enumeration order.
    pub fn run(&self, plan: &QueryPlan) -> Result<Arc<ResultSet>, SkylineError> {
        let state = self.current_state();
        self.run_at_state(plan, &state)
    }

    /// Executes one plan pinned at a published epoch — historical
    /// queries stay reproducible after the catalog moves on. Memoized
    /// like [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// [`SkylineError::UnknownEpoch`] when the store never published
    /// `epoch`, plus everything [`run`](Self::run) can produce.
    pub fn run_at(
        &self,
        plan: &QueryPlan,
        epoch: CatalogEpoch,
    ) -> Result<Arc<ResultSet>, SkylineError> {
        let state = self.state_at(epoch)?;
        self.run_at_state(plan, &state)
    }

    fn run_at_state(
        &self,
        plan: &QueryPlan,
        state: &EpochState,
    ) -> Result<Arc<ResultSet>, SkylineError> {
        let epoch = state.epoch().get();
        if let Some(hit) = self.peek(plan.key(), epoch) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Ok(hit);
        }
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        let mut results = run_plans(&self.pass_context(state), &[plan], true)?;
        // analyze::allow(panic, reason = "run_plans returns exactly one result per input plan")
        let result = results.pop().expect("one plan in, one result out");
        let result = Arc::new(self.attach_tier2(plan, state, result, None)?);
        self.insert(plan.key(), epoch, Arc::clone(&result));
        Ok(result)
    }

    /// Brings a plan's result to the store's **current** epoch, reusing
    /// work from earlier epochs:
    ///
    /// 1. current-epoch cache hit → returned as-is;
    /// 2. a cached result at an older epoch → **incrementally
    ///    repaired** across the catalog delta: survivors keep their
    ///    evaluated outcomes, retired candidates are masked out, only
    ///    net-new/re-characterized candidates run through the shard
    ///    kernel, and the frontier is merged — the result is
    ///    **bit-identical** to a cold run at the current epoch
    ///    (property-tested), and counted in [`CacheStats::repairs`];
    /// 3. otherwise a cold pass.
    ///
    /// The repaired result is memoized at the current epoch like any
    /// other.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn refresh(&self, plan: &QueryPlan) -> Result<Arc<ResultSet>, SkylineError> {
        let state = self.current_state();
        let epoch = state.epoch().get();
        if let Some(hit) = self.peek(plan.key(), epoch) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Ok(hit);
        }
        let source = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .newest_before(plan.key(), epoch);
        if let Some((old_epoch, cached)) = source {
            // The source epoch is still resolvable (stores retain every
            // epoch) unless the cache outlived a different store — then
            // fall through to a cold run.
            if let Ok(old_state) = self.state_at(CatalogEpoch::from_raw(old_epoch)) {
                match crate::repair::repair_result(
                    &old_state,
                    &state,
                    &self.pass_context(&state),
                    plan,
                    &cached,
                )? {
                    crate::repair::Repair::Unchanged => {
                        // The delta does not intersect the plan's design
                        // space: the cached result IS the current-epoch
                        // answer.
                        self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                        self.insert(plan.key(), epoch, Arc::clone(&cached));
                        return Ok(cached);
                    }
                    crate::repair::Repair::Repaired(result) => {
                        self.repairs.fetch_add(1, AtomicOrdering::Relaxed);
                        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
                        // Chained refreshes splice ~#slabs segments into
                        // the point store per delta; past the threshold,
                        // fold them back into one contiguous segment
                        // (logically equal — only the layout changes) so
                        // long-lived sessions never accumulate unbounded
                        // segment indirection.
                        let result = if result.segment_count() > COMPACT_SEGMENT_THRESHOLD {
                            result.compacted()
                        } else {
                            *result
                        };
                        // Re-attach tier 2 with the prior result in
                        // hand: survivors whose tier-1 point is
                        // unchanged reuse their sim rows, everything
                        // else re-simulates — bit-identical to a cold
                        // run either way (seeds depend only on plan key
                        // and candidate identity).
                        let result =
                            Arc::new(self.attach_tier2(plan, &state, result, Some(&cached))?);
                        self.insert(plan.key(), epoch, Arc::clone(&result));
                        return Ok(result);
                    }
                    crate::repair::Repair::Cold => {}
                }
            }
        }
        self.run_at_state(plan, &state)
    }

    /// Probes the memo cache for a result by **canonical plan key** at
    /// the store's current epoch, without parsing the key or running
    /// anything — the serving fast path: an exact `(key, epoch)` repeat
    /// is answered straight from the cache before the request ever
    /// reaches a scheduler queue. Counts a [`CacheStats::hits`] on
    /// success; a probe miss is not counted (the eventual
    /// [`run`](Self::run)/[`run_batch`](Self::run_batch) will count the
    /// pass it pays).
    #[must_use]
    pub fn cached(&self, key: &str) -> Option<Arc<ResultSet>> {
        self.cached_at(key, self.store.current_epoch())
    }

    /// [`cached`](Self::cached) pinned at a specific epoch — what a
    /// server probes for requests admitted before a catalog delta
    /// landed.
    #[must_use]
    pub fn cached_at(&self, key: &str, epoch: CatalogEpoch) -> Option<Arc<ResultSet>> {
        let hit = self.peek(key, epoch.get());
        if hit.is_some() {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
        }
        hit
    }

    /// The distinct canonical plan keys currently memoized (at any
    /// epoch), sorted — cache introspection for a serving tier's
    /// background repair: after a catalog delta, each returned key can
    /// be [`refresh`](Self::refresh)ed to bring the hot entries forward
    /// off the request path. Sorting makes the repair order (and any
    /// log of it) reproducible run-to-run.
    #[must_use]
    pub fn cached_plan_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .plans
            // analyze::allow(determinism, reason = "collected then sorted below — hash order never escapes this fn")
            .keys()
            .cloned()
            .collect();
        keys.sort();
        keys
    }

    /// Exports every memoized result as
    /// `(plan key, epoch, catalog digest, result JSON)`, sorted by
    /// `(plan key, epoch)` — the warm-cache **spill** feed for a durable
    /// serving tier: persisted on shutdown and re-served byte-identically
    /// after a restart without re-running any physics. The digest is the
    /// epoch's [`EpochSnapshot::digest`], letting the restore side trust
    /// an entry only if its recovered catalog reproduces the same
    /// digest. Entries whose epoch is no longer resolvable in the store
    /// are skipped.
    #[must_use]
    pub fn export_cache(&self) -> Vec<(String, u64, u64, String)> {
        let mut entries: Vec<(String, u64, Arc<ResultSet>)> = {
            let cache = self
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            cache
                .plans
                // analyze::allow(determinism, reason = "collected then sorted below — hash order never escapes this fn")
                .iter()
                .flat_map(|(key, by_epoch)| {
                    by_epoch
                        .iter()
                        .map(move |(&epoch, slot)| (key.clone(), epoch, Arc::clone(&slot.result)))
                })
                .collect()
        };
        entries.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
        let mut out = Vec::with_capacity(entries.len());
        for (key, epoch, result) in entries {
            let Some(snapshot) = self.store.at(CatalogEpoch::from_raw(epoch)) else {
                continue;
            };
            out.push((
                key,
                epoch,
                snapshot.digest(),
                result.to_json(snapshot.catalog()),
            ));
        }
        out
    }

    /// Executes a batch of plans (at the current epoch) in as few fused
    /// passes as their evaluation signatures allow — plans over the same
    /// subspace, knob settings and battery share **one** enumeration +
    /// evaluation, with each plan's constraints and objective rows
    /// applied in-pass, and a plan alone in its signature runs on the
    /// shard kernel as [`run`](Self::run) does. Cached plans are served
    /// from the memo cache without joining a pass; duplicate plans
    /// within the batch are deduplicated by canonical key. Results come
    /// back aligned with `plans`.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run); the first error aborts the batch.
    pub fn run_batch(&self, plans: &[QueryPlan]) -> Result<Vec<Arc<ResultSet>>, SkylineError> {
        self.run_batch_state(plans, &self.current_state())
    }

    /// [`run_batch`](Self::run_batch) pinned at a published epoch — the
    /// scheduler-side batch admission hook: a micro-batching server
    /// groups concurrently admitted requests by their admission epoch
    /// and coalesces each group into one shared pass, so a catalog
    /// delta published mid-window never bleeds into results admitted
    /// before it.
    ///
    /// # Errors
    ///
    /// [`SkylineError::UnknownEpoch`] when the store never published
    /// `epoch`, plus everything [`run_batch`](Self::run_batch) can
    /// produce.
    pub fn run_batch_at(
        &self,
        plans: &[QueryPlan],
        epoch: CatalogEpoch,
    ) -> Result<Vec<Arc<ResultSet>>, SkylineError> {
        let state = self.state_at(epoch)?;
        self.run_batch_state(plans, &state)
    }

    // analyze::allow(indexing, scope = "fn", reason = "i and j range over plans.len(); out is built with one slot per plan")
    // analyze::allow(panic, scope = "fn", reason = "every slot is provably filled: cached, computed, or twinned from its pending representative")
    fn run_batch_state(
        &self,
        plans: &[QueryPlan],
        state: &EpochState,
    ) -> Result<Vec<Arc<ResultSet>>, SkylineError> {
        let epoch = state.epoch().get();
        // Cache-served plans count a hit each; deduplicated uncached
        // work counts ONE miss per pass actually run, so the stats keep
        // meaning "lookups served" vs "passes paid".
        let mut out: Vec<Option<Arc<ResultSet>>> = plans
            .iter()
            .map(|p| {
                let hit = self.peek(p.key(), epoch);
                if hit.is_some() {
                    self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                }
                hit
            })
            .collect();
        // Dedup uncached work by canonical key.
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..plans.len() {
            if out[i].is_none() && !pending.iter().any(|&j| plans[j].key() == plans[i].key()) {
                pending.push(i);
            }
        }
        if !pending.is_empty() {
            self.misses
                .fetch_add(pending.len() as u64, AtomicOrdering::Relaxed);
            let refs: Vec<&QueryPlan> = pending.iter().map(|&i| &plans[i]).collect();
            let results = run_plans(&self.pass_context(state), &refs, true)?;
            for (&i, result) in pending.iter().zip(results) {
                let result = Arc::new(self.attach_tier2(&plans[i], state, result, None)?);
                self.insert(plans[i].key(), epoch, Arc::clone(&result));
                out[i] = Some(result);
            }
        }
        // Batch-internal duplicates resolve against the slots this very
        // batch just filled — never back through the shared cache, which
        // another thread may clear concurrently.
        for i in 0..plans.len() {
            if out[i].is_none() {
                let twin = pending
                    .iter()
                    .find(|&&j| plans[j].key() == plans[i].key())
                    .expect("every uncached plan has a pending representative");
                out[i] = out[*twin].clone();
            }
        }
        Ok(out
            .into_iter()
            .map(|slot| slot.expect("every slot was cached, computed, or twinned"))
            .collect())
    }

    /// Cache accounting: lookups served ([`CacheStats::hits`]) vs passes
    /// run ([`CacheStats::misses`]), retained results, LRU evictions and
    /// incremental repairs.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            entries: cache.len,
            evictions: cache.evictions,
            repairs: self.repairs.load(AtomicOrdering::Relaxed),
        }
    }

    /// Tier-2 accounting: evaluations invoked, survivors simulated,
    /// trials paid, rows reused across delta repair, and wall-clock
    /// spent — all zero until a plan with sim objectives runs.
    #[must_use]
    pub fn sim_stats(&self) -> SimStats {
        SimStats {
            evaluations: self.sim_evaluations.load(AtomicOrdering::Relaxed),
            survivors: self.sim_survivors.load(AtomicOrdering::Relaxed),
            trials: self.sim_trials.load(AtomicOrdering::Relaxed),
            reused_rows: self.sim_reused.load(AtomicOrdering::Relaxed),
            millis: self.sim_millis.load(AtomicOrdering::Relaxed),
        }
    }

    /// Drops every memoized result (the hit/miss/eviction counters keep
    /// counting).
    pub fn clear_cache(&self) {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Constraint, KnobSweep};
    use f1_components::names;
    use f1_units::Watts;

    fn session() -> Session {
        Session::new(Arc::new(Catalog::paper()))
    }

    #[test]
    fn sessions_and_results_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<ResultSet>();
    }

    #[test]
    fn session_matches_engine_query() {
        let catalog = Catalog::paper();
        let engine = crate::dse::Engine::new(&catalog);
        let borrowed = engine.query().run().unwrap();
        let owned = session()
            .run(&QueryPlan::builder().build().unwrap())
            .unwrap();
        assert_eq!(*owned, borrowed);
    }

    #[test]
    fn repeated_plans_hit_the_cache_pointer_identically() {
        let session = session();
        let plan = QueryPlan::builder().build().unwrap();
        let first = session.run(&plan).unwrap();
        let second = session.run(&plan).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        // A semantically equal plan built separately shares the key,
        // hence the entry.
        let rebuilt = QueryPlan::builder().build().unwrap();
        let third = session.run(&rebuilt).unwrap();
        assert!(Arc::ptr_eq(&first, &third));
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));

        session.clear_cache();
        let fourth = session.run(&plan).unwrap();
        assert!(!Arc::ptr_eq(&first, &fourth));
        assert_eq!(*first, *fourth, "recomputation is deterministic");
    }

    #[test]
    fn batch_shares_a_pass_and_matches_standalone() {
        let session = session();
        let caps = [20.0, 10.0, 5.0, 2.0];
        let plans: Vec<QueryPlan> = caps
            .iter()
            .map(|&w| {
                QueryPlan::builder()
                    .constraint(Constraint::MaxTotalTdp(Watts::new(w)))
                    .build()
                    .unwrap()
            })
            .collect();
        let batch = session.run_batch(&plans).unwrap();
        assert_eq!(batch.len(), plans.len());
        for (plan, batched) in plans.iter().zip(&batch) {
            let standalone = Session::new(session.catalog()).run(plan).unwrap();
            assert_eq!(**batched, *standalone);
        }
        // The batch memoized every member.
        assert_eq!(session.cache_stats().entries, plans.len());
        for (plan, batched) in plans.iter().zip(&batch) {
            assert!(Arc::ptr_eq(batched, &session.run(plan).unwrap()));
        }
    }

    #[test]
    fn batch_dedups_identical_plans() {
        let session = session();
        let plan = QueryPlan::builder().build().unwrap();
        let twin = QueryPlan::builder().build().unwrap();
        let results = session.run_batch(&[plan, twin]).unwrap();
        assert!(Arc::ptr_eq(&results[0], &results[1]));
        assert_eq!(session.cache_stats().entries, 1);
    }

    #[test]
    fn batch_with_mixed_signatures_still_matches_standalone() {
        let catalog = Arc::new(Catalog::paper());
        let spark = catalog.airframe_id(names::DJI_SPARK).unwrap();
        let session = Session::new(Arc::clone(&catalog));
        let plans = vec![
            QueryPlan::builder().build().unwrap(),
            QueryPlan::builder().airframes(&[spark]).build().unwrap(),
            QueryPlan::builder()
                .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
                .build()
                .unwrap(),
        ];
        let batch = session.run_batch(&plans).unwrap();
        for (plan, batched) in plans.iter().zip(&batch) {
            let standalone = Session::new(Arc::clone(&catalog)).run(plan).unwrap();
            assert_eq!(**batched, *standalone);
        }
    }

    #[test]
    fn foreign_ids_are_rejected_not_panicking() {
        let session = session();
        let plan = QueryPlan::builder()
            .airframes(&[AirframeId::from_index(10_000)])
            .build()
            .unwrap();
        match session.run(&plan).unwrap_err() {
            SkylineError::PlanCatalog {
                family,
                index,
                count,
            } => {
                assert_eq!(family, "airframe");
                assert_eq!(index, 10_000);
                assert_eq!(count, session.catalog().airframe_count());
            }
            other => panic!("expected PlanCatalog, got {other:?}"),
        }
        let plan = QueryPlan::builder()
            .battery(f1_components::BatteryId::from_index(9_999))
            .build()
            .unwrap();
        assert!(matches!(
            session.run(&plan).unwrap_err(),
            SkylineError::PlanCatalog {
                family: "battery",
                ..
            }
        ));
    }

    #[test]
    fn top_k_equals_ranked_prefix() {
        let result = session()
            .run(&QueryPlan::builder().build().unwrap())
            .unwrap();
        let ranked = result.ranked();
        for k in [0, 1, 2, 7, ranked.len(), ranked.len() + 5] {
            assert_eq!(result.top_k(k), &ranked[..k.min(ranked.len())], "k={k}");
        }
        assert_eq!(
            result.best().map(|p| p.candidate),
            ranked
                .first()
                .map(|&i| result.points()[i])
                .filter(|p| p.outcome.feasible)
                .map(|p| p.candidate)
        );
    }

    #[test]
    fn pages_tile_the_result_exactly() {
        let result = session()
            .run(&QueryPlan::builder().build().unwrap())
            .unwrap();
        let n = result.len();
        for limit in [1, 7, 64, n, n + 3] {
            let pages: Vec<_> = result.pages(limit).collect();
            assert_eq!(pages.len(), n.div_ceil(limit), "limit={limit}");
            let mut seen = 0usize;
            for page in &pages {
                assert_eq!(page.offset(), seen);
                assert!(page.len() <= limit);
                assert_eq!(page.points().len(), page.len());
                assert_eq!(page.column(0).len(), page.len());
                for (index, point) in page.rows() {
                    assert_eq!(point, &result.points()[index]);
                }
                seen += page.len();
            }
            assert_eq!(seen, n);
        }
        // Out-of-range page is empty, not a panic.
        assert!(result.page(n + 10, 5).is_empty());
    }

    #[test]
    fn json_export_is_well_formed() {
        let session = session();
        let plan = QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity, Objective::MissionEnergyWhPerKm])
            .build()
            .unwrap();
        let result = session.run(&plan).unwrap();
        let json = result.to_json(&session.catalog());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"objectives\""));
        assert!(json.contains("\"velocity\": ["));
        assert!(json.contains("\"frontier\": ["));
        assert!(json.contains(&format!("\"count\": {}", result.len())));
        // Non-finite energies (infeasible builds) must be null, never
        // bare `inf`.
        assert!(!json.contains("inf"));
        // Balanced braces/brackets (cheap well-formedness check; no JSON
        // parser in the offline stub set).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "{open}{close}"
            );
        }
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(1.5), "1.5");
    }

    #[test]
    fn column_access_matches_rows() {
        let result = session()
            .run(
                &QueryPlan::builder()
                    .objectives(&[Objective::TotalTdp, Objective::SafeVelocity])
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(result.column(0).len(), result.len());
        assert_eq!(
            result.column_for(Objective::SafeVelocity).unwrap(),
            result.column(1)
        );
        assert!(result.column_for(Objective::PayloadMass).is_none());
        for i in 0..result.len().min(50) {
            assert_eq!(result.row(i), vec![result.value(i, 0), result.value(i, 1)]);
        }
    }
}
