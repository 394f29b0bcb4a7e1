//! The **execute** half of the compile/execute split: a shared-pass,
//! plan-cached [`Session`] over an `Arc<Catalog>`, and the columnar
//! [`ResultSet`] it produces.
//!
//! A [`Session`] is the one way to run a query: it owns its catalog (no
//! lifetimes in the public API), is `Send + Sync`, and executes owned
//! [`QueryPlan`]s on the shard kernel ([`crate::shard`]), the one
//! executor, which hoists the algorithm-independent work per
//! (sensor, compute) pair and reduces shards in parallel:
//!
//! * [`Session::run`] executes one plan.
//! * [`Session::run_batch`] runs a whole batch of plans in as few
//!   kernel passes as their evaluation signatures allow — candidates
//!   are enumerated and the momentum-theory outcome evaluated *once*
//!   per pass, then each plan's constraint filter and objective columns
//!   are applied in-pass — so eight what-if questions over a
//!   10⁵-candidate catalog cost well under twice one.
//! * Completed results are memoized under each plan's
//!   [canonical key](crate::plan::QueryPlan::key): a repeated query is a
//!   cache lookup returning the same `Arc<ResultSet>`, not a pass.
//!
//! A result stores no points: each row is a job index into its pass's
//! shared space beside the value and feasibility columns, and the point
//! accessors rebuild a [`QueryPoint`] by value on demand (see
//! [`ResultSet`]). The job index is defined once, by the shard module's
//! `PassSpace`; a delta repair ([`Session::refresh`]) places the cached
//! rows through the new epoch's space. A pass reads everything it needs
//! from the epoch's execution state; the heatsink model and knee
//! saturation are the paper's, fixed by the space itself.
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
#![warn(clippy::format_push_string)]

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use f1_components::json::{push_number, push_string};
use f1_components::{
    AirframeId, AlgorithmId, Catalog, CatalogEpoch, CatalogStore, ComputeId, EpochSnapshot,
    SensorId, ThroughputTable,
};
use serde::{Deserialize, Serialize};

use crate::dse::Candidate;
use crate::plan::QueryPlan;
use crate::query::{KnobSetting, Objective, QueryPoint};
use crate::shard::PassSpace;
use crate::tier2::{SharedTier2, SimBlock, SimStats, Tier2Context};
use crate::SkylineError;

// ---------------------------------------------------------------------
// ResultSet
// ---------------------------------------------------------------------

/// The columnar result of executing one plan: every evaluated build
/// that passed the constraints, per-objective value columns, and the
/// Pareto frontier.
///
/// Objective values are stored **column-major** — one contiguous
/// `Vec<f64>` per objective ([`column`](Self::column)) — the layout a
/// serving tier wants for export, streaming top-k selection and
/// columnar analytics. Each stored row's `outcome.feasible` flag is
/// kept as a one-byte **feasibility column** beside them, so ranking
/// ([`top_k`](Self::top_k), [`ranked`](Self::ranked),
/// [`survivors`](Self::survivors)) and
/// [`minimized_keys`](Self::minimized_keys) scan columns only.
///
/// A row stores no point. It is the build's **job index** into the
/// pass's space — the resolved part lists, the characterized pairs with
/// their throughputs, the knob settings and the variant parts — which
/// every result of one pass shares behind an `Arc`. A retained row
/// therefore costs a job index, one `f64` per objective and a flag.
/// [`to_json`](Self::to_json) and [`try_key`](Self::try_key) decode a
/// row's build identity from its index without running the model.
/// [`point`](Self::point), [`try_point`](Self::try_point),
/// [`iter_points`](Self::iter_points), [`frontier_points`](Self::frontier_points)
/// and [`best`](Self::best) rebuild a [`QueryPoint`] **by value**,
/// running the same kernel over the same parts, so the rebuilt point is
/// bit-identical to the one the pass evaluated.
///
/// Ranked access scales down gracefully: [`top_k`](Self::top_k) selects
/// the best *k* with a bounded heap in O(n log k) without materializing
/// the full ranking, and [`ranked`](Self::ranked) still materializes
/// everything when asked.
///
/// The serde derives are inert markers today (`crates/ext/serde`); the
/// working export format is [`to_json`](Self::to_json).
///
/// # Streamed mode
///
/// Plans whose [`KeepPoints`](crate::plan::KeepPoints) policy resolves
/// to streaming store only the Pareto frontier and a bounded top-k
/// ([`crate::shard::STREAM_TOP_K`] indices) beside the accounting
/// counters, all **bit-identical** to a retaining run of the same plan
/// and still addressed by the same global indices. Accessors that need
/// an arbitrary row ([`minimized_keys`](Self::minimized_keys),
/// [`point`](Self::point) on a non-stored index) panic with a clear
/// message in streamed mode;
/// [`frontier`](Self::frontier), [`top_k`](Self::top_k),
/// [`best`](Self::best), [`to_json`](Self::to_json) and the counters
/// work in both. [`is_streamed`](Self::is_streamed) and
/// [`stored_indices`](Self::stored_indices) report the mode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultSet {
    objectives: Vec<Objective>,
    /// The pass space every row's job index points into.
    space: Arc<PassSpace>,
    /// Each stored row's job index, ascending.
    jobs: Vec<u64>,
    /// One column per objective, one entry per stored row, in each
    /// objective's natural (unnegated) unit.
    columns: Vec<Vec<f64>>,
    /// Each stored row's `outcome.feasible`, row-aligned with `columns`.
    feasible: Vec<bool>,
    frontier: Vec<usize>,
    uncharacterized: usize,
    dropped: usize,
    nonfinite: usize,
    /// `Some` when this result was produced in streaming mode: `jobs`
    /// and `columns` hold only the stored (frontier ∪ top-k) rows, while
    /// indices everywhere stay global.
    streamed: Option<StreamedMeta>,
    /// The tier-2 simulation block, attached by the session after the
    /// tier-1 pass for plans with sim objectives (see [`crate::tier2`]).
    /// Part of the result's logical identity: memoized, spilled and
    /// equality-compared with everything else.
    sim: Option<SimBlock>,
}

/// The streamed-mode bookkeeping of a [`ResultSet`]: how many rows the
/// plan logically kept, which global indices were stored, and the
/// bounded top-k ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct StreamedMeta {
    /// Logical kept-row count (what `len()` reports).
    pub(crate) total_kept: usize,
    /// Ascending global indices of the stored rows — stored row `r` is
    /// the row `stored[r]`.
    pub(crate) stored: Vec<usize>,
    /// Global indices of the best-ranked rows, in rank order, at most
    /// [`crate::shard::STREAM_TOP_K`] of them. Always a subset of
    /// `stored`.
    pub(crate) topk: Vec<usize>,
}

/// A stored row read without running the model: the build's identity,
/// decoded from the row's job index, and its feasibility flag from the
/// feasibility column (see [`ResultSet::try_key`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowKey {
    /// The airframe the build flies on.
    pub airframe: AirframeId,
    /// The discrete catalog candidate.
    pub candidate: Candidate,
    /// The knob setting the build was evaluated under.
    pub setting: KnobSetting,
    /// Whether the build can hover (`outcome.feasible`).
    pub feasible: bool,
}

impl PartialEq for ResultSet {
    /// Logical equality: same objectives, same points (in order), same
    /// columns, frontier and accounting. Two results over equal pass
    /// spaces with equal job indices hold the same points; otherwise the
    /// stored points are rebuilt and compared. Streamed results compare
    /// their stored subset (plus the streamed bookkeeping itself); a
    /// streamed and a retaining result are never equal — they answer
    /// different queries even when produced from the same plan shape.
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
            && self.jobs.len() == other.jobs.len()
            && ((self.jobs == other.jobs && self.space == other.space)
                || self.iter_points().eq(other.iter_points()))
    }
}

impl ResultSet {
    /// Builds a retained result: one stored row per kept job.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn retained(
        objectives: Vec<Objective>,
        space: Arc<PassSpace>,
        jobs: Vec<u64>,
        columns: Vec<Vec<f64>>,
        feasible: Vec<bool>,
        frontier: Vec<usize>,
        uncharacterized: usize,
        dropped: usize,
        nonfinite: usize,
    ) -> Self {
        Self {
            objectives,
            space,
            jobs,
            columns,
            feasible,
            frontier,
            uncharacterized,
            dropped,
            nonfinite,
            streamed: None,
            sim: None,
        }
        .checked()
    }

    /// Marks a result built over only its stored (frontier ∪ top-k) rows,
    /// ascending by global index, as streamed: `meta` carries the logical
    /// count and rankings.
    pub(crate) fn streamed(self, meta: StreamedMeta) -> Self {
        debug_assert_eq!(self.jobs.len(), meta.stored.len());
        debug_assert!(meta.stored.windows(2).all(|w| w[0] < w[1]));
        Self {
            streamed: Some(meta),
            ..self
        }
    }

    /// Every constructor's exit: debug builds check that the job and
    /// feasibility columns are row-aligned with the value columns and
    /// that jobs ascend (enumeration order).
    fn checked(self) -> Self {
        debug_assert!(
            self.feasible.len() == self.jobs.len()
                && self.columns.iter().all(|c| c.len() == self.jobs.len())
                && self.jobs.windows(2).all(|w| w[0] < w[1]),
            "stored rows are misaligned or out of enumeration order"
        );
        self
    }

    /// The feasibility column: each stored row's `outcome.feasible`.
    pub(crate) fn feasibility(&self) -> &[bool] {
        &self.feasible
    }

    /// The pass space the rows index into, and each stored row's job
    /// index (for the repair path, which re-indexes them at a new
    /// epoch).
    pub(crate) fn rows(&self) -> (&PassSpace, &[u64]) {
        (&self.space, &self.jobs)
    }

    /// Whether this result was produced in streamed mode (frontier +
    /// top-k + accounting only; see the type-level *streamed mode*
    /// section).
    #[must_use]
    pub fn is_streamed(&self) -> bool {
        self.streamed.is_some()
    }

    /// Global indices of the stored rows of a streamed result (the
    /// frontier ∪ top-k survivors), ascending; `None` for a retaining
    /// result, where every index `0..len()` is available.
    #[must_use]
    pub fn stored_indices(&self) -> Option<&[usize]> {
        self.streamed.as_ref().map(|m| m.stored.as_slice())
    }

    /// Maps a global index to its stored row, `None` when the index is
    /// out of range or a streamed result did not store it.
    fn try_row_pos(&self, index: usize) -> Option<usize> {
        match &self.streamed {
            None => (index < self.jobs.len()).then_some(index),
            Some(meta) => meta.stored.binary_search(&index).ok(),
        }
    }

    /// Maps a global index to its stored row, panicking for an index
    /// out of range or not stored by a streamed result.
    // analyze::allow(panic, scope = "fn", reason = "documented `# Panics` contract of the panicking accessors; serving code routes through the try_ forms")
    fn row_pos(&self, index: usize) -> usize {
        self.try_row_pos(index).unwrap_or_else(|| {
            if self.streamed.is_some() {
                panic!(
                    "point {index} is not materialized in this streamed result \
                     (only the frontier and top-k are stored; see stored_indices())"
                )
            }
            panic!("point {index} is out of range for {} points", self.len())
        })
    }

    /// The point in stored row `r`, rebuilt from its job index.
    // analyze::allow(indexing, scope = "fn", reason = "callers pass a stored row r < jobs.len()")
    // analyze::allow(panic, scope = "fn", reason = "the pass evaluated the same parts without error, and evaluation is deterministic")
    fn stored_point(&self, r: usize) -> QueryPoint {
        self.space
            .point(self.jobs[r])
            .expect("the pass evaluated this job without error")
    }

    /// The plan's objectives, primary first.
    #[must_use]
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// The point at `index`, in deterministic enumeration order
    /// (airframe-major, then knob setting, then sensor × compute ×
    /// algorithm in name order), rebuilt by value from the row's job
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or if a streamed result did
    /// not store the point (only frontier and top-k indices are
    /// addressable then).
    #[must_use]
    pub fn point(&self, index: usize) -> QueryPoint {
        self.stored_point(self.row_pos(index))
    }

    /// Non-panicking [`point`](Self::point): `None` when `index` is out
    /// of range, or when a streamed result did not store the point
    /// (only frontier ∪ top-k indices are stored then). This is the
    /// accessor a serving tier should route client-supplied indices
    /// through — a bad request becomes a structured error, not a dead
    /// worker.
    #[must_use]
    pub fn try_point(&self, index: usize) -> Option<QueryPoint> {
        self.try_row_pos(index).map(|r| self.stored_point(r))
    }

    /// The stored row at `index` without running the model: the build's
    /// identity decoded from its job index and its feasibility flag.
    /// `None` when `index` is out of range or a streamed result did not
    /// store it. What the serving renderers read.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "r is a stored row from try_row_pos; jobs and feasible are row-aligned")
    pub fn try_key(&self, index: usize) -> Option<RowKey> {
        let r = self.try_row_pos(index)?;
        let (airframe, candidate, setting) = self.space.key(self.space.coord(self.jobs[r]));
        Some(RowKey {
            airframe,
            candidate,
            setting,
            feasible: self.feasible[r],
        })
    }

    /// Non-panicking [`row`](Self::row): the objective values of point
    /// `index` across the columns, `None` when the index is out of
    /// range or unstored in a streamed result.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "r is a stored row from try_row_pos; columns are row-aligned")
    pub fn try_row(&self, index: usize) -> Option<Vec<f64>> {
        let r = self.try_row_pos(index)?;
        Some(self.columns.iter().map(|c| c[r]).collect())
    }

    /// Iterates the stored points in enumeration order, each rebuilt by
    /// value. For a retaining result that is every kept point; for a
    /// streamed one, the stored (frontier ∪ top-k) subset.
    pub fn iter_points(&self) -> impl Iterator<Item = QueryPoint> + '_ {
        (0..self.jobs.len()).map(|r| self.stored_point(r))
    }

    /// Number of points the plan kept. In streamed mode this is the
    /// logical count — how many candidates passed the constraints — not
    /// the (much smaller) number of stored rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.streamed
            .as_ref()
            .map_or(self.jobs.len(), |meta| meta.total_kept)
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

    /// Indices of the Pareto frontier over all objectives jointly,
    /// ascending. Only feasible points with finite objective values
    /// participate.
    #[must_use]
    pub fn frontier(&self) -> &[usize] {
        &self.frontier
    }

    /// The frontier as points rebuilt by value, in enumeration order.
    pub fn frontier_points(&self) -> impl Iterator<Item = QueryPoint> + '_ {
        self.frontier.iter().map(|&i| self.point(i))
    }

    /// The [rank order](rank_order) of rows `a` and `b`.
    // analyze::allow(indexing, scope = "fn", reason = "comparator only sees indices < len() produced by the ranking loops")
    fn rank_cmp(&self, a: usize, b: usize) -> Ordering {
        rank_order(
            self.objectives[0].maximize(),
            (self.feasible[a], a),
            (self.feasible[b], b),
            || (self.columns[0][a], self.columns[0][b]),
        )
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
    /// beyond the heap, and no comparator call for a row that does not
    /// beat the worst kept one. Equals `ranked()[..k]` exactly (including
    /// tie order). `k` larger than the result just returns the full
    /// ranking.
    ///
    /// A streamed result serves the prefix of its bounded top-k
    /// ranking; `k` beyond [`crate::shard::STREAM_TOP_K`] clamps to
    /// what was kept.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "slice bound is clamped to the stored top-k length first; a retained result's indices are rows of its row-aligned feasibility and primary columns")
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
        let mut heap: BinaryHeap<Key<'_>> = (0..k).map(|index| Key { set: self, index }).collect();
        // The worst kept row's feasibility and primary value. A later row
        // joins only if it beats them: feasible over infeasible, else a
        // strictly better primary value. A tie loses, because every kept
        // index is smaller.
        let maximize = self.objectives[0].maximize();
        let (feasible, primary) = (&self.feasible, &self.columns[0]);
        let worst = |heap: &BinaryHeap<Key<'_>>| {
            heap.peek()
                .map_or((true, f64::NAN), |w| (feasible[w.index], primary[w.index]))
        };
        let (mut worst_feasible, mut worst_value) = worst(&heap);
        for index in k..self.len() {
            let beats = match (feasible[index], worst_feasible) {
                (true, false) => true,
                (false, true) => false,
                _ if maximize => primary[index].total_cmp(&worst_value) == Ordering::Greater,
                _ => primary[index].total_cmp(&worst_value) == Ordering::Less,
            };
            if beats {
                if let Some(mut top) = heap.peek_mut() {
                    *top = Key { set: self, index };
                }
                (worst_feasible, worst_value) = worst(&heap);
            }
        }
        heap.into_sorted_vec()
            .into_iter()
            .map(|k| k.index)
            .collect()
    }

    /// The best feasible point by the primary objective, if any,
    /// rebuilt by value — bounded-heap selection, no full ranking.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "row_pos maps a top-k index to a stored row of the row-aligned feasibility column")
    pub fn best(&self) -> Option<QueryPoint> {
        self.top_k(1)
            .first()
            .filter(|&&i| self.feasible[self.row_pos(i)])
            .map(|&i| self.point(i))
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
    /// vanishing achieved velocity → `+∞`). Such points stay in the
    /// result and the ranked report but cannot participate in the
    /// frontier, which is defined over finite keys only — this counter
    /// is the accounting for that exclusion, so no feasible point ever
    /// vanishes silently.
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
    /// point index. This is exactly what [`frontier`](Self::frontier)
    /// was computed from — benchmarks and tests that compare skyline
    /// algorithms against the naive scan should extract keys through
    /// here so they keep measuring the production path. Feasible points
    /// skipped for non-finite rows are counted by
    /// [`nonfinite`](Self::nonfinite).
    ///
    /// # Panics
    ///
    /// Panics on a streamed result: the full key domain was reduced
    /// shard-by-shard and never materialized.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "i < len() and columns are row-aligned with the point list")
    // analyze::allow(panic, scope = "fn", reason = "documented `# Panics` contract: a streamed result never kept its key domain, and no serving path asks it for one")
    pub fn minimized_keys(&self) -> (Vec<f64>, Vec<usize>) {
        assert!(
            self.streamed.is_none(),
            "a streamed result set never kept its full frontier key domain"
        );
        let mut keys = Vec::new();
        let mut map = Vec::new();
        'points: for i in 0..self.len() {
            if !self.feasible[i] {
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
    /// stored row (decoded from its job index, with its flag from the
    /// feasibility column — no physics runs), the frontier indices and
    /// the accounting counters. The catalog must be the one the plan
    /// executed against.
    ///
    /// A streamed result exports its stored (frontier ∪ top-k) rows
    /// plus a `"stored"` array mapping each row to its global index
    /// (`"count"` stays the logical kept count), so consumers can tell
    /// the modes apart.
    ///
    /// A wrapper over [`write_json`](Self::write_json), which appends
    /// the same bytes to a caller's buffer.
    #[must_use]
    pub fn to_json(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        self.write_json(catalog, &mut out);
        out
    }

    /// Appends the [`to_json`](Self::to_json) document to `out` through
    /// the wire writer ([`f1_components::json`]), with no allocation per
    /// value. Space is reserved for the rows the document prints — the
    /// stored rows, not a streamed result's logical kept count.
    pub fn write_json(&self, catalog: &Catalog, out: &mut String) {
        out.reserve(256 + self.jobs.len() * (192 + 24 * self.objectives.len()));
        out.push_str("{\n  \"objectives\": [");
        for (i, o) in self.objectives.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"label\": ");
            push_string(out, o.label());
            out.push_str(", \"unit\": ");
            push_string(out, o.unit());
            let _ = write!(out, ", \"maximize\": {}}}", o.maximize());
        }
        let _ = write!(
            out,
            "],\n  \"count\": {}, \"dropped\": {}, \"uncharacterized\": {}, \"nonfinite\": {},\n",
            self.len(),
            self.dropped,
            self.uncharacterized,
            self.nonfinite
        );
        if let Some(meta) = &self.streamed {
            out.push_str("  \"stored\": [");
            push_integers(out, &meta.stored);
            out.push_str("],\n");
        }
        out.push_str("  \"columns\": {");
        for (pos, (objective, column)) in self.objectives.iter().zip(&self.columns).enumerate() {
            if pos > 0 {
                out.push_str(", ");
            }
            push_string(out, objective.label());
            out.push_str(": [");
            push_numbers(out, column);
            out.push(']');
        }
        out.push_str("},\n  \"builds\": [");
        let coords = self.space.coords(&self.jobs);
        for (i, (coord, feasible)) in coords.zip(&self.feasible).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (airframe, candidate, setting) = self.space.key(coord);
            out.push_str("\n    {\"airframe\": ");
            push_string(out, catalog.airframe_by_id(airframe).name());
            out.push_str(", \"sensor\": ");
            push_string(out, catalog.sensor_by_id(candidate.sensor).name());
            out.push_str(", \"compute\": ");
            push_string(out, catalog.compute_by_id(candidate.compute).name());
            out.push_str(", \"algorithm\": ");
            push_string(out, catalog.algorithm_by_id(candidate.algorithm).name());
            let _ = write!(out, ", \"feasible\": {feasible}");
            if !setting.is_identity() {
                let s = &setting;
                let fields = [
                    ("tdp_scale", s.tdp_scale),
                    ("sensor_rate_scale", s.sensor_rate_scale),
                    ("sensor_range_scale", s.sensor_range_scale),
                    ("payload_delta_g", s.payload_delta.get()),
                    ("weight_scale", s.weight_scale),
                    ("rotor_pull_scale", s.rotor_pull_scale),
                ];
                out.push_str(", \"setting\": {");
                for (j, (key, v)) in fields.into_iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{key}\": ");
                    push_number(out, v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n  ],\n  \"frontier\": [");
        push_integers(out, &self.frontier);
        out.push(']');
        if let Some(sim) = &self.sim {
            out.push_str(",\n  \"sim\": {\n    \"objectives\": [");
            for (i, o) in sim.objectives.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"label\": ");
                push_string(out, o.label());
                let _ = write!(out, ", \"maximize\": {}}}", o.maximize());
            }
            out.push_str("],\n    \"survivors\": [");
            for (i, row) in sim.rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n      {{\"id\": {}, \"index\": {}, \"values\": [",
                    row.candidate_id, row.index
                );
                push_numbers(out, &row.values);
                out.push_str("]}");
            }
            out.push_str("\n    ],\n    \"report\": [");
            for (i, entry) in sim.report.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n      {\"objective\": ");
                push_string(out, entry.objective.label());
                out.push_str(", \"analytic\": ");
                push_string(out, entry.analytic.label());
                out.push_str(", \"tau\": ");
                push_number(out, entry.tau);
                out.push_str(", \"agreement\": ");
                push_number(out, entry.agreement);
                out.push_str(", \"outliers\": [");
                push_integers(out, &entry.outliers);
                out.push_str("]}");
            }
            out.push_str("\n    ]\n  }");
        }
        out.push_str("\n}\n");
    }
}

/// Appends `values` comma-separated through the wire number writer.
fn push_numbers(out: &mut String, values: &[f64]) {
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_number(out, v);
    }
}

/// Appends `values` comma-separated in decimal.
fn push_integers<T: fmt::Display>(out: &mut String, values: &[T]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
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

/// The rank order of rows `a` and `b`, each given with its feasibility
/// flag: feasible before infeasible, then the primary objective values
/// `primary` reads (descending when `maximize`, by `total_cmp`), ties
/// by index. Total. [`ResultSet::ranked`] and [`ResultSet::top_k`], a
/// shard's local top-k and the streamed merge all rank through it.
pub(crate) fn rank_order(
    maximize: bool,
    (a_feasible, a): (bool, usize),
    (b_feasible, b): (bool, usize),
    primary: impl FnOnce() -> (f64, f64),
) -> Ordering {
    b_feasible
        .cmp(&a_feasible)
        .then_with(|| {
            let (a_value, b_value) = primary();
            if maximize {
                b_value.total_cmp(&a_value)
            } else {
                a_value.total_cmp(&b_value)
            }
        })
        .then_with(|| a.cmp(&b))
}

/// Two plans can share one kernel pass when everything that shapes the
/// evaluated *outcomes* matches: the candidate subspace, the expanded
/// knob settings and the mounted battery (its mass rides on every
/// build). Objectives, constraints, mission profiles and keep-points
/// policies are per-plan, applied in-pass.
fn same_pass(a: &QueryPlan, b: &QueryPlan) -> bool {
    a.airframes() == b.airframes()
        && a.sensors() == b.sensors()
        && a.computes() == b.computes()
        && a.algorithms() == b.algorithms()
        && a.settings() == b.settings()
        && a.battery() == b.battery()
}

/// Runs a batch of plans on the shard kernel: plans with the same
/// evaluation signature ([`same_pass`]) share one kernel pass, which
/// evaluates each candidate once for all of them. Results come back
/// aligned with `plans`.
// analyze::allow(indexing, scope = "fn", reason = "slot indices come from enumerate() over plans and stay < plans.len()")
// analyze::allow(panic, scope = "fn", reason = "the grouping loop assigns every plan index to exactly one group")
fn run_plans(state: &EpochState, plans: &[&QueryPlan]) -> Result<Vec<ResultSet>, SkylineError> {
    for plan in plans {
        plan.validate_ids(state.catalog())?;
    }
    // Group by pass signature (order-preserving; batches are small, the
    // quadratic scan is noise next to a single evaluation).
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|members| same_pass(plans[members[0]], plan))
        {
            Some(members) => members.push(i),
            None => groups.push(vec![i]),
        }
    }
    let mut out: Vec<Option<ResultSet>> = (0..plans.len()).map(|_| None).collect();
    for members in groups {
        let group: Vec<&QueryPlan> = members.iter().map(|&i| plans[i]).collect();
        for (&slot, result) in members.iter().zip(crate::shard::run(state, &group)?) {
            out[slot] = Some(result);
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every plan belongs to exactly one group"))
        .collect())
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

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
    pub(crate) fn new(snapshot: EpochSnapshot) -> Self {
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
/// (active id lists in name order, dense throughput table). The session
/// is `Send + Sync` and free of lifetimes: clone the `Arc`s, move it
/// into a server, share it across threads.
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
        // analyze::allow(panic, reason = "documented `# Panics` contract of a builder; skyline-serve rejects --cache-capacity 0 as a usage error first")
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

    /// One plan through [`run_batch_state`](Self::run_batch_state), the
    /// one cache path: a hit counts one hit, a pass one miss.
    fn run_at_state(
        &self,
        plan: &QueryPlan,
        state: &EpochState,
    ) -> Result<Arc<ResultSet>, SkylineError> {
        let mut results = self.run_batch_state(std::slice::from_ref(plan), state)?;
        // analyze::allow(panic, reason = "run_batch_state returns exactly one result per input plan")
        Ok(results.pop().expect("one plan in, one result out"))
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
                match crate::repair::repair_result(&old_state, &state, plan, &cached)? {
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
                        // Re-attach tier 2 with the prior result in
                        // hand: survivors whose tier-1 point is
                        // unchanged reuse their sim rows, everything
                        // else re-simulates — bit-identical to a cold
                        // run either way (seeds depend only on plan key
                        // and candidate identity).
                        let result =
                            Arc::new(self.attach_tier2(plan, &state, *result, Some(&cached))?);
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

    /// Executes a batch of plans (at the current epoch) in as few kernel
    /// passes as their evaluation signatures allow — plans over the same
    /// subspace, knob settings and battery share **one** enumeration +
    /// evaluation, with each plan's constraints and objective columns
    /// applied in-pass. Cached plans are served
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
    /// and coalesces each group into one kernel pass, so a catalog
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
            let results = run_plans(state, &refs)?;
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
    use crate::query::{Constraint, Knob, KnobSweep};
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
            result.best(),
            ranked
                .first()
                .map(|&i| result.point(i))
                .filter(|p| p.outcome.feasible)
        );
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
    }

    #[test]
    fn streamed_json_reserves_for_its_stored_rows() {
        let session = session();
        let plan = QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
            .sweep(KnobSweep::new(
                Knob::TdpScale,
                vec![0.5, 0.625, 0.75, 0.875, 1.0, 1.125, 1.25, 1.5],
            ))
            .keep_points(crate::plan::KeepPoints::FrontierOnly)
            .build()
            .unwrap();
        let result = session.run(&plan).unwrap();
        let stored = result.stored_indices().unwrap().len();
        assert!(
            result.len() > 10 * stored,
            "{} kept, {stored} stored",
            result.len()
        );
        let json = result.to_json(&session.catalog());
        assert!(
            json.capacity() < 4 * json.len(),
            "capacity {} for a {}-byte document",
            json.capacity(),
            json.len()
        );
        f1_components::json::parse(&json).unwrap();
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
