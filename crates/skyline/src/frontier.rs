//! Pareto-skyline computation: O(n log n) sort-and-sweep frontiers.
//!
//! The DSE engine's original frontier was an O(n²) all-pairs dominance
//! scan — fine for the paper's ~10² candidates per airframe, hopeless for
//! the 10⁵–10⁶-candidate synthetic catalogs the ROADMAP targets. This
//! module provides the sort-based skyline the engine's
//! [`query`](crate::query) layer uses:
//!
//! * **2 objectives** — the classic sweep: sort lexicographically, keep a
//!   running minimum of the second key.
//! * **3 objectives** — sort by the first key and sweep a *staircase*
//!   (the running 2-D frontier of the remaining keys), maintained as a
//!   B-tree with O(log n) queries and amortized O(log n) inserts.
//! * **4 and 5 objectives** — a divide-and-conquer skyline (Bentley's
//!   multidimensional divide and conquer, CACM 1980, for the maxima
//!   problem of Kung, Luccio and Preparata, JACM 1975): split the
//!   lexicographically sorted points in half, recurse, then strip the
//!   lex-later half's skyline of points dominated by the lex-earlier
//!   half's skyline with a dimension-reducing merge, ~O(n·logᵈ⁻² n). It
//!   is one const-generic kernel over contiguous, sorted `[f64; D]` rows
//!   that partitions one buffer of row positions in place and reuses one
//!   pivot buffer, so the recursion allocates nothing per level. It
//!   beats the lexicographic running frontier at every size measured,
//!   from 32 to 10⁵ points at both widths, so no small-input crossover
//!   is left. The running frontier serves the inputs wider than any plan
//!   (6+ keys) and survives as [`running_frontier_min`], the benchmarks'
//!   comparison arm.
//!
//! All functions use the **minimization** convention: a point dominates
//! another when it is ≤ in every key and < in at least one. Callers with
//! maximizing objectives (e.g. safe velocity) negate those keys. Ties and
//! exact duplicates are preserved exactly as the naive all-pairs scan
//! would keep them — duplicates do occur in real explorations (two
//! physics-bound algorithms on the same build share velocity, TDP and
//! payload) — and [`naive_pareto_min`] stays available as the reference
//! implementation for tests and benchmarks.
//!
//! Keys must be **finite**: NaN keys make the result unspecified (the
//! query layer filters non-finite outcomes before calling in, mirroring
//! the original engine's behavior). Negative zero is fine — keys are
//! normalized so `-0.0` and `+0.0` land in the same tie group, matching
//! the IEEE comparisons the naive scan uses.

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Returns `true` when `a` dominates `b` under minimization: `a ≤ b` in
/// every key and `a < b` in at least one.
///
/// # Panics
///
/// Panics (debug) if the slices have different lengths.
#[must_use]
pub fn dominates_min(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

fn point_count(dims: usize, keys: &[f64]) -> usize {
    assert!(dims > 0, "need at least one objective");
    assert_eq!(
        keys.len() % dims,
        0,
        "key buffer length must be a multiple of the dimension count"
    );
    keys.len() / dims
}

/// Reference O(n²) all-pairs Pareto scan (minimization convention).
///
/// `keys` is row-major: point `i` occupies `keys[i*dims .. (i+1)*dims]`.
/// Returns the indices of non-dominated points in ascending order. Kept
/// public as the ground truth for property tests and the "old frontier"
/// arm of the DSE benchmarks.
///
/// # Panics
///
/// Panics if `dims == 0` or `keys.len()` is not a multiple of `dims`.
#[must_use]
pub fn naive_pareto_min(dims: usize, keys: &[f64]) -> Vec<usize> {
    let n = point_count(dims, keys);
    let row = |i: usize| &keys[i * dims..(i + 1) * dims];
    (0..n)
        .filter(|&i| !(0..n).any(|j| dominates_min(row(j), row(i))))
        .collect()
}

/// Sort-based Pareto skyline (minimization convention): O(n log n) for
/// 2–3 objectives, the fixed-width divide-and-conquer skyline for 4–5,
/// and the running frontier beyond.
///
/// `keys` is row-major: point `i` occupies `keys[i*dims .. (i+1)*dims]`.
/// Returns exactly the same index set as [`naive_pareto_min`], in
/// ascending order.
///
/// # Panics
///
/// Panics if `dims == 0` or `keys.len()` is not a multiple of `dims`.
#[must_use]
pub fn pareto_min(dims: usize, keys: &[f64]) -> Vec<usize> {
    match dims {
        4 => return fixed_pareto_min::<4>(keys),
        5 => return fixed_pareto_min::<5>(keys),
        _ => {}
    }
    let (keys, order) = match prepare(dims, keys) {
        Some(prepared) => prepared,
        None => return Vec::new(),
    };
    let keys = keys.as_slice();
    let mut survivors = match dims {
        1 => min_scan(&order, keys),
        2 => sweep2(&order, &|i| (keys[i * 2], keys[i * 2 + 1])),
        3 => sweep3(&order, keys),
        // More objectives than a plan can name: the running frontier.
        _ => running_frontier(dims, keys, &order),
    };
    survivors.sort_unstable();
    survivors
}

/// The previous d ≥ 4 path: a lexicographic running frontier, worst case
/// O(n·f) for a frontier of size f. [`pareto_min`] uses a
/// divide-and-conquer skyline at 4 and 5 objectives instead; this stays
/// public as the comparison arm of the DSE benchmarks and a second
/// reference implementation (same contract as [`pareto_min`]).
///
/// # Panics
///
/// Panics if `dims == 0` or `keys.len()` is not a multiple of `dims`.
#[must_use]
pub fn running_frontier_min(dims: usize, keys: &[f64]) -> Vec<usize> {
    let (keys, order) = match prepare(dims, keys) {
        Some(prepared) => prepared,
        None => return Vec::new(),
    };
    let mut survivors = running_frontier(dims, &keys, &order);
    survivors.sort_unstable();
    survivors
}

/// `a` dominates `b` under minimization, for rows of a fixed width `D`:
/// every key `≤` and at least one `<`, folded over all `D` keys with no
/// early exit, so a probe is straight-line code. Agrees with
/// [`dominates_min`] on every finite input, `-0.0` and `+0.0` included
/// (IEEE comparisons treat them as equal).
#[inline]
pub(crate) fn dominates_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> bool {
    let (mut le, mut lt) = (true, false);
    for (x, y) in a.iter().zip(b) {
        le &= x <= y;
        lt |= x < y;
    }
    le & lt
}

/// The first `D` of `keys` as a fixed-width row, `-0.0` normalized to
/// `+0.0` as [`prepare`] does, so the row can go straight into the
/// fixed-width skyline.
#[inline]
pub(crate) fn fixed_row<const D: usize>(keys: impl IntoIterator<Item = f64>) -> [f64; D] {
    let mut row = [0.0; D];
    for (slot, v) in row.iter_mut().zip(keys) {
        *slot = v + 0.0;
    }
    row
}

/// Runs `$body` with `$d` bound to the row width `$dims` as a constant,
/// for every width a plan can rank (1 to 5 objectives), so one
/// const-generic routine serves them all.
macro_rules! with_width {
    ($dims:expr, |$d:ident| $body:expr) => {
        match $dims {
            1 => {
                const $d: usize = 1;
                $body
            }
            2 => {
                const $d: usize = 2;
                $body
            }
            3 => {
                const $d: usize = 3;
                $body
            }
            4 => {
                const $d: usize = 4;
                $body
            }
            5 => {
                const $d: usize = 5;
                $body
            }
            dims => panic!("rows of {dims} keys: a plan ranks 1 to 5 objectives"),
        }
    };
}
pub(crate) use with_width;

/// How many recently kept rows [`PrefilteredSkyline`] probes each row
/// against. Purely a constant-factor dial: any value yields identical
/// results. Replaying the offers of six 4-objective single-airframe
/// passes at 47 parts per family (≈67.6k rows a pass over two shards)
/// on a 2-vCPU Xeon VM, windows of 16, 32, 64 and 128 rows kept 24.7k,
/// 21.3k, 17.6k and 14.3k rows a pass for the exact skylines, at 18,
/// 25, 34 and 50 ns a probe: a wider window's probes cost about what
/// its smaller skylines save.
const PREFILTER_WINDOW: usize = 16;

/// A skyline over offered `(id, keys)` rows, with a cheap dominance
/// prefilter in front of the exact skyline. Enumeration order visits
/// one (sensor, compute) pair's algorithms back-to-back, so a dominated
/// row's dominator is usually a few rows back: probing the last
/// [`PREFILTER_WINDOW`] kept rows kills most rows in O(window) before
/// the superlinear exact pass. Exactness is preserved — a discarded row
/// is dominated by a kept one, so the kept rows' skyline is every
/// offered row's skyline.
///
/// Rows are held at their fixed width (one variant per objective
/// count): the last kept rows sit in a ring the probe reads newest
/// first with [`dominates_fixed`] over `[f64; D]` rows, and at 4 and 5
/// objectives the kept rows go to the fixed-width skyline as they are.
pub(crate) enum PrefilteredSkyline {
    W1(Window<1>),
    W2(Window<2>),
    W3(Window<3>),
    W4(Window<4>),
    W5(Window<5>),
}

impl PrefilteredSkyline {
    /// An empty skyline over `dims` keys per row.
    ///
    /// # Panics
    ///
    /// Panics unless `dims` is 1 to 5, the objective counts a plan can
    /// rank.
    pub(crate) fn new(dims: usize) -> Self {
        match dims {
            1 => Self::W1(Window::default()),
            2 => Self::W2(Window::default()),
            3 => Self::W3(Window::default()),
            4 => Self::W4(Window::default()),
            5 => Self::W5(Window::default()),
            dims => panic!("rows of {dims} keys: a plan ranks 1 to 5 objectives"),
        }
    }

    /// Offers row `id` with the first `dims` of `row`, which must be
    /// finite. Ids must ascend from offer to offer.
    #[inline]
    pub(crate) fn offer(&mut self, id: u32, row: &[f64]) {
        let row = row.iter().copied();
        match self {
            Self::W1(window) => window.offer(id, fixed_row(row)),
            Self::W2(window) => window.offer(id, fixed_row(row)),
            Self::W3(window) => window.offer(id, fixed_row(row)),
            Self::W4(window) => window.offer(id, fixed_row(row)),
            Self::W5(window) => window.offer(id, fixed_row(row)),
        }
    }

    /// The skyline of every offered row: its ids in offer order, and
    /// their keys row-major (`-0.0` normalized to `+0.0`).
    pub(crate) fn finish(self) -> (Vec<u32>, Vec<f64>) {
        fn split<const D: usize>(survivors: Vec<(u32, [f64; D])>) -> (Vec<u32>, Vec<f64>) {
            let keys = survivors.iter().flat_map(|(_, row)| row).copied().collect();
            (survivors.into_iter().map(|(id, _)| id).collect(), keys)
        }
        match self {
            Self::W1(window) => split(window.finish()),
            Self::W2(window) => split(window.finish()),
            Self::W3(window) => split(window.finish()),
            Self::W4(window) => split(window.finish()),
            Self::W5(window) => split(window.finish()),
        }
    }
}

/// [`PrefilteredSkyline`] at one row width: the kept rows, each tagged
/// with its id, and the last [`PREFILTER_WINDOW`] of them again in the
/// ring the probe reads.
pub(crate) struct Window<const D: usize> {
    /// The most recent kept rows, the oldest overwritten next; `+∞` rows
    /// until that many were kept, which dominate no finite row.
    recent: [[f64; D]; PREFILTER_WINDOW],
    rows: Vec<Row<D>>,
}

impl<const D: usize> Default for Window<D> {
    fn default() -> Self {
        Self {
            recent: [[f64::INFINITY; D]; PREFILTER_WINDOW],
            rows: Vec::new(),
        }
    }
}

impl<const D: usize> Window<D> {
    /// Offers row `id`, whose keys must be finite and whose id must be
    /// above every id offered before: kept unless one of the last
    /// [`PREFILTER_WINDOW`] kept rows dominates it. The probe reads the
    /// newest first, where a dominator usually is, and stops at one.
    #[inline]
    pub(crate) fn offer(&mut self, id: u32, row: [f64; D]) {
        debug_assert!(self.rows.last().map_or(true, |&(_, last)| last < id));
        let slot = self.rows.len() % PREFILTER_WINDOW;
        let (newer, older) = self.recent.split_at(slot);
        if newer
            .iter()
            .rev()
            .chain(older.iter().rev())
            .any(|kept| dominates_fixed(kept, &row))
        {
            return;
        }
        self.recent[slot] = row;
        self.rows.push((row, id));
    }

    /// The skyline of every offered row as `(id, row)`, in offer order.
    pub(crate) fn finish(self) -> Vec<(u32, [f64; D])> {
        let rows = self.rows;
        let survivors = if D >= 4 {
            fixed_skyline(rows)
        } else {
            let keys: Vec<f64> = rows.iter().flat_map(|(row, _)| row).copied().collect();
            pareto_min(D, &keys).into_iter().map(|i| rows[i]).collect()
        };
        survivors.into_iter().map(|(row, id)| (id, row)).collect()
    }
}

/// Skyline maintenance under deletion (DeltaSky, Wu et al., ICDE 2007):
/// when the members keyed `dead` leave a skyline whose other members are
/// keyed `live`, the skyline of what remains is exactly `live` plus the
/// ids this returns. Only a point some dead member dominated can join:
/// every dominated point has a skyline dominator. A remaining point that
/// dominates such a candidate is either one too or dominated by a live
/// member, which then dominates the candidate as well (transitivity).
/// So the promoted points are the candidates' own skyline less those a
/// live member dominates, with the same strict-dominance ties and
/// duplicates as [`naive_pareto_min`]. Probing the few dead keys first
/// keeps the rest of the work to the candidates, and the live probes to
/// their skyline. Every probe is [`dominates_fixed`], and a row below
/// the dead keys' per-coordinate minimum in any coordinate is skipped
/// unprobed: no dead key can dominate it.
///
/// `dead` and `live` are row-major buffers of `dims` keys. `rows` yields
/// every remaining non-member point as `(id, keys)`, of which the first
/// `dims` keys are read; all keys must be finite. Returns the promoted
/// ids in `rows` order.
///
/// # Panics
///
/// Panics unless `dims` is 1 to 5.
pub(crate) fn promoted<R: AsRef<[f64]>>(
    dims: usize,
    dead: &[f64],
    live: &[f64],
    rows: impl IntoIterator<Item = (u32, R)>,
) -> Vec<u32> {
    with_width!(dims, |D| promoted_at::<D, R>(dead, live, rows))
}

/// [`promoted`] at row width `D`.
fn promoted_at<const D: usize, R: AsRef<[f64]>>(
    dead: &[f64],
    live: &[f64],
    rows: impl IntoIterator<Item = (u32, R)>,
) -> Vec<u32> {
    let fixed = |keys: &[f64]| -> Vec<[f64; D]> {
        keys.chunks_exact(D)
            .map(|row| fixed_row(row.iter().copied()))
            .collect()
    };
    let (dead, live) = (fixed(dead), fixed(live));
    let mut floor = [f64::INFINITY; D];
    for key in &dead {
        for (low, &v) in floor.iter_mut().zip(key) {
            *low = low.min(v);
        }
    }
    let mut candidates = Window::<D>::default();
    for (id, row) in rows {
        let row: [f64; D] = fixed_row(row.as_ref().iter().copied());
        let below = row
            .iter()
            .zip(&floor)
            .fold(false, |below, (v, low)| below | (v < low));
        if !below && dead.iter().any(|d| dominates_fixed(d, &row)) {
            candidates.offer(id, row);
        }
    }
    candidates
        .finish()
        .into_iter()
        .filter(|(_, row)| !live.iter().any(|l| dominates_fixed(l, row)))
        .map(|(id, _)| id)
        .collect()
}

/// The shared skyline preamble: validates the buffer, normalizes
/// `-0.0` to `+0.0`, and computes the lexicographic order. `None` for
/// an empty input.
///
/// The normalization is correctness-critical for every algorithm
/// downstream: the sorts split tie groups with `total_cmp`, under which
/// `-0.0 < +0.0`, while dominance (and the naive scan) uses IEEE
/// comparisons where they are equal — without it a total_cmp-lex-later
/// point could still dominate an earlier one (e.g. `[+0.0, 1]` vs
/// `[-0.0, 2]`), breaking the sorted-order invariants. `x + 0.0` maps
/// `-0.0` to `+0.0` and is the identity on every other value.
fn prepare(dims: usize, keys: &[f64]) -> Option<(Vec<f64>, Vec<usize>)> {
    let n = point_count(dims, keys);
    if n == 0 {
        return None;
    }
    let keys: Vec<f64> = keys.iter().map(|v| v + 0.0).collect();
    let order = lex_order(dims, &keys, n);
    Some((keys, order))
}

/// Indices `0..n` sorted lexicographically over all keys, index order
/// for fully tied points, so every routine downstream is deterministic.
/// The explicit index tiebreak makes the unstable sort equivalent to a
/// stable one while skipping the stable sort's scratch allocation —
/// this sort runs once per skyline call and dominates small-frontier
/// inputs, so the constant factor matters (the sharded streaming
/// executor calls it per shard).
fn lex_order(dims: usize, keys: &[f64], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (
            &keys[a * dims..(a + 1) * dims],
            &keys[b * dims..(b + 1) * dims],
        );
        for (x, y) in pa.iter().zip(pb) {
            match x.total_cmp(y) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        a.cmp(&b)
    });
    order
}

/// 1-D frontier: every point tied at the minimum key.
fn min_scan(order: &[usize], keys: &[f64]) -> Vec<usize> {
    let min = keys[order[0]];
    order
        .iter()
        .copied()
        .take_while(|&i| keys[i].total_cmp(&min) == Ordering::Equal)
        .collect()
}

/// 2-D sweep over indices pre-sorted lexicographically by `key`.
///
/// Walks groups of equal first key in ascending order, tracking the best
/// (minimum) second key seen in *strictly earlier* groups. Within a
/// group, only the points tied at the group's minimum second key can
/// survive (anything above is strictly dominated inside the group), and
/// they do survive exactly when that minimum beats every earlier group.
///
/// Also the in-group engine of the 3-D sweep, which is why it takes an
/// index slice rather than a raw buffer.
fn sweep2(order: &[usize], key: &dyn Fn(usize) -> (f64, f64)) -> Vec<usize> {
    let mut out = Vec::new();
    let mut best: Option<f64> = None;
    let mut start = 0;
    while start < order.len() {
        let (a, group_min) = key(order[start]);
        let mut end = start;
        while end < order.len() && key(order[end]).0.total_cmp(&a) == Ordering::Equal {
            end += 1;
        }
        if best.map_or(true, |b| group_min < b) {
            out.extend(
                order[start..end]
                    .iter()
                    .copied()
                    .take_while(|&i| key(i).1.total_cmp(&group_min) == Ordering::Equal),
            );
        }
        best = Some(best.map_or(group_min, |b| b.min(group_min)));
        start = end;
    }
    out
}

/// A totally ordered f64 (via `total_cmp`) for use as a B-tree key.
#[derive(Debug, Clone, Copy)]
struct Key(f64);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A staircase: 2-D running frontier over `(b, c)` pairs, held as a
/// B-tree map from `b` to the smallest `c` seen at that `b`, with `c`
/// strictly descending as `b` ascends. Membership means "some point in
/// an earlier first-key group had these trailing keys", so weak (≤, ≤)
/// coverage is full dominance — the first key is already strict.
///
/// Queries are O(log f); inserts are amortized O(log f) because every
/// step a new one covers is removed exactly once over the sweep's
/// lifetime (this is why the structure is a B-tree rather than a sorted
/// `Vec`, whose front inserts would memmove O(f) elements and turn
/// anti-correlated inputs quadratic).
struct Staircase {
    steps: BTreeMap<Key, f64>,
}

impl Staircase {
    fn new() -> Self {
        Self {
            steps: BTreeMap::new(),
        }
    }

    /// Is `(b, c)` weakly covered by an existing step?
    fn covers(&self, b: f64, c: f64) -> bool {
        // c descends as b ascends, so among the steps with step.b ≤ b
        // the rightmost has the smallest c.
        self.steps
            .range(..=Key(b))
            .next_back()
            .is_some_and(|(_, &step_c)| step_c <= c)
    }

    /// Inserts `(b, c)`, dropping any steps it covers.
    fn insert(&mut self, b: f64, c: f64) {
        if self.covers(b, c) {
            return;
        }
        // Steps at b' ≥ b with c' ≥ c are now covered; by the descending-c
        // invariant they form a contiguous run starting at b.
        let covered: Vec<Key> = self
            .steps
            .range(Key(b)..)
            .take_while(|(_, &step_c)| step_c >= c)
            .map(|(&key, _)| key)
            .collect();
        for key in covered {
            self.steps.remove(&key);
        }
        self.steps.insert(Key(b), c);
    }
}

/// 3-D sweep: groups of equal first key in ascending order, tested
/// against the staircase of all earlier groups, then 2-D-swept within
/// the group (equal first keys dominate on the trailing pair alone).
/// Each surviving point is inserted into the staircase *after* its whole
/// group is processed, so equal-first-key points never dominate each
/// other through it. Dominance is transitive, so testing the in-group
/// sweep only on staircase survivors loses nothing.
fn sweep3(order: &[usize], keys: &[f64]) -> Vec<usize> {
    let k = |i: usize, d: usize| keys[i * 3 + d];
    let mut out = Vec::new();
    let mut stair = Staircase::new();
    let mut start = 0;
    while start < order.len() {
        let a = k(order[start], 0);
        let mut end = start;
        while end < order.len() && k(order[end], 0).total_cmp(&a) == Ordering::Equal {
            end += 1;
        }
        let undominated: Vec<usize> = order[start..end]
            .iter()
            .copied()
            .filter(|&i| !stair.covers(k(i, 1), k(i, 2)))
            .collect();
        // `undominated` inherits the (k1, k2, index) lexicographic order
        // the group was sorted in, which is what sweep2 requires.
        let survivors = sweep2(&undominated, &|i| (k(i, 1), k(i, 2)));
        for &i in &survivors {
            stair.insert(k(i, 1), k(i, 2));
        }
        out.extend_from_slice(&survivors);
        start = end;
    }
    out
}

/// d-dimensional fallback: after a lexicographic sort a later point can
/// never dominate an earlier one (componentwise ≤ plus lexicographic ≥
/// forces equality), so the frontier only grows — each point is checked
/// against it once. Frontier members are probed newest-first: a point's
/// dominator tends to be a lexicographically close predecessor, so the
/// reverse probe usually exits after a handful of checks.
fn running_frontier(dims: usize, keys: &[f64], order: &[usize]) -> Vec<usize> {
    let row = |i: usize| &keys[i * dims..(i + 1) * dims];
    let mut front: Vec<usize> = Vec::new();
    for &i in order {
        if !front.iter().rev().any(|&j| dominates_min(row(j), row(i))) {
            front.push(i);
        }
    }
    front
}

/// Below this many points a subproblem of the fixed-width skyline is
/// solved by a running frontier directly — recursion overhead beats
/// O(n·f) only once n·f can actually grow.
const DC_BASE: usize = 64;

/// Below this many candidate pairs the cross-filter tests dominance
/// pairwise instead of partitioning further.
const DC_PAIRWISE: usize = 512;

/// One row of the fixed-width skyline: its `D` keys, `-0.0` normalized
/// to `+0.0` (see [`prepare`]), and its tag: its index in the input, or
/// a prefiltered row's id.
type Row<const D: usize> = ([f64; D], u32);

/// The d ∈ {4, 5} skyline: Bentley's multidimensional divide and
/// conquer (CACM 1980) over contiguous, lexicographically sorted
/// `[f64; D]` rows. Same contract as [`pareto_min`].
fn fixed_pareto_min<const D: usize>(keys: &[f64]) -> Vec<usize> {
    let n = point_count(D, keys);
    let Ok(n32) = u32::try_from(n) else {
        // Beyond u32 positions (2³² rows are over 130 GB of keys): the
        // reference running frontier.
        return running_frontier_min(D, keys);
    };
    let rows = keys
        .chunks_exact(D)
        .zip(0..n32)
        .map(|(chunk, i)| (fixed_row(chunk.iter().copied()), i))
        .collect();
    fixed_skyline::<D>(rows)
        .into_iter()
        .map(|(_, i)| i as usize)
        .collect()
}

/// The skyline of `rows` (keys `-0.0`-normalized, each with a distinct
/// tag), sorted by tag: [`fixed_pareto_min`]'s kernel, which
/// [`PrefilteredSkyline`] calls on its kept rows as they are.
///
/// Split the sorted rows at the midpoint into a lex-earlier half `A`
/// and a lex-later half `B`. No point of `B` can dominate a point of
/// `A` (componentwise ≤ plus lexicographically ≥ forces equality, and
/// equals never dominate), so
/// `skyline(S) = skyline(A) ∪ filter(skyline(B) vs skyline(A))`
/// where the filter removes `B`-skyline points dominated by an
/// `A`-skyline point — dominance is transitive, so testing against the
/// skyline loses nothing. The filter recurses on one coordinate at a
/// time ([`FixedSkyline::filter`]), giving ~O(n·logᵈ⁻² n) overall.
///
/// The recursion works on one buffer of row positions, which it
/// partitions in place: a subproblem's survivors are compacted to the
/// front of its slice, in no particular order (they are sorted by tag
/// once at the end).
fn fixed_skyline<const D: usize>(mut rows: Vec<Row<D>>) -> Vec<Row<D>> {
    rows.sort_unstable_by(|(a, i), (b, j)| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
            .then(i.cmp(j))
    });
    let n = rows.len();
    let mut positions: Vec<u32> = (0..n).map(|p| p as u32).collect();
    let mut skyline = FixedSkyline {
        rows: &rows,
        dead: vec![false; n],
        pivots: Vec::new(),
    };
    let kept = skyline.reduce(&mut positions);
    let mut survivors: Vec<Row<D>> = positions[..kept]
        .iter()
        .map(|&p| rows[p as usize])
        .collect();
    survivors.sort_unstable_by_key(|&(_, tag)| tag);
    survivors
}

/// The divide-and-conquer state of [`fixed_pareto_min`]: the sorted
/// rows, a dead flag per row for the cross-filter, and the one pivot
/// buffer every partition step reuses.
struct FixedSkyline<'r, const D: usize> {
    rows: &'r [Row<D>],
    dead: Vec<bool>,
    pivots: Vec<f64>,
}

impl<const D: usize> FixedSkyline<'_, D> {
    /// The keys of row position `p`.
    fn keys(&self, p: u32) -> &[f64; D] {
        &self.rows[p as usize].0
    }

    /// Reduces `positions` (ascending, so in lexicographic order) to
    /// their skyline, compacted to the front; returns its size.
    fn reduce(&mut self, positions: &mut [u32]) -> usize {
        if positions.len() <= DC_BASE {
            return self.running(positions);
        }
        let mid = positions.len() / 2;
        let (left, right) = positions.split_at_mut(mid);
        let kept_left = self.reduce(left);
        let kept_right = self.reduce(right);
        self.filter(&mut left[..kept_left], &mut right[..kept_right], D);
        let mut kept = kept_left;
        for i in mid..mid + kept_right {
            let p = positions[i];
            if !self.dead[p as usize] {
                positions[kept] = p;
                kept += 1;
            }
        }
        kept
    }

    /// The base case: a lexicographic running frontier. A later row can
    /// never dominate an earlier one, so the frontier only grows; its
    /// members are probed newest-first, where a dominator usually is.
    fn running(&self, positions: &mut [u32]) -> usize {
        let mut kept = 0;
        for i in 0..positions.len() {
            let p = positions[i];
            let row = self.keys(p);
            if !positions[..kept]
                .iter()
                .rev()
                .any(|&q| dominates_min(self.keys(q), row))
            {
                positions[kept] = p;
                kept += 1;
            }
        }
        kept
    }

    /// The cross-filter's dimension-reducing recursion: marks dead every
    /// row of `b` dominated by some row of `a`.
    ///
    /// `d` counts the leading coordinates still unverified; the recursion
    /// maintains the invariant that every (a, b) pair in the current
    /// subproblem is already weakly ≤ on all coordinates `>= d`. Each step
    /// partitions both slices in place around a pivot of coordinate
    /// `d − 1`: strictly-smaller `a`s versus weakly-larger `b`s have that
    /// coordinate settled (strictly, even) and descend with `d − 1`; the
    /// two same-side quadrants keep `d` but strictly shrink; the remaining
    /// quadrant (larger `a`, smaller `b`) can never dominate and is
    /// skipped — this pruning is the entire speedup. Elimination itself
    /// only ever happens in the leaves via the exact predicate
    /// ([`dominates_min`], or the exact-duplicate rule at `d == 0`), so
    /// ties and duplicates behave precisely as in [`naive_pareto_min`].
    fn filter(&mut self, a: &mut [u32], b: &mut [u32], d: usize) {
        // Skip rows already killed on an earlier recursion path.
        let alive = partition(b, |p| !self.dead[p as usize]);
        let b = &mut b[..alive];
        if a.is_empty() || b.is_empty() {
            return;
        }
        if d == 0 {
            // Every pair is weakly ≤ on every coordinate, so a `b` row
            // survives only when it is an exact duplicate of every `a`
            // row (equals never dominate).
            for &p in b.iter() {
                if a.iter().any(|&q| self.keys(q) != self.keys(p)) {
                    self.dead[p as usize] = true;
                }
            }
            return;
        }
        if a.len() * b.len() <= DC_PAIRWISE {
            self.pairwise(a, b);
            return;
        }
        let c = d - 1;
        let rows = self.rows;
        let key = |p: u32| rows[p as usize].0[c];
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in a.iter().chain(b.iter()).map(|&p| key(p)) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo == hi {
            // No spread: coordinate c is weakly ≤ (equal) for every pair.
            self.filter(a, b, c);
            return;
        }
        // Median pivot, nudged above the minimum so both sides shrink.
        self.pivots.clear();
        self.pivots
            .extend(a.iter().chain(b.iter()).map(|&p| key(p)));
        let mid = self.pivots.len() / 2;
        self.pivots.select_nth_unstable_by(mid, f64::total_cmp);
        let mut pivot = self.pivots[mid];
        if pivot == lo {
            pivot = self
                .pivots
                .iter()
                .copied()
                .filter(|&v| v > lo)
                .fold(f64::INFINITY, f64::min);
        }
        let a_split = partition(a, |p| key(p) < pivot);
        let b_split = partition(b, |p| key(p) < pivot);
        if (a_split == 0 && b_split == 0) || (a_split == a.len() && b_split == b.len()) {
            // Degenerate pivot: with finite keys both sides always shrink,
            // but NaN keys (unspecified per the module contract) compare
            // false against any pivot and would otherwise recurse forever.
            // Resolve the whole subproblem with the exact pairwise
            // predicate instead — never crash.
            self.pairwise(a, b);
            return;
        }
        let (a_lo, a_hi) = a.split_at_mut(a_split);
        let (b_lo, b_hi) = b.split_at_mut(b_split);
        // a_lo < pivot ≤ b_hi: coordinate c is strictly settled — drop a dim.
        self.filter(a_lo, b_hi, c);
        self.filter(a_lo, b_lo, d);
        // a_hi can never dominate b_lo (strictly larger on coordinate c).
        self.filter(a_hi, b_hi, d);
    }

    /// The cross-filter's exact leaf: marks dead every `b` row dominated
    /// (full predicate, all `D` coordinates) by some `a` row.
    fn pairwise(&mut self, a: &[u32], b: &[u32]) {
        for &p in b {
            let row = self.keys(p);
            if a.iter().any(|&q| dominates_min(self.keys(q), row)) {
                self.dead[p as usize] = true;
            }
        }
    }
}

/// Moves the elements of `s` that satisfy `keep` to its front, in no
/// particular order, and returns how many there are.
fn partition(s: &mut [u32], keep: impl Fn(u32) -> bool) -> usize {
    let mut kept = 0;
    for i in 0..s.len() {
        if keep(s[i]) {
            s.swap(kept, i);
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid_points(seed: u64, n: usize, dims: usize, grid: u32) -> Vec<f64> {
        // Coarse integer grids force heavy ties and exact duplicates —
        // the cases where sweep bookkeeping can drift from the naive scan.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dims)
            .map(|_| f64::from(rng.gen_range(0u32..grid)))
            .collect()
    }

    /// The fixed-width divide-and-conquer kernel at `dims` ∈ {4, 5}.
    fn dc_direct(dims: usize, keys: &[f64]) -> Vec<usize> {
        match dims {
            4 => fixed_pareto_min::<4>(keys),
            5 => fixed_pareto_min::<5>(keys),
            _ => panic!("the fixed-width kernel serves 4 and 5 objectives"),
        }
    }

    #[test]
    fn empty_and_singleton() {
        for dims in 1..=5 {
            assert!(pareto_min(dims, &[]).is_empty());
        }
        assert_eq!(pareto_min(3, &[1.0, 2.0, 3.0]), vec![0]);
    }

    #[test]
    fn duplicates_all_survive() {
        // Exact duplicates never dominate each other; all copies stay.
        let keys = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 3.0, 0.5];
        assert_eq!(pareto_min(2, &keys), vec![0, 1, 2, 3]);
        assert_eq!(naive_pareto_min(2, &keys), vec![0, 1, 2, 3]);
    }

    #[test]
    fn simple_2d_staircase() {
        // (0,3) (1,1) (3,0) frontier; (2,2) dominated by (1,1).
        let keys = [0.0, 3.0, 1.0, 1.0, 2.0, 2.0, 3.0, 0.0];
        assert_eq!(pareto_min(2, &keys), vec![0, 1, 3]);
    }

    #[test]
    fn one_dim_keeps_all_minima() {
        let keys = [3.0, 1.0, 2.0, 1.0, 1.0];
        assert_eq!(pareto_min(1, &keys), vec![1, 3, 4]);
        assert_eq!(naive_pareto_min(1, &keys), vec![1, 3, 4]);
    }

    #[test]
    fn equal_first_key_groups_dominate_within_group() {
        // Same first key: (5,1,9) dominates (5,2,9); (5,1,9) survives.
        let keys = [5.0, 1.0, 9.0, 5.0, 2.0, 9.0];
        assert_eq!(pareto_min(3, &keys), vec![0]);
    }

    #[test]
    fn matches_naive_on_random_grids() {
        for dims in 1..=5 {
            for seed in 0..40u64 {
                for &grid in &[2u32, 3, 5, 17] {
                    let n = 1 + (seed as usize * 7 + dims) % 90;
                    let keys = grid_points(seed * 31 + dims as u64, n, dims, grid);
                    assert_eq!(
                        pareto_min(dims, &keys),
                        naive_pareto_min(dims, &keys),
                        "dims {dims} seed {seed} grid {grid}"
                    );
                }
            }
        }
    }

    #[test]
    fn promotion_after_deletion_matches_naive() {
        // Delete random rows, on and off the skyline, from tie-heavy
        // grids; the surviving members plus the promoted rows must be
        // the naive skyline of what remains.
        let mut rng = StdRng::seed_from_u64(2007);
        let mut promotions = 0usize;
        for dims in 2..=5 {
            for case in 0..150u64 {
                let grid = [2u32, 3, 4, 6][case as usize % 4];
                let n = rng.gen_range(1usize..120);
                let keys = grid_points(case * 13 + dims as u64, n, dims, grid);
                let row = |i: usize| &keys[i * dims..(i + 1) * dims];
                let skyline = naive_pareto_min(dims, &keys);
                let mut on_skyline = vec![false; n];
                for &i in &skyline {
                    on_skyline[i] = true;
                }
                let deleted: Vec<bool> = (0..n)
                    .map(|i| rng.gen_bool(if on_skyline[i] { 0.4 } else { 0.2 }))
                    .collect();
                let pick = |dead: bool| -> Vec<f64> {
                    skyline
                        .iter()
                        .filter(|&&i| deleted[i] == dead)
                        .flat_map(|&i| row(i).to_vec())
                        .collect()
                };
                let rows = (0..n)
                    .filter(|&i| !deleted[i] && !on_skyline[i])
                    .map(|i| (i as u32, row(i)));
                let joined = promoted(dims, &pick(true), &pick(false), rows);
                promotions += joined.len();
                let mut got: Vec<usize> =
                    skyline.iter().copied().filter(|&i| !deleted[i]).collect();
                got.extend(joined.iter().map(|&i| i as usize));
                got.sort_unstable();

                let remaining: Vec<usize> = (0..n).filter(|&i| !deleted[i]).collect();
                let remaining_keys: Vec<f64> =
                    remaining.iter().flat_map(|&i| row(i).to_vec()).collect();
                let expected: Vec<usize> = naive_pareto_min(dims, &remaining_keys)
                    .into_iter()
                    .map(|p| remaining[p])
                    .collect();
                assert_eq!(got, expected, "dims {dims} case {case} grid {grid}");
            }
        }
        assert!(promotions > 0, "the cases never exercised a promotion");
    }

    #[test]
    fn matches_naive_on_continuous_points() {
        let mut rng = StdRng::seed_from_u64(7);
        for dims in 2..=4 {
            for _ in 0..20 {
                let n = rng.gen_range(1usize..200);
                let keys: Vec<f64> = (0..n * dims).map(|_| rng.gen_range(-5.0..5.0)).collect();
                assert_eq!(pareto_min(dims, &keys), naive_pareto_min(dims, &keys));
            }
        }
    }

    #[test]
    fn large_3d_frontier_is_fast_and_correct_on_sample() {
        // 20k anti-correlated points (worst-ish case: big frontier); spot
        // check the sweep's frontier against the dominance predicate.
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20_000;
        let keys: Vec<f64> = (0..n)
            .flat_map(|_| {
                let a = rng.gen_range(0.0..1.0);
                let b = rng.gen_range(0.0..1.0);
                [a, b, 2.0 - a - b + rng.gen_range(0.0..0.01)]
            })
            .collect();
        let front = pareto_min(3, &keys);
        assert!(!front.is_empty());
        let row = |i: usize| &keys[i * 3..i * 3 + 3];
        for &i in front.iter().step_by(97) {
            for j in 0..n {
                assert!(!dominates_min(row(j), row(i)));
            }
        }
    }

    #[test]
    fn negative_zero_ties_with_positive_zero() {
        // -0.0 and +0.0 are IEEE-equal, so neither point dominates the
        // other and both stay — even though total_cmp orders them.
        let keys = [-0.0, 5.0, 0.0, 5.0];
        assert_eq!(pareto_min(2, &keys), vec![0, 1]);
        assert_eq!(naive_pareto_min(2, &keys), vec![0, 1]);
        let keys3 = [1.0, -0.0, 2.0, 1.0, 0.0, 2.0];
        assert_eq!(pareto_min(3, &keys3), naive_pareto_min(3, &keys3));
    }

    #[test]
    fn anti_correlated_staircase_inserts_stay_fast() {
        // Every point is on the frontier and every staircase insert
        // lands at the front — the case a sorted-Vec staircase turns
        // quadratic on. 200k points must finish promptly (the B-tree
        // makes this ~n log n; a memmove staircase would do ~2·10¹⁰
        // element moves here).
        let n = 200_000;
        let keys: Vec<f64> = (0..n)
            .flat_map(|i| {
                let x = i as f64;
                [x, (n - i) as f64, x]
            })
            .collect();
        let front = pareto_min(3, &keys);
        assert_eq!(front.len(), n);
    }

    #[test]
    fn dc_matches_naive_on_large_lattices() {
        // Tie-heavy integer grids at 4 and 5 objectives, big enough to
        // exercise the divide-and-conquer recursion (base case is 64
        // points) and the dimension-reducing cross-filter.
        for dims in [4usize, 5] {
            for (seed, grid) in [(11u64, 3u32), (12, 5), (13, 9), (14, 17)] {
                let n = 600 + seed as usize * 37;
                let keys = grid_points(seed * 101 + dims as u64, n, dims, grid);
                let expected = naive_pareto_min(dims, &keys);
                assert_eq!(
                    pareto_min(dims, &keys),
                    expected,
                    "dims {dims} seed {seed} grid {grid}"
                );
                assert_eq!(
                    dc_direct(dims, &keys),
                    expected,
                    "d&c dims {dims} seed {seed} grid {grid}"
                );
                assert_eq!(
                    running_frontier_min(dims, &keys),
                    expected,
                    "running frontier dims {dims} seed {seed} grid {grid}"
                );
            }
        }
    }

    #[test]
    fn dc_matches_naive_on_large_continuous_sets() {
        let mut rng = StdRng::seed_from_u64(4242);
        for dims in [4usize, 5] {
            for _ in 0..6 {
                let n = rng.gen_range(300usize..1200);
                let keys: Vec<f64> = (0..n * dims).map(|_| rng.gen_range(-5.0..5.0)).collect();
                let expected = naive_pareto_min(dims, &keys);
                assert_eq!(pareto_min(dims, &keys), expected, "dims {dims} n {n}");
                assert_eq!(dc_direct(dims, &keys), expected, "d&c dims {dims} n {n}");
                assert_eq!(running_frontier_min(dims, &keys), expected);
            }
        }
    }

    #[test]
    fn dc_keeps_duplicates_split_across_halves() {
        // Hundreds of exact copies of one frontier point, interleaved
        // with dominated points: the position split lands copies in both
        // recursion halves, and the cross-filter must not let one copy
        // kill another (equals never dominate).
        let mut keys = Vec::new();
        for i in 0..400 {
            if i % 2 == 0 {
                keys.extend([1.0, 1.0, 1.0, 1.0]);
            } else {
                keys.extend([2.0, 2.0, 2.0, 1.0 + f64::from(i)]);
            }
        }
        let front = pareto_min(4, &keys);
        let expected: Vec<usize> = (0..400).step_by(2).collect();
        assert_eq!(front, expected);
        assert_eq!(naive_pareto_min(4, &keys), expected);
    }

    #[test]
    fn nan_keys_do_not_crash_the_dc_skyline() {
        // NaN keys are contractually unspecified, but they must never
        // crash: a NaN coordinate defeats every pivot comparison, and
        // without the degenerate-pivot fallback the cross-filter would
        // recurse forever (stack overflow). On all-NaN duplicates the
        // result even matches the naive scan: nothing dominates, all
        // points survive.
        let n = 200;
        let keys: Vec<f64> = (0..n).flat_map(|_| [f64::NAN, 1.0, 1.0, 1.0]).collect();
        let front = pareto_min(4, &keys);
        assert_eq!(front, naive_pareto_min(4, &keys));
        assert_eq!(front.len(), n);
    }

    #[test]
    fn dc_handles_large_anti_correlated_4d_sets() {
        // Everything on (or near) the frontier — the worst case for the
        // old O(n·f) running frontier. 30k points must finish promptly;
        // spot-check survivors against the dominance predicate.
        let mut rng = StdRng::seed_from_u64(7177);
        let n = 30_000;
        let keys: Vec<f64> = (0..n)
            .flat_map(|_| {
                let a = rng.gen_range(0.0..1.0);
                let b = rng.gen_range(0.0..1.0);
                let c = rng.gen_range(0.0..1.0);
                [a, b, c, 3.0 - a - b - c + rng.gen_range(0.0..0.01)]
            })
            .collect();
        let front = pareto_min(4, &keys);
        assert!(!front.is_empty());
        let row = |i: usize| &keys[i * 4..i * 4 + 4];
        for &i in front.iter().step_by(211) {
            for j in 0..n {
                assert!(!dominates_min(row(j), row(i)));
            }
        }
    }

    /// Rows shaped like a shard's offered keys `[-v, tdp, payload,
    /// energy, endurance]`: each (sensor, compute) pair's 47 algorithms
    /// share the pair's TDP, payload and endurance, and every algorithm
    /// past the pair's knee flies at its roof, so pairs hold runs of exact
    /// duplicates. A tenth of the pairs draw zero TDP, spelled `-0.0` and
    /// `+0.0` by alternate algorithms, and the `-0.0` ones carry one more
    /// unit of energy: at the roof a `+0.0` row dominates its `-0.0`
    /// neighbours, which `total_cmp` sorts before it.
    fn shard_rows(seed: u64, n: usize, dims: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys = Vec::with_capacity(n * dims);
        while keys.len() < n * dims {
            let roof = f64::from(rng.gen_range(20u32..60));
            let zero_tdp = rng.gen_bool(0.1);
            let tdp = f64::from(rng.gen_range(1u32..40));
            let payload = f64::from(rng.gen_range(50u32..400));
            let endurance = -f64::from(rng.gen_range(5u32..30));
            for algorithm in 0..47 {
                let v = roof.min(f64::from(rng.gen_range(1u32..90)));
                let tdp = match (zero_tdp, algorithm % 2) {
                    (false, _) => tdp,
                    (true, 0) => -0.0,
                    (true, _) => 0.0,
                };
                let overhead = if tdp.is_sign_negative() { 1.0 } else { 0.0 };
                let energy = ((tdp + payload / 10.0) * 8.0 / v).round() + overhead;
                keys.extend_from_slice(&[-v, tdp, payload, energy, endurance][..dims]);
            }
        }
        keys.truncate(n * dims);
        keys
    }

    /// Rows near the hyperplane where the keys sum to a constant, with
    /// distinct first keys: most of them are on the skyline.
    fn anti_correlated_rows(seed: u64, n: usize, dims: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .flat_map(|_| {
                let mut row: Vec<f64> = (1..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
                let sum: f64 = row.iter().sum();
                row.push(dims as f64 - sum + rng.gen_range(0.0..0.05));
                row
            })
            .collect()
    }

    /// Input indices in lexicographic key order, as the kernel sorts.
    fn lex_sorted(dims: usize, keys: &[f64]) -> Vec<usize> {
        prepare(dims, keys).expect("non-empty input").1
    }

    /// Copies `row` over the rows at lexicographic positions
    /// `n/2 − 200 .. n/2 + 200` and returns their indices.
    fn overwrite_middle(keys: &mut [f64], dims: usize, row: &[f64]) -> Vec<usize> {
        let n = keys.len() / dims;
        let block = lex_sorted(dims, keys)[n / 2 - 200..n / 2 + 200].to_vec();
        for &i in &block {
            keys[i * dims..(i + 1) * dims].copy_from_slice(row);
        }
        block
    }

    #[test]
    fn fixed_kernel_matches_naive_on_shard_sized_inputs() {
        // ≥ 10⁴ rows optimized (CI runs this module in release); the
        // naive O(n²) reference keeps debug runs smaller.
        let n = if cfg!(debug_assertions) {
            2_000
        } else {
            12_000
        };
        for dims in [4usize, 5] {
            let shard = shard_rows(40 + dims as u64, n, dims);
            assert!(shard.iter().any(|v| *v == 0.0 && v.is_sign_negative()));
            assert!(shard.iter().any(|v| *v == 0.0 && v.is_sign_positive()));
            let expected = naive_pareto_min(dims, &shard);
            let row = |i: usize| &shard[i * dims..(i + 1) * dims];
            assert!(
                expected.windows(2).any(|w| row(w[0]) == row(w[1])),
                "no exact duplicates on the skyline"
            );
            assert_eq!(pareto_min(dims, &shard), expected, "shard dims {dims}");

            // A run of exact duplicates of the median row across the first
            // split point.
            let mut tied = shard.clone();
            let median = lex_sorted(dims, &shard)[n / 2];
            let median_row = shard[median * dims..(median + 1) * dims].to_vec();
            overwrite_middle(&mut tied, dims, &median_row);
            let order = lex_sorted(dims, &tied);
            let at = |p: usize| &tied[order[p] * dims..(order[p] + 1) * dims];
            assert_eq!(at(n / 2 - 1), at(n / 2), "the run straddles the split");
            assert_eq!(
                pareto_min(dims, &tied),
                naive_pareto_min(dims, &tied),
                "tied shard dims {dims}"
            );

            // Anti-correlated rows, then a run of skyline duplicates across
            // the split: the median's first key, and every other key below
            // all the others, so every copy survives.
            let anti = anti_correlated_rows(50 + dims as u64, n, dims);
            assert_eq!(
                pareto_min(dims, &anti),
                naive_pareto_min(dims, &anti),
                "anti-correlated dims {dims}"
            );
            let mut crest = anti.clone();
            let mut row = vec![anti[lex_sorted(dims, &anti)[n / 2] * dims]];
            row.extend(std::iter::repeat(-1.0).take(dims - 1));
            let block = overwrite_middle(&mut crest, dims, &row);
            let order = lex_sorted(dims, &crest);
            assert!(block.contains(&order[n / 2 - 1]) && block.contains(&order[n / 2]));
            let front = pareto_min(dims, &crest);
            assert!(block.iter().all(|i| front.binary_search(i).is_ok()));
            assert_eq!(front, naive_pareto_min(dims, &crest), "crest dims {dims}");
        }
    }

    /// Tie-heavy rows of `dims` keys from a small grid, each key spelled
    /// `-0.0` or `+0.0` when it is zero, with runs of exact duplicates.
    fn signed_zero_rows(seed: u64, n: usize, dims: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys = Vec::with_capacity(n * dims);
        while keys.len() < n * dims {
            let row: Vec<f64> = (0..dims)
                .map(|_| match rng.gen_range(0u32..4) {
                    0 => -0.0,
                    1 => 0.0,
                    v => f64::from(v) - 2.5,
                })
                .collect();
            for _ in 0..rng.gen_range(1usize..4) {
                keys.extend_from_slice(&row);
            }
        }
        keys.truncate(n * dims);
        keys
    }

    #[test]
    fn fixed_width_dominance_agrees_with_the_slice_test() {
        let values = [-2.0, -0.0, 0.0, 1.5, f64::MAX, f64::MIN];
        for dims in 1..=3usize {
            let rows: Vec<Vec<f64>> = (0..values.len().pow(dims as u32))
                .map(|mut code| {
                    (0..dims)
                        .map(|_| {
                            let v = values[code % values.len()];
                            code /= values.len();
                            v
                        })
                        .collect()
                })
                .collect();
            for a in &rows {
                for b in &rows {
                    let fixed = match dims {
                        1 => dominates_fixed::<1>(&fixed_row(a.clone()), &fixed_row(b.clone())),
                        2 => dominates_fixed::<2>(&fixed_row(a.clone()), &fixed_row(b.clone())),
                        _ => dominates_fixed::<3>(&fixed_row(a.clone()), &fixed_row(b.clone())),
                    };
                    assert_eq!(fixed, dominates_min(a, b), "{a:?} vs {b:?}");
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20_000 {
            let a = fixed_row::<5>((0..5).map(|_| f64::from(rng.gen_range(0u32..3))));
            let b = fixed_row::<5>((0..5).map(|_| f64::from(rng.gen_range(0u32..3))));
            assert_eq!(dominates_fixed(&a, &b), dominates_min(&a, &b));
        }
    }

    #[test]
    fn prefilter_matches_naive_at_every_width() {
        for dims in 1..=5usize {
            for (seed, n) in [(1u64, 1usize), (2, 17), (3, 200), (4, 900)] {
                for keys in [
                    signed_zero_rows(seed * 7 + dims as u64, n, dims),
                    grid_points(seed * 11 + dims as u64, n, dims, 3),
                    shard_rows(seed * 13 + dims as u64, n, dims),
                ] {
                    let mut skyline = PrefilteredSkyline::new(dims);
                    for (id, row) in keys.chunks_exact(dims).enumerate() {
                        skyline.offer(id as u32 * 3 + 1, row);
                    }
                    let (ids, kept) = skyline.finish();
                    let expected = naive_pareto_min(dims, &keys);
                    let expected_ids: Vec<u32> =
                        expected.iter().map(|&i| i as u32 * 3 + 1).collect();
                    assert_eq!(ids, expected_ids, "dims {dims} seed {seed} n {n}");
                    let expected_keys: Vec<f64> = expected
                        .iter()
                        .flat_map(|&i| &keys[i * dims..(i + 1) * dims])
                        .copied()
                        .collect();
                    assert_eq!(kept, expected_keys, "dims {dims} seed {seed} n {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the dimension count")]
    fn ragged_buffer_rejected() {
        let _ = pareto_min(3, &[1.0, 2.0]);
    }
}
