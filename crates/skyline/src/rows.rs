//! The stored rows of a result or of a shard's value set, with what a
//! whole run shares stored once.
//!
//! Inside a run (the candidates of one (sensor, compute) pair) the
//! feasibility flag and the pair-constant objectives
//! ([`Objective::TotalTdp`], [`Objective::PayloadMass`],
//! [`Objective::HoverEnduranceMin`]) never change, and consecutive
//! candidates hold consecutive jobs. So [`Rows`] keeps one dense `f64`
//! column per per-candidate objective ([`Objective::SafeVelocity`],
//! [`Objective::MissionEnergyWhPerKm`]) and a list of [`Record`]s, each a
//! maximal stretch of rows with consecutive jobs, one flag and bit-equal
//! constants. A plan without a `MinVelocity` floor keeps whole runs, so
//! it stores at most one record per run; a floor splits a run where it
//! drops a candidate.
//!
//! The encoding is unique: every writer appends through [`Rows::push`],
//! which extends the last record whenever the new rows continue it. A
//! shard merge, a batch member's gather and a delta repair therefore
//! produce a cold run's records, and repeated repairs cannot fragment
//! them. This is late materialization with run-length compression
//! (Abadi et al., "Materialization Strategies in a Column-Oriented
//! DBMS", ICDE 2007; Abadi, Madden and Ferreira, SIGMOD 2006).

use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Range;

use crate::query::{Objective, MAX_OBJECTIVES};

/// Most pair-constant objectives a plan carries: TDP, payload and hover
/// endurance.
pub(crate) const MAX_CONSTANTS: usize = 3;

/// A maximal stretch of stored rows with consecutive jobs, one
/// feasibility flag and bit-equal pair-constant values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    /// The job of the first row; each later row holds the next job.
    pub(crate) job: u64,
    /// The position of the first row: a result holds fewer than 2³²
    /// rows, for 2³² jobs and their values would not fit in memory.
    row: u32,
    /// Every row's `outcome.feasible`.
    pub(crate) feasible: bool,
    /// The pair-constant objectives' values, in objective order; slots
    /// past them hold 0.
    pub(crate) constants: [f64; MAX_CONSTANTS],
}

impl Record {
    /// The position of the first row.
    fn start(&self) -> usize {
        self.row as usize
    }

    /// The job of `row`, one of this record's rows.
    pub(crate) fn job_at(&self, row: usize) -> u64 {
        self.job + (row - self.start()) as u64
    }
}

impl PartialEq for Record {
    /// Bit equality, the encoding's identity.
    fn eq(&self, other: &Self) -> bool {
        let bits = |r: &Self| (r.job, r.row, r.feasible, r.constants.map(f64::to_bits));
        bits(self) == bits(other)
    }
}

/// Where one objective's values are stored.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A dense column, by position among the dense columns.
    Dense(usize),
    /// A record constant, by position in [`Record::constants`].
    Constant(usize),
}

/// Where each of `objectives` is stored, in order: the per-candidate
/// objectives in dense columns, the rest as record constants.
fn slots(objectives: &[Objective]) -> impl Iterator<Item = Slot> + '_ {
    let (mut dense, mut constant) = (0, 0);
    objectives.iter().map(move |o| match o {
        Objective::SafeVelocity | Objective::MissionEnergyWhPerKm => {
            dense += 1;
            Slot::Dense(dense - 1)
        }
        Objective::TotalTdp | Objective::PayloadMass | Objective::HoverEnduranceMin => {
            constant += 1;
            Slot::Constant(constant - 1)
        }
    })
}

/// Stored rows: each row's job, feasibility and objective values, the
/// per-candidate values in dense columns and the rest once per
/// [`Record`] (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    objectives: Vec<Objective>,
    /// Where each objective is stored, in objective order.
    slots: Vec<Slot>,
    /// One column per per-candidate objective, in objective order.
    dense: Vec<Vec<f64>>,
    /// Ascending by first row and by job.
    records: Vec<Record>,
    len: usize,
}

impl Rows {
    /// No rows of `objectives`, with room for `capacity` in each dense
    /// column.
    pub(crate) fn with_capacity(objectives: &[Objective], capacity: usize) -> Self {
        let slots: Vec<Slot> = slots(objectives).collect();
        let dense = slots.iter().filter(|s| matches!(s, Slot::Dense(_)));
        Self {
            objectives: objectives.to_vec(),
            dense: dense.map(|_| Vec::with_capacity(capacity)).collect(),
            slots,
            records: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn records(&self) -> &[Record] {
        &self.records
    }

    /// The dense columns, which a writer extends by the values of the
    /// rows it pushes.
    pub(crate) fn dense_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.dense
    }

    /// Appends `count` rows (none is a no-op) holding the jobs from `job`
    /// on, all with `feasible` and `constants`: they extend the last
    /// record when they continue it, and start a record otherwise. The
    /// caller appends their per-candidate values to the dense columns.
    #[inline]
    // analyze::allow(panic, scope = "fn", reason = "a result holds fewer than 2³² rows; see Record::row")
    pub(crate) fn push(
        &mut self,
        job: u64,
        count: usize,
        feasible: bool,
        constants: [f64; MAX_CONSTANTS],
    ) {
        let continues = self.records.last().is_some_and(|last| {
            last.job_at(self.len) == job
                && last.feasible == feasible
                && last.constants.map(f64::to_bits) == constants.map(f64::to_bits)
        });
        if !continues && count > 0 {
            self.records.push(Record {
                job,
                row: u32::try_from(self.len).expect("fewer than 2³² rows"),
                feasible,
                constants,
            });
        }
        self.len += count;
    }

    /// Appends one row given its values in objective order.
    // analyze::allow(indexing, scope = "fn", reason = "slots come from this rows' objectives, which size the dense columns and fit the constants")
    pub(crate) fn push_values(&mut self, job: u64, feasible: bool, values: &[f64]) {
        let mut constants = [0.0; MAX_CONSTANTS];
        for (&slot, &value) in self.slots.iter().zip(values) {
            match slot {
                Slot::Dense(c) => self.dense[c].push(value),
                Slot::Constant(k) => constants[k] = value,
            }
        }
        self.push(job, 1, feasible, constants);
    }

    /// Appends every row of `other`, a rows of the same objectives.
    pub(crate) fn append(&mut self, other: &Self) {
        for (column, values) in self.dense.iter_mut().zip(&other.dense) {
            column.extend_from_slice(values);
        }
        for (record, span) in other.stretches() {
            self.push(record.job, span.len(), record.feasible, record.constants);
        }
    }

    /// Appends `other`'s rows `rows` (ascending), a rows of the same
    /// objectives.
    // analyze::allow(indexing, scope = "fn", reason = "rows are rows of other, which every dense column of other holds")
    pub(crate) fn gather(&mut self, other: &Self, rows: &[u32]) {
        for (column, values) in self.dense.iter_mut().zip(&other.dense) {
            column.extend(rows.iter().map(|&r| values[r as usize]));
        }
        let mut pending = Pending::default();
        for (row, record) in other.walk(rows.iter().map(|&r| r as usize)) {
            pending.add(self, record.job_at(row), record);
        }
        pending.flush(self);
    }

    /// Reserves room for `additional` more rows in the dense columns.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        for column in &mut self.dense {
            column.reserve_exact(additional);
        }
    }

    /// Releases spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        for column in &mut self.dense {
            column.shrink_to_fit();
        }
        self.records.shrink_to_fit();
    }

    /// Each record with its rows.
    pub(crate) fn stretches(&self) -> impl Iterator<Item = (&Record, Range<usize>)> + '_ {
        let ends = self.records.iter().skip(1).map(Record::start);
        let ends = ends.chain(std::iter::once(self.len));
        self.records
            .iter()
            .zip(ends)
            .map(|(record, end)| (record, record.start()..end))
    }

    /// Every row with its record, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &Record)> + '_ {
        self.walk(0..self.len)
    }

    /// Every row's job, in order.
    pub(crate) fn jobs(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(row, record)| record.job_at(row))
    }

    /// Each of `rows`, ascending stored rows, with its record; the
    /// record is found by a cursor that only moves forward.
    // analyze::allow(indexing, scope = "fn", reason = "a stored row has a record, and the cursor stops at the last record at or before it")
    pub(crate) fn walk<'a>(
        &'a self,
        rows: impl Iterator<Item = usize> + 'a,
    ) -> impl Iterator<Item = (usize, &'a Record)> + 'a {
        let mut at = 0;
        rows.map(move |row| {
            while self
                .records
                .get(at + 1)
                .is_some_and(|next| next.start() <= row)
            {
                at += 1;
            }
            (row, &self.records[at])
        })
    }

    /// The record holding `row`, `None` past the last row.
    pub(crate) fn record(&self, row: usize) -> Option<&Record> {
        if row >= self.len {
            return None;
        }
        let at = self.records.partition_point(|r| r.start() <= row);
        self.records.get(at.checked_sub(1)?)
    }

    /// The job of `row`, `None` past the last row.
    pub(crate) fn job(&self, row: usize) -> Option<u64> {
        self.record(row).map(|record| record.job_at(row))
    }

    /// The row holding `job`, if one does.
    pub(crate) fn row_of(&self, job: u64) -> Option<usize> {
        let at = self
            .records
            .partition_point(|r| r.job <= job)
            .checked_sub(1)?;
        let record = self.records.get(at)?;
        let end = self.records.get(at + 1).map_or(self.len, Record::start);
        let offset = usize::try_from(job - record.job).ok()?;
        (offset < end - record.start()).then_some(record.start() + offset)
    }

    /// Dense column `c`.
    pub(crate) fn dense(&self, c: usize) -> &[f64] {
        self.dense.get(c).map_or(&[], Vec::as_slice)
    }

    /// The value in `slot` of `row`, which `record` holds.
    // analyze::allow(indexing, scope = "fn", reason = "slots come from this rows' objectives, and row is a stored row")
    fn at(&self, slot: Slot, record: &Record, row: usize) -> f64 {
        match slot {
            Slot::Dense(c) => self.dense[c][row],
            Slot::Constant(k) => record.constants[k],
        }
    }

    /// The values of `row`, which `record` holds, in objective order;
    /// slots past the objectives hold 0.
    pub(crate) fn values(&self, record: &Record, row: usize) -> [f64; MAX_OBJECTIVES] {
        let mut values = [0.0; MAX_OBJECTIVES];
        for (value, &slot) in values.iter_mut().zip(&self.slots) {
            *value = self.at(slot, record, row);
        }
        values
    }

    /// The minimized keys ([`Objective::minimized`]) of `row`, which
    /// `record` holds, when it can join a frontier: feasible, with every
    /// value finite.
    pub(crate) fn key(&self, record: &Record, row: usize) -> Option<[f64; MAX_OBJECTIVES]> {
        if !record.feasible {
            return None;
        }
        let mut key = [0.0; MAX_OBJECTIVES];
        for ((key, &slot), objective) in key.iter_mut().zip(&self.slots).zip(&self.objectives) {
            let value = self.at(slot, record, row);
            if !value.is_finite() {
                return None;
            }
            *key = objective.minimized(value);
        }
        Some(key)
    }

    /// Every row that can join a frontier with its minimized keys
    /// ([`key`](Self::key)), in order; infeasible records, and records
    /// with a constant that is not finite, are skipped whole.
    // analyze::allow(indexing, scope = "fn", reason = "positions enumerate the objectives, at most MAX_OBJECTIVES; slots come from this rows' objectives and rows from its records")
    pub(crate) fn keys(&self) -> impl Iterator<Item = (usize, [f64; MAX_OBJECTIVES])> + '_ {
        let layout = move || self.slots.iter().zip(&self.objectives).enumerate();
        self.stretches()
            .filter_map(move |(record, span)| {
                // The record's constants, minimized once; each row adds
                // its dense values.
                let mut key = [0.0; MAX_OBJECTIVES];
                for (pos, (&slot, objective)) in layout() {
                    let value = self.at(slot, record, span.start);
                    let finite = value.is_finite() || matches!(slot, Slot::Dense(_));
                    key[pos] = objective.minimized(value);
                    if !finite {
                        return None;
                    }
                }
                record.feasible.then_some((key, span))
            })
            .flat_map(move |(key, span)| {
                span.filter_map(move |row| {
                    let mut key = key;
                    for (pos, (&slot, objective)) in layout() {
                        if let Slot::Dense(c) = slot {
                            let value = self.dense[c][row];
                            if !value.is_finite() {
                                return None;
                            }
                            key[pos] = objective.minimized(value);
                        }
                    }
                    Some((row, key))
                })
            })
    }

    /// The values of the objective at `position`.
    pub(crate) fn column(&self, position: usize) -> Option<Column<'_>> {
        let slot = *self.slots.get(position)?;
        Some(Column { rows: self, slot })
    }

    /// The best `k` rows in rank order ([`rank_key`]), selected with a
    /// bounded heap in O(n log k): of every row (`rows` `None`), numbered
    /// by row, or of the ascending stored `rows`, numbered by position
    /// among them. The order is total, so this is the full ranking's
    /// prefix.
    pub(crate) fn best(&self, rows: Option<&[u32]>, k: usize) -> Vec<usize> {
        let primary = self.slots.first().copied();
        let maximize = self.objectives.first().is_some_and(|o| o.maximize());
        let key = |index, record: &Record, row| {
            let value = primary.map_or(0.0, |slot| self.at(slot, record, row));
            rank_key(maximize, record.feasible, value, index)
        };
        let mut cut = Cut {
            heap: BinaryHeap::new(),
            k,
            worst: None,
        };
        match rows {
            None => {
                for (record, span) in self.stretches() {
                    let infeasible = !record.feasible;
                    if let Some(Slot::Dense(c)) = primary {
                        let values = self.dense(c).get(span.clone()).unwrap_or_default();
                        let mut rows = span.zip(values);
                        loop {
                            let bar = cut.bar(infeasible);
                            let admitted = rows.find(|&(_, &v)| bar.admits(value_key(maximize, v)));
                            let Some((row, &v)) = admitted else {
                                break;
                            };
                            cut.keep(rank_key(maximize, record.feasible, v, row));
                        }
                    } else {
                        // Once one row of a constant record misses the
                        // cut, every later one does.
                        for row in span {
                            let key = key(row, record, row);
                            if !cut.bar(infeasible).admits(key.1) {
                                break;
                            }
                            cut.keep(key);
                        }
                    }
                }
            }
            Some(rows) => {
                let rows = self.walk(rows.iter().map(|&r| r as usize));
                for (index, (row, record)) in rows.enumerate() {
                    let key = key(index, record, row);
                    if cut.bar(key.0).admits(key.1) {
                        cut.keep(key);
                    }
                }
            }
        }
        let mut best = cut.heap.into_vec();
        best.sort_unstable();
        best.into_iter().map(|(_, _, index)| index).collect()
    }

    /// Debug builds' check of the encoding: records start at row 0,
    /// each is non-empty, jobs ascend, and every dense column holds
    /// every row.
    pub(crate) fn is_well_formed(&self) -> bool {
        let mut end_job = None::<u64>;
        self.records
            .first()
            .map_or(self.len == 0, |first| first.row == 0)
            && self.stretches().all(|(record, span)| {
                let ascends = end_job.map_or(true, |end| end <= record.job);
                end_job = Some(record.job_at(span.end));
                ascends && !span.is_empty()
            })
            && self.dense.iter().all(|column| column.len() == self.len)
    }
}

/// Rows pushed one at a time, held back while they continue the same
/// record on consecutive jobs, so that [`Rows::push`] sees each stretch
/// once.
#[derive(Default)]
struct Pending<'r> {
    job: u64,
    count: usize,
    record: Option<&'r Record>,
}

impl<'r> Pending<'r> {
    /// Adds a row holding `job` with `record`'s flag and constants.
    fn add(&mut self, rows: &mut Rows, job: u64, record: &'r Record) {
        let continues = self.record.is_some_and(|r| std::ptr::eq(r, record));
        if continues && self.job + self.count as u64 == job {
            self.count += 1;
        } else {
            self.flush(rows);
            *self = Self {
                job,
                count: 1,
                record: Some(record),
            };
        }
    }

    /// Pushes the rows held back.
    fn flush(&mut self, rows: &mut Rows) {
        if let Some(record) = self.record.take() {
            rows.push(self.job, self.count, record.feasible, record.constants);
        }
    }
}

/// A row's place in the rank order, as a key that sorts best first.
type RankKey = (bool, i64, usize);

/// The rank key of row `index`: feasible before infeasible, then the
/// primary value (descending when bigger is better, by `total_cmp`),
/// then the row's number, so the order is total.
/// [`ResultSet::ranked`](crate::ResultSet::ranked) and
/// [`top_k`](crate::ResultSet::top_k), a shard's local top-k and the
/// streamed merge all rank by it.
pub(crate) fn rank_key(maximize: bool, feasible: bool, primary: f64, index: usize) -> RankKey {
    (!feasible, value_key(maximize, primary), index)
}

/// A primary value's place in the rank order: `total_cmp`'s order as an
/// integer, reversed (by negation) when bigger is better.
#[inline]
fn value_key(maximize: bool, value: f64) -> i64 {
    let bits = if maximize { -value } else { value }.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The best `k` rows offered so far, as rank keys in a heap whose top is
/// the worst. Rows are offered by ascending number, so a later row never
/// wins a tie: it makes the cut only with a better flag or value.
struct Cut {
    heap: BinaryHeap<RankKey>,
    k: usize,
    /// The worst kept row's flag and value, once `k` rows are kept.
    worst: Option<(bool, i64)>,
}

impl Cut {
    /// What a row, `infeasible` or not, must beat to make the cut.
    fn bar(&self, infeasible: bool) -> Bar {
        match self.worst {
            None if self.k > 0 => Bar::Open,
            Some((worst, value)) if worst == infeasible => Bar::Below(value),
            Some((true, _)) if !infeasible => Bar::Open,
            _ => Bar::Closed,
        }
    }

    /// Keeps the row of rank key `key`, which passes the
    /// [`bar`](Self::bar), evicting the worst kept row when the heap is
    /// full.
    fn keep(&mut self, key: RankKey) {
        if self.worst.is_none() {
            self.heap.push(key);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            *worst = key;
        }
        if self.heap.len() == self.k {
            self.worst = self
                .heap
                .peek()
                .map(|&(infeasible, value, _)| (infeasible, value));
        }
    }
}

/// What a row's value key must beat to make a [`Cut`].
#[derive(Clone, Copy)]
enum Bar {
    Open,
    Closed,
    Below(i64),
}

impl Bar {
    #[inline]
    fn admits(self, value: i64) -> bool {
        match self {
            Self::Open => true,
            Self::Closed => false,
            Self::Below(worst) => value < worst,
        }
    }
}

/// One objective's values across a [`ResultSet`](crate::ResultSet)'s
/// stored rows, read in place: a per-candidate objective from its dense
/// column, a pair-constant one from the record that holds each row.
/// In streamed mode the rows are the stored ones, aligned with
/// [`ResultSet::stored_indices`](crate::ResultSet::stored_indices).
#[derive(Clone, Copy)]
pub struct Column<'a> {
    rows: &'a Rows,
    slot: Slot,
}

impl<'a> Column<'a> {
    /// Number of stored rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the column holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of stored row `row`, `None` past the last row.
    #[must_use]
    pub fn get(&self, row: usize) -> Option<f64> {
        let record = self.rows.record(row)?;
        Some(self.rows.at(self.slot, record, row))
    }

    /// The values in row order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        // A dense column as a slice, or each row's record constant; the
        // other part is empty.
        let Self { rows, slot } = *self;
        let (dense, constant): (&[f64], _) = match slot {
            Slot::Dense(c) => (rows.dense(c), None),
            Slot::Constant(k) => (&[], Some(k)),
        };
        let constants = constant.into_iter().flat_map(move |k| {
            rows.iter()
                .map(move |(_, record)| record.constants.get(k).copied().unwrap_or_default())
        });
        dense.iter().copied().chain(constants)
    }
}

impl PartialEq for Column<'_> {
    /// Value equality row by row, as `==` on `f64` slices.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Column<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
