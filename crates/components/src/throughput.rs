//! The platform × algorithm throughput matrix.
//!
//! Compute throughput (`f_compute`) is a property of an *(algorithm,
//! platform)* pair: DroNet runs at 178 Hz on a TX2 but at 13 Hz on a
//! Ras-Pi 4 and at 6 Hz on PULP. The paper obtains these numbers by
//! on-device characterization; this matrix stores them.
//!
//! Internally the matrix is **ID-interned and dense**: platform and
//! algorithm names are interned into small indices once at insertion,
//! and rates live in a dense row-per-platform table. The public `&str`
//! API is a thin resolving wrapper over that storage; hot paths go
//! through [`ThroughputTable`], which is indexed directly by
//! [`ComputeId`] × [`AlgorithmId`] and does zero string hashing.

use std::collections::BTreeMap;

use f1_units::Hertz;
use serde::{Deserialize, Serialize};

use crate::error::check_rate;
use crate::{AlgorithmId, ComponentError, ComputeId};

/// Characterized compute throughputs keyed by (platform, algorithm).
///
/// # Examples
///
/// ```
/// use f1_components::ThroughputMatrix;
/// use f1_units::Hertz;
///
/// let mut m = ThroughputMatrix::new();
/// m.insert("Nvidia TX2", "DroNet", Hertz::new(178.0))?;
/// assert_eq!(m.get("Nvidia TX2", "DroNet")?, Hertz::new(178.0));
/// assert!(m.get("Nvidia TX2", "CAD2RL").is_err());
/// # Ok::<(), f1_components::ComponentError>(())
/// ```
///
/// NOTE: the serde derives are inert markers today (`crates/ext/serde`).
/// Before swapping in real serde, give this a logical representation
/// (`#[serde(from/into)]` a `(platform, algorithm, rate)` entry list) so
/// the interned slots/ragged rows/`entries` counter stay in-memory
/// details that deserialization cannot desynchronize.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThroughputMatrix {
    /// Interned platform names, in first-insertion order.
    platforms: Vec<String>,
    /// Interned algorithm names, in first-insertion order.
    algorithms: Vec<String>,
    /// Platform name → row index.
    platform_slots: BTreeMap<String, usize>,
    /// Algorithm name → column index.
    algorithm_slots: BTreeMap<String, usize>,
    /// Dense rows: `rows[platform][algorithm]`. Rows are ragged — a row
    /// shorter than the algorithm count means "no entry" past its end.
    rows: Vec<Vec<Option<Hertz>>>,
    /// Number of `Some` cells.
    entries: usize,
}

impl ThroughputMatrix {
    /// Creates an empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of characterized pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the matrix has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    fn intern_platform(&mut self, name: String) -> usize {
        if let Some(&slot) = self.platform_slots.get(&name) {
            return slot;
        }
        let slot = self.platforms.len();
        self.platform_slots.insert(name.clone(), slot);
        self.platforms.push(name);
        self.rows.push(Vec::new());
        slot
    }

    fn intern_algorithm(&mut self, name: String) -> usize {
        if let Some(&slot) = self.algorithm_slots.get(&name) {
            return slot;
        }
        let slot = self.algorithms.len();
        self.algorithm_slots.insert(name.clone(), slot);
        self.algorithms.push(name);
        slot
    }

    #[inline]
    fn cell(&self, platform: usize, algorithm: usize) -> Option<Hertz> {
        self.rows[platform].get(algorithm).copied().flatten()
    }

    fn cell_mut(&mut self, platform: usize, algorithm: usize) -> &mut Option<Hertz> {
        let row = &mut self.rows[platform];
        if row.len() <= algorithm {
            row.resize(algorithm + 1, None);
        }
        &mut row[algorithm]
    }

    /// Records a characterized throughput.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::DuplicateEntry`] if the pair is already
    /// present, or [`ComponentError::InvalidField`] if the throughput is
    /// non-positive or its period overflows.
    pub fn insert(
        &mut self,
        platform: impl Into<String>,
        algorithm: impl Into<String>,
        throughput: Hertz,
    ) -> Result<(), ComponentError> {
        check_rate("throughput", throughput)?;
        let (platform, algorithm) = (platform.into(), algorithm.into());
        let (p, a) = (
            self.intern_platform(platform),
            self.intern_algorithm(algorithm),
        );
        let cell = self.cell_mut(p, a);
        if cell.is_some() {
            return Err(ComponentError::DuplicateEntry {
                family: "throughput",
                name: format!("{} × {}", self.platforms[p], self.algorithms[a]),
            });
        }
        *cell = Some(throughput);
        self.entries += 1;
        Ok(())
    }

    /// Overwrites (or creates) a characterized throughput, returning the
    /// previous value if any.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::InvalidField`] if the throughput is
    /// non-positive or its period overflows.
    pub fn upsert(
        &mut self,
        platform: impl Into<String>,
        algorithm: impl Into<String>,
        throughput: Hertz,
    ) -> Result<Option<Hertz>, ComponentError> {
        check_rate("throughput", throughput)?;
        let (p, a) = (
            self.intern_platform(platform.into()),
            self.intern_algorithm(algorithm.into()),
        );
        let cell = self.cell_mut(p, a);
        let previous = cell.replace(throughput);
        if previous.is_none() {
            self.entries += 1;
        }
        Ok(previous)
    }

    /// Looks up the throughput of an algorithm on a platform.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::MissingThroughput`] if the pair was never
    /// characterized.
    pub fn get(&self, platform: &str, algorithm: &str) -> Result<Hertz, ComponentError> {
        self.platform_slots
            .get(platform)
            .zip(self.algorithm_slots.get(algorithm))
            .and_then(|(&p, &a)| self.cell(p, a))
            .ok_or_else(|| ComponentError::MissingThroughput {
                platform: platform.to_owned(),
                algorithm: algorithm.to_owned(),
            })
    }

    /// Whether a pair has been characterized.
    #[must_use]
    pub fn contains(&self, platform: &str, algorithm: &str) -> bool {
        self.platform_slots
            .get(platform)
            .zip(self.algorithm_slots.get(algorithm))
            .and_then(|(&p, &a)| self.cell(p, a))
            .is_some()
    }

    /// All algorithms characterized on a platform, with their throughputs,
    /// in algorithm-name order.
    #[must_use]
    pub fn algorithms_on(&self, platform: &str) -> Vec<(&str, Hertz)> {
        let Some(&p) = self.platform_slots.get(platform) else {
            return Vec::new();
        };
        self.algorithm_slots
            .iter()
            .filter_map(|(name, &a)| self.cell(p, a).map(|f| (name.as_str(), f)))
            .collect()
    }

    /// All platforms on which an algorithm was characterized, in
    /// platform-name order.
    #[must_use]
    pub fn platforms_for(&self, algorithm: &str) -> Vec<(&str, Hertz)> {
        let Some(&a) = self.algorithm_slots.get(algorithm) else {
            return Vec::new();
        };
        self.platform_slots
            .iter()
            .filter_map(|(name, &p)| self.cell(p, a).map(|f| (name.as_str(), f)))
            .collect()
    }

    /// Iterates over `(platform, algorithm, throughput)` entries in
    /// deterministic (name-sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, Hertz)> {
        self.platform_slots.iter().flat_map(move |(pname, &p)| {
            self.algorithm_slots.iter().filter_map(move |(aname, &a)| {
                self.cell(p, a).map(|f| (pname.as_str(), aname.as_str(), f))
            })
        })
    }

    /// The interned platform names in first-insertion order — together
    /// with [`ThroughputMatrix::algorithm_order`] and the cell list,
    /// the exact inputs [`ThroughputMatrix::from_parts`] needs to
    /// rebuild a *representation-identical* matrix (same intern order,
    /// hence the same `Debug` form and catalog digest), which
    /// name-sorted [`ThroughputMatrix::iter`] replay cannot guarantee.
    #[must_use]
    pub fn platform_order(&self) -> &[String] {
        &self.platforms
    }

    /// The interned algorithm names in first-insertion order (see
    /// [`ThroughputMatrix::platform_order`]).
    #[must_use]
    pub fn algorithm_order(&self) -> &[String] {
        &self.algorithms
    }

    /// Rebuilds a matrix representation-identically from its recorded
    /// intern orders plus `(platform, algorithm, rate)` cells: the name
    /// lists are interned first (fixing row/column slots), then every
    /// cell is upserted. Restoring a persisted snapshot this way yields
    /// a catalog whose structural digest matches the one recorded at
    /// write time.
    ///
    /// # Errors
    ///
    /// [`ComponentError::DuplicateEntry`] if an order list repeats a
    /// name, [`ComponentError::UnknownComponent`] if a cell names a
    /// platform/algorithm absent from the order lists, and
    /// [`ComponentError::InvalidField`] for non-positive rates and rates
    /// whose period overflows.
    pub fn from_parts(
        platforms: &[String],
        algorithms: &[String],
        cells: &[(String, String, Hertz)],
    ) -> Result<Self, ComponentError> {
        let mut matrix = Self::new();
        for name in platforms {
            if matrix.intern_platform(name.clone()) != matrix.platforms.len() - 1 {
                return Err(ComponentError::DuplicateEntry {
                    family: "throughput platform order",
                    name: name.clone(),
                });
            }
        }
        for name in algorithms {
            if matrix.intern_algorithm(name.clone()) != matrix.algorithms.len() - 1 {
                return Err(ComponentError::DuplicateEntry {
                    family: "throughput algorithm order",
                    name: name.clone(),
                });
            }
        }
        for (platform, algorithm, rate) in cells {
            if !matrix.platform_slots.contains_key(platform) {
                return Err(ComponentError::UnknownComponent {
                    family: "throughput platform order",
                    name: platform.clone(),
                });
            }
            if !matrix.algorithm_slots.contains_key(algorithm) {
                return Err(ComponentError::UnknownComponent {
                    family: "throughput algorithm order",
                    name: algorithm.clone(),
                });
            }
            matrix.upsert(platform.clone(), algorithm.clone(), *rate)?;
        }
        Ok(matrix)
    }

    /// Merges another matrix into this one; existing entries win.
    pub fn merge_preferring_self(&mut self, other: &ThroughputMatrix) {
        for (platform, algorithm, throughput) in other.iter() {
            if !self.contains(platform, algorithm) {
                self.insert(platform, algorithm, throughput)
                    .expect("source entry is valid and absent here");
            }
        }
    }
}

/// Logical equality: same characterized pairs with the same rates,
/// regardless of interning order.
impl PartialEq for ThroughputMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.iter().eq(other.iter())
    }
}

impl Extend<(String, String, Hertz)> for ThroughputMatrix {
    fn extend<T: IntoIterator<Item = (String, String, Hertz)>>(&mut self, iter: T) {
        for (p, a, f) in iter {
            // Extend follows upsert semantics; invalid rates are skipped
            // (Extend cannot fail).
            let _ = self.upsert(p, a, f);
        }
    }
}

impl FromIterator<(String, String, Hertz)> for ThroughputMatrix {
    fn from_iter<T: IntoIterator<Item = (String, String, Hertz)>>(iter: T) -> Self {
        let mut m = Self::new();
        m.extend(iter);
        m
    }
}

/// A dense `computes × algorithms` throughput table indexed by catalog
/// ids — the zero-allocation, zero-hashing lookup the DSE hot path uses.
///
/// Built by [`Catalog::throughput_table`](crate::Catalog::throughput_table)
/// as a snapshot of the catalog's characterization matrix; matrix entries
/// that name components absent from the catalog are not represented.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputTable {
    algorithm_count: usize,
    cells: Vec<Option<Hertz>>,
    characterized: usize,
}

impl ThroughputTable {
    pub(crate) fn build(
        compute_count: usize,
        algorithm_count: usize,
        entries: impl Iterator<Item = (ComputeId, AlgorithmId, Hertz)>,
    ) -> Self {
        let mut cells = vec![None; compute_count * algorithm_count];
        let mut characterized = 0;
        for (compute, algorithm, throughput) in entries {
            let cell = &mut cells[compute.index() * algorithm_count + algorithm.index()];
            if cell.replace(throughput).is_none() {
                characterized += 1;
            }
        }
        Self {
            algorithm_count,
            cells,
            characterized,
        }
    }

    /// The characterized throughput for a compute × algorithm pair, or
    /// `None` if the pair was never characterized.
    ///
    /// # Panics
    ///
    /// Panics if the ids come from a different (or mutated) catalog and
    /// exceed this table's dimensions.
    #[inline]
    #[must_use]
    pub fn get(&self, compute: ComputeId, algorithm: AlgorithmId) -> Option<Hertz> {
        self.cells[compute.index() * self.algorithm_count + algorithm.index()]
    }

    /// Whether the pair is characterized.
    #[inline]
    #[must_use]
    pub fn contains(&self, compute: ComputeId, algorithm: AlgorithmId) -> bool {
        self.get(compute, algorithm).is_some()
    }

    /// Number of characterized pairs in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.characterized
    }

    /// Whether no pair is characterized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.characterized == 0
    }

    /// Lazily enumerates the characterized `(compute, algorithm,
    /// throughput)` pairs of a compute × algorithm subspace,
    /// compute-major in the given list order — the exact pair order the
    /// DSE executors walk. This is the shard-enumeration primitive:
    /// O(C·A) lookups, O(1) extra memory, no materialized candidate
    /// list, so a 10⁷-candidate space can be decoded shard-by-shard
    /// from `sensor × pair` coordinates without ever holding the
    /// cross-product.
    ///
    /// # Panics
    ///
    /// Panics (inside [`get`](Self::get)) if an id comes from a
    /// different or mutated catalog and exceeds the table's dimensions.
    pub fn characterized_pairs<'a>(
        &'a self,
        computes: &'a [ComputeId],
        algorithms: &'a [AlgorithmId],
    ) -> impl Iterator<Item = (ComputeId, AlgorithmId, Hertz)> + 'a {
        computes.iter().flat_map(move |&compute| {
            algorithms.iter().filter_map(move |&algorithm| {
                self.get(compute, algorithm)
                    .map(|throughput| (compute, algorithm, throughput))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ThroughputMatrix {
        let mut m = ThroughputMatrix::new();
        m.insert("Nvidia TX2", "DroNet", Hertz::new(178.0)).unwrap();
        m.insert("Nvidia TX2", "TrailNet", Hertz::new(55.0))
            .unwrap();
        m.insert("Ras-Pi 4", "DroNet", Hertz::new(13.0)).unwrap();
        m
    }

    #[test]
    fn insert_and_get() {
        let m = sample();
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.get("Nvidia TX2", "DroNet").unwrap(), Hertz::new(178.0));
        assert!(m.contains("Ras-Pi 4", "DroNet"));
        assert!(!m.contains("Ras-Pi 4", "TrailNet"));
    }

    #[test]
    fn missing_pair_is_an_error() {
        let m = sample();
        let e = m.get("Ras-Pi 4", "CAD2RL").unwrap_err();
        assert!(matches!(e, ComponentError::MissingThroughput { .. }));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut m = sample();
        let e = m
            .insert("Nvidia TX2", "DroNet", Hertz::new(200.0))
            .unwrap_err();
        assert!(matches!(e, ComponentError::DuplicateEntry { .. }));
        // Original preserved.
        assert_eq!(m.get("Nvidia TX2", "DroNet").unwrap(), Hertz::new(178.0));
    }

    #[test]
    fn upsert_overwrites() {
        let mut m = sample();
        let prev = m.upsert("Nvidia TX2", "DroNet", Hertz::new(200.0)).unwrap();
        assert_eq!(prev, Some(Hertz::new(178.0)));
        assert_eq!(m.get("Nvidia TX2", "DroNet").unwrap(), Hertz::new(200.0));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn rejects_non_positive_rates() {
        let mut m = ThroughputMatrix::new();
        assert!(m.insert("p", "a", Hertz::ZERO).is_err());
        assert!(m.insert("p", "a", Hertz::new(-1.0)).is_err());
        assert!(m.upsert("p", "a", Hertz::ZERO).is_err());
        // Positive, but its period overflows to infinity.
        assert!(m.insert("p", "a", Hertz::new(1e-310)).is_err());
        assert!(m.upsert("p", "a", Hertz::new(1e-310)).is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn per_platform_and_per_algorithm_views() {
        let m = sample();
        let on_tx2 = m.algorithms_on("Nvidia TX2");
        assert_eq!(on_tx2.len(), 2);
        let dronet = m.platforms_for("DroNet");
        assert_eq!(dronet.len(), 2);
        assert!(dronet.iter().any(|(p, _)| *p == "Ras-Pi 4"));
        assert!(m.algorithms_on("TPU v9").is_empty());
        assert!(m.platforms_for("PilotNet").is_empty());
    }

    #[test]
    fn deterministic_iteration_order() {
        let m = sample();
        let keys: Vec<_> = m.iter().map(|(p, a, _)| format!("{p}/{a}")).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn logical_equality_ignores_interning_order() {
        let forward = sample();
        let mut reversed = ThroughputMatrix::new();
        reversed
            .insert("Ras-Pi 4", "DroNet", Hertz::new(13.0))
            .unwrap();
        reversed
            .insert("Nvidia TX2", "TrailNet", Hertz::new(55.0))
            .unwrap();
        reversed
            .insert("Nvidia TX2", "DroNet", Hertz::new(178.0))
            .unwrap();
        assert_eq!(forward, reversed);
        let mut different = sample();
        different
            .upsert("Nvidia TX2", "DroNet", Hertz::new(1.0))
            .unwrap();
        assert_ne!(forward, different);
    }

    #[test]
    fn characterized_pairs_walks_compute_major_in_list_order() {
        let c0 = ComputeId::from_index(0);
        let c1 = ComputeId::from_index(1);
        let a0 = AlgorithmId::from_index(0);
        let a1 = AlgorithmId::from_index(1);
        let table = ThroughputTable::build(
            2,
            2,
            vec![
                (c0, a1, Hertz::new(10.0)),
                (c1, a0, Hertz::new(20.0)),
                (c0, a0, Hertz::new(30.0)),
            ]
            .into_iter(),
        );
        // Compute-major in the *given* list order (reversed here), with
        // uncharacterized holes skipped.
        let pairs: Vec<_> = table.characterized_pairs(&[c1, c0], &[a0, a1]).collect();
        assert_eq!(
            pairs,
            vec![
                (c1, a0, Hertz::new(20.0)),
                (c0, a0, Hertz::new(30.0)),
                (c0, a1, Hertz::new(10.0)),
            ]
        );
        assert!(table.characterized_pairs(&[], &[a0]).next().is_none());
    }

    #[test]
    fn collect_and_merge() {
        let m: ThroughputMatrix = vec![
            ("A".to_string(), "x".to_string(), Hertz::new(1.0)),
            ("B".to_string(), "y".to_string(), Hertz::new(2.0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.len(), 2);

        let mut base = sample();
        let mut patch = ThroughputMatrix::new();
        patch
            .insert("Nvidia TX2", "DroNet", Hertz::new(999.0))
            .unwrap();
        patch.insert("New", "Thing", Hertz::new(5.0)).unwrap();
        base.merge_preferring_self(&patch);
        // Existing entry wins; new entry added.
        assert_eq!(base.get("Nvidia TX2", "DroNet").unwrap(), Hertz::new(178.0));
        assert_eq!(base.get("New", "Thing").unwrap(), Hertz::new(5.0));
    }
}
