//! Acceptance and property tests for the versioned `CatalogStore` and
//! the session's incremental delta repair (`Session::refresh`): a
//! repaired result must be **bit-identical** to a cold run at the new
//! epoch — same points in the same enumeration order, bit-equal
//! objective columns, identical frontier indices, and identical
//! dropped/uncharacterized/nonfinite accounting.
//!
//! Catalog sizes drop an order of magnitude under `debug_assertions`;
//! the release-mode CI job runs the 10⁵-candidate acceptance including
//! the repair-vs-cold timing claim (timing asserts are release-only).

use std::sync::Arc;
use std::time::{Duration, Instant};

use f1_components::{
    names, Catalog, CatalogDelta, CatalogEpoch, CatalogStore, ComputeKind, ComputePlatform, Sensor,
    SensorModality,
};
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Knob, KnobSweep, Objective};
use f1_skyline::session::{ResultSet, Session, COMPACT_SEGMENT_THRESHOLD};
use f1_skyline::SkylineError;
use f1_units::{Grams, Hertz, Meters, Millimeters, Watts};

/// Bit-exact equality: `PartialEq` on f64 columns would conflate
/// `-0.0 == 0.0`; survivors are copied verbatim, so repair must agree
/// with the cold pass to the bit.
fn assert_bit_identical(repaired: &ResultSet, cold: &ResultSet) {
    assert_eq!(repaired, cold, "logical ResultSet equality");
    assert_eq!(repaired.frontier(), cold.frontier(), "frontier indices");
    assert_eq!(repaired.nonfinite(), cold.nonfinite(), "nonfinite count");
    assert_eq!(repaired.dropped(), cold.dropped(), "dropped count");
    assert_eq!(
        repaired.uncharacterized(),
        cold.uncharacterized(),
        "uncharacterized count"
    );
    for pos in 0..repaired.objectives().len() {
        let (a, b) = (repaired.column(pos), cold.column(pos));
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "column {pos} row {i}: {x} vs {y}"
            );
        }
    }
    // Ranking is derived from the columns, so column equality implies
    // ranking equality — assert it anyway as the user-facing claim.
    assert_eq!(repaired.ranked(), cold.ranked(), "ranking");
}

/// Runs `plan` at the genesis epoch, applies `delta`, refreshes, and
/// checks the repaired result against a cold session at the new epoch.
/// Returns the session's repair counter contribution (1 when the repair
/// path actually ran, 0 when the delta left the subspace untouched).
fn check_repair(catalog: Catalog, plan: &QueryPlan, delta: &CatalogDelta) -> u64 {
    let store = Arc::new(CatalogStore::new(catalog));
    let session = Session::over(Arc::clone(&store));
    session.run(plan).expect("genesis run");
    store.apply(delta).expect("delta applies");
    let repaired = session.refresh(plan).expect("refresh");
    let cold = Session::new(session.catalog())
        .run(plan)
        .expect("cold run at the new epoch");
    assert_bit_identical(&repaired, &cold);
    session.cache_stats().repairs
}

fn orin() -> ComputePlatform {
    ComputePlatform::builder("Orin NX")
        .kind(ComputeKind::EmbeddedGpu)
        .mass(Grams::new(210.0))
        .tdp(Watts::new(25.0))
        .build()
        .unwrap()
}

fn wide_cam() -> Sensor {
    Sensor::new(
        "Wide Cam 90",
        SensorModality::RgbCamera,
        Hertz::new(90.0),
        Meters::new(7.0),
        Grams::new(24.0),
    )
    .unwrap()
}

/// The Table II-flavored plan mix the repair must survive: default
/// objectives, a constrained 4-objective plan, a knob sweep, and an
/// explicit subspace restriction.
fn plan_mix(catalog: &Catalog) -> Vec<QueryPlan> {
    let tx2 = catalog.compute_id(names::TX2).unwrap();
    let pi = catalog.compute_id(names::RAS_PI4).unwrap();
    let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
    vec![
        QueryPlan::builder().build().unwrap(),
        QueryPlan::builder()
            .objectives(&[
                Objective::SafeVelocity,
                Objective::TotalTdp,
                Objective::PayloadMass,
                Objective::MissionEnergyWhPerKm,
            ])
            .constraint(f1_skyline::query::Constraint::MaxTotalTdp(Watts::new(20.0)))
            .build()
            .unwrap(),
        QueryPlan::builder()
            .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
            .sweep(KnobSweep::new(Knob::PayloadDelta, vec![0.0, 150.0]))
            .build()
            .unwrap(),
        QueryPlan::builder()
            .airframes(&[pelican])
            .computes(&[tx2, pi])
            .build()
            .unwrap(),
    ]
}

#[test]
fn repair_matches_cold_across_paper_catalog_deltas() {
    let deltas: Vec<(&str, CatalogDelta)> = vec![
        (
            "add a compute and characterize it",
            CatalogDelta::new()
                .add_compute(orin())
                .patch_throughput("Orin NX", names::DRONET, Hertz::new(400.0))
                .patch_throughput("Orin NX", names::TRAILNET, Hertz::new(120.0)),
        ),
        (
            "retire a frontier-heavy compute",
            CatalogDelta::new().retire_compute(names::TX2),
        ),
        (
            "patch an existing throughput",
            CatalogDelta::new().patch_throughput(names::TX2, names::DRONET, Hertz::new(220.0)),
        ),
        (
            "newly characterize an existing pair",
            CatalogDelta::new().patch_throughput(names::NCS, names::TRAILNET, Hertz::new(40.0)),
        ),
        ("add a sensor", CatalogDelta::new().add_sensor(wide_cam())),
        (
            "retire an airframe and a sensor",
            CatalogDelta::new()
                .retire_airframe(names::DJI_SPARK)
                .retire_sensor(names::RGB_60),
        ),
        (
            "combined add + retire + patch",
            CatalogDelta::new()
                .add_compute(orin())
                .add_sensor(wide_cam())
                .patch_throughput("Orin NX", names::DRONET, Hertz::new(400.0))
                .patch_throughput(names::RAS_PI4, names::DRONET, Hertz::new(17.0))
                .retire_compute(names::UPBOARD),
        ),
    ];
    for (label, delta) in &deltas {
        for (p, plan) in plan_mix(&Catalog::paper()).iter().enumerate() {
            let repairs = check_repair(Catalog::paper(), plan, delta);
            assert!(repairs <= 1, "{label} / plan {p}");
        }
    }
}

#[test]
fn repair_handles_retiring_every_candidate() {
    let catalog = Catalog::paper();
    let mut delta = CatalogDelta::new();
    for compute in catalog.computes() {
        delta = delta.retire_compute(compute.name());
    }
    let plan = QueryPlan::builder().build().unwrap();
    check_repair(catalog, &plan, &delta);

    // And explicitly: the refreshed result is empty, with an empty
    // frontier — every cached candidate was masked out.
    let store = Arc::new(CatalogStore::new(Catalog::paper()));
    let session = Session::over(Arc::clone(&store));
    let before = session.run(&plan).unwrap();
    assert!(!before.is_empty());
    store.apply(&delta).unwrap();
    let after = session.refresh(&plan).unwrap();
    assert!(after.is_empty());
    assert!(after.frontier().is_empty());
    assert_eq!(after.dropped(), 0);
}

/// An empty space keeps its plan's keep-points mode: with every
/// candidate retired, `kp=all` and `kp=auto` plans come back as
/// materialized empty results (no `"stored"` key in the JSON), cold and
/// repaired alike, and `kp=frontier` plans as streamed ones.
#[test]
fn emptied_spaces_keep_their_keep_points_mode() {
    let catalog = Catalog::paper();
    let mut delta = CatalogDelta::new();
    for compute in catalog.computes() {
        delta = delta.retire_compute(compute.name());
    }
    for (keep, streamed) in [
        (KeepPoints::All, false),
        (KeepPoints::Auto, false),
        (KeepPoints::FrontierOnly, true),
    ] {
        let plan = QueryPlan::builder().keep_points(keep).build().unwrap();
        let store = Arc::new(CatalogStore::new(catalog.clone()));
        let session = Session::over(Arc::clone(&store));
        session.run(&plan).unwrap();
        store.apply(&delta).unwrap();
        let repaired = session.refresh(&plan).unwrap();
        let cold = Session::new(session.catalog()).run(&plan).unwrap();
        for result in [&repaired, &cold] {
            assert!(result.is_empty(), "{keep:?}");
            assert_eq!(result.is_streamed(), streamed, "{keep:?}");
            let json = result.to_json(&session.catalog());
            assert_eq!(json.contains("\"stored\""), streamed, "{keep:?}: {json}");
        }
        assert_bit_identical(&repaired, &cold);
    }
}

#[test]
fn noop_and_disjoint_deltas_reuse_the_cached_result() {
    let store = Arc::new(CatalogStore::new(Catalog::paper()));
    let session = Session::over(Arc::clone(&store));
    let plan = QueryPlan::builder().build().unwrap();
    let first = session.run(&plan).unwrap();

    // A no-op delta advances the epoch but the refreshed result is the
    // very same Arc — no pass, no repair.
    store.apply(&CatalogDelta::new()).unwrap();
    assert_eq!(session.epoch().get(), 1);
    let refreshed = session.refresh(&plan).unwrap();
    assert!(Arc::ptr_eq(&first, &refreshed));
    assert_eq!(session.cache_stats().repairs, 0);

    // A delta outside the plan's subspace behaves the same: the default
    // plan spans every family, so restrict the plan instead.
    let catalog = session.catalog();
    let tx2 = catalog.compute_id(names::TX2).unwrap();
    let restricted = QueryPlan::builder().computes(&[tx2]).build().unwrap();
    let cached = session.run(&restricted).unwrap();
    store
        .apply(&CatalogDelta::new().patch_throughput(names::NCS, names::TRAILNET, Hertz::new(40.0)))
        .unwrap();
    let refreshed = session.refresh(&restricted).unwrap();
    assert!(Arc::ptr_eq(&cached, &refreshed));
    assert_eq!(session.cache_stats().repairs, 0);
    // Still bit-identical to a cold run at the new epoch.
    let cold = Session::new(session.catalog()).run(&restricted).unwrap();
    assert_bit_identical(&refreshed, &cold);
}

#[test]
fn run_at_pins_epochs_and_rejects_unknown_ones() {
    let store = Arc::new(CatalogStore::new(Catalog::paper()));
    let session = Session::over(Arc::clone(&store));
    let plan = QueryPlan::builder().build().unwrap();
    let genesis = session.run(&plan).unwrap();
    store
        .apply(&CatalogDelta::new().patch_throughput(names::TX2, names::DRONET, Hertz::new(500.0)))
        .unwrap();
    // The pinned run reproduces the genesis result (cache hit — same
    // Arc); the current run sees the patch.
    let pinned = session.run_at(&plan, CatalogEpoch::GENESIS).unwrap();
    assert!(Arc::ptr_eq(&genesis, &pinned));
    let current = session.run(&plan).unwrap();
    assert_ne!(*current, *genesis);
    // A fresh session over the same store recomputes the pinned epoch
    // bit-identically.
    let fresh = Session::over(Arc::clone(&store));
    let recomputed = fresh.run_at(&plan, CatalogEpoch::GENESIS).unwrap();
    assert_eq!(*recomputed, *genesis);
    match session.run_at(&plan, CatalogEpoch::from_raw(99)) {
        Err(SkylineError::UnknownEpoch { requested, latest }) => {
            assert_eq!((requested, latest), (99, 1));
        }
        other => panic!("expected UnknownEpoch, got {other:?}"),
    }
}

#[test]
fn empty_batch_and_zero_candidate_catalogs() {
    // Empty batch: no passes, no entries, empty result vector.
    let session = Session::new(Arc::new(Catalog::paper()));
    let results = session.run_batch(&[]).unwrap();
    assert!(results.is_empty());
    assert_eq!(session.cache_stats().entries, 0);

    // A completely empty catalog evaluates to an empty result set.
    let empty = Session::new(Arc::new(Catalog::new()));
    let plan = QueryPlan::builder().build().unwrap();
    let result = empty.run(&plan).unwrap();
    assert!(result.is_empty());
    assert!(result.frontier().is_empty());
    assert_eq!(
        (
            result.dropped(),
            result.uncharacterized(),
            result.nonfinite()
        ),
        (0, 0, 0)
    );

    // Parts but no characterized throughput pairs: every combination is
    // uncharacterized, zero candidates evaluate.
    let mut parts_only = Catalog::new();
    parts_only
        .add_airframe(
            f1_components::Airframe::builder("Frame")
                .base_mass(Grams::new(500.0))
                .rotor_count(4)
                .rotor_pull_gf(400.0)
                .frame_size(Millimeters::new(400.0))
                .build()
                .unwrap(),
        )
        .unwrap();
    parts_only.add_sensor(wide_cam()).unwrap();
    parts_only.add_compute(orin()).unwrap();
    parts_only
        .add_algorithm(f1_components::AutonomyAlgorithm::end_to_end("Net").unwrap())
        .unwrap();
    let session = Session::new(Arc::new(parts_only));
    let result = session.run(&plan).unwrap();
    assert!(result.is_empty());
    assert_eq!(result.uncharacterized(), 1);
}

#[test]
fn lru_eviction_caps_the_memo_cache() {
    let session = Session::new(Arc::new(Catalog::paper())).with_cache_capacity(2);
    let plans: Vec<QueryPlan> = [5.0, 10.0, 20.0]
        .iter()
        .map(|&w| {
            QueryPlan::builder()
                .constraint(f1_skyline::query::Constraint::MaxTotalTdp(Watts::new(w)))
                .build()
                .unwrap()
        })
        .collect();
    session.run(&plans[0]).unwrap();
    session.run(&plans[1]).unwrap();
    // Touch plan 0 so plan 1 is the LRU victim when plan 2 arrives.
    session.run(&plans[0]).unwrap();
    session.run(&plans[2]).unwrap();
    let stats = session.cache_stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.evictions, 1);
    // Plan 0 survived (hit); plan 1 was evicted (miss + recompute).
    let hits_before = session.cache_stats().hits;
    session.run(&plans[0]).unwrap();
    assert_eq!(session.cache_stats().hits, hits_before + 1);
    let misses_before = session.cache_stats().misses;
    session.run(&plans[1]).unwrap();
    assert_eq!(session.cache_stats().misses, misses_before + 1);
    assert_eq!(session.cache_stats().evictions, 2);
}

/// The PR acceptance at scale: a ≤1% delta over a 10⁵-candidate catalog
/// repairs bit-identically and — in release mode — at least 3× faster
/// than the cold pass it replaces (the bench records the full margin;
/// CI asserts a conservative floor so the claim cannot silently rot).
/// A second, nastier delta (retiring a platform, invalidating frontier
/// points) then checks exactness of the slower survivor-skyline
/// fallback at the same scale.
#[test]
fn scale_delta_repair_is_exact_and_fast() {
    // 47³ = 103 823 candidates in release; 22³ ≈ 10⁴ under debug.
    let n_per_family = if cfg!(debug_assertions) { 22 } else { 47 };
    let catalog = Catalog::synthesize(42, n_per_family);
    let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
    let plan = QueryPlan::builder()
        .airframes(&[airframe])
        .objectives(&[
            Objective::SafeVelocity,
            Objective::TotalTdp,
            Objective::PayloadMass,
            Objective::MissionEnergyWhPerKm,
        ])
        .build()
        .unwrap();

    let store = Arc::new(CatalogStore::new(catalog));
    let session = Session::over(Arc::clone(&store));
    let cached = session.run(&plan).unwrap();

    // A ≤1% delta on the fast path (no frontier point invalidated):
    // add one platform characterized on 3 algorithms (n new candidates
    // per sensor-triple → 3 × n sensors jobs) and re-characterize 10
    // platform × algorithm pairs chosen OFF the cached frontier
    // (10 × n sensors re-evaluations) — at 47 per family that is
    // 13 × 47 = 611 of 103 823 candidates, ~0.6%.
    let catalog = session.catalog();
    let frontier_pairs: Vec<(String, String)> = cached
        .frontier_points()
        .map(|p| {
            (
                catalog.compute_by_id(p.candidate.compute).name().to_owned(),
                catalog
                    .algorithm_by_id(p.candidate.algorithm)
                    .name()
                    .to_owned(),
            )
        })
        .collect();
    let algorithms: Vec<&str> = catalog.algorithms().map(|a| a.name()).collect();
    let mut delta = CatalogDelta::new().add_compute(orin());
    for &algorithm in algorithms.iter().take(3) {
        delta = delta.patch_throughput("Orin NX", algorithm, Hertz::new(250.0));
    }
    let mut patched = 0;
    'patch: for compute in catalog.computes() {
        for (g, &algorithm) in algorithms.iter().enumerate() {
            let pair_on_frontier = frontier_pairs
                .iter()
                .any(|(c, a)| c == compute.name() && a == algorithm);
            if pair_on_frontier || catalog.throughput(compute.name(), algorithm).is_err() {
                continue;
            }
            delta = delta.patch_throughput(compute.name(), algorithm, Hertz::new(90.0 + g as f64));
            patched += 1;
            if patched == 10 {
                break 'patch;
            }
            break; // at most one patched pair per platform
        }
    }
    assert_eq!(patched, 10, "found 10 off-frontier pairs to patch");
    store.apply(&delta).unwrap();

    let start = Instant::now();
    let repaired = session.refresh(&plan).unwrap();
    let repair_time = start.elapsed();
    assert_eq!(session.cache_stats().repairs, 1);

    let cold_session = Session::over(Arc::clone(&store));
    let start = Instant::now();
    let cold = cold_session.run(&plan).unwrap();
    let cold_time = start.elapsed();

    assert_bit_identical(&repaired, &cold);

    if !cfg!(debug_assertions) {
        // Warmed comparison: repeat both paths once on fresh sessions to
        // shake allocator noise, keep the faster of two runs each.
        let repair_time = repair_time.min(timed_refresh(&store, &plan));
        let cold_time = cold_time.min({
            let s = Session::over(Arc::clone(&store));
            let t = Instant::now();
            s.run(&plan).unwrap();
            t.elapsed()
        });
        eprintln!("delta repair {repair_time:?} vs cold {cold_time:?}");
        assert!(
            repair_time * 3 <= cold_time,
            "incremental repair must be >= 3x faster: repair {repair_time:?} vs cold {cold_time:?}"
        );
    }

    // Fallback exactness at scale: retire a platform that carries
    // frontier points, forcing the survivor-skyline recompute.
    let retired = frontier_pairs[0].0.clone();
    store
        .apply(&CatalogDelta::new().retire_compute(&retired))
        .unwrap();
    let repaired = session.refresh(&plan).unwrap();
    assert_eq!(session.cache_stats().repairs, 2);
    let cold = Session::over(Arc::clone(&store)).run(&plan).unwrap();
    assert_bit_identical(&repaired, &cold);
}

/// One refresh through a fresh session (cold genesis run excluded from
/// the timing).
fn timed_refresh(store: &Arc<CatalogStore>, plan: &QueryPlan) -> Duration {
    let session = Session::over(Arc::clone(store));
    session.run_at(plan, CatalogEpoch::GENESIS).unwrap();
    let start = Instant::now();
    session.refresh(plan).unwrap();
    start.elapsed()
}

/// Chained refreshes splice new point-store segments per repaired slab;
/// past [`COMPACT_SEGMENT_THRESHOLD`] the session folds them back into
/// one contiguous segment. Long-lived sessions must see bounded
/// indirection AND bit-identical results straight through a compaction.
#[test]
fn chained_refreshes_compact_segment_growth() {
    let plan = QueryPlan::builder().build().unwrap();
    let store = Arc::new(CatalogStore::new(Catalog::paper()));
    let session = Session::over(Arc::clone(&store));
    session.run(&plan).unwrap();

    let mut counts = Vec::new();
    for i in 0..12u32 {
        store
            .apply(&CatalogDelta::new().patch_throughput(
                names::TX2,
                names::DRONET,
                Hertz::new(200.0 + f64::from(i)),
            ))
            .unwrap();
        let repaired = session.refresh(&plan).unwrap();
        counts.push(repaired.segment_count());
        assert!(
            repaired.segment_count() <= COMPACT_SEGMENT_THRESHOLD,
            "segment count stays bounded: {counts:?}"
        );
    }
    assert_eq!(session.cache_stats().repairs, 12, "every delta repaired");
    assert!(
        counts.iter().any(|&c| c > 1),
        "repairs do splice segments: {counts:?}"
    );
    assert!(
        counts.windows(2).any(|w| w[1] < w[0]),
        "compaction folded segments back down: {counts:?}"
    );

    let cold = Session::over(Arc::clone(&store)).run(&plan).unwrap();
    let repaired = session.refresh(&plan).unwrap();
    assert_bit_identical(&repaired, &cold);
}

/// Duplicate subspace ids and duplicate sweep values canonicalize at
/// `PlanBuilder::build`: the sloppy spelling produces the same plan key
/// (one memo entry) and — because repair never sees the duplicates —
/// a touching delta still takes the incremental path.
#[test]
fn duplicate_plan_spellings_canonicalize_and_repair_incrementally() {
    let catalog = Catalog::paper();
    let tx2 = catalog.compute_id(names::TX2).unwrap();
    let pi = catalog.compute_id(names::RAS_PI4).unwrap();
    let dup = QueryPlan::builder()
        .computes(&[tx2, pi, tx2, pi])
        .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5, 1.0]))
        .build()
        .unwrap();
    let canonical = QueryPlan::builder()
        .computes(&[tx2, pi])
        .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
        .build()
        .unwrap();
    assert_eq!(dup.computes(), canonical.computes());
    assert_eq!(dup.settings(), canonical.settings());
    assert_eq!(dup.key(), canonical.key());

    let store = Arc::new(CatalogStore::new(catalog));
    let session = Session::over(Arc::clone(&store));
    let a = session.run(&dup).unwrap();
    let b = session.run(&canonical).unwrap();
    assert!(
        Arc::ptr_eq(&a, &b),
        "both spellings memoize to one cache entry"
    );

    store
        .apply(&CatalogDelta::new().patch_throughput(names::TX2, names::DRONET, Hertz::new(123.0)))
        .unwrap();
    let repaired = session.refresh(&dup).unwrap();
    assert_eq!(
        session.cache_stats().repairs,
        1,
        "deduped plan repairs incrementally instead of bailing cold"
    );
    let cold = Session::over(Arc::clone(&store)).run(&canonical).unwrap();
    assert_bit_identical(&repaired, &cold);
}
