//! Bit-identity of the sharded streaming executor: for every plan
//! shape, a `KeepPoints::FrontierOnly` run must agree with the
//! retaining (`KeepPoints::All`) run of the same plan **to the bit** —
//! same frontier indices, bit-equal stored rows, the exact top-k ranking
//! prefix, and identical dropped / uncharacterized / nonfinite
//! accounting. Both runs execute on the shard kernel, so this suite pins
//! the streaming reduction against the retaining merge;
//! `kernel_oracle.rs` checks the kernel itself against references that
//! bypass it. Covers random plans over the paper catalog, multi-shard +
//! multi-block synthetic spaces (candidate counts past `SHARD_SIZE`,
//! sweeps and airframe subsets), the battery-backed endurance
//! objective, the `Auto` mode decision, and delta `refresh` over
//! streamed cache entries (untouched → same `Arc`, touched → exact cold
//! re-stream).

use std::sync::Arc;

use f1_components::{names, Catalog, CatalogDelta, CatalogStore};
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Constraint, Knob, KnobSweep, Objective};
use f1_skyline::session::{ResultSet, Session};
use f1_skyline::shard::{SHARD_SIZE, STREAM_TOP_K};
use f1_units::{Hertz, MetersPerSecond, Watts};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A seed-derived random plan (same generator family as
/// `session_properties`), built in the requested keep-points mode so a
/// streaming twin shares every other plan field with its materializing
/// reference.
fn random_plan(seed: u64, with_sweep: bool, keep: KeepPoints) -> QueryPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = [
        Objective::SafeVelocity,
        Objective::TotalTdp,
        Objective::PayloadMass,
        Objective::MissionEnergyWhPerKm,
    ];
    let bits = rng.gen_range(0u32..16);
    let mut objectives: Vec<Objective> = pool
        .iter()
        .enumerate()
        .filter(|&(i, _)| bits & (1 << i) != 0)
        .map(|(_, &o)| o)
        .collect();
    if objectives.is_empty() {
        objectives.push(pool[rng.gen_range(0usize..pool.len())]);
    }
    let rotation = rng.gen_range(0usize..objectives.len());
    objectives.rotate_left(rotation);
    let mut builder = QueryPlan::builder().objectives(&objectives);
    if rng.gen_range(0u32..2) == 0 {
        builder = builder.constraint(Constraint::MaxTotalTdp(Watts::new(
            rng.gen_range(0.5f64..40.0),
        )));
    }
    if rng.gen_range(0u32..2) == 0 {
        builder = builder.constraint(Constraint::MinVelocity(MetersPerSecond::new(
            rng.gen_range(0.01f64..5.0),
        )));
    }
    if rng.gen_range(0u32..2) == 0 {
        builder = builder.constraint(Constraint::FeasibleOnly);
    }
    if with_sweep {
        let value = rng.gen_range(0.5f64..2.0);
        let (knob, values) = match rng.gen_range(0u32..6) {
            0 => (Knob::TdpScale, vec![1.0, value]),
            1 => (Knob::SensorRateScale, vec![1.0, value]),
            2 => (Knob::SensorRangeScale, vec![1.0, value]),
            3 => (Knob::PayloadDelta, vec![0.0, value * 100.0]),
            4 => (Knob::WeightScale, vec![1.0, value]),
            _ => (Knob::RotorPull, vec![1.0, value]),
        };
        builder = builder.sweep(KnobSweep::new(knob, values));
    }
    builder
        .keep_points(keep)
        .build()
        .expect("generated plans are valid")
}

/// The full bit-identity contract between a streamed run and its
/// materializing reference: counters, frontier, stored rows/points, and
/// the top-k ranking prefix.
fn assert_stream_matches(streamed: &ResultSet, full: &ResultSet) {
    assert!(streamed.is_streamed(), "twin plan must stream");
    assert!(!full.is_streamed(), "reference plan must materialize");
    assert_eq!(streamed.len(), full.len(), "logical kept count");
    assert_eq!(streamed.dropped(), full.dropped(), "dropped count");
    assert_eq!(
        streamed.uncharacterized(),
        full.uncharacterized(),
        "uncharacterized count"
    );
    assert_eq!(streamed.nonfinite(), full.nonfinite(), "nonfinite count");
    assert_eq!(streamed.frontier(), full.frontier(), "frontier indices");

    // The bounded ranking is the exact prefix of the full ranking,
    // including feasible-first order and enumeration-order ties.
    let full_ranked = full.ranked();
    let take = STREAM_TOP_K.min(full_ranked.len());
    assert_eq!(streamed.ranked(), &full_ranked[..take], "top-k ranking");
    let k = 7.min(take);
    assert_eq!(streamed.top_k(k), full.top_k(k), "top_k({k})");

    // Stored set is exactly frontier ∪ top-k, ascending and deduped.
    let mut expected: Vec<usize> = streamed
        .frontier()
        .iter()
        .copied()
        .chain(streamed.ranked())
        .collect();
    expected.sort_unstable();
    expected.dedup();
    let stored = streamed.stored_indices().expect("streamed results store");
    assert_eq!(stored, &expected[..], "stored = frontier ∪ top-k");

    // Every stored point and row is bit-identical to the materializing
    // pass (to_bits — `==` would conflate -0.0 with 0.0).
    for &i in stored {
        assert_eq!(streamed.try_point(i), full.try_point(i), "point {i}");
        let (a, b) = (streamed.try_row(i).unwrap(), full.try_row(i).unwrap());
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "row {i}: {a:?} vs {b:?}"
        );
    }
    assert_eq!(
        streamed.best().is_some(),
        full.best().is_some(),
        "best() presence"
    );
    if let (Some(a), Some(b)) = (streamed.best(), full.best()) {
        assert_eq!(a, b, "best() point");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random plan shapes over the paper catalog: the streaming twin of
    /// every generated plan is bit-identical to its materializing
    /// reference.
    #[test]
    fn streaming_matches_materializing(seed in 0u64..1_000_000, sweep_bit in 0u32..2) {
        let with_sweep = sweep_bit == 1;
        let catalog = Arc::new(Catalog::paper());
        let full_plan = random_plan(seed, with_sweep, KeepPoints::All);
        let stream_plan = random_plan(seed, with_sweep, KeepPoints::FrontierOnly);
        let session = Session::new(catalog);
        let full = session.run(&full_plan).unwrap();
        let streamed = session.run(&stream_plan).unwrap();
        assert_stream_matches(&streamed, &full);
    }

    /// Streamed cache hits return the very same `Arc`, and an
    /// independent session re-streams the plan bit-identically.
    #[test]
    fn streamed_cache_hits_are_bit_identical(seed in 0u64..1_000_000) {
        let plan = random_plan(seed, true, KeepPoints::FrontierOnly);
        let catalog = Arc::new(Catalog::paper());
        let session = Session::new(Arc::clone(&catalog));
        let first = session.run(&plan).unwrap();
        let hit = session.run(&plan).unwrap();
        prop_assert!(Arc::ptr_eq(&first, &hit));
        let fresh = Session::new(catalog).run(&plan).unwrap();
        prop_assert_eq!(&*first, &*fresh);
        prop_assert_eq!(first.frontier(), fresh.frontier());
        prop_assert_eq!(first.ranked(), fresh.ranked());
    }
}

/// Shard and block boundaries: a synthetic space whose per-block
/// candidate count (41³ = 68 921) exceeds `SHARD_SIZE`, enumerated over
/// 2 airframes × 2 knob settings — 8 shards across 4 blocks — agrees
/// with the materializing pass bit-for-bit.
#[test]
fn multi_shard_multi_block_space_streams_bit_identically() {
    const N: usize = 41;
    const _: () = assert!(
        N * N * N > SHARD_SIZE,
        "a single block must span several shards"
    );
    let catalog = Catalog::synthesize(11, N);
    let airframes: Vec<_> = catalog
        .airframe_entries()
        .take(2)
        .map(|(id, _)| id)
        .collect();
    let build = |keep: KeepPoints| {
        QueryPlan::builder()
            .airframes(&airframes)
            .objectives(&[
                Objective::SafeVelocity,
                Objective::TotalTdp,
                Objective::PayloadMass,
                Objective::MissionEnergyWhPerKm,
            ])
            .constraint(Constraint::MaxTotalTdp(Watts::new(30.0)))
            .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.7]))
            .keep_points(keep)
            .build()
            .unwrap()
    };
    let session = Session::new(Arc::new(catalog));
    let full = session.run(&build(KeepPoints::All)).unwrap();
    let streamed = session.run(&build(KeepPoints::FrontierOnly)).unwrap();
    assert_eq!(full.len() + full.dropped(), 2 * 2 * N * N * N);
    assert_stream_matches(&streamed, &full);
}

/// The battery-backed endurance objective streams identically: the
/// deferred per-pair power/endurance hoist must reproduce the fused
/// pass's `fill_values` construction (including the zero-endurance
/// infeasible convention) bit-for-bit.
#[test]
fn endurance_objective_streams_bit_identically() {
    let catalog = Catalog::paper();
    let battery = catalog.battery_id(names::BATTERY_PELICAN).unwrap();
    let build = |keep: KeepPoints| {
        QueryPlan::builder()
            .objectives(&[
                Objective::HoverEnduranceMin,
                Objective::SafeVelocity,
                Objective::TotalTdp,
            ])
            .battery(battery)
            .keep_points(keep)
            .build()
            .unwrap()
    };
    let session = Session::new(Arc::new(catalog));
    let full = session.run(&build(KeepPoints::All)).unwrap();
    let streamed = session.run(&build(KeepPoints::FrontierOnly)).unwrap();
    assert_stream_matches(&streamed, &full);
}

/// `KeepPoints::Auto` only streams past the job-count threshold: the
/// paper catalog retains every row, while `FrontierOnly`
/// streams even the smallest space and `All` never streams.
#[test]
fn auto_mode_materializes_small_spaces() {
    let session = Session::new(Arc::new(Catalog::paper()));
    let auto = session.run(&QueryPlan::builder().build().unwrap()).unwrap();
    assert!(!auto.is_streamed());
    assert_eq!(auto.iter_points().count(), auto.len());
    assert!(!auto.is_empty());

    let forced = session
        .run(
            &QueryPlan::builder()
                .keep_points(KeepPoints::FrontierOnly)
                .build()
                .unwrap(),
        )
        .unwrap();
    assert!(forced.is_streamed());
    assert_stream_matches(&forced, &auto);

    let all = session
        .run(
            &QueryPlan::builder()
                .keep_points(KeepPoints::All)
                .build()
                .unwrap(),
        )
        .unwrap();
    assert!(!all.is_streamed());
    assert_eq!(*all, *auto);
}

/// Keep-points mode is part of the plan identity: the three modes have
/// distinct canonical keys, every key round-trips, and the mode
/// survives the trip.
#[test]
fn keep_points_round_trips_through_plan_keys() {
    let keys: Vec<String> = [KeepPoints::Auto, KeepPoints::All, KeepPoints::FrontierOnly]
        .into_iter()
        .map(|keep| {
            let plan = QueryPlan::builder().keep_points(keep).build().unwrap();
            let replayed = QueryPlan::from_key(plan.key()).unwrap();
            assert_eq!(replayed, plan);
            assert_eq!(replayed.keep_points(), keep);
            plan.key().to_owned()
        })
        .collect();
    assert_eq!(
        keys.iter().collect::<std::collections::HashSet<_>>().len(),
        3,
        "modes must not collide in the cache"
    );
}

/// A streamed result with nothing to keep: constraints that drop every
/// candidate leave an empty frontier, empty stored set and exact
/// accounting.
#[test]
fn fully_constrained_stream_is_empty_with_exact_accounting() {
    let build = |keep: KeepPoints| {
        QueryPlan::builder()
            .constraint(Constraint::MaxTotalTdp(Watts::new(1e-9)))
            .keep_points(keep)
            .build()
            .unwrap()
    };
    let session = Session::new(Arc::new(Catalog::paper()));
    let full = session.run(&build(KeepPoints::All)).unwrap();
    let streamed = session.run(&build(KeepPoints::FrontierOnly)).unwrap();
    assert!(streamed.is_empty());
    assert!(streamed.frontier().is_empty());
    assert_eq!(streamed.stored_indices(), Some(&[][..]));
    assert!(streamed.ranked().is_empty());
    assert!(streamed.best().is_none());
    assert_stream_matches(&streamed, &full);
}

/// Delta `refresh` over a streamed cache entry: a delta outside the
/// plan's subspace returns the cached `Arc` untouched; a touching delta
/// re-streams cold, bit-identical to a fresh session at the new epoch
/// (a streamed result keeps no survivor slab to splice, so there is no
/// incremental path to get subtly wrong).
#[test]
fn streamed_refresh_is_unchanged_or_exact_cold_restream() {
    let store = Arc::new(CatalogStore::new(Catalog::paper()));
    let session = Session::over(Arc::clone(&store));
    let catalog = session.catalog();
    let tx2 = catalog.compute_id(names::TX2).unwrap();
    let plan = QueryPlan::builder()
        .computes(&[tx2])
        .keep_points(KeepPoints::FrontierOnly)
        .build()
        .unwrap();
    let cached = session.run(&plan).unwrap();
    assert!(cached.is_streamed());

    // Disjoint delta: a throughput patch on a compute the plan excludes.
    store
        .apply(&CatalogDelta::new().patch_throughput(names::NCS, names::TRAILNET, Hertz::new(40.0)))
        .unwrap();
    let refreshed = session.refresh(&plan).unwrap();
    assert!(Arc::ptr_eq(&cached, &refreshed));
    assert_eq!(session.cache_stats().repairs, 0);

    // Touching delta: patch a throughput inside the subspace. The
    // refresh must re-stream (never splice) and equal both a fresh cold
    // stream and the materializing reference at the new epoch.
    store
        .apply(&CatalogDelta::new().patch_throughput(names::TX2, names::DRONET, Hertz::new(220.0)))
        .unwrap();
    let refreshed = session.refresh(&plan).unwrap();
    assert!(!Arc::ptr_eq(&cached, &refreshed));
    assert!(refreshed.is_streamed());
    assert_eq!(
        session.cache_stats().repairs,
        0,
        "streamed refresh never repairs in place"
    );
    let cold = Session::over(Arc::clone(&store)).run(&plan).unwrap();
    assert_eq!(*refreshed, *cold);
    let full_plan = QueryPlan::builder()
        .computes(&[tx2])
        .keep_points(KeepPoints::All)
        .build()
        .unwrap();
    let full = Session::over(store).run(&full_plan).unwrap();
    assert_stream_matches(&refreshed, &full);
}
