//! The PR's headline acceptance: a four-objective query over a **10⁷**-
//! candidate synthetic catalog (216 per family ⇒ 216³ = 10 077 696
//! characterized candidates on one airframe) completes end-to-end in
//! about a second in release mode, with peak memory bounded by the
//! shard + frontier + top-k working set — not the candidate count.
//!
//! Lives in its own integration-test binary so the `VmHWM` peak-RSS
//! guard measures this workload alone, not whichever test the harness
//! ran first. Debug builds drop the catalog three orders of magnitude
//! and skip the timing/memory assertions (they measure release
//! codegen, which is what CI's release-acceptance job runs).

use std::sync::Arc;
use std::time::Instant;

use f1_components::Catalog;
use f1_skyline::frontier;
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::Objective;
use f1_skyline::session::Session;
use f1_skyline::shard::STREAM_AUTO_THRESHOLD;

const FOUR_OBJECTIVES: [Objective; 4] = [
    Objective::SafeVelocity,
    Objective::TotalTdp,
    Objective::PayloadMass,
    Objective::MissionEnergyWhPerKm,
];

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// where procfs is unavailable. Only the release build asserts on it.
#[cfg_attr(debug_assertions, allow(dead_code))]
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn ten_million_candidate_query_streams_in_about_a_second() {
    // 216³ ≈ 1.008 × 10⁷ candidates on one airframe in release;
    // 22³ ≈ 10⁴ under debug.
    let n_per_family = if cfg!(debug_assertions) { 22 } else { 216 };
    let catalog = Catalog::synthesize(42, n_per_family);
    let airframe = catalog
        .airframe_entries()
        .next()
        .map(|(id, _)| id)
        .expect("synthesized catalog has airframes");
    let jobs = n_per_family * n_per_family * n_per_family;
    let plan = QueryPlan::builder()
        .airframes(&[airframe])
        .objectives(&FOUR_OBJECTIVES)
        .build()
        .unwrap();
    // At 10⁷ jobs the default `Auto` mode must pick streaming on its
    // own — the headline query needs no opt-in flag.
    if jobs > STREAM_AUTO_THRESHOLD {
        assert!(
            plan.keep_points() == KeepPoints::Auto,
            "headline plan uses the default mode"
        );
    }
    let plan = if jobs > STREAM_AUTO_THRESHOLD {
        plan
    } else {
        // Debug-sized space: force streaming so the path under test runs.
        QueryPlan::builder()
            .airframes(&[airframe])
            .objectives(&FOUR_OBJECTIVES)
            .keep_points(KeepPoints::FrontierOnly)
            .build()
            .unwrap()
    };

    let session = Session::new(Arc::new(catalog));
    let start = Instant::now();
    let result = session.run(&plan).unwrap();
    let elapsed = start.elapsed();

    assert!(result.is_streamed());
    // Exact accounting: every candidate either kept or dropped; the
    // synthetic matrix is dense, so nothing is uncharacterized.
    assert_eq!(result.len() + result.dropped(), jobs);
    assert_eq!(result.uncharacterized(), 0);
    assert!(!result.frontier().is_empty());
    assert!(!result.ranked().is_empty());

    // Frontier sanity: stored rows are feasible, finite, and mutually
    // non-dominated (full pairwise check — the frontier is small).
    let objectives = result.objectives();
    let frontier_rows: Vec<Vec<f64>> = result
        .frontier()
        .iter()
        .map(|&i| {
            assert!(result.try_point(i).unwrap().outcome.feasible);
            result
                .try_row(i)
                .unwrap()
                .iter()
                .zip(objectives)
                .map(|(&v, o)| {
                    assert!(v.is_finite());
                    if o.maximize() {
                        -v
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();
    for a in &frontier_rows {
        for b in &frontier_rows {
            assert!(!frontier::dominates_min(a, b));
        }
    }

    #[cfg(not(debug_assertions))]
    {
        eprintln!(
            "10^7 streamed query: {elapsed:?}, frontier {}, peak RSS {:?} MiB",
            result.frontier().len(),
            peak_rss_bytes().map(|b| b / (1 << 20)),
        );
        // ~1 s on the reference box; 5 s leaves headroom for slow CI
        // runners without letting the claim regress to the ~10 s a
        // materializing pass plus its allocations would cost.
        assert!(
            elapsed.as_secs_f64() < 5.0,
            "10^7-candidate streamed query took {elapsed:?} (acceptance: ~1 s, ceiling 5 s)"
        );
        // Peak memory is the acceptance that distinguishes streaming
        // from materializing: 10⁷ points at ~200 B each would exceed
        // 2 GiB, while the streamed pass holds shard slabs plus the
        // frontier ∪ top-k survivors.
        if let Some(peak) = peak_rss_bytes() {
            assert!(
                peak < 1 << 30,
                "peak RSS {peak} B — streaming must stay under 1 GiB"
            );
        }
    }
    #[cfg(debug_assertions)]
    let _ = elapsed;
}
