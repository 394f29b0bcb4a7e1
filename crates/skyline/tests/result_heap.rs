//! Heap per stored row of a retained result, counted by a global
//! allocator on a 10⁴-candidate airframe: the per-candidate value
//! columns, plus one record per stretch of rows with consecutive jobs
//! and shared pair-constant values. A change that brings back per-row
//! points (192 bytes each) fails here. The file holds one test because
//! the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use f1_components::Catalog;
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::Session;
use f1_units::MetersPerSecond;

/// The system allocator, counting the bytes live in it.
struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and return its result; the
// counting touches only one atomic. The default `realloc` and
// `alloc_zeroed` go through these two, so every byte is counted.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

/// A point alone takes 192 bytes. Velocity and energy take 8 bytes a
/// row each; a 40-byte record holds the job, flag, TDP and payload of a
/// whole run, or of the few rows between two a velocity floor drops.
const MAX_BYTES_PER_ROW: usize = 96;

#[test]
fn retained_rows_stay_compact() {
    let catalog = Arc::new(Catalog::synthesize(42, 22));
    let airframe = catalog
        .airframe_entries()
        .next()
        .map(|(id, _)| id)
        .expect("synthesized catalog has airframes");
    let objectives = [
        Objective::SafeVelocity,
        Objective::TotalTdp,
        Objective::PayloadMass,
        Objective::MissionEnergyWhPerKm,
    ];
    let plan = |floor: Option<f64>| {
        let mut builder = QueryPlan::builder()
            .objectives(&objectives)
            .airframes(&[airframe])
            .keep_points(KeepPoints::All);
        if let Some(v) = floor {
            builder = builder.constraint(Constraint::MinVelocity(MetersPerSecond::new(v)));
        }
        builder.build().expect("plan builds")
    };
    let session = Session::new(catalog);
    // A first run builds the session's per-epoch state, which the
    // measured results do not own; the cache is then emptied.
    drop(session.run(&plan(None)).expect("warm-up run"));
    session.clear_cache();
    // Each result's heap per row, with the result.
    let measure = |floor: Option<f64>| {
        let before = LIVE.load(Relaxed);
        let result = session.run(&plan(floor)).expect("measured run");
        session.clear_cache();
        let held = LIVE.load(Relaxed).saturating_sub(before);
        let rows = result.len();
        assert!(rows > 5_000, "the airframe keeps {rows} rows");
        eprintln!(
            "{held} bytes live for {rows} rows: {} bytes per row",
            held / rows
        );
        (held / rows, result)
    };

    // Whole runs: one record per (sensor, compute) run.
    let (per_row, whole) = measure(None);
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "a retained row holds {per_row} bytes of heap (bound {MAX_BYTES_PER_ROW})"
    );
    // A floor at the median velocity drops candidates inside most runs,
    // splitting their records: the worst case of the encoding.
    let mut velocities: Vec<f64> = whole.column(0).iter().collect();
    velocities.sort_by(f64::total_cmp);
    let (per_row, _) = measure(Some(velocities[velocities.len() / 2]));
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "a retained row under a velocity floor holds {per_row} bytes of heap \
         (bound {MAX_BYTES_PER_ROW})"
    );
}
