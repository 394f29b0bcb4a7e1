//! Heap per stored row of a retained result: a job index into the
//! pass's shared space, the value columns and the feasibility column,
//! counted by a global allocator on a 10⁴-candidate airframe. A change
//! that brings back per-row points (192 bytes each) fails here. The file
//! holds one test because the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use f1_components::Catalog;
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::Objective;
use f1_skyline::session::Session;

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

/// A job index, four values and a flag take 41 bytes; a point alone 192.
const MAX_BYTES_PER_ROW: usize = 96;

#[test]
fn retained_rows_stay_compact() {
    let catalog = Arc::new(Catalog::synthesize(42, 22));
    let airframe = catalog
        .airframe_entries()
        .next()
        .map(|(id, _)| id)
        .expect("synthesized catalog has airframes");
    let plan = |objectives: &[Objective]| {
        QueryPlan::builder()
            .objectives(objectives)
            .airframes(&[airframe])
            .keep_points(KeepPoints::All)
            .build()
            .expect("plan builds")
    };
    let session = Session::new(catalog);
    // A first run builds the session's per-epoch state, which the
    // measured result does not own; the cache is then emptied.
    drop(
        session
            .run(&plan(&[Objective::SafeVelocity]))
            .expect("warm-up run"),
    );
    session.clear_cache();

    let before = LIVE.load(Relaxed);
    let result = session
        .run(&plan(&[
            Objective::SafeVelocity,
            Objective::TotalTdp,
            Objective::PayloadMass,
            Objective::MissionEnergyWhPerKm,
        ]))
        .expect("measured run");
    session.clear_cache();
    let held = LIVE.load(Relaxed).saturating_sub(before);

    let rows = result.len();
    assert!(rows > 5_000, "the airframe keeps {rows} rows");
    let per_row = held / rows;
    eprintln!("{held} bytes live for {rows} rows: {per_row} bytes per row");
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "a retained row holds {per_row} bytes of heap (bound {MAX_BYTES_PER_ROW})"
    );
}
