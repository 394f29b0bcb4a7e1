//! A crossbeam-parallel parameter sweep engine.
//!
//! Skyline's characterization studies evaluate the model across hundreds of
//! configurations (payload sweeps for Fig. 9, the full platform × algorithm
//! × UAV matrix for Fig. 15, TDP sweeps for Fig. 12), and the DSE query
//! layer pushes the same engine to 10⁵–10⁶ candidates over synthesized
//! catalogs. Evaluations are independent, so they parallelize trivially;
//! this module provides an order-preserving parallel map built on scoped
//! threads.
//!
//! The core is **buffer-writing**: the output vector is preallocated and
//! split into chunk-disjoint `&mut` slices, workers claim chunk indices
//! from a shared atomic cursor and write each result straight into its
//! slot. Nothing is sent over a channel and nothing is re-sorted
//! afterwards — input order *is* output order by construction.
//!
//! Callers choose the chunk size: a caller whose jobs are already
//! coarse (the shard kernel's shards) passes 1.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

fn worker_count(items: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.max(1))
}

/// Applies `f` to every input on a pool of scoped worker threads,
/// preserving input order in the output.
///
/// Inputs are split into one contiguous chunk per worker. For workloads
/// with very uneven per-item cost, prefer [`parallel_map_chunked`] with a
/// small chunk size so idle workers can steal remaining chunks.
///
/// Falls back to a sequential map for tiny workloads (< 2 items or a
/// single available core).
///
/// # Panics
///
/// Propagates panics from `f` (the worker's panic aborts the scope).
pub fn parallel_map<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunk_size = inputs.len().div_ceil(worker_count(inputs.len())).max(1);
    parallel_map_chunked(inputs, chunk_size, f)
}

/// Applies `f` to every input in work-stealing-friendly chunks of
/// `chunk_size`, preserving input order in the output.
///
/// Workers self-schedule: each repeatedly claims the next unprocessed
/// chunk from a shared atomic cursor and writes results **in place**
/// into that chunk's preallocated slice of the output buffer, so a
/// worker stuck on an expensive chunk never strands cheap ones behind
/// it, and no per-item channel traffic or output re-sort happens at any
/// scale.
///
/// # Panics
///
/// Panics if `chunk_size == 0`; propagates the first panic from `f`
/// (remaining workers stop claiming chunks and no partial output is
/// ever returned).
pub fn parallel_map_chunked<T, R, F>(inputs: Vec<T>, chunk_size: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_indices(inputs.len(), chunk_size, |i| f(&inputs[i]))
}

/// [`parallel_map_chunked`] over the index range `0..count`, without
/// materializing an input vector — the evaluation engine under the DSE
/// hot loop, whose jobs are plain indices into a nested enumeration.
///
/// # Panics
///
/// Same contract as [`parallel_map_chunked`].
pub fn parallel_map_indices<R, F>(count: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    if count < 2 {
        return (0..count).map(f).collect();
    }
    let workers = worker_count(count).min(count.div_ceil(chunk_size));
    if workers <= 1 {
        return (0..count).map(f).collect();
    }

    // Preallocate the output and hand it out as chunk-disjoint `&mut`
    // slices. The atomic cursor gives each chunk index to exactly one
    // worker; the per-chunk mutex converts that runtime exclusivity
    // into the `&mut` borrow the compiler requires, and is locked at
    // most once per chunk — never contended.
    let mut out: Vec<Option<R>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    let slots: Vec<Mutex<&mut [Option<R>]>> = out.chunks_mut(chunk_size).map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            let (f, slots, cursor, poisoned) = (&f, &slots, &cursor, &poisoned);
            scope.spawn(move |_| loop {
                let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                if chunk >= slots.len() || poisoned.load(Ordering::Relaxed) {
                    break;
                }
                let mut slot = slots[chunk]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let start = chunk * chunk_size;
                let filled = catch_unwind(AssertUnwindSafe(|| {
                    for (offset, slot) in slot.iter_mut().enumerate() {
                        *slot = Some(f(start + offset));
                    }
                }));
                if let Err(payload) = filled {
                    // Fail fast: stop the other workers from claiming
                    // further chunks, then let the scope re-raise the
                    // original panic in the caller.
                    poisoned.store(true, Ordering::Relaxed);
                    resume_unwind(payload);
                }
            });
        }
    })
    .expect("sweep worker panicked");
    drop(slots);
    out.into_iter()
        .map(|slot| slot.expect("cursor hands every chunk to exactly one worker"))
        .collect()
}

/// A single point of a one-dimensional sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint<R> {
    /// The swept parameter value.
    pub input: f64,
    /// The evaluation result at that value.
    pub output: R,
}

/// Sweeps a closure over `n` evenly-spaced values in `[lo, hi]`
/// (inclusive), in parallel.
///
/// # Panics
///
/// Panics if `n < 2` or the interval is not ordered.
pub fn sweep_linear<R, F>(lo: f64, hi: f64, n: usize, f: F) -> Vec<SweepPoint<R>>
where
    R: Send,
    F: Fn(f64) -> R + Sync,
{
    assert!(n >= 2, "need at least two sweep points");
    assert!(lo < hi, "sweep interval must be ordered");
    let inputs: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect();
    let outputs = parallel_map(inputs.clone(), |x| f(*x));
    inputs
        .into_iter()
        .zip(outputs)
        .map(|(input, output)| SweepPoint { input, output })
        .collect()
}

/// Sweeps a closure over `n` log-spaced values in `[lo, hi]` (inclusive),
/// in parallel.
///
/// # Panics
///
/// Panics if `n < 2` or the interval is not positive and ordered.
pub fn sweep_log<R, F>(lo: f64, hi: f64, n: usize, f: F) -> Vec<SweepPoint<R>>
where
    R: Send,
    F: Fn(f64) -> R + Sync,
{
    assert!(n >= 2, "need at least two sweep points");
    assert!(
        lo > 0.0 && lo < hi,
        "log sweep interval must be positive and ordered"
    );
    let (l0, l1) = (lo.ln(), hi.ln());
    let inputs: Vec<f64> = (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect();
    let outputs = parallel_map(inputs.clone(), |x| f(*x));
    inputs
        .into_iter()
        .zip(outputs)
        .map(|(input, output)| SweepPoint { input, output })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<i64> = (0..500).collect();
        let out = parallel_map(inputs, |x| x * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as i64 * 2);
        }
    }

    #[test]
    fn parallel_map_runs_every_input_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map((0..200).collect::<Vec<_>>(), |_| {
            counter.fetch_add(1, Ordering::SeqCst)
        });
        assert_eq!(out.len(), 200);
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn chunked_map_preserves_order_for_all_chunk_sizes() {
        let inputs: Vec<i64> = (0..97).collect();
        for chunk_size in [1, 2, 3, 16, 97, 500] {
            let out = parallel_map_chunked(inputs.clone(), chunk_size, |x| x * 3);
            assert_eq!(out.len(), 97, "chunk_size {chunk_size}");
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as i64 * 3, "chunk_size {chunk_size}");
            }
        }
    }

    #[test]
    fn chunked_map_runs_every_input_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map_chunked((0..300).collect::<Vec<_>>(), 7, |_| {
            counter.fetch_add(1, Ordering::SeqCst)
        });
        assert_eq!(out.len(), 300);
        assert_eq!(counter.load(Ordering::SeqCst), 300);
    }

    #[test]
    fn chunked_map_moves_non_copy_results_out_intact() {
        // The buffer-writing core must hand every owned result back
        // exactly once (a dropped or duplicated slot would corrupt or
        // lose heap data).
        let inputs: Vec<usize> = (0..250).collect();
        let out = parallel_map_chunked(inputs, 9, |&i| vec![i; 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, vec![i; 3]);
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_rejected() {
        let _ = parallel_map_chunked(vec![1, 2, 3], 0, |x| *x);
    }

    #[test]
    fn indexed_map_matches_input_map() {
        let inputs: Vec<i64> = (0..311).collect();
        let by_input = parallel_map_chunked(inputs, 13, |x| x * 5);
        let by_index = parallel_map_indices(311, 13, |i| i as i64 * 5);
        assert_eq!(by_input, by_index);
        assert_eq!(parallel_map_indices(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_indices(1, 4, |i| i + 9), vec![9]);
    }

    #[test]
    fn tiny_inputs_work() {
        assert_eq!(parallel_map(Vec::<i32>::new(), |x| *x), Vec::<i32>::new());
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn linear_sweep_endpoints_and_spacing() {
        let pts = sweep_linear(0.0, 10.0, 11, |x| x * x);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].input, 0.0);
        assert_eq!(pts[10].input, 10.0);
        assert_eq!(pts[3].output, 9.0);
        for w in pts.windows(2) {
            assert!((w[1].input - w[0].input - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log_sweep_is_geometric() {
        let pts = sweep_log(1.0, 1000.0, 4, |x| x);
        let ratios: Vec<f64> = pts.windows(2).map(|w| w[1].input / w[0].input).collect();
        for r in ratios {
            assert!((r - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "two sweep points")]
    fn sweep_needs_two_points() {
        let _ = sweep_linear(0.0, 1.0, 1, |x| x);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        // A panicking evaluation must surface in the caller (crossbeam
        // re-raises the child's payload), not silently drop results.
        let inputs: Vec<i32> = (0..64).collect();
        let _ = parallel_map(inputs, |x| {
            assert!(*x != 33, "boom");
            *x
        });
    }

    #[test]
    #[should_panic(expected = "mid-chunk")]
    fn worker_panic_mid_chunk_propagates() {
        // A panic part-way through a chunk must abort the whole map —
        // the caller can never observe the half-written buffer.
        let inputs: Vec<i32> = (0..256).collect();
        let _ = parallel_map_chunked(inputs, 16, |x| {
            assert!(*x != 137, "mid-chunk");
            *x
        });
    }

    #[test]
    #[should_panic(expected = "positive and ordered")]
    fn log_sweep_rejects_zero_lo() {
        let _ = sweep_log(0.0, 1.0, 3, |x| x);
    }
}
