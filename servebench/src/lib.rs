//! `servebench` — the repository benchmark: the real `f1-serve` stack,
//! booted in-process over a seeded synthesized catalog and driven over
//! loopback TCP by closed-loop clients, with a separate traced replay
//! that times each layer's public functions from outside.
//!
//! ```sh
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload explore_cold --seed 42 --seconds 10 --trace 0
//! ```
//!
//! See `README.md` beside this crate for why each workload exists and
//! which end-to-end metric each layer metric should move.

// The exceptions are `host::process_cpu_s`, a clock_gettime call, and
// `heap::Counting`, the counting allocator.
#![deny(unsafe_code)]

pub mod churn;
pub mod explore;
pub mod heap;
pub mod host;
pub mod hot;
pub mod report;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod verify;
pub mod workload;
