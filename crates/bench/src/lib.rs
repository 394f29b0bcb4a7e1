//! # `f1-bench` — Criterion benchmark harness
//!
//! Five bench targets regenerate and time the paper's artifacts:
//!
//! * `figures` — one benchmark per paper figure/table regeneration
//!   (Fig. 2b, 4, 5, 9, 11b, 12, 13b, 14b, 15b, 16c, Tables I–III).
//! * `model_kernels` — the analytic kernels (Eq. 4 evaluation, knee
//!   closed form, bound classification, heatsink sizing, Eq. 5 `a_max`).
//! * `simulators` — the discrete-event pipeline simulator and the
//!   flight-sim stop trial.
//! * `ablations` — design-choice ablations DESIGN.md calls out
//!   (exact vs linearized roofline, drag-free vs drag-aware stopping,
//!   serial vs parallel sweeps).
//! * `dse` — the design-space exploration path: candidate enumeration,
//!   the skyline algorithms on synthesized catalogs, end-to-end
//!   `QueryPlan` passes through a fresh `Session`, plan-cache reuse and
//!   shared-pass batches, delta repair, streaming shards and the
//!   two-tier simulation.
//!
//! Run with `cargo bench --workspace`. Absolute timings are
//! machine-dependent; the interesting output of the `figures` target is
//! that every artifact regenerates, with the same rows the paper reports
//! (printed by the `f1-experiments` binaries and checked by tests).
