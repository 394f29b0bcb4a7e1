//! Pass 4 — wire-format drift check.
//!
//! The serving tier's cache identities and responses are *formats*:
//! the `f1.plan.v1` canonical plan key, `ResultSet::to_json`, the
//! protocol bodies (`error`/`query`/`top`/`delta`/`stats`), the
//! catalog digest, and the `f1-store` durability framing (epoch-log
//! records and catalog snapshots — data at rest that must stay
//! readable across releases). A refactor that changes any of them byte-for-byte
//! silently invalidates every cached entry, splits the dedup identity
//! of equal plans, or breaks deployed clients. This pass runs the
//! **real encoders** over a fixed corpus of inputs and compares the
//! bytes against checked-in goldens under `crates/analyze/golden/`.
//!
//! Result documents too large to pin verbatim (10³–10⁴ rows) are pinned
//! as one FNV-1a digest line per document (`result_digests.txt`), so
//! byte identity of every rendered result at scale is part of the gate.
//! `float_spellings.txt` pins how the wire writer spells edge-case
//! floats, one `bits spelling` line each.
//!
//! `f1-analyze --bless` regenerates the goldens after an *intentional*
//! format change — the diff then shows the reviewer exactly what moved
//! on the wire.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use f1_components::{
    catalog_digest, AirframeId, BatteryId, Catalog, CatalogDelta, CatalogStore, EpochSnapshot,
};
use f1_serve::protocol;
use f1_serve::{DurabilityStats, ErrorKind, SchedulerStats};
use f1_skyline::plan::{KeepPoints, QueryPlan, SimObjective};
use f1_skyline::query::{Constraint, Knob, KnobSweep, Objective};
use f1_skyline::session::{CacheStats, ResultSet, Session};
use f1_skyline::tier2::SimStats;
use f1_units::{MetersPerSecond, Watts};

use crate::diag::Finding;

/// Directory of the golden corpus, relative to the workspace root.
pub const GOLDEN_DIR: &str = "crates/analyze/golden";

/// The corpus delta: one add of each flavour, a retire and a throughput
/// upsert — shared by the delta transcript and the store framing so
/// their digests agree with each other.
const DELTA_JSON: &str = r#"{
  "add": {
    "sensors": [{"name": "Corpus Cam", "modality": "rgb", "rate_hz": 90,
                 "range_m": 6, "mass_g": 18}],
    "batteries": [{"name": "Corpus 4S", "capacity_mah": 6000,
                   "voltage_v": 14.8, "mass_g": 520}]
  },
  "retire": {"computes": ["Intel UpBoard"]},
  "throughput": [{"compute": "Nvidia TX2", "algorithm": "DroNet", "hz": 400}]
}"#;

/// The corpus: every wire format exercised through its real encoder.
/// Deterministic by construction — building it twice yields identical
/// bytes, so any golden mismatch is a source change, not noise.
///
/// # Errors
///
/// A human-readable reason when an encoder input fails to build (a
/// plan rejected by its own validation, a delta that fails to apply) —
/// that is itself a wire regression.
pub fn corpus() -> Result<Vec<(&'static str, String)>, String> {
    let mut out = Vec::new();
    out.push(("plan_keys.txt", plan_keys()?));
    let store = Arc::new(CatalogStore::new(Catalog::paper()));
    let session = Session::over(Arc::clone(&store));
    let plan = corpus_plan().map_err(|e| format!("corpus plan: {e}"))?;
    let result = session
        .run(&plan)
        .map_err(|e| format!("corpus query: {e}"))?;
    out.push((
        "result_set.json",
        result.to_json(&session.catalog()).to_string(),
    ));
    // The tier-2 wire surface: a sim-objective plan through a session
    // with the real f1-sim harness installed, so the `"sim"` block of
    // `to_json` (survivor rows + verification report) is golden-pinned.
    let tier2_session =
        Session::over(Arc::clone(&store)).with_tier2(Arc::new(f1_sim::SimHarness::default()));
    let tier2_plan = tier2_plan().map_err(|e| format!("tier-2 corpus plan: {e}"))?;
    let tier2_result = tier2_session
        .run(&tier2_plan)
        .map_err(|e| format!("tier-2 corpus query: {e}"))?;
    out.push((
        "result_set_tier2.json",
        tier2_result.to_json(&tier2_session.catalog()).to_string(),
    ));
    let snapshot = store.current();
    let mut bodies = String::new();
    for kind in [
        ErrorKind::Protocol,
        ErrorKind::PlanKey,
        ErrorKind::PlanCatalog,
        ErrorKind::UnknownEpoch,
        ErrorKind::Overloaded,
        ErrorKind::Delta,
        ErrorKind::Internal,
    ] {
        bodies.push_str(&protocol::error_body(kind, "fixed \"test\" message\u{1}"));
    }
    bodies.push_str(&protocol::query_body(&result, &snapshot, true));
    bodies.push_str(&protocol::top_body(3, &result, &snapshot, false));
    bodies.push_str(&protocol::delta_body(&snapshot, 4));
    let cache = CacheStats {
        hits: 11,
        misses: 4,
        entries: 3,
        evictions: 1,
        repairs: 2,
    };
    let sched = SchedulerStats {
        admitted: 15,
        rejected: 1,
        fast_path_hits: 11,
        batches: 3,
        batched_requests: 4,
        coalesced: 1,
        max_batch: 2,
        deltas_applied: 1,
        background_repairs: 2,
    };
    let sim = SimStats {
        evaluations: 2,
        survivors: 9,
        trials: 288,
        reused_rows: 4,
        millis: 12,
    };
    bodies.push_str(&protocol::stats_body(
        &snapshot, &cache, &sim, &sched, 5, None,
    ));
    let durability = DurabilityStats {
        replica: false,
        snapshot_epoch: Some(8),
        replayed_deltas: 2,
        warm_entries: 3,
        spill_hits: 1,
    };
    bodies.push_str(&protocol::stats_body(
        &snapshot,
        &cache,
        &sim,
        &sched,
        5,
        Some(&durability),
    ));
    out.push(("protocol_bodies.txt", bodies));
    out.push(("escaped_names.txt", escaped_names()?));
    out.push(("catalog_delta.txt", delta_transcript(&store)?));
    let (log_record, store_snapshot) = store_framing()?;
    out.push(("store_log_record.txt", log_record));
    out.push(("store_snapshot.txt", store_snapshot));
    out.push(("result_digests.txt", result_digests()?));
    out.push(("float_spellings.txt", float_spellings()));
    Ok(out)
}

/// Edge-case floats through the wire writer, one `bits spelling` line
/// each: exact decimal ties, both layout switches at ±1 ulp, the ends
/// of the normal and subnormal ranges, integers around 2⁵³ and 1e16,
/// and the non-finite values that spell `null`. It pins the wire
/// spelling in this repository rather than in the toolchain.
#[allow(clippy::excessive_precision)] // the ties are written exactly
fn float_spellings() -> String {
    let step = |v: f64, by: i64| f64::from_bits(v.to_bits().wrapping_add_signed(by));
    let mut values = vec![
        0.0,
        -0.0,
        1.0,
        -1.5,
        0.1,
        0.1 + 0.2,
        1.0 / 3.0,
        123.456,
        // Exact decimal ties, spelled rounding up.
        1_658_206_780_088_562.25,
        233_115_890_514_796.125,
        -1_658_206_780_088_562.25,
        1e-5,
        1.5e16,
        1e21,
        1e22,
        1e23,
        1e100,
        1e-100,
        1e-307,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        step(f64::MIN_POSITIVE, -1),
        f64::MIN_POSITIVE,
        step(f64::MIN_POSITIVE, 1),
        step(f64::MAX, -1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        2f64.powi(63),
        2f64.powi(-1022) * 3.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    // The layout switches to exponent form below 1e-4 and from 1e16.
    for edge in [1e-4, 1e16] {
        for v in [edge, -edge] {
            values.extend([step(v, -1), v, step(v, 1)]);
        }
    }
    // Integers from 1e15 to 1e17, where the spacing of doubles passes
    // 1 (at 2⁵³) and the spelling leaves plain decimal form.
    values.extend([
        1e15,
        1e15 + 1.0,
        4_503_599_627_370_497.0,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        12_345_678_901_234_568.0,
        99_999_999_999_999_984.0,
        1e17,
    ]);
    let mut out = String::new();
    for v in values {
        let _ = write!(out, "{:016x} ", v.to_bits());
        f1_components::json::push_number(&mut out, v);
        out.push('\n');
    }
    out
}

/// The four objectives of the digest corpus's widest plans.
const FOUR_OBJECTIVES: [Objective; 4] = [
    Objective::SafeVelocity,
    Objective::TotalTdp,
    Objective::PayloadMass,
    Objective::MissionEnergyWhPerKm,
];

/// Appends one line per rendered document of `result`: `to_json`,
/// `query_body` cached and uncached, and `top_body` at k = 0, 5 and
/// 100, each as its byte length and FNV-1a 64 digest. A digest pins a
/// 10⁴-row document byte for byte at the cost of one short line.
fn push_digests(out: &mut String, label: &str, result: &ResultSet, snapshot: &EpochSnapshot) {
    let documents = [
        ("to_json", result.to_json(snapshot.catalog())),
        ("query_cached", protocol::query_body(result, snapshot, true)),
        (
            "query_uncached",
            protocol::query_body(result, snapshot, false),
        ),
        ("top_0", protocol::top_body(0, result, snapshot, false)),
        ("top_5", protocol::top_body(5, result, snapshot, true)),
        ("top_100", protocol::top_body(100, result, snapshot, false)),
    ];
    for (document, bytes) in documents {
        let _ = writeln!(
            out,
            "{label} {document} {} {:016x}",
            bytes.len(),
            f1_store::frame::checksum(bytes.as_bytes())
        );
    }
}

/// How many sensors a retaining digest plan enumerates: a retained
/// document prints every row, so retained plans take the first
/// [`RETAINED_SENSORS`] sensors (about 2·10³ rows each) to keep the
/// debug-built corpus within seconds; streamed plans print only their
/// frontier and top-k, and take the whole airframe.
const RETAINED_SENSORS: usize = 4;

/// A plan on one airframe of the digest catalog (the first
/// [`RETAINED_SENSORS`] sensors when it retains its points).
fn digest_plan(
    catalog: &Catalog,
    airframe: AirframeId,
    objectives: &[Objective],
    keep: KeepPoints,
) -> f1_skyline::PlanBuilder {
    let sensors: Vec<_> = catalog.sensor_entries().map(|(id, _)| id).collect();
    let builder = QueryPlan::builder()
        .objectives(objectives)
        .airframes(&[airframe])
        .keep_points(keep);
    match keep {
        KeepPoints::All => builder.sensors(&sensors[..RETAINED_SENSORS]),
        _ => builder,
    }
}

/// Result documents of 10³–10⁴ rows, digested: every plan runs on one
/// airframe of `Catalog::synthesize(42, 22)`. Covers retained and
/// streamed plans with two to four objectives, a TDP sweep whose
/// infeasible builds print `null` energies, each member of an 8-plan
/// TDP-cap batch, a tier-2 plan, and a retained and a streamed plan
/// refreshed across a throughput patch and then across a compute
/// retirement that kills frontier members.
fn result_digests() -> Result<String, String> {
    let store = Arc::new(CatalogStore::new(Catalog::synthesize(42, 22)));
    let session =
        Session::over(Arc::clone(&store)).with_tier2(Arc::new(f1_sim::SimHarness::default()));
    let snapshot = store.current();
    let catalog = snapshot.catalog();
    let ids: Vec<AirframeId> = catalog.airframe_entries().map(|(id, _)| id).collect();
    let airframe = *ids.first().ok_or("the digest catalog has no airframe")?;
    // The weakest airframe, so the heavier heatsinks of the scaled-up
    // TDPs leave infeasible builds, whose energies print as `null`.
    let capacity = |id: &AirframeId| catalog.airframe_by_id(*id).payload_capacity().get();
    let weakest = *ids
        .iter()
        .min_by(|a, b| capacity(a).total_cmp(&capacity(b)))
        .ok_or("the digest catalog has no airframe")?;
    let cap = |w| Constraint::MaxTotalTdp(Watts::new(w));

    let mut singles: Vec<(String, f1_skyline::PlanBuilder)> = Vec::new();
    for (keep, mode) in [
        (KeepPoints::All, "retained"),
        (KeepPoints::FrontierOnly, "streamed"),
    ] {
        let three = [
            Objective::PayloadMass,
            Objective::SafeVelocity,
            Objective::TotalTdp,
        ];
        singles.extend(
            [
                (
                    2,
                    digest_plan(catalog, airframe, &FOUR_OBJECTIVES[..2], keep)
                        .constraint(cap(30.0)),
                ),
                (
                    3,
                    digest_plan(catalog, airframe, &three, keep)
                        .constraint(Constraint::FeasibleOnly),
                ),
                (
                    4,
                    digest_plan(catalog, airframe, &FOUR_OBJECTIVES, keep).constraint(cap(20.0)),
                ),
            ]
            .map(|(k, builder)| (format!("{mode}-{k}obj"), builder)),
        );
    }
    let energy = [Objective::SafeVelocity, Objective::MissionEnergyWhPerKm];
    singles.push((
        "tdp-sweep".to_owned(),
        digest_plan(catalog, weakest, &energy, KeepPoints::All)
            .sweep(KnobSweep::new(Knob::TdpScale, vec![0.5, 1.0, 2.0])),
    ));
    let batch: Vec<QueryPlan> = [60.0, 30.0, 16.0, 8.0, 4.0, 2.0, 1.0, 0.5]
        .into_iter()
        .map(|w| {
            digest_plan(catalog, airframe, &FOUR_OBJECTIVES, KeepPoints::All).constraint(cap(w))
        })
        .map(|builder| builder.build().map_err(|e| format!("batch plan: {e}")))
        .collect::<Result<_, _>>()?;
    let sensors: Vec<_> = catalog.sensor_entries().take(2).map(|(id, _)| id).collect();
    let computes: Vec<_> = catalog
        .compute_entries()
        .take(6)
        .map(|(id, _)| id)
        .collect();
    let tier2 = QueryPlan::builder()
        .objectives(&FOUR_OBJECTIVES[..2])
        .airframes(&[airframe])
        .sensors(&sensors)
        .computes(&computes)
        .sim_objective(SimObjective::MissionRobustness { trials: 2 })
        .sim_objective(SimObjective::PipelineP99Latency)
        .survivor_budget(3);

    let mut documents: Vec<(String, Arc<ResultSet>)> = Vec::new();
    for (label, builder) in singles {
        let plan = builder.build().map_err(|e| format!("{label} plan: {e}"))?;
        let result = session
            .run(&plan)
            .map_err(|e| format!("{label} query: {e}"))?;
        documents.push((label, result));
    }
    if !documents[6].1.to_json(catalog).contains("null") {
        return Err("the sweep plan prints no null energy".to_owned());
    }
    let members = session
        .run_batch(&batch)
        .map_err(|e| format!("batch: {e}"))?;
    documents.extend((0..).map(|i| format!("batch-{i}")).zip(members));
    let tier2 = tier2.build().map_err(|e| format!("tier-2 plan: {e}"))?;
    let result = session
        .run(&tier2)
        .map_err(|e| format!("tier-2 query: {e}"))?;
    documents.push(("tier2".to_owned(), result));

    let mut out = String::new();
    for (label, result) in &documents {
        push_digests(&mut out, label, result, &snapshot);
    }
    refreshed_digests(&mut out, airframe)?;
    Ok(out)
}

/// Retained and streamed plans refreshed across a throughput patch,
/// then across the retirement of a compute that carries frontier
/// members, on their own store.
fn refreshed_digests(out: &mut String, airframe: AirframeId) -> Result<(), String> {
    let store = Arc::new(CatalogStore::new(Catalog::synthesize(42, 22)));
    let session = Session::over(Arc::clone(&store));
    let catalog = Arc::clone(store.current().catalog());
    let plans = [KeepPoints::All, KeepPoints::FrontierOnly]
        .into_iter()
        .map(|keep| {
            digest_plan(&catalog, airframe, &FOUR_OBJECTIVES[..3], keep)
                .constraint(Constraint::MaxTotalTdp(Watts::new(40.0)))
                .build()
                .map_err(|e| format!("refresh plan: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut frontier_compute = None;
    for plan in &plans {
        let result = session
            .run(plan)
            .map_err(|e| format!("refresh genesis query: {e}"))?;
        frontier_compute = frontier_compute.or_else(|| {
            let first = *result.frontier().first()?;
            Some(result.try_key(first)?.candidate.compute)
        });
    }
    let retired = frontier_compute.ok_or("the refresh plan has an empty frontier")?;
    let (compute, algorithm, hz) = catalog
        .compute_entries()
        .filter(|&(id, _)| id != retired)
        .flat_map(|(_, c)| {
            catalog
                .algorithm_entries()
                .map(move |(_, g)| (c.name(), g.name()))
        })
        .find_map(|(c, g)| Some((c, g, catalog.throughput(c, g).ok()?)))
        .ok_or("the digest catalog has no characterized pair")?;
    let deltas = [
        (
            "patch",
            CatalogDelta::new().patch_throughput(compute, algorithm, hz * 1.5),
        ),
        (
            "retire",
            CatalogDelta::new().retire_compute(catalog.compute_by_id(retired).name()),
        ),
    ];
    for (step, delta) in deltas {
        let snapshot = store
            .apply(&delta)
            .map_err(|e| format!("refresh {step} delta: {e}"))?;
        for (plan, mode) in plans.iter().zip(["retained", "streamed"]) {
            let result = session
                .refresh(plan)
                .map_err(|e| format!("refresh {step} query: {e}"))?;
            push_digests(out, &format!("{step}-{mode}"), &result, &snapshot);
        }
    }
    Ok(())
}

/// A delta whose sensor name needs every wire escape: a quote, a
/// backslash, a newline, a tab, U+0001 and non-ASCII text.
const ESCAPED_DELTA_JSON: &str = r#"{
  "add": {
    "sensors": [{"name": "Esc \"q\" \\ nl\n tab\t ctl\u0001 ünï ✓", "modality": "rgb",
                 "rate_hz": 30, "range_m": 5, "mass_g": 10}]
  }
}"#;

/// `to_json` and `top_body` over a small plan that enumerates only the
/// [`ESCAPED_DELTA_JSON`] sensor, pinning the result-document escapes
/// (`\u000a` for a newline, unlike the store's `\n`).
fn escaped_names() -> Result<String, String> {
    let store = Arc::new(CatalogStore::new(Catalog::paper()));
    let delta = CatalogDelta::from_json(ESCAPED_DELTA_JSON)
        .map_err(|e| format!("escaped delta parse: {e}"))?;
    let snapshot = store
        .apply(&delta)
        .map_err(|e| format!("escaped delta apply: {e}"))?;
    let sensor = snapshot
        .catalog()
        .sensor_id("Esc \"q\" \\ nl\n tab\t ctl\u{1} ünï ✓")
        .map_err(|e| format!("escaped sensor lookup: {e}"))?;
    let plan = QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
        .airframes(&[AirframeId::from_index(0)])
        .sensors(&[sensor])
        .build()
        .map_err(|e| format!("escaped plan: {e}"))?;
    let result = Session::over(Arc::clone(&store))
        .run(&plan)
        .map_err(|e| format!("escaped query: {e}"))?;
    let mut out = result.to_json(snapshot.catalog());
    out.push_str(&protocol::top_body(3, &result, &snapshot, false));
    Ok(out)
}

/// The durability formats: a framed epoch-log record and a framed
/// catalog snapshot, produced by the real `f1-store` encoders over the
/// corpus delta. These bytes live on disk across restarts — drift here
/// means an upgraded server can no longer read its own data directory.
fn store_framing() -> Result<(String, String), String> {
    let store = CatalogStore::new(Catalog::paper());
    let delta =
        CatalogDelta::from_json(DELTA_JSON).map_err(|e| format!("store delta parse: {e}"))?;
    let next = store
        .apply(&delta)
        .map_err(|e| format!("store apply: {e}"))?;
    let record = f1_store::LogRecord {
        epoch: next.epoch().get(),
        digest: next.digest(),
        ops: delta.op_count() as u64,
        delta_json: delta
            .to_json()
            .map_err(|e| format!("store delta to_json: {e}"))?,
    };
    let log_frame = String::from_utf8(f1_store::frame::encode(&record.to_payload()))
        .map_err(|e| format!("log frame utf8: {e}"))?;
    let payload =
        f1_store::snapshot::encode_snapshot(next.catalog(), next.epoch().get(), next.digest())
            .map_err(|e| format!("snapshot encode: {e}"))?;
    let snapshot_frame = String::from_utf8(f1_store::frame::encode(&payload))
        .map_err(|e| format!("snapshot frame utf8: {e}"))?;
    Ok((log_frame, snapshot_frame))
}

/// Representative plans spanning every key section: defaults, multi
/// objective + constraint + sweep + subspace + battery, awkward floats,
/// and each keep-points policy.
fn plan_keys() -> Result<String, String> {
    let plans: Vec<QueryPlan> = vec![
        QueryPlan::builder()
            .build()
            .map_err(|e| format!("default plan: {e}"))?,
        QueryPlan::builder()
            .objectives(&[
                Objective::TotalTdp,
                Objective::SafeVelocity,
                Objective::MissionEnergyWhPerKm,
            ])
            .constraint(Constraint::MaxTotalTdp(Watts::new(20.0)))
            .constraint(Constraint::FeasibleOnly)
            .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
            .airframes(&[AirframeId::from_index(0), AirframeId::from_index(2)])
            .battery(BatteryId::from_index(1))
            .build()
            .map_err(|e| format!("full plan: {e}"))?,
        QueryPlan::builder()
            .constraint(Constraint::MinVelocity(MetersPerSecond::new(1e-307)))
            .sweep(KnobSweep::new(Knob::SensorRangeScale, vec![0.1, 3.5]))
            .build()
            .map_err(|e| format!("float plan: {e}"))?,
        QueryPlan::builder()
            .keep_points(KeepPoints::FrontierOnly)
            .build()
            .map_err(|e| format!("frontier plan: {e}"))?,
        QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
            .sim_objective(SimObjective::MissionRobustness { trials: 32 })
            .sim_objective(SimObjective::PipelineP99Latency)
            .survivor_budget(16)
            .build()
            .map_err(|e| format!("tier-2 plan: {e}"))?,
    ];
    let mut out = String::new();
    for plan in &plans {
        // A key must round-trip through from_key — a drifted parser is
        // as breaking as a drifted encoder.
        let replayed =
            QueryPlan::from_key(plan.key()).map_err(|e| format!("key round-trip: {e}"))?;
        if replayed.key() != plan.key() {
            return Err(format!("key round-trip drift for {:?}", plan.key()));
        }
        out.push_str(plan.key());
        out.push('\n');
    }
    Ok(out)
}

/// The evaluated corpus query: small subspace, two objectives, one
/// constraint — enough to exercise names, floats and frontier lists in
/// `to_json` without a full catalog sweep.
fn corpus_plan() -> Result<QueryPlan, f1_skyline::SkylineError> {
    QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
        .constraint(Constraint::MaxTotalTdp(Watts::new(25.0)))
        .airframes(&[AirframeId::from_index(0)])
        .build()
}

/// The corpus tier-2 plan: small trial count and survivor budget so the
/// golden stays fast to regenerate yet covers both sim objectives.
fn tier2_plan() -> Result<QueryPlan, f1_skyline::SkylineError> {
    QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
        .airframes(&[AirframeId::from_index(0)])
        .sim_objective(SimObjective::MissionRobustness { trials: 8 })
        .sim_objective(SimObjective::PipelineP99Latency)
        .survivor_budget(4)
        .build()
}

/// Applies a fixed delta to a fresh paper-catalog store and records the
/// epoch/digest trajectory plus the delta's own accounting — covering
/// `CatalogDelta::from_json`, `CatalogStore::apply` and the FNV digest
/// in one transcript.
fn delta_transcript(store: &CatalogStore) -> Result<String, String> {
    let delta = CatalogDelta::from_json(DELTA_JSON).map_err(|e| format!("delta parse: {e}"))?;
    let base = store.current();
    let next = store
        .apply(&delta)
        .map_err(|e| format!("delta apply: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(out, "ops: {}", delta.op_count());
    let _ = writeln!(out, "base_epoch: {}", base.epoch().get());
    let _ = writeln!(out, "base_digest: {}", base.digest());
    let _ = writeln!(out, "next_epoch: {}", next.epoch().get());
    let _ = writeln!(out, "next_digest: {}", next.digest());
    let _ = writeln!(
        out,
        "paper_digest_stable: {}",
        catalog_digest(&Catalog::paper()) == base.digest()
    );
    Ok(out)
}

/// Compares the live corpus against the goldens under `root`
/// ([`GOLDEN_DIR`]); with `bless`, rewrites them instead and reports
/// what changed.
#[must_use]
pub fn check(root: &Path, bless: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let corpus = match corpus() {
        Ok(corpus) => corpus,
        Err(reason) => {
            findings.push(Finding::at(
                "wire",
                "",
                0,
                format!("corpus construction failed: {reason}"),
            ));
            return findings;
        }
    };
    let dir = root.join(GOLDEN_DIR);
    for (name, actual) in corpus {
        let path = dir.join(name);
        let rel = format!("{GOLDEN_DIR}/{name}");
        let golden = fs::read_to_string(&path);
        if bless {
            let unchanged = golden.as_deref().is_ok_and(|g| g == actual);
            if unchanged {
                continue;
            }
            if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, &actual)) {
                findings.push(Finding::at("wire", &rel, 0, format!("bless failed: {e}")));
            }
            continue;
        }
        match golden {
            Err(e) => findings.push(Finding::at(
                "wire",
                &rel,
                0,
                format!("golden missing ({e}) — run `f1-analyze --bless` and commit the result"),
            )),
            Ok(expected) if expected != actual => {
                findings.push(Finding::at(
                    "wire",
                    &rel,
                    first_diff_line(&expected, &actual),
                    format!(
                        "wire format drifted from golden ({}); if intentional, re-bless with \
                         `f1-analyze --bless` and call out the format change in review",
                        diff_summary(&expected, &actual)
                    ),
                ));
            }
            Ok(_) => {}
        }
    }
    findings
}

/// 1-indexed line of the first difference.
fn first_diff_line(expected: &str, actual: &str) -> usize {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return i + 1;
        }
    }
    expected.lines().count().min(actual.lines().count()) + 1
}

/// A short human-readable description of the first divergence.
fn diff_summary(expected: &str, actual: &str) -> String {
    let line = first_diff_line(expected, actual);
    let e = expected.lines().nth(line - 1).unwrap_or("<eof>");
    let a = actual.lines().nth(line - 1).unwrap_or("<eof>");
    let trim = |s: &str| {
        let mut t: String = s.chars().take(60).collect();
        if t.len() < s.len() {
            t.push('…');
        }
        t
    };
    format!("line {line}: golden {:?} vs live {:?}", trim(e), trim(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_reproducible() {
        let a = corpus().unwrap();
        let b = corpus().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn corpus_covers_every_format() {
        let names: Vec<&str> = corpus().unwrap().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "plan_keys.txt",
                "result_set.json",
                "result_set_tier2.json",
                "protocol_bodies.txt",
                "escaped_names.txt",
                "catalog_delta.txt",
                "store_log_record.txt",
                "store_snapshot.txt",
                "result_digests.txt",
                "float_spellings.txt"
            ]
        );
    }

    #[test]
    fn plan_keys_are_canonical_v1() {
        let corpus = corpus().unwrap();
        let keys = &corpus
            .iter()
            .find(|(n, _)| *n == "plan_keys.txt")
            .unwrap()
            .1;
        for key in keys.lines() {
            assert!(key.starts_with("f1.plan.v1|"), "{key}");
            QueryPlan::from_key(key).unwrap();
        }
    }

    #[test]
    fn detects_drift_against_temp_goldens() {
        let dir = std::env::temp_dir().join(format!(
            "f1-analyze-wire-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        // Missing goldens: every entry is a finding.
        let missing = check(&dir, false);
        assert_eq!(missing.len(), 10, "{missing:?}");
        // Bless, then verify clean.
        assert!(check(&dir, true).is_empty());
        assert!(check(&dir, false).is_empty());
        // Corrupt one golden: exactly one drift finding.
        let golden = dir.join(GOLDEN_DIR).join("plan_keys.txt");
        fs::write(&golden, "f1.plan.v0|bogus\n").unwrap();
        let drift = check(&dir, false);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].message.contains("drifted"));
        let _ = fs::remove_dir_all(&dir);
    }
}
