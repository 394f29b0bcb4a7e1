//! catalog_churn: the durable write path beside reads.
//!
//! A durable primary (`DurableStore` + `Server::start_durable`, shipped
//! flush policy) on a fresh data directory serves 8 warmed 4-objective
//! plans. One op is one cycle: a seeded single-pair throughput `delta`;
//! a wait until the scheduler's background sweep has refreshed all 8
//! plans, read from `Scheduler::stats`, so no read races the repair;
//! then a `top 5` read of each plan, which must be a cache hit at the
//! new epoch.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use f1_components::{CatalogDelta, CatalogStore};
use f1_serve::protocol::{parse_request, top_body, write_response, Client, Request};
use f1_serve::{Durability, Server};
use f1_skyline::{KeepPoints, QueryPlan, Session};
use f1_store::durable::EPOCH_LOG_FILE;
use f1_store::{DurableOptions, DurableStore, SpillRecord};

use crate::stream::{self, delta_line, hot_plans, top_line, DeltaStream};
use crate::trace::span_medians;
use crate::workload::{
    connect, envelope, ms, repeat_setup, serve_config, serving_session, uncached, Env, Error,
    OpClock, TimedPhase, Traced, Untraced,
};

/// Plans in the hot set; each delta triggers this many background
/// repairs.
pub const HOT_PLANS: usize = 8;

/// The memo-cache cap: two epochs of the hot set.
const CACHE_CAPACITY: usize = 2 * HOT_PLANS;

/// How often the client polls the scheduler's repair counter. Each
/// poll is a wake-up whose CPU time lands in the cycle's; at this
/// interval a sweep of 5–10 ms sees a few dozen at most.
const REPAIR_POLL: Duration = Duration::from_micros(200);

/// Cycles after which the memory peaks are read. The store keeps every
/// epoch it publishes (about 27 KiB each here), so memory grows with the
/// cycles a run completes; reading it at a fixed count keeps the host's
/// speed out of it.
const PEAK_OPS: usize = 128;

/// How long a background sweep may take before the cycle fails.
const REPAIR_TIMEOUT: Duration = Duration::from_secs(60);

struct Rig {
    client: Client,
    server: Server,
    durable: Arc<DurableStore>,
    plans: Vec<QueryPlan>,
    deltas: DeltaStream,
    dir: PathBuf,
}

/// Opens (or recovers) a data directory whose genesis catalog is the
/// seed's synthesized one, with the shipped flush policy.
fn open_store(dir: &Path, env: &Env) -> Result<DurableStore, Error> {
    Ok(DurableStore::open(
        dir,
        || stream::catalog(env.seed, env.family),
        DurableOptions::default(),
    )?)
}

/// A fresh, empty data directory under the run's own directory.
fn fresh_dir(env: &Env, name: &str) -> Result<PathBuf, Error> {
    let dir = env.data_dir.join(name);
    match std::fs::remove_dir_all(&dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    Ok(dir)
}

/// Data-directory open (genesis synthesis, first snapshot) → durable
/// server start → one connection → every hot plan computed once, each
/// spilled write-behind with an fsync.
fn setup(env: &Env, rep: usize) -> Result<Rig, Error> {
    let dir = fresh_dir(env, &format!("churn-{rep}"))?;
    let durable = Arc::new(open_store(&dir, env)?);
    let session = Arc::new(serving_session(
        Arc::clone(durable.store()),
        Some(CACHE_CAPACITY),
    ));
    let catalog = session.catalog();
    let server = Server::start_durable(
        session,
        serve_config(),
        Durability {
            durable: Arc::clone(&durable),
            warm: HashMap::new(),
            replica: false,
        },
    )?;
    let mut client = connect(&server)?;
    let plans = hot_plans(&catalog, HOT_PLANS, KeepPoints::Auto);
    for plan in &plans {
        let (ok, body) = client.request(&top_line(plan))?;
        if !ok {
            return Err(format!("warm-up failed: {body}").into());
        }
    }
    Ok(Rig {
        client,
        server,
        durable,
        plans,
        deltas: DeltaStream::new(&catalog, env.seed),
        dir,
    })
}

/// Blocks until the scheduler has run `target` background repairs.
fn wait_for_repairs(server: &Server, target: u64) -> bool {
    let give_up = Instant::now() + REPAIR_TIMEOUT;
    while server.scheduler().stats().background_repairs < target {
        if Instant::now() > give_up {
            return false;
        }
        std::thread::sleep(REPAIR_POLL);
    }
    true
}

/// The `digest` field of a delta ack body.
fn ack_digest(body: &str) -> Option<u64> {
    body.split("\"digest\": ")
        .nth(1)?
        .split(',')
        .next()?
        .parse()
        .ok()
}

/// Whether a cycle's delta ack published `epoch` and every read was a
/// cache hit at it.
fn cycle_is_good(epoch: u64, ack: &(bool, String), reads: &[(bool, String)]) -> bool {
    let (ok, ack) = ack;
    *ok && ack.starts_with(&format!("{{\"epoch\": {epoch}, "))
        && ack_digest(ack).is_some_and(|digest| {
            let expected = envelope(epoch, digest, true);
            reads.len() == HOT_PLANS
                && reads
                    .iter()
                    .all(|(ok, body)| *ok && body.starts_with(&expected))
        })
}

/// The untraced run. Each cycle is checked as soon as its clocks are
/// read, and only the last cycle's reads are kept, so the process
/// holds the same data however many cycles a run completes.
///
/// # Errors
///
/// Set-up failures and failures to reopen the data directory.
pub fn untraced(env: &Env, setups: usize) -> Result<Untraced, Error> {
    let (mut rig, setup_times) = repeat_setup(setups, |rep| setup(env, rep))?;
    let mut run = Untraced::after(setup_times, PEAK_OPS);
    let reads: Vec<String> = rig.plans.iter().map(top_line).collect();
    let mut last_reads: Vec<(bool, String)> = Vec::new();
    let mut phases: [Vec<f64>; 3] = Default::default();
    let mut target = rig.server.scheduler().stats().background_repairs;
    let mut epoch = rig.durable.store().current().epoch().get();
    let phase = TimedPhase::start(&rig.server)?;
    let deadline = phase.started() + env.timed;
    'timed: while Instant::now() < deadline {
        let line = delta_line(&rig.deltas.next().ok_or("the delta stream is endless")?);
        run.attempted += 1;
        epoch += 1;
        let clock = OpClock::start()?;
        let sent = Instant::now();
        let ack = match rig.client.request(&line) {
            Ok(ack) => ack,
            Err(e) => {
                run.failed += 1;
                run.notes
                    .push(format!("delta for epoch {epoch} failed: {e}"));
                break;
            }
        };
        phases[0].push(ms(sent.elapsed()));
        target += HOT_PLANS as u64;
        let waiting = Instant::now();
        if !wait_for_repairs(&rig.server, target) {
            run.failed += 1;
            run.notes
                .push(format!("epoch {epoch}: background repair timed out"));
            break;
        }
        phases[1].push(ms(waiting.elapsed()));
        let reading = Instant::now();
        last_reads.clear();
        for line in &reads {
            match rig.client.request(line) {
                Ok(reply) => last_reads.push(reply),
                Err(e) => {
                    run.failed += 1;
                    run.notes.push(format!("epoch {epoch}: read failed: {e}"));
                    break 'timed;
                }
            }
        }
        phases[2].push(ms(reading.elapsed()));
        clock.record(&mut run)?;
        if !cycle_is_good(epoch, &ack, &last_reads) {
            run.failed += 1;
            run.notes
                .push(format!("epoch {epoch} failed its check: {:.120}", ack.1));
        }
    }
    phase.end(&rig.server, &mut run)?;
    run.notes.push(format!(
        "cycle phase medians: delta ack {:.3} ms, repair wait {:.3} ms, reads {:.3} ms",
        crate::stats::median(&phases[0]),
        crate::stats::median(&phases[1]),
        crate::stats::median(&phases[2])
    ));

    let live = rig.durable.store().current();
    let Rig {
        client,
        server,
        durable,
        plans,
        dir,
        ..
    } = rig;
    drop(client);
    server.join();
    drop((server, durable));

    // Restart path: the reopened directory recovers the live epoch and
    // digest, and a cold run there reproduces each repaired hot plan's
    // last answer.
    let reopened = open_store(&dir, env)?;
    let report = reopened.report();
    if (report.epoch, report.digest) != (live.epoch().get(), live.digest()) {
        run.failed += 1;
        run.notes.push(format!(
            "reopen recovered epoch {} digest {}, live was epoch {} digest {}",
            report.epoch,
            report.digest,
            live.epoch().get(),
            live.digest()
        ));
    }
    let cold = Session::over(Arc::clone(reopened.store()));
    let snapshot = reopened.store().current();
    for (plan, (_, served)) in plans.iter().zip(&last_reads) {
        if top_body(5, &*cold.run(plan)?, &snapshot, false) != uncached(served) {
            run.failed += 1;
            run.notes.push(format!(
                "a cold run differs from repaired plan {}",
                plan.key()
            ));
        }
    }
    Ok(run)
}

/// Bytes in the epoch log plus every snapshot past genesis.
fn store_bytes(dir: &Path) -> Result<u64, Error> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let genesis = f1_store::snapshot::snapshot_file_name(0);
        if name == EPOCH_LOG_FILE || (name.starts_with("snapshot-") && name != genesis) {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// The traced replay, with no scheduler so nothing races: per cycle
/// parse → `CatalogDelta::from_json` → durable `apply` (plus an
/// in-memory mirror apply) → per hot plan `refresh`, then the read's
/// parse → probe → `top_body` → `write_response` into a buffer. The
/// set-up's write-behind spills and a final reopen of the data
/// directory are timed too.
///
/// # Errors
///
/// Set-up failures and layer errors.
pub fn traced(env: &Env) -> Result<Traced, Error> {
    let dir = fresh_dir(env, "churn-traced")?;
    let durable = open_store(&dir, env)?;
    let genesis = durable.store().current();
    let mirror = CatalogStore::from_shared(Arc::clone(genesis.catalog()));
    let session = serving_session(Arc::clone(durable.store()), Some(CACHE_CAPACITY));
    let plans = hot_plans(genesis.catalog(), HOT_PLANS, KeepPoints::Auto);
    let reads: Vec<String> = plans.iter().map(top_line).collect();
    let mut deltas = DeltaStream::new(genesis.catalog(), env.seed);
    let snapshot_every = DurableOptions::default().snapshot_every;
    let spill = durable
        .spill_log()
        .ok_or("a primary store has a spill log")?;

    let mut out = Traced::default();
    let setup = out.trace.open("setup", 0, None);
    for plan in &plans {
        let result = session.run(plan)?;
        let record = SpillRecord {
            plan_key: plan.key().to_owned(),
            epoch: genesis.epoch().get(),
            digest: genesis.digest(),
            result_json: result.to_json(genesis.catalog()),
        };
        out.trace
            .time("store.spill", 0, setup, || spill.append(&record))
            .0?;
    }
    out.trace.close(setup);

    let deadline = Instant::now() + env.timed;
    let mut cycle = 0u64;
    while Instant::now() < deadline {
        cycle += 1;
        let line = delta_line(&deltas.next().ok_or("the delta stream is endless")?);
        let trace = &mut out.trace;
        let root = trace.open("op", cycle, None);
        let (request, parse_ns) =
            trace.time("protocol.parse", cycle, root, || parse_request(&line));
        let Ok(Request::Delta { json }) = request else {
            return Err(format!("{line:?} did not parse as a delta").into());
        };
        let (delta, delta_ns) = trace.time("components.delta_parse", cycle, root, || {
            CatalogDelta::from_json(&json)
        });
        let delta = delta?;
        let publish = if snapshot_every > 0 && cycle % snapshot_every == 0 {
            "store.snapshot"
        } else {
            "store.publish"
        };
        let (published, publish_ns) =
            trace.time(publish, cycle, root, || durable.store().apply(&delta));
        let published = published?;
        let mirrored = trace
            .time("components.apply", cycle, root, || mirror.apply(&delta))
            .0?;
        if mirrored.digest() != published.digest() {
            out.failed += 1;
            out.notes
                .push(format!("cycle {cycle}: mirror digest differs"));
        }
        let mut op_ns = parse_ns + delta_ns + publish_ns;
        for (plan, line) in plans.iter().zip(&reads) {
            let (refreshed, refresh_ns) =
                trace.time("repair.refresh", cycle, root, || session.refresh(plan));
            refreshed?;
            let (request, read_parse_ns) =
                trace.time("protocol.parse", cycle, root, || parse_request(line));
            let Ok(Request::Top { k, key }) = request else {
                return Err(format!("{line:?} did not parse as a top request").into());
            };
            let (hit, probe_ns) = trace.time("session.probe", cycle, root, || {
                session.cached_at(&key, published.epoch())
            });
            let result = hit.ok_or("a refreshed plan is not cached at the new epoch")?;
            let (body, render_ns) = trace.time("protocol.render_top", cycle, root, || {
                top_body(k, &result, &published, true)
            });
            let mut frame = Vec::with_capacity(body.len() + 16);
            let (written, frame_ns) = trace.time("protocol.frame", cycle, root, || {
                write_response(&mut frame, true, &body)
            });
            written?;
            op_ns += refresh_ns + read_parse_ns + probe_ns + render_ns + frame_ns;
        }
        trace.close(root);
        out.op_ms.push(op_ns as f64 / 1e6);
    }
    let live = durable.store().current();
    drop(session);
    drop(durable);
    let bytes = store_bytes(&dir)?;

    let open = out.trace.open("store.open", cycle + 1, None);
    let reopened = open_store(&dir, env);
    out.trace.close(open);
    let report = *reopened?.report();
    if (report.epoch, report.digest) != (live.epoch().get(), live.digest()) {
        out.failed += 1;
        out.notes
            .push("the reopened traced store lost epochs".to_owned());
    }
    span_medians(&out.trace, &mut out.ledger);
    out.ledger
        .insert("store.bytes_per_delta", bytes as f64 / cycle.max(1) as f64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_digest_reads_the_delta_body() {
        assert_eq!(
            ack_digest("{\"epoch\": 3, \"digest\": 12345, \"ops\": 1}\n"),
            Some(12345)
        );
        assert_eq!(ack_digest("{\"error\": {}}"), None);
    }
}
