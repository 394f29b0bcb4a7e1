//! explore_cold: an architect's never-asked-before what-ifs.
//!
//! One closed-loop client sends never-seen 4-objective plans, each on
//! one airframe with its own TDP cap, so every request waits out the
//! scheduler window and runs its own pass over the airframe's 10⁵
//! candidates. The memo cache is capped at 32, far below the stream's
//! distinct plans, so every request misses.
//!
//! Requests are sent one at a time rather than in coalescing pairs: a
//! pair only shares a pass when both connection threads submit inside
//! the 2 ms window, and how many pairs split tracked the host's CPU
//! steal, which made the latency distribution bimodal run to run.

use std::sync::Arc;
use std::time::Instant;

use f1_components::{Catalog, CatalogStore, EpochSnapshot};
use f1_serve::protocol::{parse_request, top_body, write_response, Client, Request};
use f1_serve::{Scheduler, SchedulerConfig, Server};
use f1_skyline::{QueryPlan, ResultSet, Session};

use crate::stats;
use crate::stream::{self, sample_indices, top_line, ExploreStream};
use crate::trace::{span_medians, Trace};
use crate::workload::{
    connect, envelope, repeat_setup, serve_config, serving_session, Env, Error, OpClock,
    TimedPhase, Traced, Untraced,
};

/// The memo-cache cap (`--cache-capacity`).
const CACHE_CAPACITY: usize = 32;

/// Ops after which the memory peaks are read: the cache cap and half
/// again, so the cache has filled and evicted.
const PEAK_OPS: usize = 48;

/// Answers re-run on a fresh session by the output check.
const CHECKED_SAMPLE: usize = 4;

struct Rig {
    client: Client,
    server: Server,
    stream: ExploreStream,
}

/// Catalog synthesis → server start → one connection → one warm-up
/// plan (the same work for every seed).
fn setup(env: &Env) -> Result<Rig, Error> {
    let catalog = Arc::new(stream::catalog(env.seed, env.family));
    let mut stream = ExploreStream::new(&catalog, env.seed);
    let store = Arc::new(CatalogStore::from_shared(catalog));
    let server = Server::start(
        Arc::new(serving_session(store, Some(CACHE_CAPACITY))),
        serve_config(),
    )?;
    let mut client = connect(&server)?;
    let (ok, body) = client.request(&top_line(&stream.warm_up()))?;
    if !ok {
        return Err(format!("warm-up failed: {body}").into());
    }
    Ok(Rig {
        client,
        server,
        stream,
    })
}

/// The untraced run.
///
/// # Errors
///
/// Set-up failures.
pub fn untraced(env: &Env, setups: usize) -> Result<Untraced, Error> {
    let (mut rig, setup_times) = repeat_setup(setups, |_| setup(env))?;
    let mut run = Untraced::after(setup_times, PEAK_OPS);
    let mut sent: Vec<(QueryPlan, bool)> = Vec::new();
    let phase = TimedPhase::start(&rig.server)?;
    let deadline = phase.started() + env.timed;
    while Instant::now() < deadline {
        let plan = rig.stream.next().ok_or("the plan stream is endless")?;
        run.attempted += 1;
        let clock = OpClock::start()?;
        match rig.client.request(&top_line(&plan)) {
            Ok((ok, body)) => {
                clock.record(&mut run)?;
                run.answers.push(body);
                sent.push((plan, ok));
            }
            Err(e) => {
                run.failed += 1;
                run.notes
                    .push(format!("request {} failed: {e}", sent.len()));
                break;
            }
        }
    }
    phase.end(&rig.server, &mut run)?;

    // Output checks, outside the timed window: every answer is a fresh
    // pass at epoch 0, and a seeded sample re-run on a fresh session
    // reproduces its bytes.
    let snapshot = rig.server.session().store().current();
    let expected = envelope(snapshot.epoch().get(), snapshot.digest(), false);
    let fresh = Session::over(Arc::new(CatalogStore::from_shared(Arc::clone(
        snapshot.catalog(),
    ))));
    let sample = sample_indices(env.seed, sent.len(), CHECKED_SAMPLE);
    for (i, ((plan, ok), body)) in sent.iter().zip(&run.answers).enumerate() {
        let mut good = *ok && body.starts_with(&expected);
        if good && sample.binary_search(&i).is_ok() {
            good = top_body(5, &*fresh.run(plan)?, &snapshot, false) == *body;
        }
        if !good {
            run.failed += 1;
            run.notes
                .push(format!("answer {i} failed its check: {body:.120}"));
        }
    }
    Ok(run)
}

/// Candidates one single-airframe pass evaluates.
pub(crate) fn candidates_per_pass(catalog: &Catalog) -> f64 {
    (catalog.sensor_active_count()
        * catalog.compute_active_count()
        * catalog.algorithm_active_count()) as f64
}

/// The traced replay, per op: parse → probe → decode →
/// `run_batch_at` (the scheduler's call, with a batch of one) → the plan
/// resubmitted (now cached) through a scheduler to time the admission
/// window alone → `top_body` → `write_response` into a buffer.
///
/// # Errors
///
/// Set-up failures and layer errors.
pub fn traced(env: &Env, untraced: &Untraced) -> Result<Traced, Error> {
    let catalog = Arc::new(stream::catalog(env.seed, env.family));
    let mut stream = ExploreStream::new(&catalog, env.seed);
    let candidates = candidates_per_pass(&catalog);
    let session = Arc::new(serving_session(
        Arc::new(CatalogStore::from_shared(catalog)),
        Some(CACHE_CAPACITY),
    ));
    let scheduler = Scheduler::start(Arc::clone(&session), SchedulerConfig::default());
    let snapshot = session.store().current();
    let epoch = snapshot.epoch();
    session.run(&stream.warm_up())?;

    let mut out = Traced::default();
    let mut bytes = Vec::new();
    let deadline = Instant::now() + env.timed;
    let mut op = 0u64;
    while Instant::now() < deadline {
        let line = top_line(&stream.next().ok_or("the plan stream is endless")?);
        let trace = &mut out.trace;
        let root = trace.open("op", op, None);
        let (request, parse_ns) = trace.time("protocol.parse", op, root, || parse_request(&line));
        let Ok(Request::Top { key, .. }) = request else {
            return Err(format!("{line:?} did not parse as a top request").into());
        };
        let (probe, probe_ns) =
            trace.time("session.probe", op, root, || session.cached_at(&key, epoch));
        if probe.is_some() {
            out.failed += 1;
            out.notes
                .push(format!("never-seen plan {op} hit the cache"));
        }
        let (plan, decode_ns) = trace.time("plan.decode", op, root, || QueryPlan::from_key(&key));
        let plans = [plan?];
        let (results, execute_ns) = trace.time("session.execute", op, root, || {
            session.run_batch_at(&plans, epoch)
        });
        let result = results?.pop().ok_or("a batch of one returned no result")?;
        let (admitted, admit_ns) = trace.time("scheduler.admit_wait", op, root, || {
            resubmit(&scheduler, &plans[0], epoch)
        });
        if !Arc::ptr_eq(&admitted?, &result) {
            out.failed += 1;
            out.notes
                .push(format!("op {op}: resubmission was not a cache hit"));
        }
        let (body, render_ns, frame_ns) = render(trace, op, root, &result, &snapshot)?;
        trace.close(root);
        let answer = usize::try_from(op).unwrap_or(usize::MAX);
        if untraced.answers.get(answer).is_some_and(|a| *a != body) {
            out.failed += 1;
            out.notes.push(format!(
                "traced answer {answer} differs from the served one"
            ));
        }
        bytes.push(body.len() as f64);
        let op_ns = parse_ns + probe_ns + decode_ns + execute_ns + admit_ns + render_ns + frame_ns;
        out.op_ms.push(op_ns as f64 / 1e6);
        op += 1;
    }
    scheduler.shutdown();
    span_medians(&out.trace, &mut out.ledger);
    out.ledger
        .insert("protocol.body_kib", stats::mean(&bytes) / 1024.0);
    out.ledger.insert(
        "session.ns_per_candidate",
        out.trace.median_ns("session.execute") / candidates,
    );
    Ok(out)
}

/// Submits an already-cached plan through the scheduler and waits for
/// the reply: window plus hand-off, no execution.
pub(crate) fn resubmit(
    scheduler: &Scheduler,
    plan: &QueryPlan,
    epoch: f1_components::CatalogEpoch,
) -> Result<Arc<ResultSet>, Error> {
    let reply = scheduler
        .submit(plan.clone(), epoch)
        .map_err(|e| format!("scheduler refused a resubmission: {e:?}"))?;
    Ok(reply.recv()??)
}

/// `top_body` then `write_response` into a buffer, each as a span;
/// returns the body and both durations in ns.
pub(crate) fn render(
    trace: &mut Trace,
    op: u64,
    root: usize,
    result: &ResultSet,
    snapshot: &EpochSnapshot,
) -> Result<(String, u64, u64), Error> {
    let (body, render_ns) = trace.time("protocol.render_top", op, root, || {
        top_body(5, result, snapshot, false)
    });
    let mut frame = Vec::with_capacity(body.len() + 16);
    let (written, frame_ns) = trace.time("protocol.frame", op, root, || {
        write_response(&mut frame, true, &body)
    });
    written?;
    Ok((body, render_ns, frame_ns))
}
