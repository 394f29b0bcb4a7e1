//! verify_tier2: the paper's validation loop, and the only workload
//! that reaches `f1-sim`, `f1-flightsim` and `f1-pipeline`.
//!
//! One closed-loop client sends never-seen plans with two analytic
//! objectives plus `MissionRobustness { trials: 32 }` and
//! `PipelineP99Latency` (survivor budget 16): a tier-1 pass over one
//! airframe's 10⁴ candidates, then flight and pipeline simulation of
//! the survivors. The memo cache is capped at 32.

use std::sync::Arc;
use std::time::Instant;

use f1_components::CatalogStore;
use f1_serve::protocol::{parse_request, Client, Request};
use f1_serve::{Scheduler, SchedulerConfig, Server};
use f1_sim::SimHarness;
use f1_skyline::{QueryPlan, Session, Tier2Context, Tier2Evaluator};

use crate::explore::{candidates_per_pass, render, resubmit};
use crate::stats;
use crate::stream::{self, sample_indices, top_line, VerifyStream};
use crate::trace::span_medians;
use crate::workload::{
    connect, envelope, repeat_setup, serve_config, serving_session, Env, Error, OpClock,
    TimedPhase, Traced, Untraced,
};

/// The memo-cache cap (`--cache-capacity`).
const CACHE_CAPACITY: usize = 32;

/// Ops after which the memory peaks are read: the cache cap and half
/// again, so the cache has filled and evicted.
const PEAK_OPS: usize = 48;

/// Answers re-run on a fresh session by the output check, drawn from
/// the last [`CACHE_CAPACITY`] so the served result is still cached.
const CHECKED_SAMPLE: usize = 4;

/// The traced ops the exact survivor and trial counts are taken over:
/// a fixed prefix of the stream, so the counts repeat for a seed.
const COUNTED_PREFIX: usize = 16;

struct Rig {
    client: Client,
    server: Server,
    stream: VerifyStream,
}

/// Catalog synthesis → server start → one connection → one warm-up
/// request (the same work for every seed).
fn setup(env: &Env) -> Result<Rig, Error> {
    let catalog = Arc::new(stream::catalog(env.seed, env.family));
    let mut stream = VerifyStream::new(&catalog, env.seed);
    let store = Arc::new(CatalogStore::from_shared(catalog));
    let server = Server::start(
        Arc::new(serving_session(store, Some(CACHE_CAPACITY))),
        serve_config(),
    )?;
    let mut client = connect(&server)?;
    let warm = stream.warm_up();
    let (ok, body) = client.request(&top_line(&warm.plan))?;
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
        let op = rig.stream.next().ok_or("the plan stream is endless")?;
        let line = top_line(&op.plan);
        run.attempted += 1;
        let clock = OpClock::start()?;
        match rig.client.request(&line) {
            Ok((ok, body)) => {
                clock.record(&mut run)?;
                run.answers.push(body);
                sent.push((op.plan, ok));
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
    // pass at epoch 0; a seeded sample re-run on a fresh tier-2 session
    // reproduces the `top 5` bytes and the served result's sim block.
    let session = rig.server.session();
    let snapshot = session.store().current();
    let expected = envelope(snapshot.epoch().get(), snapshot.digest(), false);
    let fresh = serving_session(
        Arc::new(CatalogStore::from_shared(Arc::clone(snapshot.catalog()))),
        None,
    );
    let recent = sent.len().saturating_sub(CACHE_CAPACITY);
    let sample: Vec<usize> = sample_indices(env.seed, sent.len() - recent, CHECKED_SAMPLE)
        .into_iter()
        .map(|i| i + recent)
        .collect();
    for (i, ((plan, ok), body)) in sent.iter().zip(&run.answers).enumerate() {
        let mut good = *ok && body.starts_with(&expected);
        if good && sample.binary_search(&i).is_ok() {
            let rerun = fresh.run(plan)?;
            let served = session.cached(plan.key());
            good = f1_serve::protocol::top_body(5, &rerun, &snapshot, false) == *body
                && served.is_some_and(|s| s.sim() == rerun.sim() && rerun.sim().is_some());
        }
        if !good {
            run.failed += 1;
            run.notes
                .push(format!("answer {i} failed its check: {body:.120}"));
        }
    }
    Ok(run)
}

/// The traced replay: per op parse → probe → decode → the tier-1 twin
/// plan via `Session::run` → `SimHarness::evaluate` with the decoded
/// tier-2 plan (its seeds derive from that plan's key, so this is the
/// session's tier-2 work exactly) → the twin resubmitted (now cached)
/// through a scheduler to time the admission window → `top_body` →
/// `write_response` into a buffer.
///
/// # Errors
///
/// Set-up failures and layer errors.
pub fn traced(env: &Env, untraced: &Untraced) -> Result<Traced, Error> {
    let catalog = Arc::new(stream::catalog(env.seed, env.family));
    let mut stream = VerifyStream::new(&catalog, env.seed);
    let candidates = candidates_per_pass(&catalog);
    let session = Arc::new(
        Session::over(Arc::new(CatalogStore::from_shared(catalog)))
            .with_cache_capacity(CACHE_CAPACITY),
    );
    let harness = SimHarness::default();
    let scheduler = Scheduler::start(Arc::clone(&session), SchedulerConfig::default());
    let snapshot = session.store().current();
    let epoch = snapshot.epoch();
    let warm = stream.warm_up();
    session.run(&warm.twin)?;

    let mut out = Traced::default();
    let mut bytes = Vec::new();
    let (mut survivors, mut trials) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + env.timed;
    let mut op = 0u64;
    while survivors.len() < COUNTED_PREFIX || Instant::now() < deadline {
        let next = stream.next().ok_or("the plan stream is endless")?;
        let line = top_line(&next.plan);
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
        let plan = plan?;
        let (tier1, execute_ns) =
            trace.time("session.execute", op, root, || session.run(&next.twin));
        let tier1 = tier1?;
        let (evaluation, sim_ns) = trace.time("sim.evaluate", op, root, || {
            harness.evaluate(&Tier2Context {
                catalog: snapshot.catalog(),
                plan: &plan,
                result: &tier1,
                prior: None,
            })
        });
        let evaluation = evaluation?;
        let (admitted, admit_ns) = trace.time("scheduler.admit_wait", op, root, || {
            resubmit(&scheduler, &next.twin, epoch)
        });
        if !Arc::ptr_eq(&admitted?, &tier1) {
            out.failed += 1;
            out.notes
                .push(format!("op {op}: resubmission was not a cache hit"));
        }
        let (body, render_ns, frame_ns) = render(trace, op, root, &tier1, &snapshot)?;
        trace.close(root);
        let answer = usize::try_from(op).unwrap_or(usize::MAX);
        if untraced.answers.get(answer).is_some_and(|a| *a != body) {
            out.failed += 1;
            out.notes.push(format!(
                "traced answer {answer} differs from the served one"
            ));
        }
        bytes.push(body.len() as f64);
        survivors.push(evaluation.block.rows.len() as f64);
        trials.push(evaluation.usage.trials as f64);
        let op_ns =
            parse_ns + probe_ns + decode_ns + execute_ns + sim_ns + admit_ns + render_ns + frame_ns;
        out.op_ms.push(op_ns as f64 / 1e6);
        op += 1;
    }
    scheduler.shutdown();
    span_medians(&out.trace, &mut out.ledger);
    let sim_ns = out.trace.total_ns("sim.evaluate");
    let ledger = &mut out.ledger;
    ledger.insert("protocol.body_kib", stats::mean(&bytes) / 1024.0);
    ledger.insert(
        "session.ns_per_candidate",
        out.trace.median_ns("session.execute") / candidates,
    );
    ledger.insert(
        "sim.survivors_per_op",
        stats::mean(&survivors[..COUNTED_PREFIX]),
    );
    ledger.insert("sim.trials_per_op", stats::mean(&trials[..COUNTED_PREFIX]));
    ledger.insert(
        "sim.us_per_trial",
        sim_ns / 1e3 / trials.iter().sum::<f64>().max(1.0),
    );
    Ok(out)
}
