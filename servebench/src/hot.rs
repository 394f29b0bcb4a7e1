//! read_hot: dashboards and the Skyline tool re-reading a hot set.
//!
//! One closed-loop client reads 16 warmed frontier-only 4-objective
//! plans; one op in ten is a `query` for the full frontier document
//! (0.4–1.1 MB), the rest are `top 5`. Every op is a fast-path cache
//! hit — parse, probe, render, socket write — so the executor never
//! runs. A single client keeps each op's process CPU time its own: with
//! two, every op's CPU window would take in the other client's op.

use std::sync::Arc;
use std::time::Instant;

use f1_components::CatalogStore;
use f1_serve::protocol::{parse_request, query_body, top_body, write_response, Client, Request};
use f1_serve::Server;
use f1_skyline::{KeepPoints, QueryPlan, Session};

use crate::stats;
use crate::stream::{self, hot_plans, query_line, top_line, HotSchedule, Verb, QUERY_EVERY};
use crate::trace::span_medians;
use crate::workload::{
    connect, repeat_setup, serve_config, serving_session, Env, Error, OpClock, TimedPhase, Traced,
    Untraced,
};

/// Plans in the hot set.
pub const HOT_PLANS: usize = 16;

/// Ops after which the memory peaks are read: every frontier document
/// rendered twice.
const PEAK_OPS: usize = 2 * QUERY_EVERY as usize * HOT_PLANS;

/// Wire lines and expected bodies of one hot plan, indexed by verb.
type ByVerb = [String; 2];

fn verb_index(verb: Verb) -> usize {
    match verb {
        Verb::Top => 0,
        Verb::Query => 1,
    }
}

struct Rig {
    client: Client,
    server: Server,
    plans: Vec<QueryPlan>,
}

/// Catalog synthesis → server start → one connection → every hot plan
/// computed once (a cold pass each).
fn setup(env: &Env) -> Result<Rig, Error> {
    let catalog = Arc::new(stream::catalog(env.seed, env.family));
    let plans = hot_plans(&catalog, HOT_PLANS, KeepPoints::FrontierOnly);
    let store = Arc::new(CatalogStore::from_shared(catalog));
    let server = Server::start(Arc::new(serving_session(store, None)), serve_config())?;
    let mut client = connect(&server)?;
    for plan in &plans {
        let (ok, body) = client.request(&top_line(plan))?;
        if !ok {
            return Err(format!("warm-up failed: {body}").into());
        }
    }
    Ok(Rig {
        client,
        server,
        plans,
    })
}

/// Every hot plan's `top 5` and `query` body, rendered once in-process
/// from the cached result: what each served body must equal byte for
/// byte.
fn expected_bodies(session: &Session, plans: &[QueryPlan]) -> Result<Vec<ByVerb>, Error> {
    let snapshot = session.store().current();
    plans
        .iter()
        .map(|plan| {
            let result = session
                .cached_at(plan.key(), snapshot.epoch())
                .ok_or("a hot plan is not cached after warm-up")?;
            Ok([
                top_body(5, &result, &snapshot, true),
                query_body(&result, &snapshot, true),
            ])
        })
        .collect()
}

fn wire_lines(plans: &[QueryPlan]) -> Vec<ByVerb> {
    plans.iter().map(|p| [top_line(p), query_line(p)]).collect()
}

/// The untraced run. The client compares every body with the expected
/// one as it arrives, after the op's clocks are read; that comparison
/// is timed and taken out of the timed window.
///
/// # Errors
///
/// Set-up failures.
pub fn untraced(env: &Env, setups: usize) -> Result<Untraced, Error> {
    let (mut rig, setup_times) = repeat_setup(setups, |_| setup(env))?;
    let expected = expected_bodies(rig.server.session(), &rig.plans)?;
    let lines = wire_lines(&rig.plans);
    let mut run = Untraced::after(setup_times, PEAK_OPS);
    let mut schedule = HotSchedule::new(env.seed, HOT_PLANS);
    let mut check_s = 0.0;
    let phase = TimedPhase::start(&rig.server)?;
    let deadline = phase.started() + env.timed;
    while Instant::now() < deadline {
        let (verb, plan) = schedule.next().ok_or("the schedule is endless")?;
        let v = verb_index(verb);
        run.attempted += 1;
        let clock = OpClock::start()?;
        match rig.client.request(&lines[plan][v]) {
            Ok((ok, body)) => {
                clock.record(&mut run)?;
                let checking = Instant::now();
                if !(ok && body == expected[plan][v]) {
                    run.failed += 1;
                    run.notes.push(format!("plan {plan} answered {body:.120}"));
                }
                check_s += checking.elapsed().as_secs_f64();
            }
            Err(e) => {
                run.failed += 1;
                run.notes.push(format!("request failed: {e}"));
                break;
            }
        }
    }
    phase.end(&rig.server, &mut run)?;
    run.timed_s -= check_s;
    Ok(run)
}

/// The traced replay of the client's schedule: per op parse → probe →
/// `top_body`/`query_body` → `write_response` into a buffer.
///
/// # Errors
///
/// Set-up failures and layer errors.
pub fn traced(env: &Env) -> Result<Traced, Error> {
    let catalog = Arc::new(stream::catalog(env.seed, env.family));
    let plans = hot_plans(&catalog, HOT_PLANS, KeepPoints::FrontierOnly);
    let session = serving_session(Arc::new(CatalogStore::from_shared(catalog)), None);
    for plan in &plans {
        session.run(plan)?;
    }
    let expected = expected_bodies(&session, &plans)?;
    let lines = wire_lines(&plans);
    let snapshot = session.store().current();
    let epoch = snapshot.epoch();
    let mut schedule = HotSchedule::new(env.seed, HOT_PLANS);

    let mut out = Traced::default();
    let mut bytes = Vec::new();
    let deadline = Instant::now() + env.timed;
    let mut op = 0u64;
    while Instant::now() < deadline {
        let (verb, plan) = schedule.next().ok_or("the schedule is endless")?;
        let line = &lines[plan][verb_index(verb)];
        let trace = &mut out.trace;
        let root = trace.open("op", op, None);
        let (request, parse_ns) = trace.time("protocol.parse", op, root, || parse_request(line));
        let (k, key) = match request {
            Ok(Request::Top { k, key }) => (Some(k), key),
            Ok(Request::Query { key }) => (None, key),
            other => return Err(format!("{line:?} parsed as {other:?}").into()),
        };
        let (hit, probe_ns) =
            trace.time("session.probe", op, root, || session.cached_at(&key, epoch));
        let result = hit.ok_or("a hot plan fell out of the cache")?;
        let (body, render_ns) = match k {
            Some(k) => trace.time("protocol.render_top", op, root, || {
                top_body(k, &result, &snapshot, true)
            }),
            None => trace.time("protocol.render_query", op, root, || {
                query_body(&result, &snapshot, true)
            }),
        };
        let mut frame = Vec::with_capacity(body.len() + 16);
        let (written, frame_ns) = trace.time("protocol.frame", op, root, || {
            write_response(&mut frame, true, &body)
        });
        written?;
        trace.close(root);
        if body != expected[plan][verb_index(verb)] {
            out.failed += 1;
            out.notes
                .push(format!("traced op {op} rendered a different body"));
        }
        bytes.push(body.len() as f64);
        out.op_ms
            .push((parse_ns + probe_ns + render_ns + frame_ns) as f64 / 1e6);
        op += 1;
    }
    span_medians(&out.trace, &mut out.ledger);
    out.ledger
        .insert("protocol.body_kib", stats::mean(&bytes) / 1024.0);
    Ok(out)
}
