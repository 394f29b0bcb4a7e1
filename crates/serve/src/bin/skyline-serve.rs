//! `skyline-serve` — skyline-as-a-service over TCP.
//!
//! ```sh
//! # serve the paper catalog on the default port
//! cargo run --release -p f1-serve --bin skyline-serve
//!
//! # serve a synthesized 10^5-candidate catalog with a 2 ms
//! # coalescing window
//! cargo run --release -p f1-serve --bin skyline-serve -- \
//!     --synth 47 --window-us 2000 --executors 2
//!
//! # talk to it (plan keys come from QueryPlan::key / the skyline CLI)
//! printf 'stats\n' | nc 127.0.0.1 7171
//!
//! # in-process smoke test: boots a server on an ephemeral port, runs
//! # a scripted client (miss, cache hit, delta, old/new epoch), exits
//! # nonzero on any mismatch — this is what CI's serve-smoke job runs
//! cargo run --release -p f1-serve --bin skyline-serve -- --self-test
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use f1_components::{Catalog, CatalogDelta, CatalogEpoch, CatalogStore};
use f1_serve::protocol::Client;
use f1_serve::{Durability, SchedulerConfig, ServeConfig, Server};
use f1_sim::SimHarness;
use f1_skyline::plan::QueryPlan;
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::Session;
use f1_store::{DurableOptions, DurableStore};
use f1_units::Watts;

/// Seed for `--synth` catalogs, fixed so runs are reproducible.
const SYNTH_SEED: u64 = 42;

/// How often a replica polls the primary's epoch log for new records.
const REPLICA_POLL: Duration = Duration::from_millis(25);

struct Args {
    addr: String,
    synth: Option<usize>,
    window_us: u64,
    queue: usize,
    max_batch: usize,
    executors: Option<usize>,
    max_frame: usize,
    cache_capacity: Option<usize>,
    data_dir: Option<PathBuf>,
    replica: bool,
    snapshot_every: u64,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let defaults = ServeConfig::default();
    let sched = SchedulerConfig::default();
    let mut args = Args {
        addr: defaults.addr,
        synth: None,
        window_us: sched.window.as_micros() as u64,
        queue: sched.queue_capacity,
        max_batch: sched.max_batch,
        executors: None,
        max_frame: defaults.max_frame,
        cache_capacity: None,
        data_dir: None,
        replica: false,
        snapshot_every: DurableOptions::default().snapshot_every,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        let parse = |name: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|_| format!("bad {name} value {v:?}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--synth" => {
                let n = parse("--synth", value("--synth")?)?;
                if n == 0 {
                    return Err("--synth needs at least 1 part per family".into());
                }
                args.synth = Some(n);
            }
            "--window-us" => args.window_us = parse("--window-us", value("--window-us")?)? as u64,
            "--queue" => {
                args.queue = parse("--queue", value("--queue")?)?;
                if args.queue == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--max-batch" => {
                args.max_batch = parse("--max-batch", value("--max-batch")?)?;
                if args.max_batch == 0 {
                    return Err("--max-batch must be at least 1".into());
                }
            }
            "--executors" => {
                let n = parse("--executors", value("--executors")?)?;
                if n == 0 {
                    return Err("--executors must be at least 1".into());
                }
                args.executors = Some(n);
            }
            "--max-frame" => args.max_frame = parse("--max-frame", value("--max-frame")?)?,
            "--cache-capacity" => {
                let n = parse("--cache-capacity", value("--cache-capacity")?)?;
                if n == 0 {
                    return Err("--cache-capacity must be at least 1".into());
                }
                args.cache_capacity = Some(n);
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--replica" => args.replica = true,
            "--snapshot-every" => {
                args.snapshot_every = parse("--snapshot-every", value("--snapshot-every")?)? as u64;
            }
            "--self-test" => args.self_test = true,
            "--help" | "-h" => {
                println!(
                    "skyline-serve — skyline-as-a-service over TCP\n\n\
                     usage:\n  skyline-serve [--addr HOST:PORT] [--synth N_PER_FAMILY]\n\
                     \x20              [--window-us MICROS] [--queue N] [--max-batch N]\n\
                     \x20              [--executors N] [--max-frame BYTES]\n\
                     \x20              [--cache-capacity N] [--self-test]\n\
                     \x20              [--data-dir DIR] [--replica] [--snapshot-every N]\n\n\
                     protocol (requests are single lines; responses are `ok|err NBYTES`\n\
                     then NBYTES of JSON):\n\
                     \x20 query <plan-key>     full result-set JSON at the current epoch\n\
                     \x20 top <k> <plan-key>   best k ranked builds (compact)\n\
                     \x20 delta <json>         apply a CatalogDelta document, new epoch\n\
                     \x20 stats                epoch + cache + scheduler counters\n\
                     \x20 ping                 liveness\n\
                     \x20 shutdown             stop the server\n\n\
                     --window-us 0 disables micro-batch coalescing (serial passes).\n\
                     --data-dir makes the catalog durable: every delta is appended to an\n\
                     \x20 fsynced epoch log before it publishes, snapshots are written every\n\
                     \x20 --snapshot-every epochs, results spill to disk, and a restart\n\
                     \x20 recovers to the exact pre-crash epoch (digest-verified).\n\
                     --replica follows another server's --data-dir read-only: it tails the\n\
                     \x20 epoch log, applies each delta, verifies the per-epoch digest, and\n\
                     \x20 shuts down on any divergence. delta requests are rejected.\n\
                     --self-test boots an in-process server on an ephemeral port, runs\n\
                     \x20 a scripted client session (including a durable restart leg in a\n\
                     \x20 scratch --data-dir) and exits nonzero on any mismatch."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn genesis_catalog(args: &Args) -> Catalog {
    match args.synth {
        Some(n) => Catalog::synthesize(SYNTH_SEED, n),
        None => Catalog::paper(),
    }
}

fn build_session(args: &Args) -> Arc<Session> {
    let store = Arc::new(CatalogStore::from_shared(Arc::new(genesis_catalog(args))));
    let mut session = Session::over(store).with_tier2(Arc::new(SimHarness::default()));
    if let Some(capacity) = args.cache_capacity {
        session = session.with_cache_capacity(capacity);
    }
    Arc::new(session)
}

/// Opens (or recovers) the data directory and builds the session over
/// the durable store, plus the digest-validated warm-cache map: a
/// spilled record is only trusted when the recovered store resolves its
/// epoch to the same catalog digest it was computed against.
fn build_durable(
    args: &Args,
    dir: &Path,
) -> Result<(Arc<Session>, Durability), Box<dyn std::error::Error>> {
    let options = DurableOptions {
        snapshot_every: args.snapshot_every,
        replica: args.replica,
    };
    let durable = Arc::new(DurableStore::open(dir, || genesis_catalog(args), options)?);
    let mut session =
        Session::over(Arc::clone(durable.store())).with_tier2(Arc::new(SimHarness::default()));
    if let Some(capacity) = args.cache_capacity {
        session = session.with_cache_capacity(capacity);
    }
    let mut warm = HashMap::new();
    for record in durable.load_spill()?.records {
        let Some(snapshot) = durable.store().at(CatalogEpoch::from_raw(record.epoch)) else {
            continue;
        };
        if snapshot.digest() == record.digest {
            warm.insert((record.plan_key, record.epoch), record.result_json);
        }
    }
    let durability = Durability {
        durable,
        warm,
        replica: args.replica,
    };
    Ok((Arc::new(session), durability))
}

/// The replica follower: tails the primary's epoch log, applies every
/// record through the scheduler, and verifies each resulting epoch and
/// digest against the record. Any divergence — a failed parse, a failed
/// apply, or a digest mismatch — shuts the replica down rather than
/// serve state that is not byte-identical to the primary's.
fn follow_primary(server: &Server, durable: &DurableStore) {
    let mut tail = durable.tail_reader();
    let diverged = |what: &str| {
        eprintln!("skyline-serve: replica diverged from primary log: {what}; shutting down");
        server.shutdown();
    };
    while !server.is_shutting_down() {
        let records = match tail.poll() {
            Ok(records) => records,
            Err(e) => {
                diverged(&e.to_string());
                return;
            }
        };
        for record in records {
            let applied = CatalogDelta::from_json(&record.delta_json)
                .and_then(|delta| server.scheduler().apply_delta(&delta));
            match applied {
                Ok(snapshot)
                    if snapshot.epoch().get() == record.epoch
                        && snapshot.digest() == record.digest => {}
                Ok(snapshot) => {
                    return diverged(&format!(
                        "epoch {} digest {} != logged epoch {} digest {}",
                        snapshot.epoch().get(),
                        snapshot.digest(),
                        record.epoch,
                        record.digest
                    ));
                }
                Err(e) => return diverged(&format!("epoch {}: {e}", record.epoch)),
            }
        }
        std::thread::sleep(REPLICA_POLL);
    }
}

fn serve_config(args: &Args, addr: &str) -> ServeConfig {
    let defaults = SchedulerConfig::default();
    ServeConfig {
        addr: addr.to_owned(),
        scheduler: SchedulerConfig {
            window: Duration::from_micros(args.window_us),
            queue_capacity: args.queue,
            max_batch: args.max_batch,
            executors: args.executors.unwrap_or(defaults.executors),
        },
        max_frame: args.max_frame,
        max_connections: 64,
        fault_injection: false,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;
    if args.replica && args.data_dir.is_none() {
        return Err("--replica requires --data-dir (the primary's directory)".into());
    }
    if args.self_test {
        return self_test(&args);
    }
    let (session, durability) = match &args.data_dir {
        Some(dir) => {
            let (session, durability) = build_durable(&args, dir)?;
            (session, Some(durability))
        }
        None => (build_session(&args), None),
    };
    let catalog = session.catalog();
    let candidates = catalog.airframe_active_count()
        * catalog.sensor_active_count()
        * catalog.compute_active_count()
        * catalog.algorithm_active_count();
    let config = serve_config(&args, &args.addr);
    let durable = durability.as_ref().map(|d| Arc::clone(&d.durable));
    let server = match durability {
        Some(durability) => {
            let report = durability.durable.report();
            println!(
                "skyline-serve: {} {} — recovered to epoch {} (digest {}), \
                 snapshot {}, {} delta(s) replayed, {} spilled result(s) re-warmed",
                if args.replica {
                    "replica over"
                } else {
                    "durable in"
                },
                durability.durable.dir().display(),
                report.epoch,
                report.digest,
                report
                    .snapshot_epoch
                    .map_or_else(|| "none".to_owned(), |e| format!("epoch {e}")),
                report.replayed_deltas,
                durability.warm.len(),
            );
            Server::start_durable(Arc::clone(&session), config.clone(), durability)?
        }
        None => Server::start(Arc::clone(&session), config.clone())?,
    };
    println!(
        "skyline-serve on {} — {} candidates @ {}, window {:?}, queue {}, \
         max-batch {}, executors {}",
        server.local_addr(),
        candidates,
        session.epoch(),
        config.scheduler.window,
        config.scheduler.queue_capacity,
        config.scheduler.max_batch,
        config.scheduler.executors,
    );
    println!("send `shutdown` (or ^C) to stop; `--help` shows the protocol");
    match durable.filter(|_| args.replica) {
        Some(durable) => follow_primary(&server, &durable),
        None => {
            while !server.is_shutting_down() {
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    server.join();
    println!("skyline-serve: shut down cleanly");
    Ok(())
}

/// The scripted smoke session CI runs: miss → hit → stats → delta →
/// old/new epoch → shutdown, all against an in-process server.
fn self_test(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut failures = 0usize;
    let mut check = |what: &str, ok: bool| {
        println!("{} {what}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };
    let session = build_session(args);
    let server = Server::start(Arc::clone(&session), serve_config(args, "127.0.0.1:0"))?;
    let mut client = Client::connect(server.local_addr())?;
    client.set_timeout(Some(Duration::from_secs(60)))?;

    let (ok, body) = client.request("ping")?;
    check("ping answers pong", ok && body.contains("\"pong\": true"));

    let plan = QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
        .constraint(Constraint::MaxTotalTdp(Watts::new(20.0)))
        .build()?;
    let key = plan.key();

    let (ok, cold) = client.request(&format!("query {key}"))?;
    check(
        "cold query computes at epoch 0",
        ok && cold.contains("\"epoch\": 0") && cold.contains("\"cached\": false"),
    );
    let (ok, warm) = client.request(&format!("query {key}"))?;
    check(
        "repeat query is a cache fast-path hit",
        ok && warm.contains("\"cached\": true"),
    );
    check(
        "hit body is bit-identical to the cold body",
        warm.replace("\"cached\": true", "\"cached\": false") == cold,
    );

    let (ok, stats) = client.request("stats")?;
    check(
        "stats reports the fast-path hit",
        ok && stats.contains("\"fast_path_hits\": 1") && stats.contains("\"admitted\": 1"),
    );

    let (ok, top) = client.request(&format!("top 3 {key}"))?;
    check(
        "top 3 answers from cache",
        ok && top.contains("\"cached\": true"),
    );

    let (ok, body) = client.request("query not.a.plan.key")?;
    check(
        "bad plan key is a structured error",
        !ok && body.contains("\"kind\": \"plan_key\""),
    );

    let delta = r#"{"throughput": [{"compute": "Nvidia TX2", "algorithm": "DroNet", "hz": 30.0}]}"#;
    let (ok, body) = client.request(&format!("delta {delta}"))?;
    check(
        "delta publishes epoch 1",
        ok && body.contains("\"epoch\": 1"),
    );

    let (ok, body) = client.request(&format!("query {key}"))?;
    check(
        "re-query answers at epoch 1",
        ok && body.contains("\"epoch\": 1"),
    );
    check(
        "epoch-1 answer differs from epoch-0",
        body != cold && body != warm,
    );

    let (ok, body) = client.request("shutdown")?;
    check(
        "shutdown acknowledges",
        ok && body.contains("\"shutting_down\": true"),
    );
    server.join();
    check("server joins cleanly", true);

    // ---- durable restart leg: boot a primary in a scratch data dir,
    // compute + mutate + shut down, then boot a second server over the
    // same directory and prove it recovered the exact epoch/digest and
    // serves the pre-shutdown plan byte-identically from the spill
    // without re-evaluating. ----
    let dir = std::env::temp_dir().join(format!("skyline-serve-selftest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (session_a, durability_a) = build_durable(args, &dir)?;
    let server_a = Server::start_durable(
        Arc::clone(&session_a),
        serve_config(args, "127.0.0.1:0"),
        durability_a,
    )?;
    let mut client_a = Client::connect(server_a.local_addr())?;
    client_a.set_timeout(Some(Duration::from_secs(60)))?;
    let (ok, body) = client_a.request(&format!("query {key}"))?;
    check(
        "durable cold query computes at epoch 0",
        ok && body.contains("\"epoch\": 0") && body.contains("\"cached\": false"),
    );
    let (ok, body) = client_a.request(&format!("delta {delta}"))?;
    check(
        "durable delta publishes epoch 1",
        ok && body.contains("\"epoch\": 1"),
    );
    let (ok, epoch1_body) = client_a.request(&format!("query {key}"))?;
    // (The scheduler's background repair may have brought the plan
    // forward already, so this can legitimately be a cache hit.)
    check(
        "durable re-query answers at epoch 1",
        ok && epoch1_body.contains("\"epoch\": 1"),
    );
    client_a.request("shutdown")?;
    server_a.join();
    drop(server_a);

    let (session_b, durability_b) = build_durable(args, &dir)?;
    check(
        "restart recovers the exact pre-shutdown epoch",
        durability_b.durable.report().epoch == 1,
    );
    check(
        "restart re-warms spilled results (digest-validated)",
        durability_b.warm.len() >= 2, // (key, epoch 0) and (key, epoch 1)
    );
    let server_b = Server::start_durable(
        Arc::clone(&session_b),
        serve_config(args, "127.0.0.1:0"),
        durability_b,
    )?;
    let mut client_b = Client::connect(server_b.local_addr())?;
    client_b.set_timeout(Some(Duration::from_secs(60)))?;
    let (ok, stats) = client_b.request("stats")?;
    check(
        "restarted stats reports the recovery",
        ok && stats.contains("\"replayed_deltas\": 1")
            && stats.contains("\"recovered_snapshot_epoch\": 0"),
    );
    let (ok, warm_body) = client_b.request(&format!("query {key}"))?;
    let normalize = |body: &str| body.replace("\"cached\": true", "\"cached\": false");
    check(
        "restarted query is served from the spill byte-identically",
        ok && warm_body.contains("\"cached\": true")
            && normalize(&warm_body) == normalize(&epoch1_body),
    );
    let (ok, stats) = client_b.request("stats")?;
    check(
        "spill hit bypassed evaluation entirely",
        ok && stats.contains("\"spill_hits\": 1") && stats.contains("\"admitted\": 0"),
    );
    client_b.request("shutdown")?;
    server_b.join();
    let _ = std::fs::remove_dir_all(&dir);

    if failures > 0 {
        Err(format!("self-test: {failures} check(s) failed").into())
    } else {
        println!("self-test: all checks passed");
        Ok(())
    }
}
