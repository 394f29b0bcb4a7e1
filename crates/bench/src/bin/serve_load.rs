//! `serve_load` — load generator for `skyline-serve`.
//!
//! Boots an in-process [`f1_serve::Server`] over a synthesized
//! catalog, then drives it over real loopback TCP with four workloads
//! and writes the measured throughput/latency distributions as JSON
//! (the numbers recorded in `BENCH_serve.json`):
//!
//! * `hit_heavy`   — a warm plan set polled from C connections: the
//!   cache fast-path serving rate and its latency percentiles.
//! * `mixed`       — a cold start over K plans, uniform random: first
//!   touches miss (and coalesce), repeats hit; the sustained mixed
//!   hit/miss rate.
//! * `burst_miss`  — M same-signature cold plans fired simultaneously,
//!   makespan with the 2 ms micro-batch window vs a zero window (serial):
//!   what coalescing buys on an all-miss burst.
//! * `delta_under_load` — warm-set querying while throughput-patch
//!   deltas publish new epochs mid-stream, until every client has
//!   answered at the last epoch; asserts every epoch was answered and
//!   every repeated `(plan, epoch)` answer is byte-identical (epoch
//!   pinning), and reports the latency distribution across the epoch
//!   rolls.
//!
//! The JSON also records the host's core count.
//!
//! ```sh
//! cargo run --release -p f1-bench --bin serve_load -- --json BENCH_serve.json
//! cargo run --release -p f1-bench --bin serve_load -- --quick   # CI-sized
//! ```

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use f1_components::{Catalog, CatalogStore};
use f1_serve::protocol::Client;
use f1_serve::{SchedulerConfig, ServeConfig, Server};
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::Session;
use f1_units::Watts;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Seed matching the workspace's other synthetic-catalog artifacts.
const SYNTH_SEED: u64 = 42;

struct Args {
    synth: usize,
    connections: usize,
    requests_per_conn: usize,
    json: Option<String>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        synth: 47,
        connections: 8,
        requests_per_conn: 8000,
        json: None,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--synth" => {
                args.synth = value("--synth")?
                    .parse()
                    .map_err(|_| "bad --synth value".to_owned())?;
            }
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|_| "bad --connections value".to_owned())?;
            }
            "--requests" => {
                args.requests_per_conn = value("--requests")?
                    .parse()
                    .map_err(|_| "bad --requests value".to_owned())?;
            }
            "--json" => args.json = Some(value("--json")?),
            "--quick" => args.quick = true,
            "--help" | "-h" => {
                println!(
                    "serve_load — load generator for skyline-serve\n\n\
                     usage: serve_load [--synth N_PER_FAMILY] [--connections C]\n\
                     \x20                [--requests PER_CONN] [--json PATH] [--quick]\n\n\
                     Plans are single-airframe (N³ candidates) with KeepPoints::FrontierOnly\n\
                     — the bounded-memory serving shape. --quick shrinks the hit_heavy and\n\
                     mixed request counts ~10x for smoke runs."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.quick {
        args.requests_per_conn = (args.requests_per_conn / 10).max(50);
    }
    Ok(args)
}

/// Single-airframe plans differing only in TDP cap — same evaluation
/// signature, so cold bursts coalesce into shared passes. The serving
/// workloads use [`KeepPoints::FrontierOnly`] (bounded result, O(k)
/// `top` responses); the burst workload uses [`KeepPoints::Auto`]
/// (materialized at this scale), where the batch pass additionally
/// shares one skyline across the whole group.
fn make_plans(catalog: &Catalog, count: usize, keep: KeepPoints) -> Vec<QueryPlan> {
    let airframe = catalog
        .airframe_id("Synth Frame 000000")
        .expect("synth frame 0 exists");
    (0..count)
        .map(|i| {
            // Caps descend from 60 W; spacing keeps every plan's kept
            // set distinct.
            let cap = 60.0 - (i as f64) * (55.0 / count.max(2) as f64);
            QueryPlan::builder()
                .objectives(&[
                    Objective::SafeVelocity,
                    Objective::TotalTdp,
                    Objective::PayloadMass,
                    Objective::MissionEnergyWhPerKm,
                ])
                .constraint(Constraint::MaxTotalTdp(Watts::new(cap)))
                .airframes(&[airframe])
                .keep_points(keep)
                .build()
                .expect("plan builds")
        })
        .collect()
}

fn start_server(synth: usize, window: Duration) -> Server {
    let catalog = Arc::new(Catalog::synthesize(SYNTH_SEED, synth));
    let store = Arc::new(CatalogStore::from_shared(catalog));
    let session = Arc::new(Session::over(store));
    Server::start(
        session,
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            scheduler: SchedulerConfig {
                window,
                queue_capacity: 4096,
                max_batch: 64,
                executors: 2,
            },
            max_connections: 256,
            ..ServeConfig::default()
        },
    )
    .expect("server starts")
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let pos = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[pos.min(sorted_us.len() - 1)]
}

#[derive(Debug)]
struct Distribution {
    requests: usize,
    errors: u64,
    seconds: f64,
    qps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn distribution(mut latencies_us: Vec<u64>, errors: u64, elapsed: Duration) -> Distribution {
    latencies_us.sort_unstable();
    let seconds = elapsed.as_secs_f64();
    Distribution {
        requests: latencies_us.len(),
        errors,
        seconds,
        qps: latencies_us.len() as f64 / seconds,
        p50_us: percentile(&latencies_us, 0.50),
        p95_us: percentile(&latencies_us, 0.95),
        p99_us: percentile(&latencies_us, 0.99),
        max_us: latencies_us.last().copied().unwrap_or(0),
    }
}

impl Distribution {
    fn to_json(&self, indent: &str) -> String {
        format!(
            "{{\n{indent}  \"requests\": {}, \"errors\": {}, \"seconds\": {:.3},\n\
             {indent}  \"qps\": {:.0}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"max_us\": {}\n{indent}}}",
            self.requests,
            self.errors,
            self.seconds,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us
        )
    }
}

/// Fans `requests_per_conn` randomized `top 5` requests over
/// `connections` clients against `plans`, returning the merged latency
/// distribution.
fn fan_out(
    server: &Server,
    plans: &[QueryPlan],
    connections: usize,
    requests_per_conn: usize,
) -> Distribution {
    let addr = server.local_addr();
    let errors = AtomicU64::new(0);
    let start = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let errors = &errors;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xF1F1 + c as u64);
                    let mut client = Client::connect(addr).expect("client connects");
                    client
                        .set_timeout(Some(Duration::from_secs(120)))
                        .expect("timeout");
                    let mut local = Vec::with_capacity(requests_per_conn);
                    for _ in 0..requests_per_conn {
                        let plan = &plans[rng.gen_range(0..plans.len())];
                        let t0 = Instant::now();
                        let (ok, _) = client
                            .request(&format!("top 5 {}", plan.key()))
                            .expect("response");
                        local.push(t0.elapsed().as_micros() as u64);
                        if !ok {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    distribution(latencies, errors.load(Ordering::Relaxed), start.elapsed())
}

/// Workload 1: every plan pre-warmed, so the fan-out measures the cache
/// fast-path serving rate.
fn hit_heavy(args: &Args, out: &mut String) {
    let server = start_server(args.synth, Duration::from_millis(2));
    let plans = make_plans(&server.session().catalog(), 16, KeepPoints::FrontierOnly);
    let mut warmer = Client::connect(server.local_addr()).expect("warmer connects");
    warmer
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    for plan in &plans {
        let (ok, _) = warmer
            .request(&format!("top 5 {}", plan.key()))
            .expect("warm-up");
        assert!(ok);
    }
    let dist = fan_out(&server, &plans, args.connections, args.requests_per_conn);
    let stats = server.scheduler().stats();
    println!(
        "hit_heavy: {} requests, {:.0} qps, p50 {} µs, p99 {} µs ({} fast-path hits)",
        dist.requests, dist.qps, dist.p50_us, dist.p99_us, stats.fast_path_hits
    );
    out.push_str(&format!(
        "  \"hit_heavy\": {{\n    \"plans\": {}, \"connections\": {},\n    \
         \"fast_path_hits\": {}, \"admitted\": {},\n    \"latency\": {}\n  }},\n",
        plans.len(),
        args.connections,
        stats.fast_path_hits,
        stats.admitted,
        dist.to_json("    ")
    ));
    server.shutdown();
}

/// Workload 2: cold start over K plans, uniform random — the acceptance
/// mixed hit/miss rate over a 10^5-candidate catalog.
fn mixed(args: &Args, out: &mut String) {
    let server = start_server(args.synth, Duration::from_millis(2));
    let plans = make_plans(&server.session().catalog(), 64, KeepPoints::FrontierOnly);
    let dist = fan_out(&server, &plans, args.connections, args.requests_per_conn);
    let stats = server.scheduler().stats();
    println!(
        "mixed: {} requests over {} cold plans, {:.0} qps, p50 {} µs, p99 {} µs \
         ({} hits / {} misses admitted, {} coalesced into {} batches)",
        dist.requests,
        plans.len(),
        dist.qps,
        dist.p50_us,
        dist.p99_us,
        stats.fast_path_hits,
        stats.admitted,
        stats.coalesced,
        stats.batches
    );
    out.push_str(&format!(
        "  \"mixed\": {{\n    \"plans\": {}, \"connections\": {},\n    \
         \"fast_path_hits\": {}, \"admitted_misses\": {}, \"coalesced\": {}, \
         \"batches\": {}, \"max_batch\": {},\n    \"latency\": {}\n  }},\n",
        plans.len(),
        args.connections,
        stats.fast_path_hits,
        stats.admitted,
        stats.coalesced,
        stats.batches,
        stats.max_batch,
        dist.to_json("    ")
    ));
    server.shutdown();
}

/// Fires `burst` same-signature cold plans simultaneously and returns
/// the makespan (barrier release → last response).
fn burst_makespan(server: &Server, plans: &[QueryPlan]) -> Duration {
    let addr = server.local_addr();
    let barrier = Barrier::new(plans.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    client
                        .set_timeout(Some(Duration::from_secs(300)))
                        .expect("timeout");
                    barrier.wait();
                    let (ok, body) = client
                        .request(&format!("top 5 {}", plan.key()))
                        .expect("response");
                    assert!(ok, "{body}");
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            handle.join().expect("burst client");
        }
        start.elapsed()
    })
}

/// Workload 3: an all-miss burst with the coalescing window vs the
/// serial (`window = 0`) baseline — fresh servers per arm so every
/// request is cold.
fn burst_miss(args: &Args, out: &mut String) {
    let burst = 16;
    let mut arms = Vec::new();
    for (label, window) in [
        ("coalesced_2ms", Duration::from_millis(2)),
        ("serial_window0", Duration::ZERO),
    ] {
        // Best of two rounds absorbs scheduler warm-up jitter; each
        // round uses fresh caps so every query is a true miss.
        let mut best = Duration::MAX;
        let mut stats_repr = String::new();
        for round in 0..2 {
            let server = start_server(args.synth, window);
            let catalog = server.session().catalog();
            let all = make_plans(&catalog, burst * 2, KeepPoints::Auto);
            let plans = &all[round * burst..(round + 1) * burst];
            let elapsed = burst_makespan(&server, plans);
            if elapsed < best {
                best = elapsed;
            }
            let stats = server.scheduler().stats();
            stats_repr = format!(
                "\"batches\": {}, \"coalesced\": {}, \"max_batch\": {}",
                stats.batches, stats.coalesced, stats.max_batch
            );
            server.shutdown();
        }
        println!(
            "burst_miss/{label}: {burst} cold queries in {:.1} ms ({stats_repr})",
            best.as_secs_f64() * 1e3
        );
        arms.push(format!(
            "    \"{label}\": {{\"burst\": {burst}, \"makespan_ms\": {:.1}, {stats_repr}}}",
            best.as_secs_f64() * 1e3
        ));
    }
    out.push_str(&format!(
        "  \"burst_miss\": {{\n{}\n  }},\n",
        arms.join(",\n")
    ));
}

/// The epoch a response body answered at (its leading `"epoch"` field).
fn epoch_of(body: &str) -> u64 {
    body.split("\"epoch\": ")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse().ok())
        .expect("epoch in body")
}

/// Publishes `deltas` throughput patches 300 ms apart over one admin
/// connection and returns the epoch the last one published.
fn publish_deltas(addr: SocketAddr, deltas: usize) -> io::Result<u64> {
    let mut admin = Client::connect(addr)?;
    admin.set_timeout(Some(Duration::from_secs(120)))?;
    let mut epoch = 0;
    for i in 0..deltas {
        std::thread::sleep(Duration::from_millis(300));
        let delta = format!(
            r#"delta {{"throughput": [{{"compute": "Synth Compute 000001", "algorithm": "Synth Algorithm 000002", "hz": {}.0}}]}}"#,
            40 + i
        );
        let (ok, body) = admin.request(&delta)?;
        if !ok {
            return Err(io::Error::other(body));
        }
        epoch = epoch_of(&body);
    }
    Ok(epoch)
}

/// Workload 4: warm-set querying while throughput-patch deltas publish
/// new epochs. Every client keeps querying until it has answered at the
/// last delta's epoch, so every epoch is answered, and every repeated
/// `(plan key, epoch)` response must be byte-identical (modulo the
/// `cached` flag) — epoch pinning under load, measured over loopback.
fn delta_under_load(args: &Args, out: &mut String) {
    let server = start_server(args.synth, Duration::from_millis(2));
    let plans = make_plans(&server.session().catalog(), 8, KeepPoints::FrontierOnly);
    let addr = server.local_addr();
    let connections = args.connections.min(4);
    let deltas = 6usize;
    // Until the admin publishes the last delta, no epoch ends a client;
    // a failed admin stores 0 so that every client stops.
    let final_epoch = AtomicU64::new(u64::MAX);
    let mismatches = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let epochs_seen = Mutex::new(BTreeSet::new());

    let start = Instant::now();
    let (latencies, elapsed) = std::thread::scope(|scope| {
        let admin = scope.spawn(|| {
            let published = publish_deltas(addr, deltas);
            final_epoch.store(*published.as_ref().unwrap_or(&0), Ordering::SeqCst);
            published
        });
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (plans, final_epoch) = (&plans, &final_epoch);
                let (mismatches, errors, epochs_seen) = (&mismatches, &errors, &epochs_seen);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xDE17A + c as u64);
                    let mut client = Client::connect(addr).expect("client connects");
                    client
                        .set_timeout(Some(Duration::from_secs(120)))
                        .expect("timeout");
                    // (plan index, epoch) → first body seen, normalized.
                    let mut seen: HashMap<(usize, u64), String> = HashMap::new();
                    let mut local = Vec::new();
                    loop {
                        let i = rng.gen_range(0..plans.len());
                        let t0 = Instant::now();
                        let (ok, body) = client
                            .request(&format!("top 5 {}", plans[i].key()))
                            .expect("response");
                        local.push(t0.elapsed().as_micros() as u64);
                        if !ok {
                            errors.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let epoch = epoch_of(&body);
                        epochs_seen.lock().expect("set lock").insert(epoch);
                        let normalized = body.replace("\"cached\": true", "\"cached\": false");
                        if let Some(first) = seen.get(&(i, epoch)) {
                            if *first != normalized {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            seen.insert((i, epoch), normalized);
                        }
                        if epoch >= final_epoch.load(Ordering::SeqCst) {
                            return local;
                        }
                    }
                })
            })
            .collect();
        let latencies: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        // The clients' own window; they outlast the admin's last delta.
        let elapsed = start.elapsed();
        admin
            .join()
            .expect("admin thread")
            .expect("every delta applies");
        (latencies, elapsed)
    });
    let dist = distribution(latencies, errors.load(Ordering::Relaxed), elapsed);
    let stats = server.scheduler().stats();
    let epochs = epochs_seen.lock().expect("set lock").len();
    let mismatches = mismatches.load(Ordering::Relaxed);
    assert_eq!(
        mismatches, 0,
        "epoch-pinned answers must be byte-identical under delta load"
    );
    assert_eq!(
        epochs,
        deltas + 1,
        "every published epoch must be answered under delta load"
    );
    println!(
        "delta_under_load: {} requests across {epochs} of {} epochs while {} deltas applied, \
         {:.0} qps, p99 {} µs, max {} µs, 0 mismatches, {} background repairs",
        dist.requests,
        deltas + 1,
        stats.deltas_applied,
        dist.qps,
        dist.p99_us,
        dist.max_us,
        stats.background_repairs
    );
    out.push_str(&format!(
        "  \"delta_under_load\": {{\n    \"plans\": {}, \"connections\": {connections}, \
         \"deltas_applied\": {}, \"epochs_answered\": {epochs},\n    \
         \"byte_identity_mismatches\": {mismatches}, \"background_repairs\": {},\n    \
         \"latency\": {}\n  }}\n",
        plans.len(),
        stats.deltas_applied,
        stats.background_repairs,
        dist.to_json("    ")
    ));
    server.shutdown();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;
    let candidates = args.synth * args.synth * args.synth;
    println!(
        "serve_load: synth {} ({} candidates on one airframe), {} connections, \
         {} requests/connection{}",
        args.synth,
        candidates,
        args.connections,
        args.requests_per_conn,
        if args.quick { " (quick)" } else { "" }
    );
    let mut body = String::new();
    hit_heavy(&args, &mut body);
    mixed(&args, &mut body);
    burst_miss(&args, &mut body);
    delta_under_load(&args, &mut body);
    // The host's core count: server, executor and client threads share it.
    let cores =
        std::thread::available_parallelism().map_or_else(|_| "null".to_owned(), |n| n.to_string());
    let json = format!(
        "{{\n  \"bench\": \"crates/bench/src/bin/serve_load.rs\",\n  \
         \"command\": \"cargo run --release -p f1-bench --bin serve_load\",\n  \
         \"available_parallelism\": {cores},\n  \
         \"synth_per_family\": {},\n  \"candidates_per_airframe\": {candidates},\n\
         {body}}}\n",
        args.synth
    );
    if let Some(path) = args.json.as_deref() {
        std::fs::write(path, &json)?;
        println!("wrote {path}");
    } else {
        println!("{json}");
    }
    Ok(())
}
