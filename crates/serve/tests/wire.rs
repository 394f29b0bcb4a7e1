//! Wire-protocol conformance: malformed frames, oversized payloads,
//! structured errors on a live connection, admission control, and
//! epoch pinning under concurrent deltas.

use std::sync::Arc;
use std::time::Duration;

use f1_components::{AirframeId, Catalog, CatalogEpoch, CatalogStore};
use f1_serve::protocol::{self, Client};
use f1_serve::{SchedulerConfig, ServeConfig, Server};
use f1_skyline::plan::QueryPlan;
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::Session;
use f1_units::Watts;

fn store() -> Arc<CatalogStore> {
    Arc::new(CatalogStore::from_shared(Arc::new(Catalog::paper())))
}

fn start(config: ServeConfig) -> (Server, Arc<CatalogStore>) {
    let store = store();
    let session = Arc::new(Session::over(Arc::clone(&store)));
    let server = Server::start(session, config).expect("server starts");
    (server, store)
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    }
}

fn client(server: &Server) -> Client {
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    client
}

fn plan(cap: f64) -> QueryPlan {
    QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
        .constraint(Constraint::MaxTotalTdp(Watts::new(cap)))
        .build()
        .expect("plan builds")
}

#[test]
fn malformed_frames_answer_structured_errors_and_keep_the_connection() {
    let (server, _) = start(config());
    let mut c = client(&server);
    for (request, fragment) in [
        ("frobnicate now", "unknown verb"),
        ("query", "plan key"),
        ("top five key", "five"),
        ("top 0 key", "1..="),
        ("delta", "JSON"),
        ("", "empty"),
    ] {
        let (ok, body) = c.request(request).expect("response arrives");
        assert!(!ok, "{request:?} must fail");
        assert!(
            body.contains("\"kind\": \"protocol\"") && body.contains(fragment),
            "{request:?} => {body}"
        );
    }
    // The connection survived every malformed frame.
    let (ok, body) = c.request("ping").expect("connection is still alive");
    assert!(ok && body.contains("pong"));
    server.shutdown();
}

#[test]
fn unknown_plan_key_is_a_plan_key_error_not_a_dropped_connection() {
    let (server, _) = start(config());
    let mut c = client(&server);
    let (ok, body) = c.request("query definitely.not.a.key").expect("response");
    assert!(!ok);
    assert!(body.contains("\"kind\": \"plan_key\""), "{body}");
    // A plan that parses but references ids outside this catalog is a
    // distinct, pre-admission error: it never joins a batch.
    let alien = QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
        .airframes(&[AirframeId::from_index(99)])
        .build()
        .expect("plan builds without a catalog");
    let (ok, body) = c
        .request(&format!("query {}", alien.key()))
        .expect("response");
    assert!(!ok);
    assert!(body.contains("\"kind\": \"plan_catalog\""), "{body}");
    // A non-finite float in a key is a key error, not a handler panic
    // answered as `internal`.
    let key = plan(20.0).key().replacen("max_tdp=20.0", "max_tdp=inf", 1);
    let (ok, body) = c.request(&format!("query {key}")).expect("response");
    assert!(!ok);
    assert!(body.contains("\"kind\": \"plan_key\""), "{body}");
    let (ok, _) = c.request("stats").expect("connection is still alive");
    assert!(ok);
    server.shutdown();
}

#[test]
fn oversized_frames_are_rejected_then_the_connection_closes() {
    let mut cfg = config();
    cfg.max_frame = 1024;
    let (server, _) = start(cfg);
    let mut c = client(&server);
    let huge = format!("query {}\n", "x".repeat(4096));
    c.send(&huge).expect("send");
    let (ok, body) = c.read_response().expect("response");
    assert!(!ok);
    assert!(
        body.contains("\"kind\": \"protocol\"") && body.contains("1024"),
        "{body}"
    );
    // There is no way to resynchronize mid-frame: the server closes.
    let err = c.request("ping").expect_err("connection must be closed");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
        ),
        "unexpected error kind {:?}",
        err.kind()
    );
    server.shutdown();
}

#[test]
fn non_utf8_frames_are_protocol_errors() {
    let (server, _) = start(config());
    let mut c = client(&server);
    c.send_raw(b"query \xff\xfe\xfd\n").expect("send");
    let (ok, body) = c.read_response().expect("response");
    assert!(!ok);
    assert!(body.contains("not valid UTF-8"), "{body}");
    server.shutdown();
}

#[test]
fn malformed_delta_is_a_structured_delta_error() {
    let (server, _) = start(config());
    let mut c = client(&server);
    let (ok, body) = c
        .request("delta {\"add\": [this is not json]}")
        .expect("response");
    assert!(!ok);
    assert!(body.contains("\"kind\": \"delta\""), "{body}");
    // Unknown component names fail at apply time, same structured kind.
    let (ok, body) = c
        .request(r#"delta {"retire": {"compute": ["No Such Part"]}}"#)
        .expect("response");
    assert!(!ok);
    assert!(body.contains("\"kind\": \"delta\""), "{body}");
    // No epoch was published by either failure.
    let (ok, body) = c.request("stats").expect("response");
    assert!(ok && body.contains("\"epoch\": 0"), "{body}");
    server.shutdown();
}

#[test]
fn a_rate_whose_period_overflows_is_a_delta_error_and_publishes_nothing() {
    // 1e-310 Hz is positive, but its period 1/rate overflows to
    // infinity. Published, it made every later query over its part fail
    // inside the executor; it is now rejected at apply time.
    let (server, _) = start(config());
    let mut c = client(&server);
    for (delta, field) in [
        (
            r#"delta {"throughput": [{"compute": "Nvidia TX2", "algorithm": "DroNet", "hz": 1e-310}]}"#,
            "throughput",
        ),
        (
            r#"delta {"add": {"sensors": [{"name": "Slow", "modality": "rgb", "rate_hz": 1e-310, "range_m": 6, "mass_g": 18}]}}"#,
            "frame_rate",
        ),
        (
            r#"delta {"add": {"airframes": [{"name": "Slow", "base_mass_g": 900, "rotor_count": 4, "rotor_pull_gf": 500, "frame_size_mm": 500, "control_rate_hz": 1e-310}]}}"#,
            "control_rate",
        ),
    ] {
        let (ok, body) = c.request(delta).expect("response");
        assert!(!ok, "{body}");
        assert!(body.contains("\"kind\": \"delta\""), "{body}");
        assert!(body.contains(&format!("invalid field {field}: ")), "{body}");
    }
    let (ok, body) = c.request("stats").expect("response");
    assert!(ok && body.contains("\"epoch\": 0"), "{body}");
    // The default subspace, which covers the rejected pair, still
    // answers at the unmoved epoch.
    let (ok, body) = c
        .request(&format!("top 5 {}", plan(24.0).key()))
        .expect("response");
    assert!(ok && body.contains("\"epoch\": 0"), "{body}");
    server.shutdown();
}

#[test]
fn full_admission_queue_rejects_with_overloaded() {
    let mut cfg = config();
    // Capacity 1 and a long window: the first cold query occupies the
    // queue for the whole window, so a second cold query must bounce.
    cfg.scheduler = SchedulerConfig {
        window: Duration::from_millis(500),
        queue_capacity: 1,
        max_batch: 8,
        executors: 1,
    };
    let (server, _) = start(cfg);
    let mut first = client(&server);
    first
        .send(&format!("query {}", plan(20.0).key()))
        .expect("send");
    std::thread::sleep(Duration::from_millis(100));
    let mut second = client(&server);
    let (ok, body) = second
        .request(&format!("query {}", plan(21.0).key()))
        .expect("response");
    assert!(!ok, "second cold query must be rejected: {body}");
    assert!(body.contains("\"kind\": \"overloaded\""), "{body}");
    let (ok, _) = first.read_response().expect("first query completes");
    assert!(ok);
    server.shutdown();
}

#[test]
fn delta_mid_query_pins_the_admission_epoch_bit_identically() {
    let mut cfg = config();
    // A long window guarantees the delta lands while the query is
    // still collecting.
    cfg.scheduler.window = Duration::from_millis(300);
    let (server, store) = start(cfg);
    let p = plan(18.0);

    let mut querier = client(&server);
    querier.send(&format!("top 3 {}", p.key())).expect("send");
    std::thread::sleep(Duration::from_millis(60));

    let mut admin = client(&server);
    let (ok, body) = admin
        .request(r#"delta {"throughput": [{"compute": "Nvidia TX2", "algorithm": "DroNet", "hz": 31.0}]}"#)
        .expect("delta response");
    assert!(ok && body.contains("\"epoch\": 1"), "{body}");

    let (ok, got) = querier.read_response().expect("pinned query completes");
    assert!(ok, "{got}");
    assert!(
        got.contains("\"epoch\": 0"),
        "answer pinned to epoch 0: {got}"
    );

    // Byte-for-byte identical to a direct epoch-0 evaluation rendered
    // through the same serializer.
    let reference_session = Session::over(Arc::clone(&store));
    let epoch0 = CatalogEpoch::from_raw(0);
    let result = reference_session.run_at(&p, epoch0).expect("reference run");
    let snapshot = store.at(epoch0).expect("epoch 0 snapshot");
    let expected = protocol::top_body(3, &result, &snapshot, false);
    assert_eq!(got, expected, "old-epoch answer must be bit-identical");

    // A fresh query now answers at the new epoch.
    let (ok, fresh) = querier
        .request(&format!("top 3 {}", p.key()))
        .expect("response");
    assert!(ok && fresh.contains("\"epoch\": 1"), "{fresh}");
    server.shutdown();
}

#[test]
fn handler_panic_answers_err_internal_and_keeps_the_connection() {
    // Fault injection on: the literal frame `panic` panics inside the
    // connection handler. Containment must answer a structured
    // `err internal` frame and keep the connection usable.
    let (server, _) = start(ServeConfig {
        fault_injection: true,
        ..config()
    });
    let mut c = client(&server);
    let (ok, body) = c
        .request("panic")
        .expect("a structured response, not a drop");
    assert!(!ok, "a panicked handler must answer err: {body}");
    assert!(body.contains("\"kind\": \"internal\""), "{body}");
    assert!(body.contains("injected fault"), "{body}");
    // Same connection, next frame: fully alive, queries still work.
    let p = plan(26.0);
    let (ok, answer) = c.request(&format!("query {}", p.key())).expect("alive");
    assert!(ok, "{answer}");
    let (ok, pong) = c.request("ping").expect("alive");
    assert!(ok && pong.contains("pong"), "{pong}");
    server.shutdown();
}

#[test]
fn handler_panic_containment_repeats_per_frame() {
    // Every panicking frame is contained independently — no poisoned
    // state leaks from one contained panic to the next request.
    let (server, _) = start(ServeConfig {
        fault_injection: true,
        ..config()
    });
    let mut c = client(&server);
    for _ in 0..3 {
        let (ok, body) = c.request("panic").expect("structured response");
        assert!(!ok && body.contains("\"kind\": \"internal\""), "{body}");
        let (ok, pong) = c.request("ping").expect("alive between faults");
        assert!(ok && pong.contains("pong"), "{pong}");
    }
    // A second connection is unaffected by the first one's faults.
    let mut c2 = client(&server);
    let (ok, body) = c2.request("stats").expect("second connection works");
    assert!(ok, "{body}");
    server.shutdown();
}

#[test]
fn repeat_queries_hit_the_cache_fast_path() {
    let (server, _) = start(config());
    let p = plan(24.0);
    let mut c = client(&server);
    let (ok, cold) = c.request(&format!("query {}", p.key())).expect("cold");
    assert!(ok && cold.contains("\"cached\": false"), "{cold}");
    let (ok, warm) = c.request(&format!("query {}", p.key())).expect("warm");
    assert!(ok && warm.contains("\"cached\": true"), "{warm}");
    assert_eq!(
        warm.replace("\"cached\": true", "\"cached\": false"),
        cold,
        "cache hit must be bit-identical to the cold answer"
    );
    let stats = server.scheduler().stats();
    assert_eq!(stats.fast_path_hits, 1);
    assert_eq!(stats.admitted, 1);
    server.shutdown();
}
