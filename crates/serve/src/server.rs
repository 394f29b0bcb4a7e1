//! The TCP server: a nonblocking accept loop, a capped pool of
//! connection threads, and per-request dispatch into the
//! [`Scheduler`].
//!
//! Concurrency is hand-rolled on `std` only (no async runtime — the
//! workspace builds offline): the listener is nonblocking and polled by
//! one accept thread; each connection gets a thread with a short read
//! timeout so it can notice shutdown between frames; request execution
//! is delegated to the scheduler's executor pool, so a connection
//! thread only parses, probes the cache, and waits on its reply
//! channel.
//!
//! Every `query`/`top` request is answered **at its admission epoch**:
//! the handler snapshots the store before probing the cache or
//! submitting, and serializes the body against that snapshot's catalog.
//! A delta published while the request is in flight never changes its
//! answer.

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use f1_components::CatalogDelta;
use f1_skyline::plan::QueryPlan;
use f1_skyline::session::Session;
use f1_store::{DurableStore, SpillRecord};

use crate::protocol::{
    self, error_body, error_kind_for, parse_request, write_response, ErrorKind, Request,
    DEFAULT_MAX_FRAME,
};
use crate::scheduler::{Scheduler, SchedulerConfig, SubmitError};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks an ephemeral
    /// port — read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Scheduler knobs (micro-batch window, queue bound, executors).
    pub scheduler: SchedulerConfig,
    /// Largest request frame accepted, in bytes.
    pub max_frame: usize,
    /// Most simultaneous connections; extras get a structured
    /// `overloaded` error and are closed.
    pub max_connections: usize,
    /// Test-only fault injection: when set, the literal frame `panic`
    /// panics the connection handler, exercising the containment path
    /// (the panic is caught, the connection answers a structured
    /// `err internal` frame and stays open). Never enable on a real
    /// server.
    pub fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_owned(),
            scheduler: SchedulerConfig::default(),
            max_frame: DEFAULT_MAX_FRAME,
            max_connections: 64,
            fault_injection: false,
        }
    }
}

/// Durable-serving wiring handed to [`Server::start_durable`]: the
/// recovered store (its [`EpochSink`](f1_components::EpochSink) already
/// attached on a primary) plus the warm-cache map restored from the
/// spill. The caller builds `warm` from
/// [`DurableStore::load_spill`], keeping only records whose digest
/// matches the recovered epoch's — the server trusts the map as
/// pre-validated.
#[derive(Debug)]
pub struct Durability {
    /// The recovered durable store (shares the session's `CatalogStore`).
    pub durable: Arc<DurableStore>,
    /// Digest-validated spilled bodies by `(plan key, epoch)` — served
    /// byte-identically on a `query` cache miss without re-evaluating.
    pub warm: HashMap<(String, u64), String>,
    /// Read-only log-following replica: `delta` requests are rejected
    /// and nothing is spilled.
    pub replica: bool,
}

struct DurableShared {
    durable: Arc<DurableStore>,
    warm: HashMap<(String, u64), String>,
    replica: bool,
    spill_hits: AtomicU64,
    exported: AtomicBool,
}

struct Shared {
    scheduler: Scheduler,
    shutdown: AtomicBool,
    active: AtomicUsize,
    max_frame: usize,
    max_connections: usize,
    fault_injection: bool,
    durability: Option<DurableShared>,
}

/// A running server. Dropping it (or calling [`shutdown`](Self::shutdown)
/// then [`join`](Self::join)) stops the accept loop, drains the
/// connections and joins the scheduler.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener, starts the scheduler and the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start(session: Arc<Session>, config: ServeConfig) -> std::io::Result<Self> {
        Self::start_inner(session, config, None)
    }

    /// [`start`](Self::start) with durable persistence attached: queries
    /// probe the restored warm cache after a memo miss, cold results are
    /// spilled write-behind, `stats` reports recovery counters, and (on
    /// a replica) `delta` requests are rejected. On shutdown the session
    /// memo cache is exported to the spill so the next boot re-warms it.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start_durable(
        session: Arc<Session>,
        config: ServeConfig,
        durability: Durability,
    ) -> std::io::Result<Self> {
        Self::start_inner(session, config, Some(durability))
    }

    fn start_inner(
        session: Arc<Session>,
        config: ServeConfig,
        durability: Option<Durability>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            scheduler: Scheduler::start(session, config.scheduler),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_frame: config.max_frame,
            max_connections: config.max_connections,
            fault_injection: config.fault_injection,
            durability: durability.map(|d| DurableShared {
                durable: d.durable,
                warm: d.warm,
                replica: d.replica,
                spill_hits: AtomicU64::new(0),
                exported: AtomicBool::new(false),
            }),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("skyline-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Self {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The scheduler (stats, direct submission from in-process tools).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.scheduler
    }

    /// The session the server executes on.
    #[must_use]
    pub fn session(&self) -> &Arc<Session> {
        self.shared.scheduler.session()
    }

    /// True once shutdown has been requested (by [`shutdown`](Self::shutdown)
    /// or the `shutdown` protocol verb).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown: the accept loop stops, connections finish
    /// their in-flight request and close. Non-blocking; pair with
    /// [`join`](Self::join).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the accept loop and every connection thread have
    /// exited (bounded wait), then joins the scheduler.
    pub fn join(&self) {
        self.shutdown();
        // Take the handle out in its own statement so the accept-slot
        // guard is released before the (blocking) join.
        let accept = lock(&self.accept).take();
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        // Connection threads exit at their next read-timeout tick.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.scheduler.shutdown();
        self.export_spill();
    }

    /// Exports the session memo cache to the spill file exactly once
    /// (join also runs on Drop), so the next boot re-warms from every
    /// result this process computed — not just the ones spilled
    /// write-behind.
    fn export_spill(&self) {
        let Some(durability) = &self.shared.durability else {
            return;
        };
        if durability.replica || durability.exported.swap(true, Ordering::AcqRel) {
            return;
        }
        let Some(spill) = durability.durable.spill_log() else {
            return;
        };
        for (plan_key, epoch, digest, result_json) in self.session().export_cache() {
            let _ = spill.append(&SpillRecord {
                plan_key,
                epoch,
                digest,
                result_json,
            });
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.active.load(Ordering::Acquire) >= shared.max_connections {
                    let mut stream = stream;
                    let _ = write_response(
                        &mut stream,
                        false,
                        &error_body(ErrorKind::Overloaded, "connection limit reached"),
                    );
                    continue;
                }
                shared.active.fetch_add(1, Ordering::AcqRel);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("skyline-conn".to_owned())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared.active.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    shared.active.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// What one attempt to pull a frame off the wire produced.
enum Frame {
    /// A complete request line (newline stripped).
    Line(String),
    /// The peer closed the connection (or an unrecoverable I/O error).
    Closed,
    /// The frame exceeded `max_frame` before its newline arrived.
    TooBig,
    /// The frame is not valid UTF-8.
    Invalid,
}

/// Reads one newline-terminated frame from raw bytes. Hand-rolled
/// (rather than `BufRead::read_line`) so a read timeout mid-frame
/// never drops partially received bytes and the size cap is enforced
/// *before* the newline arrives.
fn read_frame(stream: &TcpStream, buffer: &mut Vec<u8>, shared: &Shared) -> Frame {
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(pos) = buffer.iter().position(|&b| b == b'\n') {
            if pos > shared.max_frame {
                return Frame::TooBig;
            }
            let line: Vec<u8> = buffer.drain(..=pos).collect();
            return match String::from_utf8(line) {
                Ok(s) => Frame::Line(s.trim_end_matches(['\r', '\n']).to_owned()),
                Err(_) => Frame::Invalid,
            };
        }
        if buffer.len() > shared.max_frame {
            return Frame::TooBig;
        }
        match (&*stream).read(&mut chunk) {
            Ok(0) => return Frame::Closed,
            // analyze::allow(indexing, reason = "Read::read returns n <= chunk.len() by contract")
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Frame::Closed;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Frame::Closed,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut buffer = Vec::new();
    loop {
        let line = match read_frame(&stream, &mut buffer, shared) {
            Frame::Line(line) => line,
            Frame::Closed => return,
            Frame::TooBig => {
                // The rest of the oversized frame is unread: answer,
                // then close — there is no way to resynchronize.
                let _ = write_response(
                    &mut writer,
                    false,
                    &error_body(
                        ErrorKind::Protocol,
                        &format!("request exceeds {} bytes", shared.max_frame),
                    ),
                );
                return;
            }
            Frame::Invalid => {
                let _ = write_response(
                    &mut writer,
                    false,
                    &error_body(ErrorKind::Protocol, "request is not valid UTF-8"),
                );
                return;
            }
        };
        // Contain handler panics: a panic anywhere under dispatch (plan
        // evaluation, serialization, an injected fault) must never kill
        // the connection silently — the peer gets a structured
        // `err internal` frame and the connection stays usable.
        let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(&line, &mut writer, shared)
        }));
        let keep_open = match dispatched {
            Ok(keep_open) => keep_open,
            Err(payload) => {
                let what = panic_message(payload.as_ref());
                let _ = write_response(
                    &mut writer,
                    false,
                    &error_body(
                        ErrorKind::Internal,
                        &format!("request handler panicked: {what}"),
                    ),
                );
                true
            }
        };
        if !keep_open {
            return;
        }
    }
}

/// Best-effort text of a caught panic payload (`&str` / `String`
/// payloads; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Dispatches one parsed frame; returns whether the connection stays
/// open. Semantic errors (bad plan key, unknown ids, full queue) are
/// structured `err` responses on a live connection — only framing
/// violations and shutdown close it.
fn handle_request(line: &str, writer: &mut TcpStream, shared: &Shared) -> bool {
    if shared.fault_injection && line == "panic" {
        // analyze::allow(panic, reason = "test-only fault injection behind ServeConfig::fault_injection, default off")
        panic!("injected fault (ServeConfig::fault_injection)");
    }
    let scheduler = &shared.scheduler;
    let session = scheduler.session();
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(reason) => {
            let _ = write_response(writer, false, &error_body(ErrorKind::Protocol, &reason));
            return true;
        }
    };
    match request {
        Request::Ping => {
            let _ = write_response(writer, true, "{\"pong\": true}\n");
            true
        }
        Request::Stats => {
            let snapshot = session.store().current();
            let durability = shared.durability.as_ref().map(|d| {
                let report = d.durable.report();
                protocol::DurabilityStats {
                    replica: d.replica,
                    snapshot_epoch: report.snapshot_epoch,
                    replayed_deltas: report.replayed_deltas,
                    warm_entries: d.warm.len() as u64,
                    spill_hits: d.spill_hits.load(Ordering::Relaxed),
                }
            });
            let body = protocol::stats_body(
                &snapshot,
                &session.cache_stats(),
                &session.sim_stats(),
                &scheduler.stats(),
                scheduler.queue_depth(),
                durability.as_ref(),
            );
            let _ = write_response(writer, true, &body);
            true
        }
        Request::Delta { json } => {
            if shared.durability.as_ref().is_some_and(|d| d.replica) {
                let _ = write_response(
                    writer,
                    false,
                    &error_body(
                        ErrorKind::Delta,
                        "this server is a read-only replica; apply deltas to the primary",
                    ),
                );
                return true;
            }
            let outcome = CatalogDelta::from_json(&json)
                .and_then(|delta| scheduler.apply_delta(&delta).map(|s| (delta, s)));
            match outcome {
                Ok((delta, snapshot)) => {
                    let body = protocol::delta_body(&snapshot, delta.op_count());
                    let _ = write_response(writer, true, &body);
                }
                Err(e) => {
                    let _ = write_response(
                        writer,
                        false,
                        &error_body(ErrorKind::Delta, &format!("{e}")),
                    );
                }
            }
            true
        }
        Request::Query { key } => {
            answer_plan(&key, None, writer, shared);
            true
        }
        Request::Top { k, key } => {
            answer_plan(&key, Some(k), writer, shared);
            true
        }
        Request::Shutdown => {
            let _ = write_response(writer, true, "{\"shutting_down\": true}\n");
            shared.shutdown.store(true, Ordering::Release);
            false
        }
    }
}

/// Answers a `query`/`top` request: snapshot the admission epoch, probe
/// the memo cache (fast path, no queue), otherwise parse + validate the
/// plan, submit to the scheduler and serialize the reply against the
/// admission snapshot.
fn answer_plan(key: &str, top_k: Option<usize>, writer: &mut TcpStream, shared: &Shared) {
    let scheduler = &shared.scheduler;
    let session = scheduler.session();
    let snapshot = session.store().current();
    let respond = |writer: &mut TcpStream, result: &f1_skyline::session::ResultSet, cached| {
        let body = match top_k {
            Some(k) => protocol::top_body(k, result, &snapshot, cached),
            None => protocol::query_body(result, &snapshot, cached),
        };
        let _ = write_response(writer, true, &body);
    };
    if let Some(result) = session.cached_at(key, snapshot.epoch()) {
        scheduler.note_fast_path_hit();
        respond(writer, &result, true);
        return;
    }
    // Warm-cache restore: a memo miss can still be answered from the
    // spill a previous process persisted — byte-identical to the live
    // cache hit it replaces, without re-running any physics. (`top`
    // reshapes the result, so only full `query` bodies are served this
    // way.)
    if top_k.is_none() {
        if let Some(durability) = &shared.durability {
            if let Some(body) = durability
                .warm
                .get(&(key.to_owned(), snapshot.epoch().get()))
            {
                scheduler.note_fast_path_hit();
                durability.spill_hits.fetch_add(1, Ordering::Relaxed);
                let body = protocol::warm_query_body(body, &snapshot, true);
                let _ = write_response(writer, true, &body);
                return;
            }
        }
    }
    let mut canonical = None;
    let submitted = QueryPlan::from_key(key)
        // Reject an out-of-catalog plan before it joins (and fails) a batch.
        .and_then(|plan| plan.validate_ids(snapshot.catalog()).map(|()| plan))
        .map(|plan| {
            canonical = Some(plan.key().to_owned());
            scheduler.submit(plan, snapshot.epoch())
        });
    let receiver = match submitted {
        Ok(Ok(receiver)) => receiver,
        Ok(Err(SubmitError::Overloaded)) => {
            let _ = write_response(
                writer,
                false,
                &error_body(ErrorKind::Overloaded, "admission queue is full, retry"),
            );
            return;
        }
        Ok(Err(SubmitError::ShuttingDown)) => {
            let _ = write_response(
                writer,
                false,
                &error_body(ErrorKind::Overloaded, "server is shutting down"),
            );
            return;
        }
        Err(e) => {
            let _ = write_response(
                writer,
                false,
                &error_body(error_kind_for(&e), &format!("{e}")),
            );
            return;
        }
    };
    match receiver.recv() {
        Ok(Ok(result)) => {
            respond(writer, &result, false);
            // Write-behind spill: the freshly computed result is
            // persisted under its canonical key so a restarted server
            // can answer it byte-identically from disk.
            if let (Some(durability), Some(plan_key)) = (&shared.durability, canonical) {
                if !durability.replica {
                    if let Some(spill) = durability.durable.spill_log() {
                        let _ = spill.append(&SpillRecord {
                            plan_key,
                            epoch: snapshot.epoch().get(),
                            digest: snapshot.digest(),
                            result_json: result.to_json(snapshot.catalog()),
                        });
                    }
                }
            }
        }
        Ok(Err(e)) => {
            let _ = write_response(
                writer,
                false,
                &error_body(error_kind_for(&e), &format!("{e}")),
            );
        }
        Err(_) => {
            let _ = write_response(
                writer,
                false,
                &error_body(ErrorKind::Internal, "executor dropped the request"),
            );
        }
    }
}
