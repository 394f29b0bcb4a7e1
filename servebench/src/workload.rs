//! What the four workloads share: the workload list, the run
//! environment, what an untraced and a traced run return, and the
//! server/client plumbing.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use f1_components::CatalogStore;
use f1_serve::protocol::Client;
use f1_serve::{SchedulerStats, ServeConfig, Server};
use f1_sim::SimHarness;
use f1_skyline::{CacheStats, Session};

use crate::host;
use crate::stats::{ratio, Tail};
use crate::trace::{Ledger, Trace};
use crate::{churn, explore, hot, verify};

/// Any failure that stops a run before it can report.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// How long a client waits for one response before the op counts as
/// failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The benchmark's workloads. Why each exists, and which layers it
/// exercises or bypasses, is recorded in `servebench/README.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Never-seen 4-objective what-ifs over 10⁵ candidates, one pass
    /// each.
    ExploreCold,
    /// Two clients re-reading a warm hot set: 90% `top 5`, 10% `query`.
    ReadHot,
    /// Durable single-pair throughput deltas, each followed by reads of
    /// the incrementally repaired hot set.
    CatalogChurn,
    /// Never-seen tier-2 plans: tier-1 pass, then flight and pipeline
    /// simulation of the survivors.
    VerifyTier2,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 4] = [
        Workload::ExploreCold,
        Workload::ReadHot,
        Workload::CatalogChurn,
        Workload::VerifyTier2,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreCold => "explore_cold",
            Workload::ReadHot => "read_hot",
            Workload::CatalogChurn => "catalog_churn",
            Workload::VerifyTier2 => "verify_tier2",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Parts per family of the synthesized catalog: 47 gives 103 823
    /// candidates per airframe, 22 gives 10 648.
    #[must_use]
    pub fn family(self) -> usize {
        match self {
            Workload::ExploreCold | Workload::ReadHot => 47,
            Workload::CatalogChurn | Workload::VerifyTier2 => 22,
        }
    }

    /// The fixed tail percentile reported as `cpu_tail_ms`: the highest
    /// of p99/p95/p90 that keeps at least ten samples beyond it in a run
    /// at half the op rate measured on a 2-vCPU VM, and never on a mode
    /// boundary (read_hot's p90 sits on its top/query split, and
    /// catalog_churn's next to the edge of its one-in-8 snapshot epochs).
    #[must_use]
    pub fn tail(self) -> Tail {
        match self {
            Workload::ReadHot => Tail::P99,
            Workload::CatalogChurn => Tail::P95,
            Workload::ExploreCold | Workload::VerifyTier2 => Tail::P90,
        }
    }

    /// The exact counts this workload must repeat on every run, by
    /// per-layer metric name. A run that deviates is flagged.
    #[must_use]
    pub fn expected_counts(self) -> &'static [(&'static str, f64)] {
        match self {
            Workload::ExploreCold | Workload::VerifyTier2 => {
                &[("scheduler.plans_per_pass", 1.0), ("session.hit_rate", 0.0)]
            }
            Workload::ReadHot => &[("session.hit_rate", 1.0)],
            Workload::CatalogChurn => &[
                ("session.hit_rate", 0.5),
                ("repair.background_per_delta", churn::HOT_PLANS as f64),
                ("repair.incremental_share", 1.0),
            ],
        }
    }

    /// Sets up `setups` times (keeping the last), drives the timed
    /// closed loop over loopback TCP, then checks every answer.
    ///
    /// # Errors
    ///
    /// Set-up failures; failed ops are counted, not returned.
    pub fn untraced(self, env: &Env, setups: usize) -> Result<Untraced, Error> {
        match self {
            Workload::ExploreCold => explore::untraced(env, setups),
            Workload::ReadHot => hot::untraced(env, setups),
            Workload::CatalogChurn => churn::untraced(env, setups),
            Workload::VerifyTier2 => verify::untraced(env, setups),
        }
    }

    /// Replays the same request stream in-process, timing each layer
    /// call; `untraced` supplies the answers to cross-check against.
    ///
    /// # Errors
    ///
    /// Set-up failures and layer errors.
    pub fn traced(self, env: &Env, untraced: &Untraced) -> Result<Traced, Error> {
        match self {
            Workload::ExploreCold => explore::traced(env, untraced),
            Workload::ReadHot => hot::traced(env),
            Workload::CatalogChurn => churn::traced(env),
            Workload::VerifyTier2 => verify::traced(env, untraced),
        }
    }
}

/// Where and how long a workload runs.
#[derive(Debug, Clone)]
pub struct Env {
    /// The benchmark seed: catalog, plans, schedule and deltas.
    pub seed: u64,
    /// Parts per family of the synthesized catalog.
    pub family: usize,
    /// Length of the timed phase.
    pub timed: Duration,
    /// A directory this run owns, for durable data directories.
    pub data_dir: PathBuf,
}

/// Exact counts read from the server's scheduler and session counters
/// over the timed phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Requests executed per scheduler batch.
    pub plans_per_pass: f64,
    /// Cache hits over hits plus misses.
    pub hit_rate: f64,
    /// Background repairs per applied delta.
    pub repairs_per_delta: f64,
    /// Incremental repairs over background repairs.
    pub incremental_share: f64,
}

impl Counts {
    /// The counts under their per-layer metric names.
    #[must_use]
    pub fn by_name(&self) -> [(&'static str, f64); 4] {
        [
            ("scheduler.plans_per_pass", self.plans_per_pass),
            ("session.hit_rate", self.hit_rate),
            ("repair.background_per_delta", self.repairs_per_delta),
            ("repair.incremental_share", self.incremental_share),
        ]
    }
}

/// The counters [`Counts`] are differenced from.
#[derive(Debug, Clone, Copy)]
struct ServerStats {
    sched: SchedulerStats,
    cache: CacheStats,
}

impl ServerStats {
    /// Reads the server's counters now.
    #[must_use]
    fn of(server: &Server) -> Self {
        Self {
            sched: server.scheduler().stats(),
            cache: server.session().cache_stats(),
        }
    }

    /// The counts between `self` (earlier) and `later`.
    #[must_use]
    fn counts_until(&self, later: &ServerStats) -> Counts {
        let (s0, s1, c0, c1) = (&self.sched, &later.sched, &self.cache, &later.cache);
        let hits = c1.hits - c0.hits;
        let refreshes = s1.background_repairs - s0.background_repairs;
        Counts {
            plans_per_pass: ratio(
                s1.batched_requests - s0.batched_requests,
                s1.batches - s0.batches,
            ),
            hit_rate: ratio(hits, hits + c1.misses - c0.misses),
            repairs_per_delta: ratio(refreshes, s1.deltas_applied - s0.deltas_applied),
            incremental_share: ratio(c1.repairs - c0.repairs, refreshes),
        }
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Process CPU time of each set-up, in seconds.
    pub setup_cpu_s: Vec<f64>,
    /// Wall time of each set-up, in seconds.
    pub setup_wall_s: Vec<f64>,
    /// Client-observed latency of each completed op, in ms.
    pub latencies_ms: Vec<f64>,
    /// Process CPU time of each completed op, client and server
    /// together, in ms.
    pub cpu_ms: Vec<f64>,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed: an `err` frame, a wrong epoch or `cached` flag,
    /// a failed output check, or a timeout.
    pub failed: u64,
    /// Wall time of the timed phase, in seconds.
    pub timed_s: f64,
    /// Process CPU time over the timed phase, in seconds.
    pub cpu_s: f64,
    /// The most bytes live on the heap at once, in MiB, read once
    /// `peak_ops` timed ops completed (or when the timed phase ended, if
    /// fewer did), before any output check allocated.
    pub peak_heap_mib: f64,
    /// The process's peak resident set (`VmHWM`) in MiB, read with
    /// `peak_heap_mib`.
    pub peak_rss_mib: f64,
    /// The op count at which the peaks are read.
    pub peak_ops: usize,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// timed phase: a noisy-host flag.
    pub steal_share: f64,
    /// Exact counts over the timed phase.
    pub counts: Counts,
    /// The `top` bodies answered, in stream order, for the traced
    /// run's cross-check (explore_cold and verify_tier2).
    pub answers: Vec<String>,
    /// Deviations worth a reader's attention.
    pub notes: Vec<String>,
}

impl Untraced {
    /// An empty run that keeps `setups`' times and reads the memory
    /// peaks after `peak_ops` ops.
    #[must_use]
    pub(crate) fn after(setups: SetupTimes, peak_ops: usize) -> Self {
        Self {
            setup_cpu_s: setups.cpu_s,
            setup_wall_s: setups.wall_s,
            peak_ops,
            ..Self::default()
        }
    }

    fn read_peaks(&mut self) -> Result<(), Error> {
        self.peak_heap_mib = crate::heap::peak_mib();
        self.peak_rss_mib = host::peak_rss_mib()?;
        Ok(())
    }
}

/// The wall and process CPU clocks at the start of one op.
pub(crate) struct OpClock {
    wall: Instant,
    cpu_s: f64,
}

impl OpClock {
    /// Reads both clocks now.
    ///
    /// # Errors
    ///
    /// When the CPU clock is unreadable.
    pub(crate) fn start() -> std::io::Result<Self> {
        Ok(Self {
            cpu_s: host::process_cpu_s()?,
            wall: Instant::now(),
        })
    }

    /// Records the op, completed now, into `run`'s latencies and CPU
    /// times; reads the memory peaks if it was op `peak_ops`.
    ///
    /// # Errors
    ///
    /// When the CPU clock or `/proc` is unreadable.
    pub(crate) fn record(self, run: &mut Untraced) -> Result<(), Error> {
        run.latencies_ms.push(ms(self.wall.elapsed()));
        run.cpu_ms.push((host::process_cpu_s()? - self.cpu_s) * 1e3);
        if run.cpu_ms.len() == run.peak_ops {
            run.read_peaks()?;
        }
        Ok(())
    }
}

/// The timed phase of an untraced run: started after set-up, ended
/// before the output checks.
pub(crate) struct TimedPhase {
    before: ServerStats,
    cpu_s: f64,
    ticks: (u64, u64),
    started: Instant,
}

impl TimedPhase {
    /// Starts the timed phase now.
    ///
    /// # Errors
    ///
    /// When the process CPU time is unreadable.
    pub(crate) fn start(server: &Server) -> Result<Self, Error> {
        Ok(Self {
            before: ServerStats::of(server),
            cpu_s: host::process_cpu_s()?,
            ticks: host::cpu_ticks()?,
            started: Instant::now(),
        })
    }

    /// When the phase started.
    #[must_use]
    pub(crate) fn started(&self) -> Instant {
        self.started
    }

    /// Ends the phase: records its wall time, CPU time, exact counts and
    /// the stolen share into `run`, and the memory peaks if fewer than
    /// `peak_ops` ops completed.
    ///
    /// # Errors
    ///
    /// When `/proc` is unreadable.
    pub(crate) fn end(self, server: &Server, run: &mut Untraced) -> Result<(), Error> {
        run.timed_s = self.started.elapsed().as_secs_f64();
        run.cpu_s = host::process_cpu_s()? - self.cpu_s;
        run.counts = self.before.counts_until(&ServerStats::of(server));
        if run.cpu_ms.len() < run.peak_ops {
            run.read_peaks()?;
            run.notes.push(format!(
                "FLAG: memory peaks read after {} ops, not {}",
                run.cpu_ms.len(),
                run.peak_ops
            ));
        }
        run.steal_share = host::steal_share(self.ticks, host::cpu_ticks()?);
        Ok(())
    }
}

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metrics this workload exercises.
    pub ledger: Ledger,
    /// Traced time of each op (sum of its layer spans), in ms, in the
    /// same op units as [`Untraced::latencies_ms`].
    pub op_ms: Vec<f64>,
    /// Replayed answers that disagreed with the untraced run.
    pub failed: u64,
    /// Deviations worth a reader's attention.
    pub notes: Vec<String>,
    /// The recorded spans.
    pub trace: Trace,
}

/// A session as `skyline-serve` builds one: the f1-sim tier-2 harness
/// installed, and the memo cache capped at `capacity` when given (the
/// `--cache-capacity` deployment setting).
#[must_use]
pub(crate) fn serving_session(store: Arc<CatalogStore>, capacity: Option<usize>) -> Session {
    let session = Session::over(store).with_tier2(Arc::new(SimHarness::default()));
    match capacity {
        Some(capacity) => session.with_cache_capacity(capacity),
        None => session,
    }
}

/// The server's configuration: `skyline-serve` defaults (2 ms window,
/// executors = min(cores, 4)) on an ephemeral loopback port.
#[must_use]
pub(crate) fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    }
}

/// A client connected to `server`, with the reply timeout set.
///
/// # Errors
///
/// Connection errors.
pub(crate) fn connect(server: &Server) -> std::io::Result<Client> {
    let mut client = Client::connect(server.local_addr())?;
    client.set_timeout(Some(REPLY_TIMEOUT))?;
    Ok(client)
}

/// How long each set-up of a run took.
#[derive(Debug, Default)]
pub(crate) struct SetupTimes {
    /// Process CPU time, in seconds.
    cpu_s: Vec<f64>,
    /// Wall time, in seconds.
    wall_s: Vec<f64>,
}

/// Runs `setup` `count` times, tearing each rig down before the next,
/// and keeps the last; returns it with every set-up's CPU and wall time.
///
/// # Errors
///
/// The first set-up error.
pub(crate) fn repeat_setup<T>(
    count: usize,
    mut setup: impl FnMut(usize) -> Result<T, Error>,
) -> Result<(T, SetupTimes), Error> {
    let mut times = SetupTimes::default();
    let mut kept = None;
    for i in 0..count.max(1) {
        drop(kept.take());
        let (cpu, wall) = (host::process_cpu_s()?, Instant::now());
        kept = Some(setup(i)?);
        times.wall_s.push(wall.elapsed().as_secs_f64());
        times.cpu_s.push(host::process_cpu_s()? - cpu);
    }
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, times))
}

/// The envelope every `query`/`top` body starts with (see
/// `f1_serve::protocol`): the answering epoch, its digest and whether
/// the memo cache answered.
#[must_use]
pub(crate) fn envelope(epoch: u64, digest: u64, cached: bool) -> String {
    format!("{{\"epoch\": {epoch}, \"digest\": {digest}, \"cached\": {cached},\n")
}

/// `body` with its envelope's `cached` flag set to false.
#[must_use]
pub(crate) fn uncached(body: &str) -> String {
    body.replacen("\"cached\": true,", "\"cached\": false,", 1)
}

/// Milliseconds in a duration.
#[must_use]
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
