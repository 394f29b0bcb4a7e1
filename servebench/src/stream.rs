//! Seeded request streams. Every input a workload sends — the catalog,
//! the plans, the op schedule and the catalog deltas — is a pure
//! function of the benchmark seed; the server sees only the generated
//! catalog and requests.
//!
//! Inputs are built so that two seeds give different inputs of alike
//! total work, which keeps the spread between seeds small:
//!
//! - The catalog is one synthesized base catalog with a few throughput
//!   pairs re-characterized by the seed. Catalogs synthesized from
//!   different seeds differ in frontier sizes and feasible shares
//!   catalog-wide, which moved per-op work by 20–50% between seeds.
//! - Hot sets are the same for every seed: airframes spread evenly over
//!   the payload ranking, TDP caps evenly over the cap range, paired in
//!   a fixed order. Seeded pairings moved read_hot's frontier documents,
//!   and so its throughput, by up to 30% between seeds. The seed picks
//!   the order the hot set is read in and the deltas applied to it.
//! - Cold streams visit airframes round-robin in a seeded order and
//!   draw caps from a seeded low-discrepancy sequence.

use std::collections::HashSet;

use f1_components::{json, AirframeId, Catalog, CatalogDelta};
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::{KeepPoints, PlanBuilder, QueryPlan, SimObjective};
use f1_units::{Hertz, Watts};

/// The four analytic objectives of the paper's what-if: speed, power,
/// payload and energy per kilometre.
const FOUR_OBJECTIVES: [Objective; 4] = [
    Objective::SafeVelocity,
    Objective::TotalTdp,
    Objective::PayloadMass,
    Objective::MissionEnergyWhPerKm,
];

/// The analytic objectives of a tier-2 plan; the two sim objectives
/// follow them.
const TWO_OBJECTIVES: [Objective; 2] = [Objective::SafeVelocity, Objective::TotalTdp];

/// Robustness trials per survivor in a tier-2 plan.
const SIM_TRIALS: u32 = 32;

/// Survivors a tier-2 plan simulates.
const SURVIVOR_BUDGET: usize = 16;

/// Range of the `MaxTotalTdp` cap, in watts.
const CAP_RANGE_W: (f64, f64) = (15.0, 60.0);

/// Factor range (log-uniform) a delta scales a pair's base rate by.
/// Scaling the base rate, not the current one, keeps the catalog's
/// shape, and so the repair work per delta, steady over a run.
const PATCH_FACTOR: (f64, f64) = (0.5, 2.0);

/// Sub-stream identifiers: each consumer of randomness draws from its
/// own generator, so adding draws to one never shifts another.
const EXPLORE: u64 = 1;
const HOT: u64 = 2;
const SCHEDULE: u64 = 3;
const DELTAS: u64 = 5;
const VERIFY: u64 = 6;
const SAMPLE: u64 = 7;
const CATALOG: u64 = 8;

/// Seed of the synthesized base catalog every run starts from, and of
/// the fixed airframe–cap pairing of the hot sets.
const CATALOG_SEED: u64 = 42;

/// Throughput pairs the seed re-characterizes in the base catalog.
const SEEDED_PAIRS: usize = 4;

/// Factor range of a seeded re-characterization.
const SEEDED_FACTOR: (f64, f64) = (0.9, 1.1);

/// SplitMix64: a tiny, fast, well-mixed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator of sub-stream `stream` under `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed);
        let salt = rng.next_u64() ^ f1_sim::mix64(stream);
        Self(salt)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, (lo, hi): (f64, f64)) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The catalog a run serves: `Catalog::synthesize(CATALOG_SEED,
/// family)` with [`SEEDED_PAIRS`] throughput pairs scaled by a seeded
/// factor in ±10%, so every seed has its own catalog digest.
#[must_use]
pub fn catalog(seed: u64, family: usize) -> Catalog {
    let mut catalog = Catalog::synthesize(CATALOG_SEED, family);
    let mut pairs = characterized_pairs(&catalog);
    let mut rng = Rng::new(seed, CATALOG);
    rng.shuffle(&mut pairs);
    let delta = pairs.into_iter().take(SEEDED_PAIRS).fold(
        CatalogDelta::new(),
        |delta, (compute, algorithm, hz)| {
            let hz = Hertz::new(hz * rng.range(SEEDED_FACTOR));
            delta.patch_throughput(compute, algorithm, hz)
        },
    );
    delta
        .apply_to(&mut catalog)
        .expect("re-characterizing characterized pairs with a positive rate is valid");
    catalog
}

/// Every characterized (compute, algorithm, Hz) pair, sorted by name.
fn characterized_pairs(catalog: &Catalog) -> Vec<(String, String, f64)> {
    let mut pairs: Vec<(String, String, f64)> = catalog
        .matrix()
        .iter()
        .map(|(compute, algorithm, hz)| (compute.to_owned(), algorithm.to_owned(), hz.get()))
        .collect();
    pairs.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    pairs
}

/// The seeded sample of `count` distinct indices out of `0..n`, in
/// ascending order: which answers the output checks re-run.
#[must_use]
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    Rng::new(seed, SAMPLE).shuffle(&mut all);
    all.truncate(count);
    all.sort_unstable();
    all
}

fn single_airframe(objectives: &[Objective], airframe: AirframeId, cap_w: f64) -> PlanBuilder {
    QueryPlan::builder()
        .objectives(objectives)
        .constraint(Constraint::MaxTotalTdp(Watts::new(cap_w)))
        .airframes(&[airframe])
}

fn build(builder: PlanBuilder) -> QueryPlan {
    builder
        .build()
        .expect("catalog ids, finite caps and in-range sim settings always build")
}

/// Airframes spread evenly over the catalog's payload-capacity ranking.
fn stratified_airframes(catalog: &Catalog, count: usize) -> Vec<AirframeId> {
    let mut ranked: Vec<(f64, AirframeId)> = catalog
        .airframe_entries()
        .map(|(id, frame)| (frame.payload_capacity().get(), id))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.index().cmp(&b.1.index())));
    let n = ranked.len();
    (0..count)
        .map(|i| ranked[((2 * i + 1) * n / (2 * count)).min(n - 1)].1)
        .collect()
}

/// `count` TDP caps spread evenly over the cap range, in `rng`'s order.
fn stratified_caps(rng: &mut Rng, count: usize) -> Vec<f64> {
    let (lo, hi) = CAP_RANGE_W;
    let mut caps: Vec<f64> = (0..count)
        .map(|i| lo + (hi - lo) * (i as f64 + 0.5) / count as f64)
        .collect();
    rng.shuffle(&mut caps);
    caps
}

/// A stratified hot set of 4-objective single-airframe plans, the same
/// for every benchmark seed.
#[must_use]
pub fn hot_plans(catalog: &Catalog, count: usize, keep: KeepPoints) -> Vec<QueryPlan> {
    let caps = stratified_caps(&mut Rng::new(CATALOG_SEED, HOT), count);
    stratified_airframes(catalog, count)
        .into_iter()
        .zip(caps)
        .map(|(airframe, cap)| {
            build(single_airframe(&FOUR_OBJECTIVES, airframe, cap).keep_points(keep))
        })
        .collect()
}

/// The golden-ratio step of the cap sequence: successive caps fill the
/// cap range evenly (a low-discrepancy sequence) instead of clumping.
const GOLDEN_STEP: f64 = 0.618_033_988_749_894_9;

/// Draws never-seen plans for the cold workloads. Airframes come
/// round-robin in a seeded order and caps from a seeded golden-ratio
/// sequence, so every run covers the airframes and the cap range
/// evenly; a plan whose key was already drawn is drawn again with the
/// next cap.
#[derive(Debug)]
struct Fresh {
    airframes: Vec<AirframeId>,
    next_airframe: usize,
    cap_phase: f64,
    next_cap: u64,
    seen: HashSet<String>,
    /// The airframe of median payload capacity: the warm-up's.
    middle: AirframeId,
}

impl Fresh {
    fn new(catalog: &Catalog, seed: u64, stream: u64) -> Self {
        let mut airframes: Vec<AirframeId> = catalog.airframe_entries().map(|(id, _)| id).collect();
        airframes.sort_by_key(|id| id.index());
        let mut rng = Rng::new(seed, stream);
        rng.shuffle(&mut airframes);
        Self {
            airframes,
            next_airframe: 0,
            cap_phase: rng.unit(),
            next_cap: 0,
            seen: HashSet::new(),
            middle: stratified_airframes(catalog, 1)[0],
        }
    }

    /// A warm-up plan on the middle airframe at `share` of the cap
    /// range: the same work for every seed, and never drawn again.
    fn warm_up(&mut self, share: f64, make: impl Fn(AirframeId, f64) -> PlanBuilder) -> QueryPlan {
        let (lo, hi) = CAP_RANGE_W;
        let plan = build(make(self.middle, lo + (hi - lo) * share));
        self.seen.insert(plan.key().to_owned());
        plan
    }

    fn airframe(&mut self) -> AirframeId {
        let airframe = self.airframes[self.next_airframe % self.airframes.len()];
        self.next_airframe += 1;
        airframe
    }

    fn plan(&mut self, make: impl Fn(f64) -> PlanBuilder) -> (QueryPlan, f64) {
        let (lo, hi) = CAP_RANGE_W;
        loop {
            let position = (self.cap_phase + self.next_cap as f64 * GOLDEN_STEP).fract();
            self.next_cap += 1;
            let cap = lo + (hi - lo) * position;
            let plan = build(make(cap));
            if self.seen.insert(plan.key().to_owned()) {
                return (plan, cap);
            }
        }
    }
}

/// explore_cold: never-seen 4-objective single-airframe plans.
#[derive(Debug)]
pub struct ExploreStream(Fresh);

impl ExploreStream {
    /// The stream for `seed` over `catalog`.
    #[must_use]
    pub fn new(catalog: &Catalog, seed: u64) -> Self {
        Self(Fresh::new(catalog, seed, EXPLORE))
    }

    /// The set-up's warm-up plan, the same work for every seed.
    pub fn warm_up(&mut self) -> QueryPlan {
        self.0.warm_up(0.5, |airframe, cap| {
            single_airframe(&FOUR_OBJECTIVES, airframe, cap)
        })
    }
}

impl Iterator for ExploreStream {
    type Item = QueryPlan;

    fn next(&mut self) -> Option<QueryPlan> {
        let airframe = self.0.airframe();
        Some(
            self.0
                .plan(|cap| single_airframe(&FOUR_OBJECTIVES, airframe, cap))
                .0,
        )
    }
}

/// One verify_tier2 request: the tier-2 plan sent to the server, and its
/// tier-1 twin (the same analytic plan without sim objectives).
#[derive(Debug, Clone)]
pub struct VerifyOp {
    /// The plan with sim objectives.
    pub plan: QueryPlan,
    /// The analytic twin the traced run executes before simulating.
    pub twin: QueryPlan,
}

/// verify_tier2: never-seen 2-objective plans with robustness and p99
/// sim objectives.
#[derive(Debug)]
pub struct VerifyStream(Fresh);

/// A tier-2 plan: the analytic objectives plus robustness and p99
/// sim objectives.
fn tier2(airframe: AirframeId, cap: f64) -> PlanBuilder {
    single_airframe(&TWO_OBJECTIVES, airframe, cap)
        .sim_objective(SimObjective::MissionRobustness { trials: SIM_TRIALS })
        .sim_objective(SimObjective::PipelineP99Latency)
        .survivor_budget(SURVIVOR_BUDGET)
}

impl VerifyStream {
    /// The stream for `seed` over `catalog`.
    #[must_use]
    pub fn new(catalog: &Catalog, seed: u64) -> Self {
        Self(Fresh::new(catalog, seed, VERIFY))
    }

    /// The set-up's warm-up plan, the same work for every seed.
    pub fn warm_up(&mut self) -> VerifyOp {
        let plan = self.0.warm_up(0.5, tier2);
        let twin = self.0.warm_up(0.5, |airframe, cap| {
            single_airframe(&TWO_OBJECTIVES, airframe, cap)
        });
        VerifyOp { plan, twin }
    }
}

impl Iterator for VerifyStream {
    type Item = VerifyOp;

    fn next(&mut self) -> Option<VerifyOp> {
        let airframe = self.0.airframe();
        let (plan, cap) = self.0.plan(|cap| tier2(airframe, cap));
        let twin = build(single_airframe(&TWO_OBJECTIVES, airframe, cap));
        Some(VerifyOp { plan, twin })
    }
}

/// The verb of a read_hot op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `top 5`: the compact serving shape.
    Top,
    /// `query`: the full frontier document.
    Query,
}

/// Every `QUERY_EVERY`-th read_hot op is a `query`.
pub const QUERY_EVERY: u64 = 10;

/// The read_hot client's op schedule: exactly one op in [`QUERY_EVERY`]
/// is a `query`, and queries cycle through the hot set in a seeded
/// order so every plan's document is read equally often; `top` ops
/// pick a plan uniformly.
#[derive(Debug)]
pub struct HotSchedule {
    rng: Rng,
    query_order: Vec<usize>,
    op: u64,
}

impl HotSchedule {
    /// The schedule for `seed` over `plans` hot plans.
    #[must_use]
    pub fn new(seed: u64, plans: usize) -> Self {
        let mut rng = Rng::new(seed, SCHEDULE);
        let mut query_order: Vec<usize> = (0..plans).collect();
        rng.shuffle(&mut query_order);
        Self {
            rng,
            query_order,
            op: 0,
        }
    }
}

impl Iterator for HotSchedule {
    type Item = (Verb, usize);

    fn next(&mut self) -> Option<(Verb, usize)> {
        let op = self.op;
        self.op += 1;
        if op % QUERY_EVERY == QUERY_EVERY - 1 {
            let q = (op / QUERY_EVERY) as usize % self.query_order.len();
            Some((Verb::Query, self.query_order[q]))
        } else {
            Some((Verb::Top, self.rng.below(self.query_order.len())))
        }
    }
}

/// catalog_churn: single-pair throughput patches, as `delta` JSON: a
/// seeded pair set to its base rate times a seeded factor.
#[derive(Debug)]
pub struct DeltaStream {
    rng: Rng,
    pairs: Vec<(String, String, f64)>,
}

impl DeltaStream {
    /// The stream for `seed` over `catalog`'s characterized pairs.
    #[must_use]
    pub fn new(catalog: &Catalog, seed: u64) -> Self {
        Self {
            rng: Rng::new(seed, DELTAS),
            pairs: characterized_pairs(catalog),
        }
    }
}

impl Iterator for DeltaStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let (compute, algorithm, base) = &self.pairs[self.rng.below(self.pairs.len())];
        let (lo, hi) = PATCH_FACTOR;
        let hz = base * self.rng.range((lo.ln(), hi.ln())).exp();
        Some(format!(
            "{{\"throughput\": [{{\"compute\": {}, \"algorithm\": {}, \"hz\": {hz:.6}}}]}}",
            json::quote(compute),
            json::quote(algorithm)
        ))
    }
}

/// The wire line of a `top 5` request.
#[must_use]
pub fn top_line(plan: &QueryPlan) -> String {
    format!("top 5 {}\n", plan.key())
}

/// The wire line of a `query` request.
#[must_use]
pub fn query_line(plan: &QueryPlan) -> String {
    format!("query {}\n", plan.key())
}

/// The wire line of a `delta` request.
#[must_use]
pub fn delta_line(json: &str) -> String {
    format!("delta {json}\n")
}
