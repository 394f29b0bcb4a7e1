//! The [`SimHarness`]: `f1-skyline`'s [`Tier2Evaluator`] implemented on
//! the `f1-flightsim` stop-before-obstacle simulator and the
//! `f1-pipeline` latency simulator.

use f1_components::Catalog;
use f1_flightsim::{trial_seed, DecisionPhase, DisturbanceModel, StopScenario, VehicleDynamics};
use f1_model::physics::DragModel;
use f1_pipeline::{ExecutionMode, Jitter, PipelineSim, StageConfig};
use f1_skyline::query::QueryPoint;
use f1_skyline::sweep::parallel_map_indices;
use f1_skyline::tier2::{
    SimBlock, SimRow, SimUsage, Tier2Context, Tier2Evaluation, Tier2Evaluator,
};
use f1_skyline::{SimObjective, SkylineError};
use f1_units::{Hertz, Meters, MetersPerSecond, Quantity, Seconds};

use crate::config::ScenarioConfig;
use crate::identity::{candidate_id, plan_base_seed};
use crate::verify::build_report;

/// Actions pushed through the pipeline simulator per p99 measurement —
/// enough for a stable tail percentile, small enough that pipeline
/// objectives cost about as much as a handful of robustness trials.
const PIPELINE_ACTIONS: usize = 256;

/// The trial index reserved for the pipeline-latency seed stream.
/// Robustness trials occupy `0..MAX_SIM_TRIALS` (≤ 10⁴), so any index
/// past `2³²` is disjoint from every robustness seed of the same
/// candidate.
const P99_TRIAL: u64 = 1 << 32;

/// Fixed control-stage latency (s): the inner control loop runs at
/// 1 kHz on every platform in the catalog and is never the tail.
const CONTROL_LATENCY_S: f64 = 0.001;

/// One survivor's simulation job: its tier-1 point plus the stable
/// identity that keys seeds and prior-row reuse.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// Global tier-1 point index in the parent result.
    index: usize,
    /// The survivor's tier-1 point (parts, knob setting, outcome).
    point: QueryPoint,
    /// Stable candidate identity (see [`candidate_id`]).
    id: u64,
}

/// Values simulated (or reused) for one survivor.
#[derive(Debug)]
struct RowResult {
    values: Vec<f64>,
    trials: u64,
    reused: bool,
}

/// The flightsim/pipeline-backed tier-2 evaluator. Construct with a
/// [`ScenarioConfig`] (or [`Default`] = calm conditions) and install on
/// a session with [`f1_skyline::Session::with_tier2`].
///
/// Deterministic by construction: every RNG seed is
/// `trial_seed(plan_base_seed(key), candidate_id, trial)`, a pure
/// function of the plan and the survivor — never of evaluation order,
/// thread schedule, cache state or epoch.
#[derive(Debug, Clone)]
pub struct SimHarness {
    config: ScenarioConfig,
}

impl SimHarness {
    /// Creates a harness over a validated scenario configuration.
    ///
    /// # Errors
    ///
    /// [`SkylineError::Tier2`] when a configuration field is out of
    /// domain (negative sigma, derate outside `(0, 1]`, …).
    pub fn new(config: ScenarioConfig) -> Result<Self, SkylineError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The scenario this harness simulates under.
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Robustness of one survivor: the fraction of `trials` seeded
    /// stop-scenario runs completed without infraction at the derated
    /// commanded velocity. Unsimulable builds score `0.0` with no
    /// trials.
    fn robustness(&self, catalog: &Catalog, base: u64, job: &Job, trials: u32) -> (f64, u64) {
        let point = &job.point;
        if !point.outcome.feasible || trials == 0 {
            return (0.0, 0);
        }
        let v_cmd = self.config.derate * point.outcome.velocity.get();
        let rate = point.candidate.throughput.get() * self.config.decision_rate_scale;
        let range = catalog.sensor_by_id(point.candidate.sensor).range().get()
            * point.setting.sensor_range_scale;
        let degenerate = |v: f64| !v.is_finite() || v <= 0.0;
        // A rate whose period overflows is as unsimulable as a zero rate:
        // the scenario's decision period would not be finite.
        if degenerate(v_cmd) || degenerate(rate) || degenerate(rate.recip()) || degenerate(range) {
            return (0.0, 0);
        }
        let (Ok(v_cmd), Ok(rate), Ok(range)) = (
            MetersPerSecond::try_new(v_cmd),
            Hertz::try_new(rate),
            Meters::try_new(range),
        ) else {
            return (0.0, 0);
        };
        // Infeasible dynamics (payload beyond thrust margin, bad drag
        // domain) are a property of the *build*, not the query: score
        // the sentinel instead of failing the evaluation.
        let Ok(body) = catalog
            .airframe_by_id(point.airframe)
            .loaded_dynamics(point.outcome.payload)
        else {
            return (0.0, 0);
        };
        let Ok(drag) = DragModel::quadratic(self.config.drag_coefficient) else {
            return (0.0, 0);
        };
        let Ok(vehicle) =
            VehicleDynamics::from_body_dynamics(&body, self.config.response_lag, drag)
        else {
            return (0.0, 0);
        };
        let Ok(disturbance) = DisturbanceModel::gaussian(self.config.disturbance_sigma) else {
            return (0.0, 0);
        };
        let scenario = StopScenario::new(vehicle, rate, range)
            .with_disturbance(disturbance)
            .with_phase(DecisionPhase::Random);
        let completed = (0..u64::from(trials))
            .filter(|&t| !scenario.infracts(v_cmd, trial_seed(base, job.id, t)))
            .count();
        (completed as f64 / f64::from(trials), u64::from(trials))
    }

    /// End-to-end p99 latency (seconds) of the survivor's
    /// sense→compute→actuate pipeline; `+∞` when the build cannot be
    /// simulated (infeasible, zero rates) or never completes an action.
    fn p99_latency(&self, catalog: &Catalog, base: u64, job: &Job) -> f64 {
        let point = &job.point;
        if !point.outcome.feasible {
            return f64::INFINITY;
        }
        let frame_rate = catalog
            .sensor_by_id(point.candidate.sensor)
            .frame_rate()
            .get()
            * point.setting.sensor_rate_scale;
        let throughput = point.candidate.throughput.get();
        let degenerate = |v: f64| !v.is_finite() || v <= 0.0;
        if degenerate(frame_rate) || degenerate(throughput) {
            return f64::INFINITY;
        }
        let (Ok(sensor_period), Ok(compute_period), Ok(control_latency)) = (
            Seconds::try_new(frame_rate.recip()),
            Seconds::try_new(throughput.recip()),
            Seconds::try_new(CONTROL_LATENCY_S),
        ) else {
            return f64::INFINITY;
        };
        // Stage parameters are validated by ScenarioConfig::validate and
        // the positivity guards above, which is what the StageConfig
        // constructors assert.
        let sensor = StageConfig::fixed(sensor_period);
        let compute = StageConfig::fixed(compute_period)
            .with_jitter(Jitter::LogNormal {
                sigma: self.config.pipeline_jitter_sigma,
            })
            .with_drop_rate(self.config.pipeline_drop_rate);
        let control = StageConfig::fixed(control_latency);
        let stats = PipelineSim::new(sensor, compute, control).run(
            ExecutionMode::Pipelined,
            PIPELINE_ACTIONS,
            trial_seed(base, job.id, P99_TRIAL),
        );
        stats
            .latency_percentile(0.99)
            .map_or(f64::INFINITY, Quantity::get)
    }
}

impl Default for SimHarness {
    /// Calm conditions ([`ScenarioConfig::calm`]).
    fn default() -> Self {
        Self {
            config: ScenarioConfig::calm(),
        }
    }
}

impl Tier2Evaluator for SimHarness {
    fn evaluate(&self, ctx: &Tier2Context<'_>) -> Result<Tier2Evaluation, SkylineError> {
        let plan = ctx.plan;
        let objectives: Vec<SimObjective> = plan.sim_objectives().to_vec();
        let base = plan_base_seed(plan.key());
        let survivors = ctx.result.survivors(plan.survivor_budget());

        // Resolve every survivor to a simulation job up front; failures
        // here (an unstored point, a setting missing from the plan grid)
        // are engine invariant violations, not build properties.
        let jobs: Vec<Job> = survivors
            .iter()
            .map(|&index| {
                let point = ctx
                    .result
                    .try_point(index)
                    .ok_or_else(|| SkylineError::Tier2 {
                        reason: format!("survivor index {index} is not stored in the result"),
                    })?;
                let setting_index = plan
                    .settings()
                    .iter()
                    .position(|s| *s == point.setting)
                    .ok_or_else(|| SkylineError::Tier2 {
                        reason: format!(
                            "survivor index {index}: knob setting not in the plan's sweep grid"
                        ),
                    })?;
                Ok(Job {
                    index,
                    point,
                    id: candidate_id(&point, setting_index),
                })
            })
            .collect::<Result<_, SkylineError>>()?;

        // A prior sim row is reused only when it provably describes the
        // same simulation: same objectives, same candidate identity, and
        // the prior tier-1 point is bit-equal to the current one (seeds
        // are epoch-free, so equal inputs ⇒ equal outputs).
        let prior_block = ctx.prior.and_then(|p| {
            p.sim()
                .filter(|block| block.objectives == objectives)
                .map(|block| (block, p))
        });
        let reuse = |job: &Job| -> Option<Vec<f64>> {
            let (block, prior_result) = prior_block?;
            let row = block.row_for(job.id)?;
            let prior_point = prior_result.try_point(row.index)?;
            (prior_point == job.point).then(|| row.values.clone())
        };

        // Fan the survivor jobs through the session's work-stealing
        // pool; chunk size 1 because one job (a 256-action pipeline run
        // and a few dozen verdict-only trials) costs about 0.2 ms of
        // CPU, far more than claiming a chunk.
        let row_results: Vec<RowResult> = parallel_map_indices(jobs.len(), 1, |j| {
            let Some(job) = jobs.get(j) else {
                return RowResult {
                    values: vec![f64::NAN; objectives.len()],
                    trials: 0,
                    reused: false,
                };
            };
            if let Some(values) = reuse(job) {
                return RowResult {
                    values,
                    trials: 0,
                    reused: true,
                };
            }
            let mut values = Vec::with_capacity(objectives.len());
            let mut trials_run = 0u64;
            for objective in &objectives {
                match *objective {
                    SimObjective::MissionRobustness { trials } => {
                        let (value, paid) = self.robustness(ctx.catalog, base, job, trials);
                        values.push(value);
                        trials_run += paid;
                    }
                    SimObjective::PipelineP99Latency => {
                        values.push(self.p99_latency(ctx.catalog, base, job));
                        trials_run += 1;
                    }
                }
            }
            RowResult {
                values,
                trials: trials_run,
                reused: false,
            }
        });

        let mut usage = SimUsage::default();
        let mut rows: Vec<SimRow> = jobs
            .iter()
            .zip(&row_results)
            .map(|(job, r)| {
                usage.trials += r.trials;
                usage.reused_rows += u64::from(r.reused);
                SimRow {
                    candidate_id: job.id,
                    index: job.index,
                    values: r.values.clone(),
                }
            })
            .collect();
        rows.sort_unstable_by(|a, b| {
            a.candidate_id
                .cmp(&b.candidate_id)
                .then(a.index.cmp(&b.index))
        });

        let report = build_report(plan, ctx.result, &rows);
        Ok(Tier2Evaluation {
            block: SimBlock {
                objectives,
                rows,
                report,
            },
            usage,
        })
    }
}
