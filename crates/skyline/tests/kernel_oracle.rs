//! Differential oracle for the shard kernel that does not run the
//! kernel itself: every single-plan pass executes on the kernel, so the
//! kernel is checked here against independent references instead of
//! against another executor.
//!
//! * **Frontier.** Over random plans on the paper catalog (constraints,
//!   a knob sweep, a battery with the endurance objective, airframe
//!   subsets), the frontier equals the O(n²) `naive_pareto_min` scan
//!   over `ResultSet::minimized_keys()`, in both keep-points modes.
//! * **Points and values.** At identity knob settings, the kept points
//!   are exactly the candidates a plain per-candidate enumeration keeps
//!   through `Engine::evaluate_parts_loaded` (battery mass as extra
//!   payload) and the plan's constraints, in enumeration order, with
//!   objective values derived per point from the public mission model.
//! * **Shard boundaries.** A space with two shards per block on two
//!   airframes has the frontier `pareto_min` computes over
//!   the whole key domain at once.
//! * **Run boundaries.** The kernel scores a (sensor, compute) pair's
//!   algorithms as one run: a run split by a shard boundary, runs of one
//!   candidate, a velocity floor that keeps part of a run and a batch
//!   whose members admit different runs all match the per-candidate
//!   enumeration.

use std::sync::Arc;

use f1_components::{names, AirframeId, AlgorithmId, Catalog, ComputeId, SensorId};
use f1_model::mission::hover_endurance;
use f1_skyline::dse::{Engine, Outcome};
use f1_skyline::frontier::{naive_pareto_min, pareto_min};
use f1_skyline::mission::power_model_for_parts;
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Constraint, Knob, KnobSweep, Objective};
use f1_skyline::session::{ResultSet, Session};
use f1_skyline::shard::SHARD_SIZE;
use f1_units::{Grams, MetersPerSecond, Watts};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A seed-derived random plan over the paper catalog: a random
/// objective subset (the endurance objective only with a battery), up
/// to three constraints, a two-value knob sweep when `sweep` is set, an
/// optional battery and an optional airframe subset.
fn random_plan(catalog: &Catalog, seed: u64, keep: KeepPoints, sweep: bool) -> QueryPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let with_battery = rng.gen_bool(0.5);
    let mut pool = vec![
        Objective::SafeVelocity,
        Objective::TotalTdp,
        Objective::PayloadMass,
        Objective::MissionEnergyWhPerKm,
    ];
    if with_battery {
        pool.push(Objective::HoverEnduranceMin);
    }
    let mut objectives: Vec<Objective> =
        pool.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
    if objectives.is_empty() {
        objectives.push(pool[rng.gen_range(0..pool.len())]);
    }
    let rotation = rng.gen_range(0..objectives.len());
    objectives.rotate_left(rotation);
    let mut builder = QueryPlan::builder()
        .objectives(&objectives)
        .keep_points(keep);
    if rng.gen_bool(0.5) {
        builder = builder.constraint(Constraint::MaxTotalTdp(Watts::new(
            rng.gen_range(0.5..40.0),
        )));
    }
    if rng.gen_bool(0.5) {
        builder = builder.constraint(Constraint::MinVelocity(MetersPerSecond::new(
            rng.gen_range(0.01..5.0),
        )));
    }
    if rng.gen_bool(0.3) {
        builder = builder.constraint(Constraint::FeasibleOnly);
    }
    if sweep {
        let value = rng.gen_range(0.5..2.0);
        let (knob, values) = match rng.gen_range(0u32..4) {
            0 => (Knob::TdpScale, vec![1.0, value]),
            1 => (Knob::SensorRateScale, vec![1.0, value]),
            2 => (Knob::PayloadDelta, vec![0.0, value * 100.0]),
            _ => (Knob::WeightScale, vec![1.0, value]),
        };
        builder = builder.sweep(KnobSweep::new(knob, values));
    }
    if with_battery {
        builder = builder.battery(catalog.battery_id(names::BATTERY_PELICAN).unwrap());
    }
    if rng.gen_bool(0.5) {
        let airframes: Vec<AirframeId> = catalog
            .airframe_entries()
            .map(|(id, _)| id)
            .filter(|_| rng.gen_bool(0.6))
            .collect();
        if !airframes.is_empty() {
            builder = builder.airframes(&airframes);
        }
    }
    builder.build().expect("generated plans are valid")
}

/// The frontier a naive all-pairs scan finds over the result's own key
/// domain.
fn naive_frontier(result: &ResultSet) -> Vec<usize> {
    let (keys, map) = result.minimized_keys();
    naive_pareto_min(result.objectives().len(), &keys)
        .into_iter()
        .map(|i| map[i])
        .collect()
}

/// One objective's value for an evaluated build, derived directly from
/// the outcome and the public mission power model (no per-pair hoist):
/// energy is +∞ and endurance 0 for builds that cannot fly.
fn objective_value(
    objective: Objective,
    catalog: &Catalog,
    plan: &QueryPlan,
    airframe: AirframeId,
    outcome: &Outcome,
) -> f64 {
    let profile = plan.mission_profile();
    let power = || {
        let airframe = catalog.airframe_by_id(airframe);
        power_model_for_parts(
            airframe,
            airframe.takeoff_mass(outcome.payload),
            outcome.total_tdp,
            profile.figure_of_merit,
            profile.parasitic_coeff,
        )
        .unwrap()
    };
    match objective {
        Objective::SafeVelocity => outcome.velocity.get(),
        Objective::TotalTdp => outcome.total_tdp.get(),
        Objective::PayloadMass => outcome.payload.get(),
        Objective::MissionEnergyWhPerKm if outcome.feasible && outcome.velocity.get() > 0.0 => {
            let v = outcome.velocity;
            power().power_at(v).get() * (1000.0 / v.get()) / 3600.0
        }
        Objective::MissionEnergyWhPerKm => f64::INFINITY,
        Objective::HoverEnduranceMin if outcome.feasible => {
            let battery = catalog.battery_by_id(plan.battery().unwrap());
            hover_endurance(
                &power(),
                battery.energy_watt_hours(),
                profile.battery_reserve,
            )
            .unwrap()
            .get()
        }
        Objective::HoverEnduranceMin => 0.0,
        other => panic!("the oracle has no value for {other:?}"),
    }
}

/// Checks a retained result of an identity-setting plan against a plain
/// enumeration: airframes × sensors × computes × algorithms, each in
/// plan order when the plan names them and name order otherwise, every
/// characterized candidate evaluated on its own and filtered by the
/// plan's constraints.
fn assert_matches_enumeration(catalog: &Catalog, plan: &QueryPlan, result: &ResultSet) {
    assert!(plan.settings().iter().all(|s| s.is_identity()));
    let engine = Engine::new(catalog);
    let table = catalog.throughput_table();
    let extra = Grams::new(
        plan.battery()
            .map_or(0.0, |id| catalog.battery_by_id(id).mass().get()),
    );
    let airframes: Vec<AirframeId> = match plan.airframes() {
        Some(ids) => ids.to_vec(),
        None => catalog.airframe_entries().map(|(id, _)| id).collect(),
    };
    let sensors: Vec<SensorId> = match plan.sensors() {
        Some(ids) => ids.to_vec(),
        None => catalog.sensor_entries().map(|(id, _)| id).collect(),
    };
    let computes: Vec<ComputeId> = match plan.computes() {
        Some(ids) => ids.to_vec(),
        None => catalog.compute_entries().map(|(id, _)| id).collect(),
    };
    let algorithms: Vec<AlgorithmId> = match plan.algorithms() {
        Some(ids) => ids.to_vec(),
        None => catalog.algorithm_entries().map(|(id, _)| id).collect(),
    };
    let mut index = 0usize;
    let mut dropped = 0usize;
    for &airframe in &airframes {
        for &sensor in &sensors {
            for &compute in &computes {
                for &algorithm in &algorithms {
                    let Some(throughput) = table.get(compute, algorithm) else {
                        continue;
                    };
                    let outcome = engine
                        .evaluate_parts_loaded(
                            catalog.airframe_by_id(airframe),
                            catalog.sensor_by_id(sensor),
                            catalog.compute_by_id(compute),
                            throughput,
                            extra,
                        )
                        .unwrap();
                    if !plan.constraints().iter().all(|c| c.admits(&outcome)) {
                        dropped += 1;
                        continue;
                    }
                    let point = result.try_point(index).expect("kernel kept too few points");
                    assert_eq!(point.airframe, airframe, "point {index} airframe");
                    assert_eq!(
                        (
                            point.candidate.sensor,
                            point.candidate.compute,
                            point.candidate.algorithm
                        ),
                        (sensor, compute, algorithm),
                        "point {index} parts"
                    );
                    assert_eq!(point.outcome, outcome, "point {index} outcome");
                    for (pos, &objective) in plan.objectives().iter().enumerate() {
                        let expected =
                            objective_value(objective, catalog, plan, airframe, &outcome);
                        let got = result.value(index, pos);
                        assert!(
                            got.to_bits() == expected.to_bits(),
                            "point {index} {objective:?}: {got} vs {expected}"
                        );
                    }
                    index += 1;
                }
            }
        }
    }
    assert_eq!(result.len(), index, "kept count");
    assert_eq!(result.dropped(), dropped, "dropped count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random plans: the retained frontier equals the naive scan over
    /// the result's key domain, and a streamed twin finds the same one.
    #[test]
    fn frontier_matches_naive_scan(seed in 0u64..1_000_000, auto in 0u32..2, sweep in 0u32..2) {
        let catalog = Arc::new(Catalog::paper());
        let keep = if auto == 1 { KeepPoints::Auto } else { KeepPoints::All };
        let plan = random_plan(&catalog, seed, keep, sweep == 1);
        let session = Session::new(Arc::clone(&catalog));
        let retained = session.run(&plan).unwrap();
        prop_assert!(!retained.is_streamed());
        let naive = naive_frontier(&retained);
        prop_assert_eq!(retained.frontier(), &naive[..]);

        let streamed = session
            .run(&random_plan(&catalog, seed, KeepPoints::FrontierOnly, sweep == 1))
            .unwrap();
        prop_assert!(streamed.is_streamed());
        prop_assert_eq!(streamed.frontier(), &naive[..]);
    }

    /// Random identity-setting plans: every kept point, value and the
    /// dropped count match a plain per-candidate enumeration.
    #[test]
    fn points_match_per_candidate_evaluation(seed in 0u64..1_000_000) {
        let catalog = Catalog::paper();
        let plan = random_plan(&catalog, seed, KeepPoints::All, false);
        let result = Session::new(Arc::new(catalog.clone())).run(&plan).unwrap();
        assert_matches_enumeration(&catalog, &plan, &result);
    }
}

/// Two shards per (airframe, setting) block: 41³ = 68 921 candidates on
/// each of two airframes. The merged frontier equals one skyline over
/// the whole key domain, retained or streamed.
#[test]
fn two_shard_blocks_match_one_whole_skyline() {
    let catalog = Catalog::synthesize(42, 41);
    let airframes: Vec<AirframeId> = catalog
        .airframe_entries()
        .take(2)
        .map(|(id, _)| id)
        .collect();
    let build = |keep: KeepPoints| {
        QueryPlan::builder()
            .airframes(&airframes)
            .objectives(&[
                Objective::SafeVelocity,
                Objective::TotalTdp,
                Objective::PayloadMass,
                Objective::MissionEnergyWhPerKm,
            ])
            .constraint(Constraint::MaxTotalTdp(Watts::new(30.0)))
            .keep_points(keep)
            .build()
            .unwrap()
    };
    let session = Session::new(Arc::new(catalog));
    let retained = session.run(&build(KeepPoints::All)).unwrap();
    assert_eq!(retained.len() + retained.dropped(), 2 * 41 * 41 * 41);
    let (keys, map) = retained.minimized_keys();
    let whole: Vec<usize> = pareto_min(4, &keys).into_iter().map(|i| map[i]).collect();
    assert!(!whole.is_empty());
    assert_eq!(retained.frontier(), &whole[..]);
    let streamed = session.run(&build(KeepPoints::FrontierOnly)).unwrap();
    assert_eq!(streamed.frontier(), &whole[..]);
}

/// The four analytic objectives, each with a per-run source: velocity
/// and energy per candidate, TDP and payload per (sensor, compute) run.
const FOUR_OBJECTIVES: [Objective; 4] = [
    Objective::SafeVelocity,
    Objective::TotalTdp,
    Objective::PayloadMass,
    Objective::MissionEnergyWhPerKm,
];

/// The frontier `pareto_min` finds over the result's whole key domain.
fn whole_skyline(result: &ResultSet) -> Vec<usize> {
    let (keys, map) = result.minimized_keys();
    pareto_min(result.objectives().len(), &keys)
        .into_iter()
        .map(|i| map[i])
        .collect()
}

/// A velocity floor between the slowest and fastest feasible velocity
/// of `plan` without constraints: the median.
fn median_velocity(catalog: &Arc<Catalog>, plan: &QueryPlan) -> f64 {
    let result = Session::new(Arc::clone(catalog)).run(plan).unwrap();
    let mut velocities: Vec<f64> = (0..result.len())
        .filter(|&i| result.try_key(i).unwrap().feasible)
        .map(|i| result.value(i, 0))
        .collect();
    velocities.sort_by(f64::total_cmp);
    velocities[velocities.len() / 2]
}

/// At 47 parts per family a block is 47 × 2 209 = 103 823 candidates,
/// two shards, and the boundary at candidate 65 536 falls inside one
/// (sensor, compute) run: each shard scores its part of that run with
/// its own pair stage. Every kept point, value and the dropped count
/// match a plain per-candidate enumeration, and the frontier is one
/// skyline over the whole key domain.
#[test]
fn a_shard_boundary_inside_a_run_matches_the_enumeration() {
    let catalog = Catalog::synthesize(42, 47);
    let computes: Vec<ComputeId> = catalog.compute_entries().map(|(id, _)| id).collect();
    let algorithms: Vec<AlgorithmId> = catalog.algorithm_entries().map(|(id, _)| id).collect();
    let pairs: Vec<ComputeId> = catalog
        .throughput_table()
        .characterized_pairs(&computes, &algorithms)
        .map(|(compute, _, _)| compute)
        .collect();
    let boundary = SHARD_SIZE % pairs.len();
    assert!(catalog.sensor_count() * pairs.len() > SHARD_SIZE);
    assert!(
        boundary > 0 && pairs[boundary - 1] == pairs[boundary],
        "the shard boundary falls inside a run"
    );
    let airframe = catalog.airframe_entries().map(|(id, _)| id).next().unwrap();
    let plan = QueryPlan::builder()
        .airframes(&[airframe])
        .objectives(&FOUR_OBJECTIVES)
        .constraint(Constraint::MaxTotalTdp(Watts::new(30.0)))
        .keep_points(KeepPoints::All)
        .build()
        .unwrap();
    let result = Session::new(Arc::new(catalog.clone())).run(&plan).unwrap();
    assert_matches_enumeration(&catalog, &plan, &result);
    assert!(!result.frontier().is_empty());
    assert_eq!(result.frontier(), &whole_skyline(&result)[..]);
}

/// A plan over one algorithm makes every run one candidate long, as in
/// a repair slab of one re-characterized pair.
#[test]
fn single_candidate_runs_match_the_enumeration() {
    let catalog = Arc::new(Catalog::paper());
    let dronet = catalog.algorithm_id(names::DRONET).unwrap();
    for constraint in [
        None,
        Some(Constraint::MinVelocity(MetersPerSecond::new(2.0))),
    ] {
        let mut builder = QueryPlan::builder()
            .algorithms(&[dronet])
            .objectives(&FOUR_OBJECTIVES);
        if let Some(constraint) = constraint {
            builder = builder.constraint(constraint);
        }
        let plan = builder.build().unwrap();
        let result = Session::new(Arc::clone(&catalog)).run(&plan).unwrap();
        assert!(!result.is_empty());
        assert_matches_enumeration(&catalog, &plan, &result);
        assert_eq!(result.frontier(), &naive_frontier(&result)[..]);
    }
}

/// A velocity floor decided per candidate keeps part of a run: some
/// (airframe, sensor, compute) run keeps some of its algorithms and
/// drops the rest, and the kept points, values and frontier match the
/// per-candidate enumeration.
#[test]
fn a_velocity_floor_keeps_part_of_a_run() {
    let catalog = Arc::new(Catalog::paper());
    let open = QueryPlan::builder()
        .objectives(&FOUR_OBJECTIVES)
        .build()
        .unwrap();
    let floor = median_velocity(&catalog, &open);
    let plan = QueryPlan::builder()
        .objectives(&FOUR_OBJECTIVES)
        .constraint(Constraint::MinVelocity(MetersPerSecond::new(floor)))
        .build()
        .unwrap();
    let result = Session::new(Arc::clone(&catalog)).run(&plan).unwrap();
    assert_matches_enumeration(&catalog, &plan, &result);
    assert_eq!(result.frontier(), &naive_frontier(&result)[..]);
    // Kept candidates per run against the run's length.
    let mut kept = std::collections::HashMap::new();
    for i in 0..result.len() {
        let key = result.try_key(i).unwrap();
        *kept
            .entry((key.airframe, key.candidate.sensor, key.candidate.compute))
            .or_insert(0usize) += 1;
    }
    let table = catalog.throughput_table();
    let algorithms: Vec<AlgorithmId> = catalog.algorithm_entries().map(|(id, _)| id).collect();
    let partial = kept.iter().any(|(&(_, _, compute), &count)| {
        let run = table.characterized_pairs(&[compute], &algorithms).count();
        count < run
    });
    assert!(partial, "no run was kept in part");
}

/// A batch whose members admit different runs — TDP and payload caps
/// decided per run, feasibility, a velocity floor decided per candidate,
/// and reordered objectives — returns for each member exactly what the
/// per-candidate enumeration keeps.
#[test]
fn batch_members_admitting_different_runs_match_the_enumeration() {
    let catalog = Arc::new(Catalog::paper());
    let reordered = [
        Objective::TotalTdp,
        Objective::MissionEnergyWhPerKm,
        Objective::SafeVelocity,
        Objective::PayloadMass,
    ];
    let plan = |objectives: &[Objective], constraints: &[Constraint]| {
        constraints
            .iter()
            .fold(QueryPlan::builder().objectives(objectives), |b, &c| {
                b.constraint(c)
            })
            .build()
            .unwrap()
    };
    let plans = vec![
        plan(
            &FOUR_OBJECTIVES,
            &[Constraint::MaxTotalTdp(Watts::new(5.0))],
        ),
        plan(&reordered, &[Constraint::MaxTotalTdp(Watts::new(15.0))]),
        plan(
            &FOUR_OBJECTIVES,
            &[Constraint::MaxPayload(Grams::new(400.0))],
        ),
        plan(
            &reordered,
            &[
                Constraint::FeasibleOnly,
                Constraint::MinVelocity(MetersPerSecond::new(3.0)),
            ],
        ),
        plan(&FOUR_OBJECTIVES, &[]),
    ];
    let batch = Session::new(Arc::clone(&catalog))
        .run_batch(&plans)
        .unwrap();
    let kept: std::collections::HashSet<usize> = batch.iter().map(|r| r.len()).collect();
    assert_eq!(kept.len(), plans.len(), "every member keeps its own rows");
    for (plan, result) in plans.iter().zip(&batch) {
        assert_matches_enumeration(&catalog, plan, result);
        assert_eq!(result.frontier(), &naive_frontier(result)[..]);
    }
}
