//! Property tests for the compile/execute split: plan-key round-trips,
//! bounded-heap top-k vs. the full ranking, cache-hit bit-identity, and
//! shared-pass batches vs. standalone runs (including the `nonfinite`
//! accounting and the Table II airframe knobs).

use std::sync::Arc;

use f1_components::Catalog;
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Constraint, Knob, KnobSweep, MissionProfile, Objective};
use f1_skyline::session::{ResultSet, Session};
use f1_skyline::SkylineError;
use f1_units::{Grams, MetersPerSecond, Watts};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A seed-derived random plan over the paper catalog: objective subsets,
/// primary rotation, constraint mixes and (optionally) a two-value knob
/// sweep, so generated plans cover the builder surface.
fn random_plan(seed: u64, with_sweep: bool) -> QueryPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    // Battery-free objective pool (endurance needs a mounted battery;
    // covered by unit tests separately).
    let pool = [
        Objective::SafeVelocity,
        Objective::TotalTdp,
        Objective::PayloadMass,
        Objective::MissionEnergyWhPerKm,
    ];
    let bits = rng.gen_range(0u32..16);
    let mut objectives: Vec<Objective> = pool
        .iter()
        .enumerate()
        .filter(|&(i, _)| bits & (1 << i) != 0)
        .map(|(_, &o)| o)
        .collect();
    if objectives.is_empty() {
        objectives.push(pool[rng.gen_range(0usize..pool.len())]);
    }
    let rotation = rng.gen_range(0usize..objectives.len());
    objectives.rotate_left(rotation);
    let mut builder = QueryPlan::builder().objectives(&objectives);
    if rng.gen_range(0u32..2) == 0 {
        builder = builder.constraint(Constraint::MaxTotalTdp(Watts::new(
            rng.gen_range(0.5f64..40.0),
        )));
    }
    if rng.gen_range(0u32..2) == 0 {
        builder = builder.constraint(Constraint::MinVelocity(MetersPerSecond::new(
            rng.gen_range(0.01f64..5.0),
        )));
    }
    if rng.gen_range(0u32..2) == 0 {
        builder = builder.constraint(Constraint::FeasibleOnly);
    }
    if with_sweep {
        let value = rng.gen_range(0.5f64..2.0);
        let (knob, values) = match rng.gen_range(0u32..6) {
            0 => (Knob::TdpScale, vec![1.0, value]),
            1 => (Knob::SensorRateScale, vec![1.0, value]),
            2 => (Knob::SensorRangeScale, vec![1.0, value]),
            3 => (Knob::PayloadDelta, vec![0.0, value * 100.0]),
            4 => (Knob::WeightScale, vec![1.0, value]),
            _ => (Knob::RotorPull, vec![1.0, value]),
        };
        builder = builder.sweep(KnobSweep::new(knob, values));
    }
    builder.build().expect("generated plans are valid")
}

/// Bit-exact equality of two result sets' objective columns: `==` on
/// f64 treats `-0.0 == 0.0` and would hide a sign flip; cache hits and
/// deterministic recomputation must agree to the bit.
fn columns_bit_identical(a: &ResultSet, b: &ResultSet) -> bool {
    a.objectives() == b.objectives()
        && a.len() == b.len()
        && (0..a.objectives().len()).all(|pos| {
            a.column(pos)
                .iter()
                .zip(b.column(pos))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// `top_k(k)` equals the first `k` of the full ranking — exactly,
    /// including feasible-first ordering and enumeration-order ties —
    /// for random plans and random `k`.
    #[test]
    fn top_k_equals_ranked_prefix(seed in 0u64..1_000_000, k in 0usize..1500) {
        let plan = random_plan(seed, false);
        let session = Session::new(Arc::new(Catalog::paper()));
        let result = session.run(&plan).unwrap();
        let ranked = result.ranked();
        let take = k.min(ranked.len());
        prop_assert_eq!(result.top_k(k), &ranked[..take]);
    }

    /// A cache hit returns bit-identical objective rows — trivially for
    /// the shared `Arc`, and (the stronger claim) for an independent
    /// session recomputing the same plan from scratch.
    #[test]
    fn cache_hits_are_bit_identical(seed in 0u64..1_000_000) {
        let plan = random_plan(seed, true);
        let catalog = Arc::new(Catalog::paper());
        let session = Session::new(Arc::clone(&catalog));
        let first = session.run(&plan).unwrap();
        let hit = session.run(&plan).unwrap();
        prop_assert!(Arc::ptr_eq(&first, &hit));
        prop_assert!(columns_bit_identical(&first, &hit));
        prop_assert_eq!(first.frontier(), hit.frontier());
        let fresh = Session::new(catalog).run(&plan).unwrap();
        prop_assert!(columns_bit_identical(&first, &fresh));
        prop_assert_eq!(first.frontier(), fresh.frontier());
        prop_assert_eq!(&*first, &*fresh);
    }

    /// A shared-pass batch returns exactly what each plan produces when
    /// run standalone — points, columns, frontier, and the dropped /
    /// nonfinite accounting. The co-passable members vary everything a
    /// pass evaluates per plan: a mounted battery with hover endurance,
    /// mission profiles that differ between members, constraints on
    /// objectives the plan does not rank (so its frontier cannot reduce
    /// through a shared skyline), co-shaped members that share one, and
    /// streaming members.
    #[test]
    fn batch_matches_standalone(seed in 0u64..1_000_000, extra in 2usize..6) {
        let catalog = Arc::new(Catalog::paper());
        // `extra` co-passable plans (same sweep signature, different
        // constraints/objectives) plus one with its own signature, so
        // the batch spans more than one pass group.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let shared_sweep = KnobSweep::new(Knob::TdpScale, vec![1.0, rng.gen_range(0.4f64..0.9)]);
        // Half the batches mount a battery on every co-passable member
        // (it is part of the pass signature), letting hover endurance
        // join one objective list.
        let battery = (rng.gen_range(0u32..2) == 0)
            .then(|| catalog.battery_entries().next().map(|(id, _)| id))
            .flatten();
        // The first two members are co-shaped and reducible: one
        // objective list and TDP caps only. The rest draw one of two
        // lists with a power objective, so members that share a list
        // can still differ in mission profile, constraints and mode.
        let lists: Vec<Vec<Objective>> = (0..2u64)
            .map(|l| {
                let mut objectives = random_plan(seed.wrapping_add(l), false)
                    .objectives()
                    .to_vec();
                let power = if battery.is_some() && l == 1 {
                    Objective::HoverEnduranceMin
                } else {
                    Objective::MissionEnergyWhPerKm
                };
                // List 0 carries TotalTdp, so its TDP caps can reduce.
                let mut required = vec![power];
                if l == 0 {
                    required.push(Objective::TotalTdp);
                }
                for objective in required {
                    if !objectives.contains(&objective) {
                        objectives.push(objective);
                    }
                }
                objectives
            })
            .collect();
        let mut plans: Vec<QueryPlan> = (0..extra)
            .map(|i| {
                let objectives = if i < 2 {
                    vec![Objective::TotalTdp, Objective::SafeVelocity]
                } else {
                    lists[(i / 2 + 1) % 2].clone()
                };
                let mut builder = QueryPlan::builder()
                    .objectives(&objectives)
                    .sweep(shared_sweep.clone());
                if let Some(battery) = battery {
                    builder = builder.battery(battery);
                }
                builder = builder.constraint(Constraint::MaxTotalTdp(Watts::new(
                    rng.gen_range(0.5f64..40.0),
                )));
                if i >= 2 {
                    if rng.gen_range(0u32..2) == 0 {
                        builder = builder.constraint(Constraint::MinVelocity(
                            MetersPerSecond::new(rng.gen_range(0.01f64..5.0)),
                        ));
                    }
                    if rng.gen_range(0u32..2) == 0 {
                        builder = builder.mission_profile(MissionProfile {
                            figure_of_merit: rng.gen_range(0.5f64..0.8),
                            ..MissionProfile::default()
                        });
                    }
                    if rng.gen_range(0u32..3) == 0 {
                        builder = builder.keep_points(KeepPoints::FrontierOnly);
                    }
                }
                builder.build().unwrap()
            })
            .collect();
        // Half the batches add the first member's objectives in the
        // other order: its rows fill a value set of their own, but it
        // reduces through the first two members' shared skyline, which
        // then takes rows from two value sets.
        if rng.gen_range(0u32..2) == 0 {
            let mut builder = QueryPlan::builder()
                .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
                .sweep(shared_sweep.clone())
                .constraint(Constraint::MaxTotalTdp(Watts::new(rng.gen_range(0.5f64..40.0))));
            if let Some(battery) = battery {
                builder = builder.battery(battery);
            }
            plans.push(builder.build().unwrap());
        }
        plans.push(random_plan(seed ^ 0xbeef, true));
        let session = Session::new(Arc::clone(&catalog));
        let batch = session.run_batch(&plans).unwrap();
        prop_assert_eq!(batch.len(), plans.len());
        for (plan, batched) in plans.iter().zip(&batch) {
            let standalone = Session::new(Arc::clone(&catalog)).run(plan).unwrap();
            prop_assert!(columns_bit_identical(batched, &standalone));
            prop_assert_eq!(batched.frontier(), standalone.frontier());
            prop_assert_eq!(batched.dropped(), standalone.dropped());
            prop_assert_eq!(batched.nonfinite(), standalone.nonfinite());
            prop_assert_eq!(&**batched, &*standalone);
        }
    }

    /// The canonical key round-trips every generated plan exactly.
    #[test]
    fn plan_keys_round_trip(seed in 0u64..1_000_000) {
        let plan = random_plan(seed, true);
        let replayed = QueryPlan::from_key(plan.key()).unwrap();
        prop_assert_eq!(&replayed, &plan);
        prop_assert_eq!(replayed.key(), plan.key());
    }

    /// Fuzz: truncating a canonical key anywhere never panics. A cut
    /// that damages the section structure (removes at least one `|`)
    /// is always [`SkylineError::PlanKey`]; a cut inside the final
    /// section leaves a structurally well-formed key, which may then
    /// fail value parsing (`PlanKey`), fail semantic validation (e.g.
    /// a truncated profile value leaving its domain), or — rarely —
    /// land on another canonical key (shortening a float digit by
    /// digit), in which case the parser's canonical-form check
    /// guarantees the accepted string round-trips to itself.
    #[test]
    fn truncated_keys_fail_as_plan_key_errors(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3) ^ 0xF0221);
        let key = random_plan(seed, rng.gen_range(0u32..2) == 0).key().to_owned();
        let cut = rng.gen_range(0usize..key.len());
        let truncated = &key[..cut];
        if key[cut..].contains('|') {
            // At least one whole section was cut off: must be PlanKey.
            prop_assert!(matches!(
                QueryPlan::from_key(truncated),
                Err(SkylineError::PlanKey { .. })
            ));
        } else {
            match QueryPlan::from_key(truncated) {
                Err(_) => {}
                Ok(plan) => prop_assert_eq!(plan.key(), truncated),
            }
        }
    }

    /// Fuzz: reordering, duplicating or deleting any section of a
    /// canonical key is always rejected as [`SkylineError::PlanKey`] —
    /// a key is a cache identity, so exactly one spelling may exist.
    #[test]
    fn reordered_or_reshaped_keys_are_rejected(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(5) ^ 0xF0222);
        let key = random_plan(seed, rng.gen_range(0u32..2) == 0).key().to_owned();
        let mut sections: Vec<&str> = key.split('|').collect();
        // Index 0 is the version prefix; mutate only body sections.
        let a = rng.gen_range(1usize..sections.len());
        match rng.gen_range(0u32..4) {
            0 => {
                // Swap two distinct sections.
                let b = 1 + (a - 1 + rng.gen_range(1usize..sections.len() - 1))
                    % (sections.len() - 1);
                sections.swap(a, b);
            }
            1 => {
                // Duplicate a section in place.
                let dup = sections[a];
                sections.insert(a, dup);
            }
            2 => {
                // Delete a section.
                sections.remove(a);
            }
            _ => {
                // Inject an unknown section.
                sections.insert(a, "zz=1");
            }
        }
        let mutated = sections.join("|");
        prop_assert!(
            matches!(
                QueryPlan::from_key(&mutated),
                Err(SkylineError::PlanKey { .. })
            ),
            "accepted reshaped key {mutated:?}"
        );
    }

    /// Fuzz: arbitrary printable garbage is rejected as
    /// [`SkylineError::PlanKey`], and single-character corruption of a
    /// canonical key never panics (when accepted, the canonical-form
    /// check makes the accepted string self-identifying).
    #[test]
    fn garbage_and_corrupted_keys_never_panic(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7) ^ 0xF0223);
        let len = rng.gen_range(0usize..80);
        let garbage: String = (0..len)
            .map(|_| char::from(rng.gen_range(0x20u32..0x7f) as u8))
            .collect();
        prop_assume!(!garbage.starts_with("f1.plan.v1"));
        prop_assert!(matches!(
            QueryPlan::from_key(&garbage),
            Err(SkylineError::PlanKey { .. })
        ));

        let key = random_plan(seed, rng.gen_range(0u32..2) == 0).key().to_owned();
        let pos = rng.gen_range(0usize..key.len());
        let mut corrupted = key.clone().into_bytes();
        corrupted[pos] = rng.gen_range(0x20u32..0x7f) as u8;
        let corrupted = String::from_utf8(corrupted).expect("ASCII stays ASCII");
        // Most corruptions are malformed; some hit a value digit and
        // yield a different (still canonical) plan; some surface a
        // semantic error (e.g. an out-of-domain profile value).
        if let Ok(plan) = QueryPlan::from_key(&corrupted) {
            prop_assert_eq!(plan.key(), &corrupted);
        }
    }
}

/// The `nonfinite` accounting survives the batch path: a plan whose
/// energy objective overflows to +∞ (vanishing sensor range) must
/// report the same counts batched as standalone, next to a healthy
/// plan sharing the batch.
#[test]
fn batch_preserves_nonfinite_accounting() {
    let catalog = Arc::new(Catalog::paper());
    let degenerate = QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::MissionEnergyWhPerKm])
        .constraint(Constraint::FeasibleOnly)
        .sweep(KnobSweep::new(Knob::SensorRangeScale, vec![1e-307]))
        .build()
        .unwrap();
    let healthy = QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::MissionEnergyWhPerKm])
        .constraint(Constraint::FeasibleOnly)
        .build()
        .unwrap();
    let session = Session::new(Arc::clone(&catalog));
    let batch = session
        .run_batch(&[degenerate.clone(), healthy.clone()])
        .unwrap();
    assert!(batch[0].nonfinite() > 0);
    assert_eq!(batch[0].nonfinite(), batch[0].len());
    assert!(batch[0].frontier().is_empty());
    assert_eq!(batch[1].nonfinite(), 0);
    assert!(!batch[1].frontier().is_empty());
    for (plan, batched) in [degenerate, healthy].iter().zip(&batch) {
        let standalone = Session::new(Arc::clone(&catalog)).run(plan).unwrap();
        assert_eq!(**batched, *standalone);
    }
}

/// Two frontier-reducible plans that rank the same four objectives in
/// different orders keep their rows in two value sets but reduce
/// through one shared skyline, so that skyline takes rows from both
/// sets; their different TDP caps make each set keep rows the other
/// drops. Each batch member must equal its standalone run.
#[test]
fn reordered_objectives_share_one_skyline_across_value_sets() {
    let catalog = Arc::new(Catalog::synthesize(42, 22));
    let airframe = catalog.airframe_entries().map(|(id, _)| id).next().unwrap();
    let ranked = [
        Objective::SafeVelocity,
        Objective::TotalTdp,
        Objective::PayloadMass,
        Objective::MissionEnergyWhPerKm,
    ];
    let reordered = [
        Objective::TotalTdp,
        Objective::MissionEnergyWhPerKm,
        Objective::SafeVelocity,
        Objective::PayloadMass,
    ];
    let plans: Vec<QueryPlan> = [(&ranked, 20.0), (&reordered, 45.0)]
        .into_iter()
        .map(|(objectives, cap)| {
            QueryPlan::builder()
                .objectives(objectives)
                .airframes(&[airframe])
                .constraint(Constraint::MaxTotalTdp(Watts::new(cap)))
                .build()
                .unwrap()
        })
        .collect();
    let batch = Session::new(Arc::clone(&catalog))
        .run_batch(&plans)
        .unwrap();
    // The caps split the candidates: the second plan keeps rows the
    // first drops.
    assert!(batch[0].dropped() > batch[1].dropped());
    assert!(!batch[0].is_empty());
    for (plan, batched) in plans.iter().zip(&batch) {
        let standalone = Session::new(Arc::clone(&catalog)).run(plan).unwrap();
        assert!(!standalone.frontier().is_empty());
        assert!(columns_bit_identical(batched, &standalone));
        assert_eq!(batched.frontier(), standalone.frontier());
        assert_eq!(batched.dropped(), standalone.dropped());
        assert_eq!(**batched, *standalone);
    }
}

/// Airframe knob sweeps (Table II drone weight / rotor pull) ride
/// through plans and sessions like any other knob: variant tables are
/// built per setting, outcomes shift the right way, and the identity
/// setting stays bit-identical to the unswept plan.
#[test]
fn airframe_knobs_flow_through_the_session_path() {
    let catalog = Arc::new(Catalog::paper());
    let session = Session::new(Arc::clone(&catalog));
    let swept = QueryPlan::builder()
        .sweep(KnobSweep::new(Knob::WeightScale, vec![1.0, 0.6]))
        .sweep(KnobSweep::new(Knob::RotorPull, vec![1.0, 1.4]))
        .build()
        .unwrap();
    let stock = QueryPlan::builder().build().unwrap();
    let swept_result = session.run(&swept).unwrap();
    let stock_result = session.run(&stock).unwrap();
    assert_eq!(swept_result.len(), 4 * stock_result.len());
    // Identity-setting points equal the unswept run, in order.
    let identity: Vec<_> = swept_result
        .iter_points()
        .filter(|p| p.setting.is_identity())
        .collect();
    assert_eq!(identity.len(), stock_result.len());
    for (swept_point, stock_point) in identity.iter().zip(stock_result.iter_points()) {
        assert_eq!(swept_point.outcome, stock_point.outcome);
    }
    // Lighter + stronger can only help velocity, and payload objective
    // values are untouched by frame changes.
    let stock_points: Vec<_> = stock_result.iter_points().collect();
    for point in swept_result.iter_points() {
        if point.setting.weight_scale == 0.6 && point.setting.rotor_pull_scale == 1.4 {
            let twin = stock_points
                .iter()
                .find(|p| p.airframe == point.airframe && p.candidate == point.candidate)
                .unwrap();
            assert!(point.outcome.velocity >= twin.outcome.velocity);
            assert_eq!(point.outcome.payload, twin.outcome.payload);
        }
    }
}

/// Out-of-domain airframe knob values fail at variant-build time with
/// the knob's Table II name — through the session path, before any
/// evaluation runs.
#[test]
fn airframe_knob_validation_names_the_knob_via_session() {
    let session = Session::new(Arc::new(Catalog::paper()));
    for (knob, expected) in [
        (Knob::WeightScale, "Drone Weight"),
        (Knob::RotorPull, "Rotor Pull"),
    ] {
        let plan = QueryPlan::builder()
            .sweep(KnobSweep::new(knob, vec![1e308]))
            .build()
            .unwrap();
        match session.run(&plan).unwrap_err() {
            f1_skyline::SkylineError::KnobVariant { knob, value, .. } => {
                assert_eq!(knob, expected);
                assert_eq!(value, 1e308);
            }
            other => panic!("expected KnobVariant, got {other:?}"),
        }
    }
}

/// Sessions are shareable across threads: concurrent runs of the same
/// plan race benignly (deterministic results), and distinct plans fill
/// the cache once each.
#[test]
fn session_serves_concurrent_threads() {
    let session = Arc::new(Session::new(Arc::new(Catalog::paper())));
    let plans: Vec<QueryPlan> = [5.0, 10.0, 20.0]
        .iter()
        .map(|&w| {
            QueryPlan::builder()
                .constraint(Constraint::MaxTotalTdp(Watts::new(w)))
                .constraint(Constraint::MaxPayload(Grams::new(900.0)))
                .build()
                .unwrap()
        })
        .collect();
    let results: Vec<Arc<ResultSet>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let session = Arc::clone(&session);
                let plan = plans[i % plans.len()].clone();
                scope.spawn(move || session.run(&plan).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, result) in results.iter().enumerate() {
        let reference = session.run(&plans[i % plans.len()]).unwrap();
        assert_eq!(**result, *reference);
    }
    assert_eq!(session.cache_stats().entries, plans.len());
}
