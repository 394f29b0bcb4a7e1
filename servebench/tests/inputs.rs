//! The benchmark's inputs and its manifest: one seed always makes the
//! same catalog and request stream, another seed makes different ones,
//! and `BENCHMARK.json` lists exactly the workloads and metrics the
//! benchmark prints.

use std::collections::HashSet;

use f1_components::{catalog_digest, json};
use f1_skyline::KeepPoints;
use servebench::report::{Metric, END_TO_END, PER_LAYER};
use servebench::stats::MIN_BEYOND;
use servebench::stream::{
    self, delta_line, hot_plans, query_line, top_line, DeltaStream, ExploreStream, HotSchedule,
    Verb, VerifyStream, QUERY_EVERY,
};
use servebench::workload::Workload;
use servebench::{churn, hot};

/// The catalog digest and the first `count` request lines a workload
/// sends for `seed`.
fn inputs(workload: Workload, seed: u64, count: usize) -> (u64, Vec<String>) {
    let catalog = stream::catalog(seed, workload.family());
    let lines = match workload {
        Workload::ExploreCold => ExploreStream::new(&catalog, seed)
            .map(|plan| top_line(&plan))
            .take(count)
            .collect(),
        Workload::ReadHot => {
            let plans = hot_plans(&catalog, hot::HOT_PLANS, KeepPoints::FrontierOnly);
            HotSchedule::new(seed, plans.len())
                .take(count)
                .map(|(verb, i)| match verb {
                    Verb::Top => top_line(&plans[i]),
                    Verb::Query => query_line(&plans[i]),
                })
                .collect()
        }
        Workload::CatalogChurn => {
            let plans = hot_plans(&catalog, churn::HOT_PLANS, KeepPoints::Auto);
            let reads: Vec<String> = plans.iter().map(top_line).collect();
            DeltaStream::new(&catalog, seed)
                .flat_map(|json| std::iter::once(delta_line(&json)).chain(reads.clone()))
                .take(count)
                .collect()
        }
        Workload::VerifyTier2 => VerifyStream::new(&catalog, seed)
            .map(|op| top_line(&op.plan))
            .take(count)
            .collect(),
    };
    (catalog_digest(&catalog), lines)
}

#[test]
fn one_seed_makes_one_input_and_another_seed_another() {
    for workload in Workload::ALL {
        let first = inputs(workload, 7, 64);
        assert_eq!(first.1.len(), 64);
        assert_eq!(first, inputs(workload, 7, 64), "{}", workload.name());
        let other = inputs(workload, 8, 64);
        assert_ne!(first.0, other.0, "{}: catalog digest", workload.name());
        assert_ne!(first.1, other.1, "{}: request stream", workload.name());
    }
}

#[test]
fn cold_streams_never_repeat_a_plan() {
    let catalog = stream::catalog(3, Workload::ExploreCold.family());
    let mut keys = HashSet::new();
    for plan in ExploreStream::new(&catalog, 3).take(2000) {
        assert!(
            keys.insert(plan.key().to_owned()),
            "repeated {}",
            plan.key()
        );
    }
    let catalog = stream::catalog(3, Workload::VerifyTier2.family());
    let mut keys = HashSet::new();
    for op in VerifyStream::new(&catalog, 3).take(1000) {
        assert!(op.plan.has_tier2() && !op.twin.has_tier2());
        assert!(keys.insert(op.plan.key().to_owned()));
    }
}

#[test]
fn hot_sets_are_the_same_for_every_seed() {
    for (workload, count, keep) in [
        (Workload::ReadHot, hot::HOT_PLANS, KeepPoints::FrontierOnly),
        (Workload::CatalogChurn, churn::HOT_PLANS, KeepPoints::Auto),
    ] {
        let keys = |seed| -> Vec<String> {
            let catalog = stream::catalog(seed, workload.family());
            hot_plans(&catalog, count, keep)
                .iter()
                .map(|plan| plan.key().to_owned())
                .collect()
        };
        let first = keys(7);
        assert_eq!(first.len(), count);
        assert_eq!(first.iter().collect::<HashSet<_>>().len(), count);
        assert_eq!(first, keys(8), "{}", workload.name());
    }
}

#[test]
fn read_hot_reads_every_document_equally_often() {
    let ops = 10 * QUERY_EVERY as usize * hot::HOT_PLANS;
    let mut queries = vec![0usize; hot::HOT_PLANS];
    for (verb, plan) in HotSchedule::new(11, hot::HOT_PLANS).take(ops) {
        if verb == Verb::Query {
            queries[plan] += 1;
        }
    }
    assert!(queries.iter().all(|&n| n == 10), "{queries:?}");
}

fn field<'a>(object: &'a [(String, json::Value)], name: &str) -> &'a json::Value {
    &object
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("no {name:?} field"))
        .1
}

fn listed_metrics(value: &json::Value) -> Vec<Metric> {
    value
        .as_array()
        .unwrap()
        .iter()
        .map(|entry| {
            let entry = entry.as_object().unwrap();
            let text = |name| field(entry, name).as_str().unwrap();
            let (name, unit, better) = (text("name"), text("unit"), text("better"));
            let known = END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("BENCHMARK.json lists unknown metric {name}"));
            assert_eq!((known.unit, known.better), (unit.as_str(), better.as_str()));
            *known
        })
        .collect()
}

/// `BENCHMARK.json` at the repository root, parsed.
fn manifest() -> json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn every_tail_has_ten_samples_beyond_it_in_a_slow_run() {
    let root = manifest();
    let seconds = field(root.as_object().unwrap(), "run_seconds")
        .as_number()
        .unwrap();
    // Half the op rates measured on a 2-vCPU VM in a quiet phase, in ops
    // per second: a run stays above them unless the host runs the VM at
    // half speed or less.
    for (workload, rate) in [
        (Workload::ExploreCold, 14.0),
        (Workload::ReadHot, 1_400.0),
        (Workload::CatalogChurn, 45.0),
        (Workload::VerifyTier2, 19.0),
    ] {
        let ops = (rate * seconds) as usize;
        let tail = workload.tail();
        assert!(
            tail.beyond(ops) >= MIN_BEYOND,
            "{}: {} of {ops} ops",
            workload.name(),
            tail.label()
        );
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let root = manifest();
    let root = root.as_object().unwrap();
    let workloads: Vec<String> = field(root, "workloads")
        .as_array()
        .unwrap()
        .iter()
        .map(|w| field(w.as_object().unwrap(), "name").as_str().unwrap())
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    assert_eq!(listed_metrics(field(root, "end_to_end")), END_TO_END);
    assert_eq!(listed_metrics(field(root, "per_layer")), PER_LAYER);
}
