//! Each workload's exact counts and output checks on a tiny catalog:
//! the full untraced and traced paths, in seconds.

use std::path::PathBuf;
use std::time::Duration;

use servebench::workload::{Env, Untraced, Workload};

/// Parts per family: 5³ = 125 candidates per airframe.
const TINY: usize = 5;

fn env(workload: Workload, seed: u64, timed: Duration) -> Env {
    let data_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "servebench-{}-{}-{seed}",
        workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&data_dir).expect("create the data directory");
    Env {
        seed,
        family: TINY,
        timed,
        data_dir,
    }
}

#[test]
fn every_workload_keeps_its_counts_and_passes_its_checks() {
    // One test, run workload by workload: concurrent workloads would
    // contend for the cores and stall connection threads past the
    // scheduler window.
    for workload in Workload::ALL {
        let env = env(workload, 3, Duration::from_millis(400));
        let name = workload.name();
        let run = workload.untraced(&env, 2).expect("untraced run");
        assert_eq!(run.failed, 0, "{name}: {:?}", run.notes);
        assert!(run.attempted > 0 && !run.latencies_ms.is_empty(), "{name}");
        assert_eq!(run.setup_cpu_s.len(), 2, "{name}");
        assert_eq!(run.cpu_ms.len(), run.latencies_ms.len(), "{name}");
        assert!(run.cpu_ms.iter().all(|&ms| ms > 0.0), "{name}");
        assert!(run.peak_heap_mib > 0.0 && run.peak_rss_mib > 0.0, "{name}");
        for (count, expected) in workload.expected_counts() {
            let (_, value) = run
                .counts
                .by_name()
                .into_iter()
                .find(|(n, _)| n == count)
                .expect("every expected count is reported");
            assert_eq!(value, *expected, "{name}: {count}");
        }
        let traced = workload.traced(&env, &run).expect("traced run");
        assert_eq!(traced.failed, 0, "{name}: {:?}", traced.notes);
        assert!(!traced.op_ms.is_empty(), "{name}");
        assert!(!traced.trace.spans().is_empty(), "{name}");
        std::fs::remove_dir_all(&env.data_dir).expect("remove the data directory");
    }
}

#[test]
fn traced_sim_counts_repeat_for_a_seed() {
    let counts = |seed| {
        let env = env(Workload::VerifyTier2, seed, Duration::from_millis(1));
        let traced = Workload::VerifyTier2
            .traced(&env, &Untraced::default())
            .expect("traced run");
        std::fs::remove_dir_all(&env.data_dir).expect("remove the data directory");
        (
            traced.ledger["sim.survivors_per_op"],
            traced.ledger["sim.trials_per_op"],
        )
    };
    let first = counts(5);
    assert!(first.0 > 0.0 && first.1 > 0.0, "{first:?}");
    assert_eq!(first, counts(5));
}
