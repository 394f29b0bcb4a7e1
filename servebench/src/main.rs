//! The benchmark command: one workload, one seed, one run.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures
//! the per-layer ledger (half the time untraced, half traced). The last
//! line of standard output is the result as one JSON object; the lines
//! before it are the human-readable report.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use servebench::host;
use servebench::report::{result_line, Metric, END_TO_END, PER_LAYER};
use servebench::stats::{self, MIN_BEYOND};
use servebench::trace::Ledger;
use servebench::workload::{Counts, Env, Error, Untraced, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: servebench --workload NAME --seed N --seconds S --trace 0|1";
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {usage}"))?;
        let bad = || format!("bad {flag} value {value:?}; {usage}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown flag {other:?}; {usage}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required; {usage}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required; {usage}"))?,
        seconds: seconds.ok_or_else(|| format!("--seconds is required; {usage}"))?,
        trace: trace.ok_or_else(|| format!("--trace is required; {usage}"))?,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, Error> {
    let args = parse_args()?;
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Run artifacts go beside the executable, in the build directory:
    // files written under the package would make cargo rebuild it
    // before the next run.
    let exe = std::env::current_exe()?;
    let out_dir = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("servebench-out");
    let env = Env {
        seed: args.seed,
        family: args.workload.family(),
        timed: Duration::from_secs_f64(args.seconds),
        data_dir: out_dir.join(format!("data-{}", std::process::id())),
    };
    std::fs::create_dir_all(&env.data_dir)?;
    host::warm_up();
    let calib_ms = host::calibrate_ms()?;
    println!(
        "servebench {} seed {} ({} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let root = manifest.parent().unwrap_or(manifest);
    println!(
        "machine {}",
        host::machine_block(root, args.seed, &env.data_dir)
    );
    println!("host.calib_ms {calib_ms:.3} ms (CPU time of a fixed spin loop)");
    let result = if args.trace {
        traced_run(args.workload, &env, &out_dir, calib_ms)
    } else {
        untraced_run(args.workload, &env)
    };
    let _ = std::fs::remove_dir_all(&env.data_dir);
    result
}

/// Prints the exact counts and flags each one that deviates from the
/// workload's invariant.
fn report_counts(workload: Workload, counts: &Counts) {
    for (name, value) in counts.by_name() {
        match workload.expected_counts().iter().find(|(n, _)| *n == name) {
            Some((_, expected)) if *expected != value => {
                println!("count {name} {value} FLAG: expected exactly {expected}");
            }
            Some(_) => println!("count {name} {value} (invariant)"),
            None => println!("count {name} {value}"),
        }
    }
}

fn report_notes(notes: &[String]) {
    const SHOWN: usize = 20;
    for note in notes.iter().take(SHOWN) {
        println!("note {note}");
    }
    if notes.len() > SHOWN {
        println!("note ... and {} more", notes.len() - SHOWN);
    }
}

/// The share of CPU time the hypervisor stole during the timed phase.
fn report_steal(run: &Untraced) {
    println!(
        "host.steal_share {:.4} ratio (CPU time the hypervisor took during the timed phase)",
        run.steal_share
    );
}

fn report_attempts(attempted: u64, failed: u64) {
    println!(
        "failed_share {} ratio ({failed} of {attempted} ops failed)",
        stats::ratio(failed, attempted)
    );
}

fn untraced_run(workload: Workload, env: &Env) -> Result<String, Error> {
    let run = workload.untraced(env, SETUPS)?;
    let n = run.cpu_ms.len();
    if n == 0 {
        return Err("no op completed in the timed phase".into());
    }
    let sorted = |values: &[f64]| {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted
    };
    let (cpu, wall) = (sorted(&run.cpu_ms), sorted(&run.latencies_ms));
    let tail = workload.tail();
    let values = [
        stats::median(&run.setup_cpu_s),
        stats::percentile(&cpu, 50),
        stats::percentile(&cpu, tail.percent()),
        1e3 / stats::mean(&run.cpu_ms),
        run.peak_heap_mib,
    ];
    let metrics: Vec<(Metric, f64)> = END_TO_END.into_iter().zip(values).collect();
    for (m, value) in &metrics {
        println!("{} {value:.4} {}", m.name, m.unit);
    }
    let samples = |values: &[f64]| -> String {
        let shown: Vec<String> = values.iter().map(|s| format!("{s:.4}")).collect();
        shown.join(", ")
    };
    println!("setup_s samples [{}] (CPU s)", samples(&run.setup_cpu_s));
    let beyond = tail.beyond(n);
    let slow = if beyond < MIN_BEYOND {
        " FLAG: too few samples beyond the tail"
    } else {
        ""
    };
    println!(
        "cpu_tail_ms is {} of {n} ops ({beyond} beyond){slow}",
        tail.label()
    );
    println!("peak_heap_mib read after {} ops", run.peak_ops.min(n));
    // Wall-clock figures: what one client waited, which also moves with
    // the host's stolen time and scheduling.
    println!("wall.setup_s samples [{}] s", samples(&run.setup_wall_s));
    println!("wall.p50_ms {:.4} ms", stats::percentile(&wall, 50));
    println!(
        "wall.tail_ms {:.4} ms ({})",
        stats::percentile(&wall, tail.percent()),
        tail.label()
    );
    println!("wall.throughput_ops {:.4} 1/s", n as f64 / run.timed_s);
    println!(
        "rss.peak_mib {:.4} MiB (VmHWM, read with peak_heap_mib)",
        run.peak_rss_mib
    );
    report_steal(&run);
    report_attempts(run.attempted, run.failed);
    report_counts(workload, &run.counts);
    report_notes(&run.notes);
    Ok(result_line(
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        &metrics,
    )?)
}

fn traced_run(
    workload: Workload,
    env: &Env,
    out_dir: &Path,
    calib_ms: f64,
) -> Result<String, Error> {
    let half = Env {
        timed: env.timed / 2,
        ..env.clone()
    };
    let untraced: Untraced = workload.untraced(&half, 1)?;
    let traced = workload.traced(&half, &untraced)?;
    traced
        .trace
        .write_tsv(&out_dir.join(format!("spans-{}.tsv", workload.name())))?;

    let ops = untraced.latencies_ms.len().max(1) as f64;
    let mut ledger: Ledger = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    for (name, value) in traced.ledger {
        if ledger.insert(name, value).is_none() {
            return Err(format!("the traced run filled an unlisted metric {name}").into());
        }
    }
    ledger.extend(untraced.counts.by_name());
    ledger.insert(
        "server.unattributed_ms",
        stats::mean(&untraced.latencies_ms) - stats::mean(&traced.op_ms),
    );
    ledger.insert("process.cpu_ms_per_op", untraced.cpu_s * 1e3 / ops);
    ledger.insert("host.calib_ms", calib_ms);

    let metrics: Vec<(Metric, f64)> = PER_LAYER.iter().map(|m| (*m, ledger[m.name])).collect();
    for (m, value) in &metrics {
        println!("{} {value:.4} {}", m.name, m.unit);
    }
    println!(
        "traced {} ops against {} untraced",
        traced.op_ms.len(),
        untraced.latencies_ms.len()
    );
    report_steal(&untraced);
    let attempted = untraced.attempted + traced.op_ms.len() as u64;
    let failed = untraced.failed + traced.failed;
    report_attempts(attempted, failed);
    report_counts(workload, &untraced.counts);
    report_notes(&untraced.notes);
    report_notes(&traced.notes);
    Ok(result_line(
        failed == 0,
        attempted.max(1),
        failed,
        &metrics,
    )?)
}
