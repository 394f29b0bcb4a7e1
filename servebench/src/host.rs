//! The host side of a run: a fixed CPU warm-up, a calibration loop,
//! process counters from `/proc`, and the machine block printed with
//! every result.

use std::hint::black_box;
use std::path::Path;

/// Spin-loop iterations of the warm-up, per core.
const WARM_UP_ITERATIONS: u64 = 60_000_000;

/// Spin-loop iterations of the calibration loop (`host.calib_ms`).
const CALIBRATION_ITERATIONS: u64 = 20_000_000;

/// `CLOCK_PROCESS_CPUTIME_ID` from Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

fn spin(iterations: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iterations {
        x = black_box(f1_sim::mix64(x ^ i));
    }
    x
}

/// Runs the fixed spin loop on every core so the measured phases start
/// on a busy, clocked-up CPU. No metric includes it.
pub fn warm_up() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| black_box(spin(WARM_UP_ITERATIONS)));
        }
    });
}

/// The CPU time of the fixed calibration loop on one core, in
/// milliseconds: a slow-core flag that no workload code can move. Like
/// the end-to-end times it leaves out stolen time, so it moves only
/// when the core itself runs slower.
///
/// # Errors
///
/// When the CPU clock is unreadable.
pub fn calibrate_ms() -> std::io::Result<f64> {
    let started = process_cpu_s()?;
    black_box(spin(CALIBRATION_ITERATIONS));
    Ok((process_cpu_s()? - started) * 1e3)
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// CPU time all threads of the process have run so far, in seconds, to
/// the nanosecond.
///
/// Unlike wall time it does not grow while a thread waits: for the
/// scheduler, for I/O, or for a virtual CPU the hypervisor has taken
/// away (kernels built with `CONFIG_PARAVIRT_TIME_ACCOUNTING` leave
/// stolen time out of every task's run time).
///
/// # Errors
///
/// When the kernel refuses the clock.
#[allow(unsafe_code)]
pub fn process_cpu_s() -> std::io::Result<f64> {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec`, and
    // clock_gettime writes nothing else.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9)
}

/// Machine-wide CPU time so far, from the first line of `/proc/stat`:
/// `(stolen, total)` in clock ticks, where stolen is the time the
/// hypervisor ran something else while a virtual CPU wanted to run.
///
/// # Errors
///
/// When `/proc/stat` is unreadable or malformed.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .map(|v| v.parse().map_err(|_| format!("bad /proc/stat field {v:?}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user time.
    let counted = &ticks[..ticks.len().min(8)];
    Ok((counted.get(7).copied().unwrap_or(0), counted.iter().sum()))
}

/// The share of machine CPU time stolen between two [`cpu_ticks`]
/// readings.
#[must_use]
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    crate::stats::ratio(after.0 - before.0, after.1 - before.1)
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over every file under `dir`, visited in sorted path order:
/// identifies the source a run was built from when there is no commit.
fn source_digest(dir: &Path) -> u64 {
    fn visit(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    visit(dir, &mut files);
    files.sort();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        let name = path.strip_prefix(dir).unwrap_or(&path).to_string_lossy();
        for b in name.as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    hash
}

/// The filesystem type holding `path`: the longest mount point in
/// `/proc/mounts` that prefixes it.
fn filesystem(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// The machine block: core count, commit and source digest, build
/// profile, seed, the data directory's filesystem and the store's
/// flush policy. One JSON object.
#[must_use]
pub fn machine_block(root: &Path, seed: u64, data_dir: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let flush = f1_store::DurableOptions::default();
    format!(
        "{{\"cores\": {cores}, \"commit\": \"{}\", \"source_digest\": \"{:016x}\", \
         \"profile\": \"{profile}\", \"seed\": {seed}, \"data_dir_fs\": \"{}\", \
         \"flush_policy\": \"fsync per epoch, snapshot every {} epochs\"}}",
        commit(root),
        source_digest(&root.join("crates")),
        filesystem(data_dir),
        flush.snapshot_every,
    )
}
