//! What the benchmark learns about the machine it runs on: resident
//! memory, a fixed reference loop, and provenance.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Reads a `kB` field (`VmHWM`, `VmRSS`) of `/proc/self/status` in MB.
/// Returns 0 where the file or field does not exist.
fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process's peak resident set since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// The process's current resident set.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Hands freed heap memory back to the kernel and restarts the peak
/// resident-set counter from the current resident set, so the next
/// [`peak_rss_mb`] covers only what runs after this call.
///
/// Returns whether the counter could be reset (Linux only).
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
    // free arena memory to the kernel; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Times a fixed integer workload (a few tenths of a second on a 2020s
/// server core). Its drift between the start and end of a run, or
/// between runs, shows a slow host phase apart from a code regression.
pub fn reference_loop_s() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    let mut acc = 0u64;
    for _ in 0..black_box(150_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x >> 60);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Where and with what a result was produced.
#[derive(Clone, PartialEq, Debug)]
pub struct Provenance {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Provenance {
    /// Collects provenance for a checkout rooted at `repo_root`.
    pub fn collect(repo_root: &Path) -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_owned(),
            commit: git_commit(repo_root).unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// Resolves `HEAD` by reading `.git` directly (no `git` process, no
/// search outside the checkout).
fn git_commit(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_set_is_visible_and_resettable() {
        assert!(rss_mb() > 0.0);
        let ballast = vec![1u8; 64 << 20];
        black_box(&ballast);
        let before = peak_rss_mb();
        assert!(before >= 64.0, "peak {before} MB misses the ballast");
        drop(ballast);
        assert!(reset_peak_rss());
        assert!(peak_rss_mb() < before - 32.0, "reset kept the old peak");
    }

    #[test]
    fn reference_loop_takes_measurable_time() {
        assert!(reference_loop_s() > 0.0);
    }
}
