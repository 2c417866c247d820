//! Counters read from outside the program: `/proc` files, the store
//! directory, and timed calls into the public `priu-linalg` kernels.

use std::fs;
use std::path::Path;
use std::time::Instant;

use priu_linalg::decomposition::{Cholesky, SymmetricEigen};
use priu_linalg::Matrix;

use crate::report::{median, Outcome};

/// Clock ticks per second of the `utime`/`stime` fields in `/proc/*/stat`
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) from a `/proc/.../stat` file.
fn stat_cpu_s(path: &str) -> f64 {
    let text = fs::read_to_string(path).unwrap_or_default();
    // The command name may hold spaces; the fields after it are fixed.
    let rest = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 0, utime field 11, stime field 12.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_S,
        _ => 0.0,
    }
}

/// CPU seconds of the whole process so far.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds of the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// The machine's CPU time counters from `/proc/stat`, as `(steal, total)`
/// clock ticks: time the hypervisor gave to other guests, and all time.
pub fn host_ticks() -> (f64, f64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0.0), total)
}

/// Share of the machine's CPU time stolen by the hypervisor since `start`
/// (a reading of [`host_ticks`]).
pub fn steal_frac_since(start: (f64, f64)) -> f64 {
    let (steal, total) = host_ticks();
    let total = total - start.1;
    if total > 0.0 {
        (steal - start.0) / total
    } else {
        0.0
    }
}

/// A value from `/proc/self/status` in kB (`VmHWM`, `VmRSS`, ...).
fn status_kb(key: &str) -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of the process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

/// The process's I/O counters from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// Bytes read through read-like system calls (page-cache hits count).
    pub rchar: f64,
    /// Bytes written through write-like system calls.
    pub wchar: f64,
    /// Write-like system calls.
    pub syscw: f64,
}

impl IoCounters {
    pub fn now() -> Self {
        let text = fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |key: &str| {
            text.lines()
                .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
                .and_then(|rest| rest.trim().parse().ok())
                .unwrap_or(0.0)
        };
        Self {
            rchar: field("rchar"),
            wchar: field("wchar"),
            syscw: field("syscw"),
        }
    }

    pub fn since(self, start: Self) -> Self {
        Self {
            rchar: self.rchar - start.rchar,
            wchar: self.wchar - start.wchar,
            syscw: self.syscw - start.syscw,
        }
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(_) => entry.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Median seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// Times the public `priu-linalg` kernels at the workload's shapes: an
/// `m×m` symmetric eigendecomposition and Cholesky factorisation, and the
/// Gram matrix and matrix-vector product of an `n×m` matrix. Records
/// `linalg.*` and returns the seconds spent, for the trace.
pub fn kernel_probes(out: &mut Outcome, x: &Matrix) -> f64 {
    let start = Instant::now();
    let (n, m) = x.shape();
    let gram = x.gram();
    let mut spd = gram.clone();
    spd.add_diagonal_mut(n as f64 * 1e-3)
        .expect("a Gram matrix is square");
    let w: Vec<f64> = (0..m).map(|j| 1.0 / (j + 1) as f64).collect();
    // Enough repetitions for a steady median, few enough to stay cheap.
    let reps = |flops: f64| ((2e8 / flops.max(1.0)) as usize).clamp(5, 2000);
    let mf = m as f64;
    let nf = n as f64;
    let eigen_s = time_median(reps(9.0 * mf * mf * mf), || {
        std::hint::black_box(SymmetricEigen::new(std::hint::black_box(&spd)).expect("SPD"));
    });
    let cholesky_s = time_median(reps(mf * mf * mf / 3.0), || {
        std::hint::black_box(Cholesky::new(std::hint::black_box(&spd)).expect("SPD"));
    });
    let gram_s = time_median(reps(nf * mf * mf), || {
        std::hint::black_box(std::hint::black_box(x).gram());
    });
    let gemv_s = time_median(reps(2.0 * nf * mf), || {
        std::hint::black_box(std::hint::black_box(x).matvec(&w).expect("shapes match"));
    });
    out.set("linalg.eigen_ms", eigen_s * 1e3);
    out.set("linalg.cholesky_ms", cholesky_s * 1e3);
    out.set("linalg.gram_ms", gram_s * 1e3);
    out.set("linalg.gemv_us", gemv_s * 1e6);
    start.elapsed().as_secs_f64()
}

/// Floating-point operations of one PrIU replay of a linear model with an
/// uncompressed Gram cache, computed from the shapes (not counted): per
/// iteration a dense `m×m` Gram-vector product (`2m²`), the removed rows'
/// correction (`4·ΔB·m`) and the vector update (`6m`).
pub fn priu_replay_flops(iterations: usize, features: usize, removed_per_batch: f64) -> f64 {
    let m = features as f64;
    iterations as f64 * (2.0 * m * m + 4.0 * removed_per_batch * m + 6.0 * m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable() {
        let mut spin = 0u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 30 {
            spin = spin.wrapping_add(1);
        }
        std::hint::black_box(spin);
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let _ = IoCounters::now().since(IoCounters::default());
    }
}
