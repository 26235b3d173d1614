//! Host facts the benchmark records or controls: CPU pinning, process
//! CPU time, peak resident memory, and the machine description printed
//! with every result.

use std::process::Command;

/// A CPU affinity mask as the kernel lays it out (bit `i` = CPU `i`).
pub type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's current affinity mask, if the kernel reports one.
#[cfg(target_os = "linux")]
pub fn affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly
    // `size_of::<CpuMask>()` bytes, the size passed; pid 0 names the
    // calling thread. The call writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Restricts the calling thread (and every thread it spawns afterwards)
/// to `mask`. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed and is
    // only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    rc == 0
}

#[cfg(not(target_os = "linux"))]
pub fn affinity() -> Option<CpuMask> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn set_affinity(_mask: &CpuMask) -> bool {
    false
}

/// The pin a workload runs under: the mask it started with (restored for
/// the unpinned `bench.smp_ratio` iterations) and the one CPU it was
/// pinned to.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// The affinity mask the process started with.
    pub original: CpuMask,
    /// The single CPU the process is pinned to.
    pub cpu: usize,
}

impl Pin {
    /// Pins the process to the highest CPU its starting mask allows.
    /// `None` when the platform has no affinity call or it was refused;
    /// the run then proceeds unpinned and says so.
    pub fn highest_cpu() -> Option<Pin> {
        let original = affinity()?;
        let cpu = (0..original.len() * 64)
            .rev()
            .find(|&c| original[c / 64] & (1 << (c % 64)) != 0)?;
        let pin = Pin { original, cpu };
        pin.apply().then_some(pin)
    }

    /// (Re-)applies the one-CPU pin.
    pub fn apply(&self) -> bool {
        let mut one: CpuMask = [0; 16];
        one[self.cpu / 64] = 1 << (self.cpu % 64);
        set_affinity(&one)
    }

    /// Restores the starting mask (threads spawned from now on may use
    /// every CPU the process was given).
    pub fn release(&self) -> bool {
        set_affinity(&self.original)
    }
}

/// Process CPU time (user + system, all threads, exited ones included)
/// in seconds, from `/proc/self/stat`; 0 where that file does not exist.
/// Resolution is one clock tick (10 ms), so callers difference it over
/// whole measurement loops, never over one call.
pub fn cpu_time_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may itself
    // contain spaces: utime and stime are the 12th and 13th of those.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    // USER_HZ is 100 on every Linux ABI Rust targets.
    ticks as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    // The ceiling keeps `git` from searching above the checkout the
    // benchmark runs in (it must read nothing outside it).
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine description printed ahead of every result: CPU count,
/// compiler, commit (`unknown` outside a git checkout), and the pin.
pub fn env_json(pin: Option<&Pin>) -> String {
    // Counted from the starting mask: once pinned, the standard library
    // reports a parallelism of one.
    let nproc = pin.map_or_else(
        || std::thread::available_parallelism().map_or(0, |n| n.get()),
        |p| p.original.iter().map(|w| w.count_ones() as usize).sum(),
    );
    format!(
        "{{\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"pinned\":{},\"pinned_cpu\":{}}}",
        nproc,
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["rev-parse", "HEAD"]),
        pin.is_some(),
        pin.map_or(-1, |p| p.cpu as i64),
    )
}
