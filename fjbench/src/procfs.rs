//! Process CPU time and peak memory, read from `/proc/self`, and the
//! time the hypervisor kept this machine's CPUs away, from `/proc/stat`.

use std::ffi::{c_int, c_long};

extern "C" {
    fn sysconf(name: c_int) -> c_long;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: c_int = 2;

/// User + system CPU seconds this process has used so far, all threads
/// included (finished threads too).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("/proc/self/stat: no ')'")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat: field {}", i + 3))
    };
    let used = ticks(11)? + ticks(12)?;
    Ok(used as f64 / clock_ticks_per_s()?)
}

fn clock_ticks_per_s() -> Result<f64, String> {
    // SAFETY: sysconf only reads a process-wide constant; any argument is
    // allowed and an unknown one returns -1, which is checked below.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz <= 0 {
        return Err("sysconf(_SC_CLK_TCK) failed".into());
    }
    Ok(hz as f64)
}

/// CPU seconds, summed over all CPUs, that the hypervisor has run other
/// guests while this machine wanted to run (`steal` in `/proc/stat`).
pub fn steal_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let steal: u64 = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .ok_or("/proc/stat: no steal field")?;
    Ok(steal as f64 / clock_ticks_per_s()?)
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status: no VmHWM")?;
    Ok(kb as f64 / 1024.0)
}
