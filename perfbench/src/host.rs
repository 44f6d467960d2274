//! Facts about the host and the build a result was measured on.

use gopher_json::Json;
use std::path::Path;

/// CPUs available to this process.
pub fn nproc() -> usize {
    gopher_par::available_parallelism()
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB; `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb / 1024.0)
}

/// Peak resident set size of this process, in MB.
pub fn own_peak_rss_mb() -> Option<f64> {
    peak_rss_mb(std::process::id())
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&git.join(reference))
            .or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// The provenance block every result carries.
pub fn provenance(workload: &str, seed: u64, threads: usize) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::num(seed as f64)),
        ("nproc", Json::num(nproc() as f64)),
        ("threads", Json::num(threads as f64)),
        ("simd_backend", Json::str(gopher_patterns::simd_backend())),
        ("commit", Json::str(commit())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  2048 kB\nVmHWM:\t    1536 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1536.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
