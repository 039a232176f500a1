//! The machine facts every report carries beside its absolute numbers.

use std::path::Path;

pub struct Machine {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub mem_total_mb: f64,
    pub git_commit: String,
    pub build_profile: &'static str,
}

impl Machine {
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let nproc = cpuinfo.lines().filter(|l| l.starts_with("processor")).count();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':']))
            })
            .unwrap_or("unknown")
            .to_string();
        let mem_total_mb = proc_kb("/proc/meminfo", "MemTotal:").map_or(0.0, |kb| kb / 1024.0);
        Machine {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            mem_total_mb,
            git_commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
            build_profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"cpu_model\":{:?},\"mem_total_mb\":{:.0},\"git_commit\":{:?},\"build_profile\":{:?}}}",
            self.nproc,
            self.available_parallelism,
            self.cpu_model,
            self.mem_total_mb,
            self.git_commit,
            self.build_profile
        )
    }
}

/// A `kB` field of a `/proc` status-style file, e.g. `MemTotal:`.
fn proc_kb(path: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    dd_telemetry::alloc::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// The checked-out commit, read from the `.git` directory when there is
/// one (a plain source export has none).
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
