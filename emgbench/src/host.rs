//! What the benchmark learns from and asserts about the host process: the
//! clean-measurement guard, the memory high-water mark, CPU steal, and the
//! stamp every run carries.

use std::fs;
use std::path::{Path, PathBuf};

/// Refuses to measure anything but the defaults users get: no `EMG_*`
/// program knob other than the bench JSONL sink, and no pool-width
/// override.
pub fn refuse_knobs() -> Result<(), String> {
    let mut set: Vec<&str> = gpu_sim::env::KNOBS
        .iter()
        .map(|&(name, _)| name)
        .filter(|&name| name != gpu_sim::env::EMG_BENCH_JSON)
        .chain(["RAYON_NUM_THREADS"])
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    set.sort_unstable();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with non-default program settings: {} set",
            set.join(", ")
        ))
    }
}

/// Resets the kernel's resident-set high-water mark to the current RSS, so
/// the peak reported later belongs to what ran after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting peak RSS: {e}"))
}

/// The process resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("reading status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the host-wide counters now (zeros when unavailable).
    pub fn now() -> CpuTimes {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return CpuTimes::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user.
        CpuTimes {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Where and with what a run was made.
#[derive(Debug)]
pub struct Stamp {
    /// `git` commit of the checkout, or `none` outside a repository.
    pub commit: String,
    /// FNV-1a digest of every file under `crates/`, which identifies the
    /// measured source even where there is no repository.
    pub source_digest: String,
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// Worker threads behind a default `Device`.
    pub pool_width: usize,
    /// The compiler that built this binary.
    pub rustc: &'static str,
}

impl Stamp {
    /// Stamps a run made from the checkout root `root`.
    pub fn collect(root: &Path) -> Stamp {
        Stamp {
            commit: git_commit(root).unwrap_or_else(|| "none".to_string()),
            source_digest: format!("{:016x}", source_digest(&root.join("crates"))),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_width: gpu_sim::Device::new().worker_threads(),
            rustc: env!("EMGBENCH_RUSTC"),
        }
    }
}

fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn source_digest(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(dir, &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(
            f.strip_prefix(dir)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        feed(&fs::read(f).unwrap_or_default());
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.is_file() {
            out.push(path);
        }
    }
}
