//! Timing, aggregation, table and CSV output.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Times one closure invocation.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Mean and standard deviation of a sample of durations, in seconds.
///
/// The deviation uses the unbiased `n - 1` sample estimator (Bessel's
/// correction) — benchmark repeats are a sample of the timing
/// distribution, not the whole population, and the population formula
/// systematically understates run-to-run noise. Fewer than two samples
/// carry no spread information: the deviation is `0.0`.
pub fn mean_std(samples: &[Duration]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = samples.iter().map(Duration::as_secs_f64).sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let var = samples
        .iter()
        .map(|d| (d.as_secs_f64() - mean).powi(2))
        .sum::<f64>()
        / (n - 1) as f64;
    (mean, var.sqrt())
}

/// Appends one JSON-lines perf record to the file named by
/// `$EMG_BENCH_JSON` (read through [`gpu_sim::env::bench_json_path`]), so
/// every experiment run with the variable set lands in one file.
/// When `elements` is given and the mean is positive, an `elems_per_sec`
/// throughput field is derived so sweeps are comparable across scales.
/// Failures to write are silently ignored: a perf record must never fail a
/// run.
pub fn emit_bench_json(
    group: &str,
    bench: &str,
    mean_s: f64,
    std_s: f64,
    iters: u64,
    elements: Option<u64>,
) {
    emit_bench_json_fields(group, bench, mean_s, std_s, iters, elements, &[]);
}

/// [`emit_bench_json`] with extra numeric fields appended to the record
/// (e.g. the `mem_sweep` experiment's steady-state allocation counters).
pub fn emit_bench_json_fields(
    group: &str,
    bench: &str,
    mean_s: f64,
    std_s: f64,
    iters: u64,
    elements: Option<u64>,
    extra: &[(&str, f64)],
) {
    let Some(path) = gpu_sim::env::bench_json_path() else {
        return;
    };
    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut tail = String::new();
    if let Some(n) = elements {
        let _ = write!(tail, ",\"elements\":{n}");
        if mean_s > 0.0 {
            let _ = write!(tail, ",\"elems_per_sec\":{:.1}", n as f64 / mean_s);
        }
    }
    for (key, value) in extra {
        let _ = write!(tail, ",\"{}\":{value}", escape(key));
    }
    let line = format!(
        "{{\"group\":\"{}\",\"bench\":\"{}\",\"mean_ns\":{:.1},\"std_ns\":{:.1},\"iters\":{}{}}}\n",
        escape(group),
        escape(bench),
        mean_s * 1e9,
        std_s * 1e9,
        iters,
        tail
    );
    use std::io::Write as _;
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = file.write_all(line.as_bytes());
    }
}

/// Runs `f` `repeats` times and returns the mean duration in seconds.
pub fn bench_mean(repeats: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<Duration> = (0..repeats.max(1)).map(|_| f()).collect();
    mean_std(&samples).0
}

/// An aligned text table + CSV accumulator.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes the table as CSV under `dir/<name>.csv`.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        std::fs::write(dir.join(format!("{name}.csv")), csv)
    }
}

/// Human-ish rate formatting (throughput values span 10^5..10^9 in the
/// paper's log-scale figures).
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2}G/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2}M/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2}K/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1}/s")
    }
}

/// Seconds with milli precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("bbbb"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join("euler_bench_test_csv");
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.write_csv(&dir, "t").unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(2_500_000.0), "2.50M/s");
        assert_eq!(fmt_rate(3.2e9), "3.20G/s");
        assert_eq!(fmt_rate(1500.0), "1.50K/s");
        assert_eq!(fmt_rate(12.0), "12.0/s");
    }

    #[test]
    fn stats_mean_std_uses_sample_estimator() {
        // Two samples {1, 3}: mean 2, sample variance ((1)² + (1)²)/(2-1) = 2.
        let (m, s) = mean_std(&[Duration::from_secs(1), Duration::from_secs(3)]);
        assert!((m - 2.0).abs() < 1e-9);
        assert!(
            (s - 2f64.sqrt()).abs() < 1e-9,
            "sample std of {{1,3}} is √2, got {s}"
        );
        // Three samples {1, 2, 3}: sample variance (1 + 0 + 1)/2 = 1.
        let (m, s) = mean_std(&[
            Duration::from_secs(1),
            Duration::from_secs(2),
            Duration::from_secs(3),
        ]);
        assert!((m - 2.0).abs() < 1e-9);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_mean_std_degenerate_samples() {
        let (m, s) = mean_std(&[]);
        assert_eq!((m, s), (0.0, 0.0));
        let (m, s) = mean_std(&[Duration::from_secs(5)]);
        assert!((m - 5.0).abs() < 1e-9);
        assert_eq!(s, 0.0, "a single sample has no spread");
    }

    #[test]
    fn bench_json_skipped_without_env() {
        // With EMG_BENCH_JSON unset this must be a silent no-op.
        if gpu_sim::env::bench_json_path().is_none() {
            emit_bench_json("g", "b", 1e-3, 1e-4, 3, Some(100));
        }
    }
}
