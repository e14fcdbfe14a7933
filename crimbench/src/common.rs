//! Shared plumbing: command line, seeded inputs, latency samples, the
//! result line, and the process/file measurements every workload reports.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How big a workload's inputs are. `Tiny` exists for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined with.
    Full,
    /// A few hundred leaves: every code path, seconds of work.
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Deliberately corrupt this many recorded answers before they are
    /// checked (self-test of the error accounting).
    pub corrupt: usize,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
            corrupt: 0,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                "--size" => {
                    args.size = match value()?.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        other => return Err(format!("--size takes full or tiny, got {other:?}")),
                    }
                }
                "--corrupt" => {
                    args.corrupt = value()?.parse().map_err(|e| format!("--corrupt: {e}"))?
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }
}

/// splitmix64: the benchmark's only source of randomness, so a seed fixes
/// every input.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded generator for request mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Latency (or any other) samples with nearest-rank percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank percentile, `p` in `[0, 1]`; 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = (p * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    pub fn p50(&mut self) -> f64 {
        self.percentile(0.50)
    }

    pub fn p99(&mut self) -> f64 {
        self.percentile(0.99)
    }
}

/// Equal-count chunks a read run's figures are the median over.
pub const CHUNKS: usize = 20;

/// Latencies of one run's calls; a traced run traces every other call.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    /// Untraced calls: (completion time in s from the run's start, ms).
    plain: Vec<(f64, f64)>,
    traced: Samples,
}

impl Latencies {
    /// Room for `calls` untraced calls up front: growing by doubling would
    /// make peak memory jump with throughput.
    pub fn with_capacity(calls: usize) -> Latencies {
        Latencies {
            plain: Vec::with_capacity(calls),
            traced: Samples::default(),
        }
    }

    pub fn push(&mut self, traced: bool, done_at: Duration, ms: f64) {
        if traced {
            self.traced.push(ms);
        } else {
            self.plain.push((done_at.as_secs_f64(), ms));
        }
    }

    /// One run's latencies from its callers' parts.
    pub fn merged(parts: Vec<Latencies>) -> Latencies {
        let mut out = Latencies::with_capacity(parts.iter().map(|p| p.plain.len()).sum());
        for part in parts {
            out.plain.extend_from_slice(&part.plain);
            out.traced.extend(&part.traced);
        }
        out
    }

    /// Throughput lost by tracing: traced against untraced calls of the
    /// same stretch, so drift over the run cancels.
    pub fn trace_overhead(&self) -> f64 {
        let plain_ms: f64 = self.plain.iter().map(|&(_, ms)| ms).sum();
        let plain_rate = ratio(self.plain.len() as f64, plain_ms);
        let traced_rate = ratio(self.traced.len() as f64, self.traced.sum());
        1.0 - ratio(traced_rate, plain_rate)
    }

    /// Calls per second, p50 and p99 (ms) of the untraced calls, each the
    /// median over `chunks` consecutive equal-count chunks of the run, so a
    /// burst of host slowness moves them less than whole-run figures would.
    pub fn chunked(&mut self, chunks: usize) -> (f64, f64, f64) {
        let calls = &mut self.plain;
        calls.sort_by(|a, b| a.0.total_cmp(&b.0));
        let size = (calls.len() / chunks.max(1)).max(1);
        let mut rate = Samples::default();
        let mut p50 = Samples::default();
        let mut p99 = Samples::default();
        let mut prev_end = 0.0;
        for chunk in calls.chunks_exact(size) {
            let end = chunk[chunk.len() - 1].0;
            rate.push(ratio(chunk.len() as f64, end - prev_end));
            prev_end = end;
            let mut lat = Samples::default();
            for &(_, ms) in chunk {
                lat.push(ms);
            }
            p50.push(lat.p50());
            p99.push(lat.p99());
        }
        (rate.p50(), p50.p50(), p99.p50())
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything a run reports: the result line's counts and metrics, plus
/// the human-readable lines printed above it.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Add a 0 for every listed metric the workload did not measure.
    pub fn fill_missing(&mut self, names: &[(&str, &str)]) {
        for (name, unit) in names {
            if !self.metrics.iter().any(|(n, _, _)| n == name) {
                self.metric(name, 0.0, unit);
            }
        }
    }

    /// One operation checked: counts it, and counts it failed when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// A failure outside the counted operations (set-up, integrity).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.note(format!("FAILED: {}", what.into()));
    }

    /// Print the notes, then the result line as the last line of stdout.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        let mut json = String::new();
        let attempted = self.attempted.max(1);
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of a repository's files: the main file, its `.wal` and `.sum`.
pub fn repo_bytes(path: &Path) -> u64 {
    ["", ".wal", ".sum"]
        .iter()
        .map(|suffix| {
            let mut p = path.as_os_str().to_owned();
            p.push(suffix);
            std::fs::metadata(PathBuf::from(p)).map_or(0, |m| m.len())
        })
        .sum()
}

/// Scratch directory under the working directory's `.crimbench/`, removed
/// on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let path = out_dir().join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark keeps scratch repositories and trace files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".crimbench")
}

/// Median of a small set of set-up timings, in seconds.
pub fn median_s(mut times: Vec<Duration>) -> f64 {
    times.sort();
    times[times.len() / 2].as_secs_f64()
}

/// Untimed warm-up before the measured stretch: a tenth of it, at most 1 s.
pub fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 10.0).min(1.0))
}

/// An error as the message `main` prints.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Remove a repository's files: the main file, its `.wal` and `.sum`.
pub fn remove_repo(path: &Path) {
    for suffix in ["", ".wal", ".sum"] {
        let mut p = path.as_os_str().to_owned();
        p.push(suffix);
        let _ = std::fs::remove_file(p);
    }
}
