//! Samples, spans, the result record and small helpers shared by the
//! three workloads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The request shapes. Each end-to-end latency metric is the median of
/// one shape.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Shape {
    /// A `Pairwise` or `EntryExit` verdict.
    Point,
    /// A single-source answer set.
    Reach,
    /// `AllPairs` over node lists.
    AllPairs,
    /// Preparing a query text the answering session has not seen.
    Prepare,
    /// One query over every stored run.
    Sweep,
    /// One event batch appended to an open run.
    Append,
}

impl Shape {
    pub const ALL: [Shape; 6] = [
        Shape::Point,
        Shape::Reach,
        Shape::AllPairs,
        Shape::Prepare,
        Shape::Sweep,
        Shape::Append,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Point => "point",
            Shape::Reach => "reach",
            Shape::AllPairs => "allpairs",
            Shape::Prepare => "prepare",
            Shape::Sweep => "sweep",
            Shape::Append => "append",
        }
    }

    /// The end-to-end metric name, its unit and the factor from seconds.
    pub fn metric(self) -> (&'static str, &'static str, f64) {
        match self {
            Shape::Point => ("point_p50_us", "us", 1e6),
            Shape::Reach => ("reach_p50_us", "us", 1e6),
            Shape::AllPairs => ("allpairs_p50_us", "us", 1e6),
            Shape::Prepare => ("prepare_p50_us", "us", 1e6),
            Shape::Sweep => ("sweep_p50_ms", "ms", 1e3),
            Shape::Append => ("append_p50_us", "us", 1e6),
        }
    }
}

/// Per-shape operation counts and latency samples (seconds).
#[derive(Default)]
pub struct Tally {
    pub samples: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// What the timed window did, shape by shape.
#[derive(Default)]
pub struct Recorder {
    pub tallies: BTreeMap<Shape, Tally>,
}

impl Recorder {
    pub fn ok(&mut self, shape: Shape, secs: f64) {
        let t = self.tallies.entry(shape).or_default();
        t.attempted += 1;
        t.samples.push(secs);
    }

    pub fn fail(&mut self, shape: Shape) {
        let t = self.tallies.entry(shape).or_default();
        t.attempted += 1;
        t.failed += 1;
    }

    pub fn attempted(&self) -> u64 {
        self.tallies.values().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.values().map(|t| t.failed).sum()
    }
}

/// Nearest-rank quantile of unsorted values (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One timed call into a layer's public API, as the traced run records it.
pub struct Span {
    /// The public call, e.g. `core.SafeQueryPlan::pairwise`.
    pub name: &'static str,
    /// The operation (or probe step) the call belongs to.
    pub op: u64,
    /// Start, in microseconds since the tracer was made.
    pub start_us: f64,
    pub dur_us: f64,
}

/// In-memory span log; a disabled tracer only runs the calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn from_spans(spans: Vec<Span>) -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans,
        }
    }

    /// Run `f`, recording a span around it when tracing is on.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            op,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: (end - start).as_secs_f64() * 1e6,
        });
        out
    }

    /// Durations (µs) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Write the span log as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.name, s.op, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}

/// Per-layer metric values of a traced run, in insertion order.
#[derive(Default)]
pub struct Layers {
    pub values: Vec<(String, &'static str, f64)>,
}

impl Layers {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.values.push((name.to_owned(), unit, value));
    }
}

/// Time `f` once, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// High-water resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The working directory for stores, reports and traces, inside the
/// checkout the benchmark runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// A fresh, empty directory under the working directory.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = work_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a working directory");
    dir
}

/// SplitMix64: the benchmark's own seeded stream for script choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE7C_4A11_0001)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffle in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// `m` Zipf picks over `0..n` with exponent `s` (weight
    /// `(i + 1)^-s`, the first items hottest), stratified: the picks are
    /// the distribution's `(k + 1/2) / m` quantiles in seeded order, so
    /// every seed hits each item equally often and only the order varies.
    pub fn zipf_picks(&mut self, m: usize, n: usize, s: f64) -> Vec<usize> {
        let weights: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut picks: Vec<usize> = (0..m)
            .map(|k| {
                let mut x = (k as f64 + 0.5) / m as f64 * total;
                weights
                    .iter()
                    .position(|w| {
                        x -= w;
                        x <= 0.0
                    })
                    .unwrap_or(n - 1)
            })
            .collect();
        self.shuffle(&mut picks);
        picks
    }
}
