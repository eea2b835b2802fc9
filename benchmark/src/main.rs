//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper_labels|general_decomposed|live_served> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its corpus, queries, operation script and
//! event batches from the seed, sets up several times (reporting the
//! median set-up time), then runs whole rounds of its script from one
//! closed-loop client until the window ends. Every distinct answer is
//! then checked apart from the engine. The last line of standard output
//! is the result record; a run report and, with `--trace 1`, the span
//! log go to `.bench_work/`. See `benchmark/README.md`.

mod check;
mod common;
mod fleet;
mod inproc;
mod live;
mod probe;

use common::{median, quantile, Layers, Recorder, Shape, Span, MIB};
use probe::StoreBytes;

/// Corpus and script sizes: the full benchmark, or the tests' smoke scale.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

pub const WORKLOADS: [&str; 3] = ["paper_labels", "general_decomposed", "live_served"];

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct WorkloadRun {
    pub setup_secs: Vec<f64>,
    pub recorder: Recorder,
    pub window_secs: f64,
    pub rounds: usize,
    pub peak_rss_mb: f64,
    pub store_bytes: StoreBytes,
    /// Answers and receipts compared with an independent computation.
    pub checked: u64,
    pub mismatches: Vec<String>,
    pub append_rebuilds: u64,
    pub traced_ops_per_s: Option<f64>,
    pub layers: Layers,
    pub trace_spans: Vec<Span>,
}

impl WorkloadRun {
    pub fn new(setup_secs: Vec<f64>) -> WorkloadRun {
        WorkloadRun {
            setup_secs,
            ..WorkloadRun::default()
        }
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn ops_per_s(&self) -> f64 {
        (self.recorder.attempted() - self.recorder.failed()) as f64 / self.window_secs
    }

    /// The end-to-end metrics, by name, unit and value.
    pub fn end_to_end(&self) -> Vec<(String, &'static str, f64)> {
        let mut m = vec![
            ("setup_s".to_owned(), "s", median(&self.setup_secs)),
            ("ops_per_s".to_owned(), "1/s", self.ops_per_s()),
        ];
        for shape in Shape::ALL {
            let (name, unit, scale) = shape.metric();
            let samples = self
                .recorder
                .tallies
                .get(&shape)
                .map(|t| t.samples.as_slice())
                .unwrap_or(&[]);
            m.push((name.to_owned(), unit, median(samples) * scale));
        }
        m.push(("peak_rss_mb".to_owned(), "MiB", self.peak_rss_mb));
        m.push((
            "store_mb".to_owned(),
            "MiB",
            self.store_bytes.total as f64 / MIB,
        ));
        m
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

/// Run one workload by name.
pub fn run_workload(name: &str, scale: Scale, seed: u64, seconds: f64, trace: bool) -> WorkloadRun {
    match name {
        "paper_labels" => inproc::run(inproc::Family::Labels, scale, seed, seconds, trace),
        "general_decomposed" => inproc::run(inproc::Family::General, scale, seed, seconds, trace),
        "live_served" => live::run(scale, seed, seconds, trace),
        other => unreachable!("workload {other} was validated"),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_metrics(values: &[(String, &'static str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The git revision of the checkout, when it is a git work tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// The machine-readable run report: per-shape counts and reference tails.
fn report(args: &Args, run: &WorkloadRun) -> String {
    let shapes: Vec<String> = run
        .recorder
        .tallies
        .iter()
        .map(|(shape, t)| {
            let (_, unit, scale) = shape.metric();
            format!(
                "\"{}\": {{\"attempted\": {}, \"failed\": {}, \"samples\": {}, \"unit\": \"{unit}\", \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                shape.name(),
                t.attempted,
                t.failed,
                t.samples.len(),
                json_num(median(&t.samples) * scale),
                json_num(quantile(&t.samples, 0.90) * scale),
                json_num(quantile(&t.samples, 0.99) * scale),
            )
        })
        .collect();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let setups: Vec<String> = run.setup_secs.iter().map(|s| json_num(*s)).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {parallelism}, \"git_rev\": \"{}\", \"rounds\": {}, \"window_s\": {}, \"setup_s\": [{}], \"checked\": {}, \"mismatches\": {}, \"shapes\": {{{}}}, \"end_to_end\": {}}}",
        args.workload,
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        git_rev(),
        run.rounds,
        json_num(run.window_secs),
        setups.join(", "),
        run.checked,
        run.mismatches.len(),
        shapes.join(", "),
        json_metrics(&run.end_to_end()),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut run = run_workload(
        &args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    );
    let correct = run.mismatches.is_empty();
    for m in run.mismatches.iter().take(20) {
        eprintln!("MISMATCH: {m}");
    }
    let record = report(&args, &run);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let reports = common::work_dir().join("reports");
    if std::fs::create_dir_all(&reports).is_ok() {
        let _ = std::fs::write(reports.join(format!("{stem}.json")), format!("{record}\n"));
        if args.trace {
            let tracer = common::Tracer::from_spans(std::mem::take(&mut run.trace_spans));
            if let Err(e) = tracer.write(&reports.join(format!("{stem}.spans.jsonl"))) {
                eprintln!("warning: cannot write the span log: {e}");
            }
        }
    }
    println!("{record}");
    let metrics = if args.trace {
        json_metrics(&run.layers.values)
    } else {
        json_metrics(&run.end_to_end())
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.recorder.attempted(),
        run.recorder.failed(),
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
