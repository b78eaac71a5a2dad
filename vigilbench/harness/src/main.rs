//! The repository benchmark's measuring program.
//!
//! `vigilbench --workload <service|matrix|fig6-sweep|fleet> --seed <n>
//! --seconds <s> --trace <0|1> --out <dir>` runs one workload in this
//! process (so its peak RSS is the workload's own), checks its outputs
//! outside the timed region, and prints one JSON object on its last
//! stdout line. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the run drives the same work layer by layer, writes
//! its spans to `<out>/spans-<workload>-<seed>.jsonl`, and reports the
//! per-layer metrics. Everything is timed from outside the library, by
//! wrapping calls to its public functions.

mod drive;
mod fleet;
mod layers;
mod matrix;
mod service;
mod sweep;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Load threads the workloads may use (the pooled ones run at 2).
pub const THREADS: usize = 2;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// Where spans go.
    pub out: PathBuf,
    /// Only time the set-up and exit (the child processes `setup_s`
    /// averages over).
    pub setup_only: bool,
}

impl Args {
    /// The measuring deadline, counted from `start`.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut setup_only = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            "--setup-only" => setup_only = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        setup_only,
    })
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: cells or windows, plus output checks.
    pub attempted: u64,
    /// Failures: hub sheds, collector sequence gaps, failed checks.
    pub failed: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra provenance for the result file.
    pub notes: Vec<(&'static str, serde_json::Value)>,
}

impl Outcome {
    /// The outcome of a `--setup-only` run.
    pub fn setup_only(setup_s: f64) -> Self {
        Self {
            metrics: vec![("setup_s", setup_s, "s")],
            ..Self::default()
        }
    }

    /// Records one output check.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
        }
        self.checks.push((name.to_string(), pass, detail.into()));
    }

    /// Counts `ops` operations of which `lost` were lost (shed or gapped).
    pub fn operations(&mut self, ops: u64, lost: u64) {
        self.attempted += ops;
        self.failed += lost;
    }

    /// Adds a provenance note.
    pub fn note(&mut self, key: &'static str, value: serde_json::Value) {
        self.notes.push((key, value));
    }

    /// Sets the end-to-end metrics other than `setup_s`, which `main`
    /// measures in separate processes.
    pub fn end_to_end(
        &mut self,
        cells: u64,
        flows: u64,
        elapsed_s: f64,
        latencies_ms: &[f64],
        peak_rss_mb: f64,
    ) {
        self.metrics = vec![
            ("cells_per_s", cells as f64 / elapsed_s, "1/s"),
            ("flows_per_s", flows as f64 / elapsed_s, "1/s"),
            ("window_p50_ms", layers::percentile(latencies_ms, 0.5), "ms"),
            ("window_p90_ms", layers::percentile(latencies_ms, 0.9), "ms"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ];
        self.note("latency_samples", serde_json::json!(latencies_ms.len()));
        self.note(
            "latency_samples_beyond_p90",
            serde_json::json!(
                latencies_ms.len() - (latencies_ms.len() as f64 * 0.9).ceil() as usize
            ),
        );
        self.note("measured_s", serde_json::json!(elapsed_s));
        self.note("latencies_ms", serde_json::json!(latencies_ms));
    }
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repetitions of each workload's set-up in one process.
pub const SETUP_REPS: usize = 51;

/// Processes `setup_s` averages over. The set-up time of the same work
/// differs by up to half from one process to the next (and holds for
/// every repetition inside a process), so one process's median is a
/// single draw; the mean over several processes is steadier.
pub const SETUP_PROCESSES: usize = 9;

/// Runs [`SETUP_PROCESSES`] `--setup-only` copies of this program, one
/// after another, and returns each one's median set-up time.
fn setup_in_children(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROCESSES);
    for _ in 0..SETUP_PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--setup-only", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up process exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .last()
            .and_then(|line| serde_json::from_str::<serde_json::Value>(line).ok())
            .and_then(|v| v.get("metrics")?.get("setup_s")?.get("value")?.as_f64())
            .ok_or_else(|| format!("set-up process printed no setup_s: {text}"))?;
        times.push(value);
    }
    Ok(times)
}

/// Times `f` [`SETUP_REPS`] times; returns the median in seconds.
pub fn time_setup<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let v = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
        drop(v);
    }
    layers::median(&times)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vigilbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        if let Err(e) = std::fs::create_dir_all(&args.out) {
            eprintln!("vigilbench: cannot create {}: {e}", args.out.display());
            return ExitCode::from(2);
        }
    }
    let mut tracer = trace::Tracer::new(args.trace);
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "service" => service::run(&args, &mut tracer),
        "matrix" => matrix::run(&args, &mut tracer),
        "fig6-sweep" => sweep::run(&args, &mut tracer),
        "fleet" => fleet::run(&args, &mut tracer),
        other => {
            eprintln!("vigilbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vigilbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace && !args.setup_only {
        let times = match setup_in_children(&args) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("vigilbench: {}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        outcome.metrics.insert(0, ("setup_s", mean, "s"));
        outcome.note("setup_s_per_process", serde_json::json!(times));
    }
    if args.trace {
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("vigilbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        outcome.note("spans_file", serde_json::json!(path.display().to_string()));
        outcome.note("spans", serde_json::json!(tracer.len()));
        outcome.note("span_names", serde_json::json!(tracer.names()));
    }
    for (name, pass, detail) in &outcome.checks {
        eprintln!(
            "vigilbench: check {name}: {} {detail}",
            if *pass { "ok" } else { "FAILED" }
        );
    }

    let metrics: Vec<(String, serde_json::Value)> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                serde_json::json!({"value": value, "unit": unit}),
            )
        })
        .collect();
    let notes: Vec<(String, serde_json::Value)> = outcome
        .notes
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let checks: Vec<serde_json::Value> = outcome
        .checks
        .iter()
        .map(|(n, p, d)| serde_json::json!({"name": n, "pass": p, "detail": d}))
        .collect();
    let result = serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "threads": THREADS,
        "cores_available": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "wall_s": started.elapsed().as_secs_f64(),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": checks,
        "notes": serde_json::Value::Map(notes),
        "metrics": serde_json::Value::Map(metrics),
    });
    match serde_json::to_string(&result) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("vigilbench: serializing the result: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
