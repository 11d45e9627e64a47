//! A run: epochs as fresh child processes, their values combined by median.
//!
//! Samples inside one process are tight; the *process* median moves from
//! one start to the next (heap layout, hash seeds, page placement) and from
//! minute to minute (the shared box). So a run is several short epochs, each
//! its own process, and a timing metric's value is the median over epochs
//! of the per-epoch value. With several workloads in one command the
//! epochs go round-robin, so a slow minute lands on all of them.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{iqr_frac, jnum, jstr, median, percentile, quartiles};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Untraced epochs of a run (`--trace 0`).
pub const EPOCHS: usize = 9;
/// Untraced epochs beside the traced one (`--trace 1`): enough for the
/// harness metrics, which gate nothing.
pub const TRACE_EPOCHS: usize = 3;
/// Everything the benchmark writes goes here, inside the checkout.
const OUT_DIR: &str = "benchmark/out";

/// What the command line asked for.
pub struct RunArgs {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    /// Measured seconds of a run; each epoch measures `seconds / EPOCHS`.
    pub seconds: f64,
    pub trace: bool,
    /// Untraced epochs, when not the default for the mode.
    pub epochs: Option<usize>,
    pub scale: usize,
    pub iterations: Option<usize>,
    pub corrupt: bool,
}

/// What one child printed.
#[derive(Default)]
struct EpochOutput {
    metrics: BTreeMap<String, f64>,
    samples: Vec<f64>,
    failure: Option<String>,
    predictions: Vec<String>,
    sizes: String,
}

fn parse_epoch(stdout: &str) -> EpochOutput {
    let mut out = EpochOutput::default();
    for line in stdout.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "M" => {
                if let Some((name, value)) = rest.split_once(' ') {
                    if let Ok(v) = value.parse() {
                        out.metrics.insert(name.to_string(), v);
                    }
                }
            }
            "S" => out.samples.extend(rest.parse::<f64>()),
            "F" => {
                out.failure.get_or_insert(rest.to_string());
            }
            "P" => out.predictions.push(rest.to_string()),
            "I" => out.sizes = rest.to_string(),
            _ => {}
        }
    }
    out
}

/// Worker threads for the engine under test: both cores of the box this
/// was tuned on, never more, so a wider machine measures the same thing.
fn engine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Start one epoch as a fresh process of this binary and wait for it.
fn spawn_epoch(
    args: &RunArgs,
    workload: &Workload,
    trace_out: Option<&PathBuf>,
) -> Result<EpochOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let tmp = std::env::current_dir()
        .map_err(|e| format!("current_dir: {e}"))?
        .join(OUT_DIR)
        .join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--epoch-child")
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--seconds", &(args.seconds / EPOCHS as f64).to_string()])
        .env("RMA_THREADS", engine_threads().to_string())
        // spill files go to the system temporary directory; keep them here
        .env("TMPDIR", &tmp);
    if let Some(n) = args.iterations {
        cmd.args(["--iterations", &n.to_string()]);
    }
    if args.corrupt {
        cmd.arg("--corrupt");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start an epoch: {e}"))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let last = stderr.lines().last().unwrap_or("no message");
        return Err(format!("epoch exited with {}: {last}", output.status));
    }
    Ok(parse_epoch(&String::from_utf8_lossy(&output.stdout)))
}

/// Everything measured for one workload in this run.
struct Record {
    workload: &'static Workload,
    epochs: Vec<EpochOutput>,
    traced: Option<EpochOutput>,
    /// Epochs that did not exit cleanly, with why.
    crashes: Vec<String>,
}

impl Record {
    fn attempted(&self) -> u64 {
        let counted: f64 = self.all().filter_map(|e| e.metrics.get("attempted")).sum();
        counted as u64 + self.crashes.len() as u64
    }

    fn failed(&self) -> u64 {
        let counted: f64 = self.all().filter_map(|e| e.metrics.get("failed")).sum();
        counted as u64 + self.crashes.len() as u64
    }

    fn all(&self) -> impl Iterator<Item = &EpochOutput> {
        self.epochs.iter().chain(&self.traced)
    }

    fn first_failure(&self) -> Option<String> {
        self.crashes
            .first()
            .cloned()
            .or_else(|| self.all().find_map(|e| e.failure.clone()))
    }

    /// One value per untraced epoch.
    fn per_epoch(&self, name: &str) -> Vec<f64> {
        self.epochs
            .iter()
            .filter(|e| !e.samples.is_empty())
            .map(|e| match name {
                "query_s.p50" => median(&e.samples),
                "rows_per_s" => {
                    let rows = e.metrics.get("rows_per_iteration").copied().unwrap_or(0.0);
                    rows * e.samples.len() as f64 / e.samples.iter().sum::<f64>()
                }
                other => e.metrics.get(other).copied().unwrap_or(0.0),
            })
            .collect()
    }

    fn pooled_samples(&self) -> Vec<f64> {
        self.epochs.iter().flat_map(|e| e.samples.clone()).collect()
    }

    /// The value of a metric, if this run measured it.
    fn value(&self, name: &str) -> Option<f64> {
        let pooled = self.pooled_samples();
        if pooled.is_empty() {
            return None;
        }
        if END_TO_END.iter().any(|m| m.name == name) {
            return Some(median(&self.per_epoch(name)));
        }
        match name {
            "harness.query_s.p90" => Some(percentile(&pooled, 0.9)),
            "harness.samples" => Some(pooled.len() as f64),
            "harness.epoch_iqr_frac" => Some(iqr_frac(&self.per_epoch("query_s.p50"))),
            "harness.generate_s" | "harness.reference_s" => Some(median(&self.per_epoch(name))),
            other => self.traced.as_ref()?.metrics.get(other).copied(),
        }
    }

    /// The epoch medians of `query_s.p50` spread by more than a tenth: the
    /// box was busy, and the run says so.
    fn disturbed(&self) -> bool {
        self.value("harness.epoch_iqr_frac")
            .is_some_and(|f| f > 0.10)
    }

    fn prediction_failures(&self) -> u64 {
        self.traced
            .as_ref()
            .and_then(|t| t.metrics.get("prediction_failures"))
            .map_or(0, |n| *n as u64)
    }

    /// Checks beyond the per-iteration reference check.
    fn invariants_hold(&self, enforce_predictions: bool) -> bool {
        let Some(traced) = &self.traced else {
            return true;
        };
        let zero = |name: &str| traced.metrics.get(name).is_none_or(|v| *v == 0.0);
        zero("relation.live_spill_files_end")
            && zero("serve.mem_rejections")
            && zero("replay_failed")
            && !(enforce_predictions && self.prediction_failures() > 0)
    }
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` here if there is one (a
/// benchmark checkout has none; nothing outside it is consulted).
fn commit() -> String {
    let head = first_line(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(reference) => first_line(&format!(".git/{reference}")),
        None => head,
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run everything the arguments ask for; returns the process exit code.
pub fn run(args: &RunArgs) -> i32 {
    let load_start = first_line("/proc/loadavg");
    let epochs = args
        .epochs
        .unwrap_or(if args.trace { TRACE_EPOCHS } else { EPOCHS });
    let mut records: Vec<Record> = args
        .workloads
        .iter()
        .map(|w| Record {
            workload: w,
            epochs: Vec::new(),
            traced: None,
            crashes: Vec::new(),
        })
        .collect();
    for _ in 0..epochs {
        for record in &mut records {
            match spawn_epoch(args, record.workload, None) {
                Ok(out) => record.epochs.push(out),
                Err(e) => record.crashes.push(e),
            }
        }
    }
    if args.trace {
        for record in &mut records {
            let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", record.workload.name));
            match spawn_epoch(args, record.workload, Some(&path)) {
                Ok(out) => record.traced = Some(out),
                Err(e) => record.crashes.push(e),
            }
        }
    }
    let load_end = first_line("/proc/loadavg");

    let context = format!(
        "\"nproc\": {}, \"RMA_THREADS\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {}, \
         \"scale\": {}, \"epochs\": {}, \"traced\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        engine_threads(),
        jstr(&rustc_version()),
        jstr(&commit()),
        args.seed,
        args.scale,
        epochs,
        args.trace,
        jstr(&load_start),
        jstr(&load_end),
    );
    // shares were measured at the benchmark's size; at another scale they
    // are printed but hold nobody to account
    let enforce_predictions = args.trace && args.scale == 1;
    let mut exit_code = 0;
    for record in &records {
        let reported: &[Metric] = if args.trace { PER_LAYER } else { END_TO_END };
        if report(record, reported, &context, enforce_predictions) {
            exit_code = 1;
        }
    }
    exit_code
}

/// Print one workload's metrics, write its record, and end with the
/// result line. Returns whether a prediction failed while enforced.
fn report(record: &Record, reported: &[Metric], context: &str, enforce_predictions: bool) -> bool {
    let name = record.workload.name;
    let sizes = record.all().next().map_or("", |e| e.sizes.as_str());
    println!("== {name} ({sizes})");
    let mut missing = Vec::new();
    let mut result_metrics = Vec::new();
    let mut record_metrics = Vec::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let is_reported = reported.iter().any(|r| r.name == m.name);
        let Some(value) = record.value(m.name) else {
            if is_reported {
                missing.push(m.name);
            }
            continue;
        };
        let per_epoch = record.per_epoch(m.name);
        let spread = if m.bound > 0.0 && !per_epoch.is_empty() {
            let q = quartiles(&per_epoch);
            format!(
                ", \"epoch_quartiles\": [{}, {}, {}]",
                jnum(q[0]),
                jnum(q[1]),
                jnum(q[2])
            )
        } else {
            String::new()
        };
        println!("{:<38} {:>18} {}", m.name, jnum(value), m.unit);
        record_metrics.push(format!(
            "    {}: {{\"value\": {}, \"unit\": {}{spread}}}",
            jstr(m.name),
            jnum(value),
            jstr(m.unit)
        ));
        if is_reported {
            result_metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(m.name),
                jnum(value),
                jstr(m.unit)
            ));
        }
    }
    let predictions: &[String] = record.traced.as_ref().map_or(&[], |t| &t.predictions);
    for p in predictions {
        println!("prediction: {name} {p}");
    }
    let (attempted, failed) = (record.attempted().max(1), record.failed());
    if let Some(f) = record.first_failure() {
        println!("FAILED CHECK on {name}: {f}");
    }
    if !missing.is_empty() {
        println!("NOT MEASURED on {name}: {}", missing.join(", "));
    }
    let disturbed = record.disturbed();
    if disturbed {
        println!(
            "DISTURBED: {name}: the epoch medians of query_s.p50 spread by more than a tenth \
             (harness.epoch_iqr_frac > 0.10); the box was busy during this run"
        );
    }
    let correct = failed == 0 && missing.is_empty() && record.invariants_hold(enforce_predictions);
    let failed_frac = failed as f64 / attempted as f64;
    println!("failed_frac                            {failed_frac:>18} ratio");

    let json = format!(
        "{{\n  \"workload\": {}, \"sizes\": {}, {context},\n  \"disturbed\": {disturbed}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"failed_frac\": {}, \"pooled_samples\": {},\n  \"predictions\": [{}],\n  \
         \"metrics\": {{\n{}\n  }}\n}}\n",
        jstr(name),
        jstr(sizes),
        jnum(failed_frac),
        record.pooled_samples().len(),
        predictions
            .iter()
            .map(|p| jstr(p))
            .collect::<Vec<_>>()
            .join(", "),
        record_metrics.join(",\n")
    );
    let path = PathBuf::from(OUT_DIR).join(format!("run-{name}.json"));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        result_metrics.join(", ")
    );
    enforce_predictions && record.prediction_failures() > 0
}
