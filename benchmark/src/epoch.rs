//! One epoch: a fresh process that generates a workload's inputs, sets the
//! server up, warms it, and measures iterations as one closed-loop client.
//!
//! The parent starts an epoch as a child of the same binary and reads its
//! standard output: `M <name> <value>` for a metric, `S <seconds>` for one
//! measured iteration, `F <message>` for the first failed check, `I <sizes>`
//! for the input sizes and, from a traced epoch, `P <prediction>`.

use crate::trace;
use crate::workloads::{self, Answer, Checker, Inputs, Kind};
use rma_core::serve::Server;
use rma_core::{RmaContext, RmaOptions};
use rma_relation::Relation;
use rma_sql::{Engine, QueryResult};
use std::path::PathBuf;
use std::time::Instant;

/// Warm iterations between the cold first one and the measured ones.
/// Iteration times are level from the second on (the first pays page
/// faults and pool start-up, which `setup_s` reports).
const WARMUP_ITERATIONS: usize = 2;
/// A time-bounded epoch measures at least this many iterations.
const MIN_MEASURED: usize = 5;

/// What the parent asks of one epoch.
pub struct EpochArgs {
    pub kind: Kind,
    pub seed: u64,
    pub scale: usize,
    /// Measure for at least this long ...
    pub seconds: f64,
    /// ... or, when set, exactly this many iterations.
    pub iterations: Option<usize>,
    /// Damage every result before checking it (smoke test).
    pub corrupt: bool,
    /// Run the traced protocol and write the spans here.
    pub trace_out: Option<PathBuf>,
}

/// What one iteration returned.
pub struct IterOut {
    pub result: Relation,
    pub rows_affected: Option<usize>,
}

/// A set-up server with its one session, and the tally of checks.
pub struct Epoch {
    pub inputs: Inputs,
    pub server: Server,
    pub engine: Engine,
    checker: Checker,
    corrupt: bool,
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Epoch {
    /// One iteration through the public SQL entry point, timed from SQL
    /// text in to materialised relation out and then checked.
    pub fn iterate(&mut self) -> f64 {
        let spilled = self.engine.rma_context().stats().spill_bytes;
        let t = Instant::now();
        let out = run_statements(&mut self.engine, &self.inputs.statements);
        let seconds = t.elapsed().as_secs_f64();
        self.check(out, spilled);
        seconds
    }

    /// Count an iteration and hold its result against the reference.
    /// `spilled_before` is the session's spill counter before it ran.
    pub fn check(&mut self, out: Result<IterOut, String>, spilled_before: u64) {
        self.attempted += 1;
        let verdict = out.and_then(|out| {
            let mut answer = Answer::extract(&out.result, out.rows_affected);
            if self.corrupt {
                answer.corrupt();
            }
            self.checker.check(&answer)?;
            let spilled = self.engine.rma_context().stats().spill_bytes;
            if self.inputs.mem_budget > 0 && spilled == spilled_before {
                return Err("the memory budget no longer forces the external path".to_string());
            }
            Ok(())
        });
        if let Err(message) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(message);
        }
    }
}

/// Run the statements of one iteration on the session.
pub fn run_statements(engine: &mut Engine, statements: &[String]) -> Result<IterOut, String> {
    let mut result = None;
    let mut rows_affected = None;
    for sql in statements {
        match engine.execute(sql).map_err(|e| e.to_string())? {
            QueryResult::Relation(r) => result = Some(r),
            QueryResult::Done { rows_affected: n } => rows_affected = Some(n),
        }
    }
    let result = result.ok_or("the iteration produced no relation")?;
    Ok(IterOut {
        result,
        rows_affected,
    })
}

/// Print one metric for the parent to read.
pub fn metric(name: &str, value: f64) {
    println!("M {name} {value}");
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one epoch and print its metrics.
pub fn run(args: &EpochArgs) {
    // untimed: the inputs and the reference answer
    let t = Instant::now();
    let inputs = workloads::generate(args.kind, args.seed, args.scale);
    metric("harness.generate_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let checker = Checker::new(workloads::reference(&inputs));
    metric("harness.reference_s", t.elapsed().as_secs_f64());
    println!("I {}", inputs.sizes);
    metric("rows_per_iteration", inputs.rows as f64);

    // set-up: server, ingest (statistics, encoding choice, catalog
    // install) and the first, cold iteration
    let tables: Vec<(&str, Relation)> = inputs.tables.clone();
    let t_setup = Instant::now();
    let server = Server::new(RmaContext::new(RmaOptions {
        mem_budget: inputs.mem_budget,
        ..RmaOptions::default()
    }));
    let mut engine = Engine::session(&server);
    for (name, rel) in tables {
        engine.register(name, rel).expect("fresh catalog");
    }
    metric("serve.ingest_s", t_setup.elapsed().as_secs_f64());
    let out = run_statements(&mut engine, &inputs.statements);
    metric("setup_s", t_setup.elapsed().as_secs_f64());

    let mut epoch = Epoch {
        inputs,
        server,
        engine,
        checker,
        corrupt: args.corrupt,
        attempted: 0,
        failed: 0,
        first_failure: None,
    };
    epoch.check(out, 0);
    for _ in 0..WARMUP_ITERATIONS {
        epoch.iterate();
    }

    if let Some(path) = &args.trace_out {
        trace::run(
            &mut epoch,
            args.iterations.unwrap_or(trace::ITERATIONS),
            path,
        );
    } else {
        let t_measure = Instant::now();
        let mut n = 0;
        loop {
            let done = match args.iterations {
                Some(k) => n >= k,
                None => n >= MIN_MEASURED && t_measure.elapsed().as_secs_f64() >= args.seconds,
            };
            if done {
                break;
            }
            println!("S {}", epoch.iterate());
            n += 1;
        }
    }

    metric("attempted", epoch.attempted as f64);
    metric("failed", epoch.failed as f64);
    if let Some(message) = &epoch.first_failure {
        println!("F {}", message.replace('\n', " "));
    }
    metric("peak_rss_mb", peak_rss_mb());
}
