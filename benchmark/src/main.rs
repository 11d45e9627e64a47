//! The repo benchmark: the paper's §8 workloads through the stack users
//! drive — SQL text → optimizer → worker pool → kernels — as one client in
//! a closed loop on a `Server` session. See `README.md` beside this package
//! for the protocol and the layer → metric → workload table.
//!
//! ```text
//! rma-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! rma-benchmark --list
//! ```

mod epoch;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::exit;

const USAGE: &str =
    "usage: rma-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
       [--epochs <n>] [--scale <divisor>] [--iterations <n>] [--corrupt]
       rma-benchmark --list";

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    exit(2);
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("{flag} takes a number, not `{value}`")))
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 18.0f64;
    let mut trace = false;
    let mut epochs = None;
    let mut scale = 1usize;
    let mut iterations = None;
    let mut corrupt = false;
    let mut epoch_child = false;
    let mut trace_out = None;

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{flag} takes a value")))
        };
        match flag.as_str() {
            "--list" => {
                println!("{}", metrics::list_json());
                return;
            }
            "--workload" => workload = Some(value()),
            "--seed" => seed = number(&flag, &value()),
            "--seconds" => seconds = number(&flag, &value()),
            "--trace" => trace = number::<u8>(&flag, &value()) != 0,
            "--epochs" => epochs = Some(number::<usize>(&flag, &value()).max(1)),
            "--scale" => scale = number::<usize>(&flag, &value()).max(1),
            "--iterations" => iterations = Some(number(&flag, &value())),
            "--corrupt" => corrupt = true,
            // the two flags a run passes to its epochs
            "--epoch-child" => epoch_child = true,
            "--trace-out" => trace_out = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(workload) = workload else {
        usage("--workload is required");
    };
    let chosen: Vec<&'static workloads::Workload> = if workload == "all" {
        workloads::WORKLOADS.iter().collect()
    } else {
        match workloads::by_name(&workload) {
            Some(w) => vec![w],
            None => usage(&format!("unknown workload `{workload}`")),
        }
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }

    if epoch_child {
        epoch::run(&epoch::EpochArgs {
            kind: chosen[0].kind,
            seed,
            scale,
            seconds,
            iterations,
            corrupt,
            trace_out,
        });
        return;
    }
    exit(run::run(&run::RunArgs {
        workloads: chosen,
        seed,
        seconds,
        trace,
        epochs,
        scale,
        iterations,
        corrupt,
    }));
}
