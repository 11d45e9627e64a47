//! Drives the benchmark binary at 1/20 size: every workload completes and
//! checks out, the names it prints are the names `BENCHMARK.json` lists,
//! the exact counts repeat, and a damaged result is caught.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

// ---------------------------------------------------------------------
// A JSON reader just big enough for the benchmark's own output
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos);
        skip_space(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing text after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("no key `{key}`")),
            other => panic!("`{key}` looked up in {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(map) => map,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn skip_space(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) {
    skip_space(b, pos);
    assert_eq!(b.get(*pos), Some(&c), "expected `{}` at {pos}", c as char);
    *pos += 1;
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_space(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_space(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(map);
            }
            loop {
                skip_space(b, pos);
                let key = parse_string(b, pos);
                expect(b, pos, b':');
                let previous = map.insert(key.clone(), parse_value(b, pos));
                assert!(previous.is_none(), "key `{key}` used twice");
                skip_space(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => {}
                    b'}' => return Json::Obj(map),
                    c => panic!("unexpected `{}` in object", c as char),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_space(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_space(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => {}
                    b']' => return Json::Arr(items),
                    c => panic!("unexpected `{}` in array", c as char),
                }
            }
        }
        b'"' => Json::Str(parse_string(b, pos)),
        b't' | b'f' | b'n' => {
            for (word, value) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(word.as_bytes()) {
                    *pos += word.len();
                    return value;
                }
            }
            panic!("bad literal at {pos}");
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap();
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number `{text}`")),
            )
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> String {
    assert_eq!(b[*pos], b'"', "expected a string at {pos}");
    *pos += 1;
    let mut out = Vec::new();
    loop {
        let c = b[*pos];
        *pos += 1;
        match c {
            b'"' => return String::from_utf8(out).unwrap(),
            b'\\' => {
                let e = b[*pos];
                *pos += 1;
                match e {
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(&b[*pos..*pos + 4]).unwrap();
                        let code = u32::from_str_radix(hex, 16).unwrap();
                        let ch = char::from_u32(code).unwrap();
                        out.extend(ch.to_string().as_bytes());
                        *pos += 4;
                    }
                    other => out.push(other),
                }
            }
            other => out.push(other),
        }
    }
}

// ---------------------------------------------------------------------
// Running the binary
// ---------------------------------------------------------------------

/// A directory of this test's own for the benchmark to write under.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the benchmark there; returns its exit code and standard output.
fn bench(cwd: &PathBuf, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rma-benchmark"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("benchmark binary starts");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).unwrap(),
    )
}

/// The result lines of a run, one per workload, in order.
fn results(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(Json::parse)
        .collect()
}

const SMALL: [&str; 8] = [
    "--seconds",
    "1",
    "--scale",
    "20",
    "--epochs",
    "1",
    "--iterations",
    "2",
];

fn small(extra: &[&str]) -> Vec<String> {
    SMALL.iter().chain(extra).map(|s| s.to_string()).collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

fn names(list: &Json) -> Vec<String> {
    list.arr()
        .iter()
        .map(|m| m.get("name").str().to_string())
        .collect()
}

fn listed() -> Json {
    let (code, stdout) = bench(&scratch("list"), &["--list"]);
    assert_eq!(code, 0);
    Json::parse(&stdout)
}

// ---------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------

#[test]
fn list_equals_benchmark_json() {
    let list = listed();
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = Json::parse(&std::fs::read_to_string(manifest).expect("BENCHMARK.json"));

    assert_eq!(list.get("workloads"), file.get("workloads"));
    assert_eq!(list.get("end_to_end"), file.get("end_to_end"));
    let workloads = names(list.get("workloads"));
    let end_to_end = names(list.get("end_to_end"));
    let per_layer = names(list.get("per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for w in list.get("workloads").arr() {
        let why = w.get("why").str();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    // per-layer: BENCHMARK.json has name, unit and direction; the list adds
    // which end-to-end metric each should move, and where
    let in_file = file.get("per_layer").arr();
    assert_eq!(per_layer, names(file.get("per_layer")));
    for (m, f) in list.get("per_layer").arr().iter().zip(in_file) {
        for key in ["name", "unit", "better"] {
            assert_eq!(m.get(key), f.get(key));
        }
        assert_eq!(f.obj().len(), 3);
        assert!(
            end_to_end.contains(&m.get("moves").str().to_string()),
            "{m:?}"
        );
        for on in m.get("on").str().split(',') {
            assert!(
                on == "all" || on == "none" || workloads.contains(&on.to_string()),
                "{m:?}"
            );
        }
    }

    let mut all: Vec<String> = [workloads, end_to_end, per_layer].concat();
    for name in &all {
        assert!(valid_name(name), "{name}");
    }
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");
    for m in file.get("end_to_end").arr().iter().chain(in_file) {
        let unit = m.get("unit").str();
        assert!(unit.len() <= 16, "{unit}");
        assert!(matches!(m.get("better").str(), "lower" | "higher"));
    }
    for m in file.get("end_to_end").arr() {
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

#[test]
fn every_workload_runs_small_and_checks_out() {
    let dir = scratch("untraced");
    let args = small(&["--workload", "all", "--seed", "11", "--trace", "0"]);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (code, stdout) = bench(&dir, &args);
    assert_eq!(code, 0, "{stdout}");
    let list = listed();
    let workloads = names(list.get("workloads"));
    let end_to_end = names(list.get("end_to_end"));
    let results = results(&stdout);
    assert_eq!(results.len(), workloads.len(), "{stdout}");
    for (result, workload) in results.iter().zip(&workloads) {
        assert_eq!(result.obj().len(), 4, "exactly four keys");
        assert_eq!(
            result.get("correct"),
            &Json::Bool(true),
            "{workload}: {stdout}"
        );
        assert_eq!(result.get("failed").num(), 0.0);
        // the cold iteration, the warm-ups and the two measured ones
        assert!(result.get("attempted").num() >= 3.0);
        let metrics = result.get("metrics").obj();
        assert_eq!(
            metrics.keys().cloned().collect::<Vec<_>>(),
            {
                let mut sorted = end_to_end.clone();
                sorted.sort();
                sorted
            },
            "{workload}"
        );
        for (name, m) in metrics {
            assert!(
                m.get("value").num() > 0.0,
                "{workload} {name} must never be 0"
            );
        }

        // the run record says what it ran on
        let path = dir.join(format!("benchmark/out/run-{workload}.json"));
        let record = Json::parse(&std::fs::read_to_string(path).expect("run record"));
        for key in [
            "nproc",
            "RMA_THREADS",
            "rustc",
            "commit",
            "seed",
            "sizes",
            "epochs",
            "pooled_samples",
            "loadavg_start",
            "loadavg_end",
            "disturbed",
        ] {
            record.get(key);
        }
        assert_eq!(record.get("pooled_samples").num(), 2.0);
        let p50 = record.get("metrics").get("query_s.p50");
        assert_eq!(p50.get("epoch_quartiles").arr().len(), 3);
    }
}

#[test]
fn traced_run_reports_every_layer_and_exact_counts_repeat() {
    let dir = scratch("traced");
    let list = listed();
    let mut per_layer = names(list.get("per_layer"));
    per_layer.sort();
    let args = small(&["--workload", "all", "--seed", "11", "--trace", "1"]);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let runs: Vec<Vec<Json>> = (0..2)
        .map(|_| {
            let (code, stdout) = bench(&dir, &args);
            assert_eq!(code, 0, "{stdout}");
            results(&stdout)
        })
        .collect();
    assert_eq!(runs[0].len(), 4);
    for (first, second) in runs[0].iter().zip(&runs[1]) {
        assert_eq!(first.get("correct"), &Json::Bool(true));
        let metrics = first.get("metrics").obj();
        assert_eq!(metrics.keys().cloned().collect::<Vec<_>>(), per_layer);
        for count in [
            "core.sorts",
            "core.ops_run",
            "serve.queries",
            "relation.spill_partitions",
            "relation.live_spill_files_end",
        ] {
            assert_eq!(
                metrics[count].get("value"),
                second.get("metrics").get(count).get("value"),
                "{count} must repeat exactly"
            );
        }
        assert_eq!(
            metrics["relation.live_spill_files_end"].get("value").num(),
            0.0
        );
    }
    // the budget still forces the external path at this size
    let spill = runs[0][3].get("metrics");
    assert!(spill.get("relation.spill_bytes").get("value").num() > 0.0);
    // the spans are on disk, each inside the iteration that caused it
    let trace = std::fs::read_to_string(dir.join("benchmark/out/trace-trips_ols.json")).unwrap();
    let spans = Json::parse(&trace);
    assert!(spans
        .arr()
        .iter()
        .any(|s| s.get("name").str() == "serve.ctas_install"));
    for span in spans.arr() {
        assert!(span.get("end_s").num() >= span.get("start_s").num());
        if span.get("name").str() != "iteration" {
            assert!(span.get("parent") != &Json::Null);
        }
    }
}

#[test]
fn corrupted_result_fails_the_reference_check() {
    let dir = scratch("corrupt");
    let args = small(&[
        "--workload",
        "all",
        "--seed",
        "11",
        "--trace",
        "0",
        "--corrupt",
    ]);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (code, stdout) = bench(&dir, &args);
    assert_eq!(code, 0, "a failed check is reported, not crashed on");
    let results = results(&stdout);
    assert_eq!(results.len(), 4);
    for result in &results {
        assert_eq!(result.get("correct"), &Json::Bool(false), "{stdout}");
        assert_eq!(result.get("failed"), result.get("attempted"), "{stdout}");
    }
    assert!(stdout.contains("FAILED CHECK"), "{stdout}");
}
