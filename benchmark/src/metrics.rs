//! The metric tables: every name the benchmark reports, with its unit and
//! direction, and — written down before measuring — which end-to-end
//! metric each per-layer metric should move and on which workload.
//! `BENCHMARK.json` at the repository root lists the same names;
//! `tests/smoke.rs` holds the two together.

use crate::stats::{jnum, jstr};
use crate::workloads::WORKLOADS;

/// One metric of the benchmark.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`. Counts that are neither good nor bad
    /// (`core.kernel_dense`, `serve.queries`) carry the direction that an
    /// unintended change would most likely break.
    pub better: &'static str,
    /// End-to-end: share of the parent's median by which the metric may
    /// worsen. Per-layer metrics have no bound.
    pub bound: f64,
    /// Per-layer: the end-to-end metric this one should move.
    pub moves: &'static str,
    /// Per-layer: the workloads on which it should move it; flat elsewhere.
    pub on: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        moves: "",
        on: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
        on,
    }
}

/// What a user of the system sees. The same set on every workload; each run
/// value is the median over epochs of the per-epoch value. The timing
/// bounds are as wide as a bound may be: on the 2-vCPU shared box this was
/// defined on, ten runs of one workload spread by 3–6% of their median in
/// a quiet quarter of an hour and by up to 16% in a busy one, whatever the
/// benchmark does (README, "How steady it is").
pub const END_TO_END: &[Metric] = &[
    e2e("query_s.p50", "s", "lower", 0.25),
    e2e("rows_per_s", "rows/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.05),
    e2e("setup_s", "s", "lower", 0.25),
];

const Q: &str = "query_s.p50";
const ALL: &str = "all";
const NONE: &str = "none";
const OLS: &str = "trips_ols";
const QQR: &str = "qqr_tall";
const ADD: &str = "tripcount_add";
const SPILL: &str = "spill_sort_join";
const OLS_SPILL: &str = "trips_ols,spill_sort_join";
const ADD_SPILL: &str = "tripcount_add,spill_sort_join";
const ADD_OLS: &str = "tripcount_add,trips_ols";
const QQR_ADD: &str = "qqr_tall,tripcount_add";
const RMA: &str = "tripcount_add,qqr_tall,trips_ols";

/// Single layers, from the traced epoch (layer = crate, or module of
/// `rma-core`) and from the harness itself. Times are per iteration.
pub const PER_LAYER: &[Metric] = &[
    // sql: the control layer, expected under 1% everywhere
    layer("sql.parse_s", "s", "lower", Q, NONE),
    layer("sql.lower_s", "s", "lower", Q, NONE),
    // plan
    layer("plan.optimize_s", "s", "lower", Q, ALL),
    layer("plan.execute_s", "s", "lower", Q, ALL),
    layer("plan.materialize_s", "s", "lower", Q, ALL),
    layer("plan.exec_over_replay", "ratio", "lower", Q, OLS_SPILL),
    // serve
    layer("serve.ingest_s", "s", "lower", "setup_s", ALL),
    layer("serve.ctas_s", "s", "lower", Q, OLS),
    layer("serve.ctas_install_s", "s", "lower", Q, OLS),
    layer("serve.queries", "count", "higher", Q, NONE),
    layer("serve.mem_rejections", "count", "lower", Q, NONE),
    // relation
    layer("relation.aggregate_s", "s", "lower", Q, OLS),
    layer("relation.project_s", "s", "lower", Q, OLS),
    layer("relation.join_s", "s", "lower", Q, OLS_SPILL),
    layer("relation.sort_s", "s", "lower", Q, SPILL),
    layer("relation.select_s", "s", "lower", Q, ADD_SPILL),
    layer("relation.join_rows_in", "rows", "lower", Q, OLS),
    layer("relation.join_rows_out", "rows", "lower", Q, OLS),
    layer("relation.rows_in_per_row_out", "ratio", "lower", Q, OLS),
    layer("relation.pool_jobs", "count", "lower", Q, OLS_SPILL),
    layer("relation.pool_queue_wait_s", "s", "lower", Q, OLS_SPILL),
    layer("relation.pool_busy_s", "s", "lower", Q, OLS_SPILL),
    layer("relation.pool_util", "ratio", "higher", Q, OLS_SPILL),
    layer("relation.spill_bytes", "B", "lower", Q, SPILL),
    layer("relation.spill_partitions", "count", "lower", Q, SPILL),
    layer(
        "relation.spill_bytes_per_input_byte",
        "ratio",
        "lower",
        Q,
        SPILL,
    ),
    layer("relation.spill_slowdown", "ratio", "lower", Q, SPILL),
    layer("relation.live_spill_files_end", "count", "lower", Q, NONE),
    // storage
    layer("storage.encode_s", "s", "lower", "setup_s", ALL),
    layer("storage.encoded_bytes", "B", "lower", "peak_rss_mb", ALL),
    layer("storage.plain_bytes", "B", "lower", "peak_rss_mb", ALL),
    layer("storage.encoded_frac", "ratio", "lower", "peak_rss_mb", ALL),
    layer("storage.decode_sinks", "count", "lower", Q, OLS_SPILL),
    // core
    layer("core.op_s", "s", "lower", Q, RMA),
    layer("core.order_sort_s", "s", "lower", Q, ADD_OLS),
    layer("core.copy_in_s", "s", "lower", Q, QQR),
    layer("core.copy_out_s", "s", "lower", Q, QQR),
    layer("core.kernel_s", "s", "lower", Q, QQR),
    layer("core.transform_share", "ratio", "lower", Q, QQR),
    layer("core.sorts", "count", "lower", Q, ADD_OLS),
    layer("core.ops_run", "count", "lower", Q, NONE),
    layer("core.kernel_dense", "count", "lower", Q, QQR_ADD),
    // linalg: direct calls on the matrices the plan handed to the kernels
    layer("linalg.qr_s", "s", "lower", Q, QQR),
    layer("linalg.qr_gflops", "Gflop/s", "higher", Q, QQR),
    layer("linalg.from_columns_s", "s", "lower", Q, QQR),
    layer("linalg.from_columns_gbps", "GB/s", "higher", Q, QQR),
    layer("linalg.bat_add_s", "s", "lower", Q, ADD),
    layer("linalg.bat_add_gbps", "GB/s", "higher", Q, ADD),
    layer("linalg.crossprod_s", "s", "lower", Q, OLS),
    layer("linalg.inverse_s", "s", "lower", Q, OLS),
    // harness: what the measurement itself did
    layer("harness.query_s.p90", "s", "lower", Q, ALL),
    layer("harness.samples", "count", "higher", Q, NONE),
    layer("harness.epoch_iqr_frac", "ratio", "lower", Q, NONE),
    layer("harness.generate_s", "s", "lower", "setup_s", NONE),
    layer("harness.reference_s", "s", "lower", "setup_s", NONE),
    layer("trace.iteration_s", "s", "lower", Q, ALL),
    layer("trace.overhead_frac", "ratio", "lower", Q, NONE),
    layer("trace.spans", "count", "lower", Q, NONE),
];

/// `--list`: the workloads and both metric tables as one JSON object, in
/// the key names `BENCHMARK.json` uses (plus `moves` and `on` for the
/// per-layer metrics, which that file has no place for).
pub fn list_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", jstr(w.name), jstr(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                jstr(m.name),
                jstr(m.unit),
                jstr(m.better),
                jnum(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"moves\": {}, \"on\": {}}}",
                jstr(m.name),
                jstr(m.unit),
                jstr(m.better),
                jstr(m.moves),
                jstr(m.on)
            )
        })
        .collect();
    format!(
        "{{\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}",
        workloads.join(",\n    "),
        end_to_end.join(",\n    "),
        per_layer.join(",\n    ")
    )
}
