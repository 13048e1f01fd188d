//! The benchmark's contract in code: workload names and the metric lists of
//! `BENCHMARK.json`.  A unit test keeps the two in step.

/// `planner_bound` comes first because the driver runs the workloads in
/// this order right after it builds, and the builder box ran `adhoc_mix` up
/// to a fifth slower for some minutes after a build.  The small workload
/// hardly touches memory and was the least moved by that.
pub const WORKLOADS: [&str; 4] = [
    "planner_bound",
    "adhoc_mix",
    "dashboard_wire",
    "stream_refresh",
];

/// Seed used when none is given, and the one on which the pinned set is
/// enforced at set-up.
pub const DEFAULT_SEED: u64 = 1;

/// The product's sampling seed (`Engine::with_seed`, `VerdictConfig::seed`).
/// It is a frozen setting like `io_budget`, not an input: `--seed` drives
/// the request stream only, so the scrambles, and with them
/// `actual_rel_error_med` and `ci_coverage`, are the same on every run of
/// one commit, and any change in them comes from the code.
pub const SAMPLING_SEED: u64 = 1;

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("stmts_per_s", "1/s"),
    ("exact_pass_ms", "ms"),
    ("speedup_geo", "ratio"),
    ("actual_rel_error_med", "ratio"),
    ("ci_coverage", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, grouped by layer (crate).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("sql.parse_us", "us"),
    ("sql.canonical_us", "us"),
    ("sql.print_us", "us"),
    ("sql.reparse_us", "us"),
    ("sql.rewritten_bytes", "count"),
    ("core.analyze_us", "us"),
    ("core.plan_us", "us"),
    ("core.rewrite_us", "us"),
    ("core.assemble_us", "us"),
    ("core.session_self_us", "us"),
    ("core.cache_hit_us", "us"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.sampled_ratio", "ratio"),
    ("core.backend_stmts_per_query", "count"),
    ("core.rows_scanned_ratio", "ratio"),
    ("core.stream_frame_us", "us"),
    ("engine.exec_us", "us"),
    ("engine.rows_per_s", "1/s"),
    ("engine.parallel_ratio", "ratio"),
    ("engine.exact_exec_us", "us"),
    ("engine.block_advance_us", "us"),
    ("engine.snapshot_us", "us"),
    ("store.open_ms", "ms"),
    ("store.load_rows_per_s", "1/s"),
    ("store.save_ms", "ms"),
    ("store.append_ms", "ms"),
    ("store.wal_syncs_per_refresh", "count"),
    ("store.pages_written_per_refresh", "count"),
    ("store.write_amp", "ratio"),
    ("store.pages_read_per_stream", "count"),
    ("store.space_amp", "ratio"),
    ("server.ping_rtt_us", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.encode_us", "us"),
    ("server.decode_us", "us"),
    ("server.stmt_p50_us", "us"),
    ("server.stmt_p99_us", "us"),
    ("server.queue_peak_depth", "count"),
    ("server.shed_ratio", "ratio"),
    ("server.busy_ratio", "ratio"),
    ("client.wire_rtt_us", "us"),
    ("client.stmt_tail_ms", "ms"),
    ("client.stmt_tail_pct", "%"),
    ("client.stream_ttff_ms", "ms"),
    ("client.stream_full_ms", "ms"),
    ("client.refresh_ms", "ms"),
    ("client.cold_start_ms", "ms"),
    ("share.sql_pct", "%"),
    ("share.core_pct", "%"),
    ("share.engine_pct", "%"),
    ("share.store_pct", "%"),
    ("share.server_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.tiling_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn benchmark_json_lists_exactly_these_names_and_units() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(&END_TO_END));
        assert_eq!(listed("per_layer"), expect(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
