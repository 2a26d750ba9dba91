//! Metric names and units. `BENCHMARK.json` at the repository root lists
//! the same names with each metric's direction and bound; a test keeps
//! the two in step.

/// End-to-end metrics, reported by every workload with tracing off as the
/// median of the workload's repeats. `setup_s` is the set-up a user waits
/// for before the first reply; the other two are the quality of the κ*
/// being served, which a faster path must not change. The timing metrics
/// a user also waits for are in [`PER_LAYER`]: none repeated within the
/// 0.10 bound across runs on the reference host (see the README).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("safe_rate_pct", "%"),
    ("energy", "sum_abs_u"),
];

/// Measured values by metric name.
pub type Values = Vec<(&'static str, f64)>;

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [(&str, &str); 72] = [
    // what a user waits for, demoted from the end-to-end list; each
    // workload measures them on its own traffic, once per repeat
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("throughput_rps", "1/s"),
    ("admit_ms", "ms"),
    ("certify_ms", "ms"),
    ("pipeline_s", "s"),
    // serve::reactor, measured on the reactor thread
    ("reactor.cpu_us_per_req", "us"),
    ("reactor.runq_us_per_req", "us"),
    ("reactor.migrations_per_req", "count"),
    ("reactor.ctxsw_per_req", "count"),
    ("transport.overhead_us", "us"),
    // serve::wire, the public codec timed over the workload's frames
    ("wire.encode_req_ns", "ns"),
    ("wire.decode_req_ns", "ns"),
    ("wire.encode_resp_ns", "ns"),
    ("wire.decode_resp_ns", "ns"),
    // serve::engine, shard threads, in-process replay and telemetry
    ("engine.cpu_us_per_req", "us"),
    ("engine.runq_us_per_req", "us"),
    ("engine.ctxsw_per_req", "count"),
    ("engine.migrations_per_req", "count"),
    ("engine.inproc_p50_us", "us"),
    ("engine.inproc_p99_us", "us"),
    ("engine.batch_mean", "count"),
    ("engine.queue_depth_p99", "count"),
    ("engine.rejected", "count"),
    // nn forward on the served weights
    ("forward.ns_per_row_b1", "ns"),
    ("forward.ns_per_row_bmean", "ns"),
    // the load generator and the latency sample itself
    ("gen.cpu_us_per_req", "us"),
    ("latency.samples", "count"),
    ("latency.highest_pct", "%"),
    ("latency.highest_us", "us"),
    // serve::admission, each phase called on the served bundle
    ("admit.validate_ms", "ms"),
    ("admit.lint_ms", "ms"),
    ("admit.lipschitz_ms", "ms"),
    ("admit.sweep_ms", "ms"),
    ("admit.fast_tier_ms", "ms"),
    ("admit.safety_ms", "ms"),
    ("admit.idle_ms", "ms"),
    ("admit.phase_sum_ratio", "ratio"),
    ("admit.contention", "ratio"),
    // verify, each sub-analysis under the shipped budgets
    ("verify.bernstein_ms", "ms"),
    ("verify.reach_ms", "ms"),
    ("verify.invariant_ms", "ms"),
    ("verify.pieces", "count"),
    ("verify.refinement_splits", "count"),
    ("verify.reach_peak_boxes", "count"),
    ("verify.invariant_iterations", "count"),
    ("verify.invariant_alive", "count"),
    // core::pipeline, rl and distill, per offline path
    ("pipeline.experts_s", "s"),
    ("pipeline.ppo_mixing_s", "s"),
    ("pipeline.dataset_s", "s"),
    ("pipeline.direct_distill_s", "s"),
    ("pipeline.robust_distill_s", "s"),
    ("pipeline.student_lint_s", "s"),
    ("pipeline.certify_s", "s"),
    ("pipeline.package_s", "s"),
    ("pipeline.evaluate_s", "s"),
    ("pipeline.cpu_util", "ratio"),
    ("ppo.samples", "count"),
    ("ppo.minibatch_updates", "count"),
    ("distill.minibatch_updates", "count"),
    ("distill.fgsm_applied", "count"),
    // the process and its host
    ("proc.peak_rss_mb", "MiB"),
    ("proc.cpu_util", "ratio"),
    ("proc.thread_accounted_share", "ratio"),
    ("host.steal_share", "ratio"),
    // traced ÷ untraced median of each timing a user waits for
    ("trace.overhead.setup_s", "ratio"),
    ("trace.overhead.p50_us", "ratio"),
    ("trace.overhead.p99_us", "ratio"),
    ("trace.overhead.throughput_rps", "ratio"),
    ("trace.overhead.admit_ms", "ratio"),
    ("trace.overhead.certify_ms", "ratio"),
    ("trace.overhead.pipeline_s", "ratio"),
];

/// Unit of a metric of either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
        let map = v.as_map().expect("object");
        let (_, list) = map.iter().find(|(k, _)| k == key).expect("key present");
        list.as_seq()
            .expect("list")
            .iter()
            .map(|m| {
                let m = m.as_map().expect("metric object");
                let get = |k: &str| match m.iter().find(|(n, _)| n == k) {
                    Some((_, Value::Str(s))) => s.clone(),
                    _ => panic!("metric without `{k}`"),
                };
                (get("name"), get("unit"), get("better"))
            })
            .collect()
    }

    #[test]
    fn names_and_units_match_benchmark_json() {
        let v = benchmark_json();
        let strip = |l: Vec<(String, String, String)>| -> Vec<(String, String)> {
            l.into_iter().map(|(n, u, _)| (n, u)).collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(strip(listed(&v, "end_to_end")), own(&END_TO_END));
        assert_eq!(strip(listed(&v, "per_layer")), own(&PER_LAYER));
    }
}
