//! The metric tables this benchmark reports; `BENCHMARK.json` at the
//! repository root lists the same names (a test holds the two together).

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve_mixed", "attack_duo", "ingest_mix"];

/// The I3d victim's convolutions, in forward order.
pub const I3D_CONVS: [&str; 5] = ["conv1", "conv2", "res1", "res2", "conv3"];

/// The C3d surrogate's convolutions, in forward order.
pub const C3D_CONVS: [&str; 3] = ["conv1", "conv2", "conv3"];

/// One end-to-end metric: name, unit, direction, regression bound.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("max_qps_under_slo", "1/s", "higher", 0.25),
    ("recall_at_m", "ratio", "higher", 0.05),
];

/// One per-layer metric: name, unit, direction.
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    /// Metric name, prefixed by its layer.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn push(out: &mut Vec<PerLayer>, name: String, unit: &'static str, better: &'static str) {
    out.push(PerLayer { name, unit, better });
}

/// Per-layer metrics, reported by every workload's traced run (0 where
/// the workload runs no such work).
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for (net, convs, backward) in [
        ("i3d", &I3D_CONVS[..], false),
        ("c3d", &C3D_CONVS[..], true),
    ] {
        for conv in convs {
            let p = format!("tensor.{net}.{conv}");
            push(&mut out, format!("{p}.im2col_us"), "us", "lower");
            push(&mut out, format!("{p}.gemm_us"), "us", "lower");
            push(&mut out, format!("{p}.gemm_gfma_s"), "GFMA/s", "higher");
            if backward {
                push(&mut out, format!("{p}.col2im_us"), "us", "lower");
                push(&mut out, format!("{p}.wgrad_gemm_us"), "us", "lower");
            }
            push(&mut out, format!("{p}.fma"), "count", "lower");
            push(&mut out, format!("{p}.bytes"), "B", "lower");
        }
    }
    let fixed: [(&str, &'static str, &'static str); 65] = [
        ("nn.i3d.head_us", "us", "lower"),
        ("models.i3d.extract_ms", "ms", "lower"),
        ("models.i3d.extract_batch_ms", "ms", "lower"),
        ("models.i3d.conv_share", "ratio", "lower"),
        ("models.c3d.train_fwd_ms", "ms", "lower"),
        ("models.c3d.input_grad_ms", "ms", "lower"),
        ("models.c3d.backward_params_ms", "ms", "lower"),
        ("video.quantize_us", "us", "lower"),
        ("defenses.sketch_us", "us", "lower"),
        ("defenses.observe_us", "us", "lower"),
        ("defenses.squeeze_ms", "ms", "lower"),
        ("defenses.flagged", "count", "higher"),
        ("defenses.throttled", "count", "higher"),
        ("defenses.rejected", "count", "higher"),
        ("defenses.benign_flagged", "count", "lower"),
        ("defenses.attacker_blocked_frac", "ratio", "higher"),
        ("serve.batches", "count", "lower"),
        ("serve.mean_batch", "count", "higher"),
        ("serve.max_queue_depth", "count", "lower"),
        ("serve.rejected_overload", "count", "lower"),
        ("serve.deadline_misses", "count", "lower"),
        ("serve.refunded", "count", "lower"),
        ("serve.purified", "count", "lower"),
        ("serve.wait_ms_p50", "ms", "lower"),
        ("serve.wait_ms_p99", "ms", "lower"),
        ("retrieval.fanout_us", "us", "lower"),
        ("retrieval.shard_build_ms", "ms", "lower"),
        ("retrieval.shard_search_us", "us", "lower"),
        ("retrieval.scanned_rows_per_query", "count", "lower"),
        ("retrieval.probed_lists_per_query", "count", "lower"),
        ("retrieval.audited_recall", "ratio", "higher"),
        ("retrieval.publish_p50_ms", "ms", "lower"),
        ("retrieval.publish_stage_share", "ratio", "lower"),
        ("retrieval.rebuilt_shards_per_publish", "count", "lower"),
        ("attack.steal_s", "s", "lower"),
        ("attack.steal_oracle_ms", "ms", "lower"),
        ("attack.steal_train_ms", "ms", "lower"),
        ("attack.pair_s", "s", "lower"),
        ("attack.queries_per_pair", "count", "lower"),
        ("attack.ap_pct", "%", "higher"),
        ("attack.oracle_ms", "ms", "lower"),
        ("attack.oracle_calls", "count", "lower"),
        ("attack.self_ms", "ms", "lower"),
        ("attack.transfer_ms", "ms", "lower"),
        ("attack.admm_ms", "ms", "lower"),
        ("attack.accept_ratio", "ratio", "higher"),
        ("bench.query_p90_ms", "ms", "lower"),
        ("bench.gen_lag_p99_ms", "ms", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
        ("bench.error_frac", "ratio", "lower"),
        ("bench.ladder.sent", "count", "higher"),
        ("bench.ladder.succeeded", "count", "higher"),
        ("bench.ladder.failed", "count", "lower"),
        ("bench.adversarial.sent", "count", "higher"),
        ("bench.adversarial.succeeded", "count", "lower"),
        ("bench.adversarial.failed", "count", "lower"),
        ("bench.steal.sent", "count", "lower"),
        ("bench.steal.succeeded", "count", "lower"),
        ("bench.steal.failed", "count", "lower"),
        ("bench.attack.sent", "count", "lower"),
        ("bench.attack.succeeded", "count", "lower"),
        ("bench.attack.failed", "count", "lower"),
        ("bench.writes.sent", "count", "higher"),
        ("bench.writes.succeeded", "count", "higher"),
        ("bench.writes.failed", "count", "lower"),
    ];
    for (name, unit, better) in fixed {
        push(&mut out, name.to_string(), unit, better);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"name": "<value>"` of one top-level array out of
    /// `BENCHMARK.json` (a flat, hand-written file).
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.to_string()));
        assert!(names.len() <= 128 + 16);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
