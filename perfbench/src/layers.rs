//! The per-layer metrics of the traced run. Each entry names the
//! end-to-end metric it should move and the workload where that shows;
//! a workload that bypasses a layer reports its metrics as 0, and there
//! the prediction for a change to that layer is "no change".

use crate::counter;

/// `(name, unit, better, moves, where)`.
pub type Layer = (&'static str, &'static str, &'static str, &'static str, &'static str);

pub const LAYERS: &[Layer] = &[
    // topo
    ("topo.compile_s", "s", "lower", "setup_s", "fabric_incast_512"),
    ("topo.route_entries", "count", "lower", "setup_s", "fabric_incast_512"),
    // net
    ("net.try_new_s", "s", "lower", "setup_s", "fabric_incast_512"),
    ("net.step_s", "s", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("net.ns_per_event", "ns", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("net.events", "count", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("net.finish_s", "s", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("net.pause_events", "count", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("net.frames_dropped", "count", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("net.pauses_per_kevent", "1/kevent", "lower", "work_per_cpu_s", "fabric_incast_512"),
    // sim
    ("sim.new_s", "s", "lower", "work_per_cpu_s", "dumbbell_batch"),
    ("sim.step_s", "s", "lower", "work_per_cpu_s", "dumbbell_batch"),
    ("sim.finish_s", "s", "lower", "work_per_cpu_s", "dumbbell_batch"),
    ("sim.seed_p50_ms", "ms", "lower", "unit_cpu_p50_ms", "dumbbell_batch"),
    ("sim.seed_p90_ms", "ms", "lower", "unit_cpu_tail_ms", "dumbbell_batch"),
    ("sim.ns_per_event", "ns", "lower", "work_per_cpu_s", "dumbbell_batch"),
    ("sim.events", "count", "lower", "work_per_cpu_s", "dumbbell_batch"),
    // sched
    ("sched.scheduled", "count", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("sched.popped", "count", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("sched.cascades_per_pop", "ratio", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("sched.overflow_parked", "count", "lower", "work_per_cpu_s", "fabric_incast_512"),
    ("sched.max_pending", "count", "lower", "work_per_cpu_s", "fabric_incast_512"),
    // cp / rp
    ("cp.bcn_messages", "count", "lower", "work_per_cpu_s", "dumbbell_batch"),
    ("cp.messages_per_kframe", "1/kframe", "lower", "work_per_cpu_s", "dumbbell_batch"),
    // faults (determinism witnesses)
    ("faults.feedback_drop", "count", "lower", "none", "dumbbell_batch"),
    ("faults.feedback_corrupt", "count", "lower", "none", "dumbbell_batch"),
    ("faults.feedback_delay", "count", "lower", "none", "dumbbell_batch"),
    ("faults.feedback_reorder", "count", "lower", "none", "dumbbell_batch"),
    ("faults.data_loss", "count", "lower", "none", "dumbbell_batch"),
    ("faults.link_flap", "count", "lower", "none", "dumbbell_batch"),
    ("faults.pause_storm", "count", "lower", "none", "dumbbell_batch"),
    // batch / parkit
    ("batch.overhead_frac", "ratio", "lower", "work_per_cpu_s", "dumbbell_batch"),
    ("batch.failed", "count", "lower", "none", "dumbbell_batch"),
    ("batch.timed_out", "count", "lower", "none", "dumbbell_batch"),
    // hybrid
    ("hybrid.new_s", "s", "lower", "work_per_cpu_s", "hybrid_limit_cycle"),
    ("hybrid.step_s", "s", "lower", "work_per_cpu_s", "hybrid_limit_cycle"),
    ("hybrid.finish_s", "s", "lower", "work_per_cpu_s", "hybrid_limit_cycle"),
    ("hybrid.seed_p50_ms", "ms", "lower", "unit_cpu_p50_ms", "hybrid_limit_cycle"),
    ("hybrid.seed_p90_ms", "ms", "lower", "unit_cpu_tail_ms", "hybrid_limit_cycle"),
    ("hybrid.epochs", "count", "higher", "work_per_cpu_s", "hybrid_limit_cycle"),
    ("hybrid.reseeds", "count", "lower", "work_per_cpu_s", "hybrid_limit_cycle"),
    ("hybrid.packet_events", "count", "lower", "work_per_cpu_s", "hybrid_limit_cycle"),
    ("hybrid.analytic_frac", "ratio", "higher", "work_per_cpu_s", "hybrid_limit_cycle"),
    // propagate
    ("propagate.cache_hits", "count", "higher", "work_per_cpu_s", "query_zipf"),
    ("propagate.cache_misses", "count", "lower", "work_per_cpu_s", "query_zipf"),
    ("propagate.cache_evictions", "count", "lower", "unit_cpu_tail_ms", "query_zipf"),
    ("propagate.hit_ratio", "ratio", "higher", "work_per_cpu_s", "query_zipf"),
    // query
    ("query.decode_s", "s", "lower", "work_per_cpu_s", "query_zipf"),
    ("query.group_s", "s", "lower", "work_per_cpu_s", "query_zipf"),
    ("query.evaluate_s", "s", "lower", "work_per_cpu_s", "query_zipf"),
    ("query.encode_s", "s", "lower", "work_per_cpu_s", "query_zipf"),
    ("query.distinct_frac", "ratio", "lower", "unit_cpu_p50_ms", "query_zipf"),
    ("query.groups_per_chunk", "count", "lower", "unit_cpu_p50_ms", "query_zipf"),
    // stability
    ("stability.legs_per_query", "count", "lower", "work_per_cpu_s", "query_zipf"),
    ("stability.ns_per_leg", "ns", "lower", "work_per_cpu_s", "query_zipf"),
    // model outcomes (deterministic; a speed-only change keeps them)
    ("drop_frac", "ratio", "lower", "none", "fabric_incast_512"),
    ("divergence_frac", "ratio", "lower", "none", "hybrid_limit_cycle"),
    ("failed_frac", "ratio", "lower", "none", "all"),
    // the trace itself
    ("telemetry.overhead_frac", "ratio", "lower", "none", "all"),
    ("trace.coverage_frac", "ratio", "higher", "none", "all"),
];

/// The `sched.*` metrics from a run's `scheduler.*` telemetry.
pub fn sched(tel: &telemetry::Telemetry) -> [(&'static str, f64); 5] {
    let popped = counter(tel, "scheduler.events_popped");
    [
        ("sched.scheduled", counter(tel, "scheduler.events_scheduled")),
        ("sched.popped", popped),
        ("sched.cascades_per_pop", counter(tel, "scheduler.cascades") / popped),
        ("sched.overflow_parked", counter(tel, "scheduler.overflow_parked")),
        (
            "sched.max_pending",
            tel.metrics.gauge_by_name("scheduler.max_pending").map_or(0.0, |g| g.max),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::LAYERS;

    /// `BENCHMARK.json` lists exactly these metrics, in this order.
    #[test]
    fn benchmark_json_lists_every_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let mut rest = per_layer;
        for (name, unit, better, _, _) in LAYERS {
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}", "better": "{better}"}}"#);
            let at =
                rest.find(&entry).unwrap_or_else(|| panic!("missing or out of order: {entry}"));
            rest = &rest[at + entry.len()..];
        }
        assert!(!rest.contains("\"name\""), "BENCHMARK.json lists metrics the table lacks");
    }
}
