//! Batched stability-query engine benchmark.
//!
//! Times [`bcn::query::QueryBatch`] against the naive per-call
//! `exact_verdict` + `theorem1_required_buffer` loop on two workloads:
//!
//! * **uniform-cold** — every query a distinct configuration, with more
//!   distinct keys than the sharded propagator cache holds, so the
//!   cache keeps evicting and most propagators are built fresh;
//! * **zipf-hot** — a Zipf-skewed mix over a few hundred distinct
//!   configurations, the serving-path shape where batching collapses
//!   the work to the number of *distinct* questions.
//!
//! One gate: serial batched evaluation must be at least 3x the naive
//! serial loop on the zipf-hot workload (skipped under
//! `DCE_BCN_QUICK`, which also shrinks the workloads to smoke size).
//! Bitwise answer equality with the naive loop and the warm verdict
//! path's zero-allocation guarantee are not timing questions; they are
//! checked by `bcn::query`'s unit tests and `tests/zero_alloc.rs` under
//! `cargo test`.
//!
//! Per-thread QPS rows at 1/2/4/8 workers land in `BENCH_query.json`
//! under the usual results directory. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin query_engine
//! ```

use bcn::query::{QueryBatch, StabilityAnswer, StabilityQuery};
use bcn::stability::{exact_verdict, theorem1_required_buffer};
use bcn::BcnParams;
use bench::common::{best_of, out_dir, quick};
use dcesim::faults::splitmix64;

/// Serial batched-vs-naive throughput gate on the zipf-hot workload.
const MIN_HOT_SPEEDUP: f64 = 3.0;
/// Leg budget for every benchmark query.
const MAX_LEGS: usize = 48;
/// Worker counts for the QPS rows.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

// --- deterministic workloads ----------------------------------------------

/// A unit-interval draw from the top 53 bits of the splitmix64 stream.
fn uniform01(state: &mut u64) -> f64 {
    let r = splitmix64(*state);
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    (r >> 11) as f64 / (1u64 << 53) as f64
}

/// The `i`-th distinct benchmark configuration: a capacity and gain
/// perturbation of the test defaults, so every index derives a distinct
/// propagator key with comparable trace cost.
fn distinct_config(i: usize) -> BcnParams {
    BcnParams::test_defaults().with_capacity(1.0e6 + i as f64).with_gi(1.0 + (i % 7) as f64 * 0.25)
}

/// Every query distinct: `n` configurations visited once each.
fn uniform_workload(n: usize, offset: usize) -> Vec<StabilityQuery> {
    (0..n)
        .map(|i| StabilityQuery { params: distinct_config(offset + i), max_legs: MAX_LEGS })
        .collect()
}

/// `n` queries Zipf(s)-sampled over `distinct` configurations.
fn zipf_workload(n: usize, distinct: usize, s: f64) -> Vec<StabilityQuery> {
    let mut cdf = Vec::with_capacity(distinct);
    let mut acc = 0.0;
    for r in 0..distinct {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    let mut state = 0x0dce_bc70_0000_0007u64;
    (0..n)
        .map(|_| {
            let u = uniform01(&mut state) * total;
            let rank = cdf.partition_point(|&c| c < u).min(distinct - 1);
            StabilityQuery { params: distinct_config(rank), max_legs: MAX_LEGS }
        })
        .collect()
}

// --- the two serving paths -------------------------------------------------

/// The pre-batching path: one `exact_verdict` call per query, fresh
/// allocations and a propagator-cache round trip every time.
fn naive_answers(queries: &[StabilityQuery]) -> Vec<StabilityAnswer> {
    queries
        .iter()
        .map(|q| {
            let v = exact_verdict(&q.params, q.max_legs);
            StabilityAnswer {
                strongly_stable: v.strongly_stable,
                required_buffer: theorem1_required_buffer(&q.params),
                max_x: v.max_x,
                min_x: v.min_x,
                legs: v.legs,
            }
        })
        .collect()
}

/// One workload's benchmark block: naive serial time and batched times
/// at each width.
struct WorkloadReport {
    name: &'static str,
    queries: usize,
    distinct: usize,
    groups: usize,
    naive_secs: f64,
    batch_secs: Vec<f64>,
}

fn run_workload(name: &'static str, queries: &[StabilityQuery], reps: usize) -> WorkloadReport {
    let batch = QueryBatch::new(queries);
    // Warm the propagator cache equally for both paths (the uniform
    // workload overflows the cache by construction, so it stays cold in
    // the steady state regardless).
    let _ = batch.evaluate_in(1);
    let _ = naive_answers(queries);

    let naive_secs = best_of(reps, || (), |()| naive_answers(queries)).0;
    let batch_secs: Vec<f64> =
        THREAD_COUNTS.iter().map(|&t| best_of(reps, || (), |()| batch.evaluate_in(t)).0).collect();
    WorkloadReport {
        name,
        queries: queries.len(),
        distinct: batch.distinct(),
        groups: batch.groups(),
        naive_secs,
        batch_secs,
    }
}

impl WorkloadReport {
    fn qps(&self, secs: f64) -> f64 {
        self.queries as f64 / secs
    }

    fn json(&self) -> String {
        let rows: Vec<String> = THREAD_COUNTS
            .iter()
            .zip(&self.batch_secs)
            .map(|(t, s)| {
                format!(
                    "{{\"threads\": {t}, \"secs\": {s:.6}, \"qps\": {:.0}, \
                     \"speedup_vs_naive\": {:.2}}}",
                    self.qps(*s),
                    self.naive_secs / s
                )
            })
            .collect();
        format!(
            "\"{}\": {{\"queries\": {}, \"distinct\": {}, \"groups\": {}, \
             \"naive_serial\": {{\"secs\": {:.6}, \"qps\": {:.0}}}, \
             \"batched\": [{}]}}",
            self.name,
            self.queries,
            self.distinct,
            self.groups,
            self.naive_secs,
            self.qps(self.naive_secs),
            rows.join(", "),
        )
    }

    fn print(&self) {
        println!(
            "  {}: {} queries, {} distinct, {} propagator groups",
            self.name, self.queries, self.distinct, self.groups
        );
        println!(
            "    naive serial: {:.3} s ({:.0} queries/s)",
            self.naive_secs,
            self.qps(self.naive_secs)
        );
        for (t, s) in THREAD_COUNTS.iter().zip(&self.batch_secs) {
            println!(
                "    batched threads = {t}: {s:.3} s ({:.0} queries/s, {:.2}x naive)",
                self.qps(*s),
                self.naive_secs / s
            );
        }
    }
}

fn main() {
    let (uniform_n, zipf_n, zipf_distinct, reps) =
        if quick() { (1_024, 2_000, 64, 1) } else { (8_192, 50_000, 512, 3) };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "query engine benchmark: uniform {uniform_n}, zipf {zipf_n}/{zipf_distinct}, \
         best of {reps}, {cores} core(s)"
    );

    // Disjoint index ranges so the uniform sweep cannot pre-warm the
    // zipf configurations (or vice versa).
    let zipf = zipf_workload(zipf_n, zipf_distinct, 1.1);
    let uniform = uniform_workload(uniform_n, zipf_distinct);

    let cache0 = bcn::propagate::cache_stats();
    let hot = run_workload("zipf_hot", &zipf, reps);
    hot.print();
    let cold = run_workload("uniform_cold", &uniform, reps);
    cold.print();
    let cache_delta = bcn::propagate::cache_stats().delta_since(cache0);
    println!(
        "propagator cache: {} hits, {} misses, {} evictions",
        cache_delta.hits, cache_delta.misses, cache_delta.evictions
    );

    let hot_speedup = hot.naive_secs / hot.batch_secs[0];
    let note = "Batched serial speedup on zipf_hot comes from evaluating each distinct \
                configuration once (dedup + per-group propagator resolution + reused \
                per-worker leg workspaces); on single-core hardware (see \\\"cores\\\") \
                the multi-thread rows measure scheduling overhead, not scaling. \
                uniform_cold holds more distinct keys than the sharded cache's capacity, \
                so its steady state keeps building propagators. Answer equality with the \
                naive loop and zero warm-path allocations are checked by the test suite \
                (bcn::query, zero_alloc).";
    let json = format!(
        "{{\n  \"reps\": {reps},\n  \"cores\": {cores},\n  \"max_legs\": {MAX_LEGS},\n  \
         \"workloads\": {{\n    {},\n    {}\n  }},\n  \
         \"hot_serial_speedup_vs_naive\": {hot_speedup:.2},\n  \
         \"propagator_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},\n  \
         \"note\": \"{note}\"\n}}\n",
        hot.json(),
        cold.json(),
        cache_delta.hits,
        cache_delta.misses,
        cache_delta.evictions,
    );
    let out = out_dir();
    let path = out.join("BENCH_query.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());

    if !quick() && hot_speedup < MIN_HOT_SPEEDUP {
        eprintln!(
            "FAIL: serial batched speedup {hot_speedup:.2}x below the {MIN_HOT_SPEEDUP}x gate \
             on the zipf-hot workload"
        );
        std::process::exit(1);
    }
}
