//! `dumbbell_batch` and `hybrid_limit_cycle`: jittered multi-seed
//! batches through `dcesim::batch::run_batch`, on the packet engine and
//! on the hybrid co-simulator.

use std::time::Instant;

use bcn::BcnParams;
use dcesim::batch::{run_batch, seeded_config, BatchConfig, BatchReport};
use dcesim::faults::FaultConfig;
use dcesim::hybrid::{HybridSim, HybridSpec, DIVERGENCE_BOUND_FRAC};
use dcesim::metrics::SimMetrics;
use dcesim::sim::{fluid_validation_params, SimConfig, SimReport, SimWorkspace, Simulation};
use dcesim::time::Duration;
use telemetry::{Telemetry, TelemetryLevel};

use crate::gen::{self, BatchUnit};
use crate::spans::{self, Tracer};
use crate::{counter, layers, stats, Digest, Opts, Report};

/// Seeds per batch (one timed unit).
const SEEDS_PER_UNIT: usize = 6;
/// Batches in the traced run.
const TRACED_UNITS: u64 = 20;

/// A batch workload's fixed shape.
pub struct Shape {
    /// The engine's flow-level parameters.
    params: fn() -> BcnParams,
    /// Simulated horizon of every seed, in seconds.
    horizon: f64,
    /// Feedback-loss probability of the fault plan (0 = no faults).
    feedback_loss: f64,
    hybrid: bool,
}

/// The paper's worked example (50 BCN flows, 10 Gbit/s, PAUSE) on the
/// packet engine, with feedback loss injected, over the CLI's default
/// 0.05 s horizon.
pub fn dumbbell() -> Shape {
    Shape { params: BcnParams::paper_defaults, horizon: 0.05, feedback_loss: 0.05, hybrid: false }
}

/// The Fig. 7 limit-cycle dumbbell on the hybrid engine, over a horizon
/// long past convergence.
pub fn limit_cycle() -> Shape {
    Shape { params: fluid_validation_params, horizon: 2.0, feedback_loss: 0.0, hybrid: true }
}

impl Shape {
    /// Program set-up: build and validate the base configuration (and
    /// the hybrid spec), as `dcebcn batch` does before running seeds.
    fn base(&self, seed: u64) -> Result<(SimConfig, Option<HybridSpec>), String> {
        let params = (self.params)();
        let mut base =
            SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), self.horizon);
        if self.feedback_loss > 0.0 {
            let mut faults = FaultConfig::none();
            faults.seed = gen::fault_seed(seed);
            faults.feedback_loss = self.feedback_loss;
            base.faults = faults;
        }
        base.validate().map_err(|e| e.to_string())?;
        let hybrid = self.hybrid.then(|| HybridSpec::new(params));
        if let Some(spec) = &hybrid {
            spec.validate_for(&base).map_err(|e| e.to_string())?;
        }
        Ok((base, hybrid))
    }

    fn batch(
        &self,
        base: &SimConfig,
        hybrid: &Option<HybridSpec>,
        unit: &BatchUnit,
    ) -> BatchConfig {
        let mut cfg = BatchConfig::quick(base.clone(), 0);
        cfg.seeds.clone_from(&unit.seeds);
        cfg.start_jitter_secs = unit.start_jitter_frac * self.horizon;
        cfg.rate_jitter_frac = unit.rate_jitter_frac;
        cfg.hybrid.clone_from(hybrid);
        cfg
    }
}

/// Counts failed and timed-out seeds of a batch into the report.
fn tally(report: &mut Report, batch: &BatchReport) {
    report.attempted += batch.seeds.len() as u64;
    for (seed, cause) in batch.failures() {
        report.failures.push(format!("seed {seed} failed: {cause}"));
    }
    for (seed, events) in batch.timed_out() {
        report.failures.push(format!("seed {seed} timed out after {events} events"));
    }
}

fn same(a: &SimReport, b: &SimReport) -> bool {
    (a.metrics == b.metrics && a.final_rates == b.final_rates)
        || format!("{:?}{:?}", a.metrics, a.final_rates)
            == format!("{:?}{:?}", b.metrics, b.final_rates)
}

fn digest_metrics(d: &mut Digest, m: &SimMetrics, final_rates: &[f64]) {
    for w in [m.delivered_frames, m.dropped_frames, m.feedback_messages, m.pause_events] {
        d.word(w);
    }
    d.word(m.delivered_bits.to_bits());
    d.floats(m.queue.times());
    d.floats(m.queue.values());
    d.floats(m.aggregate_rate.values());
    d.floats(&m.per_source_bits);
    d.floats(final_rates);
    d.bytes(format!("{:?}", m.faults).as_bytes());
}

/// Replays `seed` serially through the per-seed public path:
/// `seeded_config`, `new_in`, the `step` loop and `finish_into`, each in
/// its own span when traced.
fn replay(cfg: &BatchConfig, seed: u64, ws: &mut SimWorkspace, tr: &mut Tracer) -> SimReport {
    let outer = tr.begin("replay", seed);
    let sim_cfg = tr.span("seeded_config", seed, || seeded_config(cfg, seed));
    let report = match &cfg.hybrid {
        Some(spec) => {
            let mut h = tr.span("new", seed, || {
                HybridSim::new_in(spec.params.clone(), sim_cfg, spec.guards, ws)
            });
            tr.span("step", seed, || while h.step() {});
            tr.span("finish", seed, || h.finish_into(ws)).sim
        }
        None => {
            let mut s = tr.span("new", seed, || Simulation::new_in(sim_cfg, ws));
            tr.span("step", seed, || while s.step() {});
            tr.span("finish", seed, || s.finish_into(ws))
        }
    };
    tr.end(outer);
    report
}

/// Replays every completed seed of `batch` and checks bit-identity;
/// returns the digest of the replayed statistics.
fn check_replays(
    report: &mut Report,
    cfg: &BatchConfig,
    batch: &BatchReport,
    ws: &mut SimWorkspace,
    tr: &mut Tracer,
) -> Digest {
    let mut d = Digest::default();
    for (seed, expected) in batch.completed() {
        let got = replay(cfg, seed, ws, tr);
        let chk = tr.begin("check", seed);
        report.check(same(expected, &got), || {
            format!("seed {seed}: serial replay differs from the batch outcome")
        });
        d.word(seed);
        digest_metrics(&mut d, &got.metrics, &got.final_rates);
        tr.end(chk);
    }
    d
}

/// Hybrid-vs-packet queue-extremum gap as a share of `q0`, with the
/// hybrid run's epoch count. The check runs the batch's unjittered base
/// scenario, the configuration the fluid model describes exactly: with
/// per-flow jitter the flows are no longer homogeneous, and the gap
/// reaches 10-15% of `q0`.
fn divergence(spec: &HybridSpec, cfg: &SimConfig) -> (f64, u64) {
    // Past the empty-queue start, so the minimum compares the cycle.
    const WARMUP: f64 = 0.05;
    let pure = Simulation::new(cfg.clone()).run();
    let hyb = HybridSim::new(spec.params.clone(), cfg.clone(), spec.guards).run();
    let (p, h) = (&pure.metrics.queue, &hyb.sim.metrics.queue);
    let dmax = (p.max() - h.max()).abs();
    let dmin = (p.min_after(WARMUP) - h.min_after(WARMUP)).abs();
    (dmax.max(dmin) / spec.params.q0, hyb.stats.epochs)
}

fn check_divergence(report: &mut Report, cfg: &BatchConfig, spec: &HybridSpec) -> f64 {
    let (frac, epochs) = divergence(spec, &cfg.base);
    report.check(frac <= DIVERGENCE_BOUND_FRAC, || {
        format!("hybrid divergence {frac:.4} of q0 exceeds {DIVERGENCE_BOUND_FRAC}")
    });
    report.check(epochs > 0, || "hybrid run committed no fast-forward epoch".into());
    report
        .notes
        .push(format!("divergence_frac {frac:.6} of q0 on the base scenario ({epochs} epochs)"));
    frac
}

pub fn run(opts: &Opts, shape: &Shape) -> Report {
    let mut report = Report {
        work_name: "simulated seconds, summed over seeds",
        unit_name: "one run_batch call",
        ..Report::default()
    };
    let (base, hybrid) = match shape.base(opts.seed) {
        Ok(b) => b,
        Err(e) => {
            report.check(false, || format!("base configuration invalid: {e}"));
            return report;
        }
    };
    let unit = |u: u64| shape.batch(&base, &hybrid, &gen::batch_unit(opts.seed, u, SEEDS_PER_UNIT));
    if opts.trace {
        traced(shape, &mut report, &unit);
        return report;
    }

    let started = Instant::now();
    let mut first: Option<(BatchConfig, BatchReport)> = None;
    let mut u = 0;
    while u < 20 || started.elapsed().as_secs_f64() < opts.seconds {
        report.setup_samples.push(stats::cpu_per_call(|| shape.base(opts.seed)));
        let cfg = unit(u);
        let w0 = Instant::now();
        let (batch, dt) = stats::cpu_time(|| run_batch(&cfg));
        report.wall_s += w0.elapsed().as_secs_f64();
        report.units_ms.push(dt * 1e3);
        report.busy_s += dt;
        report.work += shape.horizon * cfg.seeds.len() as f64;
        tally(&mut report, &batch);
        if first.is_none() {
            first = Some((cfg, batch));
        }
        u += 1;
    }
    let (cfg, batch) = first.expect("at least one unit ran");
    let mut off = Tracer::new(false);
    let mut d = check_replays(&mut report, &cfg, &batch, &mut SimWorkspace::new(), &mut off);
    if let Some(spec) = &hybrid {
        d.word(check_divergence(&mut report, &cfg, spec).to_bits());
    }
    report.digest = d.finish();
    report
}

/// The traced run: a fixed set of batches, each run once untraced (the
/// overhead base) and once with a `Summary` sink, then every seed
/// replayed serially. Untraced and traced runs alternate, so both see
/// the same machine conditions.
fn traced(shape: &Shape, report: &mut Report, unit: &dyn Fn(u64) -> BatchConfig) {
    let configs: Vec<BatchConfig> = (0..TRACED_UNITS).map(unit).collect();
    let cache0 = bcn::propagate::cache_stats();
    let mut tr = Tracer::new(true);
    let from = tr.clock_ns();
    let mut agg = Telemetry::new(TelemetryLevel::Summary);
    let mut ws = SimWorkspace::new();
    let mut d = Digest::default();
    let (mut frames, mut dropped, mut failed) = (0.0, 0.0, 0.0);
    for (u, base) in configs.iter().enumerate() {
        std::hint::black_box(tr.span("untraced", u as u64, || run_batch(base)));
        let mut cfg = base.clone();
        cfg.level = TelemetryLevel::Summary;
        let batch = tr.span("batch", u as u64, || run_batch(&cfg));
        tally(report, &batch);
        failed += batch.failures().count() as f64;
        if let Some(tel) = &batch.telemetry {
            agg.merge(tel);
        }
        for (_, r) in batch.completed() {
            frames += (r.metrics.delivered_frames + r.metrics.dropped_frames) as f64;
            dropped += r.metrics.dropped_frames as f64;
        }
        d.word(check_replays(report, &cfg, &batch, &mut ws, &mut tr).finish());
    }
    let wall = (tr.clock_ns() - from) as f64 * 1e-9;
    let cache = bcn::propagate::cache_stats().delta_since(cache0);
    let divergence = match &configs[0].hybrid {
        Some(spec) => check_divergence(report, &configs[0], spec),
        None => 0.0,
    };
    d.word(divergence.to_bits());
    report.digest = d.finish();

    let sp = tr.spans();
    let total = spans::time_by_name(sp);
    let t = |name: &str| total.get(name).copied().unwrap_or(0.0);
    let untraced = t("untraced");
    let mut seeds_ms = spans::durations_ms(sp, "replay");
    seeds_ms.sort_by(f64::total_cmp);
    let events = counter(&agg, "scheduler.events_popped");
    let engine_s = t("new") + t("step") + t("finish");
    let workers = parkit::configured_threads().min(SEEDS_PER_UNIT) as f64;
    let engine = if shape.hybrid {
        [
            "hybrid.new_s",
            "hybrid.step_s",
            "hybrid.finish_s",
            "hybrid.seed_p50_ms",
            "hybrid.seed_p90_ms",
        ]
    } else {
        ["sim.new_s", "sim.step_s", "sim.finish_s", "sim.seed_p50_ms", "sim.seed_p90_ms"]
    };
    let l = &mut report.layers;
    l.insert(engine[0], t("new"));
    l.insert(engine[1], t("step"));
    l.insert(engine[2], t("finish"));
    l.insert(engine[3], stats::percentile(&seeds_ms, 0.5));
    l.insert(engine[4], stats::percentile(&seeds_ms, 0.9));
    if shape.hybrid {
        l.insert("hybrid.epochs", counter(&agg, "hybrid.epochs"));
        l.insert("hybrid.reseeds", counter(&agg, "hybrid.reseeds"));
        l.insert("hybrid.packet_events", events);
        let (ff, pk) = (counter(&agg, "hybrid.ff_ns"), counter(&agg, "hybrid.packet_ns"));
        l.insert("hybrid.analytic_frac", ff / (ff + pk));
        l.insert("divergence_frac", divergence);
    } else {
        l.insert("sim.events", events);
        l.insert("sim.ns_per_event", t("step") * 1e9 / events);
    }
    l.extend(layers::sched(&agg));
    let bcn = counter(&agg, "sim.bcn_messages");
    l.insert("cp.bcn_messages", bcn);
    l.insert("cp.messages_per_kframe", bcn * 1e3 / frames);
    // The layer names of the fault classes are the telemetry counter names.
    for (name, ..) in layers::LAYERS.iter().filter(|l| l.0.starts_with("faults.")) {
        l.insert(name, counter(&agg, name));
    }
    l.insert("batch.overhead_frac", 1.0 - engine_s / (workers * untraced));
    l.insert("batch.failed", failed);
    l.insert("batch.timed_out", counter(&agg, "batch.timed_out"));
    l.insert("propagate.cache_hits", cache.hits as f64);
    l.insert("propagate.cache_misses", cache.misses as f64);
    l.insert("propagate.cache_evictions", cache.evictions as f64);
    let probes = (cache.hits + cache.misses) as f64;
    l.insert("propagate.hit_ratio", if probes > 0.0 { cache.hits as f64 / probes } else { 0.0 });
    l.insert("drop_frac", dropped / frames);
    l.insert("telemetry.overhead_frac", t("batch") / untraced - 1.0);
    l.insert("trace.coverage_frac", spans::top_level_secs(sp, from) / wall);
    report.notes.push(format!(
        "traced {} batches x {} seeds: batch {:.3} s traced, {untraced:.3} s untraced; \
         serial replay p50 {:.2} ms over {} seeds",
        configs.len(),
        SEEDS_PER_UNIT,
        t("batch"),
        stats::percentile(&seeds_ms, 0.5),
        seeds_ms.len()
    ));
    report.spans = tr.into_spans();
}
