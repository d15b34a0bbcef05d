//! Heap-vs-wheel scheduler equivalence on randomized configurations.
//!
//! The timing wheel must be an invisible substitution for the binary
//! heap: same event order, same metrics, same telemetry (modulo the
//! `scheduler.*` self-counters, which describe backend internals), same
//! final rates — at any worker count, on the dumbbell and on
//! multi-switch fabrics. The hybrid engine with its `always_packet`
//! guard must likewise be invisible against the pure packet engine.
//! These tests drive the backends through a splitmix64-seeded family
//! of configurations and fixed faulted scenarios and demand
//! bit-identical results. A proptest-powered generalisation lives in
//! `tests/properties.rs` behind the `proptest-tests` feature.

use std::sync::{Mutex, PoisonError};

use dcesim::batch::{run_batch, BatchConfig, NetBatchConfig};
use dcesim::faults::{splitmix64, FaultConfig};
use dcesim::hybrid::{HybridGuards, HybridSim, HybridSpec};
use dcesim::metrics::SimMetrics;
use dcesim::net::{victim_topology, NetConfig, NetSim, PauseConfig};
use dcesim::sched::Scheduler;
use dcesim::sim::{fluid_validation_params, SimConfig, Simulation};
use dcesim::time::Duration;
use dcesim::topo::{compile, TopoSpec, Traffic};
use dcesim::workload;
use telemetry::{Telemetry, TelemetryLevel};

/// `parkit::set_threads` is process-global: every test that varies the
/// worker count holds this lock, so two of them cannot interleave their
/// widths and end up comparing 1 worker against 1 worker.
static WIDTH: Mutex<()> = Mutex::new(());

/// Runs `f` at a pinned worker count, then restores the default.
fn at_width<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    parkit::set_threads(threads);
    let out = f();
    parkit::set_threads(0);
    out
}

/// A deterministic mixed wire-fault plan.
fn fault_plan() -> FaultConfig {
    let mut f = FaultConfig::none();
    f.seed = 7;
    f.feedback_loss = 0.05;
    f.feedback_corrupt = 0.02;
    f.data_loss = 0.005;
    f
}

/// A 12-sender incast at 4x overload compiled onto a k=4 fat-tree.
fn fabric_incast(t_end: f64) -> NetConfig {
    let traffic = Traffic::Incast { senders: 12, dst: usize::MAX, load: 4.0 };
    compile(&TopoSpec::fat_tree(4), &traffic, t_end).expect("fabric compiles")
}

/// The seeds a batch completed, with their metrics and final rates.
fn completed_runs(cfg: &BatchConfig) -> Vec<(u64, SimMetrics, Vec<f64>)> {
    run_batch(cfg)
        .completed()
        .map(|(seed, r)| (seed, r.metrics.clone(), r.final_rates.clone()))
        .collect()
}

/// A unit-interval sample from the splitmix64 stream.
fn unit(z: u64) -> f64 {
    (splitmix64(z) >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic random configuration drawn from `seed`: frame size,
/// propagation delay, workload shape, horizon, and (for odd seeds) a
/// random wire-fault plan all vary.
fn random_config(seed: u64) -> SimConfig {
    let params = fluid_validation_params();
    let frame_bits = (4_000.0 + 8_000.0 * unit(seed)).round();
    let prop_delay = Duration::from_secs(5e-7 + 3.5e-6 * unit(seed ^ 1));
    let t_end = 0.01 + 0.02 * unit(seed ^ 2);
    let mut cfg = SimConfig::from_fluid(&params, frame_bits, prop_delay, t_end);

    let n = 2 + (splitmix64(seed ^ 3) % 19) as usize;
    let share = params.capacity / n as f64;
    cfg.flows = match splitmix64(seed ^ 4) % 3 {
        0 => workload::homogeneous(n, share),
        1 => workload::staggered(n, share, t_end / (2.0 * n as f64)),
        _ => workload::incast(n, 2.0 * share, 200.0 * frame_bits),
    };

    if seed % 2 == 1 {
        let mut f = FaultConfig::none();
        f.seed = splitmix64(seed ^ 5);
        f.feedback_loss = 0.1 * unit(seed ^ 6);
        f.feedback_corrupt = 0.05 * unit(seed ^ 7);
        f.data_loss = 0.01 * unit(seed ^ 8);
        cfg.faults = f;
    }
    cfg
}

/// Everything a run observably produces, with the scheduler's
/// self-describing `scheduler.*` series filtered out (cascade and
/// overflow counts legitimately differ between backends). Floats are
/// compared by bit pattern so byte-identity is literal — an untouched
/// gauge is `NaN` on both sides and must still match.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    metrics: SimMetrics,
    final_rates: Vec<u64>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64, u64, u64, u64)>,
    quantiles: Vec<(String, u64, u64, u64)>,
}

fn fingerprint(mut cfg: SimConfig, scheduler: Scheduler) -> Fingerprint {
    cfg.scheduler = scheduler;
    let report = Simulation::with_telemetry(cfg, Telemetry::new(TelemetryLevel::Summary)).run();
    let tel = report.telemetry.expect("telemetry requested");
    let keep = |name: &str| !name.starts_with("scheduler.");
    Fingerprint {
        metrics: report.metrics,
        final_rates: report.final_rates.iter().map(|r| r.to_bits()).collect(),
        counters: tel
            .metrics
            .counters()
            .filter(|(name, _)| keep(name))
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        gauges: tel
            .metrics
            .gauges()
            .filter(|(name, _)| keep(name))
            .map(|(name, g)| {
                (name.to_string(), g.last.to_bits(), g.min.to_bits(), g.max.to_bits(), g.samples)
            })
            .collect(),
        quantiles: tel
            .metrics
            .histograms()
            .filter(|(name, _)| keep(name))
            .map(|(name, h)| {
                (name.to_string(), h.p50().to_bits(), h.p90().to_bits(), h.p99().to_bits())
            })
            .collect(),
    }
}

/// Both backends agree — metrics, rates, and telemetry — on a family of
/// random configurations, faulted and clean alike.
#[test]
fn schedulers_agree_on_random_configs() {
    for seed in 0..8u64 {
        let cfg = random_config(seed);
        let wheel = fingerprint(cfg.clone(), Scheduler::Wheel);
        let heap = fingerprint(cfg, Scheduler::Heap);
        assert_eq!(wheel, heap, "seed {seed}: wheel and heap runs diverged");
        assert!(!wheel.counters.is_empty(), "seed {seed}: telemetry captured nothing");
    }
}

/// Batched multi-seed runs agree across schedulers *and* worker counts:
/// (wheel, 4 workers), (heap, 1), and (heap, 4) must all reproduce the
/// (wheel, 1 worker) report seed for seed, on a clean and a faulted
/// configuration.
#[test]
fn schedulers_agree_across_worker_counts() {
    let _width = WIDTH.lock().unwrap_or_else(PoisonError::into_inner);
    // Even seeds draw a clean configuration, odd seeds a faulted one.
    for config_seed in [2, 3] {
        let run = |scheduler: Scheduler, threads: usize| {
            let base = SimConfig { scheduler, ..random_config(config_seed) };
            let cfg = BatchConfig { level: TelemetryLevel::Off, ..BatchConfig::quick(base, 5) };
            let out = at_width(threads, || completed_runs(&cfg));
            assert_eq!(out.len(), 5, "every seed must complete");
            out
        };
        let baseline = run(Scheduler::Wheel, 1);
        for (scheduler, threads) in
            [(Scheduler::Wheel, 4), (Scheduler::Heap, 1), (Scheduler::Heap, 4)]
        {
            assert_eq!(
                run(scheduler, threads),
                baseline,
                "config {config_seed}: batch ({}, {threads} workers) diverged from \
                 (wheel, 1 worker)",
                scheduler.name()
            );
        }
    }
}

/// The multi-switch engine is scheduler-invariant on the hand-built
/// victim topology and on a generator-compiled fabric incast, clean and
/// faulted.
#[test]
fn net_schedulers_agree_on_victim_and_fabric_topologies() {
    let trunk = 1e9;
    let pause = PauseConfig {
        enabled: true,
        hold: Duration::from_secs(40.0 * 8_000.0 / trunk),
        per_priority: false,
    };
    let (victim, _) =
        victim_topology(4, trunk, 8_000.0, Duration::from_secs(1e-6), 0.05, pause, None);
    for (name, base) in [("victim", victim), ("fat-tree incast-12", fabric_incast(0.01))] {
        for faults in [FaultConfig::none(), fault_plan()] {
            let faulty = faults.enabled();
            let run = |scheduler| {
                NetSim::new(NetConfig { scheduler, faults: faults.clone(), ..base.clone() }).run()
            };
            assert_eq!(
                run(Scheduler::Wheel),
                run(Scheduler::Heap),
                "{name} (faults: {faulty}): wheel and heap reports differ"
            );
        }
    }
}

/// A faulted fabric batch is identical across (wheel, heap) x (1, 4)
/// workers.
#[test]
fn fabric_batches_agree_across_schedulers_and_worker_counts() {
    let _width = WIDTH.lock().unwrap_or_else(PoisonError::into_inner);
    let run = |scheduler: Scheduler, threads: usize| {
        let base = NetConfig { scheduler, faults: fault_plan(), ..fabric_incast(0.005) };
        let cfg = NetBatchConfig::quick(base, 4);
        let out: Vec<_> = at_width(threads, || {
            run_batch(&cfg).completed().map(|(seed, r)| (seed, r.clone())).collect()
        });
        assert_eq!(out.len(), 4, "every seed must complete");
        out
    };
    let baseline = run(Scheduler::Wheel, 1);
    for (scheduler, threads) in [(Scheduler::Wheel, 4), (Scheduler::Heap, 1), (Scheduler::Heap, 4)]
    {
        assert_eq!(
            run(scheduler, threads),
            baseline,
            "fabric batch ({}, {threads} workers) diverged from (wheel, 1 worker)",
            scheduler.name()
        );
    }
}

/// With the `always_packet` guard the hybrid wrapper is the pure packet
/// engine: on a 16-server incast, and as a batch at 1 and 4 workers
/// against the pure batch.
#[test]
fn always_packet_hybrid_matches_pure_packet() {
    let always_packet = HybridGuards { always_packet: true, ..HybridGuards::default() };
    let mut params = fluid_validation_params();
    let mut incast = SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), 0.3);
    incast.flows = workload::incast(16, params.capacity / 4.0, 300.0 * 8_000.0);
    params.n_flows = 16;
    let pure = Simulation::new(incast.clone()).run();
    let hybrid = HybridSim::new(params, incast, always_packet).run();
    assert_eq!(hybrid.stats.epochs, 0, "always-packet committed an epoch");
    assert_eq!(hybrid.sim.metrics, pure.metrics, "incast-16: hybrid wrapper diverged");
    assert_eq!(hybrid.sim.final_rates, pure.final_rates, "incast-16: final rates diverged");

    let _width = WIDTH.lock().unwrap_or_else(PoisonError::into_inner);
    let params = fluid_validation_params();
    let base = SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), 0.02);
    let pure = BatchConfig { level: TelemetryLevel::Off, ..BatchConfig::quick(base, 6) };
    let baseline = at_width(1, || completed_runs(&pure));
    assert_eq!(baseline.len(), 6, "every seed must complete");
    let wrapped =
        BatchConfig { hybrid: Some(HybridSpec { params, guards: always_packet }), ..pure };
    for threads in [1, 4] {
        assert_eq!(
            at_width(threads, || completed_runs(&wrapped)),
            baseline,
            "always-packet batch ({threads} workers) diverged from the pure batch"
        );
    }
}
