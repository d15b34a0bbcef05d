//! Hybrid fluid–packet co-simulation benchmark and agreement rows.
//!
//! Times [`HybridSim`] against the pure packet engine on the Fig. 7
//! limit-cycle scenario and records how far the two engines' queues
//! diverge:
//!
//! 1. **Bounded divergence** — hybrid-vs-pure queue extrema agree within
//!    [`DIVERGENCE_BOUND_FRAC`]` * q0` on the limit cycle. On a 16-server
//!    incast (flow churn, drops, PAUSE pressure) the guards never admit
//!    an epoch, so the hybrid run degenerates to pure packet simulation
//!    and the divergence is exactly zero — gated as bit-identity.
//! 2. **End-to-end speedup** — on a quiescence-heavy horizon (the
//!    limit-cycle scenario run long past convergence) the hybrid engine
//!    must finish at least 3x faster than the pure packet engine
//!    (full mode only; `DCE_BCN_QUICK` reports the ratio without
//!    gating it).
//!
//! Always-packet bit-identity (single runs and batches at 1 and 4
//! workers) and the zero-allocation guarantee across epoch switches are
//! not timing questions; they are checked by
//! `crates/dcesim/tests/scheduler_equivalence.rs` and
//! `tests/zero_alloc.rs` under `cargo test`.
//!
//! Results land in `BENCH_hybrid.json` under the usual results
//! directory. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin hybrid_engine
//! ```

use std::hint::black_box;

use bench::common::{best_of, out_dir, quick};
use dcesim::hybrid::{HybridGuards, HybridSim, HybridStats, DIVERGENCE_BOUND_FRAC};
use dcesim::metrics::SimMetrics;
use dcesim::sim::{fluid_validation_params, SimConfig, Simulation};
use dcesim::time::Duration;
use dcesim::workload;

/// End-to-end speedup gate on the quiescence-heavy scenario.
const MIN_SPEEDUP: f64 = 3.0;
/// Frame size used throughout (bits).
const FRAME: f64 = 8_000.0;

// --- scenarios ------------------------------------------------------------

/// The Fig. 7 limit-cycle parameterisation on the packet engine.
fn limit_cycle(t_end: f64) -> SimConfig {
    SimConfig::from_fluid(&fluid_validation_params(), FRAME, Duration::from_secs(2e-6), t_end)
}

/// 16 servers answering a parallel read into the same bottleneck at 4x
/// overload: flow churn and drop/PAUSE pressure keep the structural
/// guards shut, so the hybrid engine must degenerate to pure packet.
fn incast16(t_end: f64) -> (bcn::BcnParams, SimConfig) {
    let mut params = fluid_validation_params();
    let mut cfg = limit_cycle(t_end);
    cfg.flows = workload::incast(16, params.capacity / 4.0, 300.0 * FRAME);
    params.n_flows = 16;
    (params, cfg)
}

fn run_hybrid(params: &bcn::BcnParams, cfg: &SimConfig) -> (SimMetrics, HybridStats) {
    let report = HybridSim::new(params.clone(), cfg.clone(), HybridGuards::default()).run();
    (report.sim.metrics, report.stats)
}

/// Best-of-`reps` wall time of one run (construction included) through
/// either engine.
fn time_run(params: &bcn::BcnParams, cfg: &SimConfig, hybrid: bool, reps: usize) -> f64 {
    let run = |()| {
        if hybrid {
            black_box(HybridSim::new(params.clone(), cfg.clone(), HybridGuards::default()).run());
        } else {
            black_box(Simulation::new(cfg.clone()).run());
        }
    };
    best_of(reps, || (), run).0
}

// --- agreement rows -------------------------------------------------------

/// Queue-extrema divergence of a hybrid run vs the pure engine, as
/// `(d_max, d_min, stats)`; the min is compared past a warm-up window
/// so the empty-queue start does not mask a divergent floor.
fn divergence(
    name: &str,
    params: &bcn::BcnParams,
    cfg: &SimConfig,
    warmup: f64,
) -> (f64, f64, HybridStats) {
    let pure = Simulation::new(cfg.clone()).run().metrics;
    let (hyb, stats) = run_hybrid(params, cfg);
    let dmax = (pure.queue.max() - hyb.queue.max()).abs();
    let dmin = (pure.queue.min_after(warmup) - hyb.queue.min_after(warmup)).abs();
    println!(
        "  {name}: {} epoch(s), {:.1}% analytic — divergence max {dmax:.0} / min {dmin:.0} bits",
        stats.epochs,
        ff_frac(&stats) * 100.0
    );
    (dmax, dmin, stats)
}

#[allow(clippy::cast_precision_loss)]
fn ff_frac(stats: &HybridStats) -> f64 {
    let total = stats.ff_ns + stats.packet_ns;
    if total > 0 {
        stats.ff_ns as f64 / total as f64
    } else {
        0.0
    }
}

// --- main -----------------------------------------------------------------

#[allow(clippy::cast_precision_loss)]
fn main() {
    let (agree_t_end, speed_t_end, reps) = if quick() { (0.3, 0.5, 1) } else { (0.5, 1.5, 3) };
    println!("hybrid engine benchmark: agreement over {agree_t_end} s, best of {reps}");

    let mut failures: Vec<String> = Vec::new();
    let params = fluid_validation_params();
    let bound = DIVERGENCE_BOUND_FRAC * params.q0;

    // 1. Bounded divergence on the limit cycle; exact degeneration on
    // the incast.
    println!("divergence vs pure packet (bound {bound:.0} bits):");
    let lc = limit_cycle(agree_t_end);
    let (lc_dmax, lc_dmin, lc_stats) = divergence("limit_cycle", &params, &lc, 0.05);
    if lc_stats.epochs == 0 {
        failures.push("limit-cycle run committed no fast-forward epoch".into());
    }
    if lc_dmax > bound || lc_dmin > bound {
        failures.push(format!(
            "limit-cycle divergence (max {lc_dmax:.0}, min {lc_dmin:.0}) exceeds {bound:.0} bits"
        ));
    }
    let (ic_params, ic_cfg) = incast16(agree_t_end);
    let (ic_dmax, ic_dmin, ic_stats) = divergence("incast_16", &ic_params, &ic_cfg, 0.05);
    if ic_stats.epochs != 0 {
        failures.push(format!(
            "incast guards admitted {} epoch(s); churn must stay packet-simulated",
            ic_stats.epochs
        ));
    }
    if ic_dmax != 0.0 || ic_dmin != 0.0 {
        failures.push(format!(
            "incast divergence (max {ic_dmax:.0}, min {ic_dmin:.0}) non-zero without epochs"
        ));
    }

    // 2. End-to-end speedup on the quiescence-heavy horizon.
    let speed_cfg = limit_cycle(speed_t_end);
    let packet_s = time_run(&params, &speed_cfg, false, reps);
    let hybrid_s = time_run(&params, &speed_cfg, true, reps);
    let speedup = packet_s / hybrid_s;
    let (_, speed_stats) = run_hybrid(&params, &speed_cfg);
    println!(
        "speedup over {speed_t_end} s: packet {:.1} ms vs hybrid {:.1} ms — {speedup:.2}x \
         ({:.1}% analytic)",
        packet_s * 1e3,
        hybrid_s * 1e3,
        ff_frac(&speed_stats) * 100.0
    );
    if !quick() && speedup < MIN_SPEEDUP {
        failures.push(format!("end-to-end speedup {speedup:.2}x below the {MIN_SPEEDUP}x gate"));
    }

    let note = "Divergence compares hybrid vs pure queue extrema on the fluid-calibrated \
                limit cycle (guards admit epochs) and the 16-flow incast (churn keeps the \
                guards shut, so the hybrid run is the pure run and diverges by exactly \
                zero). Speedup is end-to-end wall time on the limit-cycle scenario run \
                long past convergence, where the quiescent tail dominates; quick mode \
                reports it without gating. Always-packet bit-identity and zero \
                steady-state allocations across epoch switches are checked by the test \
                suite (scheduler_equivalence, zero_alloc).";
    let json = format!(
        "{{\n  \"quick\": {},\n  \"reps\": {reps},\n  \"divergence_bound_bits\": {bound:.0},\n  \
         \"divergence\": [\n    {{\"scenario\": \"limit_cycle\", \"epochs\": {}, \
         \"analytic_frac\": {:.4}, \"d_max_bits\": {lc_dmax:.1}, \"d_min_bits\": {lc_dmin:.1}}},\n    \
         {{\"scenario\": \"incast_16\", \"epochs\": {}, \"analytic_frac\": {:.4}, \
         \"d_max_bits\": {ic_dmax:.1}, \"d_min_bits\": {ic_dmin:.1}}}\n  ],\n  \
         \"speedup\": {{\"t_end\": {speed_t_end}, \"packet_s\": {packet_s:.4}, \
         \"hybrid_s\": {hybrid_s:.4}, \"speedup\": {speedup:.3}, \"gate\": {MIN_SPEEDUP}, \
         \"analytic_frac\": {:.4}}},\n  \"note\": \"{note}\"\n}}\n",
        quick(),
        lc_stats.epochs,
        ff_frac(&lc_stats),
        ic_stats.epochs,
        ff_frac(&ic_stats),
        ff_frac(&speed_stats),
    );
    let out = out_dir();
    let path = out.join("BENCH_hybrid.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
