//! Parallel-sweep scaling check for the atlas engine.
//!
//! Times [`compute_atlas`] at 1/2/4/8 worker threads and quantifies
//! what hoisting the per-cell `BcnParams` allocation saves. Results
//! land in `BENCH_sweeps.json` under the usual results directory.
//!
//! Speedup is hardware-bound: on an M-core machine the atlas cannot
//! scale past M, so the wall-clock table is informational and nothing
//! here is gated. That the atlas is identical at every width (the
//! `parkit` determinism contract) is checked by `criterion_sweep`'s
//! unit tests under `cargo test`. Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin sweep_scaling
//! ```
//!
//! Environment knobs: `DCE_BCN_SWEEP_GRID` (atlas side length, default
//! 64), `DCE_BCN_SWEEP_REPS` (timing repetitions, default 3).

use std::hint::black_box;
use std::time::Instant;

use bcn::BcnParams;
use bench::common::{best_of, env_usize, out_dir};
use bench::experiments::criterion_sweep::compute_atlas;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Best-of-`reps` wall time of one atlas at a pinned thread count.
fn time_atlas(base: &BcnParams, grid: usize, threads: usize, reps: usize) -> f64 {
    parkit::set_threads(threads);
    let (best, _) = best_of(reps, || (), |()| compute_atlas(base, grid));
    parkit::set_threads(0);
    best
}

/// Per-cell parameter-construction cost: the builder chain the atlas
/// used to run (one clone per cell) vs the hoisted scratch mutation it
/// runs now. Returns (chain_ns, scratch_ns) per cell.
fn param_construction_delta(base: &BcnParams, cells: usize) -> (f64, f64) {
    let gis: Vec<f64> = (0..cells).map(|i| base.gi * (1.0 + 1e-6 * i as f64)).collect();
    let t0 = Instant::now();
    for &gi in &gis {
        black_box(base.clone().with_gi(gi).with_gd(base.gd));
    }
    let chain = t0.elapsed().as_secs_f64();
    let mut scratch = base.clone();
    let t0 = Instant::now();
    for &gi in &gis {
        scratch.gi = gi;
        scratch.gd = base.gd;
        black_box(&scratch);
    }
    let scratch_t = t0.elapsed().as_secs_f64();
    let per = 1e9 / cells as f64;
    (chain * per, scratch_t * per)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let grid = env_usize("DCE_BCN_SWEEP_GRID", 64);
    let reps = env_usize("DCE_BCN_SWEEP_REPS", 3);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let base = BcnParams::test_defaults().with_buffer(1.5e5);

    println!("atlas sweep scaling: {grid}x{grid} grid, best of {reps}, {cores} core(s)");
    if cores < 4 {
        println!("note: fewer than 4 cores — parallel speedup is bounded by the hardware;");
    }

    // Warm up caches/allocator off the record.
    let _ = compute_atlas(&base, 4);

    let mut times = Vec::new();
    for &threads in &THREAD_COUNTS {
        let secs = time_atlas(&base, grid, threads, reps);
        println!("  threads = {threads}: {:.3} s", secs);
        times.push(secs);
    }
    let serial = times[0];
    let cells = (grid * grid) as f64;
    println!("speedups vs 1 thread (per-cell serial cost {:.0} ns):", serial * 1e9 / cells);
    for (&threads, &t) in THREAD_COUNTS.iter().zip(&times) {
        println!("  threads = {threads}: {:.2}x ({:.0} ns/cell)", serial / t, t * 1e9 / cells);
    }

    let (chain_ns, scratch_ns) = param_construction_delta(&base, (grid * grid).max(10_000));
    println!(
        "per-cell parameter setup: builder chain {chain_ns:.1} ns vs hoisted scratch \
         {scratch_ns:.1} ns ({:.1}x cheaper)",
        chain_ns / scratch_ns.max(1e-9)
    );

    // Hand-rolled JSON (the workspace has no serde): flat and stable.
    let times_json: Vec<String> = THREAD_COUNTS
        .iter()
        .zip(&times)
        .map(|(th, t)| {
            format!(
                "{{\"threads\": {th}, \"secs\": {t:.6}, \"per_cell_ns\": {:.1}, \
                 \"speedup\": {:.4}}}",
                t * 1e9 / cells,
                serial / t
            )
        })
        .collect();
    let note = "Earlier committed artifacts came from the CI smoke (grid 8, reps 1), where \
                per-cell serial cost dominated and the speedup column sat flat at ~1.0x \
                regardless of thread count; the smoke now writes to a scratch directory and \
                this file records the full default grid with per-cell times. On single-core \
                hardware (see \\\"cores\\\") flat speedup is expected from the hardware, not \
                the engine.";
    let json = format!(
        "{{\n  \"grid\": {grid},\n  \"reps\": {reps},\n  \"cores\": {cores},\n  \
         \"runs\": [{}],\n  \
         \"param_setup_ns\": {{\"builder_chain\": {chain_ns:.2}, \"hoisted_scratch\": {scratch_ns:.2}}},\n  \
         \"note\": \"{note}\"\n}}\n",
        times_json.join(", ")
    );
    let out = out_dir();
    let path = out.join("BENCH_sweeps.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}
