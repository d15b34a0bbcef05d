//! Zero-allocation gates for the warm hot paths.
//!
//! Each engine recycles its buffers so that, once warm, stepping it
//! performs no heap allocation. This binary installs the workspace's
//! only counting allocator and checks that claim on four paths: the
//! dumbbell on the timing wheel, fabric forwarding, the hybrid engine
//! across epoch switches, and the stability-query verdict path.
//!
//! Counts are per thread (a const-initialised thread-local with no
//! destructor), so tests running in parallel cannot pollute each
//! other's numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bcn::propagate::Propagator;
use bcn::stability::exact_verdict_scratch;
use bcn::BcnParams;
use dcesim::hybrid::{HybridGuards, HybridSim};
use dcesim::net::NetSim;
use dcesim::sim::{fluid_validation_params, SimConfig, SimWorkspace, Simulation};
use dcesim::time::Duration;
use dcesim::topo::{compile, TopoSpec, Traffic};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocation events (alloc + realloc) of the current thread on
/// top of the system allocator.
struct CountingAlloc;

fn count() {
    // `try_with`: never touch a thread-local being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every operation to `System` unchanged; the counter is
// a plain thread-local cell with no destructor and no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The Fig. 7 limit-cycle parameterisation on the packet engine.
fn limit_cycle(t_end: f64) -> SimConfig {
    SimConfig::from_fluid(&fluid_validation_params(), 8_000.0, Duration::from_secs(2e-6), t_end)
}

/// The dumbbell on the timing wheel: one run grows every buffer, the
/// next is rebuilt from the recycled workspace, and after 1,000 warm-up
/// steps it runs to completion without allocating.
#[test]
fn warm_dumbbell_wheel_run_allocates_nothing() {
    let cfg = limit_cycle(0.05);
    let mut ws = SimWorkspace::new();
    let warm = Simulation::new_in(cfg.clone(), &mut ws);
    drop(warm.run_into(&mut ws));
    let mut sim = Simulation::new_in(cfg, &mut ws);
    for _ in 0..1_000 {
        assert!(sim.step(), "horizon shorter than the warm-up");
    }
    let allocs = allocations_in(|| while sim.step() {});
    assert_eq!(allocs, 0, "warm wheel steady state allocated");
}

/// Fabric forwarding: a 12-sender incast on a k=4 fat-tree runs its
/// last ~24k events without allocating once 20k warm-up events have
/// sized the event slab, PAUSE maps and series.
#[test]
fn warm_fabric_forwarding_allocates_nothing() {
    let traffic = Traffic::Incast { senders: 12, dst: usize::MAX, load: 4.0 };
    let cfg = compile(&TopoSpec::fat_tree(4), &traffic, 0.02).expect("fabric compiles");
    let mut sim = NetSim::new(cfg);
    let warmup = 20_000;
    for _ in 0..warmup {
        assert!(sim.step(), "horizon shorter than the warm-up");
    }
    let allocs = allocations_in(|| while sim.step() {});
    let counted = sim.events_popped() - warmup;
    assert!(counted > 20_000, "only {counted} events past the warm-up");
    assert_eq!(allocs, 0, "warm forwarding path allocated over {counted} events");
}

/// The hybrid engine on a recycled workspace allocates nothing past
/// warm-up, across every fast-forward epoch and reseed. Its 0.3 s limit
/// cycle is only ~1,000 packet events long (the rest is fast-forwarded),
/// so the warm-up is kept short enough for the counted stretch to hold
/// the epochs.
#[test]
fn warm_hybrid_run_allocates_nothing_across_epochs() {
    let params = fluid_validation_params();
    let cfg = limit_cycle(0.3);
    let mut ws = SimWorkspace::new();
    let warm = HybridSim::new_in(params.clone(), cfg.clone(), HybridGuards::default(), &mut ws);
    drop(warm.run_into(&mut ws));
    let mut sim = HybridSim::new_in(params, cfg, HybridGuards::default(), &mut ws);
    for _ in 0..100 {
        assert!(sim.step(), "horizon shorter than the warm-up");
    }
    let warm_epochs = sim.stats().epochs;
    let allocs = allocations_in(|| while sim.step() {});
    let epochs = sim.finish_into(&mut ws).stats.epochs - warm_epochs;
    assert!(epochs > 0, "the counted stretch covered no epoch switch");
    assert_eq!(allocs, 0, "warm hybrid run allocated across {epochs} epoch(s)");
}

/// 1,000 stability queries over 64 distinct configurations on a warm
/// leg workspace with their propagators resolved.
#[test]
fn warm_verdict_queries_allocate_nothing() {
    let configs: Vec<(BcnParams, Propagator)> = (0..64)
        .map(|i| {
            let p = BcnParams::test_defaults()
                .with_capacity(1.0e6 + f64::from(i))
                .with_gi(1.0 + f64::from(i % 7) * 0.25);
            let prop = Propagator::for_params(&p);
            (p, prop)
        })
        .collect();
    let mut legs = Vec::new();
    let mut run = || {
        for (p, prop) in configs.iter().cycle().take(1_000) {
            std::hint::black_box(exact_verdict_scratch(p, prop, 48, &mut legs));
        }
    };
    run();
    assert_eq!(allocations_in(run), 0, "warm verdict path allocated");
}
