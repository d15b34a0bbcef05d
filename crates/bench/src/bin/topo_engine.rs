//! Scale-out fabric benchmark for the multi-hop engine.
//!
//! Times generator-compiled fabrics (`dcesim::topo`) through [`NetSim`]
//! at data-center fan-ins and gates two ratios:
//!
//! 1. **Route-lookup speedup** — the flat next-hop table must answer
//!    lookups at least 5x faster than the per-frame linear scan it
//!    replaced, measured on a 1024-host fabric.
//! 2. **End-to-end throughput** — the timing wheel must beat the binary
//!    heap by at least 1.2x in events/sec on the 512-sender and
//!    2048-sender incasts (the deep-backlog workload the ROADMAP named
//!    as the ratio flip). This is the only binary that times them.
//!
//! Scheduler and worker-count bit-identity on fabrics and the warm
//! forwarding path's zero-allocation guarantee are not timing
//! questions; they are checked by
//! `crates/dcesim/tests/scheduler_equivalence.rs` and
//! `tests/zero_alloc.rs` under `cargo test`.
//!
//! Results land in `BENCH_topo.json` under the usual results directory.
//! Run release builds only:
//!
//! ```console
//! $ cargo run --release -p bench --bin topo_engine
//! ```
//!
//! `DCE_BCN_QUICK` shrinks the fabrics (fat-tree k=4 scale) and skips
//! the two speedup gates (CI smoke mode).

use std::fmt::Write as _;

use bench::common::{best_of, out_dir, quick};
use dcesim::faults::splitmix64;
use dcesim::net::{NetConfig, NetSim};
use dcesim::sched::Scheduler;
use dcesim::topo::{compile, TopoSpec, Traffic};

/// End-to-end throughput gate: wheel events/sec over heap events/sec on
/// the large incasts.
const MIN_END_TO_END_SPEEDUP: f64 = 1.2;
/// Route-lookup gate: flat next-hop table over linear scan at 1024
/// hosts.
const MIN_LOOKUP_SPEEDUP: f64 = 5.0;

/// An incast compiled onto a fabric at 4x overload of the destination
/// access link.
fn incast_on(spec: &TopoSpec, senders: usize, t_end: f64) -> NetConfig {
    let traffic = Traffic::Incast { senders, dst: usize::MAX, load: 4.0 };
    compile(spec, &traffic, t_end).expect("bench fabric compiles")
}

/// Events dispatched by one run plus best-of-`reps` wall time of the
/// stepping loop (construction and `finish` stay off the clock).
fn time_run(cfg: &NetConfig, scheduler: Scheduler, reps: usize) -> (u64, f64) {
    let setup = || NetSim::new(NetConfig { scheduler, ..cfg.clone() });
    let (secs, sim) = best_of(reps, setup, |mut sim| {
        while sim.step() {}
        sim
    });
    (sim.events_popped(), secs)
}

// --- route-lookup microbench ----------------------------------------------

/// Route-lookup throughput: the flat `u32` next-hop table (what the
/// engine builds at `NetSim::try_new`) against the per-frame
/// `routes.iter().find(...)` linear scan it replaced, on the same
/// deterministic lookup stream over a 1024-host fabric. Returns
/// (speedup, lookups).
fn route_lookup_speedup(reps: usize, lookups: usize) -> (f64, usize) {
    let spec = TopoSpec::leaf_spine(32, 8, 32); // 1024 hosts, 40 switches
    let fabric = spec.build().expect("microbench fabric");
    let hosts = fabric.hosts;
    let routes: Vec<&[(usize, usize)]> =
        fabric.switches.iter().map(|s| s.routes.as_slice()).collect();
    // The dense table, built once — exactly the engine's layout.
    let mut table = vec![u32::MAX; routes.len() * hosts];
    for (si, rs) in routes.iter().enumerate() {
        for &(dst, link) in *rs {
            table[si * hosts + dst] = u32::try_from(link).expect("link index fits u32");
        }
    }
    let mut rng = 0x5eed;
    let mut draw = || {
        let r = splitmix64(rng);
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        r as usize
    };
    let queries: Vec<(usize, usize)> =
        (0..lookups).map(|_| (draw() % routes.len(), draw() % hosts)).collect();
    let (linear, linear_sum) = best_of(
        reps,
        || (),
        |()| {
            queries.iter().fold(0u64, |sum, &(si, dst)| {
                let link = routes[si].iter().find(|&&(d, _)| d == dst).map_or(usize::MAX, |r| r.1);
                sum.wrapping_add(link as u64)
            })
        },
    );
    let (flat, flat_sum) = best_of(
        reps,
        || (),
        |()| {
            queries
                .iter()
                .fold(0u64, |sum, &(si, dst)| sum.wrapping_add(u64::from(table[si * hosts + dst])))
        },
    );
    // u32::MAX sentinel vs usize::MAX truncation differ only on missing
    // routes, which this fabric has none of.
    assert_eq!(linear_sum & 0xFFFF_FFFF, flat_sum & 0xFFFF_FFFF, "lookup answers diverged");
    (linear / flat, lookups)
}

// --- main -----------------------------------------------------------------

#[allow(clippy::cast_precision_loss)]
fn main() {
    let q = quick();
    // Quick mode shrinks every fabric to fat-tree-k=4 scale and skips
    // the two speedup gates.
    let (reps, lookups) = if q { (1, 200_000) } else { (3, 2_000_000) };
    let mut failures: Vec<String> = Vec::new();
    println!("topo engine benchmark: best of {reps}");

    // Route-lookup microbench (gated at 1024 hosts unless quick).
    let (lookup_speedup, n_lookups) = route_lookup_speedup(reps, lookups);
    println!("route lookup at 1024 hosts: flat table {lookup_speedup:.1}x vs linear scan");
    if !q && lookup_speedup < MIN_LOOKUP_SPEEDUP {
        failures.push(format!(
            "route-lookup speedup {lookup_speedup:.2}x below the {MIN_LOOKUP_SPEEDUP}x gate"
        ));
    }

    // End-to-end incasts: the deep-backlog workload. Quick mode runs a
    // k=4 fat-tree smoke (16 hosts); full mode runs the gated 512- and
    // 2048-sender fan-ins.
    let scenarios: Vec<(String, NetConfig)> = if q {
        vec![("fat_tree_k4_incast_12".into(), incast_on(&TopoSpec::fat_tree(4), 12, 0.02))]
    } else {
        vec![
            (
                "fat_tree_k16_incast_512".into(),
                incast_on(&TopoSpec::fat_tree(16), 512, 0.06), // 1024 hosts
            ),
            (
                "leaf_spine_2112_incast_2048".into(),
                incast_on(&TopoSpec::leaf_spine(64, 8, 33), 2048, 0.06), // 2112 hosts
            ),
        ]
    };
    let mut scenario_json = Vec::new();
    for (name, cfg) in &scenarios {
        let (events, wheel_s) = time_run(cfg, Scheduler::Wheel, reps);
        let (heap_events, heap_s) = time_run(cfg, Scheduler::Heap, reps);
        // Both rates divide the same event count.
        assert_eq!(events, heap_events, "schedulers must dispatch identical event counts");
        let (wheel_eps, heap_eps) = (events as f64 / wheel_s, events as f64 / heap_s);
        let speedup = wheel_eps / heap_eps;
        println!(
            "  {name}: {events} events — wheel {:.2} M ev/s, heap {:.2} M ev/s ({speedup:.2}x)",
            wheel_eps / 1e6,
            heap_eps / 1e6,
        );
        if !q && speedup < MIN_END_TO_END_SPEEDUP {
            failures.push(format!(
                "{name}: end-to-end speedup {speedup:.2}x below the {MIN_END_TO_END_SPEEDUP}x gate"
            ));
        }
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"scenario\": \"{name}\", \"hosts\": {}, \"flows\": {}, \"events\": {events}, \
             \"wheel_events_per_sec\": {wheel_eps:.0}, \"heap_events_per_sec\": {heap_eps:.0}, \
             \"end_to_end_speedup\": {speedup:.3}}}",
            cfg.hosts,
            cfg.flows.len(),
        );
        scenario_json.push(row);
    }

    let note = "End-to-end speedup is gated on generator-compiled incasts whose fan-in \
                keeps thousands of events pending — the deep-backlog regime where the heap \
                pays its O(log n) (BENCH_packet.json times the same engines on shallow \
                dumbbell scenarios, where the ratio is informational only). The route-lookup \
                row replays one deterministic query stream through the flat next-hop table \
                and the linear scan it replaced. Fabric bit-identity across schedulers and \
                workers and zero steady-state allocations are checked by the test suite \
                (scheduler_equivalence, zero_alloc).";
    let json = format!(
        "{{\n  \"quick\": {q},\n  \"reps\": {reps},\n  \"scenarios\": [{}],\n  \
         \"route_lookup\": {{\"hosts\": 1024, \"lookups\": {n_lookups}, \
         \"speedup\": {lookup_speedup:.3}, \"gate\": {MIN_LOOKUP_SPEEDUP}}},\n  \
         \"end_to_end_gate\": {MIN_END_TO_END_SPEEDUP},\n  \"note\": \"{note}\"\n}}\n",
        scenario_json.join(", "),
    );
    let out = out_dir();
    let path = out.join("BENCH_topo.json");
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
