//! Bit-level fingerprints of the dumbbell engine's reports.
//!
//! Each scenario runs the paper's Fig. 1 dumbbell through the public
//! `Simulation` / `HybridSim` front ends and folds every field of the
//! resulting `SimReport` (all metrics series, per-frame queueing delays,
//! per-source totals and rate series, fault tallies, final rates) into
//! one FNV-1a hash of the exact bit patterns. The expected constants
//! pin today's outputs: any change to event order, arithmetic order or
//! sampling shows up as a different hash, so an engine refactor that
//! claims bit-identity has to pass this file unchanged.

use bcn::BcnParams;
use dcesim::hybrid::{HybridGuards, HybridSim};
use dcesim::metrics::{SimMetrics, TimeSeries};
use dcesim::qcn::{QcnCpConfig, QcnRpConfig};
use dcesim::sched::Scheduler;
use dcesim::sim::{fluid_validation_params, Control, SimConfig, SimReport, Simulation};
use dcesim::time::{Duration, Time};
use dcesim::workload;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn series(&mut self, s: &TimeSeries) {
        self.floats(s.times());
        self.floats(s.values());
    }
}

fn fingerprint(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    let m: &SimMetrics = &r.metrics;
    h.series(&m.queue);
    h.series(&m.aggregate_rate);
    for w in [m.delivered_frames, m.dropped_frames, m.feedback_messages, m.pause_events] {
        h.word(w);
    }
    h.floats(&m.per_source_bits);
    h.word(m.delivered_bits.to_bits());
    h.floats(m.queueing_delay.values());
    h.word(m.per_source_rate.len() as u64);
    for s in &m.per_source_rate {
        h.series(s);
    }
    let f = &m.faults;
    for w in [
        f.feedback_dropped,
        f.feedback_corrupted,
        f.feedback_corrupt_lost,
        f.feedback_delayed,
        f.feedback_reordered,
        f.data_frames_lost,
        f.link_flap_deferrals,
        f.pause_storms,
    ] {
        h.word(w);
    }
    h.floats(&r.final_rates);
    h.word(u64::from(r.telemetry.is_some()));
    h.0
}

fn run(cfg: SimConfig) -> u64 {
    fingerprint(&Simulation::new(cfg).run())
}

/// Paper defaults (50 flows at 10 Gbit/s, PAUSE armed) over 20 ms.
fn paper(scheduler: Scheduler) -> SimConfig {
    let mut cfg = SimConfig::from_fluid(
        &BcnParams::paper_defaults(),
        8_000.0,
        Duration::from_secs(2e-6),
        0.02,
    );
    cfg.scheduler = scheduler;
    cfg
}

/// The fluid-validation dumbbell shortened to 0.2 s.
fn base() -> SimConfig {
    let mut cfg = SimConfig::fluid_validation_default();
    cfg.t_end = Time::from_secs(0.2);
    cfg
}

/// Aggressive sources against a low PAUSE threshold: PAUSE fires.
fn pausing() -> SimConfig {
    let mut cfg = base();
    for f in &mut cfg.flows {
        f.initial_rate = cfg.capacity / 3.0;
    }
    if let Control::Bcn { cp, .. } = &mut cfg.control {
        cp.qsc_bits = cp.q0_bits * 1.5;
    }
    cfg
}

fn faulted(f: impl FnOnce(&mut SimConfig)) -> SimConfig {
    let mut cfg = pausing();
    cfg.faults.seed = 11;
    f(&mut cfg);
    cfg
}

#[test]
fn paper_defaults_heap_and_wheel() {
    let expected = 17_553_561_882_880_808_201;
    assert_eq!(run(paper(Scheduler::Wheel)), expected, "wheel");
    assert_eq!(run(paper(Scheduler::Heap)), expected, "heap");
}

#[test]
fn fluid_validation_default() {
    assert_eq!(run(SimConfig::fluid_validation_default()), 7_140_291_845_176_949_526);
}

#[test]
fn qcn() {
    let mut cfg = base();
    cfg.control = Control::Qcn {
        cp: QcnCpConfig { q_eq_bits: 1.0e6, w: 2.0, sample_every: 20 },
        rp: QcnRpConfig::standard(cfg.capacity),
    };
    for f in &mut cfg.flows {
        f.initial_rate = cfg.capacity / 2.0;
    }
    assert_eq!(run(cfg), 559_817_578_001_628_148);
}

#[test]
fn uncontrolled_overload() {
    let mut cfg = base();
    cfg.control = Control::None;
    cfg.t_end = Time::from_secs(0.05);
    for f in &mut cfg.flows {
        f.initial_rate = cfg.capacity / 2.0;
    }
    assert_eq!(run(cfg), 9_122_985_742_358_207_661);
}

#[test]
fn departures_and_staggered_starts() {
    let mut cfg = base();
    let n = cfg.flows.len();
    cfg.flows = workload::with_departures(n, n / 2, cfg.capacity / n as f64, 0.1);
    assert_eq!(run(cfg), 5_117_919_471_110_904_122, "with_departures");
    let mut cfg = base();
    cfg.flows = workload::staggered(n, cfg.capacity / n as f64, 0.013);
    assert_eq!(run(cfg), 1_345_021_179_266_114_867, "staggered");
}

#[test]
fn volume_limited_incast() {
    let mut cfg = base();
    cfg.flows = workload::incast(cfg.flows.len(), cfg.capacity / 5.0, 50.0 * cfg.frame_bits);
    assert_eq!(run(cfg), 16_988_693_910_214_856_105);
}

#[test]
fn pausing_run() {
    let report = Simulation::new(pausing()).run();
    assert!(report.metrics.pause_events > 0, "the pausing scenario never paused");
    assert_eq!(fingerprint(&report), 5_229_345_349_827_002_447);
}

/// A fault scenario: name, the knobs it sets, expected fingerprint.
type FaultCase = (&'static str, fn(&mut SimConfig), u64);

#[test]
fn each_fault_class() {
    let cases: [FaultCase; 7] = [
        ("feedback_loss", |c| c.faults.feedback_loss = 0.3, 8_406_589_357_374_267_818),
        ("feedback_corrupt", |c| c.faults.feedback_corrupt = 0.3, 9_788_754_848_522_233_437),
        (
            "feedback_delay",
            |c| c.faults.feedback_extra_delay = Duration::from_secs(2e-5),
            14_574_431_213_995_796_869,
        ),
        (
            "feedback_reorder",
            |c| {
                c.faults.feedback_reorder = 0.3;
                c.faults.reorder_window = Duration::from_secs(2e-5);
            },
            14_339_921_823_323_652_571,
        ),
        (
            "data_loss",
            |c| {
                c.faults.data_loss = 0.02;
                c.faults.data_burst_len = 3;
            },
            9_224_657_695_901_008_275,
        ),
        (
            "link_flap",
            |c| {
                c.faults.link_flap_period = Duration::from_secs(0.01);
                c.faults.link_flap_down = Duration::from_secs(0.002);
            },
            16_302_092_018_873_349_202,
        ),
        (
            "pause_storm",
            |c| {
                c.faults.pause_storm = 0.5;
                c.faults.pause_storm_factor = 4.0;
            },
            13_104_690_101_504_069_003,
        ),
    ];
    for (name, set, expected) in cases {
        let report = Simulation::new(faulted(set)).run();
        assert!(report.metrics.faults.total() > 0, "{name}: no fault was injected");
        assert_eq!(fingerprint(&report), expected, "{name}");
    }
}

#[test]
fn hybrid_default_guards_and_always_packet() {
    let params = fluid_validation_params();
    let cfg = SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), 0.3);
    let hyb = HybridSim::new(params.clone(), cfg.clone(), HybridGuards::default()).run();
    assert!(hyb.stats.epochs > 0, "the default guards committed no epoch");
    assert_eq!(fingerprint(&hyb.sim), 10_539_504_489_821_289_925, "default guards");
    let guards = HybridGuards { always_packet: true, ..HybridGuards::default() };
    let packet = HybridSim::new(params, cfg.clone(), guards).run();
    assert_eq!(fingerprint(&packet.sim), 895_516_125_350_667_915, "always-packet");
    assert_eq!(fingerprint(&packet.sim), run(cfg), "always-packet vs the packet engine");
}
