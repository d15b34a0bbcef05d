//! The paper's Fig. 1 dumbbell: N sources, one bottleneck queue, one
//! sink — its description ([`SimConfig`]) and a thin front end
//! ([`Simulation`]) over the packet engine [`NetSim`].
//!
//! Sources emit fixed-size data frames paced by their reaction point's
//! current rate. Frames reach the bottleneck after a propagation delay,
//! enter a finite FIFO buffer (or are dropped), and are serialized onto
//! the output link at capacity `C`. The congestion point watches the
//! queue and sends feedback messages back to the sampled frame's source
//! (another propagation delay). Under BCN, above `q_sc` the switch
//! PAUSEs all sources for a hold time (IEEE 802.3x).
//!
//! `SimConfig::lower` expresses exactly that as a one-switch
//! [`NetConfig`]: one zero-serialization uplink per source carrying the
//! propagation delay, the bottleneck as the switch's only output port
//! (zero-delay link to the sink, observed for [`SimMetrics`]), no pacing
//! jitter, and PAUSE only under BCN. The run is deterministic and
//! bit-identical on either scheduler backend.

use bcn::BcnParams;
use telemetry::Telemetry;

use crate::cp::CpConfig;
use crate::error::ConfigError;
use crate::faults::FaultConfig;
use crate::frame::CpId;
use crate::metrics::SimMetrics;
use crate::net::{
    self, CpSpec, Endpoint, LinkSpec, NetConfig, NetFlow, NetSim, NetWorkspace, PauseConfig,
    RpSpec, SwitchSpec,
};
use crate::qcn::{QcnCpConfig, QcnRpConfig};
use crate::rp::RpConfig;
use crate::sched::Scheduler;
use crate::time::{Duration, Time};
use crate::workload::FlowSpec;

/// Which congestion-management scheme runs on the bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// BCN per the reproduced paper.
    Bcn {
        /// Congestion-point configuration.
        cp: CpConfig,
        /// Reaction-point configuration.
        rp: RpConfig,
    },
    /// QCN (802.1Qau) for comparison.
    Qcn {
        /// Congestion-point configuration.
        cp: QcnCpConfig,
        /// Reaction-point configuration.
        rp: QcnRpConfig,
    },
    /// No congestion management (drop-tail only) — the historical lossy
    /// Ethernet baseline.
    None,
}

/// Full configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Bottleneck capacity in bit/s.
    pub capacity: f64,
    /// Bottleneck buffer in bits.
    pub buffer_bits: f64,
    /// Data frame size in bits (headers included).
    pub frame_bits: f64,
    /// One-way propagation delay between sources and the bottleneck.
    pub prop_delay: Duration,
    /// The flows.
    pub flows: Vec<FlowSpec>,
    /// Congestion management scheme.
    pub control: Control,
    /// Simulated duration.
    pub t_end: Time,
    /// Queue/rate sampling interval for the metrics time series.
    pub record_interval: Duration,
    /// How long a PAUSE silences the sources.
    pub pause_hold: Duration,
    /// Fault injection at the wire layer ([`FaultConfig::none`] for the
    /// ideal fabric the paper assumes).
    pub faults: FaultConfig,
    /// Which event-queue backend drives the run (bit-identical results;
    /// see [`Scheduler`]).
    pub scheduler: Scheduler,
}

impl SimConfig {
    /// Builds a BCN simulation calibrated so the discrete control loop
    /// integrates to the fluid model of `params` (see the `bcn` crate):
    /// the congestion point's weight becomes `w / frame_bits` (the fluid
    /// `w` is defined against unit-size packets) and the reaction-point
    /// gains are scaled by `frame_bits * N / (pm * C)` so that one
    /// feedback message per `1/pm` frames integrates to
    /// `dr/dt = Gi Ru sigma` at the fair share.
    #[must_use]
    pub fn from_fluid(
        params: &BcnParams,
        frame_bits: f64,
        prop_delay: Duration,
        t_end: f64,
    ) -> Self {
        let n = f64::from(params.n_flows);
        let gain_scale = frame_bits * n / (params.pm * params.capacity);
        let cp = CpConfig {
            cpid: CpId(1),
            q0_bits: params.q0,
            qsc_bits: params.qsc,
            w: params.w / frame_bits,
            sample_every: (1.0 / params.pm).round().max(1.0) as u64,
            fb_quant: None,
            // The fluid model's Eq. 7 applies the increase law to every
            // source whenever sigma > 0; mirror that here.
            gate_positive: false,
        };
        let rp = RpConfig {
            gi: params.gi,
            gd: params.gd,
            ru: params.ru,
            gain_scale,
            r_min: params.capacity * 1e-6,
            r_max: params.capacity,
        };
        let flows = crate::workload::homogeneous(params.n_flows as usize, params.fair_share());
        SimConfig {
            capacity: params.capacity,
            buffer_bits: params.buffer,
            frame_bits,
            prop_delay,
            flows,
            control: Control::Bcn { cp, rp },
            t_end: Time::from_secs(t_end),
            record_interval: Duration::from_secs((t_end / 4000.0).max(1e-6)),
            pause_hold: Duration::from_secs(20.0 * frame_bits / params.capacity),
            faults: FaultConfig::none(),
            scheduler: Scheduler::default(),
        }
    }

    /// Validates every field and sub-configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field: an
    /// empty flow set or a non-finite or non-positive capacity (the
    /// dumbbell's own checks), then the field checks
    /// [`NetConfig::validate`] applies to the lowered configuration
    /// (frame size, buffer, flow rates and volumes, record interval,
    /// scheme and fault parameters), run on these fields directly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_dumbbell()?;
        net::check_frame(self.frame_bits)?;
        net::check_buffer(0, self.buffer_bits, self.frame_bits)?;
        for (i, f) in self.flows.iter().enumerate() {
            net::check_flow(i, f.initial_rate, f.volume_bits, 0)?;
        }
        net::check_record_interval(self.record_interval)?;
        match &self.control {
            Control::Bcn { cp, rp } => {
                cp.validate()?;
                rp.validate()?;
            }
            Control::Qcn { cp, rp } => {
                cp.validate()?;
                rp.validate()?;
            }
            Control::None => {}
        }
        self.faults.validate()
    }

    /// The checks the lowering cannot express: a dumbbell needs flows
    /// and a finite bottleneck (a lowered link may be infinitely fast).
    fn validate_dumbbell(&self) -> Result<(), ConfigError> {
        if self.flows.is_empty() {
            return Err(ConfigError::new("flows", "need at least one flow"));
        }
        if !(self.capacity.is_finite() && self.capacity > 0.0) {
            return Err(ConfigError::new("capacity", "capacity must be positive"));
        }
        Ok(())
    }

    /// Expresses the dumbbell as a one-switch [`NetConfig`]: sources are
    /// hosts `0..N` and the sink is host `N`; link 0 is the bottleneck
    /// (switch 0 to the sink, capacity `C`, zero delay) and the config's
    /// observed port; links `1..=N` are the sources' uplinks (infinite
    /// capacity, the propagation delay), so a frame reaches the switch
    /// one propagation delay after it is sent and feedback and PAUSE
    /// travel back in one. Pacing jitter is off and PAUSE is armed only
    /// under BCN, at the congestion point's `q_sc`.
    #[must_use]
    pub(crate) fn lower(&self) -> NetConfig {
        let n = self.flows.len();
        let mut links = vec![LinkSpec {
            from: Endpoint::Switch(0),
            to: Endpoint::Host(n),
            capacity: self.capacity,
            delay: Duration::ZERO,
        }];
        links.extend((0..n).map(|i| LinkSpec {
            from: Endpoint::Host(i),
            to: Endpoint::Switch(0),
            capacity: f64::INFINITY,
            delay: self.prop_delay,
        }));
        let (cp, rp, qsc_bits) = match &self.control {
            Control::Bcn { cp, rp } => {
                (Some(CpSpec::Bcn(*cp)), Some(RpSpec::Bcn(*rp)), cp.qsc_bits)
            }
            Control::Qcn { cp, rp } => {
                (Some(CpSpec::Qcn(*cp)), Some(RpSpec::Qcn(*rp)), f64::INFINITY)
            }
            Control::None => (None, None, f64::INFINITY),
        };
        let flows = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| NetFlow {
                src_host: i,
                dst_host: n,
                initial_rate: f.initial_rate,
                rp,
                priority: 0,
                start: f.start,
                stop: f.stop,
                volume_bits: f.volume_bits,
            })
            .collect();
        NetConfig {
            hosts: n + 1,
            switches: vec![SwitchSpec {
                buffer_bits: self.buffer_bits,
                qsc_bits,
                routes: vec![(n, 0)],
                cps: cp.map(|c| (0, c)).into_iter().collect(),
            }],
            links,
            flows,
            frame_bits: self.frame_bits,
            t_end: self.t_end,
            record_interval: self.record_interval,
            pause: PauseConfig {
                enabled: matches!(self.control, Control::Bcn { .. }),
                hold: self.pause_hold,
                per_priority: false,
            },
            faults: self.faults.clone(),
            scheduler: self.scheduler,
            observe: Some(0),
            pacing_jitter: false,
        }
    }

    /// A modest, fast-running BCN configuration used by doc-tests and
    /// smoke tests: 10 flows into a 100 Mbit/s bottleneck with gentle
    /// gains (the fluid model's spiral stays well inside physical
    /// limits).
    #[must_use]
    pub fn fluid_validation_default() -> Self {
        let params = fluid_validation_params();
        SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), 0.5)
    }
}

/// The parameter set matching [`SimConfig::fluid_validation_default`],
/// exposed so experiments can run the fluid model side by side.
///
/// Chosen so the *discrete* loop is a faithful sampling of the fluid
/// one: the feedback message rate (`pm C / frame_bits = 25 k/s`) is ~100x
/// the loop's natural frequency (`beta ~ 245 rad/s`), per-message rate
/// updates stay below 2%, and the spiral's damping ratio (~0.19) makes
/// convergence visible within half a second. The `w` value is the fluid
/// model's bit-domain weight; the engine converts it to the per-frame
/// protocol weight automatically.
#[must_use]
pub fn fluid_validation_params() -> BcnParams {
    BcnParams::test_defaults()
        .with_capacity(1.0e9)
        .with_q0(1.0e6)
        .with_buffer(8.0e6)
        .with_qsc(0.9 * 8.0e6)
        .with_n_flows(5)
        .with_ru(1.0e4)
        .with_gi(1.2)
        .with_gd(1.0 / 16_384.0)
        .with_pm(0.2)
        .with_w(3.0e5)
}

/// Outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Aggregated metrics.
    pub metrics: SimMetrics,
    /// Final per-source regulator rates (bit/s).
    pub final_rates: Vec<f64>,
    /// The telemetry sink passed to [`Simulation::with_telemetry`], with
    /// its metrics and trace populated; `None` for untelemetered runs.
    pub telemetry: Option<Telemetry>,
}

/// The reusable allocation footprint of a [`Simulation`] — the packet
/// engine's [`NetWorkspace`]. Build one per worker and thread it through
/// [`Simulation::new_in`] / [`Simulation::run_into`] to run many seeds
/// without re-allocating per run (`dcesim::batch` does this).
pub type SimWorkspace = NetWorkspace;

/// A configured, runnable dumbbell: the packet engine on the lowered
/// configuration.
#[derive(Debug)]
pub struct Simulation {
    pub(crate) net: NetSim,
}

impl Simulation {
    /// Builds the engine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (see [`SimConfig::validate`]).
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Self::new_in(cfg, &mut SimWorkspace::new())
    }

    /// Builds the engine reusing the buffers of `ws` (which is left
    /// empty). Pair with [`Simulation::run_into`] so batched runs keep
    /// one allocation footprint across seeds.
    ///
    /// # Panics
    ///
    /// Same as [`Simulation::new`].
    #[must_use]
    pub fn new_in(cfg: SimConfig, ws: &mut SimWorkspace) -> Self {
        let net = cfg.validate_dumbbell().and_then(|()| NetSim::try_new_in(cfg.lower(), ws));
        match net {
            Ok(net) => Self { net },
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the engine with a telemetry sink. The sink collects queue
    /// occupancy samples, threshold crossings, feedback-message and PAUSE
    /// events, and frame drops; it is returned in
    /// [`SimReport::telemetry`] when the run completes.
    ///
    /// # Panics
    ///
    /// Same as [`Simulation::new`].
    #[must_use]
    pub fn with_telemetry(cfg: SimConfig, tel: Telemetry) -> Self {
        Self::new(cfg).with_telemetry_sink(tel)
    }

    /// Attaches a telemetry sink to an already-built engine — the
    /// workspace-reuse counterpart of [`Simulation::with_telemetry`]
    /// (pair with [`Simulation::new_in`]).
    #[must_use]
    pub fn with_telemetry_sink(self, tel: Telemetry) -> Self {
        Self { net: self.net.with_telemetry_sink(tel) }
    }

    /// Detaches the telemetry sink mid-run, leaving `None` behind.
    ///
    /// This is the crash-flight-recorder escape hatch: when a stepped
    /// run panics inside `catch_unwind`, the owner can still salvage
    /// everything recorded so far (trace ring, open spans, metrics)
    /// from the wreckage.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.net.take_telemetry()
    }

    /// Runs to completion and returns the report.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        while self.step() {}
        self.finish()
    }

    /// Runs to completion, then returns the engine's buffers to `ws`
    /// for the next run (the workspace-reuse half of
    /// [`Simulation::new_in`]).
    #[must_use]
    pub fn run_into(mut self, ws: &mut SimWorkspace) -> SimReport {
        while self.step() {}
        self.finish_into(ws)
    }

    /// Finalizes a stepped run (see [`Simulation::step`]) into a report
    /// and returns the engine's buffers to `ws` — the stepped
    /// counterpart of [`Simulation::run_into`], used by the batch
    /// runner so it can keep ownership of the engine while the step
    /// loop runs inside `catch_unwind`.
    #[must_use]
    pub fn finish_into(self, ws: &mut SimWorkspace) -> SimReport {
        let (metrics, final_rates, telemetry) = self.net.finish_observed(ws);
        SimReport { metrics, final_rates, telemetry }
    }

    /// Dispatches the next event; returns `false` once the horizon is
    /// reached or no events remain. Exposed so callers can meter the
    /// steady state (e.g. count allocations after warm-up) without
    /// giving up [`Simulation::finish`]'s report.
    pub fn step(&mut self) -> bool {
        self.net.step()
    }

    /// Finalizes a stepped run (see [`Simulation::step`]) into a report.
    #[must_use]
    pub fn finish(self) -> SimReport {
        self.finish_into(&mut SimWorkspace::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> SimConfig {
        SimConfig::fluid_validation_default()
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Simulation::new(base_cfg()).run();
        let b = Simulation::new(base_cfg()).run();
        assert_eq!(a.metrics.delivered_frames, b.metrics.delivered_frames);
        assert_eq!(a.metrics.queue.values(), b.metrics.queue.values());
        assert_eq!(a.final_rates, b.final_rates);
    }

    #[test]
    fn schedulers_produce_identical_reports() {
        for faulty in [false, true] {
            let mut cfg = base_cfg();
            if faulty {
                cfg.faults.seed = 9;
                cfg.faults.feedback_loss = 0.3;
                cfg.faults.feedback_corrupt = 0.05;
                cfg.faults.data_loss = 0.01;
            }
            let mut heap_cfg = cfg.clone();
            heap_cfg.scheduler = Scheduler::Heap;
            cfg.scheduler = Scheduler::Wheel;
            let wheel = Simulation::new(cfg).run();
            let heap = Simulation::new(heap_cfg).run();
            assert_eq!(wheel.metrics, heap.metrics, "faulty={faulty}");
            assert_eq!(wheel.final_rates, heap.final_rates, "faulty={faulty}");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let mut ws = SimWorkspace::new();
        let first = Simulation::new_in(base_cfg(), &mut ws).run_into(&mut ws);
        let again = Simulation::new_in(base_cfg(), &mut ws).run_into(&mut ws);
        let fresh = Simulation::new(base_cfg()).run();
        assert_eq!(first.metrics, fresh.metrics);
        assert_eq!(again.metrics, fresh.metrics);
        assert_eq!(again.final_rates, fresh.final_rates);
    }

    #[test]
    fn frame_conservation() {
        let report = Simulation::new(base_cfg()).run();
        let m = &report.metrics;
        // Delivered + dropped <= offered; nothing is created from thin
        // air: per-source totals sum to the delivered total.
        let per_source: f64 = m.per_source_bits.iter().sum();
        assert!((per_source - m.delivered_bits).abs() < 1e-6);
        assert!(m.delivered_frames > 0);
    }

    #[test]
    fn bcn_regulates_queue_to_reference() {
        let cfg = base_cfg();
        let q0 = match &cfg.control {
            Control::Bcn { cp, .. } => cp.q0_bits,
            _ => unreachable!(),
        };
        let report = Simulation::new(cfg).run();
        let m = &report.metrics;
        assert_eq!(m.dropped_frames, 0, "roomy buffer must not drop");
        // Tail of the run: queue hovers around q0 (within a factor of a
        // few — the discrete loop oscillates like the fluid one).
        let tail_mean = tail_mean(&m.queue);
        assert!(
            tail_mean > 0.2 * q0 && tail_mean < 3.0 * q0,
            "tail queue mean {tail_mean} vs q0 {q0}"
        );
    }

    fn tail_mean(series: &crate::metrics::TimeSeries) -> f64 {
        let vals = series.values();
        let tail = &vals[vals.len() * 3 / 4..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    #[test]
    fn uncontrolled_overload_fills_buffer_and_drops() {
        let mut cfg = base_cfg();
        cfg.control = Control::None;
        // Each source blasts at half of capacity: 2.5x overload.
        for f in &mut cfg.flows {
            f.initial_rate = cfg.capacity / 2.0;
        }
        let report = Simulation::new(cfg).run();
        assert!(report.metrics.dropped_frames > 0, "overload must drop");
        assert!(report.metrics.queue.max() > 0.9 * base_cfg().buffer_bits);
    }

    #[test]
    fn bcn_prevents_drops_where_uncontrolled_drops() {
        // Same offered overload, but with BCN: no drops.
        let mut cfg = base_cfg();
        for f in &mut cfg.flows {
            f.initial_rate = cfg.capacity / 2.0;
        }
        let report = Simulation::new(cfg).run();
        assert_eq!(report.metrics.dropped_frames, 0);
    }

    #[test]
    fn bcn_converges_to_fair_share() {
        let mut cfg = base_cfg();
        cfg.t_end = Time::from_secs(1.5);
        // Start wildly unfair: one source hogging, others slow.
        for (i, f) in cfg.flows.iter_mut().enumerate() {
            f.initial_rate = if i == 0 { cfg.capacity * 0.8 } else { cfg.capacity * 0.01 };
        }
        let report = Simulation::new(cfg.clone()).run();
        let fairness = crate::metrics::jain_fairness(&report.final_rates);
        assert!(fairness > 0.9, "final-rate fairness {fairness}: {:?}", report.final_rates);
    }

    #[test]
    fn pause_fires_under_sudden_overload_with_tight_threshold() {
        let mut cfg = base_cfg();
        // Aggressive sources + a low PAUSE threshold.
        for f in &mut cfg.flows {
            f.initial_rate = cfg.capacity / 3.0;
        }
        if let Control::Bcn { cp, .. } = &mut cfg.control {
            cp.qsc_bits = cp.q0_bits * 1.5;
        }
        cfg.t_end = Time::from_secs(0.2);
        let report = Simulation::new(cfg).run();
        assert!(report.metrics.pause_events > 0, "expected PAUSE under overload");
    }

    #[test]
    fn qcn_also_controls_the_queue() {
        let mut cfg = base_cfg();
        let q0 = 1.0e6;
        cfg.control = Control::Qcn {
            cp: QcnCpConfig { q_eq_bits: q0, w: 2.0, sample_every: 20 },
            rp: QcnRpConfig::standard(cfg.capacity),
        };
        for f in &mut cfg.flows {
            f.initial_rate = cfg.capacity / 2.0;
        }
        cfg.t_end = Time::from_secs(1.0);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.metrics.dropped_frames, 0, "QCN must avoid drops here");
        assert!(report.metrics.feedback_messages > 0);
        let m = tail_mean(&report.metrics.queue);
        assert!(m < 4.0 * q0, "QCN tail queue {m}");
    }

    #[test]
    fn flow_departure_frees_capacity() {
        let mut cfg = base_cfg();
        cfg.t_end = Time::from_secs(1.0);
        let n = cfg.flows.len();
        cfg.flows = crate::workload::with_departures(n, n / 2, cfg.capacity / (n as f64), 0.5);
        let report = Simulation::new(cfg).run();
        // Survivors keep the link busy; the run completes without drops.
        assert!(report.metrics.delivered_frames > 0);
        // Stopped sources hold their last rate but send nothing; the
        // active ones' rates exceed the original fair share by the end.
        let survivors = &report.final_rates[n / 2..];
        let fair = 1.0e8 / n as f64;
        assert!(
            survivors.iter().any(|r| *r > fair),
            "survivors did not claim freed capacity: {survivors:?}"
        );
    }

    #[test]
    fn utilization_is_high_under_bcn() {
        let cfg = base_cfg();
        let capacity = cfg.capacity;
        let t_end = cfg.t_end.as_secs();
        let report = Simulation::new(cfg).run();
        let util = report.metrics.utilization(capacity, t_end);
        assert!(util > 0.8, "utilization {util}");
    }

    #[test]
    fn per_flow_rate_traces_are_recorded() {
        let cfg = base_cfg();
        let n = cfg.flows.len();
        let report = Simulation::new(cfg).run();
        assert_eq!(report.metrics.per_source_rate.len(), n);
        for (i, series) in report.metrics.per_source_rate.iter().enumerate() {
            assert!(series.len() > 100, "flow {i} trace too short");
            // The last recorded rate matches the final regulator rate.
            let last = *series.values().last().unwrap();
            assert!(
                (last - report.final_rates[i]).abs() < 1e-6 * report.final_rates[i].max(1.0),
                "flow {i}: {last} vs {}",
                report.final_rates[i]
            );
        }
    }

    #[test]
    fn queueing_delay_is_tracked_and_bounded_by_buffer() {
        let cfg = base_cfg();
        let buffer = cfg.buffer_bits;
        let capacity = cfg.capacity;
        let report = Simulation::new(cfg).run();
        let d = &report.metrics.queueing_delay;
        assert!(d.len() > 100);
        // No frame can wait longer than a full buffer drains.
        assert!(d.max() <= buffer / capacity + 1e-9, "max delay {}", d.max());
        assert!(d.percentile(0.5) <= d.percentile(0.99));
    }

    #[test]
    fn incast_flows_stop_after_their_block() {
        let mut cfg = base_cfg();
        let block = 50.0 * cfg.frame_bits;
        cfg.flows = crate::workload::incast(cfg.flows.len(), cfg.capacity / 5.0, block);
        cfg.t_end = Time::from_secs(0.2);
        let report = Simulation::new(cfg.clone()).run();
        // Every source sent exactly its block (delivered + dropped).
        for (i, bits) in report.metrics.per_source_bits.iter().enumerate() {
            assert!(*bits <= block + 1e-6, "flow {i} delivered {bits} > block {block}");
        }
        let total_offered = block * cfg.flows.len() as f64;
        let accounted =
            report.metrics.delivered_bits + report.metrics.dropped_frames as f64 * cfg.frame_bits;
        assert!(
            (accounted - total_offered).abs() <= cfg.frame_bits * cfg.flows.len() as f64 * 2.0,
            "accounted {accounted} vs offered {total_offered}"
        );
    }

    #[test]
    fn telemetry_queue_gauge_matches_metrics_time_series() {
        use telemetry::{Telemetry, TelemetryLevel};
        let report =
            Simulation::with_telemetry(base_cfg(), Telemetry::new(TelemetryLevel::Summary)).run();
        let tel = report.telemetry.expect("telemetry returned in report");
        let g = tel.metrics.gauge_by_name("queue.occupancy_bits").unwrap();
        let series = &report.metrics.queue;
        // Every Record tick fed both the gauge and the metrics series, so
        // they agree sample for sample on count, envelope, and last value.
        assert_eq!(g.samples, series.len() as u64);
        assert_eq!(g.last, *series.values().last().unwrap());
        assert_eq!(g.max, series.max());
        let series_min = series.values().iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(g.min, series_min);
        let h = tel.metrics.histogram_by_name("queue.occupancy_bits").unwrap();
        assert_eq!(h.count(), series.len() as u64);
        // BCN messages flowed and were counted.
        assert_eq!(
            tel.metrics.counter_by_name("sim.bcn_messages"),
            Some(report.metrics.feedback_messages)
        );
        // Summary level keeps no per-event trace.
        assert!(tel.trace.is_empty());
    }

    #[test]
    fn telemetry_traces_drops_and_pauses_under_overload() {
        use telemetry::{Event, Telemetry, TelemetryLevel};
        let mut cfg = base_cfg();
        cfg.control = Control::None;
        for f in &mut cfg.flows {
            f.initial_rate = cfg.capacity / 2.0;
        }
        cfg.t_end = Time::from_secs(0.05);
        let report = Simulation::with_telemetry(cfg, Telemetry::new(TelemetryLevel::Full)).run();
        let tel = report.telemetry.unwrap();
        assert_eq!(
            tel.metrics.counter_by_name("sim.frames_dropped"),
            Some(report.metrics.dropped_frames)
        );
        let dropped_in_trace =
            tel.trace.iter().filter(|e| matches!(e, Event::FrameDropped { .. })).count() as u64
                + tel.trace.overwritten();
        assert!(dropped_in_trace >= report.metrics.dropped_frames.min(1));
        // Timestamps in the trace are non-decreasing (except the eagerly
        // emitted PAUSE deasserts and episode-span ends, which carry
        // future expiry stamps).
        let ts: Vec<f64> = tel
            .trace
            .iter()
            .filter(|e| !matches!(e, Event::PauseDeasserted { .. } | Event::SpanEnd { .. }))
            .map(Event::time)
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn rejects_empty_flow_set() {
        let mut cfg = base_cfg();
        cfg.flows.clear();
        let _ = Simulation::new(cfg);
    }

    #[test]
    fn validate_reports_typed_errors() {
        assert!(base_cfg().validate().is_ok());
        let mut cfg = base_cfg();
        cfg.capacity = 0.0;
        assert_eq!(cfg.validate().unwrap_err().field, "capacity");
        let mut cfg = base_cfg();
        cfg.flows[0].initial_rate = f64::NAN;
        assert_eq!(cfg.validate().unwrap_err().field, "flows.initial_rate");
        let mut cfg = base_cfg();
        cfg.faults.feedback_loss = 1.5;
        assert_eq!(cfg.validate().unwrap_err().field, "faults.feedback_loss");
    }

    #[test]
    fn fault_free_plan_records_no_faults() {
        let report = Simulation::new(base_cfg()).run();
        assert_eq!(report.metrics.faults, crate::faults::FaultCounts::default());
    }

    #[test]
    fn total_feedback_loss_silences_the_control_loop() {
        let mut cfg = base_cfg();
        cfg.faults.feedback_loss = 1.0;
        let report = Simulation::new(cfg).run();
        assert_eq!(report.metrics.feedback_messages, 0, "every BCN message must be dropped");
        assert!(report.metrics.faults.feedback_dropped > 0);
        assert!(report.metrics.delivered_frames > 0, "data plane keeps flowing");
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let mut cfg = base_cfg();
        cfg.faults.seed = 7;
        cfg.faults.feedback_loss = 0.3;
        cfg.faults.feedback_corrupt = 0.1;
        cfg.faults.data_loss = 0.01;
        let a = Simulation::new(cfg.clone()).run();
        let b = Simulation::new(cfg).run();
        assert_eq!(a.metrics.faults, b.metrics.faults);
        assert_eq!(a.metrics.delivered_frames, b.metrics.delivered_frames);
        assert_eq!(a.metrics.queue.values(), b.metrics.queue.values());
        assert_eq!(a.final_rates, b.final_rates);
    }

    #[test]
    fn data_loss_thins_the_delivered_stream() {
        let baseline = Simulation::new(base_cfg()).run();
        let mut cfg = base_cfg();
        cfg.faults.data_loss = 0.2;
        cfg.faults.data_burst_len = 3;
        let report = Simulation::new(cfg).run();
        assert!(report.metrics.faults.data_frames_lost > 0);
        assert!(report.metrics.delivered_frames < baseline.metrics.delivered_frames);
    }

    #[test]
    fn link_flaps_defer_service() {
        let mut cfg = base_cfg();
        cfg.faults.link_flap_period = Duration::from_secs(0.01);
        cfg.faults.link_flap_down = Duration::from_secs(0.002);
        let report = Simulation::new(cfg).run();
        assert!(report.metrics.faults.link_flap_deferrals > 0);
    }

    #[test]
    fn pause_storms_are_counted_when_pause_fires() {
        let mut cfg = base_cfg();
        for f in &mut cfg.flows {
            f.initial_rate = cfg.capacity / 3.0;
        }
        if let Control::Bcn { cp, .. } = &mut cfg.control {
            cp.qsc_bits = cp.q0_bits * 1.5;
        }
        cfg.t_end = Time::from_secs(0.2);
        cfg.faults.pause_storm = 1.0;
        cfg.faults.pause_storm_factor = 4.0;
        let report = Simulation::new(cfg).run();
        assert!(report.metrics.pause_events > 0);
        assert_eq!(report.metrics.faults.pause_storms, report.metrics.pause_events);
    }

    #[test]
    fn fault_telemetry_matches_metrics_counts() {
        use telemetry::{Event, FaultClass, Telemetry, TelemetryLevel};
        let mut cfg = base_cfg();
        cfg.faults.feedback_loss = 0.5;
        cfg.faults.data_loss = 0.05;
        let report = Simulation::with_telemetry(cfg, Telemetry::new(TelemetryLevel::Full)).run();
        let tel = report.telemetry.unwrap();
        assert_eq!(
            tel.metrics.counter_by_name("faults.feedback_drop"),
            Some(report.metrics.faults.feedback_dropped)
        );
        assert_eq!(
            tel.metrics.counter_by_name("faults.data_loss"),
            Some(report.metrics.faults.data_frames_lost)
        );
        let traced = tel
            .trace
            .iter()
            .filter(|e| matches!(e, Event::FaultInjected { class: FaultClass::FeedbackDrop, .. }))
            .count() as u64
            + tel.trace.overwritten();
        assert!(traced >= report.metrics.faults.feedback_dropped.min(1));
    }

    #[test]
    fn corruption_is_tallied_and_survivable() {
        let mut cfg = base_cfg();
        cfg.faults.feedback_corrupt = 1.0;
        let report = Simulation::new(cfg).run();
        let f = &report.metrics.faults;
        assert!(f.feedback_corrupted > 0);
        // Some corrupt frames fail to decode and are lost on the wire.
        assert!(f.feedback_corrupt_lost <= f.feedback_corrupted);
    }
}
