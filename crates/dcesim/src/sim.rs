//! The event-driven simulation engine: N sources, one bottleneck queue,
//! one sink (the paper's Fig. 1 topology).
//!
//! Sources emit fixed-size data frames paced by their reaction point's
//! current rate. Frames reach the bottleneck after a propagation delay,
//! enter a finite FIFO buffer (or are dropped), and are serialized onto
//! the output link at capacity `C`. The congestion point watches the
//! queue and sends feedback messages back to the sampled frame's source
//! (another propagation delay). Above `q_sc` the switch PAUSEs all
//! sources for a hold time (IEEE 802.3x).
//!
//! The engine is deterministic: integer-nanosecond timestamps, a stable
//! tie-break sequence number, and deterministic sampling make every run
//! reproducible bit for bit.

use std::collections::VecDeque;

use bcn::BcnParams;
use telemetry::{FaultClass, SeriesKind, SpanKind, Telemetry};

use crate::cp::{CongestionPoint, CpConfig};
use crate::error::ConfigError;
use crate::faults::{FaultConfig, FaultPlan, FeedbackFate};
use crate::frame::{BcnMessage, CpId, DataFrame, SourceId};
use crate::metrics::SimMetrics;
use crate::qcn::{QcnCp, QcnCpConfig, QcnFeedback, QcnRp, QcnRpConfig};
use crate::rp::{ReactionPoint, RpConfig};
use crate::sched::{EventQueue, Scheduler};
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
    /// empty flow set, non-finite or non-positive capacity/frame size,
    /// a buffer too small for one frame, non-finite flow rates, a zero
    /// record interval, or invalid scheme/fault parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.flows.is_empty() {
            return Err(ConfigError::new("flows", "need at least one flow"));
        }
        if !(self.capacity.is_finite() && self.capacity > 0.0) {
            return Err(ConfigError::new("capacity", "capacity must be positive"));
        }
        if !(self.frame_bits.is_finite() && self.frame_bits > 0.0) {
            return Err(ConfigError::new("frame_bits", "frame size must be positive"));
        }
        if !(self.buffer_bits.is_finite() && self.buffer_bits >= self.frame_bits) {
            return Err(ConfigError::new("buffer_bits", "buffer must hold at least one frame"));
        }
        for (i, f) in self.flows.iter().enumerate() {
            if !(f.initial_rate.is_finite() && f.initial_rate >= 0.0) {
                return Err(ConfigError::new(
                    "flows.initial_rate",
                    format!(
                        "flow {i} rate must be finite and non-negative, got {}",
                        f.initial_rate
                    ),
                ));
            }
            if let Some(v) = f.volume_bits {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(ConfigError::new(
                        "flows.volume_bits",
                        format!("flow {i} volume must be finite and non-negative, got {v}"),
                    ));
                }
            }
        }
        if self.record_interval == Duration::ZERO {
            return Err(ConfigError::new("record_interval", "record interval must be positive"));
        }
        if let Control::Bcn { cp, rp } = &self.control {
            cp.validate()?;
            rp.validate()?;
        }
        self.faults.validate()
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

#[derive(Debug, Clone, PartialEq)]
enum Ev {
    FlowStart(usize),
    FlowStop(usize),
    SourceSend(usize),
    Arrival(DataFrame),
    Departure,
    BcnDeliver(BcnMessage),
    QcnDeliver(QcnFeedback),
    PauseDeliver { until: Time },
    Record,
}

enum SchemeState {
    Bcn { cp: CongestionPoint, rps: Vec<ReactionPoint> },
    Qcn { cp: QcnCp, rps: Vec<QcnRp> },
    None,
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

/// The reusable allocation footprint of a [`Simulation`]: the event
/// queue's slab/heap buffer, the bottleneck FIFO, and the fault scratch
/// list. Build one per worker and thread it through
/// [`Simulation::new_in`] / [`Simulation::run_into`] to run many seeds
/// without re-allocating per run (`dcesim::batch` does this).
#[derive(Debug, Default)]
pub struct SimWorkspace {
    events: EventQueue<Ev>,
    queue: VecDeque<(DataFrame, Time)>,
    fault_scratch: Vec<FaultClass>,
}

impl SimWorkspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A configured, runnable simulation.
pub struct Simulation {
    cfg: SimConfig,
    events: EventQueue<Ev>,
    now: Time,
    active: Vec<bool>,
    paused_until: Vec<Time>,
    sending_scheduled: Vec<bool>,
    sent_bits: Vec<f64>,
    queue: VecDeque<(DataFrame, Time)>,
    q_bits: f64,
    busy: bool,
    scheme: SchemeState,
    metrics: SimMetrics,
    last_pause: Option<Time>,
    telemetry: Option<Telemetry>,
    /// Open flow-lifetime span ids, 0 when the flow has none.
    flow_spans: Vec<u64>,
    faults: FaultPlan,
    fault_scratch: Vec<FaultClass>,
    /// PAUSE frames scheduled but not yet delivered — the hybrid
    /// engine's guard must see in-flight PAUSEs, not just asserted ones.
    pending_pauses: u32,
    /// Set by the `Record` dispatch arm, consumed by
    /// [`Simulation::take_record_mark`]: the hybrid engine's epoch
    /// controller runs exactly at record-grid ticks.
    record_just_fired: bool,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("q_bits", &self.q_bits)
            .field("events_pending", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Builds the engine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (no flows, non-positive capacity
    /// or frame size, or invalid scheme parameters).
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
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let n = cfg.flows.len();
        let scheme = match &cfg.control {
            Control::Bcn { cp, rp } => SchemeState::Bcn {
                cp: CongestionPoint::new(*cp),
                rps: cfg.flows.iter().map(|f| ReactionPoint::new(*rp, f.initial_rate)).collect(),
            },
            Control::Qcn { cp, rp } => SchemeState::Qcn {
                cp: QcnCp::new(*cp),
                rps: cfg.flows.iter().map(|f| QcnRp::new(*rp, f.initial_rate)).collect(),
            },
            Control::None => SchemeState::None,
        };
        let mut events = std::mem::take(&mut ws.events);
        events.reset(cfg.scheduler);
        let mut queue = std::mem::take(&mut ws.queue);
        queue.clear();
        let mut fault_scratch = std::mem::take(&mut ws.fault_scratch);
        fault_scratch.clear();
        // Size every buffer that grows with the run up front, so the
        // steady state allocates nothing (`tests/zero_alloc.rs` gates
        // on this): the FIFO can hold at most a buffer of frames, the
        // series one sample per record tick, and the delay samples one
        // per deliverable frame (capped — pathological horizons fall
        // back to amortized growth rather than huge up-front reserves).
        queue.reserve((cfg.buffer_bits / cfg.frame_bits).ceil() as usize + 2);
        let records = (cfg.t_end.as_secs() / cfg.record_interval.as_secs()).ceil() as usize + 2;
        let deliverable = (cfg.t_end.as_secs() * cfg.capacity / cfg.frame_bits).ceil().min(1e6);
        let mut sim = Self {
            events,
            now: Time::ZERO,
            active: vec![false; n],
            paused_until: vec![Time::ZERO; n],
            sending_scheduled: vec![false; n],
            sent_bits: vec![0.0; n],
            queue,
            q_bits: 0.0,
            busy: false,
            scheme,
            metrics: SimMetrics::default(),
            last_pause: None,
            telemetry: None,
            flow_spans: vec![0; n],
            faults: FaultPlan::new(cfg.faults.clone()),
            fault_scratch,
            pending_pauses: 0,
            record_just_fired: false,
            cfg,
        };
        sim.metrics.queue.reserve(records);
        sim.metrics.aggregate_rate.reserve(records);
        sim.metrics.queueing_delay.reserve(deliverable as usize + 16);
        sim.metrics.per_source_bits = vec![0.0; n];
        sim.metrics.per_source_rate = vec![crate::metrics::TimeSeries::new(); n];
        for series in &mut sim.metrics.per_source_rate {
            series.reserve(records);
        }
        for i in 0..n {
            let start = sim.cfg.flows[i].start;
            sim.schedule(start, Ev::FlowStart(i));
            if let Some(stop) = sim.cfg.flows[i].stop {
                sim.schedule(stop, Ev::FlowStop(i));
            }
        }
        sim.schedule(Time::ZERO, Ev::Record);
        sim
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
    pub fn with_telemetry_sink(mut self, tel: Telemetry) -> Self {
        self.telemetry = Some(tel);
        self
    }

    /// Detaches the telemetry sink mid-run, leaving `None` behind.
    ///
    /// This is the crash-flight-recorder escape hatch: when a stepped
    /// run panics inside `catch_unwind`, the owner can still salvage
    /// everything recorded so far (trace ring, open spans, metrics)
    /// from the wreckage.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    fn schedule(&mut self, time: Time, ev: Ev) {
        self.events.schedule(time, ev);
    }

    fn source_rate(&self, i: usize) -> f64 {
        match &self.scheme {
            SchemeState::Bcn { rps, .. } => rps[i].rate(),
            SchemeState::Qcn { rps, .. } => rps[i].rate(),
            SchemeState::None => self.cfg.flows[i].initial_rate,
        }
    }

    fn aggregate_rate(&self) -> f64 {
        (0..self.cfg.flows.len()).filter(|&i| self.active[i]).map(|i| self.source_rate(i)).sum()
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
    pub fn finish_into(mut self, ws: &mut SimWorkspace) -> SimReport {
        let report = self.finalize();
        self.queue.clear();
        ws.events = std::mem::take(&mut self.events);
        ws.queue = std::mem::take(&mut self.queue);
        ws.fault_scratch = std::mem::take(&mut self.fault_scratch);
        report
    }

    /// Dispatches the next event; returns `false` once the horizon is
    /// reached or no events remain. Exposed so callers can meter the
    /// steady state (e.g. count allocations after warm-up) without
    /// giving up [`Simulation::finish`]'s report.
    pub fn step(&mut self) -> bool {
        let Some((time, ev)) = self.events.pop() else { return false };
        if time > self.cfg.t_end {
            return false;
        }
        self.now = time;
        self.dispatch(ev);
        true
    }

    /// Finalizes a stepped run (see [`Simulation::step`]) into a report.
    #[must_use]
    pub fn finish(mut self) -> SimReport {
        self.finalize()
    }

    fn finalize(&mut self) -> SimReport {
        let final_rates = (0..self.cfg.flows.len()).map(|i| self.source_rate(i)).collect();
        self.metrics.faults = self.faults.take_counts();
        if let Some(tel) = self.telemetry.as_mut() {
            let st = self.events.stats();
            tel.scheduler_stats(
                st.scheduled,
                st.popped,
                st.cascades,
                st.overflow_parked,
                st.max_pending,
            );
        }
        SimReport {
            metrics: std::mem::take(&mut self.metrics),
            final_rates,
            telemetry: self.telemetry.take(),
        }
    }

    /// Closes flow `i`'s lifetime span, if one is open. Flows still
    /// active at the horizon keep their span open — the open-span stack
    /// is exactly "what was running", which is what the crash flight
    /// recorder wants to capture.
    fn end_flow_span(&mut self, i: usize) {
        let id = std::mem::take(&mut self.flow_spans[i]);
        if let Some(tel) = self.telemetry.as_mut() {
            tel.span_end(self.now.as_secs(), id);
        }
    }

    /// Emits a fault-injection telemetry event (counter + trace).
    fn note_fault(&mut self, class: FaultClass, target: u32) {
        if let Some(tel) = self.telemetry.as_mut() {
            tel.fault_injected(self.now.as_secs(), class, target);
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::FlowStart(i) => {
                self.active[i] = true;
                if let Some(tel) = self.telemetry.as_mut() {
                    let parent = tel.root_span();
                    self.flow_spans[i] = tel.span_begin(
                        self.now.as_secs(),
                        SpanKind::FlowLifetime,
                        i as u32,
                        parent,
                    );
                }
                if !self.sending_scheduled[i] {
                    self.sending_scheduled[i] = true;
                    // Deterministic per-source offset breaks simultaneity.
                    self.schedule(self.now + Duration::from_nanos(i as u64 + 1), Ev::SourceSend(i));
                }
            }
            Ev::FlowStop(i) => {
                self.active[i] = false;
                self.end_flow_span(i);
            }
            Ev::SourceSend(i) => self.on_source_send(i),
            Ev::Arrival(frame) => self.on_arrival(frame),
            Ev::Departure => self.on_departure(),
            Ev::BcnDeliver(msg) => {
                if let SchemeState::Bcn { rps, .. } = &mut self.scheme {
                    // A corrupted DA can point outside the source set;
                    // such misaddressed feedback dies on delivery.
                    if let Some(rp) = rps.get_mut(msg.dst.0 as usize) {
                        rp.on_bcn(&msg);
                        self.metrics.feedback_messages += 1;
                    }
                }
            }
            Ev::QcnDeliver(fb) => {
                if let SchemeState::Qcn { rps, .. } = &mut self.scheme {
                    rps[fb.dst.0 as usize].on_feedback(&fb);
                    self.metrics.feedback_messages += 1;
                }
            }
            Ev::PauseDeliver { until } => {
                self.pending_pauses -= 1;
                for p in &mut self.paused_until {
                    *p = (*p).max(until);
                }
            }
            Ev::Record => {
                self.record_just_fired = true;
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.queue_sample(self.now.as_secs(), self.q_bits);
                }
                self.metrics.queue.push(self.now, self.q_bits);
                self.metrics.aggregate_rate.push(self.now, self.aggregate_rate());
                for i in 0..self.cfg.flows.len() {
                    let r = if self.active[i] { self.source_rate(i) } else { 0.0 };
                    self.metrics.per_source_rate[i].push(self.now, r);
                    let now = self.now.as_secs();
                    if let Some(tel) = self.telemetry.as_mut() {
                        tel.series_sample(SeriesKind::FlowRate, i as u32, now, r);
                    }
                }
                if self.now + self.cfg.record_interval <= self.cfg.t_end {
                    self.schedule(self.now + self.cfg.record_interval, Ev::Record);
                }
            }
        }
    }

    fn on_source_send(&mut self, i: usize) {
        if !self.active[i] {
            self.sending_scheduled[i] = false;
            return;
        }
        // Volume-limited (incast) flows end once their block is sent.
        if let Some(volume) = self.cfg.flows[i].volume_bits {
            if self.sent_bits[i] + self.cfg.frame_bits > volume {
                self.active[i] = false;
                self.sending_scheduled[i] = false;
                self.end_flow_span(i);
                return;
            }
        }
        if self.paused_until[i] > self.now {
            let resume = self.paused_until[i];
            self.schedule(resume, Ev::SourceSend(i));
            return;
        }
        let rrt = match &self.scheme {
            SchemeState::Bcn { rps, .. } => rps[i].associated_cp(),
            _ => None,
        };
        let frame = DataFrame { src: SourceId(i as u32), bits: self.cfg.frame_bits, rrt };
        self.sent_bits[i] += self.cfg.frame_bits;
        self.schedule(self.now + self.cfg.prop_delay, Ev::Arrival(frame));
        if let SchemeState::Qcn { rps, .. } = &mut self.scheme {
            rps[i].on_bits_sent(self.cfg.frame_bits);
        }
        let rate = self.source_rate(i).max(1.0);
        let gap = Duration::serialization(self.cfg.frame_bits, rate);
        self.schedule(self.now + gap, Ev::SourceSend(i));
    }

    fn on_arrival(&mut self, frame: DataFrame) {
        if self.faults.is_active() && self.faults.data_frame_lost() {
            self.note_fault(FaultClass::DataLoss, frame.src.0);
            return;
        }
        if self.q_bits + frame.bits > self.cfg.buffer_bits {
            self.metrics.dropped_frames += 1;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.frame_dropped(self.now.as_secs(), frame.src.0);
            }
            return;
        }
        let prev_q = self.q_bits;
        self.q_bits += frame.bits;
        self.note_queue_threshold(prev_q);
        self.queue.push_back((frame, self.now));
        // Collect scheme reactions first, then schedule (borrow split).
        let mut bcn_msg = None;
        let mut qcn_fb = None;
        let mut want_pause = false;
        match &mut self.scheme {
            SchemeState::Bcn { cp, .. } => {
                bcn_msg = cp.on_arrival(&frame, self.q_bits);
                want_pause = cp.should_pause(self.q_bits);
            }
            SchemeState::Qcn { cp, .. } => {
                qcn_fb = cp.on_arrival(frame.src, self.q_bits);
            }
            SchemeState::None => {}
        }
        if let Some(msg) = bcn_msg {
            // The scratch list is hoisted into the engine so the fault
            // path allocates nothing per message (mem::take keeps the
            // borrow checker happy across the note_fault calls).
            let mut injected = std::mem::take(&mut self.fault_scratch);
            let fate = self.faults.feedback_fate_into(&msg, &mut injected);
            for &class in &injected {
                self.note_fault(class, msg.dst.0);
            }
            injected.clear();
            self.fault_scratch = injected;
            if let FeedbackFate::Deliver { msg, extra } = fate {
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.bcn_message(self.now.as_secs(), msg.sigma, msg.dst.0);
                }
                self.schedule(self.now + self.cfg.prop_delay + extra, Ev::BcnDeliver(msg));
            }
        }
        if let Some(fb) = qcn_fb {
            if let Some(tel) = self.telemetry.as_mut() {
                tel.qcn_message(self.now.as_secs(), fb.fb, fb.dst.0);
            }
            self.schedule(self.now + self.cfg.prop_delay, Ev::QcnDeliver(fb));
        }
        if want_pause {
            self.maybe_pause();
        }
        if !self.busy {
            self.busy = true;
            self.schedule_departure(frame.bits);
        }
    }

    /// Schedules the next departure, deferring the service start past
    /// any link-flap down window.
    fn schedule_departure(&mut self, bits: f64) {
        let mut start = self.now;
        if self.faults.is_active() {
            if let Some(up) = self.faults.link_up_at(self.now) {
                self.note_fault(FaultClass::LinkFlap, 0);
                start = up;
            }
        }
        let service = Duration::serialization(bits, self.cfg.capacity);
        self.schedule(start + service, Ev::Departure);
    }

    fn maybe_pause(&mut self) {
        // Rate-limit PAUSE generation to one per hold interval.
        let can_fire = match self.last_pause {
            Some(t) => self.now.saturating_sub(t) >= self.cfg.pause_hold,
            None => true,
        };
        if can_fire {
            self.last_pause = Some(self.now);
            self.metrics.pause_events += 1;
            let (hold, stormed) = self.faults.pause_hold(self.cfg.pause_hold);
            if stormed {
                self.note_fault(FaultClass::PauseStorm, 0);
            }
            let deliver = self.now + self.cfg.prop_delay;
            let until = deliver + hold;
            if let Some(tel) = self.telemetry.as_mut() {
                // PAUSE silences every source; port 0 stands for the
                // bottleneck ingress. The deassert event is emitted
                // eagerly, stamped with the scheduled expiry.
                tel.pause(deliver.as_secs(), until.as_secs(), 0);
            }
            self.pending_pauses += 1;
            self.schedule(deliver, Ev::PauseDeliver { until });
        }
    }

    /// Emits a threshold-crossing event when the queue moves across the
    /// BCN severe-congestion threshold `q_sc` (the PAUSE trigger level).
    fn note_queue_threshold(&mut self, prev_q: f64) {
        let Some(tel) = self.telemetry.as_mut() else { return };
        let thr = match &self.cfg.control {
            Control::Bcn { cp, .. } => cp.qsc_bits,
            _ => return,
        };
        let q = self.q_bits;
        if prev_q < thr && q >= thr {
            tel.queue_threshold(self.now.as_secs(), q, thr, true);
        } else if prev_q >= thr && q < thr {
            tel.queue_threshold(self.now.as_secs(), q, thr, false);
        }
    }

    fn on_departure(&mut self) {
        let (frame, enqueued_at) = self.queue.pop_front().expect("departure from empty queue");
        let prev_q = self.q_bits;
        self.q_bits -= frame.bits;
        self.note_queue_threshold(prev_q);
        self.metrics.delivered_frames += 1;
        self.metrics.delivered_bits += frame.bits;
        self.metrics.per_source_bits[frame.src.0 as usize] += frame.bits;
        self.metrics.queueing_delay.push(self.now.saturating_sub(enqueued_at).as_secs());
        if let SchemeState::Bcn { cp, .. } = &mut self.scheme {
            cp.on_departure(frame.bits);
        }
        if let Some((next, _)) = self.queue.front() {
            let bits = next.bits;
            self.schedule_departure(bits);
        } else {
            self.busy = false;
        }
    }
}

/// Hooks for the hybrid co-simulator (`crate::hybrid`): record-grid
/// epoch marks, fluid-state extraction, and fluid→packet re-seeding.
/// All crate-private — the engine's public surface stays event-driven.
impl Simulation {
    /// Consumes the "a `Record` event just dispatched" mark. The hybrid
    /// epoch controller runs exactly at record-grid ticks so that every
    /// fast-forward span is an integer number of record intervals and
    /// the sampled series stay grid-dense and comparable.
    pub(crate) fn take_record_mark(&mut self) -> bool {
        std::mem::take(&mut self.record_just_fired)
    }

    /// Current simulation time.
    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// The run configuration.
    pub(crate) fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The telemetry sink, if attached.
    pub(crate) fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_mut()
    }

    /// Projects the packet state onto the fluid coordinates: exact queue
    /// occupancy (bits) and the aggregate regulator rate (bit/s), summed
    /// over active flows in index order. The hybrid engine adds its
    /// re-seed residue to make the projection round-trip bit-exactly.
    pub(crate) fn fluid_state(&self) -> [f64; 2] {
        [self.q_bits, self.aggregate_rate()]
    }

    /// Whether the run is in a state the fluid model can stand in for:
    /// fluid-calibrated BCN control (no FB quantizer, ungated positive
    /// feedback), no fault injection, no PAUSE asserted or in flight,
    /// and a steady homogeneous workload (every flow active, none
    /// volume-limited or scheduled to stop). Everything here is a
    /// *structural* guard; the dynamic guards (switching-line distance,
    /// queue margins) live in the epoch controller.
    pub(crate) fn hybrid_quiescent(&self) -> bool {
        let scheme_ok = match &self.scheme {
            SchemeState::Bcn { cp, .. } => {
                let c = cp.config();
                c.fb_quant.is_none() && !c.gate_positive
            }
            _ => false,
        };
        scheme_ok
            && !self.cfg.faults.enabled()
            && self.pending_pauses == 0
            && self.paused_until.iter().all(|&p| p <= self.now)
            && self.active.iter().all(|&a| a)
            && self.cfg.flows.iter().all(|f| f.stop.is_none() && f.volume_bits.is_none())
    }

    /// Pushes one fluid-integrated record-grid sample, mirroring the
    /// `Record` dispatch arm (queue gauge, metrics series, per-flow rate
    /// series at the fluid fair share) so fast-forwarded stretches stay
    /// sample-for-sample comparable with packet-simulated ones.
    pub(crate) fn hybrid_record_sample(&mut self, t: Time, q_bits: f64, w_agg: f64) {
        if let Some(tel) = self.telemetry.as_mut() {
            tel.queue_sample(t.as_secs(), q_bits);
        }
        self.metrics.queue.push(t, q_bits);
        self.metrics.aggregate_rate.push(t, w_agg);
        let per = w_agg / self.cfg.flows.len() as f64;
        for i in 0..self.cfg.flows.len() {
            self.metrics.per_source_rate[i].push(t, per);
            if let Some(tel) = self.telemetry.as_mut() {
                tel.series_sample(SeriesKind::FlowRate, i as u32, t.as_secs(), per);
            }
        }
    }

    /// Credits delivery totals for a fast-forwarded span: with the
    /// epoch guards holding, `0 < q` throughout, so the server runs at
    /// capacity and exactly `C * secs` bits leave the queue (the fluid
    /// identity `outflow = inflow - dq`). Split evenly across sources
    /// (the workload is homogeneous under the guards); per-frame
    /// queueing-delay samples do not accrue inside an epoch.
    pub(crate) fn hybrid_credit_delivery(&mut self, secs: f64) {
        let bits = self.cfg.capacity * secs;
        self.metrics.delivered_bits += bits;
        self.metrics.delivered_frames += (bits / self.cfg.frame_bits).round() as u64;
        let per = bits / self.cfg.flows.len() as f64;
        for b in &mut self.metrics.per_source_bits {
            *b += per;
        }
    }

    /// Re-seeds the packet engine from fluid state at an epoch boundary
    /// `t`: regulator rates to the fair share of `w_agg` (clamped),
    /// queue occupancy to exactly `q_bits` (FIFO rebuilt as whole frames
    /// round-robin across sources plus one partial-frame remainder),
    /// congestion-point sampling interval restarted, and the event set
    /// re-populated (per-source sends, the departure of the queue head,
    /// the next record tick) through the stats-preserving
    /// [`EventQueue::clear_pending`] so the wheel's slab arena is
    /// reused. In-flight events discarded here — frames and feedback
    /// already on the wire — are the documented divergence budget of an
    /// epoch switch.
    ///
    /// Returns the rate residue `w_agg - sum(clamped rates)`; adding it
    /// back to [`Simulation::fluid_state`]'s aggregate reproduces
    /// `w_agg` bit-exactly (Sterbenz: the sum is within a factor of two
    /// of `w_agg`).
    pub(crate) fn reseed_fluid(&mut self, t: Time, q_bits: f64, w_agg: f64) -> f64 {
        self.now = t;
        let n = self.cfg.flows.len();
        let base = w_agg / n as f64;
        {
            let SchemeState::Bcn { cp, rps } = &mut self.scheme else {
                unreachable!("hybrid re-seed requires BCN control (guarded)");
            };
            for rp in rps.iter_mut() {
                rp.set_rate(base);
            }
            cp.restart_interval();
        }
        self.queue.clear();
        self.q_bits = q_bits;
        let frame_bits = self.cfg.frame_bits;
        let full = (q_bits / frame_bits).floor() as usize;
        let rem = q_bits - full as f64 * frame_bits;
        {
            let SchemeState::Bcn { rps, .. } = &self.scheme else { unreachable!() };
            for j in 0..full {
                let src = j % n;
                let frame = DataFrame {
                    src: SourceId(src as u32),
                    bits: frame_bits,
                    rrt: rps[src].associated_cp(),
                };
                self.queue.push_back((frame, t));
            }
            if rem > 0.0 {
                let src = full % n;
                let frame = DataFrame {
                    src: SourceId(src as u32),
                    bits: rem,
                    rrt: rps[src].associated_cp(),
                };
                self.queue.push_back((frame, t));
            }
        }
        self.events.clear_pending();
        self.pending_pauses = 0;
        self.busy = !self.queue.is_empty();
        if let Some((first, _)) = self.queue.front() {
            let bits = first.bits;
            self.schedule_departure(bits);
        }
        for i in 0..n {
            self.sending_scheduled[i] = true;
            self.schedule(t + Duration::from_nanos(i as u64 + 1), Ev::SourceSend(i));
        }
        if t + self.cfg.record_interval <= self.cfg.t_end {
            self.schedule(t + self.cfg.record_interval, Ev::Record);
        }
        w_agg - self.aggregate_rate()
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
