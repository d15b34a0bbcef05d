//! The packet engine: hosts, output-queued switches and links, per-port
//! BCN or QCN congestion points, end-to-end reaction points, 802.3x
//! PAUSE (or per-class PFC), fault injection and the event loop. Every
//! packet-level run goes through [`NetSim`]: the paper's Fig. 1 dumbbell
//! is its one-switch case ([`crate::sim`] lowers a
//! [`SimConfig`](crate::sim::SimConfig) to a [`NetConfig`]), the
//! [`crate::topo`] fabrics and the [`victim_topology`] /
//! [`parking_lot_topology`] chains its multi-hop cases.
//!
//! * **Sources** start and stop on schedule (or once their volume is
//!   sent), pace frames at their reaction point's rate (optionally with
//!   ±2% deterministic jitter), and hold while their access link is
//!   paused.
//! * **Ports** queue one FIFO per 802.1p class, served round-robin. A
//!   frame counts against its port's buffer until its serialization
//!   ends; the departure then forwards it, inline when the next hop is
//!   its destination over a zero-delay link.
//! * **Feedback** from a port's congestion point reaches the sampled
//!   frame's source after the flow's forward path delay; BCN messages
//!   pass the fault layer first.
//! * **PAUSE**: when a port's backlog (its class backlog under PFC)
//!   passes the switch's `qsc_bits`, the switch pauses every incoming
//!   link for one hold, at most once per hold — the roll-back "from
//!   switch to switch" the paper's Introduction blames on PAUSE (see
//!   the `exp_pause_hol` experiment).
//!
//! Runs are deterministic (integer-nanosecond time, stable tie-breaks,
//! seeded faults) and bit-identical on either scheduler backend.

use std::collections::VecDeque;

use telemetry::{FaultClass, SeriesKind, SpanKind, Telemetry};

use crate::cp::{CongestionPoint, CpConfig};
use crate::error::ConfigError;
use crate::faults::{FaultConfig, FaultCounts, FaultPlan, FeedbackFate};
use crate::frame::{BcnMessage, CpId, DataFrame, SourceId};
use crate::metrics::{SampleSet, SimMetrics, TimeSeries};
use crate::qcn::{QcnCp, QcnCpConfig, QcnFeedback, QcnRp, QcnRpConfig};
use crate::rp::{ReactionPoint, RpConfig};
use crate::sched::{EventQueue, Scheduler};
use crate::time::{Duration, Time};

/// Number of 802.1p priority classes the engine models.
const N_PRIORITIES: usize = 8;

/// Where a link terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A host (source or sink) by index.
    Host(usize),
    /// A switch by index (ingress side; egress is via ports/links).
    Switch(usize),
}

/// One unidirectional link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Transmitting side.
    pub from: Endpoint,
    /// Receiving side.
    pub to: Endpoint,
    /// Capacity in bit/s (serialization happens at the transmitter);
    /// `f64::INFINITY` serializes in zero time.
    pub capacity: f64,
    /// Propagation delay.
    pub delay: Duration,
}

/// A congestion-point configuration: the paper's BCN or QCN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpSpec {
    /// BCN congestion point (paper Section II-B).
    Bcn(CpConfig),
    /// QCN (802.1Qau) congestion point.
    Qcn(QcnCpConfig),
}

/// A reaction-point configuration matching [`CpSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RpSpec {
    /// BCN AIMD regulator (paper Eq. 2).
    Bcn(RpConfig),
    /// QCN regulator: feedback-driven decrease, byte-counter recovery.
    Qcn(QcnRpConfig),
}

/// One switch (output-queued: each output port has its own buffer).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSpec {
    /// Per-output-port buffer (bits).
    pub buffer_bits: f64,
    /// PAUSE threshold on any single port's backlog (bits).
    pub qsc_bits: f64,
    /// Routing: for each destination host, the index (into the global
    /// link list) of the outgoing link to use.
    pub routes: Vec<(usize, usize)>,
    /// Congestion points, one per outgoing link that should monitor
    /// congestion: `(link index, config)`.
    pub cps: Vec<(usize, CpSpec)>,
}

/// A flow: a rate-regulated source host sending to a destination host.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFlow {
    /// Source host index.
    pub src_host: usize,
    /// Destination host index.
    pub dst_host: usize,
    /// Initial rate (bit/s).
    pub initial_rate: f64,
    /// Reaction-point configuration; `None` = fixed-rate (unmanaged)
    /// source.
    pub rp: Option<RpSpec>,
    /// 802.1p priority class (0..8); classes are queued separately and
    /// paused separately under PFC.
    pub priority: u8,
    /// When the source starts sending.
    pub start: Time,
    /// When the source stops (`None` = runs to the horizon).
    pub stop: Option<Time>,
    /// The flow ends once it has sent this many bits (`None` = no
    /// volume limit).
    pub volume_bits: Option<f64>,
}

/// Whether per-link PAUSE is active and how long one assertion holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauseConfig {
    /// Enables PAUSE generation at switches.
    pub enabled: bool,
    /// Transmission hold per PAUSE frame.
    pub hold: Duration,
    /// Priority flow control (802.1Qbb): pause only the congested
    /// priority class instead of the whole link.
    pub per_priority: bool,
}

/// Full network configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Number of hosts (indices `0..hosts`).
    pub hosts: usize,
    /// The switches.
    pub switches: Vec<SwitchSpec>,
    /// The links (global indices; switch routes refer to these).
    pub links: Vec<LinkSpec>,
    /// The flows.
    pub flows: Vec<NetFlow>,
    /// Data frame size (bits).
    pub frame_bits: f64,
    /// Simulated duration.
    pub t_end: Time,
    /// Metrics sampling interval.
    pub record_interval: Duration,
    /// PAUSE behaviour.
    pub pause: PauseConfig,
    /// Fault injection ([`FaultConfig::none`] leaves every run
    /// byte-identical to the fault-free engine).
    pub faults: FaultConfig,
    /// Which event-queue backend drives the run (bit-identical results;
    /// see [`Scheduler`]).
    pub scheduler: Scheduler,
    /// The switch output port (named by its outgoing link) whose
    /// bottleneck observables — per-frame queueing delay, aggregate and
    /// per-flow rate series — the run records. `None` records none of
    /// them.
    pub observe: Option<usize>,
    /// Deterministic ±2% per-flow pacing jitter (the discrete analogue
    /// of NIC clock skew).
    pub pacing_jitter: bool,
}

impl NetConfig {
    /// Validates every scalar field and sub-configuration (topology and
    /// routes are checked by [`NetSim::try_new`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field: a
    /// non-positive frame size, link capacity or record interval, a
    /// switch buffer smaller than one frame, a flow rate or volume that
    /// is not finite and non-negative, a priority outside `0..8`, or an
    /// invalid congestion-point, reaction-point or fault configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_frame(self.frame_bits)?;
        for (i, l) in self.links.iter().enumerate() {
            // +inf is allowed: a zero-serialization link.
            if l.capacity.is_nan() || l.capacity <= 0.0 {
                return Err(ConfigError::new(
                    "links.capacity",
                    format!("link {i} capacity must be positive, got {}", l.capacity),
                ));
            }
        }
        for (si, sw) in self.switches.iter().enumerate() {
            check_buffer(si, sw.buffer_bits, self.frame_bits)?;
            for (_, cp) in &sw.cps {
                match cp {
                    CpSpec::Bcn(c) => c.validate()?,
                    CpSpec::Qcn(c) => c.validate()?,
                }
            }
        }
        for (i, f) in self.flows.iter().enumerate() {
            check_flow(i, f.initial_rate, f.volume_bits, f.priority)?;
            match &f.rp {
                Some(RpSpec::Bcn(c)) => c.validate()?,
                Some(RpSpec::Qcn(c)) => c.validate()?,
                None => {}
            }
        }
        check_record_interval(self.record_interval)?;
        self.faults.validate()
    }
}

// The field checks behind `NetConfig::validate`, shared with the
// dumbbell front end (`SimConfig::validate`) so it validates its own
// fields without building the lowered configuration.

pub(crate) fn check_frame(frame_bits: f64) -> Result<(), ConfigError> {
    if frame_bits.is_finite() && frame_bits > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::new("frame_bits", "frame size must be positive"))
    }
}

pub(crate) fn check_buffer(
    si: usize,
    buffer_bits: f64,
    frame_bits: f64,
) -> Result<(), ConfigError> {
    if buffer_bits.is_finite() && buffer_bits >= frame_bits {
        Ok(())
    } else {
        Err(ConfigError::new(
            "buffer_bits",
            format!("switch {si} buffer must hold at least one frame"),
        ))
    }
}

pub(crate) fn check_flow(
    i: usize,
    initial_rate: f64,
    volume_bits: Option<f64>,
    priority: u8,
) -> Result<(), ConfigError> {
    if !(initial_rate.is_finite() && initial_rate >= 0.0) {
        return Err(ConfigError::new(
            "flows.initial_rate",
            format!("flow {i} rate must be finite and non-negative, got {initial_rate}"),
        ));
    }
    if let Some(v) = volume_bits {
        if !(v.is_finite() && v >= 0.0) {
            return Err(ConfigError::new(
                "flows.volume_bits",
                format!("flow {i} volume must be finite and non-negative, got {v}"),
            ));
        }
    }
    if usize::from(priority) >= N_PRIORITIES {
        return Err(ConfigError::new(
            "flows.priority",
            format!("flow {i} priority {priority} outside 0..{N_PRIORITIES}"),
        ));
    }
    Ok(())
}

pub(crate) fn check_record_interval(d: Duration) -> Result<(), ConfigError> {
    if d == Duration::ZERO {
        Err(ConfigError::new("record_interval", "record interval must be positive"))
    } else {
        Ok(())
    }
}

/// Per-flow outcome.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowStats {
    /// Bits delivered to the flow's destination.
    pub delivered_bits: f64,
    /// Frames dropped anywhere along the path.
    pub dropped_frames: u64,
    /// Final regulator rate (bit/s).
    pub final_rate: f64,
}

/// Outcome of a network run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    /// Per-flow statistics (same order as the config's flows).
    pub flows: Vec<FlowStats>,
    /// Per-switch shared-buffer occupancy over time.
    pub switch_queues: Vec<TimeSeries>,
    /// PAUSE assertions per link (indexed like the config's links).
    pub pause_counts: Vec<u64>,
    /// Total feedback messages (BCN and QCN) delivered.
    pub feedback_messages: u64,
    /// Injected-fault tallies (all zero for a fault-free run).
    pub faults: FaultCounts,
    /// The telemetry shard, when a sink was attached (see
    /// [`NetSim::with_telemetry_sink`]); per-switch queue depths and
    /// per-flow rates land in its entity-keyed time series, PAUSE
    /// assertions become causal spans.
    pub telemetry: Option<Telemetry>,
}

impl NetReport {
    /// Throughput of flow `i` in bit/s over `duration` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `duration` is non-positive.
    #[must_use]
    pub fn throughput(&self, i: usize, duration: f64) -> f64 {
        assert!(duration > 0.0);
        self.flows[i].delivered_bits / duration
    }
}

/// The fields of a flow the per-frame path reads.
#[derive(Debug, Clone, Copy)]
struct FlowRt {
    /// Time a frame takes to reach the far end of the access link
    /// (serialization of one frame plus propagation).
    access_delay: Duration,
    /// Volume limit (`+inf` = none).
    volume_bits: f64,
    /// Far end of the access link.
    to: Endpoint,
    uplink: u32,
    dst: u32,
    priority: u8,
}

#[derive(Debug, Clone)]
struct NetFrame {
    bits: f64,
    rrt: Option<CpId>,
    /// When the frame joined its current port's queue.
    enqueued: Time,
    flow: u32,
    priority: u8,
}

#[derive(Debug, Clone)]
enum Ev {
    FlowStart(usize),
    FlowStop(usize),
    HostSend(usize),
    /// A frame reaches the far end of a link into a switch.
    ArriveSwitch {
        switch: u32,
        frame: NetFrame,
    },
    /// A frame reaches the far end of a link into a host.
    ArriveHost {
        host: u32,
        frame: NetFrame,
    },
    /// The head frame of the port's serving class finished serializing.
    Departure {
        port: u32,
    },
    /// Every backlogged class of the port was paused; retry.
    Resume {
        port: u32,
    },
    Feedback {
        flow: usize,
        msg: BcnMessage,
    },
    QcnFeedback {
        flow: usize,
        fb: QcnFeedback,
    },
    /// A PAUSE reaches the incoming links `incoming_links[from..to]`
    /// (one event per run of equal-delay links into the switch).
    PauseAt {
        from: u32,
        to: u32,
        priority: Option<u8>,
        until: Time,
    },
    Record,
}

enum Cp {
    Bcn(CongestionPoint),
    Qcn(QcnCp),
}

enum Rp {
    Bcn(ReactionPoint),
    Qcn(QcnRp),
}

impl Rp {
    fn rate(&self) -> f64 {
        match self {
            Rp::Bcn(rp) => rp.rate(),
            Rp::Qcn(rp) => rp.rate(),
        }
    }
}

struct Port {
    link: u32,
    /// Bit `c` is set while class `c`'s FIFO is non-empty.
    backlogged: u8,
    /// Round-robin pointer over the classes.
    rr_next: u8,
    /// The class whose head frame is serializing (valid while a
    /// `Departure` is pending).
    serving: u8,
    busy: bool,
    /// Far end and propagation delay of `link`.
    to: Endpoint,
    delay: Duration,
    /// Copies of the owning switch's buffer and PAUSE threshold.
    buffer_bits: f64,
    qsc_bits: f64,
    /// One FIFO per priority class, served round-robin.
    queues: [VecDeque<NetFrame>; N_PRIORITIES],
    /// Backlog (bits), including the frame in service.
    backlog: f64,
    /// The same per priority class (PFC thresholds on it).
    class_backlog: [f64; N_PRIORITIES],
    /// Serialization time of a full frame on the port's link.
    frame_ser: Duration,
    /// Per-frame observables, on the observed port only.
    obs: Option<Box<PortObs>>,
    cp: Option<Box<Cp>>,
}

impl Port {
    fn enqueue(&mut self, frame: NetFrame) {
        let cls = usize::from(frame.priority);
        self.backlog += frame.bits;
        self.class_backlog[cls] += frame.bits;
        self.queues[cls].push_back(frame);
        self.backlogged |= 1 << cls;
    }

    /// Removes the serving class's head frame.
    fn dequeue(&mut self) -> NetFrame {
        let cls = usize::from(self.serving);
        let frame = self.queues[cls].pop_front().expect("departure from an empty class");
        if self.queues[cls].is_empty() {
            self.backlogged &= !(1 << cls);
        }
        self.backlog -= frame.bits;
        self.class_backlog[cls] -= frame.bits;
        frame
    }
}

struct SwitchState {
    spec: SwitchSpec,
    /// This switch's output ports: `NetSim::ports[ports]`.
    ports: std::ops::Range<usize>,
    last_pause: Option<Time>,
}

/// The observed port's bottleneck observables ([`NetConfig::observe`]).
struct Observed {
    switch: usize,
    port: usize,
    /// Rate series and PAUSE assertions; `finish` fills in the rest.
    metrics: SimMetrics,
}

/// The per-frame half of the observables, kept on the observed port
/// itself so the frame path reaches it through the port it already
/// holds.
struct PortObs {
    delivered_frames: u64,
    delivered_bits: f64,
    queueing_delay: SampleSet,
}

/// The reusable allocation footprint of a [`NetSim`]: the event queue's
/// slab/heap buffer, the port FIFOs and the fault scratch list. Thread
/// one through [`NetSim::try_new_in`] and [`NetSim::finish_into`] to run
/// many seeds without re-allocating per run (`dcesim::batch` does this).
#[derive(Debug, Default)]
pub struct NetWorkspace {
    events: EventQueue<Ev>,
    queues: Vec<VecDeque<NetFrame>>,
    fault_scratch: Vec<FaultClass>,
}

impl NetWorkspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The packet engine.
pub struct NetSim {
    cfg: NetConfig,
    events: EventQueue<Ev>,
    now: Time,
    switches: Vec<SwitchState>,
    /// Every switch's output ports, switch by switch.
    ports: Vec<Port>,
    /// Number of hosts (stride of `route_table`).
    n_hosts: usize,
    /// Flat next-hop table: `route_table[si * n_hosts + dst]` is the
    /// output port (index into `ports`) of switch `si` for destination
    /// host `dst`
    /// (`NO_ROUTE` = none). Built once from the per-switch route lists,
    /// so the per-frame path is a single indexed load.
    route_table: Vec<u32>,
    /// CSR layout of the links terminating at each switch, each
    /// switch's slice ordered by link delay: switch `si` owns
    /// `incoming_links[incoming_off[si]..incoming_off[si + 1]]`.
    incoming_off: Vec<u32>,
    incoming_links: Vec<u32>,
    /// Pause state per link and priority class, read by the transmitter
    /// (plain PAUSE sets every class).
    link_paused_until: Vec<[Time; N_PRIORITIES]>,
    rps: Vec<Option<Rp>>,
    active: Vec<bool>,
    sending_scheduled: Vec<bool>,
    sent_bits: Vec<f64>,
    stats: Vec<FlowStats>,
    switch_queues: Vec<TimeSeries>,
    pause_counts: Vec<u64>,
    feedback_messages: u64,
    /// The per-frame view of each flow, packed for the hot path.
    flow_rt: Vec<FlowRt>,
    /// Path delay from each flow's congestion points back to its source:
    /// approximated as the forward path delay (symmetric routes).
    feedback_delay: Vec<Duration>,
    /// Per-flow LCG state for pacing jitter (see `on_host_send`).
    jitter_state: Vec<u64>,
    faults: FaultPlan,
    fault_scratch: Vec<FaultClass>,
    telemetry: Option<Telemetry>,
    /// Open flow-lifetime span ids, 0 when the flow has none.
    flow_spans: Vec<u64>,
    /// `PauseAt` events scheduled but not yet delivered — the hybrid
    /// engine's guard must see in-flight PAUSEs, not just asserted ones.
    pending_pauses: u32,
    /// Set by the `Record` dispatch arm, consumed by `take_record_mark`:
    /// the hybrid engine's epoch controller runs exactly at record-grid
    /// ticks.
    record_just_fired: bool,
    observed: Option<Observed>,
}

impl std::fmt::Debug for NetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSim")
            .field("now", &self.now)
            .field("events_pending", &self.events.len())
            .finish_non_exhaustive()
    }
}

/// Sentinel in [`NetSim`]'s flat next-hop table: no route.
const NO_ROUTE: u32 = u32::MAX;

impl NetSim {
    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) errors.
    #[must_use]
    pub fn new(cfg: NetConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the engine, validating the configuration: every scalar
    /// field ([`NetConfig::validate`]), every link endpoint, every route
    /// (a switch may only route over links it owns), the observed port,
    /// and — so a misrouted flow fails here instead of silently dropping
    /// every frame at forward time — every flow's path, which must reach
    /// its destination host loop-free.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field, flow,
    /// switch, or link on any of the inconsistencies above.
    pub fn try_new(cfg: NetConfig) -> Result<Self, ConfigError> {
        Self::try_new_in(cfg, &mut NetWorkspace::new())
    }

    /// [`try_new`](Self::try_new) reusing the buffers of `ws`. Pair with
    /// [`finish_into`](Self::finish_into) so batched runs keep one
    /// allocation footprint across seeds.
    ///
    /// # Errors
    ///
    /// Same as [`try_new`](Self::try_new).
    pub fn try_new_in(mut cfg: NetConfig, ws: &mut NetWorkspace) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n_switches = cfg.switches.len();
        for (i, l) in cfg.links.iter().enumerate() {
            for (end, name) in [(l.from, "from"), (l.to, "to")] {
                match end {
                    Endpoint::Host(h) if h >= cfg.hosts => {
                        return Err(ConfigError::new(
                            "links",
                            format!("link {i} {name} unknown host {h} (hosts: {})", cfg.hosts),
                        ));
                    }
                    Endpoint::Switch(s) if s >= n_switches => {
                        return Err(ConfigError::new(
                            "links",
                            format!("link {i} {name} unknown switch {s} (switches: {n_switches})"),
                        ));
                    }
                    _ => {}
                }
            }
        }
        let mut host_uplink = vec![None; cfg.hosts];
        for (i, l) in cfg.links.iter().enumerate() {
            if let Endpoint::Host(h) = l.from {
                host_uplink[h] = Some(i);
            }
        }
        // Everything that needed the full config is done; move the
        // switch specs out so each `SwitchState` owns its spec. Port
        // FIFOs come from the workspace in a fixed order, so a rerun of
        // the same configuration gets back the same warm buffers.
        // Each switch's outgoing links, in link order.
        let mut out_links: Vec<Vec<usize>> = vec![Vec::new(); n_switches];
        for (li, l) in cfg.links.iter().enumerate() {
            if let Endpoint::Switch(si) = l.from {
                out_links[si].push(li);
            }
        }
        let mut pool = ws.queues.drain(..);
        let mut ports: Vec<Port> = Vec::new();
        // `link_port[li]`: the port transmitting on link `li`, if any.
        let mut link_port = vec![NO_ROUTE; cfg.links.len()];
        let switches: Vec<SwitchState> = std::mem::take(&mut cfg.switches)
            .into_iter()
            .zip(out_links)
            .map(|(spec, out)| {
                let first = ports.len();
                for li in out {
                    let l = &cfg.links[li];
                    let cp = spec.cps.iter().find(|(link, _)| *link == li).map(|(_, c)| {
                        Box::new(match *c {
                            CpSpec::Bcn(c) => Cp::Bcn(CongestionPoint::new(c)),
                            CpSpec::Qcn(c) => Cp::Qcn(QcnCp::new(c)),
                        })
                    });
                    link_port[li] = ports.len() as u32;
                    ports.push(Port {
                        link: li as u32,
                        backlogged: 0,
                        rr_next: 0,
                        serving: 0,
                        busy: false,
                        to: l.to,
                        delay: l.delay,
                        buffer_bits: spec.buffer_bits,
                        qsc_bits: spec.qsc_bits,
                        queues: std::array::from_fn(|_| pool.next().unwrap_or_default()),
                        backlog: 0.0,
                        class_backlog: [0.0; N_PRIORITIES],
                        frame_ser: Duration::serialization(cfg.frame_bits, l.capacity),
                        obs: None,
                        cp,
                    });
                }
                SwitchState { spec, ports: first..ports.len(), last_pause: None }
            })
            .collect();
        drop(pool);
        // Flat next-hop table (first match wins).
        let mut route_table = vec![NO_ROUTE; n_switches * cfg.hosts];
        for (si, sw) in switches.iter().enumerate() {
            for &(dst, link) in &sw.spec.routes {
                if dst >= cfg.hosts {
                    return Err(ConfigError::new(
                        "switches",
                        format!("switch {si} routes unknown host {dst} (hosts: {})", cfg.hosts),
                    ));
                }
                let port = link_port.get(link).copied().unwrap_or(NO_ROUTE) as usize;
                if !sw.ports.contains(&port) {
                    return Err(ConfigError::new(
                        "switches",
                        format!("switch {si} routes via link {link} it does not own"),
                    ));
                }
                let slot = &mut route_table[si * cfg.hosts + dst];
                if *slot == NO_ROUTE {
                    *slot = port as u32;
                }
            }
        }
        // CSR of incoming links per switch, each slice stably sorted by
        // link delay so one PAUSE event covers a run of equal delays.
        let mut incoming_off = vec![0u32; n_switches + 1];
        for l in &cfg.links {
            if let Endpoint::Switch(si) = l.to {
                incoming_off[si + 1] += 1;
            }
        }
        for si in 0..n_switches {
            incoming_off[si + 1] += incoming_off[si];
        }
        let mut incoming_links = vec![0u32; incoming_off[n_switches] as usize];
        let mut cursor: Vec<u32> = incoming_off[..n_switches].to_vec();
        for (li, l) in cfg.links.iter().enumerate() {
            if let Endpoint::Switch(si) = l.to {
                incoming_links[cursor[si] as usize] = li as u32;
                cursor[si] += 1;
            }
        }
        for si in 0..n_switches {
            let slice =
                &mut incoming_links[incoming_off[si] as usize..incoming_off[si + 1] as usize];
            slice.sort_by_key(|&li| cfg.links[li as usize].delay);
        }
        let n_flows = cfg.flows.len();
        let mut rps = Vec::with_capacity(n_flows);
        let mut feedback_delay = Vec::with_capacity(n_flows);
        for (fi, flow) in cfg.flows.iter().enumerate() {
            if flow.src_host >= cfg.hosts || flow.dst_host >= cfg.hosts {
                return Err(ConfigError::new(
                    "flows",
                    format!(
                        "flow {fi} references host {} -> {} outside 0..{}",
                        flow.src_host, flow.dst_host, cfg.hosts
                    ),
                ));
            }
            if host_uplink[flow.src_host].is_none() {
                return Err(ConfigError::new(
                    "flows",
                    format!("flow {fi} source host {} has no uplink", flow.src_host),
                ));
            }
            rps.push(flow.rp.map(|rp| match rp {
                RpSpec::Bcn(c) => Rp::Bcn(ReactionPoint::new(c, flow.initial_rate)),
                RpSpec::Qcn(c) => Rp::Qcn(QcnRp::new(c, flow.initial_rate)),
            }));
            feedback_delay.push(walk_path(
                &cfg,
                n_switches,
                &ports,
                &route_table,
                &host_uplink,
                fi,
                flow.src_host,
                flow.dst_host,
            )?);
        }
        let records = (cfg.t_end.as_secs() / cfg.record_interval.as_secs()).ceil() as usize + 2;
        let observed = match cfg.observe {
            None => None,
            Some(link) => {
                let port = match cfg.links.get(link).map(|l| l.from) {
                    Some(Endpoint::Switch(si)) => Some((si, link_port[link] as usize)),
                    _ => None,
                };
                let Some((si, pi)) = port else {
                    return Err(ConfigError::new(
                        "observe",
                        format!("observed link {link} is not a switch output port"),
                    ));
                };
                let (observed, port_obs) = Observed::new(&cfg, si, pi, records);
                ports[pi].obs = Some(Box::new(port_obs));
                Some(observed)
            }
        };

        let n_links = cfg.links.len();
        let mut events = std::mem::take(&mut ws.events);
        events.reset(cfg.scheduler);
        let mut fault_scratch = std::mem::take(&mut ws.fault_scratch);
        fault_scratch.clear();
        let mut sim = Self {
            events,
            now: Time::ZERO,
            switches,
            ports,
            n_hosts: cfg.hosts,
            route_table,
            incoming_off,
            incoming_links,
            link_paused_until: vec![[Time::ZERO; N_PRIORITIES]; n_links],
            rps,
            active: vec![false; n_flows],
            sending_scheduled: vec![false; n_flows],
            sent_bits: vec![0.0; n_flows],
            stats: vec![FlowStats::default(); n_flows],
            switch_queues: vec![TimeSeries::new(); n_switches],
            pause_counts: vec![0; n_links],
            feedback_messages: 0,
            flow_rt: cfg
                .flows
                .iter()
                .map(|f| {
                    let uplink = host_uplink[f.src_host].expect("checked above");
                    let l = &cfg.links[uplink];
                    FlowRt {
                        access_delay: Duration::serialization(cfg.frame_bits, l.capacity) + l.delay,
                        volume_bits: f.volume_bits.unwrap_or(f64::INFINITY),
                        to: l.to,
                        uplink: uplink as u32,
                        dst: f.dst_host as u32,
                        priority: f.priority,
                    }
                })
                .collect(),
            feedback_delay,
            jitter_state: (0..n_flows).map(|i| 0x9E37_79B9_7F4A_7C15 ^ (i as u64)).collect(),
            faults: FaultPlan::new(cfg.faults.clone()),
            fault_scratch,
            telemetry: None,
            flow_spans: vec![0; n_flows],
            pending_pauses: 0,
            record_just_fired: false,
            observed,
            cfg,
        };
        for series in &mut sim.switch_queues {
            series.reserve(records);
        }
        for fi in 0..n_flows {
            let start = sim.cfg.flows[fi].start;
            sim.schedule(start, Ev::FlowStart(fi));
            if let Some(stop) = sim.cfg.flows[fi].stop {
                sim.schedule(stop, Ev::FlowStop(fi));
            }
        }
        sim.schedule(Time::ZERO, Ev::Record);
        Ok(sim)
    }

    /// Attaches a telemetry sink; its shard comes back in the report.
    #[must_use]
    pub fn with_telemetry_sink(mut self, tel: Telemetry) -> Self {
        self.telemetry = Some(tel);
        self
    }

    /// Detaches the telemetry sink mid-run — the flight recorder a
    /// supervised batch salvages from a panicked or demoted seed. The
    /// eventual report (if any) carries `None` afterwards.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    /// Emits a fault-injection event (and bumps its `faults.*` counter)
    /// when a telemetry sink is attached; `target` is the flow, link or
    /// switch the fault hit.
    fn note_fault(&mut self, class: FaultClass, target: usize) {
        if let Some(tel) = self.telemetry.as_mut() {
            tel.fault_injected(self.now.as_secs(), class, target as u32);
        }
    }

    fn schedule(&mut self, time: Time, ev: Ev) {
        self.events.schedule(time, ev);
    }

    fn flow_rate(&self, fi: usize) -> f64 {
        match &self.rps[fi] {
            Some(rp) => rp.rate(),
            None => self.cfg.flows[fi].initial_rate,
        }
    }

    /// Sum of the active flows' rates, in flow order.
    fn aggregate_rate(&self) -> f64 {
        (0..self.cfg.flows.len()).filter(|&i| self.active[i]).map(|i| self.flow_rate(i)).sum()
    }

    /// Runs to completion.
    #[must_use]
    pub fn run(mut self) -> NetReport {
        while self.step() {}
        self.finish()
    }

    /// Advances by one event; `false` once the horizon is reached or the
    /// queue is drained. Exposed so supervised drivers (batch watchdogs,
    /// allocation gates) can interleave checks with the event loop.
    pub fn step(&mut self) -> bool {
        let Some((time, ev)) = self.events.pop() else { return false };
        if time > self.cfg.t_end {
            return false;
        }
        self.now = time;
        self.dispatch(ev);
        true
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The run configuration (switch specs excepted: each switch's
    /// spec moved into the engine at construction).
    pub(crate) fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Events dispatched so far (the supervision budget currency).
    #[must_use]
    pub fn events_popped(&self) -> u64 {
        self.events.stats().popped
    }

    /// Finalises the report after [`step`](Self::step) returns `false`.
    #[must_use]
    pub fn finish(mut self) -> NetReport {
        self.finalize().0
    }

    /// [`finish`](Self::finish), returning the engine's buffers to `ws`
    /// for the next run.
    #[must_use]
    pub fn finish_into(mut self, ws: &mut NetWorkspace) -> NetReport {
        let report = self.finalize().0;
        self.recycle(ws);
        report
    }

    /// Returns the event queue, fault scratch list and port FIFOs (in
    /// port and class order) to `ws`.
    fn recycle(mut self, ws: &mut NetWorkspace) {
        ws.events = self.events;
        ws.fault_scratch = self.fault_scratch;
        for port in &mut self.ports {
            for q in &mut port.queues {
                q.clear();
                ws.queues.push(std::mem::take(q));
            }
        }
    }

    /// Finalises the run into its report; the second half is the
    /// observed port's metrics, when the config names one.
    fn finalize(&mut self) -> (NetReport, Option<SimMetrics>) {
        for fi in 0..self.stats.len() {
            self.stats[fi].final_rate = self.flow_rate(fi);
        }
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
        let mut switch_queues = std::mem::take(&mut self.switch_queues);
        let faults = self.faults.take_counts();
        let metrics = self.observed.take().map(|obs| {
            let mut m = obs.metrics;
            if let Some(o) = self.ports[obs.port].obs.take() {
                m.delivered_frames = o.delivered_frames;
                m.delivered_bits = o.delivered_bits;
                m.queueing_delay = o.queueing_delay;
            }
            m.queue = std::mem::take(&mut switch_queues[obs.switch]);
            m.dropped_frames = self.stats.iter().map(|s| s.dropped_frames).sum();
            m.feedback_messages = self.feedback_messages;
            m.per_source_bits = self.stats.iter().map(|s| s.delivered_bits).collect();
            m.faults = faults.clone();
            m
        });
        let report = NetReport {
            flows: std::mem::take(&mut self.stats),
            switch_queues,
            pause_counts: std::mem::take(&mut self.pause_counts),
            feedback_messages: self.feedback_messages,
            faults,
            telemetry: self.telemetry.take(),
        };
        (report, metrics)
    }

    /// Finalises a run whose config names an observed port into the
    /// dumbbell's report parts: the bottleneck metrics (queue series of
    /// the port's switch), the final regulator rates, and the telemetry
    /// shard.
    pub(crate) fn finish_observed(
        mut self,
        ws: &mut NetWorkspace,
    ) -> (SimMetrics, Vec<f64>, Option<Telemetry>) {
        let (report, metrics) = self.finalize();
        self.recycle(ws);
        let metrics = metrics.expect("the dumbbell lowering names its bottleneck port");
        let final_rates = report.flows.iter().map(|f| f.final_rate).collect();
        (metrics, final_rates, report.telemetry)
    }

    /// Closes flow `fi`'s lifetime span, if one is open. Flows still
    /// active at the horizon keep their span open — the open-span stack
    /// is exactly "what was running", which is what the crash flight
    /// recorder wants to capture.
    fn end_flow_span(&mut self, fi: usize) {
        let id = std::mem::take(&mut self.flow_spans[fi]);
        if let Some(tel) = self.telemetry.as_mut() {
            tel.span_end(self.now.as_secs(), id);
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::FlowStart(fi) => {
                self.active[fi] = true;
                if let Some(tel) = self.telemetry.as_mut() {
                    let parent = tel.root_span();
                    self.flow_spans[fi] = tel.span_begin(
                        self.now.as_secs(),
                        SpanKind::FlowLifetime,
                        fi as u32,
                        parent,
                    );
                }
                if !self.sending_scheduled[fi] {
                    self.sending_scheduled[fi] = true;
                    // Deterministic per-flow offset breaks simultaneity.
                    self.schedule(self.now + Duration::from_nanos(fi as u64 + 1), Ev::HostSend(fi));
                }
            }
            Ev::FlowStop(fi) => {
                self.active[fi] = false;
                self.end_flow_span(fi);
            }
            Ev::HostSend(fi) => self.on_host_send(fi),
            Ev::ArriveSwitch { switch, frame } => {
                if !self.lost_on_wire(&frame) {
                    self.switch_ingress(switch as usize, frame);
                }
            }
            Ev::ArriveHost { host, frame } => {
                if !self.lost_on_wire(&frame) {
                    self.deliver(host as usize, &frame);
                }
            }
            Ev::Departure { port } => self.on_departure(port as usize),
            Ev::Resume { port } => self.start_tx(port as usize),
            Ev::Feedback { flow, msg } => {
                // A corrupted DA can point outside the flow set; such
                // misaddressed feedback dies on delivery.
                if let Some(Some(Rp::Bcn(rp))) = self.rps.get_mut(flow) {
                    rp.on_bcn(&msg);
                    self.feedback_messages += 1;
                    if let Some(tel) = self.telemetry.as_mut() {
                        tel.bcn_message(self.now.as_secs(), msg.sigma, flow as u32);
                    }
                }
            }
            Ev::QcnFeedback { flow, fb } => {
                if let Some(Some(Rp::Qcn(rp))) = self.rps.get_mut(flow) {
                    rp.on_feedback(&fb);
                    self.feedback_messages += 1;
                    if let Some(tel) = self.telemetry.as_mut() {
                        tel.qcn_message(self.now.as_secs(), fb.fb, flow as u32);
                    }
                }
            }
            Ev::PauseAt { from, to, priority, until } => {
                self.pending_pauses -= 1;
                for k in from as usize..to as usize {
                    let slots = &mut self.link_paused_until[self.incoming_links[k] as usize];
                    match priority {
                        Some(cls) => {
                            let slot = &mut slots[cls as usize];
                            *slot = (*slot).max(until);
                        }
                        None => {
                            for slot in slots {
                                *slot = (*slot).max(until);
                            }
                        }
                    }
                }
            }
            Ev::Record => self.on_record(),
        }
    }

    fn on_record(&mut self) {
        self.record_just_fired = true;
        let now = self.now.as_secs();
        let observed_switch = self.observed.as_ref().map(|o| o.switch);
        for (si, sw) in self.switches.iter().enumerate() {
            let backlog: f64 = self.ports[sw.ports.clone()].iter().map(|p| p.backlog).sum();
            self.switch_queues[si].push(self.now, backlog);
            if let Some(tel) = self.telemetry.as_mut() {
                if observed_switch == Some(si) {
                    // The bottleneck's switch also drives the
                    // single-queue occupancy gauge.
                    tel.queue_sample(now, backlog);
                } else {
                    tel.queue_sample_entity(now, si as u32, backlog);
                }
            }
        }
        if self.observed.is_some() {
            let agg = self.aggregate_rate();
            if let Some(obs) = self.observed.as_mut() {
                obs.metrics.aggregate_rate.push(self.now, agg);
            }
        }
        if self.observed.is_some() || self.telemetry.is_some() {
            for fi in 0..self.cfg.flows.len() {
                let r = if self.active[fi] { self.flow_rate(fi) } else { 0.0 };
                if let Some(obs) = self.observed.as_mut() {
                    obs.metrics.per_source_rate[fi].push(self.now, r);
                }
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.series_sample(SeriesKind::FlowRate, fi as u32, now, r);
                }
            }
        }
        if self.now + self.cfg.record_interval <= self.cfg.t_end {
            self.schedule(self.now + self.cfg.record_interval, Ev::Record);
        }
    }

    fn on_host_send(&mut self, fi: usize) {
        if !self.active[fi] {
            self.sending_scheduled[fi] = false;
            return;
        }
        let frame_bits = self.cfg.frame_bits;
        // Volume-limited (incast) flows end once their block is sent.
        let FlowRt { access_delay, volume_bits, uplink, to, priority, .. } = self.flow_rt[fi];
        if self.sent_bits[fi] + frame_bits > volume_bits {
            self.active[fi] = false;
            self.sending_scheduled[fi] = false;
            self.end_flow_span(fi);
            return;
        }
        let resume = self.link_paused_until[uplink as usize][usize::from(priority)];
        if resume > self.now {
            self.schedule(resume, Ev::HostSend(fi));
            return;
        }
        let rrt = match &self.rps[fi] {
            Some(Rp::Bcn(rp)) => rp.associated_cp(),
            _ => None,
        };
        let frame =
            NetFrame { bits: frame_bits, rrt, enqueued: self.now, flow: fi as u32, priority };
        self.sent_bits[fi] += frame_bits;
        self.send_over(to, access_delay, frame);
        if let Some(Rp::Qcn(rp)) = &mut self.rps[fi] {
            rp.on_bits_sent(frame_bits);
        }
        let rate = self.flow_rate(fi).max(1.0);
        let gap = if self.cfg.pacing_jitter {
            // Deterministic +/-2% pacing jitter (per-flow LCG) breaks
            // the phase-locking a perfectly periodic ensemble would
            // suffer at a full FIFO (where the same flow's frame would
            // be the one dropped every cycle).
            let st = &mut self.jitter_state[fi];
            *st =
                st.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let jitter = 0.98 + 0.04 * ((*st >> 11) as f64 / (1u64 << 53) as f64);
            Duration::from_secs(frame_bits / rate * jitter)
        } else {
            Duration::serialization(frame_bits, rate)
        };
        self.schedule(self.now + gap, Ev::HostSend(fi));
    }

    /// Per-link wire loss: a multi-hop frame faces one draw per hop.
    fn lost_on_wire(&mut self, frame: &NetFrame) -> bool {
        let lost = self.faults.is_active() && self.faults.data_frame_lost();
        if lost {
            self.note_fault(FaultClass::DataLoss, frame.flow as usize);
        }
        lost
    }

    /// Schedules `frame`'s arrival at the far end of a link.
    fn send_over(&mut self, to: Endpoint, delay: Duration, frame: NetFrame) {
        let at = self.now + delay;
        match to {
            Endpoint::Switch(si) => {
                self.schedule(at, Ev::ArriveSwitch { switch: si as u32, frame })
            }
            Endpoint::Host(h) => self.schedule(at, Ev::ArriveHost { host: h as u32, frame }),
        }
    }

    fn deliver(&mut self, host: usize, frame: &NetFrame) {
        let fi = frame.flow as usize;
        if host == self.flow_rt[fi].dst as usize {
            self.stats[fi].delivered_bits += frame.bits;
        }
    }

    fn drop_frame(&mut self, frame: &NetFrame) {
        self.stats[frame.flow as usize].dropped_frames += 1;
        if let Some(tel) = self.telemetry.as_mut() {
            tel.frame_dropped(self.now.as_secs(), frame.flow);
        }
    }

    /// Emits a threshold-crossing event when the observed port's backlog
    /// moves across the switch's PAUSE threshold.
    fn note_threshold(&mut self, pi: usize, prev: f64, q: f64) {
        let Some(tel) = self.telemetry.as_mut() else { return };
        if !self.cfg.pause.enabled {
            return;
        }
        let thr = self.ports[pi].qsc_bits;
        if prev < thr && q >= thr {
            tel.queue_threshold(self.now.as_secs(), q, thr, true);
        } else if prev >= thr && q < thr {
            tel.queue_threshold(self.now.as_secs(), q, thr, false);
        }
    }

    fn switch_ingress(&mut self, si: usize, frame: NetFrame) {
        let dst = self.flow_rt[frame.flow as usize].dst as usize;
        // One indexed load; construction-time validation guarantees a
        // route exists for every flow's destination, so the sentinel
        // check is pure defence in depth.
        let pi = self.route_table[si * self.n_hosts + dst];
        if pi == NO_ROUTE {
            self.drop_frame(&frame);
            return;
        }
        let now = self.now;
        let port = &mut self.ports[pi as usize];
        let prev = port.backlog;
        if prev + frame.bits > port.buffer_bits {
            self.drop_frame(&frame);
            return;
        }
        // Enqueue into the frame's priority class.
        let cls = usize::from(frame.priority);
        let df = DataFrame { src: SourceId(frame.flow), bits: frame.bits, rrt: frame.rrt };
        port.enqueue(NetFrame { enqueued: now, ..frame });
        let (port_backlog, class_backlog, qsc) =
            (port.backlog, port.class_backlog[cls], port.qsc_bits);
        let mut bcn = None;
        let mut qcn = None;
        match port.cp.as_deref_mut() {
            Some(Cp::Bcn(cp)) => bcn = cp.on_arrival(&df, port_backlog),
            Some(Cp::Qcn(cp)) => qcn = cp.on_arrival(df.src, port_backlog),
            None => {}
        }
        let observed = port.obs.is_some();
        let pi = pi as usize;
        if observed {
            self.note_threshold(pi, prev, port_backlog);
        }
        if let Some(msg) = bcn {
            self.send_bcn(msg);
        }
        if let Some(fb) = qcn {
            let flow = fb.dst.0 as usize;
            self.schedule(self.now + self.feedback_delay[flow], Ev::QcnFeedback { flow, fb });
        }
        // PAUSE when the relevant backlog crosses the threshold: under
        // PFC the congested class's backlog pauses only that class.
        if self.cfg.pause.enabled {
            if self.cfg.pause.per_priority {
                if class_backlog > qsc {
                    self.assert_pause(si, Some(cls as u8));
                }
            } else if port_backlog > qsc {
                self.assert_pause(si, None);
            }
        }
        // Kick the port if idle.
        if !self.ports[pi].busy {
            self.ports[pi].busy = true;
            self.start_tx(pi);
        }
    }

    /// Passes a BCN message through the fault layer and schedules its
    /// delivery to the sampled flow.
    fn send_bcn(&mut self, msg: BcnMessage) {
        // The scratch list lives in the engine so the fault path
        // allocates nothing per message.
        let mut injected = std::mem::take(&mut self.fault_scratch);
        let fate = self.faults.feedback_fate_into(&msg, &mut injected);
        for &class in &injected {
            self.note_fault(class, msg.dst.0 as usize);
        }
        injected.clear();
        self.fault_scratch = injected;
        if let FeedbackFate::Deliver { msg, extra } = fate {
            let flow = msg.dst.0 as usize;
            // Corruption can re-address the message beyond the flow
            // set; keep it schedulable and let delivery discard it.
            let delay = self.feedback_delay.get(flow).copied().unwrap_or(Duration::ZERO);
            self.schedule(self.now + delay + extra, Ev::Feedback { flow, msg });
        }
    }

    /// Pauses every link into switch `si` (one class under PFC) for one
    /// hold, at most once per hold.
    fn assert_pause(&mut self, si: usize, priority: Option<u8>) {
        let can_fire = match self.switches[si].last_pause {
            Some(t) => self.now.saturating_sub(t) >= self.cfg.pause.hold,
            None => true,
        };
        if !can_fire {
            return;
        }
        self.switches[si].last_pause = Some(self.now);
        if let Some(obs) = self.observed.as_mut().filter(|o| o.switch == si) {
            obs.metrics.pause_events += 1;
        }
        let (hold, stormed) = self.faults.pause_hold(self.cfg.pause.hold);
        if stormed {
            self.note_fault(FaultClass::PauseStorm, si);
        }
        let (lo, hi) = (self.incoming_off[si] as usize, self.incoming_off[si + 1] as usize);
        let mut k = lo;
        while k < hi {
            let delay = self.cfg.links[self.incoming_links[k] as usize].delay;
            let deliver = self.now + delay;
            let until = deliver + hold;
            let mut end = k;
            while end < hi && self.cfg.links[self.incoming_links[end] as usize].delay == delay {
                let li = self.incoming_links[end] as usize;
                self.pause_counts[li] += 1;
                // Each paused link gets its own PAUSE-episode span, so an
                // upstream cascade renders as a burst of sibling bands.
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.pause(deliver.as_secs(), until.as_secs(), li as u32);
                }
                end += 1;
            }
            self.pending_pauses += 1;
            let (from, to) = (k as u32, end as u32);
            self.schedule(deliver, Ev::PauseAt { from, to, priority, until });
            k = end;
        }
    }

    /// Starts serializing the next frame of a busy port: round-robin
    /// over the backlogged classes that are not paused. When every
    /// backlogged class is paused the port retries at the earliest
    /// resume; when nothing is queued it goes idle.
    fn start_tx(&mut self, pi: usize) {
        let port = &mut self.ports[pi];
        let link = port.link as usize;
        let paused = &self.link_paused_until[link];
        let mut chosen = None;
        let mut earliest_resume: Option<Time> = None;
        // Backlogged classes in round-robin order from `rr_next`: bit
        // `k` of the rotated mask is class `rr_next + k`.
        let rr_next = usize::from(port.rr_next);
        let mut pending = port.backlogged.rotate_right(rr_next as u32);
        while pending != 0 {
            let cls = (rr_next + pending.trailing_zeros() as usize) % N_PRIORITIES;
            pending &= pending - 1;
            if paused[cls] > self.now {
                earliest_resume = Some(earliest_resume.map_or(paused[cls], |t| t.min(paused[cls])));
                continue;
            }
            chosen = Some(cls);
            break;
        }
        let Some(cls) = chosen else {
            match earliest_resume {
                Some(resume) => self.schedule(resume, Ev::Resume { port: pi as u32 }),
                None => port.busy = false,
            }
            return;
        };
        port.rr_next = ((cls + 1) % N_PRIORITIES) as u8;
        port.serving = cls as u8;
        let bits = port.queues[cls].front().expect("chosen class is backlogged").bits;
        let frame_ser = port.frame_ser;
        // Link flaps defer the transmission start past the down window.
        let mut start = self.now;
        if self.faults.is_active() {
            if let Some(up) = self.faults.link_up_at(self.now) {
                self.note_fault(FaultClass::LinkFlap, link);
                start = up;
            }
        }
        let ser = if bits == self.cfg.frame_bits {
            frame_ser
        } else {
            Duration::serialization(bits, self.cfg.links[link].capacity)
        };
        self.schedule(start + ser, Ev::Departure { port: pi as u32 });
    }

    /// The serving class's head frame has left the port: release its
    /// buffer, forward it, and start the next one.
    fn on_departure(&mut self, pi: usize) {
        let now = self.now;
        let port = &mut self.ports[pi];
        let prev = port.backlog;
        let frame = port.dequeue();
        let (q, to, delay) = (port.backlog, port.to, port.delay);
        if let Some(Cp::Bcn(cp)) = port.cp.as_deref_mut() {
            cp.on_departure(frame.bits);
        }
        if let Some(o) = &mut port.obs {
            o.delivered_frames += 1;
            o.delivered_bits += frame.bits;
            o.queueing_delay.push(now.saturating_sub(frame.enqueued).as_secs());
            self.note_threshold(pi, prev, q);
        }
        match to {
            // The last hop to the destination over a zero-delay link
            // needs no event of its own.
            Endpoint::Host(h) if delay == Duration::ZERO => self.deliver(h, &frame),
            _ => self.send_over(to, delay, frame),
        }
        self.start_tx(pi);
    }
}

impl Observed {
    fn new(cfg: &NetConfig, switch: usize, port: usize, records: usize) -> (Self, PortObs) {
        let n = cfg.flows.len();
        // Size every buffer that grows with the run up front, so the
        // steady state allocates nothing (`tests/zero_alloc.rs` gates
        // on this): the series one sample per record tick, the delay
        // samples one per
        // deliverable frame (capped — pathological horizons fall back
        // to amortized growth rather than huge up-front reserves).
        let link = cfg.observe.expect("observed port");
        let deliverable =
            (cfg.t_end.as_secs() * cfg.links[link].capacity / cfg.frame_bits).ceil().min(1e6);
        let mut metrics = SimMetrics::default();
        metrics.aggregate_rate.reserve(records);
        let mut queueing_delay = SampleSet::new();
        queueing_delay.reserve(deliverable as usize + 16);
        metrics.per_source_rate = vec![TimeSeries::new(); n];
        for series in &mut metrics.per_source_rate {
            series.reserve(records);
        }
        let port_obs = PortObs { delivered_frames: 0, delivered_bits: 0.0, queueing_delay };
        (Self { switch, port, metrics }, port_obs)
    }
}

/// Hooks for the hybrid co-simulator (`crate::hybrid`) on one-switch
/// configs with an observed bottleneck port: record-grid epoch marks,
/// fluid-state extraction, fast-forward bookkeeping and fluid→packet
/// re-seeding. All crate-private — the public surface stays
/// event-driven.
impl NetSim {
    fn observed_ref(&self) -> &Observed {
        self.observed.as_ref().expect("hybrid hooks need an observed port")
    }

    /// Consumes the "a `Record` event just dispatched" mark. The hybrid
    /// epoch controller runs exactly at record-grid ticks so that every
    /// fast-forward span is an integer number of record intervals and
    /// the sampled series stay grid-dense and comparable.
    pub(crate) fn take_record_mark(&mut self) -> bool {
        std::mem::take(&mut self.record_just_fired)
    }

    /// The telemetry sink, if attached.
    pub(crate) fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_mut()
    }

    /// Projects the packet state onto the fluid coordinates: the
    /// observed port's exact backlog (bits) and the aggregate regulator
    /// rate (bit/s), summed over active flows in index order. The
    /// hybrid engine adds its re-seed residue to make the projection
    /// round-trip bit-exactly.
    pub(crate) fn fluid_state(&self) -> [f64; 2] {
        let obs = self.observed_ref();
        let q = self.ports[obs.port].backlog;
        [q, self.aggregate_rate()]
    }

    /// Whether the run is in a state the fluid model can stand in for:
    /// a fluid-calibrated BCN congestion point on the observed port (no
    /// FB quantizer, ungated positive feedback) with BCN regulators on
    /// every flow, no fault injection, no PAUSE asserted or in flight,
    /// and a steady homogeneous workload (every flow active, none
    /// volume-limited or scheduled to stop). Everything here is a
    /// *structural* guard; the dynamic guards (switching-line distance,
    /// queue margins) live in the epoch controller.
    pub(crate) fn hybrid_quiescent(&self) -> bool {
        let Some(obs) = &self.observed else { return false };
        let cp_ok = match self.ports[obs.port].cp.as_deref() {
            Some(Cp::Bcn(cp)) => {
                let c = cp.config();
                c.fb_quant.is_none() && !c.gate_positive
            }
            _ => false,
        };
        cp_ok
            && self.rps.iter().all(|rp| matches!(rp, Some(Rp::Bcn(_))))
            && !self.cfg.faults.enabled()
            && self.pending_pauses == 0
            && self.link_paused_until.iter().all(|p| p.iter().all(|&t| t <= self.now))
            && self.active.iter().all(|&a| a)
            && self.cfg.flows.iter().all(|f| f.stop.is_none() && f.volume_bits.is_none())
    }

    /// Pushes one fluid-integrated record-grid sample, mirroring the
    /// `Record` dispatch arm (queue gauge and series, aggregate rate,
    /// per-flow rate series at the fluid fair share) so fast-forwarded
    /// stretches stay sample-for-sample comparable with
    /// packet-simulated ones.
    pub(crate) fn hybrid_record_sample(&mut self, t: Time, q_bits: f64, w_agg: f64) {
        if let Some(tel) = self.telemetry.as_mut() {
            tel.queue_sample(t.as_secs(), q_bits);
        }
        let n = self.cfg.flows.len();
        let obs = self.observed.as_mut().expect("hybrid hooks need an observed port");
        self.switch_queues[obs.switch].push(t, q_bits);
        obs.metrics.aggregate_rate.push(t, w_agg);
        let per = w_agg / n as f64;
        for i in 0..n {
            obs.metrics.per_source_rate[i].push(t, per);
            if let Some(tel) = self.telemetry.as_mut() {
                tel.series_sample(SeriesKind::FlowRate, i as u32, t.as_secs(), per);
            }
        }
    }

    /// Credits delivery totals for a fast-forwarded span: with the
    /// epoch guards holding, `0 < q` throughout, so the port serves at
    /// capacity and exactly `C * secs` bits leave the queue (the fluid
    /// identity `outflow = inflow - dq`). Split evenly across flows
    /// (the workload is homogeneous under the guards); per-frame
    /// queueing-delay samples do not accrue inside an epoch.
    pub(crate) fn hybrid_credit_delivery(&mut self, secs: f64) {
        let port = &mut self.ports[self.observed.as_ref().expect("observed port").port];
        let bits = self.cfg.links[port.link as usize].capacity * secs;
        let obs = port.obs.as_mut().expect("the observed port carries its observables");
        obs.delivered_bits += bits;
        obs.delivered_frames += (bits / self.cfg.frame_bits).round() as u64;
        let per = bits / self.stats.len() as f64;
        for s in &mut self.stats {
            s.delivered_bits += per;
        }
    }

    /// Re-seeds the packet engine from fluid state at an epoch boundary
    /// `t`: regulator rates to the fair share of `w_agg` (clamped), the
    /// observed port's backlog to exactly `q_bits` (FIFO rebuilt as
    /// whole frames round-robin across flows plus one partial-frame
    /// remainder, all in flow 0's class), congestion-point sampling
    /// interval restarted, and the event set re-populated (per-flow
    /// sends, the departure of the queue head, the next record tick)
    /// through the stats-preserving [`EventQueue::clear_pending`] so the
    /// wheel's slab arena is reused. In-flight events discarded here —
    /// frames and feedback already on the wire — are the documented
    /// divergence budget of an epoch switch.
    ///
    /// Returns the rate residue `w_agg - sum(clamped rates)`; adding it
    /// back to [`NetSim::fluid_state`]'s aggregate reproduces `w_agg`
    /// bit-exactly (Sterbenz: the sum is within a factor of two of
    /// `w_agg`).
    pub(crate) fn reseed_fluid(&mut self, t: Time, q_bits: f64, w_agg: f64) -> f64 {
        self.now = t;
        let n = self.cfg.flows.len();
        let base = w_agg / n as f64;
        for rp in &mut self.rps {
            let Some(Rp::Bcn(rp)) = rp else {
                unreachable!("hybrid re-seed requires BCN control (guarded)");
            };
            rp.set_rate(base);
        }
        let pi = self.observed_ref().port;
        let frame_bits = self.cfg.frame_bits;
        let cls = usize::from(self.cfg.flows[0].priority);
        let full = (q_bits / frame_bits).floor() as usize;
        let rem = q_bits - full as f64 * frame_bits;
        let port = &mut self.ports[pi];
        if let Some(Cp::Bcn(cp)) = port.cp.as_deref_mut() {
            cp.restart_interval();
        }
        for q in &mut port.queues {
            q.clear();
        }
        let rrt = |src: usize| match &self.rps[src] {
            Some(Rp::Bcn(rp)) => rp.associated_cp(),
            _ => None,
        };
        for j in 0..=full {
            let bits = if j < full { frame_bits } else { rem };
            if bits > 0.0 {
                let src = j % n;
                let (flow, priority) = (src as u32, cls as u8);
                let frame = NetFrame { bits, rrt: rrt(src), enqueued: t, flow, priority };
                port.queues[cls].push_back(frame);
            }
        }
        // Exactly `q_bits`, not the sum of the rebuilt frames.
        port.backlog = q_bits;
        port.class_backlog = [0.0; N_PRIORITIES];
        port.class_backlog[cls] = q_bits;
        port.backlogged = if port.queues[cls].is_empty() { 0 } else { 1 << cls };
        self.events.clear_pending();
        self.pending_pauses = 0;
        port.busy = port.backlogged != 0;
        if port.busy {
            self.start_tx(pi);
        }
        for i in 0..n {
            self.sending_scheduled[i] = true;
            self.schedule(t + Duration::from_nanos(i as u64 + 1), Ev::HostSend(i));
        }
        if t + self.cfg.record_interval <= self.cfg.t_end {
            self.schedule(t + self.cfg.record_interval, Ev::Record);
        }
        w_agg - self.aggregate_rate()
    }
}

/// Walks a flow's forward path through the next-hop tables, validating
/// it delivers to `dst_host` within a loop-free number of hops, and
/// returns the summed link delay (used as the feedback delay
/// approximation).
#[allow(clippy::too_many_arguments)]
fn walk_path(
    cfg: &NetConfig,
    n_switches: usize,
    ports: &[Port],
    route_table: &[u32],
    host_uplink: &[Option<usize>],
    fi: usize,
    src_host: usize,
    dst_host: usize,
) -> Result<Duration, ConfigError> {
    let uplink = host_uplink[src_host].expect("caller checked the source uplink");
    let mut delay = cfg.links[uplink].delay;
    let mut at = cfg.links[uplink].to;
    for _ in 0..n_switches + 1 {
        match at {
            Endpoint::Host(h) => {
                if h == dst_host {
                    return Ok(delay);
                }
                return Err(ConfigError::new(
                    "flows",
                    format!("flow {fi} ({src_host} -> {dst_host}) is routed to host {h} instead"),
                ));
            }
            Endpoint::Switch(si) => {
                let port = route_table[si * cfg.hosts + dst_host];
                if port == NO_ROUTE {
                    return Err(ConfigError::new(
                        "flows",
                        format!(
                            "flow {fi} ({src_host} -> {dst_host}) is unroutable: \
                             switch {si} has no route to host {dst_host}"
                        ),
                    ));
                }
                let link = ports[port as usize].link as usize;
                delay = delay + cfg.links[link].delay;
                at = cfg.links[link].to;
            }
        }
    }
    Err(ConfigError::new(
        "flows",
        format!("flow {fi} ({src_host} -> {dst_host}) never reaches its destination: routing loop"),
    ))
}

/// Builds the paper-Introduction victim scenario:
///
/// ```text
/// culprits c_0..c_{n-1} ─┐
///                        ├─ S1 ──trunk──> S2 ──bottleneck──> sink_c
/// victim v ──────────────┘                 └────victim_link──> sink_v
/// ```
///
/// Culprits all send to `sink_c` behind the quarter-capacity bottleneck
/// (offering twice its capacity but only half the trunk's, so the trunk
/// itself is uncongested); the victim sends to `sink_v` over an
/// uncongested port but shares the trunk. Returns
/// `(config, victim flow index)`.
///
/// `bcn` supplies the congestion-point/reaction-point pair to install on
/// the bottleneck port and culprit/victim sources; `None` runs
/// unmanaged sources (PAUSE-only or drop-tail per `pause`).
#[must_use]
pub fn victim_topology(
    n_culprits: usize,
    trunk_capacity: f64,
    frame_bits: f64,
    prop: Duration,
    t_end: f64,
    pause: PauseConfig,
    bcn: Option<(CpConfig, RpConfig)>,
) -> (NetConfig, usize) {
    switch_chain(2, n_culprits, trunk_capacity, frame_bits, prop, t_end, pause, bcn)
}

/// Builds a three-switch chain that lets PAUSE cascade two hops
/// upstream:
///
/// ```text
/// culprits ──┐
///            ├─ S0 ──trunk0── S1 ──trunk1── S2 ──bottleneck──> sink_c
/// victim ────┘                                └──victim_link──> sink_v
/// ```
///
/// Culprits and the victim all enter at S0, two switches away from the
/// hotspot (S2's quarter-rate leaf port). Under PAUSE the congestion
/// rolls back hop by hop — S2 pauses trunk1, S1's backlog pauses
/// trunk0, S0's backlog pauses every access link — and the victim
/// starves despite its own egress being idle. Returns `(config, victim
/// flow index)`.
#[must_use]
pub fn parking_lot_topology(
    n_culprits: usize,
    trunk_capacity: f64,
    frame_bits: f64,
    prop: Duration,
    t_end: f64,
    pause: PauseConfig,
    bcn: Option<(CpConfig, RpConfig)>,
) -> (NetConfig, usize) {
    switch_chain(3, n_culprits, trunk_capacity, frame_bits, prop, t_end, pause, bcn)
}

/// The chain behind [`victim_topology`] and [`parking_lot_topology`]:
/// culprits and the victim enter at the first of `n_switches` switches
/// joined by full-rate trunks; the last switch feeds the quarter-rate
/// bottleneck to `sink_c` and the full-rate victim link to `sink_v`.
/// Route tables come from [`crate::topo::auto_routes`]; the bottleneck's
/// congestion point is `CpId(n_switches)`.
#[allow(clippy::too_many_arguments)]
fn switch_chain(
    n_switches: usize,
    n_culprits: usize,
    trunk_capacity: f64,
    frame_bits: f64,
    prop: Duration,
    t_end: f64,
    pause: PauseConfig,
    bcn: Option<(CpConfig, RpConfig)>,
) -> (NetConfig, usize) {
    let victim_host = n_culprits;
    let sink_c = n_culprits + 1;
    let sink_v = n_culprits + 2;
    let n_hosts = n_culprits + 3;
    let last = n_switches - 1;
    let link = |from, to, capacity| LinkSpec { from, to, capacity, delay: prop };

    // Access links (culprits and victim -> first switch), generous capacity.
    let mut links: Vec<LinkSpec> = (0..=n_culprits)
        .map(|h| link(Endpoint::Host(h), Endpoint::Switch(0), 4.0 * trunk_capacity))
        .collect();
    for s in 0..last {
        links.push(link(Endpoint::Switch(s), Endpoint::Switch(s + 1), trunk_capacity));
    }
    let bottleneck = links.len();
    links.push(link(Endpoint::Switch(last), Endpoint::Host(sink_c), 0.25 * trunk_capacity));
    links.push(link(Endpoint::Switch(last), Endpoint::Host(sink_v), trunk_capacity));

    let buffer = 60.0 * frame_bits;
    let switches = crate::topo::auto_routes(n_hosts, n_switches, &links)
        .into_iter()
        .enumerate()
        .map(|(s, routes)| SwitchSpec {
            buffer_bits: buffer,
            qsc_bits: 0.6 * buffer,
            routes,
            cps: match &bcn {
                Some((cp, _)) if s == last => vec![(
                    bottleneck,
                    CpSpec::Bcn(CpConfig { cpid: CpId(n_switches as u64), ..*cp }),
                )],
                _ => Vec::new(),
            },
        })
        .collect();

    let rp = bcn.as_ref().map(|(_, rp)| RpSpec::Bcn(*rp));
    let flow = |src_host, dst_host, initial_rate| NetFlow {
        src_host,
        dst_host,
        initial_rate,
        rp,
        priority: 0,
        start: Time::ZERO,
        stop: None,
        volume_bits: None,
    };
    // Culprits collectively offer half the trunk: 2x the bottleneck,
    // but leaving the trunks themselves uncongested.
    let mut flows: Vec<NetFlow> = (0..n_culprits)
        .map(|h| flow(h, sink_c, 0.5 * trunk_capacity / n_culprits as f64))
        .collect();
    let victim = flows.len();
    flows.push(flow(victim_host, sink_v, 0.25 * trunk_capacity));

    let cfg = NetConfig {
        hosts: n_hosts,
        switches,
        links,
        flows,
        frame_bits,
        t_end: Time::from_secs(t_end),
        record_interval: Duration::from_secs(t_end / 2000.0),
        pause,
        faults: FaultConfig::none(),
        scheduler: Scheduler::default(),
        observe: None,
        pacing_jitter: true,
    };
    (cfg, victim)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRUNK: f64 = 1.0e9;
    const FRAME: f64 = 8_000.0;

    fn bcn_pair() -> (CpConfig, RpConfig) {
        // Calibrated like sim::from_fluid for the bottleneck at TRUNK/2.
        let q0 = 10.0 * FRAME;
        let cp = CpConfig {
            cpid: CpId(2),
            q0_bits: q0,
            qsc_bits: 50.0 * FRAME,
            w: 2.0 / FRAME * 100.0,
            sample_every: 5,
            fb_quant: None,
            gate_positive: false,
        };
        let rp = RpConfig {
            gi: 0.5,
            gd: 1.0 / 512.0,
            ru: 1.0e4,
            gain_scale: FRAME * 4.0 / (0.2 * TRUNK),
            r_min: TRUNK * 1e-6,
            r_max: TRUNK,
        };
        (cp, rp)
    }

    fn run_victim(
        pause_enabled: bool,
        bcn: Option<(CpConfig, RpConfig)>,
    ) -> (NetReport, usize, f64) {
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: pause_enabled,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (cfg, victim) =
            victim_topology(4, TRUNK, FRAME, Duration::from_secs(1e-6), t_end, pause, bcn);
        (NetSim::new(cfg).run(), victim, t_end)
    }

    #[test]
    fn droptail_drops_culprits_but_victim_flows() {
        let (report, victim, t_end) = run_victim(false, None);
        let culprit_drops: u64 = report.flows[..victim].iter().map(|f| f.dropped_frames).sum();
        assert!(culprit_drops > 0, "culprits must overflow the bottleneck");
        // Victim path is uncongested: near-full throughput, no drops.
        let vt = report.throughput(victim, t_end);
        assert!(vt > 0.22 * TRUNK, "victim throughput {vt}");
        assert_eq!(report.flows[victim].dropped_frames, 0);
    }

    #[test]
    fn pause_spreads_congestion_to_the_victim() {
        let (report, victim, t_end) = run_victim(true, None);
        // PAUSE keeps the loss down but stalls the shared trunk: the
        // innocent victim loses throughput (head-of-line blocking).
        let vt = report.throughput(victim, t_end);
        assert!(vt < 0.2 * TRUNK, "victim should be collateral damage under PAUSE: {vt}");
        // And PAUSE propagated upstream: both S2's and S1's ingress links
        // got paused.
        assert!(report.pause_counts.iter().sum::<u64>() > 0);
        let trunk_pauses = report.pause_counts[5]; // trunk link index
        assert!(trunk_pauses > 0, "trunk never paused: {:?}", report.pause_counts);
    }

    #[test]
    fn bcn_shields_the_victim() {
        let (report, victim, t_end) = run_victim(true, Some(bcn_pair()));
        let vt = report.throughput(victim, t_end);
        assert!(vt > 0.22 * TRUNK, "BCN should shield the victim: {vt} vs 0.25 target");
        // Culprit sources got regulated towards the bottleneck fair
        // share (TRUNK/8 each).
        assert!(report.feedback_messages > 0);
        for f in &report.flows[..victim] {
            assert!(f.final_rate < 0.3 * TRUNK, "culprit not regulated: {}", f.final_rate);
        }
    }

    #[test]
    fn conservation_per_flow() {
        let (report, victim, t_end) = run_victim(false, None);
        for (i, f) in report.flows.iter().enumerate() {
            // Delivered cannot exceed offered.
            let offered = self_offered(i, victim, t_end);
            assert!(
                f.delivered_bits <= offered * 1.01 + FRAME,
                "flow {i}: delivered {} > offered {offered}",
                f.delivered_bits
            );
        }
    }

    fn self_offered(i: usize, victim: usize, t_end: f64) -> f64 {
        let rate = if i == victim { 0.25 * TRUNK } else { 0.5 * TRUNK / 4.0 };
        rate * t_end
    }

    #[test]
    fn determinism() {
        let (a, _, _) = run_victim(true, Some(bcn_pair()));
        let (b, _, _) = run_victim(true, Some(bcn_pair()));
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.pause_counts, b.pause_counts);
    }

    #[test]
    fn rejects_unroutable_flow_at_construction() {
        // Remove S1's route to sink_c: the culprit flows become
        // unroutable and construction must say so (previously every
        // frame was silently dropped at forward time instead).
        let (mut cfg, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        let sink_c = cfg.hosts - 2;
        cfg.switches[0].routes.retain(|(d, _)| *d != sink_c);
        let err = NetSim::try_new(cfg).expect_err("must reject the unroutable flow");
        assert_eq!(err.field, "flows");
        assert!(err.reason.contains("unroutable"), "unexpected reason: {}", err.reason);
    }

    #[test]
    fn rejects_misdelivering_route_at_construction() {
        // Point S2's sink_c route at the victim sink: the flow "arrives"
        // somewhere, just not at its destination.
        let (mut cfg, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        let sink_c = cfg.hosts - 2;
        let victim_link = cfg.links.len() - 1;
        for r in &mut cfg.switches[1].routes {
            if r.0 == sink_c {
                r.1 = victim_link;
            }
        }
        let err = NetSim::try_new(cfg).expect_err("must reject the misdelivering route");
        assert_eq!(err.field, "flows");
        assert!(err.reason.contains("instead"), "unexpected reason: {}", err.reason);
    }

    #[test]
    fn rejects_routing_loop_at_construction() {
        // S1 and S2 bounce sink_c traffic between each other forever.
        let (mut cfg, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        let sink_c = cfg.hosts - 2;
        let back = cfg.links.len();
        cfg.links.push(LinkSpec {
            from: Endpoint::Switch(1),
            to: Endpoint::Switch(0),
            capacity: TRUNK,
            delay: Duration::from_secs(1e-6),
        });
        for r in &mut cfg.switches[1].routes {
            if r.0 == sink_c {
                r.1 = back;
            }
        }
        let err = NetSim::try_new(cfg).expect_err("must reject the routing loop");
        assert_eq!(err.field, "flows");
        assert!(err.reason.contains("loop"), "unexpected reason: {}", err.reason);
    }

    #[test]
    fn rejects_route_over_foreign_link() {
        let (mut cfg, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        // S1 claims a route over S2's bottleneck link.
        let bottleneck = cfg.links.len() - 2;
        cfg.switches[0].routes[0].1 = bottleneck;
        let err = NetSim::try_new(cfg).expect_err("must reject the foreign link");
        assert_eq!(err.field, "switches");
        assert!(err.reason.contains("does not own"), "unexpected reason: {}", err.reason);
    }

    /// The two-culprit victim chain with PAUSE off, for the validation
    /// repros below.
    fn small_victim() -> NetConfig {
        let pause = PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false };
        victim_topology(2, TRUNK, FRAME, Duration::from_secs(1e-6), 0.1, pause, None).0
    }

    fn rejected_field(cfg: NetConfig) -> &'static str {
        NetSim::try_new(cfg).expect_err("must be rejected at construction").field
    }

    #[test]
    fn rejects_zero_frame_size_instead_of_livelocking() {
        let mut cfg = small_victim();
        cfg.frame_bits = 0.0;
        assert_eq!(rejected_field(cfg), "frame_bits");
    }

    #[test]
    fn rejects_zero_record_interval_instead_of_livelocking() {
        let mut cfg = small_victim();
        cfg.record_interval = Duration::ZERO;
        assert_eq!(rejected_field(cfg), "record_interval");
    }

    #[test]
    fn rejects_zero_link_capacity_instead_of_panicking() {
        let mut cfg = small_victim();
        cfg.links[0].capacity = 0.0;
        assert_eq!(rejected_field(cfg), "links.capacity");
    }

    #[test]
    fn rejects_out_of_range_priority_instead_of_panicking() {
        let mut cfg = small_victim();
        cfg.flows[0].priority = 9;
        assert_eq!(rejected_field(cfg), "flows.priority");
    }

    #[test]
    fn rejects_invalid_rates_buffers_and_observed_ports() {
        let mut cfg = small_victim();
        cfg.flows[1].initial_rate = f64::NAN;
        assert_eq!(rejected_field(cfg), "flows.initial_rate");
        let mut cfg = small_victim();
        cfg.switches[1].buffer_bits = FRAME / 2.0;
        assert_eq!(rejected_field(cfg), "buffer_bits");
        let mut cfg = small_victim();
        cfg.observe = Some(0); // a host's access link, not a switch port
        assert_eq!(rejected_field(cfg), "observe");
    }

    #[test]
    fn infinite_capacity_links_serialize_in_zero_time() {
        let mut cfg = small_victim();
        for l in cfg.links.iter_mut().filter(|l| matches!(l.from, Endpoint::Host(_))) {
            l.capacity = f64::INFINITY;
        }
        let report = NetSim::try_new(cfg).expect("+inf capacity is valid").run();
        assert!(report.flows.iter().all(|f| f.delivered_bits > 0.0));
    }

    #[test]
    #[should_panic(expected = "no uplink")]
    fn rejects_source_without_uplink() {
        let (mut cfg, _) = victim_topology(
            2,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            PauseConfig { enabled: false, hold: Duration::ZERO, per_priority: false },
            None,
        );
        // Point a flow at a sink host (no uplink) as source.
        cfg.flows[0].src_host = cfg.hosts - 1;
        let _ = NetSim::new(cfg);
    }

    #[test]
    fn pfc_isolates_priority_classes() {
        // Same victim scenario, but the victim rides priority class 1
        // while the culprits congest class 0. Per-priority PAUSE (PFC)
        // pauses only the storage class: the victim keeps its full
        // throughput, and the fabric stays lossless — the cross-class
        // fix 802.1Qbb provides without any end-to-end control loop.
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: true,
        };
        let (mut cfg, victim) =
            victim_topology(4, TRUNK, FRAME, Duration::from_secs(1e-6), t_end, pause, None);
        cfg.flows[victim].priority = 1;
        let report = NetSim::new(cfg).run();
        let vt = report.throughput(victim, t_end);
        assert!(vt > 0.22 * TRUNK, "PFC should isolate the victim's class: {vt}");
        let total_drops: u64 = report.flows.iter().map(|f| f.dropped_frames).sum();
        assert_eq!(total_drops, 0, "PFC run must stay lossless");
        assert!(report.pause_counts.iter().sum::<u64>() > 0, "culprit class was paused");
    }

    #[test]
    fn pfc_does_not_help_within_a_class() {
        // Victim in the SAME class as the culprits: PFC degenerates to
        // plain PAUSE for that class and the victim still starves — the
        // within-class gap that motivates BCN.
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: true,
        };
        let (cfg, victim) =
            victim_topology(4, TRUNK, FRAME, Duration::from_secs(1e-6), t_end, pause, None);
        let report = NetSim::new(cfg).run();
        let vt = report.throughput(victim, t_end);
        assert!(vt < 0.2 * TRUNK, "same-class victim should still starve: {vt}");
    }

    #[test]
    fn pause_cascades_two_hops_in_the_parking_lot() {
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (cfg, victim) =
            parking_lot_topology(4, TRUNK, FRAME, Duration::from_secs(1e-6), t_end, pause, None);
        let trunk0 = 5; // per the builder's link layout with 4 culprits
        let trunk1 = 6;
        let report = NetSim::new(cfg).run();
        // The pause tree reached both trunks: congestion rolled back from
        // S2 to S1 to S0 exactly as the paper's introduction describes.
        assert!(report.pause_counts[trunk1] > 0, "{:?}", report.pause_counts);
        assert!(report.pause_counts[trunk0] > 0, "{:?}", report.pause_counts);
        // And the deep victim (two switches from the hotspot) starves.
        let vt = report.throughput(victim, t_end);
        assert!(vt < 0.2 * TRUNK, "deep victim should starve: {vt}");
    }

    #[test]
    fn bcn_protects_the_deep_victim_in_the_parking_lot() {
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (cfg, victim) = parking_lot_topology(
            4,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            t_end,
            pause,
            Some(bcn_pair()),
        );
        let report = NetSim::new(cfg).run();
        let vt = report.throughput(victim, t_end);
        assert!(vt > 0.22 * TRUNK, "BCN should shield the deep victim: {vt}");
        let total_drops: u64 = report.flows.iter().map(|f| f.dropped_frames).sum();
        assert_eq!(total_drops, 0, "BCN+PAUSE must stay lossless");
    }

    #[test]
    fn switch_queue_series_recorded() {
        let (report, _, _) = run_victim(false, None);
        assert_eq!(report.switch_queues.len(), 2);
        assert!(report.switch_queues[1].len() > 100);
        // S2 (owning the bottleneck) builds more backlog than S1.
        assert!(report.switch_queues[1].max() >= report.switch_queues[0].max());
    }

    #[test]
    fn telemetry_captures_queues_rates_and_pause_spans() {
        use telemetry::{Event, SpanKind, TelemetryLevel};
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (cfg, victim) = victim_topology(
            4,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            t_end,
            pause,
            Some(bcn_pair()),
        );
        let n_flows = cfg.flows.len();
        let report = NetSim::new(cfg)
            .with_telemetry_sink(telemetry::Telemetry::new(TelemetryLevel::Full))
            .run();
        let tel = report.telemetry.as_ref().expect("sink attached");
        // Every switch has a queue-depth series, every flow a rate series.
        for si in 0..2u32 {
            let s = tel.series.get(SeriesKind::QueueDepth, si).expect("switch series");
            assert!(!s.is_empty(), "switch {si} series empty");
        }
        for fi in 0..n_flows as u32 {
            assert!(tel.series.get(SeriesKind::FlowRate, fi).is_some(), "flow {fi} series");
        }
        // PAUSE fired (the victim run pauses the trunk) and each
        // assertion produced a span pair in the trace.
        let pauses: u64 = report.pause_counts.iter().sum();
        assert!(pauses > 0);
        let spans = tel
            .trace
            .iter()
            .filter(|e| matches!(e, Event::SpanBegin { kind: SpanKind::PauseEpisode, .. }))
            .count() as u64;
        assert_eq!(spans, pauses, "one PAUSE span per assertion");
        assert_eq!(tel.metrics.counter_by_name("sim.pause_events"), Some(pauses));
        assert_eq!(tel.metrics.counter_by_name("sim.bcn_messages"), Some(report.feedback_messages));
        // Scheduler stats were flushed into the shard.
        assert!(tel.metrics.counter_by_name("scheduler.events_popped").is_some_and(|v| v > 0));
        // An untelemetered run is unaffected (same trajectory).
        let (plain, v2, _) = run_victim(true, Some(bcn_pair()));
        assert_eq!(v2, victim);
        assert_eq!(plain.flows, report.flows, "telemetry must not perturb the run");
        assert_eq!(plain.pause_counts, report.pause_counts);
    }

    #[test]
    fn fault_free_runs_record_no_faults() {
        let (report, _, _) = run_victim(true, Some(bcn_pair()));
        assert_eq!(report.faults, FaultCounts::default());
    }

    #[test]
    fn feedback_loss_breaks_bcn_protection() {
        let t_end = 0.25;
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (mut cfg, _victim) = victim_topology(
            4,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            t_end,
            pause,
            Some(bcn_pair()),
        );
        cfg.faults.feedback_loss = 1.0;
        let report = NetSim::new(cfg).run();
        assert_eq!(report.feedback_messages, 0, "all feedback must be dropped");
        assert!(report.faults.feedback_dropped > 0);
        // Without feedback the culprit sources never slow down.
        let culprit_rate = report.flows[0].final_rate;
        assert!(culprit_rate >= 0.125 * TRUNK * 0.99, "culprit regulated anyway: {culprit_rate}");
    }

    #[test]
    fn fault_telemetry_matches_report_counts() {
        use telemetry::{Telemetry, TelemetryLevel};
        let pause = PauseConfig {
            enabled: true,
            hold: Duration::from_secs(40.0 * FRAME / TRUNK),
            per_priority: false,
        };
        let (mut cfg, _) = victim_topology(
            4,
            TRUNK,
            FRAME,
            Duration::from_secs(1e-6),
            0.1,
            pause,
            Some(bcn_pair()),
        );
        cfg.faults.seed = 9;
        cfg.faults.feedback_loss = 0.2;
        cfg.faults.feedback_corrupt = 0.2;
        cfg.faults.feedback_extra_delay = Duration::from_secs(1e-5);
        cfg.faults.feedback_reorder = 0.2;
        cfg.faults.reorder_window = Duration::from_secs(1e-5);
        cfg.faults.data_loss = 0.01;
        cfg.faults.link_flap_period = Duration::from_secs(0.01);
        cfg.faults.link_flap_down = Duration::from_secs(0.001);
        cfg.faults.pause_storm = 0.5;
        cfg.faults.pause_storm_factor = 3.0;
        let report =
            NetSim::new(cfg).with_telemetry_sink(Telemetry::new(TelemetryLevel::Summary)).run();
        let f = &report.faults;
        let counter = |name: &str| {
            report.telemetry.as_ref().expect("sink attached").metrics.counter_by_name(name)
        };
        for (name, tally) in [
            ("faults.feedback_drop", f.feedback_dropped),
            ("faults.feedback_corrupt", f.feedback_corrupted + f.feedback_corrupt_lost),
            ("faults.feedback_delay", f.feedback_delayed),
            ("faults.feedback_reorder", f.feedback_reordered),
            ("faults.data_loss", f.data_frames_lost),
            ("faults.link_flap", f.link_flap_deferrals),
            ("faults.pause_storm", f.pause_storms),
        ] {
            assert!(tally > 0, "{name}: the fault class never fired");
            assert_eq!(counter(name), Some(tally), "{name}");
        }
    }

    #[test]
    fn faulty_net_runs_are_deterministic() {
        let mk = || {
            let pause = PauseConfig {
                enabled: true,
                hold: Duration::from_secs(40.0 * FRAME / TRUNK),
                per_priority: false,
            };
            let (mut cfg, _) = victim_topology(
                4,
                TRUNK,
                FRAME,
                Duration::from_secs(1e-6),
                0.1,
                pause,
                Some(bcn_pair()),
            );
            cfg.faults.seed = 5;
            cfg.faults.feedback_loss = 0.3;
            cfg.faults.data_loss = 0.01;
            cfg
        };
        let a = NetSim::new(mk()).run();
        let b = NetSim::new(mk()).run();
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.faults, b.faults);
        assert!(a.faults.total() > 0, "faults were actually injected");
    }
}
