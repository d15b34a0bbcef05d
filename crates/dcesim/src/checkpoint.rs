//! Crash-recoverable batch checkpoints and postmortem replay specs.
//!
//! A batch run can be pointed at a checkpoint directory
//! ([`BatchCheckpoint`]), for either packet engine: every finished seed
//! is persisted as a self-contained JSONL *shard* (`seed-<seed>.jsonl`)
//! holding the full [`SeedOutcome`] — metrics, recorded series, fault
//! tallies, and the seed's telemetry shard via the bit-exact snapshot
//! codec — and then acknowledged in an append-only `manifest.jsonl`.
//! Shards are written atomically (tmp + fsync + rename + directory
//! fsync) and the manifest is fsynced after every acknowledgement, so a
//! run killed at *any* instant — `SIGKILL` mid-seed included — leaves
//! the directory in a state a `--resume` run can pick up: acknowledged
//! seeds are restored bit-exactly, everything else (including a torn
//! trailing manifest line or an orphaned `seed-N.tmp`) is simply
//! re-run. Because the simulator is deterministic, the merged report of
//! a resumed batch is byte-identical to an uninterrupted run.
//!
//! The same codec makes postmortem dumps self-describing: a quarantined
//! seed's dump embeds its fully seeded [`SimConfig`] (fault plan
//! included), its panic/watchdog triggers, and a config digest, so
//! `dcebcn replay <dump>` can reconstruct a [`ReplaySpec`] and re-run
//! the exact crashing scenario with no access to the original command
//! line.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use telemetry::{
    check_schema_header, schema_header, snapshot_from_jsonl, snapshot_to_jsonl, JsonlError, Line,
    Record, Telemetry,
};

use crate::batch::{BatchConfig, NetBatchConfig, ReportOf, SeedBatch, SeedOutcome, SeedReport};
use crate::cp::{CpConfig, FbQuant};
use crate::faults::{splitmix64, FaultConfig, FaultCounts};
use crate::frame::CpId;
use crate::metrics::SimMetrics;
use crate::net::{Endpoint, FlowStats, NetConfig, NetReport};
use crate::qcn::{QcnCpConfig, QcnRpConfig};
use crate::rp::RpConfig;
use crate::sched::Scheduler;
use crate::sim::{Control, SimConfig, SimReport};
use crate::time::{Duration, Time};
use crate::workload::FlowSpec;

/// The manifest file name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// Largest integer the flat JSONL codec round-trips exactly (2^53);
/// wider values are split into 32-bit halves.
const MASK_53: u64 = (1 << 53) - 1;

/// Errors from checkpoint persistence, decoding, or replay parsing.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A checkpoint or postmortem file is malformed or truncated.
    Format(String),
    /// The checkpoint directory belongs to a different batch
    /// configuration; resuming would silently mix incompatible runs.
    ConfigMismatch {
        /// Digest of the configuration being resumed.
        expected: u64,
        /// Digest recorded in the on-disk manifest.
        found: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Format(msg) => write!(f, "checkpoint format: {msg}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different batch configuration \
                 (manifest digest {found:#x}, this run {expected:#x}); \
                 use a fresh --checkpoint-dir"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<JsonlError> for CheckpointError {
    fn from(e: JsonlError) -> Self {
        CheckpointError::Format(e.0)
    }
}

// ---------------------------------------------------------------------
// Config digests
// ---------------------------------------------------------------------

fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

fn mix_f(h: u64, v: f64) -> u64 {
    mix(h, v.to_bits())
}

fn mix_opt_f(h: u64, v: Option<f64>) -> u64 {
    match v {
        Some(x) => mix_f(mix(h, 1), x),
        None => mix(h, 0),
    }
}

/// Order-sensitive digest of a fully seeded [`SimConfig`], folded with
/// splitmix64 over every field and masked below 2^53 so it survives the
/// JSONL number path. Postmortem dumps embed it so `replay` can detect
/// a truncated or hand-edited config block.
#[must_use]
pub fn sim_config_digest(cfg: &SimConfig) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15;
    h = mix_f(h, cfg.capacity);
    h = mix_f(h, cfg.buffer_bits);
    h = mix_f(h, cfg.frame_bits);
    h = mix(h, cfg.prop_delay.as_nanos());
    h = mix(h, cfg.t_end.as_nanos());
    h = mix(h, cfg.record_interval.as_nanos());
    h = mix(h, cfg.pause_hold.as_nanos());
    h = mix(h, cfg.flows.len() as u64);
    for flow in &cfg.flows {
        h = mix(h, flow.start.as_nanos());
        h = match flow.stop {
            Some(t) => mix(mix(h, 1), t.as_nanos()),
            None => mix(h, 0),
        };
        h = mix_f(h, flow.initial_rate);
        h = mix_opt_f(h, flow.volume_bits);
    }
    h = match &cfg.control {
        Control::Bcn { cp, rp } => mix_rp_config(mix_cp_config(mix(h, 1), cp), rp),
        Control::Qcn { cp, rp } => {
            let mut h = mix(h, 2);
            h = mix_f(h, cp.q_eq_bits);
            h = mix_f(h, cp.w);
            h = mix(h, cp.sample_every);
            h = mix_f(h, rp.gd);
            h = mix_f(h, rp.bc_limit_bits);
            h = mix(h, u64::from(rp.fr_cycles));
            h = mix_f(h, rp.r_ai);
            h = mix_f(h, rp.r_hai);
            h = mix_f(h, rp.r_min);
            mix_f(h, rp.r_max)
        }
        Control::None => mix(h, 3),
    };
    h = mix_fault_plan(h, &cfg.faults);
    h = mix(h, scheduler_tag(cfg.scheduler));
    h & MASK_53
}

fn mix_fault_plan(mut h: u64, fl: &FaultConfig) -> u64 {
    h = mix(h, fl.seed);
    h = mix_f(h, fl.feedback_loss);
    h = mix_f(h, fl.feedback_corrupt);
    h = mix(h, fl.feedback_extra_delay.as_nanos());
    h = mix_f(h, fl.feedback_reorder);
    h = mix(h, fl.reorder_window.as_nanos());
    h = mix_f(h, fl.data_loss);
    h = mix(h, fl.data_burst_len);
    h = mix(h, fl.link_flap_period.as_nanos());
    h = mix(h, fl.link_flap_down.as_nanos());
    h = mix_f(h, fl.pause_storm);
    mix_f(h, fl.pause_storm_factor)
}

fn mix_endpoint(h: u64, e: Endpoint) -> u64 {
    match e {
        Endpoint::Host(i) => mix(mix(h, 0), i as u64),
        Endpoint::Switch(i) => mix(mix(h, 1), i as u64),
    }
}

fn mix_cp_config(mut h: u64, cp: &CpConfig) -> u64 {
    h = mix(h, cp.cpid.0);
    h = mix_f(h, cp.q0_bits);
    h = mix_f(h, cp.qsc_bits);
    h = mix_f(h, cp.w);
    h = mix(h, cp.sample_every);
    h = match cp.fb_quant {
        Some(q) => mix_f(mix(mix(h, 1), u64::from(q.bits)), q.range_bits),
        None => mix(h, 0),
    };
    mix(h, u64::from(cp.gate_positive))
}

fn mix_rp_config(mut h: u64, rp: &RpConfig) -> u64 {
    for v in [rp.gi, rp.gd, rp.ru, rp.gain_scale, rp.r_min, rp.r_max] {
        h = mix_f(h, v);
    }
    h
}

/// Order-sensitive digest of a fully seeded [`NetConfig`] — the
/// multi-hop counterpart of [`sim_config_digest`], folding topology
/// (switches, routes, congestion points, links), flows, PAUSE policy,
/// fault plan, and scheduler.
#[must_use]
fn net_config_digest(cfg: &NetConfig) -> u64 {
    let mut h = 0x85eb_ca6b_c2b2_ae35;
    h = mix(h, cfg.hosts as u64);
    h = mix(h, cfg.switches.len() as u64);
    for sw in &cfg.switches {
        h = mix_f(h, sw.buffer_bits);
        h = mix_f(h, sw.qsc_bits);
        h = mix(h, sw.routes.len() as u64);
        for &(dst, link) in &sw.routes {
            h = mix(mix(h, dst as u64), link as u64);
        }
        h = mix(h, sw.cps.len() as u64);
        for (link, cp) in &sw.cps {
            h = mix_cp_config(mix(h, *link as u64), cp);
        }
    }
    h = mix(h, cfg.links.len() as u64);
    for l in &cfg.links {
        h = mix_endpoint(h, l.from);
        h = mix_endpoint(h, l.to);
        h = mix_f(h, l.capacity);
        h = mix(h, l.delay.as_nanos());
    }
    h = mix(h, cfg.flows.len() as u64);
    for f in &cfg.flows {
        h = mix(h, f.src_host as u64);
        h = mix(h, f.dst_host as u64);
        h = mix_f(h, f.initial_rate);
        h = match &f.rp {
            Some(rp) => mix_rp_config(mix(h, 1), rp),
            None => mix(h, 0),
        };
        h = mix(h, u64::from(f.priority));
    }
    h = mix_f(h, cfg.frame_bits);
    h = mix(h, cfg.t_end.as_nanos());
    h = mix(h, cfg.record_interval.as_nanos());
    h = mix(h, u64::from(cfg.pause.enabled));
    h = mix(h, cfg.pause.hold.as_nanos());
    h = mix(h, u64::from(cfg.pause.per_priority));
    h = mix_fault_plan(h, &cfg.faults);
    h = mix(h, scheduler_tag(cfg.scheduler));
    h & MASK_53
}

/// Folds the supervision policy shared by every batch configuration
/// into `h`: seed list, telemetry level, the config's jitter knobs (in
/// the given order), panic hooks, and the watchdog.
fn mix_batch<B: SeedBatch>(mut h: u64, cfg: &B, jitters: &[f64]) -> u64 {
    h = mix(h, cfg.seeds().len() as u64);
    for &s in cfg.seeds() {
        h = mix(h, s);
    }
    h = mix(h, cfg.level() as u64);
    for &j in jitters {
        h = mix_f(h, j);
    }
    h = mix(h, cfg.panic_seeds().len() as u64);
    for &s in cfg.panic_seeds() {
        h = mix(h, s);
    }
    let (max_events, max_wall_ms) = cfg.watchdog();
    for limit in [max_events, max_wall_ms] {
        h = match limit {
            Some(n) => mix(mix(h, 1), n),
            None => mix(h, 0),
        };
    }
    h
}

/// Digest identifying a whole [`NetBatchConfig`] (base scenario, seed
/// list, jitter, supervision policy), the resume-compatibility check
/// for its [`BatchCheckpoint`].
#[must_use]
pub fn net_batch_config_digest(cfg: &NetBatchConfig) -> u64 {
    let h = mix(0x2545_f491_4f6c_dd1d, net_config_digest(&cfg.base));
    mix_batch(h, cfg, &[cfg.rate_jitter_frac]) & MASK_53
}

/// Digest identifying a whole [`BatchConfig`] — the base scenario plus
/// everything that shapes per-seed outcomes (seed list, jitters,
/// telemetry level, panic hooks, watchdog and retry policy). A resume
/// whose digest differs from the manifest's is rejected with
/// [`CheckpointError::ConfigMismatch`].
#[must_use]
pub fn batch_config_digest(cfg: &BatchConfig) -> u64 {
    let mut h = mix(0xa076_1d64_78bd_642f, sim_config_digest(&cfg.base));
    h = mix_batch(h, cfg, &[cfg.start_jitter_secs, cfg.rate_jitter_frac]);
    h = mix(h, u64::from(cfg.max_seed_retries));
    h = mix(h, cfg.retry_backoff_ms);
    h = match &cfg.hybrid {
        Some(spec) => {
            let mut h = mix(h, 1);
            let p = &spec.params;
            h = mix(h, u64::from(p.n_flows));
            for v in [p.capacity, p.q0, p.buffer, p.gi, p.gd, p.ru, p.w, p.pm, p.qsc] {
                h = mix_f(h, v);
            }
            let g = &spec.guards;
            h = mix(h, u64::from(g.always_packet));
            h = mix_f(h, g.min_ff_secs);
            h = mix_f(h, g.max_ff_secs);
            h = mix_f(h, g.eq_frac);
            h = mix_f(h, g.q_margin_frac);
            mix(h, u64::from(g.max_legs))
        }
        None => mix(h, 0),
    };
    h & MASK_53
}

fn scheduler_tag(s: Scheduler) -> u64 {
    match s {
        Scheduler::Wheel => 0,
        Scheduler::Heap => 1,
    }
}

// ---------------------------------------------------------------------
// Seeded-config codec (shared by postmortem dumps and replay)
// ---------------------------------------------------------------------

/// Appends the self-describing record block for a fully seeded
/// [`SimConfig`]: a `sim_config` header (with digest), the control
/// parameters, every flow, and the seeded fault plan. The inverse is
/// [`decode_sim_config`].
fn encode_sim_config(cfg: &SimConfig, out: &mut String) {
    let control = match cfg.control {
        Control::Bcn { .. } => "bcn",
        Control::Qcn { .. } => "qcn",
        Control::None => "none",
    };
    Line::new(out, "sim_config")
        .uint("digest", sim_config_digest(cfg))
        .num("capacity", cfg.capacity)
        .num("buffer_bits", cfg.buffer_bits)
        .num("frame_bits", cfg.frame_bits)
        .uint("prop_delay_ns", cfg.prop_delay.as_nanos())
        .uint("t_end_ns", cfg.t_end.as_nanos())
        .uint("record_interval_ns", cfg.record_interval.as_nanos())
        .uint("pause_hold_ns", cfg.pause_hold.as_nanos())
        .str("scheduler", cfg.scheduler.name())
        .str("control", control)
        .uint("flows", cfg.flows.len() as u64)
        .end_line();
    match &cfg.control {
        Control::Bcn { cp, rp } => {
            let mut line = Line::new(out, "bcn_cp")
                .split_u64("cpid", cp.cpid.0)
                .num("q0_bits", cp.q0_bits)
                .num("qsc_bits", cp.qsc_bits)
                .num("w", cp.w)
                .uint("sample_every", cp.sample_every)
                .bool("gate_positive", cp.gate_positive)
                .bool("has_fb_quant", cp.fb_quant.is_some());
            if let Some(q) = cp.fb_quant {
                line = line.uint("fb_bits", u64::from(q.bits)).num("fb_range_bits", q.range_bits);
            }
            line.end_line();
            Line::new(out, "bcn_rp")
                .num("gi", rp.gi)
                .num("gd", rp.gd)
                .num("ru", rp.ru)
                .num("gain_scale", rp.gain_scale)
                .num("r_min", rp.r_min)
                .num("r_max", rp.r_max)
                .end_line();
        }
        Control::Qcn { cp, rp } => {
            Line::new(out, "qcn_cp")
                .num("q_eq_bits", cp.q_eq_bits)
                .num("w", cp.w)
                .uint("sample_every", cp.sample_every)
                .end_line();
            Line::new(out, "qcn_rp")
                .num("gd", rp.gd)
                .num("bc_limit_bits", rp.bc_limit_bits)
                .uint("fr_cycles", u64::from(rp.fr_cycles))
                .num("r_ai", rp.r_ai)
                .num("r_hai", rp.r_hai)
                .num("r_min", rp.r_min)
                .num("r_max", rp.r_max)
                .end_line();
        }
        Control::None => {}
    }
    for flow in &cfg.flows {
        let mut line = Line::new(out, "flow")
            .uint("start_ns", flow.start.as_nanos())
            .num("initial_rate", flow.initial_rate)
            .bool("has_stop", flow.stop.is_some())
            .bool("has_volume", flow.volume_bits.is_some());
        if let Some(t) = flow.stop {
            line = line.uint("stop_ns", t.as_nanos());
        }
        if let Some(v) = flow.volume_bits {
            line = line.num("volume_bits", v);
        }
        line.end_line();
    }
    let fl = &cfg.faults;
    Line::new(out, "fault_plan")
        .split_u64("seed", fl.seed)
        .num("feedback_loss", fl.feedback_loss)
        .num("feedback_corrupt", fl.feedback_corrupt)
        .uint("feedback_extra_delay_ns", fl.feedback_extra_delay.as_nanos())
        .num("feedback_reorder", fl.feedback_reorder)
        .uint("reorder_window_ns", fl.reorder_window.as_nanos())
        .num("data_loss", fl.data_loss)
        .uint("data_burst_len", fl.data_burst_len)
        .uint("link_flap_period_ns", fl.link_flap_period.as_nanos())
        .uint("link_flap_down_ns", fl.link_flap_down.as_nanos())
        .num("pause_storm", fl.pause_storm)
        .num("pause_storm_factor", fl.pause_storm_factor)
        .end_line();
}

/// Decodes a [`SimConfig`] block written by [`encode_sim_config`],
/// consuming exactly its lines, and verifies the embedded digest
/// against the decoded config.
///
/// # Errors
///
/// Fails on truncation, malformed records, or a digest mismatch
/// (edited or version-skewed config block).
fn decode_sim_config<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<SimConfig, CheckpointError> {
    let head = Record::next(lines, "sim_config")?;
    let digest = head.u64("digest")?;
    let scheduler = match &*head.str("scheduler")? {
        "wheel" => Scheduler::Wheel,
        "heap" => Scheduler::Heap,
        other => {
            return Err(CheckpointError::Format(format!("unknown scheduler `{other}`")));
        }
    };
    let control = match &*head.str("control")? {
        "bcn" => {
            let cp = Record::next(lines, "bcn_cp")?;
            let fb_quant = if cp.bool("has_fb_quant")? {
                Some(FbQuant { bits: cp.u32("fb_bits")?, range_bits: cp.f64("fb_range_bits")? })
            } else {
                None
            };
            let cp = CpConfig {
                cpid: CpId(cp.split_u64("cpid")?),
                q0_bits: cp.f64("q0_bits")?,
                qsc_bits: cp.f64("qsc_bits")?,
                w: cp.f64("w")?,
                sample_every: cp.u64("sample_every")?,
                fb_quant,
                gate_positive: cp.bool("gate_positive")?,
            };
            let rp = Record::next(lines, "bcn_rp")?;
            let rp = RpConfig {
                gi: rp.f64("gi")?,
                gd: rp.f64("gd")?,
                ru: rp.f64("ru")?,
                gain_scale: rp.f64("gain_scale")?,
                r_min: rp.f64("r_min")?,
                r_max: rp.f64("r_max")?,
            };
            Control::Bcn { cp, rp }
        }
        "qcn" => {
            let cp = Record::next(lines, "qcn_cp")?;
            let cp = QcnCpConfig {
                q_eq_bits: cp.f64("q_eq_bits")?,
                w: cp.f64("w")?,
                sample_every: cp.u64("sample_every")?,
            };
            let rp = Record::next(lines, "qcn_rp")?;
            let rp = QcnRpConfig {
                gd: rp.f64("gd")?,
                bc_limit_bits: rp.f64("bc_limit_bits")?,
                fr_cycles: rp.u32("fr_cycles")?,
                r_ai: rp.f64("r_ai")?,
                r_hai: rp.f64("r_hai")?,
                r_min: rp.f64("r_min")?,
                r_max: rp.f64("r_max")?,
            };
            Control::Qcn { cp, rp }
        }
        "none" => Control::None,
        other => {
            return Err(CheckpointError::Format(format!("unknown control `{other}`")));
        }
    };
    // The count comes from the file: it bounds the loop, never a
    // pre-allocation, so a forged count fails on the missing lines.
    let mut flows = Vec::new();
    for _ in 0..head.u64("flows")? {
        let f = Record::next(lines, "flow")?;
        flows.push(FlowSpec {
            start: Time::from_nanos(f.u64("start_ns")?),
            stop: if f.bool("has_stop")? {
                Some(Time::from_nanos(f.u64("stop_ns")?))
            } else {
                None
            },
            initial_rate: f.f64("initial_rate")?,
            volume_bits: if f.bool("has_volume")? { Some(f.f64("volume_bits")?) } else { None },
        });
    }
    let fp = Record::next(lines, "fault_plan")?;
    let faults = FaultConfig {
        seed: fp.split_u64("seed")?,
        feedback_loss: fp.f64("feedback_loss")?,
        feedback_corrupt: fp.f64("feedback_corrupt")?,
        feedback_extra_delay: Duration::from_nanos(fp.u64("feedback_extra_delay_ns")?),
        feedback_reorder: fp.f64("feedback_reorder")?,
        reorder_window: Duration::from_nanos(fp.u64("reorder_window_ns")?),
        data_loss: fp.f64("data_loss")?,
        data_burst_len: fp.u64("data_burst_len")?,
        link_flap_period: Duration::from_nanos(fp.u64("link_flap_period_ns")?),
        link_flap_down: Duration::from_nanos(fp.u64("link_flap_down_ns")?),
        pause_storm: fp.f64("pause_storm")?,
        pause_storm_factor: fp.f64("pause_storm_factor")?,
    };
    let cfg = SimConfig {
        capacity: head.f64("capacity")?,
        buffer_bits: head.f64("buffer_bits")?,
        frame_bits: head.f64("frame_bits")?,
        prop_delay: Duration::from_nanos(head.u64("prop_delay_ns")?),
        flows,
        control,
        t_end: Time::from_nanos(head.u64("t_end_ns")?),
        record_interval: Duration::from_nanos(head.u64("record_interval_ns")?),
        pause_hold: Duration::from_nanos(head.u64("pause_hold_ns")?),
        faults,
        scheduler,
    };
    let actual = sim_config_digest(&cfg);
    if actual != digest {
        return Err(CheckpointError::Format(format!(
            "sim_config digest mismatch (recorded {digest:#x}, decoded {actual:#x}): \
             the config block was edited or written by an incompatible version"
        )));
    }
    Ok(cfg)
}

// ---------------------------------------------------------------------
// Seed-outcome codec
// ---------------------------------------------------------------------

/// Appends the record block for one seed's [`SeedOutcome`] — the shard
/// payload of a checkpoint: a `seed` head record, the completed report's
/// body ([`SeedReport::encode_body`]), then the telemetry shard through
/// the bit-exact snapshot codec, so a decoded outcome merges into an
/// aggregate byte-identically to the original.
pub fn encode_seed_outcome<R: SeedReport>(seed: u64, outcome: &SeedOutcome<R>, out: &mut String) {
    let (kind, retries, cause, events, tel) = match outcome {
        SeedOutcome::Completed(report) => ("completed", 0, "", 0, report.telemetry()),
        SeedOutcome::Failed { cause, retries, telemetry } => {
            ("failed", *retries, cause.as_str(), 0, telemetry.as_deref())
        }
        SeedOutcome::TimedOut { events, telemetry } => {
            ("timed_out", 0, "", *events, telemetry.as_deref())
        }
    };
    Line::new(out, "seed")
        .split_u64("seed", seed)
        .str("outcome", kind)
        .uint("retries", u64::from(retries))
        .uint("events", events)
        .bool("has_telemetry", tel.is_some())
        .str("cause", cause)
        .end_line();
    if let SeedOutcome::Completed(report) = outcome {
        report.encode_body(out);
    }
    if let Some(t) = tel {
        out.push_str(&snapshot_to_jsonl(t));
    }
}

/// Decodes one seed's outcome block written by [`encode_seed_outcome`],
/// consuming exactly its lines.
///
/// # Errors
///
/// Fails on truncation or malformed records; a resuming batch treats
/// that as "seed not done" and re-runs it.
pub fn decode_seed_outcome<'a, R: SeedReport, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<(u64, SeedOutcome<R>), CheckpointError> {
    let head = Record::next(lines, "seed")?;
    let seed = head.split_u64("seed")?;
    let retries = head.u32("retries")?;
    let events = head.u64("events")?;
    let has_tel = head.bool("has_telemetry")?;
    let cause = head.str("cause")?.into_owned();
    let take_telemetry = |lines: &mut I| -> Result<Option<Telemetry>, CheckpointError> {
        Ok(if has_tel { Some(snapshot_from_jsonl(lines)?) } else { None })
    };
    let outcome = match &*head.str("outcome")? {
        "completed" => {
            let mut report = R::decode_body(lines)?;
            *report.telemetry_mut() = take_telemetry(lines)?;
            SeedOutcome::Completed(Box::new(report))
        }
        "failed" => {
            SeedOutcome::Failed { cause, retries, telemetry: take_telemetry(lines)?.map(Box::new) }
        }
        "timed_out" => {
            SeedOutcome::TimedOut { events, telemetry: take_telemetry(lines)?.map(Box::new) }
        }
        other => {
            return Err(CheckpointError::Format(format!("unknown seed outcome `{other}`")));
        }
    };
    Ok((seed, outcome))
}

/// The dumbbell report body: counters, fault tallies, per-source
/// samples, and every recorded [`SimMetrics`] series.
impl SeedReport for SimReport {
    fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    fn telemetry_mut(&mut self) -> &mut Option<Telemetry> {
        &mut self.telemetry
    }

    fn encode_body(&self, out: &mut String) {
        let m = &self.metrics;
        Line::new(out, "sim_counters")
            .uint("delivered_frames", m.delivered_frames)
            .uint("dropped_frames", m.dropped_frames)
            .uint("feedback_messages", m.feedback_messages)
            .uint("pause_events", m.pause_events)
            .num("delivered_bits", m.delivered_bits)
            .uint("sources", m.per_source_rate.len() as u64)
            .end_line();
        put_fault_counts(out, &m.faults);
        put_samples(out, "final_rates", &self.final_rates);
        put_samples(out, "per_source_bits", &m.per_source_bits);
        put_samples(out, "queueing_delay", m.queueing_delay.values());
        put_series(out, "queue", None, &m.queue);
        put_series(out, "aggregate_rate", None, &m.aggregate_rate);
        for (i, s) in m.per_source_rate.iter().enumerate() {
            put_series(out, "rate", Some(i), s);
        }
    }

    fn decode_body<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
    ) -> Result<Self, CheckpointError> {
        let c = Record::next(lines, "sim_counters")?;
        let faults = take_fault_counts(lines)?;
        let final_rates = take_samples(lines, "final_rates")?;
        let per_source_bits = take_samples(lines, "per_source_bits")?;
        let delay_vals = take_samples(lines, "queueing_delay")?;
        let queue = take_series(lines, "queue")?;
        let aggregate_rate = take_series(lines, "aggregate_rate")?;
        let mut per_source_rate = Vec::new();
        for _ in 0..c.u64("sources")? {
            per_source_rate.push(take_series(lines, "rate")?);
        }
        let mut queueing_delay = crate::metrics::SampleSet::new();
        for v in delay_vals {
            queueing_delay.push(v);
        }
        let metrics = SimMetrics {
            queue,
            aggregate_rate,
            delivered_frames: c.u64("delivered_frames")?,
            dropped_frames: c.u64("dropped_frames")?,
            feedback_messages: c.u64("feedback_messages")?,
            pause_events: c.u64("pause_events")?,
            per_source_bits,
            delivered_bits: c.f64("delivered_bits")?,
            queueing_delay,
            per_source_rate,
            faults,
        };
        Ok(SimReport { metrics, final_rates, telemetry: None })
    }
}

/// The fabric report body: per-flow statistics, per-link PAUSE counts,
/// fault tallies, and the per-switch queue series.
impl SeedReport for NetReport {
    fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    fn telemetry_mut(&mut self) -> &mut Option<Telemetry> {
        &mut self.telemetry
    }

    fn encode_body(&self, out: &mut String) {
        Line::new(out, "net_counters")
            .uint("feedback_messages", self.feedback_messages)
            .uint("flows", self.flows.len() as u64)
            .uint("switches", self.switch_queues.len() as u64)
            .list("pause_counts", self.pause_counts.iter().copied())
            .list("dropped_frames", self.flows.iter().map(|f| f.dropped_frames))
            .end_line();
        put_fault_counts(out, &self.faults);
        let delivered: Vec<f64> = self.flows.iter().map(|f| f.delivered_bits).collect();
        let rates: Vec<f64> = self.flows.iter().map(|f| f.final_rate).collect();
        put_samples(out, "delivered_bits", &delivered);
        put_samples(out, "final_rate", &rates);
        for (i, s) in self.switch_queues.iter().enumerate() {
            put_series(out, "switch_queue", Some(i), s);
        }
    }

    fn decode_body<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
    ) -> Result<Self, CheckpointError> {
        let c = Record::next(lines, "net_counters")?;
        let n_flows = c.u64("flows")?;
        let pause_counts = c.list("pause_counts")?;
        let dropped: Vec<u64> = c.list("dropped_frames")?;
        let faults = take_fault_counts(lines)?;
        let delivered = take_samples(lines, "delivered_bits")?;
        let rates = take_samples(lines, "final_rate")?;
        if [delivered.len(), rates.len(), dropped.len()].iter().any(|&n| n as u64 != n_flows) {
            return Err(CheckpointError::Format(format!(
                "net shard: {n_flows} flows vs {} delivered / {} rates / {} drop counts",
                delivered.len(),
                rates.len(),
                dropped.len()
            )));
        }
        let flows = delivered
            .into_iter()
            .zip(rates)
            .zip(dropped)
            .map(|((delivered_bits, final_rate), dropped_frames)| FlowStats {
                delivered_bits,
                dropped_frames,
                final_rate,
            })
            .collect();
        let mut switch_queues = Vec::new();
        for _ in 0..c.u64("switches")? {
            switch_queues.push(take_series(lines, "switch_queue")?);
        }
        Ok(NetReport {
            flows,
            switch_queues,
            pause_counts,
            feedback_messages: c.u64("feedback_messages")?,
            faults,
            telemetry: None,
        })
    }
}

fn put_samples(out: &mut String, name: &str, vals: &[f64]) {
    Line::new(out, "samples").str("name", name).list("values", vals.iter().copied()).end_line();
}

fn put_fault_counts(out: &mut String, f: &FaultCounts) {
    Line::new(out, "fault_counts")
        .uint("feedback_dropped", f.feedback_dropped)
        .uint("feedback_corrupted", f.feedback_corrupted)
        .uint("feedback_corrupt_lost", f.feedback_corrupt_lost)
        .uint("feedback_delayed", f.feedback_delayed)
        .uint("feedback_reordered", f.feedback_reordered)
        .uint("data_frames_lost", f.data_frames_lost)
        .uint("link_flap_deferrals", f.link_flap_deferrals)
        .uint("pause_storms", f.pause_storms)
        .end_line();
}

fn take_fault_counts<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<FaultCounts, CheckpointError> {
    let fc = Record::next(lines, "fault_counts")?;
    Ok(FaultCounts {
        feedback_dropped: fc.u64("feedback_dropped")?,
        feedback_corrupted: fc.u64("feedback_corrupted")?,
        feedback_corrupt_lost: fc.u64("feedback_corrupt_lost")?,
        feedback_delayed: fc.u64("feedback_delayed")?,
        feedback_reordered: fc.u64("feedback_reordered")?,
        data_frames_lost: fc.u64("data_frames_lost")?,
        link_flap_deferrals: fc.u64("link_flap_deferrals")?,
        pause_storms: fc.u64("pause_storms")?,
    })
}

fn put_series(out: &mut String, name: &str, entity: Option<usize>, s: &crate::metrics::TimeSeries) {
    let mut line = Line::new(out, "sim_series").str("name", name);
    if let Some(e) = entity {
        line = line.uint("entity", e as u64);
    }
    line.list("times", s.times().iter().copied())
        .list("values", s.values().iter().copied())
        .end_line();
}

/// The next record of kind `ty`, which must carry `name`.
fn named<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    ty: &str,
    name: &str,
) -> Result<Record<'a>, CheckpointError> {
    let r = Record::next(lines, ty)?;
    let found = r.str("name")?;
    if found != name {
        return Err(CheckpointError::Format(format!("expected {ty} `{name}`, found `{found}`")));
    }
    Ok(r)
}

fn take_samples<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    name: &str,
) -> Result<Vec<f64>, CheckpointError> {
    Ok(named(lines, "samples", name)?.list("values")?)
}

fn take_series<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    name: &str,
) -> Result<crate::metrics::TimeSeries, CheckpointError> {
    let r = named(lines, "sim_series", name)?;
    let times: Vec<f64> = r.list("times")?;
    let values: Vec<f64> = r.list("values")?;
    if times.len() != values.len() {
        return Err(CheckpointError::Format(format!(
            "series `{name}`: {} times vs {} values",
            times.len(),
            values.len()
        )));
    }
    let mut s = crate::metrics::TimeSeries::new();
    for (t, v) in times.into_iter().zip(values) {
        s.push_secs(t, v);
    }
    Ok(s)
}

// ---------------------------------------------------------------------
// The checkpoint store
// ---------------------------------------------------------------------

/// A batch checkpoint directory: per-seed outcome shards plus an
/// append-only, fsynced manifest acknowledging each finished seed.
/// See the module docs for the crash-consistency argument.
///
/// The manifest is keyed by the batch's [`SeedBatch::digest`], so a
/// directory written by another configuration — or by the other engine
/// — is rejected on resume.
#[derive(Debug)]
pub struct BatchCheckpoint<P: SeedBatch = BatchConfig> {
    dir: PathBuf,
    manifest: Mutex<fs::File>,
    restored: Mutex<BTreeMap<u64, SeedOutcome<ReportOf<P>>>>,
}

impl<P: SeedBatch> BatchCheckpoint<P> {
    /// Starts a fresh checkpoint in `dir` (created if needed).
    ///
    /// # Errors
    ///
    /// Fails if `dir` already holds a manifest (refuse to silently
    /// clobber a previous run — resume it or pick a fresh directory) or
    /// on I/O errors.
    pub fn create(dir: &Path, cfg: &P) -> Result<Self, CheckpointError> {
        if dir.join(MANIFEST_FILE).exists() {
            return Err(CheckpointError::Format(format!(
                "{} already contains a manifest; resume it or use a fresh directory",
                dir.display()
            )));
        }
        Self::open(dir, cfg)
    }

    /// Opens `dir` for a (possibly resumed) run: if a manifest exists,
    /// verifies its config digest and loads every acknowledged,
    /// readable shard; otherwise starts fresh. Unreadable or truncated
    /// shards are skipped — their seeds simply re-run.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a malformed manifest header, or
    /// [`CheckpointError::ConfigMismatch`] when the directory belongs
    /// to a different batch configuration.
    pub fn resume(dir: &Path, cfg: &P) -> Result<Self, CheckpointError> {
        Self::open(dir, cfg)
    }

    fn open(dir: &Path, cfg: &P) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir)?;
        let digest = cfg.digest();
        let path = dir.join(MANIFEST_FILE);
        let mut restored = BTreeMap::new();
        if path.exists() {
            let text = fs::read_to_string(&path)?;
            for seed in parse_manifest(&text, digest)? {
                if !cfg.seeds().contains(&seed) {
                    continue;
                }
                if let Some(outcome) = load_shard(dir, seed) {
                    restored.insert(seed, outcome);
                }
            }
        } else {
            let mut text = schema_header();
            text.push('\n');
            Line::new(&mut text, "batch_manifest")
                .uint("digest", digest)
                .uint("seeds", cfg.seeds().len() as u64)
                .end_line();
            write_atomic(&path, &text)?;
        }
        let manifest = fs::OpenOptions::new().append(true).open(&path)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest: Mutex::new(manifest),
            restored: Mutex::new(restored),
        })
    }

    /// Seeds whose outcomes were restored from disk, ascending.
    #[must_use]
    pub fn restored_seeds(&self) -> Vec<u64> {
        self.restored.lock().expect("restored lock").keys().copied().collect()
    }

    /// Hands the restored outcome for `seed` to the runner (once).
    pub(crate) fn take_restored(&self, seed: u64) -> Option<SeedOutcome<ReportOf<P>>> {
        self.restored.lock().expect("restored lock").remove(&seed)
    }

    /// Persists one finished seed: writes its shard atomically, then
    /// appends and fsyncs a manifest acknowledgement. Only after both
    /// steps will a resume skip the seed, so a crash at any point in
    /// between re-runs it rather than trusting a torn shard.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; the batch runner surfaces the first one and
    /// aborts rather than silently running uncheckpointed.
    pub fn record(
        &self,
        seed: u64,
        outcome: &SeedOutcome<ReportOf<P>>,
    ) -> Result<(), CheckpointError> {
        let mut text = schema_header();
        text.push('\n');
        encode_seed_outcome(seed, outcome, &mut text);
        write_atomic(&self.dir.join(shard_name(seed)), &text)?;
        let mut line = String::new();
        Line::new(&mut line, "done").split_u64("seed", seed).end_line();
        let mut f = self.manifest.lock().expect("manifest lock");
        f.write_all(line.as_bytes())?;
        f.sync_data()?;
        Ok(())
    }
}

fn shard_name(seed: u64) -> String {
    format!("seed-{seed}.jsonl")
}

/// Parses the manifest: schema header, `batch_manifest` record (digest
/// checked), then `done` acknowledgements. Unparseable `done` lines —
/// a torn trailing write from a killed run — are skipped, which only
/// ever errs toward re-running a seed.
fn parse_manifest(text: &str, expected: u64) -> Result<Vec<u64>, CheckpointError> {
    let mut lines = text.lines();
    let header =
        lines.next().ok_or_else(|| CheckpointError::Format("empty manifest".to_string()))?;
    check_schema_header(header)?;
    let found = Record::next(&mut lines, "batch_manifest")?.u64("digest")?;
    if found != expected {
        return Err(CheckpointError::ConfigMismatch { expected, found });
    }
    let done = lines.filter_map(|line| {
        let r = Record::parse(line).ok()?;
        r.expect_type("done").ok()?;
        r.split_u64("seed").ok()
    });
    Ok(done.collect())
}

/// Loads one acknowledged shard; any failure (missing file, torn or
/// version-skewed content, seed mismatch) yields `None` so the seed
/// re-runs.
fn load_shard<R: SeedReport>(dir: &Path, seed: u64) -> Option<SeedOutcome<R>> {
    let text = fs::read_to_string(dir.join(shard_name(seed))).ok()?;
    let mut lines = text.lines();
    check_schema_header(lines.next()?).ok()?;
    let (found, outcome) = decode_seed_outcome(&mut lines).ok()?;
    (found == seed).then_some(outcome)
}

/// Writes `contents` to `path` atomically: temp file, fsync, rename,
/// directory fsync. Readers never observe a partial file.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Postmortem replay specs
// ---------------------------------------------------------------------

/// Everything needed to re-run a quarantined seed exactly: parsed from
/// a self-describing postmortem dump by [`replay_spec_from_postmortem`]
/// and executed by [`crate::batch::replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySpec {
    /// The quarantined seed.
    pub seed: u64,
    /// The recorded failure cause the re-run must reproduce.
    pub cause: String,
    /// The fully seeded configuration (jitters and fault plan applied).
    pub config: SimConfig,
    /// The intentional-panic trigger active during the original run.
    pub panic_after: Option<u64>,
    /// The watchdog event budget active during the original run.
    pub max_events: Option<u64>,
}

/// Appends the replay-context records a postmortem dump embeds: a
/// `replay` record (seed + panic/watchdog triggers) followed by the
/// seeded config block.
pub fn encode_replay_context(
    seed: u64,
    panic_after: Option<u64>,
    max_events: Option<u64>,
    config: &SimConfig,
    out: &mut String,
) {
    Line::new(out, "replay")
        .split_u64("seed", seed)
        .bool("has_panic_after", panic_after.is_some())
        .uint("panic_after", panic_after.unwrap_or(0))
        .bool("has_max_events", max_events.is_some())
        .uint("max_events", max_events.unwrap_or(0))
        .end_line();
    encode_sim_config(config, out);
}

/// Reconstructs a [`ReplaySpec`] from a postmortem dump written by
/// `dcebcn batch` (schema v2 with embedded replay context).
///
/// # Errors
///
/// Fails when `text` is not a postmortem dump, lacks the embedded
/// config (pre-recovery dumps), or its config block fails to decode.
pub fn replay_spec_from_postmortem(text: &str) -> Result<ReplaySpec, CheckpointError> {
    let mut lines = text.lines();
    let header =
        lines.next().ok_or_else(|| CheckpointError::Format("empty postmortem file".to_string()))?;
    check_schema_header(header)?;
    let all: Vec<&str> = lines.collect();
    let mut cause = None;
    let mut replay = None;
    let mut config = None;
    let mut idx = 0;
    while idx < all.len() {
        let Ok(r) = Record::parse(all[idx]) else {
            idx += 1;
            continue;
        };
        match r.str("type").as_deref() {
            Ok("postmortem") => {
                cause = Some(r.str("cause")?.into_owned());
                idx += 1;
            }
            Ok("replay") => {
                let seed = r.split_u64("seed")?;
                let panic_after = r.bool("has_panic_after")?.then(|| r.u64("panic_after"));
                let max_events = r.bool("has_max_events")?.then(|| r.u64("max_events"));
                replay = Some((seed, panic_after.transpose()?, max_events.transpose()?));
                idx += 1;
            }
            Ok("sim_config") => {
                let mut rest = all[idx..].iter().copied();
                config = Some(decode_sim_config(&mut rest)?);
                idx = all.len() - rest.count();
            }
            _ => idx += 1,
        }
    }
    let cause = cause.ok_or_else(|| {
        CheckpointError::Format("no `postmortem` record: not a postmortem dump".to_string())
    })?;
    let (seed, panic_after, max_events) = replay.ok_or_else(|| {
        CheckpointError::Format(
            "no `replay` record: dump predates the self-describing postmortem format".to_string(),
        )
    })?;
    let config = config.ok_or_else(|| {
        CheckpointError::Format(
            "no `sim_config` block: dump predates the self-describing postmortem format"
                .to_string(),
        )
    })?;
    Ok(ReplaySpec { seed, cause, config, panic_after, max_events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_batch, run_batch_checkpointed};
    use telemetry::TelemetryLevel;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcesim-ckpt-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn faulty_batch(n: u64) -> BatchConfig {
        let mut base = SimConfig::fluid_validation_default();
        base.t_end = Time::from_secs(0.02);
        base.faults.seed = 7;
        base.faults.feedback_loss = 0.2;
        BatchConfig { level: TelemetryLevel::Full, ..BatchConfig::quick(base, n) }
    }

    #[test]
    fn sim_config_codec_round_trips_bcn_and_qcn() {
        let mut bcn = crate::batch::seeded_config(&faulty_batch(2), 1);
        bcn.flows[0].stop = Some(Time::from_secs(0.015));
        bcn.flows[1].volume_bits = Some(1.5e6);
        if let Control::Bcn { cp, .. } = &mut bcn.control {
            cp.fb_quant = Some(FbQuant { bits: 6, range_bits: 2.0e6 });
        }
        let mut qcn = bcn.clone();
        qcn.control = Control::Qcn {
            cp: QcnCpConfig { q_eq_bits: 1.0e6, w: 2.0, sample_every: 50 },
            rp: QcnRpConfig {
                gd: 1.0 / 128.0,
                bc_limit_bits: 1.2e6,
                fr_cycles: 5,
                r_ai: 5.0e6,
                r_hai: 5.0e7,
                r_min: 1.0e4,
                r_max: 1.0e9,
            },
        };
        qcn.scheduler = Scheduler::Heap;
        let mut none = bcn.clone();
        none.control = Control::None;
        for cfg in [bcn, qcn, none] {
            let mut text = String::new();
            encode_sim_config(&cfg, &mut text);
            let decoded = decode_sim_config(&mut text.lines()).expect("decode");
            assert_eq!(decoded, cfg);
        }
    }

    #[test]
    fn sim_config_decode_rejects_tampering() {
        let cfg = crate::batch::seeded_config(&faulty_batch(1), 0);
        let mut text = String::new();
        encode_sim_config(&cfg, &mut text);
        let tampered = text.replacen("\"capacity\":1", "\"capacity\":2", 1);
        assert_ne!(tampered, text, "expected the capacity field to be editable");
        let err = decode_sim_config(&mut tampered.lines()).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(m) if m.contains("digest mismatch")));
    }

    #[test]
    fn seed_outcomes_round_trip_byte_exactly() {
        let mut cfg = faulty_batch(3);
        cfg.panic_seeds = vec![1];
        // 400 > PANIC_AFTER_STEPS (256): seed 1 still panics, while the
        // other seeds run into the event budget and get demoted — so
        // one batch exercises all three outcome arms of the codec.
        cfg.max_events_per_seed = Some(400);
        let report = run_batch(&cfg);
        let kinds = outcome_kinds(&report);
        assert_eq!(kinds, ["timed_out", "failed", "timed_out"], "outcomes: {kinds:?}");
        let mut completed_cfg = faulty_batch(1);
        completed_cfg.max_seed_retries = 3;
        let completed = run_batch(&completed_cfg);
        assert_eq!(completed.completed().count(), 1);
        assert_round_trips(&report);
        assert_round_trips(&completed);
        // Failure causes travel verbatim: quotes and control characters
        // are escaped on write, not rewritten at capture.
        let cause = "seed 9: \"quoted\"\n\tpanic".to_string();
        let failed =
            SeedOutcome::<SimReport>::Failed { cause: cause.clone(), retries: 2, telemetry: None };
        let mut text = String::new();
        encode_seed_outcome(9, &failed, &mut text);
        match decode_seed_outcome::<SimReport, _>(&mut text.lines()).expect("decode") {
            (9, SeedOutcome::Failed { cause: got, retries: 2, telemetry: None }) => {
                assert_eq!(got, cause);
            }
            _ => panic!("failed outcome did not round-trip: {text}"),
        }
    }

    /// Every outcome of `report` must decode from its encoding, consume
    /// exactly its block, and re-encode to the same bytes.
    fn assert_round_trips<R: SeedReport>(report: &crate::batch::BatchReport<R>) {
        for (&seed, outcome) in report.seeds.iter().zip(&report.outcomes) {
            let mut text = String::new();
            encode_seed_outcome(seed, outcome, &mut text);
            let mut lines = text.lines();
            let (dseed, decoded) = decode_seed_outcome::<R, _>(&mut lines).expect("decode");
            assert_eq!(dseed, seed);
            assert_eq!(lines.next(), None, "decoder must consume the whole block");
            let mut re = String::new();
            encode_seed_outcome(dseed, &decoded, &mut re);
            assert_eq!(re, text, "seed {seed} round trip not byte-exact");
        }
    }

    fn outcome_kinds<R>(report: &crate::batch::BatchReport<R>) -> Vec<&'static str> {
        report
            .outcomes
            .iter()
            .map(|o| match o {
                SeedOutcome::Completed(_) => "completed",
                SeedOutcome::Failed { .. } => "failed",
                SeedOutcome::TimedOut { .. } => "timed_out",
            })
            .collect()
    }

    /// Records a whole batch, then checks that `create` refuses the
    /// populated directory and `resume` restores every seed.
    fn recorded_store<B: SeedBatch>(cfg: &B, tag: &str) -> PathBuf {
        let dir = scratch(tag);
        let ck = BatchCheckpoint::create(&dir, cfg).expect("create");
        run_batch_checkpointed(cfg, &ck).expect("run");
        drop(ck);
        assert!(
            matches!(BatchCheckpoint::create(&dir, cfg), Err(CheckpointError::Format(_))),
            "create must refuse an existing manifest"
        );
        let ck = BatchCheckpoint::resume(&dir, cfg).expect("resume");
        assert_eq!(ck.restored_seeds(), cfg.seeds());
        dir
    }

    fn assert_mismatch<P: SeedBatch>(resumed: Result<BatchCheckpoint<P>, CheckpointError>) {
        match resumed.err() {
            Some(CheckpointError::ConfigMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_store_round_trips_and_rejects_mismatched_configs() {
        let (sim, net) = (faulty_batch(2), net_faulty_batch(2));
        let sim_dir = recorded_store(&sim, "store");
        let net_dir = recorded_store(&net, "net-store");
        let mut other = sim.clone();
        other.rate_jitter_frac += 0.01;
        assert_mismatch(BatchCheckpoint::resume(&sim_dir, &other));
        let mut other = net.clone();
        other.rate_jitter_frac += 0.01;
        assert_mismatch(BatchCheckpoint::resume(&net_dir, &other));
        // Neither engine resumes the other's directory.
        assert_mismatch(BatchCheckpoint::resume(&net_dir, &sim));
        assert_mismatch(BatchCheckpoint::resume(&sim_dir, &net));
        let _ = fs::remove_dir_all(&sim_dir);
        let _ = fs::remove_dir_all(&net_dir);
    }

    #[test]
    fn torn_manifest_line_and_corrupt_shard_only_rerun_seeds() {
        let dir = scratch("torn");
        let cfg = faulty_batch(3);
        let ck = BatchCheckpoint::create(&dir, &cfg).expect("create");
        let report = run_batch(&cfg);
        for (&seed, outcome) in report.seeds.iter().zip(&report.outcomes) {
            ck.record(seed, outcome).expect("record");
        }
        drop(ck);
        // Corrupt seed 1's shard and tear the final manifest line the
        // way a SIGKILL mid-append would.
        fs::write(dir.join(shard_name(1)), "garbage\n").expect("corrupt shard");
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path).expect("read manifest");
        fs::write(&path, &text[..text.len() - 3]).expect("tear manifest");
        let ck = BatchCheckpoint::resume(&dir, &cfg).expect("resume");
        assert_eq!(ck.restored_seeds(), vec![0], "seeds 1 (corrupt) and 2 (torn) must re-run");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Rewrites the first `"key":<number>` in `text` to `"key":value`.
    fn forge(text: &str, key: &str, value: &str) -> String {
        let pat = format!("\"{key}\":");
        let at = text.find(&pat).unwrap_or_else(|| panic!("no `{key}` field")) + pat.len();
        let end = at + text[at..].find([',', '}']).expect("field terminator");
        format!("{}{value}{}", &text[..at], &text[end..])
    }

    /// Records a two-seed batch, forges one field of seed 0's shard,
    /// and resumes: the forged shard must not restore or abort, and the
    /// re-run seed must reproduce the clean run's outcome.
    fn assert_forged_shard_reruns(tag: &str, key: &str, value: &str) {
        let dir = scratch(tag);
        let cfg = faulty_batch(2);
        let ck = BatchCheckpoint::create(&dir, &cfg).expect("create");
        let clean = run_batch_checkpointed(&cfg, &ck).expect("run");
        drop(ck);
        let path = dir.join(shard_name(0));
        let text = fs::read_to_string(&path).expect("read shard");
        fs::write(&path, forge(&text, key, value)).expect("forge shard");
        let ck = BatchCheckpoint::resume(&dir, &cfg).expect("resume");
        assert_eq!(ck.restored_seeds(), vec![1], "forged `{key}` shard must re-run seed 0");
        let resumed = run_batch_checkpointed(&cfg, &ck).expect("resumed run");
        let encode = |r: &crate::batch::BatchReport| {
            let mut text = String::new();
            encode_seed_outcome(0, &r.outcomes[0], &mut text);
            text
        };
        assert_eq!(encode(&resumed), encode(&clean));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_source_count_reruns_the_seed() {
        assert_forged_shard_reruns("forged-sources", "sources", "9007199254740992");
    }

    #[test]
    fn forged_histogram_width_reruns_the_seed() {
        assert_forged_shard_reruns("forged-buckets", "bucket_len", "9007199254740992");
    }

    #[test]
    fn zero_trace_capacity_reruns_the_seed() {
        assert_forged_shard_reruns("forged-capacity", "trace_capacity", "0");
    }

    #[test]
    fn replay_spec_round_trips_through_a_postmortem_dump() {
        let cfg = faulty_batch(2);
        let seeded = crate::batch::seeded_config(&cfg, 1);
        let mut text = schema_header();
        text.push('\n');
        text.push_str(r#"{"type":"postmortem","seed":1,"cause":"seed 1: intentional panic (panic_seeds)","open_spans":1,"events":4}"#);
        text.push('\n');
        encode_replay_context(1, Some(256), None, &seeded, &mut text);
        let spec = replay_spec_from_postmortem(&text).expect("parse");
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.cause, "seed 1: intentional panic (panic_seeds)");
        assert_eq!(spec.config, seeded);
        assert_eq!(spec.panic_after, Some(256));
        assert_eq!(spec.max_events, None);
    }

    fn net_faulty_batch(n: u64) -> NetBatchConfig {
        let spec = crate::topo::TopoSpec::leaf_spine(2, 1, 3);
        let traffic = crate::topo::Traffic::Incast { senders: 3, dst: usize::MAX, load: 2.0 };
        let mut base = crate::topo::compile(&spec, &traffic, 0.004).expect("compile");
        base.faults.seed = 11;
        base.faults.feedback_loss = 0.2;
        NetBatchConfig { level: TelemetryLevel::Summary, ..NetBatchConfig::quick(base, n) }
    }

    #[test]
    fn net_seed_outcomes_round_trip_byte_exactly() {
        let mut cfg = net_faulty_batch(3);
        cfg.panic_seeds = vec![1];
        cfg.max_events_per_seed = Some(400);
        let report = run_batch(&cfg);
        let kinds = outcome_kinds(&report);
        assert_eq!(kinds, ["timed_out", "failed", "timed_out"], "outcomes: {kinds:?}");
        let completed = run_batch(&net_faulty_batch(1));
        assert_eq!(completed.completed().count(), 1);
        assert_round_trips(&report);
        assert_round_trips(&completed);
    }

    #[test]
    fn replay_spec_rejects_dumps_without_embedded_config() {
        let mut text = schema_header();
        text.push('\n');
        text.push_str(r#"{"type":"postmortem","seed":1,"cause":"boom","open_spans":0,"events":0}"#);
        text.push('\n');
        let err = replay_spec_from_postmortem(&text).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(m) if m.contains("replay")));
    }
}
