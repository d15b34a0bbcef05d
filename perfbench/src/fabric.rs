//! `fabric_incast_512`: 512 senders into one host of the k=16 fat-tree,
//! compiled by `dcesim::topo::compile` and run as one serial `NetSim` —
//! what `dcebcn packet --topo fat-tree:k=16 --traffic incast:senders=512`
//! does.

use std::time::Instant;

use dcesim::net::{NetConfig, NetReport, NetSim};
use dcesim::topo::{compile, TopoSpec, Traffic};
use telemetry::{Telemetry, TelemetryLevel};

use crate::gen;
use crate::spans::{self, Tracer};
use crate::{counter, layers, stats, Digest, Opts, Report};

/// Simulated horizon of one run, in seconds.
const HORIZON: f64 = 0.05;
/// Runs in the traced pass.
const TRACED_RUNS: u64 = 16;

/// Program set-up: validate the spec, compile the fabric and its routes,
/// and build the engine (route tables, CSR ingress lists, reachability).
fn setup(spec: &TopoSpec, traffic: &Traffic) -> Result<NetSim, String> {
    spec.validate().map_err(|e| e.to_string())?;
    let cfg = compile(spec, traffic, HORIZON).map_err(|e| e.to_string())?;
    NetSim::try_new(cfg).map_err(|e| e.to_string())
}

/// One run of a built engine: the step loop, then `finish`. Returns the
/// report and the events dispatched.
fn run_once(mut sim: NetSim, tr: &mut Tracer, unit: u64) -> (NetReport, u64) {
    tr.span("step", unit, || while sim.step() {});
    let events = sim.events_popped();
    (tr.span("finish", unit, || sim.finish()), events)
}

fn digest(r: &NetReport) -> u64 {
    let mut d = Digest::default();
    for f in &r.flows {
        d.word(f.delivered_bits.to_bits());
        d.word(f.dropped_frames);
        d.word(f.final_rate.to_bits());
    }
    for q in &r.switch_queues {
        d.floats(q.values());
    }
    for &p in &r.pause_counts {
        d.word(p);
    }
    d.word(r.feedback_messages);
    d.bytes(format!("{:?}", r.faults).as_bytes());
    d.finish()
}

/// Frames dropped over frames sent (delivered plus dropped).
fn drops(r: &NetReport, frame_bits: f64) -> (f64, f64) {
    let dropped: u64 = r.flows.iter().map(|f| f.dropped_frames).sum();
    let delivered: f64 = r.flows.iter().map(|f| f.delivered_bits / frame_bits).sum();
    (dropped as f64, delivered + dropped as f64)
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report {
        work_name: "simulated seconds",
        unit_name: "one NetSim step loop and finish",
        ..Report::default()
    };
    let (spec, traffic) = gen::fabric(opts.seed);
    let cfg = match compile(&spec, &traffic, HORIZON) {
        Ok(c) => c,
        Err(e) => {
            report.check(false, || format!("fabric does not compile: {e}"));
            return report;
        }
    };
    if let Err(e) = setup(&spec, &traffic) {
        report.check(false, || format!("engine construction failed: {e}"));
        return report;
    }
    if opts.trace {
        traced(&spec, &traffic, &cfg, &mut report);
        return report;
    }

    let mut off = Tracer::new(false);
    let mut first: Option<NetReport> = None;
    let mut events = 0u64;
    let started = Instant::now();
    let mut u = 0;
    while u < 20 || started.elapsed().as_secs_f64() < opts.seconds {
        // Every unit sets its engine up from the spec, and that set-up is
        // one `setup_s` sample.
        let (sim, setup_s) = stats::cpu_time(|| setup(&spec, &traffic));
        report.setup_samples.push(setup_s);
        let sim = sim.expect("constructed once already");
        let w0 = Instant::now();
        let ((r, ev), dt) = stats::cpu_time(|| run_once(sim, &mut off, u));
        report.wall_s += w0.elapsed().as_secs_f64();
        report.units_ms.push(dt * 1e3);
        report.busy_s += dt;
        report.work += HORIZON;
        events += ev;
        match &first {
            None => first = Some(r),
            Some(f) => report.check(*f == r, || format!("run {u}: NetReport differs from run 0")),
        }
        u += 1;
    }
    let first = first.expect("at least one run");
    report.attempted += 1;
    report.digest = digest(&first);
    let (dropped, sent) = drops(&first, cfg.frame_bits);
    report.notes.push(format!(
        "{} hosts, {} switches, {} flows; {:.3} M events per CPU second; drop_frac {:.6}",
        cfg.hosts,
        cfg.switches.len(),
        cfg.flows.len(),
        events as f64 / report.busy_s / 1e6,
        dropped / sent
    ));
    report
}

/// The traced run: `TRACED_RUNS` runs with spans around every call,
/// each followed by the same run with a `Summary` sink (for the
/// counters, and as the telemetry overhead against the span-only run).
/// The sink costs the fabric several times its run time, so the layer
/// times come from the span-only runs.
fn traced(spec: &TopoSpec, traffic: &Traffic, cfg: &NetConfig, report: &mut Report) {
    let mut tr = Tracer::new(true);
    let from = tr.clock_ns();
    let compiled = tr.span("compile", 0, || compile(spec, traffic, HORIZON));
    report.check(compiled.as_ref().is_ok_and(|c| c == cfg), || {
        "recompiled fabric differs from the first compile".into()
    });
    let mut agg = Telemetry::new(TelemetryLevel::Summary);
    let mut reference: Option<NetReport> = None;
    let (mut events, mut pauses, mut dropped, mut sent) = (0.0, 0.0, 0.0, 0.0);
    for u in 0..TRACED_RUNS {
        let run = tr.begin("run", u);
        let sim = tr.span("try_new", u, || NetSim::try_new(cfg.clone()));
        let (r, ev) = run_once(sim.expect("constructed once already"), &mut tr, u);
        tr.end(run);

        let sink = tr.begin("telemetry", u);
        let sim = NetSim::try_new(cfg.clone()).expect("constructed once already");
        let mut off = Tracer::new(false);
        let tel = Telemetry::new(TelemetryLevel::Summary);
        let (mut with_sink, _) = run_once(sim.with_telemetry_sink(tel), &mut off, u);
        tr.end(sink);

        let chk = tr.begin("check", u);
        if let Some(tel) = with_sink.telemetry.take() {
            agg.merge(&tel);
        }
        let reference = reference.get_or_insert_with(|| r.clone());
        report.check(r == *reference, || format!("run {u}: NetReport differs from run 0"));
        report.check(with_sink == r, || format!("run {u}: NetReport differs with the sink"));
        events += ev as f64;
        pauses += r.pause_counts.iter().sum::<u64>() as f64;
        let (d, s) = drops(&r, cfg.frame_bits);
        dropped += d;
        sent += s;
        tr.end(chk);
    }
    let wall = (tr.clock_ns() - from) as f64 * 1e-9;
    report.digest = digest(reference.as_ref().expect("at least one run"));

    let sp = tr.spans();
    let total = spans::time_by_name(sp);
    let t = |name: &str| total.get(name).copied().unwrap_or(0.0);
    let l = &mut report.layers;
    l.insert("topo.compile_s", t("compile"));
    l.insert("topo.route_entries", (cfg.switches.len() * cfg.hosts) as f64);
    l.insert("net.try_new_s", t("try_new"));
    l.insert("net.step_s", t("step"));
    l.insert("net.ns_per_event", t("step") * 1e9 / events);
    l.insert("net.events", events);
    l.insert("net.finish_s", t("finish"));
    l.insert("net.pause_events", pauses);
    l.insert("net.frames_dropped", dropped);
    l.insert("net.pauses_per_kevent", pauses * 1e3 / events);
    l.extend(layers::sched(&agg));
    l.insert("cp.bcn_messages", counter(&agg, "sim.bcn_messages"));
    l.insert("drop_frac", dropped / sent);
    l.insert("telemetry.overhead_frac", t("telemetry") / t("run") - 1.0);
    l.insert("trace.coverage_frac", spans::top_level_secs(sp, from) / wall);
    report.notes.push(format!(
        "traced {TRACED_RUNS} runs: {:.3} s with spans, {:.3} s with the telemetry sink",
        t("run"),
        t("telemetry")
    ));
    report.spans = tr.into_spans();
}
