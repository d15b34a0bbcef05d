//! The repository benchmark: one command, four workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced run.
//!
//! ```console
//! $ python3 perfbench/run.py --workload dumbbell_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this package and runs it with the same arguments. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; every line before it is
//! for people. Every input comes from `--seed` through [`gen`]; every
//! output is checked before the result is printed.

mod batch;
mod fabric;
mod gen;
mod layers;
mod query;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] =
    ["dumbbell_batch", "fabric_incast_512", "query_zipf", "hybrid_limit_cycle"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
    /// Provenance handed down by `run.py`.
    pub rev: String,
    pub rustc: String,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(kv.get("out-dir").copied().unwrap_or(".bench_build")),
        rev: kv.get("rev").copied().unwrap_or("unknown").to_string(),
        rustc: kv.get("rustc").copied().unwrap_or("unknown").to_string(),
    })
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: simulated seeds, fabric runs, questions, and
    /// the output checks themselves.
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// CPU seconds of the program's set-up, one sample per timed unit
    /// (the set-up is repeated before each unit).
    pub setup_samples: Vec<f64>,
    /// Work completed in the timed window: simulated seconds, or
    /// questions answered.
    pub work: f64,
    /// What `work` counts, for the human table.
    pub work_name: &'static str,
    /// CPU seconds of the timed units.
    pub busy_s: f64,
    /// Wall-clock seconds of the timed units (shown, not gated: on a
    /// shared host it spreads far more than CPU time).
    pub wall_s: f64,
    /// CPU time of each timed unit, in milliseconds.
    pub units_ms: Vec<f64>,
    /// What one unit is, for the human table.
    pub unit_name: &'static str,
    /// Digest of the simulated statistics or answers of the checked unit.
    pub digest: u64,
    /// Per-layer metrics of the traced run (absent ones read 0).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<spans::Span>,
}

impl Report {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// FNV-1a over 64-bit words: the digest of simulated statistics.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A telemetry counter by name (0 when never incremented).
pub fn counter(tel: &telemetry::Telemetry, name: &str) -> f64 {
    tel.metrics.counter_by_name(name).unwrap_or(0) as f64
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker: the batches run on the calling thread, so the process
    // CPU time is the work's own, with no worker hand-off or idle wait.
    parkit::set_threads(1);
    let mut report = match opts.workload.as_str() {
        "dumbbell_batch" => batch::run(&opts, &batch::dumbbell()),
        "hybrid_limit_cycle" => batch::run(&opts, &batch::limit_cycle()),
        "fabric_incast_512" => fabric::run(&opts),
        "query_zipf" => query::run(&opts),
        _ => unreachable!("workload validated by parse_args"),
    };
    let rss = peak_rss_mb();

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        let failed_frac = report.failures.len() as f64 / report.attempted.max(1) as f64;
        report.layers.insert("failed_frac", failed_frac);
        for (name, unit, _, moves, on) in layers::LAYERS {
            let value = report.layers.get(name).copied().unwrap_or(0.0);
            metrics.push((name, value, unit));
            report.notes.push(format!("{name:<28} {value:>18.9} {unit:<9} moves {moves} on {on}"));
        }
        for (name, secs) in spans::self_time_by_name(&report.spans) {
            report.notes.push(format!("self time {name:<14} {secs:>10.6} s"));
        }
        let path =
            opts.out_dir.join(format!("perfbench-spans-{}-{}.jsonl", opts.workload, opts.seed));
        if let Err(e) = std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, spans::to_jsonl(&report.spans)))
        {
            report.failures.push(format!("could not write {}: {e}", path.display()));
        } else {
            report.notes.push(format!("spans written to {}", path.display()));
        }
    } else {
        let units = stats::summarize(&report.units_ms);
        metrics.push(("setup_s", stats::median(&report.setup_samples), "s"));
        metrics.push(("work_per_cpu_s", report.work / report.busy_s, "work/s"));
        metrics.push(("unit_cpu_p50_ms", units.p50, "ms"));
        metrics.push(("unit_cpu_tail_ms", units.tail, "ms"));
        metrics.push(("peak_rss_mb", rss, "MiB"));
        report.notes.push(format!(
            "work is {}; a unit is {}; unit_cpu_tail_ms is p{} of {} units; \
             setup_s is the median of {} set-ups",
            report.work_name,
            report.unit_name,
            units.tail_p * 100.0,
            units.n,
            report.setup_samples.len()
        ));
        report.notes.push(format!(
            "wall clock: {:.6} work/s over {:.3} s of units",
            report.work / report.wall_s,
            report.wall_s
        ));
    }

    println!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"rev\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"workers\": {}, \
         \"digest\": \"{:016x}\"}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.rev,
        opts.rustc,
        threads(),
        parkit::configured_threads(),
        report.digest
    );
    for n in &report.notes {
        println!("  {n}");
    }
    if !opts.trace {
        for (name, value, unit) in &metrics {
            println!("  {name:<28} {value:>18.9} {unit}");
        }
    }
    for f in &report.failures {
        println!("FAIL: {f}");
    }

    let correct = report.failures.is_empty();
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.attempted.max(1),
        report.failures.len()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload query_zipf --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (3, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload query_zipf --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload query_zipf --seed 3 --trace 0")).is_err());
    }
}
