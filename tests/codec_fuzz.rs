//! Mutation tests for every flat-JSONL decoder.
//!
//! One golden line or block of each record kind (trace event, telemetry
//! snapshot, both seed-outcome bodies, `sim_config` + replay context,
//! checkpoint manifest, query, answer, grid-campaign journal) is
//! mutated three ways: `0`, `-1`, `1e308`, `NaN` and `2^53` are spliced
//! into every numeric token (packed-list tokens included), the text is
//! truncated at seeded offsets, and seeded bytes are overwritten. Every
//! mutant must decode to a typed error or to a value whose encoding
//! decodes back to itself; a panic fails the test, and a decoder that
//! sizes memory from a forged count aborts the whole binary.
//!
//! Std-only and deterministic: seeded through `dcesim::faults::splitmix64`
//! with a fixed case count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use bcn::query::{
    answer_from_jsonl, answer_to_jsonl, query_from_jsonl, query_to_jsonl, StabilityAnswer,
    StabilityQuery,
};
use bcn::BcnParams;
use dcesim::batch::{run_batch, seeded_config, BatchConfig, NetBatchConfig, SeedReport};
use dcesim::checkpoint::{
    decode_seed_outcome, encode_replay_context, encode_seed_outcome, replay_spec_from_postmortem,
    BatchCheckpoint, MANIFEST_FILE,
};
use dcesim::faults::splitmix64;
use dcesim::net::NetReport;
use dcesim::sim::{SimConfig, SimReport};
use dcesim::time::Time;
use telemetry::{
    event_from_jsonl, event_to_jsonl, schema_header, snapshot_from_jsonl, snapshot_to_jsonl, Event,
    ExtremumKind, FaultClass, SpanKind, Telemetry, TelemetryLevel,
};

/// Values spliced into every numeric token.
const SPLICES: [&str; 5] = ["0", "-1", "1e308", "NaN", "9007199254740992"];
/// Seeded truncations and byte overwrites per golden input.
const TRUNCATIONS: usize = 48;
const FLIPS: usize = 192;
/// Bytes an overwrite draws from: the codec's structural characters
/// plus number and string material.
const FLIP_BYTES: &[u8] = b"0123456789-+.eE,:{}\"\\ Nafinx_tu";

/// A decoder under test: `Ok(encoding)` re-encodes the decoded value,
/// `Err` is the typed rejection.
type Codec = fn(&str) -> Result<String, String>;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("codec-fuzz-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Start/end byte offsets of every numeric token: a run that starts
/// with a digit, `-`, `N` or `i` right after `:`, `,` or `"`, and ends
/// at `,`, `:`, `"`, `}` or a line end.
fn numeric_tokens(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 1;
    while i < b.len() {
        let starts = matches!(b[i - 1], b':' | b',' | b'"')
            && (b[i].is_ascii_digit() || matches!(b[i], b'-' | b'N' | b'i'));
        if !starts {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < b.len() && !matches!(b[j], b',' | b':' | b'"' | b'}' | b'\n') {
            j += 1;
        }
        let tok = &text[i..j];
        if tok.parse::<f64>().is_ok() || matches!(tok, "NaN" | "inf" | "-inf") {
            spans.push((i, j));
        }
        i = j.max(i + 1);
    }
    spans
}

/// Every mutant of `golden`: numeric splices first, then the seeded
/// truncations and overwrites.
fn mutants(golden: &str, seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    for (s, e) in numeric_tokens(golden) {
        for v in SPLICES {
            out.push(format!("{}{v}{}", &golden[..s], &golden[e..]));
        }
    }
    let mut state = seed;
    let mut draw = |n: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (splitmix64(state) % n as u64) as usize
    };
    for _ in 0..TRUNCATIONS {
        let at = draw(golden.len());
        if golden.is_char_boundary(at) {
            out.push(golden[..at].to_string());
        }
    }
    for _ in 0..FLIPS {
        let at = draw(golden.len());
        let byte = FLIP_BYTES[draw(FLIP_BYTES.len())];
        let mut bytes = golden.as_bytes().to_vec();
        bytes[at] = byte;
        if let Ok(s) = String::from_utf8(bytes) {
            out.push(s);
        }
    }
    out
}

/// The head of a mutant, for failure messages.
fn clip(m: &str) -> &str {
    let mut end = m.len().min(400);
    while !m.is_char_boundary(end) {
        end -= 1;
    }
    &m[..end]
}

/// Runs every mutant of `golden` through `codec`: a panic, or a decoded
/// value whose encoding does not decode back to the same encoding, is
/// a failure. Returns how many mutants decoded.
fn check(kind: &str, golden: &str, codec: Codec) -> usize {
    let reencoded = codec(golden).unwrap_or_else(|e| panic!("{kind}: golden input rejected: {e}"));
    assert_eq!(codec(&reencoded), Ok(reencoded.clone()), "{kind}: golden re-encode unstable");
    let mut failures = Vec::new();
    let mut decoded = 0;
    let all = mutants(golden, splitmix64(kind.len() as u64 ^ golden.len() as u64));
    for m in &all {
        match catch_unwind(AssertUnwindSafe(|| codec(m))) {
            Err(_) => failures.push(format!("panic on {:?}", clip(m))),
            Ok(Err(_)) => {}
            Ok(Ok(enc)) => {
                decoded += 1;
                match catch_unwind(AssertUnwindSafe(|| codec(&enc))) {
                    Ok(Ok(again)) if again == enc => {}
                    other => {
                        failures.push(format!("unstable re-encode of {:?}: {other:?}", clip(m)))
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{kind}: {} of {} mutants failed; first: {}",
        failures.len(),
        all.len(),
        failures[0]
    );
    decoded
}

// ---------------------------------------------------------------------
// Golden inputs and their codecs
// ---------------------------------------------------------------------

fn event_codec(line: &str) -> Result<String, String> {
    event_from_jsonl(line).map(|e| event_to_jsonl(&e)).map_err(|e| e.to_string())
}

fn snapshot_codec(text: &str) -> Result<String, String> {
    let mut lines = text.lines();
    let tel = snapshot_from_jsonl(&mut lines).map_err(|e| e.to_string())?;
    Ok(snapshot_to_jsonl(&tel))
}

/// A decoded outcome block must also consume exactly its own lines.
fn outcome_codec<R: SeedReport>(text: &str) -> Result<String, String> {
    let mut lines = text.lines();
    let (seed, outcome) = decode_seed_outcome::<R, _>(&mut lines).map_err(|e| e.to_string())?;
    let mut out = String::new();
    encode_seed_outcome(seed, &outcome, &mut out);
    Ok(out)
}

fn sim_outcome_codec(text: &str) -> Result<String, String> {
    outcome_codec::<SimReport>(text)
}

fn net_outcome_codec(text: &str) -> Result<String, String> {
    outcome_codec::<NetReport>(text)
}

fn replay_codec(text: &str) -> Result<String, String> {
    let spec = replay_spec_from_postmortem(text).map_err(|e| e.to_string())?;
    Ok(postmortem(&spec.cause, spec.seed, spec.panic_after, spec.max_events, &spec.config))
}

fn query_codec(line: &str) -> Result<String, String> {
    query_from_jsonl(line).map(|q| query_to_jsonl(&q)).map_err(|e| e.to_string())
}

fn answer_codec(line: &str) -> Result<String, String> {
    answer_from_jsonl(line).map(|a| answer_to_jsonl(&a)).map_err(|e| e.to_string())
}

fn postmortem(
    cause: &str,
    seed: u64,
    panic_after: Option<u64>,
    max_events: Option<u64>,
    cfg: &SimConfig,
) -> String {
    let mut text = schema_header();
    text.push('\n');
    telemetry::Line::new(&mut text, "postmortem").uint("seed", seed).str("cause", cause).end_line();
    encode_replay_context(seed, panic_after, max_events, cfg, &mut text);
    text
}

/// A small dumbbell: two flows, a short horizon, feedback loss.
fn small_batch(level: TelemetryLevel) -> BatchConfig {
    let mut base = SimConfig::fluid_validation_default();
    base.flows.truncate(2);
    base.t_end = Time::from_secs(0.000_5);
    base.faults.seed = 3;
    base.faults.feedback_loss = 0.2;
    BatchConfig { level, ..BatchConfig::quick(base, 1) }
}

/// A small fabric: two-sender incast on a two-leaf leaf-spine, four
/// recorded samples per switch queue, no telemetry (the snapshot has
/// its own golden input).
fn small_net_batch() -> NetBatchConfig {
    let spec = dcesim::topo::TopoSpec::leaf_spine(2, 1, 2);
    let traffic = dcesim::topo::Traffic::Incast { senders: 2, dst: usize::MAX, load: 2.0 };
    let mut base = dcesim::topo::compile(&spec, &traffic, 0.000_2).expect("compile");
    base.record_interval = dcesim::time::Duration::from_secs(0.000_05);
    NetBatchConfig { level: TelemetryLevel::Off, ..NetBatchConfig::quick(base, 1) }
}

fn busy_sink() -> Telemetry {
    let mut tel = Telemetry::with_trace_capacity(TelemetryLevel::Full, 8);
    tel.set_span_id_base(3 << 32);
    let root = tel.span_begin(0.0, SpanKind::BatchSeed, 3, 0);
    tel.span_begin(1e-4, SpanKind::FlowLifetime, 1, root);
    for i in 0..12u32 {
        let t = f64::from(i) * 1e-4;
        tel.step_accepted(t, 1e-4, 0.25);
        tel.queue_sample(t, f64::from(i % 5) * 1e4);
    }
    tel.bcn_message(2e-3, -12.5, 1);
    tel.pause(2.1e-3, 2.2e-3, 0);
    tel.queue_extremum(2.3e-3, 4e4, ExtremumKind::Max);
    tel.fault_injected(2.4e-3, FaultClass::FeedbackDrop, 1);
    tel
}

#[test]
fn trace_event_decoder_survives_mutation() {
    let events = [
        Event::QueueThresholdCrossed { t: 3.5, q: 1.2e6, threshold: 1e6, rising: true },
        Event::SpanBegin { t: 1e-3, id: 5 << 32, parent: 0, kind: SpanKind::BatchSeed, entity: 5 },
        Event::FaultInjected { t: 9.0, class: FaultClass::FeedbackCorrupt, target: 3 },
    ];
    for e in events {
        check("trace event", &event_to_jsonl(&e), event_codec);
    }
}

#[test]
fn snapshot_decoder_survives_mutation() {
    let decoded = check("snapshot", &snapshot_to_jsonl(&busy_sink()), snapshot_codec);
    assert!(decoded > 0, "no mutant decoded: the property is vacuous");
}

#[test]
fn seed_outcome_decoders_survive_mutation() {
    let report = run_batch(&small_batch(TelemetryLevel::Summary));
    let mut block = String::new();
    encode_seed_outcome(report.seeds[0], &report.outcomes[0], &mut block);
    check("dumbbell seed outcome", &block, sim_outcome_codec);

    let report = run_batch(&small_net_batch());
    let mut block = String::new();
    encode_seed_outcome(report.seeds[0], &report.outcomes[0], &mut block);
    check("fabric seed outcome", &block, net_outcome_codec);
}

#[test]
fn replay_context_decoder_survives_mutation() {
    let cfg = seeded_config(&small_batch(TelemetryLevel::Off), 0);
    let golden = postmortem("seed 0: \"boom\"\n", 0, Some(256), None, &cfg);
    check("sim_config + replay", &golden, replay_codec);
}

#[test]
fn query_and_answer_decoders_survive_mutation() {
    let q = StabilityQuery { params: BcnParams::paper_defaults(), max_legs: 48 };
    check("query", &query_to_jsonl(&q), query_codec);
    check("sparse query", r#"{"type":"query","gi":2.0,"n":100}"#, query_codec);
    let a = StabilityAnswer {
        strongly_stable: true,
        required_buffer: 1.05e7,
        max_x: 7.9e6,
        min_x: -2.4e6,
        legs: 64,
    };
    check("answer", &answer_to_jsonl(&a), answer_codec);
}

/// File-backed decoders: the mutant is written where the decoder reads
/// it, and the decoder's verdict must be a typed result.
fn check_file(kind: &str, golden: &str, path: &Path, open: impl Fn() -> Result<(), String>) {
    let mut failures = Vec::new();
    let all = mutants(golden, splitmix64(kind.len() as u64 ^ golden.len() as u64));
    for m in &all {
        std::fs::write(path, m).expect("write mutant");
        if catch_unwind(AssertUnwindSafe(&open)).is_err() {
            failures.push(m.clone());
        }
    }
    assert!(
        failures.is_empty(),
        "{kind}: {} mutants panicked; first: {:?}",
        failures.len(),
        clip(&failures[0])
    );
}

#[test]
fn manifest_decoder_survives_mutation() {
    let cfg = small_batch(TelemetryLevel::Off);
    let dir = scratch("manifest");
    let ck = BatchCheckpoint::create(&dir, &cfg).expect("create");
    dcesim::batch::run_batch_checkpointed(&cfg, &ck).expect("run");
    drop(ck);
    let path = dir.join(MANIFEST_FILE);
    let golden = std::fs::read_to_string(&path).expect("read manifest");
    check_file("manifest", &golden, &path, || {
        let ck = BatchCheckpoint::resume(&dir, &cfg).map_err(|e| e.to_string())?;
        assert!(ck.restored_seeds().iter().all(|s| cfg.seeds.contains(s)));
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grid_journal_decoder_survives_mutation() {
    use bench::common::{grid_digest, GridCheckpoint};
    let dir = scratch("grid");
    let digest = grid_digest(&[0.0, 0.1]);
    let mut ck = GridCheckpoint::open_in(&dir, "fuzz", digest).expect("open");
    ck.record("loss=0.1,delay_us=0", |l| {
        l.num("max_queue", 1.5e6).num("drops", 0.0).num("feedback", 2832.0).bool("stable", true)
    })
    .expect("record");
    drop(ck);
    let path = dir.join("fuzz.ckpt.jsonl");
    let golden = std::fs::read_to_string(&path).expect("read journal");
    check_file("grid journal", &golden, &path, || {
        let ck = GridCheckpoint::open_in(&dir, "fuzz", digest).map_err(|e| e.to_string())?;
        if let Some(r) = ck.restored("loss=0.1,delay_us=0") {
            let _ = (r.f64("max_queue"), r.u64("drops"), r.bool("stable"));
        }
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&dir);
}
