//! `query_zipf`: one client in a closed loop, shaped like `dcebcn
//! query`. A JSONL stream of stability questions is answered chunk by
//! chunk through `query_from_jsonl` → `QueryBatch::new` → `evaluate_in`
//! → `answer_to_jsonl` on one thread.

use std::collections::HashSet;
use std::time::Instant;

use bcn::propagate::{cache_stats, CacheStats};
use bcn::query::{
    answer_to_jsonl, query_from_jsonl, query_to_jsonl, QueryBatch, StabilityAnswer, StabilityQuery,
};
use bcn::stability::{exact_verdict, theorem1_required_buffer};

use crate::gen::{self, QueryChunk, QueryStream};
use crate::spans::{self, Tracer};
use crate::{stats, Digest, Opts, Report};

/// Questions per chunk: the CLI's default `--chunk`.
const CHUNK: usize = 4096;
/// Bytes reserved per answer line: more than any line `answer_to_jsonl`
/// writes, so the answer buffer is the same size for every seed.
const ANSWER_LINE_ROOM: usize = 192;
/// Chunks in each pass of the traced run.
const TRACED_CHUNKS: u64 = 48;

/// What one chunk did.
#[derive(Debug, Default, Clone, Copy)]
struct ChunkStats {
    queries: usize,
    groups: usize,
    distinct: usize,
    errors: usize,
}

/// Answers one chunk of question text into `out` (one line per input
/// line, error records standing in for lines that fail to decode).
fn answer_chunk(
    text: &str,
    id: u64,
    queries: &mut Vec<StabilityQuery>,
    out: &mut String,
    tr: &mut Tracer,
) -> (ChunkStats, Vec<StabilityAnswer>) {
    let mut st = ChunkStats::default();
    let mut errors: Vec<(usize, String)> = Vec::new();
    let span = tr.begin("decode", id);
    queries.clear();
    for (i, line) in text.lines().enumerate() {
        match query_from_jsonl(line) {
            Ok(q) => queries.push(q),
            Err(e) => errors.push((i, format!(r#"{{"type":"error","cause":"{e}"}}"#))),
        }
    }
    tr.end(span);
    let batch = tr.span("group", id, || QueryBatch::new(queries));
    let answers = tr.span("evaluate", id, || batch.evaluate_in(1));
    st.queries = queries.len();
    st.groups = batch.groups();
    st.distinct = batch.distinct();
    st.errors = errors.len();
    let span = tr.begin("encode", id);
    out.clear();
    let mut next = answers.iter();
    let mut errs = errors.into_iter().peekable();
    for i in 0..queries.len() + st.errors {
        match errs.next_if(|(at, _)| *at == i) {
            Some((_, record)) => out.push_str(&record),
            None => out.push_str(&answer_to_jsonl(next.next().expect("one answer per query"))),
        }
        out.push('\n');
    }
    tr.end(span);
    (st, answers)
}

/// The expected answer line of one question, from the per-query
/// reference path (`exact_verdict` plus `theorem1_required_buffer`).
fn reference(q: &StabilityQuery) -> String {
    let v = exact_verdict(&q.params, q.max_legs);
    answer_to_jsonl(&StabilityAnswer {
        strongly_stable: v.strongly_stable,
        required_buffer: theorem1_required_buffer(&q.params),
        max_x: v.max_x,
        min_x: v.min_x,
        legs: v.legs,
    })
}

/// Checks answer chunks as they are produced. The reference answer of
/// each configuration is computed the first time it is asked, when its
/// question is also checked to re-encode to its input bytes; only the
/// reference's digest is kept, so the checker's memory is fixed however
/// long the run. The answer text of every chunk is folded into a digest.
struct Checker {
    /// Digest of the reference answer line, by configuration rank.
    expected: Vec<Option<u64>>,
    /// Strongly stable configurations among those asked.
    stable: usize,
    digest: Digest,
}

fn line_digest(line: &str) -> u64 {
    let mut d = Digest::default();
    d.bytes(line.as_bytes());
    d.finish()
}

impl Checker {
    fn new() -> Self {
        Self { expected: vec![None; gen::QUERY_DISTINCT], stable: 0, digest: Digest::default() }
    }

    fn check(&mut self, report: &mut Report, chunk: &QueryChunk, out: &str) {
        let mut answers = out.lines();
        for (line, &rank) in chunk.text.lines().zip(&chunk.ranks) {
            let want = *self.expected[rank].get_or_insert_with(|| match query_from_jsonl(line) {
                Ok(q) => {
                    report.check(query_to_jsonl(&q) == line, || {
                        format!("question does not re-encode byte for byte: {line}")
                    });
                    let r = reference(&q);
                    self.stable += usize::from(r.contains(r#""stable":true"#));
                    line_digest(&r)
                }
                Err(e) => line_digest(&format!("undecodable: {e}")),
            });
            let got = answers.next().unwrap_or_default();
            report.check(line_digest(got) == want, || {
                let want = query_from_jsonl(line).map(|q| reference(&q));
                format!("answer `{got}` differs from reference {want:?}")
            });
        }
        self.digest.bytes(out.as_bytes());
    }

    /// The strongly stable share of the configurations asked.
    fn stable_frac(&self) -> f64 {
        let asked = self.expected.iter().filter(|e| e.is_some()).count();
        self.stable as f64 / asked.max(1) as f64
    }
}

/// Set-up before the first chunk: the stream header is checked and the
/// answer header written, as `dcebcn query` does.
fn setup(header: &str) -> Result<String, String> {
    telemetry::check_schema_header(header)
        .map(|()| telemetry::schema_header())
        .map_err(|e| e.to_string())
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report {
        work_name: "questions answered",
        unit_name: "one chunk of 4096 questions",
        ..Report::default()
    };
    let header = telemetry::schema_header();
    if let Err(e) = setup(&header) {
        report.check(false, || format!("schema header rejected: {e}"));
        return report;
    }
    let stream = QueryStream::new(opts.seed);
    if opts.trace {
        traced(&stream, &mut report);
        return report;
    }

    let mut off = Tracer::new(false);
    let mut checker = Checker::new();
    let mut queries = Vec::with_capacity(CHUNK);
    let mut out = String::with_capacity(CHUNK * ANSWER_LINE_ROOM);
    let started = Instant::now();
    let mut c = 0;
    while c < 20 || started.elapsed().as_secs_f64() < opts.seconds {
        let chunk = stream.chunk(c, CHUNK);
        report.setup_samples.push(stats::cpu_per_call(|| setup(&header)));
        let w0 = Instant::now();
        let ((st, _), dt) =
            stats::cpu_time(|| answer_chunk(&chunk.text, c, &mut queries, &mut out, &mut off));
        report.wall_s += w0.elapsed().as_secs_f64();
        report.units_ms.push(dt * 1e3);
        report.busy_s += dt;
        report.work += st.queries as f64;
        report.attempted += (st.queries + st.errors) as u64;
        report.failures.extend((0..st.errors).map(|_| format!("chunk {c}: undecodable line")));
        checker.check(&mut report, &chunk, &out);
        c += 1;
    }
    report.digest = checker.digest.finish();
    report.notes.push(format!(
        "{} distinct configurations, Zipf s={}; {:.1}% of those asked strongly stable",
        gen::QUERY_DISTINCT,
        gen::QUERY_ZIPF_S,
        checker.stable_frac() * 100.0
    ));
    report
}

/// Totals of one pass over the traced chunks.
#[derive(Debug, Default)]
struct Pass {
    chunks: ChunkStats,
    /// Legs over every answer.
    legs: f64,
    /// Legs traced: each distinct question of a chunk once.
    legs_distinct: f64,
    /// Host seconds spent answering.
    busy: f64,
    /// Propagator cache activity while answering.
    cache: CacheStats,
}

/// One pass over the first `TRACED_CHUNKS` chunks of the stream, each
/// checked as it is answered.
fn pass(stream: &QueryStream, tr: &mut Tracer, report: &mut Report) -> Pass {
    let mut queries = Vec::with_capacity(CHUNK);
    let mut out = String::with_capacity(CHUNK * ANSWER_LINE_ROOM);
    let mut checker = Checker::new();
    let mut sum = Pass::default();
    for c in 0..TRACED_CHUNKS {
        let chunk = tr.span("generate", c, || stream.chunk(c, CHUNK));
        let t0 = Instant::now();
        let cache0 = cache_stats();
        let span = tr.begin("chunk", c);
        let (st, answers) = answer_chunk(&chunk.text, c, &mut queries, &mut out, tr);
        tr.end(span);
        let cache = cache_stats().delta_since(cache0);
        sum.busy += t0.elapsed().as_secs_f64();
        let span = tr.begin("check", c);
        let mut seen = HashSet::with_capacity(st.distinct);
        for (line, a) in chunk.text.lines().zip(&answers) {
            sum.legs += a.legs as f64;
            if seen.insert(line) {
                sum.legs_distinct += a.legs as f64;
            }
        }
        sum.cache.hits += cache.hits;
        sum.cache.misses += cache.misses;
        sum.cache.evictions += cache.evictions;
        sum.chunks.queries += st.queries;
        sum.chunks.groups += st.groups;
        sum.chunks.distinct += st.distinct;
        sum.chunks.errors += st.errors;
        report.attempted += (st.queries + st.errors) as u64;
        report.failures.extend((0..st.errors).map(|_| format!("chunk {c}: undecodable line")));
        checker.check(report, &chunk, &out);
        tr.end(span);
    }
    report.digest = checker.digest.finish();
    sum
}

/// The traced run: a warm-up pass, an untraced pass (the overhead base)
/// and a traced pass over the same chunks.
fn traced(stream: &QueryStream, report: &mut Report) {
    let mut off = Tracer::new(false);
    pass(stream, &mut off, report);
    let untraced = pass(stream, &mut off, report).busy;

    let mut tr = Tracer::new(true);
    let from = tr.clock_ns();
    let p = pass(stream, &mut tr, report);
    let wall = (tr.clock_ns() - from) as f64 * 1e-9;

    let sp = tr.spans();
    let total = spans::time_by_name(sp);
    let t = |name: &str| total.get(name).copied().unwrap_or(0.0);
    let n = p.chunks.queries as f64;
    let (hits, misses) = (p.cache.hits as f64, p.cache.misses as f64);
    let l = &mut report.layers;
    l.insert("query.decode_s", t("decode"));
    l.insert("query.group_s", t("group"));
    l.insert("query.evaluate_s", t("evaluate"));
    l.insert("query.encode_s", t("encode"));
    l.insert("query.distinct_frac", p.chunks.distinct as f64 / n);
    l.insert("query.groups_per_chunk", p.chunks.groups as f64 / TRACED_CHUNKS as f64);
    l.insert("stability.legs_per_query", p.legs / n);
    l.insert("stability.ns_per_leg", t("evaluate") * 1e9 / p.legs_distinct);
    l.insert("propagate.cache_hits", hits);
    l.insert("propagate.cache_misses", misses);
    l.insert("propagate.cache_evictions", p.cache.evictions as f64);
    l.insert("propagate.hit_ratio", hits / (hits + misses));
    l.insert("telemetry.overhead_frac", p.busy / untraced - 1.0);
    l.insert("trace.coverage_frac", spans::top_level_secs(sp, from) / wall);
    let chunk_ms = spans::durations_ms(sp, "chunk");
    let s = stats::summarize(&chunk_ms);
    report.notes.push(format!(
        "traced pass: {} chunks, chunk p50 {:.2} ms; {:.3} s traced, {untraced:.3} s untraced",
        s.n, s.p50, p.busy
    ));
    report.spans = tr.into_spans();
}
