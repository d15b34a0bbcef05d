//! Batched stability queries — the criterion atlas as a serving surface.
//!
//! The ROADMAP's production framing of Theorem 1 asks, for a stream of
//! parameter sets `(Ru, Gi, N, Gd, C, q0, B)`: *is this configuration
//! strongly stable, how much buffer does Theorem 1 demand, and how far
//! does the queue excursion actually swing?* One such answer is cheap
//! (~µs with the closed-form propagator), so the engineering problem is
//! throughput: answering millions of queries per second without
//! per-query allocation or lock traffic.
//!
//! * [`StabilityQuery`] / [`StabilityAnswer`] — the wire-level unit: a
//!   full parameter set plus a leg budget in; verdict, Theorem-1 required
//!   buffer, exact excursion envelope, and legs traced out.
//! * [`QueryBatch`] — the structure-of-arrays batch kernel: queries are
//!   grouped by their derived propagator key `(k, a, bC)` in first-seen
//!   order, each group's spectral decomposition is resolved **once**
//!   (through the sharded memo cache), bit-identical duplicate queries
//!   are traced once and scattered back to input order, and the
//!   per-query work runs on `parkit` with a per-worker
//!   `QueryWorkspace` so the steady state allocates nothing. Every
//!   answer is a pure function of its own query, so the output vector is
//!   bit-identical at any thread count and invariant under
//!   deduplication.
//! * [`query_to_jsonl`]/[`answer_from_jsonl`] and friends — the query
//!   and answer records over the workspace's flat-record codec
//!   (`telemetry::jsonl`: schema-v2 header, `{v:?}` float formatting
//!   with `NaN`/`inf`/`-inf` tokens) whose decode → re-encode cycle is
//!   byte-identical, so streamed answer files can be diffed and
//!   round-tripped losslessly.
//!
//! The `dcebcn query` subcommand wraps this module as a streaming CLI
//! (JSONL in, JSONL out, bounded memory via chunked reads); `bench --bin
//! query_engine` gates its throughput against the naive per-call loop.

use std::collections::HashMap;

use telemetry::{JsonlError, Line, Record};

use crate::params::BcnParams;
use crate::propagate::Propagator;
use crate::rounds::Leg;
use crate::stability::{exact_verdict_scratch, theorem1_required_buffer};

/// Default leg budget per query: enough for every atlas case to settle
/// or visibly diverge (spiral cases contract geometrically; node cases
/// finish in two legs).
pub const DEFAULT_MAX_LEGS: usize = 64;

/// Largest `max_legs` a query line may ask for (1024× the default). The
/// exact trace keeps every [`Leg`] it traces, and a configuration that
/// never settles spends its whole budget, so an unbounded budget read from
/// input could exhaust memory.
pub const MAX_LEGS_LIMIT: usize = 65_536;

/// One stability question: a full parameter set plus the leg budget for
/// the exact trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityQuery {
    /// The configuration being asked about.
    pub params: BcnParams,
    /// Maximum switched-trajectory legs to trace for the exact verdict.
    pub max_legs: usize,
}

impl StabilityQuery {
    /// A query with the default leg budget.
    #[must_use]
    pub fn new(params: BcnParams) -> Self {
        Self { params, max_legs: DEFAULT_MAX_LEGS }
    }
}

/// The answer to one [`StabilityQuery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityAnswer {
    /// Whether the exact switched trajectory keeps `0 < q < B` for all
    /// `t > 0` (ground truth, not the one-sided criterion).
    pub strongly_stable: bool,
    /// The buffer Theorem 1 requires: `(1 + sqrt(a/bC)) q0`.
    pub required_buffer: f64,
    /// Largest queue excursion `x = q - q0` observed.
    pub max_x: f64,
    /// Smallest excursion observed (after the start instant).
    pub min_x: f64,
    /// Number of legs actually traced.
    pub legs: usize,
}

/// Per-worker scratch reused across queries: the leg buffer grows to the
/// workload's deepest trace once, then every further query traces into
/// it without touching the allocator.
#[derive(Debug, Default)]
struct QueryWorkspace {
    legs: Vec<Leg>,
}

/// A batch of queries grouped by derived propagator key, ready to
/// evaluate.
///
/// Construction walks the queries once, assigning each to the group of
/// its `(k, a, bC)` bit pattern (groups numbered in first-seen input
/// order, so the layout is input-deterministic) and deduplicating
/// bit-identical full queries. Evaluation resolves each group's
/// propagator exactly once and traces each *distinct* query exactly
/// once, scattering the answers back to input order — under a
/// Zipf-skewed query mix both the spectral-decomposition work and the
/// leg tracing collapse to the number of distinct configurations, not
/// the number of queries. Every answer is a pure function of its query
/// alone, so deduplication cannot change any result.
#[derive(Debug)]
pub struct QueryBatch<'a> {
    queries: &'a [StabilityQuery],
    /// Derived `(k, a, bC)` per group, first-seen order.
    group_consts: Vec<[f64; 3]>,
    /// Group index of each query, parallel to `queries`.
    group_of: Vec<u32>,
    /// Distinct-query slot of each query, parallel to `queries`.
    unique_of: Vec<u32>,
    /// Representative query index per distinct slot, first-seen order.
    unique_idx: Vec<u32>,
}

/// The full bit pattern of a query: every parameter field plus the leg
/// budget. Two queries with equal keys are the same question.
fn query_key(q: &StabilityQuery) -> [u64; 11] {
    let p = &q.params;
    [
        u64::from(p.n_flows),
        p.capacity.to_bits(),
        p.q0.to_bits(),
        p.buffer.to_bits(),
        p.gi.to_bits(),
        p.gd.to_bits(),
        p.ru.to_bits(),
        p.w.to_bits(),
        p.pm.to_bits(),
        p.qsc.to_bits(),
        q.max_legs as u64,
    ]
}

impl<'a> QueryBatch<'a> {
    /// Groups `queries` by derived propagator key and deduplicates
    /// bit-identical repeats.
    #[must_use]
    pub fn new(queries: &'a [StabilityQuery]) -> Self {
        let mut index: HashMap<[u64; 3], u32> = HashMap::new();
        let mut group_consts: Vec<[f64; 3]> = Vec::new();
        let mut group_of = Vec::with_capacity(queries.len());
        let mut uniques: HashMap<[u64; 11], u32> = HashMap::new();
        let mut unique_of = Vec::with_capacity(queries.len());
        let mut unique_idx: Vec<u32> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let p = &q.params;
            let consts = [p.k(), p.a(), p.b() * p.capacity];
            let key = [consts[0].to_bits(), consts[1].to_bits(), consts[2].to_bits()];
            let next = group_consts.len() as u32;
            let g = *index.entry(key).or_insert_with(|| {
                group_consts.push(consts);
                next
            });
            group_of.push(g);
            let next_u = unique_idx.len() as u32;
            let u = *uniques.entry(query_key(q)).or_insert_with(|| {
                unique_idx.push(i as u32);
                next_u
            });
            unique_of.push(u);
        }
        Self { queries, group_consts, group_of, unique_of, unique_idx }
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Number of distinct `(k, a, bC)` groups — the number of propagator
    /// resolutions evaluation will perform.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.group_consts.len()
    }

    /// Number of distinct full queries — the number of traces evaluation
    /// will perform (duplicates are answered by scatter).
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.unique_idx.len()
    }

    /// Evaluates the batch at the configured `parkit` width
    /// (`--threads` > `DCE_BCN_THREADS` > all cores).
    #[must_use]
    pub fn evaluate(&self) -> Vec<StabilityAnswer> {
        let props = self.resolve_propagators();
        let uniq = parkit::par_map_init(self.unique_idx.len(), QueryWorkspace::default, |ws, u| {
            self.answer_one(&props, ws, self.unique_idx[u] as usize)
        });
        self.scatter(&uniq)
    }

    /// Evaluates the batch at an explicit worker count (0 = all cores),
    /// bypassing the global configuration — the thread-equivalence tests
    /// use this to compare widths without mutating process state.
    #[must_use]
    pub fn evaluate_in(&self, threads: usize) -> Vec<StabilityAnswer> {
        let props = self.resolve_propagators();
        let uniq = parkit::par_map_init_in(
            threads,
            self.unique_idx.len(),
            QueryWorkspace::default,
            |ws, u| self.answer_one(&props, ws, self.unique_idx[u] as usize),
        );
        self.scatter(&uniq)
    }

    /// Expands per-distinct-query answers back to input order.
    fn scatter(&self, uniq: &[StabilityAnswer]) -> Vec<StabilityAnswer> {
        self.unique_of.iter().map(|&u| uniq[u as usize]).collect()
    }

    /// One propagator per group, through the sharded memo cache. Cached
    /// and fresh builds are bit-identical, so answers do not depend on
    /// the cache's state.
    fn resolve_propagators(&self) -> Vec<Propagator> {
        self.group_consts.iter().map(|&[k, a, b_c]| Propagator::cached(k, a, b_c)).collect()
    }

    fn answer_one(
        &self,
        props: &[Propagator],
        ws: &mut QueryWorkspace,
        i: usize,
    ) -> StabilityAnswer {
        let q = &self.queries[i];
        let prop = &props[self.group_of[i] as usize];
        let v = exact_verdict_scratch(&q.params, prop, q.max_legs, &mut ws.legs);
        StabilityAnswer {
            strongly_stable: v.strongly_stable,
            required_buffer: theorem1_required_buffer(&q.params),
            max_x: v.max_x,
            min_x: v.min_x,
            legs: v.legs,
        }
    }
}

/// Answers a batch of queries; `answers[i]` corresponds to
/// `queries[i]`, bit-identical at any thread count. See [`QueryBatch`]
/// for the batching mechanics.
#[must_use]
pub fn evaluate_batch(queries: &[StabilityQuery]) -> Vec<StabilityAnswer> {
    QueryBatch::new(queries).evaluate()
}

/// Serializes one query to a JSONL line (no trailing newline). Floats
/// use the shortest exact round-trip form, so
/// `query_to_jsonl(query_from_jsonl(line))` reproduces `line` byte for
/// byte whenever `line` came from this encoder.
#[must_use]
pub fn query_to_jsonl(q: &StabilityQuery) -> String {
    let p = &q.params;
    let mut s = String::with_capacity(224);
    Line::new(&mut s, "query")
        .uint("n", u64::from(p.n_flows))
        .num("capacity", p.capacity)
        .num("q0", p.q0)
        .num("buffer", p.buffer)
        .num("gi", p.gi)
        .num("gd", p.gd)
        .num("ru", p.ru)
        .num("w", p.w)
        .num("pm", p.pm)
        .num("qsc", p.qsc)
        .uint("max_legs", q.max_legs as u64)
        .end();
    s
}

/// Serializes one answer to a JSONL line (no trailing newline), with
/// the same byte-identical re-encode guarantee as [`query_to_jsonl`].
#[must_use]
pub fn answer_to_jsonl(a: &StabilityAnswer) -> String {
    let mut s = String::with_capacity(128);
    Line::new(&mut s, "answer")
        .bool("stable", a.strongly_stable)
        .num("required_buffer", a.required_buffer)
        .num("max_x", a.max_x)
        .num("min_x", a.min_x)
        .uint("legs", a.legs as u64)
        .end();
    s
}

/// Parses one query line. Omitted parameter fields fall back to
/// [`BcnParams::paper_defaults`] (so a minimal line like
/// `{"type":"query","gi":2.0,"gd":0.03}` asks about a gain override of
/// the paper's worked example); an omitted `max_legs` falls back to
/// [`DEFAULT_MAX_LEGS`]. The assembled parameters are validated.
///
/// # Errors
///
/// Fails on malformed JSON, a wrong `type`, an unknown field, non-scalar
/// values, parameters that fail [`BcnParams::validate`], or a `max_legs`
/// above [`MAX_LEGS_LIMIT`].
pub fn query_from_jsonl(line: &str) -> Result<StabilityQuery, JsonlError> {
    const KNOWN: [&str; 12] =
        ["type", "n", "capacity", "q0", "buffer", "gi", "gd", "ru", "w", "pm", "qsc", "max_legs"];
    let r = Record::parse(line)?;
    r.expect_type("query")?;
    r.reject_unknown(&KNOWN, "query")?;
    let mut p = BcnParams::paper_defaults();
    if r.has("n") {
        p.n_flows = r.u32("n")?;
    }
    for (key, slot) in [
        ("capacity", &mut p.capacity),
        ("q0", &mut p.q0),
        ("buffer", &mut p.buffer),
        ("gi", &mut p.gi),
        ("gd", &mut p.gd),
        ("ru", &mut p.ru),
        ("w", &mut p.w),
        ("pm", &mut p.pm),
        ("qsc", &mut p.qsc),
    ] {
        if r.has(key) {
            *slot = r.f64(key)?;
        }
    }
    p.validate().map_err(|e| JsonlError(format!("invalid query parameters: {e}")))?;
    let max_legs = if r.has("max_legs") {
        let legs = r.u64("max_legs")?;
        usize::try_from(legs).ok().filter(|&l| l <= MAX_LEGS_LIMIT).ok_or_else(|| {
            JsonlError(format!("field `max_legs` out of range: {legs} > {MAX_LEGS_LIMIT}"))
        })?
    } else {
        DEFAULT_MAX_LEGS
    };
    Ok(StabilityQuery { params: p, max_legs })
}

/// Parses one answer line (the inverse of [`answer_to_jsonl`]).
///
/// # Errors
///
/// Fails on malformed JSON, a wrong `type`, an unknown field, or a
/// missing/mistyped value.
pub fn answer_from_jsonl(line: &str) -> Result<StabilityAnswer, JsonlError> {
    const KNOWN: [&str; 6] = ["type", "stable", "required_buffer", "max_x", "min_x", "legs"];
    let r = Record::parse(line)?;
    r.expect_type("answer")?;
    r.reject_unknown(&KNOWN, "answer")?;
    Ok(StabilityAnswer {
        strongly_stable: r.bool("stable")?,
        required_buffer: r.f64("required_buffer")?,
        max_x: r.f64("max_x")?,
        min_x: r.f64("min_x")?,
        legs: usize::try_from(r.u64("legs")?)
            .map_err(|_| JsonlError("field `legs` out of range".into()))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::exact_verdict;

    fn mixed_queries() -> Vec<StabilityQuery> {
        let base = BcnParams::test_defaults();
        let mut qs = Vec::new();
        for i in 0..40u32 {
            // A Zipf-flavoured mix: most queries revisit a handful of
            // configurations, a few are unique.
            let p = match i % 5 {
                0 | 1 => base.clone(),
                2 => base.clone().with_gi(2.0),
                3 => base.clone().with_gd(0.05),
                _ => base.clone().with_capacity(1.0e9 + f64::from(i)),
            };
            qs.push(StabilityQuery { params: p, max_legs: 48 });
        }
        qs
    }

    #[test]
    fn batch_matches_serial_loop_bitwise() {
        let qs = mixed_queries();
        let batch = evaluate_batch(&qs);
        for (q, got) in qs.iter().zip(&batch) {
            let v = exact_verdict(&q.params, q.max_legs);
            assert_eq!(got.strongly_stable, v.strongly_stable);
            assert_eq!(got.max_x.to_bits(), v.max_x.to_bits());
            assert_eq!(got.min_x.to_bits(), v.min_x.to_bits());
            assert_eq!(got.legs, v.legs);
            assert_eq!(
                got.required_buffer.to_bits(),
                theorem1_required_buffer(&q.params).to_bits()
            );
        }
    }

    #[test]
    fn batch_groups_by_derived_key_in_first_seen_order() {
        let qs = mixed_queries();
        let batch = QueryBatch::new(&qs);
        // 3 repeated configurations + 8 unique capacities (i % 5 == 4).
        assert_eq!(batch.groups(), 11);
        assert_eq!(batch.len(), 40);
        // Query 0 and query 1 share the base configuration => group 0.
        assert_eq!(batch.group_of[0], 0);
        assert_eq!(batch.group_of[1], 0);
        assert_eq!(batch.group_of[5], 0);
        // Query 2 founded group 1 (gi override).
        assert_eq!(batch.group_of[2], 1);
        assert_eq!(batch.group_of[7], 1);
        // Repeats of the base configuration dedup to one trace.
        assert_eq!(batch.distinct(), 11);
    }

    #[test]
    fn dedup_distinguishes_queries_sharing_a_propagator_group() {
        // Same parameters, different leg budgets: the derived (k, a, bC)
        // is shared — one group — but these are different questions, so
        // dedup must keep them apart and the traced leg counts differ.
        let base = BcnParams::test_defaults();
        let qs = vec![
            StabilityQuery::new(base.clone()),
            StabilityQuery { params: base.clone(), max_legs: 1 },
            StabilityQuery::new(base.clone()),
        ];
        let batch = QueryBatch::new(&qs);
        assert_eq!(batch.groups(), 1);
        assert_eq!(batch.distinct(), 2);
        let answers = batch.evaluate();
        assert_eq!(answers[0], answers[2]);
        assert_eq!(answers[0].max_x.to_bits(), answers[2].max_x.to_bits());
        assert_eq!(answers[1].legs, 1);
        assert!(answers[0].legs > 1, "default budget should trace past the first switch");
        // Dedup is invisible in the results: the per-call path agrees.
        for (q, a) in qs.iter().zip(&answers) {
            let v = exact_verdict(&q.params, q.max_legs);
            assert_eq!(a.legs, v.legs);
            assert_eq!(a.max_x.to_bits(), v.max_x.to_bits());
        }
    }

    #[test]
    fn explicit_widths_are_bit_identical() {
        let qs = mixed_queries();
        let batch = QueryBatch::new(&qs);
        let serial = batch.evaluate_in(1);
        let wide = batch.evaluate_in(4);
        assert_eq!(serial, wide);
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(a.max_x.to_bits(), b.max_x.to_bits());
            assert_eq!(a.min_x.to_bits(), b.min_x.to_bits());
            assert_eq!(a.required_buffer.to_bits(), b.required_buffer.to_bits());
        }
    }

    #[test]
    fn query_jsonl_round_trips_byte_identically() {
        let q = StabilityQuery::new(BcnParams::paper_defaults());
        let line = query_to_jsonl(&q);
        let decoded = query_from_jsonl(&line).expect("decode");
        assert_eq!(decoded, q);
        assert_eq!(query_to_jsonl(&decoded), line, "re-encode must be byte-identical");
    }

    #[test]
    fn answer_jsonl_round_trips_byte_identically() {
        let qs = mixed_queries();
        for a in evaluate_batch(&qs) {
            let line = answer_to_jsonl(&a);
            let decoded = answer_from_jsonl(&line).expect("decode");
            assert_eq!(decoded, a);
            assert_eq!(answer_to_jsonl(&decoded), line, "re-encode must be byte-identical");
        }
        // Non-finite excursions survive the trip too.
        let weird = StabilityAnswer {
            strongly_stable: false,
            required_buffer: f64::INFINITY,
            max_x: f64::NAN,
            min_x: f64::NEG_INFINITY,
            legs: 0,
        };
        let line = answer_to_jsonl(&weird);
        let decoded = answer_from_jsonl(&line).expect("decode");
        assert_eq!(answer_to_jsonl(&decoded), line);
    }

    #[test]
    fn sparse_query_lines_inherit_paper_defaults() {
        let q = query_from_jsonl(r#"{"type":"query","gi":2.0}"#).expect("decode");
        let mut expect = BcnParams::paper_defaults();
        expect.gi = 2.0;
        assert_eq!(q.params, expect);
        assert_eq!(q.max_legs, DEFAULT_MAX_LEGS);
    }

    #[test]
    fn bad_query_lines_are_rejected() {
        for line in [
            "not json",
            r#"{"type":"answer","stable":true}"#,
            r#"{"type":"query","bogus":1}"#,
            r#"{"type":"query","n":2.5}"#,
            r#"{"type":"query","capacity":-1.0}"#,
        ] {
            assert!(query_from_jsonl(line).is_err(), "{line}");
        }
    }

    #[test]
    fn max_legs_is_bounded_by_the_limit() {
        let line = |legs: usize| format!(r#"{{"type":"query","w":1e-300,"max_legs":{legs}}}"#);
        let q = query_from_jsonl(&line(MAX_LEGS_LIMIT)).expect("the limit itself is accepted");
        assert_eq!(q.max_legs, MAX_LEGS_LIMIT);
        for legs in [MAX_LEGS_LIMIT + 1, 100_000_000] {
            let err = query_from_jsonl(&line(legs)).expect_err("above the limit");
            assert!(err.0.contains("`max_legs` out of range"), "{err:?}");
        }
    }
}
