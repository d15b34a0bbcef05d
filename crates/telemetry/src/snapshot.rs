//! Bit-exact JSONL snapshots of a whole [`Telemetry`] sink.
//!
//! The batch checkpoint layer persists each completed seed's telemetry
//! shard so a resumed run can merge *exactly* the bytes an
//! uninterrupted run would have produced. That demands more than the
//! public recording API can restore: unset gauges hold a NaN `last`,
//! empty histograms hold `±inf` envelopes, ring traces remember how
//! many events they discarded, and series carry a stride/offered pair
//! that only the full (discarded) sample stream could reproduce. This
//! codec therefore round-trips the raw internal state through the
//! flat-record codec (`crate::jsonl`: shortest round-trip floats plus
//! `NaN`/`inf`/`-inf` tokens).
//!
//! The snapshot is a self-delimiting run of JSONL lines — a `telemetry`
//! header carrying section counts, then that many `counter`, `gauge`,
//! `histogram`, `series`, and `open_span` records followed by raw trace
//! event lines — so it embeds directly inside a larger JSONL document
//! (a checkpoint shard) without its own schema header or terminator.
//!
//! Contract: integers above 2^53 (counter values, span ids) do not
//! survive the flat codec's f64 funnel; the batch runner's span-id
//! bases stay far below that, and the decoder rejects anything bigger
//! rather than silently rounding.

use crate::histogram::BUCKETS;
use crate::jsonl::{write_event, JsonlError, Line, Record};
use crate::series::TimeSeries;
use crate::trace::EventTrace;
use crate::{event_from_jsonl, Gauge, Histogram, SeriesKind, SpanInfo, SpanKind};
use crate::{Telemetry, TelemetryLevel};

/// Appends one `open_span` record (newline-terminated): the snapshot's
/// span-stack entry, also the postmortem dump's.
pub fn open_span_to_jsonl(out: &mut String, span: &SpanInfo) {
    Line::new(out, "open_span")
        .uint("id", span.id)
        .uint("parent", span.parent)
        .str("kind", span.kind.name())
        .uint("entity", u64::from(span.entity))
        .num("t_begin", span.t_begin)
        .end_line();
}

/// Serializes the full state of a telemetry sink as a run of JSONL
/// lines (each newline-terminated, no schema header), suitable for
/// embedding in a checkpoint shard and decoding with
/// [`snapshot_from_jsonl`].
#[must_use]
pub fn snapshot_to_jsonl(tel: &Telemetry) -> String {
    let mut out = String::new();
    let n = |v: usize| v as u64;
    Line::new(&mut out, "telemetry")
        .str("level", &tel.level.to_string())
        .uint("trace_capacity", n(tel.trace.capacity()))
        .uint("trace_overwritten", tel.trace.overwritten())
        .uint("next_span_id", tel.next_span_id)
        .uint("counters", n(tel.metrics.counters().count()))
        .uint("gauges", n(tel.metrics.gauges().count()))
        .uint("histograms", n(tel.metrics.histograms().count()))
        .uint("series", n(tel.series.len()))
        .uint("open_spans", n(tel.open_spans.len()))
        .uint("events", n(tel.trace.len()))
        .end_line();
    for (name, v) in tel.metrics.counters() {
        Line::new(&mut out, "counter").str("name", name).uint("value", v).end_line();
    }
    for (name, g) in tel.metrics.gauges() {
        Line::new(&mut out, "gauge")
            .str("name", name)
            .num("last", g.last)
            .num("min", g.min)
            .num("max", g.max)
            .uint("samples", g.samples)
            .end_line();
    }
    for (name, h) in tel.metrics.histograms() {
        let (count, sum, min, max, nonpositive, buckets) = h.parts();
        let nonzero = buckets.iter().enumerate().filter(|(_, &c)| c > 0);
        Line::new(&mut out, "histogram")
            .str("name", name)
            .uint("count", count)
            .num("sum", sum)
            .num("min", min)
            .num("max", max)
            .uint("nonpositive", nonpositive)
            .uint("bucket_len", n(buckets.len()))
            .list("buckets", nonzero.map(|(idx, &c)| (n(idx), c)))
            .end_line();
    }
    for (kind, entity, s) in tel.series.iter() {
        Line::new(&mut out, "series")
            .str("kind", kind.name())
            .uint("entity", u64::from(entity))
            .uint("capacity", n(s.capacity()))
            .uint("stride", s.stride())
            .uint("offered", s.offered())
            .list("points", s.points().iter().copied())
            .end_line();
    }
    for span in &tel.open_spans {
        open_span_to_jsonl(&mut out, span);
    }
    for e in tel.trace.iter() {
        write_event(&mut out, e);
        out.push('\n');
    }
    out
}

/// A decoded value that sizes in-memory state, checked to lie in
/// `min..=max` before anything is built from it.
fn bounded(r: &Record<'_>, key: &str, min: u64, max: u64) -> Result<usize, JsonlError> {
    let v = r.u64(key)?;
    if (min..=max).contains(&v) {
        usize::try_from(v).map_err(|_| JsonlError(format!("field `{key}` too large: {v}")))
    } else {
        Err(JsonlError(format!("field `{key}` out of range {min}..={max}: {v}")))
    }
}

/// Decodes a telemetry snapshot produced by [`snapshot_to_jsonl`],
/// consuming exactly the snapshot's lines from `lines` (so the caller
/// can continue reading the surrounding document).
///
/// The restored sink is bit-identical to the snapshotted one: metric
/// registration order, gauge/histogram envelopes (including the unset
/// sentinels), series stride/offered state, the trace ring with its
/// discard counter, the open-span stack, and the span-id allocator all
/// round-trip, so merging restored shards reproduces an uninterrupted
/// run's merged telemetry byte for byte.
///
/// # Errors
///
/// Fails on a truncated run, an unknown record type, or any field that
/// does not parse back (including integers above 2^53, a zero trace or
/// series capacity, and a histogram wider than this build's layout).
pub fn snapshot_from_jsonl<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<Telemetry, JsonlError> {
    let header = Record::next(lines, "telemetry")?;
    let level: TelemetryLevel = header.str("level")?.parse().map_err(JsonlError)?;
    let capacity = bounded(&header, "trace_capacity", 1, u64::MAX)?;
    let overwritten = header.u64("trace_overwritten")?;
    let next_span_id = header.u64("next_span_id")?;
    let n_counters = header.u64("counters")?;
    let n_gauges = header.u64("gauges")?;
    let n_histograms = header.u64("histograms")?;
    let n_series = header.u64("series")?;
    let n_spans = header.u64("open_spans")?;
    let n_events = header.u64("events")?;

    // The ring is replaced below by one of the decoded capacity, which
    // only bounds growth; the constructor's pre-allocation stays minimal.
    let mut tel = Telemetry::with_trace_capacity(level, 1);
    // Registering in snapshot order reproduces the original registration
    // order exactly: the core ids laid down by the constructor are a
    // prefix of every snapshot taken by this build, and any custom
    // metrics follow in their first-use order.
    for _ in 0..n_counters {
        let rec = Record::next(lines, "counter")?;
        let id = tel.metrics.counter(&rec.str("name")?);
        tel.metrics.set_counter(id, rec.u64("value")?);
    }
    for _ in 0..n_gauges {
        let rec = Record::next(lines, "gauge")?;
        let g = Gauge {
            last: rec.f64("last")?,
            min: rec.f64("min")?,
            max: rec.f64("max")?,
            samples: rec.u64("samples")?,
        };
        let id = tel.metrics.gauge(&rec.str("name")?);
        tel.metrics.restore_gauge(id, g);
    }
    for _ in 0..n_histograms {
        let rec = Record::next(lines, "histogram")?;
        let mut buckets = vec![0u64; bounded(&rec, "bucket_len", 0, BUCKETS as u64)?];
        for (idx, n) in rec.list::<(u64, u64)>("buckets")? {
            *usize::try_from(idx)
                .ok()
                .and_then(|i| buckets.get_mut(i))
                .ok_or_else(|| JsonlError(format!("bucket index {idx} out of range")))? = n;
        }
        let h = Histogram::from_parts(
            rec.u64("count")?,
            rec.f64("sum")?,
            rec.f64("min")?,
            rec.f64("max")?,
            rec.u64("nonpositive")?,
            buckets,
        );
        let id = tel.metrics.histogram(&rec.str("name")?);
        tel.metrics.restore_histogram(id, h);
    }
    for _ in 0..n_series {
        let rec = Record::next(lines, "series")?;
        let kind_name = rec.str("kind")?;
        let kind = SeriesKind::from_name(&kind_name)
            .ok_or_else(|| JsonlError(format!("unknown series kind `{kind_name}`")))?;
        let points = rec.list::<(f64, f64)>("points")?;
        let series_capacity = bounded(&rec, "capacity", 2, u64::MAX)?;
        if points.len() > series_capacity {
            return Err(JsonlError(format!(
                "series holds {} points, above its capacity {series_capacity}",
                points.len()
            )));
        }
        let stride = bounded(&rec, "stride", 1, u64::MAX)? as u64;
        let series = TimeSeries::from_parts(series_capacity, stride, rec.u64("offered")?, points);
        tel.series.insert(kind, rec.u32("entity")?, series);
    }
    for _ in 0..n_spans {
        let rec = Record::next(lines, "open_span")?;
        let kind_name = rec.str("kind")?;
        let kind = SpanKind::from_name(&kind_name)
            .ok_or_else(|| JsonlError(format!("unknown span kind `{kind_name}`")))?;
        tel.open_spans.push(SpanInfo {
            id: rec.u64("id")?,
            parent: rec.u64("parent")?,
            kind,
            entity: rec.u32("entity")?,
            t_begin: rec.f64("t_begin")?,
        });
    }
    let mut trace = EventTrace::with_capacity(capacity);
    for _ in 0..n_events {
        let line = lines
            .next()
            .ok_or_else(|| JsonlError("truncated snapshot: expected trace event".into()))?;
        trace.push(event_from_jsonl(line)?);
    }
    trace.set_overwritten(overwritten);
    tel.trace = trace;
    tel.next_span_id = next_span_id;
    Ok(tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExtremumKind;

    /// A sink with every kind of state populated: counters, an unset
    /// and a set gauge, histograms, series past their first decimation,
    /// a wrapped trace ring, custom metrics, and an open span.
    fn busy_sink() -> Telemetry {
        let mut tel = Telemetry::with_trace_capacity(TelemetryLevel::Full, 32);
        tel.set_span_id_base((7 + 1) << 32);
        let seed_span = tel.span_begin(0.0, SpanKind::BatchSeed, 7, 0);
        let _ = seed_span;
        for i in 0..600u32 {
            let t = f64::from(i) * 1e-4;
            tel.step_accepted(t, 1e-4, 0.3);
            tel.queue_sample(t, f64::from(i % 97) * 1e4);
            if i % 5 == 0 {
                tel.bcn_message(t, -f64::from(i % 11), i % 3);
            }
        }
        tel.pause(0.07, 0.08, 2);
        tel.queue_extremum(0.09, 1.5e6, ExtremumKind::Max);
        tel.fault_injected(0.095, crate::FaultClass::FeedbackDrop, 1);
        let custom = tel.metrics.counter("custom.widgets");
        tel.metrics.inc(custom, 41);
        tel
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let tel = busy_sink();
        let doc = snapshot_to_jsonl(&tel);
        let restored = snapshot_from_jsonl(&mut doc.lines()).expect("decode");
        // Telemetry derives PartialEq but NaN gauge fields poison direct
        // comparison; compare every rendered form instead, which is what
        // downstream consumers (merge, reports) actually see.
        assert_eq!(snapshot_to_jsonl(&restored), doc, "re-snapshot differs");
        assert_eq!(restored.trace_to_jsonl(), tel.trace_to_jsonl());
        assert_eq!(restored.metrics.to_prometheus(), tel.metrics.to_prometheus());
        assert_eq!(restored.level(), tel.level());
        assert_eq!(restored.open_spans(), tel.open_spans());
        assert_eq!(restored.trace.overwritten(), tel.trace.overwritten());
        assert_eq!(restored.trace.capacity(), tel.trace.capacity());
        // Registration order survives (merge identity depends on it).
        let a: Vec<_> = tel.metrics.counters().map(|(n, _)| n.to_string()).collect();
        let b: Vec<_> = restored.metrics.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn span_id_allocation_continues_identically_after_restore() {
        let mut tel = busy_sink();
        let doc = snapshot_to_jsonl(&tel);
        let mut restored = snapshot_from_jsonl(&mut doc.lines()).expect("decode");
        let a = tel.span_begin(0.5, SpanKind::FlowLifetime, 1, tel.root_span());
        let b = restored.span_begin(0.5, SpanKind::FlowLifetime, 1, restored.root_span());
        assert_eq!(a, b, "span-id allocator state must survive the round trip");
    }

    #[test]
    fn merging_restored_shards_equals_merging_originals() {
        let shard_a = busy_sink();
        let mut shard_b = Telemetry::with_trace_capacity(TelemetryLevel::Full, 32);
        shard_b.set_span_id_base((8 + 1) << 32);
        for i in 0..50u32 {
            shard_b.step_accepted(f64::from(i) * 2e-4, 2e-4, 0.1);
        }
        let mut direct = Telemetry::new(TelemetryLevel::Full);
        direct.merge(&shard_a);
        direct.merge(&shard_b);
        let ra = snapshot_from_jsonl(&mut snapshot_to_jsonl(&shard_a).lines()).unwrap();
        let rb = snapshot_from_jsonl(&mut snapshot_to_jsonl(&shard_b).lines()).unwrap();
        let mut via_snapshot = Telemetry::new(TelemetryLevel::Full);
        via_snapshot.merge(&ra);
        via_snapshot.merge(&rb);
        assert_eq!(snapshot_to_jsonl(&via_snapshot), snapshot_to_jsonl(&direct));
        assert_eq!(via_snapshot.trace_to_jsonl(), direct.trace_to_jsonl());
    }

    #[test]
    fn fresh_sink_with_nan_gauges_round_trips() {
        // An untouched sink has NaN gauge `last` values and ±inf
        // histogram envelopes — exactly the states the public API can't
        // restore. The raw codec must carry them.
        for level in [TelemetryLevel::Off, TelemetryLevel::Summary, TelemetryLevel::Full] {
            let tel = Telemetry::new(level);
            let doc = snapshot_to_jsonl(&tel);
            let restored = snapshot_from_jsonl(&mut doc.lines()).expect("decode");
            assert_eq!(snapshot_to_jsonl(&restored), doc, "level {level}");
            assert_eq!(restored.level(), level);
        }
    }

    #[test]
    fn decoder_consumes_exactly_the_snapshot_lines() {
        let tel = busy_sink();
        let mut doc = snapshot_to_jsonl(&tel);
        doc.push_str("{\"type\":\"trailer\",\"x\":1}\n");
        let mut lines = doc.lines();
        let _ = snapshot_from_jsonl(&mut lines).expect("decode");
        assert_eq!(lines.next(), Some("{\"type\":\"trailer\",\"x\":1}"));
    }

    #[test]
    fn truncated_and_malformed_snapshots_are_rejected() {
        let tel = busy_sink();
        let doc = snapshot_to_jsonl(&tel);
        // Truncations at every record boundary must error, not panic.
        let total = doc.lines().count();
        for keep in [0, 1, total / 2, total - 1] {
            let partial: Vec<&str> = doc.lines().take(keep).collect();
            assert!(
                snapshot_from_jsonl(&mut partial.clone().into_iter()).is_err(),
                "accepted truncation at {keep}/{total}"
            );
        }
        // A non-snapshot first record is rejected.
        let mut lines = std::iter::once(r#"{"type":"schema","version":2}"#);
        assert!(snapshot_from_jsonl(&mut lines).is_err());
    }
}
