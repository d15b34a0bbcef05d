//! Hand-rolled JSONL serialization for [`Event`]s.
//!
//! Each event becomes one flat JSON object per line, e.g.
//! `{"type":"region_switch","t":0.125,"from":0,"to":1}`. Floats are
//! written with Rust's `{:?}` formatting (shortest representation that
//! round-trips exactly); the extension tokens `NaN`, `inf`, and `-inf`
//! are accepted and produced for non-finite values so every event
//! round-trips bit-for-bit.

use crate::event::{Event, ExtremumKind, FaultClass, SpanKind};

/// Version of the trace file format.
///
/// Bumped whenever the set of event records or their fields changes
/// incompatibly. Version history: 1 = headerless traces (PR 1);
/// 2 = schema header record + causal span events (this version).
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// The header record written as the first line of every trace file,
/// e.g. `{"type":"schema","version":2}`.
#[must_use]
pub fn schema_header() -> String {
    format!(r#"{{"type":"schema","version":{TRACE_SCHEMA_VERSION}}}"#)
}

/// Validates a trace file's header line.
///
/// # Errors
///
/// Fails when `line` is not a schema record (headerless v1 files and
/// arbitrary JSONL both land here) or declares a version other than
/// [`TRACE_SCHEMA_VERSION`], so consumers reject stale trace files
/// instead of misparsing them.
pub fn check_schema_header(line: &str) -> Result<(), JsonlError> {
    let fields = parse_flat_object(line)?;
    let ty = field(&fields, "type")?.as_str("type")?;
    if ty != "schema" {
        return Err(JsonlError(format!(
            "first record is `{ty}`, not a schema header (stale or truncated trace file?)"
        )));
    }
    let version = field(&fields, "version")?.as_u32("version")?;
    if version != TRACE_SCHEMA_VERSION {
        return Err(JsonlError(format!(
            "unsupported trace schema version {version} (this build reads {TRACE_SCHEMA_VERSION})"
        )));
    }
    Ok(())
}

/// Error produced when a JSONL line cannot be parsed back to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError(pub String);

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jsonl parse error: {}", self.0)
    }
}

impl std::error::Error for JsonlError {}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// Formats a number using this module's float conventions: Rust's `{:?}`
/// (shortest representation that round-trips exactly) plus the `NaN`,
/// `inf`, and `-inf` extension tokens for non-finite values.
///
/// Exposed so other crates' flat-JSONL codecs (checkpoint shards,
/// postmortem config records) stay byte-compatible with the trace
/// format and decode back bit-exactly through [`parse_scalars`].
#[must_use]
pub fn fmt_num(v: f64) -> String {
    fmt_f64(v)
}

/// Serializes one event to a single JSONL line (no trailing newline).
#[must_use]
pub fn event_to_jsonl(e: &Event) -> String {
    let ty = e.type_name();
    match *e {
        Event::SolverStepAccepted { t, h, err } => format!(
            r#"{{"type":"{ty}","t":{},"h":{},"err":{}}}"#,
            fmt_f64(t),
            fmt_f64(h),
            fmt_f64(err)
        ),
        Event::SolverStepRejected { t, h } => {
            format!(r#"{{"type":"{ty}","t":{},"h":{}}}"#, fmt_f64(t), fmt_f64(h))
        }
        Event::SwitchCrossingLocated { t, iterations } => {
            format!(r#"{{"type":"{ty}","t":{},"iterations":{iterations}}}"#, fmt_f64(t))
        }
        Event::RegionSwitch { t, from, to } => {
            format!(r#"{{"type":"{ty}","t":{},"from":{from},"to":{to}}}"#, fmt_f64(t))
        }
        Event::QueueThresholdCrossed { t, q, threshold, rising } => format!(
            r#"{{"type":"{ty}","t":{},"q":{},"threshold":{},"rising":{rising}}}"#,
            fmt_f64(t),
            fmt_f64(q),
            fmt_f64(threshold)
        ),
        Event::QueueExtremum { t, q, kind } => format!(
            r#"{{"type":"{ty}","t":{},"q":{},"kind":"{}"}}"#,
            fmt_f64(t),
            fmt_f64(q),
            match kind {
                ExtremumKind::Max => "max",
                ExtremumKind::Min => "min",
            }
        ),
        Event::BcnMessageEmitted { t, fb, source } | Event::QcnMessageEmitted { t, fb, source } => {
            format!(
                r#"{{"type":"{ty}","t":{},"fb":{},"source":{source}}}"#,
                fmt_f64(t),
                fmt_f64(fb)
            )
        }
        Event::PauseAsserted { t, port }
        | Event::PauseDeasserted { t, port }
        | Event::FrameDropped { t, port } => {
            format!(r#"{{"type":"{ty}","t":{},"port":{port}}}"#, fmt_f64(t))
        }
        Event::FaultInjected { t, class, target } => format!(
            r#"{{"type":"{ty}","t":{},"class":"{}","target":{target}}}"#,
            fmt_f64(t),
            class.name()
        ),
        Event::SpanBegin { t, id, parent, kind, entity } => format!(
            r#"{{"type":"{ty}","t":{},"id":{id},"parent":{parent},"kind":"{}","entity":{entity}}}"#,
            fmt_f64(t),
            kind.name()
        ),
        Event::SpanEnd { t, id } => {
            format!(r#"{{"type":"{ty}","t":{},"id":{id}}}"#, fmt_f64(t))
        }
    }
}

/// One parsed JSON scalar from a flat object line.
///
/// Public so downstream flat-JSONL codecs (checkpoint shards, replay
/// specs) can reuse [`parse_scalars`] and its typed accessors instead
/// of re-implementing the number/string/bool conventions.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A number (including the `NaN`/`inf`/`-inf` extension tokens).
    Num(f64),
    /// A string without escapes.
    Str(String),
    /// A `true`/`false` literal.
    Bool(bool),
}

impl Scalar {
    /// The scalar as a float; `key` names the field in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not a number.
    pub fn as_f64(&self, key: &str) -> Result<f64, JsonlError> {
        match self {
            Scalar::Num(v) => Ok(*v),
            _ => Err(JsonlError(format!("field `{key}` is not a number"))),
        }
    }

    /// The scalar as a `u32`; `key` names the field in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not an integer in `u32` range.
    pub fn as_u32(&self, key: &str) -> Result<u32, JsonlError> {
        let v = self.as_f64(key)?;
        if v.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&v) {
            Ok(v as u32)
        } else {
            Err(JsonlError(format!("field `{key}` is not a u32: {v}")))
        }
    }

    /// The scalar as a `u64`; `key` names the field in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not an integer, is negative, or exceeds
    /// 2^53 (the largest range that survives the f64 funnel).
    pub fn as_u64(&self, key: &str) -> Result<u64, JsonlError> {
        let v = self.as_f64(key)?;
        // 2^53: the largest range in which every integer survives the
        // f64 round trip the flat parser funnels numbers through.
        if v.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&v) {
            Ok(v as u64)
        } else {
            Err(JsonlError(format!("field `{key}` is not a u64 below 2^53: {v}")))
        }
    }

    /// The scalar as a bool; `key` names the field in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not a boolean.
    pub fn as_bool(&self, key: &str) -> Result<bool, JsonlError> {
        match self {
            Scalar::Bool(b) => Ok(*b),
            _ => Err(JsonlError(format!("field `{key}` is not a bool"))),
        }
    }

    /// The scalar as a string slice; `key` names the field in errors.
    ///
    /// # Errors
    ///
    /// Fails when the scalar is not a string.
    pub fn as_str(&self, key: &str) -> Result<&str, JsonlError> {
        match self {
            Scalar::Str(s) => Ok(s),
            _ => Err(JsonlError(format!("field `{key}` is not a string"))),
        }
    }
}

/// Minimal parser for the flat objects this module emits: one level of
/// `"key": scalar` pairs, scalars being numbers (with `NaN`/`inf`
/// extensions), strings without escapes, or booleans.
///
/// # Errors
///
/// Fails when the line is not a flat JSON object of scalar fields.
pub fn parse_scalars(line: &str) -> Result<Vec<(String, Scalar)>, JsonlError> {
    parse_flat_object(line)
}

/// Looks `key` up in a record parsed by [`parse_scalars`].
///
/// # Errors
///
/// Fails when the record has no such field.
pub fn field<'a>(fields: &'a [(String, Scalar)], key: &str) -> Result<&'a Scalar, JsonlError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| JsonlError(format!("missing field `{key}`")))
}

/// Parses the next line of a record stream; `what` names the expected
/// record in the truncation error.
///
/// # Errors
///
/// Fails when `lines` is exhausted or the line is not a flat object.
pub fn next_record<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    what: &str,
) -> Result<Vec<(String, Scalar)>, JsonlError> {
    let line =
        lines.next().ok_or_else(|| JsonlError(format!("truncated input: expected {what}")))?;
    parse_scalars(line)
}

/// Checks a parsed record's `type` field.
///
/// # Errors
///
/// Fails when the field is missing or names another record type.
pub fn expect_type(fields: &[(String, Scalar)], want: &str) -> Result<(), JsonlError> {
    let ty = field(fields, "type")?.as_str("type")?;
    if ty == want {
        Ok(())
    } else {
        Err(JsonlError(format!("expected `{want}` record, found `{ty}`")))
    }
}

/// Parses a bare number token with the codec's conventions (`NaN`,
/// `inf`, `-inf`, else shortest-round-trip decimal), for numbers packed
/// inside string fields; `what` names the field in errors.
///
/// # Errors
///
/// Fails when `tok` is not a number.
pub fn parse_num(tok: &str, what: &str) -> Result<f64, JsonlError> {
    match tok {
        "NaN" => Ok(f64::NAN),
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        _ => tok.parse::<f64>().map_err(|_| JsonlError(format!("bad number `{tok}` in {what}"))),
    }
}

fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, JsonlError> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| JsonlError("line is not a JSON object".into()))?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // Key.
        rest = rest
            .strip_prefix('"')
            .ok_or_else(|| JsonlError(format!("expected quoted key at `{rest}`")))?;
        let kq = rest.find('"').ok_or_else(|| JsonlError("unterminated key".into()))?;
        let key = rest[..kq].to_string();
        rest = rest[kq + 1..].trim_start();
        rest = rest
            .strip_prefix(':')
            .ok_or_else(|| JsonlError(format!("expected `:` after key `{key}`")))?
            .trim_start();
        // Scalar.
        let (value, tail) = if let Some(r) = rest.strip_prefix('"') {
            let vq = r.find('"').ok_or_else(|| JsonlError("unterminated string value".into()))?;
            (Scalar::Str(r[..vq].to_string()), &r[vq + 1..])
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let token = rest[..end].trim();
            let v = match token {
                "true" => Scalar::Bool(true),
                "false" => Scalar::Bool(false),
                _ => Scalar::Num(parse_num(token, &key)?),
            };
            (v, &rest[end..])
        };
        fields.push((key, value));
        rest = tail.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(JsonlError(format!("unexpected trailing content `{rest}`")));
        }
    }
    Ok(fields)
}

/// Parses one JSONL line back into an [`Event`].
pub fn event_from_jsonl(line: &str) -> Result<Event, JsonlError> {
    let fields = parse_flat_object(line)?;
    let get = |key: &str| -> Result<&Scalar, JsonlError> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| JsonlError(format!("missing field `{key}`")))
    };
    let ty = get("type")?.as_str("type")?.to_string();
    let t = get("t")?.as_f64("t")?;
    match ty.as_str() {
        "solver_step_accepted" => Ok(Event::SolverStepAccepted {
            t,
            h: get("h")?.as_f64("h")?,
            err: get("err")?.as_f64("err")?,
        }),
        "solver_step_rejected" => Ok(Event::SolverStepRejected { t, h: get("h")?.as_f64("h")? }),
        "switch_crossing_located" => Ok(Event::SwitchCrossingLocated {
            t,
            iterations: get("iterations")?.as_u32("iterations")?,
        }),
        "region_switch" => Ok(Event::RegionSwitch {
            t,
            from: get("from")?.as_u32("from")?,
            to: get("to")?.as_u32("to")?,
        }),
        "queue_threshold_crossed" => Ok(Event::QueueThresholdCrossed {
            t,
            q: get("q")?.as_f64("q")?,
            threshold: get("threshold")?.as_f64("threshold")?,
            rising: get("rising")?.as_bool("rising")?,
        }),
        "queue_extremum" => Ok(Event::QueueExtremum {
            t,
            q: get("q")?.as_f64("q")?,
            kind: match get("kind")?.as_str("kind")? {
                "max" => ExtremumKind::Max,
                "min" => ExtremumKind::Min,
                other => return Err(JsonlError(format!("unknown extremum kind `{other}`"))),
            },
        }),
        "bcn_message_emitted" => Ok(Event::BcnMessageEmitted {
            t,
            fb: get("fb")?.as_f64("fb")?,
            source: get("source")?.as_u32("source")?,
        }),
        "qcn_message_emitted" => Ok(Event::QcnMessageEmitted {
            t,
            fb: get("fb")?.as_f64("fb")?,
            source: get("source")?.as_u32("source")?,
        }),
        "pause_asserted" => Ok(Event::PauseAsserted { t, port: get("port")?.as_u32("port")? }),
        "pause_deasserted" => Ok(Event::PauseDeasserted { t, port: get("port")?.as_u32("port")? }),
        "frame_dropped" => Ok(Event::FrameDropped { t, port: get("port")?.as_u32("port")? }),
        "fault_injected" => {
            let name = get("class")?.as_str("class")?;
            let class = FaultClass::from_name(name)
                .ok_or_else(|| JsonlError(format!("unknown fault class `{name}`")))?;
            Ok(Event::FaultInjected { t, class, target: get("target")?.as_u32("target")? })
        }
        "span_begin" => {
            let name = get("kind")?.as_str("kind")?;
            let kind = SpanKind::from_name(name)
                .ok_or_else(|| JsonlError(format!("unknown span kind `{name}`")))?;
            Ok(Event::SpanBegin {
                t,
                id: get("id")?.as_u64("id")?,
                parent: get("parent")?.as_u64("parent")?,
                kind,
                entity: get("entity")?.as_u32("entity")?,
            })
        }
        "span_end" => Ok(Event::SpanEnd { t, id: get("id")?.as_u64("id")? }),
        other => Err(JsonlError(format!("unknown event type `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        let events = [
            Event::SolverStepAccepted { t: 0.125, h: 1e-3, err: 0.42 },
            Event::SolverStepRejected { t: 0.25, h: 0.5 },
            Event::SwitchCrossingLocated { t: 1.0 / 3.0, iterations: 17 },
            Event::RegionSwitch { t: 2.0, from: 0, to: 1 },
            Event::QueueThresholdCrossed { t: 3.5, q: 1.2e6, threshold: 1e6, rising: true },
            Event::QueueExtremum { t: 4.0, q: 0.0, kind: ExtremumKind::Min },
            Event::QueueExtremum { t: 4.5, q: 2.5e6, kind: ExtremumKind::Max },
            Event::BcnMessageEmitted { t: 5.0, fb: -123.75, source: 7 },
            Event::QcnMessageEmitted { t: 6.0, fb: 64.0, source: 0 },
            Event::PauseAsserted { t: 7.0, port: 2 },
            Event::PauseDeasserted { t: 7.5, port: 2 },
            Event::FrameDropped { t: 8.0, port: u32::MAX },
            Event::FaultInjected { t: 9.0, class: FaultClass::FeedbackCorrupt, target: 3 },
            Event::FaultInjected { t: 9.5, class: FaultClass::PauseStorm, target: 0 },
            Event::SpanBegin {
                t: 10.0,
                id: (17u64 + 1) << 32,
                parent: 0,
                kind: SpanKind::BatchSeed,
                entity: 17,
            },
            Event::SpanBegin {
                t: 10.5,
                id: ((17u64 + 1) << 32) + 2,
                parent: (17u64 + 1) << 32,
                kind: SpanKind::PauseEpisode,
                entity: 5,
            },
            Event::SpanEnd { t: 11.0, id: ((17u64 + 1) << 32) + 2 },
        ];
        for e in events {
            let line = event_to_jsonl(&e);
            let back = event_from_jsonl(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(back, e, "line: {line}");
        }
    }

    #[test]
    fn non_finite_floats_round_trip() {
        let e = Event::SolverStepAccepted { t: 1.0, h: 0.1, err: f64::NAN };
        let line = event_to_jsonl(&e);
        match event_from_jsonl(&line).unwrap() {
            Event::SolverStepAccepted { err, .. } => assert!(err.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
        let e = Event::SolverStepAccepted { t: 1.0, h: f64::INFINITY, err: f64::NEG_INFINITY };
        let line = event_to_jsonl(&e);
        match event_from_jsonl(&line).unwrap() {
            Event::SolverStepAccepted { h, err, .. } => {
                assert_eq!(h, f64::INFINITY);
                assert_eq!(err, f64::NEG_INFINITY);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"type":"region_switch"}"#,
            r#"{"type":"no_such_event","t":1.0}"#,
            r#"{"type":"frame_dropped","t":1.0,"port":-1}"#,
            r#"{"type":"frame_dropped","t":1.0,"port":1.5}"#,
            r#"{"type":"fault_injected","t":1.0,"class":"no_such_fault","target":0}"#,
            r#"{"type":"span_begin","t":1.0,"id":1,"parent":0,"kind":"no_such_span","entity":0}"#,
            r#"{"type":"span_end","t":1.0,"id":-1}"#,
            r#"{"type":"span_end","t":1.0,"id":1e16}"#,
        ] {
            assert!(event_from_jsonl(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn schema_header_round_trips() {
        let header = schema_header();
        check_schema_header(&header).unwrap();
        // The header is not an event.
        assert!(event_from_jsonl(&header).is_err());
    }

    #[test]
    fn schema_header_rejects_stale_and_foreign_lines() {
        for bad in [
            "",
            "not json",
            r#"{"type":"region_switch","t":0.5,"from":0,"to":1}"#,
            r#"{"type":"schema","version":1}"#,
            r#"{"type":"schema","version":99}"#,
            r#"{"type":"schema"}"#,
        ] {
            assert!(check_schema_header(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        // {:?} emits the shortest representation that parses back to the
        // same bits; verify on awkward values.
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, 123_456_789.123_456_79] {
            let e = Event::SolverStepRejected { t: v, h: v };
            let back = event_from_jsonl(&event_to_jsonl(&e)).unwrap();
            assert_eq!(back, e);
        }
    }
}
