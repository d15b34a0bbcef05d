//! The flat-JSONL record codec: the one place that knows the format of
//! every JSONL artifact in the workspace (trace files, telemetry
//! snapshots, checkpoint shards and manifests, postmortem dumps, query
//! and answer streams, grid-campaign journals).
//!
//! A record is one flat JSON object per line whose first field names
//! its kind, e.g. `{"type":"region_switch","t":0.125,"from":0,"to":1}`.
//! Values are scalars only:
//!
//! * **Floats** are written with Rust's `{:?}` formatting (the shortest
//!   representation that round-trips exactly) plus the extension tokens
//!   `NaN`, `inf` and `-inf`, so every value round-trips bit for bit.
//! * **Integers** are written in decimal and read through the float
//!   path, so one field carries at most 2^53; a
//!   full-range `u64` is split into `<key>_hi`/`<key>_lo` 32-bit halves.
//! * **Strings** use JSON escaping (`\"`, `\\`, `\n`, `\r`, `\t`,
//!   `\u00XX` for other control characters); the reader is its exact
//!   inverse and also accepts the remaining JSON escapes.
//! * **Packed lists** of numbers travel inside one string field as
//!   comma-separated tokens (`"1.0,2.5"`), pairs as `a:b` tokens.
//!
//! [`Line`] appends a record to a `String`; [`Record`] reads one back
//! without copying: keys and values borrow the line, and a string is
//! unescaped only when it contains a backslash.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::event::{Event, ExtremumKind, FaultClass, SpanKind};

/// Version of the trace file format.
///
/// Bumped whenever the set of event records or their fields changes
/// incompatibly. Version history: 1 = headerless traces (PR 1);
/// 2 = schema header record + causal span events (this version).
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Largest integer a single numeric field carries exactly (2^53): every
/// number is read through `f64`.
const MAX_EXACT_INT: u64 = 1 << 53;

/// Error produced when a JSONL line cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError(pub String);

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jsonl parse error: {}", self.0)
    }
}

impl std::error::Error for JsonlError {}

fn err<T>(msg: String) -> Result<T, JsonlError> {
    Err(JsonlError(msg))
}

// ---------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------

fn push_num(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-inf");
    } else {
        let _ = write!(out, "{v:?}");
    }
}

fn parse_num(tok: &str) -> Option<f64> {
    match tok {
        "NaN" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => tok.parse().ok(),
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escapes `s` for embedding between JSON string quotes; [`Record`]'s
/// string getter is its inverse.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn unescape(raw: &str) -> Result<String, JsonlError> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let e = chars.next().ok_or_else(|| JsonlError("dangling `\\` in string".into()))?;
        out.push(match e {
            '"' => '"',
            '\\' => '\\',
            '/' => '/',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                u32::from_str_radix(&hex, 16)
                    .ok()
                    .filter(|_| hex.len() == 4)
                    .and_then(char::from_u32)
                    .ok_or_else(|| JsonlError(format!("bad escape `\\u{hex}`")))?
            }
            other => return err(format!("bad escape `\\{other}`")),
        });
    }
    Ok(out)
}

/// A number that travels inside a packed-list field ([`Line::list`],
/// [`Record::list`]): `f64` with the float conventions, `u64` as a plain
/// decimal integer (full range: packed tokens skip the f64 funnel).
pub trait Packed: Copy + Sized {
    /// Appends the token.
    fn put(self, out: &mut String);
    /// Parses one token.
    fn take(tok: &str) -> Option<Self>;
}

impl Packed for f64 {
    fn put(self, out: &mut String) {
        push_num(out, self);
    }
    fn take(tok: &str) -> Option<Self> {
        parse_num(tok)
    }
}

impl Packed for u64 {
    fn put(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn take(tok: &str) -> Option<Self> {
        tok.parse().ok()
    }
}

/// A pair travels as one `a:b` token.
impl<A: Packed, B: Packed> Packed for (A, B) {
    fn put(self, out: &mut String) {
        self.0.put(out);
        out.push(':');
        self.1.put(out);
    }
    fn take(tok: &str) -> Option<Self> {
        let (a, b) = tok.split_once(':')?;
        Some((A::take(a)?, B::take(b)?))
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Appends one flat record to a `String`: [`Line::new`] writes the
/// `{"type":…` head, each field method one `,"key":value` pair (keys are
/// written verbatim, so they must be plain identifiers), and
/// [`Line::end`]/[`Line::end_line`] close it.
#[must_use = "a record is only closed by `end` or `end_line`"]
pub struct Line<'o> {
    out: &'o mut String,
}

impl<'o> Line<'o> {
    /// Starts a record of kind `ty`.
    pub fn new(out: &'o mut String, ty: &str) -> Self {
        out.push_str(r#"{"type":""#);
        escape_into(out, ty);
        out.push('"');
        Self { out }
    }

    fn key(&mut self, key: &str) {
        self.out.push_str(",\"");
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    /// A float field.
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        push_num(self.out, v);
        self
    }

    /// An integer field (readers accept at most 2^53).
    pub fn uint(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{v}");
        self
    }

    /// A boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// A string field, escaped.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        self.out.push('"');
        escape_into(self.out, v);
        self.out.push('"');
        self
    }

    /// A full-range `u64` as two 32-bit halves, `<key>_hi` and
    /// `<key>_lo` (read back by [`Record::split_u64`]).
    pub fn split_u64(self, key: &str, v: u64) -> Self {
        let _ = write!(self.out, r#","{key}_hi":{},"{key}_lo":{}"#, v >> 32, v & 0xffff_ffff);
        self
    }

    /// A packed list: `"key":"a,b,…"` (pairs as `a:b` tokens).
    pub fn list<T: Packed>(mut self, key: &str, vals: impl IntoIterator<Item = T>) -> Self {
        self.key(key);
        self.out.push('"');
        for (i, v) in vals.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            v.put(self.out);
        }
        self.out.push('"');
        self
    }

    /// Closes the record (no newline).
    pub fn end(self) {
        self.out.push('}');
    }

    /// Closes the record and ends the line.
    pub fn end_line(self) {
        self.out.push_str("}\n");
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Value<'a> {
    Num(f64),
    /// The raw text between the quotes, escapes still in place.
    Str(&'a str),
    Bool(bool),
}

/// One decoded flat record. Keys and string values borrow the line; the
/// typed getters name the key in their errors.
#[derive(Debug)]
pub struct Record<'a> {
    fields: Vec<(&'a str, Value<'a>)>,
}

/// Splits a quoted string's body off `s` (which starts just past the
/// opening quote): returns the raw body and the text after the closing
/// quote.
fn quoted(s: &str) -> Option<(&str, &str)> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some((&s[..i], &s[i + 1..])),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    None
}

impl<'a> Record<'a> {
    /// Parses one flat object: `"key": scalar` pairs, scalars being
    /// numbers (with the `NaN`/`inf`/`-inf` tokens), strings, or
    /// booleans.
    ///
    /// # Errors
    ///
    /// Fails when the line is not a flat JSON object of scalar fields.
    pub fn parse(line: &'a str) -> Result<Self, JsonlError> {
        let inner = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| JsonlError("line is not a JSON object".into()))?;
        let mut fields = Vec::with_capacity(16);
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let (key, tail) = rest
                .strip_prefix('"')
                .and_then(quoted)
                .ok_or_else(|| JsonlError(format!("expected quoted key at `{rest}`")))?;
            rest = tail
                .trim_start()
                .strip_prefix(':')
                .ok_or_else(|| JsonlError(format!("expected `:` after key `{key}`")))?
                .trim_start();
            let (value, tail) = if let Some(r) = rest.strip_prefix('"') {
                let (s, tail) =
                    quoted(r).ok_or_else(|| JsonlError("unterminated string value".into()))?;
                (Value::Str(s), tail)
            } else {
                let end = rest.find(',').unwrap_or(rest.len());
                let token = rest[..end].trim();
                let v = match token {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    _ => Value::Num(
                        parse_num(token)
                            .ok_or_else(|| JsonlError(format!("bad number `{token}` in {key}")))?,
                    ),
                };
                (v, &rest[end..])
            };
            fields.push((key, value));
            rest = tail.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() {
                return err(format!("unexpected trailing content `{rest}`"));
            }
        }
        Ok(Self { fields })
    }

    /// Parses the next line of a record stream and checks that it is a
    /// `ty` record.
    ///
    /// # Errors
    ///
    /// Fails when `lines` is exhausted, the line does not parse, or it
    /// holds another kind of record.
    pub fn next<I: Iterator<Item = &'a str>>(lines: &mut I, ty: &str) -> Result<Self, JsonlError> {
        let line = lines
            .next()
            .ok_or_else(|| JsonlError(format!("truncated input: expected `{ty}` record")))?;
        let r = Self::parse(line)?;
        r.expect_type(ty)?;
        Ok(r)
    }

    /// Checks the record's `type`.
    ///
    /// # Errors
    ///
    /// Fails when the field is missing or names another record type.
    pub fn expect_type(&self, want: &str) -> Result<(), JsonlError> {
        let ty = self.str("type")?;
        if ty == want {
            Ok(())
        } else {
            err(format!("expected `{want}` record, found `{ty}`"))
        }
    }

    /// Rejects any field not named in `known`; `what` names the record
    /// in the error.
    ///
    /// # Errors
    ///
    /// Fails on the first unknown field.
    pub fn reject_unknown(&self, known: &[&str], what: &str) -> Result<(), JsonlError> {
        match self.fields.iter().find(|(k, _)| !known.contains(k)) {
            Some((k, _)) => err(format!("unknown {what} field `{k}`")),
            None => Ok(()),
        }
    }

    /// Whether the record has a `key` field.
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.fields.iter().any(|(k, _)| *k == key)
    }

    fn get(&self, key: &str) -> Result<Value<'a>, JsonlError> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| JsonlError(format!("missing field `{key}`")))
    }

    /// A float field.
    ///
    /// # Errors
    ///
    /// Fails when the field is missing or not a number.
    pub fn f64(&self, key: &str) -> Result<f64, JsonlError> {
        match self.get(key)? {
            Value::Num(v) => Ok(v),
            _ => err(format!("field `{key}` is not a number")),
        }
    }

    /// An integer field in `0..=2^53`.
    ///
    /// # Errors
    ///
    /// Fails when the field is missing, not an integer, negative, or
    /// above 2^53.
    pub fn u64(&self, key: &str) -> Result<u64, JsonlError> {
        let v = self.f64(key)?;
        if v.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(&v) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Ok(v as u64)
        } else {
            err(format!("field `{key}` is not an integer in 0..=2^53: {v}"))
        }
    }

    /// A `u32` field.
    ///
    /// # Errors
    ///
    /// Fails when the field is missing or not an integer in `u32` range.
    pub fn u32(&self, key: &str) -> Result<u32, JsonlError> {
        let v = self.u64(key)?;
        u32::try_from(v).map_err(|_| JsonlError(format!("field `{key}` is not a u32: {v}")))
    }

    /// A boolean field.
    ///
    /// # Errors
    ///
    /// Fails when the field is missing or not a boolean.
    pub fn bool(&self, key: &str) -> Result<bool, JsonlError> {
        match self.get(key)? {
            Value::Bool(b) => Ok(b),
            _ => err(format!("field `{key}` is not a bool")),
        }
    }

    /// A string field, borrowed unless it holds an escape.
    ///
    /// # Errors
    ///
    /// Fails when the field is missing, not a string, or holds a bad
    /// escape.
    pub fn str(&self, key: &str) -> Result<Cow<'a, str>, JsonlError> {
        match self.get(key)? {
            Value::Str(raw) if raw.contains('\\') => unescape(raw).map(Cow::Owned),
            Value::Str(raw) => Ok(Cow::Borrowed(raw)),
            _ => err(format!("field `{key}` is not a string")),
        }
    }

    /// A `u64` written by [`Line::split_u64`].
    ///
    /// # Errors
    ///
    /// Fails when either half is missing or wider than 32 bits.
    pub fn split_u64(&self, key: &str) -> Result<u64, JsonlError> {
        let half = |suffix: &str| {
            let k = format!("{key}{suffix}");
            let v = self.u64(&k)?;
            if v > u64::from(u32::MAX) {
                return err(format!("field `{k}` is wider than 32 bits: {v}"));
            }
            Ok(v)
        };
        Ok((half("_hi")? << 32) | half("_lo")?)
    }

    /// A packed list written by [`Line::list`].
    ///
    /// # Errors
    ///
    /// Fails when the field is missing, not a string, or a token does
    /// not parse.
    pub fn list<T: Packed>(&self, key: &str) -> Result<Vec<T>, JsonlError> {
        let Value::Str(raw) = self.get(key)? else {
            return err(format!("field `{key}` is not a packed list"));
        };
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|tok| {
                T::take(tok).ok_or_else(|| JsonlError(format!("bad token `{tok}` in {key}")))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Schema header and trace events
// ---------------------------------------------------------------------

/// The header record written as the first line of every trace file,
/// e.g. `{"type":"schema","version":2}`.
#[must_use]
pub fn schema_header() -> String {
    let mut s = String::with_capacity(32);
    Line::new(&mut s, "schema").uint("version", u64::from(TRACE_SCHEMA_VERSION)).end();
    s
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
    let r = Record::parse(line)?;
    let ty = r.str("type")?;
    if ty != "schema" {
        return err(format!(
            "first record is `{ty}`, not a schema header (stale or truncated trace file?)"
        ));
    }
    let version = r.u32("version")?;
    if version != TRACE_SCHEMA_VERSION {
        return err(format!(
            "unsupported trace schema version {version} (this build reads {TRACE_SCHEMA_VERSION})"
        ));
    }
    Ok(())
}

/// Appends one event as a record (no newline).
pub fn write_event(out: &mut String, e: &Event) {
    let l = Line::new(out, e.type_name());
    match *e {
        Event::SolverStepAccepted { t, h, err } => l.num("t", t).num("h", h).num("err", err),
        Event::SolverStepRejected { t, h } => l.num("t", t).num("h", h),
        Event::SwitchCrossingLocated { t, iterations } => {
            l.num("t", t).uint("iterations", u64::from(iterations))
        }
        Event::RegionSwitch { t, from, to } => {
            l.num("t", t).uint("from", u64::from(from)).uint("to", u64::from(to))
        }
        Event::QueueThresholdCrossed { t, q, threshold, rising } => {
            l.num("t", t).num("q", q).num("threshold", threshold).bool("rising", rising)
        }
        Event::QueueExtremum { t, q, kind } => l.num("t", t).num("q", q).str(
            "kind",
            match kind {
                ExtremumKind::Max => "max",
                ExtremumKind::Min => "min",
            },
        ),
        Event::BcnMessageEmitted { t, fb, source } | Event::QcnMessageEmitted { t, fb, source } => {
            l.num("t", t).num("fb", fb).uint("source", u64::from(source))
        }
        Event::PauseAsserted { t, port }
        | Event::PauseDeasserted { t, port }
        | Event::FrameDropped { t, port } => l.num("t", t).uint("port", u64::from(port)),
        Event::FaultInjected { t, class, target } => {
            l.num("t", t).str("class", class.name()).uint("target", u64::from(target))
        }
        Event::SpanBegin { t, id, parent, kind, entity } => l
            .num("t", t)
            .uint("id", id)
            .uint("parent", parent)
            .str("kind", kind.name())
            .uint("entity", u64::from(entity)),
        Event::SpanEnd { t, id } => l.num("t", t).uint("id", id),
    }
    .end();
}

/// Serializes one event to a single JSONL line (no trailing newline).
#[must_use]
pub fn event_to_jsonl(e: &Event) -> String {
    let mut s = String::with_capacity(96);
    write_event(&mut s, e);
    s
}

/// Parses one JSONL line back into an [`Event`].
///
/// # Errors
///
/// Fails on a malformed line, an unknown event type, or a missing or
/// mistyped field.
pub fn event_from_jsonl(line: &str) -> Result<Event, JsonlError> {
    let r = Record::parse(line)?;
    let ty = r.str("type")?;
    let t = r.f64("t")?;
    Ok(match &*ty {
        "solver_step_accepted" => {
            Event::SolverStepAccepted { t, h: r.f64("h")?, err: r.f64("err")? }
        }
        "solver_step_rejected" => Event::SolverStepRejected { t, h: r.f64("h")? },
        "switch_crossing_located" => {
            Event::SwitchCrossingLocated { t, iterations: r.u32("iterations")? }
        }
        "region_switch" => Event::RegionSwitch { t, from: r.u32("from")?, to: r.u32("to")? },
        "queue_threshold_crossed" => Event::QueueThresholdCrossed {
            t,
            q: r.f64("q")?,
            threshold: r.f64("threshold")?,
            rising: r.bool("rising")?,
        },
        "queue_extremum" => Event::QueueExtremum {
            t,
            q: r.f64("q")?,
            kind: match &*r.str("kind")? {
                "max" => ExtremumKind::Max,
                "min" => ExtremumKind::Min,
                other => return err(format!("unknown extremum kind `{other}`")),
            },
        },
        "bcn_message_emitted" => {
            Event::BcnMessageEmitted { t, fb: r.f64("fb")?, source: r.u32("source")? }
        }
        "qcn_message_emitted" => {
            Event::QcnMessageEmitted { t, fb: r.f64("fb")?, source: r.u32("source")? }
        }
        "pause_asserted" => Event::PauseAsserted { t, port: r.u32("port")? },
        "pause_deasserted" => Event::PauseDeasserted { t, port: r.u32("port")? },
        "frame_dropped" => Event::FrameDropped { t, port: r.u32("port")? },
        "fault_injected" => {
            let name = r.str("class")?;
            let class = FaultClass::from_name(&name)
                .ok_or_else(|| JsonlError(format!("unknown fault class `{name}`")))?;
            Event::FaultInjected { t, class, target: r.u32("target")? }
        }
        "span_begin" => {
            let name = r.str("kind")?;
            let kind = SpanKind::from_name(&name)
                .ok_or_else(|| JsonlError(format!("unknown span kind `{name}`")))?;
            Event::SpanBegin {
                t,
                id: r.u64("id")?,
                parent: r.u64("parent")?,
                kind,
                entity: r.u32("entity")?,
            }
        }
        "span_end" => Event::SpanEnd { t, id: r.u64("id")? },
        other => return err(format!("unknown event type `{other}`")),
    })
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

    #[test]
    fn strings_escape_and_unescape_exactly() {
        for s in ["plain", "", "a\"b", "back\\slash", "line\nbreak\r\ttab", "\u{1}\u{1f}", "ünï"]
        {
            let mut line = String::new();
            Line::new(&mut line, "t").str("s", s).end();
            let r = Record::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(r.str("s").unwrap(), s, "line: {line}");
            assert_eq!(json_escape(s), line[r#"{"type":"t","s":""#.len()..line.len() - 2]);
        }
        let r = Record::parse(r#"{"s":"\/\b\fé"}"#).unwrap();
        assert_eq!(r.str("s").unwrap(), "/\u{8}\u{c}é");
        for bad in [r#"{"s":"\q"}"#, r#"{"s":"\u12"}"#, r#"{"s":"\ud800"}"#] {
            assert!(Record::parse(bad).unwrap().str("s").is_err(), "accepted: {bad}");
        }
        assert!(Record::parse(r#"{"s":"open\"}"#).is_err());
    }

    #[test]
    fn split_integers_and_packed_lists_round_trip() {
        let mut line = String::new();
        Line::new(&mut line, "t")
            .split_u64("seed", u64::MAX - 5)
            .list("xs", [0.5, f64::NAN, -0.0])
            .list("ns", [u64::MAX, 0])
            .list::<f64>("none", [])
            .list("ps", [(3u64, 9u64)])
            .end();
        let r = Record::parse(&line).unwrap();
        assert_eq!(r.split_u64("seed").unwrap(), u64::MAX - 5);
        let xs: Vec<f64> = r.list("xs").unwrap();
        assert_eq!(xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()[2], (-0.0f64).to_bits());
        assert!(xs[1].is_nan());
        assert_eq!(r.list::<u64>("ns").unwrap(), [u64::MAX, 0]);
        assert!(r.list::<f64>("none").unwrap().is_empty());
        assert_eq!(r.list::<(u64, u64)>("ps").unwrap(), [(3, 9)]);
        assert!(r.list::<u64>("xs").is_err());
        assert!(r.list::<(u64, u64)>("ns").is_err());
        let wide = r#"{"seed_hi":4294967296,"seed_lo":0}"#;
        assert!(Record::parse(wide).unwrap().split_u64("seed").is_err());
    }

    #[test]
    fn integer_getters_enforce_their_ranges() {
        let r =
            Record::parse(r#"{"a":9007199254740992,"b":9007199254740994,"c":4294967296}"#).unwrap();
        assert_eq!(r.u64("a").unwrap(), MAX_EXACT_INT);
        assert!(r.u64("b").is_err());
        assert!(r.u32("c").is_err());
        let err = r.u64("missing").unwrap_err();
        assert!(err.0.contains("`missing`"), "{err}");
    }

    #[test]
    fn unknown_fields_are_named() {
        let r = Record::parse(r#"{"type":"q","a":1,"zz":2}"#).unwrap();
        assert!(r.reject_unknown(&["type", "a", "zz"], "q").is_ok());
        assert_eq!(r.reject_unknown(&["type", "a"], "q").unwrap_err().0, "unknown q field `zz`");
        r.expect_type("q").unwrap();
        assert!(r.expect_type("p").is_err());
    }
}
