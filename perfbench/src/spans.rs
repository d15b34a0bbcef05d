//! In-memory span recorder for the traced run. Spans are taken around
//! the public calls the benchmark makes into each layer; they stay in
//! memory until the run ends and are then written out as JSONL.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open, `end_ns == u64::MAX`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` at top level.
    pub parent: Option<usize>,
    /// Seed or chunk id shared by every span of one unit of work.
    pub unit: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans; a disabled recorder records nothing, so the
/// untraced run shares the traced run's code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, unit: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: u64::MAX, parent, unit });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(i), "spans must close innermost first");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, unit);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Nanoseconds since the recorder was created (the spans' clock).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }
}

/// The spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"unit":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.unit
        );
    }
    out
}

/// Self time per span: its duration minus the part of its interval that
/// its direct children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Total duration per span name, in seconds.
pub fn time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
    }
    out
}

/// Durations of every span called `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 * 1e-6).collect()
}

/// Seconds covered by top-level spans that start at or after `from_ns`.
pub fn top_level_secs(spans: &[Span], from_ns: u64) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.start_ns >= from_ns)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, unit: 0 }
    }

    #[test]
    fn self_time_is_span_time_minus_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.x", 12, 20, Some(1)),
            span("leaf", 200, 250, None),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 30, 20 - 8, 30, 8, 50]);
        let by_name = self_time_by_name(&spans);
        assert!((by_name["root"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) = 60 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || std::hint::black_box(1 + 1));
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(to_jsonl(t.spans()).lines().count(), 2);
        let st = self_times(t.spans());
        assert_eq!(st[0] + st[1], t.spans()[0].duration_ns());

        let mut off = Tracer::new(false);
        let id = off.begin("x", 0);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
