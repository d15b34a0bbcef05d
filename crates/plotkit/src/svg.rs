//! Dependency-free SVG line/scatter plots.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One plotted series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// X coordinates.
    pub xs: Vec<f64>,
    /// Y coordinates (same length as `xs`).
    pub ys: Vec<f64>,
    /// CSS color (e.g. `"#1f77b4"`).
    pub color: String,
    /// Draw markers at each point instead of (only) a polyline.
    pub markers: bool,
}

impl Series {
    /// Creates a line series.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` lengths differ.
    #[must_use]
    pub fn line(label: &str, xs: &[f64], ys: &[f64], color: &str) -> Self {
        assert_eq!(xs.len(), ys.len(), "series coordinates must pair up");
        Self {
            label: label.to_string(),
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            color: color.to_string(),
            markers: false,
        }
    }

    /// Creates a scatter (marker) series.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` lengths differ.
    #[must_use]
    pub fn scatter(label: &str, xs: &[f64], ys: &[f64], color: &str) -> Self {
        let mut s = Self::line(label, xs, ys, color);
        s.markers = true;
        s
    }
}

/// A translucent horizontal band over `[x0, x1]`, spanning the full
/// plot height — used to render causal spans (e.g. PAUSE episodes) as
/// background shading behind the data series.
#[derive(Debug, Clone, PartialEq)]
struct Band {
    /// Band start (data x coordinate).
    pub x0: f64,
    /// Band end (data x coordinate).
    pub x1: f64,
    /// CSS fill color (rendered at low opacity).
    pub color: String,
    /// Legend label; bands sharing a label are legended once.
    pub label: String,
}

/// A 2-D plot rendered to SVG.
///
/// # Example
///
/// ```
/// use plotkit::{Series, SvgPlot};
///
/// let xs = [0.0, 1.0, 2.0];
/// let ys = [0.0, 1.0, 0.5];
/// let svg = SvgPlot::new("demo", "t (s)", "q (bits)")
///     .with_series(Series::line("queue", &xs, &ys, "#1f77b4"))
///     .render();
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SvgPlot {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
    vlines: Vec<(f64, String)>,
    hlines: Vec<(f64, String)>,
    bands: Vec<Band>,
    width: f64,
    height: f64,
}

const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 20.0;
const MARGIN_T: f64 = 36.0;
const MARGIN_B: f64 = 48.0;

/// A pleasant default color cycle (matplotlib "tab10" flavoured).
pub const COLOR_CYCLE: [&str; 8] =
    ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"];

impl SvgPlot {
    /// Creates an empty plot with the given title and axis labels.
    #[must_use]
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        Self {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
            vlines: Vec::new(),
            hlines: Vec::new(),
            bands: Vec::new(),
            width: 760.0,
            height: 480.0,
        }
    }

    /// Adds a series.
    #[must_use]
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Adds a dashed vertical reference line at `x`.
    #[must_use]
    pub fn with_vline(mut self, x: f64, color: &str) -> Self {
        self.vlines.push((x, color.to_string()));
        self
    }

    /// Adds a dashed horizontal reference line at `y`.
    #[must_use]
    pub fn with_hline(mut self, y: f64, color: &str) -> Self {
        self.hlines.push((y, color.to_string()));
        self
    }

    /// Adds a translucent vertical band over `[x0, x1]` (full plot
    /// height), drawn behind every series. Bands sharing a label get a
    /// single legend entry.
    #[must_use]
    pub fn with_band(mut self, x0: f64, x1: f64, color: &str, label: &str) -> Self {
        self.bands.push(Band {
            x0: x0.min(x1),
            x1: x0.max(x1),
            color: color.to_string(),
            label: label.to_string(),
        });
        self
    }

    fn ranges(&self) -> ((f64, f64), (f64, f64)) {
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.series {
            for (&x, &y) in s.xs.iter().zip(&s.ys) {
                if x.is_finite() && y.is_finite() {
                    x0 = x0.min(x);
                    x1 = x1.max(x);
                    y0 = y0.min(y);
                    y1 = y1.max(y);
                }
            }
        }
        for (y, _) in &self.hlines {
            y0 = y0.min(*y);
            y1 = y1.max(*y);
        }
        for (x, _) in &self.vlines {
            x0 = x0.min(*x);
            x1 = x1.max(*x);
        }
        for b in &self.bands {
            if b.x0.is_finite() && b.x1.is_finite() {
                x0 = x0.min(b.x0);
                x1 = x1.max(b.x1);
            }
        }
        if !x0.is_finite() {
            ((0.0, 1.0), (0.0, 1.0))
        } else {
            let pad = |a: f64, b: f64| {
                let span = (b - a).max(f64::MIN_POSITIVE);
                (a - 0.04 * span, b + 0.04 * span)
            };
            (pad(x0, x1), pad(y0, y1))
        }
    }

    /// Renders the SVG document.
    #[must_use]
    pub fn render(&self) -> String {
        let ((x0, x1), (y0, y1)) = self.ranges();
        let plot_w = self.width - MARGIN_L - MARGIN_R;
        let plot_h = self.height - MARGIN_T - MARGIN_B;
        let px = |x: f64| MARGIN_L + (x - x0) / (x1 - x0) * plot_w;
        let py = |y: f64| MARGIN_T + (1.0 - (y - y0) / (y1 - y0)) * plot_h;

        let mut out = String::new();
        let _ = write!(
            out,
            r##"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="Helvetica,Arial,sans-serif">"##,
            w = self.width,
            h = self.height
        );
        let _ = write!(
            out,
            r##"<rect width="{}" height="{}" fill="white"/>"##,
            self.width, self.height
        );
        // Frame.
        let _ = write!(
            out,
            r##"<rect x="{:.1}" y="{:.1}" width="{plot_w:.1}" height="{plot_h:.1}" fill="none" stroke="#444" stroke-width="1"/>"##,
            MARGIN_L, MARGIN_T
        );
        // Title and axis labels.
        let _ = write!(
            out,
            r##"<text x="{:.1}" y="22" font-size="15" text-anchor="middle" fill="#222">{}</text>"##,
            MARGIN_L + plot_w / 2.0,
            escape(&self.title)
        );
        let _ = write!(
            out,
            r##"<text x="{:.1}" y="{:.1}" font-size="12" text-anchor="middle" fill="#222">{}</text>"##,
            MARGIN_L + plot_w / 2.0,
            self.height - 10.0,
            escape(&self.x_label)
        );
        let _ = write!(
            out,
            r##"<text x="16" y="{:.1}" font-size="12" text-anchor="middle" fill="#222" transform="rotate(-90 16 {:.1})">{}</text>"##,
            MARGIN_T + plot_h / 2.0,
            MARGIN_T + plot_h / 2.0,
            escape(&self.y_label)
        );
        // Span bands go first, so the data draws on top of them. The x
        // range is clamped to the frame: an eagerly-stamped span can end
        // past the last sample.
        for b in &self.bands {
            if !(b.x0.is_finite() && b.x1.is_finite()) {
                continue;
            }
            let bx0 = px(b.x0).max(MARGIN_L);
            let bx1 = px(b.x1).min(MARGIN_L + plot_w);
            if bx1 <= bx0 {
                continue;
            }
            let _ = write!(
                out,
                r##"<rect x="{bx0:.1}" y="{:.1}" width="{:.1}" height="{plot_h:.1}" fill="{}" fill-opacity="0.18"/>"##,
                MARGIN_T,
                bx1 - bx0,
                b.color
            );
        }
        // Ticks: 5 per axis.
        for i in 0..=4 {
            let fx = x0 + (x1 - x0) * f64::from(i) / 4.0;
            let fy = y0 + (y1 - y0) * f64::from(i) / 4.0;
            let _ = write!(
                out,
                r##"<text x="{:.1}" y="{:.1}" font-size="10" text-anchor="middle" fill="#444">{}</text>"##,
                px(fx),
                MARGIN_T + plot_h + 14.0,
                format_tick(fx)
            );
            let _ = write!(
                out,
                r##"<text x="{:.1}" y="{:.1}" font-size="10" text-anchor="end" fill="#444">{}</text>"##,
                MARGIN_L - 6.0,
                py(fy) + 3.0,
                format_tick(fy)
            );
            let _ = write!(
                out,
                r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#ddd" stroke-width="0.5"/>"##,
                MARGIN_L,
                py(fy),
                MARGIN_L + plot_w,
                py(fy)
            );
        }
        // Reference lines.
        for (x, color) in &self.vlines {
            let _ = write!(
                out,
                r##"<line x1="{0:.1}" y1="{1:.1}" x2="{0:.1}" y2="{2:.1}" stroke="{color}" stroke-width="1" stroke-dasharray="5,4"/>"##,
                px(*x),
                MARGIN_T,
                MARGIN_T + plot_h
            );
        }
        for (y, color) in &self.hlines {
            let _ = write!(
                out,
                r##"<line x1="{1:.1}" y1="{0:.1}" x2="{2:.1}" y2="{0:.1}" stroke="{color}" stroke-width="1" stroke-dasharray="5,4"/>"##,
                py(*y),
                MARGIN_L,
                MARGIN_L + plot_w
            );
        }
        // Series.
        for s in &self.series {
            if !s.markers {
                let mut points = String::new();
                for (&x, &y) in s.xs.iter().zip(&s.ys) {
                    if x.is_finite() && y.is_finite() {
                        let _ = write!(points, "{:.2},{:.2} ", px(x), py(y));
                    }
                }
                let _ = write!(
                    out,
                    r##"<polyline points="{points}" fill="none" stroke="{}" stroke-width="1.5"/>"##,
                    s.color
                );
            } else {
                for (&x, &y) in s.xs.iter().zip(&s.ys) {
                    if x.is_finite() && y.is_finite() {
                        let _ = write!(
                            out,
                            r##"<circle cx="{:.2}" cy="{:.2}" r="2.5" fill="{}"/>"##,
                            px(x),
                            py(y),
                            s.color
                        );
                    }
                }
            }
        }
        // Legend: series first, then one entry per distinct band label.
        let mut band_legend: Vec<&Band> = Vec::new();
        for b in &self.bands {
            if !b.label.is_empty() && !band_legend.iter().any(|e| e.label == b.label) {
                band_legend.push(b);
            }
        }
        for (i, (color, label, is_band)) in self
            .series
            .iter()
            .map(|s| (&s.color, &s.label, false))
            .chain(band_legend.iter().map(|b| (&b.color, &b.label, true)))
            .enumerate()
        {
            let ly = MARGIN_T + 14.0 + 16.0 * i as f64;
            if is_band {
                let _ = write!(
                    out,
                    r##"<rect x="{:.1}" y="{:.1}" width="12" height="10" fill="{color}" fill-opacity="0.35"/>"##,
                    MARGIN_L + plot_w - 150.0,
                    ly - 8.0
                );
            } else {
                let _ = write!(
                    out,
                    r##"<rect x="{:.1}" y="{:.1}" width="12" height="3" fill="{color}"/>"##,
                    MARGIN_L + plot_w - 150.0,
                    ly - 4.0
                );
            }
            let _ = write!(
                out,
                r##"<text x="{:.1}" y="{:.1}" font-size="11" fill="#222">{}</text>"##,
                MARGIN_L + plot_w - 132.0,
                ly,
                escape(label)
            );
        }
        out.push_str("</svg>");
        out
    }

    /// Renders and writes the SVG to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())
    }
}

fn format_tick(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if !(0.01..1e4).contains(&a) {
        format!("{v:.2e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_wellformed_svg() {
        let svg = SvgPlot::new("t", "x", "y")
            .with_series(Series::line("a", &[0.0, 1.0], &[0.0, 1.0], "#123456"))
            .with_series(Series::scatter("b", &[0.5], &[0.5], "#654321"))
            .with_vline(0.5, "#999999")
            .with_hline(0.25, "#888888")
            .render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("polyline"));
        assert!(svg.contains("circle"));
        assert!(svg.contains("stroke-dasharray"));
        // Balanced tags (cheap well-formedness proxy).
        assert_eq!(svg.matches("<svg").count(), 1);
        assert_eq!(svg.matches("</svg>").count(), 1);
    }

    #[test]
    fn bands_render_behind_series_and_legend_once() {
        let svg = SvgPlot::new("t", "x", "y")
            .with_series(Series::line("a", &[0.0, 1.0], &[0.0, 1.0], "#123456"))
            .with_band(0.2, 0.4, "#d62728", "PAUSE")
            .with_band(0.6, 0.7, "#d62728", "PAUSE")
            .render();
        assert_eq!(svg.matches("fill-opacity=\"0.18\"").count(), 2, "two band rects");
        assert_eq!(svg.matches(">PAUSE</text>").count(), 1, "shared label legended once");
        let band_at = svg.find("fill-opacity=\"0.18\"").unwrap();
        let line_at = svg.find("polyline").unwrap();
        assert!(band_at < line_at, "bands must draw behind the data");
    }

    #[test]
    fn degenerate_and_offscreen_bands_are_skipped() {
        let svg = SvgPlot::new("t", "x", "y")
            .with_series(Series::line("a", &[0.0, 1.0], &[0.0, 1.0], "#123456"))
            .with_band(0.5, 0.5, "#d62728", "")
            .with_band(f64::NAN, 0.5, "#d62728", "")
            .render();
        assert_eq!(svg.matches("fill-opacity=\"0.18\"").count(), 0);
    }

    #[test]
    fn escapes_labels() {
        let svg = SvgPlot::new("a < b & c", "x", "y").render();
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn empty_plot_renders() {
        let svg = SvgPlot::new("empty", "x", "y").render();
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(format_tick(0.0), "0");
        assert_eq!(format_tick(0.5), "0.50");
        assert_eq!(format_tick(12345.0), "1.23e4");
        assert_eq!(format_tick(250.0), "250");
    }

    #[test]
    fn saves_to_disk() {
        let dir = std::env::temp_dir().join("plotkit_svg_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("p.svg");
        SvgPlot::new("t", "x", "y").save(&path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().starts_with("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
