//! Shared helpers for the experiment binaries.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bcn::simulate::{fluid_trajectory, FluidOptions};
use bcn::{BcnFluid, BcnParams};
use plotkit::{Series, SvgPlot};
use telemetry::{field, fmt_num, parse_scalars, Scalar};

/// Where artifacts go: `$DCE_BCN_RESULTS` or `./results`.
#[must_use]
pub fn out_dir() -> PathBuf {
    std::env::var_os("DCE_BCN_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// CI smoke mode: `DCE_BCN_QUICK` is set. Benches shrink their
/// workloads and skip their speedup gates; experiments shrink their
/// grids.
#[must_use]
pub fn quick() -> bool {
    std::env::var_os("DCE_BCN_QUICK").is_some()
}

/// A positive integer from the environment variable `key`, or
/// `default` when it is unset, unparsable, or zero.
#[must_use]
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

/// Best-of-`reps` wall time (s) of `run`, fed a fresh `setup()` value
/// each repetition, plus the last repetition's output. Only `run` is on
/// the clock: building its input and dropping its output are not.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn best_of<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> (f64, T) {
    assert!(reps > 0, "best_of needs at least one repetition");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let input = setup();
        let t0 = Instant::now();
        let out = black_box(run(input));
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one repetition ran"))
}

/// A traced trajectory decomposed into plottable series.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    /// Times (s).
    pub ts: Vec<f64>,
    /// Queue deviation `x = q - q0` (bits).
    pub xs: Vec<f64>,
    /// Rate deviation `y = N r - C` (bit/s).
    pub ys: Vec<f64>,
    /// Number of region switches.
    pub switches: usize,
}

/// Integrates the switched fluid system and returns plottable arrays.
///
/// # Panics
///
/// Panics if the integration fails (experiment configurations are fixed
/// and known-good; a failure is a bug worth crashing on).
#[must_use]
pub fn trace(sys: &BcnFluid, p0: [f64; 2], t_end: f64, samples: usize) -> Traced {
    let opts = FluidOptions::default().with_t_end(t_end).with_record_dt(t_end / samples as f64);
    let sol = fluid_trajectory(sys, p0, &opts).expect("fluid integration");
    Traced {
        ts: sol.solution.times().to_vec(),
        xs: sol.solution.component(0),
        ys: sol.solution.component(1),
        switches: sol.switch_count(),
    }
}

/// Builds the standard phase-plane plot: trajectory series plus the
/// switching line `x + k y = 0` and the buffer walls `x = -q0`,
/// `x = B - q0`.
#[must_use]
pub fn phase_plot(title: &str, params: &BcnParams, series: Vec<Series>) -> SvgPlot {
    let mut plot = SvgPlot::new(title, "x = q - q0 (bits)", "y = N r - C (bit/s)");
    // The switching line across the y-range of the first series.
    let k = params.k();
    if let Some(s) = series.first() {
        let y_lo = s.ys.iter().copied().fold(f64::INFINITY, f64::min);
        let y_hi = s.ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if y_lo.is_finite() {
            let line =
                Series::line("switching line", &[-k * y_lo, -k * y_hi], &[y_lo, y_hi], "#999999");
            plot = plot.with_series(line);
        }
    }
    for s in series {
        plot = plot.with_series(s);
    }
    plot.with_vline(-params.q0, "#d62728").with_vline(params.buffer - params.q0, "#d62728")
}

/// Prints a section banner for the console output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Folds `nums` into a 53-bit campaign digest (splitmix64 over the f64
/// bit patterns, masked so the value survives the flat-JSONL f64
/// funnel). Grid campaigns stamp their checkpoint with it so a resumed
/// sweep refuses points recorded under a different grid.
#[must_use]
pub fn grid_digest(nums: &[f64]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for v in nums {
        let mut z = (h ^ v.to_bits()).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = z ^ (z >> 31);
    }
    h & ((1 << 53) - 1)
}

/// Crash-recoverable grid campaigns: an append-only flat-JSONL journal
/// of completed grid points.
///
/// A sweep opens the journal up front, skips every point the journal
/// already holds, and appends each freshly computed point with a
/// `sync_data` barrier — so a SIGKILL anywhere in the campaign loses at
/// most the in-flight point, and the next run resumes where it died
/// while producing byte-identical artifacts. A torn tail line (the
/// record the crash interrupted) fails to parse and is simply re-run.
///
/// The experiment binaries activate this when `DCE_BCN_CHECKPOINT_DIR`
/// is set; the file is `<campaign>.ckpt.jsonl` in that directory.
#[derive(Debug)]
pub struct GridCheckpoint {
    file: std::fs::File,
    restored: BTreeMap<String, Vec<(String, Scalar)>>,
}

impl GridCheckpoint {
    /// Opens (creating if needed) `<dir>/<campaign>.ckpt.jsonl`.
    ///
    /// An existing journal must carry the same schema header and grid
    /// `digest`; its completed points load into memory for
    /// [`GridCheckpoint::restored`]. A fresh journal is stamped with
    /// both before any point lands.
    ///
    /// # Errors
    ///
    /// I/O failures, a stale schema header, or a digest mismatch (the
    /// grid changed under the checkpoint — clear the directory).
    pub fn open_in(dir: &Path, campaign: &str, digest: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{campaign}.ckpt.jsonl"));
        let existing = std::fs::read_to_string(&path).ok().filter(|t| !t.is_empty());
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        let mut restored = BTreeMap::new();
        match existing {
            Some(text) => {
                let mut lines = text.lines();
                if lines.next().is_none_or(|l| telemetry::check_schema_header(l).is_err()) {
                    return Err(std::io::Error::other(format!(
                        "{}: missing or stale schema header",
                        path.display()
                    )));
                }
                let found = lines
                    .next()
                    .and_then(|l| parse_scalars(l).ok())
                    .and_then(|f| field(&f, "digest").ok().cloned())
                    .and_then(|s| s.as_u64("digest").ok());
                if found != Some(digest) {
                    return Err(std::io::Error::other(format!(
                        "{}: grid digest mismatch (expected {digest}, found {found:?}); \
                         the campaign changed — use a fresh checkpoint directory",
                        path.display()
                    )));
                }
                for line in lines {
                    // A torn tail line is the point the crash caught
                    // mid-write: skip it and it re-runs.
                    let Ok(fields) = parse_scalars(line) else { continue };
                    let Some(key) = field(&fields, "key").ok().and_then(|s| s.as_str("key").ok())
                    else {
                        continue;
                    };
                    restored.insert(key.to_string(), fields.clone());
                }
            }
            None => {
                writeln!(file, "{}", telemetry::schema_header())?;
                writeln!(file, "{{\"type\":\"campaign\",\"digest\":{digest}}}")?;
                file.sync_data()?;
            }
        }
        Ok(Self { file, restored })
    }

    /// The recorded fields for `key`, when that point already completed.
    #[must_use]
    pub fn restored(&self, key: &str) -> Option<&[(String, Scalar)]> {
        self.restored.get(key).map(Vec::as_slice)
    }

    /// How many completed points the journal restored.
    #[must_use]
    pub fn restored_len(&self) -> usize {
        self.restored.len()
    }

    /// Durably appends a completed grid point (one flat-JSONL line,
    /// `sync_data` before returning). `key` must be quote-free; numbers
    /// are written with the shortest-round-trip formatter so restored
    /// points reproduce artifacts bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn record(&mut self, key: &str, fields: &[(&str, Scalar)]) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut line = format!("{{\"type\":\"grid_point\",\"key\":\"{key}\"");
        for (k, v) in fields {
            match v {
                Scalar::Num(x) => {
                    let _ = write!(line, ",\"{k}\":{}", fmt_num(*x));
                }
                Scalar::Str(s) => {
                    let _ = write!(line, ",\"{k}\":\"{s}\"");
                }
                Scalar::Bool(b) => {
                    let _ = write!(line, ",\"{k}\":{b}");
                }
            }
        }
        line.push('}');
        writeln!(self.file, "{line}")?;
        self.file.sync_data()
    }
}

/// Saves an SVG plot and reports the path.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_plot(plot: &SvgPlot, out: &Path, name: &str) -> std::io::Result<()> {
    let path = out.join(name);
    plot.save(&path)?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_defaults_to_results() {
        if std::env::var_os("DCE_BCN_RESULTS").is_none() {
            assert_eq!(out_dir(), PathBuf::from("results"));
        }
    }

    #[test]
    fn best_of_feeds_each_repetition_a_fresh_setup() {
        let mut setups = 0;
        let (secs, last) = best_of(
            3,
            || {
                setups += 1;
                setups
            },
            |n| n * 10,
        );
        assert_eq!((setups, last), (3, 30));
        assert!(secs.is_finite() && secs >= 0.0);
    }

    #[test]
    fn trace_produces_matching_lengths() {
        let params = BcnParams::test_defaults();
        let sys = BcnFluid::linearized(params.clone());
        let tr = trace(&sys, params.initial_point(), 0.5, 100);
        assert_eq!(tr.ts.len(), tr.xs.len());
        assert_eq!(tr.ts.len(), tr.ys.len());
        assert!(tr.ts.len() >= 100);
    }

    #[test]
    fn grid_checkpoint_restores_recorded_points_and_rejects_other_grids() {
        let dir = std::env::temp_dir().join(format!("bench_grid_ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let digest = grid_digest(&[1.0, 2.5]);

        let mut ck = GridCheckpoint::open_in(&dir, "demo", digest).unwrap();
        assert_eq!(ck.restored_len(), 0);
        ck.record(
            "loss=0.2",
            &[("max_queue", Scalar::Num(1.25e6)), ("stable", Scalar::Bool(false))],
        )
        .unwrap();
        drop(ck);

        let ck = GridCheckpoint::open_in(&dir, "demo", digest).unwrap();
        assert_eq!(ck.restored_len(), 1);
        let fields = ck.restored("loss=0.2").unwrap();
        let mq = field(fields, "max_queue").unwrap();
        assert_eq!(mq.as_f64("max_queue").unwrap().to_bits(), 1.25e6_f64.to_bits());
        assert!(!field(fields, "stable").unwrap().as_bool("stable").unwrap());
        assert!(ck.restored("loss=0.5").is_none());
        drop(ck);

        // A torn tail line (crash mid-append) only loses that point.
        let path = dir.join("demo.ckpt.jsonl");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"grid_point\",\"key\":\"loss=0.5\",\"max_q");
        std::fs::write(&path, &text).unwrap();
        let ck = GridCheckpoint::open_in(&dir, "demo", digest).unwrap();
        assert_eq!(ck.restored_len(), 1);
        drop(ck);

        // A different grid refuses the journal outright.
        assert!(GridCheckpoint::open_in(&dir, "demo", digest ^ 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_digest_separates_grids_and_fits_53_bits() {
        let a = grid_digest(&[0.0, 0.05, 0.1]);
        let b = grid_digest(&[0.0, 0.05, 0.2]);
        assert_ne!(a, b);
        assert_eq!(a, grid_digest(&[0.0, 0.05, 0.1]));
        assert!(a < (1 << 53) && b < (1 << 53));
    }

    #[test]
    fn phase_plot_renders_with_walls() {
        let params = BcnParams::test_defaults();
        let s = Series::line("t", &[0.0, 1.0], &[0.0, 1.0], "#000000");
        let svg = phase_plot("demo", &params, vec![s]).render();
        assert!(svg.contains("switching line"));
        assert!(svg.contains("stroke-dasharray"));
    }
}
