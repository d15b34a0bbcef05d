//! BCN feedback-channel degradation — the empirical strong-stability
//! frontier vs the Theorem 1 prediction.
//!
//! Theorem 1 sizes the buffer for the *fault-free* loop: strong
//! stability is guaranteed when `(1 + sqrt(Ru Gi N / (Gd C))) q0 < B`.
//! The theorem says nothing about a lossy or slow feedback channel, and
//! a BCN deployment's congestion notifications cross the same fabric
//! they are trying to protect. This sweep provisions the buffer with a
//! modest margin over the Theorem 1 bound, then degrades the feedback
//! path with the fault layer (message loss x extra delay) and replays
//! the convergence transient at every grid point. The artifact is the
//! empirical frontier: how much feedback loss the provisioned margin
//! absorbs before the transient overshoot breaches the buffer — i.e.
//! points where Theorem 1 *holds* on paper yet the degraded loop
//! violates strong stability in practice.

use std::path::{Path, PathBuf};

use bcn::stability::{theorem1_holds, theorem1_required_buffer};
use dcesim::faults::FaultConfig;
use dcesim::sim::{fluid_validation_params, SimConfig, Simulation};
use dcesim::time::Duration;
use plotkit::svg::COLOR_CYCLE;
use plotkit::{Csv, Series, SvgPlot, Table};
use telemetry::Scalar;

use crate::common::{banner, grid_digest, out_dir, quick, save_plot, GridCheckpoint};
use crate::ExpResult;

/// One grid point of the degradation sweep.
#[derive(Debug, Clone)]
struct Point {
    loss: f64,
    delay_us: f64,
    max_queue: f64,
    drops: u64,
    pauses: u64,
    feedback: u64,
    stable: bool,
}

/// The deterministic seed for every fault plan in the sweep: the grid
/// varies rates, not noise realisations.
const FAULT_SEED: u64 = 42;

/// Runs the experiment; artifacts land under `out`. Checkpoints the
/// grid under `$DCE_BCN_CHECKPOINT_DIR` when set (see
/// [`run_with_checkpoint`]).
///
/// # Errors
///
/// Propagates I/O failures, configuration rejections, and — by design —
/// fails if the sweep cannot exhibit a point where Theorem 1 holds yet
/// the degraded loop is empirically unstable (that counterexample is
/// the experiment's reason to exist).
pub fn run(out: &Path) -> ExpResult {
    let ckpt_dir = std::env::var_os("DCE_BCN_CHECKPOINT_DIR").map(PathBuf::from);
    run_with_checkpoint(out, ckpt_dir.as_deref())
}

/// [`run`] with an explicit checkpoint directory: every completed grid
/// point is journalled durably, an interrupted campaign resumes from
/// the journal, and the resumed run's artifacts are byte-identical to
/// an uninterrupted one.
///
/// # Errors
///
/// See [`run`]; additionally fails when an existing journal was
/// recorded under a different grid.
pub fn run_with_checkpoint(out: &Path, ckpt_dir: Option<&Path>) -> ExpResult {
    banner("feedback-channel degradation vs Theorem 1 (fault-injection sweep)");

    // Provision the buffer 5% above the Theorem 1 requirement: enough
    // for the fault-free transient (verified by the loss=0 row), tight
    // enough that a degraded feedback path eats the margin.
    let required = theorem1_required_buffer(&fluid_validation_params());
    let buffer = 1.05 * required;
    let params = fluid_validation_params().with_buffer(buffer).with_qsc(0.96 * buffer);
    assert!(theorem1_holds(&params), "the base point must satisfy Theorem 1");

    // The delay axis is millisecond-scale on purpose: the loop period is
    // ~26 ms and the delay ablation shows sub-period feedback lag is
    // what erodes the phase margin. Loss compounds it by thinning the
    // notifications that remain. Quick mode keeps the two ends of the
    // loss axis and a shorter horizon; the counterexample stays
    // reachable.
    let (t_end, losses, delays_us): (f64, Vec<f64>, Vec<f64>) = if quick() {
        (0.15, vec![0.0, 0.2], vec![0.0, 2000.0])
    } else {
        (0.3, vec![0.0, 0.05, 0.1, 0.2, 0.35, 0.5], vec![0.0, 1000.0, 1500.0, 2000.0])
    };

    let mut table = Table::new(&[
        "loss",
        "extra delay (us)",
        "max q / B",
        "drops",
        "PAUSE",
        "feedback msgs",
        "strongly stable",
    ]);
    let mut csv = Csv::new(&["loss", "delay_us", "max_queue_bits", "drops", "pauses", "stable"]);
    let mut points: Vec<Point> = Vec::new();

    // The campaign digest pins everything that shapes a grid point's
    // outcome; a journal recorded under any other grid is refused.
    let mut digest_nums = vec![buffer, params.qsc, t_end, FAULT_SEED as f64];
    digest_nums.extend_from_slice(&losses);
    digest_nums.extend_from_slice(&delays_us);
    let mut ckpt = match ckpt_dir {
        Some(dir) => {
            Some(GridCheckpoint::open_in(dir, "feedback_degradation", grid_digest(&digest_nums))?)
        }
        None => None,
    };
    if let Some(c) = &ckpt {
        if c.restored_len() > 0 {
            println!(
                "checkpoint: restored {} of {} grid points",
                c.restored_len(),
                losses.len() * delays_us.len()
            );
        }
    }

    for &delay_us in &delays_us {
        for &loss in &losses {
            let key = format!("loss={loss},delay_us={delay_us}");
            let point = if let Some(fields) = ckpt.as_ref().and_then(|c| c.restored(&key)) {
                let get = |k: &str| {
                    telemetry::field(fields, k)
                        .map_err(|_| format!("checkpoint point `{key}` lacks field `{k}`"))
                };
                Point {
                    loss,
                    delay_us,
                    max_queue: get("max_queue")?.as_f64("max_queue")?,
                    drops: get("drops")?.as_u64("drops")?,
                    pauses: get("pauses")?.as_u64("pauses")?,
                    feedback: get("feedback")?.as_u64("feedback")?,
                    stable: get("stable")?.as_bool("stable")?,
                }
            } else {
                let mut cfg =
                    SimConfig::from_fluid(&params, 8_000.0, Duration::from_secs(2e-6), t_end);
                if loss > 0.0 || delay_us > 0.0 {
                    cfg.faults = FaultConfig {
                        seed: FAULT_SEED,
                        feedback_loss: loss,
                        feedback_extra_delay: Duration::from_secs(delay_us * 1e-6),
                        ..FaultConfig::none()
                    };
                }
                cfg.validate()?;
                let report = Simulation::new(cfg).run();
                let m = &report.metrics;
                let max_queue = m.queue.values().iter().copied().fold(0.0f64, f64::max);
                // The paper's strong stability, observed empirically:
                // the transient never fills the buffer (no drops), never
                // trips the PAUSE escape hatch, and the recorded peak
                // stays below B.
                let stable = m.dropped_frames == 0 && m.pause_events == 0 && max_queue < buffer;
                let p = Point {
                    loss,
                    delay_us,
                    max_queue,
                    drops: m.dropped_frames,
                    pauses: m.pause_events,
                    feedback: m.feedback_messages,
                    stable,
                };
                if let Some(c) = ckpt.as_mut() {
                    #[allow(clippy::cast_precision_loss)]
                    c.record(
                        &key,
                        &[
                            ("max_queue", Scalar::Num(p.max_queue)),
                            ("drops", Scalar::Num(p.drops as f64)),
                            ("pauses", Scalar::Num(p.pauses as f64)),
                            ("feedback", Scalar::Num(p.feedback as f64)),
                            ("stable", Scalar::Bool(p.stable)),
                        ],
                    )?;
                }
                p
            };
            table.row(&[
                format!("{loss:.2}"),
                format!("{delay_us:.0}"),
                format!("{:.3}", point.max_queue / buffer),
                point.drops.to_string(),
                point.pauses.to_string(),
                point.feedback.to_string(),
                if point.stable { "yes".into() } else { "NO".into() },
            ]);
            #[allow(clippy::cast_precision_loss)]
            csv.row(&[
                loss,
                delay_us,
                point.max_queue,
                point.drops as f64,
                point.pauses as f64,
                f64::from(u8::from(point.stable)),
            ]);
            points.push(point);
        }
    }
    print!("{table}");

    // The empirical frontier: per delay column, the smallest loss rate
    // that breaks strong stability (if any within the sweep).
    for &delay_us in &delays_us {
        let first_unstable = points
            .iter()
            .filter(|p| (p.delay_us - delay_us).abs() < f64::EPSILON && !p.stable)
            .map(|p| p.loss)
            .fold(f64::INFINITY, f64::min);
        if first_unstable.is_finite() {
            println!(
                "extra delay {delay_us:>4.0} us: strong stability lost at feedback loss >= \
                 {first_unstable:.2}"
            );
        } else {
            println!("extra delay {delay_us:>4.0} us: stable across the whole loss axis");
        }
    }

    // The headline: Theorem 1 holds for these parameters (it models a
    // perfect feedback channel), yet a lossy channel violates strong
    // stability. The fault-free row must stay stable or the margin —
    // not the degradation — would be the story.
    let baseline_stable =
        points.iter().filter(|p| p.loss == 0.0 && p.delay_us == 0.0).all(|p| p.stable);
    let counterexample = points.iter().find(|p| p.loss >= 0.2 && !p.stable).cloned();
    if !baseline_stable {
        return Err("fault-free baseline is not strongly stable; widen the buffer margin".into());
    }
    let Some(ce) = counterexample else {
        return Err("no grid point with loss >= 0.2 violates strong stability; the sweep \
             failed to demonstrate the Theorem 1 gap"
            .into());
    };
    println!(
        "counterexample: loss={:.2}, extra delay={:.0} us -> max q = {:.2} B with {} drops, \
         {} PAUSE events, although Theorem 1 predicts strong stability",
        ce.loss,
        ce.delay_us,
        ce.max_queue / buffer,
        ce.drops,
        ce.pauses
    );

    csv.save(out.join("exp_feedback_degradation.csv"))?;
    println!("wrote {}", out.join("exp_feedback_degradation.csv").display());

    let mut plot = SvgPlot::new(
        "Transient peak queue vs feedback loss (Theorem 1 margin = 1.05)",
        "feedback loss probability",
        "max queue / buffer",
    );
    for (i, &delay_us) in delays_us.iter().enumerate() {
        let xs: Vec<f64> = points
            .iter()
            .filter(|p| (p.delay_us - delay_us).abs() < f64::EPSILON)
            .map(|p| p.loss)
            .collect();
        let ys: Vec<f64> = points
            .iter()
            .filter(|p| (p.delay_us - delay_us).abs() < f64::EPSILON)
            .map(|p| p.max_queue / buffer)
            .collect();
        plot = plot.with_series(Series::line(
            &format!("+{delay_us:.0} us feedback delay"),
            &xs,
            &ys,
            COLOR_CYCLE[i % COLOR_CYCLE.len()],
        ));
    }
    save_plot(&plot, out, "exp_feedback_degradation.svg")?;

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"loss\": {:.2}, \"delay_us\": {:.0}, \"max_queue_bits\": {:.1}, \
                 \"drops\": {}, \"pauses\": {}, \"feedback_messages\": {}, \"stable\": {}}}",
                p.loss, p.delay_us, p.max_queue, p.drops, p.pauses, p.feedback, p.stable
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"theorem1_required_buffer_bits\": {required:.1},\n  \
         \"buffer_bits\": {buffer:.1},\n  \"theorem1_holds\": {},\n  \
         \"fault_seed\": {FAULT_SEED},\n  \"t_end_secs\": {t_end},\n  \
         \"quick_mode\": {},\n  \"grid\": [\n    {}\n  ],\n  \
         \"counterexample\": {{\"loss\": {:.2}, \"delay_us\": {:.0}, \
         \"max_queue_bits\": {:.1}, \"drops\": {}, \"pauses\": {}}}\n}}\n",
        theorem1_holds(&params),
        quick(),
        rows.join(",\n    "),
        ce.loss,
        ce.delay_us,
        ce.max_queue,
        ce.drops,
        ce.pauses
    );
    let json_path = out.join("feedback_degradation.json");
    std::fs::write(&json_path, json)?;
    println!("wrote {}", json_path.display());
    Ok(())
}

/// Runs with the default output directory.
///
/// # Errors
///
/// See [`run`].
pub fn main() -> ExpResult {
    run(&out_dir())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_runs_and_demonstrates_the_gap() {
        // The quick grid exercises the same code path and the same
        // acceptance gate (the counterexample must exist) in CI time.
        std::env::set_var("DCE_BCN_QUICK", "1");
        let dir = std::env::temp_dir().join("feedback_degradation_test");
        let _ = std::fs::remove_dir_all(&dir);
        run(&dir).unwrap();
        let json = std::fs::read_to_string(dir.join("feedback_degradation.json")).unwrap();
        assert!(json.contains("\"counterexample\""));
        assert!(json.contains("\"theorem1_holds\": true"));
        assert!(dir.join("exp_feedback_degradation.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_campaign_resumes_to_byte_identical_artifacts() {
        std::env::set_var("DCE_BCN_QUICK", "1");
        let root = std::env::temp_dir()
            .join(format!("feedback_degradation_resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let clean_out = root.join("clean");
        let resumed_out = root.join("resumed");
        let ckpt = root.join("ckpt");

        run(&clean_out).unwrap();

        // Populate the journal, then chop its tail — the torn record a
        // SIGKILL mid-append would leave behind.
        run_with_checkpoint(&root.join("first"), Some(&ckpt)).unwrap();
        let journal = ckpt.join("feedback_degradation.ckpt.jsonl");
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(text.lines().count(), 2 + 4, "header + digest + 4 quick-grid points");
        let keep: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&journal, format!("{}\n{{\"type\":\"grid_point\",\"key", keep.join("\n")))
            .unwrap();

        // The resumed campaign re-runs only the lost points and must
        // reproduce the uncheckpointed artifacts byte-for-byte.
        run_with_checkpoint(&resumed_out, Some(&ckpt)).unwrap();
        for artifact in ["exp_feedback_degradation.csv", "feedback_degradation.json"] {
            assert_eq!(
                std::fs::read_to_string(clean_out.join(artifact)).unwrap(),
                std::fs::read_to_string(resumed_out.join(artifact)).unwrap(),
                "{artifact} diverged after resume"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
