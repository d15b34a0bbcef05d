//! Fluid trajectory simulation.
//!
//! Two simulators operate at different fidelities:
//!
//! * [`fluid_trajectory`] — event-located hybrid integration of the
//!   (linearised or nonlinear) switched system on the unbounded phase
//!   plane: the object of the paper's analysis.
//! * [`SaturatingFluid`] — the *physical* fluid model with the buffer
//!   walls enforced: the queue saturates at `0` and `B`, drops accumulate
//!   while the buffer is full, and the congestion measure uses the
//!   saturated queue derivative. This is what the dashed segments of the
//!   paper's Fig. 3 (curves l3/l4 pinned at the walls) correspond to, and
//!   it provides the drop/underflow ground truth for the criterion
//!   experiments.

use odesolve::hybrid::{integrate_hybrid, HybridSolution};
use odesolve::{Dopri5, Options, SolveError};
use telemetry::{ExtremumKind, Telemetry};

use crate::model::{BcnFluid, Linearity};
use crate::params::BcnParams;

/// Trajectory engine selector for [`fluid_trajectory`].
///
/// The linearised switched system is *solved* — every region flow has a
/// closed form (paper Eqs. 12–34) — so the default engine propagates legs
/// analytically via [`crate::propagate::analytic_trajectory`]. The DOPRI5
/// hybrid integrator remains available as the independent cross-check and
/// is used automatically whenever the analytic form does not apply (the
/// full nonlinear decrease law) or solver telemetry is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Closed-form leg propagation (linearised regions only; falls back
    /// to numeric integration for nonlinear systems or telemetry runs).
    #[default]
    Analytic,
    /// Event-located DOPRI5 hybrid integration.
    Dopri5,
}

/// Options for [`fluid_trajectory`].
#[derive(Debug, Clone, PartialEq)]
pub struct FluidOptions {
    /// Model-time horizon in seconds.
    pub t_end: f64,
    /// Integrator tolerance (numeric engine only).
    pub tol: f64,
    /// Maximum number of region switches before stopping.
    pub max_switches: usize,
    /// Optional dense recording interval.
    pub record_dt: Option<f64>,
    /// Trajectory engine (see [`Engine`] for the fallback rules).
    pub engine: Engine,
}

impl Default for FluidOptions {
    fn default() -> Self {
        Self {
            t_end: 1.0,
            tol: 1e-9,
            max_switches: 10_000,
            record_dt: None,
            engine: Engine::default(),
        }
    }
}

impl FluidOptions {
    /// Sets the time horizon.
    #[must_use]
    pub fn with_t_end(mut self, t_end: f64) -> Self {
        self.t_end = t_end;
        self
    }

    /// Sets the dense recording interval.
    #[must_use]
    pub fn with_record_dt(mut self, dt: f64) -> Self {
        self.record_dt = Some(dt);
        self
    }

    /// Selects the trajectory engine.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

/// Integrates the switched BCN system from `p0` (deviation coordinates)
/// with exact event location on the switching line.
///
/// # Errors
///
/// Propagates [`SolveError`] from the integrator.
pub fn fluid_trajectory(
    sys: &BcnFluid,
    p0: [f64; 2],
    opts: &FluidOptions,
) -> Result<HybridSolution<2>, SolveError> {
    fluid_trajectory_telemetry(sys, p0, opts, None)
}

/// Like [`fluid_trajectory`], recording solver telemetry (step sizes,
/// region switches, event-location iterations) plus queue occupancy
/// samples and queue extrema into `tel` when provided.
///
/// The fluid state is in deviation coordinates `x = q - q0`; queue
/// telemetry is reported in physical bits (`q0 + x`). Extrema are found
/// by scanning the recorded trajectory for sign changes of `y = dq/dt`,
/// so their resolution follows `opts.record_dt` (or the accepted solver
/// steps when dense recording is off).
///
/// # Errors
///
/// Propagates [`SolveError`] from the integrator.
pub fn fluid_trajectory_telemetry(
    sys: &BcnFluid,
    p0: [f64; 2],
    opts: &FluidOptions,
    mut tel: Option<&mut Telemetry>,
) -> Result<HybridSolution<2>, SolveError> {
    // The analytic engine applies only where the closed forms do: the
    // linearised model. Telemetry-instrumented runs stay numeric too —
    // solver telemetry (step sizes, event iterations) only exists there.
    let tel_enabled = tel.as_deref().is_some_and(Telemetry::enabled);
    if opts.engine == Engine::Analytic && sys.linearity() == Linearity::Linearized && !tel_enabled {
        return Ok(crate::propagate::analytic_trajectory(sys, p0, opts));
    }
    let mut stepper = Dopri5::with_tolerances(opts.tol, opts.tol);
    let mut o = Options::default();
    if let Some(dt) = opts.record_dt {
        o = o.with_record_dt(dt);
    }
    let out = integrate_hybrid(
        sys,
        0.0,
        p0,
        opts.t_end,
        opts.max_switches,
        &mut stepper,
        &o,
        tel.as_deref_mut(),
    )?;
    if let Some(tel) = tel {
        if tel.enabled() {
            record_queue_telemetry(sys, &out, tel);
        }
    }
    Ok(out)
}

/// Replays the recorded trajectory into queue-occupancy samples and
/// extremum events (sign changes of `y = dq/dt` between samples).
fn record_queue_telemetry(sys: &BcnFluid, out: &HybridSolution<2>, tel: &mut Telemetry) {
    let q0 = sys.params().q0;
    let times = out.solution.times();
    let states = out.solution.states();
    let mut prev: Option<(f64, [f64; 2])> = None;
    for (&t, &s) in times.iter().zip(states.iter()) {
        tel.queue_sample(t, q0 + s[0]);
        if let Some((tp, sp)) = prev {
            // A y sign change between samples brackets dq/dt = 0: a queue
            // extremum. Locate it by linear interpolation of y.
            if sp[1] > 0.0 && s[1] <= 0.0 || sp[1] < 0.0 && s[1] >= 0.0 {
                let frac = if s[1] == sp[1] { 0.0 } else { sp[1] / (sp[1] - s[1]) };
                let te = tp + frac * (t - tp);
                let xe = sp[0] + frac * (s[0] - sp[0]);
                let kind = if sp[1] > 0.0 { ExtremumKind::Max } else { ExtremumKind::Min };
                tel.queue_extremum(te, q0 + xe, kind);
            }
        }
        prev = Some((t, s));
    }
}

/// Result of a saturating (physical) fluid run.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturatingRun {
    /// Sample times (seconds).
    pub times: Vec<f64>,
    /// Queue lengths `q(t)` in bits (clamped to `[0, B]`).
    pub queue: Vec<f64>,
    /// Aggregate source rate `N r(t)` in bit/s.
    pub rate: Vec<f64>,
    /// Total bits dropped at the full buffer.
    pub dropped_bits: f64,
    /// Total bits of service lost to an empty queue with the aggregate
    /// rate below capacity (link underutilisation).
    pub idle_bits: f64,
    /// Largest queue observed (bits).
    pub max_queue: f64,
    /// Smallest queue observed after the first buffer departure (bits).
    pub min_queue_after_start: f64,
}

impl SaturatingRun {
    /// Whether any packets (bits) were dropped.
    #[must_use]
    pub fn has_drops(&self) -> bool {
        self.dropped_bits > 0.0
    }
}

/// The physical fluid model: queue clamped to `[0, B]` with drop and
/// idle-time accounting (forward-Euler with saturation; the clamped
/// dynamics are non-smooth, so a small fixed step is the robust choice).
#[derive(Debug, Clone, PartialEq)]
pub struct SaturatingFluid {
    params: BcnParams,
    linearity: Linearity,
}

impl SaturatingFluid {
    /// Builds the physical model with the full nonlinear decrease law.
    #[must_use]
    pub fn new(params: BcnParams) -> Self {
        Self { params, linearity: Linearity::FullNonlinear }
    }

    /// Uses the linearised decrease law instead.
    #[must_use]
    pub fn linearized(params: BcnParams) -> Self {
        Self { params, linearity: Linearity::Linearized }
    }

    /// The parameter set.
    #[must_use]
    pub fn params(&self) -> &BcnParams {
        &self.params
    }

    /// Runs the model from physical state `(q0_bits, aggregate_rate)` for
    /// `t_end` seconds with fixed step `dt`, recording every
    /// `record_every`-th sample.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `t_end` are non-positive, or `record_every` is 0.
    #[must_use]
    pub fn run(
        &self,
        q_init: f64,
        rate_init: f64,
        t_end: f64,
        dt: f64,
        record_every: usize,
    ) -> SaturatingRun {
        assert!(dt > 0.0 && t_end > 0.0, "time step and horizon must be positive");
        assert!(record_every > 0, "record_every must be at least 1");
        let p = &self.params;
        let b_total = p.buffer;
        let cap = p.capacity;
        let k = p.k();
        let n_steps = (t_end / dt).ceil() as usize;

        let mut q = q_init.clamp(0.0, b_total);
        let mut rate = rate_init.max(0.0);
        let mut dropped = 0.0;
        let mut idle = 0.0;
        let mut max_q = q;
        let mut min_q_after = f64::INFINITY;
        let mut started = q > 0.0;

        let mut times = Vec::with_capacity(n_steps / record_every + 2);
        let mut queue = Vec::with_capacity(times.capacity());
        let mut rates = Vec::with_capacity(times.capacity());
        times.push(0.0);
        queue.push(q);
        rates.push(rate);

        for step in 1..=n_steps {
            // Unclamped queue drift and its saturated (physical) version.
            let drift = rate - cap;
            let q_dot = if (q <= 0.0 && drift < 0.0) || (q >= b_total && drift > 0.0) {
                0.0
            } else {
                drift
            };
            // Congestion measure from the *observed* queue dynamics.
            let sigma = (p.q0 - q) - k * q_dot;
            // Rate law (Eq. 7), scaled to the aggregate rate R = N r:
            // dR/dt = a sigma (increase) or b sigma R (decrease).
            let rate_dot = if sigma > 0.0 {
                p.a() * sigma
            } else {
                p.b()
                    * sigma
                    * match self.linearity {
                        Linearity::FullNonlinear => rate,
                        Linearity::Linearized => cap,
                    }
            };

            // Accounting.
            if q >= b_total && drift > 0.0 {
                dropped += drift * dt;
            }
            if q <= 0.0 && drift < 0.0 {
                idle += -drift * dt;
            }

            q = (q + q_dot * dt).clamp(0.0, b_total);
            rate = (rate + rate_dot * dt).max(0.0);
            if q > 0.0 {
                started = true;
            }
            max_q = max_q.max(q);
            if started {
                min_q_after = min_q_after.min(q);
            }
            if step % record_every == 0 || step == n_steps {
                times.push(step as f64 * dt);
                queue.push(q);
                rates.push(rate);
            }
        }

        SaturatingRun {
            times,
            queue,
            rate: rates,
            dropped_bits: dropped,
            idle_bits: idle,
            max_queue: max_q,
            min_queue_after_start: if min_q_after.is_finite() { min_q_after } else { q },
        }
    }

    /// Runs from the canonical start (empty queue, aggregate rate at
    /// capacity) with a step automatically chosen well below the fastest
    /// region's rotation period.
    #[must_use]
    pub fn run_canonical(&self, t_end: f64) -> SaturatingRun {
        let p = &self.params;
        let beta_fast = (p.a().max(p.b() * p.capacity)).sqrt();
        let dt = (0.002 / beta_fast).min(t_end / 1000.0);
        let record_every = ((t_end / dt / 4000.0).ceil() as usize).max(1);
        self.run(0.0, p.capacity, t_end, dt, record_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability;

    fn params() -> BcnParams {
        BcnParams::test_defaults()
    }

    #[test]
    fn hybrid_trajectory_converges_towards_equilibrium() {
        let p = params();
        let sys = BcnFluid::linearized(p.clone());
        let opts = FluidOptions::default().with_t_end(60.0);
        let out = fluid_trajectory(&sys, p.initial_point(), &opts).unwrap();
        let end = out.solution.last_state();
        let start_amp = p.q0;
        assert!(
            end[0].abs() < 0.6 * start_amp,
            "no contraction: {end:?} from amplitude {start_amp}"
        );
        assert!(out.switch_count() > 4, "switches {}", out.switch_count());
    }

    #[test]
    fn hybrid_extrema_match_round_analysis() {
        // The ODE-integrated maximum queue must agree with the exact
        // closed-form first-round maximum. Engine pinned to DOPRI5: this
        // test is the numeric-vs-closed-form cross-check.
        let p = params();
        let sys = BcnFluid::linearized(p.clone());
        let fr = crate::rounds::first_round(&p).unwrap();
        let opts = FluidOptions {
            t_end: 10.0,
            tol: 1e-11,
            max_switches: 100,
            record_dt: Some(1e-3),
            engine: Engine::Dopri5,
        };
        let out = fluid_trajectory(&sys, p.initial_point(), &opts).unwrap();
        let max_x = out.solution.max_component(0);
        assert!(
            (max_x - fr.max1_x).abs() < 1e-4 * fr.max1_x.abs(),
            "integrated {max_x} vs closed form {}",
            fr.max1_x
        );
    }

    #[test]
    fn analytic_engine_matches_numeric_trajectory() {
        // Engine::Analytic (the default) must reproduce the DOPRI5 hybrid
        // path: same switch sequence, endpoints to integrator tolerance,
        // and the exact first-round maximum.
        let p = params();
        let sys = BcnFluid::linearized(p.clone());
        let base = FluidOptions {
            t_end: 0.5,
            tol: 1e-11,
            max_switches: 100,
            record_dt: Some(1e-3),
            engine: Engine::Analytic,
        };
        let ana = fluid_trajectory(&sys, p.initial_point(), &base).unwrap();
        let num =
            fluid_trajectory(&sys, p.initial_point(), &base.clone().with_engine(Engine::Dopri5))
                .unwrap();
        assert_eq!(ana.switch_count(), num.switch_count(), "switch sequences differ");
        for (a, n) in ana.intervals.iter().zip(num.intervals.iter()) {
            assert_eq!(a.mode, n.mode);
            assert!(
                (a.t_end - n.t_end).abs() < 1e-7 * base.t_end,
                "switch time {} vs {}",
                a.t_end,
                n.t_end
            );
        }
        let (za, zn) = (ana.solution.last_state(), num.solution.last_state());
        for i in 0..2 {
            let scale = if i == 0 { p.q0 } else { p.capacity };
            assert!(
                (za[i] - zn[i]).abs() < 1e-6 * scale,
                "endpoint component {i}: analytic {} vs numeric {}",
                za[i],
                zn[i]
            );
        }
        let fr = crate::rounds::first_round(&p).unwrap();
        let max_a = ana.solution.max_component(0);
        assert!(
            (max_a - fr.max1_x).abs() < 1e-9 * fr.max1_x.abs(),
            "analytic max {max_a} should be exact vs {}",
            fr.max1_x
        );
    }

    #[test]
    fn analytic_engine_falls_back_for_nonlinear_systems() {
        // The nonlinear decrease law has no closed form: the selector must
        // hand the run to DOPRI5, which still integrates successfully.
        let p = params();
        let sys = BcnFluid::new(p.clone());
        let out = fluid_trajectory(&sys, p.initial_point(), &FluidOptions::default()).unwrap();
        assert!(out.switch_count() > 0);
        assert!(out.solution.last_time() >= 1.0 - 1e-12);
    }

    #[test]
    fn saturating_run_with_roomy_buffer_has_no_drops() {
        let p = params().with_buffer(3.0e5); // far above the overshoot
        let run = SaturatingFluid::new(p).run_canonical(4.0);
        assert!(!run.has_drops(), "dropped {}", run.dropped_bits);
        assert!(run.max_queue < 3.0e5);
    }

    #[test]
    fn saturating_run_with_tight_buffer_drops() {
        // Shrink the buffer below the known overshoot: drops must appear.
        let p = params();
        let fr = crate::rounds::first_round(&p).unwrap();
        let tight = p.clone().with_buffer(p.q0 + 0.5 * fr.max1_x);
        let run = SaturatingFluid::linearized(tight).run_canonical(4.0);
        assert!(run.has_drops(), "expected drops, run max {}", run.max_queue);
    }

    #[test]
    fn saturating_queue_stays_physical() {
        let p = params();
        let run = SaturatingFluid::new(p.clone()).run_canonical(2.0);
        for &q in &run.queue {
            assert!((0.0..=p.buffer).contains(&q), "q = {q}");
        }
        for &r in &run.rate {
            assert!(r >= 0.0);
        }
    }

    #[test]
    fn saturating_max_queue_tracks_exact_analysis() {
        // With a large buffer the saturating model never clamps, so its
        // max queue approximates the unbounded analysis.
        let p = params().with_buffer(1.0e6);
        let exact = stability::exact_verdict(&p, 10);
        let run = SaturatingFluid::linearized(p.clone()).run_canonical(3.0);
        let expected = p.q0 + exact.max_x;
        assert!(
            (run.max_queue - expected).abs() < 0.03 * expected,
            "saturating {} vs exact {expected}",
            run.max_queue
        );
    }

    #[test]
    fn drop_accounting_is_consistent() {
        // Everything the sources pour in above capacity while the buffer
        // is pinned must show up as drops; a sanity lower bound.
        let p = params().with_buffer(p_tight());
        let run = SaturatingFluid::new(p).run_canonical(2.0);
        if run.has_drops() {
            assert!(run.dropped_bits > 0.0);
            assert!(run.dropped_bits < 2.0 * 1.0e6 * 2.0, "absurd drop volume");
        }
    }

    fn p_tight() -> f64 {
        let p = params();
        let fr = crate::rounds::first_round(&p).unwrap();
        p.q0 + 0.3 * fr.max1_x
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_step() {
        let p = params();
        let _ = SaturatingFluid::new(p).run(0.0, 1.0, -1.0, 1e-3, 1);
    }
}
