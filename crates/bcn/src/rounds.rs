//! Round-by-round switching analysis of the linearised BCN system
//! (paper Section IV-C, Figs. 6–10).
//!
//! A *leg* is one maximal sojourn in a control region, ending at the
//! switching line `x + k y = 0`; a *round* is an increase leg followed by a
//! decrease leg. Because both linearised region flows are homogeneous of
//! degree one, the amplitude ratio between consecutive rounds — the
//! **round ratio** `rho` — is a parameter-only constant: `rho < 1` means
//! the rounds shrink towards the equilibrium, `rho = 1` is the limit-cycle
//! condition of Fig. 7, and `rho > 1` would mean growing oscillations.
//!
//! For Case 1 (both regions spiral) each leg after the first advances the
//! region's winding angle by exactly `pi`, which yields the closed form
//! `rho = exp(pi (alpha_i / beta_i + alpha_d / beta_d))`
//! ([`round_ratio_analytic`]) — cross-checked against the flow-composition
//! computation ([`round_ratio`]).

use crate::cases::{classify_params, CaseId};
use crate::closed_form::{RegionFlow, Spectrum};
use crate::extrema::{region_extremum, Extremum};
use crate::model::Region;
use crate::params::BcnParams;
use crate::propagate::Propagator;

/// One maximal sojourn in a control region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leg {
    /// Which region the leg runs in.
    pub region: Region,
    /// Entry state.
    pub start: [f64; 2],
    /// Exit state on the switching line, or `None` if the leg approaches
    /// the equilibrium without leaving the region (node asymptote).
    pub end: Option<[f64; 2]>,
    /// Leg duration; `None` iff `end` is `None`.
    pub duration: Option<f64>,
    /// The queue extremum reached strictly inside the leg, if any.
    pub extremum: Option<Extremum>,
}

/// The region flows of the linearised system, through the propagator's
/// process-wide memo cache (sweeps re-analyse the same parameter point
/// many times; the spectral decompositions are shared).
fn flows(params: &BcnParams) -> (RegionFlow, RegionFlow) {
    let prop = Propagator::for_params(params);
    (*prop.flow(Region::Increase), *prop.flow(Region::Decrease))
}

fn flow_of(params: &BcnParams, region: Region) -> RegionFlow {
    *Propagator::for_params(params).flow(region)
}

/// The region a trajectory occupies when *leaving* state `p`: off the
/// switching line this is the sign of `sigma`; exactly on the line the
/// flow moves towards `s = x + k y` of the sign of `y`, so `y > 0` enters
/// the decrease region and `y < 0` the increase region.
#[must_use]
pub fn departing_region(params: &BcnParams, p: [f64; 2]) -> Region {
    let s = p[0] + params.k() * p[1];
    if s > 0.0 {
        Region::Decrease
    } else if s < 0.0 {
        Region::Increase
    } else if p[1] > 0.0 {
        Region::Decrease
    } else {
        Region::Increase
    }
}

/// Traces up to `max_legs` legs of the linearised system from `start`.
///
/// Tracing stops early when a leg fails to return to the switching line
/// (asymptotic approach to the equilibrium — Cases 2–4 tails) or when the
/// state has contracted to within `1e-12` of the equilibrium.
#[must_use]
pub fn trace_legs(params: &BcnParams, start: [f64; 2], max_legs: usize) -> Vec<Leg> {
    let prop = Propagator::for_params(params);
    let mut legs = Vec::new();
    trace_legs_into(params, &prop, start, max_legs, &mut legs);
    legs
}

/// The allocation-free tracing core every other entry point wraps: walks
/// up to `max_legs` legs from `start` using a caller-resolved `prop`,
/// appending into a caller-owned buffer. `legs` is cleared first; once it
/// has grown to the workload's deepest trace, re-use allocates nothing —
/// the property the batched query engine's per-worker workspaces rely on.
///
/// `prop` must be the propagator of `params` (cached and fresh builds are
/// bit-identical, so either source is fine).
pub fn trace_legs_into(
    params: &BcnParams,
    prop: &Propagator,
    start: [f64; 2],
    max_legs: usize,
    legs: &mut Vec<Leg>,
) {
    let k = params.k();
    legs.clear();
    let mut p = start;
    for _ in 0..max_legs {
        // Stop once the state has contracted to numerical noise relative
        // to the problem's own scales (q0 for x, C for y).
        if p[0].abs() / params.q0 + p[1].abs() / params.capacity < 1e-12 {
            break;
        }
        let region = departing_region(params, p);
        let flow = prop.flow(region);
        let t_max = leg_horizon(flow);
        let duration = prop.crossing_time(region, p, t_max);
        let end = duration.map(|t| {
            let mut z = flow.at(t, p);
            // Land exactly on the line to keep the next leg's region
            // decision clean.
            z[0] = -k * z[1];
            z
        });
        let extremum = region_extremum(flow, p).filter(|e| match duration {
            Some(d) => e.t > 0.0 && e.t <= d,
            None => e.t > 0.0,
        });
        legs.push(Leg { region, start: p, end, duration, extremum });
        match end {
            Some(z) => p = z,
            None => break,
        }
    }
}

fn leg_horizon(flow: &RegionFlow) -> f64 {
    match flow.spectrum() {
        // Crossings happen every half winding; four full windings is ample.
        Spectrum::Focus { beta, .. } => 4.0 * std::f64::consts::TAU / beta,
        // A node leg either crosses within a few slow time constants or
        // never does.
        Spectrum::Node { l2, .. } => 60.0 / l2.abs(),
        Spectrum::Critical { l } => 60.0 / l.abs(),
    }
}

/// The quantities of the paper's first-round analysis (Case 1, Fig. 6)
/// starting from the canonical point `(-q0, 0)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstRound {
    /// Duration `T_i^1` of the first increase leg.
    pub t_i1: f64,
    /// Entry point `(x_d^1(0), y_d^1(0))` into the decrease region.
    pub enter_decrease: [f64; 2],
    /// The first-round queue maximum `max_1{x}` (paper Eq. 36), reached
    /// inside the decrease leg.
    pub max1_x: f64,
    /// Duration `T_d^1` of the first decrease leg.
    pub t_d1: f64,
    /// Entry point `(x_i^2(0), y_i^2(0))` of the second increase leg.
    pub enter_increase2: [f64; 2],
    /// The first-round queue minimum `min_1{x}` (paper Eq. 37), reached
    /// inside the second increase leg.
    pub min1_x: f64,
}

/// Computes the paper's first-round extrema exactly (Case 1 only).
///
/// Returns `None` if the parameters are not Case 1 or a leg unexpectedly
/// fails to cross the switching line.
#[must_use]
pub fn first_round(params: &BcnParams) -> Option<FirstRound> {
    if classify_params(params).case != CaseId::Case1 {
        return None;
    }
    let legs = trace_legs(params, params.initial_point(), 3);
    if legs.len() < 3 {
        return None;
    }
    let (i1, d1, i2) = (&legs[0], &legs[1], &legs[2]);
    Some(FirstRound {
        t_i1: i1.duration?,
        enter_decrease: i1.end?,
        max1_x: d1.extremum?.x,
        t_d1: d1.duration?,
        enter_increase2: d1.end?,
        min1_x: i2.extremum?.x,
    })
}

/// The per-round amplitude contraction ratio `rho`, computed by composing
/// one increase leg and one decrease leg starting from the switching line
/// and comparing same-ray line coordinates.
///
/// Returns `None` when a leg does not return to the switching line (the
/// node-asymptote cases, where rounds do not repeat).
#[must_use]
pub fn round_ratio(params: &BcnParams) -> Option<f64> {
    let k = params.k();
    // Start on the increase-side ray: points on the line with y < 0.
    let y0 = -1.0;
    let p0 = [-k * y0, y0];
    let legs = trace_legs(params, p0, 2);
    if legs.len() < 2 {
        return None;
    }
    let end = legs[1].end?;
    // Same ray: y has the sign of y0 again; the coordinate ratio is the
    // amplitude ratio (any homogeneous coordinate works; use y).
    debug_assert!(end[1] < 0.0, "round did not return to the same ray: {end:?}");
    Some(end[1] / y0)
}

/// Closed-form round ratio for Case 1:
/// `rho = exp(pi (alpha_i/beta_i + alpha_d/beta_d))` — each spiral leg
/// advances its region's winding angle by exactly `pi` and scales the
/// region radius by `exp(alpha pi / beta)`.
///
/// Returns `None` outside Case 1.
#[must_use]
pub fn round_ratio_analytic(params: &BcnParams) -> Option<f64> {
    if classify_params(params).case != CaseId::Case1 {
        return None;
    }
    let (fi, fd) = flows(params);
    let (Spectrum::Focus { alpha: ai, beta: bi }, Spectrum::Focus { alpha: ad, beta: bd }) =
        (fi.spectrum(), fd.spectrum())
    else {
        return None;
    };
    Some((std::f64::consts::PI * (ai / bi + ad / bd)).exp())
}

/// Duration of a *steady* spiral leg (entered from the switching line):
/// exactly half a winding, `pi / beta` — the paper's
/// `T_d = 2 pi / sqrt(4 b C - (k b C)^2)` for the decrease region.
///
/// Returns `None` if the region is not spiral-shaped.
#[must_use]
pub fn steady_leg_duration(params: &BcnParams, region: Region) -> Option<f64> {
    match flow_of(params, region).spectrum() {
        Spectrum::Focus { beta, .. } => Some(std::f64::consts::PI / beta),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::exemplar;

    fn p() -> BcnParams {
        BcnParams::test_defaults()
    }

    #[test]
    fn legs_alternate_regions_in_case1() {
        let legs = trace_legs(&p(), p().initial_point(), 6);
        assert_eq!(legs.len(), 6);
        for (i, leg) in legs.iter().enumerate() {
            let expect = if i % 2 == 0 { Region::Increase } else { Region::Decrease };
            assert_eq!(leg.region, expect, "leg {i}");
        }
    }

    #[test]
    fn leg_endpoints_lie_on_switching_line() {
        let params = p();
        let k = params.k();
        let legs = trace_legs(&params, params.initial_point(), 6);
        for leg in &legs {
            let end = leg.end.expect("case-1 legs cross");
            assert!(
                (end[0] + k * end[1]).abs() < 1e-9 * end[1].abs().max(1.0),
                "end {end:?} off line"
            );
        }
    }

    #[test]
    fn steady_spiral_legs_last_half_winding() {
        let params = p();
        let legs = trace_legs(&params, params.initial_point(), 7);
        let ti = steady_leg_duration(&params, Region::Increase).unwrap();
        let td = steady_leg_duration(&params, Region::Decrease).unwrap();
        // All decrease legs, and increase legs after the first, should
        // last exactly pi/beta of their region.
        for (i, leg) in legs.iter().enumerate() {
            if i == 0 {
                continue;
            }
            let expect = if leg.region == Region::Increase { ti } else { td };
            let got = leg.duration.unwrap();
            assert!((got - expect).abs() < 1e-6 * expect, "leg {i} duration {got} vs {expect}");
        }
        // And the paper's printed form for T_d.
        let (b, c, k) = (params.b(), params.capacity, params.k());
        let paper_td = std::f64::consts::TAU / (4.0 * b * c - (k * b * c).powi(2)).sqrt();
        assert!((td - paper_td).abs() < 1e-9 * paper_td);
    }

    #[test]
    fn first_round_quantities_are_consistent() {
        let params = p();
        let fr = first_round(&params).expect("case 1");
        assert!(fr.t_i1 > 0.0 && fr.t_d1 > 0.0);
        // Entry to decrease: second quadrant (x < 0 < y) on the line.
        assert!(fr.enter_decrease[0] < 0.0 && fr.enter_decrease[1] > 0.0);
        // Back to increase: fourth quadrant.
        assert!(fr.enter_increase2[0] > 0.0 && fr.enter_increase2[1] < 0.0);
        // Max is positive (overshoot past q0), min negative but above -q0
        // by strong-stability margins for the defaults.
        assert!(fr.max1_x > 0.0);
        assert!(fr.min1_x < 0.0);
        assert!(fr.min1_x > -params.q0, "queue would empty: {}", fr.min1_x);
    }

    #[test]
    fn round_ratio_contracts_and_matches_analytic() {
        let params = p();
        let num = round_ratio(&params).expect("case 1 rounds repeat");
        let ana = round_ratio_analytic(&params).expect("case 1");
        assert!(num > 0.0 && num < 1.0, "rho = {num}");
        assert!((num - ana).abs() < 1e-6 * ana, "numeric {num} vs analytic {ana}");
    }

    #[test]
    fn round_ratio_is_amplitude_independent() {
        // Homogeneity: tracing from a 100x larger start still contracts
        // by the same per-round factor.
        let params = p();
        let k = params.k();
        let rho = round_ratio(&params).unwrap();
        let y0 = -250.0;
        let legs = trace_legs(&params, [-k * y0, y0], 2);
        let end = legs[1].end.unwrap();
        assert!((end[1] / y0 - rho).abs() < 1e-6 * rho);
    }

    #[test]
    fn successive_round_amplitudes_decay_by_rho() {
        let params = p();
        let rho = round_ratio(&params).unwrap();
        let legs = trace_legs(&params, params.initial_point(), 9);
        // Crossings into the decrease region (end of increase legs):
        let xs: Vec<f64> = legs
            .iter()
            .filter(|l| l.region == Region::Increase)
            .filter_map(|l| l.end.map(|e| e[1]))
            .collect();
        assert!(xs.len() >= 3);
        for w in xs.windows(2) {
            let r = w[1] / w[0];
            assert!((r - rho).abs() < 1e-4 * rho, "per-round {r} vs {rho}");
        }
    }

    #[test]
    fn undamped_w_zero_gives_unit_ratio() {
        // w = 0 removes the derivative term: both regions become centers
        // and every orbit is a limit cycle (rho = 1).
        let mut params = p();
        params.w = 1e-30; // effectively zero while passing validation
        let rho = round_ratio(&params).unwrap();
        assert!((rho - 1.0).abs() < 1e-6, "rho = {rho}");
    }

    #[test]
    fn case3_decrease_leg_never_returns() {
        let params = exemplar(&p(), CaseId::Case3);
        let legs = trace_legs(&params, params.initial_point(), 10);
        // Increase leg crosses, decrease leg is asymptotic: exactly 2 legs.
        assert_eq!(legs.len(), 2);
        assert_eq!(legs[1].region, Region::Decrease);
        assert!(legs[1].end.is_none());
        assert!(round_ratio(&params).is_none());
        // And no overshoot: the decrease leg has no interior extremum
        // above zero (paper Fig. 9: the trajectory stays in the second
        // quadrant).
        if let Some(e) = legs[1].extremum {
            assert!(e.x <= 0.0, "case-3 overshoot {e:?}");
        }
    }

    #[test]
    fn case2_has_single_overshoot_then_spiral() {
        let params = exemplar(&p(), CaseId::Case2);
        let legs = trace_legs(&params, params.initial_point(), 4);
        assert!(legs.len() >= 2);
        // Node-shaped increase leg still crosses the line (paper: the
        // trajectory must traverse it because -1/k > lambda_{1,2}).
        assert_eq!(legs[0].region, Region::Increase);
        assert!(legs[0].end.is_some());
        // The decrease leg carries the overshoot maximum.
        assert_eq!(legs[1].region, Region::Decrease);
        let e = legs[1].extremum.expect("overshoot extremum");
        assert!(e.x > 0.0);
    }

    #[test]
    fn departing_region_on_the_line_follows_y() {
        let params = p();
        let k = params.k();
        assert_eq!(departing_region(&params, [-k, 1.0]), Region::Decrease);
        assert_eq!(departing_region(&params, [k, -1.0]), Region::Increase);
        assert_eq!(departing_region(&params, [-1.0, 0.0]), Region::Increase);
        assert_eq!(departing_region(&params, [1.0, 0.0]), Region::Decrease);
    }
}
