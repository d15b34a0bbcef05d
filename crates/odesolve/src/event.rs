//! Guard functions and precise event (zero-crossing) location.

use crate::interp::CubicHermite;

/// Which sign changes of the guard function count as events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// Trigger on any sign change.
    #[default]
    Any,
    /// Trigger only when the guard goes from negative to positive.
    Rising,
    /// Trigger only when the guard goes from positive to negative.
    Falling,
}

impl Direction {
    /// Whether a transition from `g0` to `g1` matches this direction.
    #[must_use]
    pub fn matches(self, g0: f64, g1: f64) -> bool {
        match self {
            Direction::Any => (g0 < 0.0 && g1 >= 0.0) || (g0 > 0.0 && g1 <= 0.0),
            Direction::Rising => g0 < 0.0 && g1 >= 0.0,
            Direction::Falling => g0 > 0.0 && g1 <= 0.0,
        }
    }
}

/// A scalar guard function `g(t, y)` whose zero crossings are events.
pub trait EventFn<const N: usize> {
    /// Evaluates the guard.
    fn guard(&self, t: f64, y: &[f64; N]) -> f64;
}

impl<F, const N: usize> EventFn<N> for F
where
    F: Fn(f64, &[f64; N]) -> f64,
{
    fn guard(&self, t: f64, y: &[f64; N]) -> f64 {
        self(t, y)
    }
}

/// An event specification: a guard plus the direction filter and whether
/// the event terminates the integration.
pub struct EventSpec<'a, const N: usize> {
    /// The guard function.
    pub guard: &'a dyn EventFn<N>,
    /// Which crossings count.
    pub direction: Direction,
    /// If `true` the driver stops at the located event time.
    pub terminal: bool,
}

impl<'a, const N: usize> EventSpec<'a, N> {
    /// Creates a terminal event triggered by any sign change of `guard`.
    #[must_use]
    pub fn terminal(guard: &'a dyn EventFn<N>) -> Self {
        Self { guard, direction: Direction::Any, terminal: true }
    }

    /// Creates a non-terminal (recorded only) event.
    #[must_use]
    pub fn recorded(guard: &'a dyn EventFn<N>) -> Self {
        Self { guard, direction: Direction::Any, terminal: false }
    }

    /// Restricts the event to the given crossing direction.
    #[must_use]
    pub fn with_direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }
}

impl<const N: usize> std::fmt::Debug for EventSpec<'_, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSpec")
            .field("direction", &self.direction)
            .field("terminal", &self.terminal)
            .finish_non_exhaustive()
    }
}

/// A located event occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct EventOccurrence<const N: usize> {
    /// Index of the triggering [`EventSpec`] in the caller's slice.
    pub index: usize,
    /// Located event time.
    pub t: f64,
    /// Interpolated state at the event time.
    pub y: [f64; N],
    /// Whether the triggering spec was terminal.
    pub terminal: bool,
}

/// Locates a guard zero inside one accepted step using bisection refined
/// with the dense-output interpolant.
///
/// `g0` and `g1` are the guard values at the step endpoints; they must
/// bracket a root in the sense of `direction`. Returns `(t_event, y_event,
/// iterations)`, the last counting bisection steps for instrumentation.
///
/// The tolerance is relative to the step length, pinned at 60 bisection
/// iterations (enough to exhaust f64 resolution).
#[must_use]
pub(crate) fn locate_zero<const N: usize>(
    guard: &dyn EventFn<N>,
    interp: &CubicHermite<N>,
    g0: f64,
    _g1: f64,
    direction: Direction,
) -> (f64, [f64; N], u32) {
    let mut lo = interp.t_start();
    let mut hi = interp.t_end();
    let mut g_lo = g0;
    let mut iterations = 0;
    // Bisect on the interpolant. We keep the invariant that (g_lo, g at hi)
    // brackets a directional crossing.
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // f64 resolution reached
        }
        iterations += 1;
        let y_mid = interp.eval(mid);
        let g_mid = guard.guard(mid, &y_mid);
        if direction.matches(g_lo, g_mid) {
            hi = mid;
        } else {
            lo = mid;
            g_lo = g_mid;
        }
    }
    let y = interp.eval(hi);
    (hi, y, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_matching() {
        assert!(Direction::Any.matches(-1.0, 1.0));
        assert!(Direction::Any.matches(1.0, -1.0));
        assert!(Direction::Rising.matches(-1.0, 1.0));
        assert!(!Direction::Rising.matches(1.0, -1.0));
        assert!(Direction::Falling.matches(1.0, -1.0));
        assert!(!Direction::Falling.matches(-1.0, 1.0));
        // No crossing at all:
        assert!(!Direction::Any.matches(1.0, 2.0));
        assert!(!Direction::Any.matches(-1.0, -0.5));
    }

    #[test]
    fn locates_linear_zero_precisely() {
        // State moves linearly from -1 to +1 over [0, 2]; zero at t = 1.
        let interp = CubicHermite::new(0.0, [-1.0], [1.0], 2.0, [1.0], [1.0]);
        let guard = |_t: f64, y: &[f64; 1]| y[0];
        let (t, y, _) = locate_zero(&guard, &interp, -1.0, 1.0, Direction::Rising);
        assert!((t - 1.0).abs() < 1e-12, "t = {t}");
        assert!(y[0].abs() < 1e-12);
    }

    #[test]
    fn locates_nonlinear_zero() {
        // Interpolate p(t) = t^2 - 0.25 on [0, 1] (cubic Hermite is exact
        // for quadratics); root at t = 0.5.
        let p = |t: f64| t * t - 0.25;
        let dp = |t: f64| 2.0 * t;
        let interp = CubicHermite::new(0.0, [p(0.0)], [dp(0.0)], 1.0, [p(1.0)], [dp(1.0)]);
        let guard = |_t: f64, y: &[f64; 1]| y[0];
        let (t, _, _) = locate_zero(&guard, &interp, p(0.0), p(1.0), Direction::Rising);
        assert!((t - 0.5).abs() < 1e-12, "t = {t}");
    }

    #[test]
    fn event_spec_builders() {
        let g = |_t: f64, y: &[f64; 2]| y[0] + y[1];
        let spec = EventSpec::terminal(&g).with_direction(Direction::Falling);
        assert!(spec.terminal);
        assert_eq!(spec.direction, Direction::Falling);
        let spec = EventSpec::recorded(&g);
        assert!(!spec.terminal);
        assert_eq!(spec.direction, Direction::Any);
        // Debug must be non-empty.
        assert!(!format!("{spec:?}").is_empty());
    }
}
