//! Summary statistics for timing samples.

/// Percentiles the tail rule may report, highest last.
const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// smallest sample with at least a `p` share of samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// The highest percentile of `n` samples that still has at least ten
/// samples above its nearest rank; the median when none does.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| {
            let rank = (p * n as f64).ceil() as usize;
            n >= rank + 10
        })
        .unwrap_or(0.5)
}

/// Median, tail (by [`tail_percentile`]) and the tail's percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_p: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(s.len());
    Summary { n: s.len(), p50: percentile(&s, 0.5), tail: percentile(&s, tail_p), tail_p }
}

/// CPU time of this process so far (every thread, live or exited), in
/// seconds. Every timing the benchmark reports uses this clock: on a
/// virtual machine whose host also runs other guests, time the host
/// steals from this one shows in wall time but not here, and that steal
/// is most of the run-to-run spread of a wall clock.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // words on 64-bit Linux, matching `Timespec`) through the valid,
    // exclusively borrowed pointer and keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Runs `f` and returns its result with the process CPU time it took, in
/// seconds.
pub fn cpu_time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = cpu_seconds();
    let out = f();
    (out, cpu_seconds() - t0)
}

/// Shortest CPU time one [`cpu_per_call`] sample spans.
const MIN_SAMPLE_S: f64 = 2e-3;

/// One sample of the per-call CPU cost of `f`, in seconds. The calls are
/// doubled until one group of them spans `MIN_SAMPLE_S`, so even a
/// microsecond-scale set-up reads well above the clock's resolution and
/// the cost of reading it.
pub fn cpu_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut calls = 1usize;
    loop {
        let ((), dt) = cpu_time(|| {
            for _ in 0..calls {
                std::hint::black_box(f());
            }
        });
        if dt >= MIN_SAMPLE_S {
            return dt / calls as f64;
        }
        calls *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(19), 0.5, "too few for any: fall back to the median");
        assert_eq!(tail_percentile(20), 0.5);
        assert_eq!(tail_percentile(99), 0.5);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(999), 0.9);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
        for n in 20..3000 {
            let p = tail_percentile(n);
            let rank = (p * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n}: p{p} has only {} beyond", n - rank);
            if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                let rank = (next * n as f64).ceil() as usize;
                assert!(n - rank < 10, "n={n}: p{next} would also qualify");
            }
        }
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > t0, "{x}");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        let sum = summarize(&s);
        assert_eq!((sum.n, sum.p50, sum.tail, sum.tail_p), (100, 50.0, 90.0, 0.9));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
