//! Seeded workload generators. Every input the program under test sees
//! is built here from the `--seed` argument alone, so the same seed gives
//! byte-identical inputs on every machine and at every revision.

use bcn::BcnParams;
use dcesim::topo::{TopoSpec, Traffic};

/// splitmix64: a tiny, well-mixed deterministic PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed` and `stream`
    /// (so independent inputs of one workload never share draws).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[allow(clippy::cast_precision_loss)]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

// --- batch workloads -------------------------------------------------------

/// Seeds and jitter of one batch (one timed unit of a batch workload).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchUnit {
    /// Simulation seeds handed to the batch runner.
    pub seeds: Vec<u64>,
    /// Start-time jitter as a share of the horizon.
    pub start_jitter_frac: f64,
    /// Relative initial-rate jitter.
    pub rate_jitter_frac: f64,
}

/// The `unit`-th batch of a run: fresh simulation seeds per unit, so a
/// run averages over many jittered starts instead of repeating a few.
pub fn batch_unit(seed: u64, unit: u64, seeds_per_unit: usize) -> BatchUnit {
    let mut rng = Rng::new(seed, 0xBA7C_0000 + unit);
    BatchUnit {
        seeds: (0..seeds_per_unit).map(|_| rng.next_u64() >> 12).collect(),
        start_jitter_frac: rng.range(0.04, 0.06),
        rate_jitter_frac: rng.range(0.08, 0.12),
    }
}

/// Seed of the dumbbell's feedback-loss fault streams.
pub fn fault_seed(seed: u64) -> u64 {
    Rng::new(seed, 0xFA17).next_u64()
}

// --- fabric ----------------------------------------------------------------

/// Hosts on the benchmark fabric's first half (the incast senders).
const FABRIC_SENDERS: usize = 512;

/// The fabric and traffic of `fabric_incast_512`: 512 senders (the first
/// 512 hosts) into one host of the k=16 fat-tree. The receiver is drawn
/// from the second half of the hosts, so every sender sits in another pod
/// and every seed offers the same fan-in shape.
pub fn fabric(seed: u64) -> (TopoSpec, Traffic) {
    let spec = TopoSpec::fat_tree(16);
    let hosts = spec.hosts();
    let span = (hosts - FABRIC_SENDERS) as u64;
    let dst = FABRIC_SENDERS + (Rng::new(seed, 0xFAB).next_u64() % span) as usize;
    (spec, Traffic::Incast { senders: FABRIC_SENDERS, dst, load: 4.0 })
}

// --- query stream ----------------------------------------------------------

/// Distinct configurations the Zipf stream draws from: three times the
/// propagator cache's 4096 keys, so the cache must evict.
pub const QUERY_DISTINCT: usize = 3 * 4096;
/// Zipf exponent of configuration popularity.
pub const QUERY_ZIPF_S: f64 = 1.1;
/// Leg budget written on every question (the library default).
pub const QUERY_MAX_LEGS: usize = 64;

/// The `rank`-th distinct configuration of a seed: the paper's worked
/// example with flow count, link speed, reference point, buffer, gains
/// and CP weight perturbed. Buffers range from below to well above the
/// Theorem-1 requirement, so about half the mix is strongly stable, and
/// weights from light to heavy damping make traces end after anything
/// from one leg to the full budget.
pub fn query_config(seed: u64, rank: usize) -> BcnParams {
    let mut rng = Rng::new(seed, 0x0_C0F1_6000_0000 + rank as u64);
    let mut p = BcnParams::paper_defaults();
    p.n_flows = 10 + (rng.next_u64() % 91) as u32;
    p.capacity = [1.0e9, 1.0e10, 4.0e10][(rng.next_u64() % 3) as usize];
    p.q0 = rng.range(0.5e6, 5.0e6);
    p.buffer = p.q0 * rng.range(1.5, 8.0);
    p.qsc = 0.9 * p.buffer;
    p.gi = rng.range(0.5, 8.0);
    p.gd = 1.0 / f64::from(1u32 << (5 + rng.next_u64() % 6));
    p.ru = rng.range(4.0e6, 16.0e6);
    p.w = 2.0 * 1e4f64.powf(rng.unit());
    p
}

/// Bytes reserved per question line: more than any line `query_line`
/// writes (about 260 at most).
const QUERY_LINE_ROOM: usize = 320;

/// One question as a JSONL line in the `dcebcn query` schema, floats in
/// shortest round-trip form.
pub fn query_line(p: &BcnParams, max_legs: usize) -> String {
    format!(
        r#"{{"type":"query","n":{},"capacity":{:?},"q0":{:?},"buffer":{:?},"gi":{:?},"gd":{:?},"ru":{:?},"w":{:?},"pm":{:?},"qsc":{:?},"max_legs":{}}}"#,
        p.n_flows, p.capacity, p.q0, p.buffer, p.gi, p.gd, p.ru, p.w, p.pm, p.qsc, max_legs
    )
}

/// One chunk of a query stream.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryChunk {
    /// Newline-separated question lines.
    pub text: String,
    /// The configuration rank of each line, in line order.
    pub ranks: Vec<usize>,
}

/// A Zipf(`QUERY_ZIPF_S`) question stream over `QUERY_DISTINCT`
/// configurations. Chunks are built on demand, each a pure function of
/// the seed and its index, so a run never holds more than the chunk it
/// is answering.
#[derive(Debug, Clone)]
pub struct QueryStream {
    seed: u64,
    /// Unnormalised cumulative popularity of ranks `0..QUERY_DISTINCT`.
    cdf: Vec<f64>,
}

impl QueryStream {
    pub fn new(seed: u64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..QUERY_DISTINCT)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(QUERY_ZIPF_S);
                acc
            })
            .collect();
        Self { seed, cdf }
    }

    /// The `index`-th chunk, of `len` questions. Repeated questions are
    /// byte-identical text.
    pub fn chunk(&self, index: u64, len: usize) -> QueryChunk {
        let total = self.cdf[QUERY_DISTINCT - 1];
        let mut rng = Rng::new(self.seed, 0x21BF_0000_0000 + index);
        let ranks: Vec<usize> = (0..len)
            .map(|_| {
                let u = rng.unit() * total;
                self.cdf.partition_point(|&c| c < u).min(QUERY_DISTINCT - 1)
            })
            .collect();
        // Sized up front, so the buffer is the same for every seed and
        // does not land on either side of a doubling.
        let mut text = String::with_capacity(len * QUERY_LINE_ROOM);
        for &rank in &ranks {
            text.push_str(&query_line(&query_config(self.seed, rank), QUERY_MAX_LEGS));
            text.push('\n');
        }
        QueryChunk { text, ranks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(batch_unit(7, 3, 8), batch_unit(7, 3, 8));
        assert_ne!(batch_unit(7, 3, 8), batch_unit(7, 4, 8));
        assert_ne!(batch_unit(7, 3, 8), batch_unit(8, 3, 8));
        assert_eq!(fault_seed(11), fault_seed(11));
        assert_eq!(fabric(5), fabric(5));
        let a = QueryStream::new(3).chunk(2, 64);
        assert_eq!(a, QueryStream::new(3).chunk(2, 64), "same seed and index, same bytes");
        assert_ne!(a, QueryStream::new(3).chunk(1, 64));
        assert_ne!(a, QueryStream::new(4).chunk(2, 64));
        assert_eq!(a.text.lines().count(), a.ranks.len());
    }

    #[test]
    fn fabric_receiver_is_outside_the_senders() {
        for seed in 0..64 {
            let (spec, traffic) = fabric(seed);
            let Traffic::Incast { dst, senders, .. } = traffic else { panic!("incast") };
            assert!(dst >= senders && dst < spec.hosts());
        }
    }

    #[test]
    fn query_lines_decode_and_re_encode_byte_for_byte() {
        for rank in 0..256 {
            let p = query_config(9, rank);
            let line = query_line(&p, QUERY_MAX_LEGS);
            let q = bcn::query::query_from_jsonl(&line).expect("generated lines are valid");
            assert_eq!(q.params, p);
            assert_eq!(bcn::query::query_to_jsonl(&q), line);
        }
    }
}
