//! Seeded generators: the benchmark derives every input from `--seed`, so
//! one seed always yields the same weights, inputs and arrival schedule.

use lowbit::prelude::*;

/// SplitMix64: a small, well-mixed generator owned by the benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// The weight seed of a workload (`Network::from_graph_defs` takes it).
pub fn weight_seed(seed: u64) -> u64 {
    Rng::new(seed, 1).next_u64() >> 16
}

/// A float input in `[-1, 1]` whose max-abs is pinned to exactly 1, so a
/// batch's quantization calibration (max-abs over the batch) equals every
/// member's own and batching cannot change a response.
pub fn pinned_input(dims: (usize, usize, usize, usize), rng: &mut Rng) -> Tensor<f32> {
    let len = dims.0 * dims.1 * dims.2 * dims.3;
    let mut data: Vec<f32> = (0..len).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect();
    let pin = rng.range(0, len - 1);
    data[pin] = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
    Tensor::from_vec(dims, Layout::Nchw, data)
}

/// `n` pinned inputs drawn from `seed` (stream `stream`).
pub fn input_pool(
    dims: (usize, usize, usize, usize),
    n: usize,
    seed: u64,
    stream: u64,
) -> Vec<Tensor<f32>> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| pinned_input(dims, &mut rng)).collect()
}

/// One open-loop arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, ms after the schedule starts.
    pub at_ms: f64,
    /// Request class index.
    pub class: usize,
    /// Index into the class's input pool.
    pub input: usize,
}

/// Shape of a bursty open-loop schedule.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleSpec {
    /// Offered rate in requests per second, bursts included.
    pub rate_per_s: f64,
    /// Schedule length in ms.
    pub duration_ms: f64,
    /// Request classes (each single arrival picks one uniformly).
    pub classes: usize,
    /// Inputs per class pool.
    pub pool: usize,
    /// Burst sizes: the schedule holds one burst of each size per class,
    /// its arrivals all of that class and due at one instant.
    pub bursts: &'static [usize],
}

/// One round of bursts, every `(class, size)` pair once in a shuffled
/// order, each after a quiet stretch of Poisson single arrivals; after a
/// burst the clock advances by the burst's own share of time. The schedule
/// holds `rate_per_s * duration` arrivals (at least the bursts'), each
/// quiet stretch at least half its even share of the singles, and is
/// stretched to end at `duration_ms`. Whatever the seed, a schedule thus
/// holds the same bursts and the same number of arrivals, so its tail
/// comes from the same requests.
pub fn schedule(spec: &ScheduleSpec, seed: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 7);
    let mut round: Vec<(usize, usize)> = (0..spec.classes)
        .flat_map(|c| spec.bursts.iter().map(move |&size| (c, size)))
        .collect();
    for i in (1..round.len()).rev() {
        round.swap(i, rng.range(0, i));
    }
    let in_bursts: usize = round.iter().map(|&(_, size)| size).sum();
    let n = ((spec.rate_per_s * spec.duration_ms / 1e3).round() as usize).max(in_bursts);
    let singles = n - in_bursts;
    // Half of each stretch's even share, then the rest split at uniform
    // random cut points.
    let floor = singles / (2 * round.len());
    let spare = singles - floor * round.len();
    let mut cuts: Vec<usize> = (1..round.len()).map(|_| rng.range(0, spare)).collect();
    cuts.extend([0, spare]);
    cuts.sort_unstable();
    let mut out = Vec::with_capacity(n);
    let mut t = 0.0;
    for (i, &(class, size)) in round.iter().enumerate() {
        for _ in 0..floor + cuts[i + 1] - cuts[i] {
            t += -(1.0 - rng.unit()).ln();
            out.push(Arrival {
                at_ms: t,
                class: rng.range(0, spec.classes - 1),
                input: rng.range(0, spec.pool - 1),
            });
        }
        t += -(1.0 - rng.unit()).ln();
        for _ in 0..size {
            out.push(Arrival {
                at_ms: t,
                class,
                input: rng.range(0, spec.pool - 1),
            });
        }
        t += size as f64;
    }
    let stretch = spec.duration_ms / t.max(f64::MIN_POSITIVE);
    for a in &mut out {
        a.at_ms *= stretch;
    }
    out
}
