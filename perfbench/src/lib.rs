//! The lowbit benchmark: seeded edge and serving workloads driven through
//! the public API, with end-to-end metrics from untraced runs and per-layer
//! metrics from traced runs. See `README.md` next to this crate.

pub mod alloc;
pub mod calib;
pub mod edge;
pub mod gen;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use lowbit::prelude::Tensor;
use std::time::Duration;

/// A duration in ms.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The exact bit patterns of a float tensor: the form outputs are checked in.
pub fn f32_bits(t: &Tensor<f32>) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Whether `t` holds exactly the bit patterns `want`.
pub fn same_bits(t: &Tensor<f32>, want: &[u32]) -> bool {
    t.data().len() == want.len() && t.data().iter().zip(want).all(|(v, w)| v.to_bits() == *w)
}
