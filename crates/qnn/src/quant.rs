//! Linear symmetric quantization (zero point 0), the scheme the paper adopts
//! from DSQ/LSQ-style training work — performance kernels see only the
//! integer values and the scales.

use lowbit_tensor::{BitWidth, Layout, QTensor, Tensor};

/// A per-tensor symmetric quantizer: `real ≈ scale * q` with
/// `q ∈ [qmin(bits), qmax(bits)]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Quantizer {
    /// Target bit width.
    pub bits: BitWidth,
    /// Scale (real units per quantization step).
    pub scale: f32,
}

impl Quantizer {
    /// Calibrates a quantizer from the maximum absolute value of the data.
    pub fn calibrate(bits: BitWidth, data: &[f32]) -> Quantizer {
        let max_abs = data.iter().fold(0f32, |m, v| m.max(v.abs()));
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / bits.qmax() as f32
        };
        Quantizer { bits, scale }
    }

    /// Quantizes one value.
    #[inline]
    pub fn quantize(&self, v: f32) -> i8 {
        let q = (v / self.scale).round() as i32;
        self.bits.clamp_i32(q)
    }

    /// Dequantizes one value.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }
}

/// Quantizes an `f32` tensor into a [`QTensor`].
pub fn quantize_f32(t: &Tensor<f32>, quantizer: &Quantizer) -> QTensor {
    let data: Vec<i8> = t.data().iter().map(|&v| quantizer.quantize(v)).collect();
    QTensor::new(
        Tensor::from_vec(t.dims(), t.layout(), data),
        quantizer.bits,
        quantizer.scale,
    )
}

/// Dequantizes an i32 accumulator tensor with the combined scale
/// `scale_in * scale_w` (the conv+dequantization fusion writes this
/// directly).
pub fn dequantize_i32(acc: &Tensor<i32>, combined_scale: f32) -> Tensor<f32> {
    let data: Vec<f32> = acc
        .data()
        .iter()
        .map(|&v| v as f32 * combined_scale)
        .collect();
    Tensor::from_vec(acc.dims(), acc.layout(), data)
}

/// Re-quantization parameters: i32 accumulators back to `bits`-wide integers.
///
/// `clamp_min` is adjustable: the conv+ReLU fusion of Sec. 4.4 sets it to 0,
/// which folds the ReLU into the truncation for free.
///
/// ```
/// use lowbit_qnn::RequantParams;
/// use lowbit_tensor::BitWidth;
///
/// let rq = RequantParams::new(BitWidth::W8, 0.5);
/// assert_eq!(rq.apply(-10), -5);
/// assert_eq!(rq.with_relu().apply(-10), 0); // fused ReLU truncation
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RequantParams {
    /// Output bit width.
    pub bits: BitWidth,
    /// Combined multiplier `scale_in * scale_w / scale_out`.
    pub multiplier: f32,
    /// Lower truncation bound (defaults to `bits.qmin()`).
    pub clamp_min: i8,
}

impl RequantParams {
    /// Standard re-quantization into the adjusted range of `bits`.
    pub fn new(bits: BitWidth, multiplier: f32) -> RequantParams {
        RequantParams {
            bits,
            multiplier,
            clamp_min: bits.qmin(),
        }
    }

    /// The conv+ReLU-fused variant: truncation range starts at 0.
    pub fn with_relu(mut self) -> RequantParams {
        self.clamp_min = 0;
        self
    }

    /// Applies to one accumulator.
    #[inline]
    pub fn apply(&self, acc: i32) -> i8 {
        round_clamp(acc as f32 * self.multiplier, self.clamp_min, self.bits.qmax())
    }
}

/// Re-quantizes an accumulator tensor (elementwise [`RequantParams::apply`]).
pub fn requantize(acc: &Tensor<i32>, params: &RequantParams) -> QTensor {
    // A loop into a zeroed buffer vectorizes; `map(..).collect()` over the
    // same `apply` measured about twice as slow.
    let mut data = vec![0i8; acc.data().len()];
    for (q, &v) in data.iter_mut().zip(acc.data()) {
        *q = params.apply(v);
    }
    QTensor::new(
        Tensor::from_vec(acc.dims(), acc.layout(), data),
        params.bits,
        1.0, // output scale is carried by the enclosing graph
    )
}

/// `(x.round() as i32).clamp(lo, hi) as i8` (halves away from zero, NaN to
/// 0) in plain float and integer arithmetic, so loops over it vectorize:
/// on baseline x86-64 `f32::round` is a library call and the saturating
/// `as i32` a scalar conversion.
///
/// Clamping `x` into `[lo - 1, hi + 1]` first changes no result and bounds
/// `|x|` by 129. Adding and subtracting 2^23 then rounds `|x|` to an
/// integer exactly, ties to even; bumping a tie that went down gives ties
/// away from zero; and the integer is read off the bits of `mag + 2^23`,
/// whose ulp is 1.
#[inline]
fn round_clamp(x: f32, lo: i8, hi: i8) -> i8 {
    const MAGIC: f32 = 8_388_608.0;
    let (flo, fhi) = (f32::from(lo) - 1.0, f32::from(hi) + 1.0);
    // NaN fails both comparisons and maps to 0, as `NaN as i32` does.
    let x = if x >= flo {
        if x <= fhi {
            x
        } else {
            fhi
        }
    } else if x < flo {
        flo
    } else {
        0.0
    };
    let y = x.abs();
    let mag = (y + MAGIC) - MAGIC;
    let mag = if y - mag == 0.5 { mag + 1.0 } else { mag };
    let r = ((mag + MAGIC).to_bits() - MAGIC.to_bits()) as i32;
    let r = if x < 0.0 { -r } else { r };
    r.clamp(i32::from(lo), i32::from(hi)) as i8
}

/// Convenience: an all-zeros f32 tensor quantized at `bits` (used by tests).
pub fn zeros_q(dims: (usize, usize, usize, usize), layout: Layout, bits: BitWidth) -> QTensor {
    QTensor::new(Tensor::zeros(dims, layout), bits, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_clamp_matches_round_then_clamp() {
        // Quarter steps around every clamp range, a coarse stride over all
        // f32 bit patterns, and their neighbours. (A sweep over all 2^32
        // patterns agrees too; it is too slow for a unit test.)
        let mut xs: Vec<f32> = (-1200..=1200).map(|i| i as f32 * 0.25).collect();
        xs.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));
        xs.extend([0.49999997, -0.49999997, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        for (lo, hi) in [(-2, 1), (0, 1), (-8, 7), (0, 7), (-127, 127), (0, 127)] {
            for &x in &xs {
                let b = x.to_bits();
                for bits in [b, b.wrapping_add(1), b.wrapping_sub(1)] {
                    let y = f32::from_bits(bits);
                    let want = ((y.round() as i32).clamp(lo as i32, hi as i32)) as i8;
                    assert_eq!(round_clamp(y, lo, hi), want, "{y:e} ({bits:#x}) in [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn calibration_maps_max_to_qmax() {
        let data = vec![0.5f32, -2.0, 1.0];
        let q = Quantizer::calibrate(BitWidth::W4, &data);
        assert_eq!(q.quantize(2.0), 7);
        assert_eq!(q.quantize(-2.0), -7); // symmetric clamp at -qmax... -2.0/s = -7
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn quantize_clamps_to_adjusted_range() {
        let q = Quantizer { bits: BitWidth::W8, scale: 1.0 };
        assert_eq!(q.quantize(1000.0), 127);
        assert_eq!(q.quantize(-1000.0), -127); // adjusted range, not -128
    }

    #[test]
    fn round_trip_error_is_at_most_half_step() {
        let q = Quantizer::calibrate(BitWidth::W6, &[1.0]);
        for i in -30..=30 {
            let v = i as f32 / 30.0;
            let err = (q.dequantize(q.quantize(v)) - v).abs();
            assert!(err <= q.scale / 2.0 + 1e-6, "v={v} err={err}");
        }
    }

    #[test]
    fn requant_standard_vs_relu_clamp() {
        let p = RequantParams::new(BitWidth::W8, 0.5);
        assert_eq!(p.apply(-10), -5);
        assert_eq!(p.apply(10), 5);
        let pr = p.with_relu();
        assert_eq!(pr.apply(-10), 0, "fused ReLU truncates negatives");
        assert_eq!(pr.apply(10), 5);
    }

    #[test]
    fn requant_relu_equals_relu_then_requant() {
        // The Sec. 4.4 fusion argument: clamping at 0 during requantization
        // is exactly ReLU on the dequantized value (zero point 0).
        let p = RequantParams::new(BitWidth::W6, 0.037);
        let pr = p.with_relu();
        for acc in [-100_000, -37, -1, 0, 1, 12345, 100_000] {
            let fused = pr.apply(acc);
            let unfused = p.apply(acc).max(0);
            assert_eq!(fused, unfused, "acc={acc}");
        }
    }

    #[test]
    fn dequantize_i32_scales() {
        let t = Tensor::from_vec((1, 1, 1, 3), Layout::Nchw, vec![2i32, -4, 0]);
        let f = dequantize_i32(&t, 0.25);
        assert_eq!(f.data(), &[0.5, -1.0, 0.0]);
    }

    #[test]
    fn tensor_quantization_respects_layout() {
        let t = Tensor::from_vec((1, 2, 1, 2), Layout::Nhwc, vec![0.9f32, -0.9, 0.1, 0.4]);
        let q = quantize_f32(&t, &Quantizer { bits: BitWidth::W4, scale: 0.15 });
        assert_eq!(q.layout(), Layout::Nhwc);
        assert_eq!(q.data()[0], 6);
        assert_eq!(q.data()[1], -6);
    }
}
