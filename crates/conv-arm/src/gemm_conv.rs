//! Explicit-GEMM convolution (paper Sec. 3.2): im2col, pad/pack, the
//! re-designed low-bit GEMM, and the reshape back to NCHW.

use crate::ConvOutput;
use lowbit_qgemm::gemm::schedule_gemm;
use lowbit_qgemm::narrow::{gemm_narrow, schedule_gemm_narrow};
use lowbit_qgemm::sdot::{gemm_sdot, schedule_gemm_sdot};
use lowbit_qgemm::{gemm, Scheme};
use lowbit_tensor::{im2col_nchw, ConvShape, Layout, QTensor, Tensor};
use neon_sim::{KernelSchedule, StageCost};

/// Runs the low-bit explicit-GEMM convolution at the input's bit width.
///
/// Weights must be NCHW `c_out x c_in x kh x kw` at the same bit width (or
/// narrower) than the activations; the scheme is chosen from the wider of the
/// two so the drain ratios stay safe.
pub fn gemm_conv(input: &QTensor, weights: &QTensor, shape: &ConvShape) -> ConvOutput {
    assert_eq!(
        weights.dims(),
        (shape.c_out, shape.c_in, shape.kh, shape.kw)
    );
    let bits = input.bits().max(weights.bits());
    let scheme = Scheme::for_bits(bits);

    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    let col = im2col_nchw(input, shape);
    // The NCHW weight tensor reshaped to M x K is already row-major.
    let out = gemm(&scheme, weights.data(), &col.data, m, k, n);

    let acc = matrix_to_nchw(&out.c, shape);
    // Keep the executed GEMM's own stages (identical to the analytic ones by
    // construction) and wrap them with the conv-level im2col/requant stages.
    let full = schedule_gemm_conv(&scheme, shape);
    debug_assert_eq!(full.stages.len(), out.schedule.stages.len() + 2);
    let mut schedule = KernelSchedule::new();
    schedule.push(full.stages.first().unwrap().clone()); // im2col
    for stage in out.schedule.stages {
        schedule.push(stage);
    }
    schedule.push(full.stages.last().unwrap().clone()); // requant
    ConvOutput { acc, schedule }
}

/// Explicit-GEMM convolution on the narrow 8x4 micro-kernel (extension;
/// SMLAL bit widths only — wins at tight drain ratios, see
/// `lowbit_qgemm::narrow`).
pub fn gemm_conv_narrow(input: &QTensor, weights: &QTensor, shape: &ConvShape) -> ConvOutput {
    assert_eq!(
        weights.dims(),
        (shape.c_out, shape.c_in, shape.kh, shape.kw)
    );
    let bits = input.bits().max(weights.bits());
    let scheme = Scheme::for_bits(bits);
    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    let col = im2col_nchw(input, shape);
    let out = gemm_narrow(&scheme, weights.data(), &col.data, m, k, n);
    ConvOutput {
        acc: matrix_to_nchw(&out.c, shape),
        schedule: schedule_gemm_conv_narrow(&scheme, shape),
    }
}

/// Analytic schedule for the narrow-tile pipeline.
pub fn schedule_gemm_conv_narrow(scheme: &Scheme, shape: &ConvShape) -> KernelSchedule {
    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    let mut sched = KernelSchedule::new();
    sched.push(StageCost::bulk_move("im2col", (k * n) as u64, (k * n) as u64));
    for stage in schedule_gemm_narrow(scheme, m, k, n).stages {
        sched.push(stage);
    }
    sched.push(requant_stage(shape));
    sched
}

/// Explicit-GEMM convolution on the ARMv8.2 `SDOT` path (extension; any bit
/// width up to 8, no drain machinery — see `lowbit_qgemm::sdot`).
pub fn gemm_conv_sdot(input: &QTensor, weights: &QTensor, shape: &ConvShape) -> ConvOutput {
    assert_eq!(
        weights.dims(),
        (shape.c_out, shape.c_in, shape.kh, shape.kw)
    );
    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    let col = im2col_nchw(input, shape);
    let out = gemm_sdot(weights.data(), &col.data, m, k, n);
    ConvOutput {
        acc: matrix_to_nchw(&out.c, shape),
        schedule: schedule_gemm_conv_sdot(shape),
    }
}

/// Analytic schedule for the SDOT pipeline.
pub fn schedule_gemm_conv_sdot(shape: &ConvShape) -> KernelSchedule {
    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    let mut sched = KernelSchedule::new();
    sched.push(StageCost::bulk_move("im2col", (k * n) as u64, (k * n) as u64));
    for stage in schedule_gemm_sdot(m, k, n).stages {
        sched.push(stage);
    }
    sched.push(requant_stage(shape));
    sched
}

/// Reshapes the row-major `c_out x (batch*oh*ow)` GEMM result to NCHW: one
/// contiguous `oh*ow` run per `(batch, c_out)` plane.
pub(crate) fn matrix_to_nchw(c: &[i32], shape: &ConvShape) -> Tensor<i32> {
    let hw = shape.out_h() * shape.out_w();
    let n = shape.gemm_n();
    let mut acc: Tensor<i32> =
        Tensor::zeros((shape.batch, shape.c_out, shape.out_h(), shape.out_w()), Layout::Nchw);
    for (i, plane) in acc.data_mut().chunks_exact_mut(hw).enumerate() {
        let (b, co) = (i / shape.c_out, i % shape.c_out);
        plane.copy_from_slice(&c[co * n + b * hw..][..hw]);
    }
    acc
}

/// Reshapes the **column-major** `c_out x (batch*oh*ow)` GEMM result
/// (`c[col * c_out + row]`, as produced by the parallel driver) to NCHW:
/// each `(batch, c_out)` plane gathers one row at stride `c_out`.
pub(crate) fn matrix_to_nchw_cm(c: &[i32], shape: &ConvShape) -> Tensor<i32> {
    let hw = shape.out_h() * shape.out_w();
    let m = shape.gemm_m();
    let mut acc: Tensor<i32> =
        Tensor::zeros((shape.batch, shape.c_out, shape.out_h(), shape.out_w()), Layout::Nchw);
    for (i, plane) in acc.data_mut().chunks_exact_mut(hw).enumerate() {
        let (b, co) = (i / m, i % m);
        let row = c[b * hw * m + co..].iter().step_by(m);
        for (o, &v) in plane.iter_mut().zip(row) {
            *o = v;
        }
    }
    acc
}

/// Analytic schedule for the whole explicit-GEMM pipeline: the im2col
/// expansion (read activation once per kernel tap, write the K x N matrix)
/// followed by the GEMM stages.
pub fn schedule_gemm_conv(scheme: &Scheme, shape: &ConvShape) -> KernelSchedule {
    let (m, k, n) = (shape.gemm_m(), shape.gemm_k(), shape.gemm_n());
    let mut sched = KernelSchedule::new();
    sched.push(StageCost::bulk_move(
        "im2col",
        (k * n) as u64, // gathered reads (incl. re-reads of overlapping taps)
        (k * n) as u64,
    ));
    for stage in schedule_gemm(scheme, m, k, n).stages {
        sched.push(stage);
    }
    sched.push(requant_stage(shape));
    sched
}

/// The per-layer requantization pass (i32 accumulators back to i8), charged
/// in every pipeline exactly like the paper's measured kernels, which include
/// the quantized output store.
pub(crate) fn requant_stage(shape: &ConvShape) -> StageCost {
    let out = shape.output_len() as u64;
    StageCost::bulk_move("requant", out * 4, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct_conv;
    use lowbit_tensor::BitWidth;
    use neon_sim::CortexA53;

    fn run_case(shape: ConvShape, bits: BitWidth, seed: u64) {
        let input = QTensor::random(
            (shape.batch, shape.c_in, shape.h, shape.w),
            Layout::Nchw,
            bits,
            seed,
        );
        let weights = QTensor::random(
            (shape.c_out, shape.c_in, shape.kh, shape.kw),
            Layout::Nchw,
            bits,
            seed + 1,
        );
        let out = gemm_conv(&input, &weights, &shape);
        let oracle = direct_conv(&input, &weights, &shape);
        assert_eq!(out.acc.data(), oracle.data(), "{shape} at {bits}");
    }

    #[test]
    fn matches_direct_conv_across_bit_widths() {
        for bits in BitWidth::ALL {
            run_case(ConvShape::new(1, 5, 8, 8, 7, 3, 1, 1), bits, bits.bits() as u64);
        }
    }

    #[test]
    fn matches_direct_conv_on_strided_padded_batched() {
        run_case(ConvShape::new(2, 3, 9, 7, 5, 3, 2, 1), BitWidth::W4, 50);
        run_case(ConvShape::new(2, 4, 7, 7, 6, 1, 1, 0), BitWidth::W2, 51);
        run_case(ConvShape::new(1, 2, 11, 11, 3, 5, 2, 2), BitWidth::W7, 52);
    }

    #[test]
    fn schedule_includes_all_pipeline_stages() {
        let shape = ConvShape::new(1, 16, 14, 14, 32, 3, 1, 1);
        let sched = schedule_gemm_conv(&Scheme::for_bits(BitWidth::W4), &shape);
        let model = CortexA53::cost_model();
        for stage in ["im2col", "pack A", "pack B", "gemm"] {
            assert!(
                sched.stage_cycles(stage, &model) > 0.0,
                "missing stage {stage}"
            );
        }
    }

    #[test]
    fn executed_schedule_equals_analytic_schedule() {
        let shape = ConvShape::new(1, 4, 6, 6, 8, 3, 1, 1);
        let bits = BitWidth::W5;
        let input = QTensor::random((1, 4, 6, 6), Layout::Nchw, bits, 9);
        let weights = QTensor::random((8, 4, 3, 3), Layout::Nchw, bits, 10);
        let out = gemm_conv(&input, &weights, &shape);
        let analytic = schedule_gemm_conv(&Scheme::for_bits(bits), &shape);
        let model = CortexA53::cost_model();
        assert!((out.schedule.cycles(&model) - analytic.cycles(&model)).abs() < 1e-6);
    }

    #[test]
    fn narrow_and_sdot_pipelines_match_direct_conv() {
        let shape = ConvShape::new(1, 5, 9, 7, 6, 3, 2, 1);
        for bits in [BitWidth::W5, BitWidth::W8] {
            let input = QTensor::random(
                (shape.batch, shape.c_in, shape.h, shape.w),
                Layout::Nchw,
                bits,
                500 + bits.bits() as u64,
            );
            let weights = QTensor::random(
                (shape.c_out, shape.c_in, shape.kh, shape.kw),
                Layout::Nchw,
                bits,
                600 + bits.bits() as u64,
            );
            let oracle = direct_conv(&input, &weights, &shape);
            assert_eq!(
                gemm_conv_narrow(&input, &weights, &shape).acc.data(),
                oracle.data(),
                "narrow {bits}"
            );
            assert_eq!(
                gemm_conv_sdot(&input, &weights, &shape).acc.data(),
                oracle.data(),
                "sdot {bits}"
            );
        }
    }

    #[test]
    fn sdot_pipeline_models_faster_than_ncnn_at_8_bit() {
        // The ARMv8.2 projection: with SDOT, even 8-bit convincingly beats
        // the v8.1 ncnn baseline.
        let shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        let model = neon_sim::CortexA53::cost_model();
        let sdot = schedule_gemm_conv_sdot(&shape).cycles(&model);
        let ncnn = crate::schedule_ncnn_conv(&shape).cycles(&model);
        assert!(
            sdot * 1.5 < ncnn,
            "SDOT conv ({sdot:.0}) should handily beat ncnn ({ncnn:.0})"
        );
    }

    #[test]
    fn mixed_bit_widths_use_the_wider_scheme() {
        // 4-bit weights with 6-bit activations must still be exact.
        let shape = ConvShape::new(1, 3, 6, 6, 4, 3, 1, 1);
        let input = QTensor::random((1, 3, 6, 6), Layout::Nchw, BitWidth::W6, 21);
        let weights = QTensor::random((4, 3, 3, 3), Layout::Nchw, BitWidth::W4, 22);
        let out = gemm_conv(&input, &weights, &shape);
        let oracle = direct_conv(&input, &weights, &shape);
        assert_eq!(out.acc.data(), oracle.data());
    }
}
