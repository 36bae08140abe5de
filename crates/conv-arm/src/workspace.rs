//! The parallel, allocation-free convolution paths: prepacked weights +
//! caller-owned [`ConvWorkspace`] arena.
//!
//! [`crate::PreparedConv`] showed that packing A once per layer pays off;
//! these paths go further for the engine's steady state:
//!
//! * the im2col matrix (skipped for 1x1 stride-1 pad-0 batch-1 layers, whose
//!   activation already is the GEMM's B operand), the per-thread packed-B
//!   panels and the GEMM result live in one reusable arena — after a warm-up
//!   pass over a network's layer shapes, repeated inference performs **zero
//!   heap allocations** in these stages (the output tensor itself is still
//!   returned by value);
//! * the GEMM runs on `lowbit_qgemm::parallel` across N, bit-exact versus
//!   the serial kernels for any thread count;
//! * the analytic schedules drop the `pack A` stage, which the prepack cache
//!   amortizes to zero across calls. The conv functions return only the
//!   accumulators; the engine attaches the schedule.

use crate::gemm_conv::{
    matrix_to_nchw_cm, schedule_gemm_conv, schedule_gemm_conv_narrow, schedule_gemm_conv_sdot,
};
use lowbit_qgemm::parallel::{gemm_parallel_cm_traced, ParallelConfig};
use lowbit_qgemm::sdot::{gemm_sdot_prepacked_cm, pack_b_quads_into, PackedAQuads, PackedBQuads};
use lowbit_qgemm::workspace::{GemmWorkspace, WorkspaceStats};
use lowbit_qgemm::{PackedA, Scheme};
use lowbit_tensor::{im2col_nchw_into, ConvShape, Im2colMatrix, Layout, QTensor, Tensor};
use lowbit_trace::{Tracer, MAIN_TRACK};
use neon_sim::KernelSchedule;

/// Caller-owned scratch for the prepacked convolution paths: the im2col
/// matrix, the parallel-GEMM arena, and the SDOT path's quad-packed B and
/// column-major result.
#[derive(Default)]
pub struct ConvWorkspace {
    col: Im2colMatrix,
    gemm: GemmWorkspace,
    bq: PackedBQuads,
    c_sdot: Vec<i32>,
    stats: WorkspaceStats,
}

impl ConvWorkspace {
    /// An empty arena; the first convolution sizes it.
    pub fn new() -> ConvWorkspace {
        ConvWorkspace::default()
    }

    /// Allocation statistics over every buffer in the arena.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Current total buffer capacity in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.col.data.capacity()
            + self.gemm.footprint_bytes()
            + self.bq.data.capacity()
            + self.c_sdot.capacity() * std::mem::size_of::<i32>()
    }

    fn note_call(&mut self, footprint_before: usize) {
        self.stats.calls += 1;
        let after = self.footprint_bytes();
        if after > footprint_before {
            self.stats.alloc_events += 1;
        }
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(after);
    }
}

fn check_weight_shape(pa_m: usize, pa_k: usize, shape: &ConvShape) {
    assert_eq!(pa_m, shape.gemm_m(), "packed weights disagree with shape on M");
    assert_eq!(pa_k, shape.gemm_k(), "packed weights disagree with shape on K");
}

/// Whether the NCHW activation already is the GEMM's `K x N` B operand: a
/// 1x1, stride-1, pad-0, batch-1 conv reads channel `c` of pixel `j` at
/// `c * (h * w) + j`, which is row `c`, column `j` of B (the `N = 1, g = 1`
/// case of a grouped conv-as-GEMM). Such layers skip im2col.
fn input_is_gemm_b(shape: &ConvShape) -> bool {
    (shape.kh, shape.kw, shape.stride, shape.pad, shape.batch) == (1, 1, 1, 0, 1)
}

/// The B operand of `shape`'s GEMM: the activation itself where
/// [`input_is_gemm_b`], otherwise its im2col expansion into `col`.
fn lower_b<'a>(
    input: &'a QTensor,
    shape: &ConvShape,
    col: &'a mut Im2colMatrix,
    tracer: &Tracer,
) -> &'a [i8] {
    if input_is_gemm_b(shape) {
        assert_eq!(input.layout(), Layout::Nchw, "ARM path expects NCHW");
        let dims = (1, shape.c_in, shape.h, shape.w);
        assert_eq!(input.dims(), dims, "input dims do not match conv shape");
        return input.data();
    }
    let mut span = tracer.span("im2col", MAIN_TRACK);
    span.set_label(|| format!("{}x{}", shape.gemm_k(), shape.gemm_n()));
    im2col_nchw_into(input, shape, col);
    &col.data
}

/// Prepacked parallel explicit-GEMM convolution, returning the NCHW
/// accumulators.
///
/// `pa` is the layer's weight matrix packed once via
/// `lowbit_qgemm::pack_a`; `scheme` must cover the wider of the two operand
/// bit widths, exactly as [`crate::gemm_conv`] chooses it. Layers modeled on
/// the narrow 8x4 tile run here too: the tile is a register allocation the
/// cost model prices, and the 16-row block kernel computes the same sums.
pub fn gemm_conv_prepacked_ws(
    input: &QTensor,
    pa: &PackedA,
    scheme: &Scheme,
    shape: &ConvShape,
    cfg: &ParallelConfig,
    ws: &mut ConvWorkspace,
) -> Tensor<i32> {
    gemm_conv_prepacked_ws_traced(input, pa, scheme, shape, cfg, ws, &Tracer::null())
}

/// [`gemm_conv_prepacked_ws`] with span recording for the lowering and
/// reshape stages (the inner GEMM records onto per-worker tracks).
pub fn gemm_conv_prepacked_ws_traced(
    input: &QTensor,
    pa: &PackedA,
    scheme: &Scheme,
    shape: &ConvShape,
    cfg: &ParallelConfig,
    ws: &mut ConvWorkspace,
    tracer: &Tracer,
) -> Tensor<i32> {
    check_weight_shape(pa.m, pa.k, shape);
    let before = ws.footprint_bytes();
    let b = lower_b(input, shape, &mut ws.col, tracer);
    let (k, n) = (shape.gemm_k(), shape.gemm_n());
    let c_cm = gemm_parallel_cm_traced(scheme, pa, b, k, n, cfg, &mut ws.gemm, tracer);
    let acc = {
        let _span = tracer.span("reshape nchw", MAIN_TRACK);
        matrix_to_nchw_cm(c_cm, shape)
    };
    ws.note_call(before);
    acc
}

/// Prepacked convolution on the ARMv8.2 SDOT path (serial — SDOT has no
/// drain cadence to block around; it gains prepack + buffer reuse only).
pub fn gemm_conv_sdot_prepacked_ws(
    input: &QTensor,
    pa: &PackedAQuads,
    shape: &ConvShape,
    ws: &mut ConvWorkspace,
) -> Tensor<i32> {
    gemm_conv_sdot_prepacked_ws_traced(input, pa, shape, ws, &Tracer::null())
}

/// [`gemm_conv_sdot_prepacked_ws`] with span recording (serial path: all
/// stages land on the main track).
pub fn gemm_conv_sdot_prepacked_ws_traced(
    input: &QTensor,
    pa: &PackedAQuads,
    shape: &ConvShape,
    ws: &mut ConvWorkspace,
    tracer: &Tracer,
) -> Tensor<i32> {
    check_weight_shape(pa.m, pa.k, shape);
    let before = ws.footprint_bytes();
    let b = lower_b(input, shape, &mut ws.col, tracer);
    let (k, n) = (shape.gemm_k(), shape.gemm_n());
    {
        let _span = tracer.span("pack B quads", MAIN_TRACK);
        pack_b_quads_into(b, k, n, &mut ws.bq);
    }
    {
        let _span = tracer.span("gemm sdot", MAIN_TRACK);
        gemm_sdot_prepacked_cm(pa, &ws.bq, &mut ws.c_sdot);
    }
    let acc = {
        let _span = tracer.span("reshape nchw", MAIN_TRACK);
        matrix_to_nchw_cm(&ws.c_sdot, shape)
    };
    ws.note_call(before);
    acc
}

fn drop_pack_a(mut sched: KernelSchedule) -> KernelSchedule {
    sched.stages.retain(|s| s.name != "pack A");
    sched
}

/// [`schedule_gemm_conv`] without the `pack A` stage (amortized by the
/// prepack cache).
pub fn schedule_gemm_conv_prepacked(scheme: &Scheme, shape: &ConvShape) -> KernelSchedule {
    drop_pack_a(schedule_gemm_conv(scheme, shape))
}

/// [`schedule_gemm_conv_narrow`] without the `pack A` stage.
pub fn schedule_gemm_conv_narrow_prepacked(scheme: &Scheme, shape: &ConvShape) -> KernelSchedule {
    drop_pack_a(schedule_gemm_conv_narrow(scheme, shape))
}

/// [`schedule_gemm_conv_sdot`] without the `pack A` stage.
pub fn schedule_gemm_conv_sdot_prepacked(shape: &ConvShape) -> KernelSchedule {
    drop_pack_a(schedule_gemm_conv_sdot(shape))
}

/// The serial + parallelizable cycle split of a prepacked schedule: im2col
/// and requant stay serial, pack B and the GEMM itself scale across N.
///
/// Used by the benchmark suite's Amdahl projection of multi-thread speedup
/// (the cost model itself stays single-core).
pub fn parallel_cycle_split(sched: &KernelSchedule, model: &neon_sim::CostModel) -> (f64, f64) {
    // Prepacked schedules have unique stage names by construction, so
    // summing per-name stage cycles partitions the schedule exactly.
    let mut serial = 0.0;
    let mut parallel = 0.0;
    for stage in &sched.stages {
        let cycles = sched.stage_cycles(stage.name, model);
        if stage.name == "pack B" || stage.name == "gemm" {
            parallel += cycles;
        } else {
            serial += cycles;
        }
    }
    (serial, parallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct_conv;
    use lowbit_qgemm::sdot::pack_a_quads;
    use lowbit_qgemm::pack_a;
    use lowbit_tensor::{BitWidth, Layout};
    use neon_sim::CortexA53;

    fn tensors(shape: &ConvShape, bits: BitWidth, seed: u64) -> (QTensor, QTensor) {
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
        (input, weights)
    }

    #[test]
    fn prepacked_paths_match_the_oracle_across_threads() {
        let shape = ConvShape::new(2, 5, 9, 7, 11, 3, 2, 1);
        let bits = BitWidth::W8; // SMLAL: valid for the block kernel and sdot
        let scheme = Scheme::for_bits(bits);
        let (input, weights) = tensors(&shape, bits, 700);
        let oracle = direct_conv(&input, &weights, &shape);
        let (m, k) = (shape.gemm_m(), shape.gemm_k());
        let pa = pack_a(weights.data(), m, k);
        let paq = pack_a_quads(weights.data(), m, k);
        let mut ws = ConvWorkspace::new();
        for threads in [1, 3] {
            let cfg = ParallelConfig::with_threads(threads);
            let acc = gemm_conv_prepacked_ws(&input, &pa, &scheme, &shape, &cfg, &mut ws);
            assert_eq!(acc.data(), oracle.data(), "x{threads}");
        }
        let sdot = gemm_conv_sdot_prepacked_ws(&input, &paq, &shape, &mut ws);
        assert_eq!(sdot.data(), oracle.data(), "sdot");
    }

    /// 1x1 stride-1 pad-0 layers: at batch 1 the GEMM reads the activation as
    /// B (no im2col bytes), at batch 2 it goes through im2col; both equal the
    /// oracle at every width, on the parallel and the SDOT path.
    #[test]
    fn pointwise_direct_b_matches_the_oracle_at_every_width() {
        for batch in [1, 2] {
            let shape = ConvShape::new(batch, 19, 5, 7, 21, 1, 1, 0);
            assert_eq!(input_is_gemm_b(&shape), batch == 1);
            for bits in BitWidth::ALL {
                let scheme = Scheme::for_bits(bits);
                let (input, weights) = tensors(&shape, bits, 900 + bits.bits() as u64);
                let oracle = direct_conv(&input, &weights, &shape);
                let (m, k) = (shape.gemm_m(), shape.gemm_k());
                let pa = pack_a(weights.data(), m, k);
                let mut ws = ConvWorkspace::new();
                for threads in [1, 4] {
                    let cfg = ParallelConfig::with_threads(threads);
                    let acc = gemm_conv_prepacked_ws(&input, &pa, &scheme, &shape, &cfg, &mut ws);
                    assert_eq!(acc.data(), oracle.data(), "b{batch} {bits} x{threads}");
                }
                let paq = pack_a_quads(weights.data(), m, k);
                let sdot = gemm_conv_sdot_prepacked_ws(&input, &paq, &shape, &mut ws);
                assert_eq!(sdot.data(), oracle.data(), "b{batch} {bits} sdot");
                let im2col_bytes = ws.col.data.capacity();
                assert_eq!(im2col_bytes == 0, batch == 1, "b{batch}: {im2col_bytes} im2col bytes");
            }
        }
    }

    #[test]
    fn workspace_stops_allocating_after_warmup() {
        let shapes = [
            ConvShape::new(1, 4, 10, 10, 8, 3, 1, 1),
            ConvShape::new(1, 8, 5, 5, 16, 1, 1, 0),
        ];
        let bits = BitWidth::W4;
        let scheme = Scheme::for_bits(bits);
        let cfg = ParallelConfig::with_threads(2);
        let mut ws = ConvWorkspace::new();
        let cases: Vec<_> = shapes
            .iter()
            .map(|shape| {
                let (input, weights) = tensors(shape, bits, 800);
                let pa = pack_a(weights.data(), shape.gemm_m(), shape.gemm_k());
                (*shape, input, pa)
            })
            .collect();
        // Warm-up pass sizes the arena.
        for (shape, input, pa) in &cases {
            let _ = gemm_conv_prepacked_ws(input, pa, &scheme, shape, &cfg, &mut ws);
        }
        let warm = ws.stats();
        assert!(warm.alloc_events > 0, "warm-up must have allocated");
        // Steady state: repeated passes over the same layer set.
        for _ in 0..3 {
            for (shape, input, pa) in &cases {
                let _ = gemm_conv_prepacked_ws(input, pa, &scheme, shape, &cfg, &mut ws);
            }
        }
        let steady = ws.stats();
        assert_eq!(steady.calls, warm.calls + 6);
        assert_eq!(steady.alloc_events, warm.alloc_events, "steady state allocated");
        assert_eq!(steady.high_water_bytes, warm.high_water_bytes);
    }

    #[test]
    fn prepacked_schedules_drop_pack_a_and_nothing_else() {
        let shape = ConvShape::new(1, 16, 14, 14, 32, 3, 1, 1);
        let scheme = Scheme::for_bits(BitWidth::W4);
        let model = CortexA53::cost_model();
        let full = schedule_gemm_conv(&scheme, &shape);
        let pre = schedule_gemm_conv_prepacked(&scheme, &shape);
        assert_eq!(pre.stages.len() + 1, full.stages.len());
        assert_eq!(pre.stage_cycles("pack A", &model), 0.0);
        for stage in ["im2col", "pack B", "gemm", "requant"] {
            assert_eq!(
                pre.stage_cycles(stage, &model),
                full.stage_cycles(stage, &model),
                "{stage}"
            );
        }
    }

    #[test]
    fn cycle_split_partitions_the_whole_schedule() {
        let shape = ConvShape::new(1, 16, 14, 14, 32, 3, 1, 1);
        let scheme = Scheme::for_bits(BitWidth::W4);
        let model = CortexA53::cost_model();
        let sched = schedule_gemm_conv_prepacked(&scheme, &shape);
        let (serial, parallel) = parallel_cycle_split(&sched, &model);
        assert!(serial > 0.0 && parallel > 0.0);
        assert!((serial + parallel - sched.cycles(&model)).abs() < 1e-6);
        assert!(parallel > serial, "GEMM should dominate this layer");
    }
}
