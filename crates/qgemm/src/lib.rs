//! The re-designed low-bit GEMM of the paper's Sec. 3.
//!
//! This crate implements, for an ARMv8.1-like target (the [`neon_sim`]
//! substrate):
//!
//! * [`scheme`] — the two instruction schemes of Fig. 3 (`SMLAL`+`SADDW` for
//!   4–8 bit, `MLA`+`SADDW` for 2–3 bit) with the published saturation-safe
//!   accumulation ratios, plus the ncnn-like 16-bit baseline scheme,
//! * [`pack`] — the data padding and packing of Fig. 2 (`n_a = 16` elements
//!   per column of A, `n_b = 4` elements per row of B),
//! * [`micro`] — the 16x4 register-tiled micro-kernel of Alg. 1 in three
//!   consistent forms: a fast functional path, an analytic instruction-count
//!   schedule, and an emitter to [`neon_sim`] instructions,
//! * [`mod@gemm`] — the full tiled GEMM driver with its pipeline schedule,
//! * [`traditional`] — the Fig. 1(a) traditional GEMM used for the Eq. 1–4
//!   load/arithmetic ablation,
//! * [`narrow`] — an 8x4 spill-free micro-kernel variant that wins at tight
//!   drain ratios (extension; see its module docs),
//! * [`sdot`] — the ARMv8.2 `SDOT` path that makes the drain machinery
//!   unnecessary on newer cores (extension; Sec. 2.3's forward pointer),
//! * [`parallel`] — the scoped-thread N-partitioned GEMM driver with
//!   per-thread cache-blocked B panels, bit-exact versus the serial path,
//! * [`workspace`] — the caller-owned scratch arena that makes steady-state
//!   repeated GEMM calls allocation-free.

#![forbid(unsafe_code)]

pub mod emit_gemm;
pub mod gemm;
pub mod micro;
pub mod narrow;
pub mod pack;
pub mod parallel;
pub mod sdot;
pub mod scheme;
pub mod stream;
pub mod traditional;
pub mod workspace;

pub use emit_gemm::{emit_gemm, GemmLayout};
pub use gemm::{gemm, GemmOutput};
pub use narrow::{gemm_narrow, schedule_gemm_narrow};
pub use parallel::{
    gemm_parallel, partition_columns, threads_from_env, ColumnSpan, ParallelConfig,
};
pub use sdot::{gemm_sdot, schedule_gemm_sdot};
pub use pack::{pack_a, pack_b, PackedA, PackedB, NA, NB};
pub use scheme::{Scheme, SchemeError, SchemeKind};
pub use stream::{
    gemm_stream, tile_stream_narrow, tile_stream_ncnn, tile_stream_sdot, tile_stream_wide,
    KernelStream, OperandRegion,
};
pub use workspace::{GemmWorkspace, WorkspaceStats};
