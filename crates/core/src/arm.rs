//! The ARM convolution engine: algorithm selection over the Sec. 3 kernels,
//! a prepacked-weight cache, and a reusable workspace arena.
//!
//! The GEMM-family algorithms (`Gemm`, `GemmNarrow`, `GemmSdot`) run through
//! the prepacked parallel paths of `lowbit_conv_arm::workspace`: weights are
//! packed once per layer (keyed by a fingerprint of the weight tensor) and
//! reused across calls, the im2col/pack-B/result buffers live in one arena,
//! and the GEMM spans `LOWBIT_THREADS` scoped threads. `Gemm` and
//! `GemmNarrow` execute the same 16-row layout; they differ only in the
//! register allocation the cost model prices (the 16x4 tile of Alg. 1 or the
//! spill-free 8x4 tile). Every conv's schedule comes from `warm_schedule`,
//! the same match [`ArmEngine::estimate_millis`] prices, so the GEMM-family
//! schedules drop the `pack A` stage the cache amortizes. The cost model
//! stays single-core — wall-clock thread scaling is the benchmark suite's
//! story, not the model's.

use lowbit_conv_arm::{
    bitserial_conv, gemm_conv_prepacked_ws_traced, gemm_conv_sdot_prepacked_ws_traced, ncnn_conv,
    schedule_bitserial_conv, schedule_gemm_conv, schedule_gemm_conv_narrow,
    schedule_gemm_conv_narrow_prepacked, schedule_gemm_conv_prepacked, schedule_gemm_conv_sdot,
    schedule_gemm_conv_sdot_prepacked, schedule_ncnn_conv, schedule_winograd_conv, winograd_conv,
    ConvWorkspace,
};
use lowbit_qgemm::parallel::{threads_from_env, ParallelConfig, MAX_THREADS};
use lowbit_qgemm::sdot::{pack_a_quads, PackedAQuads};
use lowbit_qgemm::workspace::WorkspaceStats;
use lowbit_qgemm::{pack_a, PackedA, Scheme};
use lowbit_tensor::{BitWidth, ConvShape, QTensor, Tensor};
use lowbit_trace::{PipeAttribution, Tracer, MAIN_TRACK};
use neon_sim::{CortexA53, CostModel, KernelSchedule, StageCost};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Algorithm choice for one layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArmAlgo {
    /// Pick the modeled-fastest applicable algorithm (the paper's policy:
    /// Winograd for 4–6-bit 3x3/s1, the scheme-matched GEMM otherwise).
    Auto,
    /// Force the explicit-GEMM path.
    Gemm,
    /// Force the Winograd `F(2x2, 3x3)` path (panics if not applicable).
    Winograd,
    /// The spill-free narrow 8x4 GEMM tile (extension; SMLAL widths only).
    /// A modeled register allocation: the cost model prices the 8x4 tile,
    /// and the host runs the same 16-row block kernel as `Gemm`.
    GemmNarrow,
    /// The ARMv8.2 `SDOT` GEMM (extension; models a newer core's ISA).
    GemmSdot,
    /// The ncnn-like 8-bit baseline.
    NcnnBaseline,
    /// The TVM-like popcount baseline (2-bit only).
    BitserialBaseline,
}

/// Result of an ARM convolution.
#[derive(Clone, Debug)]
pub struct ArmConvResult {
    /// Exact i32 accumulators (NCHW).
    pub acc: Tensor<i32>,
    /// The algorithm that actually ran.
    pub algo: ArmAlgo,
    /// Full pipeline schedule.
    pub schedule: KernelSchedule,
    /// Modeled wall time in milliseconds on the engine's core.
    pub millis: f64,
    /// Whether the prepack cache served the weights (`None` for algorithms
    /// without a prepacked layout).
    pub prepack_hit: Option<bool>,
    /// Bytes the shared workspace arena grew by during this call (0 in the
    /// steady state).
    pub workspace_growth_bytes: usize,
}

/// Converts one analytic schedule stage into the trace's pipe attribution
/// under `model`: NEON-pipe and LS-pipe issue-slot occupancy, the byte count
/// charged with stall (or bulk-move) cycles, the instruction-class
/// histogram, and the stage's exact combined modeled cycles.
///
/// `modeled_cycles` is precisely `stage.cycles(model)`, so summing the
/// attributions of a schedule's stages and converting with `model.millis`
/// reproduces `KernelSchedule::millis` — the conservation invariant the
/// integration tests enforce.
pub fn stage_attribution(stage: &StageCost, model: &CostModel) -> PipeAttribution {
    let c = &stage.counts;
    PipeAttribution {
        neon_slot_cycles: c.neon_total() as f64 * model.neon_slots,
        ls_slot_cycles: c.mem_total() as f64 * model.ls_slots,
        stall_bytes: c.bytes_total(),
        loads: c.loads,
        stores: c.stores,
        neon_mac: c.neon_mac,
        neon_alu: c.neon_alu,
        neon_mov: c.neon_mov,
        modeled_cycles: stage.cycles(model),
    }
}

/// Lays a schedule's stages back-to-back on a synthetic "modeled" timeline
/// track, one span per stage (duration = the stage's modeled wall time),
/// under a parent span covering the whole kernel. Only the stage spans carry
/// a [`PipeAttribution`], so summing attributions over the track counts each
/// cycle exactly once.
fn emit_modeled_schedule(
    tracer: &Tracer,
    track: u32,
    label: &str,
    sched: &KernelSchedule,
    model: &CostModel,
) {
    if !tracer.enabled() {
        return;
    }
    let mut at_ns = 0u64;
    let mut stages = Vec::with_capacity(sched.stages.len());
    for stage in &sched.stages {
        let dur_ns = (model.seconds(stage.cycles(model)) * 1e9).round().max(1.0) as u64;
        stages.push((stage, at_ns, dur_ns));
        at_ns += dur_ns;
    }
    tracer.modeled_span(track, "conv modeled", 0, at_ns, Some(label.to_string()), None);
    for (stage, start_ns, dur_ns) in stages {
        tracer.modeled_span(
            track,
            stage.name,
            start_ns,
            dur_ns,
            None,
            Some(stage_attribution(stage, model)),
        );
    }
}

/// Cache and reuse statistics of the engine's prepacked-weight store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepackStats {
    /// Calls served from the cache.
    pub hits: u64,
    /// Calls that had to pack (first sighting of a weight/algorithm pair).
    pub misses: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Cached weight tensors.
    pub entries: usize,
    /// Total packed bytes held.
    pub bytes: usize,
    /// The configured capacity bound in packed bytes.
    pub capacity_bytes: usize,
}

/// Default prepack-cache capacity (64 MiB of packed weights) — far above any
/// single model in this suite, so eviction only engages when a many-model
/// server shares one engine. [`ArmEngine::with_prepack_capacity`] overrides.
pub const DEFAULT_PREPACK_CAPACITY_BYTES: usize = 64 << 20;

/// One cached prepacked weight matrix, in the layout its algorithm runs:
/// 16-row panels for `Gemm` and `GemmNarrow`, quads for `GemmSdot`.
#[derive(Debug)]
enum PackedWeights {
    Wide(PackedA),
    Quads(PackedAQuads),
}

impl PackedWeights {
    fn bytes(&self) -> usize {
        match self {
            PackedWeights::Wide(p) => p.data.len(),
            PackedWeights::Quads(p) => p.data.len(),
        }
    }
}

/// The layout tag a prepack key starts with (`None` for algorithms without
/// a prepacked layout). `Gemm` and `GemmNarrow` pack alike but keep their
/// own tags, so plans and cache entries stay keyed as they always were.
fn layout_tag(algo: ArmAlgo) -> Option<usize> {
    match algo {
        ArmAlgo::Gemm => Some(0),
        ArmAlgo::GemmNarrow => Some(1),
        ArmAlgo::GemmSdot => Some(2),
        _ => None,
    }
}

/// The prepack-cache key a weight tensor will be stored under when executed
/// with `algo` (`None` for algorithms without a prepacked layout). This is
/// what [`crate::plan::LayerPlan::prepack_fingerprint`] records, so a plan
/// can be checked against the engine's cache contents.
pub fn prepack_fingerprint(weights: &QTensor, algo: ArmAlgo) -> Option<u64> {
    layout_tag(algo).map(|tag| fingerprint(weights, tag as u8))
}

/// One weight tensor's prepack keys, each hashed on first use and then
/// kept. [`crate::Network`] holds one per layer, so running a layer never
/// re-hashes its weights, and a layer no ARM plan uses is never hashed.
#[derive(Clone, Debug, Default)]
pub(crate) struct PrepackKeys([OnceLock<u64>; 3]);

impl PrepackKeys {
    /// [`prepack_fingerprint`]`(weights, algo)`, computed once per layout
    /// tag. `weights` must be the tensor these keys belong to.
    pub(crate) fn get(&self, weights: &QTensor, algo: ArmAlgo) -> Option<u64> {
        let tag = layout_tag(algo)?;
        Some(*self.0[tag].get_or_init(|| fingerprint(weights, tag as u8)))
    }
}

/// FNV-1a over the weight tensor's identity (algorithm layout tag, bit
/// width, dims, raw bytes) — the prepack cache key.
fn fingerprint(weights: &QTensor, tag: u8) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(tag);
    eat(weights.bits().bits());
    let (d0, d1, d2, d3) = weights.dims();
    for d in [d0, d1, d2, d3] {
        for b in (d as u64).to_le_bytes() {
            eat(b);
        }
    }
    for &v in weights.data() {
        eat(v as u8);
    }
    h
}

/// One resident prepack-cache entry: the packed panels plus the LRU
/// recency stamp eviction orders by.
struct CacheEntry {
    packed: Arc<PackedWeights>,
    last_used: u64,
}

/// Mutable engine state shared behind a mutex: clones of the engine serve
/// the same cache and arena.
struct EngineState {
    cache: HashMap<u64, CacheEntry>,
    cache_bytes: usize,
    capacity_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    ws: ConvWorkspace,
    modeled_millis: f64,
}

impl Default for EngineState {
    fn default() -> EngineState {
        EngineState {
            cache: HashMap::new(),
            cache_bytes: 0,
            capacity_bytes: DEFAULT_PREPACK_CAPACITY_BYTES,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            ws: ConvWorkspace::default(),
            modeled_millis: 0.0,
        }
    }
}

impl EngineState {
    /// The packed weights cached under `key`, packing `weights` on a miss.
    fn prepacked(
        &mut self,
        key: u64,
        weights: &QTensor,
        shape: &ConvShape,
        algo: ArmAlgo,
    ) -> Arc<PackedWeights> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.cache.get_mut(&key) {
            entry.last_used = tick;
            self.hits += 1;
            return entry.packed.clone();
        }
        self.misses += 1;
        let (m, k) = (shape.gemm_m(), shape.gemm_k());
        let packed = Arc::new(match algo {
            ArmAlgo::Gemm | ArmAlgo::GemmNarrow => {
                PackedWeights::Wide(pack_a(weights.data(), m, k))
            }
            ArmAlgo::GemmSdot => PackedWeights::Quads(pack_a_quads(weights.data(), m, k)),
            _ => unreachable!(),
        });
        self.cache_bytes += packed.bytes();
        self.cache.insert(key, CacheEntry { packed: packed.clone(), last_used: tick });
        // LRU eviction down to the capacity bound. The entry just inserted
        // carries the newest stamp, so it is only kept alone when a single
        // weight tensor exceeds the whole budget (`len() > 1` guard).
        while self.cache_bytes > self.capacity_bytes && self.cache.len() > 1 {
            let lru_key = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("cache is non-empty");
            let evicted = self.cache.remove(&lru_key).expect("key just found");
            self.cache_bytes -= evicted.packed.bytes();
            self.evictions += 1;
        }
        packed
    }
}

/// A CPU target: kernels plus a calibrated cost model, a prepacked-weight
/// cache and a reusable conv workspace.
///
/// Cloning is cheap and shares the cache/workspace state.
#[derive(Clone)]
pub struct ArmEngine {
    model: CostModel,
    threads: usize,
    state: Arc<Mutex<EngineState>>,
}

impl std::fmt::Debug for ArmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArmEngine")
            .field("model", &self.model)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ArmEngine {
    /// The Raspberry Pi 3B target of the paper (1.2 GHz Cortex-A53).
    pub fn cortex_a53() -> ArmEngine {
        ArmEngine::with_model(CortexA53::cost_model())
    }

    /// An engine with a custom cost model (threads from `LOWBIT_THREADS`).
    pub fn with_model(model: CostModel) -> ArmEngine {
        ArmEngine {
            model,
            threads: threads_from_env(),
            state: Arc::new(Mutex::new(EngineState::default())),
        }
    }

    /// Overrides the worker-thread count (clamped to `1..=16`).
    pub fn with_threads(mut self, threads: usize) -> ArmEngine {
        self.threads = threads.clamp(1, MAX_THREADS);
        self
    }

    /// Bounds the prepacked-weight cache to `bytes` of packed panels,
    /// evicting least-recently-used entries on insert once the budget is
    /// exceeded (a single oversized entry is always kept). The bound lives
    /// in the shared state, so it applies to every clone of this engine.
    pub fn with_prepack_capacity(self, bytes: usize) -> ArmEngine {
        self.state.lock().expect("engine state poisoned").capacity_bytes = bytes;
        self
    }

    /// The engine's cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Worker threads used by the GEMM-family algorithms.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Prepacked-weight cache statistics.
    pub fn prepack_stats(&self) -> PrepackStats {
        let st = self.state.lock().expect("engine state poisoned");
        PrepackStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            entries: st.cache.len(),
            bytes: st.cache_bytes,
            capacity_bytes: st.capacity_bytes,
        }
    }

    /// Workspace arena statistics (allocation high-water mark and growth
    /// events across all convolutions served).
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.state.lock().expect("engine state poisoned").ws.stats()
    }

    /// Cumulative modeled milliseconds across every convolution this engine
    /// (and its clones) has served — monotone over the engine's lifetime,
    /// which is what makes it usable as a trace counter.
    pub fn modeled_millis_total(&self) -> f64 {
        self.state.lock().expect("engine state poisoned").modeled_millis
    }

    /// Resolves `Auto` for a given layer/bit width by modeled time over the
    /// applicable algorithms: the paper's 16x4 GEMM, the Winograd fast path
    /// (4–6-bit 3x3/s1), and the narrow 8x4 tile extension (which wins at
    /// the tight 7/8-bit drain ratios).
    ///
    /// The selection logic itself lives in the planner
    /// ([`crate::planner::select_arm_algo`]); this is the per-call entry the
    /// plan-free engine API keeps using.
    pub fn select_algo(&self, bits: BitWidth, shape: &ConvShape) -> ArmAlgo {
        crate::planner::select_arm_algo(&self.model, bits, shape)
    }

    /// `algo` with `Auto` resolved for `bits` and `shape`.
    fn resolve(&self, algo: ArmAlgo, bits: BitWidth, shape: &ConvShape) -> ArmAlgo {
        match algo {
            ArmAlgo::Auto => self.select_algo(bits, shape),
            other => other,
        }
    }

    /// Runs a convolution, returning exact accumulators and modeled time.
    pub fn conv(
        &self,
        input: &QTensor,
        weights: &QTensor,
        shape: &ConvShape,
        algo: ArmAlgo,
    ) -> ArmConvResult {
        self.conv_traced(input, weights, shape, algo, &Tracer::null(), "conv")
    }

    /// [`ArmEngine::conv`] with span recording. Wall spans cover the real
    /// pipeline (im2col, per-worker pack-B/GEMM tracks, reshape); a
    /// dedicated `modeled/<ctx>` track carries one span per analytic stage
    /// (pack B, gemm, Winograd transforms, requant, ...) with its
    /// [`PipeAttribution`], laid back-to-back so their total reproduces
    /// `millis` exactly. `ctx` names the call site (usually the layer).
    pub fn conv_traced(
        &self,
        input: &QTensor,
        weights: &QTensor,
        shape: &ConvShape,
        algo: ArmAlgo,
        tracer: &Tracer,
        ctx: &str,
    ) -> ArmConvResult {
        let algo = self.resolve(algo, input.bits().max(weights.bits()), shape);
        let key = prepack_fingerprint(weights, algo);
        self.conv_keyed(input, weights, key, shape, algo, tracer, ctx)
    }

    /// [`ArmEngine::conv_traced`] for a resolved `algo` (never `Auto`) whose
    /// prepack key the caller already holds: `prepack_key` must equal
    /// [`prepack_fingerprint`]`(weights, algo)`, as a [`crate::Network`]
    /// keeps it per layer. This is the one path every engine conv takes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn conv_keyed(
        &self,
        input: &QTensor,
        weights: &QTensor,
        prepack_key: Option<u64>,
        shape: &ConvShape,
        algo: ArmAlgo,
        tracer: &Tracer,
        ctx: &str,
    ) -> ArmConvResult {
        assert_ne!(algo, ArmAlgo::Auto, "resolve Auto before keying the prepack cache");
        let bits = input.bits().max(weights.bits());
        let mut conv_span = tracer.span("conv", MAIN_TRACK);
        conv_span.set_label(|| format!("{ctx}: {algo:?} {bits}"));
        let mut prepack_hit = None;
        let mut workspace_growth_bytes = 0;
        let acc = match algo {
            ArmAlgo::Gemm | ArmAlgo::GemmNarrow | ArmAlgo::GemmSdot => {
                let key = prepack_key
                    .unwrap_or_else(|| panic!("{algo:?} needs its weights' prepack key"));
                let scheme = Scheme::for_bits(bits);
                let cfg = ParallelConfig::with_threads(self.threads);
                let mut guard = self.state.lock().expect("engine state poisoned");
                let st = &mut *guard;
                let hits_before = st.hits;
                let packed = st.prepacked(key, weights, shape, algo);
                prepack_hit = Some(st.hits > hits_before);
                let ws_before = st.ws.footprint_bytes();
                let acc = match &*packed {
                    PackedWeights::Wide(pa) => gemm_conv_prepacked_ws_traced(
                        input, pa, &scheme, shape, &cfg, &mut st.ws, tracer,
                    ),
                    PackedWeights::Quads(pa) => {
                        gemm_conv_sdot_prepacked_ws_traced(input, pa, shape, &mut st.ws, tracer)
                    }
                };
                workspace_growth_bytes = st.ws.footprint_bytes().saturating_sub(ws_before);
                acc
            }
            ArmAlgo::Winograd => winograd_conv(input, weights, shape).acc,
            ArmAlgo::NcnnBaseline => ncnn_conv(input, weights, shape).acc,
            ArmAlgo::BitserialBaseline => bitserial_conv(input, weights, shape).acc,
            ArmAlgo::Auto => unreachable!("checked above"),
        };
        drop(conv_span);
        let schedule = warm_schedule(bits, shape, algo);
        if tracer.enabled() {
            let track = tracer.track(&format!("modeled/{ctx}"));
            let label = format!("{algo:?} {bits}");
            emit_modeled_schedule(tracer, track, &label, &schedule, &self.model);
        }
        let millis = schedule.millis(&self.model);
        self.state.lock().expect("engine state poisoned").modeled_millis += millis;
        ArmConvResult { acc, algo, schedule, millis, prepack_hit, workspace_growth_bytes }
    }

    /// Modeled time in milliseconds without executing (used by the harness
    /// at full layer scale): the warm schedule executed convs attach.
    pub fn estimate_millis(&self, bits: BitWidth, shape: &ConvShape, algo: ArmAlgo) -> f64 {
        warm_schedule(bits, shape, self.resolve(algo, bits, shape)).millis(&self.model)
    }

    /// Modeled one-shot ("cold") time: prices the full pipeline including
    /// the per-call weight pack that the engine's prepack cache amortizes
    /// away. This is what a single standalone convolution costs — and what
    /// the paper's per-layer kernel measurements correspond to, so the
    /// figure harness uses it.
    pub fn estimate_millis_cold(&self, bits: BitWidth, shape: &ConvShape, algo: ArmAlgo) -> f64 {
        let sched = match self.resolve(algo, bits, shape) {
            ArmAlgo::Gemm => schedule_gemm_conv(&Scheme::for_bits(bits), shape),
            ArmAlgo::Winograd => schedule_winograd_conv(bits, shape),
            ArmAlgo::GemmNarrow => schedule_gemm_conv_narrow(&Scheme::for_bits(bits), shape),
            ArmAlgo::GemmSdot => schedule_gemm_conv_sdot(shape),
            ArmAlgo::NcnnBaseline => schedule_ncnn_conv(shape),
            ArmAlgo::BitserialBaseline => schedule_bitserial_conv(shape),
            ArmAlgo::Auto => unreachable!(),
        };
        sched.millis(&self.model)
    }
}

/// The steady-state ("warm") schedule of a resolved `algo`: the GEMM-family
/// pipelines without the `pack A` stage the prepack cache amortizes. The
/// one per-algorithm match behind executed convs, engine estimates and the
/// planner's committed predictions.
pub(crate) fn warm_schedule(bits: BitWidth, shape: &ConvShape, algo: ArmAlgo) -> KernelSchedule {
    match algo {
        ArmAlgo::Gemm => schedule_gemm_conv_prepacked(&Scheme::for_bits(bits), shape),
        ArmAlgo::GemmNarrow => schedule_gemm_conv_narrow_prepacked(&Scheme::for_bits(bits), shape),
        ArmAlgo::GemmSdot => schedule_gemm_conv_sdot_prepacked(shape),
        ArmAlgo::Winograd => schedule_winograd_conv(bits, shape),
        ArmAlgo::NcnnBaseline => schedule_ncnn_conv(shape),
        ArmAlgo::BitserialBaseline => schedule_bitserial_conv(shape),
        ArmAlgo::Auto => unreachable!("resolve Auto first"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_conv_arm::direct_conv;
    use lowbit_tensor::Layout;

    fn tensors(shape: &ConvShape, bits: BitWidth, seed: u64) -> (QTensor, QTensor) {
        (
            QTensor::random(
                (shape.batch, shape.c_in, shape.h, shape.w),
                Layout::Nchw,
                bits,
                seed,
            ),
            QTensor::random(
                (shape.c_out, shape.c_in, shape.kh, shape.kw),
                Layout::Nchw,
                bits,
                seed + 1,
            ),
        )
    }

    #[test]
    fn auto_picks_winograd_only_where_the_paper_does() {
        let engine = ArmEngine::cortex_a53();
        let wg_shape = ConvShape::new(1, 64, 56, 56, 64, 3, 1, 1);
        assert_eq!(engine.select_algo(BitWidth::W4, &wg_shape), ArmAlgo::Winograd);
        assert_eq!(engine.select_algo(BitWidth::W5, &wg_shape), ArmAlgo::Winograd);
        assert_eq!(engine.select_algo(BitWidth::W2, &wg_shape), ArmAlgo::Gemm);
        // At 8-bit the tight drain ratio hands the win to the spill-free
        // narrow tile (extension; the paper's own Alg. 1 kernel is forced
        // explicitly in the Fig. 7 harness).
        assert_eq!(engine.select_algo(BitWidth::W8, &wg_shape), ArmAlgo::GemmNarrow);
        let pointwise = ConvShape::new(1, 64, 56, 56, 256, 1, 1, 0);
        assert_eq!(engine.select_algo(BitWidth::W4, &pointwise), ArmAlgo::Gemm);
    }

    #[test]
    fn all_algorithms_agree_with_the_oracle() {
        let engine = ArmEngine::cortex_a53();
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        for (bits, algo) in [
            (BitWidth::W4, ArmAlgo::Auto),
            (BitWidth::W2, ArmAlgo::Auto),
            (BitWidth::W8, ArmAlgo::NcnnBaseline),
            (BitWidth::W2, ArmAlgo::BitserialBaseline),
            (BitWidth::W3, ArmAlgo::Winograd),
            (BitWidth::W7, ArmAlgo::GemmNarrow),
            (BitWidth::W6, ArmAlgo::GemmSdot),
        ] {
            let (input, weights) = tensors(&shape, bits, 100 + bits.bits() as u64);
            let out = engine.conv(&input, &weights, &shape, algo);
            let oracle = direct_conv(&input, &weights, &shape);
            assert_eq!(out.acc.data(), oracle.data(), "{bits} {algo:?}");
            assert!(out.millis > 0.0);
        }
    }

    #[test]
    fn estimate_matches_executed_schedule() {
        let engine = ArmEngine::cortex_a53();
        let shape = ConvShape::new(1, 6, 10, 10, 8, 3, 1, 1);
        let bits = BitWidth::W5;
        let (input, weights) = tensors(&shape, bits, 9);
        for algo in [ArmAlgo::Auto, ArmAlgo::Gemm, ArmAlgo::GemmNarrow, ArmAlgo::GemmSdot] {
            let out = engine.conv(&input, &weights, &shape, algo);
            let est = engine.estimate_millis(bits, &shape, algo);
            assert!((out.millis - est).abs() < 1e-12, "{algo:?}");
        }
    }

    #[test]
    fn executed_gemm_schedule_has_no_pack_a_stage() {
        let engine = ArmEngine::cortex_a53();
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 77);
        let out = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        assert_eq!(out.schedule.stage_cycles("pack A", engine.model()), 0.0);
        assert!(out.schedule.stage_cycles("gemm", engine.model()) > 0.0);
    }

    #[test]
    fn prepack_cache_hits_on_repeated_convs() {
        let engine = ArmEngine::cortex_a53().with_threads(2);
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 33);
        let first = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let stats = engine.prepack_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        let second = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        assert_eq!(first.acc.data(), second.acc.data());
        let stats = engine.prepack_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Another algorithm needs its own layout: a second cache entry.
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::GemmNarrow);
        let stats = engine.prepack_stats();
        assert_eq!((stats.misses, stats.entries), (2, 2));
        assert!(stats.bytes > 0);
        // Clones share cache and workspace.
        let clone = engine.clone();
        let _ = clone.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        assert_eq!(engine.prepack_stats().hits, 2);
        assert_eq!(engine.workspace_stats().calls, 4);
    }

    #[test]
    fn prepack_cache_evicts_least_recently_used_under_capacity_bound() {
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 33);
        // Size the bound to fit exactly one packed layout: learn the entry
        // size from an unbounded engine first.
        let probe = ArmEngine::cortex_a53();
        let _ = probe.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let one_entry = probe.prepack_stats().bytes;
        assert!(one_entry > 0);

        let engine = ArmEngine::cortex_a53().with_prepack_capacity(one_entry);
        assert_eq!(engine.prepack_stats().capacity_bytes, one_entry);
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        assert_eq!(engine.prepack_stats().evictions, 0);
        // A second layout overflows the budget; the older Gemm entry goes.
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::GemmNarrow);
        let stats = engine.prepack_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        // The evicted entry re-packs as a fresh miss, evicting in turn.
        let out = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let stats = engine.prepack_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 3, 2));
        // Eviction never affects results.
        assert_eq!(out.acc.data(), direct_conv(&input, &weights, &shape).data());
    }

    #[test]
    fn prepack_cache_keeps_a_single_oversized_entry() {
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (input, weights) = tensors(&shape, BitWidth::W4, 33);
        // A 1-byte budget cannot fit anything, but the just-packed entry is
        // kept so repeated convs of one layer still hit.
        let engine = ArmEngine::cortex_a53().with_prepack_capacity(1);
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let _ = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let stats = engine.prepack_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries, stats.evictions), (1, 1, 1, 0));
    }

    /// Layers planned on the narrow 8x4 tile run the 16-row block kernel;
    /// they stay exact at every SMLAL width and thread count, at M below,
    /// between and above the 8- and 16-row tile heights, 1x1 and 3x3.
    #[test]
    fn gemm_narrow_layers_match_the_oracle_at_smlal_widths() {
        for shape in [
            ConvShape::new(1, 7, 9, 8, 12, 3, 1, 1),
            ConvShape::new(1, 20, 6, 5, 21, 1, 1, 0),
            ConvShape::new(2, 5, 7, 7, 5, 3, 2, 1),
        ] {
            for bits in [BitWidth::W4, BitWidth::W5, BitWidth::W6, BitWidth::W7, BitWidth::W8] {
                let (input, weights) = tensors(&shape, bits, 40 + bits.bits() as u64);
                let oracle = direct_conv(&input, &weights, &shape);
                for threads in [1, 4] {
                    let engine = ArmEngine::cortex_a53().with_threads(threads);
                    let out = engine.conv(&input, &weights, &shape, ArmAlgo::GemmNarrow);
                    assert_eq!(out.acc.data(), oracle.data(), "{shape} {bits} x{threads}");
                    let est = engine.estimate_millis(bits, &shape, ArmAlgo::GemmNarrow);
                    assert_eq!(out.millis.to_bits(), est.to_bits(), "{shape} {bits}");
                }
            }
        }
    }

    /// The keys a network keeps per layer pick the same tag per algorithm
    /// as `prepack_fingerprint` (the golden plans pin the values).
    #[test]
    fn prepack_keys_equal_the_per_algo_fingerprints() {
        let shape = ConvShape::new(1, 4, 8, 8, 6, 3, 1, 1);
        let (_, weights) = tensors(&shape, BitWidth::W5, 3);
        let keys = PrepackKeys::default();
        for algo in [
            ArmAlgo::Gemm,
            ArmAlgo::GemmNarrow,
            ArmAlgo::GemmSdot,
            ArmAlgo::Winograd,
            ArmAlgo::NcnnBaseline,
            ArmAlgo::BitserialBaseline,
        ] {
            let want = prepack_fingerprint(&weights, algo);
            assert_eq!(keys.get(&weights, algo), want, "{algo:?}");
            assert_eq!(keys.get(&weights, algo), want, "{algo:?} kept");
        }
    }

    #[test]
    fn forced_gemm_is_exact_for_any_thread_count() {
        let shape = ConvShape::new(2, 3, 9, 7, 5, 3, 2, 1);
        let (input, weights) = tensors(&shape, BitWidth::W6, 55);
        let oracle = direct_conv(&input, &weights, &shape);
        for threads in [1, 2, 4] {
            let engine = ArmEngine::cortex_a53().with_threads(threads);
            let out = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
            assert_eq!(out.acc.data(), oracle.data(), "x{threads}");
        }
    }
}
