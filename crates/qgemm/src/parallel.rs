//! Scoped-thread parallel GEMM driver.
//!
//! Parallelism follows the im2col structure of the convolution: the N
//! dimension (output pixels) is partitioned into per-thread column-tile
//! blocks. Packed A (the weights) is shared read-only across threads; each
//! thread packs its own cache-blocked B panels and writes a **disjoint**
//! contiguous slice of the column-major result, so the driver needs no
//! atomics, no locks and no `unsafe` — and the output is bit-exact versus
//! the serial path for every thread count and blocking parameter.
//!
//! The driver runs one layout: 16-row packed A ([`PackedA`]). At the SMLAL
//! widths (W4-W8) every tile of a K block runs on the proof-licensed block
//! kernel, which keeps i16 partials for as many steps as the scheme's
//! operand bound allows (see [`proven_run`]: 511 at W4, 2 at W8). The
//! lane-exact `micro::run_tile` is the oracle it is tested against; the
//! narrow 8x4 tile (`narrow::run_tile_narrow`) is a modeled register
//! allocation that the planner may price for a layer, and such a layer runs
//! here on the 16-row layout too. The MLA widths (W2, W3) run the paper's i8
//! MLA + SADDW arithmetic, `micro::accumulate_mla`, over the K block;
//! `worker` says why.
//!
//! Why bit-exactness holds under K-blocking: every partial is exact within
//! its licensed run, so each K-block contributes the exact i32 sub-sum and
//! i32 addition of exact sub-sums is associative. The property tests in
//! `tests/proptest_invariants.rs` enforce this over random shapes, bit
//! widths, thread counts and block sizes.

use crate::gemm::{schedule_gemm, GemmOutput};
use crate::micro::{accumulate_mla, TILE_LEN};
use crate::pack::{pack_a, PackedA, NA, NB};
use crate::scheme::{Scheme, SchemeKind};
use crate::workspace::GemmWorkspace;
use lowbit_trace::{Tracer, MAIN_TRACK};

/// Default K cache-block: `kc * (NA + nc)` operand bytes stay L1-resident.
pub const DEFAULT_KC: usize = 384;
/// Default N cache-block (columns; multiple of [`NB`]).
pub const DEFAULT_NC: usize = 128;
/// Upper bound on accepted thread counts.
pub const MAX_THREADS: usize = 16;

/// Thread count parsed from a raw `LOWBIT_THREADS` value: unset, empty,
/// non-numeric or zero requests fall back to 1; anything above
/// [`MAX_THREADS`] is clamped down. Pure so the parsing policy is testable
/// without mutating the process environment.
pub fn threads_from_str(raw: Option<&str>) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok()).map_or(1, |t| t.clamp(1, MAX_THREADS))
}

/// Thread count requested via the `LOWBIT_THREADS` environment variable
/// (default 1, clamped to `1..=MAX_THREADS`; see [`threads_from_str`]).
pub fn threads_from_env() -> usize {
    threads_from_str(std::env::var("LOWBIT_THREADS").ok().as_deref())
}

/// Thread count and cache-blocking parameters for the parallel driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads (1 = run on the caller thread).
    pub threads: usize,
    /// K block length: bounds the packed-B panel height.
    pub kc: usize,
    /// N block width in columns: bounds the packed-B panel width (rounded
    /// up to a multiple of [`NB`]).
    pub nc: usize,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig::with_threads(1)
    }
}

impl ParallelConfig {
    /// Default blocking with an explicit thread count.
    pub fn with_threads(threads: usize) -> ParallelConfig {
        ParallelConfig { threads: threads.clamp(1, MAX_THREADS), kc: DEFAULT_KC, nc: DEFAULT_NC }
    }

    /// Default blocking with the `LOWBIT_THREADS` thread count.
    pub fn from_env() -> ParallelConfig {
        ParallelConfig::with_threads(threads_from_env())
    }

    fn normalized(mut self) -> ParallelConfig {
        self.threads = self.threads.clamp(1, MAX_THREADS);
        self.kc = self.kc.max(1);
        self.nc = self.nc.max(1).div_ceil(NB) * NB;
        self
    }
}

/// One thread's contiguous column range `[col0, col0 + cols)` of the
/// column-major output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ColumnSpan {
    /// First column owned by the thread.
    pub col0: usize,
    /// Number of columns owned. Zero when the thread holds no column tiles
    /// (more threads than tiles, or `n == 0`); empty spans sit at the
    /// partition cursor (`col0 == n` for trailing empties) so the span list
    /// stays contiguous and covering.
    pub cols: usize,
}

impl ColumnSpan {
    /// One past the last owned column.
    #[inline]
    pub fn end(&self) -> usize {
        self.col0 + self.cols
    }
}

/// Splits `n` output columns into per-thread spans: column tiles of [`NB`]
/// are distributed round-robin-evenly (the first `col_tiles % threads` spans
/// get one extra tile), so spans are contiguous, pairwise disjoint, cover
/// `[0, n)`, and all interior boundaries are [`NB`]-aligned.
///
/// This is the **only** place the parallel driver's work split is computed —
/// [`gemm_parallel_cm`] carves its `split_at_mut` slices from these spans,
/// and `lowbit-verify` checks the same spans for disjointness and coverage.
/// The returned length is exactly the requested thread count clamped to
/// `1..=MAX_THREADS`, so callers may index spans by thread id; threads
/// beyond the tile count receive well-formed **empty** spans (`cols == 0`,
/// `col0` at the partition cursor) which the driver never spawns workers
/// for and which the partition proof accepts as covered.
pub fn partition_columns(n: usize, threads: usize) -> Vec<ColumnSpan> {
    let col_tiles = n.div_ceil(NB);
    let threads = threads.clamp(1, MAX_THREADS);
    let workers = threads.min(col_tiles).max(1);
    let base = col_tiles / workers;
    let extra = col_tiles % workers;
    let mut spans = Vec::with_capacity(threads);
    let mut tile0 = 0usize;
    for t in 0..threads {
        let tiles_t = if t < workers { base + usize::from(t < extra) } else { 0 };
        let col0 = (tile0 * NB).min(n);
        let cols = ((tile0 + tiles_t) * NB).min(n) - col0;
        tile0 += tiles_t;
        spans.push(ColumnSpan { col0, cols });
    }
    spans
}

/// Runs `C = A x B` across `cfg.threads` scoped threads into the caller's
/// workspace, returning the **column-major** `m x n` result
/// (`c[col * m + row]`) borrowed from `ws`.
///
/// Steady state (same or smaller shape, same thread count) performs zero
/// heap allocations; see [`GemmWorkspace::stats`].
pub fn gemm_parallel_cm<'w>(
    scheme: &Scheme,
    pa: &PackedA,
    b: &[i8],
    k: usize,
    n: usize,
    cfg: &ParallelConfig,
    ws: &'w mut GemmWorkspace,
) -> &'w [i32] {
    gemm_parallel_cm_traced(scheme, pa, b, k, n, cfg, ws, &Tracer::null())
}

/// [`gemm_parallel_cm`] with span recording: each scoped worker thread gets
/// its own timeline track (named after its [`ColumnSpan`]) carrying a
/// `gemm worker` parent span with `pack B panel` and `gemm tile` children.
/// With a null tracer this is exactly `gemm_parallel_cm` — every recording
/// call reduces to one branch and the path stays allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel_cm_traced<'w>(
    scheme: &Scheme,
    pa: &PackedA,
    b: &[i8],
    k: usize,
    n: usize,
    cfg: &ParallelConfig,
    ws: &'w mut GemmWorkspace,
    tracer: &Tracer,
) -> &'w [i32] {
    assert_eq!(pa.k, k, "weights disagree on K");
    assert_eq!(b.len(), k * n, "B operand has wrong length");
    assert_ne!(scheme.kind(), SchemeKind::Ncnn16, "ncnn baseline is serial-only");
    let cfg = cfg.normalized();
    let m = pa.m;
    let spans = partition_columns(n, cfg.threads);
    // Empty spans (more threads than column tiles) own no work and get no
    // worker; the split_at_mut carving below still walks them so C slices
    // stay aligned with span order.
    let active = spans.iter().filter(|s| s.cols > 0).count();

    let before = ws.footprint_bytes();
    ws.prepare(spans.len(), m * n);
    if active <= 1 {
        if let Some(span) = spans.iter().find(|s| s.cols > 0) {
            let track = worker_track(tracer, span);
            worker(
                scheme,
                pa,
                b,
                n,
                span,
                &cfg,
                &mut ws.scratch[0].b_panel,
                &mut ws.c_cm,
                tracer,
                track,
            );
        }
    } else {
        // Each thread's C slice is the contiguous column range of its span,
        // carved off with split_at_mut — disjointness and coverage of the
        // spans (checked statically by lowbit-verify) make this partition
        // lock- and unsafe-free.
        std::thread::scope(|scope| {
            let mut c_rest: &mut [i32] = &mut ws.c_cm;
            let mut scratch_rest: &mut [crate::workspace::ThreadScratch] = &mut ws.scratch;
            for span in &spans {
                let (c_t, rest) = c_rest.split_at_mut(span.cols * m);
                c_rest = rest;
                let (s_t, rest) = scratch_rest.split_at_mut(1);
                scratch_rest = rest;
                if span.cols == 0 {
                    continue;
                }
                let panel = &mut s_t[0].b_panel;
                let track = worker_track(tracer, span);
                scope.spawn(move || {
                    worker(scheme, pa, b, n, span, &cfg, panel, c_t, tracer, track);
                });
            }
        });
    }
    ws.note_call(before);
    &ws.c_cm
}

/// Registers the per-thread timeline track, named after the worker's owned
/// column range. Registration happens on the caller thread so track ids are
/// assigned in span order regardless of worker scheduling.
fn worker_track(tracer: &Tracer, span: &ColumnSpan) -> u32 {
    if tracer.enabled() {
        tracer.track(&format!("gemm worker [{}..{})", span.col0, span.end()))
    } else {
        MAIN_TRACK
    }
}

/// One thread's share: columns `[span.col0, span.end())`, written
/// column-major into the thread-local slice `c` (`c[(j - col0) * m + i]`).
///
/// The MLA widths (W2, W3) run `micro::accumulate_mla`, not the faster
/// i16 [`accumulate_block`], which is exact there too. On an idle core the
/// i16 kernel takes 1.9 ms of `gemm tile` time per run of the W2 ResNet-50
/// projection block at 14x14 against ~9 ms (x86-64 Xeon, one thread,
/// baseline SSE2 with no i8 multiply). On a shared 2-vCPU host, though,
/// its time follows co-tenants' load much less than i8 multiply-accumulate
/// code does: the block's host time rose 1.45x while an i8 MLA probe
/// slowed 1.9x, against 2.1x for 2.1x with the i8 form. Per-run block
/// throughput scaled by such a probe then spread 8.7% of its median with
/// the i16 kernel and 3.1% with the i8 form, so only the i8 form gives
/// W2 host timings that can be compared between runs on such hosts.
#[allow(clippy::too_many_arguments)]
fn worker(
    scheme: &Scheme,
    pa: &PackedA,
    b: &[i8],
    n: usize,
    span: &ColumnSpan,
    cfg: &ParallelConfig,
    panel: &mut Vec<i8>,
    c: &mut [i32],
    tracer: &Tracer,
    track: u32,
) {
    let (col0, cols) = (span.col0, span.cols);
    let mut worker_span = tracer.span("gemm worker", track);
    worker_span.set_label(|| format!("cols [{col0}..{})", col0 + cols));
    let (m, k) = (pa.m, pa.k);
    debug_assert_eq!(c.len(), cols * m);
    let a_tiles = pa.tiles();
    let run = proven_run(scheme);
    let local_tiles = cols.div_ceil(NB);
    let nc_tiles = cfg.nc / NB;
    let mut jt0 = 0usize;
    while jt0 < local_tiles {
        let jt1 = (jt0 + nc_tiles).min(local_tiles);
        let mut k0 = 0usize;
        while k0 < k {
            let klen = cfg.kc.min(k - k0);
            {
                let mut pack_span = tracer.span("pack B panel", track);
                pack_span.set_label(|| format!("k [{k0}..{}) x {} tiles", k0 + klen, jt1 - jt0));
                pack_b_panel(b, n, col0 + jt0 * NB, jt1 - jt0, k0, klen, panel);
            }
            let mut tile_span = tracer.span("gemm tile", track);
            tile_span.set_label(|| format!("jt [{jt0}..{jt1}) k0 {k0}"));
            for jt in jt0..jt1 {
                let panel_base = (jt - jt0) * klen * NB;
                let b_run = &panel[panel_base..panel_base + klen * NB];
                for ti in 0..a_tiles {
                    let a_run = &pa.data[(ti * k + k0) * NA..][..klen * NA];
                    let mut acc = [0i32; TILE_LEN];
                    if scheme.kind() == SchemeKind::Mla {
                        accumulate_mla(scheme, a_run, b_run, &mut acc);
                    } else {
                        accumulate_block(a_run, b_run, run, &mut acc);
                    }
                    add_scatter(c, &acc, m, cols, jt, ti);
                }
            }
            k0 += klen;
        }
        jt0 = jt1;
    }
}

/// Longest run of K steps whose i16 partial sums cannot wrap:
/// `i16::MAX / max|a·b|` (8191 at W2, 511 at W4, 2 at W8).
///
/// The licence chain: `QTensor::new` asserts every operand lies inside its
/// `BitWidth` range, im2col adds only zero padding, and the engine resolves
/// `scheme` from the wider of the two operand widths, so every product obeys
/// `|a·b| <= scheme.max_product()`. A partial summed over at most `run`
/// steps then obeys `|partial| <= run · max_product <= i16::MAX`: it is the
/// exact integer sum, and so is its widening into i32.
pub fn proven_run(scheme: &Scheme) -> usize {
    (i16::MAX as i32 / scheme.max_product()) as usize
}

/// The proof-licensed block kernel: one 16x4 micro-tile over a whole K
/// block, adding into the column-major `acc32` (`acc32[c * NA + r]`).
///
/// `a` is the contiguous packed-A run (`klen` steps of [`NA`] rows), `b` the
/// matching panel run (`klen` steps of [`NB`] columns). Each step adds one
/// product to every i16 lane (one lane per row and column); after `run` steps
/// (see [`proven_run`]) the lanes widen into i32. No lane sums more than
/// `run` in-range products, so for in-range operands the result equals the
/// lane-exact kernels and [`crate::gemm::reference_gemm`] bit for bit; only
/// the drain cadence differs.
///
/// Even at W8, where `run` is 2, it is much faster than the lane-emulating
/// loops it replaced (x86-64 Xeon, one thread): 3.5-7 ms against 20-30 ms on
/// a 256x576x196 GEMM.
fn accumulate_block(a: &[i8], b: &[i8], run: usize, acc32: &mut [i32; TILE_LEN]) {
    let (a_steps, a_tail) = a.as_chunks::<NA>();
    let (b_steps, b_tail) = b.as_chunks::<NB>();
    debug_assert!(a_tail.is_empty() && b_tail.is_empty());
    debug_assert_eq!(a_steps.len(), b_steps.len());
    for (a_run, b_run) in a_steps.chunks(run).zip(b_steps.chunks(run)) {
        let mut acc16 = [[0i16; NA]; NB];
        for (av, bv) in a_run.iter().zip(b_run) {
            let a16 = av.map(i16::from);
            for (col, &y) in acc16.iter_mut().zip(bv) {
                let y = i16::from(y);
                for (acc, &x) in col.iter_mut().zip(&a16) {
                    *acc = acc.wrapping_add(x * y);
                }
            }
        }
        for (out, col) in acc32.chunks_exact_mut(NA).zip(&acc16) {
            for (w, &p) in out.iter_mut().zip(col) {
                *w = w.wrapping_add(i32::from(p));
            }
        }
    }
}

/// Packs the `klen x (tiles * NB)` sub-block of row-major B starting at row
/// `k0`, column `col_base` into panel layout
/// `panel[(tile * klen + step) * NB + c]` (columns past `n` zero-padded).
fn pack_b_panel(
    b: &[i8],
    n: usize,
    col_base: usize,
    tiles: usize,
    k0: usize,
    klen: usize,
    panel: &mut Vec<i8>,
) {
    panel.clear();
    panel.resize(tiles * klen * NB, 0);
    for tile in 0..tiles {
        let first = col_base + tile * NB;
        let width = NB.min(n.saturating_sub(first));
        for step in 0..klen {
            let dst = (tile * klen + step) * NB;
            let src = (k0 + step) * n + first;
            panel[dst..dst + width].copy_from_slice(&b[src..src + width]);
        }
    }
}

/// Adds a column-major 16x4 micro-tile into the thread's column-major C
/// slice, clipping the padded rows and columns.
fn add_scatter(c: &mut [i32], tile: &[i32; TILE_LEN], m: usize, cols: usize, jt: usize, ti: usize) {
    let rows = NA.min(m - ti * NA);
    for (j, t) in (jt * NB..cols).zip(tile.chunks_exact(NA)) {
        let col = &mut c[j * m + ti * NA..][..rows];
        for (w, &v) in col.iter_mut().zip(t) {
            *w = w.wrapping_add(v);
        }
    }
}

/// One-shot parallel GEMM: packs A, runs [`gemm_parallel_cm`] into a fresh
/// workspace and transposes to the row-major layout of [`GemmOutput`].
///
/// The modeled schedule is thread-agnostic (same stages as the serial
/// [`crate::gemm::gemm`]); wall-clock scaling is reported by the benchmark
/// suite, not the cost model.
pub fn gemm_parallel(
    scheme: &Scheme,
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    cfg: &ParallelConfig,
) -> GemmOutput {
    let pa = pack_a(a, m, k);
    let mut ws = GemmWorkspace::new();
    let c_cm = gemm_parallel_cm(scheme, &pa, b, k, n, cfg, &mut ws);
    let mut c = vec![0i32; m * n];
    for j in 0..n {
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            row[j] = c_cm[j * m + i];
        }
    }
    GemmOutput { m, n, c, schedule: schedule_gemm(scheme, m, k, n) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, reference_gemm};
    use crate::micro::run_tile;
    use crate::narrow::{gemm_narrow, pack_a_narrow, run_tile_narrow, NA8};
    use crate::pack::pack_b;
    use lowbit_tensor::BitWidth;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(len: usize, bits: BitWidth, seed: u64) -> Vec<i8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.gen_range(bits.qmin() as i32..=bits.qmax() as i32) as i8)
            .collect()
    }

    fn to_row_major(c_cm: &[i32], m: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for j in 0..n {
            for i in 0..m {
                c[i * n + j] = c_cm[j * m + i];
            }
        }
        c
    }

    #[test]
    fn parallel_matches_serial_for_all_bit_widths_and_thread_counts() {
        for bits in BitWidth::ALL {
            let scheme = Scheme::for_bits(bits);
            let (m, k, n) = (21, 67, 19);
            let a = random_mat(m * k, bits, 100 + bits.bits() as u64);
            let b = random_mat(k * n, bits, 200 + bits.bits() as u64);
            let serial = gemm(&scheme, &a, &b, m, k, n);
            for threads in [1, 2, 3, 4] {
                let cfg = ParallelConfig { threads, kc: 16, nc: 8 };
                let par = gemm_parallel(&scheme, &a, &b, m, k, n, &cfg);
                assert_eq!(par.c, serial.c, "{bits} x{threads}");
            }
        }
    }

    /// A layer planned on the narrow 8x4 tile executes on the 16-row layout:
    /// the result still equals the serial narrow kernel's.
    #[test]
    fn sixteen_row_layout_matches_serial_narrow() {
        let bits = BitWidth::W8;
        let scheme = Scheme::for_bits(bits);
        let (m, k, n) = (13, 40, 9);
        let a = random_mat(m * k, bits, 7);
        let b = random_mat(k * n, bits, 8);
        let serial = gemm_narrow(&scheme, &a, &b, m, k, n);
        let pa = pack_a(&a, m, k);
        for threads in [1, 2, 3] {
            let cfg = ParallelConfig { threads, kc: 7, nc: 4 };
            let mut ws = GemmWorkspace::new();
            let c_cm = gemm_parallel_cm(&scheme, &pa, &b, k, n, &cfg, &mut ws);
            assert_eq!(to_row_major(c_cm, m, n), serial.c, "x{threads}");
        }
    }

    /// Worst-case operands: every product is `±bits.max_abs_product()`, and
    /// within a column every product has the same sign, so each i16 partial
    /// reaches `run · max_product` exactly at the licensed drain point.
    fn worst_case_operands(bits: BitWidth, m: usize, k: usize, n: usize) -> (Vec<i8>, Vec<i8>) {
        let v = bits.qmin(); // |qmin| is the largest magnitude in range
        let flip = if -(v as i32) <= bits.qmax() as i32 { -v } else { v };
        let a = vec![v; m * k];
        let b = (0..k * n).map(|i| if (i % n).is_multiple_of(2) { v } else { flip }).collect();
        (a, b)
    }

    /// Row-major C assembled from a lane-exact per-tile oracle.
    fn lane_exact(
        tile: impl Fn(usize, usize) -> Vec<i32>,
        rows: usize,
        m: usize,
        n: usize,
    ) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for tj in 0..n.div_ceil(NB) {
            for ti in 0..m.div_ceil(rows) {
                let t = tile(ti, tj);
                for (j, col) in (tj * NB..n).take(NB).zip(t.chunks_exact(rows)) {
                    for (i, &v) in (ti * rows..m).zip(col) {
                        c[i * n + j] = v;
                    }
                }
            }
        }
        c
    }

    /// Checks `gemm_parallel_cm` at one and four threads, default and
    /// one-block (`kc = K`) blocking, against `reference_gemm`, which the
    /// lane-exact 16x4 tiles (and the modeled 8x4 tiles at the SMLAL widths)
    /// must equal too.
    fn check_against_oracles(bits: BitWidth, a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
        let scheme = Scheme::for_bits(bits);
        let narrow = scheme.kind() == SchemeKind::Smlal8;
        let want = reference_gemm(a, b, m, k, n);
        let (pa, pb, pan) = (pack_a(a, m, k), pack_b(b, k, n), pack_a_narrow(a, m, k));
        let oracle = lane_exact(|ti, tj| run_tile(&scheme, &pa, &pb, ti, tj), NA, m, n);
        assert_eq!(oracle, want, "{bits} K={k}: lane-exact oracle");
        if narrow {
            let oracle8 =
                lane_exact(|ti, tj| run_tile_narrow(&scheme, &pan, &pb, ti, tj), NA8, m, n);
            assert_eq!(oracle8, want, "{bits} K={k}: narrow oracle");
        }
        for threads in [1, 4] {
            for kc in [DEFAULT_KC, k] {
                let cfg = ParallelConfig { threads, kc, nc: DEFAULT_NC };
                let label = format!("{bits} K={k} x{threads} kc={kc}");
                let mut ws = GemmWorkspace::new();
                let got = gemm_parallel_cm(&scheme, &pa, b, k, n, &cfg, &mut ws);
                assert_eq!(to_row_major(got, m, n), want, "{label}");
            }
        }
    }

    /// The executed path at every width (the MLA form at W2/W3, the block
    /// kernel above): drains land before, on and after the proven run, and
    /// on K-block boundaries (`kc + run + 1`). Worst-case operands push every partial to its
    /// bound; random ones catch lane and offset mix-ups that constant
    /// operands cannot show.
    #[test]
    fn block_kernel_is_exact_on_worst_case_operands() {
        let (m, n) = (17, 6);
        for bits in BitWidth::ALL {
            let run = proven_run(&Scheme::for_bits(bits));
            for k in [run - 1, run, run + 1, DEFAULT_KC + run + 1].into_iter().filter(|&k| k > 0) {
                let (a, b) = worst_case_operands(bits, m, k, n);
                assert_eq!((a[0] as i32 * b[0] as i32).abs(), bits.max_abs_product());
                check_against_oracles(bits, &a, &b, m, k, n);
                let seed = 300 + k as u64;
                let (a, b) = (random_mat(m * k, bits, seed), random_mat(k * n, bits, seed + 1));
                check_against_oracles(bits, &a, &b, m, k, n);
            }
        }
    }

    /// The kernel alone against the lane-exact 16x4 tile at every width,
    /// including W8 where it widens after every second step, and at the
    /// SMLAL widths against the two modeled 8x4 tiles that cover its rows.
    #[test]
    fn block_kernel_matches_lane_exact_tiles_at_every_run() {
        let (m, n) = (16, 4);
        for bits in BitWidth::ALL {
            let scheme = Scheme::for_bits(bits);
            let run = proven_run(&scheme);
            for k in [1, run, run + 1, 2 * run + 3] {
                let random = (random_mat(m * k, bits, k as u64), random_mat(k * n, bits, 7));
                for (a, b) in [worst_case_operands(bits, m, k, n), random] {
                    let (pa, pb) = (pack_a(&a, m, k), pack_b(&b, k, n));
                    let mut wide = [0i32; TILE_LEN];
                    accumulate_block(&pa.data, &pb.data, run, &mut wide);
                    assert_eq!(wide.to_vec(), run_tile(&scheme, &pa, &pb, 0, 0), "{bits} K={k}");
                    if scheme.kind() != SchemeKind::Smlal8 {
                        continue;
                    }
                    let pan = pack_a_narrow(&a, m, k);
                    for ti in 0..2 {
                        let want = run_tile_narrow(&scheme, &pan, &pb, ti, 0);
                        for (c, col) in want.chunks_exact(NA8).enumerate() {
                            let rows = &wide[c * NA + ti * NA8..][..NA8];
                            assert_eq!(rows, col, "{bits} K={k} narrow tile {ti} col {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn more_threads_than_column_tiles_still_works() {
        let bits = BitWidth::W4;
        let scheme = Scheme::for_bits(bits);
        let (m, k, n) = (5, 12, 3); // one column tile
        let a = random_mat(m * k, bits, 31);
        let b = random_mat(k * n, bits, 32);
        let serial = gemm(&scheme, &a, &b, m, k, n);
        let par = gemm_parallel(&scheme, &a, &b, m, k, n, &ParallelConfig::with_threads(8));
        assert_eq!(par.c, serial.c);
    }

    #[test]
    fn workspace_is_reused_across_calls() {
        let bits = BitWidth::W4;
        let scheme = Scheme::for_bits(bits);
        let (m, k, n) = (16, 64, 24);
        let a = random_mat(m * k, bits, 41);
        let b = random_mat(k * n, bits, 42);
        let pa = pack_a(&a, m, k);
        let cfg = ParallelConfig { threads: 2, kc: 32, nc: 8 };
        let mut ws = GemmWorkspace::new();
        let serial = gemm(&scheme, &a, &b, m, k, n);
        for call in 0..4 {
            let c_cm = gemm_parallel_cm(&scheme, &pa, &b, k, n, &cfg, &mut ws);
            assert_eq!(to_row_major(c_cm, m, n), serial.c, "call {call}");
        }
        let stats = ws.stats();
        assert_eq!(stats.calls, 4);
        assert_eq!(stats.alloc_events, 1, "only the first call may allocate");
        assert!(stats.high_water_bytes >= m * n * 4);
    }

    #[test]
    fn partition_is_disjoint_covering_and_aligned() {
        for n in [0usize, 1, 3, 4, 5, 16, 17, 64, 127, 1000] {
            for threads in [1usize, 2, 3, 5, 8, 16, 99] {
                let spans = partition_columns(n, threads);
                assert_eq!(
                    spans.len(),
                    threads.clamp(1, MAX_THREADS),
                    "n={n} t={threads}: one span per requested thread"
                );
                let mut next = 0usize;
                for s in &spans {
                    assert_eq!(s.col0, next, "n={n} t={threads}: contiguous");
                    if s.cols > 0 {
                        assert!(s.col0 % NB == 0, "interior boundaries NB-aligned");
                    }
                    next = s.end();
                }
                assert_eq!(next, n, "n={n} t={threads}: covers the output");
            }
        }
    }

    #[test]
    fn degenerate_thread_counts_emit_wellformed_empty_spans() {
        // n = 3 is a single column tile; threads 8 must still yield 8 spans,
        // with the 7 surplus spans empty and parked at the partition cursor.
        let spans = partition_columns(3, 8);
        assert_eq!(spans.len(), 8);
        let nonempty: Vec<_> = spans.iter().filter(|s| s.cols > 0).collect();
        assert_eq!(nonempty.len(), 1);
        assert_eq!((nonempty[0].col0, nonempty[0].cols), (0, 3));
        for s in spans.iter().skip(1) {
            assert_eq!((s.col0, s.cols), (3, 0), "empty spans sit at col0 == n");
        }
        // Empty spans never precede work: the non-empty prefix is contiguous.
        for w in spans.windows(2) {
            assert!(w[0].cols > 0 || w[1].cols == 0, "no work after an empty span");
        }
        // n = 0: every span is the well-formed empty span at the origin.
        for s in partition_columns(0, 5) {
            assert_eq!((s.col0, s.cols, s.end()), (0, 0, 0));
        }
    }

    #[test]
    fn partition_balances_tiles_within_one() {
        let spans = partition_columns(100, 3); // 25 tiles over 3 threads
        let tiles: Vec<usize> = spans.iter().map(|s| s.cols.div_ceil(NB)).collect();
        assert_eq!(tiles.iter().sum::<usize>(), 25);
        assert!(tiles.iter().max().unwrap() - tiles.iter().min().unwrap() <= 1);
    }

    #[test]
    fn env_thread_count_is_clamped() {
        // Don't mutate the environment (other tests run concurrently);
        // exercise the clamp via the config instead.
        assert_eq!(ParallelConfig::with_threads(0).threads, 1);
        assert_eq!(ParallelConfig::with_threads(999).threads, MAX_THREADS);
        let normalized = ParallelConfig { threads: 2, kc: 0, nc: 5 }.normalized();
        assert_eq!(normalized.kc, 1);
        assert_eq!(normalized.nc, 8);
    }

    #[test]
    fn threads_from_str_handles_edge_cases() {
        // Unset and garbage values fall back to a single thread.
        assert_eq!(threads_from_str(None), 1);
        assert_eq!(threads_from_str(Some("")), 1);
        assert_eq!(threads_from_str(Some("abc")), 1);
        assert_eq!(threads_from_str(Some("-3")), 1);
        assert_eq!(threads_from_str(Some("2.5")), 1);
        // Zero is a request, but an unservable one: clamp up to 1.
        assert_eq!(threads_from_str(Some("0")), 1);
        // Whitespace-tolerant ordinary values pass through.
        assert_eq!(threads_from_str(Some("3")), 3);
        assert_eq!(threads_from_str(Some(" 8 \n")), 8);
        // Absurdly large values clamp to the supported maximum.
        assert_eq!(threads_from_str(Some("99999")), MAX_THREADS);
        assert_eq!(threads_from_str(Some("170141183460469231731687303715884105727")), 1);
    }

    #[test]
    fn traced_gemm_records_worker_tracks_and_matches_untraced() {
        let bits = BitWidth::W4;
        let scheme = Scheme::for_bits(bits);
        let (m, k, n) = (16, 64, 24);
        let a = random_mat(m * k, bits, 51);
        let b = random_mat(k * n, bits, 52);
        let pa = pack_a(&a, m, k);
        let cfg = ParallelConfig { threads: 3, kc: 32, nc: 8 };

        let mut ws = GemmWorkspace::new();
        let plain =
            gemm_parallel_cm(&scheme, &pa, &b, k, n, &cfg, &mut ws).to_vec();

        let (tracer, sink) = lowbit_trace::Tracer::recording();
        let mut ws2 = GemmWorkspace::new();
        let traced = gemm_parallel_cm_traced(
            &scheme,
            &pa,
            &b,
            k,
            n,
            &cfg,
            &mut ws2,
            &tracer,
        )
        .to_vec();
        assert_eq!(traced, plain, "tracing must not change the result");

        let cap = sink.capture();
        let spans: Vec<ColumnSpan> =
            partition_columns(n, cfg.threads).into_iter().filter(|s| s.cols > 0).collect();
        assert_eq!(cap.tracks.len(), 1 + spans.len(), "one track per active worker plus main");
        for span in &spans {
            let name = format!("gemm worker [{}..{})", span.col0, span.end());
            let track = cap.track_id(&name).unwrap_or_else(|| panic!("missing track {name}"));
            let on_track: Vec<_> = cap.spans_on(track).collect();
            let outer = on_track
                .iter()
                .find(|s| s.name == "gemm worker")
                .expect("worker span on its track");
            assert!(on_track.iter().any(|s| s.name == "pack B panel"));
            assert!(on_track.iter().any(|s| s.name == "gemm tile"));
            // Children nest inside the worker span on its own timeline.
            for child in on_track.iter().filter(|s| s.name != "gemm worker") {
                assert!(child.start_ns >= outer.start_ns && child.end_ns() <= outer.end_ns());
            }
        }
    }
}
