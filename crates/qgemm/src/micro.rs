//! The register-tiled micro-kernels (paper Alg. 1 and the 2–3-bit variant).
//!
//! Each micro-kernel exists in **three consistent forms**:
//!
//! 1. [`run_tile`] — a functional implementation with the exact lane
//!    semantics of the NEON instructions (wrapping i8/i16 accumulation at
//!    the published drain ratios): the lane-exact oracle;
//! 2. [`tile_counts`] — analytic instruction counts for the same shape, fed to
//!    the cost model;
//! 3. [`emit_tile`] — the actual instruction stream for the `neon-sim`
//!    interpreter, used by tests to prove (1) and (2) faithful: the
//!    interpreted output must equal the functional output, and the
//!    interpreter's instruction counters must equal the analytic counts.
//!
//! The parallel GEMM driver (`crate::parallel`, which runs every im2col GEMM
//! of the ARM engine on the 16-row layout) runs (1)'s MLA arithmetic at the
//! MLA widths (W2, W3), one call per K block. At the SMLAL widths (W4-W8)
//! its worker runs a proof-licensed i16 block kernel instead
//! (`crate::parallel::proven_run`): since every operand lies in its
//! `BitWidth` range, i16 partials stay exact for `i16::MAX / max|a·b|`
//! steps (511 at W4, 2 at W8), so that kernel drains that rarely and
//! still matches (1) bit for bit. Layers planned on the narrow 8x4 tile
//! (`crate::narrow`) run it too: on the host the 8x4 tile is a modeled
//! register allocation. The serial [`crate::gemm::gemm`] /
//! `gemm_narrow`, and with them Winograd's per-position GEMMs, execute (1)
//! at layer scale. The modeled numbers come from (2) on every path.
//!
//! Register allocation follows the paper:
//!
//! * **SMLAL scheme** (4–8 bit, 16x4 tile): `v0/v1` read A, `v2..v9` read B,
//!   `v10..v17` hold i16 partials, `v18..v31` plus `x0..x3` hold the i32
//!   result (two result registers spill to general registers — the `MOV`
//!   dance of Alg. 1 lines 9–13).
//! * **MLA scheme** (2–3 bit, 16x4 tile): `v0..v3` read A, `v4..v7` read B,
//!   `v8..v11` hold i8 partials, `v12..v19` i16 partials, `v20..v31` plus
//!   `x0..x7` the i32 result.
//! * **ncnn-like baseline** (8x4 tile): pre-widened i16 operands,
//!   `SMLAL vd.4s` accumulates directly into i32 in `v10..v17` — no drains,
//!   no spills.

#![allow(clippy::field_reassign_with_default)] // InstCounts builders read clearer this way

use crate::pack::{PackedA, PackedA16, PackedB, PackedB16, NA, NB, NCNN_NA};
use crate::scheme::{Scheme, SchemeKind};
use neon_sim::inst::{Half, Inst};
use neon_sim::InstCounts;

/// Elements in the 16x4 i32 result tile.
pub const TILE_LEN: usize = NA * NB;
/// Elements in the ncnn-like 8x4 result tile.
pub const NCNN_TILE_LEN: usize = NCNN_NA * NB;

/// Runs one 16x4 micro-tile functionally.
///
/// Output layout is column-major quarters, matching the register store order
/// of the emitter: `out[col * 16 + row]`.
pub fn run_tile(scheme: &Scheme, pa: &PackedA, pb: &PackedB, ti: usize, tj: usize) -> Vec<i32> {
    assert_eq!(pa.k, pb.k, "packed operands disagree on K");
    let mut acc32 = [0i32; TILE_LEN];
    match scheme.kind() {
        SchemeKind::Smlal8 => accumulate_smlal(scheme, pa, pb, ti, tj, &mut acc32),
        SchemeKind::Mla => {
            let a = &pa.data[ti * pa.k * NA..][..pa.k * NA];
            accumulate_mla(scheme, a, &pb.data[tj * pb.k * NB..][..pb.k * NB], &mut acc32)
        }
        SchemeKind::Ncnn16 => panic!("Ncnn16 uses run_tile_ncnn on widened operands"),
    }
    acc32.to_vec()
}

fn accumulate_smlal(
    scheme: &Scheme,
    pa: &PackedA,
    pb: &PackedB,
    ti: usize,
    tj: usize,
    acc32: &mut [i32; TILE_LEN],
) {
    let ratio = scheme.ratio();
    let mut acc16 = [0i16; TILE_LEN];
    let mut since_flush = 0usize;
    for kk in 0..pa.k {
        let (a, b) = (pa.slice(ti, kk), pb.slice(tj, kk));
        for c in 0..NB {
            let bv = b[c] as i16;
            let col = &mut acc16[c * NA..(c + 1) * NA];
            for (acc, &av) in col.iter_mut().zip(a) {
                // SMLAL: widening multiply (always fits i16), wrapping add.
                *acc = acc.wrapping_add(av as i16 * bv);
            }
        }
        since_flush += 1;
        if since_flush == ratio {
            drain16(acc32, &mut acc16);
            since_flush = 0;
        }
    }
    if since_flush > 0 {
        drain16(acc32, &mut acc16);
    }
}

/// The MLA + SADDW lane arithmetic over one tile's contiguous operand runs:
/// `a` holds `k` steps of [`NA`] packed-A rows, `b` the matching `k` steps
/// of [`NB`] packed-B columns. i8 lanes take one wrapping product per step
/// for `scheme.ratio()` steps and widen into i16 lanes, which widen into
/// `acc32` after `scheme.ratio2()` such drains; both counts run from the
/// start of `a`. The scheme derives the ratios from the operand bound (31
/// and 264 at W2), so no lane wraps for in-range operands.
///
/// [`run_tile`] runs it over whole packed operands; the parallel worker
/// runs it over each K block at the MLA widths. It stays out of line: the
/// worker's timings behind that choice (see `crate::parallel`) are of this
/// stand-alone code, and inlining changes how the compiler vectorizes it.
#[inline(never)]
pub(crate) fn accumulate_mla(scheme: &Scheme, a: &[i8], b: &[i8], acc32: &mut [i32; TILE_LEN]) {
    debug_assert_eq!(a.len() / NA, b.len() / NB);
    let (r1, r2) = (scheme.ratio(), scheme.ratio2());
    let (a_steps, _) = a.as_chunks::<NA>();
    let (b_steps, _) = b.as_chunks::<NB>();
    let per16 = r1.saturating_mul(r2);
    for (a16, b16) in a_steps.chunks(per16).zip(b_steps.chunks(per16)) {
        let mut acc16 = [0i16; TILE_LEN];
        for (a8, b8) in a16.chunks(r1).zip(b16.chunks(r1)) {
            let mut acc8 = [0i8; TILE_LEN];
            for (av, bv) in a8.iter().zip(b8) {
                for c in 0..NB {
                    let y = bv[c];
                    for (acc, &x) in acc8[c * NA..(c + 1) * NA].iter_mut().zip(av) {
                        // MLA: non-widening i8 multiply-accumulate, both wrapping.
                        *acc = acc.wrapping_add(x.wrapping_mul(y));
                    }
                }
            }
            // SADDW: i8 partials into i16.
            for (h, &l) in acc16.iter_mut().zip(&acc8) {
                *h = h.wrapping_add(i16::from(l));
            }
        }
        // SADDW: i16 partials into i32.
        for (w, &h) in acc32.iter_mut().zip(&acc16) {
            *w = w.wrapping_add(i32::from(h));
        }
    }
}

/// SADDW level: i16 partials into i32, then clear (MOVI).
fn drain16(acc32: &mut [i32; TILE_LEN], acc16: &mut [i16; TILE_LEN]) {
    for (w, n) in acc32.iter_mut().zip(acc16.iter_mut()) {
        *w = w.wrapping_add(*n as i32);
        *n = 0;
    }
}

/// Runs one ncnn-like 8x4 micro-tile on pre-widened operands.
///
/// Output layout: `out[col * 8 + row]`.
pub fn run_tile_ncnn(pa: &PackedA16, pb: &PackedB16, ti: usize, tj: usize) -> Vec<i32> {
    assert_eq!(pa.k, pb.k);
    let k = pa.k;
    let mut acc32 = [0i32; NCNN_TILE_LEN];
    for kk in 0..k {
        let a = pa.slice(ti, kk);
        let b = pb.slice(tj, kk);
        for c in 0..NB {
            let bv = b[c] as i32;
            let col = &mut acc32[c * NCNN_NA..(c + 1) * NCNN_NA];
            for (acc, &av) in col.iter_mut().zip(a) {
                *acc = acc.wrapping_add(av as i32 * bv);
            }
        }
    }
    acc32.to_vec()
}

/// Number of first-level drains a K-loop of length `k` performs.
fn drain_count(k: usize, ratio: usize) -> usize {
    if ratio == usize::MAX {
        0
    } else {
        k.div_ceil(ratio)
    }
}

/// Number of second-level drains for the MLA scheme.
fn drain2_count(k: usize, r1: usize, r2: usize) -> usize {
    drain_count(k, r1).div_ceil(r2).max(1)
}

/// Analytic instruction counts for one 16x4 micro-tile with a K-loop of
/// length `k` (must match [`emit_tile`] exactly; enforced by tests).
pub fn tile_counts(scheme: &Scheme, k: usize) -> InstCounts {
    assert!(k > 0);
    let mut c = InstCounts::default();
    match scheme.kind() {
        SchemeKind::Smlal8 => {
            let nf = drain_count(k, scheme.ratio()) as u64;
            c.loads = 2 * k as u64; // LD1 (A) + LD4R (B) per step
            c.load_bytes = 20 * k as u64; // 16 + 4 bytes
            c.neon_mac = 8 * k as u64; // SMLAL/SMULL(2) x 4 columns
            c.neon_alu = 16 * nf; // SADDW(2): one per i32 result register
            c.neon_mov = 8 * nf + 4 + 19; // drains + store restores + zeroing prologue
            c.stores = 16; // ST1 x 16 result registers
            c.store_bytes = 16 * 16;
        }
        SchemeKind::Mla => {
            let nf1 = drain_count(k, scheme.ratio()) as u64;
            let nf2 = drain2_count(k, scheme.ratio(), scheme.ratio2()) as u64;
            c.loads = 2 * k as u64;
            c.load_bytes = 20 * k as u64;
            c.neon_mac = 4 * k as u64; // MLA/MUL x 4 columns (16 lanes each)
            c.neon_alu = 8 * nf1 + 16 * nf2; // SADDW8/SSHLL per drain1, SADDW16 per drain2
            c.neon_mov = 16 * nf2 + 8 + 21; // drain2 spills + restores + zeroing prologue
            c.stores = 16;
            c.store_bytes = 16 * 16;
        }
        SchemeKind::Ncnn16 => {
            c.loads = 2 * k as u64; // LD1 (8 x i16) + LD4R.8h
            c.load_bytes = 24 * k as u64; // 16 + 8 bytes
            c.neon_mac = 8 * k as u64; // SMLAL(2).4s x 4 columns
            c.neon_mov = 8; // accumulator zeroing prologue
            c.stores = 8;
            c.store_bytes = 8 * 16;
        }
    }
    c
}

/// Emits the instruction stream for one 16x4 micro-tile.
///
/// The packed A tile must be at `addr_a` (`k * 16` bytes), the packed B tile
/// at `addr_b` (`k * 4` bytes), and the 256-byte i32 result tile is stored to
/// `addr_c` in the same `out[col*16+row]` layout as [`run_tile`].
pub fn emit_tile(scheme: &Scheme, k: usize, addr_a: u32, addr_b: u32, addr_c: u32) -> Vec<Inst> {
    match scheme.kind() {
        SchemeKind::Smlal8 => emit_tile_smlal(scheme, k, addr_a, addr_b, addr_c),
        SchemeKind::Mla => emit_tile_mla(scheme, k, addr_a, addr_b, addr_c),
        SchemeKind::Ncnn16 => panic!("Ncnn16 uses emit_tile_ncnn"),
    }
}

fn emit_tile_smlal(
    scheme: &Scheme,
    k: usize,
    addr_a: u32,
    addr_b: u32,
    addr_c: u32,
) -> Vec<Inst> {
    assert!(k > 0);
    let ratio = scheme.ratio();
    let mut prog = Vec::new();
    // acc32 register for result index `idx = col*4 + quarter`:
    // idx < 14 lives in v18+idx, idx 14/15 are spilled to x0..x3 and
    // temporarily restored into v0/v1 during drains.
    let acc32_reg = |idx: usize| -> u8 {
        if idx < 14 {
            18 + idx as u8
        } else {
            (idx - 14) as u8 // v0 or v1
        }
    };
    let drain = |prog: &mut Vec<Inst>| {
        // Restore the two spilled result registers into v0/v1.
        for (i, (vd, lane)) in [(0u8, 0u8), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
            prog.push(Inst::MovXToD { vd: *vd, lane: *lane, xn: i as u8 });
        }
        for col in 0..NB {
            let lo = 10 + 2 * col as u8; // i16 rows 0..8
            let hi = 11 + 2 * col as u8; // i16 rows 8..16
            for quarter in 0..4 {
                let vd = acc32_reg(col * 4 + quarter);
                let (vm, half) = match quarter {
                    0 => (lo, Half::Low),
                    1 => (lo, Half::High),
                    2 => (hi, Half::Low),
                    _ => (hi, Half::High),
                };
                prog.push(Inst::Saddw16 { vd, vn: vd, vm, half });
            }
        }
        // Spill back; the i16 partials are *not* cleared — the first product
        // of the next interval uses SMULL, which overwrites them.
        for (i, (vn, lane)) in [(0u8, 0u8), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
            prog.push(Inst::MovDToX { xd: i as u8, vn: *vn, lane: *lane });
        }
    };

    // Prologue: zero the i32 accumulators and the spill registers (the
    // i8/i16 partials need no clearing — the first MAC of each interval
    // overwrites them via SMULL).
    prog.push(Inst::MoviZero { vd: 0 });
    for x in 0..4u8 {
        prog.push(Inst::MovDToX { xd: x, vn: 0, lane: 0 });
    }
    for vd in 18..32u8 {
        prog.push(Inst::MoviZero { vd });
    }

    let mut since_flush = 0usize;
    let mut fresh = true; // partials undefined: first MAC must overwrite
    for kk in 0..k {
        // Alternate the A/B register groups per the paper's prefetch
        // interleave (v0 with v2..v5, v1 with v6..v9).
        let (va, vb0) = if kk % 2 == 0 { (0u8, 2u8) } else { (1u8, 6u8) };
        prog.push(Inst::Ld1 { vt: va, addr: addr_a + (kk * NA) as u32 });
        prog.push(Inst::Ld4r { vt: vb0, addr: addr_b + (kk * NB) as u32 });
        for col in 0..NB {
            let lo = 10 + 2 * col as u8;
            let hi = 11 + 2 * col as u8;
            let vm = vb0 + col as u8;
            if fresh {
                prog.push(Inst::Smull8 { vd: lo, vn: va, vm, half: Half::Low });
                prog.push(Inst::Smull8 { vd: hi, vn: va, vm, half: Half::High });
            } else {
                prog.push(Inst::Smlal8 { vd: lo, vn: va, vm, half: Half::Low });
                prog.push(Inst::Smlal8 { vd: hi, vn: va, vm, half: Half::High });
            }
        }
        fresh = false;
        since_flush += 1;
        if since_flush == ratio {
            drain(&mut prog);
            since_flush = 0;
            fresh = true;
        }
    }
    if since_flush > 0 {
        drain(&mut prog);
    }
    // Store: restore spilled registers, then 16 consecutive ST1.
    for (i, (vd, lane)) in [(0u8, 0u8), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
        prog.push(Inst::MovXToD { vd: *vd, lane: *lane, xn: i as u8 });
    }
    for idx in 0..16 {
        prog.push(Inst::St1 { vt: acc32_reg(idx), addr: addr_c + (idx * 16) as u32 });
    }
    prog
}

fn emit_tile_mla(scheme: &Scheme, k: usize, addr_a: u32, addr_b: u32, addr_c: u32) -> Vec<Inst> {
    assert!(k > 0);
    let (r1, r2) = (scheme.ratio(), scheme.ratio2());
    let mut prog = Vec::new();
    // acc32 index `idx = col*4 + quarter`: idx < 12 in v20+idx, idx 12..16
    // spilled across x0..x7, restored into scratch v0..v3 during drains.
    let acc32_reg = |idx: usize| -> u8 {
        if idx < 12 {
            20 + idx as u8
        } else {
            (idx - 12) as u8 // v0..v3
        }
    };
    let restore_spills = |prog: &mut Vec<Inst>| {
        for s in 0..4u8 {
            prog.push(Inst::MovXToD { vd: s, lane: 0, xn: 2 * s });
            prog.push(Inst::MovXToD { vd: s, lane: 1, xn: 2 * s + 1 });
        }
    };
    // First-level drain: i8 partials into i16. When the i16 partials are
    // fresh (first drain after a level-2 drain) SSHLL overwrites them instead
    // of SADDW accumulating — no explicit clears anywhere.
    let drain1 = |prog: &mut Vec<Inst>, fresh16: bool| {
        for col in 0..NB {
            let acc8 = 8 + col as u8;
            let lo16 = 12 + 2 * col as u8;
            let hi16 = 13 + 2 * col as u8;
            if fresh16 {
                prog.push(Inst::Sshll8 { vd: lo16, vn: acc8, half: Half::Low });
                prog.push(Inst::Sshll8 { vd: hi16, vn: acc8, half: Half::High });
            } else {
                prog.push(Inst::Saddw8 { vd: lo16, vn: lo16, vm: acc8, half: Half::Low });
                prog.push(Inst::Saddw8 { vd: hi16, vn: hi16, vm: acc8, half: Half::High });
            }
        }
    };
    let drain2 = |prog: &mut Vec<Inst>| {
        restore_spills(prog);
        for col in 0..NB {
            let lo16 = 12 + 2 * col as u8;
            let hi16 = 13 + 2 * col as u8;
            for quarter in 0..4 {
                let vd = acc32_reg(col * 4 + quarter);
                let (vm, half) = match quarter {
                    0 => (lo16, Half::Low),
                    1 => (lo16, Half::High),
                    2 => (hi16, Half::Low),
                    _ => (hi16, Half::High),
                };
                prog.push(Inst::Saddw16 { vd, vn: vd, vm, half });
            }
        }
        for s in 0..4u8 {
            prog.push(Inst::MovDToX { xd: 2 * s, vn: s, lane: 0 });
            prog.push(Inst::MovDToX { xd: 2 * s + 1, vn: s, lane: 1 });
        }
    };

    // Prologue: zero the i32 accumulators and the eight spill registers.
    prog.push(Inst::MoviZero { vd: 0 });
    for x in 0..8u8 {
        prog.push(Inst::MovDToX { xd: x, vn: 0, lane: 0 });
    }
    for vd in 20..32u8 {
        prog.push(Inst::MoviZero { vd });
    }

    let mut since8 = 0usize;
    let mut drains8 = 0usize;
    let mut fresh8 = true;
    let mut fresh16 = true;
    for kk in 0..k {
        let va = (kk % 4) as u8; // v0..v3 rotate over the 4-way unroll
        prog.push(Inst::Ld1 { vt: va, addr: addr_a + (kk * NA) as u32 });
        prog.push(Inst::Ld4r { vt: 4, addr: addr_b + (kk * NB) as u32 });
        for col in 0..NB {
            let (vd, vm) = (8 + col as u8, 4 + col as u8);
            if fresh8 {
                prog.push(Inst::Mul8 { vd, vn: va, vm });
            } else {
                prog.push(Inst::Mla8 { vd, vn: va, vm });
            }
        }
        fresh8 = false;
        since8 += 1;
        if since8 == r1 {
            drain1(&mut prog, fresh16);
            fresh16 = false;
            since8 = 0;
            fresh8 = true;
            drains8 += 1;
            if drains8 == r2 {
                drain2(&mut prog);
                drains8 = 0;
                fresh16 = true;
            }
        }
    }
    if since8 > 0 {
        drain1(&mut prog, fresh16);
        drains8 += 1;
    }
    if drains8 > 0 {
        drain2(&mut prog);
    }
    restore_spills(&mut prog);
    for idx in 0..16 {
        prog.push(Inst::St1 { vt: acc32_reg(idx), addr: addr_c + (idx * 16) as u32 });
    }
    prog
}

/// Emits the ncnn-like 8x4 micro-tile on pre-widened i16 operands.
///
/// The packed A tile (i16) must be at `addr_a` (`k * 16` bytes), B (i16) at
/// `addr_b` (`k * 8` bytes); the 128-byte result is stored to `addr_c` in the
/// `out[col*8+row]` layout of [`run_tile_ncnn`].
pub fn emit_tile_ncnn(k: usize, addr_a: u32, addr_b: u32, addr_c: u32) -> Vec<Inst> {
    assert!(k > 0);
    let mut prog = Vec::new();
    for vd in 10..18u8 {
        prog.push(Inst::MoviZero { vd });
    }
    for kk in 0..k {
        prog.push(Inst::Ld1 { vt: 0, addr: addr_a + (kk * 16) as u32 });
        prog.push(Inst::Ld4rH { vt: 2, addr: addr_b + (kk * 8) as u32 });
        for col in 0..NB {
            let lo = 10 + 2 * col as u8; // rows 0..4
            let hi = 11 + 2 * col as u8; // rows 4..8
            let vm = 2 + col as u8;
            prog.push(Inst::Smlal16 { vd: lo, vn: 0, vm, half: Half::Low });
            prog.push(Inst::Smlal16 { vd: hi, vn: 0, vm, half: Half::High });
        }
    }
    for idx in 0..8 {
        prog.push(Inst::St1 { vt: 10 + idx as u8, addr: addr_c + (idx * 16) as u32 });
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_a, pack_a16, pack_b, pack_b16};
    use lowbit_tensor::BitWidth;
    use neon_sim::{CortexA53, Machine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_operands(
        m: usize,
        k: usize,
        n: usize,
        bits: BitWidth,
        seed: u64,
    ) -> (Vec<i8>, Vec<i8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lo = bits.qmin() as i32;
        let hi = bits.qmax() as i32;
        let a = (0..m * k).map(|_| rng.gen_range(lo..=hi) as i8).collect();
        let b = (0..k * n).map(|_| rng.gen_range(lo..=hi) as i8).collect();
        (a, b)
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_tile(
        a: &[i8],
        b: &[i8],
        m: usize,
        k: usize,
        n: usize,
        ti: usize,
        tj: usize,
        rows: usize,
    ) -> Vec<i32> {
        // Plain i32 dot products over the logical (padded-with-zero) matrices.
        let mut out = vec![0i32; rows * NB];
        for c in 0..NB {
            for r in 0..rows {
                let row = ti * rows + r;
                let col = tj * NB + c;
                let mut acc = 0i32;
                for kk in 0..k {
                    let av = if row < m { a[row * k + kk] as i32 } else { 0 };
                    let bv = if col < n { b[kk * n + col] as i32 } else { 0 };
                    acc += av * bv;
                }
                out[c * rows + r] = acc;
            }
        }
        out
    }

    #[test]
    fn functional_tile_matches_reference_all_bit_widths() {
        for bits in BitWidth::ALL {
            let scheme = Scheme::for_bits(bits);
            let (m, k, n) = (21, 37, 9);
            let (a, b) = random_operands(m, k, n, bits, bits.bits() as u64);
            let pa = pack_a(&a, m, k);
            let pb = pack_b(&b, k, n);
            for ti in 0..pa.tiles() {
                for tj in 0..pb.tiles() {
                    let got = run_tile(&scheme, &pa, &pb, ti, tj);
                    let want = reference_tile(&a, &b, m, k, n, ti, tj, NA);
                    assert_eq!(got, want, "{bits} tile ({ti},{tj})");
                }
            }
        }
    }

    #[test]
    fn functional_tile_exercises_multiple_drains() {
        // K big enough that 8-bit (ratio 2) and 2-bit (ratio 31) both drain
        // many times, and 2-bit crosses a second-level drain boundary.
        for bits in [BitWidth::W2, BitWidth::W8] {
            let scheme = Scheme::for_bits(bits);
            let (m, k, n) = (16, 500, 4);
            let (a, b) = random_operands(m, k, n, bits, 99);
            let pa = pack_a(&a, m, k);
            let pb = pack_b(&b, k, n);
            let got = run_tile(&scheme, &pa, &pb, 0, 0);
            let want = reference_tile(&a, &b, m, k, n, 0, 0, NA);
            assert_eq!(got, want, "{bits}");
        }
    }

    #[test]
    fn ncnn_tile_matches_reference() {
        let (m, k, n) = (11, 29, 7);
        let (a, b) = random_operands(m, k, n, BitWidth::W8, 5);
        let pa = pack_a16(&a, m, k);
        let pb = pack_b16(&b, k, n);
        for ti in 0..pa.tiles() {
            for tj in 0..pb.tiles() {
                let got = run_tile_ncnn(&pa, &pb, ti, tj);
                let want = reference_tile(&a, &b, m, k, n, ti, tj, NCNN_NA);
                assert_eq!(got, want, "tile ({ti},{tj})");
            }
        }
    }

    /// Loads a packed tile into simulator memory, runs the emitted program
    /// and returns (result, interpreter counts).
    fn interpret_tile(
        scheme: &Scheme,
        pa: &PackedA,
        pb: &PackedB,
        ti: usize,
        tj: usize,
    ) -> (Vec<i32>, InstCounts) {
        let k = pa.k;
        let addr_a = 0u32;
        let addr_b = (k * NA) as u32;
        let addr_c = (k * NA + k * NB).next_multiple_of(16) as u32;
        let mem_len = addr_c as usize + TILE_LEN * 4 + 64;
        let mut machine = Machine::new(mem_len, CortexA53::cost_model());
        let a_tile = &pa.data[ti * k * NA..(ti + 1) * k * NA];
        let b_tile = &pb.data[tj * k * NB..(tj + 1) * k * NB];
        machine.write_mem_i8(addr_a as usize, a_tile);
        machine.write_mem_i8(addr_b as usize, b_tile);
        let prog = emit_tile(scheme, k, addr_a, addr_b, addr_c);
        machine.run(&prog);
        (
            machine.read_mem_i32(addr_c as usize, TILE_LEN),
            machine.stats().counts,
        )
    }

    #[test]
    fn emitted_kernel_matches_functional_and_counts() {
        for bits in BitWidth::ALL {
            let scheme = Scheme::for_bits(bits);
            // K chosen to hit drains mid-loop *and* a remainder drain.
            let k = match bits.bits() {
                2 => 70,  // two full level-1 drains + remainder
                3 => 23,  // three full drains + remainder
                _ => (scheme.ratio().min(64) * 2 + 1).min(200),
            };
            let (m, n) = (16, 4);
            let (a, b) = random_operands(m, k, n, bits, 1000 + bits.bits() as u64);
            let pa = pack_a(&a, m, k);
            let pb = pack_b(&b, k, n);
            let functional = run_tile(&scheme, &pa, &pb, 0, 0);
            let (interpreted, counts) = interpret_tile(&scheme, &pa, &pb, 0, 0);
            assert_eq!(interpreted, functional, "{bits}: interpreter vs functional");
            let analytic = tile_counts(&scheme, k);
            assert_eq!(counts, analytic, "{bits}: interpreter vs analytic counts");
        }
    }

    #[test]
    fn emitted_mla_kernel_crosses_second_level_drain() {
        // 3-bit: r1 = 7, r2 = 292 would need K ~ 2044 to cross naturally;
        // shrink r2 artificially via a custom product bound to prove the
        // drain2 plumbing: bound 16 with ratio2 forced small is not
        // constructible through the public API, so use 2-bit with K > 31*r2.
        let scheme = Scheme::for_bits(BitWidth::W2);
        assert!(scheme.ratio2() >= 2);
        let k = scheme.ratio() * scheme.ratio2() + 5; // crosses one drain2 boundary
        let (m, n) = (16, 4);
        let (a, b) = random_operands(m, k, n, BitWidth::W2, 77);
        let pa = pack_a(&a, m, k);
        let pb = pack_b(&b, k, n);
        let functional = run_tile(&scheme, &pa, &pb, 0, 0);
        let want = reference_tile(&a, &b, m, k, n, 0, 0, NA);
        assert_eq!(functional, want);
        let (interpreted, counts) = interpret_tile(&scheme, &pa, &pb, 0, 0);
        assert_eq!(interpreted, functional);
        assert_eq!(counts, tile_counts(&scheme, k));
    }

    #[test]
    fn emitted_ncnn_kernel_matches_functional_and_counts() {
        let (m, k, n) = (8, 33, 4);
        let (a, b) = random_operands(m, k, n, BitWidth::W8, 13);
        let pa = pack_a16(&a, m, k);
        let pb = pack_b16(&b, k, n);
        let functional = run_tile_ncnn(&pa, &pb, 0, 0);

        let addr_a = 0u32;
        let addr_b = (k * 16) as u32;
        let addr_c = (k * 16 + k * 8).next_multiple_of(16) as u32;
        let mut machine = Machine::new(addr_c as usize + 256, CortexA53::cost_model());
        let a_bytes: Vec<u8> = pa.data[..k * NCNN_NA]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let b_bytes: Vec<u8> = pb.data[..k * NB]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        machine.write_mem(addr_a as usize, &a_bytes);
        machine.write_mem(addr_b as usize, &b_bytes);
        machine.run(&emit_tile_ncnn(k, addr_a, addr_b, addr_c));
        assert_eq!(
            machine.read_mem_i32(addr_c as usize, NCNN_TILE_LEN),
            functional
        );
        assert_eq!(
            machine.stats().counts,
            tile_counts(&Scheme::ncnn16(), k)
        );
    }

    #[test]
    fn ratio_violation_wraps_the_intermediate() {
        // Failure injection: force an over-long drain interval and check the
        // i16 partials actually wrap (i.e. the published ratio is load-bearing).
        let bits = BitWidth::W8;
        let bad = Scheme::for_product_bound(SchemeKind::Smlal8, 1).with_unroll(2); // ratio 32767: never drains in-range
        let k = 8;
        let (m, n) = (16, 4);
        // All-max operands: 127*127*8 = 129032 >> i16::MAX.
        let a = vec![bits.qmax(); m * k];
        let b = vec![bits.qmax(); k * n];
        let pa = pack_a(&a, m, k);
        let pb = pack_b(&b, k, n);
        let wrapped = run_tile(&bad, &pa, &pb, 0, 0);
        let correct = run_tile(&Scheme::for_bits(bits), &pa, &pb, 0, 0);
        assert_ne!(wrapped, correct, "overflow must corrupt the result");
        assert_eq!(correct[0], 127 * 127 * k as i32);
    }

    #[test]
    fn emitted_kernel_sustains_high_ipc_on_the_pipeline_model() {
        // Alg. 1's prefetch interleave (alternating v0/v1 and v2-5/v6-9
        // register groups) must hide the load-use latency: the emitted
        // program should run near one instruction per cycle on the
        // latency-aware in-order model.
        use neon_sim::{pipeline_schedule, PipelineModel};
        let scheme = Scheme::for_bits(BitWidth::W4);
        let prog = emit_tile(&scheme, 64, 0, 2048, 4096);
        let report = pipeline_schedule(&prog, &PipelineModel::cortex_a53());
        assert!(
            report.ipc() > 0.8,
            "emitted 4-bit kernel IPC {:.2} ({} stalls over {} cycles)",
            report.ipc(),
            report.stall_cycles,
            report.cycles
        );
        // Loads should mostly pair with MACs.
        assert!(report.dual_issue_cycles as f64 > 0.05 * report.cycles as f64);
    }

    #[test]
    fn tile_counts_scale_with_drains() {
        let s4 = Scheme::for_bits(BitWidth::W4);
        let s8 = Scheme::for_bits(BitWidth::W8);
        let k = 512;
        let c4 = tile_counts(&s4, k);
        let c8 = tile_counts(&s8, k);
        // Same MAC count, but 8-bit drains 256x as often as 4-bit (ratio 2 vs
        // 511) and therefore spends far more ALU instructions.
        assert_eq!(c4.neon_mac, c8.neon_mac);
        assert!(c8.neon_alu > 100 * c4.neon_alu);
    }
}
