//! The host-speed calibration kernel.
//!
//! Host time on a shared machine drifts by tens of percent between runs, so
//! every host-time metric is reported in *reference-speed* milliseconds:
//! `raw_ms * REFERENCE_MS / calib_ms`, where `calib_ms` is the time of a
//! fixed integer kernel measured next to the calls being timed. The kernel
//! shares no code with the program under test. It has three parts:
//!
//! - a scalar chain: xorshift steps feeding table loads, multiplies and
//!   stores (integer ALU and L1 latency);
//! - a tile: a 16x4 multiply-accumulate over i8 operands with wrapping i8
//!   partials drained to i16 and i32 (code the compiler vectorizes, with a
//!   64 KiB operand panel);
//! - a stream: reads of one word per cache line through an 8 MiB buffer,
//!   larger than a core's own caches (shared cache and memory bandwidth).
//!
//! On the shared 2-core host this benchmark was built on, load from other
//! tenants slows the tile part about 1.9x but the chain only about 1.1x,
//! and the edge workloads sit in between (the W2 block about 1.65x, the W8
//! block about 1.3x); some spells slow the stream part and the blocks with
//! multi-megabyte working sets but not the other two parts. Each workload
//! therefore fixes its own [`Mix`]: the share of a sample's reference time
//! spent in each part, fitted so the calibrated host time moves least with
//! that load.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// What one calibration sample takes at reference speed, in ms. Host
/// times are scaled to this speed.
pub const REFERENCE_MS: f64 = 1.0;

/// Tile rows (output channels) and columns.
const NA: usize = 16;
const NB: usize = 4;
/// Reduction depth of one tile pass.
const DEPTH: usize = 4096;
/// Bytes of the stream part's buffer.
const STREAM_BYTES: usize = 8 << 20;
/// Bytes of one stream block.
const BLOCK_BYTES: usize = 256 << 10;

/// How one calibration sample splits between the parts. At reference
/// speed a chain step takes about 4.25 ns, a quarter tile pass about
/// 0.042 ms and a stream block about 0.031 ms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Xorshift steps of the scalar chain.
    pub chain_steps: u64,
    /// Passes of the tile over a quarter of its depth.
    pub tile_quarters: usize,
    /// 256 KiB blocks of the stream, each the one after the last block
    /// read, wrapping around the buffer.
    pub stream_blocks: usize,
}

/// The scalar chain; the result only exists to keep it alive.
fn chain(steps: u64) -> u64 {
    let mut table = [0u8; 256];
    for (i, t) in table.iter_mut().enumerate() {
        *t = (i as u8).wrapping_mul(37);
    }
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc: u64 = 0;
    for _ in 0..black_box(steps) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let t = table[(x & 255) as usize];
        acc = acc.wrapping_add(u64::from(t).wrapping_mul(x | 1));
        table[(acc & 255) as usize] = t.wrapping_add(1);
    }
    black_box(acc)
}

/// Operands of the tile part.
struct TileOperands {
    a: Vec<i8>,
    b: Vec<i8>,
}

impl TileOperands {
    fn new() -> TileOperands {
        TileOperands {
            a: (0..NA * DEPTH).map(|i| (i * 7 % 251) as i8).collect(),
            b: (0..NB * DEPTH).map(|i| (i * 13 % 241) as i8).collect(),
        }
    }
}

/// The tile part: `quarters` passes over a quarter of the depth each.
fn tile(ops: &TileOperands, quarters: usize) -> i64 {
    let (a, b) = (black_box(&ops.a[..]), black_box(&ops.b[..]));
    let depth = DEPTH / 4;
    let mut total = 0i64;
    for q in 0..quarters {
        let k0 = (q % 4) * depth;
        let mut acc32 = [0i32; NA * NB];
        let mut acc16 = [0i16; NA * NB];
        let mut acc8 = [0i8; NA * NB];
        for kk in k0..k0 + depth {
            let av = &a[kk * NA..kk * NA + NA];
            let bv = &b[kk * NB..kk * NB + NB];
            for (c, &bc) in bv.iter().enumerate() {
                let col = &mut acc8[c * NA..(c + 1) * NA];
                for (x, &y) in col.iter_mut().zip(av) {
                    *x = x.wrapping_add(y.wrapping_mul(bc));
                }
            }
            if kk % 4 == 3 {
                for (h, l) in acc16.iter_mut().zip(acc8.iter_mut()) {
                    *h = h.wrapping_add(i16::from(*l));
                    *l = 0;
                }
            }
            if kk % 64 == 63 {
                for (w, h) in acc32.iter_mut().zip(acc16.iter_mut()) {
                    *w += i32::from(*h);
                    *h = 0;
                }
            }
        }
        total += acc32.iter().map(|&v| i64::from(v)).sum::<i64>();
    }
    black_box(total)
}

/// The stream part: `blocks` blocks from `next` on, one word per 64-byte
/// line; returns the block to start from next time.
fn stream(buf: &[u64], next: usize, blocks: usize) -> usize {
    let words = BLOCK_BYTES / 8;
    let count = buf.len() / words;
    let mut acc = 0u64;
    for b in next..next + blocks {
        let block = &buf[b % count * words..][..words];
        for w in block.iter().step_by(8) {
            acc = acc.wrapping_add(*w);
        }
    }
    black_box(acc);
    (next + blocks) % count
}

/// A calibration probe: the workload's mix and the operands of its parts.
pub struct Probe {
    mix: Mix,
    ops: TileOperands,
    /// The stream buffer, empty when the mix has no stream part.
    buf: Vec<u64>,
    /// The stream block the next sample starts at.
    next: AtomicUsize,
}

impl Probe {
    /// A probe running `mix`.
    pub fn new(mix: Mix) -> Probe {
        let words = if mix.stream_blocks > 0 {
            STREAM_BYTES / 8
        } else {
            0
        };
        Probe {
            mix,
            ops: TileOperands::new(),
            buf: (0..words as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Times one calibration sample, in ms.
    pub fn sample_ms(&self) -> f64 {
        let t = Instant::now();
        chain(self.mix.chain_steps);
        tile(&self.ops, self.mix.tile_quarters);
        if self.mix.stream_blocks > 0 {
            let next = stream(
                &self.buf,
                self.next.load(Ordering::Relaxed),
                self.mix.stream_blocks,
            );
            self.next.store(next, Ordering::Relaxed);
        }
        crate::ms(t.elapsed())
    }
}

/// Reference-speed factor for a calibration time: multiply raw host ms by
/// it to get reference-speed ms.
pub fn factor(calib_ms: f64) -> f64 {
    REFERENCE_MS / calib_ms
}
