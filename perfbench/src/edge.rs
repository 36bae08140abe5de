//! The edge workloads: one block on the ARM backend, batch 1, closed loop
//! with one client calling `Executor::run` directly.

use crate::alloc::{self, Counts};
use crate::calib::{self, Mix, Probe};
use crate::report::Outcome;
use crate::{f32_bits, gen, ms, same_bits, spans, stats};
use lowbit::prelude::*;
use lowbit::{arm_candidates, verify_compiled};
use lowbit_models::GraphDef;
use lowbit_trace::{SpanKind, MAIN_TRACK};
use std::time::{Duration, Instant};

/// One edge workload.
#[derive(Clone, Copy, Debug)]
pub struct EdgeWorkload {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// The block it runs.
    pub graph: fn() -> GraphDef,
    /// Weight and activation width.
    pub bits: BitWidth,
    /// Latency limit for `slo_frac`, reference-speed ms.
    pub slo_ms: f64,
    /// Calibration mix matched to the block's sensitivity to host load.
    pub calib: Mix,
}

fn projection_14() -> GraphDef {
    lowbit_models::resnet50_projection_block(14)
}

fn dense6_14() -> GraphDef {
    lowbit_models::densenet121_dense_block_n(14, 6)
}

/// The ResNet-50 projection block at W2 (the MLA+SADDW scheme).
pub const EDGE_W2_PROJECTION: EdgeWorkload = EdgeWorkload {
    name: "edge-w2-projection",
    graph: projection_14,
    bits: BitWidth::W2,
    slo_ms: 45.0,
    // About 0.7 ms of tile and 0.3 ms of stream at reference speed: the
    // stream part follows spells in which other tenants' memory traffic
    // slows the block's multi-megabyte working set but not the tile.
    calib: Mix {
        chain_steps: 0,
        tile_quarters: 17,
        stream_blocks: 10,
    },
};

/// The six-step DenseNet-121 dense block at W8 (the narrow 8x4 tile).
pub const EDGE_W8_DENSE: EdgeWorkload = EdgeWorkload {
    name: "edge-w8-dense",
    graph: dense6_14,
    bits: BitWidth::W8,
    slo_ms: 40.0,
    // About 0.75 ms of chain and 0.25 ms of tile at reference speed.
    calib: Mix {
        chain_steps: 176_000,
        tile_quarters: 6,
        stream_blocks: 0,
    },
};

/// Timed set-ups per run (the reported set-up time is their median).
pub const SETUP_REPS: usize = 9;
/// Distinct inputs the closed loop cycles through.
pub const INPUTS: usize = 4;
/// An untraced run keeps going past `--seconds` until it has this many
/// samples, so the p99 has ten beyond it.
pub const MIN_SAMPLES: usize = 1000;
/// Hard stop of a measuring phase, whatever the sample count.
pub const MAX_PHASE: Duration = Duration::from_secs(120);
/// Traced runs that go into the Chrome trace export.
pub const EXPORT_RUNS: usize = 16;

/// A compiled, verified and checked workload, ready to time.
pub struct Prepared {
    engine: ArmEngine,
    net: Network,
    plan: ExecutionPlan,
    inputs: Vec<Tensor<f32>>,
    refs: Vec<Vec<u32>>,
    probe: Probe,
    /// Set-up checks that failed (fused vs unfused, repeat set-ups).
    pub setup_failures: u64,
    /// `NetworkRun::total_millis` of the set-up runs.
    pub modeled_ms: f64,
    /// Raw set-up times, s.
    pub setup_s: Vec<f64>,
    /// Raw `Planner::compile` times, ms.
    pub compile_ms: Vec<f64>,
    /// Raw `verify_compiled` times, ms.
    pub verify_ms: Vec<f64>,
    /// Raw `arm_candidates` ranking times over the plan's shapes, ms.
    pub rank_ms: Vec<f64>,
    /// Calibration samples taken between the set-ups, ms.
    pub calib_ms: Vec<f64>,
}

/// Builds the workload `SETUP_REPS` times from scratch — fresh engine,
/// network, `Planner::compile`, `verify_compiled` and the cold first run —
/// timing each, then computes the reference outputs and checks that the
/// fused plan agrees with an unfused one.
pub fn prepare(w: &EdgeWorkload, seed: u64) -> Result<Prepared, String> {
    let def = (w.graph)();
    let weight_seed = gen::weight_seed(seed);
    let dims = (1, def.input.0, def.input.1, def.input.2);
    let inputs = gen::input_pool(dims, INPUTS, seed, 2);
    let mut built = None;
    let (mut setup_failures, mut modeled_ms) = (0, 0.0);
    let (mut setup_s, mut compile_ms, mut verify_ms, mut rank_ms, mut calib_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_cold: Option<Vec<u32>> = None;
    let probe = Probe::new(w.calib);
    for _ in 0..SETUP_REPS {
        calib_ms.push(probe.sample_ms());
        let t0 = Instant::now();
        let engine = ArmEngine::cortex_a53().with_threads(1);
        let net = Network::from_graph_defs(&def, w.bits, weight_seed).map_err(|e| e.to_string())?;
        let tc = Instant::now();
        let plan = Planner::for_arm(&engine)
            .compile(&net)
            .map_err(|e| e.to_string())?;
        let compile = tc.elapsed();
        let tv = Instant::now();
        verify_compiled(&plan, &net).map_err(|e| e.to_string())?;
        let verify = tv.elapsed();
        let cold = Executor::for_arm(&engine).run(&plan, &net, &inputs[0]);
        let setup = t0.elapsed();
        let cold = cold.map_err(|e| e.to_string())?;
        setup_s.push(setup.as_secs_f64());
        compile_ms.push(ms(compile));
        verify_ms.push(ms(verify));
        let tr = Instant::now();
        for lp in plan.layers() {
            std::hint::black_box(arm_candidates(engine.model(), lp.bits, &lp.shape));
        }
        rank_ms.push(ms(tr.elapsed()));
        let out = f32_bits(&cold.output);
        match &first_cold {
            None => first_cold = Some(out),
            Some(first) if *first != out => setup_failures += 1,
            Some(_) => {}
        }
        modeled_ms = cold.total_millis;
        built = Some((engine, net, plan));
    }
    let (engine, net, plan) = built.expect("SETUP_REPS > 0");
    let mut p = Prepared {
        engine,
        net,
        plan,
        inputs,
        refs: Vec::new(),
        probe,
        setup_failures,
        modeled_ms,
        setup_s,
        compile_ms,
        verify_ms,
        rank_ms,
        calib_ms,
    };
    let ex = Executor::for_arm(&p.engine);
    let unfused = Planner::for_arm(&p.engine)
        .with_graph_fusion(false)
        .compile(&p.net)
        .map_err(|e| e.to_string())?;
    for input in &p.inputs {
        let fused = ex.run(&p.plan, &p.net, input).map_err(|e| e.to_string())?;
        let plain = ex.run(&unfused, &p.net, input).map_err(|e| e.to_string())?;
        if f32_bits(&fused.output) != f32_bits(&plain.output) {
            p.setup_failures += 1;
        }
        p.refs.push(f32_bits(&fused.output));
    }
    Ok(p)
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Raw wall ms of each `Executor::run`.
    pub raw_ms: Vec<f64>,
    /// The calibration samples taken before each run and after the last,
    /// ms (one more than runs).
    pub calib_ms: Vec<f64>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that errored or whose output differed from the reference.
    pub failed: u64,
    /// Whether each run's output checked out.
    pub ok: Vec<bool>,
    /// Allocation events and bytes of each run, on the calling thread.
    pub allocs: Vec<Counts>,
    /// Peak live heap above the phase's starting level, bytes.
    pub peak_heap: usize,
    /// Prepack-cache hits and misses during the phase.
    pub prepack: (u64, u64),
    /// End of the exported part of a traced phase.
    pub window: Option<spans::Window>,
}

impl Phase {
    /// Reference-speed ms of each run, scaled by the mean of the
    /// calibration samples right before and right after it (which follows
    /// the host's speed through transients a wider window would smear).
    pub fn latencies(&self) -> Vec<f64> {
        let around = self.calib_ms.windows(2).map(|c| (c[0] + c[1]) / 2.0);
        self.raw_ms
            .iter()
            .zip(around)
            .map(|(r, c)| r * calib::factor(c))
            .collect()
    }
}

/// Runs the closed loop for `seconds` (and at least `min_samples` runs),
/// interleaving a calibration sample before every run and checking every
/// output. A recording `tracer` wraps each run in an `executor.run` span.
pub fn closed_loop(p: &Prepared, seconds: f64, min_samples: usize, tracer: &Tracer) -> Phase {
    let ex = Executor::for_arm(&p.engine);
    let cap = (seconds * 1e3 / 10.0) as usize + min_samples + 16;
    let mut ph = Phase {
        raw_ms: Vec::with_capacity(cap),
        calib_ms: Vec::with_capacity(cap),
        ok: Vec::with_capacity(cap),
        allocs: Vec::with_capacity(cap),
        ..Phase::default()
    };
    let before = p.engine.prepack_stats();
    let baseline = alloc::start_peak_window();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= MAX_PHASE || (elapsed >= budget && ph.raw_ms.len() >= min_samples) {
            break;
        }
        if i == EXPORT_RUNS && tracer.enabled() {
            ph.window = Some(spans::Window::mark(tracer));
        }
        ph.calib_ms.push(p.probe.sample_ms());
        let k = i % p.inputs.len();
        let a0 = alloc::thread_counts();
        let t = Instant::now();
        let run = {
            let _span = tracer.span("executor.run", MAIN_TRACK);
            ex.run_traced(&p.plan, &p.net, &p.inputs[k], tracer)
        };
        let dt = t.elapsed();
        ph.allocs.push(alloc::thread_counts().since(a0));
        ph.raw_ms.push(ms(dt));
        let ok = run.is_ok_and(|run| {
            run.total_millis == p.modeled_ms && same_bits(&run.output, &p.refs[k])
        });
        ph.ok.push(ok);
        ph.attempted += 1;
        ph.failed += u64::from(!ok);
        i += 1;
    }
    ph.peak_heap = alloc::peak_above(baseline);
    ph.calib_ms.push(p.probe.sample_ms());
    let after = p.engine.prepack_stats();
    ph.prepack = (after.hits - before.hits, after.misses - before.misses);
    ph
}

/// The untraced end-to-end run.
pub fn run_untraced(w: &EdgeWorkload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let p = prepare(w, seed)?;
    let ph = closed_loop(&p, seconds, MIN_SAMPLES, &Tracer::null());
    let mut o = Outcome {
        attempted: ph.attempted,
        failed: ph.failed + p.setup_failures,
        ..Outcome::default()
    };
    eprintln!(
        "{}: {} runs, raw p50 {:.3} ms, calibration p50 {:.4} ms (setup {:.4} ms)",
        w.name,
        ph.attempted,
        stats::median(&ph.raw_ms),
        stats::median(&ph.calib_ms),
        stats::median(&p.calib_ms)
    );
    let lat = ph.latencies();
    let setup_factor = calib::factor(stats::median(&p.calib_ms));
    o.set("setup_s", stats::median(&p.setup_s) * setup_factor);
    o.set("latency_p50_ms", stats::median(&lat));
    o.set("latency_p99_ms", stats::pct_or_zero(&lat, 99.0));
    o.set(
        "throughput_rps",
        lat.len() as f64 * 1e3 / lat.iter().sum::<f64>(),
    );
    o.set("modeled_ms", p.modeled_ms);
    o.set("peak_heap_bytes", ph.peak_heap as f64);
    let within = lat
        .iter()
        .zip(&ph.ok)
        .filter(|&(&l, &ok)| ok && l <= w.slo_ms)
        .count();
    o.set("slo_frac", within as f64 / ph.attempted.max(1) as f64);
    Ok(o)
}

/// The traced run: half the time untraced (allocation, heap and host
/// speed figures, and the base of the tracing overhead), half with a
/// recording tracer (span self times). Writes the Chrome trace to `trace_path`.
pub fn run_traced(
    w: &EdgeWorkload,
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Result<Outcome, String> {
    let p = prepare(w, seed)?;
    let plain = closed_loop(&p, seconds / 2.0, 0, &Tracer::null());
    let (tracer, sink) = Tracer::recording();
    let traced = closed_loop(&p, seconds / 2.0, 0, &tracer);
    let cap = sink.capture();
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed + p.setup_failures;
    let mut o = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };

    let factor = calib::factor(stats::median(&p.calib_ms));
    o.set("planner.compile_ms", stats::median(&p.compile_ms) * factor);
    o.set("verify.plan_ms", stats::median(&p.verify_ms) * factor);
    o.set("neon_sim.rank_ms", stats::median(&p.rank_ms) * factor);

    let allocs: Vec<f64> = plain.allocs.iter().map(|c| c.allocs as f64).collect();
    let bytes: Vec<f64> = plain.allocs.iter().map(|c| c.bytes as f64).collect();
    o.set("executor.allocs_per_run", stats::median(&allocs));
    o.set("executor.alloc_bytes_per_run", stats::median(&bytes));
    let arena = p.plan.activation_high_water_bytes();
    o.set("executor.arena_bytes", arena as f64);
    o.set(
        "executor.heap_over_arena",
        plain.peak_heap as f64 / arena.max(1) as f64,
    );
    let (hits, misses) = plain.prepack;
    o.set(
        "arm.prepack_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    o.set(
        "arm.workspace_bytes",
        p.engine.workspace_stats().high_water_bytes as f64,
    );
    o.set("host.calib_ms", stats::median(&plain.calib_ms));
    o.set("host.latency_p50_raw_ms", stats::median(&plain.raw_ms));
    let base = stats::median(&plain.latencies());
    o.set(
        "trace.overhead_frac",
        stats::median(&traced.latencies()) / base - 1.0,
    );

    let runs = traced.attempted.max(1) as f64;
    let tf = calib::factor(stats::median(&traced.calib_ms));
    let per_run = |name: &str| spans::total_ms(&cap, name, SpanKind::Wall) / runs * tf;
    let conv = per_run("conv");
    let tile = per_run("gemm tile");
    o.set("tensor.im2col_ms", per_run("im2col"));
    o.set("qgemm.gemm_tile_ms", tile);
    o.set("qgemm.pack_b_ms", per_run("pack B panel"));
    o.set("qgemm.gemm_share", tile / conv);
    o.set("conv_arm.reshape_ms", per_run("reshape nchw"));
    o.set("arm.conv_ms", conv);
    let modeled_conv = spans::total_ms(&cap, "conv modeled", SpanKind::Modeled) / runs;
    o.set("arm.host_over_modeled", conv / modeled_conv);
    o.set("executor.self_ms", per_run("executor.run") - conv);
    o.set("executor.requant_ms", per_run("requantize"));
    for name in [
        "gpu.conv_ms",
        "gpu.estimate_ms",
        "serve.route_ms",
        "serve.queue_wait_ms_p50",
        "serve.queue_wait_ms_p99",
        "serve.batch_form_ms_p50",
        "serve.compile_ms_p99",
        "serve.execute_ms_p50",
        "serve.execute_ms_p99",
        "serve.batch_mean",
        "serve.batches",
        "serve.plan_cache_hit_rate",
        "serve.gpu_share",
        "serve.queue_full",
        "serve.gen_late_ms_max",
    ] {
        o.set(name, 0.0);
    }
    o.set("fail_frac", failed as f64 / attempted.max(1) as f64);

    eprintln!(
        "{} traced: {} runs, self time per run (reference-speed ms)",
        w.name, traced.attempted
    );
    eprint!("{}", spans::self_time_table(&cap, runs, tf));
    eprintln!("{:<14} {:>12} {:>12}", "node", "host_ms/run", "modeled_ms");
    let nodes = spans::node_wall_ms(&cap);
    for lp in p.plan.layers() {
        let host = nodes.get(&lp.name).copied().unwrap_or(0.0) / runs * tf;
        eprintln!(
            "{:<14} {:>12.4} {:>12.4}",
            lp.name, host, lp.predicted_millis
        );
    }
    let exported = traced.window.map_or_else(|| cap.clone(), |w| w.apply(&cap));
    let n = spans::export_chrome(&exported, trace_path)?;
    eprintln!("wrote {} ({n} spans, validated)", trace_path.display());
    Ok(o)
}
