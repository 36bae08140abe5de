//! The `serve-bursty` workload: the threaded `Server` running the residual
//! block at 7x7 as a W2 class (ARM only) and a W4 class (routed to the
//! GPU-model backend), fed by a seeded open-loop bursty schedule.

use crate::alloc::{self, Counts};
use crate::calib::{self, Mix, Probe};
use crate::gen::{self, ScheduleSpec};
use crate::report::Outcome;
use crate::{f32_bits, ms, same_bits, spans, stats};
use lowbit::prelude::*;
use lowbit::{arm_candidates, verify_compiled};
use lowbit_serve::server::RequestTiming;
use lowbit_serve::{choose_point, BatchPolicy, RequestClass, Server, ServerConfig, ServerStats};
use lowbit_trace::{SpanKind, TraceCapture};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Workload name (`--workload`).
pub const NAME: &str = "serve-bursty";
/// Batch close rule of the server.
pub const POLICY: BatchPolicy = BatchPolicy::Dynamic {
    max_batch: 8,
    deadline_ms: 2.0,
};
/// Server worker threads in the untraced run (traced runs use one).
pub const WORKERS: usize = 2;
/// Offered rate at reference speed, requests/s: the two classes' work then
/// keeps about a third of one core busy. Spells in which other tenants
/// slowed the server's work 2x or more came without warning and at 100
/// requests/s left a backlog growing for seconds; at this rate the server
/// keeps up through them, so latency stays service time plus the wait the
/// bursts cause. Each segment scales it by the host's speed measured in
/// the segment before.
pub const RATE_REF: f64 = 60.0;
/// Latency limit for `slo_frac`, reference-speed ms.
pub const SLO_MS: f64 = 100.0;
/// Distinct inputs per class.
pub const POOL: usize = 16;
/// Timed server set-ups per run.
pub const SETUP_REPS: usize = 9;
/// Calibration samples per class mix taken before a phase, alternating the
/// mixes; their medians set the first segment's rate.
pub const CALIB_SAMPLES: usize = 100;
/// During a segment the generator takes a calibration sample whenever the
/// server has answered everything submitted and the next arrival is at
/// least this far off, so samples never compete with the workers and the
/// next request is not sent late.
pub const IDLE_MARGIN: Duration = Duration::from_millis(4);
/// A segment whose class mix got fewer idle samples than this takes the
/// previous segment's factor instead.
pub const MIN_IDLE_SAMPLES: usize = 20;
/// A phase is cut into segments of about this length, each with one round
/// of bursts and its own reference-speed factors.
pub const SEGMENT_S: f64 = 6.0;
/// Calibration mix per class, fitted over runs in several host states so
/// that each class's batch-1 execute time, scaled, moved least: the W2
/// class gets about 0.3 ms of chain, 0.4 ms of tile and 0.3 ms of stream at
/// reference speed, the W4 class (the GPU-model path) 0.5, 0.3 and 0.2. A
/// request is scaled by its own class's mix.
pub const CALIB: [Mix; 2] = [
    Mix {
        chain_steps: 70_000,
        tile_quarters: 10,
        stream_blocks: 10,
    },
    Mix {
        chain_steps: 118_000,
        tile_quarters: 7,
        stream_blocks: 6,
    },
];
/// Schedule time of a traced phase that goes into the Chrome trace export.
pub const EXPORT_MS: f64 = 1000.0;
/// Burst sizes, below, at, between and at twice the maximum batch. Each
/// segment holds one burst of every size per class, all of one class and
/// due at one instant, after quiet stretches of single arrivals. Bursts
/// then carry about a fifth of the requests, so the median request is a
/// quiet one and the p99 falls inside the largest bursts' tail.
pub const BURSTS: &[usize] = &[4, 8, 12, 16];

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        queue_depth: 64,
        policy: POLICY,
        workers,
        arm_threads: 1,
        force_backend: None,
        parallel_nodes: false,
        slo_p99_ms: SLO_MS,
    }
}

/// The two request classes, built from `seed`.
pub fn classes(seed: u64) -> Result<Vec<RequestClass>, String> {
    let def = lowbit_models::resnet50_residual_block(7);
    [BitWidth::W2, BitWidth::W4]
        .into_iter()
        .enumerate()
        .map(|(i, bits)| {
            let net = Network::from_graph_defs(&def, bits, gen::weight_seed(seed) + 100 * i as u64)
                .map_err(|e| e.to_string())?;
            Ok(RequestClass::from_network(
                format!("residual7-w{}", bits.bits()),
                net,
            ))
        })
        .collect()
}

/// Compiles `net` for `backend` with single-thread engines.
fn compile(
    net: &Network,
    backend: BackendKind,
    arm: &ArmEngine,
    gpu: &GpuEngine,
    fusion: bool,
) -> Result<ExecutionPlan, String> {
    match backend {
        BackendKind::Arm => Planner::for_arm(arm),
        BackendKind::GpuModel => Planner::for_gpu(gpu, Tuning::Default),
    }
    .with_graph_fusion(fusion)
    .compile(net)
    .map_err(|e| e.to_string())
}

/// Classes, inputs, reference outputs and the timed server set-ups.
pub struct Prepared {
    seed: u64,
    classes: Vec<RequestClass>,
    pools: Vec<Vec<Tensor<f32>>>,
    refs: Vec<Vec<Vec<u32>>>,
    probes: Vec<Probe>,
    /// Set-up checks that failed.
    pub setup_failures: u64,
    /// Raw set-up times, s.
    pub setup_s: Vec<f64>,
    /// Raw compile / verify / ranking times of the batch-1 class plans, ms.
    pub compile_ms: Vec<f64>,
    /// See `compile_ms`.
    pub verify_ms: Vec<f64>,
    /// See `compile_ms`.
    pub rank_ms: Vec<f64>,
    /// Calibration samples taken between the set-ups (the mean over the
    /// classes' mixes), ms.
    pub calib_ms: Vec<f64>,
    /// Certified activation arena of the batch-1 class plans (the larger).
    pub arena_bytes: usize,
}

/// Builds the classes and input pools, computes each input's reference
/// with a direct batch-1 `Executor::run` (checking the fused plan against
/// an unfused one), then times `SETUP_REPS` fresh server start-ups that
/// each answer one first request per class.
pub fn prepare(seed: u64) -> Result<Prepared, String> {
    let classes = classes(seed)?;
    let arm = ArmEngine::cortex_a53().with_threads(1);
    let gpu = GpuEngine::rtx2080ti();
    let ex = Executor::new().with_arm(&arm).with_gpu(&gpu);
    let mut p = Prepared {
        seed,
        pools: Vec::new(),
        refs: Vec::new(),
        probes: CALIB.iter().map(|&mix| Probe::new(mix)).collect(),
        setup_failures: 0,
        setup_s: Vec::new(),
        compile_ms: Vec::new(),
        verify_ms: Vec::new(),
        rank_ms: Vec::new(),
        calib_ms: Vec::new(),
        arena_bytes: 0,
        classes: Vec::new(),
    };
    for (ci, class) in classes.iter().enumerate() {
        let pool = gen::input_pool(class.input_dims(), POOL, seed, 10 + ci as u64);
        let backend = choose_point(class, 1, &arm, &gpu).backend;
        let plan = compile(class.template(), backend, &arm, &gpu, true)?;
        let unfused = compile(class.template(), backend, &arm, &gpu, false)?;
        p.arena_bytes = p.arena_bytes.max(plan.activation_high_water_bytes());
        let mut refs = Vec::with_capacity(pool.len());
        for input in &pool {
            let out = ex
                .run(&plan, class.template(), input)
                .map_err(|e| e.to_string())?;
            let plain = ex
                .run(&unfused, class.template(), input)
                .map_err(|e| e.to_string())?;
            if f32_bits(&out.output) != f32_bits(&plain.output) {
                p.setup_failures += 1;
            }
            refs.push(f32_bits(&out.output));
        }
        p.pools.push(pool);
        p.refs.push(refs);
    }
    for _ in 0..SETUP_REPS {
        let each: Vec<f64> = p.probes.iter().map(Probe::sample_ms).collect();
        p.calib_ms
            .push(each.iter().sum::<f64>() / each.len() as f64);
        let t0 = Instant::now();
        let fresh = self::classes(seed)?;
        let server = Server::start(fresh, config(WORKERS), &Tracer::null());
        for ci in 0..p.pools.len() {
            let resp = server
                .submit(ci, p.pools[ci][0].clone())
                .and_then(|t| t.wait())
                .map_err(|e| e.to_string())?;
            if !same_bits(&resp.output, &p.refs[ci][0]) {
                p.setup_failures += 1;
            }
        }
        p.setup_s.push(t0.elapsed().as_secs_f64());
        server.shutdown();

        let (mut compile_ms, mut verify_ms, mut rank_ms) = (0.0, 0.0, 0.0);
        for class in &classes {
            let backend = choose_point(class, 1, &arm, &gpu).backend;
            let t = Instant::now();
            let plan = compile(class.template(), backend, &arm, &gpu, true)?;
            compile_ms += ms(t.elapsed());
            let t = Instant::now();
            verify_compiled(&plan, class.template()).map_err(|e| e.to_string())?;
            verify_ms += ms(t.elapsed());
            let t = Instant::now();
            for lp in plan.layers() {
                std::hint::black_box(arm_candidates(arm.model(), lp.bits, &lp.shape));
            }
            rank_ms += ms(t.elapsed());
        }
        p.compile_ms.push(compile_ms);
        p.verify_ms.push(verify_ms);
        p.rank_ms.push(rank_ms);
    }
    p.classes = classes;
    Ok(p)
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Request class.
    pub class: usize,
    /// Schedule segment.
    pub segment: usize,
    /// Raw ms from when the request was due until its batch finished.
    pub latency_raw_ms: f64,
    /// The server's attribution.
    pub timing: RequestTiming,
}

/// What one open-loop phase measured.
pub struct Phase {
    /// Answered requests whose output matched the reference.
    pub records: Vec<Record>,
    /// Requests scheduled.
    pub attempted: u64,
    /// Errors, `QueueFull` rejections and output mismatches.
    pub failed: u64,
    /// `QueueFull` rejections among them.
    pub queue_full: u64,
    /// How late the generator submitted, worst case, raw ms.
    pub late_max_ms: f64,
    /// Final server statistics.
    pub stats: ServerStats,
    /// Peak live heap above the phase's starting level, bytes.
    pub peak_heap: usize,
    /// Process-wide allocations during the phase.
    pub allocs: Counts,
    /// Calibration samples per class mix, ms: `calib_ms[0][class]` holds
    /// the samples taken before the phase, `calib_ms[s + 1][class]` the
    /// idle-time samples taken during segment `s`.
    pub calib_ms: Vec<Vec<Vec<f64>>>,
    /// Scheduled length of each segment, s.
    pub segment_s: f64,
    /// End of the exported part of a traced phase.
    pub window: Option<spans::Window>,
}

impl Phase {
    /// Reference-speed factor of a class in a segment, from the class's
    /// idle-time samples in it (see [`speed_factor`]).
    pub fn factor(&self, segment: usize, class: usize) -> f64 {
        speed_factor(&self.calib_ms[..=segment + 1], class)
    }

    /// Reference-speed factor of a segment: the mean over the classes.
    fn segment_factor(&self, segment: usize) -> f64 {
        let classes = self.calib_ms[segment].len();
        (0..classes).map(|c| self.factor(segment, c)).sum::<f64>() / classes as f64
    }

    /// Median calibration sample of the phase over every mix, ms.
    pub fn calib_p50(&self) -> f64 {
        stats::median(&self.calib_ms.concat().concat())
    }

    /// Reference-speed latency of each answered request.
    pub fn latencies(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.latency_raw_ms * self.factor(r.segment, r.class))
            .collect()
    }

    /// Reference-speed latency of each request answered in `segment`.
    fn segment_latencies(&self, segment: usize) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.segment == segment)
            .map(|r| r.latency_raw_ms * self.factor(segment, r.class))
            .collect()
    }

    /// Completions per reference-speed second.
    pub fn throughput(&self) -> f64 {
        let segments = self.calib_ms.len() - 1;
        let ref_s: f64 = (0..segments)
            .map(|s| self.segment_s * self.segment_factor(s))
            .sum();
        self.records.len() as f64 / ref_s
    }

    /// Reference-speed percentile of one `RequestTiming` field.
    fn timing_pct(&self, field: fn(&RequestTiming) -> f64, p: f64) -> f64 {
        let v: Vec<f64> = self
            .records
            .iter()
            .map(|r| field(&r.timing) * self.factor(r.segment, r.class))
            .collect();
        stats::pct_or_zero(&v, p)
    }
}

/// Reference-speed factor of `class` from the last calibration in `calib`
/// that holds enough samples (the samples before the phase always count):
/// the median sample, so a sample the host interrupted does not move it.
fn speed_factor(calib: &[Vec<Vec<f64>>], class: usize) -> f64 {
    let samples = calib
        .iter()
        .rev()
        .map(|c| &c[class])
        .find(|s| s.len() >= MIN_IDLE_SAMPLES)
        .unwrap_or(&calib[0][class]);
    calib::factor(stats::median(samples))
}

struct Pending {
    ticket: lowbit_serve::Ticket,
    due: Instant,
    sent: Instant,
    class: usize,
    segment: usize,
    input: usize,
}

/// Runs one open-loop phase of about `seconds` against a fresh server with
/// `workers` workers, in segments of about [`SEGMENT_S`]. While waiting for
/// the next arrival with the server idle, the generator times calibration
/// samples, alternating the class mixes. Each segment offers `rate_ref`
/// requests per reference-speed second, scaled by the samples of the
/// segment before it (the first by samples taken before the phase), so the
/// completions per reference-speed second telescope to about `rate_ref`.
/// Latency runs from when a request was due to when its batch finished
/// (the server's own admission-to-done attribution plus the generator's
/// lateness), so out-of-order completions are not charged to the requests
/// queued behind them in the collector.
pub fn open_loop(
    p: &Prepared,
    seconds: f64,
    rate_ref: f64,
    workers: usize,
    stream: u64,
    tracer: &Tracer,
) -> Phase {
    let segments = (seconds / SEGMENT_S).round().max(1.0) as usize;
    let segment_s = seconds / segments as f64;
    let server = Server::start(p.classes.clone(), config(workers), tracer);
    let bench_track = tracer.track("bench/generator");
    let mut before: Vec<Vec<f64>> = vec![Vec::new(); p.probes.len()];
    for _ in 0..CALIB_SAMPLES {
        for (samples, probe) in before.iter_mut().zip(&p.probes) {
            samples.push(probe.sample_ms());
        }
    }
    let mut calib_ms = vec![before];
    let (mut attempted, mut queue_full, mut errors, mut late_max_ms) = (0u64, 0u64, 0u64, 0.0f64);
    let mut window = None;
    let answered = AtomicU64::new(0);
    let baseline = alloc::start_peak_window();
    let a0 = alloc::process_counts();
    let (records, mismatches) = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Pending>();
        let answered = &answered;
        let collector = s.spawn(move || {
            let mut records = Vec::new();
            let mut mismatches = 0u64;
            for pd in rx {
                match pd.ticket.wait() {
                    Ok(resp) => {
                        if same_bits(&resp.output, &p.refs[pd.class][pd.input]) {
                            records.push(Record {
                                class: pd.class,
                                segment: pd.segment,
                                latency_raw_ms: ms(pd.sent - pd.due) + resp.timing.total_ms(),
                                timing: resp.timing,
                            });
                        } else {
                            mismatches += 1;
                        }
                    }
                    Err(_) => mismatches += 1,
                }
                answered.fetch_add(1, Ordering::SeqCst);
            }
            (records, mismatches)
        });
        let mut submitted = 0u64;
        for segment in 0..segments {
            let speed: f64 = (0..p.probes.len())
                .map(|c| speed_factor(&calib_ms, c))
                .sum::<f64>()
                / p.probes.len() as f64;
            let rate = rate_ref * speed;
            let mut idle: Vec<Vec<f64>> = vec![Vec::new(); p.probes.len()];
            let spec = ScheduleSpec {
                rate_per_s: rate,
                duration_ms: segment_s * 1e3,
                classes: p.classes.len(),
                pool: POOL,
                bursts: BURSTS,
            };
            let sched = gen::schedule(&spec, p.seed ^ (stream << 32) ^ segment as u64);
            attempted += sched.len() as u64;
            let origin = Instant::now();
            for a in &sched {
                if window.is_none() && a.at_ms >= EXPORT_MS && tracer.enabled() {
                    window = Some(spans::Window::mark(tracer));
                }
                let input = p.pools[a.class][a.input].clone();
                let due = origin + Duration::from_secs_f64(a.at_ms / 1e3);
                loop {
                    let left = due.saturating_duration_since(Instant::now());
                    if left < IDLE_MARGIN {
                        std::thread::sleep(left);
                        break;
                    }
                    if answered.load(Ordering::SeqCst) == submitted {
                        let taken: usize = idle.iter().map(Vec::len).sum();
                        let class = taken % idle.len();
                        idle[class].push(p.probes[class].sample_ms());
                    } else {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                let sent = Instant::now();
                late_max_ms = late_max_ms.max(ms(sent.saturating_duration_since(due)));
                let result = {
                    let _span = tracer.span("serve.submit", bench_track);
                    server.submit(a.class, input)
                };
                match result {
                    Ok(ticket) => {
                        let (class, input) = (a.class, a.input);
                        let pd = Pending {
                            ticket,
                            due,
                            sent,
                            class,
                            segment,
                            input,
                        };
                        tx.send(pd).expect("collector outlives the generator");
                        submitted += 1;
                    }
                    Err(CoreError::QueueFull { .. }) => queue_full += 1,
                    Err(_) => errors += 1,
                }
            }
            calib_ms.push(idle);
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let stats = server.shutdown();
    let peak_heap = alloc::peak_above(baseline);
    let allocs = alloc::process_counts().since(a0);
    Phase {
        records,
        attempted,
        failed: queue_full + errors + mismatches,
        queue_full,
        late_max_ms,
        stats,
        peak_heap,
        allocs,
        calib_ms,
        segment_s,
        window,
    }
}

/// Modeled ms per answered request: each batch's modeled time (its plan's
/// `predicted_millis` for the class, bucket and backend) shared among the
/// requests it served.
fn modeled_ms(p: &Prepared, ph: &Phase) -> Result<f64, String> {
    let arm = ArmEngine::cortex_a53().with_threads(1);
    let gpu = GpuEngine::rtx2080ti();
    let mut memo: BTreeMap<(usize, usize, bool), f64> = BTreeMap::new();
    let mut total = 0.0;
    for r in &ph.records {
        let t = &r.timing;
        let key = (r.class, t.batch_bucket, t.backend == BackendKind::GpuModel);
        let batch_ms = match memo.get(&key) {
            Some(&m) => m,
            None => {
                let net = p.classes[r.class].batched(t.batch_bucket);
                let m = compile(&net, t.backend, &arm, &gpu, true)?.predicted_millis();
                memo.insert(key, m);
                m
            }
        };
        total += batch_ms / t.batch_formed as f64;
    }
    Ok(total / ph.records.len().max(1) as f64)
}

/// The untraced end-to-end run.
pub fn run_untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let p = prepare(seed)?;
    let ph = open_loop(&p, seconds, RATE_REF, WORKERS, 1, &Tracer::null());
    let mut o = Outcome {
        attempted: ph.attempted,
        failed: ph.failed + p.setup_failures,
        ..Outcome::default()
    };
    let lat = ph.latencies();
    for seg in 0..ph.calib_ms.len() - 1 {
        let raw: Vec<f64> = ph
            .records
            .iter()
            .filter(|r| r.segment == seg)
            .map(|r| r.latency_raw_ms)
            .collect();
        eprintln!(
            "  segment {seg}: {} answered, raw p50 {:.2} ms, p99 {:.2} ms, reference p99 {:.2} ms, factors {:.3} (w2) {:.3} (w4)",
            raw.len(),
            stats::median(&raw),
            stats::pct_or_zero(&raw, 99.0),
            stats::pct_or_zero(&ph.segment_latencies(seg), 99.0),
            ph.factor(seg, 0),
            ph.factor(seg, 1)
        );
    }
    let pcts: Vec<String> = [50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9]
        .iter()
        .map(|&q| format!("p{q} {:.2}", stats::pct_or_zero(&lat, q)))
        .collect();
    eprintln!(
        "{NAME}: {} requests, {} batches, calibration p50 {:.4} ms, reference ms: {}",
        ph.attempted,
        ph.stats.batches,
        ph.calib_p50(),
        pcts.join(", ")
    );
    o.set(
        "setup_s",
        stats::median(&p.setup_s) * calib::factor(stats::median(&p.calib_ms)),
    );
    o.set("latency_p50_ms", stats::median(&lat));
    o.set("latency_p99_ms", stats::pct_or_zero(&lat, 99.0));
    o.set("throughput_rps", ph.throughput());
    o.set("modeled_ms", modeled_ms(&p, &ph)?);
    o.set("peak_heap_bytes", ph.peak_heap as f64);
    let within = lat.iter().filter(|&&l| l <= SLO_MS).count();
    o.set("slo_frac", within as f64 / ph.attempted.max(1) as f64);
    Ok(o)
}

/// Batches in `records` as `(class, attribution)`, deduplicated by the
/// attribution every request of a batch shares.
fn batches(records: &[Record]) -> Vec<(usize, RequestTiming)> {
    let mut seen = BTreeMap::new();
    for r in records {
        let t = r.timing;
        let key = (
            r.class,
            t.batch_formed,
            t.compile_ms.to_bits(),
            t.execute_ms.to_bits(),
        );
        seen.entry(key).or_insert((r.class, t));
    }
    seen.into_values().collect()
}

/// Replays the per-batch routing decision and the W4 class's GPU calls
/// under benchmark spans: returns raw `(route_ms per call, gpu conv ms per
/// inference, gpu estimate ms per inference)` medians.
fn replay(p: &Prepared, ph: &Phase, tracer: &Tracer) -> (f64, f64, f64) {
    const REPS: usize = 10;
    let track = tracer.track("bench/replay");
    let arm = ArmEngine::cortex_a53().with_threads(1);
    let gpu = GpuEngine::rtx2080ti();
    let mut route = Vec::new();
    for (class, t) in batches(&ph.records) {
        let _span = tracer.span("serve.route", track);
        let t0 = Instant::now();
        std::hint::black_box(choose_point(&p.classes[class], t.batch_bucket, &arm, &gpu));
        route.push(ms(t0.elapsed()));
    }
    let operands: Vec<(QTensor, QTensor)> = p.classes[1]
        .template()
        .layers()
        .iter()
        .enumerate()
        .map(|(li, l)| {
            let s = &l.shape;
            let dims = (1, s.c_in, s.h, s.w);
            let act = QTensor::random(dims, Layout::Nhwc, l.weights.bits(), li as u64);
            (act, l.weights.to_layout(Layout::Nhwc))
        })
        .collect();
    let layers = p.classes[1].template().layers();
    let (mut conv, mut est) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        for (l, (act, weights)) in layers.iter().zip(&operands) {
            let _span = tracer.span("gpu.conv", track);
            std::hint::black_box(gpu.conv(act, weights, &l.shape, Tuning::Default));
        }
        conv.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        for l in layers {
            let _span = tracer.span("gpu.estimate", track);
            std::hint::black_box(gpu.estimate(&l.shape, l.weights.bits(), Tuning::Default));
        }
        est.push(ms(t0.elapsed()));
    }
    (
        stats::median(&route),
        stats::median(&conv),
        stats::median(&est),
    )
}

/// The traced run: an untraced phase with the real worker count (server
/// attribution, allocation and heap figures), then an untraced and a
/// traced phase with one worker at half the rate (the tracing overhead and
/// the span self times). Writes the Chrome trace to `trace_path`.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Result<Outcome, String> {
    let p = prepare(seed)?;
    let real = open_loop(&p, seconds * 0.4, RATE_REF, WORKERS, 1, &Tracer::null());
    let single = open_loop(&p, seconds * 0.3, RATE_REF / 2.0, 1, 2, &Tracer::null());
    let (tracer, sink) = Tracer::recording();
    let traced = open_loop(&p, seconds * 0.3, RATE_REF / 2.0, 1, 3, &tracer);
    let (route_ms, gpu_conv_ms, gpu_est_ms) = replay(&p, &real, &tracer);
    let cap = sink.capture();

    let attempted = real.attempted + single.attempted + traced.attempted;
    let failed = real.failed + single.failed + traced.failed + p.setup_failures;
    let mut o = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    let sf = calib::factor(stats::median(&p.calib_ms));
    o.set("planner.compile_ms", stats::median(&p.compile_ms) * sf);
    o.set("verify.plan_ms", stats::median(&p.verify_ms) * sf);
    o.set("neon_sim.rank_ms", stats::median(&p.rank_ms) * sf);

    let f = calib::factor(real.calib_p50());
    o.set("serve.route_ms", route_ms * f);
    o.set("gpu.conv_ms", gpu_conv_ms * f);
    o.set("gpu.estimate_ms", gpu_est_ms * f);
    o.set(
        "serve.queue_wait_ms_p50",
        real.timing_pct(|t| t.queue_wait_ms, 50.0),
    );
    o.set(
        "serve.queue_wait_ms_p99",
        real.timing_pct(|t| t.queue_wait_ms, 99.0),
    );
    o.set(
        "serve.batch_form_ms_p50",
        real.timing_pct(|t| t.batch_form_ms, 50.0),
    );
    o.set(
        "serve.compile_ms_p99",
        real.timing_pct(|t| t.compile_ms, 99.0),
    );
    o.set(
        "serve.execute_ms_p50",
        real.timing_pct(|t| t.execute_ms, 50.0),
    );
    o.set(
        "serve.execute_ms_p99",
        real.timing_pct(|t| t.execute_ms, 99.0),
    );
    let st = &real.stats;
    o.set(
        "serve.batch_mean",
        st.completed as f64 / st.batches.max(1) as f64,
    );
    o.set("serve.batches", st.batches as f64);
    o.set("serve.plan_cache_hit_rate", st.plan_cache.hit_rate());
    let gpu_served = real
        .records
        .iter()
        .filter(|r| r.timing.backend == BackendKind::GpuModel)
        .count();
    o.set(
        "serve.gpu_share",
        gpu_served as f64 / real.records.len().max(1) as f64,
    );
    o.set("serve.queue_full", real.queue_full as f64);
    o.set("serve.gen_late_ms_max", real.late_max_ms);

    let served = real.records.len().max(1) as f64;
    o.set(
        "executor.allocs_per_run",
        real.allocs.allocs as f64 / served,
    );
    o.set(
        "executor.alloc_bytes_per_run",
        real.allocs.bytes as f64 / served,
    );
    o.set("executor.arena_bytes", p.arena_bytes as f64);
    o.set(
        "executor.heap_over_arena",
        real.peak_heap as f64 / p.arena_bytes.max(1) as f64,
    );
    o.set("host.calib_ms", real.calib_p50());
    let raw: Vec<f64> = real.records.iter().map(|r| r.latency_raw_ms).collect();
    o.set("host.latency_p50_raw_ms", stats::median(&raw));
    o.set(
        "trace.overhead_frac",
        stats::median(&traced.latencies()) / stats::median(&single.latencies()) - 1.0,
    );
    span_metrics(&p, &traced, &cap, &mut o);
    o.set("fail_frac", failed as f64 / attempted.max(1) as f64);

    let exported = traced.window.map_or_else(|| cap.clone(), |w| w.apply(&cap));
    let n = spans::export_chrome(&exported, trace_path)?;
    eprintln!("wrote {} ({n} spans, validated)", trace_path.display());
    Ok(o)
}

/// Per-request span figures of the traced phase.
fn span_metrics(p: &Prepared, traced: &Phase, cap: &TraceCapture, o: &mut Outcome) {
    let reqs = traced.records.len().max(1) as f64;
    let tf = calib::factor(traced.calib_p50());
    let per_req = |name: &str| spans::total_ms(cap, name, SpanKind::Wall) / reqs * tf;
    let conv = per_req("conv");
    let tile = per_req("gemm tile");
    o.set("tensor.im2col_ms", per_req("im2col"));
    o.set("qgemm.gemm_tile_ms", tile);
    o.set("qgemm.pack_b_ms", per_req("pack B panel"));
    o.set(
        "qgemm.gemm_share",
        if conv > 0.0 { tile / conv } else { 0.0 },
    );
    o.set("conv_arm.reshape_ms", per_req("reshape nchw"));
    o.set("arm.conv_ms", conv);
    let modeled_conv = spans::total_ms(cap, "conv modeled", SpanKind::Modeled) / reqs;
    o.set(
        "arm.host_over_modeled",
        if modeled_conv > 0.0 {
            conv / modeled_conv
        } else {
            0.0
        },
    );
    let arm_exec: f64 = batches(&traced.records)
        .iter()
        .filter(|(_, t)| t.backend == BackendKind::Arm)
        .map(|(_, t)| t.execute_ms)
        .sum();
    o.set("executor.self_ms", arm_exec / reqs * tf - conv);
    o.set("executor.requant_ms", per_req("requantize"));
    let (mut hits, mut misses) = (0u64, 0u64);
    for s in cap.spans.iter().filter(|s| s.name == "layer") {
        match s.label.as_deref() {
            Some(l) if l.ends_with("(prepack hit)") => hits += 1,
            Some(l) if l.ends_with("(prepack miss)") => misses += 1,
            _ => {}
        }
    }
    o.set(
        "arm.prepack_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let ws = cap
        .counters
        .iter()
        .filter(|c| c.name == "workspace_high_water_bytes")
        .map(|c| c.value)
        .fold(0.0, f64::max);
    o.set("arm.workspace_bytes", ws);

    eprintln!(
        "{NAME} traced: {} requests, self time per request (reference-speed ms)",
        traced.records.len()
    );
    eprint!("{}", spans::self_time_table(cap, reqs, tf));
    let arm = ArmEngine::cortex_a53().with_threads(1);
    let gpu = GpuEngine::rtx2080ti();
    eprintln!(
        "{:<10} {:>12} {:>16} {:>16}",
        "node", "host_ms/req", "modeled_ms (w2)", "modeled_ms (w4)"
    );
    let nodes = spans::node_wall_ms(cap);
    let modeled: Vec<BTreeMap<String, f64>> = p
        .classes
        .iter()
        .map(|c| {
            let backend = choose_point(c, 1, &arm, &gpu).backend;
            compile(c.template(), backend, &arm, &gpu, true)
                .map(|plan| {
                    plan.layers()
                        .iter()
                        .map(|l| (l.name.clone(), l.predicted_millis))
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();
    for (name, host) in &nodes {
        let m = |i: usize| {
            modeled
                .get(i)
                .and_then(|m| m.get(name))
                .copied()
                .unwrap_or(0.0)
        };
        eprintln!(
            "{:<10} {:>12.4} {:>16.4} {:>16.4}",
            name,
            host / reqs * tf,
            m(0),
            m(1)
        );
    }
}
