//! Determinism of the benchmark's generators and counts, and the
//! percentile rule. Run with `cargo test --release` from this directory
//! (the edge checks execute real blocks and are slow unoptimized).

use lowbit::prelude::Tracer;
use lowbit_perfbench::alloc::CountingAlloc;
use lowbit_perfbench::edge::{self, EdgeWorkload};
use lowbit_perfbench::gen::{self, Arrival, ScheduleSpec};
use lowbit_perfbench::stats::percentile;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn spec() -> ScheduleSpec {
    ScheduleSpec {
        rate_per_s: 180.0,
        duration_ms: 5_000.0,
        classes: 2,
        pool: 16,
        bursts: &[4, 8, 12, 16],
    }
}

#[test]
fn percentile_picks_the_nearest_rank() {
    let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(5.0));
    assert_eq!(percentile(&v, 51.0), Some(6.0));
    assert_eq!(percentile(&v, 99.0), Some(10.0));
    assert_eq!(percentile(&v, 10.0), Some(1.0));
    assert_eq!(percentile(&v, 0.1), Some(1.0));
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[], 50.0), None);
    // 1000 samples: the p99 is the 990th, so ten lie beyond it.
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 99.0), Some(990.0));
}

#[test]
fn same_seed_gives_the_same_schedule() {
    let a = gen::schedule(&spec(), 42);
    assert_eq!(a, gen::schedule(&spec(), 42));
    assert_ne!(a, gen::schedule(&spec(), 43));
    assert_eq!(a.len(), 900, "exactly rate x duration arrivals");
    assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    assert!(a.last().is_some_and(|l| l.at_ms <= 5_000.0));
    assert!(a.iter().all(|x| x.class < 2 && x.input < 16));
    // Bursts: runs of arrivals due at one instant, all of one class. The
    // schedule holds one of each size per class, whatever the seed.
    for seed in [42, 43, 44] {
        let a = gen::schedule(&spec(), seed);
        let mut bursts = Vec::new();
        let mut run = 1;
        for (i, x) in a.iter().enumerate() {
            let next = a.get(i + 1);
            if next.is_some_and(|y: &Arrival| y.at_ms == x.at_ms && y.class == x.class) {
                run += 1;
            } else {
                if run > 1 {
                    bursts.push((x.class, run));
                }
                run = 1;
            }
        }
        bursts.sort_unstable();
        let expected: Vec<(usize, usize)> = (0..2)
            .flat_map(|c| [4, 8, 12, 16].map(|size| (c, size)))
            .collect();
        assert_eq!(bursts, expected, "seed {seed}");
    }
}

#[test]
fn same_seed_gives_the_same_pinned_inputs() {
    let dims = (1, 8, 5, 5);
    let a = gen::input_pool(dims, 3, 9, 2);
    let b = gen::input_pool(dims, 3, 9, 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.data(), y.data());
        let max = x.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert_eq!(max, 1.0, "max-abs is pinned");
    }
    assert_ne!(a[0].data(), gen::input_pool(dims, 3, 10, 2)[0].data());
    assert_eq!(gen::weight_seed(5), gen::weight_seed(5));
}

fn modeled_and_allocs(w: &EdgeWorkload, seed: u64) -> (f64, Vec<u64>) {
    let p = edge::prepare(w, seed).expect("workload builds");
    assert_eq!(p.setup_failures, 0, "fused and unfused plans agree");
    let ph = edge::closed_loop(&p, 0.0, 3, &Tracer::null());
    assert_eq!(ph.failed, 0, "outputs and modeled time match the set-up's");
    (p.modeled_ms, ph.allocs.iter().map(|c| c.allocs).collect())
}

#[test]
fn modeled_ms_and_allocs_per_run_repeat_across_runs_and_seeds() {
    for w in [edge::EDGE_W2_PROJECTION, edge::EDGE_W8_DENSE] {
        let (modeled, allocs) = modeled_and_allocs(&w, 1);
        assert!(modeled > 0.0);
        assert!(
            allocs.windows(2).all(|a| a[0] == a[1]),
            "{}: {allocs:?}",
            w.name
        );
        assert_eq!(
            modeled_and_allocs(&w, 1),
            (modeled, allocs.clone()),
            "{}",
            w.name
        );
        assert_eq!(modeled_and_allocs(&w, 2), (modeled, allocs), "{}", w.name);
    }
}
