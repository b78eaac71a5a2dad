//! Single-epoch hot-path benchmark: wall-clock ns/epoch plus a counting
//! global allocator that records allocations and bytes per epoch.
//!
//! `BENCH_sweep.json` tracks the multi-trial engine; this binary tracks
//! the constant factors *inside* one epoch — the innermost loop every
//! figure, the matrix, and the sweep engine multiply. It writes
//! `BENCH_epoch.json` at the repository root with mean ± std-dev ns per
//! epoch, allocations/bytes per epoch, and the pre-PR baseline those
//! numbers are judged against.
//!
//! The allocator wrapper is bench-only (this binary, not the library
//! crates) which is why the `unsafe_code` workspace deny is relaxed here:
//! `GlobalAlloc` is an unsafe trait by definition, and the wrapper only
//! forwards to `System` while bumping two atomics.
#![allow(unsafe_code)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vigil::prelude::*;

/// Forwards to [`System`], counting every allocation and allocated byte.
/// Reallocations count as one allocation (they may move the block).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation counts measured on this scenario *before* the
/// allocation-free epoch refactor (path interning, bucketed dispatch,
/// epoch scratch, dense tallies), recorded so `BENCH_epoch.json` always
/// carries the comparison point. Measured with this same binary built
/// at the pre-refactor commit (200 iters, 1-core container): the
/// allocation count is deterministic for the pinned seed; the timing is
/// the mean of six runs interleaved with the refactored binary on the
/// same box (1-core container — indicative only, judge on multicore).
const PRE_PR_ALLOCS_PER_EPOCH: f64 = 22_423.0;
const PRE_PR_MEAN_NS: f64 = 1_837_533.0;

/// Warm-pass numbers committed by the PR before the epoch-compiled
/// route cache (same scenario, same 1-core bench container) — the
/// baseline the route-cache speedup and alloc cut are judged against.
const PRE_ROUTE_CACHE_WARM_MEAN_NS: f64 = 2_115_772.0;
const PRE_ROUTE_CACHE_WARM_ALLOCS: f64 = 4_794.0;

fn scenario() -> (ClosTopology, vigil_fabric::LinkFaults, RunConfig) {
    let topo = ClosTopology::new(ClosParams::tiny(), 11).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let faults = FaultPlan {
        failure_rate: RateRange::fixed(0.01),
        ..FaultPlan::paper_default(2)
    }
    .build(&topo, &mut rng);
    // The paper's default traffic: 60 connections per host, 50–100
    // packets each — the per-epoch workload every experiment multiplies.
    let cfg = RunConfig::default();
    (topo, faults, cfg)
}

fn main() {
    let fast = std::env::var("VIGIL_FAST").is_ok_and(|v| v == "1");
    let iters: usize = std::env::var("VIGIL_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 30 } else { 200 });

    let (topo, faults, cfg) = scenario();

    // Warm-up: fault tables, lazy statics, allocator pools.
    for _ in 0..3 {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        std::hint::black_box(vigil::run_epoch(&topo, &faults, &cfg, &mut rng));
    }

    // Cold pass: the same epoch replayed `iters` times through a fresh
    // scratch each time (fixed seed, so the allocation count is a stable
    // property of the code, not the draw). This is the apples-to-apples
    // comparison against the pre-refactor baseline, which had no scratch
    // to reuse.
    let mut samples_ns = Vec::with_capacity(iters);
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes_before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    for _ in 0..iters {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let started = std::time::Instant::now();
        std::hint::black_box(vigil::run_epoch(&topo, &faults, &cfg, &mut rng));
        samples_ns.push(started.elapsed().as_nanos() as f64);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes_before;

    // Warm pass: one scratch AND one stream session threaded through
    // every iteration — the steady state of the trial loop
    // (`run_trial_with` reuses both across a trial's epochs; since the
    // streaming refactor the session carries the hub, ledger, and agent
    // table that a bare `run_epoch_with` call rebuilds per epoch). This
    // is the number that would regress if either reuse were ever
    // silently dropped; the first (cold) warm iteration is excluded from
    // the per-epoch average by measuring after it.
    let mut scratch = vigil_fabric::EpochScratch::new();
    let mut session = vigil::StreamSession::new(
        &topo,
        &cfg,
        vigil::StreamTuning::default(),
        vigil::RetainPolicy::All,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    std::hint::black_box(session.run_window(&topo, &cfg, &faults, &mut rng, &mut scratch));
    let mut warm_ns = Vec::with_capacity(iters);
    let warm_allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let warm_bytes_before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    for _ in 0..iters {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let started = std::time::Instant::now();
        std::hint::black_box(session.run_window(&topo, &cfg, &faults, &mut rng, &mut scratch));
        warm_ns.push(started.elapsed().as_nanos() as f64);
    }
    let warm_allocs = ALLOCATIONS.load(Ordering::Relaxed) - warm_allocs_before;
    let warm_bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - warm_bytes_before;
    // Static faults keep one down-set for the whole run, so the route
    // cache compiles once (during warm-up) and every measured iteration
    // is a table hit — the steady state the trial loop lives in.
    let route = scratch.route_cache_stats();

    let stats = |samples: &[f64]| {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    };
    let n = iters as f64;
    let (mean_ns, std_dev_ns) = stats(&samples_ns);
    let (warm_mean_ns, warm_std_dev_ns) = stats(&warm_ns);
    let allocs_per_epoch = allocs as f64 / n;
    let bytes_per_epoch = bytes as f64 / n;
    let warm_allocs_per_epoch = warm_allocs as f64 / n;
    let warm_bytes_per_epoch = warm_bytes as f64 / n;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let reduction = if allocs_per_epoch > 0.0 {
        PRE_PR_ALLOCS_PER_EPOCH / allocs_per_epoch
    } else {
        f64::INFINITY
    };

    let doc = serde_json::json!({
        "bench": "epoch/hotpath_tiny_paper_traffic",
        "iters": iters,
        "cores_available": cores,
        "mean_ns_per_epoch": mean_ns,
        "std_dev_ns_per_epoch": std_dev_ns,
        "allocs_per_epoch": allocs_per_epoch,
        "bytes_per_epoch": bytes_per_epoch,
        "warm_mean_ns_per_epoch": warm_mean_ns,
        "warm_std_dev_ns_per_epoch": warm_std_dev_ns,
        "warm_allocs_per_epoch": warm_allocs_per_epoch,
        "warm_bytes_per_epoch": warm_bytes_per_epoch,
        "pre_pr_allocs_per_epoch": PRE_PR_ALLOCS_PER_EPOCH,
        "pre_pr_mean_ns_per_epoch": PRE_PR_MEAN_NS,
        "alloc_reduction_vs_pre_pr": reduction,
        "route_table_hits": route.table_hits,
        "route_table_misses": route.table_misses,
        "route_table_compiles": route.compiles,
        "pre_route_cache_warm_mean_ns_per_epoch": PRE_ROUTE_CACHE_WARM_MEAN_NS,
        "pre_route_cache_warm_allocs_per_epoch": PRE_ROUTE_CACHE_WARM_ALLOCS,
        "warm_speedup_vs_pre_route_cache": PRE_ROUTE_CACHE_WARM_MEAN_NS / warm_mean_ns,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_epoch.json");
    let json = serde_json::to_string_pretty(&doc).expect("serialize BENCH_epoch.json");
    std::fs::write(path, json).expect("write BENCH_epoch.json");
    println!(
        "epoch hot path: cold {mean_ns:.0} ns/epoch (σ {std_dev_ns:.0}), \
         {allocs_per_epoch:.1} allocs/epoch; warm (scratch reused) {warm_mean_ns:.0} ns/epoch \
         (σ {warm_std_dev_ns:.0}), {warm_allocs_per_epoch:.1} allocs/epoch, \
         {warm_bytes_per_epoch:.0} bytes/epoch over {iters} iters ({cores} core(s)) \
         -> BENCH_epoch.json [{reduction:.2}x fewer cold allocs than pre-PR, \
         {:.2}x warm speedup vs pre-route-cache; route cache {} compile(s), \
         {} table hit(s)]",
        PRE_ROUTE_CACHE_WARM_MEAN_NS / warm_mean_ns,
        route.compiles,
        route.table_hits,
    );
}
