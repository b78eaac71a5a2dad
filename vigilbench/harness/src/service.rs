//! `service`: the `vigil-sim stream single-failure --forever`
//! configuration driven through the library — one `StreamSession` in
//! evidence-only retention, a fresh `epoch_rng` per window, 1 thread.

use crate::drive::{compare_windows, LayerDrive};
use crate::layers::{slope, LayerReport};
use crate::trace::Tracer;
use crate::{status_mb, time_setup, Args, Outcome};
use rand::Rng;
use std::time::Instant;
use vigil::evaluate::evaluate_epoch;
use vigil::experiment::ExperimentConfig;
use vigil::run::run_epoch_with;
use vigil::stream::{RetainPolicy, StreamSession, StreamTuning};
use vigil::{epoch_rng, scenarios};
use vigil_fabric::flowsim::EpochScratch;
use vigil_fabric::LinkFaults;
use vigil_topology::ClosTopology;

/// Every `REFERENCE_EVERY`-th traced window also runs through the
/// library's own `run_window` for the reconciliation check. Running it
/// on every window would double the traced process's path state.
const REFERENCE_EVERY: usize = 4;

/// Upper bound on measured windows. The path state grows by about
/// 12 MB per window at paper scale, so this caps the process near 2 GB
/// however fast windows get.
const MAX_WINDOWS: usize = 160;

/// The CLI's `single-failure` preset at the benchmark's seed: paper
/// Clos, 60 connections per host, one failure at 0.05–1 %, integer
/// baseline on.
fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = scenarios::fig03_optimal_case(1);
    cfg.seed = seed;
    cfg.trials = 1;
    cfg
}

/// Trial 0's topology and faults, exactly as `stream --forever` draws
/// them.
fn world(cfg: &ExperimentConfig) -> (ClosTopology, LinkFaults) {
    let mut rng = cfg.trial_rng(0);
    let topo = ClosTopology::new(cfg.params, rng.gen()).expect("preset parameters are valid");
    let faults = cfg.faults.build(&topo, &mut rng);
    (topo, faults)
}

fn new_session(topo: &ClosTopology, cfg: &ExperimentConfig) -> StreamSession {
    StreamSession::new(
        topo,
        &cfg.run,
        StreamTuning::default(),
        RetainPolicy::EvidenceOnly,
    )
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let cfg = config(args.seed);
    let trial_seed = cfg.trial_seed(0);
    let build = || {
        let (topo, faults) = world(&cfg);
        let session = new_session(&topo, &cfg);
        (topo, faults, session, EpochScratch::new())
    };
    if args.setup_only {
        return Ok(Outcome::setup_only(time_setup(build)));
    }
    let (topo, faults, mut session, mut scratch) = build();
    if args.trace {
        return traced(args, tr, &cfg, &topo, &faults, session);
    }
    let mut out = Outcome::default();

    // Window 0 warms the route cache and the allocator; it is not timed.
    session.run_window(
        &topo,
        &cfg.run,
        &faults,
        &mut epoch_rng(trial_seed, 0),
        &mut scratch,
    );
    let flows_before = session.stats().flows;
    let sample = 1 + (args.seed % 4) as usize;
    let mut sampled = None;
    let mut latencies = Vec::new();
    let mut rss = Vec::new();
    let start = Instant::now();
    let deadline = args.deadline(start);
    let mut window = 1usize;
    while Instant::now() < deadline && window <= MAX_WINDOWS {
        let t = Instant::now();
        let run = session.run_window(
            &topo,
            &cfg.run,
            &faults,
            &mut epoch_rng(trial_seed, window),
            &mut scratch,
        );
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        rss.push((window as f64, status_mb("VmRSS")));
        if window == sample {
            sampled = Some((run.reports.clone(), run.detection.detected_links()));
        }
        window += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak = status_mb("VmHWM");
    let windows = (window - 1) as u64;
    let flows = session.stats().flows - flows_before;
    session.shutdown();
    let shed = session.stats().shed;

    // Output checks, outside the timed region.
    out.operations(windows, shed);
    out.check("hub_shed_zero", shed == 0, format!("shed {shed}"));
    match sampled {
        Some((reports, detected)) => {
            let replay = run_epoch_with(
                &topo,
                &faults,
                &cfg.run,
                &mut epoch_rng(trial_seed, sample),
                &mut EpochScratch::new(),
            );
            let same = replay.reports == reports && replay.detection.detected_links() == detected;
            out.check(
                "sampled_window_replays",
                same,
                format!("window {sample} through run_epoch_with"),
            );
        }
        None => out.check(
            "sampled_window_replays",
            false,
            format!("run ended before window {sample}"),
        ),
    }
    out.end_to_end(windows, flows, elapsed, &latencies, peak);
    out.note("windows", serde_json::json!(windows));
    out.note(
        "rss_growth_mb_per_100_windows",
        serde_json::json!(slope(&rss) * 100.0),
    );
    out.note(
        "interned_paths",
        serde_json::json!(scratch.interned_paths()),
    );
    Ok(out)
}

/// The traced run: each window is driven layer by layer, and every
/// [`REFERENCE_EVERY`]-th one also through `run_window` on the same
/// seed, which it must reproduce exactly.
fn traced(
    args: &Args,
    tr: &mut Tracer,
    cfg: &ExperimentConfig,
    topo: &ClosTopology,
    faults: &LinkFaults,
    mut session: StreamSession,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rep = LayerReport::default();
    let trial_seed = cfg.trial_seed(0);
    for _ in 0..crate::SETUP_REPS {
        let mut rng = cfg.trial_rng(0);
        let seed = rng.gen();
        let t = Instant::now();
        let topo = tr.span("topology.build", None, 0, || {
            ClosTopology::new(cfg.params, seed).expect("preset parameters are valid")
        });
        rep.topology_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        tr.span("fabric.faults_build", None, 0, || {
            cfg.faults.build(&topo, &mut rng)
        });
        rep.faults_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rep.off_path.push("wire");

    let mut drive = LayerDrive::new(topo, &cfg.run, RetainPolicy::EvidenceOnly, true);
    let mut drive_scratch = EpochScratch::new();
    let mut ref_scratch = EpochScratch::new();
    let mut mismatches = Vec::new();
    let mut references = 0u64;
    let mut windows = 0u64;
    let start = Instant::now();
    let deadline = args.deadline(start);
    let mut window = 0usize;
    while window == 0 || (Instant::now() < deadline && window <= MAX_WINDOWS) {
        let cell = window as u64;
        let span = tr.begin("service.window", None, cell);
        let reference = window.is_multiple_of(REFERENCE_EVERY).then(|| {
            let t = Instant::now();
            let run = session.run_window(
                topo,
                &cfg.run,
                faults,
                &mut epoch_rng(trial_seed, window),
                &mut ref_scratch,
            );
            tr.record("session.run_window", t, Instant::now(), Some(span), cell);
            (run, t.elapsed().as_secs_f64() * 1e3)
        });
        let (run, layers) = drive.window(
            topo,
            &cfg.run,
            faults,
            &mut epoch_rng(trial_seed, window),
            &mut drive_scratch,
            tr,
            Some(span),
            cell,
        );
        let t = Instant::now();
        let eval = tr.span("evaluate", Some(span), cell, || evaluate_epoch(&run));
        let evaluate_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some((ref_run, session_ms)) = reference {
            references += 1;
            if let Some(diff) = compare_windows(&run, &eval, &ref_run) {
                mismatches.push(format!("window {window}: {diff}"));
            }
            if window > 0 {
                rep.add_reference(session_ms, &layers);
            }
        }
        crate::wire::frame_window(drive.take_tap(), cell, &mut rep.wire, tr);
        tr.end(span);
        // Window 0 warms both paths; it is checked but not measured.
        if window > 0 {
            rep.evaluate_ms.push(evaluate_ms);
            rep.agent_busy_s += (layers.trace_ns + layers.tick_ns) as f64 / 1e9;
            rep.rss.push((window as f64, status_mb("VmRSS")));
            rep.add_window(layers);
            windows += 1;
        }
        window += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let driven_s: f64 = rep.windows.iter().map(|l| l.window_ns as f64 / 1e9).sum();
    rep.pool_busy_share = driven_s / elapsed;
    rep.add_route(
        drive_scratch.route_cache_stats(),
        drive_scratch.interned_paths(),
    );
    let shed: u64 = rep.windows.iter().map(|l| l.shed).sum();
    out.operations(windows, shed);
    out.check("hub_shed_zero", shed == 0, format!("shed {shed}"));
    out.check(
        "drive_reproduces_run_window",
        mismatches.is_empty() && references > 0,
        if mismatches.is_empty() {
            format!("{references} reference window(s) identical")
        } else {
            mismatches.join("; ")
        },
    );
    out.metrics = rep.metrics();
    out.note("windows", serde_json::json!(windows));
    out.note("reference_windows", serde_json::json!(references));
    out.note("off_path_layers", serde_json::json!(rep.off_path));
    Ok(out)
}
