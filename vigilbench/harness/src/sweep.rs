//! `fig6-sweep`: the Figure 6(b) noise sweep through
//! `SweepEngine::run_sweep` at 2 threads — paper Clos, 5 failures,
//! integer baseline on, every flow record retained and evaluated.

use crate::drive::{compare_windows, LayerDrive};
use crate::layers::LayerReport;
use crate::trace::Tracer;
use crate::{status_mb, time_setup, Args, Outcome, THREADS};
use rand::Rng;
use std::time::Instant;
use vigil::evaluate::evaluate_epoch;
use vigil::experiment::{run_trial, ExperimentConfig, ExperimentReport};
use vigil::stream::{RetainPolicy, StreamSession, StreamTuning};
use vigil::{epoch_rng, scenarios, SweepEngine, SweepSpec};
use vigil_fabric::flowsim::EpochScratch;
use vigil_fabric::ConnCount;
use vigil_topology::ClosTopology;

/// Figure 6(b)'s noise-max axis.
const NOISE: [f64; 5] = [1e-7, 1e-6, 5e-6, 1e-5, 5e-5];

/// Every `REFERENCE_EVERY`-th driven cell also runs through the
/// library's `run_window` for the reconciliation check.
const REFERENCE_EVERY: usize = 4;

/// The epoch reports of a sweep, for comparing two sweeps.
fn epochs_of(reports: &[ExperimentReport]) -> String {
    format!(
        "{:?}",
        reports.iter().map(|r| &r.epochs).collect::<Vec<_>>()
    )
}

/// Trials per noise point. Three keep a sweep near 2 s, so a run holds
/// enough sweeps for their 90th percentile to sit below the slowest.
const TRIALS: usize = 3;

fn point(noise: f64, seed: u64) -> ExperimentConfig {
    let mut cfg = scenarios::fig06_noise(noise, 5);
    cfg.seed = seed;
    cfg.trials = TRIALS;
    cfg
}

fn spec(seed: u64) -> SweepSpec<'static, f64> {
    SweepSpec::new("fig06b", "noise max", NOISE.to_vec(), move |&n| {
        point(n, seed)
    })
}

/// Flows per cell: the figure's traffic is a fixed connection count per
/// host.
fn flows_per_cell(cfg: &ExperimentConfig) -> Result<u64, String> {
    match cfg.run.traffic.conns_per_host {
        ConnCount::Fixed(n) => Ok(u64::from(cfg.params.num_hosts()) * u64::from(n)),
        other => Err(format!("expected a fixed connection count, got {other:?}")),
    }
}

/// Cells in trial order: `(point, trial)`.
fn cells(seed: u64) -> Vec<(usize, ExperimentConfig, usize)> {
    let mut out = Vec::new();
    for (p, &noise) in NOISE.iter().enumerate() {
        let cfg = point(noise, seed);
        for trial in 0..cfg.trials {
            out.push((p, cfg.clone(), trial));
        }
    }
    out
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let engine = SweepEngine::new(THREADS);
    let configs: Vec<ExperimentConfig> = NOISE.iter().map(|&n| point(n, args.seed)).collect();
    for cfg in &configs {
        if cfg.epochs != 1 {
            return Err("the sweep's cells are one-epoch trials".into());
        }
    }
    // Set-up: each point's trial-0 world (topology, faults, session).
    let build = || {
        for cfg in &configs {
            let mut rng = cfg.trial_rng(0);
            let topo =
                ClosTopology::new(cfg.params, rng.gen()).expect("figure parameters are valid");
            let faults = cfg.faults.build(&topo, &mut rng);
            let session =
                StreamSession::new(&topo, &cfg.run, StreamTuning::default(), RetainPolicy::All);
            std::hint::black_box((faults, session));
        }
    };
    if args.setup_only {
        return Ok(Outcome::setup_only(time_setup(build)));
    }
    if args.trace {
        return traced(tr, &engine, &spec(args.seed), args.seed);
    }
    let mut out = Outcome::default();
    let cells_per_sweep: u64 = configs.iter().map(|c| (c.trials * c.epochs) as u64).sum();
    let mut flows_per_sweep = 0u64;
    for cfg in &configs {
        flows_per_sweep += flows_per_cell(cfg)? * (cfg.trials * cfg.epochs) as u64;
    }

    // A window here is one whole sweep: the figure a user waits for.
    let spec = spec(args.seed);
    let mut latencies = Vec::new();
    let mut peak = 0.0;
    let mut first: Option<Vec<ExperimentReport>> = None;
    let mut drifted = 0u64;
    let start = Instant::now();
    let deadline = args.deadline(start);
    while Instant::now() < deadline {
        let t = Instant::now();
        let reports = engine.run_sweep(&spec);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        match &first {
            None => {
                // The process peak after one sweep: what one figure run
                // needs.
                peak = status_mb("VmHWM");
                first = Some(reports);
            }
            Some(f) => drifted += u64::from(epochs_of(f) != epochs_of(&reports)),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let sweeps = latencies.len() as u64;
    let first = first.expect("at least one sweep");

    out.operations(sweeps * cells_per_sweep, 0);
    out.check(
        "sweeps_reproduce_first",
        drifted == 0,
        format!("{drifted} of {sweeps} sweep(s) differ from the first"),
    );
    // One sampled cell, re-run serially through `run_trial`.
    let p = (args.seed % NOISE.len() as u64) as usize;
    let trial = ((args.seed / NOISE.len() as u64) % configs[p].trials as u64) as usize;
    let serial = run_trial(&configs[p], trial);
    out.check(
        "sampled_cell_matches_run_trial",
        format!("{:?}", serial.epochs) == format!("{:?}", &first[p].epochs[trial..=trial]),
        format!("noise {} trial {trial}", NOISE[p]),
    );
    out.end_to_end(
        sweeps * cells_per_sweep,
        sweeps * flows_per_sweep,
        elapsed,
        &latencies,
        peak,
    );
    out.note("sweeps", serde_json::json!(sweeps));
    out.note("cells_per_sweep", serde_json::json!(cells_per_sweep));
    Ok(out)
}

/// The traced run: one pooled sweep wrapped whole, then every cell
/// driven layer by layer on one worker-style scratch (as a pool worker
/// reuses its scratch across trials of the same parameters), each
/// checked against the sweep's own report for that cell.
fn traced(
    tr: &mut Tracer,
    engine: &SweepEngine,
    spec: &SweepSpec<'_, f64>,
    seed: u64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rep = LayerReport::default();
    rep.off_path.push("wire");

    // The first sweep pays for page faults and cold caches; the second,
    // timed one matches the untraced sweeps.
    engine.run_sweep(spec);
    let t = Instant::now();
    let pooled = tr.span("sweep.run_sweep", None, 0, || engine.run_sweep(spec));
    let pooled_s = t.elapsed().as_secs_f64();
    let trial_ms: f64 = pooled
        .iter()
        .flat_map(|r| r.timing.per_trial_ms.iter())
        .sum();
    rep.pool_busy_share = trial_ms / 1e3 / (THREADS as f64 * pooled_s);

    let mut drive_scratch = EpochScratch::new();
    let mut ref_scratch = EpochScratch::new();
    let mut mismatches = Vec::new();
    let mut references = 0u64;
    let mut flows_ok = true;
    let mut shed = 0u64;
    let all = cells(seed);
    for (i, (p, cfg, trial)) in all.iter().enumerate() {
        let cell = i as u64;
        let span = tr.begin("sweep.cell", None, cell);
        let mut rng = cfg.trial_rng(*trial);
        let topo_seed = rng.gen();
        let t = Instant::now();
        let topo = tr.span("topology.build", Some(span), cell, || {
            ClosTopology::new(cfg.params, topo_seed).expect("figure parameters are valid")
        });
        rep.topology_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let faults = tr.span("fabric.faults_build", Some(span), cell, || {
            cfg.faults.build(&topo, &mut rng)
        });
        rep.faults_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let trial_seed = cfg.trial_seed(*trial);

        let mut drive = LayerDrive::new(&topo, &cfg.run, RetainPolicy::All, true);
        let (run, layers) = drive.window(
            &topo,
            &cfg.run,
            &faults,
            &mut epoch_rng(trial_seed, 0),
            &mut drive_scratch,
            tr,
            Some(span),
            cell,
        );
        let t = Instant::now();
        let eval = tr.span("evaluate", Some(span), cell, || evaluate_epoch(&run));
        rep.evaluate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if format!("{eval:?}") != format!("{:?}", pooled[*p].epochs[*trial]) {
            mismatches.push(format!(
                "noise {} trial {trial}: differs from run_sweep",
                NOISE[*p]
            ));
        }
        flows_ok &= layers.flows == flows_per_cell(cfg)?;
        shed += layers.shed;
        if i.is_multiple_of(REFERENCE_EVERY) {
            let mut session =
                StreamSession::new(&topo, &cfg.run, StreamTuning::default(), RetainPolicy::All);
            let t = Instant::now();
            let reference = session.run_window(
                &topo,
                &cfg.run,
                &faults,
                &mut epoch_rng(trial_seed, 0),
                &mut ref_scratch,
            );
            tr.record("session.run_window", t, Instant::now(), Some(span), cell);
            let session_ms = t.elapsed().as_secs_f64() * 1e3;
            references += 1;
            if let Some(diff) = compare_windows(&run, &eval, &reference) {
                mismatches.push(format!("noise {} trial {trial}: {diff}", NOISE[*p]));
            }
            rep.add_reference(session_ms, &layers);
        }
        crate::wire::frame_window(drive.take_tap(), cell, &mut rep.wire, tr);
        rep.agent_busy_s += (layers.trace_ns + layers.tick_ns) as f64 / 1e9;
        rep.add_window(layers);
        drop(run);
        rep.rss.push((cell as f64, status_mb("VmRSS")));
        tr.end(span);
    }
    rep.add_route(
        drive_scratch.route_cache_stats(),
        drive_scratch.interned_paths(),
    );

    out.operations(all.len() as u64, shed);
    out.check("hub_shed_zero", shed == 0, format!("shed {shed}"));
    out.check(
        "drive_reproduces_library",
        mismatches.is_empty() && references > 0,
        if mismatches.is_empty() {
            format!("{references} reference cell(s) and every sweep cell identical")
        } else {
            mismatches.join("; ")
        },
    );
    out.check(
        "flow_count_matches",
        flows_ok,
        "flows per cell = hosts × connections",
    );
    out.metrics = rep.metrics();
    out.note("cells", serde_json::json!(all.len()));
    out.note("reference_cells", serde_json::json!(references));
    out.note("off_path_layers", serde_json::json!(rep.off_path));
    Ok(out)
}
