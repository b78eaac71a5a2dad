//! `matrix`: `MatrixRunner::run(&standard_matrix())` at 2 threads — 43
//! cases on the 60-host 2-pod fabric, NP-hard baselines off.

use crate::drive::{compare_windows, integer_offpath_ms, LayerDrive};
use crate::layers::LayerReport;
use crate::trace::Tracer;
use crate::{status_mb, time_setup, Args, Outcome, THREADS};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use vigil::evaluate::evaluate_epoch;
use vigil::experiment::TrialAccumulator;
use vigil::matrix::{MatrixRunner, ScenarioCase};
use vigil::scenarios::standard_matrix;
use vigil::stream::{RetainPolicy, StreamSession, StreamTuning};
use vigil::{epoch_rng, task_rng, task_seed, SweepEngine};
use vigil_fabric::flowsim::EpochScratch;
use vigil_topology::ClosTopology;

/// Every `REFERENCE_EVERY`-th driven cell also runs through the
/// library's `run_window` for the reconciliation check.
const REFERENCE_EVERY: u64 = 4;

fn runner(seed: u64) -> MatrixRunner {
    let mut runner = MatrixRunner::new(SweepEngine::new(THREADS));
    runner.seed = seed;
    runner
}

/// One trial's topology, trial seed and trial RNG (positioned for the
/// fault compile), drawn exactly as `run_case_trial` draws them.
fn trial_world(
    case: &ScenarioCase,
    runner: &MatrixRunner,
    trial: usize,
) -> (ClosTopology, u64, ChaCha8Rng) {
    let master = case.seed(runner.seed);
    let mut rng = task_rng(master, trial);
    let topo = ClosTopology::new(case.params, rng.gen()).expect("matrix cases are valid");
    (topo, task_seed(master, trial), rng)
}

/// Flows one matrix pass simulates: each cell's generated traffic,
/// drawn from the cell's own epoch RNG (traffic generation is the first
/// thing an epoch draws). The traced run checks this count against the
/// flows its sessions actually simulated.
fn pass_flows(cases: &[ScenarioCase], runner: &MatrixRunner) -> u64 {
    let mut flows = 0u64;
    for case in cases {
        for trial in 0..runner.trials {
            let (topo, trial_seed, _) = trial_world(case, runner, trial);
            for epoch in 0..runner.epochs {
                let specs = case
                    .run
                    .traffic
                    .generate(&topo, &mut epoch_rng(trial_seed, epoch));
                flows += specs.len() as u64;
            }
        }
    }
    flows
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let runner = runner(args.seed);
    // Set-up: the grid plus every case's per-trial world — topology
    // build, fault-timeline compile and session build.
    let build = || {
        let cases = standard_matrix();
        for case in &cases {
            let (topo, _, mut rng) = trial_world(case, &runner, 0);
            let compiled =
                case.faults
                    .compile(&topo, runner.epochs, runner.epoch_seconds, &mut rng);
            let session =
                StreamSession::new(&topo, &case.run, StreamTuning::default(), RetainPolicy::All);
            std::hint::black_box((compiled, session));
        }
        cases
    };
    if args.setup_only {
        return Ok(Outcome::setup_only(time_setup(build)));
    }
    let cases = build();
    if args.trace {
        return traced(args, tr, &runner, &cases);
    }
    let mut out = Outcome::default();
    let flows_per_pass = pass_flows(&cases, &runner);
    let cells_per_pass = (cases.len() * runner.trials * runner.epochs) as u64;

    // The first pass warms the pool and the allocator; its report is
    // the reference every timed pass must reproduce, and the process
    // peak after it is what one conformance run needs.
    let reference = format!("{:?}", runner.run(&cases));
    let peak = status_mb("VmHWM");
    let mut latencies = Vec::new();
    let mut drifted = 0u64;
    let start = Instant::now();
    let deadline = args.deadline(start);
    while Instant::now() < deadline {
        let t = Instant::now();
        let report = runner.run(&cases);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if format!("{report:?}") != reference {
            drifted += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let passes = latencies.len() as u64;

    out.operations(passes * cells_per_pass, 0);
    out.check(
        "passes_reproduce_first",
        drifted == 0,
        format!("{drifted} of {passes} pass(es) differ from the first"),
    );
    let committed = MatrixRunner::new(SweepEngine::new(THREADS));
    let verdict = committed.run(&cases);
    out.check(
        "all_pass_at_committed_seed",
        verdict.all_pass(),
        format!(
            "seed {:#x}: {} failing case(s)",
            committed.seed,
            verdict.failures().len()
        ),
    );
    out.end_to_end(
        passes * cells_per_pass,
        passes * flows_per_pass,
        elapsed,
        &latencies,
        peak,
    );
    out.note("passes", serde_json::json!(passes));
    out.note("cases", serde_json::json!(cases.len()));
    out.note("cells_per_pass", serde_json::json!(cells_per_pass));
    out.note("flows_per_pass", serde_json::json!(flows_per_pass));
    Ok(out)
}

/// The traced run: one pooled pass wrapped whole, then every
/// `(case, trial)` twice — through `run_case_trial`, and re-driven cell
/// by cell (honest cells layer by layer, byzantine and SLB-gated cells
/// through `run_window`). Both must give the same trial report.
fn traced(
    _args: &Args,
    tr: &mut Tracer,
    runner: &MatrixRunner,
    cases: &[ScenarioCase],
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rep = LayerReport::default();
    rep.off_path.extend(["optim", "wire"]);

    // The first pass pays for page faults and cold caches; the second,
    // timed one matches the untraced passes.
    runner.run(cases);
    let t = Instant::now();
    tr.span("matrix.run", None, 0, || runner.run(cases));
    let pooled_s = t.elapsed().as_secs_f64();

    let mut trial_walls_s = 0.0;
    let mut mismatches = Vec::new();
    let mut references = 0u64;
    let mut flows = 0u64;
    let mut cells = 0u64;
    let mut shed = 0u64;
    // One scratch per path, reused across trials as a pool worker
    // reuses its own.
    let mut drive_scratch = EpochScratch::new();
    let mut session_scratch = EpochScratch::new();
    for (ci, case) in cases.iter().enumerate() {
        for trial in 0..runner.trials {
            let base = ((ci * runner.trials + trial) * runner.epochs) as u64;
            let span = tr.begin("matrix.case_trial", None, base);
            let t = Instant::now();
            let library = runner.run_case_trial(case, trial);
            tr.record("matrix.run_case_trial", t, Instant::now(), Some(span), base);
            trial_walls_s += t.elapsed().as_secs_f64();

            let master = case.seed(runner.seed);
            let mut rng = task_rng(master, trial);
            let topo_seed = rng.gen();
            let t = Instant::now();
            let topo = tr.span("topology.build", Some(span), base, || {
                ClosTopology::new(case.params, topo_seed).expect("matrix cases are valid")
            });
            rep.topology_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let compiled = tr.span("fabric.faults_build", Some(span), base, || {
                case.faults
                    .compile(&topo, runner.epochs, runner.epoch_seconds, &mut rng)
            });
            rep.faults_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let trial_seed = task_seed(master, trial);

            let mut acc = TrialAccumulator::new(runner.epochs);
            let mut session =
                StreamSession::new(&topo, &case.run, StreamTuning::default(), RetainPolicy::All);
            let mut drive = LayerDrive::supports(&case.run)
                .then(|| LayerDrive::new(&topo, &case.run, RetainPolicy::All, true));
            for epoch in 0..runner.epochs {
                let cell = base + epoch as u64;
                let faults = compiled.epoch_faults(epoch);
                let run = match drive.as_mut() {
                    Some(drive) => {
                        let (run, layers) = drive.window(
                            &topo,
                            &case.run,
                            &faults,
                            &mut epoch_rng(trial_seed, epoch),
                            &mut drive_scratch,
                            tr,
                            Some(span),
                            cell,
                        );
                        flows += layers.flows;
                        shed += layers.shed;
                        crate::wire::frame_window(drive.take_tap(), cell, &mut rep.wire, tr);
                        rep.agent_busy_s += (layers.trace_ns + layers.tick_ns) as f64 / 1e9;
                        if cell.is_multiple_of(REFERENCE_EVERY) {
                            let t = Instant::now();
                            let reference = session.run_window(
                                &topo,
                                &case.run,
                                &faults,
                                &mut epoch_rng(trial_seed, epoch),
                                &mut session_scratch,
                            );
                            tr.record("session.run_window", t, Instant::now(), Some(span), cell);
                            let session_ms = t.elapsed().as_secs_f64() * 1e3;
                            references += 1;
                            rep.optim_offpath_ms
                                .push(integer_offpath_ms(&run.reports, tr, cell));
                            let eval = evaluate_epoch(&run);
                            if let Some(diff) = compare_windows(&run, &eval, &reference) {
                                mismatches.push(format!("{} cell {cell}: {diff}", case.name));
                            }
                            rep.add_reference(session_ms, &layers);
                        }
                        rep.add_window(layers);
                        run
                    }
                    None => {
                        let before = session.stats().clone();
                        let t = Instant::now();
                        let run = session.run_window(
                            &topo,
                            &case.run,
                            &faults,
                            &mut epoch_rng(trial_seed, epoch),
                            &mut session_scratch,
                        );
                        tr.record("session.run_window", t, Instant::now(), Some(span), cell);
                        rep.session_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        let delta = session.stats().delta_since(&before);
                        flows += delta.flows;
                        shed += delta.shed;
                        run
                    }
                };
                let t = Instant::now();
                let eval = tr.span("evaluate", Some(span), cell, || evaluate_epoch(&run));
                rep.evaluate_ms.push(t.elapsed().as_secs_f64() * 1e3);
                acc.absorb(eval);
                cells += 1;
                rep.rss.push((cells as f64, status_mb("VmRSS")));
            }
            let mine = acc.finish_at(&case.run, trial, 0.0);
            if format!("{:?}", mine.epochs) != format!("{:?}", library.epochs) {
                mismatches.push(format!("{} trial {trial}: trial report differs", case.name));
            }
            tr.end(span);
        }
    }
    rep.add_route(
        drive_scratch.route_cache_stats(),
        drive_scratch.interned_paths(),
    );
    rep.pool_busy_share = trial_walls_s / (THREADS as f64 * pooled_s);
    let expected_flows = pass_flows(cases, runner);

    out.operations(cells, shed);
    out.check("hub_shed_zero", shed == 0, format!("shed {shed}"));
    out.check(
        "drive_reproduces_library",
        mismatches.is_empty() && references > 0,
        if mismatches.is_empty() {
            format!("{references} reference cell(s) and every trial report identical")
        } else {
            mismatches.join("; ")
        },
    );
    out.check(
        "flow_count_matches",
        flows == expected_flows,
        format!("simulated {flows}, counted {expected_flows}"),
    );
    out.metrics = rep.metrics();
    out.note("cells", serde_json::json!(cells));
    out.note("reference_cells", serde_json::json!(references));
    out.note("off_path_layers", serde_json::json!(rep.off_path));
    Ok(out)
}
