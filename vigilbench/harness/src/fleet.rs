//! `fleet`: one `run_agent` thread covering every host, sending to
//! `run_collector` over one loopback TCP connection — 60-host matrix
//! fabric, integer baseline off, link noise raised so that about a
//! sixth of flows are eventful.

use crate::drive::{compare_windows, integer_offpath_ms, LayerDrive};
use crate::layers::{LayerReport, WireTotals};
use crate::trace::Tracer;
use crate::wire::{decode_each, encode_all, CaptureWriter};
use crate::{status_mb, time_setup, Args, Outcome};
use rand::Rng;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use vigil::distributed::{
    run_agent, run_collector, AgentSpec, AgentStats, CollectorConfig, CollectorOutcome,
    CollectorStats, Endpoint,
};
use vigil::evaluate::evaluate_epoch;
use vigil::experiment::{ExperimentConfig, ExperimentReport};
use vigil::run::{Baselines, RunConfig};
use vigil::stream::{stream_trial, RetainPolicy, StreamSession, StreamTuning};
use vigil::{epoch_rng, scenarios};
use vigil_fabric::faults::{FaultPlan, RateRange};
use vigil_fabric::flowsim::EpochScratch;
use vigil_fabric::traffic::{ConnCount, TrafficSpec};
use vigil_topology::ClosTopology;

/// Windows per fleet run (one collector, one agent connection).
const EPOCHS: usize = 200;

/// The collector's idle timeout. Its read tick is an eighth of it
/// (clamped to 50 ms–1 s) and bounds how long teardown waits for the
/// reader threads; a long-lived collector never pays it, so a short
/// run must not either.
const IDLE_TIMEOUT: Duration = Duration::from_millis(400);

/// Every `OFFPATH_EVERY`-th traced window also times the integer
/// program on its evidence (the fleet runs with the baselines off).
const OFFPATH_EVERY: usize = 10;

/// Every `REFERENCE_EVERY`-th traced window also runs through the
/// library's `run_window`.
const REFERENCE_EVERY: usize = 4;

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        name: "fleet".into(),
        params: scenarios::matrix_params(),
        faults: FaultPlan {
            noise: RateRange { lo: 0.0, hi: 1e-3 },
            ..FaultPlan::paper_default(1)
        },
        run: RunConfig {
            traffic: TrafficSpec {
                conns_per_host: ConnCount::Fixed(40),
                ..TrafficSpec::paper_default()
            },
            baselines: Baselines {
                integer: false,
                binary: false,
                ..Baselines::default()
            },
            ..RunConfig::default()
        },
        epochs: EPOCHS,
        trials: 1,
        seed,
    }
}

/// What one fleet run produced.
struct FleetRun {
    report: ExperimentReport,
    collector: CollectorStats,
    agent: AgentStats,
    capture: CaptureWriter<TcpStream>,
    started: Instant,
    agent_busy: (Instant, Instant),
    finished: Instant,
}

/// One fleet run: the collector and the agent each on a thread of
/// their own, one TCP connection between them.
fn fleet_once(cfg: &ExperimentConfig, buffer: Vec<u8>) -> Result<FleetRun, String> {
    let started = Instant::now();
    let listener = Endpoint::parse("127.0.0.1:0")
        .bind()
        .map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr();
    let ccfg = CollectorConfig {
        agents: 1,
        epochs: cfg.epochs,
        idle_timeout: IDLE_TIMEOUT,
        ..CollectorConfig::default()
    };
    let num_hosts = cfg.params.num_hosts();
    let spec = AgentSpec {
        hosts: 0..num_hosts,
        start_epoch: 0,
        epochs: cfg.epochs,
        chunk_flows: StreamTuning::default().chunk_flows,
    };
    let (collected, agent) = std::thread::scope(|s| {
        let collector = s.spawn(|| run_collector(cfg, &listener, &ccfg));
        let agent = s.spawn(|| -> Result<_, String> {
            let sock = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            sock.set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            let mut capture = CaptureWriter::new(sock, buffer);
            let t = Instant::now();
            let stats = run_agent(cfg, &spec, &mut capture).map_err(|e| format!("agent: {e}"))?;
            Ok((stats, capture, (t, Instant::now())))
        });
        let agent = agent
            .join()
            .map_err(|_| "agent thread panicked".to_string());
        let collected = collector
            .join()
            .map_err(|_| "collector thread panicked".to_string());
        (collected, agent)
    });
    let finished = Instant::now();
    let (agent, capture, agent_busy) = agent??;
    match collected?.map_err(|e| format!("collector: {e}"))? {
        CollectorOutcome::Completed(report, collector) => Ok(FleetRun {
            report: *report,
            collector,
            agent,
            capture,
            started,
            agent_busy,
            finished,
        }),
        CollectorOutcome::Paused(_) => Err("collector paused".into()),
    }
}

/// Checks a run's captured stream: it decodes frame by frame, and the
/// frame count is the agent's events plus one `EpochDone` per epoch plus
/// the `Hello`. Keeps the frames only when `keep` is set.
fn check_frames(
    run: &FleetRun,
    out: &mut Outcome,
    keep: bool,
) -> Option<(Vec<vigil_wire::WireFrame>, u64)> {
    let mut frames = Vec::new();
    let decoded = decode_each(&run.capture.bytes, |f| {
        if keep {
            frames.push(f);
        }
    });
    match decoded {
        Ok((count, decode_ns)) => {
            let expected = run.agent.events_sent + run.agent.epochs as u64 + 1;
            out.check(
                "decoded_frames_match_agent",
                count == expected,
                format!("decoded {count}, agent counters give {expected}"),
            );
            Some((frames, decode_ns))
        }
        Err(e) => {
            out.check("decoded_frames_match_agent", false, e);
            None
        }
    }
}

fn losses(c: &CollectorStats, out: &mut Outcome) {
    out.operations(c.windows, c.shed + c.seq_gaps);
    out.check(
        "collector_loss_zero",
        c.shed == 0 && c.seq_gaps == 0,
        format!("shed {}, seq gaps {}", c.shed, c.seq_gaps),
    );
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let cfg = config(args.seed);
    // Set-up: the listener plus the world each end derives (topology,
    // faults, session).
    let build = || {
        let listener = Endpoint::parse("127.0.0.1:0")
            .bind()
            .expect("loopback bind");
        let mut rng = cfg.trial_rng(0);
        let topo = ClosTopology::new(cfg.params, rng.gen()).expect("matrix parameters are valid");
        let faults = cfg.faults.build(&topo, &mut rng);
        let session = StreamSession::new(
            &topo,
            &cfg.run,
            StreamTuning::default(),
            RetainPolicy::EvidenceOnly,
        );
        std::hint::black_box((listener, faults, session));
    };
    if args.setup_only {
        return Ok(Outcome::setup_only(time_setup(build)));
    }
    if args.trace {
        return traced(tr, &cfg);
    }
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut windows = 0u64;
    let mut first: Option<String> = None;
    let mut drifted = 0u64;
    let mut elapsed = 0.0;
    let mut runs = 0u64;
    let start = Instant::now();
    let deadline = args.deadline(start);
    let mut peak = 0.0;
    let mut buffer = Vec::new();
    while Instant::now() < deadline {
        let run = fleet_once(&cfg, std::mem::take(&mut buffer))?;
        if runs == 0 {
            // The process peak after one fleet run.
            peak = status_mb("VmHWM");
        }
        elapsed += (run.finished - run.started).as_secs_f64();
        runs += 1;
        windows += run.collector.windows;
        latencies.extend(run.capture.window_ms());
        // Checks, outside the timed region.
        losses(&run.collector, &mut out);
        check_frames(&run, &mut out, false);
        let json = serde_json::to_string(&run.report).map_err(|e| e.to_string())?;
        match &first {
            None => first = Some(json),
            Some(f) => drifted += u64::from(*f != json),
        }
        buffer = run.capture.bytes;
    }
    out.check(
        "runs_reproduce_first",
        drifted == 0,
        format!("{drifted} of {runs} run(s) differ from the first"),
    );
    let (trial, stats) = stream_trial(&cfg, 0, &StreamTuning::default());
    let mut reference = ExperimentReport::empty(&cfg);
    reference.merge_trial(trial);
    let reference = serde_json::to_string(&reference).map_err(|e| e.to_string())?;
    out.check(
        "report_matches_stream_trial",
        first.as_deref() == Some(reference.as_str()),
        "distributed report byte-identical to the in-process stream",
    );
    let flows = stats.flows * runs;
    out.end_to_end(windows, flows, elapsed, &latencies, peak);
    out.note("runs", serde_json::json!(runs));
    out.note("windows_per_run", serde_json::json!(EPOCHS));
    out.note("evidence_per_run", serde_json::json!(stats.evidence));
    Ok(out)
}

/// The traced run: one fleet run with the wire captured and replayed
/// through the codec, then the same windows driven layer by layer in
/// process, each checked against the collector's report.
fn traced(tr: &mut Tracer, cfg: &ExperimentConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rep = LayerReport::default();
    rep.off_path.push("optim");
    for _ in 0..crate::SETUP_REPS {
        let mut rng = cfg.trial_rng(0);
        let seed = rng.gen();
        let t = Instant::now();
        let topo = tr.span("topology.build", None, 0, || {
            ClosTopology::new(cfg.params, seed).expect("matrix parameters are valid")
        });
        rep.topology_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        tr.span("fabric.faults_build", None, 0, || {
            cfg.faults.build(&topo, &mut rng)
        });
        rep.faults_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let run = fleet_once(cfg, Vec::new())?;
    let root = 0u64;
    tr.record("fleet.run", run.started, run.finished, None, root);
    tr.record(
        "agent.run_agent",
        run.agent_busy.0,
        run.agent_busy.1,
        None,
        root,
    );
    tr.record_busy(
        "wire.write",
        run.agent_busy.0,
        run.agent_busy.1,
        None,
        root,
        run.capture.write_ns,
    );
    rep.agent_busy_s = (run.agent_busy.1 - run.agent_busy.0).as_secs_f64();
    rep.pool_busy_share = rep.agent_busy_s / (run.finished - run.started).as_secs_f64();
    rep.collector_seq_gaps = run.collector.seq_gaps;
    rep.collector_shed = run.collector.shed;
    losses(&run.collector, &mut out);
    let t = Instant::now();
    let decoded = check_frames(&run, &mut out, true);
    tr.record("wire.decode", t, Instant::now(), None, root);
    if let Some((frames, decode_ns)) = decoded {
        let t = Instant::now();
        let (bytes, encode_ns) = encode_all(&frames);
        tr.record("wire.encode", t, Instant::now(), None, root);
        out.check(
            "codec_round_trip",
            bytes == run.capture.bytes,
            format!("{} frame(s) re-encoded", frames.len()),
        );
        rep.wire = WireTotals {
            windows: run.collector.windows,
            frames: frames.len() as u64,
            bytes: run.capture.bytes.len() as u64,
            encode_ns,
            decode_ns,
            write_ns: run.capture.write_ns,
        };
    }

    let trial_seed = cfg.trial_seed(0);
    let mut rng = cfg.trial_rng(0);
    let topo = ClosTopology::new(cfg.params, rng.gen()).expect("matrix parameters are valid");
    let faults = cfg.faults.build(&topo, &mut rng);
    let mut drive = LayerDrive::new(&topo, &cfg.run, RetainPolicy::EvidenceOnly, false);
    let mut session = StreamSession::new(
        &topo,
        &cfg.run,
        StreamTuning::default(),
        RetainPolicy::EvidenceOnly,
    );
    let mut drive_scratch = EpochScratch::new();
    let mut ref_scratch = EpochScratch::new();
    let mut mismatches = Vec::new();
    let mut references = 0u64;
    let mut shed = 0u64;
    for epoch in 0..cfg.epochs {
        let cell = epoch as u64;
        let span = tr.begin("fleet.window", None, cell);
        let (driven, layers) = drive.window(
            &topo,
            &cfg.run,
            &faults,
            &mut epoch_rng(trial_seed, epoch),
            &mut drive_scratch,
            tr,
            Some(span),
            cell,
        );
        let t = Instant::now();
        let eval = tr.span("evaluate", Some(span), cell, || evaluate_epoch(&driven));
        rep.evaluate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if format!("{eval:?}") != format!("{:?}", run.report.epochs[epoch]) {
            mismatches.push(format!(
                "window {epoch}: differs from the collector's report"
            ));
        }
        if epoch.is_multiple_of(REFERENCE_EVERY) {
            let t = Instant::now();
            let reference = session.run_window(
                &topo,
                &cfg.run,
                &faults,
                &mut epoch_rng(trial_seed, epoch),
                &mut ref_scratch,
            );
            tr.record("session.run_window", t, Instant::now(), Some(span), cell);
            let session_ms = t.elapsed().as_secs_f64() * 1e3;
            references += 1;
            if let Some(diff) = compare_windows(&driven, &eval, &reference) {
                mismatches.push(format!("window {epoch}: {diff}"));
            }
            rep.add_reference(session_ms, &layers);
        }
        if epoch.is_multiple_of(OFFPATH_EVERY) {
            rep.optim_offpath_ms
                .push(integer_offpath_ms(&driven.reports, tr, cell));
        }
        shed += layers.shed;
        rep.add_window(layers);
        rep.rss.push((cell as f64, status_mb("VmRSS")));
        tr.end(span);
    }
    rep.add_route(
        drive_scratch.route_cache_stats(),
        drive_scratch.interned_paths(),
    );
    out.check("hub_shed_zero", shed == 0, format!("shed {shed}"));
    out.check(
        "drive_reproduces_fleet",
        mismatches.is_empty() && references > 0,
        if mismatches.is_empty() {
            format!("{references} reference window(s) and every collector window identical")
        } else {
            mismatches.join("; ")
        },
    );
    out.metrics = rep.metrics();
    out.note("windows", serde_json::json!(cfg.epochs));
    out.note("reference_windows", serde_json::json!(references));
    out.note("off_path_layers", serde_json::json!(rep.off_path));
    Ok(out)
}
