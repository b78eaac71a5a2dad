//! A layer-by-layer window driver built only from the library's public
//! calls, for the traced runs.
//!
//! `LayerDrive::window` follows `StreamSession::run_window`'s gate-off,
//! honest-agent path step by step: `EpochStream::open`, `next_batch`,
//! `materialize`, `DiscoveredPath::of_flow_path` plus
//! `HostAgent::on_retransmission`, `EventCollector::drain_into`,
//! `VoteLedger::absorb`, `epoch_tick`, `close_window`, then the §5.3
//! baselines through `CoverInstance::new` and `integer_program`. Each
//! call is timed as a span, so a window's time splits into layers. The
//! traced runs compare every driven window with the library's own
//! `run_window` (reports, detected links and `evaluate_epoch` output),
//! so a drift between this file and the library fails the run instead
//! of skewing the numbers.

use crate::trace::{SpanId, Tracer};
use rand::Rng;
use std::time::Instant;
use vigil::run::{EpochRun, PacerBudget, RunConfig};
use vigil::stream::RetainPolicy;
use vigil_agents::{
    event_channel_bounded, AgentEvent, DiscoveredPath, EventCollector, EventSender, FlowIndex,
    HostAgent, HostPacer, RetransmissionEvent, TraceReport,
};
use vigil_analysis::{FlowEvidence, VoteLedger};
use vigil_fabric::flowsim::{EpochOutcome, EpochScratch, EpochStream, FlowBatch, FlowRecord};
use vigil_fabric::LinkFaults;
use vigil_optim::{binary_program, integer_program, CoverInstance, FlowRow, SearchLimits};
use vigil_packet::FiveTuple;
use vigil_topology::{ClosTopology, HostId};

/// The session's window-ring length and health EWMA weight. The library
/// keeps both crate-private; the reconciliation check catches a change.
const LEDGER_RING_WINDOWS: usize = 8;
const LEDGER_HEALTH_ALPHA: f64 = 0.3;

/// `StreamTuning::default()`'s chunk size and hub depth.
const CHUNK_FLOWS: usize = 256;
const HUB_CAPACITY: usize = 1024;

/// Time and work per layer for one driven window.
#[derive(Debug, Clone, Default)]
pub struct WindowLayers {
    /// `EpochStream::open` (traffic generation and route-cache prepare).
    pub open_ns: u64,
    /// `next_batch` calls.
    pub simulate_ns: u64,
    /// Flows simulated.
    pub flows: u64,
    /// `materialize` calls.
    pub materialize_ns: u64,
    /// Records materialized.
    pub records: u64,
    /// `of_flow_path` plus `on_retransmission`.
    pub trace_ns: u64,
    /// Eventful flows handed to an agent (flow opens).
    pub flow_opens: u64,
    /// `drain_into` calls.
    pub drain_ns: u64,
    /// Events drained off the hub.
    pub drained: u64,
    /// `VoteLedger::absorb` calls.
    pub absorb_ns: u64,
    /// Evidence absorbed.
    pub evidence: u64,
    /// `epoch_tick` over the live agents.
    pub tick_ns: u64,
    /// `close_window` (Algorithm 1).
    pub close_ns: u64,
    /// Report sort plus `FlowIndex::from_flows`.
    pub assemble_ns: u64,
    /// `CoverInstance::new` plus the enabled programs (0 when off).
    pub optim_ns: u64,
    /// Rows of the cover instance (= reports), counted even when the
    /// baselines are off.
    pub optim_rows: u64,
    /// Whether the integer program proved optimality (when it ran).
    pub optim_optimal: Option<bool>,
    /// The whole driven window, wall clock.
    pub window_ns: u64,
    /// Hub events shed during the window.
    pub shed: u64,
}

impl WindowLayers {
    /// Sum of the layer spans that make up `run_window`.
    pub fn attributed_ns(&self) -> u64 {
        self.open_ns
            + self.simulate_ns
            + self.materialize_ns
            + self.trace_ns
            + self.drain_ns
            + self.absorb_ns
            + self.tick_ns
            + self.close_ns
            + self.assemble_ns
            + self.optim_ns
    }
}

/// `PacerBudget::pacer`, which the library keeps crate-private.
fn pacer(budget: &PacerBudget, topo: &ClosTopology) -> HostPacer {
    match *budget {
        PacerBudget::Theorem1 {
            tmax,
            epoch_seconds,
        } => HostPacer::from_theorem1(topo, tmax, epoch_seconds),
        PacerBudget::Fixed(n) => HostPacer::with_budget(n),
        PacerBudget::Unlimited => HostPacer::with_budget(u32::MAX),
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The persistent state of one driven session: agents, ledger, hub.
pub struct LayerDrive {
    retain: RetainPolicy,
    agents: Vec<Option<HostAgent>>,
    ledger: VoteLedger<(HostId, FiveTuple)>,
    hub_tx: EventSender,
    hub_rx: EventCollector,
    reports: Vec<TraceReport>,
    batch: FlowBatch,
    inbox: Vec<AgentEvent>,
    /// When set, every drained event is copied here (the wire layer's
    /// input on workloads that do not use the wire themselves).
    tap: Option<Vec<AgentEvent>>,
    tap_ns: u64,
}

impl LayerDrive {
    /// Whether the drive covers `config`: the byzantine and SLB-gate
    /// branches of `run_window` have no public per-layer calls.
    pub fn supports(config: &RunConfig) -> bool {
        !config.byzantine.enabled() && !config.slb.enabled()
    }

    /// A drive sized for `topo`, mirroring `StreamSession::new`.
    pub fn new(topo: &ClosTopology, config: &RunConfig, retain: RetainPolicy, tap: bool) -> Self {
        assert!(
            Self::supports(config),
            "layer drive covers honest, gate-off configs only"
        );
        let (hub_tx, hub_rx) = event_channel_bounded(HUB_CAPACITY);
        Self {
            retain,
            agents: (0..topo.num_hosts()).map(|_| None).collect(),
            ledger: VoteLedger::new(
                topo.num_links(),
                config.alg1,
                LEDGER_RING_WINDOWS,
                LEDGER_HEALTH_ALPHA,
            ),
            hub_tx,
            hub_rx,
            reports: Vec::new(),
            batch: FlowBatch::new(),
            inbox: Vec::new(),
            tap: tap.then(Vec::new),
            tap_ns: 0,
        }
    }

    /// Takes the events tapped since the last call.
    pub fn take_tap(&mut self) -> Vec<AgentEvent> {
        self.tap.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn drain(&mut self, l: &mut WindowLayers, tr: &mut Tracer, parent: SpanId, cell: u64) {
        self.inbox.clear();
        let t = Instant::now();
        let n = self.hub_rx.drain_into(&mut self.inbox);
        tr.record("hub.drain", t, Instant::now(), Some(parent), cell);
        l.drain_ns += ns_since(t);
        l.drained += n as u64;
        if let Some(tap) = self.tap.as_mut() {
            let t = Instant::now();
            tap.extend(self.inbox.iter().cloned());
            self.tap_ns += ns_since(t);
        }
        let t = Instant::now();
        let absorbed_before = l.evidence;
        for event in self.inbox.drain(..) {
            if let AgentEvent::Evidence { report, .. } = event {
                self.ledger.absorb(
                    (report.host, report.tuple),
                    FlowEvidence {
                        links: report.links.clone(),
                        retransmissions: report.retransmissions,
                        complete: report.complete,
                    },
                );
                self.reports.push(report);
                l.evidence += 1;
            }
        }
        if l.evidence > absorbed_before {
            tr.record("analysis.absorb", t, Instant::now(), Some(parent), cell);
        }
        l.absorb_ns += ns_since(t);
    }

    /// Drives one window through the layers. `topo`, `config` and
    /// `faults` must be the ones the drive was built for, exactly as
    /// for `StreamSession::run_window`.
    #[allow(clippy::too_many_arguments)]
    pub fn window<R: Rng + ?Sized>(
        &mut self,
        topo: &ClosTopology,
        config: &RunConfig,
        faults: &LinkFaults,
        rng: &mut R,
        scratch: &mut EpochScratch,
        tr: &mut Tracer,
        parent: Option<SpanId>,
        cell: u64,
    ) -> (EpochRun, WindowLayers) {
        let mut l = WindowLayers::default();
        let shed_before = self.hub_rx.shed();
        self.tap_ns = 0;
        let started = Instant::now();
        let win = tr.begin("drive.window", parent, cell);

        let t = Instant::now();
        let mut stream =
            EpochStream::open(topo, faults, &config.traffic, &config.sim, rng, scratch);
        tr.record("fabric.open", t, Instant::now(), Some(win), cell);
        l.open_ns = ns_since(t);
        let mut retained: Vec<FlowRecord> = match self.retain {
            RetainPolicy::All => Vec::with_capacity(stream.total_flows()),
            RetainPolicy::EvidenceOnly => Vec::new(),
        };

        loop {
            self.batch.clear();
            let t = Instant::now();
            let n = stream.next_batch(CHUNK_FLOWS, &mut self.batch);
            tr.record("fabric.simulate", t, Instant::now(), Some(win), cell);
            l.simulate_ns += ns_since(t);
            if n == 0 {
                break;
            }
            l.flows += n as u64;
            let batch = std::mem::take(&mut self.batch);
            let rows = Instant::now();
            let (mut materialize_ns, mut trace_ns) = (0u64, 0u64);
            for i in 0..batch.len() {
                let eventful = batch.established()[i] && batch.retransmissions()[i] > 0;
                let keep = match self.retain {
                    RetainPolicy::All => true,
                    RetainPolicy::EvidenceOnly => batch.retransmissions()[i] > 0,
                };
                if !eventful && !keep {
                    continue;
                }
                let t = Instant::now();
                let rec = stream.materialize(&batch, i);
                materialize_ns += ns_since(t);
                l.records += 1;
                if eventful {
                    let t = Instant::now();
                    let event = RetransmissionEvent {
                        host: rec.src,
                        tuple: rec.tuple,
                        retransmissions: rec.retransmissions,
                    };
                    let path = DiscoveredPath::of_flow_path(&rec.path);
                    let slot = &mut self.agents[event.host.0 as usize];
                    let agent = slot.get_or_insert_with(|| {
                        HostAgent::new(event.host, pacer(&config.pacer, topo))
                    });
                    agent.on_retransmission(&event, path, &self.hub_tx);
                    trace_ns += ns_since(t);
                    l.flow_opens += 1;
                }
                if keep {
                    retained.push(rec);
                }
            }
            let rows_end = Instant::now();
            if materialize_ns > 0 {
                tr.record_busy(
                    "fabric.materialize",
                    rows,
                    rows_end,
                    Some(win),
                    cell,
                    materialize_ns,
                );
            }
            if trace_ns > 0 {
                tr.record_busy("agents.trace", rows, rows_end, Some(win), cell, trace_ns);
            }
            l.materialize_ns += materialize_ns;
            l.trace_ns += trace_ns;
            self.batch = batch;
            self.drain(&mut l, tr, win, cell);
        }
        let ground_truth = stream.finish();

        // Epoch ticks, draining whenever a hub's worth of ticks queued —
        // the drains count as hub time, not tick time.
        let next_epoch = self.ledger.epoch() + 1;
        let tick_span = tr.begin("agents.tick", Some(win), cell);
        let mut since_drain = 0usize;
        let mut tick_t = Instant::now();
        for i in 0..self.agents.len() {
            if let Some(agent) = self.agents[i].as_mut() {
                agent.epoch_tick(next_epoch, &self.hub_tx);
                since_drain += 1;
                if since_drain >= HUB_CAPACITY {
                    l.tick_ns += ns_since(tick_t);
                    self.drain(&mut l, tr, tick_span, cell);
                    since_drain = 0;
                    tick_t = Instant::now();
                }
            }
        }
        l.tick_ns += ns_since(tick_t);
        tr.end(tick_span);
        self.drain(&mut l, tr, win, cell);

        let t = Instant::now();
        let window = self.ledger.close_window();
        tr.record("analysis.close_window", t, Instant::now(), Some(win), cell);
        l.close_ns = ns_since(t);

        let t = Instant::now();
        let mut reports = std::mem::take(&mut self.reports);
        reports.sort_by_key(|r| (r.host, r.tuple));
        let flow_index = FlowIndex::from_flows(&retained);
        tr.record("session.assemble", t, Instant::now(), Some(win), cell);
        l.assemble_ns = ns_since(t);

        l.optim_rows = reports.len() as u64;
        let t = Instant::now();
        let (integer, binary) = if config.baselines.integer || config.baselines.binary {
            let limits = SearchLimits {
                max_nodes: config.baselines.max_nodes,
            };
            let instance = CoverInstance::new(&cover_rows(&reports));
            (
                config
                    .baselines
                    .integer
                    .then(|| integer_program(&instance, &limits)),
                config
                    .baselines
                    .binary
                    .then(|| binary_program(&instance, &limits)),
            )
        } else {
            (None, None)
        };
        if config.baselines.integer || config.baselines.binary {
            tr.record("optim.integer", t, Instant::now(), Some(win), cell);
            l.optim_ns = ns_since(t);
        }
        l.optim_optimal = integer.as_ref().map(|s| s.optimal);

        let run = EpochRun {
            outcome: EpochOutcome {
                flows: retained,
                ground_truth,
            },
            flow_index,
            reports,
            evidence: window.evidence,
            detection: window.detection,
            unbounded_picks: window.unbounded_picks,
            classes: window.classes,
            integer,
            binary,
        };
        tr.end(win);
        l.window_ns = ns_since(started).saturating_sub(self.tap_ns);
        l.shed = self.hub_rx.shed() - shed_before;
        (run, l)
    }
}

/// The §5.3 cover instance's rows for a window's reports.
pub fn cover_rows(reports: &[TraceReport]) -> Vec<FlowRow> {
    reports
        .iter()
        .map(|r| FlowRow {
            links: r.links.iter().map(|l| l.0).collect(),
            demand: r.retransmissions,
        })
        .collect()
}

/// Compares a driven window (and its `evaluate_epoch` output) with the
/// library's own run of the same window: reports, detected links and
/// evaluation must be identical. Returns what differs, if anything.
pub fn compare_windows(
    driven: &EpochRun,
    driven_eval: &vigil::evaluate::EpochReport,
    reference: &EpochRun,
) -> Option<String> {
    if driven.reports != reference.reports {
        return Some(format!(
            "reports differ ({} vs {})",
            driven.reports.len(),
            reference.reports.len()
        ));
    }
    if driven.detection.detected_links() != reference.detection.detected_links() {
        return Some("detected links differ".into());
    }
    let reference_eval = vigil::evaluate::evaluate_epoch(reference);
    if format!("{driven_eval:?}") != format!("{reference_eval:?}") {
        return Some("evaluate_epoch output differs".into());
    }
    None
}

/// Times `CoverInstance::new` plus `integer_program` (the default node
/// budget) on a window's reports, for workloads that run with the
/// baselines off: the optim layer's cost on their evidence.
pub fn integer_offpath_ms(reports: &[TraceReport], tr: &mut Tracer, cell: u64) -> f64 {
    let limits = SearchLimits {
        max_nodes: vigil::run::Baselines::default().max_nodes,
    };
    let t = Instant::now();
    let instance = CoverInstance::new(&cover_rows(reports));
    std::hint::black_box(integer_program(&instance, &limits));
    tr.record("optim.integer.off_path", t, Instant::now(), None, cell);
    t.elapsed().as_secs_f64() * 1e3
}
