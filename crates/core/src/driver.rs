//! The one epoch driver: fabric → host agents → an evidence sink.
//!
//! 007's pipeline is one pipeline (paper Figure 2): monitor, path
//! discovery, vote. Every shape this crate runs it in pulls its epochs
//! through [`EpochDriver::run_epoch`] and differs only in three pieces of
//! data:
//!
//! | shape | hosts | retention | sink |
//! |---|---|---|---|
//! | in-process [`crate::stream::StreamSession`] | every host | `All` or `EvidenceOnly` | [`LedgerSink`] |
//! | wire agent ([`crate::distributed::run_agent`]) | its `--hosts` slice | nothing | frames onto the socket |
//! | collector ([`crate::distributed::run_collector`]) | none | `EvidenceOnly` | the network hub, drained into a [`LedgerSink`] |
//!
//! The driver reproduces the batch pipeline's exact RNG draw order: the
//! simulation's draws first, then — when the SLB gate (§4.2) is on — one
//! gate-salt draw. An active gate therefore defers agent processing to
//! the epoch tail, buffering only (event, discovered-path) pairs —
//! evidence-sized, not flow-sized. With the gate off (the default),
//! evidence streams through the staging hub while the epoch is still
//! being simulated.

use crate::run::{assemble_epoch, EpochRun, RunConfig};
use crate::stream::{EvidenceKey, RetainPolicy};
use rand::Rng;
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use vigil_agents::{
    event_channel, event_channel_bounded, AdversaryModel, AgentEvent, DiscoveredPath,
    EventCollector, EventSender, HostAgent, RetransmissionEvent, TraceReport,
};
use vigil_analysis::{FlowEvidence, VoteLedger};
use vigil_fabric::flowsim::{EpochOutcome, EpochScratch, EpochStream, FlowBatch, FlowRecord};
use vigil_fabric::LinkFaults;
use vigil_topology::ClosTopology;

/// Where the driver's agent events go. The driver calls
/// [`drain`](Self::drain) once per pulled chunk, and periodically through
/// the epoch tail, with everything its staging hub held, in emission
/// order.
pub(crate) trait EvidenceSink {
    /// Consumes `events` (leaving it empty). An error aborts the epoch.
    fn drain(&mut self, events: &mut Vec<AgentEvent>) -> io::Result<()>;
}

/// The analysis side of the pipeline: evidence is absorbed into the vote
/// ledger the moment it arrives; lifecycle events are counted and
/// dropped. Reports are keyed like the ledger, so a replayed duplicate
/// supersedes its earlier copy exactly as the ledger's evidence does.
#[derive(Debug)]
pub(crate) struct LedgerSink {
    pub(crate) ledger: VoteLedger<EvidenceKey>,
    reports: BTreeMap<EvidenceKey, TraceReport>,
    /// Protocol events consumed (opens, evidence, ticks, drains).
    pub(crate) events: u64,
    /// Evidence events among them.
    pub(crate) evidence: u64,
}

impl LedgerSink {
    pub(crate) fn new(ledger: VoteLedger<EvidenceKey>) -> Self {
        Self {
            ledger,
            reports: BTreeMap::new(),
            events: 0,
            evidence: 0,
        }
    }

    /// Closes the ledger window and scores it against `outcome` (the
    /// epoch's retained records and ground truth).
    pub(crate) fn close(&mut self, outcome: EpochOutcome, config: &RunConfig) -> EpochRun {
        let window = self.ledger.close_window();
        let reports = std::mem::take(&mut self.reports).into_values().collect();
        assemble_epoch(outcome, reports, window, config)
    }
}

impl EvidenceSink for LedgerSink {
    fn drain(&mut self, events: &mut Vec<AgentEvent>) -> io::Result<()> {
        for event in events.drain(..) {
            self.events += 1;
            if let AgentEvent::Evidence { report, .. } = event {
                let key = (report.host, report.tuple);
                self.ledger.absorb(
                    key,
                    FlowEvidence {
                        links: report.links.clone(),
                        retransmissions: report.retransmissions,
                        complete: report.complete,
                    },
                );
                self.reports.insert(key, report);
                self.evidence += 1;
            }
        }
        Ok(())
    }
}

/// One epoch's pull, as the driver hands it back.
pub(crate) struct PulledEpoch {
    /// The retained flow records plus the epoch's ground truth.
    pub(crate) outcome: EpochOutcome,
    /// Flow records simulated.
    pub(crate) flows: u64,
    /// Peak simultaneously resident flow records (chunk + retained).
    pub(crate) peak_resident: u64,
}

/// The host-agent side of the driver: lazily created agents for the
/// hosts in range, and the staging hub they emit onto.
#[derive(Debug)]
struct HostFleet {
    hosts: Range<u32>,
    /// Indexed by host id; only slots in `hosts` are ever filled.
    agents: Vec<Option<HostAgent>>,
    hub_tx: EventSender,
    hub_rx: EventCollector,
    /// Agent announcements (ticks, drains) between drains: the staging
    /// hub's capacity, so a bounded hub never sheds its own lifecycle
    /// events to a large fleet.
    drain_every: usize,
    inbox: Vec<AgentEvent>,
    /// Emissions parked until the epoch's gate salt is drawn.
    pending: Vec<(RetransmissionEvent, DiscoveredPath)>,
}

impl HostFleet {
    /// Routes one emission through its host's agent (pacer, per-epoch
    /// trace cache), which emits protocol events onto the staging hub.
    fn dispatch(
        &mut self,
        topo: &ClosTopology,
        config: &RunConfig,
        event: RetransmissionEvent,
        path: DiscoveredPath,
    ) {
        let slot = &mut self.agents[event.host.0 as usize];
        let agent =
            slot.get_or_insert_with(|| HostAgent::new(event.host, config.pacer.pacer(topo)));
        agent.on_retransmission(&event, path, &self.hub_tx);
    }

    /// Dispatches now, or parks the emission while the gate salt is
    /// still undrawn.
    fn offer(
        &mut self,
        topo: &ClosTopology,
        config: &RunConfig,
        event: RetransmissionEvent,
        path: DiscoveredPath,
    ) {
        if config.slb.enabled() {
            self.pending.push((event, path));
        } else {
            self.dispatch(topo, config, event, path);
        }
    }

    /// Hands everything staged so far to `sink`.
    fn drain<S: EvidenceSink>(&mut self, sink: &mut S) -> io::Result<()> {
        self.inbox.clear();
        self.hub_rx.drain_into(&mut self.inbox);
        sink.drain(&mut self.inbox)
    }

    /// Lets every live agent in range announce something on the hub,
    /// draining every `drain_every` announcements and once at the end.
    fn announce<S: EvidenceSink>(
        &mut self,
        sink: &mut S,
        mut announce: impl FnMut(&mut HostAgent, &EventSender),
    ) -> io::Result<()> {
        let mut since_drain = 0usize;
        for h in self.hosts.clone() {
            let Some(agent) = self.agents[h as usize].as_mut() else {
                continue;
            };
            announce(agent, &self.hub_tx);
            since_drain += 1;
            if since_drain >= self.drain_every {
                self.drain(sink)?;
                since_drain = 0;
            }
        }
        self.drain(sink)
    }
}

/// Whether a record is kept for scoring: everything, or — for
/// evidence-only retention — what scoring consults (retransmitting flows,
/// plus any flow an agent emitted evidence for, so its record resolves in
/// the flow index). `None` keeps nothing.
fn keeps(retain: Option<RetainPolicy>, retransmissions: u32, emitted: bool) -> bool {
    match retain {
        Some(RetainPolicy::All) => true,
        Some(RetainPolicy::EvidenceOnly) => retransmissions > 0 || emitted,
        None => false,
    }
}

/// The epoch driver: host-agent slots, the adversary model, the staging
/// hub, the pull buffers, and the one [`EpochStream`] pull loop.
#[derive(Debug)]
pub(crate) struct EpochDriver {
    fleet: HostFleet,
    adversary: Option<AdversaryModel>,
    /// What to keep of each record (see [`keeps`]).
    retain: Option<RetainPolicy>,
    chunk_flows: usize,
    chunk: Vec<FlowRecord>,
    batch: FlowBatch,
}

impl EpochDriver {
    /// A driver for `config`'s pipeline on `topo`, running agents for
    /// `hosts` and staging their events on a hub of `hub_capacity`
    /// (`None`: unbounded — the wire agent never sheds its own evidence).
    pub(crate) fn new(
        topo: &ClosTopology,
        config: &RunConfig,
        hosts: Range<u32>,
        retain: Option<RetainPolicy>,
        chunk_flows: usize,
        hub_capacity: Option<usize>,
    ) -> Self {
        let (hub_tx, hub_rx) = match hub_capacity {
            Some(capacity) => event_channel_bounded(capacity),
            None => event_channel(),
        };
        Self {
            fleet: HostFleet {
                agents: (0..hosts.end).map(|_| None).collect(),
                hosts,
                hub_tx,
                hub_rx,
                drain_every: hub_capacity.unwrap_or(usize::MAX),
                inbox: Vec::new(),
                pending: Vec::new(),
            },
            adversary: config
                .byzantine
                .enabled()
                .then(|| AdversaryModel::new(config.byzantine, topo.num_links())),
            retain,
            chunk_flows,
            chunk: Vec::new(),
            batch: FlowBatch::new(),
        }
    }

    /// The staging hub's delivery counters.
    pub(crate) fn staging(&self) -> &EventCollector {
        &self.fleet.hub_rx
    }

    /// Host `host`'s agent slot (the resilient agent snapshots and
    /// rewinds sequence counters through it).
    pub(crate) fn agent_slot(&mut self, host: u32) -> &mut Option<HostAgent> {
        &mut self.fleet.agents[host as usize]
    }

    /// Runs epoch `epoch`: simulate it in chunks, feed the hosts in range
    /// through their agents, drain the staging hub into `sink` once per
    /// chunk, then roll every live agent into epoch `epoch + 1`. Returns
    /// the retained records and ground truth; `sink`'s first error
    /// aborts the epoch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_epoch<R: Rng + ?Sized, S: EvidenceSink>(
        &mut self,
        topo: &ClosTopology,
        config: &RunConfig,
        faults: &LinkFaults,
        epoch: u64,
        rng: &mut R,
        scratch: &mut EpochScratch,
        sink: &mut S,
    ) -> io::Result<PulledEpoch> {
        debug_assert!(
            self.fleet.hosts.end as usize <= topo.num_hosts(),
            "driver sized for a different topology"
        );
        let mut stream =
            EpochStream::open(topo, faults, &config.traffic, &config.sim, rng, scratch);
        let mut retained: Vec<FlowRecord> = match self.retain {
            Some(RetainPolicy::All) => Vec::with_capacity(stream.total_flows()),
            _ => Vec::new(),
        };
        let (mut flows, mut peak_resident) = (0u64, 0u64);
        loop {
            if let Some(adversary) = &self.adversary {
                // Adversarial path: the model inspects whole records and
                // overrides the honest eventfulness decision for
                // compromised hosts (lie, stay mute, or flood a healthy
                // flow) — a pure per-flow hash.
                self.chunk.clear();
                if stream.next_chunk(self.chunk_flows, &mut self.chunk) == 0 {
                    break;
                }
                flows += self.chunk.len() as u64;
                peak_resident = peak_resident.max((retained.len() + self.chunk.len()) as u64);
                for rec in self.chunk.drain(..) {
                    let emitted = adversary.emission(&rec);
                    let keep = keeps(self.retain, rec.retransmissions, emitted.is_some());
                    if let Some((event, path)) = emitted {
                        if self.fleet.hosts.contains(&event.host.0) {
                            self.fleet.offer(topo, config, event, path);
                        }
                    }
                    if keep {
                        retained.push(rec);
                    }
                }
            } else {
                // Honest path: scan the dense columns. The monitoring
                // agent's eventfulness rule (§4.2) — established and at
                // least one retransmission — reads two columns; only rows
                // that are eventful and in range, or retained, are
                // materialized, so the common clean flow never allocates.
                self.batch.clear();
                if stream.next_batch(self.chunk_flows, &mut self.batch) == 0 {
                    break;
                }
                flows += self.batch.len() as u64;
                peak_resident = peak_resident.max((retained.len() + self.batch.len()) as u64);
                for i in 0..self.batch.len() {
                    let retransmissions = self.batch.retransmissions()[i];
                    let eventful = self.batch.established()[i]
                        && retransmissions > 0
                        && self.fleet.hosts.contains(&self.batch.src()[i].0);
                    let keep = keeps(self.retain, retransmissions, false);
                    if !eventful && !keep {
                        continue;
                    }
                    let rec = stream.materialize(&self.batch, i);
                    if eventful {
                        let event = RetransmissionEvent {
                            host: rec.src,
                            tuple: rec.tuple,
                            retransmissions: rec.retransmissions,
                        };
                        let path = DiscoveredPath::of_flow_path(&rec.path);
                        self.fleet.offer(topo, config, event, path);
                    }
                    if keep {
                        retained.push(rec);
                    }
                }
            }
            self.fleet.drain(sink)?;
        }
        let ground_truth = stream.finish();

        if config.slb.enabled() {
            // Same draw position as the batch runner: first draw after
            // the simulation stream.
            let salt = rng.gen::<u64>();
            let mut pending = std::mem::take(&mut self.fleet.pending);
            for (i, (event, path)) in pending.drain(..).enumerate() {
                if !config.slb.skips(&event.tuple, salt) {
                    self.fleet.dispatch(topo, config, event, path);
                }
                if (i + 1) % self.chunk_flows == 0 {
                    self.fleet.drain(sink)?;
                }
            }
            self.fleet.pending = pending;
            self.fleet.drain(sink)?;
        }

        // Roll every live agent into the next epoch (budget refresh,
        // trace-cache clear), announced on the hub.
        self.fleet
            .announce(sink, |agent, hub| agent.epoch_tick(epoch + 1, hub))?;

        Ok(PulledEpoch {
            outcome: EpochOutcome {
                flows: retained,
                ground_truth,
            },
            flows,
            peak_resident,
        })
    }

    /// Shuts the fleet down: every live agent in range announces
    /// [`AgentEvent::Drain`], and the hub is drained one last time.
    pub(crate) fn shutdown<S: EvidenceSink>(&mut self, sink: &mut S) -> io::Result<()> {
        self.fleet.announce(sink, |agent, hub| agent.drain(hub))
    }
}
