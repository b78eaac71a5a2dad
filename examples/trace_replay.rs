//! The §7 test-cluster methodology end to end: synthesize a "6 hours of
//! production traffic" recording, replay it from the cluster's hosts with
//! per-host phase offsets, induce a drop rate on one link, and watch the
//! per-epoch vote tallies localize it.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vigil::prelude::*;
use vigil_fabric::flowsim::simulate_flows;
use vigil_fabric::replay::Recording;
use vigil_fabric::traffic::FlowSpec;
use vigil_topology::HostId;

fn main() {
    let topo = ClosTopology::new(ClosParams::test_cluster(), 77).expect("valid parameters");
    let mut rng = ChaCha8Rng::seed_from_u64(0x2e91a);
    println!(
        "test cluster: {} hosts, {} switch links",
        topo.num_hosts(),
        topo.links()
            .iter()
            .filter(|l| !l.kind.is_host_link())
            .count()
    );

    // One recording, replayed from every host with a different phase —
    // exactly the paper's setup.
    let recording = Recording::synthesize(6.0 * 3600.0, 16, &mut rng);
    println!("recording: {} connections over 6 h", recording.conns.len());
    let targets: Vec<HostId> = topo.hosts().collect();
    let offsets: Vec<f64> = topo
        .hosts()
        .map(|_| rng.gen_range(0.0..3.0 * 3600.0))
        .collect();

    // Induce 0.1% drops on one T1→ToR link (the §7.3 experiment).
    let bad = topo
        .links()
        .iter()
        .find(|l| l.kind == LinkKind::T1ToTor)
        .expect("cluster has level-1 links")
        .id;
    let mut faults = vigil_fabric::faults::LinkFaults::new(topo.num_links());
    faults.set_noise(RateRange::PAPER_NOISE, &mut rng);
    faults.fail_link(bad, 5e-3);
    println!("induced: link {:?} at 0.5% drop rate\n", bad);

    let cfg = RunConfig::default();
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>16}",
        "epoch", "flows", "retx", "bad votes", "bad rank"
    );
    for epoch in 0..6u64 {
        let mut specs: Vec<FlowSpec> = Vec::new();
        for (i, host) in topo.hosts().enumerate() {
            specs.extend(recording.replay_epoch(&topo, host, offsets[i], epoch, &targets));
        }
        let outcome = simulate_flows(&topo, &faults, &specs, &cfg.sim, &mut rng);

        // Run the agent + analysis side on the replayed epoch.
        let monitor = vigil_agents::TcpMonitor::new();
        let index = vigil_agents::FlowIndex::from_flows(&outcome.flows);
        let mut tracer = vigil_agents::FlowTableTracer::new(&outcome.flows, &index);
        let mut evidence = Vec::new();
        for host in topo.hosts() {
            let mut agent = vigil_agents::HostAgent::new(
                host,
                vigil_agents::HostPacer::from_theorem1(&topo, 100.0, 30.0),
            );
            let events: Vec<_> = monitor.events_for_host(host, &outcome.flows).collect();
            for r in agent.run_epoch(events, &mut tracer) {
                evidence.push(vigil_analysis::FlowEvidence::new(
                    r.links,
                    r.retransmissions,
                ));
            }
        }
        let tally = vigil_analysis::VoteTally::tally(
            &evidence,
            topo.num_links(),
            vigil_analysis::VoteWeight::ReciprocalPathLength,
        );
        let rank = tally
            .ranking()
            .iter()
            .position(|(l, _)| *l == bad)
            .map_or("-".to_string(), |p| format!("#{}", p + 1));
        println!(
            "{:>6} {:>8} {:>10} {:>12.2} {:>16}",
            epoch,
            specs.len(),
            outcome.flows_with_retransmissions().count(),
            tally.votes(bad),
            rank
        );
    }
    println!("\nthe induced link accumulates votes epoch after epoch while healthy");
    println!("links only collect sporadic noise — the §7.3 correlation between");
    println!("drop rate and tally.");
}
