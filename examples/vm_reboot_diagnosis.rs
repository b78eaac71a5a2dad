//! The paper's motivating scenario (§1, Appendix A): VM images are
//! mounted over the network from a storage service behind a VIP; "even a
//! small network outage or a few lossy links can cause the VM to 'panic'
//! and reboot" — and 70 % of those reboots were unexplained before 007.
//!
//! This example builds that world: a storage VIP pool behind the SLB,
//! hosts mounting VHDs over TCP, a transient host↔ToR fault (the §8.3
//! dominant cause: 262 of 281 reboots), and 007 explaining each reboot by
//! naming the culpable link.
//!
//! ```sh
//! cargo run --release --example vm_reboot_diagnosis
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vigil::evaluate::evaluate_epoch;
use vigil::prelude::*;
use vigil_fabric::slb::{Slb, VipPool};
use vigil_topology::Node;

fn main() {
    let topo = ClosTopology::new(ClosParams::tiny(), 1).expect("valid parameters");
    let mut rng = ChaCha8Rng::seed_from_u64(2024);

    // --- The storage service: one VIP, backends in pod 1 ----------------
    let vip = "10.255.0.1".parse().unwrap();
    let backends: Vec<_> = topo
        .hosts()
        .filter(|h| topo.host_pod(*h) == 1)
        .take(6)
        .map(|h| (h, topo.host_ip(h), 8443))
        .collect();
    let mut slb = Slb::new();
    slb.add_pool(VipPool {
        vip,
        vip_port: 443,
        backends: backends.clone(),
    });
    println!("storage service: VIP {vip} -> {} backends", backends.len());

    // --- The outage: a compute host's ToR uplink goes transiently bad ---
    let victim = vigil_topology::HostId(0);
    let uplink = topo
        .link_between(Node::Host(victim), Node::Switch(topo.host_tor(victim)))
        .expect("host uplink exists");
    let mut faults = vigil_fabric::faults::LinkFaults::new(topo.num_links());
    faults.set_noise(RateRange::PAPER_NOISE, &mut rng);
    faults.fail_link(uplink, 0.55); // severe transient loss
    println!(
        "transient fault: host {:?}'s uplink (link {:?}) dropping 55%\n",
        victim, uplink
    );

    // --- VHD mounts: every compute host keeps connections to the VIP ----
    // The SLB resolves each mount's DIP at SYN time; the flows 007 sees
    // (and traces) carry the DIP, exactly as §4.2 requires.
    let mut mounts = Vec::new();
    for host in topo.hosts().filter(|h| topo.host_pod(*h) == 0) {
        for i in 0..8u16 {
            let vip_flow = vigil_packet::FiveTuple::tcp(topo.host_ip(host), 40_000 + i, vip, 443);
            let assignment = slb
                .establish(host, vip_flow, &mut rng)
                .expect("VIP configured");
            let dip_flow = vip_flow.with_destination(assignment.dip, assignment.port);
            mounts.push(vigil_fabric::traffic::FlowSpec {
                src: host,
                dst: assignment.host,
                tuple: dip_flow,
                packets: 80,
            });
        }
    }
    println!(
        "{} VHD mount connections established through the SLB",
        mounts.len()
    );

    // --- One epoch of storage traffic over the faulty fabric ------------
    let sim = SimConfig::default();
    let outcome = vigil_fabric::flowsim::simulate_flows(&topo, &faults, &mounts, &sim, &mut rng);

    // VM reboot rule of thumb: a mount that failed to deliver its writes
    // (incomplete flow) panics the guest.
    let reboots: Vec<_> = outcome.flows.iter().filter(|f| !f.completed).collect();
    println!(
        "epoch outcome: {} mounts suffered retransmissions, {} VM reboots",
        outcome.flows_with_retransmissions().count(),
        reboots.len()
    );

    // --- 007 explains the reboots ---------------------------------------
    let monitor = vigil_agents::TcpMonitor::new();
    let index = vigil_agents::FlowIndex::from_flows(&outcome.flows);
    let mut tracer = vigil_agents::FlowTableTracer::new(&outcome.flows, &index);
    let mut reports = Vec::new();
    for host in topo.hosts() {
        let mut agent = vigil_agents::HostAgent::new(
            host,
            vigil_agents::HostPacer::from_theorem1(&topo, 100.0, 30.0),
        );
        let events: Vec<_> = monitor.events_for_host(host, &outcome.flows).collect();
        reports.extend(agent.run_epoch(events, &mut tracer));
    }
    let evidence: Vec<vigil_analysis::FlowEvidence> = reports
        .iter()
        .map(|r| vigil_analysis::FlowEvidence {
            links: r.links.clone(),
            retransmissions: r.retransmissions,
            complete: r.complete,
        })
        .collect();
    let detection =
        vigil_analysis::detect(&evidence, topo.num_links(), &Algorithm1Config::default());

    println!("\n007's verdict:");
    for d in &detection.detections {
        let link = topo.link(d.link);
        let class = match link.kind {
            LinkKind::HostToTor | LinkKind::TorToHost => "host<->ToR (the §8.3 dominant class)",
            LinkKind::TorToT1 | LinkKind::T1ToTor => "ToR<->T1",
            LinkKind::T1ToT2 | LinkKind::T2ToT1 => "T1<->T2",
        };
        let marker = if d.link == uplink {
            "  <-- the injected transient"
        } else {
            ""
        };
        println!(
            "  link {:?} [{}] {:.2} votes{}",
            d.link, class, d.votes, marker
        );
    }

    // Per-reboot attribution, like the §8.3 investigation.
    let mut explained = 0;
    for reboot in &reboots {
        let ev =
            vigil_analysis::FlowEvidence::new(reboot.path.links.clone(), reboot.retransmissions);
        if let Some(blamed) = vigil_analysis::blame_flow(&detection.raw_tally, &ev) {
            if blamed == uplink {
                explained += 1;
            }
        }
    }
    println!(
        "\nreboot attribution: {}/{} reboots traced to the faulty uplink",
        explained,
        reboots.len()
    );

    let _ = evaluate_epoch; // (used by the experiment harness; see benches)
    let _: u64 = rng.gen(); // keep rng alive to mirror long-running agents
}
