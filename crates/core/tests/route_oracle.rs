//! The simulator routes every flow through the epoch's compiled
//! [`RouteTable`]; `route_filtered_into`, the per-flow topology walk,
//! is the reference it must reproduce. This suite replays the exact
//! trial prologue and per-epoch traffic of every scenario-matrix case
//! (trial 0, each epoch's fault table) and of the paper `single-failure`
//! preset, and checks every generated flow: same verdict, same nodes,
//! same links. Routing draws no RNG, so agreement here is what keeps
//! every report byte-identical to the walked routing.

use rand::Rng;
use vigil::prelude::*;
use vigil::{epoch_rng, task_rng, task_seed};
use vigil_fabric::LinkFaults;
use vigil_topology::{LinkSet, RouteScratch, RouteTable};

/// Asserts table ≡ walk for every flow of one epoch; returns the number
/// of flows checked.
fn assert_epoch_routes_agree(
    label: &str,
    topo: &ClosTopology,
    faults: &LinkFaults,
    traffic: &TrafficSpec,
    rng: &mut rand_chacha::ChaCha8Rng,
) -> usize {
    let down: LinkSet = (0..topo.num_links() as u32)
        .map(LinkId)
        .filter(|l| faults.is_down(*l))
        .collect();
    let table = RouteTable::compile(topo, &down);
    let (mut walk, mut emitted) = (RouteScratch::new(), RouteScratch::new());
    let specs = traffic.generate(topo, rng);
    for (i, spec) in specs.iter().enumerate() {
        let verdict = topo
            .route_filtered_into(
                &spec.tuple,
                spec.src,
                spec.dst,
                &|l| faults.is_down(l),
                &mut walk,
            )
            .unwrap_or_else(|e| panic!("{label}: flow {i} unroutable by the walk: {e}"));
        let decision = table
            .lookup(topo, &spec.tuple, spec.src, spec.dst)
            .unwrap_or_else(|e| panic!("{label}: flow {i} unroutable by the table: {e}"));
        table.emit_into(&decision, &mut emitted);
        assert_eq!(decision.routed(), verdict, "{label}: flow {i} verdict");
        assert_eq!(emitted.nodes, walk.nodes, "{label}: flow {i} nodes");
        assert_eq!(emitted.links, walk.links, "{label}: flow {i} links");
    }
    specs.len()
}

#[test]
fn compiled_routes_match_the_walk_on_every_matrix_case() {
    let runner = MatrixRunner::new(SweepEngine::serial());
    let mut flows = 0;
    let mut withdrawn_epochs = 0;
    for case in scenarios::standard_matrix() {
        // Trial 0's prologue, exactly as `MatrixRunner::run_case_trial`.
        let master = case.seed(runner.seed);
        let mut rng = task_rng(master, 0);
        let topo = ClosTopology::new(case.params, rng.gen()).unwrap();
        let compiled = case
            .faults
            .compile(&topo, runner.epochs, runner.epoch_seconds, &mut rng);
        for epoch in 0..runner.epochs {
            let faults = compiled.epoch_faults(epoch);
            if (0..topo.num_links() as u32).any(|l| faults.is_down(LinkId(l))) {
                withdrawn_epochs += 1;
            }
            let mut epoch_rng = epoch_rng(task_seed(master, 0), epoch);
            let label = format!("{} epoch {epoch}", case.name);
            flows += assert_epoch_routes_agree(
                &label,
                &topo,
                &faults,
                &case.run.traffic,
                &mut epoch_rng,
            );
        }
    }
    assert!(flows > 0);
    assert!(
        withdrawn_epochs > 0,
        "the matrix must exercise non-empty down-sets"
    );
}

#[test]
fn compiled_routes_match_the_walk_on_the_paper_single_failure_preset() {
    let cfg = scenarios::fig03_optimal_case(1);
    // Trial 0's prologue, exactly as `run_trial`: topology seed, then
    // the static fault draws, from the trial RNG.
    let mut rng = cfg.trial_rng(0);
    let topo = ClosTopology::new(cfg.params, rng.gen()).unwrap();
    let faults = cfg.faults.build(&topo, &mut rng);
    let mut flows = 0;
    for epoch in 0..cfg.epochs {
        let mut epoch_rng = epoch_rng(cfg.trial_seed(0), epoch);
        let label = format!("single-failure epoch {epoch}");
        flows +=
            assert_epoch_routes_agree(&label, &topo, &faults, &cfg.run.traffic, &mut epoch_rng);
    }
    assert!(
        flows > 10_000,
        "paper scale carries tens of thousands of flows"
    );
}
