//! Property tests for the allocation-free routing path: on random Clos
//! sizes and random flows, `route_filtered_into`'s scratch buffers must
//! reproduce `route_filtered`'s owned-`Vec` output exactly — complete
//! paths and blackholed prefixes alike.

use proptest::prelude::*;
use vigil_packet::FiveTuple;
use vigil_topology::{
    ClosParams, ClosTopology, HostId, LinkId, Path, RouteError, RouteScratch, Routed,
};

/// A small random-but-valid Clos parameterization.
fn params_strategy() -> impl Strategy<Value = ClosParams> {
    (1u16..=2, 2u16..=4, 2u16..=3, 2u16..=4, 1u16..=3).prop_map(
        |(npod, n0, n1, n2, hosts_per_tor)| ClosParams {
            npod,
            n0,
            n1,
            n2,
            hosts_per_tor,
        },
    )
}

/// Routes one flow both ways and asserts identical outcomes.
fn assert_routes_agree(
    topo: &ClosTopology,
    scratch: &mut RouteScratch,
    src: HostId,
    dst: HostId,
    sport: u16,
    excluded: &dyn Fn(LinkId) -> bool,
) {
    let tuple = FiveTuple::tcp(topo.host_ip(src), sport, topo.host_ip(dst), 443);
    let owned = topo.route_filtered(&tuple, src, dst, excluded);
    let into = topo.route_filtered_into(&tuple, src, dst, excluded, scratch);
    let emitted = Path::new(scratch.nodes.clone(), scratch.links.clone());
    match (owned, into) {
        (Ok(path), Ok(Routed::Complete)) => assert_eq!(emitted, path, "routed path differs"),
        (Err(RouteError::Blackhole { partial }), Ok(Routed::Blackholed)) => {
            assert_eq!(emitted, partial, "blackholed prefix differs")
        }
        (owned, into) => panic!("outcome mismatch: owned {owned:?} vs into {into:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unfiltered routing: every (src, dst, sport) draws the same path
    /// through the scratch buffers as through the allocating API.
    #[test]
    fn scratch_routes_match_owned_routes(
        params in params_strategy(),
        seed in 0u64..1_000,
        flows in proptest::collection::vec((0u32..64, 0u32..64, 40_000u16..60_000), 1..20),
    ) {
        let topo = ClosTopology::new(params, seed).expect("strategy yields valid params");
        let hosts = topo.num_hosts() as u32;
        let mut scratch = RouteScratch::new();
        for (a, b, sport) in flows {
            let (src, dst) = (HostId(a % hosts), HostId(b % hosts));
            if src == dst {
                continue;
            }
            assert_routes_agree(&topo, &mut scratch, src, dst, sport, &|_| false);
        }
    }

    /// Filtered routing: random link exclusions (including blackholes)
    /// produce identical complete/partial paths through both APIs.
    #[test]
    fn scratch_routes_match_under_exclusions(
        params in params_strategy(),
        seed in 0u64..1_000,
        dead_stride in 2u32..7,
        flows in proptest::collection::vec((0u32..64, 0u32..64, 40_000u16..60_000), 1..20),
    ) {
        let topo = ClosTopology::new(params, seed).expect("strategy yields valid params");
        let hosts = topo.num_hosts() as u32;
        // Deterministic pseudo-random exclusion: every `dead_stride`-th
        // link is down — dense enough to exercise diversions and
        // blackholes across the drawn topologies.
        let excluded = move |l: LinkId| l.0 % dead_stride == 0;
        let mut scratch = RouteScratch::new();
        for (a, b, sport) in flows {
            let (src, dst) = (HostId(a % hosts), HostId(b % hosts));
            if src == dst {
                continue;
            }
            assert_routes_agree(&topo, &mut scratch, src, dst, sport, &excluded);
        }
    }
}
