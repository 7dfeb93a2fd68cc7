//! What the simulated round meters for a device's contributions, against
//! the bytes the wire codec writes for them.

use mycelium::params::SystemParams;
use mycelium_bgv::BgvParams;

#[test]
fn simulated_contribution_is_metered_at_the_bytes_the_wire_carries() {
    // In a fault-free simulated round, a device's proof-carrying
    // contributions cost what the codec writes plus the sealed frame
    // around it. The same round with the device dropped out (it pushes
    // nothing; its origin half is untouched) isolates them: what the device
    // sends less what it sends as a drop-out.
    use mycelium::exec::MaliciousBehavior;
    use mycelium::plan::QueryPlan;
    use mycelium::roles;
    use mycelium_bgv::KeySet;
    use mycelium_dp::PrivacyBudget;
    use mycelium_graph::generate::{epidemic_population, ContactGraphConfig, EpidemicConfig};
    use mycelium_math::rng::{SeedableRng, StdRng};
    use mycelium_net::proto::NetMsg;
    use mycelium_net::{run_query_simulated, SecureChannel, SimNetConfig};
    use mycelium_query::builtin::paper_query;

    let (params, seed) = (SystemParams::simulation(), 7);
    assert_eq!(params.bgv.n, BgvParams::test_small().n, "test_small");
    let keys = KeySet::generate(&params.bgv, &mut StdRng::seed_from_u64(seed));
    let graph = ContactGraphConfig {
        n: 24,
        degree_bound: 4,
        mean_household: 3,
        community_edges: 2,
        subway_fraction: 0.2,
        days: 13,
    };
    let epidemic = EpidemicConfig {
        seed_fraction: 0.08,
        household_rate: 0.10,
        community_rate: 0.02,
        days: 13,
    };
    let pop = epidemic_population(&graph, &epidemic, &mut StdRng::seed_from_u64(42));
    let query = paper_query("Q4").unwrap();
    let plan = QueryPlan::new(&query, &pop, &params, true).unwrap();
    let duties = roles::duties(&roles::works(&plan, &query, &params, &pop));
    let device = duties.iter().position(|d| !d.is_empty()).unwrap();
    let sent_by_device = |behaviors: &[MaliciousBehavior]| {
        let cfg = SimNetConfig {
            seed,
            ..SimNetConfig::default()
        };
        let mut budget = PrivacyBudget::new(10.0);
        let out = run_query_simulated(
            &query,
            &pop,
            &params,
            &keys,
            behaviors,
            true,
            &mut budget,
            &cfg,
        )
        .expect("fault-free round");
        assert_eq!(out.metrics.dropped_msgs, 0);
        out.metrics.actors[device]
    };
    let honest = sent_by_device(&[]);
    let dropped = sent_by_device(&[MaliciousBehavior::DropOut {
        device: device as u32,
    }]);

    let own = &duties[device];
    let built = roles::contributions(&plan, &keys, seed, device as u32, own, false);
    let on_the_wire: Vec<u64> = own
        .iter()
        .zip(built)
        .map(|(duty, sc)| {
            let msg = NetMsg::PushContrib {
                origin: duty.origin,
                slot: duty.slot,
                sc: Box::new(sc.unwrap()),
            };
            SecureChannel::wire_cost(msg.encode().len()) as u64
        })
        .collect();
    let count = on_the_wire.len() as u64;
    assert_eq!(honest.sent_msgs - dropped.sent_msgs, count);
    let metered = honest.sent_bytes - dropped.sent_bytes;
    let wire: u64 = on_the_wire.iter().sum();
    assert_eq!(
        metered,
        wire,
        "{count} contributions metered at {} bytes each, the wire carries {}",
        metered / count,
        wire / count
    );
}
