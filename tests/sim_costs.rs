//! Reconciling the §6.4 analytic bandwidth model (Figure 7) against a
//! metered simnet run of the same messaging pattern.
//!
//! The model in `mycelium::costs` *derives* per-device bytes; the
//! accounting simulation in `mycelium::simcost` *measures* them by
//! routing every contribution source → k forwarder hops → destination
//! with declared ciphertext sizes. The two views must agree exactly (the
//! schedule divides evenly), up to one known structural difference: the
//! wire meters a forwarder's relayed batch twice (received + sent), the
//! model counts it once.

use mycelium::costs::device_bandwidth;
use mycelium::params::SystemParams;
use mycelium::simcost::{run_cost_sim, CostSimConfig};
use mycelium_bgv::BgvParams;

fn paper_sized() -> SystemParams {
    let mut p = SystemParams::paper();
    p.bgv = BgvParams::paper_sized();
    p
}

#[test]
fn figure7_model_matches_metered_simulation() {
    let params = paper_sized();
    let (k, r, cq) = (3, 2, 1);
    // n = 100 with f = 0.1, d = 10: class size 10, per-level load
    // n·r·cq·d = 2000 → exactly 200 relays per forwarder, so the paper's
    // expectation is realized without sampling variance.
    let cfg = CostSimConfig::figure7(&params, k, r, cq, 100);
    let measured = run_cost_sim(&cfg);
    let model = device_bandwidth(&params, k, r, cq);

    assert_eq!(measured.delivered, measured.expected);

    // Non-forwarders: sent + received, both views in absolute bytes.
    let rel = (measured.non_forwarder_bytes - model.non_forwarder).abs() / model.non_forwarder;
    assert!(
        rel < 1e-9,
        "non-forwarder: measured {} vs model {}",
        measured.non_forwarder_bytes,
        model.non_forwarder
    );

    // Forwarders: the extra load over a non-forwarder is the relayed
    // batch; the wire meters it twice, the model once.
    let measured_batch = (measured.forwarder_bytes - measured.non_forwarder_bytes) / 2.0;
    let model_batch = model.forwarder - model.non_forwarder;
    let rel = (measured_batch - model_batch).abs() / model_batch;
    assert!(
        rel < 1e-9,
        "batch: measured {measured_batch} vs model {model_batch}"
    );

    // The independently tracked relay meter agrees with both.
    let rel = (measured.relayed_bytes_per_forwarder - model_batch).abs() / model_batch;
    assert!(rel < 1e-9);

    // Population expectation, with the batch counted once as the model
    // does: kf·(non_fwd + batch) + (1 − kf)·non_fwd.
    let kf = k as f64 * params.forwarder_fraction;
    let expected_once = kf * (measured.non_forwarder_bytes + measured_batch)
        + (1.0 - kf) * measured.non_forwarder_bytes;
    let rel = (expected_once - model.expected).abs() / model.expected;
    assert!(
        rel < 1e-9,
        "expected: measured {expected_once} vs model {}",
        model.expected
    );

    // Message counts: a non-forwarder sends r·cq·d and receives r·cq·d.
    let per_device = (r * cq * params.degree_bound) as f64;
    assert_eq!(measured.non_forwarder_msgs, 2.0 * per_device);
    // A forwarder additionally relays (and therefore also receives) the
    // batch: + 2·(r·cq·d)/f messages.
    let batch_msgs = per_device / params.forwarder_fraction;
    assert_eq!(measured.forwarder_msgs, 2.0 * per_device + 2.0 * batch_msgs);
}

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

#[test]
fn headline_bytes_at_paper_parameters() {
    // The metered run reproduces §6.4's headline numbers: ≈170 MB for a
    // non-forwarder, ≈1030 MB for a forwarder (1030 counts the batch
    // once; the wire sees it twice).
    let params = paper_sized();
    let cfg = CostSimConfig::figure7(&params, 3, 2, 1, 100);
    let measured = run_cost_sim(&cfg);
    let mb = 1e6;
    let non_fwd = measured.non_forwarder_bytes / mb;
    assert!(
        (80.0..260.0).contains(&non_fwd),
        "non-forwarder {non_fwd} MB"
    );
    let batch = (measured.forwarder_bytes - measured.non_forwarder_bytes) / 2.0;
    let forwarder_once = (measured.non_forwarder_bytes + batch) / mb;
    assert!(
        (700.0..1400.0).contains(&forwarder_once),
        "forwarder {forwarder_once} MB"
    );
}
