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
fn shard_root_sim_mirror_matches_the_actual_meter() {
    // simcost::shard_root_sim_bytes is the analytic mirror of the
    // simround meter; the two must agree byte-for-byte so the sharded
    // round tests can reconcile metered shard traffic against it.
    use mycelium::simcost::{cert_sig_sim_bytes, cert_sign_req_sim_bytes, shard_root_sim_bytes};
    use mycelium::simround::RoundMsg;
    use mycelium_bgv::{Ciphertext, KeySet, Plaintext};
    use mycelium_cert::{commit_origin, SlotStatus};
    use mycelium_math::rng::{SeedableRng, StdRng};
    use mycelium_simnet::Payload;

    let params = SystemParams::simulation();
    let mut rng = StdRng::seed_from_u64(7);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let pt = Plaintext::zero(params.bgv.n, params.bgv.plaintext_modulus);
    let ct = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
    let ct_bytes = mycelium::simround::ct_wire_bytes(&ct);
    assert_eq!(ct_bytes, params.bgv.ciphertext_bytes(), "one size rule");

    for rejected in [vec![], vec![3u32], vec![1, 2, 9]] {
        for n_commits in [0usize, 1, 5] {
            let commits: Vec<_> = (0..n_commits as u32)
                .map(|o| commit_origin(o, &[(o, SlotStatus::Missing)]))
                .collect();
            let msg = RoundMsg::ShardRootMsg {
                msg_id: 1,
                shard: 2,
                rejected: rejected.clone(),
                commitment: [0u8; 32],
                leaves: 5,
                commits,
                ct: ct.clone(),
            };
            assert_eq!(
                msg.wire_bytes(),
                shard_root_sim_bytes(ct_bytes, rejected.len(), n_commits),
                "mirror drifted at {} rejected ids, {n_commits} commits",
                rejected.len()
            );
        }
        let ack = RoundMsg::ShardRootAck { msg_id: 1 };
        assert_eq!(ack.wire_bytes(), 16, "acks are header-only");
    }

    // The certificate-signing exchange is metered too.
    let req = RoundMsg::CertSignReq {
        msg_id: 1,
        transcript: [0u8; 32],
    };
    assert_eq!(req.wire_bytes(), cert_sign_req_sim_bytes());
    let sig = RoundMsg::CertSig {
        msg_id: 1,
        member: 3,
        sig: [0u8; 64],
    };
    assert_eq!(sig.wire_bytes(), cert_sig_sim_bytes());
}

#[test]
fn key_switch_model_matches_live_kernel_counters() {
    // The analytic model in `costs::key_switch_ops_*` predicts the
    // batched key switch's operation counts; the live counters in
    // `mycelium_math::rns::ks_stats` meter what the kernels actually
    // executed. Reconcile them over both the serial path (one decompose
    // pass per relinearization) and the batched path (one pass per
    // summation-tree level). Serial because ks_stats counters are
    // process-global.
    use mycelium::simcost::round_key_switch_ops;
    use mycelium::summation::SummationTree;
    use mycelium_bgv::{BgvParams, Ciphertext, KeySet};
    use mycelium_math::rng::{SeedableRng, StdRng};
    use mycelium_math::rns::ks_stats;

    let params = BgvParams::test_small();
    let mut rng = StdRng::seed_from_u64(31);
    let keys = KeySet::generate(&params, &mut rng);
    let deg2: Vec<Ciphertext> = (0..6)
        .map(|i| {
            let pt =
                mycelium_bgv::encoding::encode_monomial(i % 4, params.n, params.plaintext_modulus)
                    .unwrap();
            let ca = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
            let cb = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
            ca.mul(&cb).unwrap()
        })
        .collect();
    let level = deg2[0].level() as u64;
    let nodes = deg2.len() as u64;

    // Serial baseline: every relinearize is its own single-job batch.
    ks_stats::reset();
    for ct in &deg2 {
        ct.relinearize(&keys.relin).unwrap();
    }
    let got = ks_stats::snapshot();
    let want = round_key_switch_ops(nodes, level, false);
    assert_eq!(got.decompose_passes, want.decompose_passes);
    assert_eq!(got.digit_ntts, want.digit_ntts);
    assert_eq!(got.accumulates, want.accumulates);
    assert_eq!(got.jobs, nodes);

    // Batched plane: the whole tree level shares one decompose pass.
    ks_stats::reset();
    let tree = SummationTree::build_relinearized(deg2, Some(&keys.relin)).unwrap();
    let got = ks_stats::snapshot();
    let want = round_key_switch_ops(nodes, level, true);
    assert_eq!(got.batch_calls, 1);
    assert_eq!(got.decompose_passes, want.decompose_passes);
    assert_eq!(got.digit_ntts, want.digit_ntts);
    assert_eq!(got.accumulates, want.accumulates);
    assert_eq!(got.jobs, nodes);

    // Identical NTT/accumulate work either way — batching only removes
    // the redundant decomposition passes.
    let serial = round_key_switch_ops(nodes, level, false);
    assert_eq!(want.digit_ntts, serial.digit_ntts);
    assert_eq!(want.accumulates, serial.accumulates);
    assert!(want.decompose_passes < serial.decompose_passes);
    // And the tree the batched path built decrypts like any other.
    let pt = tree.root().sum.decrypt(&keys.secret);
    assert_eq!(pt.coeffs().iter().sum::<u64>(), nodes);
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
