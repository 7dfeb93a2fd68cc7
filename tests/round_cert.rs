//! Proof-carrying rounds (DESIGN.md "Round certificates").
//!
//! Every executor must emit the same certificate for the same round spec
//! — the commitment plane is canonical, so the physical intake topology
//! must not leak into the bytes — and the offline verifier must reject
//! every single-byte tamper with a typed verdict, never a panic and never
//! `Valid`.

use mycelium::params::SystemParams;
use mycelium_bgv::KeySet;
use mycelium_cert::{verify_bytes, RoundCertificate, Verdict};
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_math::rng::{Rng, RngCore, SeedableRng, StdRng};
use mycelium_net::{run_query_simulated, SimNetConfig, SimRoundOutcome};
use mycelium_query::builtin::paper_query;

fn setup(n: usize, graph_seed: u64) -> (SystemParams, KeySet, Population) {
    let params = SystemParams::simulation();
    let mut rng = StdRng::seed_from_u64(1234);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let cfg = ContactGraphConfig {
        n,
        degree_bound: 4,
        mean_household: 3,
        community_edges: 2,
        subway_fraction: 0.2,
        days: 13,
    };
    let epi = EpidemicConfig {
        seed_fraction: 0.08,
        household_rate: 0.10,
        community_rate: 0.02,
        days: 13,
    };
    let pop = epidemic_population(&cfg, &epi, &mut StdRng::seed_from_u64(graph_seed));
    (params, keys, pop)
}

fn run_at(
    shards: usize,
    seed: u64,
    with_proofs: bool,
    params: &SystemParams,
    keys: &KeySet,
    pop: &Population,
) -> SimRoundOutcome {
    let query = paper_query("Q4").unwrap();
    let mut budget = PrivacyBudget::new(1000.0);
    let cfg = SimNetConfig {
        seed,
        agg_shards: shards,
        ..SimNetConfig::default()
    };
    run_query_simulated(
        &query,
        pop,
        params,
        keys,
        &[],
        with_proofs,
        &mut budget,
        &cfg,
    )
    .unwrap_or_else(|e| panic!("seed {seed} × shards {shards} must converge: {e:?}"))
}

#[test]
fn certificates_are_byte_identical_across_shard_counts_and_verify() {
    let (params, keys, pop) = setup(24, 42);
    for seed in [0u64, 3] {
        let hub = run_at(1, seed, true, &params, &keys, &pop);
        let hub_cert = hub
            .certificate
            .as_ref()
            .expect("fault-free round must produce a certificate");
        let verdict = verify_bytes(hub_cert);
        assert!(verdict.is_valid(), "seed {seed} hub: {verdict}");
        for shards in [2usize, 4] {
            let sharded = run_at(shards, seed, true, &params, &keys, &pop);
            let cert = sharded
                .certificate
                .as_ref()
                .expect("sharded round must produce a certificate");
            let verdict = verify_bytes(cert);
            assert!(
                verdict.is_valid(),
                "seed {seed} × shards {shards}: {verdict}"
            );
            assert_eq!(
                cert, hub_cert,
                "seed {seed} × shards {shards}: certificate bytes must not \
                 depend on the physical intake topology"
            );
        }
        // Same seed, same executor: byte-identical reruns.
        let again = run_at(1, seed, true, &params, &keys, &pop);
        assert_eq!(again.certificate.as_ref(), Some(hub_cert));
    }
}

#[test]
fn certificate_binds_the_released_histogram_and_reject_set() {
    let (params, keys, pop) = setup(24, 42);
    let out = run_at(4, 7, true, &params, &keys, &pop);
    let cert = RoundCertificate::decode(out.certificate.as_ref().unwrap()).unwrap();
    assert_eq!(cert.spec.query, "Q4");
    assert_eq!(cert.spec.devices, 24);
    assert!(cert.spec.with_proofs);
    assert_eq!(cert.released.len(), out.released.len());
    for (c, r) in cert.released.iter().zip(&out.released) {
        assert_eq!(c.label, r.label);
        assert_eq!(c.histogram, r.histogram);
    }
    assert_eq!(cert.rejected, out.rejected_devices.to_vec());
    assert_eq!(cert.participants.len(), cert.threshold as usize + 1);
    // Fault-free: every committee member signed.
    assert_eq!(cert.signatures.len(), cert.committee as usize);
}

#[test]
fn cheating_devices_land_in_the_certified_reject_set() {
    use mycelium::exec::MaliciousBehavior;
    let (params, keys, pop) = setup(24, 42);
    let query = paper_query("Q4").unwrap();
    let mut budget = PrivacyBudget::new(1000.0);
    let cfg = SimNetConfig {
        seed: 5,
        agg_shards: 4,
        ..SimNetConfig::default()
    };
    let behaviors = vec![MaliciousBehavior::OversizedContribution { device: 3 }];
    let out = run_query_simulated(
        &query,
        &pop,
        &params,
        &keys,
        &behaviors,
        true,
        &mut budget,
        &cfg,
    )
    .expect("round with one cheater converges");
    let bytes = out.certificate.as_ref().expect("certificate present");
    assert!(verify_bytes(bytes).is_valid());
    let cert = RoundCertificate::decode(bytes).unwrap();
    assert!(
        cert.rejected.contains(&3),
        "cheater must appear in the certified reject set: {:?}",
        cert.rejected
    );
    // Its rejected slots are committed: some segment carries them.
    let total_rejected: u32 = cert.segments.iter().map(|s| s.rejected).sum();
    assert!(total_rejected as usize >= cert.rejected.len());
}

/// Satellite: the full tamper matrix. Flip every byte of a real round's
/// serialized certificate; each flip must produce a typed rejection whose
/// kind matches the tampered section — and never `Valid`, never a panic.
#[test]
fn every_single_byte_tamper_is_rejected_with_a_typed_verdict() {
    let (params, keys, pop) = setup(24, 42);
    let out = run_at(1, 11, true, &params, &keys, &pop);
    let bytes = out.certificate.clone().expect("certificate present");
    assert!(verify_bytes(&bytes).is_valid());
    let cert = RoundCertificate::decode(&bytes).unwrap();
    let (reencoded, layout) = cert.encode_with_layout();
    assert_eq!(reencoded, bytes, "layout encode matches the round's bytes");

    // Allowed verdict kinds per section. Count-prefix flips can shift the
    // decode frame (bad-encoding) anywhere; sections checked before the
    // transcript binding get their specific verdicts.
    let allowed: &[(&str, &[&str])] = &[
        ("magic", &["bad-encoding"]),
        ("version", &["bad-encoding"]),
        ("spec", &["wrong-root", "wrong-binding", "bad-encoding"]),
        ("spec_digest", &["wrong-binding"]),
        ("committee_meta", &["wrong-binding", "bad-encoding"]),
        ("leaves", &["wrong-root", "bad-encoding"]),
        ("segments", &["wrong-root", "wrong-binding", "bad-encoding"]),
        ("contrib_root", &["wrong-root"]),
        ("rejected", &["wrong-binding", "bad-encoding"]),
        ("aggregate_digest", &["wrong-binding"]),
        ("noise_commitment", &["wrong-binding"]),
        ("charged_epsilon", &["wrong-binding"]),
        ("released", &["wrong-binding", "bad-encoding"]),
        ("transcript", &["wrong-binding"]),
        ("signatures", &["wrong-signature", "bad-encoding"]),
    ];
    let kinds_for = |section: &str| -> &[&str] {
        allowed
            .iter()
            .find(|(name, _)| *name == section)
            .unwrap_or_else(|| panic!("unmapped section {section}"))
            .1
    };

    for (section, range) in &layout.sections {
        for i in range.clone() {
            for bit in [0x01u8, 0x80] {
                let mut t = bytes.clone();
                t[i] ^= bit;
                let verdict = verify_bytes(&t);
                assert!(
                    !verdict.is_valid(),
                    "flip bit {bit:#x} of byte {i} ({section}) still verified"
                );
                let kind = verdict.kind();
                assert!(
                    kinds_for(section).contains(&kind),
                    "flip bit {bit:#x} of byte {i} ({section}): got {kind} \
                     ({verdict}), allowed {:?}",
                    kinds_for(section)
                );
            }
        }
    }
}

/// Satellite: dropping signatures below the quorum is the one tamper that
/// re-encodes cleanly — it must yield `InsufficientSignatures`, and an
/// empty signature set likewise.
#[test]
fn stripped_signatures_are_insufficient_not_invalid() {
    let (params, keys, pop) = setup(24, 42);
    let out = run_at(1, 11, true, &params, &keys, &pop);
    let mut cert = RoundCertificate::decode(out.certificate.as_ref().unwrap()).unwrap();
    let need = cert.threshold as usize + 1;
    cert.signatures.truncate(need - 1);
    match verify_bytes(&cert.encode()) {
        Verdict::InsufficientSignatures { have, need: n } => {
            assert_eq!(have, need - 1);
            assert_eq!(n, need);
        }
        v => panic!("expected insufficient-signatures, got {v}"),
    }
    cert.signatures.clear();
    assert!(matches!(
        verify_bytes(&cert.encode()),
        Verdict::InsufficientSignatures { have: 0, .. }
    ));
}

/// Satellite: fuzz-style decoding — random byte strings and truncations
/// of a real certificate must never panic and never verify.
#[test]
fn random_bytes_and_truncations_never_panic_or_verify() {
    let (params, keys, pop) = setup(24, 42);
    let out = run_at(1, 11, true, &params, &keys, &pop);
    let bytes = out.certificate.clone().unwrap();

    // Every truncation of the valid encoding.
    for len in 0..bytes.len() {
        let verdict = verify_bytes(&bytes[..len]);
        assert!(
            matches!(verdict, Verdict::BadEncoding(_)),
            "truncation to {len} bytes: {verdict}"
        );
    }
    // Appended garbage.
    let mut extended = bytes.clone();
    extended.extend_from_slice(&[0u8; 7]);
    assert!(matches!(verify_bytes(&extended), Verdict::BadEncoding(_)));

    // Random strings, plus random mutations of a valid prefix.
    let mut rng = StdRng::seed_from_u64(0xCE27);
    for round in 0..512 {
        let len = (rng.next_u64() % 2048) as usize;
        let mut buf = vec![0u8; len];
        rng.fill(&mut buf[..]);
        if round % 2 == 0 && len <= bytes.len() && len > 0 {
            // Valid prefix with a corrupted tail exercises deep decode paths.
            buf[..len].copy_from_slice(&bytes[..len]);
            let at = (rng.next_u64() as usize) % len;
            buf[at] ^= 0xA5;
        }
        let verdict = verify_bytes(&buf);
        assert!(!verdict.is_valid(), "fuzz round {round} verified");
    }
}
