//! The multi-process encrypted query round, end to end over loopback.
//!
//! Spawns the `net_round` driver, which in turn spawns an aggregator
//! server plus device / origin / committee client processes — real OS
//! processes exchanging BGV ciphertexts and decryption shares over
//! authenticated-encryption TCP channels — and checks the decoded
//! histogram bit-for-bit against the in-process executor and the
//! plaintext oracle.

use std::path::{Path, PathBuf};
use std::process::Command;

use mycelium::params::SystemParams;
use mycelium::{run_query_encrypted, run_query_simulated, SimNetConfig};
use mycelium_bgv::KeySet;
use mycelium_cert::{extract_cert_hex, verify_bytes};
use mycelium_dp::PrivacyBudget;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::client::FRAME_OVERHEAD;
use mycelium_net::codec::ciphertext_encoded_bytes;
use mycelium_net::metrics::NetMetrics;
use mycelium_net::round::{
    build_population, build_setup, decode_outcome, files, BudgetCfg, RoundSpec, BATCH,
};
use mycelium_query::analyze::analyze;
use mycelium_query::builtin::paper_query;
use mycelium_query::eval::evaluate;

fn test_spec() -> RoundSpec {
    RoundSpec {
        seed: 7,
        n: 24,
        query: "Q4".into(),
        device_shards: 8,
        origin_shards: 2,
        ..RoundSpec::default()
    }
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mycelium-net-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_driver(spec: &RoundSpec, dir: &Path, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_net_round"));
    cmd.arg("driver")
        .args(spec.to_args())
        .args(["--out", dir.to_str().unwrap()])
        .args(extra)
        .env("MYC_THREADS", "1");
    cmd.output().expect("driver spawns")
}

/// Runs the simulated executor on the exact spec the net driver uses —
/// same seed-derived keys, same population, same canonical rng streams —
/// and returns its sealed certificate bytes. Proof-carrying rounds
/// promise that both executors emit *byte-identical* certificates for
/// the same round spec, whatever the intake topology.
fn sim_certificate(spec: &RoundSpec) -> Vec<u8> {
    let params = SystemParams::simulation();
    let pop = build_population(spec);
    let query = paper_query(&spec.query).unwrap();
    let mut key_rng = StdRng::seed_from_u64(spec.seed).with_stream(mycelium::streams::KEYS);
    let keys = KeySet::generate(&params.bgv, &mut key_rng);
    let mut budget = PrivacyBudget::new(100.0);
    let cfg = SimNetConfig {
        seed: spec.seed,
        ..SimNetConfig::default()
    };
    let sim = run_query_simulated(
        &query,
        &pop,
        &params,
        &keys,
        &[],
        spec.with_proofs,
        &mut budget,
        &cfg,
    )
    .expect("simulated run");
    sim.certificate
        .expect("simulated round seals a certificate")
}

/// Reads the round's certificate artifact, checks that it verifies
/// offline, and returns the canonical bytes it embeds.
fn read_valid_certificate(dir: &Path) -> Vec<u8> {
    let text =
        std::fs::read_to_string(dir.join(files::CERT_JSON)).expect("ROUND_cert.json written");
    let bytes = extract_cert_hex(&text).expect("artifact embeds the canonical certificate hex");
    let verdict = verify_bytes(&bytes);
    assert!(verdict.is_valid(), "certificate rejected: {verdict}");
    bytes
}

#[test]
fn full_round_matches_in_process_executor_and_wire_costs_reconcile() {
    let spec = test_spec();
    let dir = out_dir("full");
    let out = run_driver(&spec, &dir, &[]);
    assert!(
        out.status.success(),
        "driver failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let outcome = decode_outcome(&std::fs::read(dir.join(files::OUTCOME)).unwrap())
        .unwrap()
        .unwrap_or_else(|e| panic!("round failed: {e}"));

    // Oracle 1: the in-process encrypted executor on the identical
    // population — the decoded (pre-noise) histogram must be
    // bit-identical (exact decryption: the result depends only on the
    // query and population, never on encryption randomness).
    let params = SystemParams::simulation();
    let pop = build_population(&spec);
    let query = paper_query(&spec.query).unwrap();
    let mut rng = StdRng::seed_from_u64(999);
    let keys = KeySet::generate(&params.bgv, &mut rng);
    let mut budget = PrivacyBudget::new(100.0);
    let in_process = run_query_encrypted(
        &query,
        &pop,
        &params,
        &keys,
        &[],
        spec.with_proofs,
        &mut budget,
        &mut rng,
    )
    .expect("in-process run");
    assert_eq!(outcome.exact.groups.len(), in_process.exact.groups.len());
    for (a, b) in outcome.exact.groups.iter().zip(&in_process.exact.groups) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.histogram, b.histogram, "group {} diverged", a.label);
        assert_eq!(a.total_pairs, b.total_pairs);
        assert_eq!(a.total_clipped_sum, b.total_clipped_sum);
    }

    // Oracle 2: the plaintext evaluator.
    let analysis = analyze(&query, &params.schema).unwrap();
    let oracle = evaluate(&query, &analysis, &params.schema, &pop);
    for (a, b) in outcome.exact.groups.iter().zip(&oracle.groups) {
        assert_eq!(a.histogram, b.histogram);
    }

    assert!(outcome.rejected.is_empty());
    assert_eq!(outcome.released.len(), outcome.exact.groups.len());

    // --- Wire-cost reconciliation against the analytical model. ---
    let merged =
        NetMetrics::decode(&std::fs::read(dir.join(files::METRICS_MERGED)).unwrap()).unwrap();
    let setup = build_setup(&spec).unwrap();
    let n = setup.pop.graph.len() as u64;
    let total_duties: u64 = setup.duties.iter().map(|d| d.len() as u64).sum();

    // Every frame costs exactly header + AEAD tag on top of its payload
    // — the framing delta is fully explained, byte for byte.
    for (kind, c) in merged.sent.iter().chain(merged.recv.iter()) {
        assert_eq!(
            c.wire_bytes,
            c.payload_bytes + c.frames * FRAME_OVERHEAD as u64,
            "framing overhead for {kind}"
        );
    }

    // PushContrib: one fresh ciphertext per duty. The analytical model
    // (`costs.rs` / `simcost.rs`) charges `params.bgv.ciphertext_bytes()`
    // per contribution; on the wire each costs exactly that plus the
    // codec envelope (message tag 1 + origin 4 + slot 4 + device 4 +
    // proof flag 1 = 14, and the ciphertext's own part-count/noise/
    // rep/level tags = 13).
    let pc = &merged.sent["PushContrib"];
    assert_eq!(pc.frames, total_duties);
    let ct_encoded = ciphertext_encoded_bytes(&setup.cc.ctx, 2, params.bgv.levels) as u64;
    assert_eq!(ct_encoded, params.bgv.ciphertext_bytes() as u64 + 13);
    assert_eq!(pc.payload_bytes, total_duties * (ct_encoded + 14));
    let analytical = total_duties * params.bgv.ciphertext_bytes() as u64;
    assert_eq!(
        pc.wire_bytes - analytical,
        total_duties * (13 + 14 + FRAME_OVERHEAD as u64),
        "PushContrib delta over the analytical model must be exactly envelope + framing"
    );

    // Every origin submitted exactly once (idempotent handlers).
    assert_eq!(merged.sent["SubmitOrigin"].frames, n);
    // 16 clients handshake at least once, and both ends count each
    // handshake, so the merged total is at least 2 × 16.
    let clients = (spec.device_shards + spec.origin_shards + setup.committee_size + 1) as u64;
    assert!(merged.handshakes >= 2 * clients);
    assert_eq!(merged.aead_rejects, 0);

    // Every committee member signed the certificate transcript exactly
    // once, and the signature push costs exactly its codec envelope.
    let cs = &merged.sent["PushCertSig"];
    assert_eq!(cs.frames, setup.committee_size as u64);
    assert_eq!(
        cs.payload_bytes,
        setup.committee_size as u64 * mycelium::costs::push_cert_sig_payload_bytes() as u64
    );

    // Proof-carrying round: the certificate artifact verifies offline and
    // is byte-identical to the simulated executor's certificate for the
    // same round spec.
    let cert = read_valid_certificate(&dir);
    assert_eq!(
        cert,
        sim_certificate(&spec),
        "net and simulated executors must emit byte-identical certificates"
    );

    // The JSON artifact exists and carries the same counters.
    let json = std::fs::read_to_string(dir.join(files::METRICS_JSON)).unwrap();
    assert!(json.contains(&format!("\"frames\": {total_duties}")));
    // Left on disk deliberately: CI archives NET_round.json as an artifact.
}

#[test]
fn sharded_round_matches_oracle_and_root_handoff_reconciles_to_the_byte() {
    // Four WAL-partitioned intake shards + thin coordinator (DESIGN.md
    // "Sharded aggregation"): the decoded histogram must be bit-identical
    // to the plaintext oracle, and the ShardRoot handoff must reconcile
    // against `costs::shard_root_payload_bytes` exactly — the measured
    // delta is the sealed-frame envelope alone.
    use mycelium::costs::shard_root_payload_bytes;

    let spec = RoundSpec {
        agg_shards: 4,
        ..test_spec()
    };
    let dir = out_dir("sharded");
    let out = run_driver(&spec, &dir, &[]);
    assert!(
        out.status.success(),
        "driver failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);

    let outcome = decode_outcome(&std::fs::read(dir.join(files::OUTCOME)).unwrap())
        .unwrap()
        .unwrap_or_else(|e| panic!("round failed: {e}"));
    let params = SystemParams::simulation();
    let pop = build_population(&spec);
    let query = paper_query(&spec.query).unwrap();
    let analysis = analyze(&query, &params.schema).unwrap();
    let oracle = evaluate(&query, &analysis, &params.schema, &pop);
    assert_eq!(outcome.exact.groups.len(), oracle.groups.len());
    for (a, b) in outcome.exact.groups.iter().zip(&oracle.groups) {
        assert_eq!(
            a.histogram, b.histogram,
            "sharded round diverged from the plaintext oracle in group {}",
            a.label
        );
    }
    assert!(outcome.rejected.is_empty());

    // --- ShardRoot wire reconciliation, byte for byte. ---
    let merged =
        NetMetrics::decode(&std::fs::read(dir.join(files::METRICS_MERGED)).unwrap()).unwrap();
    let setup = build_setup(&spec).unwrap();
    let shards = spec.agg_shards as u64;

    // Every shard mod-switches its sealed root to the canonical
    // aggregation level before shipping — the sealed ciphertext size is
    // topology-independent by construction (that same canonicalization
    // is what makes hub and sharded certificates byte-identical).
    let ct_encoded = ciphertext_encoded_bytes(&setup.cc.ctx, 2, mycelium::plan::AGGREGATION_LEVEL);
    // A sealed root carries one origin commitment per owned origin
    // (nothing was rejected in this fault-free round).
    let owned = |shard: usize| -> usize {
        (0..setup.pop.graph.len() as u32)
            .filter(|&v| mycelium_net::round::shard_of(v, spec.agg_shards) == shard)
            .count()
    };
    let predicted: u64 = (0..spec.agg_shards)
        .map(|s| shard_root_payload_bytes(ct_encoded, 0, owned(s)) as u64)
        .sum();

    let sr = &merged.sent["ShardRoot"];
    assert_eq!(sr.frames, shards, "one sealed root per shard");
    assert_eq!(
        sr.payload_bytes, predicted,
        "ShardRoot payload must match costs::shard_root_payload_bytes exactly"
    );
    assert_eq!(
        sr.wire_bytes,
        predicted + shards * FRAME_OVERHEAD as u64,
        "measured wire delta over the model is the frame envelope alone"
    );

    // The sharded topology must seal the *same* certificate as the
    // single-hub simulated executor: the commitment plane and the
    // aggregate digest are canonical, so intake partitioning may not
    // leak into the round's proof object.
    let cert = read_valid_certificate(&dir);
    assert_eq!(
        cert,
        sim_certificate(&spec),
        "sharded net round and simulated hub must emit byte-identical certificates"
    );

    // Every shard process journaled its own WAL partition, and its
    // published address file proves it bound an ephemeral port.
    for s in 0..spec.agg_shards {
        assert!(
            dir.join(files::shard_journal(s)).exists(),
            "shard {s} left no journal partition"
        );
        assert!(
            dir.join(files::shard_addr(s)).exists(),
            "shard {s} never published its address"
        );
    }
    drop(stderr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_session_spans_drivers_and_refuses_the_over_budget_round() {
    // Three driver invocations = one budget session: each process tree
    // is a fresh OS process set sharing only the session budget WAL.
    // Capacity 2.0 at epsilon 1.0 per round admits rounds 0 and 1; round
    // 2 must be refused with the canonical typed message in its outcome
    // file, and re-running the refused round (a full aggregator restart
    // replaying its journal and the WAL) must reproduce the refusal
    // byte-for-byte without growing the WAL.
    let base = out_dir("budget-session");
    std::fs::create_dir_all(&base).unwrap();
    let wal = base.join("session-budget.wal");
    let session_spec = |round: u32| RoundSpec {
        round,
        budget: Some(BudgetCfg {
            dataset: "contacts".into(),
            capacity: 2.0,
            delta: 0.0,
            advanced: false,
        }),
        budget_wal: Some(wal.clone()),
        ..test_spec()
    };

    for round in 0..2u32 {
        let dir = base.join(format!("r{round}"));
        let out = run_driver(&session_spec(round), &dir, &[]);
        assert!(
            out.status.success(),
            "admitted round {round} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let outcome = decode_outcome(&std::fs::read(dir.join(files::OUTCOME)).unwrap())
            .unwrap()
            .unwrap_or_else(|e| panic!("round {round} failed: {e}"));
        assert!(!outcome.exact.groups.is_empty());
        // The sealed certificate carries the round's ledger charge.
        let cert_bytes = read_valid_certificate(&dir);
        let cert = mycelium_cert::RoundCertificate::decode(&cert_bytes).unwrap();
        assert_eq!(
            cert.charged_epsilon(),
            1.0,
            "round {round}: certificate must bind the charged epsilon"
        );
    }

    // Round 2 overruns the session capacity: the aggregator refuses at
    // admission, before any intake, and the round fails with the typed
    // message.
    let dir2 = base.join("r2");
    let out = run_driver(&session_spec(2), &dir2, &[]);
    assert!(
        !out.status.success(),
        "over-budget round must fail the driver"
    );
    let refusal = match decode_outcome(&std::fs::read(dir2.join(files::OUTCOME)).unwrap()).unwrap()
    {
        Err(msg) => msg,
        Ok(_) => panic!("round 2 must be refused"),
    };
    assert!(
        refusal.contains("budget exhausted:"),
        "typed refusal in the outcome artifact, got: {refusal}"
    );
    let outcome_bytes = std::fs::read(dir2.join(files::OUTCOME)).unwrap();
    let wal_bytes = std::fs::read(&wal).unwrap();

    // Kill-and-replay: the same refused round re-run from its journal
    // (the aggregator recovers the recorded refusal rather than
    // re-pricing) must land on the identical outcome and leave the
    // session WAL untouched.
    let out = run_driver(&session_spec(2), &dir2, &[]);
    assert!(!out.status.success());
    assert_eq!(
        std::fs::read(dir2.join(files::OUTCOME)).unwrap(),
        outcome_bytes,
        "replayed refusal must be byte-identical"
    );
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        wal_bytes,
        "replaying a refused round must not grow the session WAL"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn crashed_origin_is_respawned_and_round_still_exact() {
    let spec = test_spec();
    let dir = out_dir("crash");
    // Origin shard 1 kills itself (exit 17) after half its vertices are
    // submitted; the driver's watchdog must detect the death and respawn
    // it, and the respawned process recovers purely by re-pulling from the
    // aggregator — the round must converge to the identical histogram.
    let out = run_driver(&spec, &dir, &["--crash-origin", "1", "--crash-after", "6"]);
    assert!(
        out.status.success(),
        "driver failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("respawning"),
        "watchdog never reported the crash: {stderr}"
    );

    let outcome = decode_outcome(&std::fs::read(dir.join(files::OUTCOME)).unwrap())
        .unwrap()
        .unwrap_or_else(|e| panic!("round failed: {e}"));
    let params = SystemParams::simulation();
    let pop = build_population(&spec);
    let query = paper_query(&spec.query).unwrap();
    let analysis = analyze(&query, &params.schema).unwrap();
    let oracle = evaluate(&query, &analysis, &params.schema, &pop);
    assert_eq!(outcome.exact.groups.len(), oracle.groups.len());
    for (a, b) in outcome.exact.groups.iter().zip(&oracle.groups) {
        assert_eq!(a.histogram, b.histogram, "group {} diverged", a.label);
    }
    // The respawn is not handed work that is already done: what its
    // predecessor got acknowledged it neither pulls nor submits again (six
    // rows here: walking its vertices from index 0 again would put 30
    // submissions on the wire for 24 origins), and the most that can go out
    // twice is a batch the predecessor died holding.
    let merged =
        NetMetrics::decode(&std::fs::read(dir.join(files::METRICS_MERGED)).unwrap()).unwrap();
    let submits = merged.sent["SubmitOrigin"].frames;
    let n = pop.graph.len() as u64;
    assert!(
        (n..=n + BATCH as u64).contains(&submits),
        "{submits} submissions for {n} origins"
    );
    // Even with a crashed-and-respawned origin the round must still
    // seal a certificate that verifies offline.
    let cert = read_valid_certificate(&dir);
    assert_eq!(
        cert,
        sim_certificate(&spec),
        "crash recovery must not perturb the certificate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
