//! The network chaos plane, end to end.
//!
//! Two halves: the zero-fault proxy must be wire-transparent — every
//! server fronts itself with a [`ChaosProxy`] and yet every deterministic
//! wire counter is identical to an unproxied round, so the fault plane
//! provably adds nothing when idle — and a seeded fault run through the
//! `chaos_round netchaos` binary must end exact, reconcile its injected
//! faults against the transport counters, and reproduce its
//! `CHAOS_net.json` byte for byte when rerun.

use std::path::{Path, PathBuf};
use std::process::Command;

use mycelium::params::SystemParams;
use mycelium_net::metrics::NetMetrics;
use mycelium_net::netchaos::NetProfile;
use mycelium_net::round::{build_population, decode_outcome, files, RoundSpec};
use mycelium_query::analyze::analyze;
use mycelium_query::builtin::paper_query;
use mycelium_query::eval::evaluate;

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mycelium-netchaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_driver(spec: &RoundSpec, dir: &Path) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_net_round"));
    cmd.arg("driver")
        .args(spec.to_args())
        .args(["--out", dir.to_str().unwrap()])
        .env("MYC_THREADS", "1");
    cmd.output().expect("driver spawns")
}

/// The message kinds whose counts are fully determined by the round
/// spec — exactly the ones the `costs.rs` reconciliation prices. The
/// remaining kinds are polls (`PullStatus`, `PullReady`,
/// `CommitteeCheckIn`), whose counts float with scheduling even between
/// two unproxied runs.
const DETERMINISTIC_KINDS: [&str; 4] = ["PushContrib", "SubmitOrigin", "PushShare", "PushCertSig"];

/// The deterministic slice of the merged metrics: per-kind frame and
/// byte counters of the spec-determined message kinds, with every
/// fault-absorption counter pinned to zero and the framing identity
/// (`wire == payload + frames × FRAME_OVERHEAD`) checked for *all*
/// kinds, polls included.
fn wire_signature(dir: &Path) -> Vec<(String, u64, u64, u64)> {
    let merged =
        NetMetrics::decode(&std::fs::read(dir.join(files::METRICS_MERGED)).unwrap()).unwrap();
    assert_eq!(merged.retries, 0);
    assert_eq!(merged.deadline_expiries, 0);
    assert_eq!(merged.duplicates_suppressed, 0);
    assert_eq!(merged.overload_rejections, 0);
    assert_eq!(merged.aead_rejects, 0);
    let mut sig = Vec::new();
    for (dir_tag, map) in [("sent", &merged.sent), ("recv", &merged.recv)] {
        for (kind, c) in map.iter() {
            assert_eq!(
                c.wire_bytes,
                c.payload_bytes + c.frames * mycelium_net::client::FRAME_OVERHEAD as u64,
                "framing identity for {dir_tag}:{kind}"
            );
            if DETERMINISTIC_KINDS.contains(&kind.as_str()) {
                sig.push((
                    format!("{dir_tag}:{kind}"),
                    c.frames,
                    c.payload_bytes,
                    c.wire_bytes,
                ));
            }
        }
    }
    assert_eq!(sig.len(), 2 * DETERMINISTIC_KINDS.len());
    sig
}

#[test]
fn zero_fault_proxy_is_wire_transparent() {
    let base = RoundSpec {
        seed: 7,
        n: 24,
        query: "Q4".into(),
        device_shards: 8,
        origin_shards: 2,
        ..RoundSpec::default()
    };

    let plain_dir = out_dir("plain");
    let out = run_driver(&base, &plain_dir);
    assert!(
        out.status.success(),
        "unproxied driver failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let proxied = RoundSpec {
        net: Some(NetProfile::Seeded(0)),
        ..base.clone()
    };
    let proxied_dir = out_dir("proxied");
    let out = run_driver(&proxied, &proxied_dir);
    assert!(
        out.status.success(),
        "proxied driver failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The proxied round went through the interposer: the empty fault
    // ledger artifact proves the proxy was in the path and fired nothing.
    let ledger = std::fs::read_to_string(proxied_dir.join(files::netfaults("aggregator"))).unwrap();
    for (key, value) in [
        ("latency_injections", 0),
        ("partition_rejects", 0),
        ("reply_drops", 0),
        ("resets", 0),
        ("stall_replies", 0),
        ("stall_requests", 0),
    ] {
        assert!(
            ledger.contains(&format!("\"{key}\": {value}")),
            "ledger {ledger:?} missing zeroed {key}"
        );
    }
    assert!(
        !plain_dir.join(files::netfaults("aggregator")).exists(),
        "unproxied round must not write a fault ledger"
    );

    // Exactness: the proxied round's histogram matches the plaintext
    // oracle bit for bit.
    let outcome = decode_outcome(&std::fs::read(proxied_dir.join(files::OUTCOME)).unwrap())
        .unwrap()
        .unwrap_or_else(|e| panic!("proxied round failed: {e}"));
    let params = SystemParams::simulation();
    let pop = build_population(&proxied);
    let query = paper_query(&proxied.query).unwrap();
    let analysis = analyze(&query, &params.schema).unwrap();
    let oracle = evaluate(&query, &analysis, &params.schema, &pop);
    for (a, b) in outcome.exact.groups.iter().zip(&oracle.groups) {
        assert_eq!(a.histogram, b.histogram, "group {} diverged", a.label);
    }

    // Wire transparency: every deterministic counter — frames, payload
    // bytes, sealed wire bytes, per message kind, both directions — is
    // identical through the idle proxy. This is the same identity the
    // costs.rs reconciliation rests on, so the analytical cost model
    // holds verbatim under the chaos plane.
    assert_eq!(
        wire_signature(&proxied_dir),
        wire_signature(&plain_dir),
        "an idle ChaosProxy must not change a single wire byte"
    );

    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&proxied_dir);
}

#[test]
fn seeded_netchaos_run_is_exact_reconciled_and_reproducible() {
    let run = |tag: &str| -> (PathBuf, String) {
        let dir = out_dir(tag);
        let out = Command::new(env!("CARGO_BIN_EXE_chaos_round"))
            .args(["netchaos", "--n", "12", "--devices", "3", "--origins", "2"])
            .args(["--seeds", "1", "--out", dir.to_str().unwrap()])
            .env("MYC_THREADS", "1")
            .output()
            .expect("chaos_round spawns");
        assert!(
            out.status.success(),
            "netchaos failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = std::fs::read_to_string(dir.join(files::CHAOS_NET_JSON)).unwrap();
        (dir, report)
    };

    let (dir_a, report_a) = run("seeded-a");
    assert!(report_a.contains("\"verdict\": \"exact\""), "{report_a}");
    assert!(report_a.contains("\"reconciled\": \"ok\""), "{report_a}");
    assert!(
        report_a.contains("\"invariant_violations\": 0"),
        "{report_a}"
    );

    // Determinism: the same seed over the same spec must reproduce the
    // report artifact byte for byte — fault plans, verdicts, and
    // injected counts carry no timing residue.
    let (dir_b, report_b) = run("seeded-b");
    assert_eq!(
        report_a, report_b,
        "CHAOS_net.json must be byte-identical across reruns of the same seed"
    );

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
