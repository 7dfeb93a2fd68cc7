//! The benchmark run small: every workload, end to end and per layer,
//! at n=24 for a second each.
//!
//! The binary refuses to measure a debug build, so these run under
//! `cargo test --release`; a debug `cargo test` checks the refusal
//! instead.

use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_myc_bench");

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(EXE)
        .args(args)
        .env_remove("MYC_THREADS")
        .env_remove("MYC_NO_SIMD")
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn committed_manifest_is_the_one_the_binary_renders() {
    let out = bench(&["manifest"]);
    assert!(out.status.success());
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        std::fs::read_to_string(committed).expect("BENCHMARK.json at the repository root"),
        "BENCHMARK.json is stale: regenerate it with `myc_bench manifest`"
    );
}

#[test]
fn settings_the_results_do_not_record_are_refused() {
    let run = |key: &str, value: &str| {
        Command::new(EXE)
            .args(["run", "--smoke"])
            .env_remove("MYC_THREADS")
            .env_remove("MYC_NO_SIMD")
            .env(key, value)
            .output()
            .unwrap()
    };
    for (key, value) in [("MYC_THREADS", "2"), ("MYC_NO_SIMD", "1")] {
        let out = run(key, value);
        assert_eq!(out.status.code(), Some(2), "{key}={value} must be refused");
        assert!(String::from_utf8_lossy(&out.stderr).contains("refusing to run"));
        assert!(out.stdout.is_empty());
    }
    for args in [
        &["frobnicate"][..],
        &["run", "--seed"],
        &["--workload", "nope"],
    ] {
        assert_eq!(bench(args).status.code(), Some(2), "{args:?}");
    }
}

#[cfg(debug_assertions)]
#[test]
fn a_debug_build_is_refused() {
    let out = bench(&["run", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
}

#[cfg(not(debug_assertions))]
mod measured {
    use super::*;
    use myc_bench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
    use myc_bench::workloads::net::{check_round, NetRound, NetShape};
    use myc_bench::workloads::{self, Cfg, Workload};
    use mycelium_net::round::files;

    fn cfg(tag: &str, trace: bool) -> Cfg {
        // What `main` does before it measures anything.
        std::env::set_var("MYC_THREADS", "1");
        Cfg {
            seed: 7,
            seconds: 1.0,
            trace,
            smoke: true,
            exe: PathBuf::from(EXE),
            scratch: Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag),
        }
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// One test, so the workloads run one after the other as they do in
    /// the binary and never share the two cores.
    #[test]
    fn every_workload_reports_every_declared_metric() {
        for w in &WORKLOADS {
            let report = workloads::run(w, &cfg(w.name, false));
            assert!(report.correct, "{}: {:?}", w.name, report.failures);
            assert_eq!(report.failed, 0);
            assert!(report.attempted >= 2);
            let names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.map(|m| m.name), "{}", w.name);
            for m in &report.metrics {
                assert!(name_ok(m.name));
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}",
                    w.name,
                    m.name
                );
            }

            let report = workloads::run(w, &cfg(w.name, true));
            assert!(report.correct, "{} trace: {:?}", w.name, report.failures);
            let names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.name), "{}", w.name);
            let get = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap()
                    .value
            };
            for m in &report.metrics {
                assert!(name_ok(m.name));
                assert!(m.value.is_finite(), "{} {}", w.name, m.name);
            }
            // Unit costs are measured whatever the workload.
            for unit in ["bgv.encrypt_us", "zkp.verify_us", "crypto.aead_seal_mb_s"] {
                assert!(get(unit) > 0.0, "{} {unit}", w.name);
            }
            if w.name.starts_with("direct") {
                assert!(get("mycelium.span_coverage") >= 0.95, "{}", w.name);
                assert!(get("mycelium.contributions") > 0.0);
            }
            if w.name.starts_with("net") {
                assert!(get("attrib.round_cpu_s") > 0.0);
                assert!(get("role.aggregator.cpu_s") > 0.0);
                assert!(get("net.wire_bytes") > 0.0 && get("net.wal_records") > 0.0);
                assert!((get("role.shard.cpu_s") > 0.0) == (w.name == "net_sharded"));
                let parts: f64 = [
                    "setup",
                    "bgv",
                    "zkp",
                    "codec",
                    "aead",
                    "wal",
                    "handshake",
                    "threshold",
                    "cert",
                    "unattributed",
                ]
                .iter()
                .map(|p| get(&format!("attrib.{p}_s")))
                .sum();
                assert!((parts - get("attrib.round_cpu_s")).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn a_wrong_or_unreadable_outcome_is_a_failed_operation_not_a_panic() {
        let cfg = cfg("corrupted", false);
        let shape = NetShape {
            n: 24,
            agg_shards: 1,
        };
        let round = NetRound::set_up(&shape, &cfg).unwrap();
        round
            .round()
            .expect("the untouched round passes its checks");

        let oracle = round.oracle().clone();
        let mut wrong = oracle.clone();
        wrong.groups[0].histogram[0] += 1;
        let err = check_round(round.out_dir(), &wrong)
            .err()
            .expect("oracle mismatch");
        assert!(err.contains("differs from the plaintext oracle"), "{err}");

        let outcome = round.out_dir().join(files::OUTCOME);
        let mut bytes = std::fs::read(&outcome).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&outcome, &bytes).unwrap();
        let err = check_round(round.out_dir(), &oracle)
            .err()
            .expect("torn outcome");
        assert!(err.contains("does not decode"), "{err}");

        std::fs::write(&outcome, [0xff]).unwrap();
        assert!(check_round(round.out_dir(), &oracle).is_err());
        std::fs::remove_file(&outcome).unwrap();
        assert!(check_round(round.out_dir(), &oracle).is_err());
        let _ = std::fs::remove_dir_all(round.out_dir());
    }

    #[test]
    fn one_run_ends_in_the_result_line() {
        let out = bench(&[
            "--workload",
            "direct_q5",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last = stdout.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": "));
        for m in &END_TO_END {
            assert!(last.contains(&format!("\"{}\": {{\"value\": ", m.name)));
        }
        assert!(last.ends_with("\"unit\": \"s\"}}}"));
    }
}
