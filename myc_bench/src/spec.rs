//! What the benchmark runs and reports: the single table `BENCHMARK.json`
//! is rendered from (`myc_bench manifest`) and every run is checked
//! against.

use crate::harness::json::Json;
use crate::workloads::direct::DirectShape;
use crate::workloads::net::NetShape;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// The command of `BENCHMARK.json`, run from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "myc_bench/Cargo.toml",
    "--",
];

/// What a workload's operation is, and at what size.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `run_query_encrypted` in this process.
    Direct(DirectShape),
    /// One certified round through real processes (Q4, proofs on).
    Net(NetShape),
    /// `AggState::recover` of the sealed journal of such a round.
    Recover(NetShape),
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: why it exists.
    pub why: &'static str,
    /// Its operation.
    pub kind: Kind,
}

/// Population of the real-process round workloads.
pub const NET_N: usize = 96;

/// The workloads, each a closed loop of one operation at a time.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "direct_q4",
        why: "In-process round, Q4 n=384 with proofs: BGV encrypt and ZKP prove/verify dominate; \
              transport, WAL, codec and certificate do nothing, so a change there must not move it.",
        kind: Kind::Direct(DirectShape { query: "Q4", n: 384, proofs: true }),
    },
    Workload {
        name: "direct_q5",
        why: "In-process round, Q5 n=256 without proofs: multiply, relinearize and mod-switch \
              dominate instead of encrypt; catches a kernel change that helps one BGV op at another's cost.",
        kind: Kind::Direct(DirectShape { query: "Q5", n: 256, proofs: false }),
    },
    Workload {
        name: "net_hub",
        why: "One certified round through real processes over encrypted loopback TCP, Q4 n=96 with \
              proofs, single hub: AEAD, codec, per-request fsync and aggregator service time dominate.",
        kind: Kind::Net(NetShape { n: NET_N, agg_shards: 1 }),
    },
    Workload {
        name: "net_sharded",
        why: "The same round over 4 intake shards and a coordinator: the hub's serial verify+journal \
              path is split four ways, so an aggregator-side gain shows on net_hub and much less here.",
        kind: Kind::Net(NetShape { n: NET_N, agg_shards: 4 }),
    },
    Workload {
        name: "agg_recover",
        why: "AggState::recover of the sealed journal of one net_hub round: the read side of the \
              WAL and codec layers, so a change that speeds journal writes must not slow replay.",
        kind: Kind::Recover(NetShape { n: NET_N, agg_shards: 1 }),
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics; lower is better for each. The time bounds
/// are the widest the contract allows because this kind of host is that
/// unsteady (README, "Why the time bounds are 25 %").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name in `BENCHMARK.json`; the prefix is the crate (layer).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether more is better (`false`: less is).
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher: true,
    }
}

/// The per-layer metrics, by source: spans of the in-process round, unit
/// costs of single public calls, artifacts of the real-process round and
/// the attribution that joins the last two.
pub const PER_LAYER: [PerLayer; 101] = [
    // Spans (direct_*): self time per round.
    lower("mycelium.plan_new_s", "s"),
    lower("mycelium.origin_work_s", "s"),
    lower("mycelium.build_contribution_s", "s"),
    lower("mycelium.verify_contribution_s", "s"),
    lower("mycelium.combine_origin_s", "s"),
    lower("mycelium.aggregate_and_audit_s", "s"),
    lower("mycelium.run_committee_s", "s"),
    lower("mycelium.decode_s", "s"),
    lower("mycelium.contributions", "count"),
    lower("mycelium.multiplications", "count"),
    lower("mycelium.proofs_verified", "count"),
    lower("mycelium.rejected", "count"),
    higher("mycelium.span_coverage", "ratio"),
    higher("mycelium.par_speedup_2t", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    // Unit costs (every workload): one public call on real round inputs.
    lower("math.ntt_roundtrip_us", "us"),
    lower("bgv.encrypt_us", "us"),
    lower("bgv.mul_us", "us"),
    lower("bgv.relinearize_us", "us"),
    lower("bgv.mod_switch_us", "us"),
    lower("bgv.add_us", "us"),
    lower("zkp.prove_us", "us"),
    lower("zkp.verify_us", "us"),
    lower("zkp.proof_bytes", "bytes"),
    higher("crypto.aead_seal_mb_s", "MB/s"),
    higher("crypto.aead_open_mb_s", "MB/s"),
    higher("crypto.sha256_mb_s", "MB/s"),
    lower("crypto.ed25519_sign_us", "us"),
    lower("crypto.ed25519_verify_us", "us"),
    lower("sharing.decryption_share_us", "us"),
    lower("sharing.combine_us", "us"),
    lower("cert.verify_us", "us"),
    lower("cert.bytes", "bytes"),
    lower("budget.decide_apply_us", "us"),
    lower("query.analyze_us", "us"),
    lower("graph.population_ms", "ms"),
    lower("net.codec_encode_contrib_us", "us"),
    lower("net.codec_decode_contrib_us", "us"),
    lower("net.contrib_bytes", "bytes"),
    lower("net.channel_handshake_p50_us", "us"),
    lower("net.channel_exchange_96k_p50_us", "us"),
    lower("net.channel_exchange_96k_p99_us", "us"),
    lower("net.journal_append_commit_96k_us", "us"),
    lower("net.journal_append_nosync_96k_us", "us"),
    higher("net.journal_replay_mb_s", "MB/s"),
    lower("net.agg_handle_push_contrib_us", "us"),
    lower("net.agg_handle_submit_origin_us", "us"),
    lower("net.agg_handle_pull_origin_us", "us"),
    lower("net.agg_handle_push_contrib_wal_us", "us"),
    // Round artifacts (net_*): what the processes of one round report.
    lower("role.aggregator.cpu_s", "s"),
    lower("role.shard.cpu_s", "s"),
    lower("role.device.cpu_s", "s"),
    lower("role.origin.cpu_s", "s"),
    lower("role.committee.cpu_s", "s"),
    lower("role.driver.cpu_s", "s"),
    lower("role.aggregator.rss_mb", "MB"),
    lower("role.shard.rss_mb", "MB"),
    lower("role.device.rss_mb", "MB"),
    lower("role.origin.rss_mb", "MB"),
    lower("role.committee.rss_mb", "MB"),
    lower("role.driver.rss_mb", "MB"),
    lower("role.aggregator.wall_s", "s"),
    lower("role.shard.wall_s", "s"),
    lower("role.device.wall_s", "s"),
    lower("role.origin.wall_s", "s"),
    lower("role.committee.wall_s", "s"),
    lower("role.driver.wall_s", "s"),
    lower("net.wire_bytes", "bytes"),
    lower("net.wal_bytes", "bytes"),
    lower("net.frames", "count"),
    lower("net.handshakes", "count"),
    lower("net.handshake_p50_us", "us"),
    lower("net.retries", "count"),
    lower("net.req_p50_us.PushContrib", "us"),
    lower("net.req_p99_us.PushContrib", "us"),
    lower("net.req_p50_us.PullOrigin", "us"),
    lower("net.req_p99_us.PullOrigin", "us"),
    lower("net.req_p50_us.SubmitOrigin", "us"),
    lower("net.req_p99_us.SubmitOrigin", "us"),
    lower("net.req_p50_us.CommitteeCheckIn", "us"),
    lower("net.req_p99_us.CommitteeCheckIn", "us"),
    lower("net.poll_ratio", "ratio"),
    lower("net.wal_records", "count"),
    lower("net.durable_requests", "count"),
    lower("net.wal_bytes_per_contrib", "bytes"),
    lower("net.wire_bytes_per_contrib", "bytes"),
    // Attribution (net_*): measured count x unit cost, against cpu_s.
    lower("attrib.round_cpu_s", "s"),
    lower("attrib.direct_round_s", "s"),
    lower("attrib.setup_s", "s"),
    lower("attrib.bgv_s", "s"),
    lower("attrib.zkp_s", "s"),
    lower("attrib.codec_s", "s"),
    lower("attrib.aead_s", "s"),
    lower("attrib.wal_s", "s"),
    lower("attrib.handshake_s", "s"),
    lower("attrib.threshold_s", "s"),
    lower("attrib.cert_s", "s"),
    lower("attrib.unattributed_s", "s"),
    higher("attrib.coverage", "ratio"),
    lower("attrib.fsync_wait_s", "s"),
    lower("setup.build_setup_ms", "ms"),
];

fn strings(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(*s)).collect())
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let better = |higher: bool| Json::str(if higher { "higher" } else { "lower" });
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&["myc_bench"])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(false)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn tables_stay_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 << 10);
        assert!(workload("net_hub").is_some() && workload("nope").is_none());
    }
}
