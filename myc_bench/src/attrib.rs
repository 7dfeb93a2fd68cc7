//! The per-layer view of a real-process round: what its processes
//! report about themselves (`role.*`, `net.*`), and the attribution that
//! joins those counts to the unit costs (`attrib.*` = measured count x
//! unit cost, in CPU seconds summed over all processes).
//!
//! Nothing here traces inside the program: a remainder the layers'
//! public calls do not explain stays in `attrib.unattributed_s`.

use std::time::Instant;

use mycelium::run_query_encrypted;
use mycelium_dp::PrivacyBudget;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::metrics::NetMetrics;

use crate::harness::procfs::{cpu_times, peak_rss_mb, reset_peak_rss, RoleUsage};
use crate::harness::stats::median;
use crate::workloads::net::{NetRound, RoundArtifacts};
use crate::workloads::{Cfg, Layers};

const ROLES: [&str; 5] = ["aggregator", "shard", "device", "origin", "committee"];
/// Request kinds whose latency the clients record and the trace reports.
const KINDS: [&str; 4] = [
    "PushContrib",
    "PullOrigin",
    "SubmitOrigin",
    "CommitteeCheckIn",
];
/// Polls: frames that ask whether something happened yet.
const POLL_KINDS: [&str; 3] = ["CommitteeCheckIn", "PullStatus", "PullShardStatus"];
/// Requests the aggregation plane journals and makes durable before it
/// replies (one `sync_all` each). Every committee member's first
/// check-in is one as well; later ones are polls.
const DURABLE_KINDS: [&str; 5] = [
    "PushContrib",
    "SubmitOrigin",
    "PushShare",
    "PushCertSig",
    "ShardRoot",
];

fn frames(m: &NetMetrics, kinds: &[&str]) -> f64 {
    kinds
        .iter()
        .map(|k| m.sent.get(*k).map_or(0, |c| c.frames))
        .sum::<u64>() as f64
}

fn of_role<'a>(a: &'a RoundArtifacts, role: &'a str) -> impl Iterator<Item = &'a RoleUsage> {
    a.roles.iter().filter(move |r| r.role == role)
}

/// Counts of one round that are not metrics of any layer.
#[derive(Debug, Clone, Copy)]
pub struct RoundFacts {
    /// Processes of the round, the driver included; each derives the
    /// whole shared set-up for itself.
    pub processes: f64,
    /// Committee size.
    pub committee: f64,
    /// Origins (one combined row each).
    pub origins: f64,
}

/// Runs rounds for `cfg.seconds` (two at least) and records what their
/// processes report; medians over the rounds. Returns the round's facts
/// and the certificate of the last round.
pub fn trace_rounds(
    round: &NetRound,
    cfg: &Cfg,
    out: &mut Layers,
) -> Result<(RoundFacts, Vec<u8>), String> {
    let mut arts: Vec<RoundArtifacts> = Vec::new();
    let mut wal_records = Vec::new();
    let (mut driver_cpu, mut driver_rss, mut driver_wall) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while arts.len() < 2 || started.elapsed().as_secs_f64() < cfg.seconds {
        reset_peak_rss();
        let cpu = cpu_times().own_s;
        let t = Instant::now();
        arts.push(round.round()?);
        driver_wall.push(t.elapsed().as_secs_f64());
        driver_cpu.push(cpu_times().own_s - cpu);
        driver_rss.push(peak_rss_mb());
        wal_records.push(round.wal_records()? as f64);
    }
    let over_rounds = |f: &dyn Fn(&RoundArtifacts) -> f64| -> f64 {
        median(&arts.iter().map(f).collect::<Vec<_>>())
    };
    for role in ROLES {
        let cpu = over_rounds(&|a| of_role(a, role).fold(0.0, |sum, r| sum + r.cpu_s));
        let rss = over_rounds(&|a| of_role(a, role).fold(0.0, |max, r| max.max(r.rss_mb)));
        let wall = over_rounds(&|a| of_role(a, role).fold(0.0, |max, r| max.max(r.wall_s)));
        out.set(&format!("role.{role}.cpu_s"), cpu);
        out.set(&format!("role.{role}.rss_mb"), rss);
        out.set(&format!("role.{role}.wall_s"), wall);
    }
    out.set("role.driver.cpu_s", median(&driver_cpu));
    out.set("role.driver.rss_mb", median(&driver_rss));
    out.set("role.driver.wall_s", median(&driver_wall));
    let all_roles = over_rounds(&|a| a.roles.iter().map(|r| r.cpu_s).sum::<f64>());
    out.set("attrib.round_cpu_s", all_roles + median(&driver_cpu));

    let contributions = round.contributions() as f64;
    out.set("mycelium.contributions", contributions);
    let m = |f: &dyn Fn(&NetMetrics) -> f64| over_rounds(&|a| f(&a.metrics));
    out.set("net.wire_bytes", m(&|m| m.bytes_sent as f64));
    out.set("net.wal_bytes", over_rounds(&|a| a.wal_bytes as f64));
    out.set("net.wal_records", median(&wal_records));
    out.set("net.frames", m(&|m| m.frames_sent as f64));
    out.set("net.handshakes", m(&|m| m.handshakes as f64));
    out.set(
        "net.handshake_p50_us",
        m(&|m| m.handshake_micros.p50() as f64),
    );
    out.set("net.retries", m(&|m| m.retries as f64));
    for kind in KINDS {
        let q = |p50: bool| {
            m(&|m| {
                m.latency
                    .get(kind)
                    .map_or(0.0, |s| if p50 { s.p50() } else { s.p99() } as f64)
            })
        };
        out.set(&format!("net.req_p50_us.{kind}"), q(true));
        out.set(&format!("net.req_p99_us.{kind}"), q(false));
    }
    // Every frame sent is a request or its one reply.
    let requests = m(&|m| m.sent.values().map(|c| c.frames).sum::<u64>() as f64 / 2.0);
    out.set("net.poll_ratio", m(&|m| frames(m, &POLL_KINDS)) / requests);
    let committee = round.setup().committee_size as f64;
    out.set(
        "net.durable_requests",
        m(&|m| frames(m, &DURABLE_KINDS)) + committee,
    );
    out.set(
        "net.wal_bytes_per_contrib",
        out.get("net.wal_bytes") / contributions,
    );
    out.set(
        "net.wire_bytes_per_contrib",
        out.get("net.wire_bytes") / contributions,
    );

    // The same round in this process: all of its cryptography and none
    // of its transport. Its multiplication count is the round's.
    let s = round.setup();
    let t = Instant::now();
    let direct = run_query_encrypted(
        &s.query,
        &s.pop,
        &s.params,
        &s.keys,
        &[],
        s.spec.with_proofs,
        &mut PrivacyBudget::new(1e9),
        &mut StdRng::seed_from_u64(s.spec.seed),
    )
    .map_err(|e| format!("in-process round failed: {e}"))?;
    out.set("attrib.direct_round_s", t.elapsed().as_secs_f64());
    out.set(
        "mycelium.multiplications",
        direct.stats.multiplications as f64,
    );
    out.set(
        "mycelium.proofs_verified",
        direct.stats.proofs_verified as f64,
    );
    out.set("mycelium.rejected", direct.stats.rejected as f64);
    let facts = RoundFacts {
        processes: over_rounds(&|a| a.roles.len() as f64) + 1.0,
        committee,
        origins: s.pop.graph.len() as f64,
    };
    Ok((facts, arts.pop().expect("two rounds at least").certificate))
}

/// Joins a round's counts to the unit costs.
pub fn attribute(facts: &RoundFacts, l: &mut Layers) {
    let cpu = l.get("attrib.round_cpu_s");
    let us = |name: &str| l.get(name) / 1e6;
    let c = l.get("mycelium.contributions");
    let muls = l.get("mycelium.multiplications");
    let committee = facts.committee;
    let parts = [
        (
            "attrib.setup_s",
            facts.processes * l.get("setup.build_setup_ms") / 1e3,
        ),
        (
            // One encryption per contribution; a multiplication is
            // followed by a relinearization and a level drop; one
            // addition per origin row in the summation tree.
            "attrib.bgv_s",
            c * us("bgv.encrypt_us")
                + muls * (us("bgv.mul_us") + us("bgv.relinearize_us") + us("bgv.mod_switch_us"))
                + facts.origins * us("bgv.add_us"),
        ),
        (
            "attrib.zkp_s",
            c * (us("zkp.prove_us") + us("zkp.verify_us")),
        ),
        (
            // Device encodes, aggregator decodes, aggregator re-encodes
            // into the origin's job, origin decodes.
            "attrib.codec_s",
            2.0 * c * (us("net.codec_encode_contrib_us") + us("net.codec_decode_contrib_us")),
        ),
        (
            // Every byte on a socket is sealed once and opened once.
            "attrib.aead_s",
            l.get("net.wire_bytes") / 1e6
                * (1.0 / l.get("crypto.aead_seal_mb_s") + 1.0 / l.get("crypto.aead_open_mb_s")),
        ),
        (
            // Checksum and write of every journal byte; the wait for the
            // disk is `attrib.fsync_wait_s`, which is not CPU time.
            "attrib.wal_s",
            l.get("net.wal_bytes") / l.get("net.contrib_bytes")
                * us("net.journal_append_nosync_96k_us"),
        ),
        (
            "attrib.handshake_s",
            l.get("net.handshakes") * us("net.channel_handshake_p50_us"),
        ),
        (
            "attrib.threshold_s",
            // floor(c / 2) + 1 members decrypt.
            ((committee / 2.0).floor() + 1.0) * us("sharing.decryption_share_us")
                + us("sharing.combine_us"),
        ),
        (
            // Each member signs, the aggregator checks each signature,
            // the driver verifies the sealed certificate.
            "attrib.cert_s",
            committee * (us("crypto.ed25519_sign_us") + us("crypto.ed25519_verify_us"))
                + us("cert.verify_us"),
        ),
    ];
    let fsync_wait = l.get("net.durable_requests")
        * (us("net.journal_append_commit_96k_us") - us("net.journal_append_nosync_96k_us"));
    let attributed: f64 = parts.iter().map(|(_, s)| s).sum();
    for (name, secs) in parts {
        l.set(name, secs);
    }
    l.set("attrib.unattributed_s", cpu - attributed);
    l.set("attrib.coverage", attributed / cpu);
    l.set("attrib.fsync_wait_s", fsync_wait);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_is_count_times_unit_cost_and_sums_to_the_round() {
        let mut l = Layers::default();
        let facts = RoundFacts {
            processes: 10.0,
            committee: 5.0,
            origins: 100.0,
        };
        for (name, value) in [
            ("attrib.round_cpu_s", 2.0),
            ("setup.build_setup_ms", 10.0),
            ("mycelium.contributions", 300.0),
            ("mycelium.multiplications", 50.0),
            ("bgv.encrypt_us", 200.0),
            ("bgv.mul_us", 500.0),
            ("bgv.relinearize_us", 300.0),
            ("bgv.mod_switch_us", 200.0),
            ("bgv.add_us", 10.0),
            ("zkp.prove_us", 400.0),
            ("zkp.verify_us", 100.0),
            ("net.codec_encode_contrib_us", 30.0),
            ("net.codec_decode_contrib_us", 70.0),
            ("net.wire_bytes", 60e6),
            ("crypto.aead_seal_mb_s", 200.0),
            ("crypto.aead_open_mb_s", 300.0),
            ("net.wal_bytes", 30e6),
            ("net.contrib_bytes", 100e3),
            ("net.journal_append_nosync_96k_us", 100.0),
            ("net.journal_append_commit_96k_us", 1100.0),
            ("net.durable_requests", 400.0),
            ("net.handshakes", 20.0),
            ("net.channel_handshake_p50_us", 1000.0),
            ("sharing.decryption_share_us", 1000.0),
            ("sharing.combine_us", 2000.0),
            ("crypto.ed25519_sign_us", 100.0),
            ("crypto.ed25519_verify_us", 300.0),
            ("cert.verify_us", 3000.0),
        ] {
            l.set(name, value);
        }
        attribute(&facts, &mut l);
        let close = |name: &str, want: f64| {
            let got = l.get(name);
            assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
        };
        close("attrib.setup_s", 0.1);
        close("attrib.bgv_s", 0.06 + 0.05 + 0.001);
        close("attrib.zkp_s", 0.15);
        close("attrib.codec_s", 0.06);
        close("attrib.aead_s", 0.3 + 0.2);
        close("attrib.wal_s", 0.03);
        close("attrib.handshake_s", 0.02);
        close("attrib.threshold_s", 0.003 + 0.002);
        close("attrib.cert_s", 0.002 + 0.003);
        close("attrib.fsync_wait_s", 0.4);
        let sum = 0.1 + 0.111 + 0.15 + 0.06 + 0.5 + 0.03 + 0.02 + 0.005 + 0.005;
        close("attrib.unattributed_s", 2.0 - sum);
        close("attrib.coverage", sum / 2.0);
    }
}
