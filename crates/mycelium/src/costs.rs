//! The §6.4–§6.6 cost models behind Figures 6, 7 and 9.
//!
//! As in the paper, per-device and aggregator costs at millions of devices
//! are *extrapolated* from component benchmarks: the models below take the
//! ciphertext size from the BGV parameters and the messaging pattern from
//! the mixnet parameters, and reproduce the paper's headline numbers
//! (≈4.3 MB/ciphertext, 1030 MB per forwarder, 170 MB per non-forwarder,
//! ≈430 MB expected per device, ≈350 MB aggregator traffic per device,
//! 10⁵–10⁶ aggregator cores at 10⁹ users).

use mycelium_bgv::BgvParams;
use mycelium_query::analyze::GroupKind;
use mycelium_zkp::cost::Groth16Model;

use crate::params::SystemParams;
use crate::plan::{OriginWork, QueryPlan};

/// Per-device bandwidth for one query (Figure 7).
#[derive(Debug, Clone, Copy)]
pub struct DeviceBandwidth {
    /// Bytes a non-forwarder sends + receives.
    pub non_forwarder: f64,
    /// Bytes a forwarder sends + receives.
    pub forwarder: f64,
    /// Population-expected bytes per device.
    pub expected: f64,
}

/// Computes Figure 7 for given `k`, `r` and ciphertext count `cq`.
///
/// A device sends `r · cq · d` ciphertexts (its contributions, replicated
/// over its paths) and receives as many from its neighbors; a device
/// selected as a forwarder additionally relays a batch of `(r · cq · d)/f`
/// ciphertexts. A `k·f` fraction of devices serve as forwarders. With the
/// paper's parameters and `C_q = 1` this reproduces §6.4's 1030 MB
/// (forwarder) / 170 MB (non-forwarder) / ≈430 MB (expected).
pub fn device_bandwidth(params: &SystemParams, k: usize, r: usize, cq: usize) -> DeviceBandwidth {
    let ct = params.bgv.ciphertext_bytes() as f64;
    let d = params.degree_bound as f64;
    let f = params.forwarder_fraction;
    let sent = r as f64 * cq as f64 * d * ct;
    let received = sent;
    let non_forwarder = sent + received;
    let batch = sent / f;
    let forwarder = non_forwarder + batch;
    let forwarder_fraction = (k as f64 * f).min(1.0);
    let expected = forwarder_fraction * forwarder + (1.0 - forwarder_fraction) * non_forwarder;
    DeviceBandwidth {
        non_forwarder,
        forwarder,
        expected,
    }
}

/// Device computation per query in seconds (§6.4): HE operations plus ZKP
/// proving. The paper reports ≈14 minutes of (unoptimized Python) HE plus
/// ≈1 minute of proving ≈ 15 minutes total; we expose the same breakdown
/// with the HE term as a parameter calibrated to the paper.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCompute {
    /// HE operation time (encryption + neighborhood multiplication), s.
    pub he_seconds: f64,
    /// ZKP proving time, s.
    pub zkp_seconds: f64,
}

impl DeviceCompute {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.he_seconds + self.zkp_seconds
    }
}

/// The paper's §6.4 device-compute breakdown.
pub fn device_compute_paper() -> DeviceCompute {
    DeviceCompute {
        he_seconds: 14.0 * 60.0,
        zkp_seconds: Groth16Model::default().prove_seconds,
    }
}

/// Aggregator traffic per device (Figure 9a): everything a device sends or
/// receives transits the aggregator's mailboxes, so the aggregator serves
/// each device its expected bandwidth (download side).
pub fn aggregator_bytes_per_device(params: &SystemParams, k: usize, r: usize, cq: usize) -> f64 {
    // The aggregator sends each device what it downloads: its per-hop
    // batches if it forwards, plus its own incoming contributions.
    let ct = params.bgv.ciphertext_bytes() as f64;
    let d = params.degree_bound as f64;
    let f = params.forwarder_fraction;
    let own_in = r as f64 * cq as f64 * d * ct;
    let batch = own_in / f;
    let forwarder_fraction = (k as f64 * f).min(1.0);
    forwarder_fraction * batch + own_in
}

/// Aggregator computation (Figure 9b): cores needed to finish ZKP
/// verification plus global aggregation within `deadline_seconds`.
#[derive(Debug, Clone, Copy)]
pub struct AggregatorCores {
    /// Cores for ZKP verification.
    pub zkp: f64,
    /// Cores for the homomorphic global aggregation.
    pub aggregation: f64,
}

impl AggregatorCores {
    /// Total cores.
    pub fn total(&self) -> f64 {
        self.zkp + self.aggregation
    }
}

/// Computes Figure 9(b) for `n` participants.
///
/// `add_seconds` is the measured time of one ciphertext addition (from the
/// component benchmarks at paper-scale parameters).
pub fn aggregator_cores(
    params: &SystemParams,
    n: u64,
    deadline_seconds: f64,
    add_seconds: f64,
) -> AggregatorCores {
    let model = Groth16Model::default();
    let zkp = model.cores_for_verification(n, params.bgv.ciphertext_bytes(), deadline_seconds);
    let aggregation = n as f64 * add_seconds / deadline_seconds;
    AggregatorCores { zkp, aggregation }
}

/// Predicted BGV level of an origin's submitted ciphertext — the exact
/// mirror of [`crate::plan::combine_origin`]'s level arithmetic, with no
/// cryptography: an accumulator fed `f` times ([`OriginWork::feeds`])
/// starts at `s = plan.chain_start(f − 1)` (the first feed is switched
/// there) and sits at `max(1, s − (f − 1))` (every further feed
/// multiplies, relinearizes, and drops one level), an unfed accumulator
/// and the self-failed zero are born directly at
/// [`crate::plan::AGGREGATION_LEVEL`], and `Cross` grouping aligns every
/// accumulator to the minimum before summing.
pub fn submission_level(plan: &QueryPlan, work: &OriginWork) -> usize {
    use crate::plan::AGGREGATION_LEVEL;
    if !work.self_ok {
        return AGGREGATION_LEVEL;
    }
    let level_of = |f: usize| {
        if f == 0 {
            AGGREGATION_LEVEL
        } else {
            plan.chain_start(f - 1).saturating_sub(f - 1).max(1)
        }
    };
    let feeds = work.feeds();
    match plan.analysis.group_kind {
        GroupKind::Cross => feeds
            .iter()
            .map(|&f| level_of(f))
            .min()
            .unwrap_or(AGGREGATION_LEVEL),
        _ => level_of(feeds[0]),
    }
}

/// Predicted aggregation-plane intake bytes of one origin's row: each of
/// its `work.requests` contributions, a fresh ciphertext at its slot's
/// [`QueryPlan::contribution_level`] that some device sends, plus the
/// origin's submission at its [`submission_level`]. Summed over every
/// origin this covers each device's duties exactly once. Message headers
/// and acks are deliberately excluded — they are tens of bytes against
/// multi-kilobyte ciphertexts; the bench gate allows 5% for them.
///
/// A ciphertext with 2 parts at `level` residue rows carries
/// `2 ·` [`BgvParams::poly_bytes`]`(level)` bytes.
pub fn intake_bytes_per_device(plan: &QueryPlan, work: &OriginWork, bgv: &BgvParams) -> u64 {
    let ct = |level: usize| 2 * bgv.poly_bytes(level) as u64;
    let slots = 0..work.requests.len();
    let contributions: u64 = slots.map(|slot| ct(plan.contribution_level(slot))).sum();
    contributions + ct(submission_level(plan, work))
}

/// Wire bytes of one frozen per-origin commitment inside a `ShardRoot`
/// message: origin id (4) + leaf digest (32) + accepted (4) +
/// rejected (4).
pub const ORIGIN_COMMIT_BYTES: usize = 4 + 32 + 4 + 4;

/// Exact encoded payload of one shard's `ShardRoot` handoff on the
/// encrypted transport (DESIGN.md "Sharded aggregation" and "Round
/// certificates").
///
/// Mirrors the `crates/net` proto encoding byte for byte: message tag
/// (1) + shard id (4) + rejected-device list (4-byte count + 4 per id) +
/// frozen origin-commitment list (4-byte count +
/// [`ORIGIN_COMMIT_BYTES`] per owned origin) + the ciphertext codec
/// output (`ct_encoded`, including its own tags). Measured wire bytes
/// differ from this only by the sealed-frame envelope (header + AEAD
/// tag per frame); `tests/net_round.rs` pins that reconciliation
/// exactly.
pub fn shard_root_payload_bytes(ct_encoded: usize, rejected: usize, commits: usize) -> usize {
    1 + 4 + 4 + 4 * rejected + 4 + ORIGIN_COMMIT_BYTES * commits + ct_encoded
}

/// Exact encoded payload of a `PushCertSig` request: message tag (1) +
/// member id (8) + detached ed25519 signature (64).
pub fn push_cert_sig_payload_bytes() -> usize {
    1 + 8 + 64
}

/// Committee costs (§6.5), calibrated to the paper's EC2 measurements at
/// `c = 10`: ≈3 minutes of MPC and ≈4.5 GB per member, scaling with the
/// number of pairwise channels (`c - 1`) per member.
#[derive(Debug, Clone, Copy)]
pub struct CommitteeCost {
    /// MPC wall-clock seconds.
    pub mpc_seconds: f64,
    /// Bandwidth per member in bytes.
    pub bytes_per_member: f64,
}

/// Computes the §6.5 committee cost for committee size `c`.
pub fn committee_cost(c: usize) -> CommitteeCost {
    let base_c = 10.0;
    let scale = (c as f64 - 1.0) / (base_c - 1.0);
    CommitteeCost {
        mpc_seconds: 180.0 * scale,
        bytes_per_member: 4.5e9 * scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_bgv::BgvParams;

    fn paper_sized() -> SystemParams {
        let mut p = SystemParams::paper();
        p.bgv = BgvParams::paper_sized();
        p
    }

    #[test]
    fn figure7_headline_numbers() {
        // §6.4 with k=3, r=2, Cq=1: ≈1030 MB forwarder, ≈170 MB
        // non-forwarder, ≈430 MB expected.
        let p = paper_sized();
        let b = device_bandwidth(&p, 3, 2, 1);
        let mb = 1e6;
        assert!(
            (80.0..260.0).contains(&(b.non_forwarder / mb)),
            "non-forwarder {} MB",
            b.non_forwarder / mb
        );
        assert!(
            (700.0..1400.0).contains(&(b.forwarder / mb)),
            "forwarder {} MB",
            b.forwarder / mb
        );
        assert!(
            (300.0..600.0).contains(&(b.expected / mb)),
            "expected {} MB",
            b.expected / mb
        );
    }

    #[test]
    fn figure7_scaling_shape() {
        let p = paper_sized();
        // Bandwidth grows with r and with cq; forwarder load is roughly
        // independent of k but the expected cost grows with k (more
        // forwarder classes).
        let b1 = device_bandwidth(&p, 3, 1, 1);
        let b2 = device_bandwidth(&p, 3, 2, 1);
        assert!(b2.expected > b1.expected);
        let b14 = device_bandwidth(&p, 3, 2, 14);
        assert!((b14.expected / b2.expected - 14.0).abs() < 0.01);
        let k2 = device_bandwidth(&p, 2, 2, 1);
        let k4 = device_bandwidth(&p, 4, 2, 1);
        assert!(k4.expected > k2.expected);
    }

    #[test]
    fn figure9a_headline_number() {
        // §6.6: k=3, r=2 → ≈350 MB per device.
        let p = paper_sized();
        let bytes = aggregator_bytes_per_device(&p, 3, 2, 1);
        let mb = bytes / 1e6;
        assert!((200.0..600.0).contains(&mb), "aggregator {mb} MB/device");
    }

    #[test]
    fn figure9b_zkp_dominates() {
        let p = paper_sized();
        // One ciphertext addition at paper scale is well under a second.
        let add_seconds = 0.05;
        for n in [1_000_000u64, 100_000_000, 1_000_000_000] {
            let cores = aggregator_cores(&p, n, 10.0 * 3600.0, add_seconds);
            assert!(
                cores.zkp > 50.0 * cores.aggregation,
                "n={n}: zkp {} vs agg {}",
                cores.zkp,
                cores.aggregation
            );
        }
        let big = aggregator_cores(&p, 1_000_000_000, 10.0 * 3600.0, add_seconds);
        assert!(
            (1e5..1e7).contains(&big.total()),
            "cores at 1e9: {}",
            big.total()
        );
    }

    #[test]
    fn cert_payloads_match_the_proto_encoding() {
        // PushCertSig: tag + member + 64-byte ed25519 signature.
        assert_eq!(push_cert_sig_payload_bytes(), 73);
    }

    #[test]
    fn committee_costs_match_paper() {
        let c10 = committee_cost(10);
        assert!((c10.mpc_seconds - 180.0).abs() < 1.0);
        assert!((c10.bytes_per_member - 4.5e9).abs() < 1e6);
        let c20 = committee_cost(20);
        assert!(c20.mpc_seconds > c10.mpc_seconds);
    }

    #[test]
    fn device_compute_totals_15_minutes() {
        let c = device_compute_paper();
        assert!((c.total() - 15.0 * 60.0).abs() < 30.0);
    }
}
