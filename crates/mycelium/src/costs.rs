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
use crate::plan::{OriginWork, QueryPlan, RowCombine};

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
/// cryptography: an accumulator fed `f` times sits at
/// `max(1, fresh − (f − 1))` (the first feed moves the fresh ciphertext
/// in; every further feed multiplies, relinearizes, and drops one
/// level), an unfed accumulator and the self-failed zero are born
/// directly at [`crate::plan::AGGREGATION_LEVEL`], and `Cross` grouping
/// aligns every accumulator to the minimum before summing.
pub fn submission_level(plan: &QueryPlan, work: &OriginWork, fresh_level: usize) -> usize {
    use crate::plan::AGGREGATION_LEVEL;
    if !work.self_ok {
        return AGGREGATION_LEVEL;
    }
    let mut feeds = vec![0usize; work.acc_count];
    for row in &work.rows {
        match row {
            RowCombine::Simple(_) => feeds[0] += 1,
            RowCombine::Selected(groups) => {
                for (g, _) in groups {
                    feeds[*g] += 1;
                }
            }
        }
    }
    let level_of = |f: usize| {
        if f == 0 {
            AGGREGATION_LEVEL
        } else {
            fresh_level.saturating_sub(f - 1).max(1)
        }
    };
    match plan.analysis.group_kind {
        GroupKind::Cross => feeds
            .iter()
            .map(|&f| level_of(f))
            .min()
            .unwrap_or(fresh_level),
        _ => level_of(feeds[0]),
    }
}

/// Predicted aggregation-plane intake bytes one device *sends* per
/// round: `duties` fresh contribution ciphertexts plus its origin
/// submission at the noise plan's output level. Message headers and acks
/// are deliberately excluded — they are tens of bytes against
/// multi-kilobyte ciphertexts; the bench gate allows 5% for them.
///
/// A ciphertext with 2 parts at `level` residue rows carries
/// `2 ·` [`BgvParams::poly_bytes`]`(level)` bytes.
pub fn intake_bytes_per_device(
    duties: usize,
    bgv: &BgvParams,
    fresh_level: usize,
    submission_level: usize,
) -> u64 {
    let ct = |level: usize| 2 * bgv.poly_bytes(level) as u64;
    duties as u64 * ct(fresh_level) + ct(submission_level)
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

/// Total shard → coordinator handoff payload for one round: every shard
/// seals exactly one root, each rejected device id rides in exactly one
/// shard's message, and every origin's frozen commitment rides in
/// exactly one shard's message (`commits_total` is the population
/// size). Zero at `shards ≤ 1` — the hub topology has no handoff.
pub fn shard_plane_payload_bytes(
    shards: usize,
    ct_encoded: usize,
    rejected_total: usize,
    commits_total: usize,
) -> usize {
    if shards <= 1 {
        return 0;
    }
    shards * shard_root_payload_bytes(ct_encoded, 0, 0)
        + 4 * rejected_total
        + ORIGIN_COMMIT_BYTES * commits_total
}

/// Exact encoded payload of a `CertSignTask` reply: message tag (1) +
/// the 32-byte certificate transcript digest.
pub fn cert_sign_task_payload_bytes() -> usize {
    1 + 32
}

/// Exact encoded payload of a `PushCertSig` request: message tag (1) +
/// member id (8) + detached ed25519 signature (64).
pub fn push_cert_sig_payload_bytes() -> usize {
    1 + 8 + 64
}

/// Figure 9(b) with the shard dimension: aggregation work split over
/// `shards` equal partitions plus the coordinator's fold of the sealed
/// roots.
#[derive(Debug, Clone, Copy)]
pub struct ShardedAggregatorCores {
    /// Cores one shard needs for its `n / shards` devices.
    pub per_shard: AggregatorCores,
    /// Number of shards.
    pub shards: usize,
    /// Coordinator seconds to fold `shards` roots (`shards − 1`
    /// ciphertext additions — serial, and negligible next to the fan-in).
    pub coordinator_seconds: f64,
}

impl ShardedAggregatorCores {
    /// Total cores across the plane (coordinator's fold is a single
    /// core for `coordinator_seconds`, counted only when it matters).
    pub fn total(&self) -> f64 {
        self.shards as f64 * self.per_shard.total()
    }
}

/// Computes Figure 9(b) for `n` participants spread over `shards`
/// WAL-partitioned shards.
///
/// ZKP verification and partial summation are embarrassingly parallel
/// over the device partition, so a shard carries exactly `1/shards` of
/// the hub's load; the coordinator adds a serial `(shards − 1)`-addition
/// fold. At `shards = 1` this degenerates to [`aggregator_cores`].
pub fn sharded_aggregator_cores(
    params: &SystemParams,
    n: u64,
    shards: usize,
    deadline_seconds: f64,
    add_seconds: f64,
) -> ShardedAggregatorCores {
    let shards = shards.max(1);
    let per_shard = aggregator_cores(
        params,
        n.div_ceil(shards as u64),
        deadline_seconds,
        add_seconds,
    );
    ShardedAggregatorCores {
        per_shard,
        shards,
        coordinator_seconds: (shards - 1) as f64 * add_seconds,
    }
}

/// Analytic operation counts for the batched RNS key switch — the
/// aggregator-side cost of relinearizing a summation-tree level in one
/// [`Ciphertext::relinearize_batch`](mycelium_bgv::Ciphertext::relinearize_batch)
/// call.
///
/// A key switch at chain level `l` decomposes the degree-2 component
/// into `l` gadget digits, lifts each digit to the `l − 1` other limbs
/// (`l·(l−1)` forward NTTs per node: at its own limb a digit's transform
/// is the NTT-domain input times a scalar) and multiply-accumulates each
/// lifted digit against both key components in one fused two-row pass
/// (`l²` kernel calls per node). Batching
/// shares the *decomposition pass*: one pass covers every node in the
/// level instead of one pass per node. The live counters in
/// `mycelium_math::rns::ks_stats` meter the real kernels;
/// `tests/sim_costs.rs` pins this model against them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeySwitchOps {
    /// Digit-decomposition passes over the inputs.
    pub decompose_passes: u64,
    /// Forward NTTs of lifted digits.
    pub digit_ntts: u64,
    /// Two-row Shoup multiply-accumulate kernel invocations.
    pub accumulates: u64,
}

impl KeySwitchOps {
    /// Component-wise sum (accumulating several tree levels or rounds).
    pub fn merge(self, other: Self) -> Self {
        Self {
            decompose_passes: self.decompose_passes + other.decompose_passes,
            digit_ntts: self.digit_ntts + other.digit_ntts,
            accumulates: self.accumulates + other.accumulates,
        }
    }
}

/// One batched key switch over `nodes` same-level ciphertexts at chain
/// level `level`: a single shared decomposition pass,
/// `nodes·level·(level−1)` digit NTTs, `nodes·level²` two-row accumulates.
/// Zero nodes cost nothing.
pub fn key_switch_ops_batched(nodes: u64, level: u64) -> KeySwitchOps {
    if nodes == 0 {
        return KeySwitchOps::default();
    }
    KeySwitchOps {
        decompose_passes: 1,
        digit_ntts: nodes * level * (level - 1),
        accumulates: nodes * level * level,
    }
}

/// Per-node key switching (the pre-batching baseline): identical NTT
/// and accumulate work, but one decomposition pass *per node*.
pub fn key_switch_ops_serial(nodes: u64, level: u64) -> KeySwitchOps {
    KeySwitchOps {
        decompose_passes: nodes,
        ..key_switch_ops_batched(nodes, level)
    }
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
    fn shard_plane_payload_degenerates_at_one_shard() {
        // The hub topology has no shard → coordinator handoff.
        assert_eq!(shard_plane_payload_bytes(1, 4_300_000, 5, 24), 0);
        assert_eq!(shard_plane_payload_bytes(0, 4_300_000, 5, 24), 0);
        // Four shards: four sealed roots plus the rejected ids and the
        // frozen origin commitments, each counted exactly once wherever
        // it landed.
        let ct = 10_000;
        assert_eq!(
            shard_plane_payload_bytes(4, ct, 3, 24),
            4 * (1 + 4 + 4 + 4 + ct) + 4 * 3 + ORIGIN_COMMIT_BYTES * 24
        );
        // Per-message form: the ids and commitments ride inside the
        // shard's own message (here 3 rejects and 24 origins split 6+6+6+6).
        assert_eq!(
            shard_root_payload_bytes(ct, 3, 6) + 3 * shard_root_payload_bytes(ct, 0, 6),
            shard_plane_payload_bytes(4, ct, 3, 24)
        );
    }

    #[test]
    fn cert_payloads_match_the_proto_encoding() {
        // CertSignTask: tag + transcript digest.
        assert_eq!(cert_sign_task_payload_bytes(), 33);
        // PushCertSig: tag + member + 64-byte ed25519 signature.
        assert_eq!(push_cert_sig_payload_bytes(), 73);
    }

    #[test]
    fn sharded_cores_split_the_hub_load() {
        let p = paper_sized();
        let (n, deadline, add) = (1_000_000_000u64, 10.0 * 3600.0, 0.05);
        let hub = aggregator_cores(&p, n, deadline, add);
        let s1 = sharded_aggregator_cores(&p, n, 1, deadline, add);
        assert_eq!(s1.per_shard.total(), hub.total());
        assert_eq!(s1.coordinator_seconds, 0.0);
        // The partition is work-conserving: per-shard load is 1/shards
        // of the hub's, so plane totals match to rounding.
        for shards in [2usize, 8, 64] {
            let s = sharded_aggregator_cores(&p, n, shards, deadline, add);
            let rel = (s.total() - hub.total()).abs() / hub.total();
            assert!(
                rel < 1e-6,
                "shards {shards}: {} vs {}",
                s.total(),
                hub.total()
            );
            assert!(s.per_shard.total() < hub.total());
            // The coordinator's serial fold stays negligible.
            assert!(s.coordinator_seconds < 10.0);
        }
    }

    #[test]
    fn batched_key_switch_shares_the_decompose_pass() {
        let (nodes, level) = (64u64, 6u64);
        let serial = key_switch_ops_serial(nodes, level);
        let batched = key_switch_ops_batched(nodes, level);
        // NTT and accumulate work is per node either way …
        assert_eq!(batched.digit_ntts, serial.digit_ntts);
        assert_eq!(batched.digit_ntts, nodes * level * (level - 1));
        assert_eq!(batched.accumulates, nodes * level * level);
        // … but the decomposition pass amortizes across the batch.
        assert_eq!(serial.decompose_passes, nodes);
        assert_eq!(batched.decompose_passes, 1);
        assert_eq!(key_switch_ops_batched(0, level), KeySwitchOps::default());
        // Summing per-tree-level batches composes component-wise.
        let two = key_switch_ops_batched(3, 4).merge(key_switch_ops_batched(5, 4));
        assert_eq!(two.decompose_passes, 2);
        assert_eq!(two.digit_ntts, (3 + 5) * 12);
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
