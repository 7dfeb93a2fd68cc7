//! The sharded-aggregation acceptance matrix (DESIGN.md "Sharded
//! aggregation").
//!
//! Homomorphic addition is exact coefficient-wise addition mod q —
//! associative and commutative — so partitioning the origin ciphertexts
//! over N shards, summing per shard, and folding the sealed roots must
//! produce the *bit-identical* aggregate the single hub computes over
//! the flat list. These tests pin that invariant end-to-end through the
//! simulated round: for every seed and shard count, the decoded histogram
//! equals the single-hub result and the plaintext reference exactly.

use mycelium::params::SystemParams;
use mycelium_bgv::KeySet;
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::{run_query_simulated, SimNetConfig, SimRoundOutcome};
use mycelium_query::analyze::analyze;
use mycelium_query::builtin::paper_query;
use mycelium_query::eval::{evaluate, PlainResult};

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

fn oracle(params: &SystemParams, pop: &Population, name: &str) -> PlainResult {
    let query = paper_query(name).unwrap();
    let analysis = analyze(&query, &params.schema).unwrap();
    evaluate(&query, &analysis, &params.schema, pop)
}

fn run_at(
    shards: usize,
    seed: u64,
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
    run_query_simulated(&query, pop, params, keys, &[], false, &mut budget, &cfg)
        .unwrap_or_else(|e| panic!("seed {seed} × shards {shards} must converge: {e:?}"))
}

#[test]
fn every_seed_and_shard_count_is_bit_identical_to_the_hub() {
    // The ISSUE acceptance matrix: seeds {0..7} × shards {1, 2, 4, 8}.
    // Small population keeps the 32-cell sweep fast; the shard router
    // still spreads 24 devices over all 8 shards (see
    // tests/shard_assignment.rs for the coverage property).
    let (params, keys, pop) = setup(24, 42);
    let want = oracle(&params, &pop, "Q4");
    for seed in 0..8u64 {
        let hub = run_at(1, seed, &params, &keys, &pop);
        // The hub itself must match the plaintext reference.
        assert_eq!(hub.exact.groups.len(), want.groups.len());
        for (got, plain) in hub.exact.groups.iter().zip(&want.groups) {
            assert_eq!(
                got.histogram, plain.histogram,
                "seed {seed}: hub vs plaintext reference"
            );
        }
        for shards in [2usize, 4, 8] {
            let sharded = run_at(shards, seed, &params, &keys, &pop);
            for (got, hub_g) in sharded.exact.groups.iter().zip(&hub.exact.groups) {
                assert_eq!(got.label, hub_g.label);
                assert_eq!(
                    got.histogram, hub_g.histogram,
                    "seed {seed} × shards {shards}: decoded histogram \
                     diverged from the single-hub oracle"
                );
            }
            // The DP release must match too: committee actors keep
            // their ids (shard actors are appended after them), so the
            // joint-noise seeds — and therefore the noised histograms —
            // are identical at every shard count.
            for (got, hub_r) in sharded.released.iter().zip(&hub.released) {
                assert_eq!(
                    got.histogram, hub_r.histogram,
                    "seed {seed} × shards {shards}: released histogram drifted"
                );
            }
            assert_eq!(
                sharded.rejected_devices, hub.rejected_devices,
                "seed {seed} × shards {shards}: rejected set drifted"
            );
        }
    }
}

#[test]
fn every_shard_carries_intake_and_seals_a_root() {
    // Fault-free run at 4 shards: each shard actor handles real intake
    // (contributions + submissions routed by `shard_of`) and hands the
    // coordinator one sealed root; the coordinator drives the committee
    // exactly as the hub does. Each root handoff is metered at the bytes
    // the wire carries — `costs::shard_root_payload_bytes` in a sealed
    // frame — as tests/net_round.rs reconciles the processes.
    use mycelium::aggcore::shard_of;
    use mycelium::costs::shard_root_payload_bytes;
    use mycelium::plan::AGGREGATION_LEVEL;
    use mycelium_net::codec::ciphertext_encoded_bytes;
    use mycelium_net::SecureChannel;

    let (params, keys, pop) = setup(24, 42);
    let shards = 4usize;
    let out = run_at(shards, 3, &params, &keys, &pop);
    let n = pop.graph.len();
    let c = params.committee_size;
    let ct_encoded = ciphertext_encoded_bytes(&params.bgv.build_context(), 2, AGGREGATION_LEVEL);

    // Shard actor ids come after devices (0..n), the coordinator (n),
    // and the committee (n+1 ..= n+c) — the classic actors keep their
    // ids so their rng streams (and the DP noise) never move.
    let shard_base = n + c + 1;
    let mut roots = 0;
    for s in 0..shards {
        // One commitment per owned origin; nothing was rejected.
        let owned = (0..n as u32).filter(|&v| shard_of(v, shards) == s).count();
        let root = SecureChannel::wire_cost(shard_root_payload_bytes(ct_encoded, 0, owned)) as u64;
        assert_eq!(
            out.metrics.sent_kinds.get(&(shard_base + s, "ShardRoot")),
            Some(&(1, root)),
            "shard {s}: one sealed root, at the bytes the wire carries"
        );
        roots += root;
        let a = &out.metrics.actors[shard_base + s];
        assert!(a.recv_msgs > 0, "shard {s} received no intake at all");
    }
    // The coordinator took in all four roots.
    assert!(out.metrics.actors[n].recv_bytes >= roots);
    assert_eq!(
        out.exact.groups[0].histogram,
        run_at(1, 3, &params, &keys, &pop).exact.groups[0].histogram
    );
}
