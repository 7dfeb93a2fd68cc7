//! Properties of the device → shard assignment and the shard-count-1
//! compatibility guarantee (DESIGN.md "Sharded aggregation").
//!
//! `shard_of` decides which WAL partition journals a device's intake, so
//! it must be (a) a pure function — identical on every process, every
//! thread count, every run — and (b) well-spread, so no shard idles.
//! And the whole shard dimension must vanish at `--shards 1`: the hub
//! journal stays byte-compatible with the pre-refactor single-hub
//! aggregator, binding digest included.

use std::path::PathBuf;
use std::sync::Arc;

use mycelium::aggcore::shard_of;
use mycelium_net::journal::Journal;
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_setup, AggState, RoundSetup, RoundSpec};

use mycelium_math::rng::{SeedableRng, StdRng};

/// Runs `f` with `MYC_THREADS` pinned to `n` (see tests/determinism.rs).
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("MYC_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("MYC_THREADS");
    out
}

/// Independent mirror of the splitmix64 finalizer `shard_of` routes
/// through — a drifting edit to either copy fails the pin below.
fn shard_of_reference(v: u32, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut x = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

#[test]
fn assignment_is_a_pure_pinned_function() {
    // Same mapping at any thread count (nothing about routing may ever
    // depend on the compute plane's parallelism) and equal to the
    // independent splitmix64 mirror.
    let table = |_| -> Vec<usize> {
        let mut t = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            for v in 0..256u32 {
                t.push(shard_of(v, shards));
            }
        }
        t
    };
    let serial = with_threads(1, || table(()));
    let parallel = with_threads(8, || table(()));
    assert_eq!(serial, parallel, "assignment must ignore MYC_THREADS");

    let mut i = 0;
    for shards in [1usize, 2, 4, 8] {
        for v in 0..256u32 {
            assert_eq!(
                serial[i],
                shard_of_reference(v, shards),
                "shard_of({v}, {shards}) drifted from the pinned finalizer"
            );
            i += 1;
        }
    }
    // Degenerate cases route everything to shard 0.
    assert_eq!(shard_of(123, 0), 0);
    assert_eq!(shard_of(123, 1), 0);
}

#[test]
fn every_shard_is_covered_at_64_devices() {
    // With ≥ 64 devices no shard may idle at any supported shard count:
    // an idle shard would seal a neutral Enc(0) root forever and its WAL
    // partition would never exercise recovery.
    for n in [64u32, 100, 256] {
        for shards in [2usize, 4, 8] {
            let mut seen = vec![false; shards];
            for v in 0..n {
                seen[shard_of(v, shards)] = true;
            }
            assert!(
                seen.iter().all(|&b| b),
                "n={n}, shards={shards}: some shard owns no devices ({seen:?})"
            );
        }
    }
}

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

fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mycelium-shards-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic state-mutating request stream (the in-process analog
/// of a full intake phase): every duty's contribution push followed by
/// two committee check-ins. Same shape as tests/net_journal.rs.
fn mutating_requests(setup: &RoundSetup, contribs: usize) -> Vec<Vec<u8>> {
    let mut raws = Vec::new();
    'outer: for (v, duties) in setup.duties.iter().enumerate() {
        for duty in duties {
            if raws.len() == contribs {
                break 'outer;
            }
            let mut rng = StdRng::seed_from_u64(1000 + v as u64);
            let sc = setup
                .plan
                .build_contribution(&setup.keys, v as u32, duty.exp, false, &mut rng)
                .unwrap();
            raws.push(
                NetMsg::PushContrib {
                    origin: duty.origin,
                    slot: duty.slot,
                    sc: Box::new(sc),
                }
                .encode(),
            );
        }
    }
    assert_eq!(raws.len(), contribs);
    for m in 1..=2u64 {
        raws.push(
            NetMsg::CommitteeCheckIn {
                member: m,
                seed: [m as u8; 32],
            }
            .encode(),
        );
    }
    raws
}

fn feed(st: &mut AggState, setup: &RoundSetup, raw: &[u8]) {
    let msg = NetMsg::decode(raw, &setup.cc).unwrap();
    st.handle(msg, raw).unwrap();
}

#[test]
fn shard_count_one_is_byte_identical_to_the_single_hub_path() {
    // The shard dimension must be invisible at `--shards 1`: the hub's
    // journal binding is the classic round binding (a pre-refactor
    // journal replays into a post-refactor hub and vice versa), and the
    // journal *bytes* for a deterministic request sequence are a pure
    // function of the round spec.
    let spec = test_spec();
    assert_eq!(spec.agg_shards, 1, "default layout is the single hub");
    assert_eq!(
        spec.coordinator_binding_digest(),
        spec.binding_digest(),
        "at one shard the hub binds exactly like the pre-refactor aggregator"
    );

    let setup = Arc::new(build_setup(&spec).unwrap());
    let dir = journal_dir("hub-identity");
    let raws = mutating_requests(&setup, 9);

    let run = |tag: &str| -> (Vec<u8>, [u8; 32]) {
        let path = dir.join(format!("{tag}.bin"));
        let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
        for raw in &raws {
            feed(&mut st, &setup, raw);
        }
        let digest = st.digest();
        drop(st);
        (std::fs::read(&path).unwrap(), digest)
    };
    let (journal_a, digest_a) = run("a");
    let (journal_b, digest_b) = with_threads(8, || run("b"));
    assert_eq!(digest_a, digest_b, "state digest is thread-count invariant");
    assert_eq!(
        journal_a, journal_b,
        "journal bytes are a pure function of spec + request sequence"
    );

    // A "pre-refactor" consumer — anything that opens the journal with
    // the classic binding digest — accepts the hub journal verbatim.
    let (_, records) = Journal::open_or_create(&dir.join("a.bin"), &spec.binding_digest()).unwrap();
    assert_eq!(
        records.len(),
        raws.len() + 1,
        "11 REQs + 1 digest checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_partition_bindings_are_pairwise_distinct() {
    // A shard journal can never replay into the wrong shard, into a run
    // with a different shard layout, or into the coordinator — every
    // (role, shard id, shard count) combination binds differently.
    let hub = test_spec();
    let sharded = RoundSpec {
        agg_shards: 4,
        ..test_spec()
    };
    let wider = RoundSpec {
        agg_shards: 8,
        ..test_spec()
    };
    // The round binding itself ignores the layout: redeploying the same
    // round at a different shard count is a *coordinator/shard*-level
    // mismatch, not a different round.
    assert_eq!(hub.binding_digest(), sharded.binding_digest());

    let mut seen = std::collections::HashSet::new();
    seen.insert(hub.coordinator_binding_digest());
    assert!(seen.insert(sharded.coordinator_binding_digest()));
    assert!(seen.insert(wider.coordinator_binding_digest()));
    for s in 0..4 {
        assert!(seen.insert(sharded.shard_binding_digest(s)));
    }
    // Same shard id, different layout → different partition.
    assert!(seen.insert(wider.shard_binding_digest(0)));
}
