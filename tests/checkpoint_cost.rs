//! A state checkpoint's cost does not grow with the ciphertext bytes the
//! aggregator holds: [`AggState::digest`] reads the digest each parked
//! ciphertext was accepted under instead of hashing it again, and journal
//! replay — which re-derives the digest at every checkpoint record — lands
//! on the same value.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mycelium::plan::ciphertext_digest;
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_setup, files, AggState, RoundSpec};

use mycelium_math::rng::{SeedableRng, StdRng};

/// The fastest of `runs` timings of `f`.
fn fastest(runs: usize, mut f: impl FnMut()) -> Duration {
    let once = |_| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    (0..runs).map(once).min().unwrap()
}

#[test]
fn a_checkpoint_hashes_no_parked_ciphertext() {
    const PARKED: usize = 64;
    let spec = RoundSpec {
        seed: 7,
        n: 24,
        query: "Q4".into(),
        ..RoundSpec::default()
    };
    let setup = Arc::new(build_setup(&spec).unwrap());
    let dir = std::env::temp_dir().join(format!("mycelium-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(files::JOURNAL);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    let duties = setup.duties.iter().enumerate();
    let duties = duties.flat_map(|(v, duties)| duties.iter().map(move |d| (v as u32, d)));
    let mut one_parked = None;
    for (v, duty) in duties.take(PARKED) {
        let mut rng = StdRng::seed_from_u64(1000 + v as u64);
        let sc = setup
            .plan
            .build_contribution(&setup.keys, v, duty.exp, false, &mut rng);
        let sc = Box::new(sc.unwrap());
        one_parked.get_or_insert_with(|| sc.ct.clone());
        let msg = NetMsg::PushContrib {
            origin: duty.origin,
            slot: duty.slot,
            sc,
        };
        let raw = msg.encode();
        st.handle(msg, &raw).unwrap();
    }
    // 64 requests, a checkpoint after every eighth.
    assert_eq!(st.journal_records(), (PARKED + PARKED / 8) as u64);

    // With 64 ciphertexts parked, a checkpoint is cheaper than hashing one
    // of them (it used to hash all 64).
    let one_parked = one_parked.unwrap();
    let hash_one = fastest(20, || {
        std::hint::black_box(ciphertext_digest(std::hint::black_box(&one_parked)));
    });
    let checkpoint = fastest(20, || {
        std::hint::black_box(st.digest());
    });
    assert!(
        checkpoint < hash_one,
        "digest() with {PARKED} parked took {checkpoint:?}; hashing one ciphertext takes {hash_one:?}"
    );

    let live = st.digest();
    drop(st);
    let recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(recovered.digest(), live, "replay lands on the same digest");
    let _ = std::fs::remove_dir_all(&dir);
}
