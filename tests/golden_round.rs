//! Golden pin of the aggregation plane's bytes across commits.
//!
//! Every other suite compares executors *to each other* (hub vs shards,
//! sim vs net, live vs replayed). This one compares them to constants:
//! for one fixed spec, a fixed in-process request script is driven through
//! [`AggState::handle`] (hub and 4-shard layouts) and the simulated round
//! is run under a fixed fault plan (shards 1 and 4); the journal files,
//! sealed certificates, final state digests and the simulated outcome are
//! hashed and asserted against hex constants. A refactor of the
//! aggregation code must leave every constant untouched — same RNG draw
//! order, same transition order, same canonical encodings.
//!
//! Regenerate (only for an intended, documented format change) with
//! `GOLDEN_PRINT=1 cargo test --test golden_round -- --nocapture`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mycelium::exec::ExecStats;
use mycelium::plan::combine_origin;
use mycelium::streams;
use mycelium::{run_query_simulated, MaliciousBehavior, SimNetConfig};
use mycelium_cert::{sign_transcript, to_hex, verify_bytes};
use mycelium_crypto::sha256::sha256;
use mycelium_dp::PrivacyBudget;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_setup, files, shard_of, AggState, RoundSetup, RoundSpec};
use mycelium_sharing::threshold::decryption_share;
use mycelium_simnet::FaultPlan;

const CHEATER: u32 = 3;

fn spec(agg_shards: usize) -> RoundSpec {
    RoundSpec {
        seed: 7,
        n: 24,
        query: "Q4".into(),
        device_shards: 8,
        origin_shards: 2,
        agg_shards,
        with_proofs: true,
        ..RoundSpec::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mycelium-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One live request through the full path (decode → journal → apply →
/// fsync), exactly as the server's handler does it.
fn request(st: &mut AggState, setup: &RoundSetup, msg: &NetMsg) -> NetMsg {
    let raw = msg.encode();
    let decoded = NetMsg::decode(&raw, &setup.cc).unwrap();
    st.handle(decoded, &raw).unwrap()
}

/// Checks `got` against the pinned constant, or prints it in regenerate
/// mode.
fn pin(name: &str, got: &[u8], want: &str) {
    let got = to_hex(got);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("GOLDEN {name} = \"{got}\"");
    } else {
        assert_eq!(got, want, "{name} drifted from the parent commit's bytes");
    }
}

/// The device and origin halves of the script against the intake states
/// (`intake[shard_of(origin)]`; a single hub is the one-element case):
/// every duty is pushed with the real per-vertex streams — device
/// [`CHEATER`] forges its proofs, the very first push is delivered twice —
/// then every origin pulls its verified slots, combines, and submits (the
/// last origin twice).
fn drive_intake(intake: &mut [AggState], setup: &RoundSetup) {
    let shards = intake.len();
    let seed = setup.spec.seed;
    let mut first = true;
    for (v, duties) in setup.duties.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed).with_stream(streams::CONTRIB + v as u64);
        for duty in duties {
            let sc = setup
                .plan
                .build_contribution(
                    &setup.keys,
                    v as u32,
                    duty.exp,
                    v as u32 == CHEATER,
                    &mut rng,
                )
                .unwrap();
            let msg = NetMsg::PushContrib {
                origin: duty.origin,
                slot: duty.slot,
                sc: Box::new(sc),
            };
            let st = &mut intake[shard_of(duty.origin, shards)];
            for _ in 0..if first { 2 } else { 1 } {
                assert!(matches!(request(st, setup, &msg), NetMsg::Ack));
            }
            first = false;
        }
    }
    let n = setup.pop.graph.len();
    for v in 0..n {
        let st = &mut intake[shard_of(v as u32, shards)];
        let NetMsg::OriginJob { cts } =
            request(st, setup, &NetMsg::PullOrigin { origin: v as u32 })
        else {
            panic!("origin {v}: every slot was pushed, the job must be ready");
        };
        let cts: Vec<_> = cts.into_iter().map(|c| c.expect("slot filled")).collect();
        let mut rng = StdRng::seed_from_u64(seed).with_stream(streams::ORIGIN + v as u64);
        let mut stats = ExecStats::default();
        let work = &setup.works[v];
        let out =
            combine_origin(&setup.plan, &setup.keys, work, &cts, &mut stats, &mut rng).unwrap();
        let msg = NetMsg::SubmitOrigin {
            origin: v as u32,
            ct: Box::new(out),
        };
        for _ in 0..if v == n - 1 { 2 } else { 1 } {
            assert!(matches!(request(st, setup, &msg), NetMsg::Ack));
        }
    }
}

/// The committee half of the script against the hub / coordinator:
/// two check-in waves (register, then share tasks answered off the real
/// per-member streams), then certificate signatures — member 2 first
/// pushes a corrupted signature, which must be acked but not counted.
fn drive_committee(st: &mut AggState, setup: &RoundSetup) {
    let c = setup.committee_size as u64;
    let mut rngs: Vec<StdRng> = Vec::new();
    let mut seeds: Vec<[u8; 32]> = Vec::new();
    for m in 1..=c {
        let mut rng = StdRng::seed_from_u64(setup.spec.seed).with_stream(streams::COMMITTEE + m);
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        rngs.push(rng);
        seeds.push(seed);
    }
    assert!(matches!(
        request(st, setup, &NetMsg::PullStatus),
        NetMsg::CommitteeWait
    ));
    for wave in 0..2 {
        for m in 1..=c {
            let seed = seeds[m as usize - 1];
            let reply = request(st, setup, &NetMsg::CommitteeCheckIn { member: m, seed });
            if let NetMsg::CommitteeShareTask {
                round,
                participants,
                ct,
            } = reply
            {
                assert_eq!(wave, 1, "no share task before selection");
                let share = decryption_share(
                    &ct,
                    &setup.key_shares,
                    m,
                    &participants,
                    setup.plan.t_pt as i64,
                    &mut rngs[m as usize - 1],
                )
                .unwrap();
                let msg = NetMsg::PushShare {
                    member: m,
                    round,
                    share: Box::new(share),
                };
                assert!(matches!(request(st, setup, &msg), NetMsg::Ack));
            }
        }
    }
    assert!(st.is_finished(), "round must decide after all shares");
    assert!(st.certificate().is_none(), "no seal before the signatures");
    for m in 1..=c {
        let seed = seeds[m as usize - 1];
        let reply = request(st, setup, &NetMsg::CommitteeCheckIn { member: m, seed });
        let NetMsg::CertSignTask { transcript } = reply else {
            panic!("member {m}: expected a sign task, got {}", reply.kind());
        };
        let sig = sign_transcript(setup.spec.seed, m, &transcript);
        if m == 2 {
            let mut forged = sig;
            forged[5] ^= 0x40;
            let msg = NetMsg::PushCertSig {
                member: m,
                sig: forged,
            };
            assert!(matches!(request(st, setup, &msg), NetMsg::Ack));
        }
        let msg = NetMsg::PushCertSig { member: m, sig };
        assert!(matches!(request(st, setup, &msg), NetMsg::Ack));
    }
    assert!(matches!(
        request(st, setup, &NetMsg::PullStatus),
        NetMsg::Finished
    ));
}

/// Pins one finished state: `want` is `[sha256(journal file), digest()]`.
fn pin_state(name: &str, st: &AggState, journal: &Path, want: [&str; 2]) {
    pin(
        &format!("{name}.journal"),
        &sha256(&std::fs::read(journal).unwrap()),
        want[0],
    );
    pin(&format!("{name}.digest"), &st.digest(), want[1]);
}

const HUB_CERT: &str = "81fd3bae81d342cdb1adab6fb0e6ae54761d0bf76e0453279ea69a8863dfdf10";
const HUB: [&str; 2] = [
    "5be5d386fa3fbd1e615eacd3e9ea2b61ae69e39efc456ffb46cd8edeea384813",
    "2d4919474541b109bb1918b4ac709891f753253c132834d8c9631e02a773bf87",
];
// Not HUB_CERT: each shard neutralises the cheater's slots off its own
// stream, so the origins combine different (equally valid) ciphertexts.
const SHARDED_CERT: &str = "f9bf7709b3e14c8cacb7edbffb3b9887418907264979ae793c64d1c7984a173f";
const COORD: [&str; 2] = [
    "e42ae806af43bb7af16303f50dbb0a3f645e2c93402f1d3f9f454d08cd9410b7",
    "7572ab525ab76d8060ca5b880efa42272724f94f1e63e8b1e73035157daee772",
];
const SHARDS: [[&str; 2]; 4] = [
    [
        "28670ba71b4f7a5aba0072593b6ea72953370852e089f9a3e589ba63c3651d5b",
        "da4fca6ee87f66d26321ab78dbeae1823a52f27f2d9f4b7885f4866a044b0cf6",
    ],
    [
        "6db651588b0b3c50213f7b9f77dc4c6e9e553cee2de7c9b5bc46c5baf6f915f0",
        "4a5c73d3b36ee9ce66eb73f39215de98edaeae49d65df6e551d3b984c6e82d70",
    ],
    [
        "8e4d42e1b4464bbb9eb7b4badc4d112a57ad187b4fa55ea418f00f9843470726",
        "548e1a8e88cec9c917c35a4445115deab9f0158ba32a1ecb338fb2a5ebc96581",
    ],
    [
        "31c13a3b323fe546f5b2158b72da19da9eea810d3ccdaa28d5df3e8708e91637",
        "2f2c3cf4284e631b9bb4af7565f5e8f1f7c8cd5a9d017dffc1e4fd56b2725a31",
    ],
];
const LATE_HUB_CERT: &str = "3c07a9a5440f0aed6ca54241d01a2c42dc5d182acfa460dd4c4bd88c1d7c2621";
const LATE_HUB: [&str; 2] = [
    "571760e7ae58591023865992dab919fae69d0841e4b513fa72ea98391569005e",
    "fb25f297a4e7977eb72a9ae612d588b2d38e046e32a77f4dbfb353071735fbf8",
];
/// `[certificate, outcome summary]` per shard count (1, 4).
const SIM: [[&str; 2]; 2] = [
    [
        "ee4ee1dec67e0d8006f11cb6db73a71aa5a7b02ab906614720f7f2c9897b3dd9",
        "b35f7ac905740686a3133e87f5e6733fd43358ba1fa2767361967859f91e64bf",
    ],
    [
        "5c6eb2867c5bf72f49bc983c1246e886d461ad61d8fd01bcdb453bccffa5246c",
        "c5050ea108fefcc212ecdec801f389a0c10ea98afa0ad2596921272ba696c7a8",
    ],
];

#[test]
fn hub_script_matches_the_pinned_bytes() {
    let setup = Arc::new(build_setup(&spec(1)).unwrap());
    let dir = scratch("hub");
    let path = dir.join(files::JOURNAL);
    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    drive_intake(std::slice::from_mut(&mut st), &setup);
    drive_committee(&mut st, &setup);
    let cert = st.certificate().expect("full sign-off seals").to_vec();
    assert!(verify_bytes(&cert).is_valid());
    pin("hub.cert", &sha256(&cert), HUB_CERT);
    pin_state("hub", &st, &path, HUB);
    // Replay lands on the same bytes.
    drop(st);
    let replayed = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(replayed.certificate(), Some(cert.as_slice()));
    pin("hub.replayed.digest", &replayed.digest(), HUB[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_script_matches_the_pinned_bytes() {
    let setup = Arc::new(build_setup(&spec(4)).unwrap());
    let dir = scratch("sharded");
    let shard_path = |s: usize| dir.join(files::shard_journal(s));
    let mut shards: Vec<AggState> = (0..4)
        .map(|s| AggState::recover_shard(Arc::clone(&setup), s as u32, &shard_path(s)).unwrap())
        .collect();
    drive_intake(&mut shards, &setup);
    let path = dir.join(files::JOURNAL);
    let mut coord = AggState::recover(Arc::clone(&setup), &path).unwrap();
    for (s, shard) in shards.iter_mut().enumerate() {
        // The intake-complete tick sealed the partial root.
        let root = shard
            .shard_root_msg()
            .expect("sealed after the last submission");
        assert!(matches!(request(&mut coord, &setup, &root), NetMsg::Ack));
        if s == 1 {
            assert!(matches!(request(&mut coord, &setup, &root), NetMsg::Ack));
        }
    }
    drive_committee(&mut coord, &setup);
    let cert = coord.certificate().expect("full sign-off seals").to_vec();
    assert!(verify_bytes(&cert).is_valid());
    pin("sharded.cert", &sha256(&cert), SHARDED_CERT);
    pin_state("coord", &coord, &path, COORD);
    for (s, shard) in shards.iter().enumerate() {
        pin_state(&format!("shard{s}"), shard, &shard_path(s), SHARDS[s]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_substitution_matches_the_pinned_bytes() {
    // A zero contribution deadline fires the commitment freeze and the
    // aggregate on the very first tick, before any intake: every origin is
    // missing and contributes Enc(0) off the aggregator's own stream. The
    // late contributions that follow are still verified and journaled but
    // can no longer move the frozen tree.
    let setup = Arc::new(
        build_setup(&RoundSpec {
            contrib_deadline: Duration::ZERO,
            ..spec(1)
        })
        .unwrap(),
    );
    let dir = scratch("late");
    let path = dir.join(files::JOURNAL);
    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    let seed = setup.spec.seed;
    for v in [0usize, 1] {
        let mut rng = StdRng::seed_from_u64(seed).with_stream(streams::CONTRIB + v as u64);
        for duty in &setup.duties[v] {
            let sc = setup
                .plan
                .build_contribution(&setup.keys, v as u32, duty.exp, false, &mut rng)
                .unwrap();
            let msg = NetMsg::PushContrib {
                origin: duty.origin,
                slot: duty.slot,
                sc: Box::new(sc),
            };
            assert!(matches!(request(&mut st, &setup, &msg), NetMsg::Ack));
        }
    }
    drive_committee(&mut st, &setup);
    let cert = st.certificate().expect("full sign-off seals").to_vec();
    assert!(verify_bytes(&cert).is_valid());
    pin("late.cert", &sha256(&cert), LATE_HUB_CERT);
    pin_state("late", &st, &path, LATE_HUB);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulated_round_matches_the_pinned_bytes() {
    // One faulty round per topology: a cheater, a drop-out, a crashed
    // device (its origin row is deadline-substituted with Enc(0)), 3%
    // message loss, an aggregator blackout during intake, committee member
    // 3 dead from the start (selection waits out the ping deadline) and
    // member 1 dying between its pong and its share (one reselect).
    let setup = build_setup(&spec(1)).unwrap();
    let n = setup.pop.graph.len();
    let behaviors = [
        MaliciousBehavior::OversizedContribution { device: CHEATER },
        MaliciousBehavior::DropOut { device: 5 },
    ];
    for (i, shards) in [1usize, 4].into_iter().enumerate() {
        let run = |fault: FaultPlan| {
            let cfg = SimNetConfig {
                seed: setup.spec.seed,
                fault,
                agg_shards: shards,
                ..SimNetConfig::default()
            };
            let mut budget = PrivacyBudget::new(1000.0);
            run_query_simulated(
                &setup.query,
                &setup.pop,
                &setup.params,
                &setup.keys,
                &behaviors,
                true,
                &mut budget,
                &cfg,
            )
            .unwrap_or_else(|e| panic!("shards {shards}: faulty round must converge: {e:?}"))
        };
        let base = FaultPlan::none()
            .with_drop_prob(0.03)
            .with_crash(9, 0)
            .with_crash(n + 3, 0)
            .with_crash_window(n, 5, 2_005);
        // Virtual time is deterministic: calibrate when the aggregate
        // forms, then kill member 1 halfway to the ping deadline.
        let aggregate_at = run(base.clone()).metrics.phases["aggregate"].min();
        let out = run(base.with_crash(n + 1, aggregate_at + 50_000));
        let cert = out.certificate.as_deref().expect("three live signers");
        assert!(verify_bytes(cert).is_valid());
        assert_eq!(out.rejected_devices, vec![CHEATER]);
        let summary = format!(
            "{:?}|{:?}|{:?}|{}|{}",
            out.exact,
            out.released,
            out.rejected_devices,
            out.elapsed,
            out.metrics.to_json(0)
        );
        pin(&format!("sim{shards}.cert"), &sha256(cert), SIM[i][0]);
        pin(
            &format!("sim{shards}.outcome"),
            &sha256(summary.as_bytes()),
            SIM[i][1],
        );
    }
}
