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
use mycelium::MaliciousBehavior;
use mycelium_cert::{sign_transcript, to_hex, verify_bytes};
use mycelium_crypto::sha256::sha256;
use mycelium_dp::PrivacyBudget;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_setup, files, shard_of, AggState, RoundSetup, RoundSpec};
use mycelium_net::{run_query_simulated, SimNetConfig};
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
            let records = st.journal_records();
            assert!(matches!(request(st, setup, &msg), NetMsg::Ack));
            assert_eq!(
                st.journal_records(),
                records,
                "a forged signature was journalled"
            );
        }
        // The slot is still open: the forged signature did not count.
        let records = st.journal_records();
        let msg = NetMsg::PushCertSig { member: m, sig };
        assert!(matches!(request(st, setup, &msg), NetMsg::Ack));
        assert!(
            st.journal_records() > records,
            "member {m}'s signature was not taken"
        );
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

const HUB_CERT: &str = "15846b589916abf0f6edb6e4854b750a37fe8e988774df3251018ef80e7e7ffa";
const HUB: [&str; 2] = [
    "7e72cac4760bfa75886de44af2c67c1d022fc37ae95bcb205510b4ef29973088",
    "d8cb2e56a9152acf61747ab3efe3c8640d81594a5a6f57b0a6f33221e18e6ded",
];
// Not HUB_CERT: each shard neutralises the cheater's slots off its own
// stream, so the origins combine different (equally valid) ciphertexts.
const SHARDED_CERT: &str = "5e110cf0af203188bcb311d552a670caa13783f59d428e7d796b96332ee7e542";
const COORD: [&str; 2] = [
    "3a0f07c6b6137622edfd305eb755223043e205fa6c12931dcd8edcf6afb48a9b",
    "a5d58b66d9f4d6a73a5b28eaa3c2ca3c1f6029a366156bcf24564ae6051025a7",
];
const SHARDS: [[&str; 2]; 4] = [
    [
        "933353ee7a466bfc14851c9ca1feaf7fe2482998b4d1563d6f5f0b36f1fa5038",
        "115b792d7faebc5277d988dca3be56e289e65bce5fe690a5b6148864bd363f22",
    ],
    [
        "f73d0489e877e2d0628d862f72c8f9db774125ddff797bb3cfafbdb78d991b16",
        "c59fdef4ef38103084885dc4d7f1d16998b2fac35a111fa6ab97d68d58d79630",
    ],
    [
        "b22ec15757375440cab02387f82ce918a4ac9137d8b0e271fc47fcdbc89e4298",
        "f33d6f328c9fe59e9da7ac5816f805e427217858adf21c1309e92afa29fd8c89",
    ],
    [
        "4fa8f28a4abde31466b49cada0aee5d688b4fc9a4f32356e7f61adb15405415d",
        "911ba89a5d897526b35b402c347fa52cc7466eeb04716d2b540119b5e946ae7d",
    ],
];
const LATE_HUB_CERT: &str = "d656341f721832155a6d885afc7a124aab77e5d5627961431ea3659cc03b2929";
const LATE_HUB: [&str; 2] = [
    "99591537b157a2f0578d6a7457788d6f6e03bd626402be3d04e3f4fc7eadb9e3",
    "94f7d5e529f3bdb46b0ed000dd1fd58416ec6815db7cbf23649bdb4f1ffc9ea9",
];
/// `[certificate, outcome summary]` per shard count (1, 4).
const SIM: [[&str; 2]; 2] = [
    [
        "e1bf35fc2f65af040020a3136e57a623957403887dd377f3af75d75e0427f746",
        "4a3afc6230c600d8bda6d238933e331ce9da6799cfda5318cf850e94105ec59d",
    ],
    [
        "7b4a6c68ac283bf61273bbee1357ec31b9fc144fbe4d3c9471a8dd26b82bff29",
        "5c1aac0e9c1c84246fd72ed1183146534257dfbaaafc1269854f6387170472f9",
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
            out.metrics.to_json()
        );
        pin(&format!("sim{shards}.cert"), &sha256(cert), SIM[i][0]);
        pin(
            &format!("sim{shards}.outcome"),
            &sha256(summary.as_bytes()),
            SIM[i][1],
        );
    }
}
