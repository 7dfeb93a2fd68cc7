//! Key material a round process derives on first use: `build_setup`
//! derives neither the relinearization keys nor the committee's key
//! shares, and the aggregation plane reads neither — so a process that
//! only aggregates never derives them, an origin derives the keys of only
//! the levels it relinearizes at, yet every byte each produces is the one
//! eager derivation gave (`golden_round` pins the rounds that do read
//! them).

use std::sync::Arc;

use mycelium::exec::ExecStats;
use mycelium::plan::combine_origin;
use mycelium::streams;
use mycelium_cert::{sign_transcript, to_hex, verify_bytes};
use mycelium_crypto::sha256::sha256;
use mycelium_dp::PrivacyBudget;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_setup, shard_of, AggState, RoundSetup, RoundSpec};
use mycelium_net::{run_query_simulated, SimNetConfig};
use mycelium_sharing::threshold::decryption_share;
use mycelium_simnet::FaultPlan;

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

#[test]
fn build_setup_derives_no_relinearization_keys_and_deals_no_shares() {
    for shards in [1, 4] {
        let setup = build_setup(&spec(shards)).unwrap();
        assert!(!setup.keys.relin.is_derived(), "shards {shards}");
        assert!(!setup.key_shares.is_derived(), "shards {shards}");
        // What the plane asks of the sharing is answered without a deal.
        assert_eq!(setup.key_shares.members(), setup.committee_size);
        assert_eq!(setup.key_shares.threshold, setup.threshold);
        assert!(!setup.key_shares.is_derived(), "shards {shards}");
    }
}

/// `[certificate, outcome summary]` per shard count (1, 4), as eager
/// derivation produced them.
const PLANE_ONLY: [[&str; 2]; 2] = [
    [
        // The same certificate as `golden_round`'s deadline-substituted hub.
        "d656341f721832155a6d885afc7a124aab77e5d5627961431ea3659cc03b2929",
        "345fdcf60d21c31e75532a65c83007a2dd26449eb911164a61ce796e166aeeaa",
    ],
    [
        "b3ddd00d862db37ca27962ac78a09530bd172f28de58702d54ef531742c4ec1b",
        "36b2e8dd64dc365c1972d053e1fbdcb3c5dee4e77bf077f57d335c28479d7df0",
    ],
];

#[test]
fn a_simulated_round_without_origins_derives_no_relinearization_keys() {
    // Every vertex (device and origin) is down from the start: the plane
    // substitutes each origin's row, aggregates and runs the committee
    // tail, and the members make their decryption shares. Nothing in that
    // relinearizes, so the keys the round was handed stay underived.
    let setup = build_setup(&spec(1)).unwrap();
    let n = setup.pop.graph.len();
    for (i, shards) in [1usize, 4].into_iter().enumerate() {
        let keys = build_setup(&spec(1)).unwrap().keys;
        let fault = (0..n).fold(FaultPlan::none(), |plan, v| plan.with_crash(v, 0));
        let cfg = SimNetConfig {
            seed: setup.spec.seed,
            fault,
            agg_shards: shards,
            ..SimNetConfig::default()
        };
        let mut budget = PrivacyBudget::new(1000.0);
        let out = run_query_simulated(
            &setup.query,
            &setup.pop,
            &setup.params,
            &keys,
            &[],
            true,
            &mut budget,
            &cfg,
        )
        .unwrap_or_else(|e| panic!("shards {shards}: the round must converge: {e:?}"));
        let cert = out.certificate.as_deref().expect("every member signs");
        assert!(verify_bytes(cert).is_valid());
        assert!(
            !keys.relin.is_derived(),
            "shards {shards}: the aggregation plane derived relinearization keys"
        );
        let summary = format!(
            "{:?}|{:?}|{:?}|{}",
            out.exact, out.released, out.rejected_devices, out.elapsed
        );
        let pins = [sha256(cert), sha256(summary.as_bytes())].map(|d| to_hex(&d));
        if std::env::var_os("GOLDEN_PRINT").is_some() {
            println!("GOLDEN plane-only shards {shards} = {pins:?}");
        } else {
            assert_eq!(pins, PLANE_ONLY[i], "shards {shards}");
        }
    }
}

/// One request over the wire: decoded into the plane's setup, handled,
/// and the reply decoded into the client's.
fn ask(st: &mut AggState, plane: &RoundSetup, client: &RoundSetup, msg: NetMsg) -> NetMsg {
    let raw = msg.encode();
    let reply = st.handle(NetMsg::decode(&raw, &plane.cc).unwrap(), &raw);
    NetMsg::decode(&reply.unwrap().encode(), &client.cc).unwrap()
}

#[test]
fn the_aggregation_plane_reads_no_key_material_in_a_full_round() {
    // As in a real round, the plane and its clients each derive their own
    // setup: the devices encrypt and prove, the origins combine (and so
    // relinearize), the members deal and decrypt — all off `clients` —
    // while hub, shards and coordinator run on `plane` alone.
    for shards in [1, 4] {
        let plane = Arc::new(build_setup(&spec(shards)).unwrap());
        let clients = build_setup(&spec(shards)).unwrap();
        let mut intake: Vec<AggState> = match shards {
            1 => vec![AggState::new(Arc::clone(&plane))],
            _ => (0..shards as u32)
                .map(|s| AggState::new_shard(Arc::clone(&plane), s))
                .collect(),
        };
        let seed = clients.spec.seed;
        for (v, duties) in clients.duties.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed).with_stream(streams::CONTRIB + v as u64);
            for duty in duties {
                let plan = &clients.plan;
                let sc =
                    plan.build_contribution(&clients.keys, v as u32, duty.exp, false, &mut rng);
                let msg = NetMsg::PushContrib {
                    origin: duty.origin,
                    slot: duty.slot,
                    sc: Box::new(sc.unwrap()),
                };
                let st = &mut intake[shard_of(duty.origin, shards)];
                assert!(matches!(ask(st, &plane, &clients, msg), NetMsg::Ack));
            }
        }
        for (v, work) in clients.works.iter().enumerate() {
            let origin = v as u32;
            let st = &mut intake[shard_of(origin, shards)];
            let NetMsg::OriginJob { cts } =
                ask(st, &plane, &clients, NetMsg::PullOrigin { origin })
            else {
                panic!("origin {v}: every slot was pushed, the job must be ready");
            };
            let cts: Vec<_> = cts.into_iter().map(|c| c.expect("slot filled")).collect();
            let mut rng = StdRng::seed_from_u64(seed).with_stream(streams::ORIGIN + v as u64);
            let stats = &mut ExecStats::default();
            let ct = combine_origin(&clients.plan, &clients.keys, work, &cts, stats, &mut rng);
            let msg = NetMsg::SubmitOrigin {
                origin,
                ct: Box::new(ct.unwrap()),
            };
            assert!(matches!(ask(st, &plane, &clients, msg), NetMsg::Ack));
        }
        // The origins derived relinearization keys at exactly the levels
        // their chains multiply at: an accumulator fed `f` times starts at
        // `chain_start(f − 1)` and drops a level after each of its `f − 1`
        // products, down to 1.
        let mut chain_levels = std::collections::BTreeSet::new();
        for work in clients.works.iter().filter(|w| w.self_ok) {
            for f in work.feeds() {
                let start = clients.plan.chain_start(f.saturating_sub(1));
                let products = 0..f.saturating_sub(1);
                chain_levels.extend(products.map(|k| start.saturating_sub(k).max(1)));
            }
        }
        let derived = clients.keys.relin.derived_levels();
        assert_eq!(derived, Vec::from_iter(chain_levels), "shards {shards}");
        assert!(
            derived.len() < clients.params.bgv.levels,
            "shards {shards}: {derived:?}"
        );
        assert!(!plane.keys.relin.is_derived(), "shards {shards}");
        let mut hub = match shards {
            1 => intake.pop().unwrap(),
            _ => {
                let mut coordinator = AggState::new(Arc::clone(&plane));
                for shard in &intake {
                    let root = shard
                        .shard_root_msg()
                        .expect("sealed after the last submission");
                    assert!(matches!(
                        ask(&mut coordinator, &plane, &clients, root),
                        NetMsg::Ack
                    ));
                }
                coordinator
            }
        };
        // Two check-in waves (register, then answer the share tasks), then
        // one to sign.
        let members = 1..=clients.committee_size as u64;
        let mut rngs: Vec<StdRng> = members
            .clone()
            .map(|m| StdRng::seed_from_u64(seed).with_stream(streams::COMMITTEE + m))
            .collect();
        let noise_seeds: Vec<[u8; 32]> = rngs
            .iter_mut()
            .map(|rng| {
                let mut noise_seed = [0u8; 32];
                rng.fill(&mut noise_seed);
                noise_seed
            })
            .collect();
        let check_in = |member: u64| NetMsg::CommitteeCheckIn {
            member,
            seed: noise_seeds[member as usize - 1],
        };
        for _ in 0..2 {
            for m in members.clone() {
                if let NetMsg::CommitteeShareTask {
                    round,
                    participants,
                    ct,
                } = ask(&mut hub, &plane, &clients, check_in(m))
                {
                    let rng = &mut rngs[m as usize - 1];
                    let t_pt = clients.plan.t_pt as i64;
                    let share =
                        decryption_share(&ct, &clients.key_shares, m, &participants, t_pt, rng);
                    let share = Box::new(share.unwrap());
                    let msg = NetMsg::PushShare {
                        member: m,
                        round,
                        share,
                    };
                    assert!(matches!(ask(&mut hub, &plane, &clients, msg), NetMsg::Ack));
                }
            }
        }
        for m in members {
            let NetMsg::CertSignTask { transcript } = ask(&mut hub, &plane, &clients, check_in(m))
            else {
                panic!("member {m}: expected a sign task");
            };
            let sig = sign_transcript(seed, m, &transcript);
            let msg = NetMsg::PushCertSig { member: m, sig };
            assert!(matches!(ask(&mut hub, &plane, &clients, msg), NetMsg::Ack));
        }
        let cert = hub.certificate().expect("full sign-off seals");
        assert!(verify_bytes(cert).is_valid(), "shards {shards}");
        assert!(clients.keys.relin.is_derived() && clients.key_shares.is_derived());
        assert!(
            !plane.keys.relin.is_derived() && !plane.key_shares.is_derived(),
            "shards {shards}: the aggregation plane derived key material"
        );
    }
}
