//! Transition tests for the aggregation core (`mycelium::aggcore`): plain
//! function calls on plain state — no sockets, no clock, no files, no
//! simulator. Both executors are drivers over exactly this code, so what
//! holds here holds for the simulated and the real-process round alike.

use mycelium::aggcore::{CommitteeTail, CoreError, Intake, Parked, RoundCtx, Slot};
use mycelium::plan::{aggregate_and_audit, ciphertext_digest, AGGREGATION_LEVEL};
use mycelium_bgv::{Ciphertext, Plaintext};
use mycelium_cert::{sign_transcript, verify_bytes, RoundCertificate, SlotStatus};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::round::{build_setup, RoundSetup, RoundSpec};
use mycelium_sharing::threshold::{decryption_share, DecryptionShare};

fn setup() -> RoundSetup {
    build_setup(&RoundSpec {
        seed: 7,
        n: 16,
        query: "Q4".into(),
        with_proofs: true,
        ..RoundSpec::default()
    })
    .unwrap()
}

fn ctx(setup: &RoundSetup) -> RoundCtx<'_> {
    RoundCtx {
        plan: &setup.plan,
        keys: &setup.keys,
        query: &setup.query,
        seed: setup.spec.seed,
        noise_scale: setup.plan.analysis.sensitivity / setup.params.epsilon,
        charged_epsilon: setup.params.epsilon,
    }
}

/// The first `(origin, slot, device, exponent)` duty of the population.
fn first_duty(setup: &RoundSetup) -> (u32, u32, u32, usize) {
    let (device, duties) = setup
        .duties
        .iter()
        .enumerate()
        .find(|(_, d)| !d.is_empty())
        .expect("some device has a duty");
    (
        duties[0].origin,
        duties[0].slot,
        device as u32,
        duties[0].exp,
    )
}

/// Pushes device `v`'s every duty into `intake` (honest or forged).
fn push_device(intake: &mut Intake, setup: &RoundSetup, v: u32, forged: bool, rng: &mut StdRng) {
    for duty in &setup.duties[v as usize] {
        let sc = setup
            .plan
            .build_contribution(&setup.keys, v, duty.exp, forged, rng)
            .unwrap();
        let got = intake.accept_contribution(duty.origin, duty.slot, sc, &ctx(setup), rng);
        assert!(got.unwrap().is_some(), "first write lands");
    }
}

/// Checks the whole committee in (seed `[m; 32]`), selects, and returns
/// every participant's share of `aggregate`.
fn select_and_share(
    tail: &mut CommitteeTail,
    setup: &RoundSetup,
    aggregate: &Ciphertext,
) -> Vec<(u64, DecryptionShare)> {
    for m in 1..=setup.committee_size as u64 {
        assert_eq!(tail.check_in(m, [m as u8; 32]), Ok(true));
    }
    tail.select().unwrap();
    let participants = tail.participants.clone();
    let share = |&m: &u64| {
        let mut rng = StdRng::seed_from_u64(3000 + m);
        let t_pt = setup.plan.t_pt as i64;
        let share = decryption_share(
            aggregate,
            &setup.key_shares,
            m,
            &participants,
            t_pt,
            &mut rng,
        );
        (m, share.unwrap())
    };
    participants.iter().map(share).collect()
}

/// Drives a tail from check-in to the sealed certificate over `aggregate`
/// and `intake`'s commitment plane, with `signers` signing.
fn certify(
    setup: &RoundSetup,
    aggregate: &Ciphertext,
    intake: &Intake,
    signers: &[u64],
) -> (CommitteeTail, Option<Vec<u8>>) {
    let mut tail = CommitteeTail::new(setup.committee_size, setup.threshold);
    let shares = select_and_share(&mut tail, setup, aggregate);
    let aggregate = &Parked::new(aggregate.clone());
    let last = shares.len() - 1;
    for (i, (m, share)) in shares.into_iter().enumerate() {
        let (round, plane) = (tail.share_round, &intake.plane);
        let decided = tail.accept_share(m, round, share, aggregate, plane, &ctx(setup));
        assert_eq!(decided, Ok(i == last), "only the last share decides");
    }
    let transcript = tail.cert.as_ref().expect("complete commitments").transcript;
    for &m in signers {
        let sig = sign_transcript(setup.spec.seed, m, &transcript);
        assert_eq!(tail.accept_sig(m, sig, setup.spec.seed), Ok(true));
    }
    let bytes = tail.seal().map(<[u8]>::to_vec);
    (tail, bytes)
}

#[test]
fn duplicate_contribution_is_first_write_wins() {
    let setup = setup();
    let (origin, slot, device, exp) = first_duty(&setup);
    let mut intake = Intake::new(setup.slot_map(), |_| true);
    let mut rng = StdRng::seed_from_u64(1);
    let build = |rng: &mut StdRng| {
        setup
            .plan
            .build_contribution(&setup.keys, device, exp, false, rng)
            .unwrap()
    };
    let (first, second) = (build(&mut rng), build(&mut rng));
    let digest = ciphertext_digest(&first.ct);
    assert_eq!(intake.contribution_slot(origin, slot), Ok(Slot::Open));
    let got = intake.accept_contribution(origin, slot, first, &ctx(&setup), &mut rng);
    let got = got.unwrap().unwrap();
    assert_eq!(ciphertext_digest(got.ct()), digest);
    assert_eq!(*got.digest(), digest, "parked beside its own digest");
    assert_eq!(intake.contribution_slot(origin, slot), Ok(Slot::Filled));
    // A different ciphertext for the same slot is a redelivery: ignored.
    let again = intake.accept_contribution(origin, slot, second, &ctx(&setup), &mut rng);
    assert!(again.unwrap().is_none());
    assert_eq!(
        intake.statuses[&(origin, slot)],
        SlotStatus::Accepted(digest),
        "the accepted digest is the first write's, taken as verified"
    );
    // Out-of-range slots are one typed error, never a panic.
    let n = setup.pop.graph.len() as u32;
    for (o, s) in [(n, 0), (origin, 1_000)] {
        assert!(matches!(
            intake.contribution_slot(o, s),
            Err(CoreError::Invalid(_))
        ));
    }
}

#[test]
fn forged_proof_is_rejected_neutralised_and_attributed_once() {
    let setup = setup();
    let mut intake = Intake::new(setup.slot_map(), |_| true);
    let mut rng = StdRng::seed_from_u64(2);
    let cheater = setup
        .duties
        .iter()
        .position(|d| d.len() >= 2)
        .expect("a device with two duties") as u32;
    for duty in &setup.duties[cheater as usize] {
        let sc = setup
            .plan
            .build_contribution(&setup.keys, cheater, duty.exp, true, &mut rng)
            .unwrap();
        let forged = ciphertext_digest(&sc.ct);
        let at = (duty.origin, duty.slot);
        let handed = intake.accept_contribution(at.0, at.1, sc, &ctx(&setup), &mut rng);
        let handed = handed
            .unwrap()
            .expect("a substitute is handed to the origin");
        assert_ne!(*handed.digest(), forged, "neutral Enc(x^0) substituted");
        assert_eq!(*handed.digest(), ciphertext_digest(handed.ct()));
        assert_eq!(intake.statuses[&at], SlotStatus::Rejected);
    }
    assert_eq!(
        intake.plane.rejected,
        vec![cheater],
        "attributed once, not per slot"
    );
}

#[test]
fn rejection_after_the_freeze_is_reported_but_not_certified() {
    // A forged contribution that arrives after the commitment freeze is
    // still neutralised and still reported (the outcome's reject list is
    // complete), but it can no longer move the certified plane: the leaves
    // are frozen with the slot `Missing`, so listing the device would
    // certify a rejection the tree has no slot for.
    let setup = setup();
    let mut intake = Intake::new(setup.slot_map(), |_| true);
    let mut rng = StdRng::seed_from_u64(3);
    let early = setup.duties.iter().position(|d| !d.is_empty()).unwrap() as u32;
    let late = setup.duties.iter().rposition(|d| !d.is_empty()).unwrap() as u32;
    assert_ne!(early, late);
    push_device(&mut intake, &setup, early, true, &mut rng);
    let root = intake.seal(&ctx(&setup), &mut rng).unwrap();
    push_device(&mut intake, &setup, late, true, &mut rng);
    assert_eq!(intake.plane.rejected, vec![early, late]);
    assert_eq!(intake.plane.certified(), [early]);
    let c = setup.committee_size as u64;
    let signers: Vec<u64> = (1..=c).collect();
    let (_, bytes) = certify(&setup, &root.sum, &intake, &signers);
    let bytes = bytes.expect("full sign-off");
    assert!(verify_bytes(&bytes).is_valid());
    let cert = RoundCertificate::decode(&bytes).unwrap();
    assert_eq!(cert.rejected, vec![early]);
}

#[test]
fn empty_intake_seals_exactly_one_enc_zero() {
    let setup = setup();
    let mut intake = Intake::new(setup.slot_map(), |_| false);
    assert!(intake.is_complete(), "nothing to wait for");
    let root = intake
        .seal(&ctx(&setup), &mut StdRng::seed_from_u64(4))
        .unwrap();
    assert_eq!(root.leaf_count, 1);
    // Exactly one draw off the stream: the same seed reproduces the root.
    let zero = Plaintext::zero(setup.plan.n_ring, setup.plan.t_pt);
    let want = Ciphertext::encrypt(&setup.keys.public, &zero, &mut StdRng::seed_from_u64(4))
        .unwrap()
        .mod_switch_to(AGGREGATION_LEVEL)
        .unwrap();
    assert_eq!(ciphertext_digest(&root.sum), ciphertext_digest(&want));
    assert_eq!(intake.plane.frozen, Some(0));
    assert!(intake.plane.commits.iter().all(Option::is_none));
    // It serves no origin: every per-origin request is the typed error.
    assert!(matches!(
        intake.submission_slot(0),
        Err(CoreError::Invalid(_))
    ));
}

#[test]
fn too_few_live_members_is_committee_unavailable() {
    let mut tail = CommitteeTail::new(5, 2);
    for m in [2, 4] {
        assert_eq!(tail.check_in(m, [0; 32]), Ok(true));
    }
    assert_eq!(tail.check_in(4, [1; 32]), Ok(false), "first write wins");
    let want = CoreError::CommitteeUnavailable { alive: 2, need: 3 };
    assert_eq!(tail.select(), Err(want.clone()));
    assert_eq!(want.to_string(), "committee unavailable: 2 alive, 3 needed");
    assert_eq!(tail.share_round, 0, "a failed selection opens no round");
}

#[test]
fn second_straggler_round_fails_instead_of_reselecting_twice() {
    let mut tail = CommitteeTail::new(5, 2);
    for m in 1..=5 {
        tail.check_in(m, [m as u8; 32]).unwrap();
    }
    tail.select().unwrap();
    assert_eq!(tail.participants, vec![1, 2, 3]);
    assert_eq!(tail.stragglers(), vec![1, 2, 3]);
    // Nobody delivered: the three stragglers are declared dead, leaving
    // two alive — the one allowed reselect itself fails typed.
    let want = CoreError::CommitteeUnavailable { alive: 2, need: 3 };
    assert_eq!(tail.reselect(), Err(want.clone()));
    assert!(tail.reselected);
    // And there is no second attempt, whatever the liveness.
    tail.check_in(1, [1; 32]).unwrap();
    let want = CoreError::CommitteeUnavailable { alive: 3, need: 3 };
    assert_eq!(tail.reselect(), Err(want));
    assert_eq!(tail.share_round, 1);
}

#[test]
fn member_index_is_validated_in_one_place() {
    let mut tail = CommitteeTail::new(5, 2);
    let sig = [0u8; 64];
    for bad in [0, 6, u64::MAX] {
        let want = Err(CoreError::Invalid(format!("member {bad} out of range")));
        assert_eq!(tail.pong_slot(bad), want);
        assert_eq!(tail.check_in(bad, [0; 32]).map(|_| Slot::Open), want);
        assert_eq!(tail.share_slot(bad, 0), want);
        assert_eq!(tail.sig_slot(bad, &sig, 7), want);
        assert_eq!(tail.accept_sig(bad, sig, 7).map(|_| Slot::Open), want);
    }
    // A committee of zero (an intake shard) knows no member at all.
    assert!(CommitteeTail::new(0, 0).pong_slot(1).is_err());
}

#[test]
fn forged_signature_is_not_counted_and_below_quorum_seals_no_bytes() {
    let setup = setup();
    let mut intake = Intake::new(setup.slot_map(), |_| true);
    let root = intake
        .seal(&ctx(&setup), &mut StdRng::seed_from_u64(5))
        .unwrap();
    // t = 2: two honest signatures are below the t + 1 quorum.
    let (tail, bytes) = certify(&setup, &root.sum, &intake, &[]);
    assert!(bytes.is_none(), "no signatures, no certificate bytes");
    assert!(tail.sealed && tail.cert.is_some(), "the result stands");
    let transcript = tail.cert.as_ref().unwrap().transcript;
    let late = sign_transcript(setup.spec.seed, 1, &transcript);
    assert_eq!(tail.sig_slot(1, &late, setup.spec.seed), Ok(Slot::Closed));

    let mut tail = CommitteeTail::new(setup.committee_size, setup.threshold);
    let shares = select_and_share(&mut tail, &setup, &root.sum);
    let aggregate = Parked::new(root.sum.clone());
    for (m, share) in shares {
        let (round, plane) = (tail.share_round, &intake.plane);
        tail.accept_share(m, round, share, &aggregate, plane, &ctx(&setup))
            .unwrap();
    }
    let transcript = tail.cert.as_ref().unwrap().transcript;
    let seed = setup.spec.seed;
    let mut forged = sign_transcript(seed, 1, &transcript);
    forged[9] ^= 1;
    assert_eq!(tail.sig_slot(1, &forged, seed), Ok(Slot::Closed));
    assert_eq!(tail.accept_sig(1, forged, seed), Ok(false));
    // Member 2's valid signature does not verify as member 1's either.
    let other = sign_transcript(seed, 2, &transcript);
    assert_eq!(tail.accept_sig(1, other, seed), Ok(false));
    assert_eq!(tail.accept_sig(2, other, seed), Ok(true));
    assert_eq!(tail.accept_sig(2, other, seed), Ok(false), "redelivery");
    assert_eq!(tail.sig_slot(2, &other, seed), Ok(Slot::Filled));
    assert_eq!(
        tail.accept_sig(1, sign_transcript(seed, 1, &transcript), seed),
        Ok(true)
    );
    assert!(!tail.all_signed());
    assert!(tail.seal().is_none(), "two of the three needed signatures");
}

#[test]
fn hub_and_one_shard_plus_coordinator_seal_the_same_certificate() {
    let setup = setup();
    let n = setup.pop.graph.len();
    let c = setup.committee_size as u64;
    let signers: Vec<u64> = (1..=c).collect();
    let cheater = setup.duties.iter().position(|d| !d.is_empty()).unwrap() as u32;
    // The same intake history — one cheater, one honest device, every
    // other slot missing, no origin submitting — off the same stream.
    let fill = |intake: &mut Intake, rng: &mut StdRng| {
        push_device(intake, &setup, cheater, true, rng);
        push_device(intake, &setup, (cheater + 1) % n as u32, false, rng);
    };

    // Hub by composition: intake over every origin + tail.
    let mut hub = Intake::new(setup.slot_map(), |_| true);
    let mut rng = StdRng::seed_from_u64(6);
    fill(&mut hub, &mut rng);
    let hub_root = hub.seal(&ctx(&setup), &mut rng).unwrap();
    let (_, hub_cert) = certify(&setup, &hub_root.sum, &hub, &signers);

    // One shard owning everything + a coordinator owning nothing.
    let mut shard = Intake::new(setup.slot_map(), |_| true);
    let mut rng = StdRng::seed_from_u64(6);
    fill(&mut shard, &mut rng);
    let shard_root = shard.seal(&ctx(&setup), &mut rng).unwrap();
    let mut coord = Intake::new(setup.slot_map(), |_| false);
    let mut roots: Vec<Option<Ciphertext>> = vec![None];
    let rejected = shard.plane.certified().to_vec();
    let commits: Vec<_> = shard.plane.commits.iter().flatten().cloned().collect();
    assert_eq!(
        coord.root_slot(&roots, 0, &rejected, &commits),
        Ok(Slot::Open)
    );
    assert!(coord.root_slot(&roots, 1, &rejected, &commits).is_err());
    let root = shard_root.sum.clone();
    let landed = coord.accept_root(
        &mut roots,
        0,
        root.clone(),
        rejected.clone(),
        commits.clone(),
    );
    assert_eq!(landed, Ok(true));
    let again = coord.accept_root(&mut roots, 0, root, rejected, commits);
    assert_eq!(again, Ok(false), "redelivery");
    coord.freeze_commits();
    let aggregate = aggregate_and_audit(vec![roots[0].clone().unwrap()]).unwrap();
    let (_, coord_cert) = certify(&setup, &aggregate, &coord, &signers);

    let hub_cert = hub_cert.expect("full sign-off");
    assert!(verify_bytes(&hub_cert).is_valid());
    assert_eq!(Some(&hub_cert), coord_cert.as_ref());
    let cert = RoundCertificate::decode(&hub_cert).unwrap();
    assert_eq!(cert.rejected, vec![cheater]);
    assert_eq!(cert.leaves.len(), n);
}

// --- the phase policy: `Round::due` / `Round::apply` -----------------------

use mycelium::aggcore::{Mark, Round, Timeout};
use mycelium_net::journal::Journal;
use mycelium_net::proto::NetMsg;
use mycelium_net::round::AggState;

const ALL_TIMEOUTS: [Timeout; 4] = [
    Timeout::Intake,
    Timeout::CheckIn,
    Timeout::Shares,
    Timeout::Cert,
];

fn due(round: &Round<Parked>, expired: &[Timeout]) -> Option<Mark> {
    round.due(|t| expired.contains(&t))
}

/// Asserts `Round::due` at `round`'s current state, one row per expired-set.
fn expect(state: &str, round: &Round<Parked>, table: &[(&[Timeout], Option<Mark>)]) {
    for (expired, want) in table {
        assert_eq!(due(round, expired), *want, "{state}, expired {expired:?}");
    }
}

#[test]
fn the_phase_policy_is_a_table() {
    use Timeout::{Cert, CheckIn, Intake as IntakeWait, Shares};
    let setup = setup();
    let (c, t) = (setup.committee_size, setup.threshold);
    let mut rng = StdRng::seed_from_u64(8);
    let tail = || CommitteeTail::new(c, t);
    let all_but_intake = &ALL_TIMEOUTS[1..];

    // Hub: nothing before the intake wait is over; the freeze precedes the seal.
    let mut hub: Round<Parked> = Round::new(Intake::new(setup.slot_map(), |_| true), None, tail());
    expect(
        "hub, intake open",
        &hub,
        &[
            (&[], None),
            (all_but_intake, None),
            (&[IntakeWait], Some(Mark::Commit)),
        ],
    );
    hub.apply(&Mark::Commit, &ctx(&setup), &mut rng);
    expect(
        "hub, frozen",
        &hub,
        &[(&[], None), (&[IntakeWait], Some(Mark::Aggregate))],
    );
    hub.apply(&Mark::Aggregate, &ctx(&setup), &mut rng);
    assert!(hub.aggregate.is_some() && hub.tree.is_some());

    // A complete intake needs no deadline.
    let one_origin = |v| v == 0;
    let mut shard: Round<Parked> = Round::new(
        Intake::new(setup.slot_map(), one_origin),
        None,
        CommitteeTail::new(0, 0),
    );
    expect("shard, intake open", &shard, &[(all_but_intake, None)]);
    let zero = Plaintext::zero(setup.plan.n_ring, setup.plan.t_pt);
    let row = Ciphertext::encrypt(&setup.keys.public, &zero, &mut rng).unwrap();
    assert_eq!(shard.intake.accept_submission(0, row), Ok(true));
    expect(
        "shard, intake complete",
        &shard,
        &[(&[], Some(Mark::Commit))],
    );
    shard.apply(&Mark::Commit, &ctx(&setup), &mut rng);
    expect("shard, frozen", &shard, &[(&[], Some(Mark::Aggregate))]);
    shard.apply(&Mark::Aggregate, &ctx(&setup), &mut rng);
    // A shard's round ends at its root: it never selects.
    expect(
        "shard, sealed",
        &shard,
        &[(&[], None), (&ALL_TIMEOUTS, None)],
    );
    assert!(!shard.is_over(), "it lingers until the coordinator is done");

    // Coordinator: waits for every root however late it is, then needs no deadline.
    let mut coord: Round<Parked> = Round::new(
        Intake::new(setup.slot_map(), |_| false),
        Some(vec![None, None]),
        tail(),
    );
    let root = shard.aggregate.clone().unwrap();
    let landed = (coord.intake).accept_root(
        coord.roots.as_mut().unwrap(),
        0,
        root.clone(),
        vec![],
        vec![],
    );
    assert_eq!(landed, Ok(true));
    expect(
        "coordinator, a root missing",
        &coord,
        &[(&[], None), (&ALL_TIMEOUTS, None)],
    );
    let roots = coord.roots.as_mut().unwrap();
    assert_eq!(
        coord.intake.accept_root(roots, 1, root, vec![], vec![]),
        Ok(true)
    );
    expect(
        "coordinator, every root in",
        &coord,
        &[(&[], Some(Mark::Commit))],
    );

    // Selection: on the last check-in, or when the check-in wait is over.
    expect(
        "hub, nobody checked in",
        &hub,
        &[
            (&[], None),
            (&[IntakeWait, Shares, Cert], None),
            (&[CheckIn], Some(Mark::Select)),
        ],
    );
    let aggregate = hub.aggregate.as_ref().expect("aggregated").ct();
    let shares = select_and_share(&mut hub.tail, &setup, aggregate);
    // `select_and_share` selected by hand; rewind to "all checked in".
    let selected = std::mem::take(&mut hub.tail.participants);
    expect("hub, all checked in", &hub, &[(&[], Some(Mark::Select))]);
    hub.tail.participants = selected;

    // Stragglers: one reselection, then the typed failure; never before the wait is over.
    let unavailable = CoreError::CommitteeUnavailable {
        alive: c,
        need: t + 1,
    };
    expect(
        "hub, shares outstanding",
        &hub,
        &[
            (&[], None),
            (&[IntakeWait, CheckIn, Cert], None),
            (&[Shares], Some(Mark::Reselect)),
        ],
    );
    hub.tail.reselected = true;
    expect(
        "hub, shares outstanding again",
        &hub,
        &[(&[], None), (&[Shares], Some(Mark::Fail(unavailable)))],
    );
    hub.tail.reselected = false;
    let (last_member, last_share) = shares.last().cloned().unwrap();
    for (m, share) in &shares[..shares.len() - 1] {
        let round = hub.tail.share_round;
        assert_eq!(
            hub.accept_share(*m, round, share.clone(), &ctx(&setup)),
            Ok(false)
        );
    }
    hub.tail.shares[last_member as usize] = Some(last_share.clone());
    expect(
        "hub, every share in but undecided",
        &hub,
        &[(&ALL_TIMEOUTS, None)],
    );
    hub.tail.shares[last_member as usize] = None;

    // The deciding share, then the seal: on the last signature or when the wait is over.
    let round = hub.tail.share_round;
    assert_eq!(
        hub.accept_share(last_member, round, last_share, &ctx(&setup)),
        Ok(true)
    );
    assert!(hub.outcome().is_some_and(|o| o.is_ok()) && hub.signing() && !hub.is_over());
    expect(
        "hub, signing",
        &hub,
        &[
            (&[], None),
            (&[IntakeWait, CheckIn, Shares], None),
            (&[Cert], Some(Mark::Seal)),
        ],
    );
    let transcript = hub.tail.cert.as_ref().unwrap().transcript;
    for m in 1..=c as u64 {
        let sig = sign_transcript(setup.spec.seed, m, &transcript);
        assert_eq!(hub.tail.accept_sig(m, sig, setup.spec.seed), Ok(true));
    }
    expect("hub, all signed", &hub, &[(&[], Some(Mark::Seal))]);
    hub.apply(&Mark::Seal, &ctx(&setup), &mut rng);
    assert!(hub.is_over() && hub.tail.cert_bytes.is_some());
    expect("hub, sealed", &hub, &[(&[], None), (&ALL_TIMEOUTS, None)]);

    // Nothing is due after a failure, and a failure sticks.
    let failed = CoreError::CommitteeUnavailable { alive: 1, need: 3 };
    coord.apply(&Mark::Fail(failed.clone()), &ctx(&setup), &mut rng);
    coord.apply(
        &Mark::Fail(CoreError::Invalid("later".into())),
        &ctx(&setup),
        &mut rng,
    );
    assert_eq!(coord.outcome().and_then(Result::err), Some(&failed));
    assert!(coord.is_over());
    expect(
        "coordinator, failed",
        &coord,
        &[(&[], None), (&ALL_TIMEOUTS, None)],
    );
}

#[test]
fn a_hub_journal_replays_onto_a_bare_round() {
    // A journaled hub runs a whole round through the live path; then the
    // journal's requests and marks — and nothing else: no clock, no
    // `AggState` — are applied to a fresh `Round`, which must decide the
    // same outcome and seal the same certificate (whose transcript binds
    // the commitment plane, the aggregate, the selection and the release) as
    // the live hub — the state journal recovery rebuilds, by `digest`.
    let setup = std::sync::Arc::new(setup());
    let dir = std::env::temp_dir().join(format!("mycelium-aggcore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.bin");
    let mut live = AggState::recover(setup.clone(), &path).unwrap();
    let mut ask = |msg: NetMsg| {
        let raw = msg.encode();
        live.handle(NetMsg::decode(&raw, &setup.cc).unwrap(), &raw)
            .unwrap()
    };
    let mut rng = StdRng::seed_from_u64(9);
    let zero = Plaintext::zero(setup.plan.n_ring, setup.plan.t_pt);
    for origin in 0..setup.pop.graph.len() as u32 {
        let ct = Ciphertext::encrypt(&setup.keys.public, &zero, &mut rng).unwrap();
        let ct = Box::new(ct);
        assert!(matches!(
            ask(NetMsg::SubmitOrigin { origin, ct }),
            NetMsg::Ack
        ));
    }
    let members = 1..=setup.committee_size as u64;
    for member in members.clone().chain(members.clone()).chain(members) {
        let seed = [member as u8; 32];
        match ask(NetMsg::CommitteeCheckIn { member, seed }) {
            NetMsg::CommitteeShareTask {
                round,
                participants,
                ct,
            } => {
                let (shares, t_pt) = (&setup.key_shares, setup.plan.t_pt as i64);
                let share = decryption_share(&ct, shares, member, &participants, t_pt, &mut rng);
                let share = Box::new(share.unwrap());
                ask(NetMsg::PushShare {
                    member,
                    round,
                    share,
                });
            }
            NetMsg::CertSignTask { transcript } => {
                let sig = sign_transcript(setup.spec.seed, member, &transcript);
                ask(NetMsg::PushCertSig { member, sig });
            }
            _ => {}
        }
    }
    let cert = live.certificate().expect("sealed on the last signature");
    assert!(verify_bytes(cert).is_valid());

    let binding = setup.spec.coordinator_binding_digest();
    let (_, records) = Journal::open(&path, &binding).unwrap();
    let hub = Intake::new(setup.slot_map(), |_| true);
    let tail = CommitteeTail::new(setup.committee_size, setup.threshold);
    let mut round: Round<Parked> = Round::new(hub, None, tail);
    let mut marks = Vec::new();
    for record in records.iter() {
        let (tag, body) = record.split_first().unwrap();
        // The journal's record tags (`mycelium_net::round`'s `rec`).
        let mark = match tag {
            1 => {
                let landed = match NetMsg::decode(body, &setup.cc).unwrap() {
                    NetMsg::SubmitOrigin { origin, ct } => {
                        round.intake.accept_submission(origin, *ct)
                    }
                    NetMsg::CommitteeCheckIn { member, seed } => round.tail.check_in(member, seed),
                    NetMsg::PushShare {
                        member,
                        round: share_round,
                        share,
                    } => round
                        .accept_share(member, share_round, *share, &ctx(&setup))
                        .map(|_| true),
                    NetMsg::PushCertSig { member, sig } => {
                        round.tail.accept_sig(member, sig, setup.spec.seed)
                    }
                    other => panic!("{} is not journaled", other.kind()),
                };
                assert_eq!(landed, Ok(true), "only mutating requests are journaled");
                continue;
            }
            2 => Mark::Aggregate,
            3 => Mark::Select,
            7 => Mark::Commit,
            8 => Mark::Seal,
            6 => continue,
            tag => panic!("unexpected record tag {tag}"),
        };
        round.apply(&mark, &ctx(&setup), &mut rng);
        marks.push(mark);
    }
    let want = [Mark::Commit, Mark::Aggregate, Mark::Select, Mark::Seal];
    assert_eq!(marks, want, "what the live hub found due, in order");
    assert_eq!(round.tail.cert_bytes.as_deref(), Some(cert));
    let Some(Ok(reported)) = live.outcome() else {
        panic!("the live round released");
    };
    let (exact, released) = round.outcome().unwrap().unwrap();
    assert_eq!(*exact, reported.exact);
    assert_eq!(format!("{released:?}"), format!("{:?}", reported.released));
    assert_eq!(round.intake.plane.rejected, reported.rejected);
    assert!(round.is_over() && due(&round, &ALL_TIMEOUTS).is_none());
    let recovered = AggState::recover(setup.clone(), &path).unwrap();
    assert_eq!(recovered.digest(), live.digest());
    assert_eq!(recovered.certificate(), Some(cert));
    let _ = std::fs::remove_dir_all(&dir);
}
