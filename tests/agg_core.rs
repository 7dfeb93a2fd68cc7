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
