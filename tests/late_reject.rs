//! A cheater whose forged contribution arrives *after* the commitment
//! freeze, through the real-process driver's full request path.
//!
//! The outcome's reject list stays complete (the offender is neutralised
//! and reported), but the certificate lists only what the frozen tree can
//! back: the late slot froze as `Missing`, and a certificate naming a
//! rejected device with no rejected slot does not verify. (The parent net
//! executor certified its whole reject list and so sealed an invalid
//! certificate here; the simulated hub already froze the certified list.)

use std::sync::Arc;
use std::time::Duration;

use mycelium::streams;
use mycelium_cert::{sign_transcript, verify_bytes, RoundCertificate};
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_setup, AggState, RoundSetup, RoundSpec};
use mycelium_sharing::threshold::decryption_share;

fn request(st: &mut AggState, setup: &RoundSetup, msg: &NetMsg) -> NetMsg {
    let raw = msg.encode();
    let decoded = NetMsg::decode(&raw, &setup.cc).unwrap();
    st.handle(decoded, &raw).unwrap()
}

#[test]
fn late_cheater_is_reported_in_the_outcome_but_not_certified() {
    // A zero contribution deadline fires the freeze and the aggregate on
    // the very first tick: everything pushed afterwards is late.
    let spec = RoundSpec {
        seed: 7,
        n: 16,
        query: "Q4".into(),
        with_proofs: true,
        contrib_deadline: Duration::ZERO,
        ..RoundSpec::default()
    };
    let setup = Arc::new(build_setup(&spec).unwrap());
    let mut st = AggState::new(Arc::clone(&setup));
    let cheater = setup.duties.iter().position(|d| !d.is_empty()).unwrap();
    let mut rng = StdRng::seed_from_u64(spec.seed).with_stream(streams::CONTRIB);
    for duty in &setup.duties[cheater] {
        let sc = setup
            .plan
            .build_contribution(&setup.keys, cheater as u32, duty.exp, true, &mut rng)
            .unwrap();
        let msg = NetMsg::PushContrib {
            origin: duty.origin,
            slot: duty.slot,
            sc: Box::new(sc),
        };
        assert!(matches!(request(&mut st, &setup, &msg), NetMsg::Ack));
    }

    // The committee: check in, answer the share tasks, sign the transcript.
    let c = setup.committee_size as u64;
    let mut rngs: Vec<StdRng> = (1..=c)
        .map(|m| StdRng::seed_from_u64(spec.seed).with_stream(streams::COMMITTEE + m))
        .collect();
    let seeds: Vec<[u8; 32]> = rngs
        .iter_mut()
        .map(|rng| {
            let mut seed = [0u8; 32];
            rng.fill(&mut seed);
            seed
        })
        .collect();
    for _wave in 0..3 {
        for m in 1..=c {
            let seed = seeds[m as usize - 1];
            let msg = match request(
                &mut st,
                &setup,
                &NetMsg::CommitteeCheckIn { member: m, seed },
            ) {
                NetMsg::CommitteeShareTask {
                    round,
                    participants,
                    ct,
                } => {
                    let t_pt = setup.plan.t_pt as i64;
                    let rng = &mut rngs[m as usize - 1];
                    let share =
                        decryption_share(&ct, &setup.key_shares, m, &participants, t_pt, rng);
                    NetMsg::PushShare {
                        member: m,
                        round,
                        share: Box::new(share.unwrap()),
                    }
                }
                NetMsg::CertSignTask { transcript } => NetMsg::PushCertSig {
                    member: m,
                    sig: sign_transcript(spec.seed, m, &transcript),
                },
                _ => continue,
            };
            assert!(matches!(request(&mut st, &setup, &msg), NetMsg::Ack));
        }
    }

    let outcome = st.outcome().expect("decided").as_ref().expect("released");
    assert_eq!(outcome.rejected, vec![cheater as u32], "reported");
    let bytes = st.certificate().expect("full sign-off seals");
    assert!(verify_bytes(bytes).is_valid());
    let cert = RoundCertificate::decode(bytes).unwrap();
    assert!(
        cert.rejected.is_empty(),
        "not certified: its slot froze Missing"
    );
}
