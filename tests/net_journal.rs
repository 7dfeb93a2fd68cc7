//! Crash-durability of the aggregator's write-ahead journal, at the
//! `AggState` level (no processes, no sockets).
//!
//! The invariant under test is the one the chaos drill exercises end to
//! end: an aggregator that dies after acknowledging any prefix of the
//! round and is recovered from its journal has **bit-identical**
//! protocol state (witnessed by [`AggState::digest`]) to the pre-crash
//! instance — and keeps behaving identically afterwards. Corruption is
//! always a typed [`JournalError`], never a silently divergent round.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mycelium_bgv::{Ciphertext, Plaintext};
use mycelium_cert::{sign_transcript, verify_bytes};
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{
    build_setup, files, AggFaults, AggState, BudgetCfg, RoundSetup, RoundSpec, SharedAgg, PARK,
};
use mycelium_net::server::Handler;
use mycelium_net::{JournalError, NetError};
use mycelium_sharing::threshold::decryption_share;

use mycelium_math::rng::{SeedableRng, StdRng};

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
    let dir = std::env::temp_dir().join(format!("mycelium-journal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Encodes a stream of state-mutating requests: `contribs` contribution
/// pushes (each for a distinct `(origin, slot)` duty) followed by
/// `checkins` committee check-ins. Returned as raw wire bytes — exactly
/// what the server hands to [`AggState::handle`] and what the journal
/// stores.
fn mutating_requests(setup: &RoundSetup, contribs: usize, checkins: usize) -> Vec<Vec<u8>> {
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
            let msg = NetMsg::PushContrib {
                origin: duty.origin,
                slot: duty.slot,
                sc: Box::new(sc),
            };
            raws.push(msg.encode());
        }
    }
    assert_eq!(raws.len(), contribs, "population has enough duties");
    for m in 1..=checkins as u64 {
        let msg = NetMsg::CommitteeCheckIn {
            member: m,
            seed: [m as u8; 32],
        };
        raws.push(msg.encode());
    }
    raws
}

/// Feeds one raw request through the full live path (decode → journal →
/// apply → fsync), as the server does.
fn feed(st: &mut AggState, setup: &RoundSetup, raw: &[u8]) {
    let msg = NetMsg::decode(raw, &setup.cc).unwrap();
    st.handle(msg, raw).unwrap();
}

#[test]
fn replayed_state_is_bit_identical_and_continues_identically() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("replay");
    let path = dir.join(files::JOURNAL);
    // 10 contributions + 2 check-ins: crosses the every-8-records digest
    // checkpoint, so recovery also verifies a mid-stream checkpoint.
    let raws = mutating_requests(&setup, 10, 2);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(st.journal_records(), 0, "fresh journal");
    for raw in &raws[..11] {
        feed(&mut st, &setup, raw);
    }
    let pre_crash = st.digest();
    let pre_records = st.journal_records();
    // 11 REQ records plus the digest checkpoint flushed after the 8th.
    assert_eq!(pre_records, 12);
    drop(st); // crash: no shutdown hook, the journal is all that survives

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(
        recovered.digest(),
        pre_crash,
        "replay must rebuild the exact pre-crash state"
    );
    assert_eq!(recovered.journal_records(), pre_records);

    // The recovered instance must also *continue* identically: feed the
    // 12th request to it and the full sequence to a parallel fresh
    // instance, and compare digests again.
    feed(&mut recovered, &setup, &raws[11]);
    let twin_path = dir.join("twin.bin");
    let mut twin = AggState::recover(Arc::clone(&setup), &twin_path).unwrap();
    for raw in &raws {
        feed(&mut twin, &setup, raw);
    }
    assert_eq!(
        recovered.digest(),
        twin.digest(),
        "recovered state must evolve exactly like an uncrashed one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One full live request round-trip that returns the reply (the plain
/// [`feed`] discards it).
fn request(st: &mut AggState, setup: &RoundSetup, msg: &NetMsg) -> NetMsg {
    let raw = msg.encode();
    let decoded = NetMsg::decode(&raw, &setup.cc).unwrap();
    st.handle(decoded, &raw).unwrap()
}

/// Drives a complete hub round up to the decided outcome: every origin
/// submits its (here: neutral) row, the whole committee checks in, and
/// the selected participants answer their share tasks. Stops *before*
/// any certificate signature is pushed, so the caller chooses where in
/// the signature collection to crash.
fn drive_to_outcome(st: &mut AggState, setup: &RoundSetup) {
    for v in 0..setup.pop.graph.len() as u32 {
        let mut rng = StdRng::seed_from_u64(2000 + v as u64);
        let ct = Ciphertext::encrypt(
            &setup.keys.public,
            &Plaintext::zero(setup.plan.n_ring, setup.plan.t_pt),
            &mut rng,
        )
        .unwrap();
        let reply = request(
            st,
            setup,
            &NetMsg::SubmitOrigin {
                origin: v,
                ct: Box::new(ct),
            },
        );
        assert!(matches!(reply, NetMsg::Ack));
    }
    // First check-in wave registers every member (and its noise seed);
    // the tick after the last one selects the participants. The second
    // wave then hands each participant its share task.
    for wave in 0..2 {
        for m in 1..=setup.committee_size as u64 {
            let reply = request(
                st,
                setup,
                &NetMsg::CommitteeCheckIn {
                    member: m,
                    seed: [m as u8; 32],
                },
            );
            if let NetMsg::CommitteeShareTask {
                round,
                participants,
                ct,
            } = reply
            {
                assert_eq!(wave, 1, "no share task before selection");
                let mut rng = StdRng::seed_from_u64(3000 + m);
                let share = decryption_share(
                    &ct,
                    &setup.key_shares,
                    m,
                    &participants,
                    setup.plan.t_pt as i64,
                    &mut rng,
                )
                .unwrap();
                request(
                    st,
                    setup,
                    &NetMsg::PushShare {
                        member: m,
                        round,
                        share: Box::new(share),
                    },
                );
            }
        }
    }
    assert!(st.is_finished(), "round must decide after all shares");
}

/// Fetches member `m`'s `CertSignTask` via a check-in and pushes its
/// transcript signature.
fn push_cert_sig(st: &mut AggState, setup: &RoundSetup, m: u64) {
    let reply = request(
        st,
        setup,
        &NetMsg::CommitteeCheckIn {
            member: m,
            seed: [m as u8; 32],
        },
    );
    let NetMsg::CertSignTask { transcript } = reply else {
        panic!("expected a sign task for member {m}, got {}", reply.kind());
    };
    let sig = sign_transcript(setup.spec.seed, m, &transcript);
    let reply = request(st, setup, &NetMsg::PushCertSig { member: m, sig });
    assert!(matches!(reply, NetMsg::Ack));
}

#[test]
fn replay_rederives_the_sealed_certificate_bit_for_bit() {
    // The proof-carrying-rounds durability invariant (DESIGN.md, "Round
    // certificates"): an aggregator that crashes *mid signature
    // collection* — after the outcome and the certificate transcript
    // were decided, with only part of the committee's endorsements on
    // disk — recovers from its journal and seals the exact certificate
    // an uncrashed twin seals, byte for byte.
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let c = setup.committee_size as u64;
    let dir = journal_dir("cert");
    let path = dir.join(files::JOURNAL);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    drive_to_outcome(&mut st, &setup);
    assert!(
        st.certificate().is_none(),
        "certificate must not seal before the signature quorum"
    );
    // Two of five signatures land, then the process dies.
    for m in 1..=2 {
        push_cert_sig(&mut st, &setup, m);
    }
    let pre_crash = st.digest();
    drop(st);

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(
        recovered.digest(),
        pre_crash,
        "replay must rebuild the outcome, the certificate transcript, \
         and the collected signatures"
    );
    assert!(
        recovered.certificate().is_none(),
        "still below full sign-off"
    );
    for m in 3..=c {
        push_cert_sig(&mut recovered, &setup, m);
    }
    let cert = recovered
        .certificate()
        .expect("all members signed, the tick seals")
        .to_vec();
    assert!(verify_bytes(&cert).is_valid());

    // The uncrashed twin seals the identical bytes.
    let twin_path = dir.join("twin.bin");
    let mut twin = AggState::recover(Arc::clone(&setup), &twin_path).unwrap();
    drive_to_outcome(&mut twin, &setup);
    for m in 1..=c {
        push_cert_sig(&mut twin, &setup, m);
    }
    assert_eq!(
        twin.certificate(),
        Some(cert.as_slice()),
        "crash recovery must not perturb the sealed certificate"
    );
    assert_eq!(recovered.digest(), twin.digest());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_requests_after_recovery_are_idempotent() {
    // A client whose ack was lost in the crash retries into the
    // recovered aggregator: the replayed request must be absorbed
    // without journaling a second copy or perturbing state.
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("idem");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 3, 1);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    for raw in &raws {
        feed(&mut st, &setup, raw);
    }
    drop(st);

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    let digest = recovered.digest();
    let records = recovered.journal_records();
    for raw in &raws {
        feed(&mut recovered, &setup, raw); // every client retries
    }
    assert_eq!(recovered.digest(), digest, "duplicates must not mutate");
    assert_eq!(
        recovered.journal_records(),
        records,
        "duplicates must not be re-journaled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_and_the_valid_prefix_recovers() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("torn");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 3, 0);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    let mut digests = Vec::new();
    for raw in &raws {
        feed(&mut st, &setup, raw);
        digests.push(st.digest());
    }
    drop(st);

    // Tear the tail: the last record loses 3 checksum bytes, exactly as
    // if the process died mid-write(2).
    let len = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(recovered.journal_records(), 2, "torn record dropped");
    assert_eq!(
        recovered.digest(),
        digests[1],
        "recovery lands on the longest durable prefix"
    );
    // The unacknowledged third request is retried by its client and the
    // round proceeds as if the torn write never happened.
    feed(&mut recovered, &setup, &raws[2]);
    assert_eq!(recovered.digest(), digests[2]);
    assert_eq!(recovered.journal_records(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_in_a_journal_record_is_a_typed_corruption_error() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("bitflip");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 2, 0);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    for raw in &raws {
        feed(&mut st, &setup, raw);
    }
    drop(st);

    // Flip one bit inside record 0's payload (header + length prefix +
    // 2 bytes in).
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[mycelium_net::journal::HEADER_BYTES + 4 + 2] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();

    let err = AggState::recover(Arc::clone(&setup), &path)
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, NetError::Journal(JournalError::Corrupt { seq: 0 })),
        "expected Corrupt {{ seq: 0 }}, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn budget_spec(round: u32, capacity: f64) -> RoundSpec {
    RoundSpec {
        round,
        budget: Some(BudgetCfg {
            dataset: "contacts".into(),
            capacity,
            delta: 0.0,
            advanced: false,
        }),
        ..test_spec()
    }
}

#[test]
fn budget_charge_survives_a_mid_round_crash() {
    // The round admits (an Admit lands in both the round journal and the
    // session WAL), runs to its decided outcome (the settle tick journals
    // the Charge), and the process dies before any certificate signature.
    // Recovery must rebuild the identical ledger — witnessed by the state
    // digest, which covers the ledger and the charged epsilon — and a
    // second `install_budget` must not append a single duplicate record
    // to either log.
    let setup = Arc::new(build_setup(&budget_spec(0, 1.5)).unwrap());
    let dir = journal_dir("budget-charge");
    let path = dir.join(files::JOURNAL);
    let wal = dir.join(files::BUDGET_WAL);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    st.install_budget(&wal).unwrap();
    assert!(!st.is_finished(), "admitted round proceeds");
    drive_to_outcome(&mut st, &setup);
    let pre_crash = st.digest();
    let pre_records = st.journal_records();
    let wal_len = std::fs::metadata(&wal).unwrap().len();
    drop(st); // crash mid signature collection

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(
        recovered.digest(),
        pre_crash,
        "replay must rebuild the admitted-and-charged ledger bit for bit"
    );
    recovered.install_budget(&wal).unwrap();
    assert_eq!(recovered.digest(), pre_crash, "re-install is a no-op");
    assert_eq!(recovered.journal_records(), pre_records);
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        wal_len,
        "no duplicate ops in the session WAL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_refusal_is_replayed_not_recomputed() {
    // Session WAL: round 0 charges the whole capacity. Round 1 is then
    // refused at install time; the refusal is journaled, the round fails
    // with the canonical typed message, and an aggregator kill + journal
    // replay lands on the identical refused state — even though the
    // refusal decision itself is never re-derived from prices, only
    // replayed from the record.
    let dir = journal_dir("budget-refuse");
    let wal = dir.join(files::BUDGET_WAL);

    // Round 0 consumes the session capacity.
    let setup0 = Arc::new(build_setup(&budget_spec(0, 1.0)).unwrap());
    let mut st0 = AggState::recover(Arc::clone(&setup0), &dir.join("r0.bin")).unwrap();
    st0.install_budget(&wal).unwrap();
    drive_to_outcome(&mut st0, &setup0);
    assert!(st0.failure().is_none());
    drop(st0);

    // Round 1 against the same WAL: refused before any intake.
    let setup1 = Arc::new(build_setup(&budget_spec(1, 1.0)).unwrap());
    let path1 = dir.join("r1.bin");
    let mut st1 = AggState::recover(Arc::clone(&setup1), &path1).unwrap();
    st1.install_budget(&wal).unwrap();
    assert!(st1.is_finished(), "refused round terminates immediately");
    let failure = st1.failure().expect("refusal is a round failure");
    assert!(
        failure.contains("budget exhausted:"),
        "typed refusal message, got {failure}"
    );
    // Clients that retry into the refused round are turned away without
    // new journal growth.
    let raws = mutating_requests(&setup1, 1, 0);
    let msg = NetMsg::decode(&raws[0], &setup1.cc).unwrap();
    let reply = st1.handle(msg, &raws[0]).unwrap();
    assert!(
        matches!(reply, NetMsg::Finished),
        "intake into a refused round must answer Finished"
    );
    let pre_crash = st1.digest();
    let pre_records = st1.journal_records();
    let wal_len = std::fs::metadata(&wal).unwrap().len();
    drop(st1); // kill the aggregator

    let mut recovered = AggState::recover(Arc::clone(&setup1), &path1).unwrap();
    assert_eq!(
        recovered.digest(),
        pre_crash,
        "replayed refusal must rebuild the identical ledger digest"
    );
    assert_eq!(recovered.failure().as_deref(), Some(failure.as_str()));
    recovered.install_budget(&wal).unwrap();
    assert_eq!(recovered.digest(), pre_crash);
    assert_eq!(recovered.journal_records(), pre_records);
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        wal_len,
        "re-deciding the refused round must not grow the session WAL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_bound_to_a_different_round_is_rejected() {
    let spec = test_spec();
    let setup = Arc::new(build_setup(&spec).unwrap());
    let dir = journal_dir("binding");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 1, 0);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    feed(&mut st, &setup, &raws[0]);
    drop(st);

    // Restart with a different round configuration pointed at the stale
    // journal: replaying it would silently poison the new round, so
    // recovery must refuse with a typed mismatch.
    let other = Arc::new(
        build_setup(&RoundSpec {
            seed: spec.seed + 1,
            ..spec
        })
        .unwrap(),
    );
    let err = AggState::recover(other, &path).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, NetError::Journal(JournalError::BindingMismatch { .. })),
        "expected BindingMismatch, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_version_1_journal_is_refused_not_replayed() {
    // A journal of the format before residues were packed: the same round
    // (so the binding matches), the old magic and version word, and a
    // record that was a valid PushContrib then — a 64-bit word per
    // residue. Replaying it would misread every row; recovery must stop at
    // the header with a typed error and leave the file as it found it.
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("v1");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 1, 0);
    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    feed(&mut st, &setup, &raws[0]);
    drop(st);

    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..8], b"MYCWALv2");
    bytes[..8].copy_from_slice(b"MYCWALv1");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = AggState::recover(Arc::clone(&setup), &path)
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, NetError::Journal(JournalError::BadHeader { .. })),
        "expected BadHeader, got {err}"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "refused, not rewritten"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handle_returns_only_after_its_records_are_durable() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("durable");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 9, 0);
    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();

    // `handle` is append *and* wait: every record it appended — the
    // digest checkpoint after the 8th included — is on disk when it
    // returns, at one fsync per request.
    for raw in &raws[..8] {
        feed(&mut st, &setup, raw);
        assert_eq!(st.durable_records(), st.journal_records());
    }
    assert_eq!((st.journal_records(), st.sync_stats().syncs), (9, 8));
    // A poll appends nothing and waits for nothing.
    request(&mut st, &setup, &NetMsg::PullStatus);
    assert_eq!(st.sync_stats().syncs, 8);

    // The deferred half leaves the wait to the caller: the record is in
    // the journal, the claim on its durability is still open.
    let msg = NetMsg::decode(&raws[8], &setup.cc).unwrap();
    let (reply, pending) = st.handle_deferred(msg, &raws[8]).unwrap();
    assert!(matches!(reply, NetMsg::Ack));
    assert_eq!((st.journal_records(), st.durable_records()), (10, 9));
    pending.expect("a journaled state").wait().unwrap();
    assert_eq!((st.durable_records(), st.sync_stats().syncs), (10, 9));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parked_status_wakes_on_finish() {
    // The park period is long enough to tell "woken by the seal" from
    // "timed out and asked again".
    let period = PARK;
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    assert_eq!(period, Duration::from_millis(50));
    let c = setup.committee_size as u64;
    let dir = journal_dir("parked");
    let mut st = AggState::recover(Arc::clone(&setup), &dir.join(files::JOURNAL)).unwrap();
    // Decided, and signed by everyone but the last member: one signature
    // short of the seal that ends the round.
    drive_to_outcome(&mut st, &setup);
    for m in 1..c {
        push_cert_sig(&mut st, &setup, m);
    }
    let shared = SharedAgg::new(st, &setup, &AggFaults::default());
    let ask = |msg: &NetMsg| {
        let reply = shared.handle([0; 32], &msg.encode()).unwrap();
        NetMsg::decode(&reply, &setup.cc).unwrap()
    };

    // Nothing happens: the poll is held for one period, then answered
    // with its ordinary status.
    let asked = Instant::now();
    assert!(matches!(ask(&NetMsg::PullStatus), NetMsg::CommitteeWait));
    let held = asked.elapsed();
    assert!(held >= period && held < 3 * period, "held {held:?}");

    // The round ends under a parked poll: answered `Finished` at once,
    // not when its period runs out.
    std::thread::scope(|scope| {
        let parked = scope.spawn(|| (ask(&NetMsg::PullStatus), Instant::now()));
        // Let the poll reach the server. (Were it late, it would be
        // answered `Finished` unparked and the test would pass idly.)
        std::thread::sleep(period / 8);
        let seed = [c as u8; 32];
        let task = ask(&NetMsg::CommitteeCheckIn { member: c, seed });
        let NetMsg::CertSignTask { transcript } = task else {
            panic!("expected a sign task, got {}", task.kind());
        };
        let sig = sign_transcript(setup.spec.seed, c, &transcript);
        assert!(matches!(
            ask(&NetMsg::PushCertSig { member: c, sig }),
            NetMsg::Ack
        ));
        let sealed = Instant::now();
        let (reply, answered) = parked.join().unwrap();
        assert!(matches!(reply, NetMsg::Finished));
        let lag = answered.saturating_duration_since(sealed);
        assert!(lag < period / 4, "answered {lag:?} after the seal");
    });
    assert!(shared.lock().certificate().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One request through the shared state's server-side handler.
fn ask(shared: &SharedAgg, setup: &RoundSetup, msg: &NetMsg) -> NetMsg {
    let reply = shared.handle([0; 32], &msg.encode()).unwrap();
    NetMsg::decode(&reply, &setup.cc).unwrap()
}

/// Asks as a role process does — a "not yet" is followed by the next ask at
/// once — and reports the answer with the instant it came.
fn ask_until_answered(shared: &SharedAgg, setup: &RoundSetup, msg: &NetMsg) -> (NetMsg, Instant) {
    loop {
        let reply = ask(shared, setup, msg);
        if !matches!(reply, NetMsg::OriginPending { .. } | NetMsg::CommitteeWait) {
            return (reply, Instant::now());
        }
    }
}

#[test]
fn held_pull_origin_wakes_on_the_last_contribution() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("held-pull");
    let mut st = AggState::recover(Arc::clone(&setup), &dir.join(files::JOURNAL)).unwrap();
    // An origin that waits for several contributions; all but one land.
    let work = setup.works.iter().find(|w| w.requests.len() >= 2).unwrap();
    let (origin, need) = (work.origin, work.requests.len() as u32);
    let mut row: Vec<NetMsg> = Vec::new();
    for (slot, &(device, exp)) in work.requests.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(4000 + slot as u64);
        let sc = setup
            .plan
            .build_contribution(&setup.keys, device, exp, false, &mut rng)
            .unwrap();
        row.push(NetMsg::PushContrib {
            origin,
            slot: slot as u32,
            sc: Box::new(sc),
        });
    }
    let last = row.pop().unwrap();
    for msg in &row {
        assert!(matches!(request(&mut st, &setup, msg), NetMsg::Ack));
    }
    let shared = SharedAgg::new(st, &setup, &AggFaults::default());
    let pull = NetMsg::PullOrigin { origin };

    // Nothing lands: held for one park period, then told how far the row is.
    let asked = Instant::now();
    let reply = ask(&shared, &setup, &pull);
    let held = asked.elapsed();
    let NetMsg::OriginPending { have, need: wanted } = reply else {
        panic!("expected OriginPending, got {}", reply.kind());
    };
    assert_eq!((have, wanted), (need - 1, need));
    assert!(held >= PARK && held < 3 * PARK, "held {held:?}");

    // The row completes under a held pull: the job is handed over then,
    // not when the park period runs out.
    std::thread::scope(|scope| {
        let parked = scope.spawn(|| ask_until_answered(&shared, &setup, &pull));
        std::thread::sleep(PARK / 8);
        assert!(matches!(ask(&shared, &setup, &last), NetMsg::Ack));
        let landed = Instant::now();
        let (reply, answered) = parked.join().unwrap();
        let NetMsg::OriginJob { cts } = reply else {
            panic!("expected the origin's job, got {}", reply.kind());
        };
        assert!(cts.iter().all(Option::is_some) && cts.len() == need as usize);
        let lag = answered.saturating_duration_since(landed);
        assert!(lag < PARK / 4, "answered {lag:?} after the row completed");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn held_check_in_wakes_on_selection() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let c = setup.committee_size as u64;
    let dir = journal_dir("held-checkin");
    let mut st = AggState::recover(Arc::clone(&setup), &dir.join(files::JOURNAL)).unwrap();
    // Mid-intake: every origin but the last has submitted, and the whole
    // committee has checked in with nothing to do yet.
    let submit = |v: u32| {
        let mut rng = StdRng::seed_from_u64(2000 + v as u64);
        let zero = Plaintext::zero(setup.plan.n_ring, setup.plan.t_pt);
        let ct = Ciphertext::encrypt(&setup.keys.public, &zero, &mut rng).unwrap();
        NetMsg::SubmitOrigin {
            origin: v,
            ct: Box::new(ct),
        }
    };
    let last = setup.pop.graph.len() as u32 - 1;
    for v in 0..last {
        assert!(matches!(request(&mut st, &setup, &submit(v)), NetMsg::Ack));
    }
    let check_in = |member: u64| NetMsg::CommitteeCheckIn {
        member,
        seed: [member as u8; 32],
    };
    for m in 1..=c {
        let reply = request(&mut st, &setup, &check_in(m));
        assert!(matches!(reply, NetMsg::CommitteeWait));
    }
    let shared = SharedAgg::new(st, &setup, &AggFaults::default());

    // The last submission seals the aggregate and, everyone being in,
    // selects: member 1's held check-in comes back with its share task.
    std::thread::scope(|scope| {
        let parked = scope.spawn(|| ask_until_answered(&shared, &setup, &check_in(1)));
        std::thread::sleep(PARK / 8);
        assert!(matches!(ask(&shared, &setup, &submit(last)), NetMsg::Ack));
        let selected = Instant::now();
        let (reply, answered) = parked.join().unwrap();
        let NetMsg::CommitteeShareTask { participants, .. } = reply else {
            panic!("expected a share task, got {}", reply.kind());
        };
        assert!(participants.contains(&1));
        let lag = answered.saturating_duration_since(selected);
        assert!(lag < PARK / 4, "answered {lag:?} after selection");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Bursts: pipelined requests on one connection of a served, journalled state
// ---------------------------------------------------------------------------

use mycelium_net::channel::{client_handshake, SecureChannel};
use mycelium_net::server::{Server, ServerConfig};
use mycelium_net::{Identity, NetMetrics};

/// Serves `shared` on loopback and opens one client connection to it.
fn served(shared: &Arc<SharedAgg>, setup: &RoundSetup) -> (Server, SecureChannel) {
    let identity = setup.aggregator_identity();
    let server_pub = identity.public;
    let handler: Arc<dyn Handler> = shared.clone();
    let config = ServerConfig::default();
    let server = Server::spawn("127.0.0.1:0", identity, config, handler, 7).unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let (id, mut rng) = (Identity::derive(7, 100), StdRng::seed_from_u64(11));
    let metrics = NetMetrics::shared();
    let channel = client_handshake(stream, &id, Some(server_pub), &mut rng, 1 << 20, metrics);
    (server, channel.unwrap())
}

/// Writes `requests` back to back while the state is locked, so that the
/// worker — held at the first of them — finds the rest arrived when it
/// looks. Returns when the state was let go: once everything is written,
/// or (socket buffers smaller than the burst, so that the worker has to
/// read on for the writes to finish) after 200 ms.
fn write_burst(shared: &SharedAgg, channel: &mut SecureChannel, requests: &[Vec<u8>]) -> Instant {
    std::thread::scope(|scope| {
        let held = shared.lock();
        let writer = scope.spawn(|| requests.iter().for_each(|raw| channel.send(raw).unwrap()));
        let patience = Instant::now() + Duration::from_millis(200);
        while !writer.is_finished() && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(held);
        Instant::now()
    })
}

#[test]
fn a_burst_of_pushes_shares_one_durable_wait_and_no_ack_precedes_it() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("burst");
    let path = dir.join(files::JOURNAL);
    let st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    let shared = SharedAgg::new(st, &setup, &AggFaults::default());
    let (server, mut channel) = served(&shared, &setup);

    let raws = mutating_requests(&setup, 8, 0);
    write_burst(&shared, &mut channel, &raws);
    let ack = channel.recv().unwrap().to_vec();
    assert!(matches!(
        NetMsg::decode(&ack, &setup.cc).unwrap(),
        NetMsg::Ack
    ));
    // The first Ack is out: all eight pushes (and the checkpoint behind the
    // eighth) were journalled before it, and are on disk.
    {
        let st = shared.lock();
        assert_eq!(st.journal_records(), 9);
        assert_eq!(st.durable_records(), st.journal_records());
        assert!(st.sync_stats().syncs < 8, "{:?}", st.sync_stats().syncs);
    }
    for _ in 1..8 {
        let ack = channel.recv().unwrap().to_vec();
        assert!(matches!(
            NetMsg::decode(&ack, &setup.cc).unwrap(),
            NetMsg::Ack
        ));
    }
    drop(channel);
    server.shutdown();

    // What the burst left on disk replays to the state that answered it.
    let live = shared.lock().digest();
    drop(shared);
    let recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(recovered.journal_records(), 9);
    assert_eq!(recovered.digest(), live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_ack_is_not_held_behind_a_poll_that_parks() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("ack-then-park");
    let st = AggState::recover(Arc::clone(&setup), &dir.join(files::JOURNAL)).unwrap();
    let shared = SharedAgg::new(st, &setup, &AggFaults::default());
    let (server, mut channel) = served(&shared, &setup);

    // One contribution of a row that needs several, then the origin's
    // pull: the pull has nothing to hand over and is held.
    let work = setup.works.iter().find(|w| w.requests.len() >= 2).unwrap();
    let (device, exp) = work.requests[0];
    let sc = setup
        .plan
        .build_contribution(
            &setup.keys,
            device,
            exp,
            false,
            &mut StdRng::seed_from_u64(4000),
        )
        .unwrap();
    let push = NetMsg::PushContrib {
        origin: work.origin,
        slot: 0,
        sc: Box::new(sc),
    };
    let pull = NetMsg::PullOrigin {
        origin: work.origin,
    };
    let released = write_burst(&shared, &mut channel, &[push.encode(), pull.encode()]);

    let ack = channel.recv().unwrap().to_vec();
    let acked = released.elapsed();
    assert!(matches!(
        NetMsg::decode(&ack, &setup.cc).unwrap(),
        NetMsg::Ack
    ));
    assert!(acked < PARK / 4, "the Ack took {acked:?}");
    // It was durable when it left.
    let st = shared.lock();
    assert_eq!(st.durable_records(), st.journal_records());
    drop(st);
    let pending = channel.recv().unwrap().to_vec();
    let held = released.elapsed();
    assert!(matches!(
        NetMsg::decode(&pending, &setup.cc).unwrap(),
        NetMsg::OriginPending { have: 1, .. }
    ));
    assert!(held >= PARK, "the pull was held {held:?}");
    drop(channel);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Ready-row pulls: whichever wanted rows are complete, a batch at a time
// ---------------------------------------------------------------------------

use mycelium_net::round::BATCH;

/// The pushes that fill origin `origin`'s row, slot by slot.
fn row_pushes(setup: &RoundSetup, origin: u32) -> Vec<NetMsg> {
    let requests = &setup.works[origin as usize].requests;
    let pushes = requests.iter().enumerate().map(|(slot, &(device, exp))| {
        let mut rng = StdRng::seed_from_u64(5000 + 16 * origin as u64 + slot as u64);
        let sc = setup
            .plan
            .build_contribution(&setup.keys, device, exp, false, &mut rng)
            .unwrap();
        NetMsg::PushContrib {
            origin,
            slot: slot as u32,
            sc: Box::new(sc),
        }
    });
    pushes.collect()
}

fn fill_row(st: &mut AggState, setup: &RoundSetup, origin: u32) {
    for push in row_pushes(setup, origin) {
        assert!(matches!(request(st, setup, &push), NetMsg::Ack));
    }
}

/// A stand-in submission (what the origin combined does not matter here).
fn submission(setup: &RoundSetup, origin: u32) -> NetMsg {
    let mut rng = StdRng::seed_from_u64(2000 + origin as u64);
    let zero = Plaintext::zero(setup.plan.n_ring, setup.plan.t_pt);
    let ct = Ciphertext::encrypt(&setup.keys.public, &zero, &mut rng).unwrap();
    NetMsg::SubmitOrigin {
        origin,
        ct: Box::new(ct),
    }
}

/// The first `count` origins (in vertex order) whose rows wait for at least
/// one contribution — an empty row is ready from the start.
fn waiting_origins(setup: &RoundSetup, count: usize) -> Vec<u32> {
    let waiting = setup.works.iter().filter(|w| !w.requests.is_empty());
    let origins: Vec<u32> = waiting.map(|w| w.origin).take(count).collect();
    assert_eq!(
        origins.len(),
        count,
        "population has enough waiting origins"
    );
    origins
}

/// The origins a ready-row pull over `want` is handed right now, each row
/// checked to be whole; `None` for `OriginPending`.
fn pull_ready(st: &mut AggState, setup: &RoundSetup, want: &[u32]) -> Option<Vec<u32>> {
    let pull = NetMsg::PullReady {
        want: want.to_vec(),
    };
    match request(st, setup, &pull) {
        NetMsg::ReadyRows { rows } => {
            for (origin, cts) in &rows {
                let need = setup.works[*origin as usize].requests.len();
                assert_eq!(cts.iter().flatten().count(), need, "row {origin} is whole");
            }
            Some(rows.into_iter().map(|(origin, _)| origin).collect())
        }
        NetMsg::OriginPending { .. } => None,
        other => panic!("unexpected pull reply {}", other.kind()),
    }
}

#[test]
fn a_pull_hands_over_whichever_wanted_rows_are_ready_and_journals_nothing() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("ready-rows");
    let path = dir.join(files::JOURNAL);
    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    let want = waiting_origins(&setup, 3);
    let (a, b, c) = (want[0], want[1], want[2]);

    // Rows complete in reverse vertex order: each pull returns what is
    // ready, not what comes first.
    assert_eq!(pull_ready(&mut st, &setup, &want), None);
    fill_row(&mut st, &setup, c);
    assert_eq!(pull_ready(&mut st, &setup, &want), Some(vec![c]));
    fill_row(&mut st, &setup, b);
    assert_eq!(pull_ready(&mut st, &setup, &[a, b]), Some(vec![b]));
    // A row handed over and not yet submitted is handed over again (its
    // origin process may have died holding it), in the order asked.
    assert_eq!(pull_ready(&mut st, &setup, &want), Some(vec![b, c]));
    assert_eq!(pull_ready(&mut st, &setup, &[c, a, b]), Some(vec![c, b]));

    // None of that was journaled, and the journal replays to this state.
    let records = st.journal_records();
    for _ in 0..3 {
        pull_ready(&mut st, &setup, &want);
    }
    assert_eq!(st.journal_records(), records);
    let twin = dir.join("twin.bin");
    std::fs::copy(&path, &twin).unwrap();
    let recovered = AggState::recover(Arc::clone(&setup), &twin).unwrap();
    assert_eq!(recovered.journal_records(), records);
    assert_eq!(recovered.digest(), st.digest());

    // A submitted origin is no longer owed: the pull leaves it out, and a
    // pull over nothing but submitted origins is the empty batch — not
    // `OriginPending`, which says "owed, not ready" (`a` still is).
    let submit = submission(&setup, c);
    assert!(matches!(request(&mut st, &setup, &submit), NetMsg::Ack));
    assert_eq!(pull_ready(&mut st, &setup, &want), Some(vec![b]));
    assert_eq!(pull_ready(&mut st, &setup, &[c]), Some(vec![]));
    assert_eq!(pull_ready(&mut st, &setup, &[a, c]), None);
    let submit = submission(&setup, b);
    assert!(matches!(request(&mut st, &setup, &submit), NetMsg::Ack));
    fill_row(&mut st, &setup, a);
    assert_eq!(pull_ready(&mut st, &setup, &want), Some(vec![a]));
    let submit = submission(&setup, a);
    assert!(matches!(request(&mut st, &setup, &submit), NetMsg::Ack));
    assert_eq!(pull_ready(&mut st, &setup, &want), Some(vec![]));
    // The one-origin pull still hands a submitted origin its row.
    let again = request(&mut st, &setup, &NetMsg::PullOrigin { origin: c });
    assert!(matches!(again, NetMsg::OriginJob { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_pull_hands_over_a_batch_at_the_most() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let mut st = AggState::new(Arc::clone(&setup));
    let want = waiting_origins(&setup, BATCH + 2);
    for &origin in &want {
        fill_row(&mut st, &setup, origin);
    }
    let first = pull_ready(&mut st, &setup, &want).unwrap();
    assert_eq!(first, want[..BATCH]);
    // What the process holds it stops asking for.
    let rest = pull_ready(&mut st, &setup, &want[BATCH..]).unwrap();
    assert_eq!(rest, want[BATCH..]);
}

#[test]
fn one_origin_pulls_encode_the_row_alike_and_a_shard_refuses_both_alike() {
    let spec = RoundSpec {
        agg_shards: 4,
        ..test_spec()
    };
    let setup = Arc::new(build_setup(&spec).unwrap());
    let mut st = AggState::new_shard(Arc::clone(&setup), 0);
    let owned = |v: &u32| mycelium_net::round::shard_of(*v, 4) == 0;
    let all = waiting_origins(&setup, setup.works.len().min(12));
    let (mine, foreign): (Vec<u32>, Vec<u32>) = all.into_iter().partition(owned);
    assert!(mine.len() >= 2 && !foreign.is_empty());
    for &origin in &mine[..2] {
        fill_row(&mut st, &setup, origin);
    }

    // The row's bytes are the same under either reply: `OriginJob` is tag ‖
    // row, a one-origin `ReadyRows` tag ‖ count ‖ origin ‖ row.
    let shared = SharedAgg::new(st, &setup, &AggFaults::default());
    let origin = mine[0];
    let job = shared
        .handle([0; 32], &NetMsg::PullOrigin { origin }.encode())
        .unwrap();
    let want = vec![origin];
    let rows = shared
        .handle([0; 32], &NetMsg::PullReady { want }.encode())
        .unwrap();
    assert_eq!(
        rows[..9],
        [&[23, 1, 0, 0, 0][..], &origin.to_le_bytes()].concat()
    );
    assert_eq!(job[0], 18);
    assert!(job.len() > 90_000, "a row of real ciphertexts");
    assert_eq!(job[1..], rows[9..]);

    // Together the plane's four shards hand a process a batch: this one a
    // quarter of it, however many of its rows are ready.
    let mut st = shared.lock();
    let handed = pull_ready(&mut st, &setup, &mine).unwrap();
    assert_eq!(handed, mine[..BATCH / 4]);

    // An origin of another shard is refused with the one typed error,
    // wherever in `want` it stands and whatever else is ready.
    let refusal = |st: &mut AggState, msg: NetMsg| {
        let raw = msg.encode();
        match st.handle(NetMsg::decode(&raw, &setup.cc).unwrap(), &raw) {
            Err(e @ NetError::Decode(_)) => e.to_string(),
            Err(e) => panic!("untyped refusal {e:?}"),
            Ok(reply) => panic!("a foreign origin was answered {}", reply.kind()),
        }
    };
    let origin = foreign[0];
    let one = refusal(&mut st, NetMsg::PullOrigin { origin });
    let want = vec![mine[0], origin];
    assert_eq!(refusal(&mut st, NetMsg::PullReady { want }), one);
    assert!(one.contains("out of range"), "{one}");
}

#[test]
fn held_ready_row_pull_wakes_on_the_push_that_completes_a_wanted_row() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("held-ready");
    let mut st = AggState::recover(Arc::clone(&setup), &dir.join(files::JOURNAL)).unwrap();
    // Two wanted rows, the later one a single contribution short.
    let want = waiting_origins(&setup, 2);
    let mut row = row_pushes(&setup, want[1]);
    let last = row.pop().unwrap();
    for msg in &row {
        assert!(matches!(request(&mut st, &setup, msg), NetMsg::Ack));
    }
    let shared = SharedAgg::new(st, &setup, &AggFaults::default());
    let pull = NetMsg::PullReady { want: want.clone() };

    // Nothing lands: held for one park period, then "owed, not ready".
    let asked = Instant::now();
    let reply = ask(&shared, &setup, &pull);
    let held = asked.elapsed();
    assert!(matches!(reply, NetMsg::OriginPending { .. }));
    assert!(held >= PARK && held < 3 * PARK, "held {held:?}");

    std::thread::scope(|scope| {
        let parked = scope.spawn(|| ask_until_answered(&shared, &setup, &pull));
        std::thread::sleep(PARK / 8);
        assert!(matches!(ask(&shared, &setup, &last), NetMsg::Ack));
        let landed = Instant::now();
        let (reply, answered) = parked.join().unwrap();
        let NetMsg::ReadyRows { rows } = reply else {
            panic!("expected the ready row, got {}", reply.kind());
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, want[1]);
        let lag = answered.saturating_duration_since(landed);
        assert!(lag < PARK / 4, "answered {lag:?} after the row completed");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_ack_is_not_held_behind_a_ready_row_pull_that_parks() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("ack-then-ready-park");
    let st = AggState::recover(Arc::clone(&setup), &dir.join(files::JOURNAL)).unwrap();
    let shared = SharedAgg::new(st, &setup, &AggFaults::default());
    let (server, mut channel) = served(&shared, &setup);

    // A push that completes nothing, then the pull: it has nothing to hand
    // over and is held — the push's Ack is not.
    let work = setup.works.iter().find(|w| w.requests.len() >= 2).unwrap();
    let push = row_pushes(&setup, work.origin).swap_remove(0);
    let pull = NetMsg::PullReady {
        want: waiting_origins(&setup, 3),
    };
    let released = write_burst(&shared, &mut channel, &[push.encode(), pull.encode()]);

    let ack = channel.recv().unwrap().to_vec();
    let acked = released.elapsed();
    assert!(matches!(
        NetMsg::decode(&ack, &setup.cc).unwrap(),
        NetMsg::Ack
    ));
    assert!(acked < PARK / 4, "the Ack took {acked:?}");
    let st = shared.lock();
    assert_eq!(st.durable_records(), st.journal_records());
    drop(st);
    let pending = channel.recv().unwrap().to_vec();
    let held = released.elapsed();
    assert!(matches!(
        NetMsg::decode(&pending, &setup.cc).unwrap(),
        NetMsg::OriginPending { .. }
    ));
    assert!(held >= PARK, "the pull was held {held:?}");
    drop(channel);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
