//! Structure-aware decode fuzzing of every format the one byte codec
//! carries: wire messages, journal records, metrics files, outcome files,
//! round certificates, ledger ops and composition rules.
//!
//! Each format gets a deterministic corpus of valid encodings; ring elements
//! live on a degree-16 ring over the first three primes of a preset (each
//! preset's, for the wire messages: rows packed at 40, 45 and 55 bits), so
//! every encoding stays small. One seeded mutator derives the inputs:
//! every truncation, a byte flipped at every offset, four bytes overwritten
//! at every offset with `u32::MAX` and with one more than the bytes left
//! behind them (the count prefixes the reader must bound), and the prefix
//! of one valid encoding spliced onto the suffix of another. For every
//! input the decoder must not panic, must fail only with its crate's typed
//! codec error, and whatever it accepts must re-encode to exactly the bytes
//! it was given.
//!
//! The JSON artifacts a round writes (`NET_round.json`, the simulator's
//! metrics, a `netfaults` ledger, a chaos report and `ROUND_cert.json`) go
//! through the same mutator into `json::parse`: it must never panic, it
//! fails only with its typed `ParseError`, and every value it accepts must
//! render to text that parses back to that value.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mycelium::exec::NoisyGroup;
use mycelium::plan::SignedContribution;
use mycelium_bgv::{BgvParams, Ciphertext};
use mycelium_budget::{BudgetError, Composition, LedgerEntry, LedgerOp, QueryCost};
use mycelium_cert::{
    build_segments, noise_commitment, origin_leaf, render_json, sign_transcript, CertSpec,
    CommitteeSig, OriginCommit, ReleasedGroup, RoundCertificate, SlotStatus,
};
use mycelium_crypto::codec::{Reader, Writer};
use mycelium_crypto::merkle::InclusionProof;
use mycelium_math::json;
use mycelium_math::rng::{RngCore, SeedableRng, StdRng};
use mycelium_math::rns::{Representation, RnsContext, RnsPoly};
use mycelium_net::chaos::{report_json, ChaosOutcome, ChaosVerdict};
use mycelium_net::codec::CodecCtx;
use mycelium_net::error::NetError;
use mycelium_net::metrics::NetMetrics;
use mycelium_net::netchaos::FaultLedger;
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{decode_outcome, encode_outcome, RoundOutcome};
use mycelium_query::eval::{GroupResult, PlainResult};
use mycelium_sharing::DecryptionShare;
use mycelium_simnet::RoundMetrics;
use mycelium_zkp::argument::{Opening, Proof};

/// Decodes bytes of one format and re-encodes what it got, or renders the
/// crate's typed codec error. Any other failure panics.
type Roundtrip<'a> = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, String> + 'a>;
/// A format's encodings: the corpus it must round-trip, or those it refuses.
type Encodings = Vec<Vec<u8>>;

/// Splice points drawn per ordered pair of a format's encodings.
const SPLICES_PER_PAIR: usize = 32;
/// Journal record tags whose body is a codec payload (`round/agg.rs`).
const REC_REQ: u8 = 1;
const REC_BUDGET: u8 = 9;

fn net_msg(cc: &CodecCtx) -> Roundtrip<'_> {
    Box::new(move |b| match NetMsg::decode(b, cc) {
        Ok(msg) => Ok(msg.encode()),
        Err(NetError::Decode(e)) => Err(e),
        Err(e) => panic!("untyped NetMsg failure {e:?}"),
    })
}

fn ledger_op(b: &[u8]) -> Result<Vec<u8>, String> {
    match LedgerOp::decode(b) {
        Ok(op) => Ok(op.encode()),
        Err(BudgetError::Codec(e)) => Err(e.to_string()),
        Err(e) => panic!("untyped LedgerOp failure {e:?}"),
    }
}

fn composition(b: &[u8]) -> Result<Vec<u8>, String> {
    let mut r = Reader::new(b);
    let decoded = Composition::decode(&mut r).and_then(|c| Ok(r.end().map(|()| c)?));
    match decoded {
        Ok(c) => {
            let mut w = Writer::new();
            c.encode(&mut w);
            Ok(w.finish())
        }
        Err(BudgetError::Codec(e)) => Err(e.to_string()),
        Err(e) => panic!("untyped Composition failure {e:?}"),
    }
}

fn journal_record(cc: &CodecCtx) -> Roundtrip<'_> {
    let msg = net_msg(cc);
    Box::new(move |b| {
        let (&tag, body) = b.split_first().ok_or("empty record")?;
        let body = match tag {
            REC_REQ => msg(body)?,
            REC_BUDGET => ledger_op(body)?,
            _ => return Err(format!("record tag {tag} carries no codec payload")),
        };
        Ok([&[tag][..], &body].concat())
    })
}

fn metrics(b: &[u8]) -> Result<Vec<u8>, String> {
    match NetMetrics::decode(b) {
        Ok(m) => Ok(m.encode()),
        Err(NetError::Decode(e)) => Err(e),
        Err(e) => panic!("untyped NetMetrics failure {e:?}"),
    }
}

fn outcome(b: &[u8]) -> Result<Vec<u8>, String> {
    match decode_outcome(b) {
        Ok(out) => Ok(encode_outcome(&out)),
        Err(NetError::Decode(e)) => Err(e),
        Err(e) => panic!("untyped outcome failure {e:?}"),
    }
}

fn certificate(b: &[u8]) -> Result<Vec<u8>, String> {
    // Every `CertError` is typed: bad magic, bad version, or the codec's.
    RoundCertificate::decode(b)
        .map(|c| c.encode())
        .map_err(|e| e.to_string())
}

/// A degree-16 ring over the first three primes of `params`' chain.
fn codec_ctx(params: &BgvParams) -> CodecCtx {
    let ctx = RnsContext::new(16, &params.chain_primes()[..3]).expect("a small ring");
    CodecCtx::with_context(ctx, params)
}

fn poly(cc: &CodecCtx, level: usize, rng: &mut StdRng) -> RnsPoly {
    let degree = cc.ctx.degree();
    let rows = cc.ctx.moduli()[..level].iter().map(|m| {
        // The largest residue in the first lane, random ones elsewhere.
        let top = m.value() - 1;
        let mut row: Vec<u64> = (0..degree).map(|_| rng.next_u64() % m.value()).collect();
        row[0] = top;
        row
    });
    RnsPoly::from_residues(Arc::clone(&cc.ctx), Representation::Ntt, rows.collect())
}

fn ciphertext(cc: &CodecCtx, level: usize, rng: &mut StdRng) -> Ciphertext {
    let parts = (0..2).map(|_| poly(cc, level, rng)).collect();
    Ciphertext::from_parts(parts, cc.params.clone())
}

/// Submissions of ciphertexts no round sums — a three-part product, and a
/// part in coefficient representation — whose decoding must fail typed.
fn misshapen_corpus(cc: &CodecCtx, rng: &mut StdRng) -> Encodings {
    let product: Vec<RnsPoly> = (0..3).map(|_| poly(cc, 2, rng)).collect();
    let mut coefficient: Vec<RnsPoly> = (0..2).map(|_| poly(cc, 2, rng)).collect();
    let rows = coefficient[1].residues().to_vec();
    coefficient[1] = RnsPoly::from_residues(Arc::clone(&cc.ctx), Representation::Coefficient, rows);
    [product, coefficient]
        .into_iter()
        .map(|parts| {
            let ct = Ciphertext::from_parts(parts, cc.params.clone());
            NetMsg::SubmitOrigin {
                origin: 4,
                ct: Box::new(ct),
            }
            .encode()
        })
        .collect()
}

fn proof() -> Proof {
    let opening = |var: usize| Opening {
        var,
        value: var as u64 % 2,
        salt: [var as u8; 32],
        proof: InclusionProof {
            siblings: vec![[1; 32], [2; 32]],
        },
    };
    Proof {
        witness_root: [9; 32],
        openings: vec![opening(4), opening(11)],
        checks: 80,
    }
}

/// One encoding of every `NetMsg` variant.
fn net_corpus(cc: &CodecCtx, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut ct = |level| Box::new(ciphertext(cc, level, rng));
    let contribution = |ct: Box<Ciphertext>, proof| {
        Box::new(SignedContribution {
            device: 5,
            ct: *ct,
            proof,
        })
    };
    let msgs = [
        NetMsg::PushContrib {
            origin: 3,
            slot: 1,
            sc: contribution(ct(3), Some(proof())),
        },
        NetMsg::PushContrib {
            origin: 2,
            slot: 0,
            sc: contribution(ct(3), None),
        },
        NetMsg::PullOrigin { origin: 3 },
        NetMsg::PullReady {
            want: vec![7, 0, 93],
        },
        NetMsg::SubmitOrigin {
            origin: 4,
            ct: ct(2),
        },
        NetMsg::CommitteeCheckIn {
            member: 2,
            seed: [7; 32],
        },
        NetMsg::PushShare {
            member: 2,
            round: 1,
            share: Box::new(DecryptionShare {
                member: 2,
                d: ct(1).parts()[0].clone(),
            }),
        },
        NetMsg::PullStatus,
        NetMsg::ShardRoot {
            shard: 1,
            rejected: vec![3, 9],
            commits: vec![
                OriginCommit {
                    origin: 4,
                    leaf: [4; 32],
                    accepted: 3,
                    rejected: 1,
                },
                OriginCommit {
                    origin: 6,
                    leaf: [6; 32],
                    accepted: 2,
                    rejected: 0,
                },
            ],
            root: ct(1),
        },
        NetMsg::PullShardStatus { shard: 2 },
        NetMsg::PushCertSig {
            member: 3,
            sig: [0xA5; 64],
        },
        NetMsg::Ack,
        NetMsg::OriginPending { have: 2, need: 5 },
        NetMsg::OriginJob {
            cts: vec![Some(*ct(2)), None],
        },
        NetMsg::ReadyRows {
            rows: vec![(4, vec![None, Some(*ct(2))]), (1, vec![])],
        },
        NetMsg::CommitteeWait,
        NetMsg::CommitteeShareTask {
            round: 1,
            participants: vec![1, 2, 3],
            ct: ct(1),
        },
        NetMsg::CertSignTask {
            transcript: [0x42; 32],
        },
        NetMsg::Finished,
    ];
    msgs.iter().map(NetMsg::encode).collect()
}

fn ledger_ops() -> Vec<LedgerOp> {
    let entry = |round| LedgerEntry {
        round,
        query: format!("Q{round}"),
        cost: QueryCost {
            epsilon: 0.5,
            delta: -0.0,
            sensitivity: 2.0,
        },
    };
    vec![
        LedgerOp::Admit(entry(0)),
        LedgerOp::Charge { round: 0 },
        LedgerOp::Refund { round: 3 },
        LedgerOp::Refuse {
            entry: entry(5),
            remaining: 0.25,
        },
    ]
}

fn metrics_corpus() -> Vec<Vec<u8>> {
    let mut m = NetMetrics {
        handshakes: 2,
        retries: 3,
        ..NetMetrics::default()
    };
    m.handshake_micros.record(120);
    m.sync_wait_micros.record(480);
    m.note_sent("Ack", 1, 37);
    m.note_sent("PushContrib", 1000, 1036);
    m.note_recv("Ack", 1, 37);
    m.note_latency("PushContrib", 250);
    m.note_latency("PushContrib", 90);
    m.note_latency("SubmitOrigin", 40);
    vec![m.encode(), NetMetrics::default().encode()]
}

fn outcome_corpus() -> Vec<Vec<u8>> {
    let exact = PlainResult {
        groups: vec![GroupResult {
            label: "all".into(),
            histogram: vec![3, 1, 0],
            total_pairs: 4,
            total_clipped_sum: 1,
        }],
    };
    let ok = Ok(RoundOutcome {
        exact,
        released: vec![NoisyGroup {
            label: "all".into(),
            histogram: vec![2, -1, 0],
        }],
        rejected: vec![5, 8],
    });
    let err = Err("committee unavailable".to_string());
    vec![encode_outcome(&ok), encode_outcome(&err)]
}

/// A small certificate, sealed and signed as a round seals it.
fn sealed_certificate() -> Vec<u8> {
    let spec = CertSpec {
        seed: 42,
        devices: 4,
        query: "Q4".into(),
        with_proofs: true,
    };
    let statuses = [
        SlotStatus::Accepted([1; 32]),
        SlotStatus::Rejected,
        SlotStatus::Accepted([3; 32]),
        SlotStatus::Missing,
    ];
    let leaves: Vec<_> = (0u32..)
        .zip(statuses)
        .map(|(i, s)| origin_leaf(i, &[(i, s)]))
        .collect();
    let counts = [(1, 0), (0, 1), (1, 0), (0, 0)];
    let (segments, contrib_root) = build_segments(&leaves, &counts);
    let mut cert = RoundCertificate {
        spec_digest: spec.digest(),
        spec,
        committee: 5,
        threshold: 2,
        share_round: 0,
        participants: vec![1, 2, 3],
        leaves,
        segments,
        contrib_root,
        rejected: vec![1],
        aggregate_digest: [3; 32],
        noise_commitment: noise_commitment(&[[1; 32], [2; 32]]),
        charged_epsilon_bits: 1.0f64.to_bits(),
        released: vec![ReleasedGroup {
            label: "infected".into(),
            histogram: vec![5, -1, 0],
        }],
        transcript: [0; 32],
        signatures: Vec::new(),
    };
    cert.transcript = cert.compute_transcript();
    cert.signatures = (1..=3)
        .map(|member| CommitteeSig {
            member,
            sig: sign_transcript(cert.spec.seed, member, &cert.transcript),
        })
        .collect();
    cert.encode()
}

/// Every JSON artifact of a round, as its file holds it.
fn json_corpus() -> Vec<Vec<u8>> {
    let metrics = NetMetrics::decode(&metrics_corpus()[0]).expect("a valid encoding");
    let mut sim = RoundMetrics::new(2);
    sim.actors[0].sent_msgs = 3;
    sim.phase_done("submit", 40);
    sim.phase_done("submit", 12);
    let ledger = FaultLedger {
        resets: 2,
        flips: 1,
        ..FaultLedger::default()
    };
    let run = ChaosOutcome {
        seed: 4,
        drill: false,
        shards: 4,
        verdict: ChaosVerdict::Exact,
        agg_incarnations: 2,
        kills: vec!["aggregator: \"abort\"\tafter\n2 PushShare \\ é".into()],
        injected: ledger,
        reconciled: "ok".into(),
    };
    let cert = sealed_certificate();
    let decoded = RoundCertificate::decode(&cert).expect("a sealed certificate");
    let docs = [metrics.to_json(), sim.to_json(), ledger.to_json()];
    let mut corpus: Vec<Vec<u8>> = docs.iter().map(|d| format!("{d}\n").into()).collect();
    corpus.push(report_json(&[run]).into());
    corpus.push(render_json(&decoded, &cert).into());
    corpus
}

/// Every input the mutator derives from `corpus`, each with a label.
fn mutations(corpus: &[Vec<u8>], rng: &mut StdRng) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (k, b) in corpus.iter().enumerate() {
        for at in 0..b.len() {
            out.push((format!("#{k} cut at {at}"), b[..at].to_vec()));
            let mut flipped = b.clone();
            flipped[at] ^= 1 + (rng.next_u64() % 255) as u8;
            out.push((format!("#{k} flip at {at}"), flipped));
            if at + 4 <= b.len() {
                let beyond = (b.len() - at - 4 + 1) as u32;
                for word in [u32::MAX, beyond] {
                    let mut claim = b.clone();
                    claim[at..at + 4].copy_from_slice(&word.to_le_bytes());
                    out.push((format!("#{k} word {word} at {at}"), claim));
                }
            }
        }
        for (j, other) in corpus.iter().enumerate().filter(|&(j, _)| j != k) {
            for _ in 0..SPLICES_PER_PAIR {
                let head = (rng.next_u64() % (b.len() as u64 + 1)) as usize;
                let tail = (rng.next_u64() % (other.len() as u64 + 1)) as usize;
                let spliced = [&b[..head], &other[tail..]].concat();
                out.push((format!("#{k}[..{head}] + #{j}[{tail}..]"), spliced));
            }
        }
    }
    out
}

/// Runs one format: its corpus must round-trip, its refused encodings must
/// fail typed, and every mutation of either must fail typed or round-trip.
/// Some mutations must land on each side, or the mutator explored nothing.
fn fuzz(
    name: &str,
    corpus: &[Vec<u8>],
    refused: &[Vec<u8>],
    roundtrip: &Roundtrip,
    rng: &mut StdRng,
) {
    for (k, b) in corpus.iter().enumerate() {
        assert_eq!(roundtrip(b).as_ref(), Ok(b), "{name} corpus #{k}");
    }
    for (k, b) in refused.iter().enumerate() {
        assert!(roundtrip(b).is_err(), "{name} refused #{k} decoded");
    }
    let inputs = mutations(&[corpus, refused].concat(), rng);
    let mut decoded = 0;
    for (what, b) in &inputs {
        match catch_unwind(AssertUnwindSafe(|| roundtrip(b))) {
            Err(_) => panic!("{name}: {what} panicked the decoder"),
            Ok(Ok(again)) => {
                assert!(
                    again == *b,
                    "{name}: {what} decoded but re-encoded differently"
                );
                decoded += 1;
            }
            Ok(Err(_typed)) => {}
        }
    }
    let n = inputs.len();
    assert!(
        0 < decoded && decoded < n,
        "{name}: {decoded} of {n} decoded"
    );
}

#[test]
fn every_format_decodes_canonically_or_fails_typed() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    // Residue rows packed at 40, 45 and 55 bits.
    let presets = [
        ("NetMsg at test_small", BgvParams::test_small()),
        ("NetMsg at test_medium", BgvParams::test_medium()),
        ("NetMsg at paper_sized", BgvParams::paper_sized()),
    ];
    let ccs = presets.map(|(name, params)| (name, codec_ctx(&params)));
    let mut formats: Vec<(&str, Encodings, Encodings, Roundtrip)> = Vec::new();
    for (name, cc) in &ccs {
        let (corpus, refused) = (net_corpus(cc, &mut rng), misshapen_corpus(cc, &mut rng));
        formats.push((name, corpus, refused, net_msg(cc)));
    }
    let cc = &ccs[0].1;
    let (push, submit) = (&formats[0].1[0], &formats[0].1[4]);
    let ops: Vec<Vec<u8>> = ledger_ops().iter().map(LedgerOp::encode).collect();
    let records = vec![
        [&[REC_REQ][..], push].concat(),
        [&[REC_REQ][..], submit].concat(),
        [&[REC_BUDGET][..], &ops[0]].concat(),
        [&[REC_BUDGET][..], &ops[3]].concat(),
    ];
    let compositions = [Composition::Basic, Composition::Advanced { delta: 1e-6 }].map(|c| {
        let mut w = Writer::new();
        c.encode(&mut w);
        w.finish()
    });
    let none = Vec::new;
    formats.push(("journal record", records, none(), journal_record(cc)));
    formats.push(("NetMetrics", metrics_corpus(), none(), Box::new(metrics)));
    formats.push(("outcome", outcome_corpus(), none(), Box::new(outcome)));
    formats.push((
        "certificate",
        vec![sealed_certificate()],
        none(),
        Box::new(certificate),
    ));
    formats.push(("LedgerOp", ops, none(), Box::new(ledger_op)));
    let compositions = compositions.to_vec();
    formats.push(("Composition", compositions, none(), Box::new(composition)));
    for (name, corpus, refused, roundtrip) in &formats {
        fuzz(name, corpus, refused, roundtrip, &mut rng);
    }
}

#[test]
fn every_json_artifact_parses_back_or_fails_typed() {
    let mut rng = StdRng::seed_from_u64(0x150A);
    let corpus = json_corpus();
    for (k, doc) in corpus.iter().enumerate() {
        // Each artifact is exactly what the writer renders of what the
        // reader reads from it.
        let text = std::str::from_utf8(doc).expect("artifacts are UTF-8");
        let value = json::parse(text).unwrap_or_else(|e| panic!("corpus #{k}: {e}"));
        assert_eq!(format!("{value}\n"), text, "corpus #{k}");
    }
    let inputs = mutations(&corpus, &mut rng);
    let mut parsed = 0;
    for (what, b) in &inputs {
        // A mutant that is no longer UTF-8 never reaches a `&str` reader.
        let Ok(text) = std::str::from_utf8(b) else {
            continue;
        };
        // The error type is `ParseError`; a panic is the only other exit.
        match catch_unwind(|| json::parse(text)) {
            Err(_) => panic!("{what} panicked the reader"),
            Ok(Ok(value)) => {
                let again = json::parse(&value.to_string());
                assert_eq!(
                    again,
                    Ok(value),
                    "{what}: rendered, it reads back otherwise"
                );
                parsed += 1;
            }
            Ok(Err(_typed)) => {}
        }
    }
    let n = inputs.len();
    assert!(0 < parsed && parsed < n, "JSON: {parsed} of {n} parsed");
}
