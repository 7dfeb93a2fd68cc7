//! Unit costs: the time of one call into one public function of each
//! layer, on real inputs of the `net_hub` round (its contributions,
//! proofs and wire messages). Every trace run reports them, so the
//! attribution of a round (count x unit cost) always has its factors
//! measured by the same process on the same machine.

use std::sync::Arc;
use std::time::Instant;

use mycelium::exec::ExecStats;
use mycelium::plan::{ciphertext_digest, combine_origin, SignedContribution};
use mycelium_bgv::encoding::encode_monomial;
use mycelium_bgv::Ciphertext;
use mycelium_budget::{Composition, Ledger, LedgerEntry};
use mycelium_crypto::sha256::sha256;
use mycelium_crypto::{aead, eddsa};
use mycelium_math::ntt::NttTable;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_math::zq::Modulus;
use mycelium_net::client::{Client, ClientConfig};
use mycelium_net::error::NetError;
use mycelium_net::journal::Journal;
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_population, build_setup, AggState, RoundSetup};
use mycelium_net::server::{Handler, Server, ServerConfig};
use mycelium_net::wire::Writer;
use mycelium_net::Identity;
use mycelium_query::analyze::{analyze, cost_report};
use mycelium_sharing::threshold::{combine, decryption_share};
use mycelium_zkp::argument;
use mycelium_zkp::wellformed::well_formed_witness;

use crate::harness::stats::{median, percentile};
use crate::spec::NET_N;
use crate::workloads::net::round_spec;
use crate::workloads::{Cfg, Layers};

/// Seconds each unit is timed for (at least [`MIN_CALLS`] calls).
const UNIT_SECONDS: f64 = 0.04;
const MIN_CALLS: usize = 5;
/// Echo exchanges behind the channel percentiles: p99 needs ten samples
/// beyond it.
const EXCHANGES: usize = 1000;
const HANDSHAKES: usize = 30;
/// Contributions the fixture carries (whole origins, at least this many).
const FIXTURE_CONTRIBS: usize = 16;

/// Median seconds per call of `f(prepare())`, timing `f` alone.
fn time_prepared<P, T>(mut prepare: impl FnMut() -> P, mut f: impl FnMut(P) -> T) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MIN_CALLS || started.elapsed().as_secs_f64() < UNIT_SECONDS {
        let input = prepare();
        let t = Instant::now();
        std::hint::black_box(f(std::hint::black_box(input)));
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Median seconds per call of `f`.
fn time<T>(mut f: impl FnMut() -> T) -> f64 {
    time_prepared(|| (), |()| f())
}

const US: f64 = 1e6;

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e6
}

/// Real inputs of the round: the contributions of its first origins, as
/// values and as wire messages, and one origin's combined output.
struct Fixture {
    setup: Arc<RoundSetup>,
    /// The first contribution of the round.
    contribution: SignedContribution,
    /// The `PushContrib` requests of the round's first origins (whole
    /// origins, [`FIXTURE_CONTRIBS`] requests at least), as devices send
    /// them.
    push_raw: Vec<Vec<u8>>,
    /// `(origin, combined row)` of each of those origins.
    origin_out: Vec<(u32, Ciphertext)>,
}

impl Fixture {
    fn build(cfg: &Cfg) -> Result<Fixture, String> {
        let spec = round_spec(cfg.seed, cfg.population(NET_N), 1);
        let setup = Arc::new(build_setup(&spec).map_err(|e| e.to_string())?);
        let rng = &mut StdRng::seed_from_u64(cfg.seed).with_stream(0x0B17_C057);
        let mut first = None;
        let mut push_raw = Vec::new();
        let mut origin_out = Vec::new();
        for work in &setup.works {
            if push_raw.len() >= FIXTURE_CONTRIBS {
                break;
            }
            let mut cts = Vec::with_capacity(work.requests.len());
            for (slot, &(device, exp)) in work.requests.iter().enumerate() {
                let sc = setup
                    .plan
                    .build_contribution(&setup.keys, device, exp, false, rng)
                    .map_err(|e| e.to_string())?;
                cts.push(sc.ct.clone());
                push_raw.push(push_contrib(work.origin, slot as u32, &sc).encode());
                first.get_or_insert(sc);
            }
            let out = combine_origin(
                &setup.plan,
                &setup.keys,
                work,
                &cts,
                &mut ExecStats::default(),
                rng,
            )
            .map_err(|e| e.to_string())?;
            origin_out.push((work.origin, out));
        }
        Ok(Fixture {
            setup,
            contribution: first.ok_or("the population has no edges to take contributions from")?,
            push_raw,
            origin_out,
        })
    }

    fn decode(&self, raw: &[u8]) -> NetMsg {
        NetMsg::decode(raw, &self.setup.cc).expect("the fixture's own encoding")
    }
}

fn push_contrib(origin: u32, slot: u32, sc: &SignedContribution) -> NetMsg {
    NetMsg::PushContrib {
        origin,
        slot,
        sc: Box::new(sc.clone()),
    }
}

/// Measures every unit cost into `out`. `certificate` is a sealed round
/// certificate when the workload has one (`cert.*` stay 0 otherwise).
pub fn measure(cfg: &Cfg, certificate: Option<&[u8]>, out: &mut Layers) -> Result<(), String> {
    let fx = Fixture::build(cfg)?;
    let setup = &fx.setup;
    let rng = &mut StdRng::seed_from_u64(cfg.seed).with_stream(0x0B17_0001);
    let bgv = &setup.params.bgv;
    let sc = &fx.contribution;
    let frame = &fx.push_raw[0];

    // math + bgv
    let prime = Modulus::new_prime(bgv.chain_primes()[0]).ok_or("chain prime")?;
    let ntt = NttTable::new(prime, bgv.n).ok_or("no NTT for the chain prime")?;
    let mut poly: Vec<u64> = (0..bgv.n as u64).collect();
    out.set(
        "math.ntt_roundtrip_us",
        US * time(|| {
            ntt.forward(&mut poly);
            ntt.inverse(&mut poly);
        }),
    );
    let pt = encode_monomial(3, bgv.n, bgv.plaintext_modulus).map_err(|e| e.to_string())?;
    let fresh = |rng: &mut StdRng| Ciphertext::encrypt(&setup.keys.public, &pt, rng);
    out.set("bgv.encrypt_us", US * time(|| fresh(rng)));
    let a = fresh(rng).map_err(|e| e.to_string())?;
    let b = fresh(rng).map_err(|e| e.to_string())?;
    out.set("bgv.add_us", US * time(|| a.add(&b)));
    out.set("bgv.mul_us", US * time(|| a.mul(&b)));
    let product = a.mul(&b).map_err(|e| e.to_string())?;
    out.set(
        "bgv.relinearize_us",
        US * time(|| product.relinearize(&setup.keys.relin)),
    );
    let relinearized = product
        .relinearize(&setup.keys.relin)
        .map_err(|e| e.to_string())?;
    out.set(
        "bgv.mod_switch_us",
        US * time(|| relinearized.mod_switch_down()),
    );

    // zkp: what a device adds to an encryption, and what the aggregator
    // checks per contribution.
    let circuit = setup
        .plan
        .circuit
        .as_ref()
        .ok_or("the round has proofs on")?;
    let span = setup.plan.analysis.total_span;
    let mut coeffs = vec![0u64; span];
    coeffs[1] = 1;
    out.set(
        "zkp.prove_us",
        US * time(|| {
            let witness = well_formed_witness(circuit, &coeffs);
            argument::prove_unchecked(&circuit.cs, &witness, &ciphertext_digest(&sc.ct), 48)
        }),
    );
    out.set(
        "zkp.verify_us",
        US * time(|| setup.plan.verify_contribution(sc)),
    );
    let mut w = Writer::new();
    mycelium_net::codec::encode_proof(&mut w, sc.proof.as_ref().ok_or("proof")?);
    out.set("zkp.proof_bytes", w.finish().len() as f64);

    // crypto, at one contribution frame
    let key = [7u8; 32];
    let sealed = aead::seal(&key, 1, frame);
    out.set(
        "crypto.aead_seal_mb_s",
        mb_per_s(frame.len(), time(|| aead::seal(&key, 1, frame))),
    );
    out.set(
        "crypto.aead_open_mb_s",
        mb_per_s(frame.len(), time(|| aead::open(&key, 1, &sealed))),
    );
    out.set(
        "crypto.sha256_mb_s",
        mb_per_s(frame.len(), time(|| sha256(frame))),
    );
    let secret = [9u8; 32];
    let public = eddsa::public_key(&secret);
    let transcript = sha256(frame);
    let sig = eddsa::sign(&secret, &transcript);
    out.set(
        "crypto.ed25519_sign_us",
        US * time(|| eddsa::sign(&secret, &transcript)),
    );
    out.set(
        "crypto.ed25519_verify_us",
        US * time(|| eddsa::verify(&public, &transcript, &sig)),
    );

    // sharing, on a row at the aggregation level
    let (_, row) = &fx.origin_out[0];
    let participants: Vec<u64> = (1..=setup.threshold as u64 + 1).collect();
    let share = |member: u64, rng: &mut StdRng| {
        decryption_share(row, &setup.key_shares, member, &participants, 1 << 10, rng)
    };
    out.set("sharing.decryption_share_us", US * time(|| share(1, rng)));
    let shares = participants
        .iter()
        .map(|&m| share(m, rng))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    out.set(
        "sharing.combine_us",
        US * time(|| combine(row, &shares, setup.threshold)),
    );

    // cert
    if let Some(cert) = certificate {
        out.set(
            "cert.verify_us",
            US * time(|| mycelium_cert::verify_bytes(cert)),
        );
        out.set("cert.bytes", cert.len() as f64);
    }

    // budget, query, graph, set-up
    let schema = &setup.params.schema;
    let report =
        cost_report(&setup.query, schema, setup.params.epsilon, 0.0).map_err(|e| e.to_string())?;
    let mut ledger = Ledger::new("bench", 1e9, Composition::Basic).map_err(|e| e.to_string())?;
    let mut round = 0;
    out.set(
        "budget.decide_apply_us",
        US * time(|| {
            round += 1;
            let op = ledger.decide(&LedgerEntry::from_report(round, &report))?;
            ledger.apply(&op)
        }),
    );
    out.set(
        "query.analyze_us",
        US * time(|| analyze(&setup.query, schema)),
    );
    out.set(
        "graph.population_ms",
        1e3 * time(|| build_population(&setup.spec)),
    );
    out.set(
        "setup.build_setup_ms",
        1e3 * time(|| build_setup(&setup.spec)),
    );

    // net: codec
    out.set(
        "net.codec_encode_contrib_us",
        US * time_prepared(|| push_contrib(0, 0, sc), |msg| msg.encode()),
    );
    out.set(
        "net.codec_decode_contrib_us",
        US * time(|| NetMsg::decode(frame, &setup.cc)),
    );
    out.set("net.contrib_bytes", frame.len() as f64);

    channel(cfg, frame, out)?;
    journal(cfg, frame, out)?;
    agg_handle(cfg, &fx, out)
}

/// One client against an echo-acknowledge server on loopback: the cost
/// of a fresh authenticated connection, and of pushing one contribution
/// frame and reading its `Ack`, as a device does.
fn channel(cfg: &Cfg, frame: &[u8], out: &mut Layers) -> Result<(), String> {
    let identity = Identity::derive(cfg.seed, 0);
    let server_key = identity.public;
    let handler: Arc<dyn Handler> =
        Arc::new(|_peer: [u8; 32], _req: &[u8]| -> Result<Vec<u8>, NetError> { Ok(vec![1]) });
    let server = Server::spawn(
        "127.0.0.1:0",
        identity,
        ServerConfig::default(),
        handler,
        cfg.seed,
    )
    .map_err(|e| format!("echo server: {e}"))?;
    let addr = server.local_addr();
    let config = || ClientConfig::new(Identity::derive(cfg.seed, 100), Some(server_key));
    let result = (|| -> Result<(), NetError> {
        let mut handshakes = Vec::with_capacity(HANDSHAKES);
        for i in 0..HANDSHAKES {
            let mut client = Client::new(addr, config(), StdRng::seed_from_u64(i as u64));
            let t = Instant::now();
            client.request("hs", b"x")?;
            handshakes.push(t.elapsed().as_secs_f64());
        }
        out.set("net.channel_handshake_p50_us", US * median(&handshakes));
        let mut client = Client::new(addr, config(), StdRng::seed_from_u64(cfg.seed));
        client.request("warm", frame)?;
        let exchanges = if cfg.smoke { EXCHANGES / 10 } else { EXCHANGES };
        let mut latency = Vec::with_capacity(exchanges);
        for _ in 0..exchanges {
            let t = Instant::now();
            client.request("push", frame)?;
            latency.push(t.elapsed().as_secs_f64());
        }
        out.set(
            "net.channel_exchange_96k_p50_us",
            US * percentile(&latency, 50.0),
        );
        out.set(
            "net.channel_exchange_96k_p99_us",
            US * percentile(&latency, 99.0),
        );
        Ok(())
    })();
    server.shutdown();
    result.map_err(|e| format!("echo exchange: {e}"))
}

/// The journal on this host's file system: one record of a contribution
/// frame appended and made durable, appended only, and read back.
fn journal(cfg: &Cfg, frame: &[u8], out: &mut Layers) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| e.to_string())?;
    let path = cfg.scratch.join("unit-journal.bin");
    let binding = sha256(b"myc_bench unit journal");
    let result = (|| -> Result<(), mycelium_net::JournalError> {
        let mut j = Journal::create(&path, &binding)?;
        out.set(
            "net.journal_append_commit_96k_us",
            US * time(|| j.append(frame).and_then(|()| j.commit())),
        );
        out.set(
            "net.journal_append_nosync_96k_us",
            US * time(|| j.append(frame)),
        );
        j.commit()?;
        let records = j.record_count() as usize;
        drop(j);
        let secs = time(|| Journal::open(&path, &binding).map(|(_, records)| records.len()));
        out.set(
            "net.journal_replay_mb_s",
            mb_per_s(records * frame.len(), secs),
        );
        Ok(())
    })();
    let _ = std::fs::remove_file(&path);
    result.map_err(|e| format!("unit journal: {e}"))
}

/// The aggregator's request handling, on fresh states so every request
/// is a first write: in memory, and with the journal under it.
fn agg_handle(cfg: &Cfg, fx: &Fixture, out: &mut Layers) -> Result<(), String> {
    let fresh = || AggState::new(Arc::clone(&fx.setup));
    // Each pass pushes every fixture contribution into a fresh state.
    let push_all = |st: &mut AggState| -> Result<Vec<f64>, String> {
        fx.push_raw
            .iter()
            .map(|raw| {
                let msg = fx.decode(raw);
                let t = Instant::now();
                st.handle(msg, raw).map_err(|e| e.to_string())?;
                Ok(t.elapsed().as_secs_f64())
            })
            .collect()
    };
    let mut push = Vec::new();
    let (mut pull, mut submit) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let mut st = fresh();
        push.extend(push_all(&mut st)?);
        for (origin, row) in &fx.origin_out {
            let msg = NetMsg::PullOrigin { origin: *origin };
            let raw = msg.encode();
            let t = Instant::now();
            let reply = st.handle(msg, &raw).map_err(|e| e.to_string())?;
            pull.push(t.elapsed().as_secs_f64());
            if !matches!(reply, NetMsg::OriginJob { .. }) {
                return Err("a fully pushed origin was not handed its job".into());
            }
            let msg = NetMsg::SubmitOrigin {
                origin: *origin,
                ct: Box::new(row.clone()),
            };
            let raw = msg.encode();
            let t = Instant::now();
            st.handle(msg, &raw).map_err(|e| e.to_string())?;
            submit.push(t.elapsed().as_secs_f64());
        }
    }
    out.set("net.agg_handle_push_contrib_us", US * median(&push));
    out.set("net.agg_handle_pull_origin_us", US * median(&pull));
    out.set("net.agg_handle_submit_origin_us", US * median(&submit));

    let path = cfg.scratch.join("unit-agg-journal.bin");
    let _ = std::fs::remove_file(&path);
    let journalled = AggState::recover(Arc::clone(&fx.setup), &path)
        .map_err(|e| e.to_string())
        .and_then(|mut st| push_all(&mut st));
    let _ = std::fs::remove_file(&path);
    out.set(
        "net.agg_handle_push_contrib_wal_us",
        US * median(&journalled?),
    );
    Ok(())
}
