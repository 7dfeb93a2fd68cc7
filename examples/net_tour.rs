//! A guided tour of the real-network transport plane.
//!
//! ```text
//! cargo run --release --example net_tour
//! ```
//!
//! Mirrors `simnet_tour`, one layer lower: instead of simulated actors
//! on a virtual clock, real sockets on loopback. Two stops:
//!
//! 1. an authenticated-encryption channel (x25519 handshake, sealed
//!    frames) carrying an echo exchange;
//! 2. a miniature encrypted-aggregation service — BGV ciphertexts
//!    encoded with the wire codec, homomorphically summed server-side —
//!    the histogram trick of §4.3 over actual TCP.
//!
//! What the channel does under an adversary in the middle — torn
//! frames, swallowed acks, a flipped ciphertext bit — is
//! `netchaos_tour`'s subject.
//! The full multi-process query round (device/origin/committee/driver
//! processes) lives in the `net_round` binary:
//! `cargo run --release --bin net_round -- driver --n 24 --out /tmp/nr`.

use std::sync::{Arc, Mutex};

use mycelium_bgv::encoding::encode_monomial;
use mycelium_bgv::{BgvParams, Ciphertext, KeySet};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::client::{Client, ClientConfig};
use mycelium_net::codec::{decode_ciphertext, encode_ciphertext, CodecCtx};
use mycelium_net::error::NetError;
use mycelium_net::server::{Handler, Server, ServerConfig};
use mycelium_net::wire::{Reader, Writer};
use mycelium_net::{Identity, FRAME_OVERHEAD, HANDSHAKE_WIRE_BYTES};

fn main() {
    // ---- Stop 1: the channel itself.
    println!("transport tour: every byte below went through real loopback sockets");
    println!();
    let seed = 2026;
    let echo_id = Identity::derive(seed, 0);
    let echo_pub = echo_id.public;
    let echo: Arc<dyn Handler> =
        Arc::new(|_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> { Ok(req.to_vec()) });
    let server = Server::spawn("127.0.0.1:0", echo_id, ServerConfig::default(), echo, seed)
        .expect("echo server");
    let mut client = Client::new(
        server.local_addr(),
        ClientConfig::new(Identity::derive(seed, 100), Some(echo_pub)),
        StdRng::seed_from_u64(1),
    );
    let reply = client.request("Echo", b"hello over sealed frames").unwrap();
    assert_eq!(reply, b"hello over sealed frames");
    println!(
        "  handshake: {HANDSHAKE_WIRE_BYTES} bytes on the wire, then {} request bytes \
         cost {} sealed ({}-byte frame overhead)",
        reply.len(),
        reply.len() + FRAME_OVERHEAD,
        FRAME_OVERHEAD,
    );
    server.shutdown();

    // ---- Stop 2: ciphertexts over the wire, summed homomorphically.
    println!();
    println!("encrypted aggregation service: 6 devices push Enc(x^e), the server sums");
    let params = BgvParams::test_small();
    let mut rng = StdRng::seed_from_u64(2);
    let keys = KeySet::generate(&params, &mut rng);
    let cc = Arc::new(CodecCtx::with_context(
        Arc::clone(keys.public.context()),
        &params,
    ));
    let acc: Arc<Mutex<Option<Ciphertext>>> = Arc::new(Mutex::new(None));
    let (acc2, cc2) = (Arc::clone(&acc), Arc::clone(&cc));
    let sum_id = Identity::derive(seed, 1);
    let sum_pub = sum_id.public;
    let handler: Arc<dyn Handler> = Arc::new(
        move |_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> {
            let mut r = Reader::new(req);
            let ct = decode_ciphertext(&mut r, &cc2)?;
            r.end()?;
            let mut acc = acc2.lock().unwrap();
            *acc = Some(match acc.take() {
                None => ct,
                Some(prev) => prev
                    .add(&ct)
                    .map_err(|e| NetError::Decode(format!("homomorphic add: {e}")))?,
            });
            Ok(vec![1])
        },
    );
    let server = Server::spawn(
        "127.0.0.1:0",
        sum_id,
        ServerConfig::default(),
        handler,
        seed,
    )
    .expect("sum server");
    let mut client = Client::new(
        server.local_addr(),
        ClientConfig::new(Identity::derive(seed, 101), Some(sum_pub)),
        StdRng::seed_from_u64(3),
    );
    let exponents = [1usize, 1, 2, 3, 3, 3];
    for &e in &exponents {
        let pt = encode_monomial(e, params.n, params.plaintext_modulus).unwrap();
        let ct = Ciphertext::encrypt(&keys.public, &pt, &mut rng).unwrap();
        let mut w = Writer::new();
        encode_ciphertext(&mut w, &ct);
        client.request("Push", &w.finish()).unwrap();
    }
    let sum = acc.lock().unwrap().take().expect("accumulated");
    let decoded = sum.decrypt(&keys.secret);
    let histogram: Vec<u64> = decoded.coeffs()[..5].to_vec();
    println!("  exponents pushed: {exponents:?}");
    println!("  decrypted histogram coefficients [x^0..x^4]: {histogram:?}");
    assert_eq!(histogram, vec![0, 2, 1, 3, 0]);
    let m = client.metrics();
    let m = m.lock().unwrap();
    println!(
        "  wire accounting: {} frames, {} payload bytes, {} sealed bytes",
        m.sent["Push"].frames, m.sent["Push"].payload_bytes, m.sent["Push"].wire_bytes
    );
    drop(m);
    server.shutdown();
    println!();
    println!("tour complete");
}
