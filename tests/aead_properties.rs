//! AEAD hardening properties for the transport plane.
//!
//! The channel's security reduces to: (1) the AEAD rejects any
//! modification of ciphertext, tag, nonce, or associated data; (2) the
//! channel never accepts the same nonce twice in a session (strictly
//! sequential per-direction sequence numbers double as implicit
//! nonces). Both halves are exercised here — the primitive directly,
//! the replay property through real sockets.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use mycelium_crypto::aead::{open_in_place, open_with_aad, seal_in_place, seal_with_aad, OVERHEAD};
use mycelium_crypto::chacha20::{self, chacha20_block, chacha20_xor, round_nonce, Tier};
use mycelium_crypto::poly1305::{self, poly1305, Poly1305};
use mycelium_crypto::sha256::Sha256;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_net::channel::{client_handshake, server_handshake, Identity};
use mycelium_net::error::NetError;
use mycelium_net::frame::HEADER_LEN;
use mycelium_net::metrics::NetMetrics;

fn key(byte: u8) -> [u8; 32] {
    [byte; 32]
}

#[test]
fn roundtrip_across_sizes_keys_and_rounds() {
    let mut rng = StdRng::seed_from_u64(0xaead);
    for &len in &[0usize, 1, 15, 16, 17, 63, 64, 257, 1 << 12, 1 << 16] {
        let mut pt = vec![0u8; len];
        rng.fill(&mut pt);
        let mut aad = vec![0u8; 20];
        rng.fill(&mut aad);
        for round in [0u64, 1, u64::MAX] {
            let k = key((len % 251) as u8);
            let sealed = seal_with_aad(&k, round, &aad, &pt);
            assert_eq!(sealed.len(), len + OVERHEAD);
            assert_eq!(open_with_aad(&k, round, &aad, &sealed).unwrap(), pt);
        }
    }
}

#[test]
fn truncated_tags_rejected() {
    let sealed = seal_with_aad(&key(1), 7, b"hdr", b"payload");
    // Every strictly shorter prefix must fail, including an empty one.
    for cut in 0..sealed.len() {
        assert!(
            open_with_aad(&key(1), 7, b"hdr", &sealed[..cut]).is_err(),
            "accepted a sealed message truncated to {cut} bytes"
        );
    }
}

#[test]
fn every_flipped_bit_rejected() {
    let pt = b"the aggregate ciphertext bytes".to_vec();
    let sealed = seal_with_aad(&key(2), 3, b"frame-header", &pt);
    for i in 0..sealed.len() {
        for bit in [0x01u8, 0x80] {
            let mut bad = sealed.clone();
            bad[i] ^= bit;
            assert!(
                open_with_aad(&key(2), 3, b"frame-header", &bad).is_err(),
                "accepted a flip at byte {i} bit {bit:#04x}"
            );
        }
    }
}

#[test]
fn wrong_nonce_key_or_aad_rejected() {
    let sealed = seal_with_aad(&key(3), 9, b"aad", b"msg");
    assert!(
        open_with_aad(&key(3), 10, b"aad", &sealed).is_err(),
        "wrong round"
    );
    assert!(
        open_with_aad(&key(4), 9, b"aad", &sealed).is_err(),
        "wrong key"
    );
    assert!(
        open_with_aad(&key(3), 9, b"Aad", &sealed).is_err(),
        "wrong aad"
    );
}

/// Deterministic test bytes, distinct per `salt`.
fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ (i >> 8) as u8 ^ salt)
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The payload lengths the kernels are compared at: everything up to two
/// AVX-512 keystream groups and a ragged tail, then the frame sizes the
/// transport bench sweeps, one byte either side of the 64 KiB one.
fn matrix_lengths() -> impl Iterator<Item = usize> {
    (0..=2048 + 77).chain([(64 << 10) - 1, 64 << 10, (64 << 10) + 1, 1 << 20])
}

/// RFC 8439 §2.8 written out from the one-shot primitives — the keystream
/// of `tier`, the authenticator of `mac`: what `seal_with_aad` must produce
/// whatever kernels the process dispatched to.
fn seal_by_the_book(
    tier: &Tier,
    mac_tier: &poly1305::Tier,
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[u8],
    pt: &[u8],
) -> Vec<u8> {
    let mut otk = [0u8; 64];
    tier.xor(key, 0, nonce, &mut otk);
    let mut ct = pt.to_vec();
    tier.xor(key, 1, nonce, &mut ct);
    let mut mac = aad.to_vec();
    mac.resize(aad.len().next_multiple_of(16), 0);
    mac.extend_from_slice(&ct);
    mac.resize(mac.len().next_multiple_of(16), 0);
    mac.extend_from_slice(&(aad.len() as u64).to_le_bytes());
    mac.extend_from_slice(&(ct.len() as u64).to_le_bytes());
    ct.extend_from_slice(&mac_tier.mac(otk[..32].try_into().unwrap(), &mac));
    ct
}

#[test]
fn rfc8439_vectors() {
    let sunscreen = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
    // §2.4.2, on every tier.
    let key: [u8; 32] = std::array::from_fn(|i| i as u8);
    let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    for tier in chacha20::tiers() {
        let mut data = sunscreen.to_vec();
        tier.xor(&key, 1, &nonce, &mut data);
        assert_eq!(hex(&data[..16]), "6e2e359a2568f98041ba0728dd0d6981");
        assert_eq!(hex(&data[106..]), "8eedf2785e42874d", "{}", tier.name);
    }
    // §2.5.2.
    let key: [u8; 32] = [
        0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5, 0x06,
        0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf, 0x41, 0x49,
        0xf5, 0x1b,
    ];
    for tier in poly1305::tiers() {
        let tag = tier.mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(
            hex(&tag),
            "a8061dc1305136c6c22b8baf0c0127a9",
            "{}",
            tier.name
        );
    }
    // §2.8.2 (its nonce has a constant part the round-number nonce cannot
    // carry, so the composition is the written-out one).
    let key: [u8; 32] = std::array::from_fn(|i| 0x80 + i as u8);
    let nonce = [7, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47];
    let aad = [
        0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
    ];
    // Every keystream tier under the scalar authenticator, then every
    // authenticator tier under the portable keystream.
    let (ciphers, macs) = (chacha20::tiers(), poly1305::tiers());
    let pairings = ciphers
        .iter()
        .map(|c| (c, &macs[0]))
        .chain(macs.iter().map(|m| (&ciphers[0], m)));
    for (cipher, mac) in pairings {
        let sealed = seal_by_the_book(cipher, mac, &key, &nonce, &aad, sunscreen);
        assert_eq!(hex(&sealed[..8]), "d31a8d34648e60db");
        let tag = &sealed[sunscreen.len()..];
        assert_eq!(
            hex(tag),
            "1ae10b594f09e26a7e902ecbd0600691",
            "{} + {}",
            cipher.name,
            mac.name
        );
    }
}

#[test]
fn every_keystream_tier_matches_the_portable_one() {
    let tiers = chacha20::tiers();
    assert_eq!(tiers[0].name, "portable");
    let (key, nonce) = (key(0x5a), round_nonce(0x0102_0304_0506_0708));
    // The counter wraps mod 2^32 inside a block group, at every lane of it,
    // and in the ragged tail behind the last whole group.
    let counters = [0, 1].into_iter().chain((0..=20).map(|k| u32::MAX - k));
    let cases = matrix_lengths()
        .map(|len| (1, len))
        .chain(counters.flat_map(|c| [640, 1100, 4096 + 77].map(|len| (c, len))));
    for (counter, len) in cases {
        let plain = pattern(len, counter as u8);
        let mut want = plain.clone();
        tiers[0].xor(&key, counter, &nonce, &mut want);
        if len >= 64 {
            // The portable tier itself: block `i` of a long message is block 0
            // of the message that starts at counter + i.
            let at = (len / 64 - 1) * 64;
            let block = chacha20_block(&key, counter.wrapping_add(at as u32 / 64), &nonce);
            let alone: Vec<u8> = plain[at..at + 64]
                .iter()
                .zip(block)
                .map(|(p, k)| p ^ k)
                .collect();
            assert_eq!(
                want[at..at + 64],
                alone[..],
                "portable, counter {counter}, len {len}"
            );
        }
        for tier in &tiers[1..] {
            let mut got = plain.clone();
            tier.xor(&key, counter, &nonce, &mut got);
            assert!(
                got == want,
                "{} differs: counter {counter}, len {len}",
                tier.name
            );
        }
        let mut dispatched = plain;
        chacha20_xor(&key, counter, &nonce, &mut dispatched);
        assert!(
            dispatched == want,
            "dispatched differs: counter {counter}, len {len}"
        );
    }
}

#[test]
fn myc_no_simd_forces_the_portable_tier() {
    use mycelium_math::simd;
    let forced = simd::simd_disabled_by_env();
    let widest = chacha20::tiers().last().unwrap().name;
    let want = if forced { "portable" } else { widest };
    assert_eq!(chacha20::active_tier().name, want);
    let widest = poly1305::tiers().last().unwrap().name;
    let want = if forced { "scalar" } else { widest };
    assert_eq!(poly1305::active_tier().name, want);
    // The codec's pack rows are rows of the one kernel table.
    let (active, scalar) = (simd::kernels(), simd::scalar_kernels());
    if forced {
        assert_eq!(active.name, "scalar");
        assert!(std::ptr::fn_addr_eq(active.pack, scalar.pack));
        assert!(std::ptr::fn_addr_eq(active.unpack, scalar.unpack));
    } else {
        assert_eq!(active.name, simd::all_available().last().unwrap().name);
    }
}

/// Eight blocks: what the lane-parallel authenticator absorbs per step.
const GROUP: usize = 8 * 16;

/// The lengths the authenticator tiers are compared at: everything up to
/// six lane groups and a ragged tail (the vector path takes four groups at
/// the least, so: none of it, the least of it, and more behind every tail),
/// then a few frames' worth.
fn mac_lengths() -> impl Iterator<Item = usize> {
    (0..=6 * GROUP + 17).chain([4096 + 77, 62_247, 99_111])
}

#[test]
fn every_authenticator_tier_matches_the_scalar_one() {
    let tiers = poly1305::tiers();
    assert_eq!(tiers[0].name, "scalar");
    // A patterned key; every clamped bit of r set (the largest limbs and
    // powers); r = 0 and r = 1, whose powers are degenerate.
    let mut top = [0xffu8; 32];
    top[16..].copy_from_slice(&pattern(16, 0x21));
    let mut one = [0u8; 32];
    one[0] = 1;
    let keys: [[u8; 32]; 4] = [pattern(32, 0x77).try_into().unwrap(), top, [0u8; 32], one];
    for key in &keys {
        for len in mac_lengths() {
            // All-ones blocks are the largest the accumulator meets.
            for msg in [pattern(len, len as u8), vec![0xff; len]] {
                let want = tiers[0].mac(key, &msg);
                for tier in &tiers[1..] {
                    assert_eq!(
                        tier.mac(key, &msg),
                        want,
                        "{} differs: r[0] {:#04x}, len {len}, msg[0] {:?}",
                        tier.name,
                        key[0],
                        msg.first()
                    );
                }
                assert_eq!(poly1305(key, &msg), want, "dispatched, len {len}");
            }
        }
    }
}

#[test]
fn streaming_equals_one_shot_on_every_authenticator_tier() {
    let otk: [u8; 32] = pattern(32, 0x3c).try_into().unwrap();
    let msg = pattern(12 * GROUP + 9, 6);
    let want = poly1305::tiers()[0].mac(&otk, &msg);
    for tier in poly1305::tiers() {
        // Split at every offset of the first two groups and of the last
        // two: the long piece takes the vector path behind (or ahead of)
        // whatever partial block the short one left.
        for split in (0..=2 * GROUP).chain(msg.len() - 2 * GROUP..=msg.len()) {
            let mut mac = Poly1305::with_tier(&tier, &otk);
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), want, "{} split {split}", tier.name);
        }
        // Pieces of every size class in one message.
        let mut mac = Poly1305::with_tier(&tier, &otk);
        let mut rest = &msg[..];
        for take in [1, 4 * GROUP, 15, 5 * GROUP + 16, 7, GROUP - 1] {
            let (piece, after) = rest.split_at(take);
            mac.update(piece);
            rest = after;
        }
        mac.update(rest);
        assert_eq!(mac.finalize(), want, "{} uneven pieces", tier.name);
    }
}

#[test]
fn sealing_matches_the_written_out_composition_at_every_length() {
    let (portable, scalar) = (chacha20::tiers()[0], poly1305::tiers()[0]);
    let k = key(0x33);
    let check = |round: u64, aad: &[u8], pt: &[u8]| {
        let want = seal_by_the_book(&portable, &scalar, &k, &round_nonce(round), aad, pt);
        let sealed = seal_with_aad(&k, round, aad, pt);
        assert!(sealed == want, "aad {}, len {}", aad.len(), pt.len());
        // In place: the same bytes out, and the same bytes back.
        let mut buf = pt.to_vec();
        let tag = seal_in_place(&k, round, aad, &mut buf);
        buf.extend_from_slice(&tag);
        assert!(
            buf == sealed,
            "in place: aad {}, len {}",
            aad.len(),
            pt.len()
        );
        open_in_place(&k, round, aad, &mut buf).unwrap();
        assert!(
            buf == pt,
            "opened in place: aad {}, len {}",
            aad.len(),
            pt.len()
        );
        assert!(open_with_aad(&k, round, aad, &sealed).unwrap() == pt);
    };
    let aad = pattern(20, 0xa0);
    for len in matrix_lengths() {
        check(len as u64, &aad, &pattern(len, 1));
    }
    for aad_len in 0..=33 {
        for len in [0, 1, 15, 16, 17, 255, 256, 511, 512, 513, 1100] {
            check(9, &pattern(aad_len, 0xa1), &pattern(len, 2));
        }
    }
}

#[test]
fn a_failed_open_in_place_leaves_the_buffer_alone() {
    let mut sealed = seal_with_aad(&key(6), 4, b"hdr", &pattern(700, 3));
    sealed[350] ^= 1;
    let before = sealed.clone();
    assert!(open_in_place(&key(6), 4, b"hdr", &mut sealed).is_err());
    assert_eq!(sealed, before);
    let mut short = vec![0u8; OVERHEAD - 1];
    assert!(open_in_place(&key(6), 4, b"hdr", &mut short).is_err());
}

#[test]
fn incremental_poly1305_equals_one_shot_at_every_split() {
    let otk: [u8; 32] = pattern(32, 0x77).try_into().unwrap();
    let msg = pattern(263, 4);
    for len in [0, 1, 15, 16, 17, 31, 32, 33, 263] {
        let want = poly1305(&otk, &msg[..len]);
        for split in 0..=len {
            let mut mac = Poly1305::new(&otk);
            mac.update(&msg[..split]);
            mac.update(&msg[split..len]);
            assert_eq!(mac.finalize(), want, "len {len} split {split}");
        }
        // Byte at a time.
        let mut mac = Poly1305::new(&otk);
        msg[..len].iter().for_each(|b| mac.update(&[*b]));
        assert_eq!(mac.finalize(), want, "len {len} bytewise");
    }
    // The accumulator's top limb at its extremes: all-ones blocks under the
    // largest clamped r.
    let mut otk = [0xffu8; 32];
    otk[16..].fill(0);
    let want = poly1305(&otk, &[0xff; 256]);
    let mut mac = Poly1305::new(&otk);
    [0xffu8; 256].chunks(7).for_each(|c| mac.update(c));
    assert_eq!(mac.finalize(), want);
}

/// Sealed bytes are pinned: the transport's frames for a given key,
/// sequence number and payload are what they were before the kernels were
/// vectorized. (The constant was produced by the scalar implementation
/// this one replaced.)
#[test]
fn sealed_bytes_are_pinned() {
    let mut all = Sha256::new();
    for len in [
        0,
        1,
        63,
        64,
        65,
        255,
        256,
        257,
        511,
        512,
        513,
        1100,
        65535,
        65536,
        65537,
        1 << 20,
    ] {
        let k: [u8; 32] = pattern(32, len as u8).try_into().unwrap();
        let sealed = seal_with_aad(
            &k,
            0x0102_0304_0506_0708 + len as u64,
            &pattern(20, 9),
            &pattern(len, 5),
        );
        all.update(&sealed);
    }
    assert_eq!(
        hex(&all.finalize()),
        "0af0ad07a650d013300be5c8955757ae32216cbc3f8f9373d2c014cab50dda18"
    );
}

/// A minimal relay that duplicates the first client→server data frame:
/// the server must reject the replay with a typed `BadSequence` — the
/// channel never accepts a reused nonce within a session.
#[test]
fn replayed_frame_rejected_with_bad_sequence() {
    let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
    let upstream_addr = upstream.local_addr().unwrap();

    // Server half: handshake, then read frames until an error.
    let server_id = Identity::derive(51, 0);
    let server_pub = server_id.public;
    let server = std::thread::spawn(move || -> NetError {
        let (stream, _) = upstream.accept().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut channel = server_handshake(
            stream,
            &server_id,
            None,
            &mut rng,
            1 << 20,
            NetMetrics::shared(),
        )
        .unwrap();
        loop {
            match channel.recv() {
                Ok(_) => continue,
                Err(e) => return e,
            }
        }
    });

    // Relay: duplicate the first post-handshake client→server frame.
    let relay = TcpListener::bind("127.0.0.1:0").unwrap();
    let relay_addr = relay.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut client_side, _) = relay.accept().unwrap();
        let mut server_side = TcpStream::connect(upstream_addr).unwrap();
        // Server → client: plain relay in the background.
        let (mut sr, mut cw) = (
            server_side.try_clone().unwrap(),
            client_side.try_clone().unwrap(),
        );
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(n) = sr.read(&mut buf) {
                if n == 0 || cw.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        });
        let mut duplicated = false;
        loop {
            let mut header = [0u8; HEADER_LEN];
            if client_side.read_exact(&mut header).is_err() {
                break;
            }
            let len = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
            let mut payload = vec![0u8; len];
            if client_side.read_exact(&mut payload).is_err() {
                break;
            }
            let mut out = header.to_vec();
            out.extend_from_slice(&payload);
            // Data frames have type tag 4; replay the first one.
            if !duplicated && header[6] == 4 {
                duplicated = true;
                let twice = [out.clone(), out].concat();
                if server_side.write_all(&twice).is_err() {
                    break;
                }
            } else if server_side.write_all(&out).is_err() {
                break;
            }
        }
    });

    let stream = TcpStream::connect(relay_addr).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let client_id = Identity::derive(51, 100);
    let mut channel = client_handshake(
        stream,
        &client_id,
        Some(server_pub),
        &mut rng,
        1 << 20,
        NetMetrics::shared(),
    )
    .unwrap();
    channel.send(b"only sent once").unwrap();

    // The server sees the frame once (seq 1, accepted) and then its
    // replay (seq 1 again, expected 2) — a typed rejection, no panic.
    match server.join().unwrap() {
        NetError::BadSequence { got, want } => {
            assert_eq!(got, 1);
            assert_eq!(want, 2);
        }
        other => panic!("expected BadSequence, got {other:?}"),
    }
}
