//! The `ROUND_cert.json` artifact format.
//!
//! The binary encoding is authoritative — it is what the transcript digest
//! and the tamper tests are defined over. The JSON artifact wraps it as a
//! hex string (`cert_hex`) next to a human-readable summary, so CI logs
//! and people can skim a round's outcome while `myc_verify` re-extracts
//! the exact bytes.

use mycelium_crypto::json::Json;

use crate::certificate::{cert_fingerprint, RoundCertificate};

/// Lowercase hex encoding.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Strict lowercase/uppercase hex decoding; `None` on any malformed input.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

/// Renders the artifact: summary fields plus the authoritative `cert_hex`.
pub fn render_json(cert: &RoundCertificate, bytes: &[u8]) -> String {
    let hex = |bytes: &[u8]| Json::from(to_hex(bytes));
    let released = cert.released.iter().map(|g| {
        let histogram = g.histogram.iter().copied().collect();
        (g.label.as_str(), histogram)
    });
    let doc = Json::obj([
        ("seed", cert.spec.seed.into()),
        ("devices", cert.spec.devices.into()),
        ("query", cert.spec.query.as_str().into()),
        ("with_proofs", cert.spec.with_proofs.into()),
        ("committee", cert.committee.into()),
        ("threshold", cert.threshold.into()),
        ("share_round", cert.share_round.into()),
        ("signatures", cert.signatures.len().into()),
        ("charged_epsilon", cert.charged_epsilon().into()),
        ("rejected", cert.rejected.iter().copied().collect()),
        ("contrib_root", hex(&cert.contrib_root)),
        ("aggregate_digest", hex(&cert.aggregate_digest)),
        ("noise_commitment", hex(&cert.noise_commitment)),
        ("transcript", hex(&cert.transcript)),
        ("released", Json::obj(released)),
        ("cert_sha256", hex(&cert_fingerprint(bytes))),
        ("cert_hex", hex(bytes)),
    ]);
    format!("{doc}\n")
}

/// Pulls the certificate bytes back out of an artifact by string scan,
/// not by [`json::parse`](mycelium_crypto::json::parse): the summary
/// around `cert_hex` is trusted for nothing, so the verifier reads only
/// that one field — from a whole artifact or from any fragment holding
/// it — and the bytes carry every check themselves.
pub fn extract_cert_hex(text: &str) -> Option<Vec<u8>> {
    let key = "\"cert_hex\"";
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let open = rest.find('"')? + 1;
    let rest = &rest[open..];
    let close = rest.find('"')?;
    from_hex(&rest[..close])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_certificate;

    #[test]
    fn hex_roundtrip() {
        let data = [0u8, 1, 0x7f, 0x80, 0xff];
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        assert!(from_hex("0").is_none());
        assert!(from_hex("zz").is_none());
    }

    #[test]
    fn artifact_roundtrips_the_exact_bytes() {
        let cert = sample_certificate();
        let bytes = cert.encode();
        let json = render_json(&cert, &bytes);
        assert_eq!(extract_cert_hex(&json).unwrap(), bytes);
    }

    /// Every byte of the artifact; the certificate's own hex, thousands of
    /// digits, stands in as `CERT_HEX`.
    #[test]
    fn artifact_text_is_pinned() {
        let cert = sample_certificate();
        let bytes = cert.encode();
        let pinned = r#"{
  "seed": 42,
  "devices": 24,
  "query": "Q4",
  "with_proofs": true,
  "committee": 5,
  "threshold": 2,
  "share_round": 0,
  "signatures": 3,
  "charged_epsilon": 1,
  "rejected": [7],
  "contrib_root": "9bd2ec389c310ad7011b21a0c5b3de347ad0a4aa568c6d5711a6d27996184a75",
  "aggregate_digest": "0303030303030303030303030303030303030303030303030303030303030303",
  "noise_commitment": "6d6bf598963faa8d4e148168d2e9ba72711a26bb356b3eac484200fad79848b8",
  "transcript": "564e88ee242fe3b13da168449bd26e540e42799323081f91d5d2ab0429ef2819",
  "released": {
    "infected": [5, -1, 0]
  },
  "cert_sha256": "c4e7f1d6053d850c2306263f475c6b4a6c33bda2ca3f9a47d4d79c450accf8c6",
  "cert_hex": "CERT_HEX"
}
"#;
        let text = render_json(&cert, &bytes);
        assert_eq!(text, pinned.replace("CERT_HEX", &to_hex(&bytes)));
    }

    #[test]
    fn extraction_survives_missing_or_mangled_keys() {
        assert!(extract_cert_hex("{}").is_none());
        assert!(extract_cert_hex("\"cert_hex\": \"zz\"").is_none());
    }
}
