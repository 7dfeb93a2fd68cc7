//! Wire-level counters for the transport plane.
//!
//! Each process accumulates one [`NetMetrics`]; the `net_round` driver
//! collects the per-role metrics files, [`NetMetrics::merge`]s them and
//! renders a single deterministic JSON artifact that the reconciliation
//! test checks against the analytical cost model in `mycelium::costs`.
//!
//! The latency series reuse [`PhaseSeries`] from `mycelium-simnet` — the
//! same summary statistics over microseconds here and virtual ticks
//! there, so the two transport planes report in one shape.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mycelium_crypto::codec::{CodecError, Reader, Writer};
use mycelium_math::json::Json;
use mycelium_simnet::PhaseSeries;

use crate::error::NetError;

/// Samples and map entries carry no limit of their own: the bytes that
/// hold them bound them.
const UNBOUNDED: usize = u32::MAX as usize;

/// Minor page faults this process has taken so far, from
/// `/proc/self/stat` (`None` off Linux): what fresh large allocations
/// cost, each page of one being faulted in on first touch.
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // `(comm)` may hold spaces: count from its `)`, after which `state`
    // is field 3 and `minflt` field 10.
    let mut fields = stat[stat.rfind(')')? + 1..].split_ascii_whitespace();
    fields.nth(7)?.parse().ok()
}

/// This process's peak resident set so far, in kB: `VmHWM` of
/// `/proc/self/status` (`None` off Linux).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    hwm.trim().trim_end_matches(" kB").parse().ok()
}

/// Traffic attributed to one message kind (request or response label).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Frames carrying this kind.
    pub frames: u64,
    /// Application payload bytes (before sealing and framing).
    pub payload_bytes: u64,
    /// Bytes on the wire (header + ciphertext + tag).
    pub wire_bytes: u64,
}

impl KindCounters {
    fn add(&mut self, other: &KindCounters) {
        self.frames += other.frames;
        self.payload_bytes += other.payload_bytes;
        self.wire_bytes += other.wire_bytes;
    }
}

/// Everything one endpoint measured about its wire traffic.
#[derive(Debug, Clone, Default)]
pub struct NetMetrics {
    /// Completed handshakes.
    pub handshakes: u64,
    /// Handshake durations, microseconds.
    pub handshake_micros: PhaseSeries,
    /// Connections re-dialed after a transport failure.
    pub reconnects: u64,
    /// Frames rejected by AEAD authentication.
    pub aead_rejects: u64,
    /// Client request attempts that failed retryably and were re-sent
    /// (the retry budget spans reconnects, so this counts every re-send
    /// regardless of whether the connection survived).
    pub retries: u64,
    /// Requests whose per-request deadline expired (explicit timeout or
    /// a mid-frame stall killed by the socket deadline).
    pub deadline_expiries: u64,
    /// Duplicate mutating requests the server absorbed idempotently
    /// (journal-before-reply made the retry a no-op).
    pub duplicates_suppressed: u64,
    /// Requests a server rejected with a sealed Busy frame because its
    /// session queue was full.
    pub overload_rejections: u64,
    /// Overload rejections a client absorbed by backing off and
    /// re-sending (not charged against the normal retry budget).
    pub overload_backoffs: u64,
    /// Half-open sessions a server reaped after the idle deadline.
    pub sessions_reaped: u64,
    /// Journal `fsync`s a server issued. Group commit lets one cover
    /// several requests, so this over the durable requests received is
    /// the commit ratio.
    pub wal_syncs: u64,
    /// How long a request handler that found its records not yet on disk
    /// waited for them, outside the state lock, microseconds.
    pub sync_wait_micros: PhaseSeries,
    /// Encrypted data frames written.
    pub frames_sent: u64,
    /// Encrypted data frames read.
    pub frames_recv: u64,
    /// Wire bytes written (headers + handshake + sealed payloads).
    pub bytes_sent: u64,
    /// Wire bytes read.
    pub bytes_recv: u64,
    /// Per-kind traffic written, keyed by message label.
    pub sent: BTreeMap<String, KindCounters>,
    /// Per-kind traffic read.
    pub recv: BTreeMap<String, KindCounters>,
    /// Request round-trip latency per kind, microseconds.
    pub latency: BTreeMap<String, PhaseSeries>,
}

impl NetMetrics {
    /// A fresh shared handle, the form the channel and client APIs take.
    pub fn shared() -> Arc<Mutex<NetMetrics>> {
        Arc::new(Mutex::new(NetMetrics::default()))
    }

    /// Attributes one sent frame to a message kind.
    pub fn note_sent(&mut self, kind: &str, payload_bytes: u64, wire_bytes: u64) {
        let c = self.sent.entry(kind.to_string()).or_default();
        c.frames += 1;
        c.payload_bytes += payload_bytes;
        c.wire_bytes += wire_bytes;
    }

    /// Attributes one received frame to a message kind.
    pub fn note_recv(&mut self, kind: &str, payload_bytes: u64, wire_bytes: u64) {
        let c = self.recv.entry(kind.to_string()).or_default();
        c.frames += 1;
        c.payload_bytes += payload_bytes;
        c.wire_bytes += wire_bytes;
    }

    /// Records one request round-trip.
    pub fn note_latency(&mut self, kind: &str, micros: u64) {
        self.latency
            .entry(kind.to_string())
            .or_default()
            .record(micros);
    }

    /// Folds another endpoint's metrics into this one.
    pub fn merge(&mut self, other: &NetMetrics) {
        self.handshakes += other.handshakes;
        self.handshake_micros
            .completions
            .extend_from_slice(&other.handshake_micros.completions);
        self.reconnects += other.reconnects;
        self.aead_rejects += other.aead_rejects;
        self.retries += other.retries;
        self.deadline_expiries += other.deadline_expiries;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.overload_rejections += other.overload_rejections;
        self.overload_backoffs += other.overload_backoffs;
        self.sessions_reaped += other.sessions_reaped;
        self.wal_syncs += other.wal_syncs;
        self.sync_wait_micros
            .completions
            .extend_from_slice(&other.sync_wait_micros.completions);
        self.frames_sent += other.frames_sent;
        self.frames_recv += other.frames_recv;
        self.bytes_sent += other.bytes_sent;
        self.bytes_recv += other.bytes_recv;
        for (k, c) in &other.sent {
            self.sent.entry(k.clone()).or_default().add(c);
        }
        for (k, c) in &other.recv {
            self.recv.entry(k.clone()).or_default().add(c);
        }
        for (k, p) in &other.latency {
            self.latency
                .entry(k.clone())
                .or_default()
                .completions
                .extend_from_slice(&p.completions);
        }
    }

    /// Binary encoding, used by role processes to report metrics to the
    /// driver through a file (the driver merges and renders JSON).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.handshakes);
        w.put_u64_slice(&self.handshake_micros.completions);
        w.put_u64(self.reconnects);
        w.put_u64(self.aead_rejects);
        w.put_u64(self.retries);
        w.put_u64(self.deadline_expiries);
        w.put_u64(self.duplicates_suppressed);
        w.put_u64(self.overload_rejections);
        w.put_u64(self.overload_backoffs);
        w.put_u64(self.sessions_reaped);
        w.put_u64(self.wal_syncs);
        w.put_u64_slice(&self.sync_wait_micros.completions);
        w.put_u64(self.frames_sent);
        w.put_u64(self.frames_recv);
        w.put_u64(self.bytes_sent);
        w.put_u64(self.bytes_recv);
        let put_counters = |w: &mut Writer, c: &KindCounters| {
            w.put_u64(c.frames);
            w.put_u64(c.payload_bytes);
            w.put_u64(c.wire_bytes);
        };
        w.put_map(&self.sent, put_counters);
        w.put_map(&self.recv, put_counters);
        w.put_map(&self.latency, |w, p| w.put_u64_slice(&p.completions));
        w.finish()
    }

    /// Inverse of [`encode`](Self::encode); map keys must ascend strictly,
    /// as `encode` writes them.
    pub fn decode(bytes: &[u8]) -> Result<NetMetrics, NetError> {
        let mut r = Reader::new(bytes);
        let samples = |r: &mut Reader, field| -> Result<_, CodecError> {
            let completions = r.u64s(field, UNBOUNDED)?;
            Ok(PhaseSeries { completions })
        };
        let counters = |r: &mut Reader| -> Result<_, CodecError> {
            Ok(KindCounters {
                frames: r.u64("frames")?,
                payload_bytes: r.u64("payload bytes")?,
                wire_bytes: r.u64("wire bytes")?,
            })
        };
        let m = NetMetrics {
            handshakes: r.u64("handshakes")?,
            handshake_micros: samples(&mut r, "handshake micros")?,
            reconnects: r.u64("reconnects")?,
            aead_rejects: r.u64("aead rejects")?,
            retries: r.u64("retries")?,
            deadline_expiries: r.u64("deadline expiries")?,
            duplicates_suppressed: r.u64("duplicates suppressed")?,
            overload_rejections: r.u64("overload rejections")?,
            overload_backoffs: r.u64("overload backoffs")?,
            sessions_reaped: r.u64("sessions reaped")?,
            wal_syncs: r.u64("wal syncs")?,
            sync_wait_micros: samples(&mut r, "sync wait micros")?,
            frames_sent: r.u64("frames sent")?,
            frames_recv: r.u64("frames recv")?,
            bytes_sent: r.u64("bytes sent")?,
            bytes_recv: r.u64("bytes recv")?,
            sent: r.map("sent", UNBOUNDED, counters)?,
            recv: r.map("recv", UNBOUNDED, counters)?,
            latency: r.map("latency", UNBOUNDED, |r| samples(r, "latency micros"))?,
        };
        r.end()?;
        Ok(m)
    }

    /// The `NET_round.json` document: every value is an integer and every
    /// map a `BTreeMap`, so the same traffic renders byte-identically.
    pub fn to_json(&self) -> Json {
        let kinds = |map: &BTreeMap<String, KindCounters>| {
            Json::obj(map.iter().map(|(kind, c)| {
                let counters = Json::obj([
                    ("frames", c.frames.into()),
                    ("payload_bytes", c.payload_bytes.into()),
                    ("wire_bytes", c.wire_bytes.into()),
                ]);
                (kind.as_str(), counters)
            }))
        };
        let latency = self.latency.iter().map(|(kind, p)| {
            let summary = Json::obj([
                ("count", p.count().into()),
                ("p50", p.p50().into()),
                ("p99", p.p99().into()),
                ("max", p.max().into()),
            ]);
            (kind.as_str(), summary)
        });
        Json::obj([
            ("handshakes", self.handshakes.into()),
            ("handshake_p50_micros", self.handshake_micros.p50().into()),
            ("handshake_p99_micros", self.handshake_micros.p99().into()),
            ("reconnects", self.reconnects.into()),
            ("aead_rejects", self.aead_rejects.into()),
            ("retries", self.retries.into()),
            ("deadline_expiries", self.deadline_expiries.into()),
            ("duplicates_suppressed", self.duplicates_suppressed.into()),
            ("overload_rejections", self.overload_rejections.into()),
            ("overload_backoffs", self.overload_backoffs.into()),
            ("sessions_reaped", self.sessions_reaped.into()),
            ("wal_syncs", self.wal_syncs.into()),
            ("sync_waits", self.sync_wait_micros.count().into()),
            ("sync_wait_p50_micros", self.sync_wait_micros.p50().into()),
            ("sync_wait_p99_micros", self.sync_wait_micros.p99().into()),
            ("frames_sent", self.frames_sent.into()),
            ("frames_recv", self.frames_recv.into()),
            ("bytes_sent", self.bytes_sent.into()),
            ("bytes_recv", self.bytes_recv.into()),
            ("sent", kinds(&self.sent)),
            ("recv", kinds(&self.recv)),
            ("latency_micros", Json::obj(latency)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NetMetrics {
        let mut m = NetMetrics {
            handshakes: 2,
            ..NetMetrics::default()
        };
        m.handshake_micros.record(120);
        m.handshake_micros.record(90);
        m.reconnects = 1;
        m.retries = 3;
        m.deadline_expiries = 1;
        m.duplicates_suppressed = 2;
        m.overload_rejections = 4;
        m.overload_backoffs = 4;
        m.sessions_reaped = 1;
        m.wal_syncs = 5;
        m.sync_wait_micros.record(480);
        m.frames_sent = 10;
        m.bytes_sent = 4096;
        m.note_sent("PushContrib", 1000, 1036);
        m.note_recv("Ack", 1, 37);
        m.note_latency("PushContrib", 250);
        m
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        let d = NetMetrics::decode(&m.encode()).unwrap();
        assert_eq!(d.handshakes, m.handshakes);
        assert_eq!(d.handshake_micros, m.handshake_micros);
        assert_eq!(d.retries, 3);
        assert_eq!(d.deadline_expiries, 1);
        assert_eq!(d.duplicates_suppressed, 2);
        assert_eq!(d.overload_rejections, 4);
        assert_eq!(d.overload_backoffs, 4);
        assert_eq!(d.sessions_reaped, 1);
        assert_eq!(d.wal_syncs, 5);
        assert_eq!(d.sync_wait_micros, m.sync_wait_micros);
        assert_eq!(d.sent, m.sent);
        assert_eq!(d.recv, m.recv);
        assert_eq!(d.latency["PushContrib"].completions, vec![250]);
        assert_eq!(d.to_json(), m.to_json());
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.handshakes, 4);
        assert_eq!(a.retries, 6);
        assert_eq!(a.duplicates_suppressed, 4);
        assert_eq!(a.sessions_reaped, 2);
        assert_eq!(a.wal_syncs, 10);
        assert_eq!(a.sync_wait_micros.count(), 2);
        assert_eq!(a.sent["PushContrib"].frames, 2);
        assert_eq!(a.latency["PushContrib"].count(), 2);
    }

    #[test]
    fn json_is_deterministic() {
        let m = sample();
        assert_eq!(m.to_json().to_string(), m.clone().to_json().to_string());
    }

    /// The text `NET_round.json` holds, less its final newline.
    fn rendered(m: &NetMetrics) -> String {
        m.to_json().to_string()
    }

    #[test]
    fn json_text_is_pinned() {
        assert_eq!(
            rendered(&sample()),
            r#"{
  "handshakes": 2,
  "handshake_p50_micros": 120,
  "handshake_p99_micros": 120,
  "reconnects": 1,
  "aead_rejects": 0,
  "retries": 3,
  "deadline_expiries": 1,
  "duplicates_suppressed": 2,
  "overload_rejections": 4,
  "overload_backoffs": 4,
  "sessions_reaped": 1,
  "wal_syncs": 5,
  "sync_waits": 1,
  "sync_wait_p50_micros": 480,
  "sync_wait_p99_micros": 480,
  "frames_sent": 10,
  "frames_recv": 0,
  "bytes_sent": 4096,
  "bytes_recv": 0,
  "sent": {
    "PushContrib": {"frames": 1, "payload_bytes": 1000, "wire_bytes": 1036}
  },
  "recv": {
    "Ack": {"frames": 1, "payload_bytes": 1, "wire_bytes": 37}
  },
  "latency_micros": {
    "PushContrib": {"count": 1, "p50": 250, "p99": 250, "max": 250}
  }
}"#
        );
        let empty = rendered(&NetMetrics::default());
        assert!(empty.ends_with(
            "  \"bytes_recv\": 0,\n  \"sent\": {},\n  \"recv\": {},\n  \"latency_micros\": {}\n}"
        ));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(NetMetrics::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn map_keys_out_of_order_or_repeated_are_not_canonical() {
        let mut m = NetMetrics::default();
        m.note_sent("Ack", 1, 37);
        m.note_sent("Bye", 2, 38);
        m.note_latency("Ack", 5);
        m.note_latency("Bye", 6);
        let bytes = m.encode();
        assert_eq!(NetMetrics::decode(&bytes).unwrap().encode(), bytes);
        // Rewrite every key of the two maps: `Ack` to `first`, `Bye` to `second`.
        let with_keys = |first: &[u8; 3], second: &[u8; 3]| {
            let mut out = bytes.clone();
            for at in 0..bytes.len() - 2 {
                match &bytes[at..at + 3] {
                    b"Ack" => out[at..at + 3].copy_from_slice(first),
                    b"Bye" => out[at..at + 3].copy_from_slice(second),
                    _ => {}
                }
            }
            out
        };
        // Swapped keys would decode into the same maps and re-encode sorted;
        // a repeated key would overwrite its first value.
        for mauled in [with_keys(b"Bye", b"Ack"), with_keys(b"Ack", b"Ack")] {
            assert_ne!(mauled, bytes);
            assert!(matches!(
                NetMetrics::decode(&mauled),
                Err(NetError::Decode(_))
            ));
        }
    }
}
