//! Wire-level counters for the transport plane.
//!
//! Each process accumulates one [`NetMetrics`]; the `net_round` driver
//! collects the per-role metrics files, [`NetMetrics::merge`]s them and
//! renders a single deterministic JSON artifact that the reconciliation
//! test checks against the analytical cost model in
//! `mycelium::costs` / `mycelium::simcost`.
//!
//! The latency series reuse [`PhaseSeries`] from `mycelium-simnet` — the
//! same summary statistics over microseconds here and virtual ticks
//! there, so the two transport planes report in one shape.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mycelium_simnet::PhaseSeries;

use crate::error::NetError;
use crate::wire::{Reader, Writer};

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
        for map in [&self.sent, &self.recv] {
            w.put_u32(map.len() as u32);
            for (k, c) in map {
                w.put_str(k);
                w.put_u64(c.frames);
                w.put_u64(c.payload_bytes);
                w.put_u64(c.wire_bytes);
            }
        }
        w.put_u32(self.latency.len() as u32);
        for (k, p) in &self.latency {
            w.put_str(k);
            w.put_u64_slice(&p.completions);
        }
        w.finish()
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<NetMetrics, NetError> {
        let mut r = Reader::new(bytes);
        let mut m = NetMetrics {
            handshakes: r.get_u64()?,
            handshake_micros: PhaseSeries {
                completions: r.get_u64_vec()?,
            },
            reconnects: r.get_u64()?,
            aead_rejects: r.get_u64()?,
            retries: r.get_u64()?,
            deadline_expiries: r.get_u64()?,
            duplicates_suppressed: r.get_u64()?,
            overload_rejections: r.get_u64()?,
            overload_backoffs: r.get_u64()?,
            sessions_reaped: r.get_u64()?,
            wal_syncs: r.get_u64()?,
            sync_wait_micros: PhaseSeries {
                completions: r.get_u64_vec()?,
            },
            frames_sent: r.get_u64()?,
            frames_recv: r.get_u64()?,
            bytes_sent: r.get_u64()?,
            bytes_recv: r.get_u64()?,
            ..NetMetrics::default()
        };
        for which in 0..2 {
            let n = r.get_u32()?;
            for _ in 0..n {
                let k = r.get_str()?;
                let c = KindCounters {
                    frames: r.get_u64()?,
                    payload_bytes: r.get_u64()?,
                    wire_bytes: r.get_u64()?,
                };
                let map = if which == 0 { &mut m.sent } else { &mut m.recv };
                map.insert(k, c);
            }
        }
        let n = r.get_u32()?;
        for _ in 0..n {
            let k = r.get_str()?;
            let p = PhaseSeries {
                completions: r.get_u64_vec()?,
            };
            m.latency.insert(k, p);
        }
        r.expect_end()?;
        Ok(m)
    }

    /// Deterministic JSON: every value is an integer, every map is a
    /// `BTreeMap`, so the same traffic renders byte-identically.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let item = " ".repeat(indent + 4);
        let mut s = String::new();
        s.push_str(&format!(
            "{pad}{{\n{inner}\"handshakes\": {},\n{inner}\"handshake_p50_micros\": {},\n\
             {inner}\"handshake_p99_micros\": {},\n{inner}\"reconnects\": {},\n\
             {inner}\"aead_rejects\": {},\n{inner}\"retries\": {},\n\
             {inner}\"deadline_expiries\": {},\n{inner}\"duplicates_suppressed\": {},\n\
             {inner}\"overload_rejections\": {},\n{inner}\"overload_backoffs\": {},\n\
             {inner}\"sessions_reaped\": {},\n{inner}\"wal_syncs\": {},\n\
             {inner}\"sync_waits\": {},\n{inner}\"sync_wait_p50_micros\": {},\n\
             {inner}\"sync_wait_p99_micros\": {},\n{inner}\"frames_sent\": {},\n\
             {inner}\"frames_recv\": {},\n{inner}\"bytes_sent\": {},\n\
             {inner}\"bytes_recv\": {},\n",
            self.handshakes,
            self.handshake_micros.p50(),
            self.handshake_micros.p99(),
            self.reconnects,
            self.aead_rejects,
            self.retries,
            self.deadline_expiries,
            self.duplicates_suppressed,
            self.overload_rejections,
            self.overload_backoffs,
            self.sessions_reaped,
            self.wal_syncs,
            self.sync_wait_micros.count(),
            self.sync_wait_micros.p50(),
            self.sync_wait_micros.p99(),
            self.frames_sent,
            self.frames_recv,
            self.bytes_sent,
            self.bytes_recv,
        ));
        for (label, map) in [("sent", &self.sent), ("recv", &self.recv)] {
            s.push_str(&format!("{inner}\"{label}\": {{"));
            let entries: Vec<String> = map
                .iter()
                .map(|(k, c)| {
                    format!(
                        "\n{item}\"{k}\": {{\"frames\": {}, \"payload_bytes\": {}, \
                         \"wire_bytes\": {}}}",
                        c.frames, c.payload_bytes, c.wire_bytes
                    )
                })
                .collect();
            s.push_str(&entries.join(","));
            if !entries.is_empty() {
                s.push('\n');
                s.push_str(&inner);
            }
            s.push_str("},\n");
        }
        s.push_str(&format!("{inner}\"latency_micros\": {{"));
        let entries: Vec<String> = self
            .latency
            .iter()
            .map(|(k, p)| {
                format!(
                    "\n{item}\"{k}\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
                    p.count(),
                    p.p50(),
                    p.p99(),
                    p.max()
                )
            })
            .collect();
        s.push_str(&entries.join(","));
        if !entries.is_empty() {
            s.push('\n');
            s.push_str(&inner);
        }
        s.push_str(&format!("}}\n{pad}}}"));
        s
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
        assert_eq!(d.to_json(0), m.to_json(0));
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
        assert_eq!(m.to_json(0), m.clone().to_json(0));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(NetMetrics::decode(&[1, 2, 3]).is_err());
    }
}
