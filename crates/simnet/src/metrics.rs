//! Round metrics: what the simulation measured.
//!
//! Counters are integral (messages, bytes, ticks) so two runs with the
//! same seed render **byte-identical** JSON — the property the
//! `bench_rounds` artifact and the cross-thread-count determinism tests
//! assert. Phase series live in a `BTreeMap` so iteration order never
//! depends on insertion or hashing.

use std::collections::BTreeMap;

use mycelium_math::json::Json;

use crate::sim::{ActorId, Tick};

/// Per-actor traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActorCounters {
    /// Messages handed to the network (whether or not they survive it).
    pub sent_msgs: u64,
    /// Bytes handed to the network.
    pub sent_bytes: u64,
    /// Messages delivered to this actor.
    pub recv_msgs: u64,
    /// Bytes delivered to this actor.
    pub recv_bytes: u64,
    /// Retransmissions this actor performed.
    pub retries: u64,
}

/// Completion ticks of one named protocol phase (one entry per actor or
/// per unit of work that finished the phase).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSeries {
    /// Virtual completion times, in the order they occurred.
    pub completions: Vec<Tick>,
}

impl PhaseSeries {
    /// Number of completions.
    pub fn count(&self) -> usize {
        self.completions.len()
    }

    /// Earliest completion tick.
    pub fn min(&self) -> Tick {
        self.completions.iter().copied().min().unwrap_or(0)
    }

    /// Latest completion tick (the phase's makespan).
    pub fn max(&self) -> Tick {
        self.completions.iter().copied().max().unwrap_or(0)
    }

    /// Mean completion tick (integer division is fine for reporting).
    pub fn mean(&self) -> Tick {
        if self.completions.is_empty() {
            return 0;
        }
        self.completions.iter().sum::<Tick>() / self.completions.len() as Tick
    }

    /// Median completion tick.
    pub fn p50(&self) -> Tick {
        self.quantile(0.50)
    }

    /// 99th-percentile completion tick.
    pub fn p99(&self) -> Tick {
        self.quantile(0.99)
    }

    /// The `q`-quantile (nearest-rank on the sorted series; `q ∈ [0, 1]`).
    pub fn quantile(&self, q: f64) -> Tick {
        if self.completions.is_empty() {
            return 0;
        }
        let mut v = self.completions.clone();
        v.sort_unstable();
        let idx = ((v.len() as f64 * q) as usize).min(v.len() - 1);
        v[idx]
    }

    /// Records one completion.
    pub fn record(&mut self, at: Tick) {
        self.completions.push(at);
    }
}

/// Everything one simulation run measured.
#[derive(Debug, Clone, Default)]
pub struct RoundMetrics {
    /// Per-actor counters, indexed by actor id.
    pub actors: Vec<ActorCounters>,
    /// Messages and bytes each actor handed to the network, per message
    /// kind: `(sender, kind) → (messages, bytes)`.
    pub sent_kinds: BTreeMap<(ActorId, &'static str), (u64, u64)>,
    /// Transmissions the fault plan destroyed (drops + partitions).
    pub dropped_msgs: u64,
    /// Bytes destroyed with them.
    pub dropped_bytes: u64,
    /// Deliveries discarded because the destination had crashed.
    pub dead_letters: u64,
    /// Messages whose payload the Byzantine tamper hook replaced.
    pub tampered_msgs: u64,
    /// Timer events fired.
    pub timer_fires: u64,
    /// Crashed actors revived by the fault plan's recovery schedule.
    pub restarts: u64,
    /// Named phase-completion series (virtual-time histograms).
    pub phases: BTreeMap<String, PhaseSeries>,
}

impl RoundMetrics {
    /// Creates counters for `n` actors.
    pub fn new(n: usize) -> Self {
        Self {
            actors: vec![ActorCounters::default(); n],
            ..Self::default()
        }
    }

    /// Total messages sent across all actors.
    pub fn total_sent_msgs(&self) -> u64 {
        self.actors.iter().map(|a| a.sent_msgs).sum()
    }

    /// Total bytes sent across all actors.
    pub fn total_sent_bytes(&self) -> u64 {
        self.actors.iter().map(|a| a.sent_bytes).sum()
    }

    /// Total retransmissions across all actors.
    pub fn total_retries(&self) -> u64 {
        self.actors.iter().map(|a| a.retries).sum()
    }

    /// Records a phase completion at `now`.
    pub fn phase_done(&mut self, phase: &str, now: Tick) {
        self.phases
            .entry(phase.to_string())
            .or_default()
            .completions
            .push(now);
    }

    /// Totals plus per-phase virtual-time summaries: all integers, phases
    /// in lexicographic order, so a run renders byte-identically.
    pub fn to_json(&self) -> Json {
        let phases = self.phases.iter().map(|(name, p)| {
            let summary = Json::obj([
                ("count", p.count().into()),
                ("min_ticks", p.min().into()),
                ("p50_ticks", p.p50().into()),
                ("mean_ticks", p.mean().into()),
                ("max_ticks", p.max().into()),
            ]);
            (name.as_str(), summary)
        });
        Json::obj([
            ("messages_sent", self.total_sent_msgs().into()),
            ("bytes_sent", self.total_sent_bytes().into()),
            ("retries", self.total_retries().into()),
            ("dropped_msgs", self.dropped_msgs.into()),
            ("dropped_bytes", self.dropped_bytes.into()),
            ("dead_letters", self.dead_letters.into()),
            ("tampered_msgs", self.tampered_msgs.into()),
            ("timer_fires", self.timer_fires.into()),
            ("restarts", self.restarts.into()),
            ("phases", Json::obj(phases)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_summaries() {
        let mut m = RoundMetrics::new(2);
        for t in [30, 10, 20] {
            m.phase_done("setup", t);
        }
        let p = &m.phases["setup"];
        assert_eq!(p.count(), 3);
        assert_eq!(p.min(), 10);
        assert_eq!(p.max(), 30);
        assert_eq!(p.mean(), 20);
        assert_eq!(p.p50(), 20);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let mut m = RoundMetrics::new(1);
        m.actors[0].sent_msgs = 4;
        m.actors[0].sent_bytes = 256;
        m.phase_done("zeta", 5);
        m.phase_done("alpha", 7);
        let a = m.to_json().to_string();
        let b = m.clone().to_json().to_string();
        assert_eq!(a, b);
        let alpha = a.find("\"alpha\"").unwrap();
        let zeta = a.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "phases in lexicographic order");
        assert!(a.contains("\"messages_sent\": 4"));
    }

    /// The rendered text, as the `golden_round` pins hash it.
    fn rendered(m: &RoundMetrics) -> String {
        m.to_json().to_string()
    }

    #[test]
    fn json_text_is_pinned() {
        let mut m = RoundMetrics::new(2);
        m.actors[0] = ActorCounters {
            sent_msgs: 4,
            sent_bytes: 256,
            recv_msgs: 1,
            recv_bytes: 64,
            retries: 1,
        };
        m.actors[1].sent_msgs = 2;
        m.actors[1].sent_bytes = 100;
        m.actors[1].retries = 2;
        m.dropped_msgs = 1;
        m.dropped_bytes = 64;
        m.dead_letters = 2;
        m.timer_fires = 7;
        m.restarts = 1;
        for t in [30, 10, 20] {
            m.phase_done("submit", t);
        }
        m.phase_done("aggregate", 45);
        let head = r#"{
  "messages_sent": 6,
  "bytes_sent": 356,
  "retries": 3,
  "dropped_msgs": 1,
  "dropped_bytes": 64,
  "dead_letters": 2,
  "tampered_msgs": 0,
  "timer_fires": 7,
  "restarts": 1,
"#;
        let phases = r#"  "phases": {
    "aggregate": {"count": 1, "min_ticks": 45, "p50_ticks": 45, "mean_ticks": 45, "max_ticks": 45},
    "submit": {"count": 3, "min_ticks": 10, "p50_ticks": 20, "mean_ticks": 20, "max_ticks": 30}
  }
}"#;
        assert_eq!(rendered(&m), format!("{head}{phases}"));
        m.phases.clear();
        assert_eq!(rendered(&m), format!("{head}  \"phases\": {{}}\n}}"));
    }

    #[test]
    fn empty_series_are_zero() {
        let p = PhaseSeries::default();
        assert_eq!((p.min(), p.max(), p.mean(), p.p50()), (0, 0, 0, 0));
    }
}
