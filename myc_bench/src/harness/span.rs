//! In-memory spans around calls into the measured layers.
//!
//! The benchmark traces from outside: a span wraps each call it makes
//! into a public function of the repository, and nothing inside the
//! program is touched. Spans are kept in memory and only summed once the
//! measurement is over.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The layer boundary it wraps.
    pub name: &'static str,
    /// Start, in seconds since the tracer was made.
    pub start_s: f64,
    /// End, in seconds since the tracer was made.
    pub end_s: f64,
    /// Index of the span that caused it.
    pub parent: Option<usize>,
    /// The round (operation) it belongs to.
    pub round: u32,
}

/// Records nested spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Spans recorded from now on belong to round `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let now = self.epoch.elapsed().as_secs_f64();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.iter().rev().nth(1).copied(),
            round: self.round,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per round and span name: a span's duration minus the
    /// part of it its direct children cover, summed over the spans of
    /// that name in that round.
    pub fn self_times(&self) -> BTreeMap<(u32, &'static str), f64> {
        self_times(&self.spans)
    }
}

/// See [`Tracer::self_times`].
pub fn self_times(spans: &[Span]) -> BTreeMap<(u32, &'static str), f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_s - s.start_s;
        }
    }
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *out.entry((s.round, s.name)).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            round: 3,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0, 10] > origin [1, 9] > {build [2, 4], build [5, 8]}
        let spans = [
            span("round", 0.0, 10.0, None),
            span("origin", 1.0, 9.0, Some(0)),
            span("build", 2.0, 4.0, Some(1)),
            span("build", 5.0, 8.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&(3, "round")], 2.0);
        assert_eq!(t[&(3, "origin")], 3.0);
        assert_eq!(t[&(3, "build")], 5.0);
        assert_eq!(t.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn tracer_nests_and_separates_rounds() {
        let mut tr = Tracer::new();
        for round in 0..2 {
            tr.set_round(round);
            tr.enter("round");
            let x = tr.span("leaf", || 40 + 2);
            assert_eq!(x, 42);
            tr.enter("mid");
            tr.span("leaf", || ());
            tr.exit();
            tr.exit();
        }
        let s = tr.spans();
        assert_eq!(s.len(), 8);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[4].parent, None);
        assert_eq!(s[7].parent, Some(6));
        assert!(s.iter().all(|sp| sp.end_s >= sp.start_s));
        let t = tr.self_times();
        assert_eq!(t.len(), 6);
        for round in 0..2 {
            let whole = s[4 * round as usize].end_s - s[4 * round as usize].start_s;
            let parts: f64 = t
                .iter()
                .filter(|((r, _), _)| *r == round)
                .map(|(_, v)| v)
                .sum();
            assert!((whole - parts).abs() < 1e-9);
        }
    }
}
