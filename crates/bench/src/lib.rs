//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6).
//!
//! The `paper` binary's subcommands (`fig5` … `fig9`, `device_costs`, …,
//! `all`) print the same rows/series the paper reports plus a
//! paper-vs-measured comparison; `EXPERIMENTS.md` records the outputs.
//! The `bench_bgv` binary measures the underlying component costs (NTT,
//! BGV multiply, relinearization, end-to-end query) with plain
//! `std::time::Instant` at `MYC_THREADS ∈ {1, 2, 4, 8}` capped at the
//! host's core count and writes `BENCH_bgv.json` — the numbers the §6 cost
//! models extrapolate from, exactly as the paper extrapolates from its
//! component benchmarks (§6.1).

pub mod net;
pub mod queries;
pub mod rounds;

/// Formats a byte count as MB with one decimal.
pub fn mb(bytes: f64) -> String {
    format!("{:.1} MB", bytes / 1e6)
}

/// Formats a probability in scientific notation.
pub fn sci(p: f64) -> String {
    format!("{p:.2e}")
}

/// Renders a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    cells.join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(mb(4_300_000.0), "4.3 MB");
        assert_eq!(sci(1.6e-5), "1.60e-5");
        assert_eq!(row(&["a".into(), "b".into()]), "a | b");
    }
}
