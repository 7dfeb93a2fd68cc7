//! Decoding the decrypted global plaintext into per-group results.
//!
//! The global aggregate is a single plaintext polynomial whose coefficient
//! at index `e` counts the origins whose (packed) local result was `e`.
//! This module inverts the window layout chosen by the analysis:
//!
//! * ungrouped / self-side / cross groups: additive windows — window `g`
//!   occupies coefficients `[g·w, (g+1)·w)`;
//! * per-edge groups: multiplicative radix packing — the combined exponent
//!   is `Σ_g block_g · w^g`, unpacked digit by digit;
//! * ratio queries: within a window, the joint index is
//!   `count · value_radix + sum`.
//!
//! The output type is `mycelium_query::eval::PlainResult`, so the encrypted
//! pipeline's decoded output can be compared bit-for-bit against the
//! plaintext oracle.

use mycelium_bgv::Plaintext;
use mycelium_query::analyze::{Analysis, GroupKind};
use mycelium_query::ast::Query;
use mycelium_query::eval::{group_label, GroupResult, PlainResult};

/// Decodes a decrypted aggregate into per-group results.
pub fn decode_aggregate(pt: &Plaintext, query: &Query, analysis: &Analysis) -> PlainResult {
    let gw = analysis.group_window;
    let hist_len = if analysis.joint_ratio {
        analysis.count_radix * analysis.value_radix
    } else {
        analysis.value_radix
    };
    let clip = query.clip.unwrap_or((0, u64::MAX));
    let mut groups: Vec<GroupResult> = (0..analysis.groups)
        .map(|g| GroupResult {
            label: group_label(query.group_by.as_ref(), g),
            histogram: vec![0; hist_len],
            total_pairs: 0,
            total_clipped_sum: 0,
        })
        .collect();
    let coeffs = pt.coeffs();
    match analysis.group_kind {
        GroupKind::None | GroupKind::SelfSide | GroupKind::Cross => {
            for (g, gr) in groups.iter_mut().enumerate() {
                let start = g * gw;
                for (local, &c) in coeffs[start..(start + gw).min(coeffs.len())]
                    .iter()
                    .enumerate()
                {
                    if c == 0 {
                        continue;
                    }
                    record(gr, analysis, local, c, clip);
                }
            }
        }
        GroupKind::PerEdge => {
            // Combined exponent: digits base `gw`, one block per group.
            for (e, &c) in coeffs.iter().enumerate().take(analysis.total_span) {
                if c == 0 {
                    continue;
                }
                let mut rest = e;
                for gr in groups.iter_mut() {
                    let block = rest % gw;
                    rest /= gw;
                    record(gr, analysis, block, c, clip);
                }
            }
        }
    }
    PlainResult { groups }
}

fn record(gr: &mut GroupResult, analysis: &Analysis, local: usize, count: u64, clip: (u64, u64)) {
    let last = gr.histogram.len() - 1;
    gr.histogram[local.min(last)] += count;
    if analysis.joint_ratio {
        let pairs = (local / analysis.value_radix) as u64;
        let sum = (local % analysis.value_radix) as u64;
        gr.total_pairs += pairs * count;
        gr.total_clipped_sum += sum.clamp(clip.0, clip.1) * count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium_query::analyze::{analyze, Schema};
    use mycelium_query::builtin::paper_query;

    fn schema() -> Schema {
        Schema {
            degree_bound: 4,
            duration_cap: 12,
            contacts_cap: 10,
            ..Schema::default()
        }
    }

    #[test]
    fn decode_ungrouped_histogram() {
        let s = schema();
        let q = paper_query("Q1").unwrap();
        let a = analyze(&q, &s).unwrap();
        // Three origins with count 2, one with count 0.
        let mut coeffs = vec![0u64; 1024];
        coeffs[2] = 3;
        coeffs[0] = 1;
        let pt = Plaintext::new(coeffs, 1 << 10).unwrap();
        let r = decode_aggregate(&pt, &q, &a);
        assert_eq!(r.groups.len(), 1);
        assert_eq!(r.groups[0].histogram[2], 3);
        assert_eq!(r.groups[0].histogram[0], 1);
    }

    #[test]
    fn decode_per_edge_groups() {
        let s = schema();
        let q = paper_query("Q7").unwrap();
        let a = analyze(&q, &s).unwrap();
        assert_eq!(a.groups, 3);
        let gw = a.group_window;
        // One origin with blocks (1, 0, 2): combined e = 1 + 0·gw + 2·gw².
        let e = 1 + 2 * gw * gw;
        let mut coeffs = vec![0u64; 1024];
        coeffs[e] = 1;
        let pt = Plaintext::new(coeffs, 1 << 10).unwrap();
        let r = decode_aggregate(&pt, &q, &a);
        assert_eq!(r.groups[0].histogram[1], 1, "family count 1");
        assert_eq!(r.groups[1].histogram[0], 1, "social count 0");
        assert_eq!(r.groups[2].histogram[2], 1, "work count 2");
    }

    #[test]
    fn decode_ratio_totals() {
        let s = schema();
        let q = paper_query("Q9").unwrap();
        let a = analyze(&q, &s).unwrap();
        assert!(a.joint_ratio);
        // Two origins: (count 3, sum 1) and (count 2, sum 2).
        let i1 = 3 * a.value_radix + 1;
        let i2 = 2 * a.value_radix + 2;
        let mut coeffs = vec![0u64; 1024];
        coeffs[i1] = 1;
        coeffs[i2] = 1;
        let pt = Plaintext::new(coeffs, 1 << 10).unwrap();
        let r = decode_aggregate(&pt, &q, &a);
        assert_eq!(r.groups[0].total_pairs, 5);
        assert_eq!(r.groups[0].total_clipped_sum, 3);
        assert!((r.groups[0].rate() - 0.6).abs() < 1e-12);
    }
}
