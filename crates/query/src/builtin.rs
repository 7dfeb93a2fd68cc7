//! The paper's ten example queries (Figure 2).
//!
//! Each query comes from the infectious-disease literature the paper cites;
//! the SQL below is the paper's, adapted to this crate's concrete grammar
//! (`∧` → `AND`, `∈` → `IN`, explicit `CLIP` ranges for the `GSUM`
//! queries, and Q5's "within the last 24 hours" as an `edge.last_contact`
//! bound against the 28-day observation window).

use crate::ast::Query;
use crate::parser::parse;

/// Query text for Q1–Q10.
pub const PAPER_QUERY_TEXT: [(&str, &str, &str); 10] = [
    (
        "Q1",
        "Histogram of the number of infections in an infected participant's two-hop neighborhood",
        "SELECT HISTO(COUNT(*)) FROM neigh(2) WHERE dest.inf AND self.inf",
    ),
    (
        "Q2",
        "Histogram of time A spent near B, if A is infected within 5-15 days of contact with B",
        "SELECT HISTO(SUM(edge.duration)) FROM neigh(1) \
         WHERE self.inf AND dest.tInf IN [edge.last_contact+5, edge.last_contact+10]",
    ),
    (
        "Q3",
        "Histogram of the frequency of contact between A and B, if A infected B",
        "SELECT HISTO(SUM(edge.contacts)) FROM neigh(1) \
         WHERE self.inf AND dest.tInf AND dest.tInf > self.tInf+2",
    ),
    (
        "Q4",
        "Secondary attack rate of infected participants if they travelled on the subway",
        "SELECT HISTO(SUM(dest.inf)) FROM neigh(1) WHERE onSubway(edge.location) AND self.inf",
    ),
    (
        "Q5",
        "Histogram of the number of distinct contacts within the last 24 hours, by age group",
        "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE edge.last_contact >= 27 GROUP BY self.age",
    ),
    (
        "Q6",
        "Histogram of secondary infections caused by infected participants in age groups",
        "SELECT HISTO(COUNT(*)) FROM neigh(1) \
         WHERE self.inf AND dest.tInf AND dest.tInf > self.tInf+2 GROUP BY self.age",
    ),
    (
        "Q7",
        "Histogram of secondary infections based on type of exposure (family, social, work)",
        "SELECT HISTO(COUNT(*)) FROM neigh(1) \
         WHERE self.inf AND dest.tInf AND dest.tInf > self.tInf+2 GROUP BY edge.setting",
    ),
    (
        "Q8",
        "Secondary attack rates in household vs non-household contacts",
        "SELECT GSUM(SUM(dest.inf)/COUNT(*)) FROM neigh(1) WHERE self.inf \
         GROUP BY isHousehold(edge.location) CLIP [0, 10]",
    ),
    (
        "Q9",
        "Secondary attack rates within case-contact pairs in the same vs different age groups",
        "SELECT GSUM(SUM(dest.inf)/COUNT(*)) FROM neigh(1) \
         WHERE dest.age IN [0, 100] AND self.age IN [dest.age-10, dest.age+10] CLIP [0, 10]",
    ),
    (
        "Q10",
        "Secondary attack rates at different disease stages (incubation vs illness)",
        "SELECT GSUM(SUM(dest.inf)/COUNT(*)) FROM neigh(1) \
         WHERE self.inf AND dest.tInf > self.tInf+2 \
         GROUP BY stage(dest.tInf - self.tInf) CLIP [0, 10]",
    ),
];

/// The query-service conformance scenarios: one named query per workload
/// class the multi-query session must drive through the encrypted
/// pipeline (Liu & Gupta's "practical for certain queries" taxonomy and
/// GORAM's ego-centric query set supply the classes).
///
/// `KHOP` is deliberately two-hop: at the shallow simulation BGV chain it
/// reproduces the §6.2 infeasibility result, and at a deepened chain it
/// runs — the session picks the parameter set.
pub const CONFORMANCE_QUERY_TEXT: [(&str, &str, &str); 5] = [
    (
        "SEIR",
        "Contact-tracing SEIR sweep: infectious contacts by disease stage at exposure",
        "SELECT HISTO(COUNT(*)) FROM neigh(1) \
         WHERE self.inf AND dest.tInf GROUP BY stage(dest.tInf - self.tInf)",
    ),
    (
        "DEGREE",
        "Power-law degree histogram: distinct contacts per participant, no predicate",
        "SELECT HISTO(COUNT(*)) FROM neigh(1)",
    ),
    (
        "KHOP",
        "k-hop GSUM aggregate: infected participants in the two-hop neighborhood, clipped",
        "SELECT GSUM(COUNT(*)) FROM neigh(2) WHERE dest.inf CLIP [0, 8]",
    ),
    (
        "CLIPGB",
        "CLIP'd GROUP BY: total exposure minutes to infectious contacts, by age group",
        "SELECT GSUM(SUM(edge.duration)) FROM neigh(1) \
         WHERE dest.inf GROUP BY self.age CLIP [0, 24]",
    ),
    (
        "CROSSEVAL",
        "Crosseval: contact frequency where diagnosis falls within ±2 days of the origin's",
        "SELECT HISTO(SUM(edge.contacts)) FROM neigh(1) \
         WHERE self.inf AND dest.tInf IN [self.tInf-2, self.tInf+2]",
    ),
];

/// Parses all ten paper queries.
///
/// # Panics
///
/// Panics if any built-in query fails to parse (a bug, covered by tests).
pub fn paper_queries() -> Vec<Query> {
    PAPER_QUERY_TEXT
        .iter()
        .map(|(name, _, text)| parse(name, text).expect("built-in query must parse"))
        .collect()
}

/// Returns one named built-in query: a paper query (`"Q1"`–`"Q10"`) or a
/// conformance query (`"SEIR"`, `"DEGREE"`, `"KHOP"`, `"CLIPGB"`,
/// `"CROSSEVAL"`).
pub fn paper_query(name: &str) -> Option<Query> {
    PAPER_QUERY_TEXT
        .iter()
        .chain(CONFORMANCE_QUERY_TEXT.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(n, _, text)| parse(n, text).expect("built-in query must parse"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Agg;

    #[test]
    fn all_ten_parse() {
        let qs = paper_queries();
        assert_eq!(qs.len(), 10);
        for (q, (name, _, _)) in qs.iter().zip(PAPER_QUERY_TEXT) {
            assert_eq!(q.name, name);
        }
    }

    #[test]
    fn aggregate_kinds_match_figure2() {
        let qs = paper_queries();
        for q in &qs[..7] {
            assert_eq!(q.agg, Agg::Histo, "{} should be HISTO", q.name);
        }
        for q in &qs[7..] {
            assert_eq!(q.agg, Agg::Gsum, "{} should be GSUM", q.name);
            assert!(q.clip.is_some());
        }
    }

    #[test]
    fn only_q1_is_two_hop() {
        for q in paper_queries() {
            if q.name == "Q1" {
                assert_eq!(q.hops, 2);
            } else {
                assert_eq!(q.hops, 1, "{}", q.name);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(paper_query("Q7").is_some());
        assert!(paper_query("Q11").is_none());
    }

    #[test]
    fn conformance_queries_parse_and_cover_the_classes() {
        assert_eq!(CONFORMANCE_QUERY_TEXT.len(), 5);
        let by_name = |n: &str| paper_query(n).filter(|q| q.name == n).unwrap();
        // SEIR: 1-hop histogram grouped by a self↔dest stage expression.
        let seir = by_name("SEIR");
        assert_eq!(seir.agg, Agg::Histo);
        assert!(seir.group_by.is_some());
        // DEGREE: predicate-free degree histogram.
        let degree = by_name("DEGREE");
        assert!(degree.predicate.clauses.is_empty());
        assert_eq!(degree.hops, 1);
        // KHOP: the only multi-hop conformance query, a clipped GSUM.
        let khop = by_name("KHOP");
        assert_eq!(khop.hops, 2);
        assert_eq!(khop.agg, Agg::Gsum);
        assert!(khop.clip.is_some());
        // CLIPGB: grouped GSUM with a clip range.
        let clipgb = by_name("CLIPGB");
        assert_eq!(clipgb.agg, Agg::Gsum);
        assert!(clipgb.group_by.is_some() && clipgb.clip.is_some());
        // CROSSEVAL: a self↔dest range comparison.
        let cross = by_name("CROSSEVAL");
        assert_eq!(cross.agg, Agg::Histo);
        // Conformance names resolve through the same lookup as Q1–Q10.
        for (n, _, _) in CONFORMANCE_QUERY_TEXT {
            assert!(paper_query(n).is_some(), "{n} must resolve");
        }
    }
}
