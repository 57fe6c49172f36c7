//! Figure 6: per-chunk instance histograms and the skew metric `S` for
//! representative queries.
//!
//! The paper inspects five queries spanning the savings spectrum:
//! dashcam/bicycle (S=14, savings 7), bdd1k/motor (S=19, savings 2),
//! night-street/person (S=4.5, savings 3), archie/car (S=1.1, savings 1),
//! amsterdam/boat (S=1.6, savings 0.9).

use crate::optimal::{chunk_instance_counts, skew_metric};
use crate::presets::dataset;
use crate::report::Table;
use exsample_videosim::ClassId;

/// The representative queries of Figure 6, in paper order, with the
/// paper's reported `(S, savings)` for reference.
pub(crate) const REPRESENTATIVE: [(&str, &str, f64, f64); 5] = [
    ("dashcam", "bicycle", 14.0, 7.0),
    ("BDD 1k", "motor", 19.0, 2.0),
    ("night street", "person", 4.5, 3.0),
    ("archie", "car", 1.1, 1.0),
    ("amsterdam", "boat", 1.6, 0.9),
];

/// Result for one representative query.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Dataset name.
    pub dataset: String,
    /// Class name.
    pub class: String,
    /// Instances per chunk (the bars).
    pub chunk_counts: Vec<usize>,
    /// Our measured skew metric `S`.
    pub s: f64,
    /// Instance count `N`.
    pub n: usize,
    /// Paper's reported S.
    pub paper_s: f64,
    /// Paper's reported savings.
    pub paper_savings: f64,
}

/// Compute chunk histograms and S for the representative queries.
pub fn run() -> Vec<Fig6Row> {
    REPRESENTATIVE
        .iter()
        .map(|&(ds_name, cls_name, paper_s, paper_savings)| {
            let ds = dataset(ds_name).expect("known dataset");
            let gt = ds.repository();
            let ci = ds.class_index(cls_name).expect("known class");
            let chunking = ds.chunking();
            let counts = chunk_instance_counts(&gt, ClassId(ci as u16), &chunking);
            let s = skew_metric(&counts);
            Fig6Row {
                dataset: ds_name.to_string(),
                class: cls_name.to_string(),
                n: counts.iter().sum(),
                chunk_counts: counts,
                s,
                paper_s,
                paper_savings,
            }
        })
        .collect()
}

/// Render the summary as a table (histograms go to CSV via
/// [`histogram_table`]).
pub fn to_table(rows: &[Fig6Row]) -> Table {
    let mut t = Table::new(&[
        "query",
        "N",
        "chunks",
        "S (ours)",
        "S (paper)",
        "savings (paper)",
    ]);
    for r in rows {
        t.row(vec![
            format!("{}/{}", r.dataset, r.class),
            r.n.to_string(),
            r.chunk_counts.len().to_string(),
            format!("{:.1}", r.s),
            format!("{:.1}", r.paper_s),
            format!("{:.1}", r.paper_savings),
        ]);
    }
    t
}

/// Per-chunk counts as CSV rows.
pub fn histogram_table(rows: &[Fig6Row]) -> Table {
    let mut t = Table::new(&["query", "chunk", "instances"]);
    for r in rows {
        for (j, &c) in r.chunk_counts.iter().enumerate() {
            t.row(vec![
                format!("{}/{}", r.dataset, r.class),
                j.to_string(),
                c.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_ordering_matches_paper() {
        let rows = run();
        assert_eq!(rows.len(), 5);
        let s_of = |name: &str| rows.iter().find(|r| r.dataset == name).unwrap().s;
        // Qualitative ordering: dashcam/bicycle most skewed; archie/car and
        // amsterdam/boat near 1.
        assert!(s_of("dashcam") > 5.0, "dashcam S={}", s_of("dashcam"));
        assert!(s_of("archie") < 2.0, "archie S={}", s_of("archie"));
        assert!(s_of("amsterdam") < 2.5, "amsterdam S={}", s_of("amsterdam"));
        assert!(
            s_of("dashcam") > s_of("night street"),
            "dashcam {} !> night street {}",
            s_of("dashcam"),
            s_of("night street")
        );
        assert!(s_of("night street") > s_of("archie"));
    }

    #[test]
    fn counts_sum_to_n() {
        let rows = run();
        for r in &rows {
            assert_eq!(r.chunk_counts.iter().sum::<usize>(), r.n);
        }
        // Figure 6 N values are exact for these queries.
        let n_of = |ds: &str| rows.iter().find(|r| r.dataset == ds).unwrap().n;
        assert_eq!(n_of("dashcam"), 249);
        assert_eq!(n_of("archie"), 33_546);
        assert_eq!(n_of("amsterdam"), 588);
    }

    #[test]
    fn tables_render() {
        let rows = run();
        assert_eq!(to_table(&rows).len(), 5);
        assert!(histogram_table(&rows).len() > 100);
    }
}
