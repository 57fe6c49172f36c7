//! Figure 5: per-query time-savings ratios (ExSample vs random) at recall
//! .1 / .5 / .9, plus the abstract's headline geometric mean.

use crate::report::{fmt_ratio, Table};
use crate::table1::QueryEval;
use exsample_core::fidelity::{self, Summary};

/// One panel (recall level) of Figure 5: queries sorted by descending
/// savings.
#[derive(Debug, Clone)]
pub struct Fig5Panel {
    /// Recall level (.1, .5, .9).
    pub recall: f64,
    /// `(dataset, class, savings)` sorted descending; queries missing a
    /// measurement are omitted.
    pub bars: Vec<(String, String, f64)>,
}

/// Build the three panels from the Table I evaluation results.
pub fn panels(evals: &[QueryEval]) -> Vec<Fig5Panel> {
    crate::table1::RECALLS
        .iter()
        .enumerate()
        .map(|(i, &recall)| {
            let mut bars: Vec<(String, String, f64)> = evals
                .iter()
                .filter_map(|e| {
                    e.savings(i)
                        .map(|s| (e.dataset.clone(), e.class.clone(), s))
                })
                .collect();
            bars.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite savings"));
            Fig5Panel { recall, bars }
        })
        .collect()
}

/// The cross-panel summary of every bar (the numbers quoted in §V-C).
pub fn summary(panels: &[Fig5Panel]) -> Option<Summary> {
    let all: Vec<f64> = panels
        .iter()
        .flat_map(|p| p.bars.iter().map(|b| b.2))
        .collect();
    fidelity::summary(&all)
}

/// One row of the paper-fidelity gate: ExSample's savings over random on
/// `dataset`/`class` at recall `RECALLS[recall]` must lie in `lo..=hi`,
/// at any seed and at either [`Scale`](crate::Scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Dataset name.
    pub dataset: &'static str,
    /// Class name.
    pub class: &'static str,
    /// Index into [`RECALLS`](crate::table1::RECALLS).
    pub recall: usize,
    /// Lowest passing savings ratio.
    pub lo: f64,
    /// Highest passing savings ratio.
    pub hi: f64,
}

/// The gate's rows: the paper's no-skew case (`archie/car`, where
/// ExSample trails random early), a near-uniform one (`amsterdam/boat`)
/// and two skewed ones, at recall .1 and .5. Each band is our own
/// seed-to-seed range (ten seeds at `Quick`, six at `Full`) widened to
/// `[0.8 × min, 1.25 × max]`; the paper's figures play no part.
#[rustfmt::skip]
pub const BANDS: [Band; 8] = [
    Band { dataset: "archie", class: "car", recall: 0, lo: 0.36, hi: 0.64 },
    Band { dataset: "archie", class: "car", recall: 1, lo: 0.59, hi: 1.00 },
    Band { dataset: "amsterdam", class: "boat", recall: 0, lo: 0.64, hi: 1.39 },
    Band { dataset: "amsterdam", class: "boat", recall: 1, lo: 0.68, hi: 1.46 },
    Band { dataset: "night street", class: "person", recall: 0, lo: 1.59, hi: 4.22 },
    Band { dataset: "night street", class: "person", recall: 1, lo: 1.53, hi: 2.89 },
    Band { dataset: "dashcam", class: "bicycle", recall: 0, lo: 3.84, hi: 16.75 },
    Band { dataset: "dashcam", class: "bicycle", recall: 1, lo: 10.10, hi: 23.56 },
];

impl Band {
    /// The miss, naming the row, when `e` (an evaluation of the row's
    /// query) has savings outside the band or none at all.
    pub fn miss(&self, e: &QueryEval) -> Option<String> {
        let s = e.savings(self.recall);
        if s.is_some_and(|s| (self.lo..=self.hi).contains(&s)) {
            return None;
        }
        Some(format!(
            "{}/{} @ recall {}: savings {} outside [{}, {}]",
            self.dataset,
            self.class,
            crate::table1::RECALLS[self.recall],
            s.map(fmt_ratio).unwrap_or_else(|| "unmeasured".into()),
            self.lo,
            self.hi
        ))
    }
}

/// Band on the geometric mean over every bar, set like [`BANDS`] (1.60×
/// to 1.68× over seven `Quick` and five `Full` seeds).
pub const GEO_MEAN_BAND: (f64, f64) = (1.28, 2.10);

/// Every [`BANDS`] row that `evals` (the whole Table I evaluation) misses,
/// a row whose query is absent included, then the geometric mean if it
/// misses [`GEO_MEAN_BAND`].
pub fn band_misses(evals: &[QueryEval]) -> Vec<String> {
    let eval = |b: &Band| {
        evals
            .iter()
            .find(|e| e.dataset == b.dataset && e.class == b.class)
    };
    let mut misses: Vec<String> = BANDS
        .iter()
        .filter_map(|b| match eval(b) {
            Some(e) => b.miss(e),
            None => Some(format!("{}/{}: not evaluated", b.dataset, b.class)),
        })
        .collect();
    let (lo, hi) = GEO_MEAN_BAND;
    let geo_mean = summary(&panels(evals)).map(|s| s.geo_mean);
    if !geo_mean.is_some_and(|g| (lo..=hi).contains(&g)) {
        let g = geo_mean
            .map(fmt_ratio)
            .unwrap_or_else(|| "unmeasured".into());
        misses.push(format!("geometric mean: {g} outside [{lo}, {hi}]"));
    }
    misses
}

/// Render one panel as a table (the figure's bars, as rows).
pub fn panel_table(panel: &Fig5Panel) -> Table {
    let mut t = Table::new(&["dataset", "class", "savings"]);
    for (ds, cls, s) in &panel.bars {
        t.row(vec![ds.clone(), cls.clone(), fmt_ratio(*s)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(ds: &str, cls: &str, ex: [Option<f64>; 3], rnd: [Option<f64>; 3]) -> QueryEval {
        QueryEval {
            dataset: ds.into(),
            class: cls.into(),
            count: 100,
            proxy_scan_s: 1000.0,
            targets: [10, 50, 90],
            exsample_s: ex,
            random_s: rnd,
        }
    }

    #[test]
    fn panels_sorted_descending() {
        let evals = vec![
            eval("a", "x", [Some(10.0); 3], [Some(20.0); 3]), // 2x
            eval("a", "y", [Some(10.0); 3], [Some(60.0); 3]), // 6x
            eval("b", "z", [Some(10.0); 3], [Some(7.5); 3]),  // 0.75x
        ];
        let p = panels(&evals);
        assert_eq!(p.len(), 3);
        let bars = &p[0].bars;
        assert_eq!(bars.len(), 3);
        assert!((bars[0].2 - 6.0).abs() < 1e-12);
        assert!((bars[2].2 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_statistics() {
        let evals = vec![
            eval("a", "x", [Some(10.0); 3], [Some(20.0); 3]),
            eval("a", "y", [Some(10.0); 3], [Some(45.0); 3]),
        ];
        let s = summary(&panels(&evals)).unwrap();
        assert_eq!(s.bars, 6);
        assert!((s.max - 4.5).abs() < 1e-12);
        assert!((s.min - 2.0).abs() < 1e-12);
        assert!((s.geo_mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unmeasured_queries_are_omitted() {
        let evals = vec![eval("a", "x", [None; 3], [Some(5.0); 3])];
        let p = panels(&evals);
        assert!(p.iter().all(|panel| panel.bars.is_empty()));
        assert!(summary(&p).is_none());
    }

    #[test]
    fn panel_table_renders() {
        let evals = vec![eval("a", "x", [Some(2.0); 3], [Some(5.0); 3])];
        let t = panel_table(&panels(&evals)[0]);
        assert_eq!(t.len(), 1);
        assert!(t.to_markdown().contains("2.50x"));
    }
}
