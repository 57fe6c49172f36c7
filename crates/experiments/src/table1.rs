//! Table I: proxy scan time vs ExSample time-to-recall, for all 43
//! queries (plus the random-baseline times Figure 5 builds on).

use crate::presets::{all_datasets, EvalDataset};
use crate::report::{fmt_hms, Table};
use crate::runner::{replicate_runs, PolicyFactory, PolicySpec, RunConfig};
use crate::Scale;
use exsample_core::driver::StopCond;
use exsample_core::exsample::ExSampleConfig;
use exsample_core::fidelity::{median_to, savings, Key};
use exsample_videosim::{ClassId, GroundTruth};
use std::sync::Arc;

/// Recall levels reported by Table I / Figure 5.
pub const RECALLS: [f64; 3] = [0.1, 0.5, 0.9];

/// Evaluation result for one dataset/class query.
#[derive(Debug, Clone)]
pub struct QueryEval {
    /// Dataset name.
    pub dataset: String,
    /// Class name.
    pub class: String,
    /// Distinct instance count `N`.
    pub count: usize,
    /// Seconds for a proxy model to score every frame.
    pub proxy_scan_s: f64,
    /// Result targets at the three recall levels.
    pub targets: [u64; 3],
    /// Median ExSample seconds to each recall (None = not reached).
    pub exsample_s: [Option<f64>; 3],
    /// Median random-sampling seconds to each recall.
    pub random_s: [Option<f64>; 3],
}

impl QueryEval {
    /// Savings ratio `random / exsample` at recall index `i`.
    pub fn savings(&self, i: usize) -> Option<f64> {
        savings(self.random_s[i], self.exsample_s[i])
    }
}

/// Evaluation settings.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Replicate runs per (query, policy).
    pub runs: usize,
    /// Hard cap on frames sampled per run (guards unreachable recalls).
    pub max_samples: u64,
    /// Root seed.
    pub seed: u64,
}

impl EvalConfig {
    /// Paper-scale or smoke-scale settings.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => EvalConfig {
                runs: 5,
                max_samples: 700_000,
                seed: 7,
            },
            Scale::Quick => EvalConfig {
                runs: 3,
                max_samples: 120_000,
                seed: 7,
            },
        }
    }
}

/// The policy Table I evaluates: default ExSample on `dataset`'s chunks.
pub fn exsample_policy(dataset: &EvalDataset) -> PolicySpec {
    PolicySpec::ExSample {
        chunking: dataset.chunking(),
        config: ExSampleConfig::default(),
    }
}

/// Evaluate one query: `exsample` (see [`exsample_policy`]) against random.
pub fn evaluate_query(
    gt: &Arc<GroundTruth>,
    dataset: &EvalDataset,
    class_idx: usize,
    cfg: &EvalConfig,
    exsample: &dyn PolicyFactory,
) -> QueryEval {
    let random_s = random_medians(gt, class_idx, cfg);
    evaluate_against(gt, dataset, class_idx, cfg, exsample, random_s)
}

/// The median seconds random sampling takes to each of the query's
/// recall targets — the baseline half of [`evaluate_query`], for a caller
/// that evaluates several samplers against one random baseline.
pub fn random_medians(
    gt: &Arc<GroundTruth>,
    class_idx: usize,
    cfg: &EvalConfig,
) -> [Option<f64>; 3] {
    let (class, targets, run_cfg) = plan(gt, class_idx, cfg);
    let traces = replicate_runs(gt, class, &PolicySpec::Random, &run_cfg);
    targets.map(|t| median_to(&traces, t, Key::Seconds))
}

/// Evaluate `exsample` on one query against random medians already
/// computed by [`random_medians`] with the same `cfg`.
pub fn evaluate_against(
    gt: &Arc<GroundTruth>,
    dataset: &EvalDataset,
    class_idx: usize,
    cfg: &EvalConfig,
    exsample: &dyn PolicyFactory,
    random_s: [Option<f64>; 3],
) -> QueryEval {
    let (class, targets, run_cfg) = plan(gt, class_idx, cfg);
    let ex_traces = replicate_runs(gt, class, exsample, &run_cfg);
    QueryEval {
        dataset: dataset.name.to_string(),
        class: dataset.classes[class_idx].name.to_string(),
        count: gt.class_count(class),
        proxy_scan_s: dataset.proxy_scan_seconds(),
        targets,
        exsample_s: targets.map(|t| median_to(&ex_traces, t, Key::Seconds)),
        random_s,
    }
}

/// One query's class, result targets at [`RECALLS`], and the runs both
/// policies are replicated over.
fn plan(gt: &GroundTruth, class_idx: usize, cfg: &EvalConfig) -> (ClassId, [u64; 3], RunConfig) {
    let class = ClassId(class_idx as u16);
    let count = gt.class_count(class);
    let targets: [u64; 3] =
        std::array::from_fn(|i| ((count as f64 * RECALLS[i]).ceil() as u64).max(1));
    let stop = StopCond::results(targets[2]).or_samples(cfg.max_samples);
    let run_cfg = RunConfig::new(cfg.runs, stop, cfg.seed ^ (class_idx as u64) << 8);
    (class, targets, run_cfg)
}

/// Evaluate every query of every dataset (the full Table I / Figure 5
/// workload).
pub fn evaluate_all(scale: Scale) -> Vec<QueryEval> {
    let cfg = EvalConfig::at_scale(scale);
    let mut out = Vec::new();
    for dataset in all_datasets() {
        let (gt, exsample) = (dataset.repository(), exsample_policy(&dataset));
        for class_idx in 0..dataset.classes.len() {
            out.push(evaluate_query(&gt, &dataset, class_idx, &cfg, &exsample));
        }
    }
    out
}

/// Render Table I: per query, proxy scan time vs ExSample time to 10/50/90%.
pub fn to_table(evals: &[QueryEval]) -> Table {
    let mut t = Table::new(&["dataset", "proxy (scan)", "category", "10%", "50%", "90%"]);
    let fmt = |s: &Option<f64>| s.map(fmt_hms).unwrap_or_else(|| "-".into());
    for e in evals {
        t.row(vec![
            e.dataset.clone(),
            fmt_hms(e.proxy_scan_s),
            e.class.clone(),
            fmt(&e.exsample_s[0]),
            fmt(&e.exsample_s[1]),
            fmt(&e.exsample_s[2]),
        ]);
    }
    t
}

/// The paper's headline check for Table I: every query reaches 90% recall
/// before the proxy scan completes. Returns the queries that violate it.
pub fn violations(evals: &[QueryEval]) -> Vec<&QueryEval> {
    evals
        .iter()
        .filter(|e| match e.exsample_s[2] {
            Some(t90) => t90 >= e.proxy_scan_s,
            None => true, // never reached within budget: count as violation
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::dataset;

    #[test]
    fn single_query_shape() {
        // Smallest dataset; cheap class.
        let d = dataset("BDD MOT").unwrap();
        let gt = Arc::new(d.dataset_spec().generate(5));
        let ci = d.class_index("car").unwrap();
        let cfg = EvalConfig {
            runs: 3,
            max_samples: 60_000,
            seed: 1,
        };
        let e = evaluate_query(&gt, &d, ci, &cfg, &exsample_policy(&d));
        assert_eq!(e.count, 15_000);
        assert_eq!(e.targets, [1500, 7500, 13500]);
        // 10% of cars must be reachable quickly.
        let t10 = e.exsample_s[0].expect("10% reachable");
        assert!(t10 > 0.0);
        assert!(e.proxy_scan_s > 0.0);
        // Monotone in recall when reached.
        if let (Some(a), Some(b)) = (e.exsample_s[0], e.exsample_s[1]) {
            assert!(a <= b);
        }
    }

    #[test]
    fn exsample_beats_proxy_scan_on_skewed_query() {
        let d = dataset("dashcam").unwrap();
        let gt = Arc::new(d.dataset_spec().generate(9));
        let ci = d.class_index("bicycle").unwrap();
        let cfg = EvalConfig {
            runs: 3,
            max_samples: 400_000,
            seed: 2,
        };
        let e = evaluate_query(&gt, &d, ci, &cfg, &exsample_policy(&d));
        let t90 = e.exsample_s[2].expect("90% reachable");
        assert!(
            t90 < e.proxy_scan_s,
            "t90={} scan={}",
            fmt_hms(t90),
            fmt_hms(e.proxy_scan_s)
        );
    }

    #[test]
    fn table_renders_rows() {
        let e = QueryEval {
            dataset: "d".into(),
            class: "c".into(),
            count: 10,
            proxy_scan_s: 3240.0,
            targets: [1, 5, 9],
            exsample_s: [Some(97.0), Some(537.0), Some(2460.0)],
            random_s: [Some(100.0), None, None],
        };
        let t = to_table(std::slice::from_ref(&e));
        let md = t.to_markdown();
        assert!(md.contains("1m37s"));
        assert!(md.contains("54m"));
        assert!((e.savings(0).unwrap() - 100.0 / 97.0).abs() < 1e-12);
        assert!(e.savings(1).is_none());
        assert!(violations(&[e]).is_empty());
    }
}
