//! `compare A.json B.json`: one row per (workload, metric) of two full
//! runs — both values, the ratio with its base, the metric's bound, and a
//! verdict.

use crate::json::Json;
use crate::spec::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The change exceeds the bound but the two runs' ranges overlap by
    /// more than the bound, so the runs cannot tell it from noise.
    Unresolved,
    /// An exact count that differs (same seed, so the algorithm, the RNG
    /// stream or the cache policy changed).
    Changed,
    /// No bound: reported, not judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "CHANGED",
            Verdict::Info => "",
        }
    }
}

/// A metric's value in one run, with the range its repetitions spanned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

/// Judge `b` against base `a` for a timing metric with regression
/// `bound`: worse by more than the bound is a regression, unless the
/// min–max ranges of the two runs overlap by more than the bound (as a
/// share of the base value).
pub fn judge(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if worse_by <= bound {
        return Verdict::Ok;
    }
    let overlap = (a.max.min(b.max) - a.min.max(b.min)).max(0.0);
    if overlap / a.value.abs() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

fn reading(m: &Json) -> Option<Reading> {
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    let value = num("value")?;
    Some(Reading {
        value,
        min: num("min").unwrap_or(value),
        max: num("max").unwrap_or(value),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison; returns whether nothing regressed or changed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let same_seed = a.get("seed") == b.get("seed");
    let label = |r: &Json| {
        format!(
            "{} seed {} ({})",
            r.get("commit").and_then(Json::as_str).unwrap_or("?"),
            r.get("seed").map_or("?".into(), Json::to_string),
            r.get("date").and_then(Json::as_str).unwrap_or("?"),
        )
    };
    println!("A (base): {path_a}  {}", label(&a));
    println!("B       : {path_b}  {}", label(&b));
    if !same_seed {
        println!("seeds differ: exact counts are shown but not required to match");
    }
    println!(
        "\n{:<16} {:<42} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut clean = true;
    for (workload, sections_a) in a.get("workloads").map_or(&[][..], Json::members) {
        for section in ["end_to_end", "per_layer"] {
            let Some(ma) = metrics_of(sections_a, section) else {
                continue;
            };
            let mb = b
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|s| metrics_of(s, section));
            for (name, entry_a) in ma.members() {
                let (Some(ra), Some(rb)) = (
                    reading(entry_a),
                    mb.and_then(|m| m.get(name)).and_then(reading),
                ) else {
                    println!("{workload:<16} {name:<42} missing from one run");
                    clean = false;
                    continue;
                };
                let (verdict, bound) = match (spec::end_to_end(name), spec::per_layer(name)) {
                    (Some(m), _) if m.exact => (exact(ra, rb, same_seed), "exact".to_string()),
                    (Some(m), _) => (
                        judge(ra, rb, m.better, m.bound),
                        format!("{:.0}%", m.bound * 100.0),
                    ),
                    (_, Some(m)) if m.exact => (exact(ra, rb, same_seed), "exact".to_string()),
                    _ => (Verdict::Info, String::new()),
                };
                clean &= !matches!(verdict, Verdict::Regressed | Verdict::Changed);
                println!(
                    "{workload:<16} {name:<42} {:>14.4} {:>14.4} {:>9.4} {bound:>7}  {}",
                    ra.value,
                    rb.value,
                    rb.value / ra.value,
                    verdict.as_str()
                );
            }
        }
    }
    Ok(clean)
}

fn metrics_of<'a>(sections: &'a Json, section: &str) -> Option<&'a Json> {
    sections.get(section)?.get("metrics")
}

fn exact(a: Reading, b: Reading, same_seed: bool) -> Verdict {
    if !same_seed {
        Verdict::Info
    } else if a.value == b.value {
        Verdict::Ok
    } else {
        Verdict::Changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, min: f64, max: f64) -> Reading {
        Reading { value, min, max }
    }

    #[test]
    fn within_the_bound_is_ok_in_either_direction() {
        assert_eq!(
            judge(
                r(100.0, 98.0, 103.0),
                r(108.0, 106.0, 111.0),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                r(100.0, 98.0, 103.0),
                r(60.0, 59.0, 61.0),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                r(100.0, 98.0, 103.0),
                r(93.0, 90.0, 95.0),
                Better::Higher,
                0.10
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_the_bound_with_disjoint_ranges_is_a_regression() {
        assert_eq!(
            judge(
                r(100.0, 98.0, 103.0),
                r(120.0, 118.0, 125.0),
                Better::Lower,
                0.10
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                r(100.0, 98.0, 103.0),
                r(80.0, 78.0, 82.0),
                Better::Higher,
                0.10
            ),
            Verdict::Regressed
        );
    }

    #[test]
    fn beyond_the_bound_with_wide_overlap_is_unresolved() {
        // Ranges 90..140 and 100..150 overlap by 40 % of the base.
        assert_eq!(
            judge(
                r(100.0, 90.0, 140.0),
                r(115.0, 100.0, 150.0),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_counts_must_match_only_for_the_same_seed() {
        let (a, b) = (r(5.0, 5.0, 5.0), r(5.5, 5.5, 5.5));
        assert_eq!(exact(a, a, true), Verdict::Ok);
        assert_eq!(exact(a, b, true), Verdict::Changed);
        assert_eq!(exact(a, b, false), Verdict::Info);
    }
}
