//! Paper-reproduction harness: everything needed to regenerate the tables
//! and figures of ExSample's evaluation, on the library crates alone
//! (sampler, baselines, simulated detector and repositories). The system
//! around the sampler is measured by the stand-alone `benchmark/` workspace.
//!
//! Each experiment module owns one artifact of the paper's evaluation:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig2`] | Fig. 2 — sampling distribution of `N1(n)` vs the Gamma belief |
//! | [`fig3`] | Fig. 3 — 4×4 skew × duration simulation grid |
//! | [`fig4`] | Fig. 4 — chunk-count sweep |
//! | [`table1`] | Table I — proxy scan time vs ExSample time-to-recall |
//! | [`fig5`] | Fig. 5 — per-query savings ratios at recall .1/.5/.9 |
//! | [`fig6`] | Fig. 6 — chunk histograms and the skew metric `S` |
//! | [`coverage`] | §III-D — variance-bound coverage check (≈80%) |
//! | [`ablate`] | design ablations: prior, selector, within-chunk order, batch |
//!
//! Supporting modules: [`presets`] (the six evaluation datasets,
//! calibrated to the paper's reported frame counts, instance counts and
//! skew), [`runner`] (replicated discovery-curve runs), [`report`]
//! (markdown/CSV emission), [`parallel`] (a scoped thread-pool map).

#![warn(missing_docs)]

pub mod ablate;
pub mod coverage;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod parallel;
pub mod presets;
pub mod report;
pub mod runner;
pub mod table1;

/// Controls experiment size: `Quick` for CI-sized smoke runs, `Full` for
/// paper-scale regeneration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale parameters (minutes of compute).
    Full,
    /// Reduced replicate counts and budgets (seconds of compute).
    Quick,
}

impl Scale {
    /// Parse from a CLI argument list: `--quick` selects [`Scale::Quick`].
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}
