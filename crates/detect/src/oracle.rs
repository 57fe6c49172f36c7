//! QueryOracle: detector + discriminator glued into the driver's oracle.

use crate::detector::Detector;
use crate::discrim::Discriminator;
use exsample_core::Feedback;
use exsample_stats::FxHashSet;
use exsample_videosim::{FrameIdx, InstanceId};

/// Bundles a detector and a discriminator into the
/// `FnMut(FrameIdx) -> Feedback` shape that
/// [`exsample_core::driver::run_search`] consumes, while keeping the
/// evaluation-side truth: which *true* distinct instances have been found.
#[derive(Debug)]
pub struct QueryOracle<D, X> {
    detector: D,
    discrim: X,
    true_found: FxHashSet<InstanceId>,
    spurious_results: u64,
    duplicate_results: u64,
}

impl<D: Detector, X: Discriminator> QueryOracle<D, X> {
    /// Combine a detector and a discriminator.
    pub fn new(detector: D, discrim: X) -> Self {
        QueryOracle {
            detector,
            discrim,
            true_found: FxHashSet::default(),
            spurious_results: 0,
            duplicate_results: 0,
        }
    }

    /// Process one frame: detect, discriminate, report `d0`/`d1` sizes.
    pub fn process(&mut self, frame: FrameIdx) -> Feedback {
        let dets = self.detector.detect(frame);
        let outcome = self.discrim.observe(frame, &dets);
        for t in &outcome.new_truths {
            match t {
                Some(id) => {
                    if !self.true_found.insert(*id) {
                        self.duplicate_results += 1;
                    }
                }
                None => self.spurious_results += 1,
            }
        }
        Feedback::new(outcome.new_results, outcome.matched_once)
    }

    /// Number of *true* distinct instances found (evaluation-side).
    pub fn true_found(&self) -> u64 {
        self.true_found.len() as u64
    }

    /// Results the discriminator reported as new although their instance
    /// had been found before (tracker splits).
    pub fn duplicate_results(&self) -> u64 {
        self.duplicate_results
    }

    /// Results caused by detector false positives.
    pub fn spurious_results(&self) -> u64 {
        self.spurious_results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::SimulatedDetector;
    use crate::discrim::OracleDiscriminator;
    use exsample_core::{
        driver::{run_search, SearchCost, StopCond},
        exsample::{ExSample, ExSampleConfig},
        policy::SamplingPolicy,
        Chunking,
    };
    use exsample_stats::Rng64;
    use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
    use std::sync::Arc;

    fn truth() -> Arc<GroundTruth> {
        Arc::new(
            DatasetSpec::single_class(30_000, ClassSpec::new("car", 40, 400.0, SkewSpec::Uniform))
                .generate(99),
        )
    }

    #[test]
    fn works_with_run_search_driver() {
        let gt = truth();
        let mut q = QueryOracle::new(
            SimulatedDetector::perfect(gt.clone(), ClassId(0)),
            OracleDiscriminator::new(),
        );
        let mut policy = ExSample::new(Chunking::even(30_000, 10), ExSampleConfig::default());
        let mut rng = Rng64::new(1);
        let trace = {
            let mut oracle = |f: u64| q.process(f);
            run_search(
                &mut policy,
                &mut oracle,
                &SearchCost::per_sample(0.05),
                &StopCond::results(10),
                &mut rng,
            )
        };
        assert!(trace.found() >= 10);
        // Oracle discriminator: driver-side found equals true found.
        assert_eq!(trace.found(), q.true_found());
    }

    #[test]
    fn process_counts_and_curve() {
        let gt = truth();
        let mut q = QueryOracle::new(
            SimulatedDetector::perfect(gt.clone(), ClassId(0)),
            OracleDiscriminator::new(),
        );
        let mut policy = ExSample::new(Chunking::even(30_000, 10), ExSampleConfig::default());
        let mut rng = Rng64::new(2);
        let mut found = 0u64;
        let mut samples = 0u64;
        while found < 20 && samples < 30_000 {
            let Some(f) = policy.next_frame(&mut rng) else {
                break;
            };
            let fb = q.process(f);
            policy.feedback(f, fb);
            found += fb.new_results as u64;
            samples += 1;
        }
        // With the oracle discriminator, reported == true.
        assert_eq!(q.true_found(), found);
        assert_eq!(q.duplicate_results(), 0);
        assert_eq!(q.spurious_results(), 0);
    }
}
