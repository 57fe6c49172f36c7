//! Baseline sampling policies the paper compares ExSample against.
//!
//! * [`RandomPolicy`] — uniform sampling without replacement over the
//!   whole repository ("an efficient random sampling baseline", the main
//!   comparison of Figures 3–5).
//! * [`RandomPlusPolicy`] — the stratified *random+* order of §III-F run
//!   over the whole dataset, evaluated separately in the paper's
//!   within-chunk ablation.
//! * [`SequentialPolicy`] — naive execution: scan frames in order with a
//!   stride, wrapping to unvisited offsets (§II-B "naive execution").
//! * [`ProxyOrderPolicy`] — BlazeIt-style execution: process frames in
//!   descending proxy-score order, optionally skipping frames temporally
//!   close to already-processed ones (the duplicate-avoidance heuristic
//!   mentioned in §III). The upfront scoring-scan cost is charged by the
//!   experiment harness via [`exsample_core::driver::SearchCost::upfront_s`].
//!
//! All policies implement [`exsample_core::policy::SamplingPolicy`], never
//! repeat a frame, and enumerate every frame before returning `None`.

use exsample_core::policy::{Feedback, SamplingPolicy};
use exsample_core::within::{RandomWithin, StratifiedWithin};
use exsample_core::FrameIdx;
use exsample_stats::{FxHashSet, Rng64};

/// Uniform random sampling without replacement over `0..frames`.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    inner: RandomWithin,
}

impl RandomPolicy {
    /// Policy over a repository of `frames` frames.
    pub fn new(frames: u64) -> Self {
        RandomPolicy {
            inner: RandomWithin::new(0..frames),
        }
    }
}

impl SamplingPolicy for RandomPolicy {
    fn next_frame(&mut self, rng: &mut Rng64) -> Option<FrameIdx> {
        self.inner.draw(rng)
    }
    fn feedback(&mut self, _frame: FrameIdx, _fb: Feedback) {}
    fn name(&self) -> String {
        "random".into()
    }
}

/// Stratified random+ sampling over the whole dataset.
#[derive(Debug, Clone)]
pub struct RandomPlusPolicy {
    inner: StratifiedWithin,
}

impl RandomPlusPolicy {
    /// Policy over a repository of `frames` frames.
    pub fn new(frames: u64) -> Self {
        RandomPlusPolicy {
            inner: StratifiedWithin::new(0..frames),
        }
    }
}

impl SamplingPolicy for RandomPlusPolicy {
    fn next_frame(&mut self, rng: &mut Rng64) -> Option<FrameIdx> {
        self.inner.draw(rng)
    }
    fn feedback(&mut self, _frame: FrameIdx, _fb: Feedback) {}
    fn name(&self) -> String {
        "random+".into()
    }
}

/// Naive sequential scan with a stride: emits `0, s, 2s, …`, then wraps to
/// `1, s+1, …` and so on until every frame has been visited.
#[derive(Debug, Clone)]
pub struct SequentialPolicy {
    frames: u64,
    stride: u64,
    offset: u64,
    cursor: u64,
}

impl SequentialPolicy {
    /// Scan `0..frames` visiting every `stride`-th frame per pass.
    ///
    /// # Panics
    /// Panics if `stride == 0`.
    pub fn new(frames: u64, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        SequentialPolicy {
            frames,
            stride,
            offset: 0,
            cursor: 0,
        }
    }
}

impl SamplingPolicy for SequentialPolicy {
    fn next_frame(&mut self, _rng: &mut Rng64) -> Option<FrameIdx> {
        while self.offset < self.stride.min(self.frames.max(1)) {
            let f = self.cursor;
            if f < self.frames {
                self.cursor += self.stride;
                return Some(f);
            }
            self.offset += 1;
            self.cursor = self.offset;
        }
        None
    }
    fn feedback(&mut self, _frame: FrameIdx, _fb: Feedback) {}
    fn name(&self) -> String {
        format!("sequential(stride={})", self.stride)
    }
}

/// BlazeIt-style proxy-ordered execution.
///
/// Frames are emitted in the externally supplied (descending-score) order.
/// With `avoid_window > 0`, frames within that many frames of an
/// already-emitted one are deferred: they are skipped on the main pass and
/// only emitted once the main pass is exhausted (keeping the policy a full
/// permutation). This is the duplicate-avoidance heuristic the paper gives
/// proxy baselines the benefit of.
#[derive(Debug, Clone)]
pub struct ProxyOrderPolicy {
    order: Vec<FrameIdx>,
    pos: usize,
    avoid_window: u64,
    emitted: FxHashSet<FrameIdx>,
    /// Coarse occupancy grid over `frame / (avoid_window+1)` cells for
    /// O(1) proximity checks.
    occupied_cells: FxHashSet<u64>,
    deferred: Vec<FrameIdx>,
    draining_deferred: usize,
}

impl ProxyOrderPolicy {
    /// Policy following `order` (typically
    /// [`exsample_detect::ProxyModel::descending_order`]-style output,
    /// passed as data to keep the policy detector-agnostic).
    ///
    /// # Panics
    /// Panics if `order` contains duplicates.
    pub fn new(order: Vec<FrameIdx>, avoid_window: u64) -> Self {
        let mut seen = FxHashSet::default();
        for &f in &order {
            assert!(seen.insert(f), "duplicate frame {f} in proxy order");
        }
        ProxyOrderPolicy {
            order,
            pos: 0,
            avoid_window,
            emitted: FxHashSet::default(),
            occupied_cells: FxHashSet::default(),
            deferred: Vec::new(),
            draining_deferred: 0,
        }
    }

    fn cell(&self, f: FrameIdx) -> u64 {
        f / (self.avoid_window + 1)
    }

    /// Is `f` within `avoid_window` of an emitted frame?
    fn near_emitted(&self, f: FrameIdx) -> bool {
        if self.avoid_window == 0 {
            return false;
        }
        let c = self.cell(f);
        for cc in c.saturating_sub(1)..=c + 1 {
            if self.occupied_cells.contains(&cc) {
                // Cell-level hit: confirm with exact distances.
                let lo = f.saturating_sub(self.avoid_window);
                let hi = f + self.avoid_window;
                for g in lo..=hi {
                    if self.emitted.contains(&g) {
                        return true;
                    }
                }
                return false;
            }
        }
        false
    }

    fn mark(&mut self, f: FrameIdx) {
        let c = self.cell(f);
        self.emitted.insert(f);
        self.occupied_cells.insert(c);
    }
}

impl SamplingPolicy for ProxyOrderPolicy {
    fn next_frame(&mut self, _rng: &mut Rng64) -> Option<FrameIdx> {
        while self.pos < self.order.len() {
            let f = self.order[self.pos];
            self.pos += 1;
            if self.near_emitted(f) {
                self.deferred.push(f);
            } else {
                self.mark(f);
                return Some(f);
            }
        }
        // Main pass done: drain deferred frames in score order.
        if self.draining_deferred < self.deferred.len() {
            let f = self.deferred[self.draining_deferred];
            self.draining_deferred += 1;
            return Some(f);
        }
        None
    }
    fn feedback(&mut self, _frame: FrameIdx, _fb: Feedback) {}
    fn name(&self) -> String {
        format!("proxy-order(w={})", self.avoid_window)
    }
}
