//! Batched detector dispatch (ExSample §III-F): the sampler is granted
//! whole detector batches — B Thompson draws with no intermediate
//! feedback — so dispatch overhead amortizes the way real GPU inference
//! does.
//!
//! The same exhaustive workload (three analysts each sweeping the full
//! repository) runs twice through the engine under a modelled
//! per-dispatch overhead:
//!
//! 1. **per-frame dispatch** (`batch = 1`) — every cache miss is its own
//!    detector dispatch, paying the overhead every time;
//! 2. **batched dispatch** (`batch = 16`) — each batch's misses are
//!    resolved by a single dispatch.
//!
//! Both find the complete, identical result set; the example asserts the
//! batched run pays strictly fewer dispatches and strictly fewer modelled
//! dispatch-seconds, and prints machine-readable lines CI gates on.
//!
//! ```text
//! cargo run --release --example batched_search
//! ```

use exsample::core::driver::StopCond;
use exsample::detect::NoiseModel;
use exsample::engine::{Engine, EngineConfig, QuerySpec, SessionCharges, SessionStatus};
use exsample::experiments::report::Table;
use exsample::store::CostModel;
use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::sync::Arc;

const QUERIES: u64 = 3;
const SEED: u64 = 33;
const DISPATCH_OVERHEAD_S: f64 = 0.02;

/// Every query samples every frame (`StopCond::samples(frames)`) through
/// one engine dispatching the detector in batches of `batch`. Returns each
/// query's distinct results and the fleet's ledger, summed over sessions.
fn sweep(gt: &Arc<GroundTruth>, batch: u32) -> (Vec<u64>, SessionCharges) {
    let engine = Engine::new(EngineConfig {
        batch,
        cost_model: CostModel {
            dispatch_s: DISPATCH_OVERHEAD_S,
            ..CostModel::default()
        },
        ..EngineConfig::default()
    });
    let repo = engine.register_repo("batched-search", gt.clone(), NoiseModel::none(), SEED);
    let ids: Vec<_> = (0..QUERIES)
        .map(|q| {
            let spec = QuerySpec::new(repo, ClassId(0), StopCond::samples(gt.frames));
            engine
                .submit(spec.chunks(16).seed(SEED + q))
                .expect("valid query")
        })
        .collect();
    let (mut found, mut total) = (Vec::new(), SessionCharges::default());
    for id in ids {
        let report = engine.wait(id).expect("session finished");
        assert_eq!(report.status, SessionStatus::Done);
        found.push(report.trace.found());
        total.add(&report.charges);
    }
    (found, total)
}

fn main() {
    let gt = Arc::new(
        DatasetSpec::single_class(
            20_000,
            ClassSpec::new("object", 40, 60.0, SkewSpec::CentralNormal { frac95: 0.15 }),
        )
        .generate(SEED ^ 0xD5),
    );
    let batch = 16;
    println!(
        "running {QUERIES} exhaustive queries over {} frames, dispatch overhead {DISPATCH_OVERHEAD_S}s, B={batch} …\n",
        gt.frames
    );
    let (found_per_frame, per_frame) = sweep(&gt, 1);
    let (found_batched, batched) = sweep(&gt, batch);

    let mut table = Table::new(&[
        "strategy",
        "frames",
        "detector invocations",
        "dispatches",
        "dispatch seconds",
        "detector seconds",
    ]);
    for (strategy, cost) in [
        ("per-frame dispatch".to_string(), &per_frame),
        (format!("batched dispatch (B={batch})"), &batched),
    ] {
        table.row(vec![
            strategy,
            cost.frames.to_string(),
            cost.detector_invocations.to_string(),
            cost.dispatches.to_string(),
            format!("{:.2}", cost.dispatch_s),
            format!("{:.1}", cost.detect_s),
        ]);
    }
    println!("{}", table.to_markdown());

    // The comparison's contract, asserted here and gated again by CI.
    assert_eq!(
        found_per_frame, found_batched,
        "batching changed query results"
    );
    assert_eq!(
        per_frame.detector_invocations, batched.detector_invocations,
        "batching changed what the detector ran on"
    );
    assert!(
        batched.dispatches < per_frame.dispatches,
        "batching did not reduce dispatches"
    );
    assert!(
        batched.dispatch_s < per_frame.dispatch_s,
        "batching did not reduce modelled dispatch-seconds"
    );

    println!("identical results: ok");
    println!("total found: {}", found_batched.iter().sum::<u64>());
    println!("per-frame dispatches: {}", per_frame.dispatches);
    println!("batched dispatches: {}", batched.dispatches);
    println!("per-frame dispatch seconds: {:.3}", per_frame.dispatch_s);
    println!("batched dispatch seconds: {:.3}", batched.dispatch_s);
    println!(
        "\nbatching (B={batch}) cut dispatch overhead by {:.1}% for an identical result set",
        (1.0 - batched.dispatch_s / per_frame.dispatch_s) * 100.0
    );
}
