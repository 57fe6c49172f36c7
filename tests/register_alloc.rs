//! Registering a repository costs the engine nothing per frame: a
//! 2^26-frame repository (about 26 days of 30 fps footage) registers in
//! under a mebibyte of allocation — the detector bank and a catalog entry —
//! and a session on it still searches and finishes. Reads are priced by
//! each session's own `GopWalk`, so no GOP container is built for it.
//!
//! The allocator below counts what the *calling thread* allocates, so the
//! figure is the registration's own and not the test harness's. The
//! engine is caller-stepped (`workers: 0`): no other thread runs it.

use exsample::core::driver::StopCond;
use exsample::detect::NoiseModel;
use exsample::engine::{Engine, EngineConfig, QuerySpec, SessionStatus};
use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Bytes this thread asked the allocator for (a `realloc` counts its
    /// new size), since the thread started.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATED.with(|a| a.set(a.get() + bytes as u64));
}

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` without a destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const FRAMES: u64 = 1 << 26;

#[test]
fn registration_allocates_nothing_per_frame() {
    let gt = Arc::new(
        DatasetSpec::single_class(
            FRAMES,
            ClassSpec::new("object", 400, 600.0, SkewSpec::Uniform),
        )
        .generate(11),
    );
    let engine = Engine::new(EngineConfig {
        workers: 0,
        ..EngineConfig::default()
    });

    let before = allocated();
    let repo = engine.register_repo("month", gt, NoiseModel::none(), 5);
    let registered = allocated() - before;
    println!("register_repo of {FRAMES} frames allocated {registered} bytes");
    assert!(
        registered < 1 << 20,
        "register_repo allocated {registered} bytes for {FRAMES} frames"
    );

    let id = engine
        .submit(QuerySpec::new(repo, ClassId(0), StopCond::samples(200)).seed(3))
        .unwrap();
    while engine.run_quantum() {}
    let report = engine.wait(id).unwrap();
    assert_eq!(report.status, SessionStatus::Done);
    assert_eq!(report.trace.samples(), 200);
    // Each miss paid a seek into a GOP of this repository.
    assert!(report.charges.io_s > 0.0);
}
