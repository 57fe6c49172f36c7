//! A minimal scoped-thread parallel map for replicate experiment runs.
//!
//! Experiments replicate each configuration over many seeds; the runs are
//! embarrassingly parallel and CPU-bound, so a simple atomic work index
//! over scoped threads is all that is needed (no long-lived pool, no
//! unsafe, results land in order).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `0..n` job indices on up to `threads` OS threads,
/// returning results in index order. `f` must be `Sync` (it is shared by
/// reference across threads) — capture per-job state via the index.
pub(crate) fn parallel_map<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.min(n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *results[i].lock().expect("poisoned result slot") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("poisoned").expect("job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_order() {
        let out = parallel_map(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(10, 1, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_jobs() {
        let out: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counters: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        parallel_map(50, 7, |i| counters[i].fetch_add(1, Ordering::Relaxed));
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn default_threads_positive() {
        assert!(exsample_core::default_threads() > 0);
    }
}
