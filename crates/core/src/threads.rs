//! The workspace-wide worker-thread convention.
//!
//! Every component that fans work out over OS threads — the engine's
//! worker pool and the experiment harness's `parallel_map` — sizes itself
//! through [`default_threads`], so the single `EXSAMPLE_THREADS`
//! environment variable caps parallelism everywhere at once.

/// Number of worker threads to use: respects `EXSAMPLE_THREADS`, defaults
/// to available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("EXSAMPLE_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_threads_positive() {
        assert!(super::default_threads() > 0);
    }
}
