//! Paper-reproduction binaries, the 10k-connection `serve_bench`, and
//! `sampler_micro`. Every other measurement of the system is the
//! stand-alone `benchmark/` workspace's (`BENCHMARK.json`).
//!
//! Binaries (run with `--release`; add `--quick` for smoke-scale):
//!
//! ```text
//! cargo run --release -p exsample-bench --bin fig2     # Gamma-belief validation
//! cargo run --release -p exsample-bench --bin fig3     # skew × duration grid
//! cargo run --release -p exsample-bench --bin fig4     # chunk-count sweep
//! cargo run --release -p exsample-bench --bin table1   # proxy scan vs ExSample
//! cargo run --release -p exsample-bench --bin fig5     # savings ratios
//! cargo run --release -p exsample-bench --bin fig6     # chunk histograms + S
//! cargo run --release -p exsample-bench --bin coverage # §III-D variance check
//! cargo run --release -p exsample-bench --bin ablate   # design ablations
//! cargo run --release -p exsample-bench --bin serve_bench -- --smoke  # reactor under load
//! cargo run --release -p exsample-bench --bin sampler_micro # quantile vs draw, work per pick
//! ```
//!
//! Each paper binary prints paper-style tables and writes CSVs under
//! `results/`; `serve_bench` without `--smoke` rewrites `BENCH_serve.json`;
//! `sampler_micro` prints only.

/// Output directory for experiment CSVs, honouring `EXSAMPLE_RESULTS`.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var("EXSAMPLE_RESULTS")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_dir_defaults() {
        // Do not mutate the environment (tests run in parallel); just check
        // that the fallback logic yields a usable relative path.
        let d = super::results_dir();
        assert!(!d.as_os_str().is_empty());
    }
}
