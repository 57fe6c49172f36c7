//! Regenerates Figure 6: per-chunk instance histograms and the skew
//! metric `S` for the representative queries.

use exsample_bench::results_dir;
use exsample_experiments::fig6;

fn main() {
    let t0 = std::time::Instant::now();
    let rows = fig6::run();
    println!("\n# Figure 6 — instance skew for representative queries\n");
    println!("{}", fig6::to_table(&rows).to_markdown());
    println!(
        "Reading: dashcam/bicycle shows extreme chunk concentration (high\n\
         S, high savings); archie/car and amsterdam/boat are near-uniform\n\
         (S≈1, savings ≈1x or slightly below)."
    );
    let out = results_dir().join("fig6_histograms.csv");
    fig6::histogram_table(&rows)
        .write_csv(&out)
        .expect("write CSV");
    let sum_out = results_dir().join("fig6_summary.csv");
    fig6::to_table(&rows)
        .write_csv(&sum_out)
        .expect("write CSV");
    eprintln!(
        "wrote {} and {} ({:.1}s)",
        out.display(),
        sum_out.display(),
        t0.elapsed().as_secs_f64()
    );
}
