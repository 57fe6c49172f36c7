//! Regenerates Figure 5: per-query time-savings ratios (ExSample vs
//! random) at recall .1 / .5 / .9, and the headline summary statistics.
//! Exits non-zero, naming each row, when a query misses its
//! paper-fidelity band (`fig5::BANDS`).

use exsample_bench::results_dir;
use exsample_experiments::{fig5, table1, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    eprintln!("fig5: evaluating all queries ({scale:?}) …");
    let t0 = std::time::Instant::now();
    let evals = table1::evaluate_all(scale);
    let panels = fig5::panels(&evals);
    println!("\n# Figure 5 — time savings ratio ExSample vs random\n");
    for panel in &panels {
        println!("## recall {}\n", panel.recall);
        println!("{}", fig5::panel_table(panel).to_markdown());
    }
    if let Some(s) = fig5::summary(&panels) {
        println!(
            "summary over {} bars: geometric mean {:.2}x | min {:.2}x | p10 {:.2}x | p90 {:.2}x | max {:.2}x",
            s.bars, s.geo_mean, s.min, s.p10, s.p90, s.max
        );
        println!("(paper: geometric mean 1.9x, max ≈6x, min ≈0.75x, p90 3.7x, p10 1.2x)");
    }
    for panel in &panels {
        let out = results_dir().join(format!("fig5_recall{}.csv", panel.recall));
        fig5::panel_table(panel).write_csv(&out).expect("write CSV");
    }
    let misses = fig5::band_misses(&evals);
    for miss in &misses {
        eprintln!("fidelity band missed: {miss}");
    }
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
    if !misses.is_empty() {
        std::process::exit(1);
    }
}
