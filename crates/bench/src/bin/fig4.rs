//! Regenerates Figure 4: ExSample discovery curves for chunk counts
//! M ∈ {2, 16, 128, 1024} plus random, with optimal-allocation references.

use exsample_bench::results_dir;
use exsample_experiments::{fig4, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    let config = fig4::Fig4Config::at_scale(scale);
    eprintln!(
        "fig4: {} frames, M sweep {:?}, {} runs ({scale:?})",
        config.frames, config.chunk_counts, config.runs
    );
    let t0 = std::time::Instant::now();
    let series = fig4::run(&config);
    println!("\n# Figure 4 — varying the number of chunks\n");
    println!("{}", fig4::summary_table(&series).to_markdown());
    println!("Reading: {}", fig4::reading(&series));
    let out = results_dir().join("fig4_curves.csv");
    fig4::curves_table(&series)
        .write_csv(&out)
        .expect("write CSV");
    eprintln!(
        "wrote {} ({:.1}s)",
        out.display(),
        t0.elapsed().as_secs_f64()
    );
}
