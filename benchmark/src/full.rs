//! The full run: all four workloads, untraced then traced, each in its
//! own process (peak memory is per process), reported in one table and
//! recorded as one line of history.

use crate::json::Json;
use crate::spec;
use crate::sys;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct FullArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where the run's results go (what `compare` reads).
    pub out: Option<PathBuf>,
    pub home: PathBuf,
}

/// Marks the line on which a child run prints its detailed result.
pub const DETAIL_PREFIX: &str = "DETAIL ";

/// Run one workload in a child process and return its detailed result.
fn child(args: &FullArgs, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{workload}: the run printed no result ({})", output.status))?;
    let detail = Json::parse(detail)?;
    if !output.status.success() {
        eprintln!("{workload}: run exited with {}", output.status);
    }
    Ok(detail)
}

/// Print one run's metrics as an aligned table.
pub fn print_metrics(title: &str, detail: &Json) {
    println!("\n== {title} ==");
    println!(
        "   correct {}   attempted {}   failed {}   repetitions {}",
        detail.get("correct").map_or("?".into(), Json::to_string),
        detail.get("attempted").map_or("?".into(), Json::to_string),
        detail.get("failed").map_or("?".into(), Json::to_string),
        detail.get("reps").map_or("?".into(), Json::to_string),
    );
    let num = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    for (name, m) in detail.get("metrics").map_or(&[][..], Json::members) {
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let (value, min, max) = (num(m, "value"), num(m, "min"), num(m, "max"));
        if min == max {
            println!("   {name:<42} {value:>16.4} {unit}");
        } else {
            println!(
                "   {name:<42} {value:>16.4} {unit:<9} min {min:.4}  median {:.4}  max {max:.4}",
                num(m, "median")
            );
        }
    }
    for note in detail.get("notes").map_or(&[][..], Json::elements) {
        println!("   # {}", note.as_str().unwrap_or(""));
    }
}

fn metric(run: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Does each workload stress the layer it was built for? Informational:
/// a later change may move a share on purpose, and must then say so.
fn reference_shape(run: &Json) {
    println!("\n== reference shape ==");
    let m = |w: &str, section: &str, name: &str| metric(run, w, section, name).unwrap_or(f64::NAN);
    // The sampler's share of the traced repetition's own per-frame
    // waterfall (same process, same minute: the untraced run's CPU time
    // may come from a faster or slower spell of the box).
    let core_share = |w: &str| {
        let layer = |name: &str| m(w, "per_layer", name);
        let core = layer("core.replay_ns_per_frame");
        let total = core
            + layer("detect.process_ns")
            + m(w, "end_to_end", "invocations_per_frame") * layer("store.read_frame_ns")
            + layer("engine.residual_ns_per_frame");
        core / total
    };
    let hit_rate = |w: &str| {
        let hits = m(w, "per_layer", "engine.cache_hits");
        hits / (hits + m(w, "per_layer", "engine.cache_misses"))
    };
    let evictions = |w: &str| m(w, "per_layer", "engine.cache_evictions");
    let checks = [
        (
            "solo_manychunk: sampler is > 60 % of CPU per frame",
            core_share("solo_manychunk") > 0.60,
            core_share("solo_manychunk"),
        ),
        (
            "fleet_overlap: sampler is < 25 % of CPU per frame",
            core_share("fleet_overlap") < 0.25,
            core_share("fleet_overlap"),
        ),
        (
            "remote_stream: sampler is < 25 % of CPU per frame",
            core_share("remote_stream") < 0.25,
            core_share("remote_stream"),
        ),
        (
            "fleet_overlap: hit rate > 80 %",
            hit_rate("fleet_overlap") > 0.80,
            hit_rate("fleet_overlap"),
        ),
        (
            "fleet_overlap: no evictions",
            evictions("fleet_overlap") == 0.0,
            evictions("fleet_overlap"),
        ),
        (
            "solo_manychunk: evictions > 0",
            evictions("solo_manychunk") > 0.0,
            evictions("solo_manychunk"),
        ),
        (
            "solo_manychunk: savings over random > 1",
            m("solo_manychunk", "end_to_end", "savings_vs_random") > 1.0,
            m("solo_manychunk", "end_to_end", "savings_vs_random"),
        ),
    ];
    for (what, ok, value) in checks {
        println!(
            "   {} {what} ({value:.4})",
            if ok { "ok     " } else { "NOT MET" }
        );
    }
}

/// One history line: who ran what where, and every end-to-end value with
/// its spread.
fn history_line(run: &Json) -> Json {
    let mut pairs: Vec<(String, Json)> =
        ["commit", "date", "seed", "seconds", "nproc", "cpu", "rustc"]
            .iter()
            .filter_map(|k| run.get(k).map(|v| (k.to_string(), v.clone())))
            .collect();
    let workloads = run
        .get("workloads")
        .map_or(&[][..], Json::members)
        .iter()
        .map(|(w, sections)| {
            let metrics = sections
                .get("end_to_end")
                .and_then(|d| d.get("metrics"))
                .map_or(&[][..], Json::members)
                .iter()
                .map(|(name, m)| {
                    let keep = ["value", "min", "median", "max"]
                        .iter()
                        .filter_map(|k| m.get(k).map(|v| (k.to_string(), v.clone())));
                    (name.clone(), Json::Obj(keep.collect()))
                });
            (w.clone(), Json::Obj(metrics.collect()))
        });
    pairs.push(("workloads".into(), Json::Obj(workloads.collect())));
    Json::Obj(pairs)
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.sync_all()
}

/// Run everything; returns whether every workload was correct with no
/// failed operation.
pub fn run(args: &FullArgs) -> bool {
    let git = |a: &[&str]| sys::first_line_of("git", a);
    let date = sys::utc_now();
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in crate::workloads::ALL {
        let mut sections = Vec::new();
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            match child(args, w.name, trace) {
                Ok(detail) => {
                    all_ok &= detail.get("correct") == Some(&Json::Bool(true));
                    print_metrics(&format!("{} · {section}", w.name), &detail);
                    sections.push((section, detail));
                }
                Err(why) => {
                    eprintln!("{why}");
                    all_ok = false;
                }
            }
        }
        workloads.push((w.name, Json::obj(sections)));
    }
    let run = Json::obj([
        ("schema", Json::Num(1.0)),
        ("commit", Json::str(git(&["rev-parse", "--short", "HEAD"]))),
        ("date", Json::str(date.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("cpu", Json::str(sys::cpu_model())),
        (
            "rustc",
            Json::str(sys::first_line_of("rustc", &["--version"])),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    if !args.smoke {
        reference_shape(&run);
    }

    let out = args.out.clone().unwrap_or_else(|| {
        let stamp = date.replace([':', '-'], "");
        let kind = if args.smoke { "smoke" } else { "run" };
        args.home.join("out").join(format!("{kind}-{stamp}.json"))
    });
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, run.pretty()));
    match written {
        Ok(()) => println!("\nresults written to {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    // A smoke run exercises the code paths at a tenth of the size: its
    // numbers are not headline numbers, so it never touches the history
    // or BENCHMARK.json.
    if !args.smoke {
        let history = args.home.join("history.jsonl");
        match append_line(&history, &history_line(&run).to_string()) {
            Ok(()) => println!("history appended to {}", history.display()),
            Err(e) => eprintln!("could not append to {}: {e}", history.display()),
        }
        let contract = args.home.join("..").join("BENCHMARK.json");
        match std::fs::write(&contract, spec::benchmark_json()) {
            Ok(()) => println!("contract written to {}", contract.display()),
            Err(e) => eprintln!("could not write {}: {e}", contract.display()),
        }
    }
    all_ok
}
