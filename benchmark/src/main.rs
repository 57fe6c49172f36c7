//! The repo's benchmark: four fixed-work workloads against the public
//! APIs, ten end-to-end metrics, and a per-layer waterfall timed from
//! outside. See `README.md` in this directory.
//!
//! ```text
//! benchmark [all] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--work-dir DIR]
//! benchmark compare A.json B.json
//! benchmark spec
//! ```

mod compare;
mod full;
mod json;
mod layers;
mod run;
mod spans;
mod spec;
mod stats;
mod sys;
mod transport;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark [all] [--seed N] [--seconds S] [--smoke] [--out FILE]
      run all four workloads (untraced, then traced), print every metric,
      write the results file, append benchmark/history.jsonl
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--work-dir DIR]
      run one workload in this process; the last line of stdout is the result
  benchmark compare A.json B.json
      compare two results files metric by metric
  benchmark spec
      print the BENCHMARK.json this binary implements";

/// The value following `flag`, parsed.
fn option<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a valid value")),
    }
}

fn real_main(args: &[String]) -> Result<bool, String> {
    // Compiled in at build time: a driver checkout builds in place, so
    // this is the checkout's own `benchmark/` directory.
    let home = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare takes two results files".into());
            };
            return compare::run(a, b);
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            return Ok(true);
        }
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return Ok(true);
        }
        _ => {}
    }
    if cfg!(debug_assertions) {
        return Err(
            "built with debug assertions: numbers from an unoptimised build mean nothing; \
             use `cargo run --release`"
                .into(),
        );
    }
    let seed = option(args, "--seed")?.unwrap_or(12);
    let seconds = option(args, "--seconds")?.unwrap_or(f64::from(spec::RUN_SECONDS));
    let smoke = args.iter().any(|a| a == "--smoke");
    match option::<String>(args, "--workload")? {
        Some(name) => {
            let shape = workloads::shape(&name).ok_or_else(|| {
                let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; one of {known:?}")
            })?;
            let trace = match option::<u8>(args, "--trace")? {
                None | Some(0) => false,
                Some(1) => true,
                Some(_) => return Err("--trace takes 0 or 1".into()),
            };
            // Before any thread exists, so that all of them inherit it;
            // with `ClientsApart` the client threads move away again.
            if shape.cores != workloads::Cores::All {
                sys::pin_to_last_cpu()
                    .map_err(|e| format!("cannot pin {name} to one core: {e}"))?;
            }
            // Threads on two cores handing work to each other: neither
            // core may halt between two hand-overs.
            let _awake = (shape.cores == workloads::Cores::ClientsApart)
                .then(sys::IdleSpinners::start)
                .transpose()
                .map_err(|e| format!("cannot start the idle spinners for {name}: {e}"))?;
            let run_args = run::RunArgs {
                shape,
                seed,
                seconds,
                smoke,
                work_dir: option(args, "--work-dir")?.unwrap_or_else(|| home.join("work")),
                out_dir: home.join("out"),
            };
            let outcome = if trace {
                run::per_layer(&run_args)
            } else {
                run::end_to_end(&run_args)
            };
            let detail = outcome.detail();
            full::print_metrics(
                &format!(
                    "{name} · {}",
                    if trace { "per_layer" } else { "end_to_end" }
                ),
                &detail,
            );
            println!("{}{detail}", full::DETAIL_PREFIX);
            println!("{}", outcome.contract_line());
            Ok(outcome.correct)
        }
        None => {
            if args
                .first()
                .is_some_and(|a| a != "all" && !a.starts_with("--"))
            {
                return Err(format!("unknown command {:?}\n{USAGE}", args[0]));
            }
            Ok(full::run(&full::FullArgs {
                seed,
                seconds,
                smoke,
                out: option(args, "--out")?,
                home,
            }))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
