//! The repository's benchmark: the MotherNets trainer (`train_fig5`) and
//! the open-loop server (`serve_flat`, `serve_cascade`), measured only
//! through the workspace crates' public functions.
//!
//! ```text
//! perfbench --workload <train_fig5|serve_flat|serve_cascade> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed as a `metric` line with its unit and sample
//! count; the last line of standard output is one JSON object with the
//! run's `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! those metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones (see README.md). Any failed correctness gate makes the exit status
//! nonzero.

mod alloc;
mod layers;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                spec::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !spec::WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    report::print_machine();

    let mut tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let cpu_before = report::cpu_times();
    let root = tracer.begin(&args.workload, None);
    match args.workload.as_str() {
        "train_fig5" => train::run(args.seed, args.seconds, &mut tracer, &mut out),
        kind => serve::run(kind, args.seed, args.seconds, &mut tracer, &mut out),
    }
    tracer.end(root);
    let cpu_after = report::cpu_times();
    // A workload may have read its peak earlier (serving reads it before
    // the ladder); otherwise the peak covers the whole run after set-up.
    if out.value("peak_rss_mb").is_none() {
        out.metric("peak_rss_mb", report::peak_rss_mb(), "MB", None);
    }

    if args.trace {
        out.layer("proc.cpu_user_s", cpu_after.0 - cpu_before.0, "s", None);
        out.layer("proc.cpu_sys_s", cpu_after.1 - cpu_before.1, "s", None);
        layers::run(args.seed, &mut tracer, &mut out);
        tracer.print_summary();
        let path = format!(".perfbench/spans-{}-seed{}.json", args.workload, args.seed);
        match tracer.write_json(&path) {
            Ok(n) => println!("trace: wrote {n} spans to {path}"),
            Err(e) => out.gate(&format!("spans written to {path}: {e}"), false),
        }
    }
    out.finish(&args.workload, args.trace)
}
