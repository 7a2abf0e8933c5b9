//! `hivemind-perfbench --workload <name|all> [--seed <n>] [--seconds <s>]
//! [--trace <0|1>]`
//!
//! Prints a readable summary, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and every metric by name and unit.
//! Exits 1 when a correctness check fails and 2 on a bad command line.

use std::path::Path;
use std::process::ExitCode;

use hivemind_perfbench::{host, result_json, run, Options, Report, Size, Workload};

/// Environment variables that change how the simulator runs. The
/// benchmark runs every workload as one experiment on one thread.
const CLEARED_ENV: [&str; 5] = [
    "HIVEMIND_SHARDS",
    "HIVEMIND_THREADS",
    "HIVEMIND_PROFILE",
    "HIVEMIND_FULL",
    "HIVEMIND_SMOKE",
];

const USAGE: &str =
    "usage: hivemind-perfbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                out.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value}"))?]
            }
            "--seed" => out.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if !(out.seconds.is_finite() && out.seconds >= 0.0) {
        return Err(format!("bad value for --seconds: {}", out.seconds));
    }
    Ok(out)
}

fn summarize(r: &Report) {
    let o = &r.options;
    println!(
        "workload {} seed {} trace {}: {} repetitions, {} failed, outcome digest {:016x}, {} task samples",
        o.workload.name(),
        o.seed,
        u8::from(o.trace),
        r.attempted,
        r.failed,
        r.digest,
        r.samples
    );
    let secs: Vec<String> = r.run_secs.iter().map(|s| format!("{s:.3}")).collect();
    println!("  repetitions' run_s: {}", secs.join(" "));
    for v in &r.violations {
        println!("  VIOLATION: {v}");
    }
    for m in &r.metrics {
        println!("  {:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// Writes a traced run's spans next to the benchmark's sources.
fn write_spans(r: &Report) {
    let Some(spans) = &r.spans else { return };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-s{}.spans.jsonl",
        r.options.workload.name(),
        r.options.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host: nproc {} commit {} calib_s {:.6}",
        host::nproc(),
        host::commit(),
        host::calib_secs()
    );
    let reports: Vec<Report> = args
        .workloads
        .iter()
        .map(|&workload| {
            let r = run(Options {
                workload,
                seed: args.seed.unwrap_or(workload.default_seed()),
                seconds: args.seconds,
                trace: args.trace,
                size: Size::Full,
            });
            summarize(&r);
            write_spans(&r);
            r
        })
        .collect();
    // With several workloads in one process, each workload's peak_rss_mb
    // is the process's high-water mark so far, not that workload's own.
    println!("{}", result_json(&reports));
    let correct = reports.iter().all(Report::correct);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
