//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` and prints, as the last line
//! of standard output, one JSON object: whether every answer matched
//! its reference verdict, how many queries were attempted and failed,
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The line before it carries diagnostics: the work
//! digest and the host-speed probe. A per-instance table goes to
//! standard error.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::harness::{host_probe_ms, median, peak_rss_mb, percentile};
use perfbench::outcome::Outcome;
use perfbench::{bmc, oneshot, serve_inline};

const USAGE: &str = "usage: perfbench --workload <search_oneshot|bmc_incremental|serve_inline> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn end_to_end(out: &Outcome) -> Result<Vec<String>, String> {
    let quiet = out.quiet_latencies();
    let tail = |p: f64| {
        percentile(&quiet, p).ok_or(format!(
            "too few queries ({}) for a p{}",
            quiet.len(),
            p * 100.0
        ))
    };
    let attempted = out.tally.attempted.max(1) as f64;
    Ok(vec![
        metric("setup_s", out.setup(), "s"),
        metric("wall_s", out.pass_busy_s(), "s"),
        metric("query_p50_ms", tail(0.5)?, "ms"),
        metric("query_p90_ms", tail(0.9)?, "ms"),
        metric(
            "decided_share",
            out.tally.decided as f64 / attempted,
            "share",
        ),
        metric(
            "certified_share",
            out.tally.certified as f64 / attempted,
            "share",
        ),
        metric(
            "peak_rss_mb",
            peak_rss_mb().ok_or("the kernel reports no peak RSS")?,
            "MB",
        ),
    ])
}

/// Each query's fastest and median ask on standard error: the gap
/// between them is the host's noise.
fn print_table(out: &Outcome) {
    eprintln!(
        "passes {}  queries {}  decided {}  certified {}",
        out.passes, out.tally.attempted, out.tally.decided, out.tally.certified
    );
    eprintln!(
        "{:<28} {:>5} {:>12} {:>12}",
        "query", "asks", "fastest ms", "median ms"
    );
    for (name, v) in &out.latency_ms {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        eprintln!("{name:<28} {:>5} {min:>12.3} {:>12.3}", v.len(), median(v));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let probe_before = host_probe_ms();
    let run = match args.workload.as_str() {
        "search_oneshot" => oneshot::run(args.seed, budget, args.trace),
        "bmc_incremental" => bmc::run(args.seed, budget, args.trace),
        "serve_inline" => serve_inline::run(args.seed, budget, args.trace),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let probe_after = host_probe_ms();
    let out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&out);
    for e in out.tally.errors.iter().take(10) {
        eprintln!("WRONG: {e}");
    }
    let metrics = if args.trace {
        out.layers
            .as_ref()
            .map(|l| {
                l.metrics()
                    .into_iter()
                    .map(|(n, v, u)| metric(&n, v, u))
                    .collect()
            })
            .ok_or("the traced run gathered no layer figures".to_string())
    } else {
        end_to_end(&out)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = out.tally.errors.is_empty();
    // The open loop's backlog-free ceiling is N over the summed service
    // times, which `wall_s` already gates: a diagnostic here.
    let max_rate = out
        .max_rate_rps
        .map_or(String::new(), |r| format!(",\"max_rate_rps\":{r}"));
    println!(
        "{{\"diagnostics\":{{\"work_digest\":\"{}\",\"work_changed\":{},\"host.probe_ms\":[{probe_before},{probe_after}],\"passes\":{},\"percentile_samples\":{}{max_rate}}}}}",
        out.tally.digest.hex(),
        out.tally.work_changed,
        out.passes,
        out.quiet_latencies().len(),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.attempted,
        out.tally.attempted - out.tally.decided,
        metrics.join(","),
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
