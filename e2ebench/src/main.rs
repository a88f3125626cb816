//! End-to-end and per-layer benchmark of the crpq workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <cold_stream|warm_join|durable_churn|contain_grid> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; every answer is checked. The last
//! line of standard output is one JSON object: with `--trace 0` it holds
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced run, which alternates untraced and traced requests. The lines
//! before it are `#`-prefixed notes. NOTES.md explains every workload and
//! metric.

mod churn;
mod contain;
mod digest;
mod host;
mod query;
mod report;
mod run;
mod stats;
mod trace;

use run::{Args, Outcome};
use std::process::ExitCode;

/// Where runs write their scratch files and span dumps (relative to the
/// working directory, which is the checkout's root).
pub const OUT_DIR: &str = ".e2ebench_out";

const WORKLOADS: [&str; 4] = ["cold_stream", "warm_join", "durable_churn", "contain_grid"];

fn usage() -> String {
    format!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let reference = host::Reference::new();
    let ref_start = reference.ms();
    if !host::reset_peak_rss() {
        println!("# peak RSS could not be reset: peak_rss_mb includes the reference kernel");
    }
    let mut tracer = trace::Tracer::new(false);
    let mut out: Outcome = match args.workload.as_str() {
        "cold_stream" => query::cold_stream(args, &mut tracer),
        "warm_join" => query::warm_join(args, &mut tracer),
        "durable_churn" => churn::durable_churn(args, &mut tracer),
        "contain_grid" => contain::contain_grid(args, &mut tracer),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let peak_rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let ref_end = reference.ms();

    let n = out.request_ms.len();
    println!(
        "# workload={} seed={} requests={n} timed_s={:.3} setup_s median={:.6} of {} (min {:.6}, max {:.6})",
        args.workload,
        args.seed,
        out.elapsed_s,
        out.setup_median(),
        out.setup_s.len(),
        out.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        out.setup_s.iter().copied().fold(0.0, f64::max),
    );
    match stats::highest_reportable_percentile(n) {
        Some(p) => println!(
            "# request_ms p50={:.3} p{p}={:.3} (highest percentile with ≥{} samples beyond)",
            stats::percentile(&out.request_ms, 50.0),
            stats::percentile(&out.request_ms, f64::from(p)),
            stats::TAIL_SAMPLES
        ),
        None => return Err(format!("only {n} requests: no percentile is reportable")),
    }
    println!(
        "# first_ms p50={:.3} p90={:.3}",
        stats::percentile(&out.first_ms, 50.0),
        stats::percentile(&out.first_ms, 90.0)
    );
    let ref_during = stats::median(&out.ref_ms);
    println!(
        "# host.ref_ms start={ref_start:.3} end={ref_end:.3} during: p10={:.3} p50={ref_during:.3} p90={:.3} of {} (fixed reference kernel; not gated)",
        stats::percentile(&out.ref_ms, 10.0),
        stats::percentile(&out.ref_ms, 90.0),
        out.ref_ms.len()
    );
    let attempted = out.attempted.max(1);
    let failed_frac = (out.failed + out.inconclusive) as f64 / attempted as f64;
    println!(
        "# failed_frac={failed_frac:.6} ({} failed + {} inconclusive of {attempted} attempted)",
        out.failed, out.inconclusive
    );
    for note in &out.notes {
        println!("# {note}");
    }

    if args.trace {
        out.record_trace_totals(&tracer);
        out.layers.insert("host.ref_ms".into(), ref_during);
        let path = run::write_spans(&tracer, args).map_err(|e| format!("writing spans: {e}"))?;
        println!("# {} spans written to {path}", tracer.spans().len());
        print_accounting(&tracer, out.traced_request_ms.len());
        let spec = report::per_layer();
        let mut values = out.layers.clone();
        for (name, _) in &spec {
            values.entry(name.clone()).or_insert(0.0);
        }
        report::result_json(out.failed == 0, attempted, out.failed, &spec, &values)
    } else {
        let mut values = out.end_to_end();
        values.insert("peak_rss_mb".into(), peak_rss);
        let spec: Vec<(String, &str)> = report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        report::result_json(out.failed == 0, attempted, out.failed, &spec, &values)
    }
}

/// Prints each span name's mean self time per traced request; together
/// they add up to the traced request time, the `request` span's own self
/// time being the unattributed remainder.
fn print_accounting(tracer: &trace::Tracer, requests: usize) {
    let n = requests.max(1) as f64;
    let by = tracer.by_name();
    let total: u64 = by.values().map(|s| s.self_ns).sum();
    println!(
        "# traced request = {:.3} ms, self time per request:",
        total as f64 / n / 1e6
    );
    for (name, s) in &by {
        let label = if name == "request" {
            "(unattributed)"
        } else {
            name
        };
        println!("#   {label:<40} {:>10.3} ms", s.self_ns as f64 / n / 1e6);
    }
}
