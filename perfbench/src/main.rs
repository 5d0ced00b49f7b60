//! The repository benchmark: end-to-end metrics on both clocks, output
//! checks, and per-layer host time measured from outside the system.
//!
//! ```text
//! perfbench --workload <log_stream|rados_rebalance|seq_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload repeats, with tracing and the host-time
//! adapters off, until `--seconds` have passed, and the last line is a
//! JSON object of the end-to-end metrics (host-time metrics as medians
//! over repetitions). With `--trace 1` untraced and traced repetitions
//! alternate, the simulated metrics and event counts of the two must
//! agree exactly, and the last line holds the per-layer metrics. Every
//! repetition checks the system's outputs; any violation makes the run
//! fail. See `METRICS.md` for the catalogue.

mod cluster;
mod log_stream;
mod rados_rebalance;
mod run;
mod seq_fleet;
mod stats;
mod timed;

use std::time::Instant;

use run::Run;
use stats::median;

/// Repetitions a run makes at least, however long they take.
const MIN_REPS: usize = 3;

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
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(&"expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A workload at its benchmark size: `(seed, traced) -> Run`.
type Workload = fn(u64, bool) -> Run;

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "log_stream" => |seed, traced| log_stream::run(seed, traced, log_stream::WINDOW),
        "rados_rebalance" => {
            |seed, traced| rados_rebalance::run(seed, traced, rados_rebalance::WINDOW)
        }
        "seq_fleet" => |seed, traced| seq_fleet::run(seed, traced, seq_fleet::STEP),
        _ => return None,
    })
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric for the result line and the human-readable listing.
struct Metric {
    name: String,
    unit: &'static str,
    clock: &'static str,
    value: f64,
    note: String,
}

impl Metric {
    fn new(name: &str, unit: &'static str, clock: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            clock,
            value,
            note: String::new(),
        }
    }
}

/// Checks shared by both modes; returns the violations.
fn check(runs: &[&Run], reference: &Run) -> Vec<String> {
    let mut out = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        for v in &r.violations {
            out.push(format!("rep {i}: {v}"));
        }
        if r.sim != reference.sim {
            out.push(format!("rep {i}: simulated metrics differ from rep 0"));
        }
        if r.layers.counters != reference.layers.counters {
            out.push(format!("rep {i}: counters differ from rep 0"));
        }
        if r.measured.events != reference.measured.events {
            out.push(format!(
                "rep {i}: {} events, rep 0 had {}",
                r.measured.events, reference.measured.events
            ));
        }
    }
    out
}

fn end_to_end(runs: &[Run]) -> Vec<Metric> {
    let first = &runs[0];
    let setup: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let rate: Vec<f64> = runs
        .iter()
        .map(|r| r.ops as f64 / r.measured.host_s)
        .collect();
    let mut out = vec![
        Metric::new("setup_s", "s", "host", median(&setup)),
        Metric::new("host_ops_per_s", "ops/s", "host", median(&rate)),
        Metric::new("peak_rss_mb", "MB", "host", peak_rss_mb()),
        Metric::new(
            "failed_frac",
            "ratio",
            "count",
            first.failed as f64 / first.attempted as f64,
        ),
    ];
    for s in &first.sim {
        let mut m = Metric::new(s.name, s.unit, "sim", s.value);
        if let Some(n) = s.n {
            m.note = format!("n={n}");
        }
        out.push(m);
    }
    out
}

/// End-to-end metrics every workload reports in the result line.
/// `failed_frac` is left out: any failed op fails the run, so on a run
/// that passes it is always 0.
const RESULT_METRICS: [&str; 6] = [
    "setup_s",
    "host_ops_per_s",
    "peak_rss_mb",
    "sim_ops_per_s",
    "sim_write_p50_ms",
    "sim_write_p99_ms",
];

fn per_layer(untraced: &[&Run], traced: &[&Run]) -> Vec<Metric> {
    let r = traced[0];
    let ops = r.ops.max(1) as f64;
    let c = |name: &str| r.layers.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Host time per op on a layer clock: median over traced reps.
    let host_us = |layer: &str| {
        let v: Vec<f64> = traced
            .iter()
            .map(|t| t.layers.host_ns[layer] as f64 / 1000.0 / t.ops.max(1) as f64)
            .collect();
        median(&v)
    };
    let self_us: Vec<f64> = traced
        .iter()
        .map(|t| {
            (t.measured.host_s * 1e9 - t.layers.host_ns["charged"] as f64)
                / 1000.0
                / t.ops.max(1) as f64
        })
        .collect();
    let ns_per_event: Vec<f64> = untraced
        .iter()
        .map(|u| u.measured.host_s * 1e9 / u.measured.events as f64)
        .collect();
    let host_traced: Vec<f64> = traced.iter().map(|t| t.measured.host_s).collect();
    let host_untraced: Vec<f64> = untraced.iter().map(|u| u.measured.host_s).collect();
    let mut out = vec![
        Metric::new("sim.host_ns_per_event", "ns", "host", median(&ns_per_event)),
        Metric::new("sim.self_host_us_per_op", "us", "host", median(&self_us)),
        Metric::new(
            "sim.events_per_op",
            "count",
            "count",
            r.measured.events as f64 / ops,
        ),
        Metric::new(
            "sim.messages_per_op",
            "count",
            "count",
            c("sim.messages_sent") / ops,
        ),
        Metric::new(
            "sim.trace_overhead_x",
            "ratio",
            "host",
            median(&host_traced) / median(&host_untraced),
        ),
        Metric::new(
            "consensus.host_us_per_op",
            "us",
            "host",
            host_us("consensus"),
        ),
        Metric::new(
            "consensus.map_commits",
            "count",
            "count",
            c("mon.map_commits"),
        ),
        Metric::new(
            "rados.osd_host_us_per_op",
            "us",
            "host",
            host_us("rados.osd"),
        ),
        Metric::new(
            "rados.client_host_us_per_op",
            "us",
            "host",
            host_us("rados.client"),
        ),
        Metric::new(
            "rados.journal_commits_per_op",
            "count",
            "count",
            c("osd.journal_commits") / ops,
        ),
        Metric::new(
            "rados.txn_ops_per_commit",
            "count",
            "count",
            ratio(c("osd.txn_ops"), c("osd.journal_commits")),
        ),
        Metric::new(
            "rados.journal_records",
            "count",
            "count",
            r.layers.journal_records as f64,
        ),
        Metric::new(
            "rados.journal_compactions",
            "count",
            "count",
            r.layers.journal_compactions as f64,
        ),
        Metric::new(
            "rados.stored_bytes_per_user_byte",
            "ratio",
            "count",
            ratio(r.layers.stored_bytes as f64, r.layers.user_bytes as f64),
        ),
        Metric::new(
            "rados.backfill_bytes",
            "B",
            "count",
            c("osd.backfill_bytes"),
        ),
        Metric::new(
            "rados.backfill_rejects",
            "count",
            "count",
            c("osd.backfill_rejects"),
        ),
        Metric::new(
            "rados.retries_per_op",
            "count",
            "count",
            c("client.retries") / ops,
        ),
        Metric::new("mds.host_us_per_op", "us", "host", host_us("mds")),
        Metric::new(
            "mds.typeops_per_append",
            "count",
            "count",
            ratio(c("mds.typeops"), r.layers.appends as f64),
        ),
    ];
    for (name, span, p) in [
        ("mds.typeop_p50_us", "mds.typeop", 50),
        ("mds.typeop_p99_us", "mds.typeop", 99),
        ("zlog.queue_p99_us", "zlog.queue", 99),
        ("zlog.grant_p99_us", "zlog.grant", 99),
        ("zlog.stripe_write_p99_us", "zlog.stripe_write", 99),
    ] {
        let dist = r.layers.spans.get(span).cloned().unwrap_or_default();
        let mut m = Metric::new(
            name,
            "us",
            "sim",
            dist.supported(p).map_or(0.0, |v| v as f64),
        );
        m.note = match dist.supported(p) {
            Some(_) => format!("n={}", dist.len()),
            None => format!("n={}, too few samples: reported as 0", dist.len()),
        };
        out.push(m);
    }
    out.extend([
        Metric::new(
            "zlog.client_host_us_per_op",
            "us",
            "host",
            host_us("zlog.client"),
        ),
        Metric::new(
            "zlog.entries_per_write_batch",
            "count",
            "count",
            ratio(c("zlog.coalesced_entries"), c("zlog.batch_writes")),
        ),
        Metric::new(
            "zlog.read_ops_per_entry",
            "count",
            "count",
            ratio(c("rados.read_batch_ops"), r.layers.entries_read as f64),
        ),
        Metric::new(
            "zlog.hole_fills_per_entry",
            "count",
            "count",
            ratio(c("zlog.cursor_hole_fills"), r.layers.entries_read as f64),
        ),
        Metric::new(
            "zlog.redirects_per_op",
            "count",
            "count",
            c("zlog.redirects") / ops,
        ),
        Metric::new(
            "zlog.retries_per_op",
            "count",
            "count",
            c("zlog.retries") / ops,
        ),
    ]);
    out
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{workload:<16} {:<34} {:>16.6} {:<6} {:<5} {}",
            m.name, m.value, m.unit, m.clock, m.note
        );
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(run) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let start = Instant::now();
    let mut untraced: Vec<Run> = Vec::new();
    let mut traced: Vec<Run> = Vec::new();
    while untraced.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        untraced.push(run(args.seed, false));
        if args.trace {
            traced.push(run(args.seed, true));
        }
    }
    let all: Vec<&Run> = untraced.iter().chain(traced.iter()).collect();
    let violations = check(&all, &untraced[0]);
    for v in violations.iter().take(20) {
        eprintln!("violation: {v}");
    }
    let correct = violations.is_empty();
    let reference = &untraced[0];
    println!(
        "# {} seed={} reps={} traced_reps={} ops={} events={}",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        reference.ops,
        reference.measured.events
    );
    let e2e = end_to_end(&untraced);
    print_metrics(&args.workload, &e2e);
    let layers = if args.trace {
        let u: Vec<&Run> = untraced.iter().collect();
        let t: Vec<&Run> = traced.iter().collect();
        per_layer(&u, &t)
    } else {
        Vec::new()
    };
    print_metrics(&args.workload, &layers);
    let chosen: Vec<&Metric> = if args.trace {
        layers.iter().collect()
    } else {
        RESULT_METRICS
            .iter()
            .map(|n| {
                e2e.iter()
                    .find(|m| m.name == *n)
                    .expect("every workload measures the result metrics")
            })
            .collect()
    };
    println!(
        "{}",
        result_line(correct, reference.attempted, reference.failed, &chosen)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mala_sim::SimDuration;

    /// At tiny scale the only acceptable violations are percentiles
    /// without enough samples beyond them.
    fn checks_pass(run: &Run) {
        for v in &run.violations {
            assert!(v.contains("fewer than 10 beyond"), "{v}");
        }
    }

    /// Layer clocks run only inside the measured phase's host time.
    fn layers_inside_window(traced: &Run) {
        let charged = traced.layers.host_ns["charged"] as f64;
        assert!(charged > 0.0);
        assert!(charged <= traced.measured.host_s * 1e9);
    }

    fn same_simulation(a: &Run, b: &Run) {
        checks_pass(a);
        checks_pass(b);
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.measured.events, b.measured.events);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.layers.counters, b.layers.counters);
    }

    #[test]
    fn log_stream_is_deterministic_with_and_without_tracing() {
        let window = SimDuration::from_millis(20);
        let a = log_stream::run(7, false, window);
        let b = log_stream::run(7, false, window);
        let traced = log_stream::run(7, true, window);
        assert!(a.ops > 0);
        same_simulation(&a, &b);
        same_simulation(&a, &traced);
        layers_inside_window(&traced);
        assert!(!traced.layers.spans.is_empty());
        assert!(a.layers.spans.is_empty());
    }

    #[test]
    fn rados_rebalance_is_deterministic_with_and_without_tracing() {
        // Map changes commit on the monitor's 1 s proposal tick, so the
        // join and the drain each need a third of the window to land.
        let window = SimDuration::from_millis(2100);
        let a = rados_rebalance::run(7, false, window);
        let b = rados_rebalance::run(7, false, window);
        let traced = rados_rebalance::run(7, true, window);
        assert!(a.ops > 0);
        same_simulation(&a, &b);
        same_simulation(&a, &traced);
        layers_inside_window(&traced);
        assert!(traced.layers.host_ns["rados.osd"] > 0);
        assert_eq!(a.layers.host_ns["rados.osd"], 0);
    }

    #[test]
    fn seq_fleet_is_deterministic_with_and_without_tracing() {
        let step = SimDuration::from_millis(100);
        let a = seq_fleet::run(7, false, step);
        let b = seq_fleet::run(7, false, step);
        let traced = seq_fleet::run(7, true, step);
        assert!(a.ops > 0);
        same_simulation(&a, &b);
        same_simulation(&a, &traced);
        layers_inside_window(&traced);
    }
}
