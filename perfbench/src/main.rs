//! End-to-end and per-layer benchmark of TelegraphCQ-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats one workload on a fresh server until `--seconds` have
//! passed (at least [`MIN_REPS`] measured repetitions, after one
//! discarded warm-up repetition, each followed by [`SETUP_ONLY`] servers
//! that are only set up and torn down), checks every result against a
//! reference computed from the seeded inputs, and prints as its last
//! line one JSON object: `correct`, `attempted` and `failed` result rows,
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` every other repetition is traced and the metrics are
//! the per-layer ones plus the tracing overhead. See `README.md`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage and /proc/self as 64-bit Linux lays them out");

mod filters;
mod join;
mod rep;
mod stats;
mod tcp;

use std::time::{Duration, Instant};

use rep::Rep;

const WORKLOADS: [&str; 4] = [
    "join_dedicated",
    "join_partitioned",
    "shared_filters",
    "tcp_fanout",
];

/// Measured repetitions per untraced run, at least; a traced run makes
/// twice as many, alternating untraced and traced.
const MIN_REPS: usize = 5;
/// Hard cap, so a tiny `--seconds` or a fast box cannot loop forever.
const MAX_REPS: usize = 400;
/// Setup-only repetitions after each measured repetition of an untraced
/// run: a server set up and torn down again, so `setup_s` pools several
/// times as many setups as there are repetitions.
const SETUP_ONLY: u64 = 3;
/// Setup-only repetitions draw their inputs from repetition numbers
/// from here on, apart from the measured ones.
const SETUP_ONLY_BASE: u64 = 1 << 32;

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not run reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("ingress.push_ns", "ns"),
    ("ingress.push_calls", "count"),
    ("query.submit_ns", "ns"),
    ("executor.util_max", "ratio"),
    ("executor.util_min", "ratio"),
    ("executor.busy_ns", "ns"),
    ("executor.quanta.dispatch", "count"),
    ("executor.quanta.filter_cq", "count"),
    ("executor.quanta.join_cq", "count"),
    ("executor.quanta.xchg_work", "count"),
    ("exchange.partition_quanta", "count"),
    ("exchange.merge_quanta", "count"),
    ("exchange.skew", "ratio"),
    ("stems.probe_ns_per_tuple", "ns"),
    ("operators.select_ns_per_tuple", "ns"),
    ("stems.filter_probe_ns", "ns"),
    ("stems.matches_per_tuple", "count"),
    ("stems.churn_ns", "ns"),
    ("stems.approx_bytes", "bytes"),
    ("egress.offered", "count"),
    ("egress.delivered", "count"),
    ("egress.shed", "count"),
    ("egress.displaced", "count"),
    ("egress.delivered_per_offered", "ratio"),
    ("egress.recv_wait_ns", "ns"),
    ("net.rows_per_frame_written", "count"),
    ("net.bytes_per_row", "bytes"),
    ("net.ingest_call_ns", "ns"),
    ("net.next_results_ns", "ns"),
    ("net.wire.encode_ns_per_row", "ns"),
    ("net.wire.decode_ns_per_row", "ns"),
    ("proc.threads", "count"),
    ("proc.ctx_switches_voluntary", "count"),
    ("proc.ctx_switches_involuntary", "count"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("lat.p99_us", "us"),
    ("trace.tps", "1/s"),
    ("trace.cpu_ns_per_tuple", "ns"),
    ("trace.tps_overhead_pct", "%"),
    ("trace.cpu_overhead_pct", "%"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}; one of {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_rep(workload: &str, seed: u64, rep: u64, traced: bool) -> Rep {
    match workload {
        "join_dedicated" => join::run_rep(1, seed, rep, traced),
        "join_partitioned" => join::run_rep(2, seed, rep, traced),
        "shared_filters" => filters::run_rep(seed, rep, traced),
        "tcp_fanout" => tcp::run_rep(seed, rep, traced),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

/// Set a fresh server up for `workload` and tear it down; the setup time.
fn setup_rep(workload: &str, seed: u64, rep: u64) -> f64 {
    match workload {
        "join_dedicated" => join::setup_rep(1, seed, rep),
        "join_partitioned" => join::setup_rep(2, seed, rep),
        "shared_filters" => filters::setup_rep(seed, rep),
        "tcp_fanout" => tcp::setup_rep(),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

/// The fixed shape of a workload's repetition, for the run record.
fn shape(workload: &str) -> String {
    let (config, phases, schedule) = match workload {
        "join_dedicated" | "join_partitioned" => (
            format!(
                "\"partitions\": {}",
                if workload == "join_dedicated" { 1 } else { 2 }
            ),
            (join::WARM, join::OPEN, join::CLOSED),
            join::OPEN_RATE,
        ),
        "shared_filters" => (
            String::new(),
            (filters::WARM, filters::OPEN, filters::CLOSED),
            filters::OPEN_RATE,
        ),
        _ => (
            "\"transport\": \"tcp\"".to_string(),
            (tcp::WARM, tcp::OPEN, tcp::CLOSED),
            tcp::OPEN_RATE,
        ),
    };
    format!(
        "\"config\": {{{config}}}, \"warm_tuples\": {}, \"open_tuples\": {}, \
         \"closed_tuples\": {}, \"open_rate_per_s\": {}, \"open_group\": {}",
        phases.0, phases.1, phases.2, schedule.rate, schedule.group
    )
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let min_reps = if args.trace { 2 * MIN_REPS } else { MIN_REPS };

    // One discarded repetition first: page faults, thread stacks and
    // allocator growth land there, not in the first measured setup.
    let warmup = run_rep(args.workload, args.seed, u64::MAX, false);
    let start = Instant::now();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    // A repetition with wrong results ends the run: it is already a
    // failure, and a wedged engine would otherwise stall every later one.
    let mut failing = warmup.failed > 0;
    while !failing && reps.len() < MAX_REPS && (reps.len() < min_reps || start.elapsed() < budget) {
        let traced = args.trace && reps.len() % 2 == 1;
        let rep = run_rep(args.workload, args.seed, reps.len() as u64, traced);
        failing = rep.failed > 0;
        if !args.trace {
            setups.push(rep.setup_s);
            for _ in 0..SETUP_ONLY {
                let id = SETUP_ONLY_BASE + setups.len() as u64;
                setups.push(setup_rep(args.workload, args.seed, id));
            }
        }
        reps.push((traced, rep));
    }
    let measured_s = start.elapsed().as_secs_f64();

    let attempted: u64 = warmup.expected + reps.iter().map(|(_, r)| r.expected).sum::<u64>();
    let failed: u64 = warmup.failed + reps.iter().map(|(_, r)| r.failed).sum::<u64>();
    let plain: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let pooled = |rs: &[&Rep], f: fn(&Rep) -> &Vec<f64>| {
        let mut v: Vec<f64> = rs.iter().flat_map(|r| f(r).iter().copied()).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let lat = pooled(&plain, |r| &r.latencies_us);
    let late = pooled(&plain, |r| &r.gen_late_us);
    let (tps, cpu) = rep::closed_totals(&plain);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {cores}, \
         {}, \"reps\": {}, \"measured_s\": {measured_s:.3}, \"latency_samples\": {}, \
         \"gen_late_p50_us\": {}, \"gen_late_p99_us\": {}, \"rep_tps\": {:?}, \
         \"rep_cpu_ns_per_tuple\": {:?}, \"setup_only_per_rep\": {SETUP_ONLY}, \
         \"setups_s\": {:?}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        shape(args.workload),
        reps.len(),
        lat.len(),
        stats::percentile(&late, 0.5),
        stats::percentile(&late, 0.99),
        plain.iter().map(|r| r.tps().round()).collect::<Vec<_>>(),
        plain.iter().map(|r| r.cpu_ns_per_tuple().round()).collect::<Vec<_>>(),
        setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>(),
    );

    let metrics: Vec<String> = if !args.trace {
        vec![
            metric("tps", tps, "1/s"),
            metric("cpu_ns_per_tuple", cpu, "ns"),
            metric("lat_p50_us", stats::percentile(&lat, 0.5), "us"),
            metric("setup_s", stats::mean(&setups), "s"),
            metric(
                "peak_rss_mb",
                stats::proc_status("VmHWM").unwrap_or(0) as f64 / 1024.0,
                "MB",
            ),
        ]
    } else {
        let (ttps, tcpu) = rep::closed_totals(&traced);
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "gen.late_p50_us" => stats::percentile(&late, 0.5),
                    "gen.late_p99_us" => stats::percentile(&late, 0.99),
                    "lat.p99_us" => stats::percentile(&lat, 0.99),
                    "trace.tps" => ttps,
                    "trace.cpu_ns_per_tuple" => tcpu,
                    "trace.tps_overhead_pct" => (tps - ttps) / tps * 100.0,
                    "trace.cpu_overhead_pct" => (tcpu - cpu) / cpu * 100.0,
                    _ => stats::median(
                        &traced
                            .iter()
                            .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    ),
                };
                metric(name, v, unit)
            })
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn benchmark_json_lists_every_metric_printed() {
        let spec = include_str!("../../BENCHMARK.json");
        let end_to_end = [
            ("tps", "1/s"),
            ("cpu_ns_per_tuple", "ns"),
            ("lat_p50_us", "us"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
        ];
        for (name, unit) in end_to_end.iter().chain(LAYERS) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\"").count(),
            WORKLOADS.len() + 5 + LAYERS.len()
        );
        for w in WORKLOADS {
            assert!(spec.contains(&format!("{{\"name\": \"{w}\", \"why\"")));
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a = args("--workload tcp_fanout --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("tcp_fanout", 3, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload tcp_fanout --seconds 1").is_err());
        assert!(args("--workload tcp_fanout --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload tcp_fanout --seed").is_err());
    }
}
