//! What one repetition of a workload measures, the trace recorder that
//! times calls into the engine's layers, and the engine-side counters a
//! traced repetition reads when it ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use telegraphcq::common::{Tuple, Value};
use telegraphcq::server::TelegraphCQ;

use crate::stats::{self, Schedule, Usage};

/// How long a receiver waits for one more result before it declares the
/// rest of the phase missing. Generous: only a wedged engine reaches it.
pub const STALL: Duration = Duration::from_secs(5);

/// Measurements of one repetition: a fresh server, set up, warmed up,
/// driven through an open-loop and a closed-loop phase, and torn down.
#[derive(Debug, Default)]
pub struct Rep {
    /// Server start through query admission and build-side load, ended
    /// by a completion barrier.
    pub setup_s: f64,
    /// Input tuples in the closed-loop phase.
    pub closed_tuples: usize,
    /// Wall time of the closed-loop phase: first push to last checked
    /// result.
    pub closed_s: f64,
    /// Process CPU time over the closed-loop phase.
    pub closed_cpu_ns: u64,
    /// Open-loop event-to-result latencies, one per result row.
    pub latencies_us: Vec<f64>,
    /// How late the open-loop generator sent each group.
    pub gen_late_us: Vec<f64>,
    /// Result rows expected over every phase.
    pub expected: u64,
    /// Expected rows missing or wrong, plus rows that should not exist.
    pub failed: u64,
    /// Per-layer values (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// Closed-loop input tuples per second.
    pub fn tps(&self) -> f64 {
        self.closed_tuples as f64 / self.closed_s.max(1e-9)
    }

    /// Closed-loop process CPU nanoseconds per input tuple.
    pub fn cpu_ns_per_tuple(&self) -> f64 {
        self.closed_cpu_ns as f64 / self.closed_tuples.max(1) as f64
    }
}

/// Closed-loop tuples per second and CPU nanoseconds per tuple over all
/// of `reps` together: total tuples over total time, total CPU over total
/// tuples. Not a median: on a shared host the engine runs in a fast and a
/// slow mode for stretches of 0.1–1 s, per-repetition rates are bimodal,
/// and a median flips between the modes where a total moves smoothly.
pub fn closed_totals(reps: &[&Rep]) -> (f64, f64) {
    let tuples: f64 = reps.iter().map(|r| r.closed_tuples as f64).sum();
    let secs: f64 = reps.iter().map(|r| r.closed_s).sum();
    let cpu: f64 = reps.iter().map(|r| r.closed_cpu_ns as f64).sum();
    (tuples / secs.max(1e-9), cpu / tuples.max(1.0))
}

/// Times calls into the engine from the benchmark's side of the API.
/// Off, it calls straight through and records nothing. Shared by
/// reference, so a sender and a receiver closure can both record.
pub struct Trace {
    on: bool,
    spans: RefCell<BTreeMap<&'static str, (u64, u64)>>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            spans: RefCell::default(),
        }
    }

    /// Run `f`, adding its duration to the span `name` when tracing.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Add an externally timed interval to the span `name` when tracing.
    pub fn add(&self, name: &'static str, d: Duration) {
        if !self.on {
            return;
        }
        let mut spans = self.spans.borrow_mut();
        let e = spans.entry(name).or_default();
        e.0 += d.as_nanos() as u64;
        e.1 += 1;
    }

    /// Total nanoseconds recorded under `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans.borrow().get(name).map_or(0.0, |e| e.0 as f64)
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.spans.borrow().get(name).map_or(0.0, |e| e.1 as f64)
    }

    /// Mean nanoseconds per call recorded under `name`.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.total_ns(name) / self.calls(name).max(1.0)
    }
}

/// Executor, exchange, egress and shared-state counters of a live server.
/// `du_kinds[i]` names the DU with id `i + 1`: the executor numbers DUs
/// from 1 in the order the server creates them, and each workload sets
/// its server up in a fixed order. Panics unless the executor reports
/// exactly those DUs, so a change in that order cannot mislabel counters.
pub fn engine_layers(
    server: &TelegraphCQ,
    du_kinds: &[&'static str],
    out: &mut BTreeMap<&'static str, f64>,
) {
    let ex = server.executor_stats();
    let util = ex.utilization_per_eo();
    out.insert(
        "executor.util_max",
        util.iter().copied().fold(0.0, f64::max),
    );
    out.insert(
        "executor.util_min",
        util.iter().copied().fold(1.0, f64::min),
    );
    out.insert(
        "executor.busy_ns",
        ex.busy_ns_per_eo.iter().sum::<u64>() as f64,
    );
    let ids: Vec<_> = ex
        .quanta_per_du
        .iter()
        .map(|&(id, _)| id as usize)
        .collect();
    assert_eq!(
        ids,
        (1..=du_kinds.len()).collect::<Vec<_>>(),
        "the executor's DUs are not {du_kinds:?}"
    );
    let mut workers = Vec::new();
    for (kind, (_, quanta)) in du_kinds.iter().zip(ex.quanta_per_du) {
        let name = match *kind {
            "xchg_part" => "exchange.partition_quanta",
            "xchg_merge" => "exchange.merge_quanta",
            "dispatch" => "executor.quanta.dispatch",
            "filter_cq" => "executor.quanta.filter_cq",
            "join_cq" => "executor.quanta.join_cq",
            "xchg_work" => {
                workers.push(quanta as f64);
                "executor.quanta.xchg_work"
            }
            other => panic!("unknown DU kind {other}"),
        };
        *out.entry(name).or_default() += quanta as f64;
    }
    if !workers.is_empty() {
        let mean = workers.iter().sum::<f64>() / workers.len() as f64;
        let max = workers.iter().copied().fold(0.0, f64::max);
        out.insert("exchange.skew", max / mean.max(1.0));
    }

    let eg = server.egress_stats_full();
    out.insert("egress.offered", eg.offered as f64);
    out.insert("egress.delivered", eg.delivered as f64);
    out.insert("egress.shed", eg.shed as f64);
    out.insert("egress.displaced", eg.displaced as f64);
    out.insert(
        "egress.delivered_per_offered",
        eg.delivered as f64 / (eg.offered.max(1)) as f64,
    );
    out.insert(
        "stems.approx_bytes",
        server
            .shared_memory_stats()
            .iter()
            .map(|s| s.approx_bytes as f64)
            .sum(),
    );
    out.insert(
        "proc.threads",
        stats::proc_status("Threads").unwrap_or(0) as f64,
    );
}

/// Context switches between two usage readings.
pub fn ctx_layers(before: Usage, after: Usage, out: &mut BTreeMap<&'static str, f64>) {
    out.insert(
        "proc.ctx_switches_voluntary",
        (after.ctx_voluntary - before.ctx_voluntary) as f64,
    );
    out.insert(
        "proc.ctx_switches_involuntary",
        (after.ctx_involuntary - before.ctx_involuntary) as f64,
    );
}

/// Sleep until `at`; return how late the caller woke. No spinning, so
/// the generator leaves the cores to the engine; the oversleep is the
/// generator's lateness and counts in every latency.
fn sleep_until(at: Instant) -> Duration {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
    Instant::now().saturating_duration_since(at)
}

/// The open-loop phase. A generator thread hands each of `groups` to
/// `send` when `schedule` says it is due, while this thread calls `recv`
/// until `results` results have arrived. `recv` waits for the next
/// results, appends the row numbers of the valid ones to its argument and
/// returns how many arrived, right or wrong, and when (None: the engine
/// went quiet). Each row's latency runs from its due time, row `first`
/// being due at the phase start, so the generator's lateness counts; that
/// lateness is recorded per group.
pub fn open_loop(
    schedule: Schedule,
    groups: Vec<Vec<Tuple>>,
    mut send: impl FnMut(Vec<Tuple>) + Send,
    results: usize,
    first: usize,
    mut recv: impl FnMut(&mut Vec<u32>) -> Option<(usize, Instant)>,
    out: &mut Rep,
) {
    let start = Instant::now();
    std::thread::scope(|s| {
        let gen = s.spawn(move || {
            let mut late = Vec::with_capacity(groups.len());
            let mut i = 0;
            for g in groups {
                late.push(sleep_until(start + schedule.due(i)).as_nanos() as f64 / 1e3);
                i += g.len();
                send(g);
            }
            late
        });
        let (mut arrived, mut rows) = (0, Vec::new());
        while arrived < results {
            let Some((n, at)) = recv(&mut rows) else {
                break;
            };
            arrived += n;
            for row in rows.drain(..) {
                let due = schedule.due((row as usize).saturating_sub(first));
                out.latencies_us
                    .push(stats::latency_us(due, at.duration_since(start)));
            }
        }
        out.gen_late_us = gen.join().expect("generator thread");
    });
}

/// A closed loop: `send` each batch, never letting more than `window`
/// results be outstanding (each batch comes with the results it yields),
/// and call `recv`, which waits for results and returns how many arrived,
/// until all have (or `recv` reports the engine quiet with None).
pub fn closed_loop<B>(
    batches: Vec<(B, usize)>,
    window: usize,
    mut send: impl FnMut(B),
    mut recv: impl FnMut() -> Option<usize>,
) {
    let n: usize = batches.iter().map(|(_, r)| r).sum();
    let (mut sent, mut arrived) = (0, 0);
    let mut batches = batches.into_iter().peekable();
    while arrived < n {
        if let Some((b, r)) = batches.next_if(|(_, r)| (sent + r).saturating_sub(arrived) <= window)
        {
            sent += r;
            send(b);
            continue;
        }
        match recv() {
            Some(got) => arrived += got,
            None => return,
        }
    }
}

/// `(row, query)` pairs, ascending: one result row each.
pub type Results = Vec<(u32, u32)>;

/// Collects one segment's results as `(row, query)` pairs, for an exact
/// comparison with the reference once the segment is complete.
#[derive(Debug, Default)]
pub struct Collector {
    got: Results,
    /// Results that named no known query or carried no row number.
    unknown: u64,
}

impl Collector {
    /// Record a result for query index `q` (None: an unknown query id)
    /// whose row-number column holds `row`; returns the row if both are
    /// valid.
    pub fn accept(&mut self, q: Option<u32>, row: &Value) -> Option<u32> {
        match (q, row.as_int().ok().and_then(|r| u32::try_from(r).ok())) {
            (Some(q), Some(row)) => {
                self.got.push((row, q));
                Some(row)
            }
            _ => {
                self.unknown += 1;
                None
            }
        }
    }

    /// Rows expected but missing, plus rows received but not expected.
    pub fn finish(mut self, expected: &Results) -> u64 {
        self.got.sort_unstable();
        let (mut i, mut j, mut bad) = (0, 0, self.unknown);
        while i < expected.len() || j < self.got.len() {
            match (expected.get(i), self.got.get(j)) {
                (Some(e), Some(g)) if e == g => {
                    i += 1;
                    j += 1;
                }
                (Some(e), Some(g)) if e < g => {
                    bad += 1;
                    i += 1;
                }
                (Some(_), None) => {
                    bad += 1;
                    i += 1;
                }
                _ => {
                    bad += 1;
                    j += 1;
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_totals_pool_every_repetition() {
        let rep = |tuples, secs, cpu| Rep {
            closed_tuples: tuples,
            closed_s: secs,
            closed_cpu_ns: cpu,
            ..Rep::default()
        };
        // 100 tuples/s and 300 tuples/s for equal tuple counts pool to
        // 150 tuples/s, not the 200 a mean of rates would give.
        let (a, b) = (rep(300, 3.0, 600), rep(300, 1.0, 1_200));
        let (tps, cpu) = closed_totals(&[&a, &b]);
        assert_eq!(tps, 150.0);
        assert_eq!(cpu, 3.0);
    }

    #[test]
    fn closed_loop_keeps_the_window_and_waits_for_every_result() {
        use std::cell::Cell;
        use std::collections::VecDeque;
        // Each batch is its own result count; the engine answers batches
        // in order, one per receive.
        let batches: Vec<(usize, usize)> = (0..10).map(|i| (3 + i % 4, 3 + i % 4)).collect();
        let total: usize = batches.iter().map(|(_, r)| r).sum();
        let in_flight = RefCell::new(VecDeque::new());
        let (most, received) = (Cell::new(0), Cell::new(0));
        closed_loop(
            batches,
            8,
            |r| {
                in_flight.borrow_mut().push_back(r);
                most.set(most.get().max(in_flight.borrow().iter().sum()));
            },
            || {
                let r = in_flight.borrow_mut().pop_front()?;
                received.set(received.get() + r);
                Some(r)
            },
        );
        assert!(most.get() <= 8, "{} results outstanding", most.get());
        assert_eq!(received.get(), total);
        assert!(in_flight.borrow().is_empty());
    }

    #[test]
    fn collector_counts_missing_extra_and_unknown_rows() {
        let mut c = Collector::default();
        for (q, row) in [
            (Some(3), 2),
            (Some(1), 0),
            (Some(5), 5),
            (None, 1),
            (Some(1), -4),
        ] {
            c.accept(q, &Value::Int(row));
        }
        // (1,1) missing, (5,5) extra, one unknown query, one bad row.
        assert_eq!(c.finish(&vec![(0, 1), (1, 1), (2, 3)]), 4);
        let mut exact = Collector::default();
        exact.accept(Some(2), &Value::Int(7));
        assert_eq!(exact.finish(&vec![(7, 2)]), 0);
    }
}
