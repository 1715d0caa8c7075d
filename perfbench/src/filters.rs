//! `shared_filters`: ten thousand standing selections over one stream,
//! half anchored on an equality factor and half pure ranges, sharing the
//! stream's grouped filter, with queries stopped and submitted between
//! closed-loop blocks.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::Receiver;
use std::time::Instant;

use telegraphcq::common::rng::{derive_seed, seeded, TcqRng};
use telegraphcq::common::{DataType, Field, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder};
use telegraphcq::egress::Delivery;
use telegraphcq::server::{ServerConfig, TelegraphCQ};
use telegraphcq::stems::{MatchScratch, QueryStem};

use crate::rep::{self, Collector, Rep, Results, Trace, STALL};
use crate::stats::{self, Schedule};

/// Standing queries admitted at setup.
pub const QUERIES: usize = 10_000;
/// Warm-up tuples (checked, not timed).
pub const WARM: usize = 1_024;
/// Open-loop tuples per repetition, at [`OPEN_RATE`].
pub const OPEN: usize = 512;
/// Open-loop input rate: a constant well below the closed-loop rate. At
/// 4,000 tuples/s a slow stretch of the host pushed the median latency
/// from 0.4 to 0.9 ms as groups began to queue; at half that rate a group
/// is done well before the next is due.
pub const OPEN_RATE: Schedule = Schedule {
    rate: 2_000,
    group: 4,
};
/// Closed-loop tuples per repetition.
pub const CLOSED: usize = 4_096;
/// Closed-loop tuples per block; churn happens between blocks, once each
/// block's results have all arrived, so every query's lifetime is exact.
const BLOCK: usize = 256;
/// Queries stopped, and as many submitted, after each closed-loop block.
const CHURN: usize = 4;
/// Distinct `k` values; anchored queries pin one of them.
const KEYS: i64 = 1_000;
/// `v` is drawn from `0..VMAX`.
const VMAX: i64 = 100_000;
/// Range queries select `lo < v < lo + width` with `width < MAX_WIDTH`.
const MAX_WIDTH: i64 = 400;

/// One standing selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// `k = a AND v > lo`: the query SteM's anchored tier.
    Anchored { a: i64, lo: i64 },
    /// `v > lo AND v < hi`: the grouped filter's range side.
    Range { lo: i64, hi: i64 },
}

impl Pred {
    fn random(rng: &mut TcqRng, anchored: bool) -> Pred {
        let lo = rng.gen_range(0..VMAX);
        if anchored {
            Pred::Anchored {
                a: rng.gen_range(0..KEYS),
                lo,
            }
        } else {
            Pred::Range {
                lo,
                hi: lo + rng.gen_range(1..MAX_WIDTH),
            }
        }
    }

    fn sql(&self) -> String {
        match self {
            Pred::Anchored { a, lo } => format!("SELECT seq FROM s WHERE k = {a} AND v > {lo}"),
            Pred::Range { lo, hi } => format!("SELECT seq FROM s WHERE v > {lo} AND v < {hi}"),
        }
    }

    /// The reference: this query's predicate, evaluated directly. `&`,
    /// not `&&`: both comparisons run, so the only branch taken per
    /// query is the rare match.
    pub fn eval(&self, k: i64, v: i64) -> bool {
        match *self {
            Pred::Anchored { a, lo } => (k == a) & (v > lo),
            Pred::Range { lo, hi } => (v > lo) & (v < hi),
        }
    }
}

/// Naive per-query evaluation of `rows[range]` against every live query.
pub fn reference(
    rows: &[(i64, i64)],
    range: std::ops::Range<usize>,
    preds: &[Pred],
    live: &[bool],
) -> Results {
    // Anchored queries first, so the per-query match on the kind is
    // predictable; the sort at the end restores (row, query) order.
    let mut live: Vec<(u32, Pred)> = (0..preds.len())
        .filter(|&q| live[q])
        .map(|q| (q as u32, preds[q]))
        .collect();
    live.sort_by_key(|(q, p)| (matches!(p, Pred::Range { .. }), *q));
    let mut out = Vec::new();
    for r in range {
        let (k, v) = rows[r];
        for &(q, p) in &live {
            if p.eval(k, v) {
                out.push((r as u32, q));
            }
        }
    }
    out.sort_unstable();
    out
}

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("seq", DataType::Int),
    ])
    .into_ref()
}

/// One repetition's inputs and expected results, built before any clock
/// starts. Row `r` carries `seq = r`.
pub struct Inputs {
    /// Every query ever submitted: the initial set, then replacements in
    /// submit order.
    preds: Vec<Pred>,
    rows: Vec<(i64, i64)>,
    warm: Vec<Tuple>,
    open: Vec<Vec<Tuple>>,
    closed: Vec<Vec<Tuple>>,
    /// After closed block `b`: queries to stop, then queries to submit.
    churn: Vec<(Vec<u32>, Vec<u32>)>,
    /// Expected results: warm, open, then one entry per closed block.
    expected: Vec<Results>,
}

/// The queries admitted at setup: the first draws of a repetition's
/// generator, so a setup-only repetition admits the same set.
fn initial_preds(rng: &mut TcqRng) -> Vec<Pred> {
    (0..QUERIES)
        .map(|i| Pred::random(rng, i % 2 == 0))
        .collect()
}

pub fn inputs(seed: u64, rep: u64) -> Inputs {
    let mut rng = seeded(derive_seed(seed, rep));
    let sch = schema();
    let mut preds = initial_preds(&mut rng);
    let rows: Vec<(i64, i64)> = (0..WARM + OPEN + CLOSED)
        .map(|_| (rng.gen_range(0..KEYS), rng.gen_range(0..VMAX)))
        .collect();
    let tuples = |range: std::ops::Range<usize>, per: usize| -> Vec<Vec<Tuple>> {
        let all: Vec<Tuple> = range
            .map(|r| {
                TupleBuilder::new(sch.clone())
                    .push(rows[r].0)
                    .push(rows[r].1)
                    .push(r as i64)
                    .at(Timestamp::logical(r as i64 + 1))
                    .build()
                    .expect("three ints match the schema")
            })
            .collect();
        all.chunks(per).map(<[Tuple]>::to_vec).collect()
    };
    let warm = tuples(0..WARM, WARM).concat();
    let open = tuples(WARM..WARM + OPEN, OPEN_RATE.group);
    let closed = tuples(WARM + OPEN..rows.len(), BLOCK);

    let mut live = vec![true; QUERIES];
    let mut expected = vec![
        reference(&rows, 0..WARM, &preds, &live),
        reference(&rows, WARM..WARM + OPEN, &preds, &live),
    ];
    let mut churn = Vec::with_capacity(closed.len());
    for b in 0..closed.len() {
        let from = WARM + OPEN + b * BLOCK;
        expected.push(reference(&rows, from..from + BLOCK, &preds, &live));
        let live_ids: Vec<u32> = (0..preds.len() as u32)
            .filter(|&q| live[q as usize])
            .collect();
        let mut stop = Vec::with_capacity(CHURN);
        while stop.len() < CHURN {
            let q = live_ids[rng.gen_range(0..live_ids.len())];
            if !stop.contains(&q) {
                stop.push(q);
            }
        }
        for &q in &stop {
            live[q as usize] = false;
        }
        let start: Vec<u32> = (0..CHURN)
            .map(|i| {
                preds.push(Pred::random(&mut rng, i % 2 == 0));
                live.push(true);
                (preds.len() - 1) as u32
            })
            .collect();
        churn.push((stop, start));
    }
    Inputs {
        preds,
        rows,
        warm,
        open,
        closed,
        churn,
        expected,
    }
}

/// Record one delivery under the query index its server id maps to.
fn accept(c: &mut Collector, qidx: &HashMap<usize, u32>, (qid, t): &Delivery) -> Option<u32> {
    c.accept(qidx.get(qid).copied(), t.value(0))
}

/// Receive until `n` results have arrived (or the engine stalls).
fn receive(
    rx: &Receiver<Delivery>,
    qidx: &HashMap<usize, u32>,
    n: usize,
    c: &mut Collector,
    trace: &Trace,
) {
    let mut arrived = 0;
    while arrived < n {
        let w0 = Instant::now();
        let Ok(d) = rx.recv_timeout(STALL) else {
            return;
        };
        trace.add("egress.recv_wait", w0.elapsed());
        accept(c, qidx, &d);
        arrived += 1;
        while let Ok(d) = rx.try_recv() {
            accept(c, qidx, &d);
            arrived += 1;
        }
    }
}

/// A set-up server: its push client, and the server id of every query
/// submitted so far, both ways.
struct Admitted {
    server: TelegraphCQ,
    client: u64,
    rx: Receiver<Delivery>,
    qidx: HashMap<usize, u32>,
    qids: Vec<usize>,
}

impl Admitted {
    /// Submit query `q` and record its server id both ways. Queries are
    /// submitted in index order, so `qids[q]` is query `q`'s id.
    fn submit(&mut self, preds: &[Pred], q: u32, trace: &Trace) {
        assert_eq!(
            self.qids.len(),
            q as usize,
            "queries are submitted in index order"
        );
        let sql = preds[q as usize].sql();
        let qid = trace
            .span("query.submit", || self.server.submit(&sql, self.client))
            .expect("selection is valid");
        self.qidx.insert(qid, q);
        self.qids.push(qid);
    }
}

/// Server start, stream registration and the first [`QUERIES`] of
/// `preds` admitted, ended by the last `submit` returning: what `setup_s`
/// measures. `channel` sizes the push client's queue.
fn setup(preds: &[Pred], channel: usize, trace: &Trace) -> (Admitted, f64) {
    let t0 = Instant::now();
    let server = TelegraphCQ::start(ServerConfig::default()).expect("server starts");
    server.register_stream("s", schema()).expect("register s");
    let (client, rx) = server.connect_push_client(channel).expect("push client");
    let mut adm = Admitted {
        server,
        client,
        rx,
        qidx: HashMap::with_capacity(preds.len()),
        qids: Vec::with_capacity(preds.len()),
    };
    for q in 0..QUERIES as u32 {
        adm.submit(preds, q, trace);
    }
    (adm, t0.elapsed().as_secs_f64())
}

fn teardown(server: TelegraphCQ) {
    server.finish_stream("s").expect("finish s");
    server.shutdown().expect("clean shutdown");
}

/// Set a server up and tear it down again; the setup time.
pub fn setup_rep(seed: u64, rep: u64) -> f64 {
    let preds = initial_preds(&mut seeded(derive_seed(seed, rep)));
    let (adm, setup_s) = setup(&preds, 1024, &Trace::new(false));
    teardown(adm.server);
    setup_s
}

pub fn run_rep(seed: u64, rep: u64, traced: bool) -> Rep {
    let inp = inputs(seed, rep);
    let trace = Trace::new(traced);
    let quiet = Trace::new(false);
    let mut out = Rep::default();
    let usage0 = stats::usage();
    let channel = inp.expected.iter().map(Vec::len).max().unwrap_or(0) + 1024;

    let (mut adm, setup_s) = setup(&inp.preds, channel, &trace);
    out.setup_s = setup_s;

    let mut failed = 0;
    let mut expected = inp.expected.iter();
    // Warm-up: one push, then every result.
    let exp = expected.next().expect("warm segment");
    adm.server.push_batch("s", inp.warm).expect("push warm");
    let mut c = Collector::default();
    receive(&adm.rx, &adm.qidx, exp.len(), &mut c, &quiet);
    failed += c.finish(exp);

    let exp = expected.next().expect("open segment");
    let mut c = Collector::default();
    let (server, rx, qidx) = (&adm.server, &adm.rx, &adm.qidx);
    rep::open_loop(
        OPEN_RATE,
        inp.open,
        |g| server.push_batch("s", g).expect("push open-loop group"),
        exp.len(),
        WARM,
        |rows| {
            let d = rx.recv_timeout(STALL).ok()?;
            let at = Instant::now();
            rows.extend(accept(&mut c, qidx, &d));
            Some((1, at))
        },
        &mut out,
    );
    failed += c.finish(exp);

    // Closed loop: push a block, take all its results, churn, repeat.
    let cpu0 = stats::usage().cpu_ns;
    let c0 = Instant::now();
    let mut blocks_got = Vec::with_capacity(inp.closed.len());
    for (block, (stop, start)) in inp.closed.into_iter().zip(&inp.churn) {
        let exp = expected.next().expect("one segment per block");
        trace
            .span("ingress.push", || adm.server.push_batch("s", block))
            .expect("push block");
        let mut c = Collector::default();
        receive(&adm.rx, &adm.qidx, exp.len(), &mut c, &trace);
        blocks_got.push(c);
        for &q in stop {
            let qid = adm.qids[q as usize];
            trace
                .span("query.submit", || adm.server.stop_query(qid))
                .expect("stop a live query");
        }
        for &q in start {
            adm.submit(&inp.preds, q, &trace);
        }
    }
    out.closed_s = c0.elapsed().as_secs_f64();
    out.closed_cpu_ns = stats::usage().cpu_ns - cpu0;
    out.closed_tuples = CLOSED;
    for (c, exp) in blocks_got.into_iter().zip(expected) {
        failed += c.finish(exp);
    }

    if traced {
        rep::engine_layers(&adm.server, &["dispatch", "filter_cq"], &mut out.layers);
    }
    teardown(adm.server);
    // Anything still queued arrived after its segment was complete.
    failed += adm.rx.try_iter().count() as u64;
    out.expected = inp.expected.iter().map(|e| e.len() as u64).sum();
    out.failed = failed;
    if traced {
        let l = &mut out.layers;
        l.insert("ingress.push_ns", trace.mean_ns("ingress.push"));
        l.insert("ingress.push_calls", trace.calls("ingress.push"));
        l.insert("query.submit_ns", trace.mean_ns("query.submit"));
        l.insert(
            "egress.recv_wait_ns",
            trace.total_ns("egress.recv_wait") / CLOSED as f64,
        );
        rep::ctx_layers(usage0, stats::usage(), l);
        micro_layers(&inp.preds, &inp.rows, &inp.churn, l);
    }
    out
}

/// The query SteM alone, on this repetition's queries and closed-loop
/// rows: probe time, matches, and churn (remove + insert) time.
fn micro_layers(
    preds: &[Pred],
    rows: &[(i64, i64)],
    churn: &[(Vec<u32>, Vec<u32>)],
    out: &mut BTreeMap<&'static str, f64>,
) {
    let sch = schema();
    let expr = |p: &Pred| {
        telegraphcq::query::parse(&p.sql())
            .expect("selection parses")
            .where_clause
            .expect("has a WHERE")
    };
    let mut stem = QueryStem::new(sch.clone());
    for (q, p) in preds.iter().enumerate().take(QUERIES) {
        stem.insert_query(q, Some(&expr(p))).expect("binds");
    }
    let probe: Vec<Tuple> = rows[WARM + OPEN..]
        .iter()
        .enumerate()
        .map(|(i, &(k, v))| {
            TupleBuilder::new(sch.clone())
                .push(k)
                .push(v)
                .push(i as i64)
                .at(Timestamp::logical(i as i64 + 1))
                .build()
                .expect("three ints match the schema")
        })
        .collect();
    let mut scratch = MatchScratch::new();
    let mut matches = 0;
    let t = Instant::now();
    for tuple in &probe {
        stem.matching_into(tuple, &mut scratch).expect("probe");
        matches += scratch.matches().len();
    }
    out.insert(
        "stems.filter_probe_ns",
        t.elapsed().as_nanos() as f64 / probe.len() as f64,
    );
    out.insert(
        "stems.matches_per_tuple",
        matches as f64 / probe.len() as f64,
    );

    let exprs: Vec<_> = churn
        .iter()
        .flat_map(|(_, start)| start.iter().map(|&q| expr(&preds[q as usize])))
        .collect();
    let mut exprs = exprs.iter();
    let t = Instant::now();
    let mut ops = 0;
    for (stop, start) in churn {
        for &q in stop {
            stem.remove_query(q as usize).expect("live query");
            ops += 1;
        }
        for &q in start {
            let e = exprs.next().expect("one expr per submit");
            stem.insert_query(q as usize, Some(e)).expect("binds");
            ops += 1;
        }
    }
    out.insert("stems.churn_ns", t.elapsed().as_nanos() as f64 / ops as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_evaluates_each_live_query_per_row() {
        let preds = [
            Pred::Anchored { a: 3, lo: 10 },
            Pred::Range { lo: 5, hi: 20 },
            Pred::Range { lo: 0, hi: 100 },
        ];
        let rows = [(3, 11), (3, 10), (4, 6), (9, 500)];
        let all = reference(&rows, 0..4, &preds, &[true, true, true]);
        assert_eq!(
            all,
            vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]
        );
        // A stopped query contributes nothing; the row range is honoured.
        let some = reference(&rows, 1..3, &preds, &[true, false, true]);
        assert_eq!(some, vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn churned_lifetimes_shape_the_expected_results() {
        let inp = inputs(5, 0);
        assert_eq!(inp.expected.len(), 2 + CLOSED / BLOCK);
        assert_eq!(inp.preds.len(), QUERIES + CHURN * CLOSED / BLOCK);
        // A query stopped after block b answers nothing in later blocks;
        // one submitted after block b answers nothing before.
        let (stop, start) = &inp.churn[0];
        for later in &inp.expected[3..] {
            assert!(later.iter().all(|&(_, q)| !stop.contains(&q)));
        }
        for early in &inp.expected[..3] {
            assert!(early.iter().all(|&(_, q)| !start.contains(&q)));
        }
    }

    #[test]
    fn sql_matches_the_reference_predicate() {
        assert_eq!(
            Pred::Anchored { a: 7, lo: 9 }.sql(),
            "SELECT seq FROM s WHERE k = 7 AND v > 9"
        );
        assert_eq!(
            Pred::Range { lo: 1, hi: 4 }.sql(),
            "SELECT seq FROM s WHERE v > 1 AND v < 4"
        );
    }
}
