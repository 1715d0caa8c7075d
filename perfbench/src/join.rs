//! `join_dedicated` and `join_partitioned`: the select-project-join of
//! `exp_throughput` (one hot stream against a 64-row dimension, one
//! result per hot tuple), at `partitions` 1 and 2. Only the exchange
//! differs between the two.

use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;
use std::time::Instant;

use telegraphcq::common::rng::{derive_seed, seeded, TcqRng};
use telegraphcq::common::{DataType, Field, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder};
use telegraphcq::egress::Delivery;
use telegraphcq::operators::SelectOp;
use telegraphcq::server::{ServerConfig, TelegraphCQ};
use telegraphcq::stems::{IndexKind, SteM};

use crate::rep::{self, Collector, Rep, Results, Trace, STALL};
use crate::stats::{self, Schedule};

/// Rows in the build-side dimension; every hot key hits exactly one.
pub const DIM_ROWS: i64 = 64;
/// Warm-up tuples (checked, not timed).
pub const WARM: usize = 10_000;
/// Open-loop tuples per repetition, at [`OPEN_RATE`].
pub const OPEN: usize = 8_000;
/// Open-loop input rate: a constant well below the closed-loop rate.
pub const OPEN_RATE: Schedule = Schedule {
    rate: 40_000,
    group: 16,
};
/// Closed-loop tuples per repetition.
pub const CLOSED: usize = 100_000;
/// Tuples per closed-loop push: the default `io_batch`.
const BATCH: usize = 64;
/// Closed loop: the pusher waits once this many results are outstanding.
const WINDOW: usize = 8_192;
/// Push-client channel capacity; above every in-flight bound, so the
/// egress router never sheds.
const CHANNEL: usize = 4 * WINDOW;
/// Fence tuples pushed after each phase. Their negative keys join
/// nothing but hash to both partitions, so the exchange closes the
/// phase's last partition run instead of holding it for the next tuple.
const FENCE: i64 = 16;

/// Unequal windows keep the join off the shared CACQ SteM, so it runs on
/// a dedicated eddy (`partitions: 1`) or the exchange (`partitions: 2`).
/// The short hot-stream window bounds SteM memory per repetition.
const QUERY: &str = "SELECT s.v, d.tag FROM s s, dim d WHERE s.k = d.id AND s.v > 0 \
     for (t = ST; t >= 0; t++) { WindowIs(s, t - 4096, t); WindowIs(d, t - 9000000, t); }";

fn hot_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref()
}

fn dim_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("tag", DataType::Int),
    ])
    .into_ref()
}

/// One repetition's inputs, generated before any clock starts. Hot tuple
/// `i` carries `v = i + 1`, so each result names the input it answers.
/// Each phase's [`FENCE`] tuples ride in its last batch.
pub struct Inputs {
    dims: Vec<Tuple>,
    /// `tags[k]`: the tag the dimension row with id `k` carries.
    tags: Vec<i64>,
    /// Join key of hot tuple `i`.
    keys: Vec<i64>,
    /// Closed-loop batches, each with the number of results it yields.
    warm: Vec<(Vec<Tuple>, usize)>,
    open: Vec<Vec<Tuple>>,
    closed: Vec<(Vec<Tuple>, usize)>,
}

/// The dimension rows and their tags: the first draws of a repetition's
/// generator, so a setup-only repetition builds the same table.
fn dimension(rng: &mut TcqRng) -> (Vec<Tuple>, Vec<i64>) {
    let tags: Vec<i64> = (0..DIM_ROWS)
        .map(|_| rng.gen_range(1..1_000_000i64))
        .collect();
    let dim = dim_schema();
    let dims = (0..DIM_ROWS)
        .map(|id| tuple(&dim, id, tags[id as usize], id + 1))
        .collect();
    (dims, tags)
}

pub fn inputs(seed: u64, rep: u64) -> Inputs {
    let mut rng = seeded(derive_seed(seed, rep));
    let (dims, tags) = dimension(&mut rng);
    let hot = hot_schema();
    let mut seq = DIM_ROWS;
    let mut keys = Vec::with_capacity(WARM + OPEN + CLOSED);
    let mut phase = |n: usize, per: usize, keys: &mut Vec<i64>, seq: &mut i64| {
        let mut batches: Vec<(Vec<Tuple>, usize)> = (0..n)
            .step_by(per)
            .map(|start| {
                let batch: Vec<Tuple> = (start..n.min(start + per))
                    .map(|_| {
                        let k = rng.gen_range(0..DIM_ROWS);
                        keys.push(k);
                        *seq += 1;
                        tuple(&hot, k, keys.len() as i64, *seq)
                    })
                    .collect();
                let results = batch.len();
                (batch, results)
            })
            .collect();
        let last = &mut batches.last_mut().expect("phases are not empty").0;
        for k in 1..=FENCE {
            *seq += 1;
            last.push(tuple(&hot, -k, 0, *seq));
        }
        batches
    };
    let warm = phase(WARM, BATCH, &mut keys, &mut seq);
    let open = phase(OPEN, OPEN_RATE.group, &mut keys, &mut seq);
    let closed = phase(CLOSED, BATCH, &mut keys, &mut seq);
    Inputs {
        dims,
        tags,
        keys,
        warm,
        open: open.into_iter().map(|(g, _)| g).collect(),
        closed,
    }
}

fn tuple(schema: &SchemaRef, a: i64, b: i64, seq: i64) -> Tuple {
    TupleBuilder::new(schema.clone())
        .push(a)
        .push(b)
        .at(Timestamp::logical(seq))
        .build()
        .expect("two ints match the two-int schema")
}

/// Record one result: row `v` (the input it answers, numbered from 1)
/// under query 0 if it carries the tag of that input's key, and as a
/// result of no known query otherwise.
fn accept(c: &mut Collector, tags: &[i64], keys: &[i64], t: &Tuple) -> Option<u32> {
    let right = match (t.value(0).as_int(), t.value(1).as_int()) {
        (Ok(v), Ok(tag)) => usize::try_from(v - 1)
            .ok()
            .and_then(|i| keys.get(i))
            .is_some_and(|&k| tags[k as usize] == tag),
        _ => false,
    };
    c.accept(right.then_some(0), t.value(0))
}

/// DU kinds in the order the setup below creates them.
fn du_kinds(partitions: usize) -> Vec<&'static str> {
    let mut kinds = vec!["dispatch", "filter_cq", "dispatch", "filter_cq"];
    if partitions == 1 {
        kinds.push("join_cq");
    } else {
        kinds.extend(std::iter::repeat_n("xchg_work", partitions));
        kinds.extend(["xchg_merge", "xchg_part"]);
    }
    kinds
}

/// Server start, stream registration, query submission and dimension
/// load, ended when the dimension's stream time shows every row in: what
/// `setup_s` measures, returned with the server and its result channel.
fn setup(
    partitions: usize,
    dims: Vec<Tuple>,
    trace: &Trace,
) -> (TelegraphCQ, Receiver<Delivery>, f64) {
    let t0 = Instant::now();
    let server = TelegraphCQ::start(ServerConfig {
        partitions,
        ..ServerConfig::default()
    })
    .expect("server starts");
    server
        .register_stream("s", hot_schema())
        .expect("register s");
    server
        .register_stream("dim", dim_schema())
        .expect("register dim");
    let (client, rx) = server.connect_push_client(CHANNEL).expect("push client");
    trace
        .span("query.submit", || server.submit(QUERY, client))
        .expect("join query is valid");
    server.push_batch("dim", dims).expect("load dim");
    while server.stream_time("dim").expect("dim registered") < DIM_ROWS {
        std::thread::yield_now();
    }
    (server, rx, t0.elapsed().as_secs_f64())
}

fn teardown(server: TelegraphCQ) {
    server.finish_stream("s").expect("finish s");
    server.finish_stream("dim").expect("finish dim");
    server.shutdown().expect("clean shutdown");
}

/// Set a server up and tear it down again; the setup time.
pub fn setup_rep(partitions: usize, seed: u64, rep: u64) -> f64 {
    let (dims, _) = dimension(&mut seeded(derive_seed(seed, rep)));
    let (server, _rx, setup_s) = setup(partitions, dims, &Trace::new(false));
    teardown(server);
    setup_s
}

pub fn run_rep(partitions: usize, seed: u64, rep: u64, traced: bool) -> Rep {
    let Inputs {
        dims,
        tags,
        keys,
        warm,
        open,
        closed,
    } = inputs(seed, rep);
    let trace = Trace::new(traced);
    let quiet = Trace::new(false);
    let mut out = Rep::default();
    let usage0 = stats::usage();

    let (server, rx, setup_s) = setup(partitions, dims, &trace);
    out.setup_s = setup_s;

    let mut c = Collector::default();
    closed_loop(&server, &rx, warm, &tags, &keys, &mut c, &quiet);

    rep::open_loop(
        OPEN_RATE,
        open,
        |g| server.push_batch("s", g).expect("push open-loop group"),
        OPEN,
        WARM + 1,
        |rows| {
            let (_, t) = rx.recv_timeout(STALL).ok()?;
            let at = Instant::now();
            rows.extend(accept(&mut c, &tags, &keys, &t));
            Some((1, at))
        },
        &mut out,
    );

    let cpu0 = stats::usage().cpu_ns;
    let c0 = Instant::now();
    closed_loop(&server, &rx, closed, &tags, &keys, &mut c, &trace);
    out.closed_s = c0.elapsed().as_secs_f64();
    out.closed_cpu_ns = stats::usage().cpu_ns - cpu0;
    out.closed_tuples = CLOSED;

    if traced {
        rep::engine_layers(&server, &du_kinds(partitions), &mut out.layers);
    }
    teardown(server);
    // Anything still queued is checked too: a duplicate or a wrong row.
    for (_, t) in rx.try_iter() {
        accept(&mut c, &tags, &keys, &t);
    }
    let expected: Results = (1..=keys.len() as u32).map(|v| (v, 0)).collect();
    out.expected = expected.len() as u64;
    out.failed = c.finish(&expected);
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
        micro_layers(seed, rep, l);
    }
    out
}

/// Push `batches` with at most [`WINDOW`] results outstanding; return once
/// every result has arrived (or the engine stalls).
fn closed_loop(
    server: &TelegraphCQ,
    rx: &Receiver<Delivery>,
    batches: Vec<(Vec<Tuple>, usize)>,
    tags: &[i64],
    keys: &[i64],
    c: &mut Collector,
    trace: &Trace,
) {
    rep::closed_loop(
        batches,
        WINDOW,
        |b| {
            trace
                .span("ingress.push", || server.push_batch("s", b))
                .expect("push hot batch")
        },
        || {
            let w0 = Instant::now();
            let (_, t) = rx.recv_timeout(STALL).ok()?;
            trace.add("egress.recv_wait", w0.elapsed());
            accept(c, tags, keys, &t);
            let mut n = 1;
            for (_, t) in rx.try_iter() {
                accept(c, tags, keys, &t);
                n += 1;
            }
            Some(n)
        },
    );
}

/// The SteM probe and the compiled select kernel, timed in isolation on
/// this repetition's closed-loop inputs.
fn micro_layers(seed: u64, rep: u64, out: &mut BTreeMap<&'static str, f64>) {
    let inp = inputs(seed, rep);
    let hot: Vec<Tuple> = inp
        .closed
        .into_iter()
        .flat_map(|(b, _)| b)
        .filter(|t| t.value(0).as_int().is_ok_and(|k| k >= 0))
        .collect();
    let mut stem = SteM::new("dim", dim_schema(), 0, IndexKind::Hash).expect("key col 0");
    for d in inp.dims {
        stem.insert(d).expect("dim row fits the SteM");
    }
    let mut found = Vec::with_capacity(4);
    let t = Instant::now();
    let mut matches = 0;
    for h in &hot {
        matches += stem.probe_eq(h.value(0), &mut found);
        found.clear();
    }
    out.insert(
        "stems.probe_ns_per_tuple",
        t.elapsed().as_nanos() as f64 / hot.len() as f64,
    );
    assert_eq!(matches, hot.len(), "every hot key hits one dim row");

    let pred = telegraphcq::query::parse("SELECT v FROM s WHERE v > 0")
        .expect("select parses")
        .where_clause
        .expect("has a WHERE");
    let mut select = SelectOp::new("v>0", &pred, &hot_schema()).expect("binds");
    let t = Instant::now();
    let mut passed = 0;
    for h in &hot {
        passed += select.matches(h).expect("int compare") as usize;
    }
    out.insert(
        "operators.select_ns_per_tuple",
        t.elapsed().as_nanos() as f64 / hot.len() as f64,
    );
    assert_eq!(passed, hot.len(), "every hot tuple has v > 0");
}

#[cfg(test)]
mod tests {
    use super::*;
    use telegraphcq::common::{hash_value, Value};

    #[test]
    fn fence_keys_reach_both_partitions() {
        let parts: std::collections::BTreeSet<u64> = (1..=FENCE)
            .map(|k| hash_value(&Value::Int(-k)) % 2)
            .collect();
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn inputs_repeat_per_seed_and_name_their_index() {
        let a = inputs(7, 0);
        let b = inputs(7, 0);
        let c = inputs(8, 0);
        assert_eq!(a.keys, b.keys);
        assert_ne!(a.keys, c.keys);
        assert_eq!(a.keys.len(), WARM + OPEN + CLOSED);
        let first_open = &a.open[0][0];
        assert_eq!(first_open.value(1).as_int().unwrap(), WARM as i64 + 1);
        assert_eq!(a.open[0].len(), OPEN_RATE.group);
        // Each phase ends on its fence: negative keys after the last input.
        let (last, results) = a.closed.last().unwrap();
        assert_eq!(last.len(), results + FENCE as usize);
        assert_eq!(a.closed.iter().map(|(_, r)| r).sum::<usize>(), CLOSED);
        assert_eq!(last.last().unwrap().value(0).as_int().unwrap(), -FENCE);
    }
}
