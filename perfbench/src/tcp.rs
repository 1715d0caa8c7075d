//! `tcp_fanout`: the engine behind its TCP transport. One ingest
//! connection ships rows; one subscriber connection holds [`QUERIES`]
//! overlapping range queries, so each row fans out to several queries in
//! egress and leaves through that connection's queue and writer.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use telegraphcq::common::rng::{derive_seed, seeded};
use telegraphcq::common::{DataType, Field, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder};
use telegraphcq::net::wire::{Frame, FrameReader, FrameWriter};
use telegraphcq::net::{NetServer, TcqClient};
use telegraphcq::server::{ServerConfig, TcpTransportConfig, TransportConfig};

use crate::rep::{self, Collector, Rep, Results, Trace, STALL};
use crate::stats::{self, Schedule};

/// Standing queries on the subscriber connection.
pub const QUERIES: i64 = 64;
/// Query `j` selects `j <= k < j + SPAN`.
const SPAN: i64 = 8;
/// Warm-up rows (checked, not timed).
pub const WARM: usize = 2_048;
/// Open-loop rows per repetition, at [`OPEN_RATE`].
pub const OPEN: usize = 1_024;
/// Open-loop input rate: a constant well below the closed-loop rate.
pub const OPEN_RATE: Schedule = Schedule {
    rate: 4_000,
    group: 8,
};
/// Closed-loop rows per repetition.
pub const CLOSED: usize = 16_384;
/// Rows per ingest frame in the closed loop: small enough that several
/// frames (about 7 results per row) are in flight within [`WINDOW`].
const BATCH: usize = 16;
/// Closed loop: results outstanding at most. Just below the default
/// per-connection egress queue (1024), so the router never sheds; the
/// queue, not the engine, caps how many results can be in flight.
const WINDOW: usize = 1_000;
/// Rows per `Results` frame when the wire codec is timed alone.
const FRAME_ROWS: usize = 64;

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("seq", DataType::Int),
    ])
    .into_ref()
}

fn query(j: i64) -> String {
    format!("SELECT seq FROM s WHERE k >= {j} AND k < {}", j + SPAN)
}

/// Query indices row key `k` answers.
fn fanout(k: i64) -> std::ops::Range<i64> {
    (k - SPAN + 1).max(0)..(k + 1).min(QUERIES)
}

/// One repetition's rows and expected results, built before any clock
/// starts. Row `r` carries `seq = r`.
pub struct Inputs {
    /// Rows shipped over every phase.
    rows: usize,
    /// Closed-loop batches, each with the number of results it yields.
    warm: Vec<(Vec<Tuple>, usize)>,
    open: Vec<Vec<Tuple>>,
    closed: Vec<(Vec<Tuple>, usize)>,
    /// Expected results: warm, open, closed.
    expected: [Results; 3],
}

pub fn inputs(seed: u64, rep: u64) -> Inputs {
    let mut rng = seeded(derive_seed(seed, rep));
    let sch = schema();
    let keys: Vec<i64> = (0..WARM + OPEN + CLOSED)
        .map(|_| rng.gen_range(0..QUERIES + SPAN))
        .collect();
    let rows = |range: std::ops::Range<usize>, per: usize| -> Vec<Vec<Tuple>> {
        let all: Vec<Tuple> = range
            .map(|r| {
                TupleBuilder::new(sch.clone())
                    .push(keys[r])
                    .push(r as i64)
                    .at(Timestamp::logical(r as i64 + 1))
                    .build()
                    .expect("two ints match the schema")
            })
            .collect();
        all.chunks(per).map(<[Tuple]>::to_vec).collect()
    };
    let expect = |range: std::ops::Range<usize>| -> Results {
        range
            .flat_map(|r| fanout(keys[r]).map(move |j| (r as u32, j as u32)))
            .collect()
    };
    let counted = |batches: Vec<Vec<Tuple>>| -> Vec<(Vec<Tuple>, usize)> {
        batches
            .into_iter()
            .map(|b| {
                let n = b
                    .iter()
                    .map(|t| fanout(t.value(0).as_int().expect("k is an int")).count())
                    .sum();
                (b, n)
            })
            .collect()
    };
    let (o, c) = (WARM, WARM + OPEN);
    Inputs {
        warm: counted(rows(0..o, BATCH)),
        open: rows(o..c, OPEN_RATE.group),
        closed: counted(rows(c..keys.len(), BATCH)),
        expected: [expect(0..o), expect(o..c), expect(c..keys.len())],
        rows: keys.len(),
    }
}

/// Receives on the subscriber connection, mapping server query ids back
/// to query indices.
struct Subscriber {
    client: TcqClient,
    qidx: HashMap<u64, u32>,
}

impl Subscriber {
    /// Wait for the next result frame, record its rows in `c` and append
    /// the valid ones to `rows`; how many rows arrived and when, or None
    /// if the connection went quiet.
    fn next(
        &mut self,
        c: &mut Collector,
        trace: &Trace,
        rows: &mut Vec<u32>,
    ) -> Option<(usize, Instant)> {
        let w0 = Instant::now();
        let batch = self.client.next_results(STALL).ok().flatten()?;
        let at = Instant::now();
        trace.add("net.next_results", at - w0);
        let q = self.qidx.get(&batch.query).copied();
        rows.extend(batch.tuples.iter().filter_map(|t| c.accept(q, t.value(0))));
        Some((batch.tuples.len(), at))
    }
}

/// A set-up server with its two connections.
struct Conns {
    server: NetServer,
    sub: Subscriber,
    ingest: TcqClient,
}

/// Server start, stream registration, both connections and every query
/// submitted, ended by the last `SubmitOk`: what `setup_s` measures.
fn setup(trace: &Trace) -> (Conns, f64) {
    let t0 = Instant::now();
    let server = NetServer::start(ServerConfig {
        transport: TransportConfig::Tcp(TcpTransportConfig::default()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().expect("tcp transport is bound");
    server
        .engine()
        .register_stream("s", schema())
        .expect("register s");
    let mut sub = Subscriber {
        client: TcqClient::connect(addr).expect("subscriber connects"),
        qidx: HashMap::new(),
    };
    for j in 0..QUERIES {
        let sql = query(j);
        let qid = trace
            .span("query.submit", || sub.client.submit(&sql))
            .expect("range query is valid");
        sub.qidx.insert(qid, j as u32);
    }
    let ingest = TcqClient::connect(addr).expect("ingest connects");
    let conns = Conns {
        server,
        sub,
        ingest,
    };
    (conns, t0.elapsed().as_secs_f64())
}

fn teardown(conns: Conns) {
    let Conns {
        server,
        sub,
        ingest,
    } = conns;
    ingest.bye().expect("ingest bye");
    sub.client.bye().expect("subscriber bye");
    server.shutdown().expect("clean shutdown");
}

/// Set a server up and tear it down again; the setup time.
pub fn setup_rep() -> f64 {
    let (conns, setup_s) = setup(&Trace::new(false));
    teardown(conns);
    setup_s
}

pub fn run_rep(seed: u64, rep: u64, traced: bool) -> Rep {
    let inp = inputs(seed, rep);
    let trace = Trace::new(traced);
    let quiet = Trace::new(false);
    let mut out = Rep::default();
    let usage0 = stats::usage();

    let (mut conns, setup_s) = setup(&trace);
    out.setup_s = setup_s;
    let Conns { sub, ingest, .. } = &mut conns;

    let [exp_warm, exp_open, exp_closed] = &inp.expected;
    let mut failed = 0;
    let mut c = Collector::default();
    closed_loop(ingest, sub, inp.warm, &mut c, &quiet);
    failed += c.finish(exp_warm);

    let mut c = Collector::default();
    rep::open_loop(
        OPEN_RATE,
        inp.open,
        |g| ingest.ingest("s", g).expect("ship open-loop group"),
        exp_open.len(),
        WARM,
        |rows| sub.next(&mut c, &quiet, rows),
        &mut out,
    );
    failed += c.finish(exp_open);

    let mut c = Collector::default();
    let cpu0 = stats::usage().cpu_ns;
    let c0 = Instant::now();
    closed_loop(ingest, sub, inp.closed, &mut c, &trace);
    out.closed_s = c0.elapsed().as_secs_f64();
    out.closed_cpu_ns = stats::usage().cpu_ns - cpu0;
    out.closed_tuples = CLOSED;
    failed += c.finish(exp_closed);

    // The ledgers must agree with what arrived: every offer delivered,
    // every delivered row written once, every shipped row read once.
    let results: u64 = inp.expected.iter().map(|e| e.len() as u64).sum();
    let engine = conns.server.engine();
    let eg = engine.egress_stats_full();
    let net = conns.server.net_stats();
    failed += eg.offered.abs_diff(results)
        + eg.delivered.abs_diff(results)
        + net.rows_written.abs_diff(results)
        + net.rows_read.abs_diff(inp.rows as u64);
    if traced {
        rep::engine_layers(engine, &["dispatch", "filter_cq"], &mut out.layers);
        let l = &mut out.layers;
        l.insert(
            "net.rows_per_frame_written",
            net.rows_written as f64 / net.frames_written.max(1) as f64,
        );
        l.insert(
            "net.bytes_per_row",
            net.bytes_written as f64 / net.rows_written.max(1) as f64,
        );
    }
    teardown(conns);
    out.expected = results;
    out.failed = failed;
    if traced {
        let l = &mut out.layers;
        l.insert("query.submit_ns", trace.mean_ns("query.submit"));
        l.insert("net.ingest_call_ns", trace.mean_ns("net.ingest"));
        l.insert("net.next_results_ns", trace.mean_ns("net.next_results"));
        l.insert(
            "egress.recv_wait_ns",
            trace.total_ns("net.next_results") / CLOSED as f64,
        );
        rep::ctx_layers(usage0, stats::usage(), l);
        micro_layers(seed, rep, l);
    }
    out
}

/// Ship `batches` with at most [`WINDOW`] results outstanding; return once
/// every result has arrived (or the subscriber goes quiet).
fn closed_loop(
    ingest: &mut TcqClient,
    sub: &mut Subscriber,
    batches: Vec<(Vec<Tuple>, usize)>,
    c: &mut Collector,
    trace: &Trace,
) {
    let mut rows = Vec::new();
    rep::closed_loop(
        batches,
        WINDOW,
        |b| {
            trace
                .span("net.ingest", || ingest.ingest("s", b))
                .expect("ship batch")
        },
        || {
            let got = sub.next(c, trace, &mut rows);
            rows.clear();
            got.map(|(n, _)| n)
        },
    );
}

/// The wire codec alone on this repetition's closed-loop rows, framed as
/// the writer frames results: encode, then decode, per row.
fn micro_layers(seed: u64, rep: u64, out: &mut BTreeMap<&'static str, f64>) {
    let rows: Vec<Tuple> = inputs(seed, rep)
        .closed
        .into_iter()
        .flat_map(|(b, _)| b)
        .collect();
    let frames: Vec<Frame> = rows
        .chunks(FRAME_ROWS)
        .map(|tuples| Frame::Results {
            query: 0,
            tuples: tuples.to_vec(),
        })
        .collect();
    let rows: usize = frames.iter().map(Frame::row_count).sum();
    let mut enc = FrameWriter::new();
    let mut buf = Vec::new();
    let t = Instant::now();
    for f in &frames {
        enc.encode(f, &mut buf);
    }
    out.insert(
        "net.wire.encode_ns_per_row",
        t.elapsed().as_nanos() as f64 / rows as f64,
    );
    let mut dec = FrameReader::new();
    let (mut at, mut decoded) = (0, 0);
    let t = Instant::now();
    while let Some((f, used)) = dec.decode(&buf[at..]).expect("own frames decode") {
        decoded += f.row_count();
        at += used;
    }
    out.insert(
        "net.wire.decode_ns_per_row",
        t.elapsed().as_nanos() as f64 / rows as f64,
    );
    assert_eq!(decoded, rows, "every encoded row decodes");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_matches_the_query_ranges() {
        for k in 0..QUERIES + SPAN {
            let by_query: Vec<i64> = (0..QUERIES).filter(|&j| j <= k && k < j + SPAN).collect();
            assert_eq!(fanout(k).collect::<Vec<_>>(), by_query, "k = {k}");
        }
    }

    #[test]
    fn window_fits_a_batch_and_stays_below_the_egress_queue() {
        assert!(SPAN as usize * BATCH <= WINDOW);
        assert!(WINDOW < TcpTransportConfig::default().client_queue);
    }
}
