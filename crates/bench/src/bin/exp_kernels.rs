//! Experiment E-kernels (DESIGN.md §5d "Compiled kernels & prehashed
//! probes" + §5g "Columnar batches & vectorized kernels"): the hot path
//! of a predicate-heavy select-project-join — twelve single-column
//! comparisons plus one cross-source band factor — measured three ways:
//!
//! 1. **End to end**: E-throughput's pipeline at K = 64 delivering to a
//!    column client. Single-alias dedicated joins always run columnar.
//! 2. **Kernel vs interpreter**: the thirteen factors, conjoined over the
//!    joined schema, evaluated by the compiled [`Kernel`] and by the
//!    tree-walking `BoundExpr::eval_pred` (still the fallback for shapes
//!    outside the kernel grammar).
//! 3. **Columnar vs row eddy**: the eddy the server plans for the query
//!    fed the same batches through [`Eddy::process_batch_columnar`] and
//!    [`Eddy::process_batch`] (still the path of self-joins and exchange
//!    workers), each followed by the query's projection.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_kernels [-- --smoke]
//! ```
//!
//! The full run writes `BENCH_kernels.json`. `--smoke` runs reduced sizes
//! and exits non-zero if either A/B misses its speedup floor or an
//! allocs-per-tuple budget is blown — the perf tripwire `scripts/ci.sh`
//! relies on.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tcq_common::{
    DataType, Expr, Field, Kernel, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder,
};
use tcq_eddy::{Eddy, EddyConfig, Emitted, LotteryPolicy, ModuleSpec};
use tcq_operators::{SelectOp, StemOp};
use tcq_server::plans::LazyProject;
use tcq_server::{ServerConfig, TelegraphCQ};
use tcq_stems::IndexKind;

/// Counting allocator for the allocs-per-tuple budgets.
#[global_allocator]
static ALLOC: tcq_bench::CountingAlloc = tcq_bench::CountingAlloc::new();

/// Hot-path batch size: the K=64 plateau E-throughput established, so
/// the remaining per-tuple cost is evaluation and hashing.
const K: usize = 64;

/// Rows in the dimension stream; every hot key matches exactly one.
const DIM_ROWS: i64 = 64;

/// Added to each hot row's `v` so every row clears the `s.v > d.tag`
/// band (tags top out at `(DIM_ROWS - 1) * 10`).
const V_OFFSET: i64 = 1_000_000;

/// The measured query. Every factor after the leading equi-join is one
/// of the thirteen predicates, all satisfied by construction, so the
/// join emits exactly one output per hot tuple.
const QUERY: &str = "SELECT s.v, d.tag FROM s s, dim d \
     WHERE s.k = d.id \
     AND s.v > 0 AND s.v < 4000000000000000 AND s.v != 0 \
     AND s.k >= 0 AND s.k < 1000000 AND s.k != -1 \
     AND d.tag >= 0 AND d.tag < 1000000 AND d.tag != -1 \
     AND d.id <= 9000000 AND d.id >= 0 AND d.id != -1 \
     AND s.v > d.tag \
     for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 9000000, t); }";

/// Allocation events per tuple the row eddy may spend (join concat,
/// projection, output buffers): the budget the end-to-end row path used
/// to carry, egress included, so a per-tuple clone storm still blows it.
const ROW_ALLOC_BUDGET: f64 = 24.0;

/// Allocation events per delivered tuple end to end. The bench's own
/// TupleBuilder loop costs ~2 per pushed tuple inside the window; the
/// pipeline must stay batch-amortized to fit.
const COLUMNAR_ALLOC_BUDGET: f64 = 3.0;

/// Minimum kernel-over-interpreter speedup. Set from runs on a 2-vCPU
/// KVM guest before the gate existed: 3.82–4.46× over seven smoke runs,
/// 3.66–4.21× over three full runs.
const KERNEL_SPEEDUP_FLOOR: f64 = 2.5;

/// Minimum columnar-over-row eddy speedup. Same runs: 2.48–2.80× smoke,
/// 2.55–2.67× full.
const COLUMNAR_SPEEDUP_FLOOR: f64 = 1.5;

/// `(k, v)` hot rows and `(id, tag)` dimension rows, qualified by their
/// query alias (the eddy's view) or bare (`None`: the registered stream).
fn schema(alias: Option<&str>, hot: bool) -> SchemaRef {
    let names = if hot { ["k", "v"] } else { ["id", "tag"] };
    let fields = names.map(|n| Field::new(n, DataType::Int)).to_vec();
    match alias {
        Some(a) => Schema::qualified(a, fields).into_ref(),
        None => Schema::new(fields).into_ref(),
    }
}

fn row(schema: &SchemaRef, a: i64, b: i64, seq: i64) -> Tuple {
    TupleBuilder::new(schema.clone())
        .push(a)
        .push(b)
        .at(Timestamp::logical(seq))
        .build()
        .unwrap()
}

fn dim_rows(schema: &SchemaRef) -> Vec<Tuple> {
    (0..DIM_ROWS)
        .map(|id| row(schema, id, id * 10, id + 1))
        .collect()
}

fn hot_row(schema: &SchemaRef, idx: i64) -> Tuple {
    row(schema, idx % DIM_ROWS, V_OFFSET + idx, DIM_ROWS + idx + 1)
}

/// The thirteen predicate factors of [`QUERY`].
fn factors() -> Vec<Expr> {
    let pred = tcq_query::parse(QUERY).unwrap().where_clause.unwrap();
    pred.conjuncts()[1..].iter().map(|&f| f.clone()).collect()
}

fn conjoin(factors: impl IntoIterator<Item = Expr>) -> Expr {
    factors.into_iter().reduce(Expr::and).unwrap()
}

/// End to end: `n` hot tuples through the server to a column client,
/// timed from first push to last delivery. Returns (tuples/sec,
/// delivered, allocs per delivered tuple).
fn run_server(n: usize) -> (f64, usize, f64) {
    let server = TelegraphCQ::start(ServerConfig {
        io_batch: K,
        eddy_batch: K,
        ..ServerConfig::default()
    })
    .unwrap();
    let (hot, dims) = (schema(None, true), schema(None, false));
    server.register_stream("s", hot.clone()).unwrap();
    server.register_stream("dim", dims.clone()).unwrap();
    let (client, rx) = server.connect_column_client(n + 1024).unwrap();
    server.submit(QUERY, client).unwrap();
    server.push_batch("dim", dim_rows(&dims)).unwrap();
    while server.stream_time("dim").unwrap() < DIM_ROWS {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));

    // Drain in bursts: a blocking recv per batch would bill reaper
    // wakeups to the server.
    let reaper = std::thread::spawn(move || {
        let (mut got, deadline) = (0, Instant::now() + Duration::from_secs(120));
        while got < n && Instant::now() < deadline {
            let before = got;
            got += rx.try_iter().map(|(_, b)| b.len()).sum::<usize>();
            if got == before {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        (got, Instant::now())
    });
    let allocs_before = ALLOC.allocs();
    let start = Instant::now();
    for base in (0..n).step_by(K) {
        let chunk = (base..(base + K).min(n)).map(|i| hot_row(&hot, i as i64));
        server.push_batch("s", chunk.collect()).unwrap();
    }
    let (delivered, finished) = reaper.join().unwrap();
    let allocs = ALLOC.allocs() - allocs_before;
    server.shutdown().unwrap();
    let secs = finished.duration_since(start).as_secs_f64().max(1e-9);
    let per = delivered.max(1) as f64;
    (delivered as f64 / secs, delivered, allocs as f64 / per)
}

/// Nanoseconds per evaluation of the 13-factor predicate, (kernel,
/// interpreter), over `n` joined tuples evaluated `passes` times each.
fn predicate_ab(n: usize, passes: usize) -> (f64, f64) {
    let joined = Schema::concat(&schema(Some("s"), true), &schema(Some("d"), false)).into_ref();
    let bound = conjoin(factors()).bind(&joined).unwrap();
    let kernel = Kernel::compile(&bound).expect("the 13-factor predicate compiles");
    let tuples: Vec<Tuple> = (0..n as i64)
        .map(|i| {
            let k = i % DIM_ROWS;
            let values = vec![k.into(), (V_OFFSET + i).into(), k.into(), (k * 10).into()];
            Tuple::new(joined.clone(), values, Timestamp::logical(i + 1)).unwrap()
        })
        .collect();
    let time = |eval: &dyn Fn(&Tuple) -> bool| {
        let start = Instant::now();
        let mut hits = 0;
        for _ in 0..passes {
            hits += tuples.iter().filter(|t| eval(black_box(t))).count();
        }
        assert_eq!(hits, n * passes, "every factor holds by construction");
        start.elapsed().as_nanos() as f64 / (n * passes) as f64
    };
    (
        time(&|t| kernel.eval_pred(t).unwrap()),
        time(&|t| bound.eval_pred(t).unwrap()),
    )
}

/// The dedicated eddy the server plans for [`QUERY`]: a SteM per source
/// probed by the other's join key, a select per source, and the band
/// select over joined tuples. (No window eviction: at these sizes no
/// tuple leaves either window.)
fn build_eddy() -> Eddy {
    let (s, d) = (schema(Some("s"), true), schema(Some("d"), false));
    let config = EddyConfig {
        batch_size: K,
        seed: ServerConfig::default().seed,
    };
    let mut eddy = Eddy::new(&["s", "d"], Box::new(LotteryPolicy::new()), config).unwrap();
    let (sb, db) = (eddy.source_bit("s").unwrap(), eddy.source_bit("d").unwrap());
    // Each SteM stores its source keyed on column 0 and is probed by the
    // partner's join column.
    for (alias, schema, partner_alias, partner_key, bit, partner) in
        [("s", &s, "d", "id", sb, db), ("d", &d, "s", "k", db, sb)]
    {
        let probe = (Some(partner_alias.to_string()), partner_key.to_string());
        let stem = StemOp::new(
            format!("SteM({alias})"),
            schema.clone(),
            alias,
            0,
            probe,
            IndexKind::Hash,
        );
        eddy.add_module(ModuleSpec::stem(Box::new(stem.unwrap()), bit, partner))
            .unwrap();
    }
    let owned_by = |f: &Expr, q: &str| f.columns().iter().all(|(fq, _)| *fq == Some(q));
    let fs = factors();
    let joined = Schema::concat(&s, &d).into_ref();
    for (name, schema, bits, owner) in [
        ("sel(s)", &s, sb, Some("s")),
        ("sel(d)", &d, db, Some("d")),
        ("band0", &joined, sb | db, None),
    ] {
        let mine = fs.iter().filter(|f| match owner {
            Some(q) => owned_by(f, q),
            None => !owned_by(f, "s") && !owned_by(f, "d"),
        });
        let op = SelectOp::new(name, &conjoin(mine.cloned()), schema).unwrap();
        eddy.add_module(ModuleSpec::filter(Box::new(op), bits))
            .unwrap();
    }
    eddy
}

/// `n` hot tuples, K per call, through a fresh [`build_eddy`] on one
/// path, projecting every output; only eddy calls and projection are
/// timed. Returns (tuples/sec, allocs/tuple, (rows out, sum of `s.v`)).
fn eddy_run(n: usize, columnar: bool) -> (f64, f64, (usize, i64)) {
    let mut eddy = build_eddy();
    let mut project = LazyProject::new(vec![
        (Expr::qcol("s", "v"), None),
        (Expr::qcol("d", "tag"), None),
    ]);
    let (mut rows, mut runs) = (Vec::new(), Vec::new());
    let mut sum = (0usize, 0i64);
    let mut feed = |eddy: &mut Eddy, batch: Vec<Tuple>| {
        let mut tally = |v: &tcq_common::Value| {
            sum = (sum.0 + 1, sum.1.wrapping_add(v.as_int().unwrap()));
        };
        if columnar {
            eddy.process_batch_columnar(batch, &mut runs).unwrap();
            for e in runs.drain(..) {
                match e {
                    Emitted::Columns(b) => {
                        let out = project.apply_columnar(&b).unwrap().unwrap();
                        (0..out.len()).for_each(|r| tally(&out.column(0).value(r)));
                    }
                    Emitted::Rows(rs) => rs
                        .iter()
                        .for_each(|t| tally(project.apply(t).unwrap().value(0))),
                }
            }
        } else {
            eddy.process_batch(batch, &mut rows).unwrap();
            for t in rows.drain(..) {
                tally(project.apply(&t).unwrap().value(0));
            }
        }
    };
    feed(&mut eddy, dim_rows(&schema(Some("d"), false)));
    let hot = schema(Some("s"), true);
    let batches: Vec<Vec<Tuple>> = (0..n)
        .step_by(K)
        .map(|base| {
            (base..(base + K).min(n))
                .map(|i| hot_row(&hot, i as i64))
                .collect()
        })
        .collect();
    let allocs_before = ALLOC.allocs();
    let start = Instant::now();
    for batch in batches {
        feed(&mut eddy, batch);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let allocs = (ALLOC.allocs() - allocs_before) as f64 / n as f64;
    (n as f64 / secs, allocs, sum)
}

/// Best of `runs` for `f` by its first component, which is higher-better.
fn best<T>(runs: usize, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    (0..runs)
        .map(|_| f())
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Best-of-3 everywhere, smoke included: one short pass on a busy
    // small box is inside scheduler noise, and a tripwire that flakes
    // trains people to ignore it.
    let runs = 3;
    let (n, eddy_n, pred_n, passes) = if smoke {
        (8_000, 50_000, 20_000, 10)
    } else {
        (200_000, 200_000, 50_000, 40)
    };
    println!("E-kernels — 13-factor select-project-join, K = {K}\n");

    let (tps, (delivered, allocs)) = best(runs, || {
        let (tps, delivered, allocs) = run_server(n);
        (tps, (delivered, allocs))
    });
    assert_eq!(delivered, n, "every admitted tuple must be delivered");
    println!("  end to end (columnar): {tps:.0} tuples/s, {delivered}/{n} delivered, {allocs:.1} allocs/tuple");

    // Interleaved so ambient load hits both sides evenly; min time wins.
    let (mut kernel_ns, mut interp_ns) = (f64::MAX, f64::MAX);
    for _ in 0..runs {
        let (k, i) = predicate_ab(pred_n, passes);
        (kernel_ns, interp_ns) = (kernel_ns.min(k), interp_ns.min(i));
    }
    let kernel_speedup = interp_ns / kernel_ns;
    println!(
        "  predicate ({} evals): kernel {kernel_ns:.1} ns, interpreter {interp_ns:.1} ns — {kernel_speedup:.2}x",
        pred_n * passes
    );

    let (mut row, mut col) = ((0.0, 0.0, (0, 0)), (0.0, 0.0, (0, 0)));
    for _ in 0..runs {
        for (slot, columnar) in [(&mut row, false), (&mut col, true)] {
            let o = eddy_run(eddy_n, columnar);
            if o.0 > slot.0 {
                *slot = o;
            }
        }
    }
    assert_eq!(
        row.2, col.2,
        "row and columnar eddies must emit the same rows"
    );
    assert_eq!(
        row.2 .0, eddy_n,
        "one output per hot tuple, by construction"
    );
    let col_speedup = col.0 / row.0;
    println!(
        "  eddy ({eddy_n} tuples): row {:.0} tuples/s at {:.1} allocs/tuple, columnar {:.0} tuples/s at {:.1} — {col_speedup:.2}x",
        row.0, row.1, col.0, col.1
    );

    if !smoke {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let json = format!(
            "{{\n  \"bench\": \"kernels\",\n  \"cores\": {cores},\n  \"k\": {K},\n  \
             \"end_to_end\": {{\"path\": \"columnar\", \"tuples\": {n}, \"tuples_per_sec\": {tps:.1}, \
             \"delivered\": {delivered}, \"allocs_per_tuple\": {allocs:.1}}},\n  \
             \"predicate\": {{\"factors\": 13, \"evals\": {}, \"kernel_ns\": {kernel_ns:.1}, \
             \"interpreted_ns\": {interp_ns:.1}, \"speedup\": {kernel_speedup:.2}}},\n  \
             \"eddy\": {{\"tuples\": {eddy_n}, \"row_tuples_per_sec\": {:.1}, \"row_allocs_per_tuple\": {:.1}, \
             \"columnar_tuples_per_sec\": {:.1}, \"columnar_allocs_per_tuple\": {:.1}, \
             \"speedup\": {col_speedup:.2}}}\n}}\n",
            pred_n * passes,
            row.0,
            row.1,
            col.0,
            col.1
        );
        std::fs::write("BENCH_kernels.json", json).unwrap();
        println!("  wrote BENCH_kernels.json");
    }

    let failures: Vec<String> = [
        (kernel_speedup < KERNEL_SPEEDUP_FLOOR).then(|| {
            format!("kernel {kernel_speedup:.2}x the interpreter, floor {KERNEL_SPEEDUP_FLOOR}x")
        }),
        (col_speedup < COLUMNAR_SPEEDUP_FLOOR).then(|| {
            format!("columnar eddy {col_speedup:.2}x the row eddy, floor {COLUMNAR_SPEEDUP_FLOOR}x")
        }),
        (row.1 > ROW_ALLOC_BUDGET).then(|| {
            format!(
                "row eddy {:.1} allocs/tuple, budget {ROW_ALLOC_BUDGET}",
                row.1
            )
        }),
        (allocs > COLUMNAR_ALLOC_BUDGET).then(|| {
            format!("columnar pipeline {allocs:.1} allocs/tuple, budget {COLUMNAR_ALLOC_BUDGET}")
        }),
    ]
    .into_iter()
    .flatten()
    .collect();
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!(
        "\n  shape check: compiled kernels and columnar batches outrun tree-walking\n\
         \x20 and row-at-a-time processing inside a bounded allocs-per-tuple budget.\n"
    );
}
