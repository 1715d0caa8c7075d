//! The Query SteM (PSoup, §3.2).
//!
//! > "It does this by indexing queries into a query SteM, which can be
//! > thought of as a generalization of the notion of a grouped filter."
//!
//! A [`QueryStem`] stores the SELECT-FROM-WHERE predicates of standing
//! queries over one stream schema. Probing a tuple returns the exact set of
//! satisfied query ids. To keep per-tuple cost sublinear in the number of
//! registered queries, queries are split into three tiers at registration:
//!
//! * **Anchored** — any query with at least one equality factor. Its first
//!   `col = const` factor becomes a hash *anchor* (`column → constant →
//!   candidate list`); a probe touches only the candidates in the probed
//!   value's bucket and verifies their remaining single-column factors
//!   directly. Cost is O(bucket), independent of the total query count.
//! * **Scan** — queries with only range/inequality factors. Their factors go
//!   into per-column [`GroupedFilter`]s; a probe unions satisfied factors
//!   and counts them per owning query (generation-stamped counters, no
//!   per-probe reset), accepting queries whose every factor was satisfied.
//!   Cost is O(satisfied factors), not O(registered queries).
//! * **Unindexed** — no single-column factor at all (match-all or pure
//!   residual); always candidates.
//!
//! Conjuncts that are not single-column factors become *residual* predicates
//! evaluated only for candidates that survived their tier. The probe path
//! allocates nothing: all per-probe state lives in a caller-supplied
//! [`MatchScratch`] ([`QueryStem::matching_into`]).

use std::collections::HashMap;

use tcq_common::{BitSet, CmpOp, Expr, Predicate, Result, SchemaRef, TcqError, Tuple, Value};

use crate::grouped_filter::{FactorId, GroupedFilter};

/// Identifies a standing query in a [`QueryStem`].
pub type QueryId = usize;

struct QueryEntry {
    /// Factor ids this query owns in the scan-tier grouped filters.
    factors: Vec<FactorId>,
    /// Residual conjuncts not indexable by grouped filters, each lowered
    /// to a [`Predicate`] (compiled kernel when the shape allows it).
    residual: Vec<Predicate>,
    /// Anchored tier: the `(column, constant)` equality this query is
    /// bucketed under.
    anchor: Option<(usize, Value)>,
    /// Anchored tier: remaining single-column factors, verified per
    /// candidate with SQL comparison semantics.
    verify: Vec<(usize, CmpOp, Value)>,
}

/// Reusable per-probe state for [`QueryStem::matching_into`]. Keeping it
/// outside the stem lets one allocation-free scratch serve every probe of a
/// pipeline; after warm-up no probe allocates.
#[derive(Default)]
pub struct MatchScratch {
    /// Satisfied-factor set, reused across per-column filter probes.
    satisfied: BitSet,
    /// Result set; only bits listed in `matched` are ever set.
    alive: BitSet,
    /// Matching query ids, sorted ascending after a successful probe.
    matched: Vec<QueryId>,
    /// Per-query satisfied scan-factor count, valid when stamped with `gen`.
    counts: Vec<u32>,
    stamps: Vec<u64>,
    gen: u64,
    /// Scan-tier queries touched by the current probe.
    touched: Vec<QueryId>,
}

impl MatchScratch {
    /// A fresh, empty scratch; grows to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The queries matched by the last probe, ascending.
    pub fn matches(&self) -> &[QueryId] {
        &self.matched
    }

    /// The matched set of the last probe as a bitset.
    pub fn alive(&self) -> &BitSet {
        &self.alive
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.satisfied.approx_bytes()
            + self.alive.approx_bytes()
            + self.matched.capacity() * std::mem::size_of::<QueryId>()
            + self.counts.capacity() * std::mem::size_of::<u32>()
            + self.stamps.capacity() * std::mem::size_of::<u64>()
            + self.touched.capacity() * std::mem::size_of::<QueryId>()
    }

    /// Clear the previous probe's result in O(|matches|) — the alive bitset
    /// is never swept whole, so probe cost does not pick up an O(queries/64)
    /// memset as the registered population grows.
    fn begin(&mut self, qid_bound: usize) {
        for q in self.matched.drain(..) {
            self.alive.remove(q);
        }
        if self.counts.len() < qid_bound {
            self.counts.resize(qid_bound, 0);
            self.stamps.resize(qid_bound, 0);
        }
        self.gen += 1;
    }
}

/// An index over standing queries: probe with a tuple, get satisfied queries.
pub struct QueryStem {
    schema: SchemaRef,
    /// Scan tier: one grouped filter per referenced column.
    filters: HashMap<usize, GroupedFilter>,
    /// factor id -> owning query (scan tier only).
    factor_owner: Vec<QueryId>,
    /// factor id -> column, so removal touches exactly one filter.
    factor_col: Vec<usize>,
    /// Recycled factor ids.
    free_factors: Vec<FactorId>,
    /// Anchored tier: column -> constant -> candidate queries.
    anchors: HashMap<usize, HashMap<Value, Vec<QueryId>>>,
    /// Scan tier: per-query total indexed factor count (dense by query id).
    scan_total: Vec<u32>,
    /// Queries with no single-column factor (always candidates).
    unindexed: BitSet,
    queries: HashMap<QueryId, QueryEntry>,
    all_queries: BitSet,
    /// Queries with at least one residual conjunct.
    has_residual: BitSet,
    /// One past the highest query id ever registered.
    qid_bound: usize,
}

impl QueryStem {
    /// An empty query SteM over tuples of `schema`, with residual
    /// predicates compiled to kernels where possible.
    pub fn new(schema: SchemaRef) -> Self {
        QueryStem {
            schema,
            filters: HashMap::new(),
            factor_owner: Vec::new(),
            factor_col: Vec::new(),
            free_factors: Vec::new(),
            anchors: HashMap::new(),
            scan_total: Vec::new(),
            unindexed: BitSet::new(),
            queries: HashMap::new(),
            all_queries: BitSet::new(),
            has_residual: BitSet::new(),
            qid_bound: 0,
        }
    }

    /// The stream schema queries are registered against.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Register query `id` with predicate `pred` (`None` = no WHERE clause,
    /// matches everything). Errors if `id` is taken or the predicate does
    /// not bind against the schema.
    pub fn insert_query(&mut self, id: QueryId, pred: Option<&Expr>) -> Result<()> {
        if self.queries.contains_key(&id) {
            return Err(TcqError::Capacity(format!("query {id} already registered")));
        }
        // Decompose fully (and fallibly) before registering anything, so a
        // bad predicate leaves the stem untouched.
        let mut single: Vec<(usize, CmpOp, Value)> = Vec::new();
        let mut residual = Vec::new();
        if let Some(pred) = pred {
            for factor in pred.conjuncts() {
                match factor.as_single_column_factor() {
                    Some((qual, name, op, constant)) if !constant.is_null() => {
                        let col = self.schema.index_of(qual, name)?;
                        single.push((col, op, constant.clone()));
                    }
                    _ => {
                        residual.push(Predicate::new(factor, &self.schema)?);
                    }
                }
            }
        }
        let mut entry = QueryEntry {
            factors: Vec::new(),
            residual,
            anchor: None,
            verify: Vec::new(),
        };
        if let Some(pos) = single.iter().position(|(_, op, _)| *op == CmpOp::Eq) {
            // Anchored: bucket under the first equality, verify the rest
            // per candidate.
            let (col, _, constant) = single.remove(pos);
            self.anchors
                .entry(col)
                .or_default()
                .entry(constant.clone())
                .or_default()
                .push(id);
            entry.anchor = Some((col, constant));
            entry.verify = single;
        } else if !single.is_empty() {
            // Scan tier: factors into the per-column grouped filters.
            for (col, op, constant) in single {
                let fid = self.alloc_factor(id, col);
                self.filters
                    .entry(col)
                    .or_default()
                    .insert(fid, op, constant)
                    .expect("fresh factor id cannot collide");
                entry.factors.push(fid);
            }
            if id >= self.scan_total.len() {
                self.scan_total.resize(id + 1, 0);
            }
            self.scan_total[id] = entry.factors.len() as u32;
        } else {
            self.unindexed.insert(id);
        }
        if !entry.residual.is_empty() {
            self.has_residual.insert(id);
        }
        self.queries.insert(id, entry);
        self.all_queries.insert(id);
        self.qid_bound = self.qid_bound.max(id + 1);
        Ok(())
    }

    /// Remove query `id`; errors if unknown. O(own factors + own bucket),
    /// not O(registered queries).
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let entry = self
            .queries
            .remove(&id)
            .ok_or_else(|| TcqError::Executor(format!("query {id} not registered")))?;
        for fid in entry.factors {
            let col = self.factor_col[fid];
            if let Some(filter) = self.filters.get_mut(&col) {
                filter.remove(fid);
                if filter.is_empty() {
                    self.filters.remove(&col);
                }
            }
            self.free_factors.push(fid);
        }
        if let Some((col, constant)) = entry.anchor {
            if let Some(buckets) = self.anchors.get_mut(&col) {
                if let Some(cands) = buckets.get_mut(&constant) {
                    cands.retain(|&q| q != id);
                    if cands.is_empty() {
                        buckets.remove(&constant);
                    }
                }
                if buckets.is_empty() {
                    self.anchors.remove(&col);
                }
            }
        }
        if id < self.scan_total.len() {
            self.scan_total[id] = 0;
        }
        self.unindexed.remove(id);
        self.all_queries.remove(id);
        self.has_residual.remove(id);
        Ok(())
    }

    /// Number of standing queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no query is registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Probe: the exact set of queries `tuple` satisfies, into a fresh set.
    ///
    /// Convenience wrapper over [`QueryStem::matching_into`]; allocates a
    /// scratch per call. Hot paths should hold a [`MatchScratch`] instead.
    pub fn matching(&self, tuple: &Tuple) -> Result<BitSet> {
        let mut scratch = MatchScratch::new();
        self.matching_into(tuple, &mut scratch)?;
        Ok(scratch.alive.clone())
    }

    /// Probe with caller-supplied scratch: after the call,
    /// [`MatchScratch::matches`] / [`MatchScratch::alive`] hold the exact
    /// satisfied query set. Allocation-free once the scratch is warm.
    pub fn matching_into(&self, tuple: &Tuple, scratch: &mut MatchScratch) -> Result<()> {
        scratch.begin(self.qid_bound);
        let MatchScratch {
            satisfied,
            alive,
            matched,
            counts,
            stamps,
            gen,
            touched,
        } = scratch;
        // Scan tier: count satisfied factors per owning query.
        for (&col, filter) in &self.filters {
            satisfied.clear();
            filter.eval(tuple.value(col), satisfied);
            for fid in satisfied.iter() {
                let q = self.factor_owner[fid];
                if stamps[q] != *gen {
                    stamps[q] = *gen;
                    counts[q] = 1;
                    touched.push(q);
                } else {
                    counts[q] += 1;
                }
            }
        }
        for &q in touched.iter() {
            if counts[q] == self.scan_total[q] {
                alive.insert(q);
                matched.push(q);
            }
        }
        touched.clear();
        // Anchored tier: only the probed value's bucket is examined.
        for (&col, buckets) in &self.anchors {
            let v = tuple.value(col);
            if v.is_null() {
                continue;
            }
            let Some(cands) = buckets.get(v) else {
                continue;
            };
            'cand: for &q in cands {
                let entry = &self.queries[&q];
                for (c, op, constant) in &entry.verify {
                    match tuple.value(*c).sql_cmp(constant)? {
                        Some(ord) if op.matches(ord) => {}
                        _ => continue 'cand,
                    }
                }
                alive.insert(q);
                matched.push(q);
            }
        }
        // Unindexed queries are always candidates.
        for q in self.unindexed.iter() {
            alive.insert(q);
            matched.push(q);
        }
        // Residuals run only for candidates that survived their tier.
        if self.has_residual.intersects(alive) {
            for &q in matched.iter() {
                if !self.has_residual.contains(q) {
                    continue;
                }
                for pred in &self.queries[&q].residual {
                    if !pred.eval_pred(tuple)? {
                        alive.remove(q);
                        break;
                    }
                }
            }
            matched.retain(|&q| alive.contains(q));
        }
        matched.sort_unstable();
        Ok(())
    }

    /// Approximate heap footprint of the stem's index structures in bytes.
    pub fn approx_bytes(&self) -> usize {
        let mut b = 0usize;
        for f in self.filters.values() {
            b += f.approx_bytes();
        }
        b += self.filters.capacity() * std::mem::size_of::<(usize, GroupedFilter)>();
        b += self.factor_owner.capacity() * std::mem::size_of::<QueryId>();
        b += self.factor_col.capacity() * std::mem::size_of::<usize>();
        b += self.free_factors.capacity() * std::mem::size_of::<FactorId>();
        b += self.scan_total.capacity() * std::mem::size_of::<u32>();
        b += self.unindexed.approx_bytes()
            + self.all_queries.approx_bytes()
            + self.has_residual.approx_bytes();
        for buckets in self.anchors.values() {
            b += buckets.capacity() * std::mem::size_of::<(Value, Vec<QueryId>)>();
            for (k, cands) in buckets {
                b += k.approx_bytes() + cands.capacity() * std::mem::size_of::<QueryId>();
            }
        }
        b += self.queries.capacity() * std::mem::size_of::<(QueryId, QueryEntry)>();
        for e in self.queries.values() {
            b += e.factors.capacity() * std::mem::size_of::<FactorId>();
            b += e.residual.capacity() * std::mem::size_of::<Predicate>();
            b += e.verify.capacity() * std::mem::size_of::<(usize, CmpOp, Value)>();
            for (_, _, v) in &e.verify {
                if let Value::Str(s) = v {
                    b += s.len();
                }
            }
            if let Some((_, Value::Str(s))) = &e.anchor {
                b += s.len();
            }
        }
        b
    }

    fn alloc_factor(&mut self, owner: QueryId, col: usize) -> FactorId {
        match self.free_factors.pop() {
            Some(fid) => {
                self.factor_owner[fid] = owner;
                self.factor_col[fid] = col;
                fid
            }
            None => {
                self.factor_owner.push(owner);
                self.factor_col.push(col);
                self.factor_owner.len() - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{CmpOp, DataType, Field, Schema, Timestamp, TupleBuilder, Value};

    fn schema() -> SchemaRef {
        Schema::qualified(
            "ClosingStockPrices",
            vec![
                Field::new("timestamp", DataType::Int),
                Field::new("stockSymbol", DataType::Str),
                Field::new("closingPrice", DataType::Float),
            ],
        )
        .into_ref()
    }

    fn tick(ts: i64, sym: &str, price: f64) -> Tuple {
        TupleBuilder::new(schema())
            .push(ts)
            .push(sym)
            .push(price)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    fn msft_over(price: f64) -> Expr {
        Expr::col("stockSymbol")
            .cmp(CmpOp::Eq, Expr::lit("MSFT"))
            .and(Expr::col("closingPrice").cmp(CmpOp::Gt, Expr::lit(price)))
    }

    #[test]
    fn multi_query_matching() {
        let mut qs = QueryStem::new(schema());
        qs.insert_query(0, Some(&msft_over(50.0))).unwrap();
        qs.insert_query(1, Some(&msft_over(60.0))).unwrap();
        qs.insert_query(
            2,
            Some(&Expr::col("stockSymbol").cmp(CmpOp::Eq, Expr::lit("IBM"))),
        )
        .unwrap();
        qs.insert_query(3, None).unwrap(); // match-all

        let m = qs.matching(&tick(1, "MSFT", 55.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 3]);
        let m = qs.matching(&tick(2, "MSFT", 65.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        let m = qs.matching(&tick(3, "IBM", 10.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn two_factors_on_same_column_both_required() {
        // price > 10 AND price < 20: both factors land in the same grouped
        // filter; the query must match only when BOTH hold.
        let mut qs = QueryStem::new(schema());
        let pred = Expr::col("closingPrice")
            .cmp(CmpOp::Gt, Expr::lit(10.0))
            .and(Expr::col("closingPrice").cmp(CmpOp::Lt, Expr::lit(20.0)));
        qs.insert_query(0, Some(&pred)).unwrap();
        assert!(qs.matching(&tick(1, "X", 15.0)).unwrap().contains(0));
        assert!(!qs.matching(&tick(1, "X", 25.0)).unwrap().contains(0));
        assert!(!qs.matching(&tick(1, "X", 5.0)).unwrap().contains(0));
    }

    #[test]
    fn residual_predicates_evaluated_for_survivors() {
        let mut qs = QueryStem::new(schema());
        // timestamp * 2 > closingPrice is not single-column -> residual.
        let residual = Expr::Arith {
            op: tcq_common::ArithOp::Mul,
            lhs: Box::new(Expr::col("timestamp")),
            rhs: Box::new(Expr::lit(2i64)),
        }
        .cmp(CmpOp::Gt, Expr::col("closingPrice"));
        let pred = Expr::col("stockSymbol")
            .cmp(CmpOp::Eq, Expr::lit("MSFT"))
            .and(residual);
        qs.insert_query(0, Some(&pred)).unwrap();
        assert!(qs.matching(&tick(100, "MSFT", 150.0)).unwrap().contains(0));
        assert!(!qs.matching(&tick(10, "MSFT", 150.0)).unwrap().contains(0));
        // indexed factor fails -> residual never matters
        assert!(!qs.matching(&tick(100, "IBM", 150.0)).unwrap().contains(0));
    }

    #[test]
    fn remove_query_and_id_reuse() {
        let mut qs = QueryStem::new(schema());
        qs.insert_query(0, Some(&msft_over(50.0))).unwrap();
        qs.insert_query(1, Some(&msft_over(10.0))).unwrap();
        qs.remove_query(0).unwrap();
        assert_eq!(qs.len(), 1);
        let m = qs.matching(&tick(1, "MSFT", 60.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1]);
        // Re-register id 0 with a different predicate; recycled factor ids
        // must not leak old ownership.
        qs.insert_query(
            0,
            Some(&Expr::col("stockSymbol").cmp(CmpOp::Eq, Expr::lit("ORCL"))),
        )
        .unwrap();
        let m = qs.matching(&tick(1, "ORCL", 60.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0]);
        assert!(qs.remove_query(7).is_err());
    }

    #[test]
    fn scan_tier_remove_and_factor_id_reuse() {
        // Range-only queries live in the scan tier; removing one and
        // re-registering its id must recycle factor ids without leaking
        // ownership or stale satisfied counts.
        let mut qs = QueryStem::new(schema());
        let band = |lo: f64, hi: f64| {
            Expr::col("closingPrice")
                .cmp(CmpOp::Ge, Expr::lit(lo))
                .and(Expr::col("closingPrice").cmp(CmpOp::Le, Expr::lit(hi)))
        };
        qs.insert_query(0, Some(&band(0.0, 10.0))).unwrap();
        qs.insert_query(1, Some(&band(5.0, 15.0))).unwrap();
        qs.remove_query(0).unwrap();
        qs.insert_query(0, Some(&band(100.0, 110.0))).unwrap();
        let m = qs.matching(&tick(1, "X", 7.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1]);
        let m = qs.matching(&tick(1, "X", 105.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn duplicate_query_id_rejected() {
        let mut qs = QueryStem::new(schema());
        qs.insert_query(0, None).unwrap();
        assert!(qs.insert_query(0, None).is_err());
    }

    #[test]
    fn unknown_column_in_predicate_rejected() {
        let mut qs = QueryStem::new(schema());
        let pred = Expr::col("volume").cmp(CmpOp::Gt, Expr::lit(0i64));
        assert!(qs.insert_query(0, Some(&pred)).is_err());
    }

    #[test]
    fn null_attribute_kills_indexed_queries() {
        let s = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        let mut qs = QueryStem::new(s.clone());
        qs.insert_query(0, Some(&Expr::col("x").cmp(CmpOp::Ne, Expr::lit(5i64))))
            .unwrap();
        qs.insert_query(1, None).unwrap();
        let t = Tuple::new(s, vec![Value::Null], Timestamp::unknown()).unwrap();
        let m = qs.matching(&t).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn null_attribute_kills_anchored_queries() {
        let s = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("y", DataType::Int),
        ])
        .into_ref();
        let mut qs = QueryStem::new(s.clone());
        // Anchored on x, verified on y — a NULL in either column kills it.
        let pred = Expr::col("x")
            .cmp(CmpOp::Eq, Expr::lit(1i64))
            .and(Expr::col("y").cmp(CmpOp::Gt, Expr::lit(0i64)));
        qs.insert_query(0, Some(&pred)).unwrap();
        let t = |x: Value, y: Value| Tuple::new(s.clone(), vec![x, y], Timestamp::unknown());
        assert!(qs
            .matching(&t(Value::Int(1), Value::Int(5)).unwrap())
            .unwrap()
            .contains(0));
        assert!(!qs
            .matching(&t(Value::Null, Value::Int(5)).unwrap())
            .unwrap()
            .contains(0));
        assert!(!qs
            .matching(&t(Value::Int(1), Value::Null).unwrap())
            .unwrap()
            .contains(0));
    }

    #[test]
    fn compiled_residuals_agree_with_naive_evaluation() {
        // Column-vs-column residuals compile to kernels; every probe must
        // return exactly the queries whose whole predicate the tree-walking
        // interpreter accepts.
        let mut qs = QueryStem::new(schema());
        let residual = Expr::col("timestamp").cmp(CmpOp::Gt, Expr::col("closingPrice"));
        let pred = Expr::col("stockSymbol")
            .cmp(CmpOp::Eq, Expr::lit("MSFT"))
            .and(residual);
        let preds = [pred, msft_over(50.0)];
        let mut bound = Vec::new();
        for (id, p) in preds.iter().enumerate() {
            qs.insert_query(id, Some(p)).unwrap();
            bound.push(p.bind(&schema()).unwrap());
        }
        let mut rng = tcq_common::rng::seeded(0x51D5);
        for i in 0..200 {
            let sym = ["MSFT", "IBM"][rng.gen_range(0..2usize)];
            let t = tick(i, sym, rng.gen_range(0.0..200.0));
            let naive: BitSet = bound
                .iter()
                .enumerate()
                .filter(|(_, p)| p.eval_pred(&t).unwrap())
                .map(|(id, _)| id)
                .collect();
            assert_eq!(qs.matching(&t).unwrap(), naive, "divergence on {t:?}");
        }
    }

    #[test]
    fn agrees_with_naive_evaluation_randomized() {
        let mut rng = tcq_common::rng::seeded(0xBEEF);
        let mut qs = QueryStem::new(schema());
        let mut preds = Vec::new();
        let syms = ["MSFT", "IBM", "ORCL"];
        for id in 0..64 {
            let sym = syms[rng.gen_range(0..3usize)];
            let lo = rng.gen_range(0.0..50.0);
            let hi = lo + rng.gen_range(0.0..50.0);
            let pred = Expr::col("stockSymbol")
                .cmp(CmpOp::Eq, Expr::lit(sym))
                .and(Expr::col("closingPrice").cmp(CmpOp::Ge, Expr::lit(lo)))
                .and(Expr::col("closingPrice").cmp(CmpOp::Le, Expr::lit(hi)));
            qs.insert_query(id, Some(&pred)).unwrap();
            preds.push(pred.bind(&schema()).unwrap());
        }
        for i in 0..500 {
            let t = tick(i, syms[rng.gen_range(0..3usize)], rng.gen_range(0.0..100.0));
            let fast = qs.matching(&t).unwrap();
            let slow: BitSet = preds
                .iter()
                .enumerate()
                .filter(|(_, p)| p.eval_pred(&t).unwrap())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, slow, "mismatch on tuple {t:?}");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_probes() {
        let mut rng = tcq_common::rng::seeded(0x5C1A);
        let mut qs = QueryStem::new(schema());
        let syms = ["MSFT", "IBM", "ORCL"];
        for id in 0..32 {
            let pred = if id % 3 == 0 {
                msft_over(rng.gen_range(0.0..100.0))
            } else {
                Expr::col("closingPrice").cmp(CmpOp::Gt, Expr::lit(rng.gen_range(0.0..100.0)))
            };
            qs.insert_query(id, Some(&pred)).unwrap();
        }
        let mut scratch = MatchScratch::new();
        for i in 0..200 {
            let t = tick(i, syms[rng.gen_range(0..3usize)], rng.gen_range(0.0..120.0));
            qs.matching_into(&t, &mut scratch).unwrap();
            let fresh = qs.matching(&t).unwrap();
            assert_eq!(*scratch.alive(), fresh, "scratch diverged on probe {i}");
            assert_eq!(
                scratch.matches().to_vec(),
                fresh.iter().collect::<Vec<_>>(),
                "matches() must be the sorted matched set"
            );
        }
    }

    #[test]
    fn approx_bytes_grows_with_registration() {
        let mut qs = QueryStem::new(schema());
        let empty = qs.approx_bytes();
        for id in 0..256 {
            qs.insert_query(id, Some(&msft_over(id as f64))).unwrap();
        }
        let full = qs.approx_bytes();
        assert!(
            full > empty + 256 * 8,
            "memory accounting must track registrations: {empty} -> {full}"
        );
    }
}
