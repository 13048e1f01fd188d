//! What `verdict-bench` measures: kernel-vs-reference pairs
//! ([`scalar_vs_vectorized_rows`], [`parallel_rows`], [`dispatch_rows`]) and
//! the progressive-stream timings ([`progressive_stream`]).
//!
//! Every number the gate holds is a ratio of two timings taken in the same
//! process, the two sides alternating within every repetition
//! (`time_pairs`): a ratio survives the machine being busier or
//! slower than on the day the snapshot was written, seconds do not.
//!
//! The scalar paths materialise every cell as a dynamically-typed `Value`
//! with per-cell enum dispatch — the exact shape of the engine before the
//! typed-columnar refactor.  The vectorized paths are the packed-mask /
//! dictionary-key / hash-clustering kernels the engine runs today.

use crate::scalar_assemble::{
    scalar_assemble, synthetic_results, synthetic_rewrite, KeyKind, ResultShape,
};
use std::sync::Arc;
use std::time::Instant;
use verdict_core::answer::{assemble, AssembledAnswer};
use verdict_core::rewrite::RewriteOutput;
use verdict_core::{Route, VerdictConfig, VerdictContext, VerdictSession};
use verdict_engine::approx::HyperLogLog;
use verdict_engine::exec::from_clause;
use verdict_engine::kernels::{self, group_rows_with};
use verdict_engine::{
    Backend, Column, ColumnData, Engine, SelVec, Table, TableBuilder, ThreadPool, Value,
};
use verdict_sql::ast::{BinaryOp, JoinType};

/// Rows per benchmarked column.
pub const ROWS: usize = 1_000_000;
/// Repetitions per timing (the median is reported).
pub const REPS: usize = 7;

/// Wall-clock seconds of one call of `f`.
fn secs<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(out);
    dt
}

/// The median of `times`.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One side of a timed pair: each call runs it once and returns its seconds.
type Timed<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// `f` as one side of a timed pair.
fn timed<'a, T>(mut f: impl FnMut() -> T + 'a) -> Timed<'a> {
    Box::new(move || secs(&mut f))
}

/// Times every `(name, reference, kernel)` pair [`REPS`] times and returns
/// each side's median.  Each repetition calls both sides of every pair in
/// turn, so the two sides of a pair see the same stretch of machine load,
/// and a burst of load on a shared machine lands in one repetition of many
/// rows instead of in every repetition of one row.
fn time_pairs(mut pairs: Vec<(&'static str, Timed, Timed)>) -> Vec<KernelRow> {
    let mut times = vec![(Vec::new(), Vec::new()); pairs.len()];
    for _ in 0..REPS {
        for ((_, reference, kernel), (r, k)) in pairs.iter_mut().zip(&mut times) {
            r.push(reference());
            k.push(kernel());
        }
    }
    pairs
        .into_iter()
        .zip(times)
        .map(|((name, _, _), (r, k))| KernelRow {
            name,
            reference_secs: median(r),
            kernel_secs: median(k),
        })
        .collect()
}

/// Deterministic synthetic columns: a float "price" with ~1% NULLs and an
/// int "qty" with 7 distinct values, mimicking the shape of the Instacart
/// fact table.
pub fn synthetic_columns(n: usize) -> (Column, Column) {
    let mut price: Vec<Option<f64>> = Vec::with_capacity(n);
    let mut qty: Vec<i64> = Vec::with_capacity(n);
    let mut state = 0x5a5a5a5au64;
    for i in 0..n {
        // splitmix-style scramble, deterministic across runs
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        price.push(if z.is_multiple_of(100) {
            None
        } else {
            Some(1.5 + 30.0 * u)
        });
        qty.push((i % 7) as i64 + 1);
    }
    (Column::from_opt_f64(price), Column::from_i64(qty))
}

/// 16-distinct dense int keys: squarely inside the dictionary-grouping
/// window (a tiny min..max range, direct-indexed group codes).
pub fn keys_16(n: usize) -> Column {
    Column::from_i64((0..n as i64).map(|i| i % 16).collect())
}

/// ~n-distinct wide int keys: far beyond any dictionary, so the hash path
/// groups them.  No benchmark workload has this shape; the row is kept so
/// that a change adding one can tell whether a partitioned path would pay
/// (the deleted radix path ran it in 146 ms where hash then took 376 ms).
pub fn keys_distinct(n: usize) -> Column {
    Column::from_i64((0..n as i64).map(|i| i.wrapping_mul(104_729)).collect())
}

/// 20k-distinct int keys scattered over the rows: every 64K-row morsel sees
/// nearly every group, so a grouped sketch aggregate builds ~20k partial
/// states per morsel — the shape whose cost is per (morsel, group), not per
/// row.
pub fn keys_20k(n: usize) -> Column {
    Column::from_i64(
        (0..n as i64)
            .map(|i| i.wrapping_mul(2_654_435_761) % 20_000)
            .collect(),
    )
}

/// Build-side rows of the `join_dim_50k` row: one per distinct key, the
/// shape of a dimension table such as Instacart's `products`.
pub const JOIN_BUILD_ROWS: usize = 50_000;
/// Probe-side rows of the `join_dim_50k` row: a sampled fact table.
pub const JOIN_PROBE_ROWS: usize = 35_000;

/// The `join_dim_50k` inputs `(probe, build)`, each a `(k, id)` table
/// qualified `p` / `b`: build keys are `1..=JOIN_BUILD_ROWS` in scrambled
/// order, probe keys scattered over the same range, so every probe row
/// finds exactly one build row.
pub fn join_tables() -> (Table, Table) {
    let table = |alias: &str, keys: Vec<i64>| {
        let ids = (0..keys.len() as i64).collect();
        let t = TableBuilder::new()
            .int_column("k", keys)
            .int_column("id", ids)
            .build()
            .expect("join table");
        Table {
            schema: t.schema.with_qualifier(alias),
            columns: t.columns,
        }
    };
    let n = JOIN_BUILD_ROWS as i64;
    let build = (0..n).map(|i| 1 + i.wrapping_mul(7919) % n).collect();
    let probe = (0..JOIN_PROBE_ROWS as i64)
        .map(|i| 1 + i.wrapping_mul(2_654_435_761) % n)
        .collect();
    (table("p", probe), table("b", build))
}

/// Probe-side rows of the `join_where_dim` row: a sampled `lineitem`.
pub const WHERE_PROBE_ROWS: usize = 30_000;
/// Build-side rows of the `join_where_dim` row: a `part` dimension.
pub const WHERE_BUILD_ROWS: usize = 16_000;
/// The `join_where_dim` statement, tq-17's shape: a WHERE conjunct on each
/// side of the join, keeping 8% of `l` and 20% of `p`.
pub const JOIN_WHERE_SQL: &str = "SELECT * FROM l INNER JOIN p ON l.l_partkey = p.p_partkey \
     WHERE l.l_quantity < 5 AND p.p_container = 'MED BAG'";

/// The `join_where_dim` inputs `(l, p)`, qualified by their names in
/// [`JOIN_WHERE_SQL`]: `p_partkey` is `1..=WHERE_BUILD_ROWS` in scrambled
/// order, so every `l` row finds exactly one `p` row.
pub fn join_where_tables() -> (Table, Table) {
    let qualified = |alias: &str, t: Table| Table {
        schema: t.schema.with_qualifier(alias),
        columns: t.columns,
    };
    let n = WHERE_BUILD_ROWS as i64;
    let rows = 0..WHERE_PROBE_ROWS as i64;
    let lineitem = TableBuilder::new()
        .int_column(
            "l_partkey",
            rows.clone()
                .map(|i| 1 + i.wrapping_mul(2_654_435_761) % n)
                .collect(),
        )
        .int_column(
            "l_quantity",
            rows.clone().map(|i| 1 + i * 7919 % 50).collect(),
        )
        .float_column(
            "l_extendedprice",
            rows.clone().map(|i| (i % 9973) as f64 * 1.5).collect(),
        )
        .float_column(
            "l_discount",
            rows.map(|i| (i % 11) as f64 / 100.0).collect(),
        )
        .build()
        .expect("lineitem");
    const CONTAINERS: [&str; 5] = ["SM BOX", "MED BAG", "LG CASE", "JUMBO PKG", "WRAP JAR"];
    let part = TableBuilder::new()
        .int_column(
            "p_partkey",
            (0..n).map(|i| 1 + i.wrapping_mul(7919) % n).collect(),
        )
        .str_column(
            "p_container",
            (0..n)
                .map(|i| CONTAINERS[(i % 5) as usize].to_string())
                .collect(),
        )
        .str_column(
            "p_brand",
            (0..n).map(|i| format!("Brand#{}", i % 25)).collect(),
        )
        .build()
        .expect("part");
    (qualified("l", lineitem), qualified("p", part))
}

/// A wide scan input: a float selector column plus `width` float payload
/// columns, for the late-materialization scan benchmark.
pub fn scan_columns(n: usize, width: usize) -> (Column, Vec<Column>) {
    let (sel, _) = synthetic_columns(n);
    let payload = (0..width)
        .map(|c| Column::from_f64((0..n).map(|i| ((i * (c + 3)) % 1000) as f64).collect()))
        .collect();
    (sel, payload)
}

// ---------------------------------------------------------------------------
// Scalar reference paths.
// ---------------------------------------------------------------------------

/// Per-cell `Value` comparison into a `Vec<bool>` mask.
pub fn scalar_filter_mask(col: &Column, threshold: f64) -> Vec<bool> {
    let t = Value::Float(threshold);
    (0..col.len())
        .map(|i| {
            col.value_at(i)
                .sql_cmp(&t)
                .map(|o| o == std::cmp::Ordering::Greater)
                .unwrap_or(false)
        })
        .collect()
}

/// Per-cell `Value` sum/avg fold.
pub fn scalar_sum_avg(col: &Column) -> (f64, f64) {
    let mut sum = 0.0;
    let mut count = 0u64;
    for i in 0..col.len() {
        if let Some(x) = col.value_at(i).as_f64() {
            sum += x;
            count += 1;
        }
    }
    (sum, sum / count.max(1) as f64)
}

/// Per-cell `KeyValue`-hashed grouped sum.
pub fn scalar_grouped_sum(keys: &Column, values: &Column) -> Vec<(verdict_engine::KeyValue, f64)> {
    let mut map: std::collections::HashMap<verdict_engine::KeyValue, f64> =
        std::collections::HashMap::new();
    for i in 0..keys.len() {
        let k = verdict_engine::KeyValue::from_value(&keys.value_at(i));
        // The group exists even when this row's value is NULL — GROUP BY
        // semantics, and what the gid-indexed vectorized fold produces.
        let entry = map.entry(k).or_insert(0.0);
        if let Some(x) = values.value_at(i).as_f64() {
            *entry += x;
        }
    }
    map.into_iter().collect()
}

/// Per-cell `KeyValue`-hashed grouped `ndv`: one sketch per group, every
/// value boxed; returns the sum of the per-group estimates.
pub fn scalar_grouped_ndv(keys: &Column, values: &Column) -> i64 {
    let mut map: std::collections::HashMap<verdict_engine::KeyValue, HyperLogLog> =
        std::collections::HashMap::new();
    for i in 0..keys.len() {
        let k = verdict_engine::KeyValue::from_value(&keys.value_at(i));
        map.entry(k).or_default().add(&values.value_at(i));
    }
    map.values().map(|h| h.estimate().round() as i64).sum()
}

/// Per-cell `KeyValue`-hashed equi-join of the `k` columns: one `Vec` of
/// build rows per key, probed row by row; returns `(probe, build)` row
/// pairs in probe order, build rows ascending.
pub fn scalar_join_pairs(probe: &Table, build: &Table) -> Vec<(usize, usize)> {
    let mut index: std::collections::HashMap<verdict_engine::KeyValue, Vec<usize>> =
        std::collections::HashMap::new();
    for b in 0..build.num_rows() {
        let key = build.columns[0].value_at(b);
        if !key.is_null() {
            index
                .entry(verdict_engine::KeyValue::from_value(&key))
                .or_default()
                .push(b);
        }
    }
    let mut pairs = Vec::new();
    for p in 0..probe.num_rows() {
        let key = verdict_engine::KeyValue::from_value(&probe.columns[0].value_at(p));
        if let Some(rows) = index.get(&key) {
            pairs.extend(rows.iter().map(|&b| (p, b)));
        }
    }
    pairs
}

/// Row-at-a-time scan: test the selector per row, materialise every payload
/// cell of surviving rows as a `Value` — the pre-refactor scan shape.
pub fn scalar_scan_gather(sel: &Column, payload: &[Column], threshold: f64) -> Vec<Vec<Value>> {
    let t = Value::Float(threshold);
    let mut out = Vec::new();
    for i in 0..sel.len() {
        let keep = sel
            .value_at(i)
            .sql_cmp(&t)
            .map(|o| o == std::cmp::Ordering::Greater)
            .unwrap_or(false);
        if keep {
            out.push(payload.iter().map(|c| c.value_at(i)).collect());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Vectorized paths: the engine's typed-column kernels (serial pool).
// ---------------------------------------------------------------------------

/// Fused branch-free compare + packed-mask kernel.
pub fn vector_filter_mask(col: &Column, threshold: f64) -> SelVec {
    let t = Column::repeat(&Value::Float(threshold), col.len());
    kernels::par_filter_mask(col, BinaryOp::Gt, &t, &ThreadPool::serial())
}

/// Typed sum/avg kernel.
pub fn vector_sum_avg(col: &Column) -> (f64, f64) {
    let (sum, count) = col.sum_count_f64();
    (sum, sum / count.max(1) as f64)
}

/// Grouping (dict or hash, picked from the key column) plus a
/// dense gid-indexed sum fold.
pub fn vector_grouped_sum(keys: &Column, values: &Column, pool: &ThreadPool) -> Vec<f64> {
    let grouping = group_rows_with(std::slice::from_ref(keys), keys.len(), pool);
    let mut sums = vec![0.0f64; grouping.num_groups()];
    match values.data() {
        ColumnData::Float64(v) => {
            for (i, &g) in grouping.gids.iter().enumerate() {
                if values.is_valid(i) {
                    sums[g] += v[i];
                }
            }
        }
        _ => {
            for (i, &g) in grouping.gids.iter().enumerate() {
                if let Some(x) = values.f64_at(i) {
                    sums[g] += x;
                }
            }
        }
    }
    sums
}

/// `SELECT k, ndv(v) … GROUP BY k` through the engine's aggregation core
/// (one partial sketch per group per morsel, merged in morsel order);
/// returns the sum of the per-group estimates.
pub fn vector_grouped_ndv(engine: &Engine) -> i64 {
    let result = engine
        .execute_sql("SELECT k, ndv(v) AS d FROM t GROUP BY k")
        .expect("grouped ndv");
    let d = &result.table.columns[1];
    (0..d.len()).filter_map(|i| d.value_at(i).as_i64()).sum()
}

/// `p JOIN b ON p.k = b.k` through the engine's hash join (typed key
/// hashing, hash-chain build, typed column gathers).
pub fn vector_join(probe: &Table, build: &Table, pool: &ThreadPool) -> Table {
    let on = verdict_sql::parse_expression("p.k = b.k").expect("join condition");
    let (pairs, residual) = from_clause::extract_equi_pairs(&on, &probe.schema, &build.schema);
    let mut rng = || 0.0;
    from_clause::hash_join(
        probe,
        build,
        &pairs,
        &residual,
        JoinType::Inner,
        &mut rng,
        pool,
    )
    .expect("hash join")
}

/// [`JOIN_WHERE_SQL`] in the order that filters after joining: the hash join
/// over the whole inputs, then each WHERE conjunct over the joined frame.
pub fn join_then_filter(l: &Table, p: &Table, pool: &ThreadPool) -> Table {
    let on = verdict_sql::parse_expression("l.l_partkey = p.p_partkey").expect("join condition");
    let (pairs, residual) = from_clause::extract_equi_pairs(&on, &l.schema, &p.schema);
    let mut rng = || 0.0;
    let mut joined =
        from_clause::hash_join(l, p, &pairs, &residual, JoinType::Inner, &mut rng, pool)
            .expect("hash join");
    for (column, op, value) in [
        ("l_quantity", BinaryOp::Lt, Value::Int(5)),
        ("p_container", BinaryOp::Eq, Value::Str("MED BAG".into())),
    ] {
        let column = joined.column_by_name(column).expect("conjunct column");
        let value = Column::repeat(&value, joined.num_rows());
        let mask = kernels::par_filter_mask(column, op, &value, pool);
        joined = joined.filter_with(&mask, pool);
    }
    joined
}

/// A serial engine holding the [`join_where_tables`] as `l` and `p`.
pub fn join_where_engine(l: &Table, p: &Table) -> Engine {
    let engine = Engine::with_seed_and_parallelism(1, 1);
    for (name, t) in [("l", l), ("p", p)] {
        let columns = t.columns.clone();
        engine.register_table(
            name,
            Table::new(t.schema.without_qualifiers(), columns).expect(name),
        );
    }
    engine
}

/// [`JOIN_WHERE_SQL`] through the engine, which filters each relation by
/// its own conjunct before joining.
pub fn engine_join_where(engine: &Engine) -> Table {
    engine
        .execute_sql(JOIN_WHERE_SQL)
        .expect("join with WHERE")
        .table
}

/// The `(p.id, b.id)` pairs of a [`vector_join`] output.
pub fn joined_pairs(joined: &Table) -> Vec<(usize, usize)> {
    let id = |c: usize| (0..joined.num_rows()).map(move |i| joined.columns[c].value_at(i));
    id(1)
        .zip(id(3))
        .map(|(p, b)| {
            let row = |v: Value| v.as_i64().expect("row id") as usize;
            (row(p), row(b))
        })
        .collect()
}

/// Late-materialized scan: packed mask over the selector column only, then a
/// per-column gather of the surviving rows — never touching the payload
/// cells of filtered-out rows.
pub fn late_mat_scan(
    sel: &Column,
    payload: &[Column],
    threshold: f64,
    pool: &ThreadPool,
) -> Vec<Column> {
    let t = Column::repeat(&Value::Float(threshold), sel.len());
    let mask = kernels::par_filter_mask(sel, BinaryOp::Gt, &t, pool);
    let rows = mask.indices();
    payload.iter().map(|c| c.take(&rows)).collect()
}

// ---------------------------------------------------------------------------
// Morsel-parallel paths: the same kernels across a ThreadPool.  Partial
// states merge in morsel order, so results are bit-identical to running the
// same morsel decomposition on one thread.
// ---------------------------------------------------------------------------

/// Morsel-parallel fused compare + packed mask.
pub fn par_filter_mask(col: &Column, threshold: f64, pool: &ThreadPool) -> SelVec {
    let t = Column::repeat(&Value::Float(threshold), col.len());
    kernels::par_filter_mask(col, BinaryOp::Gt, &t, pool)
}

/// Morsel-parallel sum/avg.
pub fn par_sum_avg(col: &Column, pool: &ThreadPool) -> (f64, f64) {
    let (sum, count) = col.par_sum_count_f64(pool);
    (sum, sum / count.max(1) as f64)
}

/// Morsel-parallel grouped sum (dict-or-hash grouping + per-morsel
/// partial sums merged in morsel order).
pub fn par_grouped_sum(keys: &Column, values: &Column, pool: &ThreadPool) -> Vec<f64> {
    let n = keys.len();
    let grouping = group_rows_with(std::slice::from_ref(keys), n, pool);
    let num_groups = grouping.num_groups();
    let partials = pool.run_morsels(n, |range| {
        let mut sums = vec![0.0f64; num_groups];
        match values.data() {
            ColumnData::Float64(v) => {
                for i in range {
                    if values.is_valid(i) {
                        sums[grouping.gids[i]] += v[i];
                    }
                }
            }
            _ => {
                for i in range {
                    if let Some(x) = values.f64_at(i) {
                        sums[grouping.gids[i]] += x;
                    }
                }
            }
        }
        sums
    });
    partials
        .into_iter()
        .reduce(|mut merged, partial| {
            for (dst, src) in merged.iter_mut().zip(partial) {
                *dst += src;
            }
            merged
        })
        .unwrap_or_else(|| vec![0.0; num_groups])
}

// ---------------------------------------------------------------------------
// Answer assembly: the scalar `Value`/`HashMap` interpreter vs the compiled,
// columnar Answer Rewriter.
// ---------------------------------------------------------------------------

/// tq-1 (two string keys, seven aggregates) plus one ratio expression.
const ASSEMBLE_SQL: &str = "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, \
     sum(l_extendedprice) AS sum_base_price, \
     sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
     avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price, \
     avg(l_discount) AS avg_disc, count(*) AS count_order, \
     sum(l_extendedprice * (1 - l_discount)) / sum(l_extendedprice) AS kept \
     FROM lineitem WHERE l_shipdate <= 2450 \
     GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus";

/// Assemblies per timing of the `assemble_6g_7agg` row: one compiled
/// assembly takes tens of microseconds, too short to time on its own.
pub const ASSEMBLE_CALLS: usize = 50;

/// The `assemble_6g_7agg` input: the rewritten `ASSEMBLE_SQL` and a mean
/// result of 6 groups × 100 subsamples, no NULLs.
pub fn assemble_input() -> (RewriteOutput, Table, VerdictConfig) {
    let config = VerdictConfig::default();
    let rewrite = synthetic_rewrite(ASSEMBLE_SQL, &config);
    let shape = ResultShape {
        groups: 6,
        cells: 100,
        ragged: false,
        null_rate: 0.0,
        zero_rate: 0.0,
        all_null_groups: false,
        keys: vec![KeyKind::Str, KeyKind::Str],
        null_key_group: None,
    };
    let (mean, _, _) = synthetic_results(&rewrite, &shape, 1);
    (rewrite, mean.expect("a mean-like statement"), config)
}

/// Either assembly path.
type AssemblePath = fn(
    &RewriteOutput,
    Option<&Table>,
    Option<&Table>,
    Option<&Table>,
    &VerdictConfig,
) -> verdict_core::VerdictResult<AssembledAnswer>;

/// [`ASSEMBLE_CALLS`] assemblies of one mean result through `path`.
fn assemble_many(
    path: AssemblePath,
    (rewrite, mean, config): &(RewriteOutput, Table, VerdictConfig),
) -> AssembledAnswer {
    let mut last = None;
    for _ in 0..ASSEMBLE_CALLS {
        last = Some(path(rewrite, Some(mean), None, None, config).expect("assembly"));
    }
    last.expect("at least one call")
}

// ---------------------------------------------------------------------------
// The timed pairs.
// ---------------------------------------------------------------------------

/// One timed pair: a reference path and the kernel measured against it, from
/// the same repetitions.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Stable row name (the gate matches committed rows by it).
    pub name: &'static str,
    /// Median seconds on the reference path: the scalar `Value` path, the
    /// serial pool, or the direct call.
    pub reference_secs: f64,
    /// Median seconds on the measured path.
    pub kernel_secs: f64,
}

impl KernelRow {
    /// Reference-over-kernel speedup factor.
    pub fn speedup(&self) -> f64 {
        self.reference_secs / self.kernel_secs.max(1e-12)
    }
}

/// Payload columns in the late-materialization scan row.
pub const SCAN_WIDTH: usize = 8;
/// Selector threshold for the scan row (~10% of rows survive).
pub const SCAN_THRESHOLD: f64 = 28.5;

/// Runs every scalar-vs-vectorized row at [`ROWS`] rows — cross-checking
/// each pair for agreement before timing it — and returns the rows in the
/// order they appear in `BENCH_kernels.json`.
pub fn scalar_vs_vectorized_rows() -> Vec<KernelRow> {
    let serial = ThreadPool::serial();
    let (price, qty) = synthetic_columns(ROWS);
    let k16 = keys_16(ROWS);
    let kwide = keys_distinct(ROWS);
    let (sel, payload) = scan_columns(ROWS, SCAN_WIDTH);

    // Sanity: every scalar/vectorized pair must agree before we time it.
    assert_eq!(
        scalar_filter_mask(&price, 15.0),
        vector_filter_mask(&price, 15.0).to_bools()
    );
    let (ss, sa) = scalar_sum_avg(&price);
    let (vs, va) = vector_sum_avg(&price);
    assert!((ss - vs).abs() < 1e-6 && (sa - va).abs() < 1e-9);
    for keys in [&qty, &k16, &kwide] {
        let scalar_groups = scalar_grouped_sum(keys, &price);
        let vector_groups = vector_grouped_sum(keys, &price, &serial);
        assert_eq!(scalar_groups.len(), vector_groups.len());
        let scalar_total: f64 = scalar_groups.iter().map(|(_, s)| s).sum();
        let vector_total: f64 = vector_groups.iter().sum();
        assert!((scalar_total - vector_total).abs() / scalar_total.abs() < 1e-9);
    }
    let scalar_rows = scalar_scan_gather(&sel, &payload, SCAN_THRESHOLD);
    let gathered = late_mat_scan(&sel, &payload, SCAN_THRESHOLD, &serial);
    assert!(gathered.iter().all(|c| c.len() == scalar_rows.len()));
    let scalar_checksum: f64 = scalar_rows
        .iter()
        .flat_map(|r| r.iter().filter_map(|v| v.as_f64()))
        .sum();
    let gathered_checksum: f64 = gathered.iter().map(|c| c.sum_count_f64().0).sum();
    assert!((scalar_checksum - gathered_checksum).abs() / scalar_checksum.abs() < 1e-9);
    let k20k = keys_20k(ROWS);
    let ndv_engine = Engine::with_seed_and_parallelism(1, 1);
    let ndv_table = TableBuilder::new()
        .column("k", k20k.clone())
        .column("v", price.clone())
        .build()
        .expect("ndv table");
    ndv_engine.register_table("t", ndv_table);
    assert_eq!(
        scalar_grouped_ndv(&k20k, &price),
        vector_grouped_ndv(&ndv_engine)
    );
    let (probe, build) = join_tables();
    let join_pairs = scalar_join_pairs(&probe, &build);
    assert_eq!(join_pairs.len(), JOIN_PROBE_ROWS);
    assert_eq!(
        joined_pairs(&vector_join(&probe, &build, &serial)),
        join_pairs
    );
    let (lineitem, part) = join_where_tables();
    let where_engine = join_where_engine(&lineitem, &part);
    assert_eq!(
        engine_join_where(&where_engine),
        join_then_filter(&lineitem, &part, &serial)
    );
    let assembly = assemble_input();
    let scalar_answer = assemble_many(scalar_assemble, &assembly);
    let compiled_answer = assemble_many(assemble, &assembly);
    assert_eq!(scalar_answer.table.columns, compiled_answer.table.columns);
    assert_eq!(scalar_answer.errors, compiled_answer.errors);

    time_pairs(vec![
        (
            "filter_gt",
            timed(|| scalar_filter_mask(&price, 15.0)),
            timed(|| vector_filter_mask(&price, 15.0)),
        ),
        (
            "sum_avg",
            timed(|| scalar_sum_avg(&price)),
            timed(|| vector_sum_avg(&price)),
        ),
        (
            "grouped_sum",
            timed(|| scalar_grouped_sum(&qty, &price)),
            timed(|| vector_grouped_sum(&qty, &price, &serial)),
        ),
        (
            "grouped_sum_16d",
            timed(|| scalar_grouped_sum(&k16, &price)),
            timed(|| vector_grouped_sum(&k16, &price, &serial)),
        ),
        (
            "grouped_sum_1m",
            timed(|| scalar_grouped_sum(&kwide, &price)),
            timed(|| vector_grouped_sum(&kwide, &price, &serial)),
        ),
        (
            "grouped_ndv_20k",
            timed(|| scalar_grouped_ndv(&k20k, &price)),
            timed(|| vector_grouped_ndv(&ndv_engine)),
        ),
        (
            "join_dim_50k",
            timed(|| scalar_join_pairs(&probe, &build)),
            timed(|| vector_join(&probe, &build, &serial)),
        ),
        (
            "join_where_dim",
            timed(|| join_then_filter(&lineitem, &part, &serial)),
            timed(|| engine_join_where(&where_engine)),
        ),
        (
            "late_mat_scan",
            timed(|| scalar_scan_gather(&sel, &payload, SCAN_THRESHOLD)),
            timed(|| late_mat_scan(&sel, &payload, SCAN_THRESHOLD, &serial)),
        ),
        (
            "assemble_6g_7agg",
            timed(|| assemble_many(scalar_assemble, &assembly)),
            timed(|| assemble_many(assemble, &assembly)),
        ),
    ])
}

/// The serial vectorized kernels against the same kernels on `pool`, after
/// asserting they are bit-identical.  Recorded, not gated: the ratio is
/// the machine's core count as much as the code.
pub fn parallel_rows(pool: &ThreadPool) -> Vec<KernelRow> {
    let serial = ThreadPool::serial();
    let (price, qty) = synthetic_columns(ROWS);
    assert_eq!(
        par_filter_mask(&price, 15.0, &serial),
        par_filter_mask(&price, 15.0, pool)
    );
    let bits = |(s, a): (f64, f64)| (s.to_bits(), a.to_bits());
    assert_eq!(
        bits(par_sum_avg(&price, &serial)),
        bits(par_sum_avg(&price, pool))
    );
    let sums_bits = |sums: Vec<f64>| sums.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(
        sums_bits(par_grouped_sum(&qty, &price, &serial)),
        sums_bits(par_grouped_sum(&qty, &price, pool))
    );
    time_pairs(vec![
        (
            "filter_gt",
            timed(|| par_filter_mask(&price, 15.0, &serial)),
            timed(|| par_filter_mask(&price, 15.0, pool)),
        ),
        (
            "sum_avg",
            timed(|| par_sum_avg(&price, &serial)),
            timed(|| par_sum_avg(&price, pool)),
        ),
        (
            "grouped_sum",
            timed(|| par_grouped_sum(&qty, &price, &serial)),
            timed(|| par_grouped_sum(&qty, &price, pool)),
        ),
    ])
}

/// Rows of the dashboard table behind `session_dispatch`.
const DASHBOARD_ROWS: usize = 200_000;
const DASHBOARD_QUERY: &str =
    "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";

/// Per-call cost of the layers above the engine, each against the call it
/// wraps.  Recorded, not gated: their noise (±5%) is wider than the 2% bars
/// they were written for.
///
/// * `session_dispatch` — the cache-hot dashboard repeat through the bare
///   pipeline driver (`parse_statement` → `Route::of` →
///   `VerdictContext::run_statement` under the base config) vs the
///   SQL-first `VerdictSession::execute` (parse → config clone → statement
///   match): the worst case for relative overhead, with almost no
///   execution time to hide it behind.
/// * `backend_dispatch` — one engine statement on `Engine::execute_sql` vs
///   routed through the `Arc<dyn Backend>` and instrumentation layer every
///   `VerdictContext` uses.
pub fn dispatch_rows() -> Vec<KernelRow> {
    let engine = Engine::with_seed(29);
    let table = TableBuilder::new()
        .float_column(
            "price",
            (0..DASHBOARD_ROWS)
                .map(|i| ((i * 37) % 1000) as f64 / 10.0)
                .collect(),
        )
        .str_column(
            "city",
            (0..DASHBOARD_ROWS)
                .map(|i| format!("city_{}", i % 10))
                .collect(),
        )
        .build()
        .expect("dashboard table");
    engine.register_table("sales", table);
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = 64;
    let ctx = Arc::new(VerdictContext::new(Arc::new(engine), config));
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    session
        .execute("CREATE SCRAMBLE verdict_sample_sales_uniform FROM sales")
        .expect("dashboard scramble");
    let warm = session.execute(DASHBOARD_QUERY).expect("dashboard query");
    let warm = warm.answer().expect("an answer");
    assert!(!warm.exact && !warm.cached);

    const TICKS: &str = "SELECT count(*) AS n, sum(id) AS s FROM ticks";
    let engine = Arc::new(Engine::with_seed(31));
    let ids = TableBuilder::new()
        .int_column("id", (0..10_000).collect())
        .build()
        .expect("ticks table");
    engine.register_table("ticks", ids);
    let routed = VerdictContext::new(
        engine.clone() as Arc<dyn Backend>,
        VerdictConfig::for_testing(),
    );
    // Cache hits take microseconds: time a batch of calls per repetition.
    const HITS: usize = 1000;
    const STATEMENTS: usize = 100;
    let rows = time_pairs(vec![
        (
            "session_dispatch",
            timed(|| {
                for _ in 0..HITS {
                    let stmt = verdict_sql::parse_statement(DASHBOARD_QUERY).expect("parse");
                    let route = Route::of(&stmt, false).expect("route").expect("a query");
                    let (answer, _) = ctx
                        .run_statement(&stmt, DASHBOARD_QUERY, ctx.config(), route, "none")
                        .expect("cache hit");
                    assert!(answer.cached);
                }
            }),
            timed(|| {
                for _ in 0..HITS {
                    let response = session.execute(DASHBOARD_QUERY).expect("cache hit");
                    assert!(response.answer().expect("an answer").cached);
                }
            }),
        ),
        (
            "backend_dispatch",
            timed(|| {
                for _ in 0..STATEMENTS {
                    std::hint::black_box(engine.execute_sql(TICKS).expect("direct"));
                }
            }),
            timed(|| {
                for _ in 0..STATEMENTS {
                    std::hint::black_box(routed.connection().execute(TICKS).expect("routed"));
                }
            }),
        ),
    ]);
    rows.into_iter()
        .zip([HITS, STATEMENTS])
        .map(|(row, calls)| KernelRow {
            reference_secs: row.reference_secs / calls as f64,
            kernel_secs: row.kernel_secs / calls as f64,
            ..row
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Machine provenance for the perf snapshot.
// ---------------------------------------------------------------------------

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The active `rustc -V` string, or `"unknown"` when rustc is unreachable.
pub fn rustc_version() -> String {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

// ---------------------------------------------------------------------------
// Progressive streaming: time-to-first-frame, full drain and early stop over
// a 1M-row scramble (RATIO 1.0 — the paper-faithful full-table scramble).
// ---------------------------------------------------------------------------

/// Rows of the streamed scramble.
pub const STREAM_ROWS: usize = 1_000_000;
const STREAM_QUERY: &str = "SELECT qty, avg(price) AS ap FROM big_sales GROUP BY qty";

fn stream_context() -> Arc<VerdictContext> {
    let engine = Engine::with_seed(41);
    let (price, qty) = synthetic_columns(STREAM_ROWS);
    let table = TableBuilder::new()
        .column("qty", qty)
        .column("price", price)
        .build()
        .unwrap();
    engine.register_table("big_sales", table);
    let conn: Arc<dyn Backend> = Arc::new(engine);
    let mut config = VerdictConfig::for_testing();
    config.io_budget = 1.0; // a full-table scramble needs a full budget
    let ctx = Arc::new(VerdictContext::new(conn, config));
    VerdictSession::new(Arc::clone(&ctx))
        .execute("CREATE SCRAMBLE verdict_sample_big_sales_uniform FROM big_sales RATIO 1.0")
        .unwrap();
    ctx
}

/// The `"stream"` section of `BENCH_kernels.json`.
pub struct StreamBench {
    /// Median latency of the query answered one-shot from the scramble.
    pub one_shot_secs: f64,
    /// Median time from `STREAM` to its first frame (one 64K-row block).
    pub first_frame_secs: f64,
    /// Median time to drain every frame of the stream.
    pub full_stream_secs: f64,
    /// Frames in a full drain.
    pub frames: usize,
    /// Time to drain a stream that stops at `target_error = 0.01`.
    pub early_stop_secs: f64,
    /// Share of the scramble that stream consumed.
    pub early_stop_fraction: f64,
}

/// Progressive vs one-shot on the 1M-row scramble: median one-shot latency,
/// median time to the first frame (one 64K block) and median full drain —
/// one of each per repetition — plus one early-stopped drain at
/// `target_error = 0.01`.
pub fn progressive_stream() -> StreamBench {
    let ctx = stream_context();
    let session = |options: &[&str]| {
        let mut s = VerdictSession::new(Arc::clone(&ctx));
        for option in ["SET cache = off"].iter().chain(options) {
            s.execute(option).expect("stream option");
        }
        s
    };
    let drain = |s: &mut VerdictSession| {
        s.stream(STREAM_QUERY)
            .expect("stream")
            .collect::<Result<Vec<_>, _>>()
            .expect("stream frames")
    };

    let (mut one_shot, mut first_frame, mut full_stream) = (vec![], vec![], vec![]);
    let mut frames = 0;
    for _ in 0..REPS {
        let mut s = session(&[]);
        one_shot.push(secs(&mut || {
            let answer = s.execute(STREAM_QUERY).expect("one-shot answer");
            let answer = answer.answer().expect("an answer");
            assert!(!answer.exact && !answer.cached);
        }));

        let mut s = session(&[]);
        let t0 = Instant::now();
        let mut stream = s.stream(STREAM_QUERY).expect("stream");
        let first = stream.next().expect("a first frame").expect("first frame");
        first_frame.push(t0.elapsed().as_secs_f64());
        assert!(first.rows_seen > 0);
        drop(stream);

        let mut s = session(&[]);
        let t0 = Instant::now();
        let drained = drain(&mut s);
        full_stream.push(t0.elapsed().as_secs_f64());
        frames = drained.len();
        assert!((drained.last().expect("a last frame").fraction - 1.0).abs() < 1e-12);
    }

    let mut s = session(&["SET target_error = 0.01"]);
    let t0 = Instant::now();
    let drained = drain(&mut s);
    let early_stop_secs = t0.elapsed().as_secs_f64();
    let last = drained.last().expect("a last frame");
    assert!(last.answer.max_relative_error() <= 0.01);

    StreamBench {
        one_shot_secs: median(one_shot),
        first_frame_secs: median(first_frame),
        full_stream_secs: median(full_stream),
        frames,
        early_stop_secs,
        early_stop_fraction: last.fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_vectorized_paths_agree_on_small_inputs() {
        let n = 10_000;
        let serial = ThreadPool::serial();
        let (price, qty) = synthetic_columns(n);
        assert_eq!(
            scalar_filter_mask(&price, 15.0),
            vector_filter_mask(&price, 15.0).to_bools()
        );
        for keys in [&qty, &keys_16(n), &keys_distinct(n)] {
            let scalar: f64 = scalar_grouped_sum(keys, &price)
                .iter()
                .map(|(_, s)| s)
                .sum();
            let vector: f64 = vector_grouped_sum(keys, &price, &serial).iter().sum();
            assert!((scalar - vector).abs() / scalar.abs() < 1e-9);
        }
        let (probe, build) = join_tables();
        assert_eq!(
            joined_pairs(&vector_join(&probe, &build, &ThreadPool::new(4))),
            scalar_join_pairs(&probe, &build)
        );
        let (lineitem, part) = join_where_tables();
        let filtered = engine_join_where(&join_where_engine(&lineitem, &part));
        assert!(filtered.num_rows() > 0);
        assert_eq!(
            filtered,
            join_then_filter(&lineitem, &part, &ThreadPool::new(4))
        );
        let (sel, payload) = scan_columns(n, 4);
        let scalar_rows = scalar_scan_gather(&sel, &payload, SCAN_THRESHOLD);
        let gathered = late_mat_scan(&sel, &payload, SCAN_THRESHOLD, &serial);
        assert!(!scalar_rows.is_empty());
        assert!(gathered.iter().all(|c| c.len() == scalar_rows.len()));
    }

    #[test]
    fn scalar_and_compiled_assembly_agree_on_the_kernel_row_input() {
        let assembly = assemble_input();
        assert_eq!(assembly.1.num_rows(), 600);
        let scalar = assemble_many(scalar_assemble, &assembly);
        let compiled = assemble_many(assemble, &assembly);
        assert_eq!(scalar.table.num_rows(), 6);
        assert_eq!(scalar.table.num_columns(), 10);
        assert_eq!(scalar.table.columns, compiled.table.columns);
        assert_eq!(scalar.errors, compiled.errors);
    }

    #[test]
    fn machine_provenance_is_reportable() {
        assert!(cpus() >= 1);
        assert!(!rustc_version().is_empty());
    }
}
