//! System relations: the middleware's own state as read-only tables.
//!
//! VerdictDB keeps its state as tables and lets a client speak only SQL to
//! it (§2.1).  Four relations answer the introspection surface:
//!
//! | relation | columns | `SHOW` spelling |
//! |---|---|---|
//! | `verdict_scrambles` | `scramble, base_table, method, columns, ratio, rows, base_rows, status` | `SHOW SCRAMBLES` |
//! | `verdict_stats` | `section, stat, value` | `SHOW STATS` |
//! | `verdict_traces` | `seq, class, total_us, cached, slow, shed_tier, spans, sql` | `SHOW PROFILE [LAST n]` |
//! | `verdict_metrics` | `metrics` (one exposition line per row) | `SHOW METRICS` |
//!
//! A query that reads system relations alone takes [`Route::System`]: core
//! builds the relations it names and runs it through the engine's own
//! executor over a private catalog.  It never reaches the backend, never
//! touches the answer cache, and is always exact.  The names are reserved:
//! every other use of one — DDL, DML, `STREAM`, `BYPASS`, or a query that
//! also reads a backend table — is [`VerdictError::Unsupported`].
//!
//! [`Route::System`]: crate::pipeline::Route::System

use crate::context::{VerdictAnswer, VerdictContext};
use crate::error::{VerdictError, VerdictResult};
use crate::obs::QueryTrace;
use crate::sample::maintenance::{staleness, Staleness};
use crate::sample::SampleMeta;
use std::sync::Arc;
use verdict_engine::exec::Executor;
use verdict_engine::{Catalog, EngineResult, Table, TableBuilder, ThreadPool};
use verdict_sql::ast::{ObjectName, Query, Statement};
use verdict_sql::visitor::for_each_base_table;

/// The reserved system relation names.
const RELATIONS: [&str; 4] = [
    "verdict_scrambles",
    "verdict_stats",
    "verdict_traces",
    "verdict_metrics",
];

fn is_system(name: &ObjectName) -> bool {
    matches!(name.0.as_slice(), [n] if RELATIONS.iter().any(|r| n.eq_ignore_ascii_case(r)))
}

/// Calls `f` on every table name a statement mentions, at any depth.
fn for_each_name(stmt: &Statement, f: &mut dyn FnMut(&ObjectName)) {
    match stmt {
        Statement::Query(q) | Statement::Stream(q) => for_each_base_table(q, f),
        Statement::CreateTableAs { name, query, .. }
        | Statement::InsertIntoSelect { table: name, query } => {
            f(name);
            for_each_base_table(query, f);
        }
        Statement::CreateScramble { name, table, .. } => [name, table].into_iter().for_each(f),
        Statement::RefreshScrambles { table, batch } => {
            std::iter::once(table).chain(batch).for_each(f)
        }
        Statement::DropTable { name: table, .. }
        | Statement::CreateScrambles { table }
        | Statement::DropScramble { name: table, .. }
        | Statement::DropScrambles { table, .. } => f(table),
        Statement::Bypass(inner)
        | Statement::Explain {
            statement: inner, ..
        } => for_each_name(inner, f),
        Statement::SetOption { .. } => {}
    }
}

/// True when `stmt` is a query over system relations alone, false when it
/// names none.  Any other use of a system relation name — mixed with a
/// backend table at any depth, under DDL / DML, `STREAM` or `BYPASS` — is
/// [`VerdictError::Unsupported`].
pub(crate) fn reads_only_system(stmt: &Statement) -> VerdictResult<bool> {
    let (mut system, mut other) = (None, false);
    for_each_name(stmt, &mut |name| {
        if is_system(name) {
            system.get_or_insert_with(|| name.clone());
        } else {
            other = true;
        }
    });
    match system {
        Some(name) if other || !matches!(stmt, Statement::Query(_)) => {
            Err(VerdictError::Unsupported(format!(
                "{name} is a read-only system relation: only a SELECT over system relations \
                 alone can read it"
            )))
        }
        system => Ok(system.is_some()),
    }
}

impl VerdictContext {
    /// Answers a query over system relations: builds the relations it names
    /// into a private catalog and runs it through the engine's executor on
    /// one thread.  Exact, with nothing sent to the backend.
    pub(crate) fn answer_system(&self, query: &Query) -> VerdictResult<VerdictAnswer> {
        let catalog = Catalog::new();
        let mut named = Vec::new();
        for_each_base_table(query, &mut |name| named.push(name.key()));
        for name in named {
            if !catalog.exists(&name) {
                catalog.register(&name, self.system_table(&name)?);
            }
        }
        let mut exec = Executor::with_pool(&catalog, Some(0), Arc::new(ThreadPool::serial()));
        let result = exec.execute_query(query)?;
        Ok(VerdictAnswer::in_process(Table {
            schema: result.schema.without_qualifiers(),
            columns: result.columns,
        }))
    }

    fn system_table(&self, name: &str) -> EngineResult<Table> {
        match name {
            "verdict_scrambles" => self.scrambles_table(),
            "verdict_stats" => self.stats_table(),
            "verdict_traces" => self.traces_table(),
            _ => TableBuilder::new()
                .str_column(
                    "metrics",
                    self.metrics_text().lines().map(Into::into).collect(),
                )
                .build(),
        }
    }

    /// One row per registered scramble, sorted by (base table, scramble).
    fn scrambles_table(&self) -> EngineResult<Table> {
        let mut metas = self.meta.all();
        metas.sort_by(|a, b| {
            (a.base_table.as_str(), a.sample_table.as_str())
                .cmp(&(b.base_table.as_str(), b.sample_table.as_str()))
        });
        let strs = |f: &dyn Fn(&SampleMeta) -> String| metas.iter().map(f).collect();
        let ints = |f: &dyn Fn(&SampleMeta) -> u64| metas.iter().map(|m| f(m) as i64).collect();
        TableBuilder::new()
            .str_column("scramble", strs(&|m| m.sample_table.clone()))
            .str_column("base_table", strs(&|m| m.base_table.clone()))
            .str_column("method", strs(&|m| m.sample_type.tag().to_string()))
            .str_column("columns", strs(&|m| m.sample_type.columns().join(",")))
            .float_column("ratio", metas.iter().map(|m| m.ratio).collect())
            .int_column("rows", ints(&|m| m.sample_rows))
            .int_column("base_rows", ints(&|m| m.base_rows))
            .str_column("status", strs(&|m| self.staleness_label(m)))
            .build()
    }

    fn staleness_label(&self, meta: &SampleMeta) -> String {
        match self.conn.table_row_count(&meta.base_table) {
            Ok(current) => match staleness(meta, current) {
                Staleness::Fresh => "fresh".to_string(),
                Staleness::Stale { appended_rows } => format!("stale(+{appended_rows})"),
                Staleness::RequiresRebuild => "requires_rebuild".to_string(),
            },
            Err(_) => "base_missing".to_string(),
        }
    }

    /// Every counter and gauge as (section, stat, value): sections in the
    /// order `stat_rows` emits them — cache, streams, backend, store, then
    /// the installed source's (the server's `serving`) — and stats
    /// alphabetical within a section.
    fn stats_table(&self) -> EngineResult<Table> {
        let mut rows = self.stat_rows();
        for section in rows.chunk_by_mut(|a, b| a.0 == b.0) {
            section.sort_by(|a, b| a.1.cmp(&b.1));
        }
        TableBuilder::new()
            .str_column("section", rows.iter().map(|r| r.0.to_string()).collect())
            .str_column("stat", rows.iter().map(|r| r.1.clone()).collect())
            .int_column("value", rows.iter().map(|r| r.2 as i64).collect())
            .build()
    }

    /// The recent-trace ring, most recent first, with a compact per-stage
    /// span summary.
    fn traces_table(&self) -> EngineResult<Table> {
        let traces = self.obs.ring().recent(usize::MAX);
        let strs = |f: &dyn Fn(&QueryTrace) -> String| traces.iter().map(f).collect();
        let ints = |f: &dyn Fn(&QueryTrace) -> u64| traces.iter().map(|t| f(t) as i64).collect();
        let spans = |t: &QueryTrace| {
            let spans = t.spans.iter();
            let spans = spans.map(|s| format!("{}={}us", s.stage, s.duration.as_micros()));
            spans.collect::<Vec<_>>().join(" ")
        };
        TableBuilder::new()
            .int_column("seq", ints(&|t| t.seq))
            .str_column("class", strs(&|t| t.class.to_string()))
            .int_column("total_us", ints(&|t| t.total.as_micros() as u64))
            .str_column("cached", strs(&|t| t.cached.to_string()))
            .str_column("slow", strs(&|t| t.slow.to_string()))
            .str_column("shed_tier", strs(&|t| t.shed_tier.to_string()))
            .str_column("spans", strs(&spans))
            .str_column("sql", strs(&|t| t.sql.clone()))
            .build()
    }
}
