//! The event-stream-processing engine ("HANA ESP").
//!
//! Implements the three §3.2 use cases (Figure 9):
//!
//! 1. **Prefilter/pre-aggregate and forward** — windows aggregate
//!    filtered events; [`EspEngine::flush_window`] emits the window
//!    content to attached sinks (e.g. a HANA table) and tumbles;
//! 2. **ESP join** — reference data pushed from the HANA store
//!    ([`EspEngine::register_reference`]) enriches events during CCL
//!    execution;
//! 3. **HANA join** — [`EspEngine::window_snapshot`] exposes the live
//!    window as a relation the federated query processor can join with.
//!
//! Raw events can additionally be archived to HDFS through an attached
//! adapter and later **replayed** ([`EspEngine::replay_hdfs`]) "to verify
//! the effectiveness of improved event patterns" — and, per the paper,
//! "no transactional guarantees are provided".

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use hana_hadoop::Hdfs;
use hana_sql::finish::Projection;
use hana_sql::{evaluate_predicate, Expr, JoinKind, Query, TableRef};
use hana_types::{HanaError, Result, ResultSet, Row, Schema, Value};

use crate::ccl::{parse_ccl, CclStatement};
use crate::pattern::PatternMatcher;
use crate::window::{WindowQuery, WindowState};

/// Write callback type of a [`Sink::Table`].
pub type TableWriter = Arc<dyn Fn(&str, &Schema, &[Row]) -> Result<()> + Send + Sync>;

/// Handle returned by [`EspEngine::attach_sink`]; pass it to
/// [`EspEngine::detach_sink`] to remove exactly that sink.
pub type SinkId = u64;

/// What kind of CCL object a name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EspTargetKind {
    /// Raw input stream.
    Stream,
    /// Aggregating window (rows reach sinks on [`EspEngine::flush_window`]).
    Window,
    /// Stateless derived stream (rows reach sinks per event).
    OutputStream,
}

/// Default bound of a stream's input queue: events admitted into the
/// engine ahead of processing before further [`EspEngine::send`] calls
/// block ([`EspEngine::set_input_queue_cap`] changes it per engine).
pub const DEFAULT_INPUT_QUEUE_EVENTS: usize = 65_536;

/// Per-stream admission gate: a counting semaphore in front of the
/// engine lock. Slow sinks (e.g. an ingest pipeline applying
/// backpressure) hold the engine lock, so waiting producers pile up
/// here instead of growing unboundedly.
struct StreamGate {
    cap: usize,
    queued: std::sync::Mutex<usize>,
    space: std::sync::Condvar,
    engaged: AtomicBool,
}

impl StreamGate {
    fn new(cap: usize) -> StreamGate {
        StreamGate {
            cap: cap.max(1),
            queued: std::sync::Mutex::new(0),
            space: std::sync::Condvar::new(),
            engaged: AtomicBool::new(false),
        }
    }

    fn acquire(&self, stream: &str) {
        let mut q = self.queued.lock().expect("gate poisoned");
        if *q >= self.cap {
            hana_obs::registry()
                .counter("hana_esp_backpressure_engaged_total")
                .inc();
            // Warn once per engagement episode, not once per blocked event.
            if !self.engaged.swap(true, Ordering::Relaxed) {
                hana_obs::warn(format!(
                    "esp: stream '{stream}' input queue full ({} events); \
                     blocking producers (backpressure)",
                    self.cap
                ));
            }
            while *q >= self.cap {
                q = self.space.wait(q).expect("gate poisoned");
            }
        }
        *q += 1;
    }

    fn release(&self) {
        let mut q = self.queued.lock().expect("gate poisoned");
        *q = q.saturating_sub(1);
        if *q * 2 < self.cap {
            self.engaged.store(false, Ordering::Relaxed);
        }
        self.space.notify_one();
    }

    fn depth(&self) -> usize {
        *self.queued.lock().expect("gate poisoned")
    }
}

/// Releases the gate slot even when processing errors or panics.
struct GateGuard<'a>(&'a StreamGate);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Where emitted rows go.
pub enum Sink {
    /// Forward into a platform table (the writer is wired by
    /// `hana-core`): `(table, schema, rows)`.
    Table {
        /// Target table name.
        table: String,
        /// Write callback.
        writer: TableWriter,
    },
    /// Append raw delimited rows to an HDFS file (the archive adapter
    /// of Figure 8).
    Hdfs {
        /// Target file system.
        hdfs: Arc<Hdfs>,
        /// Target path.
        path: String,
    },
    /// Collect rows in memory (tests, monitoring).
    Memory(Arc<Mutex<Vec<Row>>>),
}

struct WindowDef {
    source: String,
    window: WindowQuery,
    state: WindowState,
}

/// An output stream; its WHERE filter and select list are resolved
/// against the joined evaluation schema (stream + reference bindings)
/// when it is defined.
struct OutStreamDef {
    source: String,
    filter: Option<Expr>,
    projection: Projection,
    /// Reference joins: `(ref_name, stream_key_idx, ref_key_idx)`
    ref_joins: Vec<(String, usize, usize)>,
}

struct PatternDef {
    source: String,
    matcher: PatternMatcher,
    alerts: Vec<Vec<Row>>,
}

#[derive(Default)]
struct Inner {
    streams: HashMap<String, Schema>,
    windows: HashMap<String, WindowDef>,
    out_streams: HashMap<String, OutStreamDef>,
    patterns: HashMap<String, PatternDef>,
    sinks: HashMap<String, Vec<(SinkId, Sink)>>,
    references: HashMap<String, ResultSet>,
    next_sink_id: SinkId,
    events_in: u64,
    events_emitted: u64,
}

/// The ESP engine. All methods take `&self`; state is internally locked
/// so the engine can be shared across ingestion threads.
pub struct EspEngine {
    inner: Mutex<Inner>,
    /// Per-stream admission gates, created lazily on first send.
    gates: Mutex<HashMap<String, Arc<StreamGate>>>,
    /// Bound applied to newly created gates.
    input_cap: AtomicUsize,
}

impl EspEngine {
    /// An empty engine.
    pub fn new() -> EspEngine {
        EspEngine {
            inner: Mutex::new(Inner::default()),
            gates: Mutex::new(HashMap::new()),
            input_cap: AtomicUsize::new(DEFAULT_INPUT_QUEUE_EVENTS),
        }
    }

    /// Override the per-stream input queue bound (events admitted ahead
    /// of processing before producers block). Applies to streams that
    /// have not sent yet; existing gates keep their bound.
    pub fn set_input_queue_cap(&self, cap: usize) {
        self.input_cap.store(cap.max(1), Ordering::Relaxed);
        self.gates.lock().clear();
    }

    /// Events currently admitted (queued or processing) on a stream.
    /// Observability hook for the backpressure gate.
    pub fn pending_events(&self, stream: &str) -> usize {
        self.gates
            .lock()
            .get(&stream.to_ascii_lowercase())
            .map(|g| g.depth())
            .unwrap_or(0)
    }

    fn gate(&self, key: &str) -> Arc<StreamGate> {
        let mut gates = self.gates.lock();
        Arc::clone(
            gates.entry(key.to_string()).or_insert_with(|| {
                Arc::new(StreamGate::new(self.input_cap.load(Ordering::Relaxed)))
            }),
        )
    }

    /// Deploy a CCL script (streams, windows, derived streams).
    pub fn deploy(&self, ccl: &str) -> Result<()> {
        for stmt in parse_ccl(ccl)? {
            self.deploy_statement(stmt)?;
        }
        Ok(())
    }

    fn deploy_statement(&self, stmt: CclStatement) -> Result<()> {
        let mut inner = self.inner.lock();
        match stmt {
            CclStatement::CreateInputStream { name, schema } => {
                if inner.streams.contains_key(&name) {
                    return Err(HanaError::Stream(format!("stream '{name}' exists")));
                }
                inner.streams.insert(name, schema);
            }
            CclStatement::CreateWindow { name, query, keep } => {
                let (source, input_schema) = resolve_source(&inner, &query)?;
                inner.windows.insert(
                    name,
                    WindowDef {
                        source,
                        window: WindowQuery::new(query, input_schema)?,
                        state: WindowState::new(keep),
                    },
                );
            }
            CclStatement::CreateOutputStream { name, query } => {
                let def = build_out_stream(&inner, query)?;
                inner.out_streams.insert(name, def);
            }
        }
        Ok(())
    }

    /// Attach a sink to a stream (raw events), window or output stream.
    /// Returns a handle for [`EspEngine::detach_sink`].
    pub fn attach_sink(&self, target: &str, sink: Sink) -> Result<SinkId> {
        let mut inner = self.inner.lock();
        let t = target.to_ascii_lowercase();
        if !inner.streams.contains_key(&t)
            && !inner.windows.contains_key(&t)
            && !inner.out_streams.contains_key(&t)
        {
            return Err(HanaError::Stream(format!("unknown sink target '{target}'")));
        }
        inner.next_sink_id += 1;
        let id = inner.next_sink_id;
        inner.sinks.entry(t).or_default().push((id, sink));
        Ok(id)
    }

    /// Remove one sink by the handle `attach_sink` returned. Returns
    /// whether it was still attached.
    pub fn detach_sink(&self, target: &str, id: SinkId) -> bool {
        let mut inner = self.inner.lock();
        let t = target.to_ascii_lowercase();
        let Some(sinks) = inner.sinks.get_mut(&t) else {
            return false;
        };
        let before = sinks.len();
        sinks.retain(|(sid, _)| *sid != id);
        let removed = sinks.len() < before;
        if sinks.is_empty() {
            inner.sinks.remove(&t);
        }
        removed
    }

    /// Remove every sink attached to a target; returns how many.
    pub fn detach_sinks(&self, target: &str) -> usize {
        self.inner
            .lock()
            .sinks
            .remove(&target.to_ascii_lowercase())
            .map(|v| v.len())
            .unwrap_or(0)
    }

    /// What kind of CCL object `name` refers to.
    pub fn target_kind(&self, name: &str) -> Result<EspTargetKind> {
        let inner = self.inner.lock();
        let key = name.to_ascii_lowercase();
        if inner.streams.contains_key(&key) {
            Ok(EspTargetKind::Stream)
        } else if inner.windows.contains_key(&key) {
            Ok(EspTargetKind::Window)
        } else if inner.out_streams.contains_key(&key) {
            Ok(EspTargetKind::OutputStream)
        } else {
            Err(HanaError::Stream(format!(
                "unknown stream or window '{name}'"
            )))
        }
    }

    /// Push reference data for ESP joins ("slowly changing data is
    /// pushed … from the SAP HANA store into the ESP").
    pub fn register_reference(&self, name: &str, data: ResultSet) {
        self.inner
            .lock()
            .references
            .insert(name.to_ascii_lowercase(), data);
    }

    /// Define a pattern over a stream: `steps` are boolean SQL
    /// expressions that must match successive events within
    /// `within_secs`.
    pub fn define_pattern(
        &self,
        name: &str,
        stream: &str,
        steps: &[&str],
        within_secs: i64,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        let schema = inner
            .streams
            .get(&stream.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| HanaError::Stream(format!("unknown stream '{stream}'")))?;
        let exprs: Vec<Expr> = steps
            .iter()
            .map(|s| parse_predicate(s))
            .collect::<Result<_>>()?;
        inner.patterns.insert(
            name.to_ascii_lowercase(),
            PatternDef {
                source: stream.to_ascii_lowercase(),
                matcher: PatternMatcher::new(exprs, within_secs, &schema)?,
                alerts: Vec::new(),
            },
        );
        Ok(())
    }

    /// Ingest one event (event time in microseconds). Blocks when the
    /// stream's bounded input queue is full (downstream sinks applying
    /// backpressure) rather than buffering without bound.
    pub fn send(&self, stream: &str, ts: i64, row: Row) -> Result<()> {
        let key = stream.to_ascii_lowercase();
        let gate = self.gate(&key);
        gate.acquire(&key);
        let _slot = GateGuard(&gate);
        let mut inner = self.inner.lock();
        let schema = inner
            .streams
            .get(&key)
            .cloned()
            .ok_or_else(|| HanaError::Stream(format!("unknown stream '{stream}'")))?;
        schema.check_row(row.values())?;
        inner.events_in += 1;

        // 1. Raw sinks on the input stream (HDFS archive, Figure 8).
        if let Some(sinks) = inner.sinks.get(&key) {
            for (_, s) in sinks {
                emit(s, &schema, std::slice::from_ref(&row))?;
            }
        }

        // 2. Stateless output streams (filter / transform / ESP join).
        let out_names: Vec<String> = inner
            .out_streams
            .iter()
            .filter(|(_, d)| d.source == key)
            .map(|(n, _)| n.clone())
            .collect();
        for name in out_names {
            let def = &inner.out_streams[&name];
            let Some(joined) = enrich(&inner, def, &row)? else {
                continue; // reference join dropped the event
            };
            if let Some(f) = &def.filter {
                if !evaluate_predicate(f, &joined)? {
                    continue;
                }
            }
            let out = [def.projection.project(&joined)?];
            if let Some(sinks) = inner.sinks.get(&name) {
                for (_, s) in sinks {
                    emit(s, def.projection.schema(), &out)?;
                }
            }
            inner.events_emitted += 1;
        }

        // 3. Windows (WHERE applies before retention).
        let win_names: Vec<String> = inner
            .windows
            .iter()
            .filter(|(_, d)| d.source == key)
            .map(|(n, _)| n.clone())
            .collect();
        for name in win_names {
            let def = inner.windows.get_mut(&name).expect("window exists");
            if def.window.admits(&row)? {
                def.state.push(ts, row.clone());
            } else {
                def.state.retire(ts);
            }
        }

        // 4. Patterns.
        let pat_names: Vec<String> = inner
            .patterns
            .iter()
            .filter(|(_, d)| d.source == key)
            .map(|(n, _)| n.clone())
            .collect();
        for name in pat_names {
            let def = inner.patterns.get_mut(&name).expect("pattern exists");
            let completed = def.matcher.on_event(ts, &row)?;
            def.alerts.extend(completed);
        }
        Ok(())
    }

    /// Current aggregated content of a window (the HANA-join view).
    pub fn window_snapshot(&self, name: &str) -> Result<ResultSet> {
        let inner = self.inner.lock();
        let def = inner
            .windows
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| HanaError::Stream(format!("unknown window '{name}'")))?;
        let out = def.window.output(&def.state)?;
        Ok(ResultSet::new(out.schema, out.rows))
    }

    /// The output schema of a window (for catalog registration).
    pub fn window_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.window_snapshot(name)?.schema)
    }

    /// Emit the window's aggregated content to its sinks and clear it
    /// (tumbling "prefilter/pre-aggregate and forward"). Returns what
    /// was emitted.
    pub fn flush_window(&self, name: &str) -> Result<ResultSet> {
        let rs = self.window_snapshot(name)?;
        let mut inner = self.inner.lock();
        let key = name.to_ascii_lowercase();
        if let Some(sinks) = inner.sinks.get(&key) {
            for (_, s) in sinks {
                emit(s, &rs.schema, &rs.rows)?;
            }
        }
        inner.events_emitted += rs.rows.len() as u64;
        if let Some(def) = inner.windows.get_mut(&key) {
            def.state.clear();
        }
        Ok(rs)
    }

    /// Drain the completed matches of a pattern.
    pub fn take_alerts(&self, pattern: &str) -> Vec<Vec<Row>> {
        let mut inner = self.inner.lock();
        inner
            .patterns
            .get_mut(&pattern.to_ascii_lowercase())
            .map(|d| std::mem::take(&mut d.alerts))
            .unwrap_or_default()
    }

    /// Replay archived events from HDFS into a stream (development-side
    /// verification of event patterns, §3.2). `parse` maps one archived
    /// line to `(event_time_us, row)`; unparseable lines are skipped.
    pub fn replay_hdfs(
        &self,
        hdfs: &Hdfs,
        path: &str,
        stream: &str,
        parse: impl Fn(&str) -> Option<(i64, Row)>,
    ) -> Result<u64> {
        let mut replayed = 0;
        for line in hdfs.read_lines(path)? {
            if let Some((ts, row)) = parse(&line) {
                self.send(stream, ts, row)?;
                replayed += 1;
            }
        }
        Ok(replayed)
    }

    /// `(events_in, events_emitted)`.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.events_in, inner.events_emitted)
    }

    /// Names of deployed windows.
    pub fn window_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.lock().windows.keys().cloned().collect();
        names.sort();
        names
    }
}

impl Default for EspEngine {
    fn default() -> Self {
        EspEngine::new()
    }
}

/// Evaluate a sink emission.
fn emit(sink: &Sink, schema: &Schema, rows: &[Row]) -> Result<()> {
    match sink {
        Sink::Table { table, writer } => writer(table, schema, rows),
        Sink::Hdfs { hdfs, path } => {
            let lines: Vec<String> = rows.iter().map(|r| r.to_delimited(',')).collect();
            hdfs.append_lines(path, &lines)
        }
        Sink::Memory(buf) => {
            buf.lock().extend(rows.iter().cloned());
            Ok(())
        }
    }
}

/// Resolve the (single) source stream of a window query.
fn resolve_source(inner: &Inner, query: &Query) -> Result<(String, Schema)> {
    let Some(TableRef::Named { name, .. }) = &query.from else {
        return Err(HanaError::Stream(
            "window FROM must name an input stream".into(),
        ));
    };
    if !query.joins.is_empty() {
        return Err(HanaError::Stream(
            "windows aggregate a single stream; use an output stream for ESP joins".into(),
        ));
    }
    let schema = inner
        .streams
        .get(name)
        .cloned()
        .ok_or_else(|| HanaError::Stream(format!("unknown stream '{name}'")))?;
    Ok((name.clone(), schema))
}

/// Build an output-stream definition, resolving ESP-join references.
fn build_out_stream(inner: &Inner, query: Query) -> Result<OutStreamDef> {
    let Some(TableRef::Named {
        name: source,
        alias,
    }) = &query.from
    else {
        return Err(HanaError::Stream(
            "output stream FROM must name an input stream".into(),
        ));
    };
    let stream_schema = inner
        .streams
        .get(source)
        .cloned()
        .ok_or_else(|| HanaError::Stream(format!("unknown stream '{source}'")))?;
    let stream_binding = alias.clone().unwrap_or_else(|| source.clone());
    let mut eval_schema = stream_schema.qualified(&stream_binding);
    let mut ref_joins = Vec::new();
    for j in &query.joins {
        if j.kind != JoinKind::Inner {
            return Err(HanaError::Stream("ESP joins are inner joins".into()));
        }
        let TableRef::Named {
            name: ref_name,
            alias: ref_alias,
        } = &j.table
        else {
            return Err(HanaError::Stream(
                "ESP join target must be a registered reference".into(),
            ));
        };
        let reference = inner.references.get(ref_name).ok_or_else(|| {
            HanaError::Stream(format!(
                "reference '{ref_name}' not registered; push it from HANA first"
            ))
        })?;
        let ref_binding = ref_alias.clone().unwrap_or_else(|| ref_name.clone());
        let ref_schema = reference.schema.qualified(&ref_binding);
        // The ON must be stream_col = ref_col.
        let (skey, rkey) = join_keys(&j.on, &eval_schema, &ref_schema)?;
        eval_schema = eval_schema.join(&ref_schema)?;
        ref_joins.push((ref_name.clone(), skey, rkey));
    }
    let filter = query.filter.as_ref();
    Ok(OutStreamDef {
        source: source.clone(),
        filter: filter.map(|f| f.resolve(&eval_schema, &[])).transpose()?,
        projection: Projection::new(&eval_schema, &query, &[])?,
        ref_joins,
    })
}

fn join_keys(on: &Expr, left: &Schema, right: &Schema) -> Result<(usize, usize)> {
    if let Expr::Binary {
        left: l,
        op: hana_sql::BinOp::Eq,
        right: r,
    } = on
    {
        if let (
            Expr::Column {
                qualifier: lq,
                name: ln,
            },
            Expr::Column {
                qualifier: rq,
                name: rn,
            },
        ) = (l.as_ref(), r.as_ref())
        {
            if let (Ok(a), Ok(b)) = (
                hana_sql::resolve_column(left, lq.as_deref(), ln),
                hana_sql::resolve_column(right, rq.as_deref(), rn),
            ) {
                return Ok((a, b));
            }
            if let (Ok(a), Ok(b)) = (
                hana_sql::resolve_column(left, rq.as_deref(), rn),
                hana_sql::resolve_column(right, lq.as_deref(), ln),
            ) {
                return Ok((a, b));
            }
        }
    }
    Err(HanaError::Stream(format!(
        "ESP join needs an equi ON, got {on}"
    )))
}

/// Enrich one event through the definition's reference joins; `None`
/// when an inner reference join finds no partner.
fn enrich(inner: &Inner, def: &OutStreamDef, row: &Row) -> Result<Option<Row>> {
    let mut acc = row.clone();
    for (ref_name, skey, rkey) in &def.ref_joins {
        let reference = inner
            .references
            .get(ref_name)
            .ok_or_else(|| HanaError::Stream(format!("reference '{ref_name}' vanished")))?;
        let key = &acc[*skey];
        let found = reference
            .rows
            .iter()
            .find(|r| !key.is_null() && &r[*rkey] == key);
        match found {
            Some(r) => acc = acc.concat(r.clone()),
            None => return Ok(None),
        }
    }
    Ok(Some(acc))
}

/// Parse a boolean expression (pattern steps).
fn parse_predicate(src: &str) -> Result<Expr> {
    let stmt = hana_sql::parse_statement(&format!("SELECT * FROM _s WHERE {src}"))?;
    match stmt {
        hana_sql::Statement::Query(q) => q
            .filter
            .ok_or_else(|| HanaError::Stream(format!("empty predicate '{src}'"))),
        _ => Err(HanaError::Stream(format!("bad predicate '{src}'"))),
    }
}

/// Parse a `Value::Null`-free comma-delimited archive line against a
/// schema (inverse of the HDFS sink format; replay helper).
pub fn parse_archive_line(line: &str, schema: &Schema) -> Option<Row> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != schema.len() {
        return None;
    }
    let mut vals = Vec::with_capacity(fields.len());
    for (f, c) in fields.iter().zip(schema.columns()) {
        vals.push(Value::parse_typed(f, c.data_type).ok()?);
    }
    Some(Row(vals))
}
