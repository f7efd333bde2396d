//! The write path: every change to a table — INSERT, UPDATE, DELETE,
//! bulk load, streaming-ingest epoch, restore, aging, and the redo of
//! all of them — resolves the table once to a [`WriteTarget`] and
//! buffers through [`HanaPlatform::buffer`]; the in-memory half is the
//! "hana" two-phase-commit participant [`LocalWrites`], whose buffered
//! operations apply atomically at commit under the transaction's
//! commit ID. What a statement buffers it also logs, as typed records
//! of row images (see [`crate::redo`]); restore and redo log nothing.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use hana_columnar::{ColumnTable, InsertBatch};
use hana_dist::DistTable;
use hana_query::{locate_rows, Located, TableSource};
use hana_rowstore::RowTable;
use hana_sda::{RemoteContext, RetryPolicy};
use hana_sql::batch::{eval_batch, Batch};
use hana_sql::{BinOp, Expr};
use hana_txn::{CommitReceipt, TwoPhaseParticipant, TxnHandle, Vote};
use hana_types::{HanaError, Result, Row, Schema, Value};

use crate::catalog::TableKindInfo;
use crate::ingest::IngestCommit;
use crate::platform::HanaPlatform;
use crate::redo::{bulk_payload, rows_payload, RowOp, Side};
use crate::security::{Privilege, Session};

/// An in-memory fragment rows are inserted into and deleted from.
#[derive(Clone)]
pub(crate) enum Fragment {
    /// A column table: plain, the hot partition of a hybrid table, or
    /// one node's share of a distributed table.
    Column(Arc<RwLock<ColumnTable>>),
    /// A row table.
    Row(Arc<RwLock<RowTable>>),
}

impl Fragment {
    /// The fragment's identity: its address, stable while any buffered
    /// operation holds the `Arc`.
    fn addr(&self) -> usize {
        match self {
            Fragment::Column(t) => Arc::as_ptr(t) as usize,
            Fragment::Row(t) => Arc::as_ptr(t) as usize,
        }
    }

    /// Apply `ops`, all of them against this fragment, under `cid` and
    /// one write lock: a reader sees all of them or none, never an
    /// updated row's old image deleted and its new image still missing.
    /// A batch or row is moved out of its operation into the fragment.
    fn apply(&self, ops: &mut [LocalOp], cid: u64) -> Result<()> {
        match self {
            Fragment::Column(t) => {
                let mut t = t.write();
                ops.iter_mut().try_for_each(|op| match op {
                    LocalOp::Append { batch, .. } => t.append(std::mem::take(batch), cid).map(drop),
                    LocalOp::Delete { id, .. } => t.delete(*id, cid),
                    LocalOp::Insert { .. } => {
                        unreachable!("a row insert grouped with a column fragment")
                    }
                })
            }
            Fragment::Row(t) => {
                let mut t = t.write();
                ops.iter_mut().try_for_each(|op| match op {
                    LocalOp::Insert { row, .. } => t.insert(std::mem::take(row), cid).map(drop),
                    LocalOp::Delete { id, .. } => t.delete_slot(*id, cid),
                    LocalOp::Append { .. } => unreachable!("a batch grouped with a row fragment"),
                })
            }
        }
    }

    /// Whether row `id` exists and no commit has deleted it.
    fn is_live(&self, id: usize) -> bool {
        match self {
            Fragment::Column(t) => t.read().is_live(id),
            Fragment::Row(t) => t.read().is_live(id),
        }
    }
}

/// One buffered local operation. Its rows were checked against the
/// table's schema when it was staged ([`WriteTarget::stage`]).
pub(crate) enum LocalOp {
    /// Append one statement's rows, encoded, to a column fragment.
    Append {
        into: Arc<RwLock<ColumnTable>>,
        batch: InsertBatch,
    },
    /// Insert `row` into a row fragment.
    Insert {
        into: Arc<RwLock<RowTable>>,
        row: Vec<Value>,
    },
    /// Delete the (statement-time-resolved) row id / slot `id`.
    Delete { from: Fragment, id: usize },
}

impl LocalOp {
    /// The fragment the operation applies to.
    fn fragment(&self) -> Fragment {
        match self {
            LocalOp::Append { into, .. } => Fragment::Column(Arc::clone(into)),
            LocalOp::Insert { into, .. } => Fragment::Row(Arc::clone(into)),
            LocalOp::Delete { from, .. } => from.clone(),
        }
    }

    /// That fragment's address.
    fn addr(&self) -> usize {
        match self {
            LocalOp::Append { into, .. } => Arc::as_ptr(into) as usize,
            LocalOp::Insert { into, .. } => Arc::as_ptr(into) as usize,
            LocalOp::Delete { from, .. } => from.addr(),
        }
    }
}

/// The local-store participant. Writes buffer per transaction and become
/// visible only under the commit ID the coordinator assigns.
///
/// Write-write conflicts resolve **first committer wins**: `prepare`
/// claims every row the transaction deletes (a DELETE's victims, an
/// UPDATE's old images), and votes no when a row is already gone or
/// another prepared transaction holds it. A claim lasts until its
/// transaction's `commit` has applied or its `abort` has run, so no
/// transaction can pass `prepare` and then find its victim deleted
/// after the commit point.
#[derive(Default)]
pub(crate) struct LocalWrites {
    state: Mutex<WriteState>,
}

#[derive(Default)]
struct WriteState {
    pending: HashMap<u64, Vec<LocalOp>>,
    /// Rows claimed for deletion, `(fragment address, row id)` →
    /// claiming tid.
    claims: HashMap<(usize, usize), u64>,
}

impl WriteState {
    /// Drop the claims `tid` holds on the rows `ops` delete.
    fn release(&mut self, tid: u64, ops: &[LocalOp]) {
        for op in ops {
            if let LocalOp::Delete { from, id } = op {
                let key = (from.addr(), *id);
                if self.claims.get(&key) == Some(&tid) {
                    self.claims.remove(&key);
                }
            }
        }
    }
}

impl LocalWrites {
    /// A fresh participant.
    pub(crate) fn new() -> LocalWrites {
        LocalWrites::default()
    }

    /// Buffer operations for transaction `tid`.
    pub(crate) fn buffer(&self, tid: u64, mut ops: Vec<LocalOp>) {
        self.state
            .lock()
            .pending
            .entry(tid)
            .or_default()
            .append(&mut ops);
    }

    /// Buffered operation count for `tid`.
    #[cfg(test)]
    fn pending_ops(&self, tid: u64) -> usize {
        let state = self.state.lock();
        state.pending.get(&tid).map(Vec::len).unwrap_or(0)
    }
}

impl TwoPhaseParticipant for LocalWrites {
    fn name(&self) -> &str {
        "hana"
    }

    fn prepare(&self, tid: u64) -> Result<Vote> {
        // In-memory stores become durable through the coordinator's WAL
        // (logical logging). Prepare validates constraints *before* the
        // commit point so a no-vote can still abort the transaction:
        // primary-key uniqueness (against the latest state and within
        // the buffered batch) and write-write conflicts. Rows were
        // checked against their schema when staged. A no-vote leaves
        // its claims to the `abort` the coordinator sends every
        // participant.
        let mut state = self.state.lock();
        let WriteState { pending, claims } = &mut *state;
        let Some(ops) = pending.get(&tid).filter(|v| !v.is_empty()) else {
            return Ok(Vote::ReadOnly);
        };
        // A key whose row this transaction deleted before (an UPDATE's
        // old image) is free for its inserts, as commit applies a
        // fragment's operations in order.
        let mut freed: Vec<(usize, Value)> = Vec::new();
        let mut batch_keys: Vec<hana_types::Value> = Vec::new();
        for op in ops.iter() {
            match op {
                LocalOp::Append { .. } => {}
                LocalOp::Insert { into, row } => {
                    let t = into.read();
                    if let Some(pk) = t.pk_column() {
                        let key = &row[pk];
                        let latest = hana_txn::Snapshot::at(u64::MAX - 1);
                        if key.is_null() {
                            return Err(hana_types::HanaError::Storage(format!(
                                "primary key of '{}' must not be NULL",
                                t.name()
                            )));
                        }
                        let at = Arc::as_ptr(into) as usize;
                        let taken = t.get(key, latest).is_some()
                            && !freed.iter().any(|(a, k)| *a == at && k == key);
                        if taken || batch_keys.contains(key) {
                            return Err(hana_types::HanaError::Storage(format!(
                                "duplicate primary key {key} in '{}'",
                                t.name()
                            )));
                        }
                        batch_keys.push(key.clone());
                    }
                }
                LocalOp::Delete { from, id } => {
                    let key = (from.addr(), *id);
                    if !from.is_live(*id) || claims.contains_key(&key) {
                        return Err(HanaError::Transaction(format!(
                            "write-write conflict: row {id} was deleted or updated by a \
                             concurrent transaction (first committer wins)"
                        )));
                    }
                    claims.insert(key, tid);
                    if let Fragment::Row(t) = from {
                        let t = t.read();
                        let pk = t.pk_column().zip(t.slot_values(*id));
                        freed.extend(pk.map(|(pk, row)| (from.addr(), row.values()[pk].clone())));
                    }
                }
            }
        }
        Ok(Vote::Prepared)
    }

    fn commit(&self, tid: u64, cid: u64) -> Result<()> {
        let Some(mut ops) = self.state.lock().pending.remove(&tid) else {
            return Ok(());
        };
        // Fragment by fragment (the sort is stable: each fragment sees
        // its operations in statement order).
        ops.sort_by_key(LocalOp::addr);
        let applied = ops
            .chunk_by_mut(|a, b| a.addr() == b.addr())
            .try_for_each(|run| run[0].fragment().apply(run, cid));
        // Only now may another transaction's `prepare` look at these
        // rows: it finds them deleted.
        self.state.lock().release(tid, &ops);
        applied
    }

    fn abort(&self, tid: u64) -> Result<()> {
        let mut state = self.state.lock();
        if let Some(ops) = state.pending.remove(&tid) {
            state.release(tid, &ops);
        }
        Ok(())
    }
}

/// A table resolved for writing (§3.1: one logical table, whichever
/// stores hold it).
pub(crate) struct WriteTarget {
    /// The in-memory fragments: one column fragment (plain table, hot
    /// partition of a hybrid table), one per node of a distributed table
    /// (index = node id, the [`Located::fragment`] numbering), or the
    /// row fragment. Empty for a table held entirely by the extended
    /// store.
    local: Vec<Fragment>,
    /// The extended-store table behind it: the whole table, or the cold
    /// partition of a hybrid table.
    pub(crate) iq: Option<String>,
    /// The router, see [`route`](Self::route).
    pub(crate) dist: Option<Arc<DistTable>>,
    pub(crate) schema: Schema,
}

impl WriteTarget {
    /// Bucket `rows` by the fragment that takes them: a distributed
    /// table sends each row to its home node's fragment, which takes
    /// the rows over; every other table has one insert target, which
    /// reads them where they are.
    pub(crate) fn route<'a>(&self, rows: impl Into<Cow<'a, [Row]>>) -> Vec<Cow<'a, [Row]>> {
        match &self.dist {
            Some(dt) => (dt.bucket(rows.into().into_owned()).into_iter())
                .map(Cow::Owned)
                .collect(),
            None => vec![rows.into()],
        }
    }

    /// One statement's writes to this table, not yet buffered: the
    /// deletion of `victims` and the insertion of the `routed` rows.
    /// Every row bound for an in-memory fragment is checked against
    /// the schema here, once: a column fragment's rows are read where
    /// they are and encoded into one [`InsertBatch`] per fragment, and
    /// a row fragment's are checked one by one. Rows bound for the
    /// extended store are kept for it; it checks its own. Fails before
    /// anything is buffered.
    pub(crate) fn stage(&self, victims: &[Located], routed: Vec<Cow<'_, [Row]>>) -> Result<Staged> {
        let mut staged = Staged::default();
        for hit in victims {
            let from = &self.local[hit.fragment];
            let deletes = hit.ids.iter().map(|&id| LocalOp::Delete {
                from: from.clone(),
                id,
            });
            staged.local.extend(deletes);
        }
        for (home, rows) in routed.into_iter().enumerate() {
            match self.local.get(home) {
                _ if rows.is_empty() => {}
                Some(Fragment::Column(into)) => {
                    let batch = InsertBatch::encode(&self.schema, rows.iter().map(Row::values))?;
                    let into = Arc::clone(into);
                    staged.local.push(LocalOp::Append { into, batch });
                }
                Some(Fragment::Row(into)) => {
                    for Row(row) in rows.into_owned() {
                        self.schema.check_row(&row)?;
                        let into = Arc::clone(into);
                        staged.local.push(LocalOp::Insert { into, row });
                    }
                }
                None if self.iq.is_some() => staged.cold.extend(rows.into_owned()),
                None => {
                    return Err(HanaError::Storage(
                        "no partition of the table can hold the rows".into(),
                    ))
                }
            }
        }
        Ok(staged)
    }

    /// The same table with only its extended-store side: rows buffered
    /// against it go straight to the cold partition.
    pub(crate) fn cold(self) -> WriteTarget {
        WriteTarget {
            local: Vec::new(),
            dist: None,
            ..self
        }
    }
}

/// One statement's writes to a table, staged by
/// [`WriteTarget::stage`] and not yet buffered.
#[derive(Default)]
pub(crate) struct Staged {
    /// The operations on the in-memory fragments, rows checked.
    local: Vec<LocalOp>,
    /// Rows for the extended store.
    cold: Vec<Row>,
}

impl HanaPlatform {
    /// Resolve `table` for writing — the one place the write path looks
    /// at where a table's data lives.
    pub(crate) fn write_target(&self, table: &str) -> Result<WriteTarget> {
        let source = self.catalog.table(table)?.source;
        let column = |t: &Arc<RwLock<ColumnTable>>| Fragment::Column(Arc::clone(t));
        let (local, iq, dist) = match &source {
            TableSource::Column(t) => (vec![column(t)], None, None),
            TableSource::Row(t) => (vec![Fragment::Row(Arc::clone(t))], None, None),
            TableSource::Hybrid {
                hot, cold_table, ..
            } => (vec![column(hot)], Some(cold_table.clone()), None),
            TableSource::Extended { remote_table, .. } => {
                (Vec::new(), Some(remote_table.clone()), None)
            }
            TableSource::Distributed(dt) => (
                dt.nodes().iter().map(|n| column(n.table())).collect(),
                None,
                Some(Arc::clone(dt)),
            ),
            TableSource::Virtual { .. } => {
                return Err(HanaError::Unsupported(format!(
                    "virtual table '{table}' is read-only (no CAP_DML)"
                )))
            }
        };
        Ok(WriteTarget {
            local,
            iq,
            dist,
            schema: source.schema(),
        })
    }

    /// The one write routine: under transaction `tid`, buffer the
    /// deletion of `victims` (as [`locate_rows`] found them) from their
    /// fragments and the insertion of the `routed` rows (bucketed by
    /// [`WriteTarget::route`] or the repartition exchange) into theirs —
    /// or hand them to the extended store when the target has no
    /// in-memory side. It [stages](WriteTarget::stage) them, then
    /// buffers what it staged. Nothing is visible before commit.
    pub(crate) fn buffer(
        &self,
        tid: u64,
        target: &WriteTarget,
        victims: &[Located],
        routed: Vec<Cow<'_, [Row]>>,
    ) -> Result<()> {
        let staged = target.stage(victims, routed)?;
        self.buffer_staged(tid, target, staged)
    }

    /// Buffer what [`WriteTarget::stage`] staged against `target` under
    /// transaction `tid`: the local operations cannot fail; the
    /// extended store can refuse its rows.
    pub(crate) fn buffer_staged(
        &self,
        tid: u64,
        target: &WriteTarget,
        staged: Staged,
    ) -> Result<()> {
        self.local_writes.buffer(tid, staged.local);
        match &target.iq {
            Some(iq_table) if !staged.cold.is_empty() => {
                self.iq.buffer_insert(tid, iq_table, staged.cold)
            }
            _ => Ok(()),
        }
    }

    /// The rows of `target`'s in-memory fragments that `filter` selects
    /// under `cid`, found with the access path SELECT would use.
    pub(crate) fn locate(
        &self,
        table: &str,
        target: &WriteTarget,
        filter: Option<&Expr>,
        cid: u64,
    ) -> Result<Vec<Located>> {
        if target.local.is_empty() {
            return Ok(Vec::new());
        }
        locate_rows(&self.exec, self.catalog.as_ref(), table, filter, cid)
    }

    /// Run `f` in a fresh transaction: commit on success, abort on
    /// failure so a retry starts from a clean slate.
    pub(crate) fn in_txn<T>(
        &self,
        f: impl FnOnce(&TxnHandle) -> Result<T>,
    ) -> Result<(T, CommitReceipt)> {
        let txn = self.tm.begin();
        match f(&txn) {
            Ok(v) => Ok((v, self.tm.commit(txn, &self.participants())?)),
            Err(e) => {
                let _ = self.tm.abort(txn, &self.participants());
                Err(e)
            }
        }
    }

    /// Log, as one record of transaction `tid`, the row images `rows`
    /// inserted into or deleted from `side` of `table` (nothing for no
    /// rows). No record may outlive a failed buffer call in a
    /// transaction that goes on, as an explicit one does after a failed
    /// statement: DML logs an insert once it is buffered (staging checks
    /// its rows, and the extended store can refuse them), and images
    /// of staged writes, whose buffering cannot fail, just before.
    fn log_rows<'a>(
        &self,
        tid: u64,
        op: RowOp,
        table: &str,
        side: Side,
        rows: impl IntoIterator<Item = &'a Row>,
    ) -> Result<()> {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return Ok(());
        }
        self.tm
            .log_data(tid, "hana", || rows_payload(op, table, side, rows))
    }

    // ---- DML ----

    pub(crate) fn dml_insert(
        &self,
        tid: u64,
        table: &str,
        columns: Option<&[String]>,
        value_rows: &[Vec<Expr>],
    ) -> Result<usize> {
        let target = self.write_target(table)?;
        let schema = &target.schema;
        let positions = columns.map(|cols| cols.iter().map(|c| schema.require(c)).collect());
        let positions: Option<Vec<usize>> = positions.transpose()?;
        // A VALUES item reads no column: one that names one is unknown.
        // Each is computed over one row of nothing.
        let (empty, one) = (Schema::default(), Batch::new(Vec::new(), 1));
        let value = |e: &Expr| {
            Ok(eval_batch(&e.resolve(&empty, &[])?, &one, &[0], &[])?
                .get(0)
                .into_owned())
        };
        let mut rows = Vec::with_capacity(value_rows.len());
        for exprs in value_rows {
            let values: Vec<Value> = exprs.iter().map(value).collect::<Result<_>>()?;
            let row = match &positions {
                None => values,
                Some(at) => {
                    if at.len() != values.len() {
                        return Err(HanaError::Execution(format!(
                            "{} columns but {} values",
                            at.len(),
                            values.len()
                        )));
                    }
                    let mut full = vec![Value::Null; schema.len()];
                    for (&i, v) in at.iter().zip(values) {
                        full[i] = v;
                    }
                    full
                }
            };
            rows.push(Row(row));
        }
        // Logged once buffered: staging checks the rows, and the
        // extended store can refuse them.
        self.buffer(tid, &target, &[], target.route(&rows))?;
        self.log_rows(tid, RowOp::Insert, table, Side::Local, &rows)?;
        Ok(rows.len())
    }

    pub(crate) fn dml_delete(
        &self,
        tid: u64,
        cid: u64,
        table: &str,
        filter: Option<&Expr>,
    ) -> Result<usize> {
        let target = self.write_target(table)?;
        // The extended store resolves its own victims, from pushed-down
        // predicates only; refuse before anything is buffered.
        let pushed = match (&target.iq, filter) {
            (Some(_), Some(f)) => {
                let (pushed, residual) = hana_sda::split_pushdown(f);
                if !residual.is_empty() {
                    return Err(HanaError::Unsupported(format!(
                        "DELETE filter not fully pushable to the extended store: {residual:?}"
                    )));
                }
                pushed
            }
            _ => Vec::new(),
        };
        let victims = self.locate(table, &target, filter, cid)?;
        let mut n: usize = victims.iter().map(|hit| hit.ids.len()).sum();
        let images = victims.iter().flat_map(|hit| &hit.rows);
        self.log_rows(tid, RowOp::Delete, table, Side::Local, images)?;
        self.buffer(tid, &target, &victims, Vec::new())?;
        if let Some(iq_table) = &target.iq {
            // Victims' images are read only for a log that stores them.
            let mut all = |_: &Row| true;
            let keep: Option<&mut dyn FnMut(&Row) -> bool> =
                (!self.tm.wal().is_volatile()).then_some(&mut all);
            let (deleted, images) = self.iq.buffer_delete(tid, iq_table, &pushed, cid, keep)?;
            n += deleted;
            self.log_rows(tid, RowOp::Delete, table, Side::Extended, &images)?;
        }
        Ok(n)
    }

    /// UPDATE = delete the located rows + insert their new images, each
    /// re-routed (a partition-key update may move a row to another
    /// node). Hybrid tables update their hot partition; cold data is
    /// read-mostly ("rarely accessed", §3.1) and must be un-aged before
    /// modification.
    pub(crate) fn dml_update(
        &self,
        tid: u64,
        cid: u64,
        table: &str,
        assignments: &[(String, Expr)],
        filter: Option<&Expr>,
    ) -> Result<usize> {
        let target = self.write_target(table)?;
        if target.local.is_empty() {
            return Err(HanaError::Unsupported(format!(
                "UPDATE is supported on local tables only, not '{table}'"
            )));
        }
        let schema = &target.schema;
        // Targets and values are resolved once, before any row is located.
        let resolve =
            |(col, e): &(String, Expr)| Ok((schema.require(col)?, e.resolve(schema, &[])?));
        let assignments = assignments
            .iter()
            .map(resolve)
            .collect::<Result<Vec<_>>>()?;
        let victims = self.locate(table, &target, filter, cid)?;
        // The located rows as one batch; every new value is computed
        // over all of them, from the old values.
        let old = victims.iter().flat_map(|hit| hit.rows.iter().cloned());
        let mut rows = Batch::from_rows(old.collect(), schema.len());
        let new =
            |(at, e): &(usize, Expr)| Ok((*at, eval_batch(e, &rows, &rows.sel, &[])?.into_owned()));
        let new = assignments.iter().map(new).collect::<Result<Vec<_>>>()?;
        for (at, column) in new {
            rows.columns[at] = column;
        }
        let mut images = Vec::new();
        rows.push_rows(&mut images);
        // Staged (which checks the new images) before anything is
        // logged, and logged before it is buffered.
        let staged = target.stage(&victims, target.route(&images))?;
        let old = victims.iter().flat_map(|hit| &hit.rows);
        self.log_rows(tid, RowOp::Delete, table, Side::Local, old)?;
        self.log_rows(tid, RowOp::Insert, table, Side::Local, &images)?;
        self.buffer_staged(tid, &target, staged)?;
        Ok(images.len())
    }

    // ---- bulk load ----

    /// Bulk-load rows through a single transaction. For extended tables
    /// this is the §3.1 **direct load** path ("directly moves the data
    /// into the external store without taking a detour via the in-memory
    /// store"). Traced as `bulk_load[<table>]`, whose phases are
    /// `encode`, `commit`, `statistics` and `checkpoint`.
    pub fn load_rows(&self, session: &Session, table: &str, rows: &[Row]) -> Result<usize> {
        self.security.check(session, Privilege::Write)?;
        let _load = hana_obs::span_with(|| format!("bulk_load[{table}]"));
        let phase = hana_obs::span("encode");
        let target = self.write_target(table)?;
        let staged = self.bulk_stage(&target, rows)?;
        let phase = phase.next("commit");
        self.bulk_commit(table, &target, staged, rows, None)?;
        // Bulk load is a natural statistics trigger (§3.1 synopses):
        // ESP table sinks funnel through here too.
        let phase = phase.next("statistics");
        self.refresh_statistics(table)?;
        // Bulk load is also a checkpoint barrier: the snapshot it
        // triggers keeps recovery from replaying the (potentially large)
        // load payload ever again.
        let _phase = phase.next("checkpoint");
        self.maybe_checkpoint();
        Ok(rows.len())
    }

    /// Stage `rows` for a bulk transaction on `target`, before it
    /// begins: rows bound for a distributed table cross the repartition
    /// exchange to their home nodes (accounted and fault-checked like
    /// any shuffle); the others are read where they are. Every row is
    /// checked once, in [`WriteTarget::stage`].
    fn bulk_stage(&self, target: &WriteTarget, rows: &[Row]) -> Result<Staged> {
        let routed = match &target.dist {
            None => target.route(rows),
            Some(dt) => {
                let ctx = RemoteContext::snapshot(self.tm.current_snapshot().cid());
                let policy = RetryPolicy::default();
                let homed = hana_dist::repartition(dt, &ctx, &policy, rows.to_vec())?;
                homed.into_iter().map(Cow::Owned).collect()
            }
        };
        target.stage(&[], routed)
    }

    /// The one bulk transaction sequence, shared by
    /// [`load_rows`](Self::load_rows) and
    /// [`commit_ingest_batch`](Self::commit_ingest_batch): begin →
    /// buffer what [`bulk_stage`](Self::bulk_stage) staged → log →
    /// commit, aborting on any failure before the commit point. The
    /// coordinator's `bulk` record carries the rows of every table, so
    /// one log decides and redoes every load. Returns the commit ID.
    fn bulk_commit(
        &self,
        table: &str,
        target: &WriteTarget,
        staged: Staged,
        rows: &[Row],
        ingest: Option<(&str, u64)>,
    ) -> Result<u64> {
        let ((), receipt) = self.in_txn(|txn| {
            self.buffer_staged(txn.tid, target, staged)?;
            self.tm
                .log_data(txn.tid, "hana", || bulk_payload(table, ingest, rows))
        })?;
        Ok(receipt.cid)
    }

    // ---- streaming ingest (exactly-once epochs) ----

    /// Commit one streaming-ingest batch under `(pipeline, epoch)`,
    /// exactly once: if the ledger already covers `epoch` (producer
    /// retry after a lost ack, or WAL replay), nothing is applied and
    /// [`IngestCommit::Deduplicated`] is returned. Otherwise the rows
    /// go through the bulk transaction sequence of
    /// [`load_rows`](Self::load_rows) with the epoch stamped into its
    /// log record, and the ledger advances — all under the epoch fence,
    /// so a concurrent checkpoint cut (MERGE DELTA, bulk load) sees
    /// either none or all of the epoch.
    ///
    /// Deliberately *not* per-batch: statistics refresh (a catalog
    /// version bump would invalidate every cached session plan on each
    /// micro-batch) and checkpointing (a full snapshot per batch).
    /// Delta merges and explicit checkpoints cover both at a sane
    /// cadence.
    pub fn commit_ingest_batch(
        &self,
        session: &Session,
        pipeline: &str,
        epoch: u64,
        table: &str,
        rows: &[Row],
    ) -> Result<IngestCommit> {
        self.security.check(session, Privilege::Stream)?;
        // Staged before the ledger is read: a bad row is an error, not
        // a duplicate.
        let target = self.write_target(table)?;
        let staged = self.bulk_stage(&target, rows)?;
        let _fence = self.ingest.fence();
        let last = self.ingest.last_epoch(pipeline);
        if epoch <= last {
            hana_obs::registry()
                .counter("hana_ingest_epochs_deduped_total")
                .inc();
            return Ok(IngestCommit::Deduplicated { last_epoch: last });
        }
        let cid = self.bulk_commit(table, &target, staged, rows, Some((pipeline, epoch)))?;
        self.ingest.note(pipeline, epoch);
        hana_obs::registry()
            .counter("hana_ingest_epochs_committed_total")
            .inc();
        hana_obs::registry()
            .counter("hana_ingest_rows_committed_total")
            .add(rows.len() as u64);
        Ok(IngestCommit::Committed { cid })
    }

    // ---- aging (§3.1 "built-in aging mechanism") ----

    /// Move rows whose aging flag is set from the hot partition to the
    /// cold (extended) partition of a hybrid table. Returns moved rows.
    pub fn run_aging(&self, session: &Session, table: &str) -> Result<usize> {
        self.security.check(session, Privilege::Write)?;
        let TableKindInfo::Hybrid { aging_column, .. } = self.catalog.table(table)?.kind else {
            return Err(HanaError::Unsupported(format!(
                "'{table}' is not a hybrid table"
            )));
        };
        let target = self.write_target(table)?;
        let flagged = Expr::Binary {
            left: Box::new(Expr::col(&aging_column)),
            op: BinOp::Eq,
            right: Box::new(Expr::lit(true)),
        };
        let cid = self.tm.current_snapshot().cid();
        let mut victims = self.locate(table, &target, Some(&flagged), cid)?;
        let rows: Vec<Row> = victims
            .iter_mut()
            .flat_map(|hit| std::mem::take(&mut hit.rows))
            .collect();
        if rows.is_empty() {
            return Ok(0);
        }
        let moved = rows.len();
        self.in_txn(|txn| {
            self.log_rows(txn.tid, RowOp::Delete, table, Side::Local, &rows)?;
            self.buffer(txn.tid, &target, &victims, Vec::new())?;
            self.log_rows(txn.tid, RowOp::Insert, table, Side::Extended, &rows)?;
            let cold = target.cold();
            self.buffer(txn.tid, &cold, &[], cold.route(rows))
        })?;
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_txn::TransactionManager;
    use hana_types::{DataType, Schema};

    /// An append of the one-value row `v` to `table`.
    fn append(table: &Arc<RwLock<ColumnTable>>, v: Value) -> LocalOp {
        let batch = InsertBatch::encode(table.read().schema(), [&[v][..]]).unwrap();
        let into = Arc::clone(table);
        LocalOp::Append { into, batch }
    }

    #[test]
    fn writes_apply_only_at_commit() {
        let tm = TransactionManager::new();
        let table = Arc::new(RwLock::new(ColumnTable::new(
            "t",
            Schema::of(&[("a", DataType::Int)]),
        )));
        let writes = Arc::new(LocalWrites::new());
        let txn = tm.begin();
        writes.buffer(txn.tid, vec![append(&table, Value::Int(1))]);
        assert_eq!(table.read().row_count(), 0, "not yet");
        let parts: Vec<Arc<dyn TwoPhaseParticipant>> = vec![writes.clone()];
        let receipt = tm.commit(txn, &parts).unwrap();
        assert_eq!(table.read().visible(receipt.cid).count(), 1);
        assert_eq!(table.read().visible(receipt.cid - 1).count(), 0);
    }

    #[test]
    fn abort_discards_buffered_ops() {
        let tm = TransactionManager::new();
        let table = Arc::new(RwLock::new(ColumnTable::new(
            "t",
            Schema::of(&[("a", DataType::Int)]),
        )));
        let writes = Arc::new(LocalWrites::new());
        let txn = tm.begin();
        writes.buffer(txn.tid, vec![append(&table, Value::Int(1))]);
        assert_eq!(writes.pending_ops(txn.tid), 1);
        let parts: Vec<Arc<dyn TwoPhaseParticipant>> = vec![writes.clone()];
        tm.abort(txn, &parts).unwrap();
        assert_eq!(writes.pending_ops(txn.tid), 0);
        assert_eq!(table.read().row_count(), 0);
    }

    #[test]
    fn read_only_vote_without_ops() {
        let writes = LocalWrites::new();
        assert_eq!(writes.prepare(99).unwrap(), Vote::ReadOnly);
    }
}
