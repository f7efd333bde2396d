//! One in-process node: a table fragment plus its own execution pool.

use std::sync::Arc;

use parking_lot::RwLock;

use hana_columnar::{ColumnPredicate, ColumnTable, RowIdBitmap};
use hana_exec::{ExecConfig, ExecContext};
use hana_types::{Result, Row, Schema, Value};

/// One node's share of a located row set.
pub struct NodeHits {
    /// The node the rows live on.
    pub node: usize,
    /// Fragment-local row ids of the hits.
    pub ids: Vec<usize>,
    /// The hit rows, in `ids` order.
    pub rows: Vec<Row>,
}

/// One node of the landscape: fragment `id` of a distributed table,
/// owned exclusively by this node, scanned and merged on the node's own
/// [`ExecContext`] pool.
pub struct DistNode {
    id: usize,
    table: Arc<RwLock<ColumnTable>>,
    exec: Arc<ExecContext>,
}

impl DistNode {
    /// A node owning an empty fragment of `schema`, with `workers`
    /// local pool threads.
    pub fn new(id: usize, table_name: &str, schema: Schema, workers: usize) -> DistNode {
        let fragment = format!("{table_name}#p{id}");
        DistNode {
            id,
            table: Arc::new(RwLock::new(ColumnTable::new(&fragment, schema))),
            exec: ExecContext::new(ExecConfig::default().with_workers(workers.max(1))),
        }
    }

    /// This node's id (== its partition number).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's table fragment (shared with the write path: routed
    /// inserts buffer against this same handle).
    pub fn table(&self) -> &Arc<RwLock<ColumnTable>> {
        &self.table
    }

    /// The node's private execution context.
    pub fn exec(&self) -> &Arc<ExecContext> {
        &self.exec
    }

    /// Rows currently stored in the fragment (all versions).
    pub fn row_count(&self) -> usize {
        self.table.read().row_count()
    }

    /// Insert a row into the fragment.
    pub fn insert(&self, row: &[Value], cid: u64) -> Result<usize> {
        self.table.write().insert(row, cid)
    }

    /// Scan the fragment under `cid` with name-resolved predicates,
    /// materializing the hit rows.
    pub fn scan(&self, preds: &[(String, ColumnPredicate)], cid: u64) -> Result<Vec<Row>> {
        Ok(self.hits(preds, cid)?.1)
    }

    /// [`scan`](Self::scan) that keeps each hit's fragment-local row id
    /// next to its row (DML resolves its victims with them).
    pub fn locate(&self, preds: &[(String, ColumnPredicate)], cid: u64) -> Result<NodeHits> {
        let (hits, rows) = self.hits(preds, cid)?;
        Ok(NodeHits {
            node: self.id,
            ids: hits.iter().collect(),
            rows,
        })
    }

    /// The hit bitmap and the hit rows, scanned morsel by morsel on the
    /// node's own pool.
    fn hits(
        &self,
        preds: &[(String, ColumnPredicate)],
        cid: u64,
    ) -> Result<(RowIdBitmap, Vec<Row>)> {
        let t = self.table.read();
        let resolved: Vec<(usize, ColumnPredicate)> = preds
            .iter()
            .map(|(c, p)| t.schema().require(c).map(|i| (i, p.clone())))
            .collect::<Result<_>>()?;
        let hits = t.scan_all(&self.exec, &resolved, cid)?;
        let rows = t.collect_rows(hits.iter(), &[]);
        Ok((hits, rows))
    }

    /// Snapshot of all rows visible at `cid` (backup, gather-all).
    pub fn snapshot_rows(&self, cid: u64) -> Vec<Row> {
        self.table.read().snapshot_rows(cid)
    }

    /// Force a delta merge of the fragment.
    pub fn merge_delta(&self) {
        self.table.write().merge_delta();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_types::DataType;

    #[test]
    fn node_inserts_and_scans_its_fragment() {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let node = DistNode::new(2, "t", schema, 1);
        for i in 0..100 {
            node.insert(&[Value::Int(i), Value::Int(i * 10)], 1)
                .unwrap();
        }
        assert_eq!(node.id(), 2);
        assert_eq!(node.row_count(), 100);
        let hits = node
            .scan(&[("k".into(), ColumnPredicate::Lt(Value::Int(10)))], 2)
            .unwrap();
        assert_eq!(hits.len(), 10);
        node.merge_delta();
        assert_eq!(node.snapshot_rows(2).len(), 100);
    }
}
