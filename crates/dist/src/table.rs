//! A partitioned table: N node fragments behind one logical name.

use std::sync::Arc;

use hana_columnar::ColumnPredicate;
use hana_types::{Result, Row, Schema, Value};

use crate::link::Link;
use crate::node::{DistNode, NodeHits};
use crate::partition::PartitionSpec;

/// Default worker threads per node pool.
const DEFAULT_NODE_WORKERS: usize = 2;

/// Per-node scan output: `(node_id, rows)` for each surviving fragment.
pub type NodeParts = Vec<(usize, Vec<Row>)>;

/// The outcome of partition pruning for one scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneOutcome {
    /// Candidate mask: `mask[i]` = node `i` must be scanned.
    pub mask: Vec<bool>,
    /// Nodes scanned.
    pub scanned: u64,
    /// Nodes skipped entirely.
    pub pruned: u64,
}

/// A distributed table: one [`PartitionSpec`], N [`DistNode`]s owning
/// the fragments, and one coordinator [`Link`] per node for exchanges.
pub struct DistTable {
    name: String,
    schema: Schema,
    spec: PartitionSpec,
    key_col: usize,
    nodes: Vec<Arc<DistNode>>,
    links: Vec<Arc<Link>>,
}

impl DistTable {
    /// Build an empty distributed table. Fails if the partitioning
    /// column is not part of the schema.
    pub fn new(name: &str, schema: Schema, spec: PartitionSpec) -> Result<DistTable> {
        let key_col = schema.require(spec.column())?;
        let n = spec.partitions();
        let nodes = (0..n)
            .map(|id| {
                Arc::new(DistNode::new(
                    id,
                    name,
                    schema.clone(),
                    DEFAULT_NODE_WORKERS,
                ))
            })
            .collect();
        let links = (0..n)
            .map(|id| Arc::new(Link::new(usize::MAX, id)))
            .collect();
        Ok(DistTable {
            name: name.to_string(),
            schema,
            spec,
            key_col,
            nodes,
            links,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema (identical on every node).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partition spec.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Index of the partitioning column in the schema.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// The nodes of the landscape.
    pub fn nodes(&self) -> &[Arc<DistNode>] {
        &self.nodes
    }

    /// Number of nodes (== partitions).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The coordinator↔node links (index = node id).
    pub fn links(&self) -> &[Arc<Link>] {
        &self.links
    }

    /// The coordinator link to one node.
    pub fn link(&self, node: usize) -> &Arc<Link> {
        &self.links[node]
    }

    /// Total row count across all fragments (all versions).
    pub fn row_count(&self) -> usize {
        self.nodes.iter().map(|n| n.row_count()).sum()
    }

    /// The node a row routes to.
    pub fn route(&self, row: &[Value]) -> usize {
        self.spec.partition_of(&row[self.key_col])
    }

    /// Bucket `rows` by home node, in node order.
    pub fn bucket(&self, rows: Vec<Row>) -> Vec<Vec<Row>> {
        let mut buckets: Vec<Vec<Row>> = (0..self.node_count()).map(|_| Vec::new()).collect();
        for row in rows {
            buckets[self.route(row.values())].push(row);
        }
        buckets
    }

    /// Insert one row at its home node.
    pub fn insert(&self, row: &[Value], cid: u64) -> Result<usize> {
        self.nodes[self.route(row)].insert(row, cid)
    }

    /// Snapshot of every fragment's visible rows, in node order.
    pub fn snapshot_rows(&self, cid: u64) -> Vec<Row> {
        self.nodes
            .iter()
            .flat_map(|n| n.snapshot_rows(cid))
            .collect()
    }

    /// Force a delta merge on every node.
    pub fn merge_delta(&self) {
        for n in &self.nodes {
            n.merge_delta();
        }
    }

    /// Partition pruning for a predicate set: intersect the candidate
    /// masks of every predicate on the partitioning column. Updates the
    /// global `hana_dist_partitions_{scanned,pruned}_total` counters.
    pub fn prune(&self, preds: &[(String, ColumnPredicate)]) -> PruneOutcome {
        let mut mask = vec![true; self.node_count()];
        for (col, pred) in preds {
            if col != self.spec.column() {
                continue;
            }
            if let Some(candidates) = self.spec.prune(pred) {
                for (m, c) in mask.iter_mut().zip(&candidates) {
                    *m &= *c;
                }
            }
        }
        let scanned = mask.iter().filter(|&&b| b).count() as u64;
        let pruned = mask.len() as u64 - scanned;
        let reg = hana_obs::registry();
        reg.counter("hana_dist_partitions_scanned_total")
            .add(scanned);
        reg.counter("hana_dist_partitions_pruned_total").add(pruned);
        PruneOutcome {
            mask,
            scanned,
            pruned,
        }
    }

    /// Scan the surviving fragments locally (each node on its own
    /// pool), returning `(node_id, rows)` per scanned node. The caller
    /// gathers the per-node results through the links — see
    /// [`crate::gather`].
    pub fn scan_partitions(
        &self,
        preds: &[(String, ColumnPredicate)],
        cid: u64,
    ) -> Result<(PruneOutcome, NodeParts)> {
        self.on_survivors(preds, |node| Ok((node.id(), node.scan(preds, cid)?)))
    }

    /// [`scan_partitions`](Self::scan_partitions) that keeps each hit's
    /// fragment-local row id next to its row: UPDATE/DELETE prune and
    /// scan exactly like the equivalent SELECT, then buffer their
    /// victims against the owning node.
    pub fn locate_partitions(
        &self,
        preds: &[(String, ColumnPredicate)],
        cid: u64,
    ) -> Result<(PruneOutcome, Vec<NodeHits>)> {
        self.on_survivors(preds, |node| node.locate(preds, cid))
    }

    /// Prune with `preds`, then run `f` on every surviving node.
    fn on_survivors<T>(
        &self,
        preds: &[(String, ColumnPredicate)],
        f: impl Fn(&DistNode) -> Result<T>,
    ) -> Result<(PruneOutcome, Vec<T>)> {
        let outcome = self.prune(preds);
        let mut out = Vec::new();
        for (node, keep) in self.nodes.iter().zip(&outcome.mask) {
            if *keep {
                out.push(f(node)?);
            }
        }
        Ok((outcome, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_types::DataType;

    fn table(spec: PartitionSpec) -> DistTable {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let t = DistTable::new("t", schema, spec).unwrap();
        for i in 0..200 {
            t.insert(&[Value::Int(i % 40), Value::Int(i)], 1).unwrap();
        }
        t
    }

    #[test]
    fn routing_covers_all_nodes_and_rows() {
        let t = table(PartitionSpec::Hash {
            column: "k".into(),
            partitions: 4,
        });
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.row_count(), 200);
        assert!(t.nodes().iter().all(|n| n.row_count() > 0));
        assert_eq!(t.snapshot_rows(2).len(), 200);
    }

    #[test]
    fn unknown_partition_column_is_rejected() {
        let schema = Schema::of(&[("k", DataType::Int)]);
        assert!(DistTable::new(
            "t",
            schema,
            PartitionSpec::Hash {
                column: "missing".into(),
                partitions: 2,
            },
        )
        .is_err());
    }

    #[test]
    fn eq_predicate_prunes_to_one_node() {
        let t = table(PartitionSpec::Hash {
            column: "k".into(),
            partitions: 4,
        });
        let preds = vec![("k".to_string(), ColumnPredicate::Eq(Value::Int(7)))];
        let (outcome, parts) = t.scan_partitions(&preds, 2).unwrap();
        assert_eq!(outcome.scanned, 1);
        assert_eq!(outcome.pruned, 3);
        let rows: usize = parts.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(rows, 5, "k==7 occurs 5 times in 0..200 mod 40");
    }

    #[test]
    fn range_scan_prunes_by_split_points() {
        let t = table(PartitionSpec::Range {
            column: "k".into(),
            split_points: vec![Value::Int(10), Value::Int(20), Value::Int(30)],
        });
        let preds = vec![("k".to_string(), ColumnPredicate::Lt(Value::Int(10)))];
        let (outcome, parts) = t.scan_partitions(&preds, 2).unwrap();
        assert_eq!(outcome.scanned, 1);
        assert_eq!(outcome.pruned, 3);
        let rows: usize = parts.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(rows, 50, "k in 0..10, five occurrences each");
    }

    #[test]
    fn unprunable_predicate_scans_everything() {
        let t = table(PartitionSpec::Hash {
            column: "k".into(),
            partitions: 4,
        });
        let preds = vec![("v".to_string(), ColumnPredicate::Lt(Value::Int(100)))];
        let (outcome, parts) = t.scan_partitions(&preds, 2).unwrap();
        assert_eq!(outcome.scanned, 4);
        assert_eq!(outcome.pruned, 0);
        let rows: usize = parts.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(rows, 100);
    }
}
