//! The three exchange operators: repartition, broadcast, gather.
//!
//! Every exchange runs on the coordinator thread under an
//! `exchange[<kind>]` observability span carrying the rows and bytes
//! shuffled, and every shipped payload crosses a [`Link`] — so chunk
//! bounds, deadlines, retries and injected faults apply uniformly. The
//! global counters `hana_dist_rows_shuffled_total` /
//! `hana_dist_bytes_shuffled_total` accumulate across all exchanges.

use hana_sda::{RemoteContext, RetryPolicy};
use hana_types::{Result, Row};

use crate::link::Link;
use crate::table::DistTable;

/// Payload bytes of one row (the per-value storage footprint, the same
/// figure `ResultSet::approx_bytes` reports).
pub(crate) fn row_bytes(r: &Row) -> u64 {
    r.values().iter().map(|v| v.storage_bytes() as u64).sum()
}

/// Ship `items` across `link` and account them as shuffled payload in
/// the global registry. This is the accounting primitive all three
/// exchange operators (and the partial-aggregate shuffle in
/// `hana-query`) are built on.
pub fn transfer_accounted<T: Clone>(
    link: &Link,
    ctx: &RemoteContext,
    policy: &RetryPolicy,
    what: &str,
    items: Vec<T>,
    bytes_of: impl Fn(&T) -> u64,
) -> Result<(Vec<T>, u64)> {
    let count = items.len() as u64;
    let bytes: u64 = items.iter().map(&bytes_of).sum();
    let delivered = link.transfer(ctx, policy, what, items, bytes_of)?;
    let reg = hana_obs::registry();
    reg.counter("hana_dist_rows_shuffled_total").add(count);
    reg.counter("hana_dist_bytes_shuffled_total").add(bytes);
    Ok((delivered, bytes))
}

/// Gather: pull each node's rows to the coordinator over its link,
/// concatenated in node order.
pub fn gather(
    table: &DistTable,
    ctx: &RemoteContext,
    policy: &RetryPolicy,
    parts: Vec<(usize, Vec<Row>)>,
) -> Result<Vec<Row>> {
    let span = hana_obs::span("exchange[gather]");
    span.attr("nodes", parts.len() as u64);
    let mut out = Vec::new();
    let mut bytes = 0;
    for (node, rows) in parts {
        let (delivered, b) = transfer_accounted(
            table.link(node),
            ctx,
            policy,
            &format!("gather[{}#p{node}]", table.name()),
            rows,
            row_bytes,
        )?;
        bytes += b;
        out.extend(delivered);
    }
    span.set_rows(out.len() as u64);
    span.set_bytes(bytes);
    Ok(out)
}

/// Broadcast: replicate `rows` to every target node (small build sides
/// of distributed joins), returning each node's delivered copy.
pub fn broadcast(
    table: &DistTable,
    ctx: &RemoteContext,
    policy: &RetryPolicy,
    rows: &[Row],
    targets: &[usize],
) -> Result<Vec<(usize, Vec<Row>)>> {
    let span = hana_obs::span("exchange[broadcast]");
    span.attr("nodes", targets.len() as u64);
    let mut out = Vec::with_capacity(targets.len());
    let mut total_rows = 0u64;
    let mut total_bytes = 0u64;
    for &node in targets {
        let (delivered, b) = transfer_accounted(
            table.link(node),
            ctx,
            policy,
            &format!("broadcast[{}#p{node}]", table.name()),
            rows.to_vec(),
            row_bytes,
        )?;
        total_rows += delivered.len() as u64;
        total_bytes += b;
        out.push((node, delivered));
    }
    span.set_rows(total_rows);
    span.set_bytes(total_bytes);
    Ok(out)
}

/// Repartition (hash shuffle): bucket `rows` by the table's partition
/// spec and ship each bucket to its home node, returning the delivered
/// buckets in node order. This is also the routed bulk-load path.
pub fn repartition(
    table: &DistTable,
    ctx: &RemoteContext,
    policy: &RetryPolicy,
    rows: Vec<Row>,
) -> Result<Vec<Vec<Row>>> {
    let span = hana_obs::span("exchange[repartition]");
    span.attr("nodes", table.node_count() as u64);
    let buckets = table.bucket(rows);
    let mut out = Vec::with_capacity(buckets.len());
    let mut total_rows = 0u64;
    let mut total_bytes = 0u64;
    for (node, bucket) in buckets.into_iter().enumerate() {
        if bucket.is_empty() {
            // Nothing homed at this node: skip the handshake entirely
            // (an empty bucket is not an exchange).
            out.push(Vec::new());
            continue;
        }
        let (delivered, b) = transfer_accounted(
            table.link(node),
            ctx,
            policy,
            &format!("repartition[{}#p{node}]", table.name()),
            bucket,
            row_bytes,
        )?;
        total_rows += delivered.len() as u64;
        total_bytes += b;
        out.push(delivered);
    }
    span.set_rows(total_rows);
    span.set_bytes(total_bytes);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use hana_types::{DataType, Schema, Value};

    fn table() -> DistTable {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        DistTable::new(
            "x",
            schema,
            PartitionSpec::Hash {
                column: "k".into(),
                partitions: 3,
            },
        )
        .unwrap()
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| Row::from_values([Value::Int(i), Value::Int(i * 2)]))
            .collect()
    }

    #[test]
    fn repartition_routes_every_row_exactly_once() {
        let t = table();
        let ctx = RemoteContext::snapshot(1);
        let buckets = repartition(&t, &ctx, &RetryPolicy::none(), rows(99)).unwrap();
        assert_eq!(buckets.len(), 3);
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, 99);
        for (node, bucket) in buckets.iter().enumerate() {
            for row in bucket {
                assert_eq!(t.route(row.values()), node, "row landed at its home node");
            }
        }
    }

    #[test]
    fn broadcast_replicates_to_all_targets() {
        let t = table();
        let ctx = RemoteContext::snapshot(1);
        let copies = broadcast(&t, &ctx, &RetryPolicy::none(), &rows(10), &[0, 1, 2]).unwrap();
        assert_eq!(copies.len(), 3);
        for (_, copy) in &copies {
            assert_eq!(copy.len(), 10);
        }
    }

    #[test]
    fn gather_concatenates_and_accounts() {
        let t = table();
        let ctx = RemoteContext::snapshot(1);
        let before = hana_obs::registry()
            .counter("hana_dist_rows_shuffled_total")
            .get();
        let parts = vec![(0, rows(5)), (2, rows(7))];
        let out = gather(&t, &ctx, &RetryPolicy::none(), parts).unwrap();
        assert_eq!(out.len(), 12);
        let after = hana_obs::registry()
            .counter("hana_dist_rows_shuffled_total")
            .get();
        // The exact accounting is asserted on the links this test owns;
        // sibling tests move the process-global counter concurrently, so
        // it only bounds from below.
        assert_eq!(t.link(0).stats().rows, 5);
        assert_eq!(t.link(1).stats().rows, 0);
        assert_eq!(t.link(2).stats().rows, 7);
        assert!(after - before >= 12);
    }
}
