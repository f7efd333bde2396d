//! Redo: the typed records the platform logs and checkpoints, and the
//! one routine that applies them.
//!
//! Every `LogRecord::Data` payload the platform writes is one record of
//! [`hana_types::encode_record`]: a head of plain values naming what
//! happened, then the row images it happened to.
//!
//! ```text
//! insert <table> <side>                       <rows inserted>
//! delete <table> <side>                       <rows deleted>
//! bulk   <table> <pipeline> <epoch> <inline>  <rows, when inline>
//! ddl    <the statement's own text>
//! epoch  <pipeline> <epoch>                   (checkpoints only)
//! ```
//!
//! `side` is `local` or `extended` ([`Side`]). A bulk record's
//! `pipeline` is NULL for a plain bulk load. Its `inline` is always
//! true: the rows of every load, into a distributed table too, are in
//! the record. An older build logged a distributed load with `inline`
//! false and its rows in per-partition logs; redo refuses such a record
//! as an older format. A checkpoint is a sequence of these
//! records too ([`crate::durability`]): per table its `ddl`, its live
//! rows as `insert` records and its indexes as `ddl`, plus one `epoch`
//! record per ingest pipeline, the highest epoch the snapshot holds.
//!
//! [`HanaPlatform::redo_log`] applies the committed transactions of a
//! log in CID order, each through [`HanaPlatform::redo_txn`]. Redo
//! appends nothing to any log; the one text it parses is a `ddl`
//! record's statement.

use std::collections::{HashMap, HashSet};

use hana_sql::{parse_statement, BinOp, Expr};
use hana_txn::{LogRecord, RecoveryReport};
use hana_types::{
    decode_record, decode_rows, encode_record, HanaError, Result, Row, Schema, Value,
};

use crate::durability::older_format;
use crate::platform::HanaPlatform;

/// Which store of a table a row record is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The in-memory fragments, as DML routes to them: an insert into a
    /// table that has none lands in its extended store.
    Local,
    /// The extended store: the whole table, or a hybrid table's cold
    /// partition.
    Extended,
}

/// Whether a row record inserts or deletes its images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowOp {
    Insert,
    Delete,
}

/// The payload of a row record: `rows` inserted into or deleted from
/// `side` of `table`.
pub(crate) fn rows_payload<'a>(
    op: RowOp,
    table: &str,
    side: Side,
    rows: impl IntoIterator<Item = &'a Row>,
) -> String {
    let op = match op {
        RowOp::Insert => "insert",
        RowOp::Delete => "delete",
    };
    let side = match side {
        Side::Local => "local",
        Side::Extended => "extended",
    };
    encode_record(&[op, table, side].map(Value::from), rows)
}

/// The payload of one bulk transaction of `rows` into `table`:
/// `ingest` is the `(pipeline, epoch)` of a streaming-ingest batch.
pub(crate) fn bulk_payload(table: &str, ingest: Option<(&str, u64)>, rows: &[Row]) -> String {
    let (pipeline, epoch) = match ingest {
        Some((p, e)) => (Value::from(p), e),
        None => (Value::Null, 0),
    };
    let head = [
        Value::from("bulk"),
        Value::from(table),
        pipeline,
        Value::Int(epoch as i64),
        Value::Bool(true),
    ];
    encode_record(&head, rows)
}

/// The payload of a DDL statement: the text the user wrote.
pub(crate) fn ddl_payload(text: &str) -> String {
    encode_record(&[Value::from("ddl"), Value::from(text)], &[])
}

/// The payload of an ingest-ledger entry: `pipeline` committed every
/// epoch up to `epoch`.
pub(crate) fn epoch_payload(pipeline: &str, epoch: u64) -> String {
    let head = [
        Value::from("epoch"),
        Value::from(pipeline),
        Value::Int(epoch as i64),
    ];
    encode_record(&head, &[])
}

/// One record, rows decoded: what [`HanaPlatform::redo_txn`] applies.
pub(crate) enum Redo {
    Rows {
        op: RowOp,
        table: String,
        side: Side,
        rows: Vec<Row>,
    },
    Bulk {
        table: String,
        ingest: Option<(String, u64)>,
        rows: Vec<Row>,
    },
    Ddl(String),
}

/// A payload's head values and its rows, still encoded. Anything but a
/// typed record — the SQL text, `LOAD` and `--` markers an older build
/// logged, an older checkpoint format — is refused by name (`what`),
/// before any parser sees it.
pub(crate) fn decode_head<'a>(payload: &'a str, what: &str) -> Result<(Vec<Value>, &'a str)> {
    const KINDS: [&str; 5] = ["insert", "delete", "bulk", "ddl", "epoch"];
    let legacy = || older_format(what);
    let (head, rows) = decode_record(payload).map_err(|_| legacy())?;
    match head.first() {
        Some(Value::Varchar(kind)) if KINDS.contains(&&**kind) => Ok((head, rows)),
        _ => Err(legacy()),
    }
}

/// A filter that selects at least the rows equal to one of `images`,
/// narrowed column by column: `IS NULL` where all of them are NULL, the
/// equality where all agree, and `BETWEEN` their least and greatest
/// value where none is NULL. One image filters on every column, so an
/// indexed key is a seek; the images of a key-range write bound the key
/// by the statement's own range.
fn image_filter(schema: &Schema, images: &[Row]) -> Option<Expr> {
    images.first()?;
    let bound = |(i, c): (usize, &hana_types::ColumnDef)| {
        let values = || images.iter().map(move |r| &r.values()[i]);
        let expr = Box::new(Expr::col(&c.name));
        let literal = |v: &Value| Box::new(Expr::Literal(v.clone()));
        match values().filter(|v| v.is_null()).count() {
            0 => {}
            n if n == images.len() => {
                return Some(Expr::IsNull {
                    expr,
                    negated: false,
                })
            }
            _ => return None,
        }
        let (lo, hi) = (values().min()?, values().max()?);
        Some(if lo == hi {
            Expr::Binary {
                left: expr,
                op: BinOp::Eq,
                right: literal(lo),
            }
        } else {
            Expr::Between {
                expr,
                lo: literal(lo),
                hi: literal(hi),
                negated: false,
            }
        })
    };
    let columns = schema.columns().iter().enumerate();
    columns.filter_map(bound).reduce(Expr::and)
}

/// Row images still to be found among the live rows, with how many of
/// each.
struct Wanted(HashMap<Row, usize>);

impl Wanted {
    fn new(images: Vec<Row>) -> Wanted {
        let mut wanted = HashMap::new();
        for row in images {
            *wanted.entry(row).or_default() += 1;
        }
        Wanted(wanted)
    }

    /// Take one image equal to `row`, if one is left.
    fn take(&mut self, row: &Row) -> bool {
        match self.0.get_mut(row) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// An error unless every image was taken.
    fn all_taken(&self, table: &str) -> Result<()> {
        match self.0.values().sum::<usize>() {
            0 => Ok(()),
            n => Err(HanaError::Io(format!(
                "redo cannot find {n} deleted row(s) of '{table}' among its live rows"
            ))),
        }
    }
}

impl HanaPlatform {
    /// Redo the committed transactions of `records` (classified by
    /// `report`) whose commit IDs exceed `after_cid`, in CID order.
    /// Every data record of the log is checked for its format, redone
    /// or not. Returns how many transactions were redone.
    pub(crate) fn redo_log(
        &self,
        records: Vec<LogRecord>,
        report: &RecoveryReport,
        after_cid: u64,
    ) -> Result<usize> {
        let redo: HashSet<u64> = report
            .committed
            .iter()
            .filter(|&&(_, cid)| cid > after_cid)
            .map(|&(tid, _)| tid)
            .collect();
        let mut payloads: HashMap<u64, Vec<String>> = HashMap::new();
        for rec in records {
            let LogRecord::Data { tid, payload, .. } = rec else {
                continue;
            };
            decode_head(&payload, "log record")?;
            if redo.contains(&tid) {
                payloads.entry(tid).or_default().push(payload);
            }
        }
        let mut redone = 0;
        for &(tid, _) in report.committed.iter().filter(|&&(_, c)| c > after_cid) {
            let Some(txn) = payloads.remove(&tid) else {
                continue;
            };
            let records = txn
                .iter()
                .map(|payload| {
                    let (head, rows) = decode_head(payload, "log record")?;
                    self.decode_redo(&head, rows)
                })
                .collect::<Result<_>>()?;
            self.redo_txn(records)?;
            redone += 1;
        }
        Ok(redone)
    }

    /// Decode a record — its `head` and its encoded `rows`
    /// ([`decode_head`]) — against the current catalog. A bulk record
    /// without its rows inline is an older build's distributed load and
    /// is refused.
    pub(crate) fn decode_redo(&self, head: &[Value], rows: &str) -> Result<Redo> {
        use Value::{Bool, Int, Varchar};
        Ok(match head {
            [Varchar(op), Varchar(table), Varchar(side)] if op == "insert" || op == "delete" => {
                Redo::Rows {
                    op: if op == "insert" {
                        RowOp::Insert
                    } else {
                        RowOp::Delete
                    },
                    side: if side == "extended" {
                        Side::Extended
                    } else {
                        Side::Local
                    },
                    rows: decode_rows(rows, &self.write_target(table)?.schema)?,
                    table: table.clone(),
                }
            }
            [Varchar(kind), Varchar(table), pipeline, Int(epoch), Bool(inline)]
                if kind == "bulk" =>
            {
                if !inline {
                    return Err(older_format("log record"));
                }
                let rows = decode_rows(rows, &self.write_target(table)?.schema)?;
                let ingest = match pipeline {
                    Varchar(p) => {
                        let epoch = u64::try_from(*epoch)
                            .map_err(|_| HanaError::Io(format!("bad ingest epoch {epoch}")))?;
                        Some((p.clone(), epoch))
                    }
                    _ => None,
                };
                Redo::Bulk {
                    table: table.clone(),
                    ingest,
                    rows,
                }
            }
            [Varchar(kind), Varchar(text)] if kind == "ddl" => Redo::Ddl(text.clone()),
            _ => return Err(HanaError::Io(format!("corrupt redo record {head:?}"))),
        })
    }

    /// Apply one transaction's `records` as one transaction, logging
    /// nothing. DDL applies at once. Each deleted image takes one live
    /// row equal to it, found with the access path DML uses; inserted
    /// rows are buffered through [`buffer`](Self::buffer); and the
    /// buffered writes apply under the one commit ID
    /// [`TransactionManager::redo`](hana_txn::TransactionManager::redo)
    /// allocates. An ingest epoch the ledger already covers is skipped;
    /// a plain bulk load refreshes its table's statistics, as
    /// [`load_rows`](Self::load_rows) does.
    pub(crate) fn redo_txn(&self, records: Vec<Redo>) -> Result<()> {
        let mut epochs = Vec::new();
        let mut loaded = Vec::new();
        self.tm.redo(&self.participants(), |tid| {
            for rec in records {
                match rec {
                    Redo::Ddl(text) => self.apply_ddl(parse_statement(&text)?, &text)?,
                    Redo::Rows {
                        op: RowOp::Insert,
                        table,
                        side,
                        rows,
                    } => {
                        let mut target = self.write_target(&table)?;
                        if side == Side::Extended {
                            target = target.cold();
                        }
                        self.buffer(tid, &target, &[], target.route(rows))?;
                    }
                    Redo::Rows {
                        op: RowOp::Delete,
                        table,
                        side,
                        rows,
                    } => self.redo_delete(tid, &table, side, rows)?,
                    Redo::Bulk {
                        table,
                        ingest,
                        rows,
                    } => {
                        match ingest {
                            Some((pipeline, epoch)) => {
                                if epoch <= self.ingest.last_epoch(&pipeline) {
                                    continue;
                                }
                                epochs.push((pipeline, epoch));
                            }
                            None => loaded.push(table.clone()),
                        }
                        let target = self.write_target(&table)?;
                        self.buffer(tid, &target, &[], target.route(rows))?;
                    }
                }
            }
            Ok(())
        })?;
        for (pipeline, epoch) in epochs {
            self.ingest.note(&pipeline, epoch);
            hana_obs::registry()
                .counter("hana_ingest_epochs_replayed_total")
                .inc();
        }
        for table in loaded {
            self.refresh_statistics(&table)?;
        }
        Ok(())
    }

    /// Buffer under `tid` the deletion of as many live rows equal to
    /// each of `images` as it lists, from `side` of `table`: located
    /// under the latest commit by [`image_filter`] — with `locate_rows`
    /// in memory, with pushed-down predicates in the extended store.
    fn redo_delete(&self, tid: u64, table: &str, side: Side, images: Vec<Row>) -> Result<()> {
        let target = self.write_target(table)?;
        let filter = image_filter(&target.schema, &images);
        let mut wanted = Wanted::new(images);
        let cid = self.tm.current_snapshot().cid();
        match (side, &target.iq) {
            (Side::Local, _) => {
                let mut located = self.locate(table, &target, filter.as_ref(), cid)?;
                for hit in &mut located {
                    let candidates = std::mem::take(&mut hit.ids).into_iter();
                    let rows = std::mem::take(&mut hit.rows);
                    let taken = candidates.zip(&rows).filter(|(_, row)| wanted.take(row));
                    hit.ids = taken.map(|(id, _)| id).collect();
                }
                self.buffer(tid, &target, &located, Vec::new())?;
            }
            (Side::Extended, Some(iq_table)) => {
                let pushed = filter.map(|f| hana_sda::split_pushdown(&f).0);
                let pushed = pushed.unwrap_or_default();
                let mut keep = |row: &Row| wanted.take(row);
                self.iq
                    .buffer_delete(tid, iq_table, &pushed, cid, Some(&mut keep))?;
            }
            (Side::Extended, None) => {
                return Err(HanaError::Io(format!(
                    "'{table}' has no extended store to redo a delete in"
                )))
            }
        }
        wanted.all_taken(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_types::DataType;

    #[test]
    fn records_carry_their_heads_and_rows_exactly() {
        let rows = vec![
            Row::from_values([Value::Int(1), Value::from("a\u{1}b\u{1e}c")]),
            Row::from_values([Value::Int(2), Value::Null]),
        ];
        let payload = rows_payload(RowOp::Delete, "t", Side::Extended, &rows);
        let (head, encoded) = decode_head(&payload, "log record").unwrap();
        assert_eq!(head, ["delete", "t", "extended"].map(Value::from));
        let schema = Schema::of(&[("k", DataType::Int), ("s", DataType::Varchar)]);
        assert_eq!(decode_rows(encoded, &schema).unwrap(), rows);

        let bulk = bulk_payload("t", Some(("feed", 7)), &rows);
        let (head, encoded) = decode_head(&bulk, "log record").unwrap();
        let expected = [
            Value::from("bulk"),
            Value::from("t"),
            Value::from("feed"),
            Value::Int(7),
            Value::Bool(true),
        ];
        assert_eq!(head, expected);
        assert_eq!(decode_rows(encoded, &schema).unwrap(), rows);

        let text = "CREATE COLUMN TABLE t (s VARCHAR(4)) -- 'a\u{1}'";
        let (head, _) = decode_head(&ddl_payload(text), "log record").unwrap();
        assert_eq!(head, [Value::from("ddl"), Value::from(text)]);

        let (head, _) = decode_head(&epoch_payload("feed", 12), "checkpoint").unwrap();
        assert_eq!(
            head,
            [Value::from("epoch"), Value::from("feed"), Value::Int(12)]
        );
    }

    #[test]
    fn sql_text_and_older_markers_are_refused_by_name() {
        for legacy in [
            "INSERT INTO t VALUES (1)",
            "CREATE COLUMN TABLE t (a INTEGER)",
            "UPDATE t SET a = 2",
            "DELETE FROM t",
            "LOAD\u{1}t\u{1}\u{1}0\u{1}I1",
            "-- aging t",
            "Sdrop\u{1f}St",
            "",
        ] {
            let err = decode_head(legacy, "log record").expect_err(legacy);
            assert!(err.to_string().contains("older durable format"), "{err}");
        }
    }

    #[test]
    fn images_bound_every_column_they_can() {
        let schema = Schema::of(&[
            ("k", DataType::Int),
            ("s", DataType::Varchar),
            ("n", DataType::Int),
        ]);
        let row = |k: i64, s: &str, n: Option<i64>| {
            Row::from_values([
                Value::Int(k),
                Value::from(s),
                n.map_or(Value::Null, Value::Int),
            ])
        };
        let conjuncts = |images: &[Row]| {
            let filter = image_filter(&schema, images);
            filter.map(|f| {
                f.conjuncts()
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(
            conjuncts(&[row(1, "x", None)]).unwrap(),
            ["(k = 1)", "(s = 'x')", "n IS NULL"]
        );
        // A range write: the keys bound the range, a shared value stays
        // an equality and a column NULL in some images is left out.
        let many = [row(7, "x", Some(1)), row(3, "x", None), row(5, "x", None)];
        assert_eq!(
            conjuncts(&many).unwrap(),
            ["k BETWEEN 3 AND 7", "(s = 'x')"]
        );
        assert_eq!(conjuncts(&[]), None);
    }
}
