//! Equi hash join over column batches.
//!
//! The table goes over whichever input has fewer rows (a `LeftOuter`
//! join always builds right, so unmatched left rows fall out of the
//! probe): one `key -> first build row` map plus a `next` chain in build
//! order, so output order is a function of the two inputs alone — probe
//! order, then build order. Keys that are integers on both sides hash as
//! integers; any other pair hashes by `Value`, so `Int(2)` meets
//! `Double(2.0)`. The probe runs morsel-wise through
//! `ExecContext::scatter`, and its output is a gather of both sides by
//! `(probe, build)` row-index vectors; LEFT OUTER pads with NULLs.

use std::hash::Hash;

use hana_exec::ExecContext;
use hana_sql::JoinKind;
use hana_types::{FxBuildHasher, FxHashMap, Result, Schema, Value};

use crate::batch::{Batch, Batches, Column, NULL_ROW};

/// `build_side` attribute of a `hash_join` span: the table went over
/// the left input.
pub const BUILD_LEFT: u64 = 0;
/// `build_side` attribute of a `hash_join` span: the table went over
/// the right input.
pub const BUILD_RIGHT: u64 = 1;

/// End of a build-row chain.
const END: u32 = NULL_ROW;

/// A build side's first row per key, and the next row of each row with
/// the same key.
struct Table<K> {
    heads: FxHashMap<K, u32>,
    next: Vec<u32>,
}

impl<K: Hash + Eq> Table<K> {
    /// Keys in build-row order; `None` (NULL) never matches.
    fn build(keys: Vec<Option<K>>) -> Table<K> {
        let mut heads = FxHashMap::with_capacity_and_hasher(keys.len(), FxBuildHasher::default());
        let mut next = vec![END; keys.len()];
        for (i, key) in keys.into_iter().enumerate().rev() {
            if let Some(k) = key {
                next[i] = heads.insert(k, i as u32).unwrap_or(END);
            }
        }
        Table { heads, next }
    }

    /// `(probe row, build row)` of every match of probe rows `rows`,
    /// whose first match `first` finds; with `outer`, `(row, NULL_ROW)`
    /// for a row without one.
    fn probe(&self, rows: &[u32], first: impl Fn(u32) -> u32, outer: bool) -> (Vec<u32>, Vec<u32>) {
        let mut probe = Vec::with_capacity(rows.len());
        let mut build = Vec::with_capacity(rows.len());
        for &r in rows {
            let mut m = first(r);
            if m == END && outer {
                probe.push(r);
                build.push(NULL_ROW);
            }
            while m != END {
                probe.push(r);
                build.push(m);
                m = self.next[m as usize];
            }
        }
        (probe, build)
    }
}

/// Every row's key as an integer, when every key is an integer or NULL.
fn int_keys(col: &Column) -> Option<Vec<Option<i64>>> {
    let int = |v: &Value| match v {
        Value::Int(i) => Some(Some(*i)),
        Value::Null => Some(None),
        _ => None,
    };
    match col {
        Column::Int(v) => Some(v.iter().map(|&i| Some(i)).collect()),
        Column::Dict(d, vids) => vids.iter().map(|&v| int(d.value(v))).collect(),
        Column::Values(v) => v.iter().map(int).collect(),
        Column::Const(v, n) => int(v).map(|k| vec![k; *n]),
        _ => None,
    }
}

/// An equi-join condition: the key at `left_key` of the left rows
/// equals the key at `right_key` of the right rows.
pub(crate) struct EquiJoin {
    pub left_key: usize,
    pub right_key: usize,
    pub kind: JoinKind,
}

/// Equi-join `l` and `r` into `left ++ right` rows of `out_schema`. The
/// span reports `build_rows`, `probe_rows` and `build_side`
/// ([`BUILD_LEFT`] / [`BUILD_RIGHT`]).
pub(crate) fn hash_join(
    exec: &ExecContext,
    l: Batches,
    r: Batches,
    on: EquiJoin,
    out_schema: &Schema,
    span: &hana_obs::Span,
) -> Result<Batches> {
    let (kind, li, ri) = (on.kind, on.left_key, on.right_key);
    let build_left = kind == JoinKind::Inner && l.rows() < r.rows();
    let (build, bi, probe, pi) = match build_left {
        true => (l, li, r, ri),
        false => (r, ri, l, li),
    };
    span.attr("build_rows", build.rows() as u64);
    span.attr("probe_rows", probe.rows() as u64);
    span.attr(
        "build_side",
        if build_left { BUILD_LEFT } else { BUILD_RIGHT },
    );
    let build = build.concat();
    let outer = kind == JoinKind::LeftOuter;

    // Probe morsels: slices of each probe batch's rows in play.
    let mut items = Vec::new();
    for (i, b) in probe.batches.iter().enumerate() {
        for m in exec.morsels(b.sel.len()) {
            items.push((i, &b.sel[m.start..m.end]));
        }
    }
    let joined = |b: &Batch, (p, m): (Vec<u32>, Vec<u32>)| {
        let columns = match build_left {
            true => build.gather(&m).chain(b.gather(&p)).collect(),
            false => b.gather(&p).chain(build.gather(&m)).collect(),
        };
        Batch::new(columns, p.len())
    };
    let int = int_keys(&build.columns[bi]).and_then(|bk| {
        let pk = probe.batches.iter().map(|b| int_keys(&b.columns[pi]));
        Some((bk, pk.collect::<Option<Vec<_>>>()?))
    });
    let batches = match int {
        Some((bk, pk)) => {
            let table = Table::build(bk);
            let first = |keys: &[Option<i64>], r: u32| {
                let head = keys[r as usize].and_then(|k| table.heads.get(&k));
                head.copied().unwrap_or(END)
            };
            exec.scatter(items, |(i, rows)| {
                let b = &probe.batches[i];
                joined(b, table.probe(rows, |r| first(&pk[i], r), outer))
            })
        }
        None => {
            let col = &build.columns[bi];
            let keys: Vec<Value> = (0..build.len).map(|j| col.get(j).into_owned()).collect();
            let table = Table::build(keys.iter().map(|k| (!k.is_null()).then_some(k)).collect());
            exec.scatter(items, |(i, rows)| {
                let b = &probe.batches[i];
                let key = &b.columns[pi];
                let first = |r: u32| {
                    let head = table.heads.get(&*key.get(r as usize));
                    head.copied().unwrap_or(END)
                };
                joined(b, table.probe(rows, first, outer))
            })
        }
    };
    Ok(Batches {
        schema: out_schema.clone(),
        batches: batches.into_iter().filter(|b| b.len > 0).collect(),
    })
}
