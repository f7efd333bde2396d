//! Equi hash join over column batches.
//!
//! The planner fixes which input the table goes over
//! ([`BuildSide`], from the two inputs' estimates; a `LeftOuter` join
//! always builds right, so unmatched left rows fall out of the probe),
//! and the build input runs first. The table is one `key -> first build
//! row` map plus a `next` chain in build order, so output order is a
//! function of the plan and the two inputs alone — probe order, then
//! build order. A build side whose keys are all integers (or NULL)
//! hashes them as integers; any other hashes by `Value`, and so does a
//! probe value an integer table does not hold as one, so `Int(2)` meets
//! `Double(2.0)`; NULL meets nothing. An inner join hands its probe
//! input the table's distinct keys ([`BuildKeys`]), which a column leaf
//! below it reads only the rows of that can match
//! ([`BuildKeys::filter`]). A probe key read from a dictionary smaller
//! than the rows in play that read it is looked up once per dictionary
//! entry, into a `vid -> first build row` array, and its rows probe with
//! one load each. The probe runs morsel-wise through
//! `ExecContext::scatter`, and its output is a gather of both sides by
//! `(probe, build)` row-index vectors; LEFT OUTER pads with NULLs.

use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use hana_columnar::ColumnPredicate;
use hana_exec::{ExecContext, Morsel};
use hana_sql::batch::{Batch, Batches, Column, Dictionary, NULL_ROW};
use hana_sql::JoinKind;
use hana_types::{FxBuildHasher, FxHashMap, Result, Schema, Value};

use crate::plan::BuildSide;

/// `build_side` attribute of a `hash_join` span: the table went over
/// the left input.
pub const BUILD_LEFT: u64 = 0;
/// `build_side` attribute of a `hash_join` span: the table went over
/// the right input.
pub const BUILD_RIGHT: u64 = 1;

/// End of a build-row chain.
const END: u32 = NULL_ROW;

/// The most build keys a key filter lists one by one; above it the
/// filter is their range.
const KEY_LIST_CAP: usize = 4_096;

/// A key filter is built only when the build keys number at most one
/// in this many of the probe column's dictionary entries.
const KEYS_PER_ENTRY: usize = 4;

/// `key -> first row` over keys in row order, NULLs (`None`) left out;
/// `chain(row, next)` learns each keyed row's next row with its key.
fn heads<K: Hash + Eq>(
    keys: Vec<Option<K>>,
    mut chain: impl FnMut(usize, u32),
) -> FxHashMap<K, u32> {
    let mut heads = FxHashMap::with_capacity_and_hasher(keys.len(), FxBuildHasher::default());
    for (i, key) in keys.into_iter().enumerate().rev() {
        if let Some(k) = key {
            chain(i, heads.insert(k, i as u32).unwrap_or(END));
        }
    }
    heads
}

/// A build side's first row per key.
enum Heads {
    /// Every key is an integer or NULL.
    Int(FxHashMap<i64, u32>),
    /// Keys of any type.
    Value(FxHashMap<Value, u32>),
}

/// The hash table over a build side's `key` column: its first row per
/// key, and the next row of each row with the same key.
struct Table<'a> {
    key: &'a Column,
    heads: Heads,
    next: Vec<u32>,
    /// The keys hashed by `Value`, for the probe values an integer
    /// table does not hold as integers; built the first time one comes.
    by_value: OnceLock<FxHashMap<Value, u32>>,
}

impl<'a> Table<'a> {
    fn build(key: &'a Column) -> Table<'a> {
        let mut next = vec![END; key.len()];
        let chain = |i: usize, n: u32| next[i] = n;
        let heads = match int_keys(key) {
            Some(keys) => Heads::Int(heads(keys, chain)),
            None => Heads::Value(heads(value_keys(key), chain)),
        };
        Table {
            key,
            heads,
            next,
            by_value: OnceLock::new(),
        }
    }

    /// The first build row whose key equals `v`, or `END`.
    fn first(&self, v: &Value) -> u32 {
        let head = match (&self.heads, v) {
            (_, Value::Null) => None,
            (Heads::Int(h), Value::Int(i)) => h.get(i),
            (Heads::Int(_), v) => (self.by_value)
                .get_or_init(|| heads(value_keys(self.key), |_, _| {}))
                .get(v),
            (Heads::Value(h), v) => h.get(v),
        };
        head.copied().unwrap_or(END)
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

    /// Probe rows `rows` of `key`: through `entries`, the first build
    /// row of each of its dictionary's vids, when there is one; through
    /// the integer map for integers an integer table holds; else value
    /// by value.
    fn probe_column(
        &self,
        key: &Column,
        entries: Option<&[u32]>,
        rows: &[u32],
        outer: bool,
    ) -> (Vec<u32>, Vec<u32>) {
        match (key, entries, &self.heads) {
            (Column::Dict(_, vids), Some(e), _) => {
                self.probe(rows, |r| e[vids[r as usize] as usize], outer)
            }
            (Column::Dict(d, vids), None, _) => {
                self.probe(rows, |r| self.first(d.value(vids[r as usize])), outer)
            }
            (Column::Int(v), _, Heads::Int(h)) => {
                let first = |r: u32| h.get(&v[r as usize]).copied().unwrap_or(END);
                self.probe(rows, first, outer)
            }
            (col, _, _) => self.probe(rows, |r| self.first(&col.get(r as usize)), outer),
        }
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

/// Every row's key as a value, NULL as `None`.
fn value_keys(col: &Column) -> Vec<Option<Value>> {
    let key = |j| Some(col.get(j).into_owned()).filter(|k| !k.is_null());
    (0..col.len()).map(key).collect()
}

/// The distinct non-NULL keys of a built table: an inner join's probe
/// rows that hold none of them match nothing.
pub(crate) struct BuildKeys<'t>(&'t Heads);

impl BuildKeys<'_> {
    /// How many distinct keys the build side holds.
    pub(crate) fn len(&self) -> usize {
        match self.0 {
            Heads::Int(h) => h.len(),
            Heads::Value(h) => h.len(),
        }
    }

    /// The keys in ascending order.
    pub(crate) fn ascending(&self) -> Vec<Value> {
        match self.0 {
            Heads::Int(h) => {
                let mut keys: Vec<i64> = h.keys().copied().collect();
                keys.sort_unstable();
                keys.into_iter().map(Value::Int).collect()
            }
            Heads::Value(h) => {
                let mut keys: Vec<Value> = h.keys().cloned().collect();
                keys.sort_unstable();
                keys
            }
        }
    }

    /// The keys as a predicate on a probe column with `entries`
    /// dictionary entries (main and delta): `None` when they number
    /// more than a quarter of the entries, so the scan would drop too
    /// few rows to pay for the filter. Otherwise a `Between` when the
    /// keys are consecutive integers, an `InList` of up to
    /// [`KEY_LIST_CAP`] keys, and above it their least and greatest; a
    /// range that covers `range()`, the column's own least and greatest
    /// value, is `None` too. Every row the filter drops holds NULL or a
    /// value no key equals, so it joins nothing; an empty build side
    /// drops every row.
    pub(crate) fn filter(
        &self,
        entries: usize,
        range: impl FnOnce() -> Option<(Value, Value)>,
    ) -> Option<ColumnPredicate> {
        let n = self.len();
        if n * KEYS_PER_ENTRY > entries {
            return None;
        }
        if n == 0 {
            return Some(ColumnPredicate::InList(Vec::new()));
        }
        let (lo, hi, dense) = match self.0 {
            Heads::Int(h) => {
                let (&lo, &hi) = (h.keys().min()?, h.keys().max()?);
                let dense = hi as i128 - lo as i128 + 1 == n as i128;
                (Value::Int(lo), Value::Int(hi), dense)
            }
            Heads::Value(h) => (h.keys().min()?.clone(), h.keys().max()?.clone(), false),
        };
        if !dense && n <= KEY_LIST_CAP {
            // Ascending: consecutive dictionary lookups share most of
            // their search path.
            return Some(ColumnPredicate::InList(self.ascending()));
        }
        match range() {
            Some((min, max)) if lo <= min && max <= hi => None,
            _ => Some(ColumnPredicate::Between(lo, hi)),
        }
    }
}

/// An equi-join condition — the key at `left_key` of the left rows
/// equals the key at `right_key` of the right rows — and the input the
/// table goes over.
pub(crate) struct EquiJoin {
    pub left_key: usize,
    pub right_key: usize,
    pub kind: JoinKind,
    pub build: BuildSide,
}

impl EquiJoin {
    /// The key positions in the build and the probe input's rows.
    pub(crate) fn keys(&self) -> (usize, usize) {
        match self.build {
            BuildSide::Left => (self.left_key, self.right_key),
            BuildSide::Right => (self.right_key, self.left_key),
        }
    }
}

/// Equi-join `build`, the input `on.build` names, with the rows `probe`
/// returns into `left ++ right` rows of `out_schema`. `probe` runs once
/// the table is built and, for an inner join, is handed its keys. The span reports `build_rows`, `probe_rows`,
/// `build_side` ([`BUILD_LEFT`] / [`BUILD_RIGHT`]) and `probe_entries`
/// (the probe key's dictionary entries looked up, 0 when every row
/// probed itself).
pub(crate) fn hash_join(
    exec: &ExecContext,
    build: Batches,
    probe: impl FnOnce(Option<&BuildKeys>) -> Result<Batches>,
    on: EquiJoin,
    out_schema: &Schema,
    span: &hana_obs::Span,
) -> Result<Batches> {
    let build_left = on.build == BuildSide::Left;
    let (bi, pi) = on.keys();
    let build = build.concat();
    let table = Table::build(&build.columns[bi]);
    let probe = probe((on.kind == JoinKind::Inner).then_some(&BuildKeys(&table.heads)))?;
    span.attr("build_rows", build.len as u64);
    span.attr("probe_rows", probe.rows() as u64);
    span.attr(
        "build_side",
        if build_left { BUILD_LEFT } else { BUILD_RIGHT },
    );
    let outer = on.kind == JoinKind::LeftOuter;

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
    let entries = probe_entries(exec, &table, &probe, pi, span);
    let batches = exec.scatter(items, |(i, rows)| {
        let b = &probe.batches[i];
        let e = entries[i].as_deref();
        joined(b, table.probe_column(&b.columns[pi], e, rows, outer))
    });
    Ok(Batches {
        schema: out_schema.clone(),
        batches: batches.into_iter().filter(|b| b.len > 0).collect(),
    })
}

/// For each probe batch whose key column `pi` reads a dictionary smaller
/// than the rows in play that read it (in every probe batch), the first
/// build row of each of its vids — every entry looked up once, exactly
/// as a row holding its value would be, NULL's (vid 0) meeting nothing.
/// Batches over one dictionary share its array. The span's
/// `probe_entries` counts the entries looked up.
fn probe_entries(
    exec: &ExecContext,
    table: &Table,
    probe: &Batches,
    pi: usize,
    span: &hana_obs::Span,
) -> Vec<Option<Arc<[u32]>>> {
    let dict = |b: &Batch| match &b.columns[pi] {
        Column::Dict(d, _) => Some(d.clone()),
        _ => None,
    };
    let mut rows_in_play: Vec<(Dictionary, usize)> = Vec::new();
    for b in &probe.batches {
        let Some(d) = dict(b) else { continue };
        match rows_in_play.iter_mut().find(|(e, _)| e.same(&d)) {
            Some((_, n)) => *n += b.sel.len(),
            None => rows_in_play.push((d, b.sel.len())),
        }
    }
    let mut arrays: Vec<(Dictionary, Arc<[u32]>)> = Vec::new();
    for (d, rows) in rows_in_play {
        if d.values().len() < rows {
            let vids = exec.morsels(d.values().len() + 1);
            let look_up = |m: Morsel| -> Vec<u32> {
                (m.start..m.end)
                    .map(|v| table.first(d.value(v as u32)))
                    .collect()
            };
            arrays.push((d.clone(), exec.scatter(vids, look_up).concat().into()));
        }
    }
    let looked_up = arrays.iter().map(|(d, _)| d.values().len() as u64);
    span.attr("probe_entries", looked_up.sum());
    let array_of = |b: &Batch| {
        let d = dict(b)?;
        let (_, a) = arrays.iter().find(|(e, _)| e.same(&d))?;
        Some(a.clone())
    };
    probe.batches.iter().map(array_of).collect()
}
