//! Column batches: what the operators of every engine hand each other.
//!
//! A [`Batch`] is a set of equally long [`Column`]s plus a selection
//! vector naming the rows still in play: a filter narrows the selection
//! and moves no value. A column read from a main fragment stays its
//! packed vids with a handle to the fragment's immutable dictionary
//! until an operator needs values; delta rows are decoded at the leaf
//! into a dictionary of their own (the delta dictionary is mutable).
//! Engines that read rows — Hive's splits, DML's located rows, an ESP
//! window — hand them over with [`Batch::from_rows`]. [`eval_batch`] /
//! [`select`] evaluate over a batch and [`group_batch`] groups one;
//! rows are built once, at the result boundary or after an epilogue.

mod aggregate;
mod eval;

use std::borrow::Cow;
use std::sync::Arc;

use hana_types::{Date, ResultSet, Row, Schema, Value};

pub use aggregate::{group_batch, AggCall, Groups};
pub use eval::{eval_batch, select};

/// The vid of NULL in every dictionary column.
const NULL_VID: u32 = 0;

/// A gather index that pads with NULL (the unmatched side of an outer
/// join).
pub const NULL_ROW: u32 = u32::MAX;

static NULL: Value = Value::Null;

/// The values a dictionary column's vids index: vid `v > 0` is
/// `values()[v - 1]`, vid 0 is NULL.
#[derive(Debug, Clone)]
pub enum Dictionary {
    /// A main fragment's ordered dictionary: values in ascending order,
    /// so that vid order is value order.
    Main(Arc<[Value]>),
    /// The distinct values of the delta rows one leaf read.
    Local(Arc<[Value]>),
}

impl Dictionary {
    /// Every non-NULL value, in vid order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match self {
            Dictionary::Main(v) | Dictionary::Local(v) => v,
        }
    }

    /// Whether `other` is this very dictionary.
    pub fn same(&self, other: &Dictionary) -> bool {
        match (self, other) {
            (Dictionary::Main(a), Dictionary::Main(b))
            | (Dictionary::Local(a), Dictionary::Local(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The value of `vid`.
    #[inline]
    pub fn value(&self, vid: u32) -> &Value {
        match vid {
            NULL_VID => &NULL,
            v => &self.values()[v as usize - 1],
        }
    }
}

/// One column of a batch.
#[derive(Debug, Clone)]
pub enum Column {
    /// Vids into a dictionary.
    Dict(Dictionary, Vec<u32>),
    /// Integers, none NULL.
    Int(Vec<i64>),
    /// Doubles, none NULL.
    Double(Vec<f64>),
    /// Dates, none NULL.
    Date(Vec<Date>),
    /// Booleans, none NULL.
    Bool(Vec<bool>),
    /// Any values, NULLs and mixed types included.
    Values(Vec<Value>),
    /// One value on every row.
    Const(Value, usize),
}

/// A column as numbers of one type, when it is one.
pub enum Numbers<'a> {
    Int(Cow<'a, [i64]>),
    Double(Cow<'a, [f64]>),
    Date(Cow<'a, [Date]>),
}

impl Numbers<'_> {
    /// The numbers as `Value::as_f64` reads them.
    pub fn to_f64(&self) -> Cow<'_, [f64]> {
        match self {
            Numbers::Int(v) => v.iter().map(|&i| i as f64).collect(),
            Numbers::Double(v) => Cow::Borrowed(v),
            Numbers::Date(v) => v.iter().map(|d| d.0 as f64).collect(),
        }
    }
}

/// The integer a value holds, if it is one.
fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

/// The double a value holds, if it is one.
fn double(v: &Value) -> Option<f64> {
    match v {
        Value::Double(d) => Some(*d),
        _ => None,
    }
}

/// The date a value holds, if it is one.
fn date(v: &Value) -> Option<Date> {
    match v {
        Value::Date(d) => Some(*d),
        _ => None,
    }
}

/// The concatenation of every part `f` views as a slice, if it views
/// them all.
fn concat_as<'a, T: Clone + 'a>(
    parts: &'a [Column],
    f: impl Fn(&'a Column) -> Option<&'a [T]>,
) -> Option<Vec<T>> {
    let mut out = Vec::new();
    for p in parts {
        out.extend_from_slice(f(p)?);
    }
    Some(out)
}

impl Column {
    /// A column of `values`, typed when they all have one non-NULL
    /// type.
    pub fn from_values(values: Vec<Value>) -> Column {
        fn each<T>(values: &[Value], f: fn(&Value) -> Option<T>) -> Option<Vec<T>> {
            values.iter().map(f).collect()
        }
        let typed = match values.first() {
            Some(Value::Int(_)) => each(&values, int).map(Column::Int),
            Some(Value::Double(_)) => each(&values, double).map(Column::Double),
            Some(Value::Date(_)) => each(&values, date).map(Column::Date),
            Some(Value::Bool(_)) => each(&values, Value::as_bool).map(Column::Bool),
            _ => None,
        };
        typed.unwrap_or(Column::Values(values))
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Column::Dict(_, v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Double(v) => v.len(),
            Column::Date(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Values(v) => v.len(),
            Column::Const(_, n) => *n,
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Cow<'_, Value> {
        match self {
            Column::Dict(d, v) => Cow::Borrowed(d.value(v[i])),
            Column::Int(v) => Cow::Owned(Value::Int(v[i])),
            Column::Double(v) => Cow::Owned(Value::Double(v[i])),
            Column::Date(v) => Cow::Owned(Value::Date(v[i])),
            Column::Bool(v) => Cow::Owned(Value::Bool(v[i])),
            Column::Values(v) => Cow::Borrowed(&v[i]),
            Column::Const(v, _) => Cow::Borrowed(v),
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Dict(_, v) => v[i] == NULL_VID,
            Column::Values(v) => v[i].is_null(),
            Column::Const(v, _) => v.is_null(),
            _ => false,
        }
    }

    /// Call `f(row, value)` for every row, in order.
    pub fn for_each(&self, mut f: impl FnMut(usize, &Value)) {
        match self {
            Column::Dict(d, v) => v.iter().enumerate().for_each(|(i, &x)| f(i, d.value(x))),
            Column::Int(v) => (v.iter().enumerate()).for_each(|(i, &x)| f(i, &Value::Int(x))),
            Column::Double(v) => (v.iter().enumerate()).for_each(|(i, &x)| f(i, &Value::Double(x))),
            Column::Date(v) => (v.iter().enumerate()).for_each(|(i, &x)| f(i, &Value::Date(x))),
            Column::Bool(v) => (v.iter().enumerate()).for_each(|(i, &x)| f(i, &Value::Bool(x))),
            Column::Values(v) => v.iter().enumerate().for_each(|(i, x)| f(i, x)),
            Column::Const(v, n) => (0..*n).for_each(|i| f(i, v)),
        }
    }

    /// The numbers of a column whose rows all hold one numeric type: a
    /// dictionary column decodes, a constant repeats.
    pub fn numbers(&self) -> Option<Numbers<'_>> {
        match self {
            Column::Int(v) => Some(Numbers::Int(Cow::Borrowed(v))),
            Column::Double(v) => Some(Numbers::Double(Cow::Borrowed(v))),
            Column::Date(v) => Some(Numbers::Date(Cow::Borrowed(v))),
            Column::Const(Value::Int(x), n) => Some(Numbers::Int(vec![*x; *n].into())),
            Column::Const(Value::Double(x), n) => Some(Numbers::Double(vec![*x; *n].into())),
            Column::Const(Value::Date(x), n) => Some(Numbers::Date(vec![*x; *n].into())),
            Column::Dict(d, vids) => {
                fn decode<T>(
                    d: &Dictionary,
                    vids: &[u32],
                    f: fn(&Value) -> Option<T>,
                ) -> Option<Vec<T>> {
                    vids.iter().map(|&v| f(d.value(v))).collect()
                }
                match d.value(*vids.first()?) {
                    Value::Int(_) => decode(d, vids, int).map(|v| Numbers::Int(v.into())),
                    Value::Double(_) => decode(d, vids, double).map(|v| Numbers::Double(v.into())),
                    Value::Date(_) => decode(d, vids, date).map(|v| Numbers::Date(v.into())),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Rows `idx` of this column, in that order; [`NULL_ROW`] is NULL.
    pub fn gather(&self, idx: &[u32]) -> Column {
        fn pick<T: Copy>(v: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| v[i as usize]).collect()
        }
        let pads = idx.contains(&NULL_ROW);
        match self {
            Column::Dict(d, v) => {
                let vid = |&i: &u32| {
                    if i == NULL_ROW {
                        NULL_VID
                    } else {
                        v[i as usize]
                    }
                };
                Column::Dict(d.clone(), idx.iter().map(vid).collect())
            }
            Column::Int(v) if !pads => Column::Int(pick(v, idx)),
            Column::Double(v) if !pads => Column::Double(pick(v, idx)),
            Column::Date(v) if !pads => Column::Date(pick(v, idx)),
            Column::Bool(v) if !pads => Column::Bool(pick(v, idx)),
            Column::Const(v, _) if !pads => Column::Const(v.clone(), idx.len()),
            _ => {
                let value = |&i: &u32| match i {
                    NULL_ROW => Value::Null,
                    i => self.get(i as usize).into_owned(),
                };
                Column::Values(idx.iter().map(value).collect())
            }
        }
    }

    /// The values at rows `sel`, moved out where the column owns them.
    pub fn take(self, sel: &[u32]) -> Vec<Value> {
        match self {
            Column::Values(v) if v.len() == sel.len() => v,
            Column::Values(mut v) => {
                let take = |&i: &u32| std::mem::replace(&mut v[i as usize], Value::Null);
                sel.iter().map(take).collect()
            }
            other => sel
                .iter()
                .map(|&i| other.get(i as usize).into_owned())
                .collect(),
        }
    }

    /// The parts one after another: vids stay vids when every part
    /// indexes one dictionary, typed vectors stay typed.
    pub fn concat(mut parts: Vec<Column>) -> Column {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        if let Some(Column::Dict(d, _)) = parts.first() {
            let same = |c: &Column| matches!(c, Column::Dict(e, _) if e.same(d));
            if parts.iter().all(same) {
                let vids = concat_as(&parts, |c| match c {
                    Column::Dict(_, v) => Some(&v[..]),
                    _ => None,
                });
                return Column::Dict(d.clone(), vids.expect("all vids"));
            }
        }
        macro_rules! typed {
            ($variant:ident) => {
                if let Some(v) = concat_as(&parts, |c| match c {
                    Column::$variant(v) => Some(&v[..]),
                    _ => None,
                }) {
                    return Column::$variant(v);
                }
            };
        }
        typed!(Int);
        typed!(Double);
        typed!(Date);
        typed!(Bool);
        let mut out = Vec::with_capacity(parts.iter().map(Column::len).sum());
        for p in parts {
            let every: Vec<u32> = (0..p.len() as u32).collect();
            out.extend(p.take(&every));
        }
        Column::Values(out)
    }
}

/// Equally long columns and the rows of them still in play.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The columns, in schema order.
    pub columns: Vec<Column>,
    /// Rows every column has.
    pub len: usize,
    /// The rows in play, ascending.
    pub sel: Vec<u32>,
}

impl Batch {
    /// All `len` rows of `columns`.
    pub fn new(columns: Vec<Column>, len: usize) -> Batch {
        Batch {
            columns,
            len,
            sel: (0..len as u32).collect(),
        }
    }

    /// `rows` of `width` values as columns.
    pub fn from_rows(rows: Vec<Row>, width: usize) -> Batch {
        let len = rows.len();
        let mut cols: Vec<Vec<Value>> = (0..width).map(|_| Vec::with_capacity(len)).collect();
        for Row(values) in rows {
            for (col, v) in cols.iter_mut().zip(values) {
                col.push(v);
            }
        }
        Batch::new(cols.into_iter().map(Column::from_values).collect(), len)
    }

    /// Rows in play.
    pub fn rows(&self) -> usize {
        self.sel.len()
    }

    /// Column `i` at rows `sel` (borrowed when `sel` is every row).
    #[inline]
    pub fn column(&self, i: usize, sel: &[u32]) -> Cow<'_, Column> {
        match sel.len() == self.len {
            true => Cow::Borrowed(&self.columns[i]),
            false => Cow::Owned(self.columns[i].gather(sel)),
        }
    }

    /// Every column at rows `idx` ([`Column::gather`]).
    pub fn gather<'s>(&'s self, idx: &'s [u32]) -> impl Iterator<Item = Column> + 's {
        self.columns.iter().map(move |c| c.gather(idx))
    }

    /// The same rows with every row in play.
    pub fn compact(self) -> Batch {
        if self.sel.len() == self.len {
            return self;
        }
        let columns = self.gather(&self.sel).collect();
        Batch::new(columns, self.sel.len())
    }

    /// Append the rows in play to `out`.
    pub fn push_rows(self, out: &mut Vec<Row>) {
        let Batch { columns, sel, .. } = self;
        let mut cols: Vec<_> = columns
            .into_iter()
            .map(|c| c.take(&sel).into_iter())
            .collect();
        let row = |_| {
            Row(cols
                .iter_mut()
                .map(|c| c.next().expect("one value a row"))
                .collect())
        };
        out.extend((0..sel.len()).map(row));
    }

    /// Sum of the storage footprints of the values in play.
    pub fn approx_bytes(&self) -> u64 {
        let bytes = |c: &Column| -> u64 {
            let at = |&i: &u32| c.get(i as usize).storage_bytes() as u64;
            self.sel.iter().map(at).sum()
        };
        self.columns.iter().map(bytes).sum()
    }
}

/// An operator's output: its schema and its rows as batches.
pub struct Batches {
    /// Output schema.
    pub schema: Schema,
    /// The rows, batch after batch.
    pub batches: Vec<Batch>,
}

impl Batches {
    /// Rows produced by a leaf that builds rows.
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Batches {
        let width = schema.len();
        Batches {
            schema,
            batches: vec![Batch::from_rows(rows, width)],
        }
    }

    /// Rows in play across all batches.
    pub fn rows(&self) -> usize {
        self.batches.iter().map(Batch::rows).sum()
    }

    /// The rows in play as rows: the result boundary.
    pub fn into_result_set(self) -> ResultSet {
        let mut rows = Vec::with_capacity(self.rows());
        for b in self.batches {
            b.push_rows(&mut rows);
        }
        ResultSet::new(self.schema, rows)
    }

    /// Sum of the storage footprints of the values in play.
    pub fn approx_bytes(&self) -> u64 {
        self.batches.iter().map(Batch::approx_bytes).sum()
    }

    /// Every row in play in one batch.
    pub fn concat(self) -> Batch {
        let width = self.schema.len();
        let parts: Vec<Batch> = self.batches.into_iter().map(Batch::compact).collect();
        let len = parts.iter().map(|b| b.len).sum();
        let mut columns: Vec<Vec<Column>> = (0..width).map(|_| Vec::new()).collect();
        for b in parts {
            for (c, col) in columns.iter_mut().zip(b.columns) {
                c.push(col);
            }
        }
        let column = |parts: Vec<Column>| match parts.is_empty() {
            true => Column::Values(Vec::new()),
            false => Column::concat(parts),
        };
        Batch::new(columns.into_iter().map(column).collect(), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.get(i).into_owned()).collect()
    }

    #[test]
    fn values_narrow_to_one_type_only() {
        let ints = Column::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert!(matches!(ints, Column::Int(_)));
        // `Int(2)` and `Double(2.0)` are equal values of two types: the
        // column keeps both as they are.
        let mixed = vec![Value::Int(2), Value::Double(2.0), Value::Null];
        let col = Column::from_values(mixed.clone());
        assert!(matches!(col, Column::Values(_)));
        assert_eq!(format!("{:?}", values(&col)), format!("{mixed:?}"));
    }

    #[test]
    fn gather_pads_and_concat_keeps_types() {
        let col = Column::Int(vec![10, 20, 30]);
        assert!(matches!(col.gather(&[2, 0]), Column::Int(v) if v == [30, 10]));
        let padded = col.gather(&[1, NULL_ROW]);
        assert_eq!(values(&padded), [Value::Int(20), Value::Null]);
        let joined = Column::concat(vec![col.clone(), Column::Int(vec![40])]);
        assert!(matches!(joined, Column::Int(v) if v == [10, 20, 30, 40]));
        let mixed = Column::concat(vec![col, Column::Double(vec![0.5])]);
        assert_eq!(values(&mixed)[3], Value::Double(0.5));
    }

    #[test]
    fn rows_come_back_as_they_went_in() {
        let rows = vec![
            Row::from_values([Value::Int(1), Value::from("a")]),
            Row::from_values([Value::Int(2), Value::Null]),
            Row::from_values([Value::Int(3), Value::from("c")]),
        ];
        let mut b = Batch::from_rows(rows.clone(), 2);
        b.sel = vec![0, 2];
        let mut out = Vec::new();
        b.push_rows(&mut out);
        assert_eq!(out, [rows[0].clone(), rows[2].clone()]);
    }
}
