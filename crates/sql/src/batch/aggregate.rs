//! Hash aggregation over column batches: one group-by for every engine.
//!
//! Each batch is grouped on its own: a key column that carries a
//! dictionary keys on its vids, any other on its values interned to
//! dense codes; the codes of all key columns pack into one integer per
//! row (re-densified whenever the packing would overflow), and the
//! packed keys map to dense group ids. When every key column is a main
//! fragment's column, a group *is* its packed vids: partials over the
//! same dictionaries (morsel and morsel) merge on them, and since an
//! ordered dictionary numbers its values in order, they also sort the
//! groups as their values would sort. Any other partials — main and
//! delta, node and node — merge by key values, decoded once per group.
//! Aggregate arguments come from [`eval_batch`]; the accumulators are
//! `hana_types::Accumulator`, flat, `aggs.len()` per group. `SUM`,
//! `AVG` and `COUNT` over a NULL-free integer or double argument, and
//! `COUNT(*)`, add into typed per-group arrays, in row order, and hand
//! each fresh accumulator the result (`Accumulator::set_sums`); every
//! other call adds its values one by one.

use std::borrow::Cow;
use std::hash::Hash;

use hana_types::{Accumulator, AggFunc, FxHashMap, Result, Row, Value};

use super::{eval_batch, Batch, Column, Dictionary, Numbers};
use crate::ast::Expr;

/// An aggregate call and its argument (`COUNT(*)` has none).
pub type AggCall = (AggFunc, Option<Expr>);

/// "No group yet" in a dense group table.
const NONE: u32 = u32::MAX;

/// The keys of a group table, one per group.
enum Keys {
    /// Vids of main-fragment dictionaries ([`Dictionary::Main`]) packed
    /// in key order (the last key the least significant digit, base
    /// `dictionary length + 1`).
    Vids(Vec<u64>, Vec<Dictionary>),
    /// Key values.
    Values(Vec<Vec<Value>>),
}

/// The vids packed over `dicts` in each of `packed`, one vector per
/// key: each key's digits peeled off from the least significant, one
/// division each.
fn unpack_vids(packed: impl Iterator<Item = u64>, dicts: &[Dictionary]) -> Vec<Vec<u32>> {
    let bases: Vec<u64> = dicts.iter().map(|d| d.values().len() as u64 + 1).collect();
    let mut vids: Vec<Vec<u32>> = vec![Vec::new(); dicts.len()];
    for mut p in packed {
        for (k, &base) in bases.iter().enumerate().rev() {
            vids[k].push((p % base) as u32);
            p /= base;
        }
    }
    vids
}

impl Keys {
    fn len(&self) -> usize {
        match self {
            Keys::Vids(p, _) => p.len(),
            Keys::Values(v) => v.len(),
        }
    }

    fn into_values(self) -> Vec<Vec<Value>> {
        match self {
            Keys::Values(v) => v,
            Keys::Vids(packed, dicts) => {
                let vids = unpack_vids(packed.iter().copied(), &dicts);
                let key = |g: usize| {
                    let value = |(d, v): (&Dictionary, &Vec<u32>)| d.value(v[g]).clone();
                    dicts.iter().zip(&vids).map(value).collect()
                };
                (0..packed.len()).map(key).collect()
            }
        }
    }
}

/// Groups of some input in first-seen order: their keys, and
/// accumulators `width` per group in the same order.
pub struct Groups {
    keys: Keys,
    accs: Vec<Accumulator>,
    width: usize,
}

impl Groups {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there is no group.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulator states shipped between nodes, one item a group.
    pub fn into_items(self) -> Vec<(Vec<Value>, Vec<Accumulator>)> {
        let w = self.width;
        let accs = |g: usize| self.accs[g * w..(g + 1) * w].to_vec();
        let keys = self.keys.into_values().into_iter().enumerate();
        keys.map(|(g, key)| (key, accs(g))).collect()
    }

    /// Groups from shipped items.
    pub fn from_items(aggs: &[AggCall], items: Vec<(Vec<Value>, Vec<Accumulator>)>) -> Groups {
        let (keys, accs): (Vec<_>, Vec<_>) = items.into_iter().unzip();
        Groups {
            keys: Keys::Values(keys),
            accs: accs.into_iter().flatten().collect(),
            width: aggs.len(),
        }
    }

    /// Fold `parts` into one, merging the accumulators of groups with
    /// equal keys: on packed vids when every part packs over the same
    /// dictionaries, on key values otherwise.
    pub fn merge(aggs: &[AggCall], mut parts: Vec<Groups>) -> Groups {
        let w = aggs.len();
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let one_dictionary_set = |g: &Groups, dicts: &[Dictionary]| match &g.keys {
            Keys::Vids(_, d) => {
                d.len() == dicts.len() && d.iter().zip(dicts).all(|(a, b)| a.same(b))
            }
            Keys::Values(_) => false,
        };
        match parts.first().map(|g| &g.keys) {
            None => Groups {
                keys: Keys::Values(Vec::new()),
                accs: Vec::new(),
                width: w,
            },
            Some(Keys::Vids(_, dicts)) if parts.iter().all(|g| one_dictionary_set(g, dicts)) => {
                let dicts = dicts.clone();
                let keyed = parts.into_iter().map(|g| match g.keys {
                    Keys::Vids(p, _) => (p, g.accs),
                    Keys::Values(_) => unreachable!("checked: every part packs vids"),
                });
                let (packed, accs) = merge_keyed(keyed, w);
                Groups {
                    keys: Keys::Vids(packed, dicts),
                    accs,
                    width: w,
                }
            }
            Some(_) => {
                let keyed = parts.into_iter().map(|g| (g.keys.into_values(), g.accs));
                let (keys, accs) = merge_keyed(keyed, w);
                Groups {
                    keys: Keys::Values(keys),
                    accs,
                    width: w,
                }
            }
        }
    }

    /// The operator's output: one row per group, its `keys` key values
    /// then finished aggregates, sorted. A global aggregate (no GROUP
    /// BY) over no rows still yields its one row.
    pub fn finish(self, keys: usize, aggs: &[AggCall]) -> Batch {
        let w = self.width;
        if self.is_empty() && keys == 0 {
            let fresh = aggs
                .iter()
                .map(|(f, _)| Column::from_values(vec![f.accumulator().finish()]));
            return Batch::new(fresh.collect(), 1);
        }
        match self.keys {
            // Vid order is value order: the key columns stay vids.
            Keys::Vids(packed, dicts) => {
                let mut order: Vec<usize> = (0..packed.len()).collect();
                order.sort_unstable_by_key(|&g| packed[g]);
                let vids = unpack_vids(order.iter().map(|&g| packed[g]), &dicts);
                let key = |(d, v): (&Dictionary, Vec<u32>)| Column::Dict(d.clone(), v);
                let agg = |a: usize| {
                    Column::from_values(
                        order
                            .iter()
                            .map(|&g| self.accs[g * w + a].finish())
                            .collect(),
                    )
                };
                let columns = dicts.iter().zip(vids).map(key).chain((0..w).map(agg));
                Batch::new(columns.collect(), order.len())
            }
            Keys::Values(values) => {
                let finished = |(g, mut key): (usize, Vec<Value>)| {
                    key.extend(
                        self.accs[g * w..(g + 1) * w]
                            .iter()
                            .map(Accumulator::finish),
                    );
                    Row(key)
                };
                let mut rows: Vec<Row> = values.into_iter().enumerate().map(finished).collect();
                rows.sort();
                Batch::from_rows(rows, keys + w)
            }
        }
    }
}

/// Parts' keys and accumulators merged on key equality, in first-seen
/// order.
fn merge_keyed<K: Hash + Eq + Clone>(
    parts: impl Iterator<Item = (Vec<K>, Vec<Accumulator>)>,
    w: usize,
) -> (Vec<K>, Vec<Accumulator>) {
    let mut keys: Vec<K> = Vec::new();
    let mut accs: Vec<Accumulator> = Vec::new();
    let mut index: FxHashMap<K, usize> = FxHashMap::default();
    for (part_keys, part_accs) in parts {
        for (g, key) in part_keys.into_iter().enumerate() {
            let from = &part_accs[g * w..(g + 1) * w];
            match index.get(&key) {
                Some(&i) => {
                    let to = &mut accs[i * w..(i + 1) * w];
                    to.iter_mut().zip(from).for_each(|(a, b)| a.merge(b));
                }
                None => {
                    index.insert(key.clone(), keys.len());
                    keys.push(key);
                    accs.extend_from_slice(from);
                }
            }
        }
    }
    (keys, accs)
}

/// Group the rows in play of one batch by `keys` and accumulate `aggs`,
/// their slots reading `values`; also the number of key columns grouped
/// on their vids.
pub fn group_batch(
    b: &Batch,
    keys: &[Expr],
    aggs: &[AggCall],
    values: &[Value],
) -> Result<(Groups, usize)> {
    let sel = &b.sel;
    let key_cols = keys.iter().map(|k| eval_batch(k, b, sel, values));
    let key_cols = key_cols.collect::<Result<Vec<_>>>()?;
    let vid_keys = key_cols
        .iter()
        .filter(|c| matches!(***c, Column::Dict(..)))
        .count();
    let (packed, card, exact) = pack(&key_cols, sel.len());
    let (gids, firsts) = densify(&packed, card);
    let main_dicts: Option<Vec<_>> = (key_cols.iter())
        .map(|c| match &**c {
            Column::Dict(d @ Dictionary::Main(_), _) => Some(d.clone()),
            _ => None,
        })
        .collect();
    let group_keys = match main_dicts {
        Some(dicts) if exact => Keys::Vids(firsts.iter().map(|&j| packed[j]).collect(), dicts),
        _ => {
            let key = |&j: &usize| key_cols.iter().map(|c| c.get(j).into_owned()).collect();
            Keys::Values(firsts.iter().map(key).collect())
        }
    };
    let fresh = firsts
        .iter()
        .flat_map(|_| aggs.iter().map(|(f, _)| f.accumulator()));
    let mut accs: Vec<Accumulator> = fresh.collect();
    let w = aggs.len();
    // Each argument SUM / AVG / COUNT read, evaluated and summed once
    // however many of them read it.
    let mut summed: Vec<(&Expr, Summed)> = Vec::new();
    for (a, (f, arg)) in aggs.iter().enumerate() {
        let acc = |j: usize| gids[j] as usize * w + a;
        let typed = match arg {
            None if *f == AggFunc::CountStar => Cow::Owned(sums(&gids, firsts.len(), None)),
            // Adding no value to any other accumulator changes nothing.
            None => continue,
            Some(e) if matches!(f, AggFunc::Sum | AggFunc::Avg | AggFunc::Count) => {
                let i = match summed.iter().position(|(x, _)| *x == e) {
                    Some(i) => i,
                    None => {
                        let col = eval_batch(e, b, sel, values)?;
                        summed.push((e, Summed::of(col, &gids, firsts.len())));
                        summed.len() - 1
                    }
                };
                match &summed[i].1 {
                    Summed::Typed(sums) => Cow::Borrowed(&sums[..]),
                    Summed::Values(col) => {
                        col.for_each(|j, v| accs[acc(j)].add(v));
                        continue;
                    }
                }
            }
            Some(e) => {
                eval_batch(e, b, sel, values)?.for_each(|j, v| accs[acc(j)].add(v));
                continue;
            }
        };
        for (g, &(count, sum, int_sum)) in typed.iter().enumerate() {
            accs[g * w + a].set_sums(count, sum, int_sum);
        }
    }
    let groups = Groups {
        keys: group_keys,
        accs,
        width: w,
    };
    Ok((groups, vid_keys))
}

/// An argument of `SUM`, `AVG` or `COUNT` over one batch: the typed
/// per-group sums of NULL-free integers or doubles, or the values,
/// which are added one by one.
enum Summed<'a> {
    Typed(Vec<(i64, f64, Option<i64>)>),
    Values(Cow<'a, Column>),
}

impl<'a> Summed<'a> {
    fn of(col: Cow<'a, Column>, gids: &[u32], groups: usize) -> Summed<'a> {
        match col.numbers() {
            Some(x @ (Numbers::Int(_) | Numbers::Double(_))) => {
                Summed::Typed(sums(gids, groups, Some(&x)))
            }
            _ => Summed::Values(col),
        }
    }
}

/// Per group of `gids` (below `groups`), what `Accumulator::add` folds
/// the rows' numbers `x` into — `(count, double sum, exact integer
/// sum)`, added in row order from `0.0` — or, without numbers, the
/// rows `COUNT(*)` counts.
fn sums(gids: &[u32], groups: usize, x: Option<&Numbers>) -> Vec<(i64, f64, Option<i64>)> {
    let mut out = vec![(0i64, 0.0f64, Some(0i64)); groups];
    match x {
        None => gids.iter().for_each(|&g| out[g as usize].0 += 1),
        Some(Numbers::Int(x)) => {
            for (&g, &x) in gids.iter().zip(x.iter()) {
                let (count, sum, int_sum) = &mut out[g as usize];
                *count += 1;
                *sum += x as f64;
                *int_sum = int_sum.and_then(|s| s.checked_add(x));
            }
        }
        Some(Numbers::Double(x)) => {
            for (&g, &x) in gids.iter().zip(x.iter()) {
                let (count, sum, int_sum) = &mut out[g as usize];
                *count += 1;
                *sum += x;
                *int_sum = None;
            }
        }
        Some(Numbers::Date(_)) => unreachable!("dates are added one by one"),
    }
    out
}

/// The codes of `keys` packed into one integer per row, below the
/// returned bound; `exact` when no re-densifying was needed, so that the
/// integers are the codes themselves, digit by digit.
fn pack(keys: &[Cow<'_, Column>], n: usize) -> (Vec<u64>, u64, bool) {
    let mut packed = vec![0u64; n];
    let mut card = 1u64;
    let mut exact = true;
    for col in keys {
        let (codes, c) = codes(col);
        if card.checked_mul(c).is_none() {
            let (ids, firsts) = densify(&packed, card);
            packed = ids.into_iter().map(u64::from).collect();
            card = firsts.len() as u64;
            exact = false;
        }
        for (p, &code) in packed.iter_mut().zip(codes.iter()) {
            *p = *p * c + code as u64;
        }
        card *= c;
    }
    (packed, card, exact)
}

/// Dense ids, in first-seen order, of keys below `card`, and each id's
/// first row.
fn densify(packed: &[u64], card: u64) -> (Vec<u32>, Vec<usize>) {
    let mut firsts = Vec::new();
    let mut id = |j: usize, slot: &mut u32| {
        if *slot == NONE {
            *slot = firsts.len() as u32;
            firsts.push(j);
        }
        *slot
    };
    let ids = if card <= packed.len().max(1 << 10) as u64 {
        let mut table = vec![NONE; card as usize];
        let each = packed.iter().enumerate();
        each.map(|(j, &k)| id(j, &mut table[k as usize])).collect()
    } else {
        let mut table: FxHashMap<u64, u32> = FxHashMap::default();
        let each = packed.iter().enumerate();
        each.map(|(j, &k)| id(j, table.entry(k).or_insert(NONE)))
            .collect()
    };
    (ids, firsts)
}

/// A key column as codes below a bound: a dictionary column's vids, any
/// other column's values interned in first-seen order (equal values,
/// `Int(2)` and `Double(2.0)` included, share a code).
fn codes(col: &Column) -> (Cow<'_, [u32]>, u64) {
    fn intern<K: Hash + Eq>(keys: impl Iterator<Item = K>) -> (Cow<'static, [u32]>, u64) {
        let mut seen: FxHashMap<K, u32> = FxHashMap::default();
        let codes = keys.map(|k| {
            let next = seen.len() as u32;
            *seen.entry(k).or_insert(next)
        });
        let codes: Vec<u32> = codes.collect();
        (codes.into(), seen.len().max(1) as u64)
    }
    // `-0.0` = `0.0`; otherwise doubles are equal exactly when their
    // bits are (`Value`'s order is `total_cmp`).
    let bits = |d: &f64| if *d == 0.0 { 0 } else { d.to_bits() };
    match col {
        Column::Dict(d, vids) => (Cow::Borrowed(vids), d.values().len() as u64 + 1),
        Column::Int(v) => intern(v.iter()),
        Column::Double(v) => intern(v.iter().map(bits)),
        Column::Date(v) => intern(v.iter()),
        Column::Bool(v) => intern(v.iter()),
        Column::Const(_, n) => (vec![0; *n].into(), 1),
        Column::Values(v) => intern(v.iter()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A main fragment's dictionary of `values`, which ascend.
    fn main_dict(values: impl IntoIterator<Item = i64>) -> Dictionary {
        Dictionary::Main(values.into_iter().map(Value::Int).collect())
    }

    #[test]
    fn packing_past_u64_redensifies_and_keeps_first_seen_order() {
        // Four keys of 2^20 + 1 codes each do not pack in 64 bits.
        let n = 40;
        let dict = main_dict(0..1 << 20);
        let col = Column::Dict(dict, (0..n as u32).map(|i| i % 3 + 1).collect());
        let keys: Vec<Cow<Column>> = (0..4).map(|_| Cow::Owned(col.clone())).collect();
        let (packed, card, exact) = pack(&keys, n);
        assert!(!exact);
        let (ids, firsts) = densify(&packed, card);
        assert_eq!(firsts, [0, 1, 2]);
        assert_eq!(&ids[..6], [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn packed_vids_decode_and_sort_as_their_values() {
        let (a, b) = (main_dict([5, 7, 9]), main_dict([-1, 3]));
        let dicts = vec![a, b];
        let base = 3; // two values and NULL
        let pack = |va: u64, vb: u64| va * base + vb;
        let keys = Keys::Vids(vec![pack(3, 1), pack(0, 2), pack(1, 0)], dicts);
        let values = keys.into_values();
        assert_eq!(
            values,
            [
                vec![Value::Int(9), Value::Int(-1)],
                vec![Value::Null, Value::Int(3)],
                vec![Value::Int(5), Value::Null],
            ]
        );
        let mut sorted = values.clone();
        sorted.sort();
        let mut by_packed = [pack(3, 1), pack(0, 2), pack(1, 0)];
        by_packed.sort();
        assert_eq!(by_packed, [pack(0, 2), pack(1, 0), pack(3, 1)]);
        assert_eq!(
            sorted,
            [values[1].clone(), values[2].clone(), values[0].clone()]
        );
    }

    /// Two values with the same bits (doubles) or equal otherwise.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            (Value::Double(_), _) | (_, Value::Double(_)) => false,
            _ => a == b,
        }
    }

    /// Group `arg` by `key` (first-seen order) with every summed call,
    /// and check each accumulator against a fold of `Accumulator::add`
    /// over its group's values in row order: `finish()` and `state()`
    /// equal, doubles bit for bit.
    fn assert_typed_equals_add(key: Column, arg: Column) {
        let n = key.len();
        let b = Batch::new(vec![key, arg], n);
        let aggs: Vec<AggCall> = vec![
            (AggFunc::Sum, Some(Expr::Field(1))),
            (AggFunc::Avg, Some(Expr::Field(1))),
            (AggFunc::Count, Some(Expr::Field(1))),
            (AggFunc::CountStar, None),
        ];
        let (groups, _) = group_batch(&b, &[Expr::Field(0)], &aggs, &[]).unwrap();
        let mut firsts: Vec<Value> = Vec::new();
        let mut rows: Vec<Vec<usize>> = Vec::new();
        for j in 0..n {
            let k = b.columns[0].get(j).into_owned();
            match firsts.iter().position(|f| *f == k) {
                Some(g) => rows[g].push(j),
                None => {
                    firsts.push(k);
                    rows.push(vec![j]);
                }
            }
        }
        assert_eq!(groups.len(), firsts.len());
        for (g, rows) in rows.iter().enumerate() {
            for (a, (f, arg)) in aggs.iter().enumerate() {
                let mut want = f.accumulator();
                for &j in rows {
                    match arg {
                        Some(_) => want.add(&b.columns[1].get(j)),
                        None => want.add(&Value::Null),
                    }
                }
                let got = &groups.accs[g * aggs.len() + a];
                let what = format!("{f:?} group {g}");
                assert!(
                    same(&got.finish(), &want.finish()),
                    "{what}: {:?} vs {:?}",
                    got.finish(),
                    want.finish()
                );
                let (gs, ws) = (got.state(), want.state());
                assert!(
                    gs.iter().zip(&ws).all(|(x, y)| same(x, y)),
                    "{what}: {gs:?} vs {ws:?}"
                );
            }
        }
    }

    /// Group keys `0, 1, 2, 0, 1, 2, …` over `n` rows.
    fn keys(n: usize) -> Column {
        Column::Int((0..n as i64).map(|i| i % 3).collect())
    }

    #[test]
    fn typed_integer_sums_equal_a_fold_of_add() {
        // Group 0 passes i64::MAX: its exact sum is gone, as with `add`,
        // and its SUM turns into a double.
        let ints = vec![i64::MAX, 4, -7, 1, 5, 9, 3, -2, 0];
        assert_typed_equals_add(keys(ints.len()), Column::Int(ints.clone()));
        let (groups, _) = group_batch(
            &Batch::new(vec![keys(9), Column::Int(ints)], 9),
            &[Expr::Field(0)],
            &[(AggFunc::Sum, Some(Expr::Field(1)))],
            &[],
        )
        .unwrap();
        assert!(matches!(groups.accs[0].finish(), Value::Double(_)));
        assert_eq!(groups.accs[1].finish(), Value::Int(4 + 5 - 2));
    }

    #[test]
    fn typed_double_sums_equal_a_fold_of_add() {
        // -0.0 alone, values past f64::MAX, and sums that round.
        let doubles = vec![-0.0, 1e308, 0.1, -0.0, 1e308, 0.2, -0.0, -1e308, 0.3];
        assert_typed_equals_add(keys(doubles.len()), Column::Double(doubles));
        let big = vec![f64::MAX, f64::MAX, -f64::MAX, 1.5];
        assert_typed_equals_add(Column::Int(vec![0; 4]), Column::Double(big));
    }

    #[test]
    fn dictionary_arguments_decode_per_entry_or_per_row_alike() {
        let main = main_dict([-3, 0, 8, i64::MAX]);
        // Fewer entries than rows (per entry), and more (per row).
        let many: Vec<u32> = (0..40).map(|i| i % 4 + 1).collect();
        assert_typed_equals_add(keys(40), Column::Dict(main.clone(), many));
        assert_typed_equals_add(keys(3), Column::Dict(main, vec![4, 2, 4]));
        let doubles = Dictionary::Local([-0.0, 0.5, 1e308].map(Value::Double).into());
        let vids: Vec<u32> = (0..30).map(|i| i % 3 + 1).collect();
        assert_typed_equals_add(keys(30), Column::Dict(doubles.clone(), vids));
        assert_typed_equals_add(keys(2), Column::Dict(doubles, vec![3, 1]));
    }

    #[test]
    fn arguments_with_nulls_add_one_by_one() {
        let main = main_dict([2, 5]);
        let vids: Vec<u32> = (0..12).map(|i| i % 3).collect();
        assert_typed_equals_add(keys(12), Column::Dict(main, vids));
        let values = vec![
            Value::Int(1),
            Value::Null,
            Value::Double(2.5),
            Value::Int(4),
        ];
        assert_typed_equals_add(keys(4), Column::Values(values));
        assert_typed_equals_add(keys(5), Column::Const(Value::Null, 5));
    }
}
