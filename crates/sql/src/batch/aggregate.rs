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
//! `hana_types::Accumulator`, flat, `aggs.len()` per group.

use std::borrow::Cow;
use std::hash::Hash;

use hana_types::{Accumulator, AggFunc, FxHashMap, Result, Row, Value};

use super::{eval_batch, Batch, Column, Dictionary};
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

/// Digit `k` of packed vids over `dicts`.
fn vid(packed: u64, k: usize, dicts: &[Dictionary]) -> u32 {
    let base = |d: &Dictionary| d.values().len() as u64 + 1;
    let below: u64 = dicts[k + 1..].iter().map(base).product();
    (packed / below % base(&dicts[k])) as u32
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
                let key = |&p: &u64| {
                    (0..dicts.len())
                        .map(|k| dicts[k].value(vid(p, k, &dicts)).clone())
                        .collect()
                };
                packed.iter().map(key).collect()
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
    pub fn merge(aggs: &[AggCall], parts: Vec<Groups>) -> Groups {
        let w = aggs.len();
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
                let key = |k: usize| {
                    let vids = order.iter().map(|&g| vid(packed[g], k, &dicts)).collect();
                    Column::Dict(dicts[k].clone(), vids)
                };
                let agg = |a: usize| {
                    Column::from_values(
                        order
                            .iter()
                            .map(|&g| self.accs[g * w + a].finish())
                            .collect(),
                    )
                };
                let columns = (0..dicts.len()).map(key).chain((0..w).map(agg));
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
    for (a, (_, arg)) in aggs.iter().enumerate() {
        let acc = |j: usize| gids[j] as usize * w + a;
        match arg {
            // COUNT(*)
            None => (0..gids.len()).for_each(|j| accs[acc(j)].add(&Value::Null)),
            Some(e) => eval_batch(e, b, sel, values)?.for_each(|j, v| accs[acc(j)].add(v)),
        }
    }
    let groups = Groups {
        keys: group_keys,
        accs,
        width: w,
    };
    Ok((groups, vid_keys))
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
}
