//! One query block: a `SELECT`'s FROM / JOIN bindings, the binding
//! each WHERE conjunct reads and the columns of each that the statement
//! reads, analysed once against an engine's [`SchemaLookup`]. The
//! planner maps it to plan nodes, Hive to MapReduce jobs and the IQ
//! adapter to an `IqPlan`.

use hana_types::{HanaError, Result, Schema};

use crate::ast::{Expr, JoinClause, Query, TableRef};

/// Where an engine looks the tables of a FROM clause up.
pub trait SchemaLookup {
    /// What the engine keeps of a table it found.
    type Handle;

    /// The table `name`: its handle and its schema.
    fn table(&self, name: &str) -> Result<(Self::Handle, Schema)>;

    /// The table function `name` called with `args`. Only the local
    /// catalog has table functions.
    fn function(&self, name: &str, args: &[Expr]) -> Result<(Self::Handle, Schema)> {
        let _ = args;
        Err(HanaError::Unsupported(format!(
            "FROM supports named tables only here, got table function '{name}'"
        )))
    }
}

/// One FROM / JOIN entry of a block.
#[derive(Debug)]
pub struct Binding<H> {
    /// The name the statement calls it: its alias, else its table name.
    pub name: String,
    /// The table (or table function) name as written.
    pub table: String,
    /// What the lookup returned for it.
    pub handle: H,
    /// The table's schema, every column named `<name>.<column>`.
    pub schema: Schema,
    /// The WHERE conjuncts that read this binding and no other.
    pub preds: Vec<Expr>,
    /// Per column, whether anything but `preds` reads it.
    read: Vec<bool>,
    /// Per column, whether `preds` read it.
    filtered: Vec<bool>,
}

impl<H> Binding<H> {
    /// The columns (ascending) a scan of this binding produces for the
    /// statement: those read by its conjuncts or by anything after them
    /// (`SELECT *`: all). A binding nothing names, as under `COUNT(*)`,
    /// keeps its first column: a row needs one.
    pub fn columns(&self) -> Vec<usize> {
        first_if_none(self.read.iter().zip(&self.filtered).map(|(r, f)| *r || *f))
    }

    /// The columns (ascending) read after the binding's own conjuncts
    /// have run — what a scan that filters before it cuts emits — with
    /// the same first-column rule as [`Binding::columns`].
    pub fn emitted(&self) -> Vec<usize> {
        first_if_none(self.read.iter().copied())
    }
}

fn first_if_none(marks: impl Iterator<Item = bool>) -> Vec<usize> {
    let kept: Vec<usize> = marks
        .enumerate()
        .filter_map(|(i, k)| k.then_some(i))
        .collect();
    if kept.is_empty() {
        vec![0]
    } else {
        kept
    }
}

/// A `SELECT`'s bindings, its WHERE conjuncts placed on them, and the
/// columns of each that the statement reads.
///
/// A conjunct is placed on a binding when every column it names
/// resolves to that binding ([`QueryBlock::resolve`]). One that names no
/// column, or columns of two bindings, or a column that resolves to no
/// binding or to two, is **residual**: it runs over the joined row,
/// where resolution reports what is wrong with it.
#[derive(Debug)]
pub struct QueryBlock<'q, H> {
    /// FROM, then each JOIN, in the order written.
    pub bindings: Vec<Binding<H>>,
    /// The conjuncts no single binding owns, in WHERE order.
    pub residual: Vec<Expr>,
    query: &'q Query,
}

impl<'q, H> QueryBlock<'q, H> {
    /// Bind `q`'s FROM and JOINs through `lookup`, place its WHERE
    /// conjuncts and mark the columns it reads. A query without FROM and
    /// a derived table in FROM are refused here, for every engine.
    pub fn analyse<L>(q: &'q Query, lookup: &L) -> Result<QueryBlock<'q, H>>
    where
        L: SchemaLookup<Handle = H> + ?Sized,
    {
        let from = q
            .from
            .as_ref()
            .ok_or_else(|| HanaError::Plan("query without FROM clause".into()))?;
        let tables = std::iter::once(from).chain(q.joins.iter().map(|j| &j.table));
        let bindings = tables.map(|t| bind(t, lookup)).collect::<Result<_>>()?;
        let mut block = QueryBlock {
            bindings,
            residual: Vec::new(),
            query: q,
        };
        for c in q.filter.iter().flat_map(Expr::conjuncts) {
            // Where each column resolves, if it does.
            let at = c.columns().into_iter();
            let at: Vec<_> = at.map(|(q, n)| block.resolve(q.as_deref(), n)).collect();
            match at.first() {
                Some(&Some((i, _))) if at.iter().all(|a| a.is_some_and(|(j, _)| j == i)) => {
                    let b = &mut block.bindings[i];
                    at.iter()
                        .flatten()
                        .for_each(|&(_, col)| b.filtered[col] = true);
                    b.preds.push(c.clone());
                }
                _ => block.residual.push(c.clone()),
            }
        }
        block.mark_reads();
        Ok(block)
    }

    /// The statement the block was analysed from.
    pub fn query(&self) -> &'q Query {
        self.query
    }

    /// Each JOIN clause with the binding it joins, in FROM order.
    pub fn joins(&self) -> impl Iterator<Item = (&'q JoinClause, &Binding<H>)> {
        self.query.joins.iter().zip(&self.bindings[1..])
    }

    /// The one binding column `(qualifier, name)` resolves to, and its
    /// position in that binding's schema: a qualifier picks the binding
    /// of that name, no qualifier every binding. `None` when no binding
    /// or two have the column.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Option<(usize, usize)> {
        let mut found = None;
        for (i, b) in self.bindings.iter().enumerate() {
            if qualifier.is_some_and(|q| q != b.name) {
                continue;
            }
            if let Some(c) = b.schema.index_of(&format!("{}.{name}", b.name)) {
                if found.is_some() {
                    return None;
                }
                found = Some((i, c));
            }
        }
        found
    }

    /// Mark, per binding, the columns read by everything but the
    /// conjuncts placed on it. A reference marks the binding its
    /// qualifier names; an unqualified one, or one whose qualifier is no
    /// binding of that column (which resolution then matches by suffix),
    /// marks every binding with a column of that name, so what resolved
    /// — or was ambiguous — over the whole schemas still does over the
    /// columns kept.
    fn mark_reads(&mut self) {
        let q = self.query;
        if q.selects_star() {
            self.bindings.iter_mut().for_each(|b| b.read.fill(true));
            return;
        }
        // One scratch key and hit list for the whole walk: this runs per
        // planned statement, point reads included.
        let (mut key, mut hits) = (String::new(), Vec::new());
        let bindings = &mut self.bindings;
        let mut mark = |n: &Expr| {
            let Expr::Column { qualifier, name } = n else {
                return;
            };
            hits.clear();
            for (bi, b) in bindings.iter().enumerate() {
                key.clear();
                key.extend([b.name.as_str(), ".", name.as_str()]);
                if let Some(i) = b.schema.index_of(&key) {
                    hits.push((bi, i));
                }
            }
            let owner = hits
                .iter()
                .find(|(bi, _)| Some(&bindings[*bi].name) == qualifier.as_ref());
            for &(bi, i) in owner.map_or(&hits[..], std::slice::from_ref) {
                bindings[bi].read[i] = true;
            }
        };
        let select = q.select.iter().map(|s| &s.expr);
        let on = q.joins.iter().map(|j| &j.on);
        let order = q.order_by.iter().map(|(e, _)| e);
        let later = select.chain(on).chain(&self.residual).chain(&q.group_by);
        later
            .chain(&q.having)
            .chain(order)
            .for_each(|e| e.walk(&mut mark));
    }
}

fn bind<L: SchemaLookup + ?Sized>(t: &TableRef, lookup: &L) -> Result<Binding<L::Handle>> {
    let (table, alias, (handle, schema)) = match t {
        TableRef::Named { name, alias } => (name, alias, lookup.table(name)?),
        TableRef::Function { name, args, alias } => (name, alias, lookup.function(name, args)?),
        TableRef::Subquery { .. } => {
            return Err(HanaError::Unsupported(
                "derived tables in FROM are not supported yet".into(),
            ))
        }
    };
    let name = alias.clone().unwrap_or_else(|| table.clone());
    Ok(Binding {
        schema: schema.qualified(&name),
        name,
        table: table.clone(),
        handle,
        preds: Vec::new(),
        read: vec![false; schema.len()],
        filtered: vec![false; schema.len()],
    })
}

impl Query {
    /// `SELECT *`: an empty or wildcard select list names every column.
    pub fn selects_star(&self) -> bool {
        self.select.is_empty() || self.select.iter().any(|s| matches!(s.expr, Expr::Wildcard))
    }
}

#[cfg(test)]
mod tests {
    use hana_types::DataType;

    use super::*;
    use crate::{parse_statement, Statement};

    /// `a(k, v, x)` and `b(k, w, x)`: `k` and `x` are in both, `v` and
    /// `w` in one each.
    struct Tables;

    impl SchemaLookup for Tables {
        type Handle = ();

        fn table(&self, name: &str) -> Result<((), Schema)> {
            let int3 = |c: [&str; 3]| Schema::of(&c.map(|c| (c, DataType::Int)));
            match name {
                "a" => Ok(((), int3(["k", "v", "x"]))),
                "b" => Ok(((), int3(["k", "w", "x"]))),
                _ => Err(HanaError::Catalog(format!("unknown table '{name}'"))),
            }
        }
    }

    fn query(sql: &str) -> Query {
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            panic!("not a query: {sql}")
        };
        q
    }

    fn analyse(q: &Query) -> QueryBlock<'_, ()> {
        QueryBlock::analyse(q, &Tables).unwrap()
    }

    /// Per binding, its conjuncts as text, then the residual ones.
    fn placed(sql: &str) -> (Vec<Vec<String>>, Vec<String>) {
        let q = query(sql);
        let block = analyse(&q);
        let text = |preds: &[Expr]| preds.iter().map(|c| c.to_string()).collect();
        let per = block.bindings.iter().map(|b| text(&b.preds)).collect();
        (per, text(&block.residual))
    }

    const JOIN: &str = "SELECT a.v FROM a JOIN b ON a.k = b.k WHERE";

    #[test]
    fn a_column_of_one_binding_places_its_conjunct_there() {
        // Qualified, and unqualified where one binding has the column.
        let (per, residual) = placed(&format!("{JOIN} b.x = 1 AND v > 2 AND w < 3"));
        assert_eq!(per, [vec!["(v > 2)"], vec!["(b.x = 1)", "(w < 3)"]]);
        assert!(residual.is_empty());
        let q = query(&format!("{JOIN} w < 3"));
        assert_eq!(analyse(&q).resolve(None, "w"), Some((1, 1)));
    }

    #[test]
    fn an_ambiguous_column_leaves_its_conjunct_residual() {
        let (per, residual) = placed(&format!("{JOIN} x = 1 AND k > 0"));
        assert_eq!(per, [Vec::<String>::new(), vec![]]);
        assert_eq!(residual, ["(x = 1)", "(k > 0)"]);
    }

    #[test]
    fn a_conjunct_over_two_bindings_or_none_is_residual() {
        let (per, residual) = placed(&format!("{JOIN} a.v = b.w AND 1 = 0"));
        assert_eq!(per, [Vec::<String>::new(), vec![]]);
        assert_eq!(residual, ["(a.v = b.w)", "(1 = 0)"]);
        // With one binding too: a conjunct that names no column owns none.
        let (per, residual) = placed("SELECT v FROM a WHERE 1 = 0 AND v = 1");
        assert_eq!(
            (per, residual),
            (vec![vec!["(v = 1)".into()]], vec!["(1 = 0)".into()])
        );
    }

    #[test]
    fn a_qualifier_that_names_no_binding_is_residual_and_marks_by_name() {
        let q = query(&format!("{JOIN} t.w = 1"));
        let block = analyse(&q);
        assert_eq!(block.residual.len(), 1);
        assert!(block.bindings.iter().all(|b| b.preds.is_empty()));
        // Resolution matches it by suffix over the joined row, so `b.w`
        // is read; `a.v` is the select list's and `k` the ON's.
        assert_eq!(block.bindings[0].columns(), [0, 1]);
        assert_eq!(block.bindings[1].columns(), [0, 1]);
    }

    #[test]
    fn a_scan_keeps_what_its_conjuncts_and_later_operators_read() {
        let q = query("SELECT a.v FROM a JOIN b ON a.k = b.k WHERE a.x = 1 AND b.w = 2");
        let block = analyse(&q);
        let (a, b) = (&block.bindings[0], &block.bindings[1]);
        assert_eq!((a.columns(), a.emitted()), (vec![0, 1, 2], vec![0, 1]));
        assert_eq!((b.columns(), b.emitted()), (vec![0, 1], vec![0]));
    }

    #[test]
    fn select_star_keeps_every_column() {
        for sql in [
            "SELECT * FROM a JOIN b ON a.k = b.k WHERE a.v = 1",
            "SELECT * FROM a",
        ] {
            for b in analyse(&query(sql)).bindings {
                assert_eq!(
                    (b.columns(), b.emitted()),
                    (vec![0, 1, 2], vec![0, 1, 2]),
                    "{sql}"
                );
            }
        }
    }

    #[test]
    fn a_binding_nothing_names_keeps_its_first_column() {
        let q = query("SELECT COUNT(*) FROM b");
        let b = &analyse(&q).bindings[0];
        assert_eq!((b.columns(), b.emitted()), (vec![0], vec![0]));
        // Its conjunct's columns are read before the cut, not after.
        let q = query("SELECT COUNT(*) FROM b WHERE x > 1");
        let b = &analyse(&q).bindings[0];
        assert_eq!((b.columns(), b.emitted()), (vec![2], vec![0]));
    }

    #[test]
    fn bindings_are_qualified_by_alias_and_joined_in_from_order() {
        let q = query("SELECT p.v FROM a p JOIN b ON p.k = b.k JOIN a q ON q.k = b.k");
        let block = analyse(&q);
        let names: Vec<(&str, &str)> = block
            .bindings
            .iter()
            .map(|b| (b.name.as_str(), b.table.as_str()))
            .collect();
        assert_eq!(names, [("p", "a"), ("b", "b"), ("q", "a")]);
        assert_eq!(block.bindings[2].schema.column(1).name, "q.v");
        let joined: Vec<&str> = block.joins().map(|(_, b)| b.name.as_str()).collect();
        assert_eq!(joined, ["b", "q"]);
    }

    #[test]
    fn what_no_engine_binds_is_refused_here() {
        let err = |sql: &str| {
            QueryBlock::analyse(&query(sql), &Tables)
                .unwrap_err()
                .to_string()
        };
        assert!(err("SELECT k FROM (SELECT k FROM a) d").contains("derived tables"));
        assert!(err("SELECT * FROM f(1)").contains("table function 'f'"));
        assert!(err("SELECT k FROM a JOIN nope ON a.k = nope.k").contains("unknown table 'nope'"));
    }
}
