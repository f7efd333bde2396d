//! Span bookkeeping for the traced run: one `hana_obs::Tracer` per
//! statement, opened by the benchmark; the staged driver opens one span
//! per layer call and the executor's own spans nest under them. Spans
//! are aggregated (and a capped sample kept raw) in memory and written
//! out when the run ends.

use std::collections::BTreeMap;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use hana_obs::SpanRecord;

use crate::json::{parse_flat_object, Json};
use crate::stats::percentile;

/// Raw spans kept per client for the span file; aggregates cover every
/// traced statement regardless.
const KEEP_SPANS_PER_CLIENT: usize = 20_000;

/// Name of the benchmark-owned root span of every traced statement.
pub const ROOT: &str = "statement";

/// One span as written to (and read back from) the span file.
#[derive(Debug, Clone)]
pub struct SpanRow {
    pub stmt: u64,
    pub kind: String,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Nanoseconds since the start of the measured window.
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows: Option<u64>,
}

/// What the aggregate needs of a span, whichever form it is held in.
struct SpanView<'a> {
    id: u64,
    parent: Option<u64>,
    name: &'a str,
    dur_ns: u64,
    rows: Option<u64>,
}

/// Run `f` under a fresh tracer and a root span. Returns its result,
/// the wall time the caller saw (tracer set-up and root span included,
/// span read-back excluded) and the recorded spans.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, u64, Vec<SpanRecord>) {
    let start = Instant::now();
    let tracer = hana_obs::Tracer::new();
    let out = {
        let _installed = tracer.install();
        let _root = hana_obs::span(ROOT);
        f()
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    (out, wall_ns, tracer.spans())
}

#[derive(Default)]
struct NameAgg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    /// Σ rows the spans reported.
    rows: u64,
    durations_ns: Vec<u32>,
}

/// `column_scan[lineitem]` and `column_scan[orders]` are one layer row.
fn class_of(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

/// Operators that bring rows into the plan.
fn is_leaf_source(class: &str) -> bool {
    class.ends_with("_scan") || class == "index_seek" || class == "remote_query"
}

/// Per-layer aggregate of every traced statement of one client (merge
/// the clients' aggregates when the run ends).
#[derive(Default)]
pub struct TraceAgg {
    pub statements: u64,
    /// Σ root span durations.
    root_ns: u64,
    /// Σ durations of the root's direct children: the staged sum.
    staged_ns: u64,
    leaf_rows: u64,
    result_rows: u64,
    by_class: BTreeMap<String, NameAgg>,
    /// Per statement kind: (wall seen by the client, staged sum).
    by_kind: BTreeMap<String, (Vec<u64>, Vec<u64>)>,
    kept: Vec<SpanRow>,
}

impl TraceAgg {
    /// Fold in the spans of one statement; `offset_ns` places the
    /// statement's tracer epoch in the window.
    pub fn ingest(
        &mut self,
        stmt: u64,
        kind: &str,
        offset_ns: u64,
        wall_ns: u64,
        result_rows: u64,
        spans: &[SpanRecord],
    ) {
        let views: Vec<SpanView<'_>> = spans
            .iter()
            .map(|s| SpanView {
                id: s.id,
                parent: s.parent,
                name: &s.name,
                dur_ns: s.wall_ns(),
                rows: s.rows,
            })
            .collect();
        self.fold(kind, wall_ns, result_rows, &views);
        if self.kept.len() + spans.len() <= KEEP_SPANS_PER_CLIENT {
            self.kept.extend(spans.iter().map(|s| SpanRow {
                stmt,
                kind: kind.to_string(),
                id: s.id,
                parent: s.parent,
                name: s.name.clone(),
                start_ns: offset_ns + s.start_ns,
                end_ns: offset_ns + s.end_ns.unwrap_or(s.start_ns),
                rows: s.rows,
            }));
        }
    }

    fn fold(&mut self, kind: &str, wall_ns: u64, result_rows: u64, spans: &[SpanView<'_>]) {
        let Some(root) = spans.iter().find(|s| s.parent.is_none()) else {
            return;
        };
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        for s in spans {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let class = class_of(s.name);
            if !self.by_class.contains_key(class) {
                self.by_class.insert(class.to_string(), NameAgg::default());
            }
            let agg = self.by_class.get_mut(class).expect("just inserted");
            agg.count += 1;
            agg.total_ns += s.dur_ns;
            // A span's self time is its duration minus the part its
            // children cover.
            agg.self_ns += s.dur_ns.saturating_sub(children);
            agg.rows += s.rows.unwrap_or(0);
            agg.durations_ns.push(s.dur_ns.min(u32::MAX as u64) as u32);
            if is_leaf_source(class) {
                self.leaf_rows += s.rows.unwrap_or(0);
            }
        }
        let staged = child_ns.get(&root.id).copied().unwrap_or(0);
        self.statements += 1;
        self.root_ns += root.dur_ns;
        self.staged_ns += staged;
        self.result_rows += result_rows;
        if !self.by_kind.contains_key(kind) {
            self.by_kind.insert(kind.to_string(), Default::default());
        }
        let per_kind = self.by_kind.get_mut(kind).expect("just inserted");
        per_kind.0.push(wall_ns);
        per_kind.1.push(staged);
    }

    pub fn merge(&mut self, other: TraceAgg) {
        self.statements += other.statements;
        self.root_ns += other.root_ns;
        self.staged_ns += other.staged_ns;
        self.leaf_rows += other.leaf_rows;
        self.result_rows += other.result_rows;
        for (class, o) in other.by_class {
            let agg = self.by_class.entry(class).or_default();
            agg.count += o.count;
            agg.total_ns += o.total_ns;
            agg.self_ns += o.self_ns;
            agg.rows += o.rows;
            agg.durations_ns.extend(o.durations_ns);
        }
        for (kind, (wall, staged)) in other.by_kind {
            let k = self.by_kind.entry(kind).or_default();
            k.0.extend(wall);
            k.1.extend(staged);
        }
        self.kept.extend(other.kept);
    }

    fn sorted_durations(&self, class: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .by_class
            .get(class)
            .map(|a| a.durations_ns.iter().map(|&x| x as u64).collect())
            .unwrap_or_default();
        d.sort_unstable();
        d
    }

    /// Median duration of the spans of `class`, in µs (0 if none ran).
    pub fn p50_us(&self, class: &str) -> f64 {
        percentile(&self.sorted_durations(class), 50.0) as f64 / 1e3
    }

    /// Median duration in ms.
    pub fn p50_ms(&self, class: &str) -> f64 {
        self.p50_us(class) / 1e3
    }

    /// Σ rows the spans of `class` reported.
    pub fn rows(&self, class: &str) -> u64 {
        self.by_class.get(class).map_or(0, |a| a.rows)
    }

    /// Σ self time of the classes `pick` accepts, per traced statement.
    pub fn self_us_per_stmt(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let ns: u64 = self
            .by_class
            .iter()
            .filter(|(class, _)| pick(class))
            .map(|(_, a)| a.self_ns)
            .sum();
        ns as f64 / 1e3 / self.statements.max(1) as f64
    }

    /// Result rows per row the leaf operators (scans, seeks, remote
    /// queries) handed up.
    pub fn rows_out_per_leaf_row(&self) -> f64 {
        if self.leaf_rows == 0 {
            0.0
        } else {
            self.result_rows as f64 / self.leaf_rows as f64
        }
    }

    /// Per kind `(count, median traced wall ns, median staged sum ns)`.
    pub fn kind_medians(&self) -> BTreeMap<String, (u64, u64, u64)> {
        self.by_kind
            .iter()
            .map(|(kind, (wall, staged))| {
                let mut w = wall.clone();
                let mut s = staged.clone();
                w.sort_unstable();
                s.sort_unstable();
                let m = (w.len() as u64, percentile(&w, 50.0), percentile(&s, 50.0));
                (kind.clone(), m)
            })
            .collect()
    }

    /// The per-layer table: one row per span class, largest self time
    /// first — `(class, count, self ns, total ns, median µs)`.
    fn table_rows(&self) -> Vec<(&str, u64, u64, u64, f64)> {
        let mut rows: Vec<_> = self
            .by_class
            .iter()
            .map(|(class, a)| {
                (
                    class.as_str(),
                    a.count,
                    a.self_ns,
                    a.total_ns,
                    self.p50_us(class),
                )
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows
    }

    /// The table with each class's share of the traced statements' wall
    /// time.
    pub fn table(&self) -> Vec<Json> {
        self.table_rows()
            .into_iter()
            .map(|(class, count, self_ns, total_ns, p50_us)| {
                Json::obj([
                    ("span", Json::str(class)),
                    ("count", Json::Int(count as i64)),
                    ("self_ms", Json::Num(self_ns as f64 / 1e6)),
                    ("total_ms", Json::Num(total_ns as f64 / 1e6)),
                    (
                        "self_share_of_statement_wall",
                        Json::Num(self_ns as f64 / self.root_ns.max(1) as f64),
                    ),
                    ("p50_us", Json::Num(p50_us)),
                ])
            })
            .collect()
    }

    pub fn render_table(&self, title: &str) -> String {
        let mut out = format!(
            "{title}: {} traced statements, staged spans cover {:.1}% of their wall time\n\
             {:<28} {:>9} {:>12} {:>8} {:>12}\n",
            self.statements,
            100.0 * self.staged_ns as f64 / self.root_ns.max(1) as f64,
            "span",
            "count",
            "self ms",
            "share",
            "p50 us"
        );
        for (class, count, self_ns, _, p50_us) in self.table_rows() {
            out.push_str(&format!(
                "{:<28} {:>9} {:>12.3} {:>7.1}% {:>12.1}\n",
                class,
                count,
                self_ns as f64 / 1e6,
                100.0 * self_ns as f64 / self.root_ns.max(1) as f64,
                p50_us,
            ));
        }
        out
    }

    /// Write the kept spans, one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let line = Json::obj([
                ("stmt", Json::Int(s.stmt as i64)),
                ("kind", Json::str(s.kind.as_str())),
                ("span", Json::Int(s.id as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                ("rows", s.rows.map_or(Json::Null, |r| Json::Int(r as i64))),
            ]);
            writeln!(w, "{line}")?;
        }
        w.flush()?;
        Ok(self.kept.len())
    }

    /// Rebuild an aggregate from a span file (result-row counts and the
    /// client-side wall time are not in the file: the root span stands
    /// in for the wall time).
    pub fn read_spans(path: &Path) -> std::io::Result<TraceAgg> {
        let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut by_stmt: BTreeMap<u64, Vec<SpanRow>> = BTreeMap::new();
        for line in std::io::BufReader::new(std::fs::File::open(path)?).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let obj = parse_flat_object(&line).ok_or_else(|| bad("not a span record"))?;
            let int = |k: &str| match obj.get(k) {
                Some(Json::Int(i)) => Some(*i as u64),
                _ => None,
            };
            let text = |k: &str| match obj.get(k) {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            };
            let row = SpanRow {
                stmt: int("stmt").ok_or_else(|| bad("span record without stmt"))?,
                kind: text("kind").ok_or_else(|| bad("span record without kind"))?,
                id: int("span").ok_or_else(|| bad("span record without span"))?,
                parent: int("parent"),
                name: text("name").ok_or_else(|| bad("span record without name"))?,
                start_ns: int("start_ns").ok_or_else(|| bad("span record without start_ns"))?,
                end_ns: int("end_ns").ok_or_else(|| bad("span record without end_ns"))?,
                rows: int("rows"),
            };
            if row.end_ns < row.start_ns {
                return Err(bad("span ends before it starts"));
            }
            by_stmt.entry(row.stmt).or_default().push(row);
        }
        let mut agg = TraceAgg::default();
        for rows in by_stmt.values() {
            let Some(root) = rows.iter().find(|r| r.parent.is_none()) else {
                continue;
            };
            let views: Vec<SpanView<'_>> = rows
                .iter()
                .map(|r| SpanView {
                    id: r.id,
                    parent: r.parent,
                    name: &r.name,
                    dur_ns: r.end_ns - r.start_ns,
                    rows: r.rows,
                })
                .collect();
            agg.fold(&root.kind, root.end_ns - root.start_ns, 0, &views);
        }
        Ok(agg)
    }
}
