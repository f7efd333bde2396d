//! What the four workloads share: the run configuration, the client
//! that sends a statement down the plain or the staged path and times
//! it, the failure tally, and the result every workload hands back.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hana_obs::RegistrySnapshot;
use hana_session::{PreparedStatement, Session, SessionManager};
use hana_types::{Result, ResultSet, Value};

use crate::json::Json;
use crate::staged::{Staged, StagedPrepared};
use crate::stats::{geomean, median, p50_ms, percentile};
use crate::trace::{traced, TraceAgg};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Share of the window a traced run spends on the plain path first, to
/// have the untraced latency its staged sum is held against.
const UNTRACED_SHARE_OF_TRACED_RUN: f64 = 0.4;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out`: durable-platform directories and span files.
    pub out_dir: PathBuf,
}

impl Config {
    /// `(plain-path duration, whole window)`.
    pub fn window(&self) -> (Duration, Duration) {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (total.mul_f64(UNTRACED_SHARE_OF_TRACED_RUN), total)
        } else {
            (total, total)
        }
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(reason());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(5);
    }
}

/// Latency samples of one statement kind, nanoseconds.
pub type Samples = BTreeMap<&'static str, Vec<u64>>;

pub fn merge_samples(into: &mut Samples, from: Samples) {
    for (kind, s) in from {
        into.entry(kind).or_default().extend(s);
    }
}

pub enum Call<'c> {
    Text(&'c str),
    Prepared(&'c Prepared, &'c [Value]),
}

/// One statement prepared for both paths.
pub struct Prepared {
    plain: PreparedStatement,
    staged: StagedPrepared,
}

/// One client: its own session, and the staged twin of that session.
pub struct Client<'m> {
    id: u64,
    session: Session,
    staged: Staged<'m>,
    window_start: Instant,
    /// When the latest plain-path statement returned.
    plain_end: Instant,
    statements: u64,
    /// Plain-path latencies by statement kind.
    pub plain: Samples,
    pub agg: TraceAgg,
}

impl<'m> Client<'m> {
    pub fn connect(mgr: &'m SessionManager, id: u64) -> Result<Client<'m>> {
        Ok(Client {
            id,
            session: mgr.connect("SYSTEM", "manager")?,
            staged: Staged::connect(mgr)?,
            window_start: Instant::now(),
            plain_end: Instant::now(),
            statements: 0,
            plain: Samples::new(),
            agg: TraceAgg::default(),
        })
    }

    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        Ok(Prepared {
            plain: self.session.prepare(sql)?,
            staged: self.staged.prepare(sql)?,
        })
    }

    /// Forget warm-up samples and put the span clock at the window start.
    pub fn start_window(&mut self, at: Instant) {
        self.window_start = at;
        self.plain_end = at;
        self.plain.clear();
        self.agg = TraceAgg::default();
    }

    /// Seconds from the window start to the end of the last plain-path
    /// statement: what this client's plain-path samples took.
    pub fn plain_window_s(&self) -> f64 {
        (self.plain_end - self.window_start).as_secs_f64()
    }

    /// Execute one statement and record its latency under `kind`; with
    /// `trace`, down the staged path under a tracer.
    pub fn run(&mut self, trace: bool, kind: &'static str, call: Call<'_>) -> Result<ResultSet> {
        if !trace {
            let start = Instant::now();
            let result = match call {
                Call::Text(sql) => self.session.execute(sql),
                Call::Prepared(p, params) => self.session.execute_prepared(&p.plain, params),
            };
            self.plain_end = Instant::now();
            let ns = (self.plain_end - start).as_nanos() as u64;
            self.plain.entry(kind).or_default().push(ns);
            return result;
        }
        let offset_ns = self.window_start.elapsed().as_nanos() as u64;
        let staged = &self.staged;
        let (result, wall_ns, spans) = traced(|| match call {
            Call::Text(sql) => staged.execute(sql),
            Call::Prepared(p, params) => staged.execute_prepared(&p.staged, params),
        });
        self.statements += 1;
        let rows = result.as_ref().map_or(0, |rs| rs.rows.len() as u64);
        let stmt = (self.id << 40) | self.statements;
        self.agg
            .ingest(stmt, kind, offset_ns, wall_ns, rows, &spans);
        result
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub tally: Tally,
    /// One entry per set-up, seconds.
    pub setups_s: Vec<f64>,
    /// Wall time of the plain-path part of the window, as measured.
    pub plain_window_s: f64,
    /// Plain-path latencies of the kinds a user of the system waits for.
    pub plain: Samples,
    /// Traced runs only.
    pub agg: TraceAgg,
    /// Per-layer values the workload measured itself (counter deltas,
    /// side probes); span-derived ones are added from `agg`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Informational values, printed and never gated.
    pub info: Vec<(String, Json)>,
}

/// One end-to-end quantity of a run.
pub struct EndToEnd {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Part of the result line and of `/BENCHMARK.json`; the others did
    /// not repeat within a tenth on the shared two-core machine the
    /// benchmark was defined on and are printed for information.
    pub gated: bool,
}

/// The end-to-end quantities, defined the same way on every workload.
///
/// The gated latencies are lower quartiles per statement kind: on a
/// shared machine interference only ever adds time, and the lower
/// quartile repeated about three times better than the median (spread
/// 8–11 % against 14–49 % over eight seeds in a noisy quarter of an
/// hour). Medians, the tail and the measured throughput are printed.
pub fn end_to_end(o: &Outcome) -> Vec<EndToEnd> {
    let statements: usize = o.plain.values().map(Vec::len).sum();
    let mut all: Vec<u64> = o.plain.values().flatten().copied().collect();
    all.sort_unstable();
    let mut q1_ms = Vec::new();
    let mut p50_ms = Vec::new();
    let mut mix_ms = 0.0;
    for samples in o.plain.values().filter(|s| !s.is_empty()) {
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let q1 = percentile(&sorted, 25.0) as f64 / 1e6;
        q1_ms.push(q1);
        p50_ms.push(percentile(&sorted, 50.0) as f64 / 1e6);
        mix_ms += q1 * samples.len() as f64 / statements as f64;
    }
    let metric = |name, value, unit, gated| EndToEnd {
        name,
        value,
        unit,
        gated,
    };
    vec![
        metric("setup_s", median(&o.setups_s), "s", true),
        // Every kind weighs the same: a 2x on Q6 counts as a 2x on Q18.
        metric("latency_q1_geomean_ms", geomean(&q1_ms), "ms", true),
        // Kinds weigh by their share of the statements: the time per
        // statement a closed-loop client's throughput follows.
        metric("latency_q1_mix_ms", mix_ms, "ms", true),
        metric(
            "throughput_ops_s",
            statements as f64 / o.plain_window_s,
            "1/s",
            false,
        ),
        metric("latency_p50_geomean_ms", geomean(&p50_ms), "ms", false),
        metric(
            "latency_p95_ms",
            percentile(&all, 95.0) as f64 / 1e6,
            "ms",
            false,
        ),
    ]
}

/// Per statement kind: sample count, extremes, lower quartile, median,
/// and the highest percentile that still has ten samples beyond it.
pub fn kind_table(samples: &Samples) -> Json {
    Json::obj(samples.iter().map(|(kind, s)| {
        let mut sorted = s.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let tail = [99.9, 99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find(|p| (n as f64 * (100.0 - p) / 100.0) >= 10.0);
        let mut fields = vec![
            ("samples", Json::Int(n as i64)),
            ("min_ms", Json::Num(percentile(&sorted, 0.0) as f64 / 1e6)),
            ("q1_ms", Json::Num(percentile(&sorted, 25.0) as f64 / 1e6)),
            ("p50_ms", Json::Num(percentile(&sorted, 50.0) as f64 / 1e6)),
            ("max_ms", Json::Num(percentile(&sorted, 100.0) as f64 / 1e6)),
        ];
        if let Some(p) = tail {
            fields.push(("tail_percentile", Json::Num(p)));
            fields.push(("tail_ms", Json::Num(percentile(&sorted, p) as f64 / 1e6)));
        }
        (*kind, Json::obj(fields))
    }))
}

/// Coverage of the plain-path latency by the staged spans, and the cost
/// of tracing, both weighted by the traced statement counts per kind.
pub fn coverage_and_overhead(o: &Outcome) -> (f64, f64) {
    let (mut plain, mut staged, mut traced_wall) = (0.0, 0.0, 0.0);
    for (kind, (n, wall_p50, staged_p50)) in o.agg.kind_medians() {
        let Some(samples) = o.plain.get(kind.as_str()).filter(|s| !s.is_empty()) else {
            continue;
        };
        let n = n as f64;
        plain += n * p50_ms(samples) * 1e6;
        staged += n * staged_p50 as f64;
        traced_wall += n * wall_p50 as f64;
    }
    if plain == 0.0 {
        return (0.0, 0.0);
    }
    (staged / plain, traced_wall / plain - 1.0)
}

/// Counter deltas between two registry snapshots.
struct CounterDelta<'s> {
    before: &'s RegistrySnapshot,
    after: &'s RegistrySnapshot,
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl CounterDelta<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }

    fn counter_sum(&self, prefix: &str) -> f64 {
        self.after
            .counter_sum(prefix)
            .saturating_sub(self.before.counter_sum(prefix)) as f64
    }

    /// Mean of the observations a histogram gained.
    fn histogram_mean(&self, name: &str) -> f64 {
        let (a, b) = (self.after.histogram(name), self.before.histogram(name));
        ratio(
            a.sum.saturating_sub(b.sum) as f64,
            a.count.saturating_sub(b.count) as f64,
        )
    }
}

/// The registry-derived per-layer values every workload reports, from
/// the snapshots taken around its window.
pub fn registry_layers(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
) -> BTreeMap<&'static str, f64> {
    let d = CounterDelta { before, after };
    let hits = d.counter("hana_session_plan_cache_hits_total");
    let misses = d.counter("hana_session_plan_cache_misses_total");
    BTreeMap::from([
        ("session.plan_cache_hit_ratio", ratio(hits, hits + misses)),
        (
            "session.plan_cache_evictions",
            d.counter("hana_session_plan_cache_evictions_total"),
        ),
        (
            "session.shed",
            d.counter_sum("hana_admission_rejected_total_")
                + d.counter_sum("hana_admission_timeout_total_"),
        ),
        (
            "columnar.blocks_scanned",
            d.counter("hana_columnar_blocks_scanned_total"),
        ),
        (
            "columnar.blocks_skipped",
            d.counter("hana_columnar_blocks_skipped_total"),
        ),
        (
            "columnar.merge_rows",
            d.counter("hana_columnar_delta_merge_rows_total"),
        ),
        (
            "columnar.merge_ms",
            d.histogram_mean("hana_columnar_delta_merge_ns") / 1e6,
        ),
        ("exec.morsels", d.counter("hana_exec_morsels_total")),
        ("exec.tasks", d.counter("hana_exec_tasks_total")),
        (
            "exec.pool_utilization",
            after.gauge("hana_exec_pool_utilization_permille") as f64 / 1000.0,
        ),
        ("txn.wal_fsyncs", d.counter("hana_wal_fsyncs_total")),
        ("txn.wal_appends", d.counter("hana_wal_appends_total")),
        (
            "txn.wal_txns_per_group",
            d.histogram_mean("hana_wal_group_commit_txns"),
        ),
        (
            "txn.wal_fsync_us",
            d.histogram_mean("hana_wal_fsync_ns") / 1e3,
        ),
        (
            "sda.remote_roundtrips",
            d.counter_sum("hana_sda_attempts_total_"),
        ),
        ("sda.retries", d.counter_sum("hana_sda_retries_total_")),
    ])
}
