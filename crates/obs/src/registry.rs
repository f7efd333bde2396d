//! The global metrics registry: named counters, gauges and
//! log-bucketed latency histograms.
//!
//! Instruments are created on first use and live for the process
//! lifetime. The hot path is lock-free: callers hold an `Arc` to the
//! instrument (or re-look it up under a read lock) and update plain
//! atomics; the registry's write lock is only taken the first time a
//! name appears. Snapshots are plain data with JSON and
//! Prometheus-style text encodings — no sampling threads, no sinks.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Number of power-of-two histogram buckets (covers 1 ns … ~9.2 s and
/// beyond; the last bucket absorbs everything larger).
const BUCKETS: usize = 64;

/// Bounded ring of recent warnings kept for diagnostics.
const MAX_WARNINGS: usize = 64;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry all platform components report into.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Record a warning: it is printed to stderr, counted under
/// `hana_obs_warnings_total` and kept in the snapshot's bounded
/// recent-warnings list.
pub fn warn(message: impl Into<String>) {
    registry().warn(message.into());
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `d`.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram: bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds zero). Suited to nanosecond
/// latencies, where relative error per power-of-two bucket is fine.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Upper bound of a bucket (inclusive for reporting purposes).
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time view with derived percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    return bucket_bound(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// Snapshot of one histogram: totals plus log-bucket percentile
/// estimates (each percentile is the upper bound of its bucket, i.e.
/// within one power of two of the true value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th percentile estimate.
    pub p95: u64,
    /// 99th percentile estimate.
    pub p99: u64,
}

/// A registry of named instruments.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    warnings: Mutex<VecDeque<String>>,
}

fn get_or_create<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().unwrap().get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Registry {
    /// An empty registry (components normally use [`registry`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the named counter. Cache the handle on hot paths.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get or create the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Record a warning (see the free function [`warn`]).
    pub fn warn(&self, message: String) {
        eprintln!("[hana-obs] warning: {message}");
        self.counter("hana_obs_warnings_total").inc();
        let mut w = self.warnings.lock().unwrap();
        if w.len() == MAX_WARNINGS {
            w.pop_front();
        }
        w.push_back(message);
    }

    /// Point-in-time view of every instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            warnings: self.warnings.lock().unwrap().iter().cloned().collect(),
        }
    }
}

/// Point-in-time view of a whole registry, JSON-serializable via
/// [`RegistrySnapshot::to_json`] and Prometheus-encodable via
/// [`RegistrySnapshot::to_prometheus`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Recent warnings, oldest first (bounded).
    pub warnings: Vec<String>,
}

impl RegistrySnapshot {
    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of a histogram (empty when absent).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// Sum of all counters whose name starts with `prefix` — used to
    /// aggregate per-source instruments like `hana_sda_attempts_total_*`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, self.counters.iter(), |v| v.to_string());
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, self.gauges.iter(), |v| v.to_string());
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, self.histograms.iter(), |h| {
            format!(
                "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.count, h.sum, h.max, h.p50, h.p95, h.p99
            )
        });
        out.push_str("},\n  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(&json_escape(w));
            out.push('"');
        }
        out.push_str("]\n}\n");
        out
    }

    /// Render in the Prometheus text exposition format. Histograms are
    /// flattened to `_count`/`_sum`/`_max` plus quantile gauges. Metric
    /// names are sanitized to the `[a-zA-Z_:][a-zA-Z0-9_:]*` charset —
    /// instruments named after spans (`exchange[repartition]`, …) would
    /// otherwise emit lines Prometheus rejects.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} summary\n"));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_max {}\n", h.max));
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
        }
        out
    }
}

/// Escape a registry instrument name into a legal Prometheus metric
/// name (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every illegal character becomes
/// `_`, a leading digit gets a `_` prefix, trailing runs of `_` from
/// stripped brackets are trimmed.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | ':' => out.push(c),
            // Escape runs (`[repartition]_rows`) collapse to one `_`.
            _ => {
                if !out.ends_with('_') {
                    out.push('_');
                }
            }
        }
    }
    while out.ends_with('_') && out.len() > 1 {
        out.pop();
    }
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    render: impl Fn(&V) -> String,
) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    \"");
        out.push_str(&json_escape(k));
        out.push_str("\": ");
        out.push_str(&render(v));
    }
    out.push_str("\n  ");
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_names_are_sanitized() {
        let r = Registry::new();
        r.counter("exchange[repartition]_rows").add(5);
        r.counter("hana_dist_rows_shuffled_total").add(7);
        r.gauge("latency[gather]").set(3);
        r.histogram("span[dist_scan[t]]").record(9);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("exchange_repartition_rows 5"), "{text}");
        assert!(text.contains("hana_dist_rows_shuffled_total 7"), "{text}");
        assert!(text.contains("latency_gather 3"), "{text}");
        assert!(text.contains("span_dist_scan_t_count 1"), "{text}");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap_or_default();
            assert!(
                name.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "illegal metric name in line: {line}"
            );
        }

        assert_eq!(prometheus_name("plain_name_total"), "plain_name_total");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("[]"), "_");
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.counter("c").inc();
        r.gauge("g").set(-7);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 4);
        assert_eq!(s.gauge("g"), -7);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn instrument_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(1);
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn histogram_percentiles_are_within_one_bucket() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // True p50 = 500; the log bucket bound is 512.
        assert!(s.p50 >= 500 && s.p50 <= 1024, "p50 = {}", s.p50);
        assert!(s.p95 >= 950 && s.p95 <= 1024, "p95 = {}", s.p95);
        assert!(s.p99 >= 990 && s.p99 <= 1024, "p99 = {}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn histogram_of_zeros() {
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!((s.p50, s.p95, s.p99, s.max), (0, 0, 0, 0));
    }

    #[test]
    fn warnings_are_bounded_and_counted() {
        let r = Registry::new();
        for i in 0..(MAX_WARNINGS + 10) {
            r.warn(format!("w{i}"));
        }
        let s = r.snapshot();
        assert_eq!(s.warnings.len(), MAX_WARNINGS);
        assert_eq!(
            s.counter("hana_obs_warnings_total"),
            (MAX_WARNINGS + 10) as u64
        );
        assert_eq!(
            s.warnings.last().unwrap(),
            &format!("w{}", MAX_WARNINGS + 9)
        );
    }

    #[test]
    fn encodings_contain_instruments() {
        let r = Registry::new();
        r.counter("hana_demo_total").add(5);
        r.gauge("hana_demo_gauge").set(2);
        r.histogram("hana_demo_ns").record(100);
        r.warn("be \"careful\"".into());
        let s = r.snapshot();
        let json = s.to_json();
        assert!(json.contains("\"hana_demo_total\": 5"), "{json}");
        assert!(json.contains("\"hana_demo_gauge\": 2"), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
        assert!(json.contains("be \\\"careful\\\""), "{json}");
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE hana_demo_total counter"), "{prom}");
        assert!(prom.contains("hana_demo_total 5"), "{prom}");
        assert!(prom.contains("hana_demo_ns_count 1"), "{prom}");
        assert!(prom.contains("hana_demo_ns{quantile=\"0.5\"}"), "{prom}");
    }

    #[test]
    fn bucket_index_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }
}
