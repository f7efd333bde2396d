//! Multi-session front-end benchmark: sustained mixed OLTP/OLAP
//! throughput through the hana-session layer — shared plan cache,
//! prepared statements, and workload-class admission control.
//!
//! 128 concurrent sessions (one OS thread each) hammer a single
//! platform: most run prepared point lookups (OLTP), the rest run
//! group-by aggregates (OLAP). Besides the criterion timings, the run
//! emits `BENCH_concurrent_qps.json` at the repository root with
//! sustained QPS and per-class p50/p95/p99 latencies read from the
//! `hana_session_latency_ns_{oltp,olap}` histograms in the hana-obs
//! registry, plus plan-cache hit/miss counts and the peak admitted
//! OLAP concurrency observed by the admission controller.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, Criterion, Throughput};
use hana_bench::median_nanos;
use hana_core::HanaPlatform;
use hana_session::{SessionManager, WorkloadClass};
use hana_types::{Row, Value};

const ROWS: i64 = 50_000;
const GROUPS: i64 = 97;
/// Total concurrent sessions (ISSUE floor: at least 100).
const SESSIONS: usize = 128;
/// Sessions running analytical statements; the rest are OLTP.
const OLAP_SESSIONS: usize = 24;
/// OLTP sessions cycle this many distinct keys, so once warm the
/// steady state is cache-hit dominated by construction.
const HOT_KEYS: i64 = 997;
const WARMUP: Duration = Duration::from_millis(600);
const MEASURE: Duration = Duration::from_millis(1200);

const LOOKUP_Q: &str = "SELECT v FROM accounts WHERE k = ?";
// Two aggregate shapes so OLAP sessions exercise the shared cache too.
const AGG_QS: [&str; 2] = [
    "SELECT v, COUNT(*) AS n, SUM(k) AS total FROM accounts GROUP BY v",
    "SELECT v, COUNT(*) AS n FROM accounts WHERE k >= 0 GROUP BY v",
];

fn mix(i: i64) -> i64 {
    (i.wrapping_mul(2_654_435_761)).rem_euclid(ROWS)
}

fn setup() -> Arc<SessionManager> {
    let platform = Arc::new(HanaPlatform::new_in_memory());
    let s = platform.connect("SYSTEM", "manager").unwrap();
    platform
        .execute_sql(&s, "CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER)")
        .unwrap();
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| Row::from_values([Value::Int(i), Value::Int(i % GROUPS)]))
        .collect();
    platform.load_rows(&s, "accounts", &rows).unwrap();
    platform.execute_sql(&s, "MERGE DELTA OF accounts").unwrap();
    Arc::new(SessionManager::new(platform))
}

fn counter(name: &str) -> u64 {
    hana_obs::registry().counter(name).get()
}

fn bench_concurrent_qps(c: &mut Criterion) {
    let manager = setup();
    let session = manager.connect("SYSTEM", "manager").unwrap();
    let lookup = session.prepare(LOOKUP_Q).unwrap();
    let mut group = c.benchmark_group("concurrent_qps");
    group.throughput(Throughput::Elements(1));
    // Same binding every time: after the first execution the canonical
    // text hits the shared plan cache and skips parse + plan entirely.
    group.bench_function("session/lookup_cache_hit", |b| {
        b.iter(|| {
            session
                .execute_prepared(&lookup, &[Value::Int(42)])
                .unwrap()
                .len()
        })
    });
    // A fresh binding per iteration keys a fresh cache entry, so every
    // execution pays the full parse/plan path — the uncached baseline.
    group.bench_function("session/lookup_cache_miss", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            session
                .execute_prepared(&lookup, &[Value::Int(mix(i))])
                .unwrap()
                .len()
        })
    });
    group.bench_function("session/group_by_agg", |b| {
        b.iter(|| session.execute(AGG_QS[0]).unwrap().len())
    });
    group.finish();
}

struct StormOutcome {
    oltp_ops: u64,
    olap_ops: u64,
    olap_rejected: u64,
}

/// Run `SESSIONS` concurrent sessions against `manager` until `stop`
/// flips, tallying completed statements per class.
fn run_storm(manager: &Arc<SessionManager>, stop: &Arc<AtomicBool>) -> StormOutcome {
    let oltp_ops = Arc::new(AtomicU64::new(0));
    let olap_ops = Arc::new(AtomicU64::new(0));
    let olap_rejected = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(SESSIONS);
    for t in 0..SESSIONS {
        let manager = Arc::clone(manager);
        let stop = Arc::clone(stop);
        let oltp_ops = Arc::clone(&oltp_ops);
        let olap_ops = Arc::clone(&olap_ops);
        let olap_rejected = Arc::clone(&olap_rejected);
        handles.push(std::thread::spawn(move || {
            let session = manager.connect("SYSTEM", "manager").unwrap();
            if t < OLAP_SESSIONS {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    match session.execute(AGG_QS[i % AGG_QS.len()]) {
                        Ok(_) => {
                            olap_ops.fetch_add(1, Ordering::Relaxed);
                        }
                        // Admission shedding is a legal steady-state
                        // outcome for analytical bursts: back off.
                        Err(e) if e.kind() == "overloaded" => {
                            olap_rejected.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => panic!("olap session failed: {e}"),
                    }
                }
            } else {
                let lookup = session.prepare(LOOKUP_Q).unwrap();
                let mut i = t as i64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    session
                        .execute_prepared(&lookup, &[Value::Int(mix(i % HOT_KEYS))])
                        .unwrap();
                    oltp_ops.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    // Warmup: let every session connect, fill the plan cache, settle.
    std::thread::sleep(WARMUP);
    let oltp_at_start = oltp_ops.load(Ordering::Relaxed);
    let olap_at_start = olap_ops.load(Ordering::Relaxed);
    let rejected_at_start = olap_rejected.load(Ordering::Relaxed);
    std::thread::sleep(MEASURE);
    let outcome = StormOutcome {
        oltp_ops: oltp_ops.load(Ordering::Relaxed) - oltp_at_start,
        olap_ops: olap_ops.load(Ordering::Relaxed) - olap_at_start,
        olap_rejected: olap_rejected.load(Ordering::Relaxed) - rejected_at_start,
    };
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    outcome
}

fn emit_json() {
    let manager = setup();
    let stop = Arc::new(AtomicBool::new(false));

    // Single-session plan-cache effect before the storm starts.
    let session = manager.connect("SYSTEM", "manager").unwrap();
    let lookup = session.prepare(LOOKUP_Q).unwrap();
    let mut i = 0;
    let miss_ns = median_nanos(|| {
        i += 1;
        session
            .execute_prepared(&lookup, &[Value::Int(mix(i))])
            .unwrap();
    });
    let hit_ns = median_nanos(|| {
        session
            .execute_prepared(&lookup, &[Value::Int(42)])
            .unwrap();
    });
    let cache_speedup = miss_ns as f64 / hit_ns as f64;
    println!(
        "concurrent_qps: prepared lookup {:.3} ms on cache hit vs {:.3} ms uncached \
         ({cache_speedup:.1}x from the shared plan cache)",
        hit_ns as f64 / 1e6,
        miss_ns as f64 / 1e6,
    );

    let hits_before = counter("hana_session_plan_cache_hits_total");
    let misses_before = counter("hana_session_plan_cache_misses_total");
    let outcome = run_storm(&manager, &stop);
    let hits = counter("hana_session_plan_cache_hits_total") - hits_before;
    let misses = counter("hana_session_plan_cache_misses_total") - misses_before;

    let obs = hana_obs::registry();
    let oltp = obs.histogram("hana_session_latency_ns_oltp").snapshot();
    let olap = obs.histogram("hana_session_latency_ns_olap").snapshot();
    let (_, _, olap_peak) = manager.workload().class_stats(WorkloadClass::Olap);
    let (_, _, oltp_peak) = manager.workload().class_stats(WorkloadClass::Oltp);

    let secs = MEASURE.as_secs_f64();
    let total_qps = (outcome.oltp_ops + outcome.olap_ops) as f64 / secs;
    let oltp_qps = outcome.oltp_ops as f64 / secs;
    let olap_qps = outcome.olap_ops as f64 / secs;

    // Acceptance anchors: the front end really sustained the session
    // count, the cache ran hot, and admission bounded OLAP.
    const { assert!(SESSIONS >= 100, "bench must drive 100+ concurrent sessions") };
    assert!(
        outcome.oltp_ops > 0 && outcome.olap_ops > 0,
        "both classes ran"
    );
    assert!(
        hits > misses,
        "steady state must be cache-hit dominated ({hits} hits vs {misses} misses)"
    );
    assert!(
        olap_peak <= 8,
        "admission must bound OLAP concurrency at the class limit (peak {olap_peak})"
    );

    println!(
        "concurrent_qps: {SESSIONS} sessions sustained {total_qps:.0} QPS \
         (oltp {oltp_qps:.0}, olap {olap_qps:.0}; {} olap statements shed)",
        outcome.olap_rejected
    );
    println!(
        "concurrent_qps: oltp p50/p95/p99 = {:.3}/{:.3}/{:.3} ms, \
         olap p50/p95/p99 = {:.3}/{:.3}/{:.3} ms",
        oltp.p50 as f64 / 1e6,
        oltp.p95 as f64 / 1e6,
        oltp.p99 as f64 / 1e6,
        olap.p50 as f64 / 1e6,
        olap.p95 as f64 / 1e6,
        olap.p99 as f64 / 1e6,
    );
    println!(
        "concurrent_qps: plan cache {hits} hits / {misses} misses, \
         peak running oltp={oltp_peak} olap={olap_peak}"
    );

    let json = format!(
        "{{\n  \"bench\": \"concurrent_qps\",\n  \"sessions\": {SESSIONS},\n  \
         \"oltp_sessions\": {oltp_n},\n  \"olap_sessions\": {OLAP_SESSIONS},\n  \
         \"rows\": {ROWS},\n  \"measure_secs\": {secs:.3},\n  \
         \"qps\": {{\"total\": {total_qps:.1}, \"oltp\": {oltp_qps:.1}, \
         \"olap\": {olap_qps:.1}}},\n  \
         \"oltp_latency_ns\": {{\"count\": {oc}, \"p50\": {op50}, \"p95\": {op95}, \
         \"p99\": {op99}}},\n  \
         \"olap_latency_ns\": {{\"count\": {ac}, \"p50\": {ap50}, \"p95\": {ap95}, \
         \"p99\": {ap99}}},\n  \
         \"plan_cache\": {{\"hits\": {hits}, \"misses\": {misses}, \
         \"hit_median_ns\": {hit_ns}, \"miss_median_ns\": {miss_ns}, \
         \"speedup\": {cache_speedup:.1}}},\n  \
         \"admission\": {{\"oltp_peak_running\": {oltp_peak}, \
         \"olap_peak_running\": {olap_peak}, \"olap_shed\": {shed}}}\n}}\n",
        oltp_n = SESSIONS - OLAP_SESSIONS,
        oc = oltp.count,
        op50 = oltp.p50,
        op95 = oltp.p95,
        op99 = oltp.p99,
        ac = olap.count,
        ap50 = olap.p50,
        ap95 = olap.p95,
        ap99 = olap.p99,
        shed = outcome.olap_rejected,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_concurrent_qps.json"
    );
    std::fs::write(path, json).expect("write BENCH_concurrent_qps.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_concurrent_qps);

fn main() {
    benches();
    emit_json();
}
