//! `oltp_point_uniform` and `oltp_mixed_durable`: `min(2, nproc)`
//! clients, each its own thread and session, closed loop.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use hana_core::HanaPlatform;
use hana_session::SessionManager;
use hana_txn::{LogRecord, Wal, WalConfig};
use hana_types::{Result, ResultSet, Row, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{
    merge_samples, registry_layers, Call, Client, Config, Outcome, Samples, Tally, SETUPS,
};
use crate::json::Json;
use crate::stats::{median, p50_ms, percentile};
use crate::trace::TraceAgg;

/// 50× the 4,096-entry plan cache: uniform keys never fit it.
const UNIFORM_ROWS: i64 = 200_000;
const UNIFORM_WARMUP_OPS: u64 = 5_000;

const MIXED_PRELOAD_ROWS: i64 = 100_000;
/// Fits the plan cache — the other side of `oltp_point_uniform`.
const MIXED_HOT_KEYS: i64 = 1_024;
const MIXED_FRESH_BASE: i64 = 1_000_000;
const MIXED_WARMUP_OPS: u64 = 100;
const MIXED_MERGES: u32 = 4;
const GROUPS_PER_CLIENT: i64 = 64;
const RECOVERIES: usize = 3;
const WAL_PROBE_COMMITS: u64 = 200;

const LOOKUP_SQL: &str = "SELECT v FROM accounts WHERE k = ?";
const SCAN_SQL: &str = "SELECT v, COUNT(*), SUM(k) FROM accounts GROUP BY v";

pub fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// How long a client keeps issuing statements, and down which path.
#[derive(Clone, Copy)]
enum Limit {
    Ops(u64),
    Window {
        start: Instant,
        plain_for: Duration,
        whole: Duration,
    },
}

impl Limit {
    /// `Some(trace)` while another statement is due.
    fn next(&self, done: u64) -> Option<bool> {
        match *self {
            Limit::Ops(n) => (done < n).then_some(false),
            Limit::Window {
                start,
                plain_for,
                whole,
            } => {
                let at = start.elapsed();
                (at < whole).then_some(at >= plain_for)
            }
        }
    }
}

struct ClientResult {
    plain: Samples,
    plain_window_s: f64,
    agg: TraceAgg,
    tally: Tally,
}

impl ClientResult {
    fn of(client: Client<'_>, tally: Tally) -> ClientResult {
        ClientResult {
            plain_window_s: client.plain_window_s(),
            plain: client.plain,
            agg: client.agg,
            tally,
        }
    }
}

/// One thread per item; every thread is joined before this returns.
fn run_clients<I: Send, T: Send>(items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items.into_iter().map(|i| s.spawn(move || f(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn client_rng(seed: u64, client: usize, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((client as u64) << 32) ^ stream,
    )
}

/// The `v` the generator gives key `k`: a multiple of `clients` plus the
/// key's owner, so that every `v` group belongs to one client.
fn initial_value(k: i64, seed: u64, clients: i64) -> i64 {
    let h = (k as u64 ^ seed).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 40;
    clients * (h as i64 % GROUPS_PER_CLIENT) + k % clients
}

fn accounts_rows(n: i64, seed: u64, clients: i64) -> Vec<Row> {
    (0..n)
        .map(|k| {
            Row::from_values([
                Value::Int(k),
                Value::Int(initial_value(k, seed, clients)),
                Value::Varchar(format!("note-{k}")),
            ])
        })
        .collect()
}

/// `accounts`, loaded, merged and indexed on `k`.
fn create_accounts(hana: &HanaPlatform, rows: &[Row]) -> Result<()> {
    let admin = hana.connect("SYSTEM", "manager")?;
    hana.execute_sql(
        &admin,
        "CREATE COLUMN TABLE accounts (k INTEGER, v INTEGER, note VARCHAR(32))",
    )?;
    hana.load_rows(&admin, "accounts", rows)?;
    hana.execute_sql(&admin, "MERGE DELTA OF accounts")?;
    hana.execute_sql(&admin, "CREATE INDEX ix_accounts_k ON accounts (k)")?;
    Ok(())
}

/// The clients' samples together, and the longest plain-path window
/// among them.
fn collect(
    results: Vec<Result<ClientResult>>,
    tally: &mut Tally,
) -> Result<(Samples, f64, TraceAgg)> {
    let mut plain = Samples::new();
    let mut plain_window_s: f64 = 0.0;
    let mut agg = TraceAgg::default();
    for r in results {
        let r = r?;
        merge_samples(&mut plain, r.plain);
        plain_window_s = plain_window_s.max(r.plain_window_s);
        agg.merge(r.agg);
        tally.merge(r.tally);
    }
    Ok((plain, plain_window_s, agg))
}

fn window_limit(cfg: &Config) -> Limit {
    let (plain_for, whole) = cfg.window();
    Limit::Window {
        start: Instant::now(),
        plain_for,
        whole,
    }
}

// ---- oltp_point_uniform ----

fn point_client(
    mgr: &SessionManager,
    id: usize,
    cfg: &Config,
    clients: i64,
    limit: Limit,
) -> Result<ClientResult> {
    let mut client = Client::connect(mgr, id as u64)?;
    let lookup = client.prepare(LOOKUP_SQL)?;
    let mut rng = client_rng(cfg.seed, id, matches!(limit, Limit::Ops(_)) as u64);
    if let Limit::Window { start, .. } = limit {
        client.start_window(start);
    }
    let mut tally = Tally::default();
    let mut done = 0;
    while let Some(trace) = limit.next(done) {
        let k = rng.random_range(0..UNIFORM_ROWS);
        // 20 % arrive as ad-hoc text, so lexer and parser are measured.
        let result = if rng.random_range(0..100) < 80 {
            client.run(
                trace,
                "read_prepared",
                Call::Prepared(&lookup, &[Value::Int(k)]),
            )
        } else {
            let sql = format!("SELECT v FROM accounts WHERE k = {k}");
            client.run(trace, "read_adhoc", Call::Text(&sql))
        };
        let want = Value::Int(initial_value(k, cfg.seed, clients));
        let ok = matches!(&result, Ok(rs) if rs.rows.len() == 1 && *rs.rows[0].get(0) == want);
        tally.check(ok, || {
            format!("read k={k}: wanted {want:?}, got {result:?}")
        });
        done += 1;
    }
    Ok(ClientResult::of(client, tally))
}

pub fn run_point_uniform(cfg: &Config) -> Result<Outcome> {
    let clients = client_count();
    let rows = accounts_rows(UNIFORM_ROWS, cfg.seed, clients as i64);
    let mut tally = Tally::default();

    // Set-up: load, merge, index, and a warm-up that fills the plan
    // cache past its capacity, so the window starts in steady state.
    let mut setups_s = Vec::new();
    let mut mgr = None;
    for _ in 0..SETUPS {
        drop(mgr.take());
        let start = Instant::now();
        let hana = Arc::new(HanaPlatform::new_in_memory());
        create_accounts(&hana, &rows)?;
        let m = SessionManager::new(hana);
        let warm = run_clients((0..clients).collect(), |i| {
            point_client(&m, i, cfg, clients as i64, Limit::Ops(UNIFORM_WARMUP_OPS))
        });
        collect(warm, &mut tally)?;
        setups_s.push(start.elapsed().as_secs_f64());
        mgr = Some(m);
    }
    let mgr = mgr.expect("at least one set-up");

    let before = mgr.platform().observability_snapshot();
    let limit = window_limit(cfg);
    let results = run_clients((0..clients).collect(), |i| {
        point_client(&mgr, i, cfg, clients as i64, limit)
    });
    let after = mgr.platform().observability_snapshot();
    let (plain, plain_window_s, agg) = collect(results, &mut tally)?;

    let layers = registry_layers(&before, &after);
    let info = vec![
        ("clients".to_string(), Json::Int(clients as i64)),
        ("rows".to_string(), Json::Int(UNIFORM_ROWS)),
        (
            "plan_cache_capacity".to_string(),
            Json::Int(hana_session::DEFAULT_PLAN_CACHE_CAPACITY as i64),
        ),
    ];
    Ok(Outcome {
        tally,
        setups_s,
        plain_window_s,
        plain,
        agg,
        layers,
        info,
    })
}

// ---- oltp_mixed_durable ----

/// What one client expects of the keys it owns (`k % clients == id`).
/// Only its owner writes a key, so the model needs no lock.
struct Model {
    id: i64,
    clients: i64,
    values: HashMap<i64, i64>,
    /// Keys present, for picking update and delete targets.
    live: Vec<i64>,
    hot: Vec<i64>,
    /// `v / clients` → (rows, Σk): the scan's answer for this client's
    /// groups.
    groups: Vec<(i64, i64)>,
    fresh: i64,
    rows_written: u64,
}

impl Model {
    fn preload(id: i64, clients: i64, seed: u64) -> Model {
        let mut m = Model {
            id,
            clients,
            values: HashMap::new(),
            live: Vec::new(),
            hot: Vec::new(),
            groups: vec![(0, 0); GROUPS_PER_CLIENT as usize],
            fresh: 0,
            rows_written: 0,
        };
        let stride = MIXED_PRELOAD_ROWS / MIXED_HOT_KEYS;
        for k in (id..MIXED_PRELOAD_ROWS).step_by(clients as usize) {
            m.put(k, initial_value(k, seed, clients));
            m.live.push(k);
            if k % stride == 0 && k / stride < MIXED_HOT_KEYS {
                m.hot.push(k);
            }
        }
        m
    }

    fn group(&mut self, v: i64) -> &mut (i64, i64) {
        &mut self.groups[(v / self.clients) as usize]
    }

    fn put(&mut self, k: i64, v: i64) {
        self.take(k);
        self.values.insert(k, v);
        let g = self.group(v);
        g.0 += 1;
        g.1 += k;
    }

    fn take(&mut self, k: i64) {
        if let Some(old) = self.values.remove(&k) {
            let g = self.group(old);
            g.0 -= 1;
            g.1 -= k;
        }
    }

    fn random_value(&self, rng: &mut StdRng) -> i64 {
        self.clients * rng.random_range(0..GROUPS_PER_CLIENT) + self.id
    }

    /// The scan must show exactly this client's groups as the model has
    /// them; the other clients' groups move under it and are skipped.
    fn scan_agrees(&self, rs: &ResultSet) -> bool {
        let mut seen = 0;
        for row in &rs.rows {
            let (Some(v), Some(n), Some(sum)) = (
                row.get(0).as_i64(),
                row.get(1).as_i64(),
                row.get(2).as_i64(),
            ) else {
                return false;
            };
            if v % self.clients != self.id {
                continue;
            }
            if self.groups[(v / self.clients) as usize] != (n, sum) {
                return false;
            }
            seen += 1;
        }
        seen == self.groups.iter().filter(|g| g.0 > 0).count()
    }
}

fn affected_one(result: &Result<ResultSet>) -> bool {
    matches!(result, Ok(rs) if rs.rows.len() == 1 && rs.rows[0].get(0).as_i64() == Some(1))
}

/// When client 0 merges: `MIXED_MERGES` times, evenly spaced, the last
/// one shortly before the window closes so that recovery replays about
/// a second of traffic and not a quarter of the window.
fn merge_times(whole: Duration) -> Vec<Duration> {
    let interval = whole / MIXED_MERGES;
    let lead = Duration::from_secs(1).min(interval / 2);
    (1..=MIXED_MERGES).map(|i| interval * i - lead).collect()
}

struct MixedExtras {
    merges: Vec<u64>,
    checkpoint_bytes: u64,
    gate_wait: Duration,
}

/// Keeps writes of the other clients out of a merge's checkpoint.
///
/// `TransactionManager::commit` advances the commit ID before the
/// participants apply the transaction, and `write_checkpoint` snapshots
/// "everything up to the current commit ID": a checkpoint taken between
/// the two covers the commit ID but not its rows, and recovery then
/// skips that commit — an acknowledged write is lost (one row in about
/// half of all 6 s runs without this gate). The benchmark may not change
/// the engine, and a workload must not fail, so a writer holds the gate
/// shared for the length of its statement and the merging client holds
/// it exclusively. Reads and scans still run while the merge does. The
/// wait at the gate is outside every measured latency and is reported.
type WriteGate = RwLock<()>;

fn mixed_client(
    mgr: &SessionManager,
    gate: &WriteGate,
    model: &mut Model,
    cfg: &Config,
    limit: Limit,
) -> Result<(ClientResult, MixedExtras)> {
    let id = model.id as usize;
    let mut client = Client::connect(mgr, id as u64)?;
    let lookup = client.prepare(LOOKUP_SQL)?;
    let insert = client.prepare("INSERT INTO accounts (k, v, note) VALUES (?, ?, ?)")?;
    let update = client.prepare("UPDATE accounts SET v = ? WHERE k = ?")?;
    let delete = client.prepare("DELETE FROM accounts WHERE k = ?")?;
    let mut rng = client_rng(cfg.seed, id, 2 + matches!(limit, Limit::Ops(_)) as u64);
    let mut merges_due = Vec::new();
    if let Limit::Window { start, whole, .. } = limit {
        client.start_window(start);
        if id == 0 {
            merges_due = merge_times(whole);
            merges_due.reverse();
        }
    }
    let mut extras = MixedExtras {
        merges: Vec::new(),
        checkpoint_bytes: 0,
        gate_wait: Duration::ZERO,
    };
    let mut tally = Tally::default();
    let mut done = 0;
    if matches!(limit, Limit::Ops(_)) {
        // Warm-up: plan every hot read once.
        for k in model.hot.clone() {
            let r = client.run(false, "read", Call::Prepared(&lookup, &[Value::Int(k)]));
            tally.check(r.is_ok(), || format!("warm-up read k={k}: {r:?}"));
        }
    }
    while let Some(trace) = limit.next(done) {
        done += 1;
        if let (Limit::Window { start, .. }, Some(due)) = (limit, merges_due.last()) {
            if start.elapsed() >= *due {
                merges_due.pop();
                let _exclusive = gate.write().expect("no client panics holding the gate");
                let r = client.run(trace, "merge", Call::Text("MERGE DELTA OF accounts"));
                tally.check(r.is_ok(), || format!("merge: {r:?}"));
                let wal = mgr.platform().transaction_manager().wal();
                extras.checkpoint_bytes += wal
                    .latest_checkpoint()
                    .map_or(0, |c| c.payload.len() as u64);
                continue;
            }
        }
        let op = rng.random_range(0..100);
        let _shared = (50..99).contains(&op).then(|| {
            let wait = Instant::now();
            let guard = gate.read().expect("no client panics holding the gate");
            extras.gate_wait += wait.elapsed();
            guard
        });
        match op {
            0..=49 => {
                let k = model.hot[rng.random_range(0..model.hot.len())];
                let r = client.run(trace, "read", Call::Prepared(&lookup, &[Value::Int(k)]));
                let ok = match (&r, model.values.get(&k)) {
                    (Ok(rs), Some(v)) => rs.rows.len() == 1 && *rs.rows[0].get(0) == Value::Int(*v),
                    (Ok(rs), None) => rs.rows.is_empty(),
                    (Err(_), _) => false,
                };
                tally.check(ok, || {
                    format!(
                        "read k={k}: model has {:?}, got {r:?}",
                        model.values.get(&k)
                    )
                });
            }
            50..=84 => {
                let k = MIXED_FRESH_BASE + model.clients * model.fresh + model.id;
                let v = model.random_value(&mut rng);
                let params = [
                    Value::Int(k),
                    Value::Int(v),
                    Value::Varchar(format!("n{k}")),
                ];
                let r = client.run(trace, "insert", Call::Prepared(&insert, &params));
                let ok = affected_one(&r);
                tally.check(ok, || format!("insert k={k}: {r:?}"));
                if ok {
                    model.fresh += 1;
                    model.put(k, v);
                    model.live.push(k);
                    model.rows_written += 1;
                }
            }
            85..=94 => {
                let k = model.live[rng.random_range(0..model.live.len())];
                let v = model.random_value(&mut rng);
                let params = [Value::Int(v), Value::Int(k)];
                let r = client.run(trace, "update", Call::Prepared(&update, &params));
                let ok = affected_one(&r);
                tally.check(ok, || format!("update k={k}: {r:?}"));
                if ok {
                    model.put(k, v);
                    model.rows_written += 1;
                }
            }
            95..=98 => {
                let at = rng.random_range(0..model.live.len());
                let k = model.live[at];
                let r = client.run(trace, "delete", Call::Prepared(&delete, &[Value::Int(k)]));
                let ok = affected_one(&r);
                tally.check(ok, || format!("delete k={k}: {r:?}"));
                if ok {
                    model.live.swap_remove(at);
                    model.take(k);
                    model.rows_written += 1;
                }
            }
            _ => {
                let r = client.run(trace, "scan", Call::Text(SCAN_SQL));
                let ok = matches!(&r, Ok(rs) if model.scan_agrees(rs));
                tally.check(ok, || {
                    format!(
                        "scan: client {id}'s groups differ from its model ({:?})",
                        r.err()
                    )
                });
            }
        }
    }
    // Merges are maintenance, not something a user waits for: they stay
    // out of the end-to-end samples.
    extras.merges = client.plain.remove("merge").unwrap_or_default();
    Ok((ClientResult::of(client, tally), extras))
}

/// Cumulative bytes of log frames appended (`None` right after a
/// checkpoint pruned the offset list).
fn log_bytes(hana: &HanaPlatform) -> Option<u64> {
    hana.transaction_manager()
        .wal()
        .record_end_offsets()
        .last()
        .copied()
}

fn open_durable(dir: &Path) -> Result<(HanaPlatform, usize)> {
    // The flush policy, fixed here and never read from the environment:
    // 200 µs group-commit window, fsync on every group.
    HanaPlatform::open_durable_with(dir, WalConfig::default())
}

/// Does the recovered table hold exactly what the models say?
fn table_agrees(hana: &HanaPlatform, models: &[Model]) -> Result<std::result::Result<(), String>> {
    let admin = hana.connect("SYSTEM", "manager")?;
    let rs = hana.execute_sql(&admin, "SELECT k, v FROM accounts")?;
    let expected: usize = models.iter().map(|m| m.values.len()).sum();
    if rs.rows.len() != expected {
        return Ok(Err(format!(
            "{} rows, models hold {expected}",
            rs.rows.len()
        )));
    }
    for row in &rs.rows {
        let (Some(k), Some(v)) = (row.get(0).as_i64(), row.get(1).as_i64()) else {
            return Ok(Err(format!("unexpected row {row:?}")));
        };
        let owner = &models[(k % models.len() as i64) as usize];
        if owner.values.get(&k) != Some(&v) {
            return Ok(Err(format!(
                "k={k}: table has v={v}, model has {:?}",
                owner.values.get(&k)
            )));
        }
    }
    Ok(Ok(()))
}

/// Side probe: what one commit waits for in the log alone — begin, a
/// data record of the workload's size, and a durable commit — on a
/// scratch log with the same flush policy. Median, µs.
fn wal_commit_wait_us(dir: &Path) -> Result<f64> {
    let wal = Wal::open_dir_with(dir, WalConfig::default())?;
    let mut waits = Vec::new();
    for tid in 1..=WAL_PROBE_COMMITS {
        let payload = format!(
            "INSERT INTO accounts (k, v, note) VALUES ({}, 17, 'n{}')",
            MIXED_FRESH_BASE + tid as i64,
            MIXED_FRESH_BASE + tid as i64
        );
        let start = Instant::now();
        wal.append(LogRecord::Begin { tid })?;
        wal.append(LogRecord::Data {
            tid,
            engine: "column".into(),
            payload,
        })?;
        wal.submit_durable(LogRecord::Commit { tid, cid: tid })
            .wait()?;
        waits.push(start.elapsed().as_nanos() as u64);
    }
    waits.sort_unstable();
    Ok(percentile(&waits, 50.0) as f64 / 1e3)
}

pub fn run_mixed_durable(cfg: &Config) -> Result<Outcome> {
    let clients = client_count();
    let rows = accounts_rows(MIXED_PRELOAD_ROWS, cfg.seed, clients as i64);
    let run_dir: PathBuf = cfg
        .out_dir
        .join(format!("durable-{}-{}", cfg.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut tally = Tally::default();
    let gate = WriteGate::default();

    // Set-up: open, load, merge, index, checkpoint, warm up.
    let mut setups_s = Vec::new();
    let mut built = None;
    for i in 0..SETUPS {
        drop(built.take());
        let dir = run_dir.join(format!("log-{i}"));
        let start = Instant::now();
        let (hana, _) = open_durable(&dir)?;
        create_accounts(&hana, &rows)?;
        hana.write_checkpoint()?;
        let mgr = SessionManager::new(Arc::new(hana));
        let mut models: Vec<Model> = (0..clients as i64)
            .map(|id| Model::preload(id, clients as i64, cfg.seed))
            .collect();
        let warm = run_clients(models.iter_mut().collect(), |m| {
            mixed_client(&mgr, &gate, m, cfg, Limit::Ops(MIXED_WARMUP_OPS))
        });
        for w in warm {
            tally.merge(w?.0.tally);
        }
        setups_s.push(start.elapsed().as_secs_f64());
        built = Some((mgr, models, dir));
    }
    let (mgr, mut models, dir) = built.expect("at least one set-up");

    let written_before: u64 = models.iter().map(|m| m.rows_written).sum();
    let log_before = log_bytes(mgr.platform());
    let before = mgr.platform().observability_snapshot();
    let limit = window_limit(cfg);
    let results = run_clients(models.iter_mut().collect(), |m| {
        mixed_client(&mgr, &gate, m, cfg, limit)
    });
    let after = mgr.platform().observability_snapshot();
    let log_after = log_bytes(mgr.platform());
    let rows_written = models.iter().map(|m| m.rows_written).sum::<u64>() - written_before;

    let mut merges = Vec::new();
    let mut checkpoint_bytes = 0;
    let mut gate_wait = Duration::ZERO;
    let mut client_results = Vec::new();
    for r in results {
        let (result, extras) = r?;
        merges.extend(extras.merges);
        checkpoint_bytes += extras.checkpoint_bytes;
        gate_wait += extras.gate_wait;
        client_results.push(Ok(result));
    }
    let (plain, plain_window_s, agg) = collect(client_results, &mut tally)?;

    // Restart: drop the platform, reopen the log directory, and hold
    // the recovered table against the models.
    drop(mgr);
    let mut recoveries_s = Vec::new();
    let mut replayed = 0;
    let mut checkpoint_ms = 0.0;
    for i in 0..RECOVERIES {
        let start = Instant::now();
        let (hana, n) = open_durable(&dir)?;
        recoveries_s.push(start.elapsed().as_secs_f64());
        replayed = n;
        let verdict = table_agrees(&hana, &models)?;
        tally.check(verdict.is_ok(), || {
            format!("after recovery {i}: {}", verdict.unwrap_err())
        });
        if cfg.trace && i + 1 == RECOVERIES {
            let start = Instant::now();
            hana.write_checkpoint()?;
            checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        }
    }
    let recovery_s = median(&recoveries_s);

    let mut layers = registry_layers(&before, &after);
    let log_written = match (log_before, log_after) {
        (Some(b), Some(a)) => a.saturating_sub(b),
        _ => 0,
    };
    let bytes_per_row = (log_written + checkpoint_bytes) as f64 / rows_written.max(1) as f64;
    layers.insert("txn.wal_bytes", log_written as f64);
    layers.insert("core.checkpoint_bytes", checkpoint_bytes as f64);
    layers.insert("txn.wal_bytes_per_row", bytes_per_row);
    layers.insert("core.recovery_s", recovery_s);
    layers.insert("core.recovery_replayed_stmts", replayed as f64);
    layers.insert(
        "core.recovery_us_per_stmt",
        recovery_s * 1e6 / (replayed.max(1)) as f64,
    );
    layers.insert("core.checkpoint_ms", checkpoint_ms);
    if cfg.trace {
        layers.insert(
            "txn.wal_commit_wait_us",
            wal_commit_wait_us(&run_dir.join("probe-log"))?,
        );
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let info = vec![
        ("clients".to_string(), Json::Int(clients as i64)),
        ("preloaded_rows".to_string(), Json::Int(MIXED_PRELOAD_ROWS)),
        (
            "flush_policy".to_string(),
            Json::str("WalConfig::default(): 200 us group-commit window, fsync on every group"),
        ),
        (
            "merge_statements".to_string(),
            Json::Int(merges.len() as i64),
        ),
        (
            "merge_statement_p50_ms".to_string(),
            Json::Num(p50_ms(&merges)),
        ),
        (
            "writer_gate_wait_ms".to_string(),
            Json::Num(gate_wait.as_secs_f64() * 1e3),
        ),
        ("rows_written".to_string(), Json::Int(rows_written as i64)),
        ("recovery_s".to_string(), Json::Num(recovery_s)),
        (
            "recovery_replayed_stmts".to_string(),
            Json::Int(replayed as i64),
        ),
        ("wal_bytes_per_row".to_string(), Json::Num(bytes_per_row)),
    ];
    Ok(Outcome {
        tally,
        setups_s,
        plain_window_s,
        plain,
        agg,
        layers,
        info,
    })
}
