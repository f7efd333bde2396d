//! The repository's benchmark of record. See `benchmark/README.md`.
//!
//! Every statement enters through `hana_session::Session`, from one
//! process with `min(2, nproc)` client threads. End-to-end metrics are
//! measured with tracing off; `--trace 1` replays the same seeded
//! operations through the staged driver for the per-layer numbers.

mod check;
mod harness;
mod json;
mod oltp;
mod staged;
mod stats;
mod tpch;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{coverage_and_overhead, end_to_end, kind_table, Config, Outcome};
use json::Json;
use stats::{median, quartiles};
use trace::TraceAgg;

const DEFAULT_SEED: u64 = 2015;
const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 2.0;

const WORKLOADS: [&str; 4] = [
    "tpch_local",
    "tpch_federated",
    "oltp_point_uniform",
    "oltp_mixed_durable",
];

/// Every per-layer metric, reported by every workload (0 where the
/// layer does no work in it — that is the "no change predicted" side).
const PER_LAYER: [(&str, &str); 46] = [
    ("sql.parse_us", "us"),
    ("session.bind_render_us", "us"),
    ("session.plan_cache_get_us", "us"),
    ("session.plan_cache_hit_ratio", "ratio"),
    ("session.plan_cache_evictions", "count"),
    ("query.plan_us", "us"),
    ("session.admit_wait_us", "us"),
    ("session.shed", "count"),
    ("query.execute_us", "us"),
    ("query.scan_self_us", "us/stmt"),
    ("query.join_self_us", "us/stmt"),
    ("query.group_by_self_us", "us/stmt"),
    ("query.remote_query_self_us", "us/stmt"),
    ("query.exchange_self_us", "us/stmt"),
    ("query.rows_out_per_row_scanned", "ratio"),
    ("columnar.blocks_scanned", "count"),
    ("columnar.blocks_skipped", "count"),
    ("columnar.merge_ms", "ms"),
    ("columnar.merge_rows", "count"),
    ("exec.morsels", "count"),
    ("exec.tasks", "count"),
    ("exec.pool_utilization", "ratio"),
    ("core.dml_insert_us", "us"),
    ("core.dml_update_us", "us"),
    ("core.dml_delete_us", "us"),
    ("txn.wal_commit_wait_us", "us"),
    ("txn.wal_fsyncs", "count"),
    ("txn.wal_fsync_us", "us"),
    ("txn.wal_txns_per_group", "count"),
    ("txn.wal_appends", "count"),
    ("txn.wal_bytes", "bytes"),
    ("core.checkpoint_bytes", "bytes"),
    ("txn.wal_bytes_per_row", "bytes/row"),
    ("core.checkpoint_ms", "ms"),
    ("core.recovery_replayed_stmts", "count"),
    ("core.recovery_us_per_stmt", "us"),
    ("core.recovery_s", "s"),
    ("sda.remote_roundtrips", "count"),
    ("sda.remote_query_ms", "ms"),
    ("sda.rows_fetched", "count"),
    ("sda.retries", "count"),
    ("hadoop.mr_jobs", "count"),
    ("sda.cache_hit_pass_ms", "ms"),
    ("trace.statements", "count"),
    ("trace.coverage_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Below this the staged spans do not explain the untraced latency and
/// the breakdown is flagged.
const TRUSTED_COVERAGE: f64 = 0.9;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    quick: bool,
    read_trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: 1,
        quick: false,
        read_trace: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            // `--trace 1`, `--trace 0`, or bare `--trace`.
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--repeat needs a count from 1 to 100")?
            }
            "--quick" => args.quick = true,
            "--read-trace" => args.read_trace = Some(PathBuf::from(value("a span file")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &Config) -> hana_types::Result<Outcome> {
    match name {
        "tpch_local" => tpch::run(false, cfg),
        "tpch_federated" => tpch::run(true, cfg),
        "oltp_point_uniform" => oltp::run_point_uniform(cfg),
        _ => oltp::run_mixed_durable(cfg),
    }
}

/// All per-layer values of a traced run: what the workload measured
/// itself plus what the spans give.
fn per_layer(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let a = &o.agg;
    let mut m = o.layers.clone();
    m.insert("sql.parse_us", a.p50_us("sql.parse"));
    m.insert(
        "session.bind_render_us",
        a.p50_us("session.bind") + a.p50_us("session.key_render"),
    );
    m.insert(
        "session.plan_cache_get_us",
        a.p50_us("session.plan_cache_get"),
    );
    m.insert("query.plan_us", a.p50_us("query.plan"));
    m.insert("session.admit_wait_us", a.p50_us("session.admit"));
    m.insert("query.execute_us", a.p50_us("query.execute"));
    m.insert(
        "query.scan_self_us",
        a.self_us_per_stmt(|c| c.ends_with("_scan") || c == "index_seek"),
    );
    m.insert(
        "query.join_self_us",
        a.self_us_per_stmt(|c| c.ends_with("_join")),
    );
    m.insert(
        "query.group_by_self_us",
        a.self_us_per_stmt(|c| c == "group_by" || c == "aggregate"),
    );
    m.insert(
        "query.remote_query_self_us",
        a.self_us_per_stmt(|c| c == "remote_query" || c == "sda_execute"),
    );
    m.insert(
        "query.exchange_self_us",
        a.self_us_per_stmt(|c| c == "exchange"),
    );
    m.insert("query.rows_out_per_row_scanned", a.rows_out_per_leaf_row());
    m.insert("core.dml_insert_us", a.p50_us("core.dml_insert"));
    m.insert("core.dml_update_us", a.p50_us("core.dml_update"));
    m.insert("core.dml_delete_us", a.p50_us("core.dml_delete"));
    m.insert("sda.remote_query_ms", a.p50_ms("sda_execute"));
    m.insert("sda.rows_fetched", a.rows("sda_execute") as f64);
    m.insert("trace.statements", a.statements as f64);
    let (coverage, overhead) = coverage_and_overhead(o);
    m.insert("trace.coverage_share", coverage);
    m.insert("trace.overhead_share", overhead);
    m
}

fn metrics_json(values: impl IntoIterator<Item = (&'static str, f64, &'static str)>) -> Json {
    Json::obj(values.into_iter().map(|(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// The metrics of one run: every end-to-end metric of an untraced run,
/// every per-layer metric of a traced one.
fn run_metrics(o: &Outcome, trace: bool) -> Json {
    if trace {
        let layers = per_layer(o);
        metrics_json(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit)),
        )
    } else {
        metrics_json(
            end_to_end(o)
                .into_iter()
                .filter(|m| m.gated)
                .map(|m| (m.name, m.value, m.unit)),
        )
    }
}

fn commit_of_checkout() -> String {
    // Only files of the checkout are read: an exported tree has no
    // `.git` and reports "unknown".
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn fingerprint(seed: u64, seconds: f64) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("rustc", Json::Str(rustc)),
        ("commit", Json::Str(commit_of_checkout())),
        ("seed", Json::Int(seed as i64)),
        ("window_s", Json::Num(seconds)),
        ("setups_per_run", Json::Int(harness::SETUPS as i64)),
        ("tpch_local_scale", Json::Num(tpch::LOCAL_SCALE)),
        ("tpch_federated_scale", Json::Num(tpch::FEDERATED_SCALE)),
        ("oltp_clients", Json::Int(oltp::client_count() as i64)),
    ])
}

/// Everything about one run that is printed and not gated.
fn describe(name: &str, cfg: &Config, o: &Outcome) -> Json {
    let mut fields = vec![
        ("workload".to_string(), Json::str(name)),
        ("traced".to_string(), Json::Bool(cfg.trace)),
        ("failure_reasons".to_string(), {
            Json::Arr(o.tally.reasons.iter().map(Json::str).collect())
        }),
        ("statement_kinds".to_string(), kind_table(&o.plain)),
    ];
    if !cfg.trace {
        let demoted = end_to_end(o).into_iter().filter(|m| !m.gated);
        fields.push((
            "end_to_end_not_gated".to_string(),
            metrics_json(demoted.map(|m| (m.name, m.value, m.unit))),
        ));
    }
    fields.extend(o.info.iter().cloned());
    if cfg.trace {
        let (coverage, _) = coverage_and_overhead(o);
        fields.push((
            "breakdown_trusted".to_string(),
            Json::Bool(coverage >= TRUSTED_COVERAGE),
        ));
        fields.push(("layer_table".to_string(), Json::Arr(o.agg.table())));
    }
    Json::Obj(fields)
}

fn result_line(o: &Outcome, trace: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.tally.failed == 0)),
        ("attempted", Json::Int(o.tally.attempted.max(1) as i64)),
        ("failed", Json::Int(o.tally.failed as i64)),
        ("metrics", run_metrics(o, trace)),
    ])
}

/// Run one workload, write its span file if traced, and print the
/// layer table for a reader at the terminal.
fn run_and_report(name: &str, cfg: &Config) -> hana_types::Result<Outcome> {
    let o = run_workload(name, cfg)?;
    if cfg.trace {
        let path = cfg.out_dir.join(format!("trace-{name}.jsonl"));
        match o.agg.write_spans(&path) {
            Ok(n) => eprintln!("{n} spans written to {}", path.display()),
            Err(e) => eprintln!("span file {} not written: {e}", path.display()),
        }
        eprint!("{}", o.agg.render_table(name));
    }
    for reason in &o.tally.reasons {
        eprintln!("FAILED {name}: {reason}");
    }
    Ok(o)
}

/// The whole set, `repeat` times (seed, seed+1, …), as one document.
fn run_suite(args: &Args, seconds: f64, out_dir: &Path) -> hana_types::Result<(Json, bool)> {
    let mut all_correct = true;
    let mut runs = Vec::new();
    // workload -> metric -> (gated, one value per repetition)
    let mut series: BTreeMap<&str, BTreeMap<&str, (bool, Vec<f64>)>> = BTreeMap::new();
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        let mut per_workload = Vec::new();
        for name in WORKLOADS {
            let mut cfg = Config {
                seed,
                seconds,
                trace: false,
                out_dir: out_dir.to_path_buf(),
            };
            let plain = run_and_report(name, &cfg)?;
            all_correct &= plain.tally.failed == 0;
            for m in end_to_end(&plain) {
                let by_metric = series.entry(name).or_default();
                let column = by_metric.entry(m.name).or_insert((m.gated, Vec::new()));
                column.1.push(m.value);
            }
            let mut fields = vec![
                ("result", result_line(&plain, false)),
                ("details", describe(name, &cfg, &plain)),
            ];
            if args.trace {
                cfg.trace = true;
                let traced = run_and_report(name, &cfg)?;
                all_correct &= traced.tally.failed == 0;
                fields.push(("traced_result", result_line(&traced, true)));
                fields.push(("traced_details", describe(name, &cfg, &traced)));
            }
            per_workload.push((name, Json::obj(fields)));
        }
        runs.push(Json::obj([
            ("seed", Json::Int(seed as i64)),
            ("workloads", Json::obj(per_workload)),
        ]));
    }
    let mut doc = vec![
        // A quick run's windows are too short to compare with anything.
        ("comparable", Json::Bool(!args.quick)),
        ("fingerprint", fingerprint(args.seed, seconds)),
        ("runs", Json::Arr(runs)),
    ];
    if args.repeat > 1 {
        let table = series.into_iter().map(|(workload, metrics)| {
            let rows = metrics.into_iter().map(|(metric, (gated, values))| {
                let [q1, q2, q3] = quartiles(&values);
                let row = Json::obj([
                    ("gated", Json::Bool(gated)),
                    ("median", Json::Num(median(&values))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("relative_spread", Json::Num((q3 - q1) / q2)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]);
                (metric, row)
            });
            (workload, Json::obj(rows))
        });
        doc.push(("repeatability", Json::obj(table)));
    }
    Ok((Json::obj(doc), all_correct))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(path) = &args.read_trace {
        let agg = TraceAgg::read_spans(path).map_err(|e| format!("{}: {e}", path.display()))?;
        print!("{}", agg.render_table(&path.display().to_string()));
        return Ok(true);
    }
    // Both sides of a later comparison must run one configuration: the
    // engine's environment knobs stay unset, and the WAL configuration
    // is never read from the environment.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HANA_"))
        .collect();
    if !knobs.is_empty() {
        return Err(format!("refusing to run with {knobs:?} set"));
    }
    // Run from the root of the checkout: the durable platform's log
    // directory and the span files go under benchmark/out.
    if !Path::new("benchmark").is_dir() {
        return Err("run from the root of the checkout (no benchmark/ here)".into());
    }
    let out_dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });

    let Some(name) = &args.workload else {
        let (doc, correct) = run_suite(&args, seconds, &out_dir).map_err(|e| e.to_string())?;
        println!("{doc}");
        return Ok(correct);
    };
    let cfg = Config {
        seed: args.seed,
        seconds,
        trace: args.trace,
        out_dir,
    };
    let o = run_and_report(name, &cfg).map_err(|e| e.to_string())?;
    let details = Json::obj([
        ("comparable", Json::Bool(!args.quick)),
        ("fingerprint", fingerprint(cfg.seed, seconds)),
        ("details", describe(name, &cfg, &o)),
    ]);
    println!("{details}");
    println!("{}", result_line(&o, cfg.trace));
    Ok(o.tally.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // Results were printed, and some operation failed or was wrong.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hana-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
