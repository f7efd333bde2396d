//! `tpch_local` and `tpch_federated`: one client running passes of the
//! paper's twelve queries in fixed order, closed loop.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hana_bench::{TpchWorld, WorldConfig};
use hana_core::HanaPlatform;
use hana_session::SessionManager;
use hana_tpch::{TpchData, TpchQuery};
use hana_types::{Date, ResultSet, Row, Schema, Value};

use crate::check::{canonical, Canonical};
use crate::harness::{
    merge_samples, registry_layers, Call, Client, Config, Outcome, Samples, Tally, SETUPS,
};
use crate::json::Json;
use crate::stats::p50_ms;
use crate::trace::TraceAgg;

/// Above the executor's 65,536-row morsel-parallel threshold (lineitem
/// has about 120,000 rows), which SF 0.01 never crosses.
pub const LOCAL_SCALE: f64 = 0.02;
pub const FEDERATED_SCALE: f64 = 0.01;

/// Every table of `data` as a merged column table of a fresh in-memory
/// platform.
fn load_local(data: &TpchData) -> hana_types::Result<Arc<HanaPlatform>> {
    let hana = Arc::new(HanaPlatform::new_in_memory());
    let admin = hana.connect("SYSTEM", "manager")?;
    for t in &data.tables {
        let cols: Vec<String> = t
            .schema
            .columns()
            .iter()
            .map(|c| format!("{} {}", c.name, c.data_type.sql_name()))
            .collect();
        hana.execute_sql(
            &admin,
            &format!("CREATE COLUMN TABLE {} ({})", t.name, cols.join(", ")),
        )?;
        hana.load_rows(&admin, t.name, &t.rows)?;
        hana.execute_sql(&admin, &format!("MERGE DELTA OF {}", t.name))?;
    }
    Ok(hana)
}

/// The platforms of one workload: one for `tpch_local`; for
/// `tpch_federated` the two placements of the paper (PART at Hive, and
/// PART local for Q14 and Q19).
struct Engines {
    managers: Vec<SessionManager>,
    /// Kept for the Hive job counters and the placement test.
    worlds: Vec<TpchWorld>,
}

impl Engines {
    fn local(seed: u64, scale: f64) -> hana_types::Result<Engines> {
        let hana = load_local(&hana_tpch::generate(scale, seed))?;
        Ok(Engines {
            managers: vec![SessionManager::new(hana)],
            worlds: Vec::new(),
        })
    }

    fn federated(seed: u64) -> hana_types::Result<Engines> {
        // A sleep is not work the program can remove: the simulated
        // start-up and transfer latencies are zero here. The figure
        // benches in crates/bench keep the paper's latencies.
        let config = WorldConfig {
            scale: FEDERATED_SCALE,
            seed,
            job_startup: Duration::ZERO,
            task_startup: Duration::ZERO,
            odbc_row_cost_us: 0,
            ..WorldConfig::default()
        };
        let worlds = vec![
            TpchWorld::build(&config, false)?,
            TpchWorld::build(&config, true)?,
        ];
        Ok(Engines {
            managers: worlds
                .iter()
                .map(|w| SessionManager::new(Arc::clone(&w.hana)))
                .collect(),
            worlds,
        })
    }

    /// Index of the platform whose placement fits query `name`.
    fn route(&self, name: &str) -> usize {
        self.worlds.iter().position(|w| w.fits(name)).unwrap_or(0)
    }

    fn mr_jobs(&self) -> u64 {
        self.worlds
            .iter()
            .map(|w| w.hive.cluster().counters().0)
            .sum()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Path {
    Plain,
    Traced,
    /// Plain, `WITH HINT (USE_REMOTE_CACHE)` appended.
    Hinted,
}

/// One client per platform of `engines`, and the passes they run.
struct Runner<'e> {
    engines: &'e Engines,
    clients: Vec<Client<'e>>,
    queries: &'e [TpchQuery],
}

impl<'e> Runner<'e> {
    fn connect(engines: &'e Engines, queries: &'e [TpchQuery]) -> hana_types::Result<Runner<'e>> {
        let clients = engines
            .managers
            .iter()
            .enumerate()
            .map(|(i, m)| Client::connect(m, i as u64))
            .collect::<hana_types::Result<_>>()?;
        Ok(Runner {
            engines,
            clients,
            queries,
        })
    }

    /// One pass: the twelve queries in the order `hana_tpch::queries()`
    /// gives them. Every result is held against `reference` when there
    /// is one; the canonical results are returned.
    fn pass(
        &mut self,
        path: Path,
        reference: Option<&[Canonical]>,
        tally: &mut Tally,
    ) -> Vec<Canonical> {
        let mut results = Vec::with_capacity(self.queries.len());
        for (i, q) in self.queries.iter().enumerate() {
            let sql = if path == Path::Hinted {
                format!("{} WITH HINT (USE_REMOTE_CACHE)", q.sql)
            } else {
                q.sql.clone()
            };
            let client = &mut self.clients[self.engines.route(q.name)];
            match client.run(path == Path::Traced, q.name, Call::Text(&sql)) {
                Ok(rs) => {
                    let got = canonical(&rs);
                    let verdict = reference.map_or(Ok(()), |r| r[i].agrees_with(&got));
                    tally.check(verdict.is_ok(), || {
                        format!("{}: result changed: {}", q.name, verdict.unwrap_err())
                    });
                    results.push(got);
                }
                Err(e) => {
                    tally.check(false, || format!("{}: {e}", q.name));
                    results.push(canonical(&ResultSet::default()));
                }
            }
        }
        results
    }
}

/// Q1 and Q6 computed from the generated rows by the benchmark itself:
/// the two scan-bound queries, whose executor path a columnar-batch
/// change rewrites, get an oracle that shares no code with the engine.
fn brute_force_q1_q6(data: &TpchData) -> (ResultSet, ResultSet) {
    let li = data.table("lineitem");
    let col = |name: &str| li.schema.index_of(name).expect("lineitem column");
    let (qty, price, disc) = (col("l_quantity"), col("l_extendedprice"), col("l_discount"));
    let (flag, status, ship) = (col("l_returnflag"), col("l_linestatus"), col("l_shipdate"));
    let num = |r: &Row, c: usize| r.get(c).as_f64().expect("numeric lineitem column");
    let date = |r: &Row, c: usize| match r.get(c) {
        Value::Date(d) => *d,
        other => panic!("l_shipdate holds {other:?}"),
    };

    let mut q6 = 0.0;
    let (from, to) = (Date::from_ymd(1994, 1, 1), Date::from_ymd(1995, 1, 1));
    // flag, status -> [Σqty, Σprice, Σprice·(1−disc), Σdisc, count]
    let mut groups: BTreeMap<(String, String), [f64; 5]> = BTreeMap::new();
    let q1_until = Date::from_ymd(1998, 8, 1);
    for r in &li.rows {
        let d = date(r, ship);
        let (q, p, dc) = (num(r, qty), num(r, price), num(r, disc));
        if d >= from && d < to && (0.05..=0.07).contains(&dc) && q < 24.0 {
            q6 += p * dc;
        }
        if d <= q1_until {
            let key = (r.get(flag).to_string(), r.get(status).to_string());
            let g = groups.entry(key).or_default();
            g[0] += q;
            g[1] += p;
            g[2] += p * (1.0 - dc);
            g[3] += dc;
            g[4] += 1.0;
        }
    }
    let q1_rows = groups
        .into_iter()
        .map(|((f, s), g)| {
            Row::from_values([
                Value::from(f.as_str()),
                Value::from(s.as_str()),
                Value::Double(g[0]),
                Value::Double(g[1]),
                Value::Double(g[2]),
                Value::Double(g[0] / g[4]),
                Value::Double(g[1] / g[4]),
                Value::Double(g[3] / g[4]),
                Value::Int(g[4] as i64),
            ])
        })
        .collect();
    (
        ResultSet::new(Schema::default(), q1_rows),
        ResultSet::new(
            Schema::default(),
            vec![Row::from_values([Value::Double(q6)])],
        ),
    )
}

/// The oracle of each workload, run once, outside `setup_s`.
fn oracle(
    federated: bool,
    cfg: &Config,
    queries: &[TpchQuery],
    reference: &[Canonical],
    tally: &mut Tally,
) -> hana_types::Result<()> {
    let expected: Vec<(usize, Canonical)> = if !federated {
        // The same seed and scale the platform was loaded from.
        let (q1, q6) = brute_force_q1_q6(&hana_tpch::generate(LOCAL_SCALE, cfg.seed));
        let at = |n: &str| queries.iter().position(|q| q.name == n).expect("query");
        vec![(at("Q1*"), canonical(&q1)), (at("Q6"), canonical(&q6))]
    } else {
        // Every federated result must equal the local engine's on the
        // same data.
        let local = Engines::local(cfg.seed, FEDERATED_SCALE)?;
        let results = Runner::connect(&local, queries)?.pass(Path::Plain, None, tally);
        results.into_iter().enumerate().collect()
    };
    for (i, want) in expected {
        let verdict = want.agrees_with(&reference[i]);
        tally.check(verdict.is_ok() && want.len() > 0, || {
            format!(
                "{}: differs from its oracle: {}",
                queries[i].name,
                verdict.err().unwrap_or_else(|| "empty result".into())
            )
        });
    }
    Ok(())
}

pub fn run(federated: bool, cfg: &Config) -> hana_types::Result<Outcome> {
    let queries = hana_tpch::queries();
    let mut tally = Tally::default();

    // Set-up: generate, load, merge, and one pass that compiles and
    // caches every plan. The results of that pass are the reference.
    let mut setups_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let start = Instant::now();
        let engines = if federated {
            Engines::federated(cfg.seed)?
        } else {
            Engines::local(cfg.seed, LOCAL_SCALE)?
        };
        let reference = Runner::connect(&engines, &queries)?.pass(Path::Plain, None, &mut tally);
        setups_s.push(start.elapsed().as_secs_f64());
        built = Some((engines, reference));
    }
    let (engines, reference) = built.expect("at least one set-up");
    oracle(federated, cfg, &queries, &reference, &mut tally)?;

    let mut runner = Runner::connect(&engines, &queries)?;
    let platform = Arc::clone(engines.managers[0].platform());
    let before = platform.observability_snapshot();
    let jobs_before = engines.mr_jobs();
    let (plain_for, whole) = cfg.window();
    let start = Instant::now();
    for c in runner.clients.iter_mut() {
        c.start_window(start);
    }
    let mut pass_ns: Vec<u64> = Vec::new();
    let mut plain_window_s = 0.0;
    // Whole passes only: a pass starts while the window is open and is
    // finished after it closes.
    while start.elapsed() < whole {
        let path = if start.elapsed() < plain_for {
            Path::Plain
        } else {
            Path::Traced
        };
        let pass_start = Instant::now();
        runner.pass(path, Some(&reference), &mut tally);
        if path == Path::Plain {
            pass_ns.push(pass_start.elapsed().as_nanos() as u64);
            plain_window_s = start.elapsed().as_secs_f64();
        }
    }
    let after = platform.observability_snapshot();

    // Taken before the hinted passes below, which are not in the window.
    let mut plain = Samples::new();
    let mut agg = TraceAgg::default();
    for c in runner.clients.iter_mut() {
        merge_samples(&mut plain, std::mem::take(&mut c.plain));
        agg.merge(std::mem::take(&mut c.agg));
    }

    let mut layers = registry_layers(&before, &after);
    layers.insert("hadoop.mr_jobs", (engines.mr_jobs() - jobs_before) as f64);
    if cfg.trace && federated {
        // The Fig 14 quantity: a pass served from the remote
        // materialisation cache (the first hinted pass fills it).
        for w in &engines.worlds {
            w.hana.set_remote_cache(true, 1_000_000);
        }
        runner.pass(Path::Hinted, Some(&reference), &mut tally);
        let hit_start = Instant::now();
        runner.pass(Path::Hinted, Some(&reference), &mut tally);
        layers.insert(
            "sda.cache_hit_pass_ms",
            hit_start.elapsed().as_secs_f64() * 1e3,
        );
    }

    let mut info = vec![
        ("passes".to_string(), Json::Int(pass_ns.len() as i64)),
        ("pass_ms".to_string(), Json::Num(p50_ms(&pass_ns))),
        (
            "pass_ms_each".to_string(),
            Json::Arr(
                pass_ns
                    .iter()
                    .map(|&ns| Json::Num(ns as f64 / 1e6))
                    .collect(),
            ),
        ),
    ];
    if federated {
        info.push((
            "simulated_sleeps".to_string(),
            Json::str("job_startup, task_startup and odbc_row_cost_us are 0"),
        ));
    }
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
