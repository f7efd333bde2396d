//! # hana-bench
//!
//! Shared harness code for the benchmark suite: the TPC-H federation
//! world of the paper's §4.4 experiment (HANA + Hive side-by-side with
//! the paper's table placement) and the measurement loop that
//! regenerates Figures 14 and 15.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hana_core::{HanaPlatform, Session};
use hana_hadoop::{Hdfs, Hive, MrCluster, MrConfig, MrFunctionRegistry};
use hana_tpch::{federated_tables, local_tables, queries, TpchQuery};
use hana_types::Result;

/// Median wall time of 15 runs of `f`, in nanoseconds — the sampler
/// behind the `BENCH_*.json` summaries (the criterion stand-in reports
/// means on stdout only).
pub fn median_nanos(mut f: impl FnMut()) -> u128 {
    const RUNS: usize = 15;
    let mut samples = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[RUNS / 2]
}

/// The side-by-side setup of Figure 11 loaded with TPC-H data.
pub struct TpchWorld {
    /// The platform (single point of access).
    pub hana: Arc<HanaPlatform>,
    /// An administrator session.
    pub session: Session,
    /// The attached Hive instance.
    pub hive: Arc<Hive>,
    /// Whether PART is local (the Q14/Q19 placement).
    pub part_local: bool,
}

/// Cluster knobs of the simulated Hadoop environment.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// TPC-H scale factor (0.01 ≈ 1.5k customers / ~60k lineitems).
    pub scale: f64,
    /// RNG seed for data generation.
    pub seed: u64,
    /// MR job startup cost.
    pub job_startup: Duration,
    /// MR task startup cost.
    pub task_startup: Duration,
    /// Concurrent MR task slots.
    pub worker_slots: usize,
    /// HDFS block size (drives map-task counts).
    pub block_size: usize,
    /// Per-row ODBC transfer cost of fetching remote results into HANA.
    pub odbc_row_cost_us: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            scale: 0.01,
            seed: 2015,
            job_startup: Duration::from_millis(8),
            task_startup: Duration::from_millis(1),
            worker_slots: 4,
            block_size: 1024 * 1024,
            odbc_row_cost_us: 60,
        }
    }
}

impl TpchWorld {
    /// Build a world with the paper's placement. `part_local` selects
    /// the Q14/Q19 variant ("PART only for Q14 and Q19" is local).
    pub fn build(config: &WorldConfig, part_local: bool) -> Result<TpchWorld> {
        let data = hana_tpch::generate(config.scale, config.seed);
        let hdfs = Arc::new(Hdfs::with_config(6, config.block_size, 3));
        let mr = Arc::new(MrCluster::new(
            hdfs,
            MrConfig {
                worker_slots: config.worker_slots,
                job_startup: config.job_startup,
                task_startup: config.task_startup,
            },
        ));
        let hive = Arc::new(Hive::new(Arc::clone(&mr)));
        let registry = Arc::new(MrFunctionRegistry::new(mr));

        let hana = Arc::new(HanaPlatform::new_in_memory());
        let session = hana.connect("SYSTEM", "manager")?;
        hana.attach_hadoop(Arc::clone(&hive), registry);
        hana.execute_sql(
            &session,
            &format!(
                "CREATE REMOTE SOURCE HIVE1 ADAPTER \"hiveodbc\" \
                 CONFIGURATION 'DSN=hive1;row_cost_us={}' \
                 WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'",
                config.odbc_row_cost_us
            ),
        )?;

        // Placement probe queries use Q14/Q19 vs the rest.
        let probe = if part_local { "Q14" } else { "Q1*" };
        let federated = federated_tables(probe);
        let local = local_tables(probe);

        for name in federated {
            let t = data.table(name);
            hive.create_table(name, t.schema.clone())?;
            hive.load(name, &t.rows)?;
            hana.execute_sql(
                &session,
                &format!("CREATE VIRTUAL TABLE {name} AT hive1.default.default.{name}"),
            )?;
        }
        for name in local {
            let t = data.table(name);
            let cols: Vec<String> = t
                .schema
                .columns()
                .iter()
                .map(|c| format!("{} {}", c.name, c.data_type.sql_name()))
                .collect();
            hana.execute_sql(
                &session,
                &format!("CREATE COLUMN TABLE {name} ({})", cols.join(", ")),
            )?;
            hana.load_rows(&session, name, &t.rows)?;
            hana.execute_sql(&session, &format!("MERGE DELTA OF {name}"))?;
        }
        Ok(TpchWorld {
            hana,
            session,
            hive,
            part_local,
        })
    }

    /// Whether this world has the right placement for `query_name`.
    pub fn fits(&self, query_name: &str) -> bool {
        let wants_part_local = query_name.starts_with("Q14") || query_name.starts_with("Q19");
        wants_part_local == self.part_local
    }

    /// Run one query, optionally with `WITH HINT (USE_REMOTE_CACHE)`.
    /// Returns the elapsed time and row count.
    pub fn run(&self, q: &TpchQuery, cached: bool) -> Result<(Duration, usize)> {
        let sql = if cached {
            format!("{} WITH HINT (USE_REMOTE_CACHE)", q.sql)
        } else {
            q.sql.clone()
        };
        let start = Instant::now();
        let rs = self.hana.execute_sql(&self.session, &sql)?;
        Ok((start.elapsed(), rs.len()))
    }
}

/// One Figure 14/15 measurement row.
#[derive(Debug, Clone)]
pub struct MaterializationRow {
    /// Query id.
    pub name: &'static str,
    /// Whether every referenced table is federated.
    pub all_remote: bool,
    /// Baseline (SDA normal mode).
    pub normal: Duration,
    /// First hinted execution (materializes).
    pub first_cached: Duration,
    /// Steady-state hinted execution (cache hit).
    pub steady_cached: Duration,
    /// Result rows (sanity: identical across modes).
    pub rows: usize,
}

impl MaterializationRow {
    /// Figure 14's metric: runtime benefit of remote materialization.
    pub fn benefit_percent(&self) -> f64 {
        100.0 * (1.0 - self.steady_cached.as_secs_f64() / self.normal.as_secs_f64().max(1e-9))
    }

    /// Figure 15's metric: one-time materialization overhead.
    pub fn overhead_percent(&self) -> f64 {
        100.0
            * (self.first_cached.as_secs_f64() / self.normal.as_secs_f64().max(1e-9) - 1.0).max(0.0)
    }
}

/// Run the full Figure 14/15 experiment: every query in normal mode,
/// then first + steady cached executions. Builds both placements.
pub fn run_materialization_experiment(config: &WorldConfig) -> Result<Vec<MaterializationRow>> {
    let world_a = TpchWorld::build(config, false)?;
    let world_b = TpchWorld::build(config, true)?;
    // The §4.4 configuration: caching enabled with a long validity.
    world_a.hana.set_remote_cache(true, 1_000_000);
    world_b.hana.set_remote_cache(true, 1_000_000);

    let mut rows = Vec::new();
    for q in queries() {
        let world = if world_a.fits(q.name) {
            &world_a
        } else {
            &world_b
        };
        // Warm the engines once so allocator effects don't skew the
        // first measurement.
        let (_, expected_rows) = world.run(&q, false)?;
        let (normal, n1) = world.run(&q, false)?;
        let (first_cached, n2) = world.run(&q, true)?;
        let (steady_cached, n3) = world.run(&q, true)?;
        assert_eq!(n1, expected_rows, "{}: normal runs agree", q.name);
        assert_eq!(n1, n2, "{}: materialized run returns same rows", q.name);
        assert_eq!(n1, n3, "{}: cache hit returns same rows", q.name);
        rows.push(MaterializationRow {
            name: q.name,
            all_remote: q.all_remote,
            normal,
            first_cached,
            steady_cached,
            rows: n1,
        });
    }
    Ok(rows)
}

/// Render the Figure 14 + Figure 15 tables as text.
pub fn render_figures(rows: &[MaterializationRow]) -> String {
    let mut sorted: Vec<&MaterializationRow> = rows.iter().collect();
    sorted.sort_by(|a, b| b.benefit_percent().total_cmp(&a.benefit_percent()));
    let mut out = String::new();
    out.push_str("Figure 14 — runtime benefit of remote materialization\n");
    out.push_str("query   | placement  | normal     | cache hit  | benefit %\n");
    out.push_str("--------+------------+------------+------------+----------\n");
    for r in &sorted {
        out.push_str(&format!(
            "{:<7} | {:<10} | {:>8.1}ms | {:>8.1}ms | {:>7.2}\n",
            r.name,
            if r.all_remote { "all-remote" } else { "mixed" },
            r.normal.as_secs_f64() * 1e3,
            r.steady_cached.as_secs_f64() * 1e3,
            r.benefit_percent(),
        ));
    }
    out.push('\n');
    let mut by_overhead: Vec<&MaterializationRow> = rows.iter().collect();
    by_overhead.sort_by(|a, b| b.overhead_percent().total_cmp(&a.overhead_percent()));
    out.push_str("Figure 15 — one-time materialization overhead\n");
    out.push_str("query   | first cached | overhead %\n");
    out.push_str("--------+--------------+-----------\n");
    for r in &by_overhead {
        out.push_str(&format!(
            "{:<7} | {:>10.1}ms | {:>8.2}\n",
            r.name,
            r.first_cached.as_secs_f64() * 1e3,
            r.overhead_percent(),
        ));
    }
    out
}
