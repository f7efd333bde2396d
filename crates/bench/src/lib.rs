//! # hana-bench
//!
//! The generators of the paper's figures (EXPERIMENTS.md E1–E9): the
//! TPC-H federation world of the §4.4 experiment (HANA + Hive
//! side-by-side with the paper's table placement), the measurement loop
//! that regenerates Figures 14 and 15, and the median sampler the
//! `benches/` figure generators share. Regression numbers live in
//! `benchmark/`, not here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hana_core::{HanaPlatform, Session};
use hana_hadoop::{Hdfs, Hive, MrCluster, MrConfig, MrFunctionRegistry};
use hana_tpch::{federated_tables, local_tables, queries, TpchQuery};
use hana_types::Result;

/// Median wall time of 15 runs of `f`, in nanoseconds.
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

/// Cluster knobs of the simulated Hadoop environment. The three costs
/// are modelled — charged to `MrCluster::modelled`, never waited for.
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
    pub fn run(&self, q: &TpchQuery, cached: bool) -> Result<QueryRun> {
        let sql = if cached {
            format!("{} WITH HINT (USE_REMOTE_CACHE)", q.sql)
        } else {
            q.sql.clone()
        };
        let cluster = self.hive.cluster();
        let (jobs_before, modelled_before) = (cluster.counters().0, cluster.modelled());
        let start = Instant::now();
        let rs = self.hana.execute_sql(&self.session, &sql)?;
        Ok(QueryRun {
            measured: start.elapsed(),
            modelled: cluster.modelled() - modelled_before,
            mr_jobs: cluster.counters().0 - jobs_before,
            rows: rs.len(),
        })
    }
}

/// What one execution of one query cost and returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRun {
    /// Wall time of the statement; nothing in it sleeps.
    pub measured: Duration,
    /// MR start-up and ODBC transfer time the Hive cluster charged
    /// meanwhile — a function of the plan and the data, not of the run.
    pub modelled: Duration,
    /// MapReduce jobs the statement launched.
    pub mr_jobs: u64,
    /// Result rows.
    pub rows: usize,
}

impl QueryRun {
    /// Modelled + measured: the runtime the figures are computed on.
    pub fn total(&self) -> Duration {
        self.modelled + self.measured
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
    pub normal: QueryRun,
    /// First hinted execution (materializes).
    pub first_cached: QueryRun,
    /// Steady-state hinted execution (cache hit).
    pub steady_cached: QueryRun,
}

impl MaterializationRow {
    /// Figure 14's metric: runtime benefit of remote materialization.
    pub fn benefit_percent(&self) -> f64 {
        let normal = self.normal.total().as_secs_f64().max(1e-9);
        100.0 * (1.0 - self.steady_cached.total().as_secs_f64() / normal)
    }

    /// Figure 15's metric: one-time materialization overhead.
    pub fn overhead_percent(&self) -> f64 {
        let normal = self.normal.total().as_secs_f64().max(1e-9);
        100.0 * (self.first_cached.total().as_secs_f64() / normal - 1.0).max(0.0)
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
        let warm_up = world.run(&q, false)?;
        let normal = world.run(&q, false)?;
        let first_cached = world.run(&q, true)?;
        let steady_cached = world.run(&q, true)?;
        assert_eq!(normal.rows, warm_up.rows, "{}: normal runs agree", q.name);
        assert_eq!(
            normal.rows, first_cached.rows,
            "{}: materialized run returns same rows",
            q.name
        );
        assert_eq!(
            normal.rows, steady_cached.rows,
            "{}: cache hit returns same rows",
            q.name
        );
        rows.push(MaterializationRow {
            name: q.name,
            all_remote: q.all_remote,
            normal,
            first_cached,
            steady_cached,
        });
    }
    Ok(rows)
}

/// Render the Figure 14 + Figure 15 tables as text: per mode the MR
/// jobs launched, the modelled and the measured time; the percentages
/// are computed on modelled + measured.
pub fn render_figures(rows: &[MaterializationRow]) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut sorted: Vec<&MaterializationRow> = rows.iter().collect();
    sorted.sort_by(|a, b| b.benefit_percent().total_cmp(&a.benefit_percent()));
    let mut out = String::new();
    out.push_str("Figure 14 — runtime benefit of remote materialization\n");
    out.push_str(
        "        |            |        normal (SDA)         |          cache hit          |\n\
         query   | placement  | jobs | modelled | measured | jobs | modelled | measured | benefit %\n\
         --------+------------+------+----------+----------+------+----------+----------+----------\n",
    );
    for r in &sorted {
        out.push_str(&format!(
            "{:<7} | {:<10} | {:>4} | {:>6.1}ms | {:>6.1}ms | {:>4} | {:>6.1}ms | {:>6.1}ms | {:>7.2}\n",
            r.name,
            if r.all_remote { "all-remote" } else { "mixed" },
            r.normal.mr_jobs,
            ms(r.normal.modelled),
            ms(r.normal.measured),
            r.steady_cached.mr_jobs,
            ms(r.steady_cached.modelled),
            ms(r.steady_cached.measured),
            r.benefit_percent(),
        ));
    }
    out.push('\n');
    let mut by_overhead: Vec<&MaterializationRow> = rows.iter().collect();
    by_overhead.sort_by(|a, b| b.overhead_percent().total_cmp(&a.overhead_percent()));
    out.push_str("Figure 15 — one-time materialization overhead (first hinted run)\n");
    out.push_str(
        "query   | jobs | modelled | measured | overhead %\n\
         --------+------+----------+----------+-----------\n",
    );
    for r in &by_overhead {
        out.push_str(&format!(
            "{:<7} | {:>4} | {:>6.1}ms | {:>6.1}ms | {:>8.2}\n",
            r.name,
            r.first_cached.mr_jobs,
            ms(r.first_cached.modelled),
            ms(r.first_cached.measured),
            r.overhead_percent(),
        ));
    }
    out
}
