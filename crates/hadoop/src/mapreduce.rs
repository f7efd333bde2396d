//! The MapReduce engine.
//!
//! A faithful miniature of Hadoop 1.x execution: jobs are split into map
//! tasks (one per input block), map output is hash-partitioned into
//! `num_reducers` buckets, optionally combined, sorted by key and reduced;
//! reducers write `part-r-NNNNN` files into the job's output directory.
//! Tasks run on a bounded worker pool (crossbeam scoped threads).
//!
//! **Why overheads are modeled.** The paper's Figure 14/15 experiment
//! measures the benefit of *not re-running* Hive's MR DAGs; that benefit
//! exists because each job pays fixed scheduling/JVM-startup costs.
//! [`MrConfig::job_startup`] and [`MrConfig::task_startup`] make those
//! costs explicit and configurable so the reproduction can sweep them.
//! They are *charged*, never slept: the cluster keeps a monotone
//! modelled-time counter ([`MrCluster::modelled`]) beside its job
//! counters, so a figure built on it is the same on every run and on
//! any core count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hana_types::{HanaError, Result};

use crate::hdfs::Hdfs;

/// A map output / reduce input pair.
pub type KV = (String, String);

/// User map function: one input line -> any number of key/value pairs.
pub trait Mapper: Send + Sync {
    /// Map one record. `key` is the input file path, `value` the line.
    fn map(&self, key: &str, value: &str, out: &mut Vec<KV>);
}

/// User reduce function: one key + all its values -> output lines.
pub trait Reducer: Send + Sync {
    /// Reduce one key group.
    fn reduce(&self, key: &str, values: &[String], out: &mut Vec<String>);
}

impl<F> Mapper for F
where
    F: Fn(&str, &str, &mut Vec<KV>) + Send + Sync,
{
    fn map(&self, key: &str, value: &str, out: &mut Vec<KV>) {
        self(key, value, out)
    }
}

/// Local pre-aggregation run over each map task's output. Unlike a
/// [`Reducer`], a combiner's output must stay in value format (it is fed
/// back into the shuffle, not written to files).
pub trait Combiner: Send + Sync {
    /// Combine the local values of one key into fewer values.
    fn combine(&self, key: &str, values: &[String]) -> Vec<String>;
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct MrConfig {
    /// Concurrent task slots.
    pub worker_slots: usize,
    /// Fixed cost charged per job (scheduling, JVM startup).
    pub job_startup: Duration,
    /// Fixed cost charged per task.
    pub task_startup: Duration,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            worker_slots: 4,
            job_startup: Duration::from_millis(12),
            task_startup: Duration::from_millis(2),
        }
    }
}

/// One job submission.
pub struct JobSpec {
    /// Human-readable job name.
    pub name: String,
    /// HDFS input files.
    pub inputs: Vec<String>,
    /// HDFS output directory (part files are written under it).
    pub output_dir: String,
    /// Number of reduce tasks. `0` makes the job map-only: map output
    /// values are written directly (keys discarded).
    pub num_reducers: usize,
    /// Optional combiner, run over each map task's local output.
    pub combiner: Option<Arc<dyn Combiner>>,
}

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStats {
    /// Map tasks executed.
    pub map_tasks: usize,
    /// Reduce tasks executed.
    pub reduce_tasks: usize,
    /// Records read by mappers.
    pub input_records: u64,
    /// Records emitted by mappers (before combining).
    pub map_output_records: u64,
    /// Records written by reducers (or mappers when map-only).
    pub output_records: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Modelled start-up time this job charged to its cluster:
    /// `job_startup` plus one `task_startup` per wave of map tasks and
    /// per wave of reduce tasks over the worker slots.
    pub modelled: Duration,
}

/// The cluster: an HDFS plus the job execution engine.
pub struct MrCluster {
    hdfs: Arc<Hdfs>,
    config: MrConfig,
    jobs_run: AtomicU64,
    total_map_tasks: AtomicU64,
    total_reduce_tasks: AtomicU64,
    modelled_nanos: AtomicU64,
}

impl MrCluster {
    /// A cluster over `hdfs` with the given config.
    pub fn new(hdfs: Arc<Hdfs>, config: MrConfig) -> MrCluster {
        MrCluster {
            hdfs,
            config,
            jobs_run: AtomicU64::new(0),
            total_map_tasks: AtomicU64::new(0),
            total_reduce_tasks: AtomicU64::new(0),
            modelled_nanos: AtomicU64::new(0),
        }
    }

    /// The cluster's file system.
    pub fn hdfs(&self) -> &Arc<Hdfs> {
        &self.hdfs
    }

    /// The engine configuration.
    pub fn config(&self) -> &MrConfig {
        &self.config
    }

    /// `(jobs, map_tasks, reduce_tasks)` run so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.jobs_run.load(Ordering::Relaxed),
            self.total_map_tasks.load(Ordering::Relaxed),
            self.total_reduce_tasks.load(Ordering::Relaxed),
        )
    }

    /// Modelled time charged so far: job and task start-up of every
    /// job run, plus whatever a client charged for moving results out
    /// of the cluster. Nothing ever waits for it.
    pub fn modelled(&self) -> Duration {
        Duration::from_nanos(self.modelled_nanos.load(Ordering::Relaxed))
    }

    /// Add `cost` to the modelled time.
    pub fn charge(&self, cost: Duration) {
        let nanos = u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX);
        self.modelled_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Charge one `task_startup` per wave of `tasks` over the worker
    /// slots — the makespan of a phase whose every task pays it.
    fn charge_phase(&self, tasks: usize) -> Duration {
        let waves = tasks.div_ceil(self.config.worker_slots.max(1));
        let cost = self
            .config
            .task_startup
            .saturating_mul(u32::try_from(waves).unwrap_or(u32::MAX));
        self.charge(cost);
        cost
    }

    /// Run a job to completion.
    pub fn run_job(
        &self,
        spec: &JobSpec,
        mapper: Arc<dyn Mapper>,
        reducer: Option<Arc<dyn Reducer>>,
    ) -> Result<JobStats> {
        let start = Instant::now();
        if spec.num_reducers > 0 && reducer.is_none() {
            return Err(HanaError::Config(format!(
                "job '{}' declares {} reducers but no reduce function",
                spec.name, spec.num_reducers
            )));
        }
        self.jobs_run.fetch_add(1, Ordering::Relaxed);
        self.charge(self.config.job_startup);
        let mut modelled = self.config.job_startup;

        // Clear a stale output dir (Hadoop would refuse; we overwrite to
        // keep the harness ergonomic).
        self.hdfs.delete_dir(&spec.output_dir);

        // ---- map phase: one task per input block ----
        struct MapTask {
            path: String,
            block: usize,
            nblocks: usize,
        }
        let mut tasks = Vec::new();
        for path in &spec.inputs {
            let nblocks = self.hdfs.block_count(path)?.max(1);
            for block in 0..nblocks {
                tasks.push(MapTask {
                    path: path.clone(),
                    block,
                    nblocks,
                });
            }
        }
        modelled += self.charge_phase(tasks.len());
        let input_records = AtomicU64::new(0);
        let map_output_records = AtomicU64::new(0);
        let nparts = spec.num_reducers.max(1);
        // Partitioned map output: nparts buckets, each a Vec<KV>.
        let partitions: Vec<Mutex<Vec<KV>>> = (0..nparts).map(|_| Mutex::new(Vec::new())).collect();
        let next_task = AtomicU64::new(0);
        let map_err: Mutex<Option<HanaError>> = Mutex::new(None);

        crossbeam::scope(|scope| {
            for _ in 0..self.config.worker_slots.max(1) {
                scope.spawn(|_| loop {
                    let idx = next_task.fetch_add(1, Ordering::Relaxed) as usize;
                    if idx >= tasks.len() || map_err.lock().is_some() {
                        return;
                    }
                    let task = &tasks[idx];
                    // A task owns an equal share of the file's lines (the
                    // simulator reads whole files; the share models block
                    // locality).
                    let lines = match self.hdfs.read_lines(&task.path) {
                        Ok(l) => l,
                        Err(e) => {
                            *map_err.lock() = Some(e);
                            return;
                        }
                    };
                    let share: Vec<&String> = lines
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % task.nblocks == task.block)
                        .map(|(_, l)| l)
                        .collect();
                    input_records.fetch_add(share.len() as u64, Ordering::Relaxed);
                    let mut out = Vec::new();
                    for line in share {
                        mapper.map(&task.path, line, &mut out);
                    }
                    map_output_records.fetch_add(out.len() as u64, Ordering::Relaxed);
                    // Local combine.
                    if let Some(comb) = &spec.combiner {
                        out = combine(comb.as_ref(), out);
                    }
                    // Partition by key hash.
                    let mut buckets: Vec<Vec<KV>> = (0..nparts).map(|_| Vec::new()).collect();
                    for kv in out {
                        let p = partition_of(&kv.0, nparts);
                        buckets[p].push(kv);
                    }
                    for (p, bucket) in buckets.into_iter().enumerate() {
                        if !bucket.is_empty() {
                            partitions[p].lock().extend(bucket);
                        }
                    }
                });
            }
        })
        .map_err(|_| HanaError::Execution("map phase panicked".into()))?;
        if let Some(e) = map_err.lock().take() {
            return Err(e);
        }
        self.total_map_tasks
            .fetch_add(tasks.len() as u64, Ordering::Relaxed);

        // ---- reduce phase (or direct write when map-only) ----
        let output_records = AtomicU64::new(0);
        if spec.num_reducers == 0 {
            let kvs = std::mem::take(&mut *partitions[0].lock());
            let lines: Vec<String> = kvs.into_iter().map(|(_, v)| v).collect();
            output_records.fetch_add(lines.len() as u64, Ordering::Relaxed);
            self.hdfs
                .append_lines(&format!("{}/part-m-00000", spec.output_dir), &lines)?;
        } else {
            let reducer = reducer.expect("checked above");
            modelled += self.charge_phase(nparts);
            let reduce_err: Mutex<Option<HanaError>> = Mutex::new(None);
            let next_part = AtomicU64::new(0);
            crossbeam::scope(|scope| {
                for _ in 0..self.config.worker_slots.max(1) {
                    scope.spawn(|_| loop {
                        let p = next_part.fetch_add(1, Ordering::Relaxed) as usize;
                        if p >= nparts || reduce_err.lock().is_some() {
                            return;
                        }
                        let kvs = std::mem::take(&mut *partitions[p].lock());
                        // Shuffle sort: group values by key.
                        let mut grouped: BTreeMap<String, Vec<String>> = BTreeMap::new();
                        for (k, v) in kvs {
                            grouped.entry(k).or_default().push(v);
                        }
                        let mut lines = Vec::new();
                        for (k, vs) in &grouped {
                            reducer.reduce(k, vs, &mut lines);
                        }
                        output_records.fetch_add(lines.len() as u64, Ordering::Relaxed);
                        if let Err(e) = self
                            .hdfs
                            .append_lines(&format!("{}/part-r-{p:05}", spec.output_dir), &lines)
                        {
                            *reduce_err.lock() = Some(e);
                        }
                    });
                }
            })
            .map_err(|_| HanaError::Execution("reduce phase panicked".into()))?;
            if let Some(e) = reduce_err.lock().take() {
                return Err(e);
            }
            self.total_reduce_tasks
                .fetch_add(nparts as u64, Ordering::Relaxed);
        }

        Ok(JobStats {
            map_tasks: tasks.len(),
            reduce_tasks: spec.num_reducers,
            input_records: input_records.into_inner(),
            map_output_records: map_output_records.into_inner(),
            output_records: output_records.into_inner(),
            elapsed: start.elapsed(),
            modelled,
        })
    }

    /// Read a job's output directory as lines (all part files, in order).
    pub fn read_output(&self, output_dir: &str) -> Result<Vec<String>> {
        let mut lines = Vec::new();
        for part in self.hdfs.list(output_dir) {
            lines.extend(self.hdfs.read_lines(&part)?);
        }
        Ok(lines)
    }
}

/// Stable key partitioner (FNV-1a).
pub fn partition_of(key: &str, nparts: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % nparts as u64) as usize
}

/// Run a combiner over local map output.
fn combine(comb: &dyn Combiner, kvs: Vec<KV>) -> Vec<KV> {
    let mut grouped: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (k, v) in kvs {
        grouped.entry(k).or_default().push(v);
    }
    let mut out = Vec::new();
    for (k, vs) in &grouped {
        out.extend(comb.combine(k, vs).into_iter().map(|v| (k.clone(), v)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct WordMapper;
    impl Mapper for WordMapper {
        fn map(&self, _k: &str, line: &str, out: &mut Vec<KV>) {
            for w in line.split_whitespace() {
                out.push((w.to_lowercase(), "1".into()));
            }
        }
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        fn reduce(&self, key: &str, values: &[String], out: &mut Vec<String>) {
            let n: i64 = values.iter().map(|v| v.parse::<i64>().unwrap_or(0)).sum();
            out.push(format!("{key}\t{n}"));
        }
    }

    /// Value-preserving partial sum.
    struct SumCombiner;
    impl Combiner for SumCombiner {
        fn combine(&self, _key: &str, values: &[String]) -> Vec<String> {
            let n: i64 = values.iter().map(|v| v.parse::<i64>().unwrap_or(0)).sum();
            vec![n.to_string()]
        }
    }

    fn cluster() -> MrCluster {
        let cfg = MrConfig {
            worker_slots: 4,
            job_startup: Duration::from_micros(100),
            task_startup: Duration::from_micros(10),
        };
        MrCluster::new(Arc::new(Hdfs::with_config(4, 64, 2)), cfg)
    }

    #[test]
    fn word_count_end_to_end() {
        let mr = cluster();
        mr.hdfs()
            .append_lines(
                "/in/a.txt",
                &["the quick brown fox", "jumps over the lazy dog", "the end"],
            )
            .unwrap();
        let spec = JobSpec {
            name: "wordcount".into(),
            inputs: vec!["/in/a.txt".into()],
            output_dir: "/out/wc".into(),
            num_reducers: 3,
            combiner: Some(Arc::new(SumCombiner)),
        };
        let stats = mr
            .run_job(&spec, Arc::new(WordMapper), Some(Arc::new(SumReducer)))
            .unwrap();
        assert_eq!(stats.input_records, 3);
        assert!(stats.map_tasks >= 1);
        assert_eq!(stats.reduce_tasks, 3);
        let mut out = mr.read_output("/out/wc").unwrap();
        out.sort();
        assert!(out.contains(&"the\t3".to_string()), "{out:?}");
        assert!(out.contains(&"fox\t1".to_string()));
        assert_eq!(out.len(), 9, "9 distinct words: {out:?}");
    }

    #[test]
    fn map_only_job() {
        let mr = cluster();
        mr.hdfs()
            .append_lines("/in/x", &["keep 1", "drop 2", "keep 3"])
            .unwrap();
        let mapper = |_k: &str, line: &str, out: &mut Vec<KV>| {
            if line.starts_with("keep") {
                out.push((String::new(), line.to_uppercase()));
            }
        };
        let spec = JobSpec {
            name: "filter".into(),
            inputs: vec!["/in/x".into()],
            output_dir: "/out/f".into(),
            num_reducers: 0,
            combiner: None,
        };
        let stats = mr.run_job(&spec, Arc::new(mapper), None).unwrap();
        assert_eq!(stats.output_records, 2);
        let out = mr.read_output("/out/f").unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|l| l.starts_with("KEEP")));
    }

    #[test]
    fn multi_block_inputs_spawn_multiple_map_tasks() {
        let mr = cluster(); // 64-byte blocks
        let lines: Vec<String> = (0..50).map(|i| format!("word{i} filler filler")).collect();
        mr.hdfs().append_lines("/in/big", &lines).unwrap();
        let spec = JobSpec {
            name: "count".into(),
            inputs: vec!["/in/big".into()],
            output_dir: "/out/c".into(),
            num_reducers: 2,
            combiner: None,
        };
        let stats = mr
            .run_job(&spec, Arc::new(WordMapper), Some(Arc::new(SumReducer)))
            .unwrap();
        assert!(stats.map_tasks > 5, "got {} map tasks", stats.map_tasks);
        assert_eq!(stats.input_records, 50, "every line mapped exactly once");
        let out = mr.read_output("/out/c").unwrap();
        // 50 distinct word{i} keys + "filler".
        assert_eq!(out.len(), 51);
    }

    #[test]
    fn start_up_costs_are_charged_not_slept() {
        let (slots, reducers) = (3, 5);
        let cfg = MrConfig {
            worker_slots: slots,
            job_startup: Duration::from_secs(1),
            task_startup: Duration::from_millis(250),
        };
        let mr = MrCluster::new(Arc::new(Hdfs::with_config(4, 64, 2)), cfg);
        let lines: Vec<String> = (0..50).map(|i| format!("word{i} filler filler")).collect();
        mr.hdfs().append_lines("/in/big", &lines).unwrap();
        let mut spec = JobSpec {
            name: "count".into(),
            inputs: vec!["/in/big".into()],
            output_dir: "/out/c".into(),
            num_reducers: reducers,
            combiner: None,
        };
        let start = Instant::now();
        let stats = mr
            .run_job(&spec, Arc::new(WordMapper), Some(Arc::new(SumReducer)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "a 1 s job start-up is modelled, not waited for: {:?}",
            start.elapsed()
        );
        assert!(stats.map_tasks > slots, "more than one wave of map tasks");
        let waves = (stats.map_tasks.div_ceil(slots) + reducers.div_ceil(slots)) as u32;
        let expected = Duration::from_secs(1) + Duration::from_millis(250) * waves;
        assert_eq!(stats.modelled, expected);
        assert_eq!(mr.modelled(), expected);

        // A map-only job has no reduce wave, and the counter only grows.
        spec.num_reducers = 0;
        let map_only = mr.run_job(&spec, Arc::new(WordMapper), None).unwrap();
        let map_waves = stats.map_tasks.div_ceil(slots) as u32;
        assert_eq!(
            map_only.modelled,
            Duration::from_secs(1) + Duration::from_millis(250) * map_waves
        );
        assert_eq!(mr.modelled(), expected + map_only.modelled);
    }

    #[test]
    fn job_errors_and_counters() {
        let mr = cluster();
        let spec = JobSpec {
            name: "missing-input".into(),
            inputs: vec!["/does/not/exist".into()],
            output_dir: "/out/e".into(),
            num_reducers: 1,
            combiner: None,
        };
        assert!(mr
            .run_job(&spec, Arc::new(WordMapper), Some(Arc::new(SumReducer)))
            .is_err());
        // Reducers declared but missing.
        mr.hdfs().append_lines("/in/ok", &["x"]).unwrap();
        let spec2 = JobSpec {
            name: "no-reducer".into(),
            inputs: vec!["/in/ok".into()],
            output_dir: "/out/e2".into(),
            num_reducers: 1,
            combiner: None,
        };
        assert!(mr.run_job(&spec2, Arc::new(WordMapper), None).is_err());
        let (jobs, _, _) = mr.counters();
        assert_eq!(jobs, 1, "failed-validation job was never started");
    }

    #[test]
    fn partitioner_is_stable_and_bounded() {
        for n in 1..8 {
            for key in ["a", "b", "abcdef", ""] {
                let p = partition_of(key, n);
                assert!(p < n);
                assert_eq!(p, partition_of(key, n));
            }
        }
    }
}
