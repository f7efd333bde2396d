//! The MapReduce engine.
//!
//! A faithful miniature of Hadoop 1.x execution: jobs are split into map
//! tasks (one per input block, each reading the lines that start in its
//! block), map output is hash-partitioned into `num_reducers` buckets,
//! sorted by key and reduced; reducers write `part-r-NNNNN` files into
//! the job's output directory. A mapper sees its whole split in one
//! call, so pre-aggregation (Hadoop's in-mapper combining) is the
//! mapper's own business, and it counts the records it reads. A task
//! knows which of the job's inputs it was scheduled for — Hadoop's
//! `MultipleInputs` — so one job can map the same file twice, as two
//! different inputs. Tasks run on a bounded worker pool (crossbeam
//! scoped threads).
//!
//! **What moves.** A map task emits `(key, value)` pairs into one
//! [`MapOutput`] buffer: no allocation per pair, and the engine looks at
//! neither half but to hash and compare keys as bytes. Text programs
//! emit text; Hive emits its fixed-width records (`record.rs`). Each
//! reducer receives its pairs sorted by (key, map task, emit order) — a
//! total order, so a job's output depends on its input alone, not on
//! which task finished first — and writes its lines into one
//! [`ReduceOutput`] buffer, copied once into its part file. A map-only
//! job drops keys as they are emitted and appends each task's buffer, in
//! task order, to `part-m-00000`: one copy, into HDFS blocks.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hana_types::{HanaError, Result};

use crate::hdfs::Hdfs;

/// What a map task emits: `(key, value)` pairs in emit order, held in
/// one buffer. A pair is its key, its value and a line break; in a
/// map-only job keys are dropped as they are emitted, so the buffer is
/// the task's output lines as they are written.
pub struct MapOutput {
    buf: String,
    /// Per pair, where its key and where its value start.
    pairs: Vec<(usize, usize)>,
    /// Whether keys are kept (the job reduces).
    keys: bool,
}

impl MapOutput {
    fn new(keys: bool) -> MapOutput {
        MapOutput {
            buf: String::new(),
            pairs: Vec::new(),
            keys,
        }
    }

    /// Emit one pair.
    pub fn emit(&mut self, key: impl AsRef<str>, value: impl AsRef<str>) {
        self.emit_with(|k| k.push_str(key.as_ref()), |v| v.push_str(value.as_ref()));
    }

    /// Emit one pair written in place: `key` and then `value` append
    /// their bytes to the buffer.
    pub fn emit_with(&mut self, key: impl FnOnce(&mut String), value: impl FnOnce(&mut String)) {
        let k = self.buf.len();
        key(&mut self.buf);
        if !self.keys {
            self.buf.truncate(k);
        }
        let v = self.buf.len();
        value(&mut self.buf);
        self.buf.push('\n');
        self.pairs.push((k, v));
    }

    /// Pairs emitted.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair was emitted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    fn key(&self, i: usize) -> &str {
        let (k, v) = self.pairs[i];
        &self.buf[k..v]
    }

    fn value(&self, i: usize) -> &str {
        let end = self.pairs.get(i + 1).map_or(self.buf.len(), |p| p.0);
        &self.buf[self.pairs[i].1..end - 1]
    }
}

/// What a reduce task writes into its part file: one line per record,
/// in one buffer.
#[derive(Default)]
pub struct ReduceOutput {
    text: String,
    records: u64,
}

impl ReduceOutput {
    /// Write one line.
    pub fn push(&mut self, line: impl AsRef<str>) {
        self.push_with(|text| text.push_str(line.as_ref()));
    }

    /// Write one line in place: `line` appends its bytes.
    pub fn push_with(&mut self, line: impl FnOnce(&mut String)) {
        line(&mut self.text);
        self.text.push('\n');
        self.records += 1;
    }
}

/// User map function, called once per input split.
///
/// A record-at-a-time closure `Fn(path, line, out)` is a `Mapper`
/// through the blanket impl below; implement the trait directly to keep
/// state across the records of a split, to read records of another
/// shape than a line, or to fail the job.
pub trait Mapper: Send + Sync {
    /// Map `split`, one input split of `JobSpec::inputs[input]` (file
    /// `path`), and return how many records it held. An error fails the
    /// job.
    fn map_split(&self, input: usize, path: &str, split: &str, out: &mut MapOutput) -> Result<u64>;
}

/// User reduce function: one key + all its values -> output lines.
pub trait Reducer: Send + Sync {
    /// Reduce one key group, whose values come in (map task, emit
    /// order). An error fails the job.
    fn reduce(&self, key: &str, values: &[&str], out: &mut ReduceOutput) -> Result<()>;
}

impl<F> Mapper for F
where
    F: Fn(&str, &str, &mut MapOutput) + Send + Sync,
{
    fn map_split(
        &self,
        _input: usize,
        path: &str,
        split: &str,
        out: &mut MapOutput,
    ) -> Result<u64> {
        let mut records = 0;
        for line in split.lines() {
            self(path, line, out);
            records += 1;
        }
        Ok(records)
    }
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
    /// HDFS input files. A file listed twice is two inputs, and each
    /// map task is told the index of the one it reads.
    pub inputs: Vec<String>,
    /// HDFS output directory (part files are written under it).
    pub output_dir: String,
    /// Number of reduce tasks. `0` makes the job map-only: map output
    /// values are written directly (keys discarded).
    pub num_reducers: usize,
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
    /// Records emitted by mappers.
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

/// One map task's output and, per reducer, the pairs bound for it.
struct Mapped {
    out: MapOutput,
    parts: Vec<Vec<u32>>,
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
        let mut tasks: Vec<(usize, &str, usize)> = Vec::new();
        for (input, path) in spec.inputs.iter().enumerate() {
            let nblocks = self.hdfs.block_count(path)?.max(1);
            tasks.extend((0..nblocks).map(|block| (input, path.as_str(), block)));
        }
        modelled += self.charge_phase(tasks.len());
        let input_records = AtomicU64::new(0);
        let nparts = spec.num_reducers.max(1);
        let reduces = spec.num_reducers > 0;
        // Per task, its output: reducers read them in task order.
        let mapped: Vec<Mutex<Option<Mapped>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
        let next_task = AtomicU64::new(0);
        let map_err: Mutex<Option<HanaError>> = Mutex::new(None);

        crossbeam::scope(|scope| {
            for _ in 0..self.config.worker_slots.max(1) {
                scope.spawn(|_| loop {
                    let idx = next_task.fetch_add(1, Ordering::Relaxed) as usize;
                    if idx >= tasks.len() || map_err.lock().is_some() {
                        return;
                    }
                    let (input, path, block) = tasks[idx];
                    // A task reads its own split and nothing else.
                    let mut out = MapOutput::new(reduces);
                    let mapped_split = self
                        .hdfs
                        .read_split(path, block)
                        .and_then(|split| mapper.map_split(input, path, &split, &mut out));
                    match mapped_split {
                        Ok(records) => input_records.fetch_add(records, Ordering::Relaxed),
                        Err(e) => {
                            *map_err.lock() = Some(e);
                            return;
                        }
                    };
                    // Partition by key hash.
                    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); nparts];
                    if reduces {
                        for i in 0..out.len() {
                            parts[partition_of(out.key(i), nparts)].push(i as u32);
                        }
                    }
                    *mapped[idx].lock() = Some(Mapped { out, parts });
                });
            }
        })
        .map_err(|_| HanaError::Execution("map phase panicked".into()))?;
        if let Some(e) = map_err.lock().take() {
            return Err(e);
        }
        let mapped: Vec<Mapped> = mapped
            .into_iter()
            .map(|m| m.into_inner().expect("every task ran"))
            .collect();
        let map_output_records = mapped.iter().map(|m| m.out.len() as u64).sum();
        self.total_map_tasks
            .fetch_add(tasks.len() as u64, Ordering::Relaxed);

        // ---- reduce phase (or direct write when map-only) ----
        let output_records = AtomicU64::new(0);
        if !reduces {
            let part = format!("{}/part-m-00000", spec.output_dir);
            self.hdfs.append(&part, b"")?;
            for m in &mapped {
                self.hdfs.append(&part, m.out.buf.as_bytes())?;
            }
            output_records.store(map_output_records, Ordering::Relaxed);
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
                        let mut out = ReduceOutput::default();
                        let written =
                            reduce_partition(&mapped, p, &*reducer, &mut out).and_then(|()| {
                                output_records.fetch_add(out.records, Ordering::Relaxed);
                                let part = format!("{}/part-r-{p:05}", spec.output_dir);
                                self.hdfs.append(&part, out.text.as_bytes())
                            });
                        if let Err(e) = written {
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
            map_output_records,
            output_records: output_records.into_inner(),
            elapsed: start.elapsed(),
            modelled,
        })
    }

    /// Read a job's output directory as lines (all part files, in order).
    pub fn read_output(&self, output_dir: &str) -> Result<Vec<String>> {
        let mut lines = Vec::new();
        for part in self.hdfs.list(output_dir) {
            lines.extend(self.hdfs.read_text(&part)?.lines().map(str::to_string));
        }
        Ok(lines)
    }
}

/// Reduce partition `p` of the map outputs into `out`: its pairs sorted
/// by (key, map task, emit order), each run of one key one call.
fn reduce_partition(
    mapped: &[Mapped],
    p: usize,
    reducer: &dyn Reducer,
    out: &mut ReduceOutput,
) -> Result<()> {
    // (first eight key bytes, task, pair): most comparisons end at the
    // prefix, and the rest are a total order.
    let mut refs: Vec<(u64, u32, u32)> = Vec::new();
    for (t, m) in mapped.iter().enumerate() {
        let pairs = m.parts[p].iter();
        refs.extend(pairs.map(|&i| (prefix(m.out.key(i as usize)), t as u32, i)));
    }
    let key = |&(_, t, i): &(u64, u32, u32)| mapped[t as usize].out.key(i as usize);
    refs.sort_unstable_by(|a, b| {
        (a.0.cmp(&b.0))
            .then_with(|| key(a).cmp(key(b)))
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });
    let mut values: Vec<&str> = Vec::new();
    let mut run = refs.iter().peekable();
    while let Some(first) = run.next() {
        let k = key(first);
        values.clear();
        values.push(mapped[first.1 as usize].out.value(first.2 as usize));
        while let Some(next) = run.next_if(|r| r.0 == first.0 && key(r) == k) {
            values.push(mapped[next.1 as usize].out.value(next.2 as usize));
        }
        reducer.reduce(k, &values, out)?;
    }
    Ok(())
}

/// The first eight bytes of `key`, big-endian and zero-padded: ordered
/// as the keys are, where they differ.
fn prefix(key: &str) -> u64 {
    let mut b = [0u8; 8];
    let n = key.len().min(8);
    b[..n].copy_from_slice(&key.as_bytes()[..n]);
    u64::from_be_bytes(b)
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// Counts words over its whole split and emits one pair per
    /// distinct word: pre-aggregation inside the map task.
    struct WordMapper;
    impl Mapper for WordMapper {
        fn map_split(&self, _: usize, _: &str, split: &str, out: &mut MapOutput) -> Result<u64> {
            let mut counts: BTreeMap<String, i64> = BTreeMap::new();
            let mut records = 0;
            for line in split.lines() {
                records += 1;
                for w in line.split_whitespace() {
                    *counts.entry(w.to_lowercase()).or_default() += 1;
                }
            }
            for (w, n) in counts {
                out.emit(w, n.to_string());
            }
            Ok(records)
        }
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        fn reduce(&self, key: &str, values: &[&str], out: &mut ReduceOutput) -> Result<()> {
            let n: i64 = values.iter().map(|v| v.parse::<i64>().unwrap_or(0)).sum();
            out.push(format!("{key}\t{n}"));
            Ok(())
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
        };
        let stats = mr
            .run_job(&spec, Arc::new(WordMapper), Some(Arc::new(SumReducer)))
            .unwrap();
        assert_eq!(stats.input_records, 3);
        assert_eq!(stats.map_tasks, 1, "52 bytes fit one 64-byte block");
        assert_eq!(
            stats.map_output_records, 9,
            "\"the\" left the map task once, already counted"
        );
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
        let mapper = |_k: &str, line: &str, out: &mut MapOutput| {
            if line.starts_with("keep") {
                out.emit("the key is dropped", line.to_uppercase());
            }
        };
        let spec = JobSpec {
            name: "filter".into(),
            inputs: vec!["/in/x".into()],
            output_dir: "/out/f".into(),
            num_reducers: 0,
        };
        let stats = mr.run_job(&spec, Arc::new(mapper), None).unwrap();
        assert_eq!(stats.output_records, 2);
        let out = mr.read_output("/out/f").unwrap();
        assert_eq!(out, ["KEEP 1", "KEEP 3"]);
    }

    #[test]
    fn a_file_listed_twice_is_two_inputs() {
        struct TagByInput;
        impl Mapper for TagByInput {
            fn map_split(
                &self,
                input: usize,
                _: &str,
                split: &str,
                out: &mut MapOutput,
            ) -> Result<u64> {
                let mut records = 0;
                for line in split.lines() {
                    out.emit("", format!("{input}:{line}"));
                    records += 1;
                }
                Ok(records)
            }
        }
        let mr = cluster();
        mr.hdfs().append_lines("/in/t", &["a", "b"]).unwrap();
        let spec = JobSpec {
            name: "tag".into(),
            inputs: vec!["/in/t".into(), "/in/t".into()],
            output_dir: "/out/t".into(),
            num_reducers: 0,
        };
        let stats = mr.run_job(&spec, Arc::new(TagByInput), None).unwrap();
        assert_eq!(stats.input_records, 4);
        let out = mr.read_output("/out/t").unwrap();
        assert_eq!(out, ["0:a", "0:b", "1:a", "1:b"], "in task order");
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
    fn a_reducer_sees_its_values_in_map_task_and_emit_order() {
        // Emits every line twice under one of three keys, tagged with
        // the line and the copy.
        let mapper = |_k: &str, line: &str, out: &mut MapOutput| {
            let n: usize = line[4..].parse().unwrap();
            for copy in ["a", "b"] {
                out.emit(format!("key{}", n % 3), format!("{n}{copy}"));
            }
        };
        struct Concat;
        impl Reducer for Concat {
            fn reduce(&self, key: &str, values: &[&str], out: &mut ReduceOutput) -> Result<()> {
                out.push(format!("{key}:{}", values.join(",")));
                Ok(())
            }
        }
        // 64-byte blocks of 8-byte lines: more than 40 splits, 8 lines
        // each, so the tasks that finish first differ from run to run.
        let mr = cluster();
        let lines: Vec<String> = (0..400).map(|i| format!("line{i:03}")).collect();
        mr.hdfs().append_lines("/in/n", &lines).unwrap();
        let spec = JobSpec {
            name: "order".into(),
            inputs: vec!["/in/n".into()],
            output_dir: "/out/o".into(),
            num_reducers: 2,
        };
        let read = |mr: &MrCluster| -> Vec<Vec<u8>> {
            let parts = mr.hdfs().list("/out/o");
            parts.iter().map(|p| mr.hdfs().read(p).unwrap()).collect()
        };
        let stats = mr
            .run_job(&spec, Arc::new(mapper), Some(Arc::new(Concat)))
            .unwrap();
        assert!(stats.map_tasks > 40, "{} map tasks", stats.map_tasks);
        let first = read(&mr);
        let mut out = mr.read_output("/out/o").unwrap();
        out.sort();
        for (g, line) in out.iter().enumerate() {
            // Lines in file order are map tasks in order, and a task
            // emits its lines in order: the values of one key ascend.
            let want: Vec<String> = (0..400)
                .filter(|n| n % 3 == g)
                .flat_map(|n| [format!("{n}a"), format!("{n}b")])
                .collect();
            assert_eq!(*line, format!("key{g}:{}", want.join(",")));
        }
        for _ in 0..20 {
            mr.run_job(&spec, Arc::new(mapper), Some(Arc::new(Concat)))
                .unwrap();
            assert_eq!(read(&mr), first, "part files are byte-identical");
        }
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
        };
        assert!(mr.run_job(&spec2, Arc::new(WordMapper), None).is_err());
        let (jobs, _, _) = mr.counters();
        assert_eq!(jobs, 1, "failed-validation job was never started");
    }

    #[test]
    fn a_mapper_error_fails_the_job() {
        struct Picky;
        impl Mapper for Picky {
            fn map_split(&self, _: usize, _: &str, split: &str, _: &mut MapOutput) -> Result<u64> {
                let lines: Vec<&str> = split.lines().collect();
                match lines.iter().find(|l| l.contains("bad")) {
                    Some(l) => Err(HanaError::Execution(format!("cannot map '{l}'"))),
                    None => Ok(lines.len() as u64),
                }
            }
        }
        let mr = cluster();
        let lines: Vec<String> = (0..40).map(|i| format!("record {i} of forty")).collect();
        mr.hdfs().append_lines("/in/ok", &lines).unwrap();
        mr.hdfs().append_lines("/in/x", &lines).unwrap();
        mr.hdfs().append_lines("/in/x", &["a bad record"]).unwrap();
        let spec = |input: &str| JobSpec {
            name: "picky".into(),
            inputs: vec![input.into()],
            output_dir: "/out/p".into(),
            num_reducers: 0,
        };
        assert!(mr.run_job(&spec("/in/ok"), Arc::new(Picky), None).is_ok());
        let err = mr
            .run_job(&spec("/in/x"), Arc::new(Picky), None)
            .unwrap_err();
        assert!(
            err.to_string().contains("cannot map 'a bad record'"),
            "{err}"
        );
    }

    #[test]
    fn a_reducer_error_fails_the_job() {
        /// Sums like `SumReducer`, but a key spelled "bad" is an error.
        struct PickySum;
        impl Reducer for PickySum {
            fn reduce(&self, key: &str, values: &[&str], out: &mut ReduceOutput) -> Result<()> {
                match key {
                    "bad" => Err(HanaError::Execution(format!("cannot reduce '{key}'"))),
                    _ => SumReducer.reduce(key, values, out),
                }
            }
        }
        let mr = cluster();
        mr.hdfs()
            .append_lines("/in/ok", &["good words", "more good words"])
            .unwrap();
        mr.hdfs()
            .append_lines("/in/x", &["good words", "one bad word"])
            .unwrap();
        let spec = |input: &str| JobSpec {
            name: "picky-sum".into(),
            inputs: vec![input.into()],
            output_dir: "/out/r".into(),
            num_reducers: 2,
        };
        let reduce = || Some(Arc::new(PickySum) as Arc<dyn Reducer>);
        let stats = mr.run_job(&spec("/in/ok"), Arc::new(WordMapper), reduce());
        assert_eq!(stats.unwrap().output_records, 3);
        let err = mr
            .run_job(&spec("/in/x"), Arc::new(WordMapper), reduce())
            .unwrap_err();
        assert_eq!(err.message(), "cannot reduce 'bad'", "{err}");
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

    #[test]
    fn key_prefixes_order_as_keys_do() {
        let keys = [
            "",
            "a",
            "a\0",
            "a\0\u{1}",
            "ab",
            "abcdefgh",
            "abcdefghi",
            "b",
        ];
        for a in keys {
            for b in keys {
                let (pa, pb) = (prefix(a), prefix(b));
                if pa != pb {
                    assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} {b:?}");
                }
            }
        }
    }
}
