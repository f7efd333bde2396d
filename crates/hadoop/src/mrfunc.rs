//! Registry of custom MapReduce programs ("jars").
//!
//! §4.3 of the paper: SAP HANA can "invoke custom map-reduce in Hadoop …
//! without the additional Hive layer", exposing an existing MR job as a
//! virtual table function. Real deployments register jar files and a
//! driver class through WebHCat; this simulator registers Rust
//! mapper/reducer implementations under a driver-class name, and the SDA
//! `hadoop` adapter resolves `hana.mapred.driver.class` against this
//! registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use hana_types::{HanaError, Result, ResultSet, Row, Schema, Value};

use crate::hdfs::Hdfs;
use crate::hive::{parse_field, read_records, FIELD_SEP};
use crate::mapreduce::{JobSpec, Mapper, MrCluster, Reducer};

/// A registered MR program.
pub struct MrFunction {
    /// HDFS input files or directories.
    pub inputs: Vec<String>,
    /// The map function.
    pub mapper: Arc<dyn Mapper>,
    /// The reduce function (None = map-only).
    pub reducer: Option<Arc<dyn Reducer>>,
    /// Reduce task count (`mapred.reducer.count`).
    pub num_reducers: usize,
    /// Schema of the output lines (^A-separated text: a program's output
    /// is read as a Hive text file is).
    pub output_schema: Schema,
}

/// Driver-class-name → MR program registry.
pub struct MrFunctionRegistry {
    cluster: Arc<MrCluster>,
    funcs: RwLock<HashMap<String, Arc<MrFunction>>>,
    run_counter: AtomicU64,
}

impl MrFunctionRegistry {
    /// A registry bound to `cluster`.
    pub fn new(cluster: Arc<MrCluster>) -> MrFunctionRegistry {
        MrFunctionRegistry {
            cluster,
            funcs: RwLock::new(HashMap::new()),
            run_counter: AtomicU64::new(0),
        }
    }

    /// Register a program under `driver_class`
    /// (e.g. `com.customer.hadoop.SensorMRDriver`).
    pub fn register(&self, driver_class: &str, func: MrFunction) {
        self.funcs
            .write()
            .insert(driver_class.to_string(), Arc::new(func));
    }

    /// Whether a driver class is registered.
    pub fn has(&self, driver_class: &str) -> bool {
        self.funcs.read().contains_key(driver_class)
    }

    /// Run the program and return its output as rows.
    pub fn invoke(&self, driver_class: &str) -> Result<ResultSet> {
        let func = self
            .funcs
            .read()
            .get(driver_class)
            .cloned()
            .ok_or_else(|| {
                // Permanent: a missing driver class never appears by
                // retrying.
                HanaError::remote(format!(
                    "no MR job registered for driver class '{driver_class}'"
                ))
            })?;
        // Expand directory inputs to files.
        let mut inputs = Vec::new();
        for i in &func.inputs {
            let files = self.cluster.hdfs().list(i);
            if files.is_empty() {
                inputs.push(i.clone());
            } else {
                inputs.extend(files);
            }
        }
        let out_dir = format!(
            "/tmp/mrfunc/{}-{}",
            driver_class.replace('.', "_"),
            self.run_counter.fetch_add(1, Ordering::Relaxed)
        );
        let spec = JobSpec {
            name: format!("virtual-function {driver_class}"),
            inputs,
            output_dir: out_dir.clone(),
            num_reducers: func.num_reducers,
        };
        self.cluster
            .run_job(&spec, Arc::clone(&func.mapper), func.reducer.clone())?;
        let files = self.cluster.hdfs().list(&out_dir);
        let schema = &func.output_schema;
        let rows = read_rows(self.cluster.hdfs(), &files, schema);
        self.cluster.hdfs().delete_dir(&out_dir);
        Ok(ResultSet::new(schema.clone(), rows?))
    }
}

/// Decode every line of `files` against `schema`, a row at a time.
fn read_rows(hdfs: &Hdfs, files: &[String], schema: &Schema) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for file in files {
        let text = hdfs.read_text(file)?;
        read_records(&text, schema.len(), |_, fields| {
            rows.push(decode_fields(fields, schema)?);
            Ok(())
        })?;
    }
    Ok(rows)
}

/// Decode the fields of an output line against `schema`.
fn decode_fields(fields: &[&str], schema: &Schema) -> Result<Row> {
    let decoded = fields.iter().zip(schema.columns());
    let decoded = decoded.map(|(f, c)| parse_field(f, c.data_type));
    decoded.collect::<Result<Vec<Value>>>().map(Row)
}

/// Helper for tests and examples: serialize values as an output line.
pub fn output_line(fields: &[String]) -> String {
    fields.join(&FIELD_SEP.to_string())
}
