//! # hana-hadoop
//!
//! The simulated Hadoop stack the platform federates with (§4 of the
//! paper): a block-based, replicated **HDFS** whose files are read one
//! input split at a time, a multi-threaded **MapReduce** engine with
//! modelled job/task startup costs and split-scoped mappers that know
//! which job input they read, a **Hive** layer (MetaStore with
//! statistics, a HiveQL→MR-DAG compiler that runs each table scan —
//! pushed predicate, column cut — inside the map phase of the join or
//! group-by job that reads it and aggregates map-side, a one-pass
//! record reader for its text files that slices only the fields a
//! reader reads, a decoder into typed columns, fetch-task fast path,
//! two-phase CTAS), and a registry of custom MR programs that back
//! `CREATE VIRTUAL FUNCTION`.
//!
//! ```
//! use std::sync::Arc;
//! use hana_hadoop::{Hdfs, Hive, MrCluster, MrConfig};
//! use hana_types::{Schema, DataType, Row, Value};
//!
//! let hdfs = Arc::new(Hdfs::new(4));
//! let mr = Arc::new(MrCluster::new(hdfs, MrConfig::default()));
//! let hive = Hive::new(mr);
//! hive.create_table("product", Schema::of(&[
//!     ("product_name", DataType::Varchar),
//!     ("brand_name", DataType::Varchar),
//! ])).unwrap();
//! hive.load("product", &[Row::from_values([
//!     Value::from("Widget"), Value::from("Acme"),
//! ])]).unwrap();
//! let rs = hive.execute("SELECT product_name, brand_name FROM product").unwrap();
//! assert_eq!(rs.len(), 1);
//! ```

mod hdfs;
mod hive;
mod mapreduce;
mod mrfunc;

pub use hdfs::{Hdfs, DEFAULT_BLOCK_SIZE};
pub use hive::{read_fields, read_records, CtasStats, Hive, HiveTable, TableStats, FIELD_SEP};
pub use mapreduce::{partition_of, JobSpec, JobStats, Mapper, MrCluster, MrConfig, Reducer, KV};
pub use mrfunc::{output_line, MrFunction, MrFunctionRegistry};
