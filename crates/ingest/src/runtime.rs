//! The runtime that owns ingest pipelines and backs the `CREATE
//! STREAM SINK` / `DROP STREAM SINK` SQL statements.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use hana_core::{HanaPlatform, IngestDriver, Session};
use hana_esp::{Sink, SinkId, TableWriter};
use hana_types::{HanaError, Result, Row, Schema};

use crate::{IngestConfig, IngestPipeline, IngestStats};

struct Registered {
    pipeline: Arc<IngestPipeline>,
    /// ESP target the sink is attached to (lowercased).
    source: String,
    sink_id: SinkId,
}

/// Owns the pipelines of one platform and implements
/// [`IngestDriver`] so SQL can manage them.
///
/// Pipelines commit under the session that installed the runtime (a
/// service identity): the worker threads outlive the statement that
/// created a sink, so per-statement sessions would be the wrong
/// lifetime. `CREATE STREAM SINK` itself is still privilege-checked
/// against the issuing session by the platform.
pub struct IngestRuntime {
    platform: Weak<HanaPlatform>,
    session: Session,
    config: IngestConfig,
    pipelines: Mutex<HashMap<String, Registered>>,
}

impl IngestRuntime {
    /// Build a runtime with [`IngestConfig::default`] and register it
    /// as the platform's ingest driver.
    pub fn install(platform: &Arc<HanaPlatform>, session: &Session) -> Arc<IngestRuntime> {
        IngestRuntime::install_with(platform, session, IngestConfig::default())
    }

    /// [`IngestRuntime::install`] with an explicit configuration.
    pub fn install_with(
        platform: &Arc<HanaPlatform>,
        session: &Session,
        config: IngestConfig,
    ) -> Arc<IngestRuntime> {
        let rt = Arc::new(IngestRuntime {
            platform: Arc::downgrade(platform),
            session: session.clone(),
            config,
            pipelines: Mutex::new(HashMap::new()),
        });
        platform.register_ingest_driver(Arc::clone(&rt) as Arc<dyn IngestDriver>);
        rt
    }

    fn platform(&self) -> Result<Arc<HanaPlatform>> {
        self.platform
            .upgrade()
            .ok_or_else(|| HanaError::Stream("platform shut down".into()))
    }

    /// Start a pipeline named `name` that subscribes to ESP target
    /// `source` (a stream, window, or CCL output stream) and delivers
    /// into `table`. Epoch numbering resumes from the platform ledger.
    pub fn attach(&self, name: &str, source: &str, table: &str) -> Result<Arc<IngestPipeline>> {
        let platform = self.platform()?;
        let key = name.to_ascii_lowercase();
        let source_key = source.to_ascii_lowercase();
        // Fail before spawning anything if either end is missing.
        platform.catalog().table(table)?;
        platform.esp().target_kind(&source_key)?;

        let mut pipelines = self.pipelines.lock();
        if pipelines.contains_key(&key) {
            return Err(HanaError::Stream(format!(
                "stream sink '{key}' already exists"
            )));
        }
        let pipeline =
            IngestPipeline::start(&platform, &self.session, self.config.clone(), &key, table)?;
        let weak = Arc::downgrade(&pipeline);
        let writer: TableWriter =
            Arc::new(
                move |_table: &str, _schema: &Schema, rows: &[Row]| match weak.upgrade() {
                    Some(p) => p.submit(rows),
                    None => Err(HanaError::Stream("ingest pipeline detached".into())),
                },
            );
        let sink_id = match platform.esp().attach_sink(
            &source_key,
            Sink::Table {
                table: table.to_string(),
                writer,
            },
        ) {
            Ok(id) => id,
            Err(e) => {
                let _ = pipeline.close();
                return Err(e);
            }
        };
        pipelines.insert(
            key,
            Registered {
                pipeline: Arc::clone(&pipeline),
                source: source_key,
                sink_id,
            },
        );
        Ok(pipeline)
    }

    /// Detach the ESP sink, drain and stop the pipeline, and return its
    /// final counters. `Err` if no such sink, or if the pipeline had
    /// already failed.
    pub fn detach(&self, name: &str) -> Result<IngestStats> {
        let key = name.to_ascii_lowercase();
        let Some(entry) = self.pipelines.lock().remove(&key) else {
            return Err(HanaError::Stream(format!("unknown stream sink '{key}'")));
        };
        if let Some(platform) = self.platform.upgrade() {
            platform.esp().detach_sink(&entry.source, entry.sink_id);
        }
        entry.pipeline.close()
    }

    /// Look up a running pipeline by sink name.
    pub fn pipeline(&self, name: &str) -> Option<Arc<IngestPipeline>> {
        self.pipelines
            .lock()
            .get(&name.to_ascii_lowercase())
            .map(|e| Arc::clone(&e.pipeline))
    }

    /// Names of the running pipelines, sorted.
    pub fn pipeline_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.pipelines.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

impl IngestDriver for IngestRuntime {
    fn create_sink(&self, _session: &Session, name: &str, source: &str, table: &str) -> Result<()> {
        self.attach(name, source, table).map(|_| ())
    }

    fn drop_sink(&self, name: &str) -> Result<bool> {
        match self.detach(name) {
            Ok(_) => Ok(true),
            Err(HanaError::Stream(msg)) if msg.starts_with("unknown stream sink") => Ok(false),
            Err(e) => Err(e),
        }
    }
}
