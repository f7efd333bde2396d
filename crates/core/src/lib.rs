//! # hana-core
//!
//! The platform facade — "a single point of entry for the application as
//! well as … a single point of control with respect to central
//! administration" (§2): SQL execution over every storage kind (column,
//! row, extended, hybrid, virtual), distributed transactions across the
//! in-memory store and the extended storage, the built-in aging
//! mechanism for hybrid tables, ESP wiring (sinks, reference pushes,
//! window exposure), the artifact repository with delivery-unit
//! transport, single credential control, coordinated backup/restore and
//! WAL-based point-in-time recovery.
//!
//! ```
//! use hana_core::HanaPlatform;
//!
//! let hana = HanaPlatform::new_in_memory();
//! let session = hana.connect("SYSTEM", "manager").unwrap();
//! hana.execute_sql(&session, "CREATE COLUMN TABLE t (a INTEGER)").unwrap();
//! hana.execute_sql(&session, "INSERT INTO t VALUES (1), (2)").unwrap();
//! let rs = hana.execute_sql(&session, "SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(rs.scalar().unwrap().as_i64(), Some(2));
//! ```

mod catalog;
mod ddl;
mod durability;
mod ingest;
mod platform;
mod redo;
mod repository;
mod security;
mod writes;

pub use catalog::{PlatformCatalog, StatsEntry, TableEntry, TableKindInfo};
pub use durability::Backup;
pub use ingest::{IngestCommit, IngestDriver};
pub use platform::{HanaPlatform, INTERNAL_IQ_SOURCE};
pub use repository::{Artifact, ArtifactKind, DeliveryUnit, Repository};
pub use security::{Privilege, SecurityManager, Session};
