//! Execution engine configuration.

use std::num::NonZeroUsize;

/// Default rows per morsel — sized so a morsel of 8-byte values fits in
/// L2 cache with room to spare, and a multiple of 64 so morsel
/// boundaries align with `RowIdBitmap` words.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Configuration of the execution engine, fixed when an
/// [`ExecContext`](crate::ExecContext) is built.
///
/// Defaults: `workers` = available hardware parallelism,
/// `morsel_rows` = [`DEFAULT_MORSEL_ROWS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of pool worker threads.
    pub workers: usize,
    /// Rows per morsel; rounded up to a multiple of 64 on use so that
    /// parallel scans write disjoint bitmap words.
    pub morsel_rows: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            workers: std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(4),
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

impl ExecConfig {
    /// Copy of this config with a specific worker count.
    pub fn with_workers(mut self, workers: usize) -> ExecConfig {
        self.workers = workers.max(1);
        self
    }

    /// Copy of this config with a specific morsel size.
    pub fn with_morsel_rows(mut self, rows: usize) -> ExecConfig {
        self.morsel_rows = rows.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive() {
        let cfg = ExecConfig::default();
        assert!(cfg.workers >= 1);
        assert_eq!(cfg.morsel_rows, DEFAULT_MORSEL_ROWS);
    }

    #[test]
    fn builders_clamp_to_one() {
        let cfg = ExecConfig::default().with_workers(0).with_morsel_rows(0);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.morsel_rows, 1);
    }
}
