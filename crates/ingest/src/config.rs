//! Pipeline configuration, fixed when the runtime is installed.

use std::time::Duration;

use hana_sda::RetryPolicy;

/// Default rows per micro-batch.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Default bound on buffered batches: the
/// pipeline holds at most `batch_rows × max_inflight` rows; a full
/// buffer blocks [`IngestPipeline::submit`](crate::IngestPipeline::submit)
/// — and through the ESP sink, `EspEngine::send` — until the worker
/// drains it.
pub const DEFAULT_MAX_INFLIGHT: usize = 4;

/// Tuning of one [`IngestPipeline`](crate::IngestPipeline).
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Rows the worker commits per epoch (a partial batch commits when
    /// the queue runs dry or on flush).
    pub batch_rows: usize,
    /// Buffered-batch bound; see [`DEFAULT_MAX_INFLIGHT`].
    pub max_inflight: usize,
    /// Backoff schedule between *batch-level* commit retries. Chunk
    /// transfers inside the repartition exchange retry on their own;
    /// this policy paces the outer loop when a whole epoch commit
    /// fails with a retryable error (e.g. a partition node down).
    /// `max_attempts` is not a bound here — retryable epoch failures
    /// retry until the fault heals; the ledger makes that safe.
    pub retry: RetryPolicy,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            batch_rows: DEFAULT_BATCH_ROWS,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            retry: RetryPolicy::default()
                .with_base_backoff(Duration::from_millis(5))
                .with_max_backoff(Duration::from_millis(250)),
        }
    }
}

impl IngestConfig {
    /// Copy with a specific batch size.
    pub fn with_batch_rows(mut self, rows: usize) -> IngestConfig {
        self.batch_rows = rows.max(1);
        self
    }

    /// Copy with a specific in-flight bound.
    pub fn with_max_inflight(mut self, batches: usize) -> IngestConfig {
        self.max_inflight = batches.max(1);
        self
    }

    /// Copy with a specific batch-retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> IngestConfig {
        self.retry = retry;
        self
    }

    /// Row capacity of the pipeline buffer.
    pub(crate) fn capacity_rows(&self) -> usize {
        self.batch_rows.max(1) * self.max_inflight.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_batch_times_inflight() {
        let cfg = IngestConfig::default()
            .with_batch_rows(8)
            .with_max_inflight(3);
        assert_eq!(cfg.capacity_rows(), 24);
    }
}
