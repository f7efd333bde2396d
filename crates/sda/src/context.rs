//! The redesigned adapter request context.
//!
//! Every remote call used to carry a bare snapshot `cid: u64` — enough
//! to pick the visible version at transactional sources, but nothing
//! else. [`RemoteContext`] keeps that cid and adds what a federation
//! boundary actually needs: a **total deadline budget** for the call
//! (retries included), an optional per-call **retry policy override**,
//! and a **trace of attempts** so callers can observe what the
//! resilience machinery did on their behalf.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hana_types::{HanaError, Result};

use crate::retry::RetryPolicy;

/// One attempt at a remote operation, as recorded in the context trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 1-based attempt number within the logical call.
    pub attempt: u32,
    /// `None` on success; the error's display form otherwise.
    pub error: Option<String>,
    /// Backoff slept after this attempt (zero for the final attempt).
    pub backoff: Duration,
}

/// Per-call context threaded through `SdaAdapter::execute`,
/// `create_temp_table` and `SdaRegistry::execute_remote`.
pub struct RemoteContext {
    cid: u64,
    deadline: Option<Instant>,
    retry: Option<RetryPolicy>,
    trace: Mutex<Vec<AttemptRecord>>,
}

impl RemoteContext {
    /// A context carrying only the snapshot cid — the drop-in
    /// replacement for the old bare-`u64` call sites. No deadline, and
    /// the source's configured retry policy applies.
    pub fn snapshot(cid: u64) -> RemoteContext {
        RemoteContext {
            cid,
            deadline: None,
            retry: None,
            trace: Mutex::new(Vec::new()),
        }
    }

    /// The snapshot commit id the remote read runs under.
    pub fn cid(&self) -> u64 {
        self.cid
    }

    /// Copy of this context with a total deadline `budget` from now.
    /// Covers the *whole* logical call: every retry attempt and every
    /// backoff pause draws from the same budget.
    pub fn with_deadline(mut self, budget: Duration) -> RemoteContext {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Copy of this context with a per-call retry policy, overriding
    /// the source's configured default.
    pub fn with_retry(mut self, policy: RetryPolicy) -> RemoteContext {
        self.retry = Some(policy);
        self
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The per-call retry override, if one was set.
    pub fn retry(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    /// Time left in the budget (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        matches!(self.remaining(), Some(d) if d.is_zero())
    }

    /// Error out with a retryable `remote_timeout` if the budget is
    /// spent. Adapters call this at the top of each remote operation so
    /// a deadline cancels work cooperatively instead of hanging.
    pub fn check_deadline(&self, what: &str) -> Result<()> {
        if self.expired() {
            Err(HanaError::remote_timeout(format!(
                "deadline exceeded before {what}"
            )))
        } else {
            Ok(())
        }
    }

    /// Append one attempt to the trace (called by the retry driver).
    pub fn record_attempt(&self, attempt: u32, error: Option<&HanaError>, backoff: Duration) {
        self.trace.lock().push(AttemptRecord {
            attempt,
            error: error.map(|e| e.to_string()),
            backoff,
        });
    }

    /// Number of attempts recorded so far.
    pub fn attempts(&self) -> usize {
        self.trace.lock().len()
    }

    /// Snapshot of the attempt trace.
    pub fn trace(&self) -> Vec<AttemptRecord> {
        self.trace.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_cid_without_deadline() {
        let ctx = RemoteContext::snapshot(17);
        assert_eq!(ctx.cid(), 17);
        assert!(ctx.deadline().is_none());
        assert!(!ctx.expired());
        assert!(ctx.check_deadline("anything").is_ok());
        assert_eq!(ctx.attempts(), 0);
    }

    #[test]
    fn deadline_budget_expires() {
        let ctx = RemoteContext::snapshot(1).with_deadline(Duration::ZERO);
        assert!(ctx.expired());
        let err = ctx.check_deadline("hive query").unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(err.kind(), "remote_timeout");
        assert!(err.message().contains("hive query"));
    }

    #[test]
    fn trace_accumulates() {
        let ctx = RemoteContext::snapshot(1);
        ctx.record_attempt(
            1,
            Some(&HanaError::remote_unavailable("down")),
            Duration::from_millis(5),
        );
        ctx.record_attempt(2, None, Duration::ZERO);
        let trace = ctx.trace();
        assert_eq!(trace.len(), 2);
        assert!(trace[0].error.as_deref().unwrap().contains("down"));
        assert_eq!(trace[1].error, None);
    }
}
