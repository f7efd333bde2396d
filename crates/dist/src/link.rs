//! Inter-node links: bounded, accounted, fault-injectable transfers.
//!
//! Everything runs in one process, but every exchange still crosses a
//! [`Link`] that models the network hop between the coordinator and a
//! node: payloads move in bounded chunks (the "bounded channel" of a
//! real shuffle), every delivered chunk is accounted in rows and bytes,
//! and a seeded [`FaultPlan`] can make individual chunk sends fail with
//! the `hana-sda` error taxonomy (`remote_timeout` / `remote_unavailable`
//! are retryable, `remote` is permanent) so the PR 2 retry/deadline
//! machinery drives shuffles too.
//!
//! A faulted send fails **before** delivery: a chunk is either delivered
//! exactly once or not at all, so retries can never duplicate rows and a
//! failed exchange never surfaces a partial result.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use hana_sda::{run_with_retry, RemoteContext, RetryPolicy};
use hana_types::{HanaError, Result};

use crate::{splitmix64, unit_f64};

/// Rows per chunk when the caller does not override it — the bound of
/// the modeled channel.
pub const DEFAULT_CHUNK_ROWS: usize = 8_192;

/// A deterministic fault schedule for one link (the shuffle-level
/// counterpart of `hana_sda::ChaosConfig`). The `n`-th send attempt on
/// the link fails iff the seeded draw for `n` lands under
/// `failure_rate`; a second draw splits failures between `remote_timeout`
/// and `remote_unavailable` (both retryable), and `permanent_rate`
/// carves out non-retryable `remote` errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability that a chunk send attempt fails.
    pub failure_rate: f64,
    /// Share of failures surfacing as `remote_timeout` (the rest are
    /// `remote_unavailable`).
    pub timeout_share: f64,
    /// Share of failures that are permanent (`remote`, not retryable);
    /// applied before the timeout split.
    pub permanent_share: f64,
    /// Added latency per send attempt in microseconds — models a slow
    /// (but correct) node. `0` = no slowdown.
    pub slow_us: u64,
}

impl FaultPlan {
    /// A plan that fails `failure_rate` of sends, all retryable.
    pub fn flaky(seed: u64, failure_rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            failure_rate: failure_rate.clamp(0.0, 1.0),
            timeout_share: 0.5,
            permanent_share: 0.0,
            slow_us: 0,
        }
    }

    /// A plan that never fails but delays every send attempt by
    /// `slow_us` microseconds (a slow partition node).
    pub fn slow(slow_us: u64) -> FaultPlan {
        FaultPlan {
            seed: 0,
            failure_rate: 0.0,
            timeout_share: 0.0,
            permanent_share: 0.0,
            slow_us,
        }
    }

    /// Copy of this plan with a specific timeout share.
    pub fn with_timeout_share(mut self, share: f64) -> FaultPlan {
        self.timeout_share = share.clamp(0.0, 1.0);
        self
    }

    /// Copy of this plan with a specific permanent-failure share.
    pub fn with_permanent_share(mut self, share: f64) -> FaultPlan {
        self.permanent_share = share.clamp(0.0, 1.0);
        self
    }

    /// The verdict for send number `n` (0-based): `None` = deliver.
    fn verdict(&self, n: u64, what: &str) -> Option<HanaError> {
        if unit_f64(splitmix64(self.seed ^ n.wrapping_mul(0x9E37))) >= self.failure_rate {
            return None;
        }
        if unit_f64(splitmix64(self.seed ^ n ^ 0x0000_D157)) < self.permanent_share {
            return Some(HanaError::remote(format!("link fault injected in {what}")));
        }
        if unit_f64(splitmix64(self.seed ^ n ^ 0x0007_1530)) < self.timeout_share {
            Some(HanaError::remote_timeout(format!(
                "link timeout injected in {what}"
            )))
        } else {
            Some(HanaError::remote_unavailable(format!(
                "link unavailable injected in {what}"
            )))
        }
    }
}

/// Monotonic per-link transfer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Payload items delivered (rows, or partial-aggregate groups).
    pub rows: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Chunks delivered.
    pub chunks: u64,
    /// Send attempts that a fault plan failed.
    pub faults: u64,
    /// Retried attempts (attempts beyond the first per chunk).
    pub retries: u64,
}

/// One directed link of the landscape (coordinator ↔ node `to`).
pub struct Link {
    from: usize,
    to: usize,
    chunk_rows: usize,
    rows: AtomicU64,
    bytes: AtomicU64,
    chunks: AtomicU64,
    faults: AtomicU64,
    retries: AtomicU64,
    sends: AtomicU64,
    fault: Mutex<Option<FaultPlan>>,
}

impl Link {
    /// A healthy link from endpoint `from` to endpoint `to` with the
    /// default channel bound.
    pub fn new(from: usize, to: usize) -> Link {
        Link {
            from,
            to,
            chunk_rows: DEFAULT_CHUNK_ROWS,
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            sends: AtomicU64::new(0),
            fault: Mutex::new(None),
        }
    }

    /// Copy of this link with a specific chunk bound (rows per send).
    pub fn with_chunk_rows(mut self, rows: usize) -> Link {
        self.chunk_rows = rows.max(1);
        self
    }

    /// Source endpoint id (the coordinator is `usize::MAX`).
    pub fn from(&self) -> usize {
        self.from
    }

    /// Destination endpoint id.
    pub fn to(&self) -> usize {
        self.to
    }

    /// Install (or clear) a fault plan. Applies to subsequent sends.
    pub fn set_fault(&self, plan: Option<FaultPlan>) {
        *self.fault.lock() = plan;
    }

    /// Current transfer counters.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            rows: self.rows.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    /// Ship `items` across the link in bounded chunks under `ctx`'s
    /// deadline and `policy`'s retry budget, returning the delivered
    /// payload. `bytes_of` prices one item for the byte accounting.
    ///
    /// All-or-nothing: an error (budget exhausted, deadline expired, or
    /// a permanent fault) delivers **none** of the payload to the
    /// caller; already-delivered chunks are discarded, never surfaced.
    pub fn transfer<T: Clone>(
        &self,
        ctx: &RemoteContext,
        policy: &RetryPolicy,
        what: &str,
        items: Vec<T>,
        bytes_of: impl Fn(&T) -> u64,
    ) -> Result<Vec<T>> {
        let mut delivered: Vec<T> = Vec::with_capacity(items.len());
        if items.is_empty() {
            // An empty exchange still performs one (fault-checked)
            // handshake so deadlines and chaos apply uniformly.
            self.send_chunk(ctx, policy, what, 0)?;
            return Ok(delivered);
        }
        for chunk in items.chunks(self.chunk_rows) {
            let bytes: u64 = chunk.iter().map(&bytes_of).sum();
            self.send_chunk(ctx, policy, what, bytes)?;
            self.rows.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            self.bytes.fetch_add(bytes, Ordering::Relaxed);
            delivered.extend_from_slice(chunk);
        }
        Ok(delivered)
    }

    /// One chunk handshake: deadline check, fault verdict, retries.
    fn send_chunk(
        &self,
        ctx: &RemoteContext,
        policy: &RetryPolicy,
        what: &str,
        _bytes: u64,
    ) -> Result<()> {
        let mut first_attempt = true;
        run_with_retry(policy, ctx, what, |_attempt| {
            if !first_attempt {
                self.retries.fetch_add(1, Ordering::Relaxed);
                hana_obs::registry()
                    .counter("hana_dist_link_retries_total")
                    .inc();
            }
            first_attempt = false;
            let n = self.sends.fetch_add(1, Ordering::Relaxed);
            let installed = *self.fault.lock();
            if let Some(plan) = installed {
                if plan.slow_us > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(plan.slow_us));
                }
                if let Some(err) = plan.verdict(n, what) {
                    self.faults.fetch_add(1, Ordering::Relaxed);
                    hana_obs::registry()
                        .counter("hana_dist_link_faults_total")
                        .inc();
                    return Err(err);
                }
            }
            self.chunks.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rows(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    #[test]
    fn healthy_link_delivers_everything_chunked() {
        let link = Link::new(usize::MAX, 0).with_chunk_rows(10);
        let ctx = RemoteContext::snapshot(1);
        let out = link
            .transfer(&ctx, &RetryPolicy::none(), "t", rows(35), |_| 8)
            .unwrap();
        assert_eq!(out, rows(35));
        let s = link.stats();
        assert_eq!(s.rows, 35);
        assert_eq!(s.bytes, 35 * 8);
        assert_eq!(s.chunks, 4, "35 rows in 10-row chunks");
        assert_eq!(s.faults, 0);
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let plan = FaultPlan::flaky(42, 0.5);
        let a: Vec<bool> = (0..64).map(|n| plan.verdict(n, "x").is_some()).collect();
        let b: Vec<bool> = (0..64).map(|n| plan.verdict(n, "x").is_some()).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f), "some sends fail at 50%");
        assert!(!a.iter().all(|&f| f), "some sends succeed at 50%");
    }

    #[test]
    fn flaky_link_recovers_within_retry_budget() {
        let link = Link::new(usize::MAX, 1).with_chunk_rows(5);
        link.set_fault(Some(FaultPlan::flaky(7, 0.4)));
        let ctx = RemoteContext::snapshot(1);
        let policy = RetryPolicy::default()
            .with_max_attempts(10)
            .with_base_backoff(Duration::from_micros(10));
        let out = link
            .transfer(&ctx, &policy, "shuffle", rows(40), |_| 8)
            .unwrap();
        assert_eq!(out, rows(40), "no loss, no duplication");
        let s = link.stats();
        assert_eq!(s.rows, 40);
        assert!(s.faults > 0, "the plan did inject faults");
        assert!(s.retries >= s.faults, "every fault was retried");
    }

    #[test]
    fn exhausted_budget_surfaces_retryable_error_and_no_rows() {
        let link = Link::new(usize::MAX, 2);
        link.set_fault(Some(FaultPlan::flaky(3, 1.0)));
        let ctx = RemoteContext::snapshot(1);
        let policy = RetryPolicy::default()
            .with_max_attempts(3)
            .with_base_backoff(Duration::from_micros(1));
        let err = link
            .transfer(&ctx, &policy, "shuffle", rows(10), |_| 8)
            .unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(link.stats().rows, 0, "nothing delivered");
    }

    #[test]
    fn deadline_yields_remote_timeout() {
        let link = Link::new(usize::MAX, 3);
        link.set_fault(Some(FaultPlan::flaky(9, 1.0)));
        let ctx = RemoteContext::snapshot(1).with_deadline(Duration::ZERO);
        let err = link
            .transfer(&ctx, &RetryPolicy::default(), "shuffle", rows(4), |_| 8)
            .unwrap_err();
        assert_eq!(err.kind(), "remote_timeout");
    }

    #[test]
    fn permanent_fault_fails_fast() {
        let link = Link::new(usize::MAX, 4);
        link.set_fault(Some(FaultPlan::flaky(5, 1.0).with_permanent_share(1.0)));
        let ctx = RemoteContext::snapshot(1);
        let err = link
            .transfer(
                &ctx,
                &RetryPolicy::default().with_max_attempts(5),
                "shuffle",
                rows(4),
                |_| 8,
            )
            .unwrap_err();
        assert!(!err.is_retryable());
        assert_eq!(link.stats().retries, 0, "permanent errors do not retry");
    }
}
