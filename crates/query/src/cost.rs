//! The federated cost model.
//!
//! §3.1: "The query optimizer considers communication costs for the data
//! access to the extended storage" and §4.2: "the plan generator attempts
//! to minimize both the amount of transferred data and the response time
//! of the query". Costs are unit-less; only their ratios matter for
//! strategy choice, so the unit costs are constants.

use hana_sda::CapabilitySet;

use crate::plan::FederationStrategy;

/// Processing one local row.
const LOCAL_ROW: f64 = 1.0;
/// Transferring one row from a remote source to HANA.
const TRANSFER_ROW: f64 = 20.0;
/// Shipping one row *to* a remote source (temp-table load).
const SHIP_ROW: f64 = 25.0;
/// Fixed cost of one remote round trip.
const REMOTE_REQUEST: f64 = 500.0;
/// Executing one row remotely (scan/join work at the source).
const REMOTE_ROW: f64 = 2.0;

/// Inputs to a remote-join strategy decision.
///
/// With persisted statistics the planner fills the local width from
/// average row bytes and the local key's distinct count from its
/// synopsis; without them it falls back to the column count and leaves
/// the distinct count at `0.0` (unknown).
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinSituation {
    /// Estimated rows of the (already filtered) local side.
    pub local_rows: f64,
    /// Estimated rows of the remote table after pushed-down predicates.
    pub remote_filtered: f64,
    /// Estimated join output rows.
    pub join_out: f64,
    /// Width of the local side in column-equivalents (8-byte units when
    /// derived from statistics, column count otherwise).
    pub local_width: f64,
    /// Width of the remote side in column-equivalents.
    pub remote_width: f64,
    /// Distinct join-key values on the local side (`0.0` = unknown).
    pub local_key_ndv: f64,
}

/// A width in column-equivalents as a share of a four-column row.
fn width(w: f64) -> f64 {
    (w / 4.0).max(0.25)
}

impl JoinSituation {
    /// Pull the filtered remote rows, join locally.
    fn remote_scan(&self) -> f64 {
        REMOTE_REQUEST
            + self.remote_filtered * REMOTE_ROW
            + self.remote_filtered * TRANSFER_ROW * width(self.remote_width)
            + (self.local_rows + self.remote_filtered) * LOCAL_ROW
    }

    /// Ship the local keys, the remote reduces, pull the reduced rows.
    fn semijoin(&self) -> f64 {
        // Shipped keys are distinct: the synopsis count when known, else
        // the row count as an upper bound.
        let keys = if self.local_key_ndv > 0.0 {
            self.local_key_ndv.min(self.local_rows)
        } else {
            self.local_rows
        };
        let reduced = self.join_out.min(self.remote_filtered);
        2.0 * REMOTE_REQUEST
            + keys * SHIP_ROW * 0.25 // keys are narrow
            + self.remote_filtered * REMOTE_ROW
            + reduced * TRANSFER_ROW * width(self.remote_width)
            + (self.local_rows + reduced) * LOCAL_ROW
    }

    /// Ship the whole local rows, the remote joins, pull the wide result.
    fn relocation(&self) -> f64 {
        2.0 * REMOTE_REQUEST
            + self.local_rows * SHIP_ROW * width(self.local_width)
            + (self.remote_filtered + self.local_rows) * REMOTE_ROW
            + self.join_out * TRANSFER_ROW * width(self.local_width + self.remote_width)
    }

    /// The cheapest of a remote scan and of what else a source with
    /// `caps` can run: a semijoin, a table relocation. A tie goes to the
    /// one named first.
    pub(crate) fn pick(&self, caps: &CapabilitySet) -> FederationStrategy {
        let offered = [
            (FederationStrategy::RemoteScan, true, self.remote_scan()),
            (
                FederationStrategy::SemiJoin,
                caps.cap_semi_join,
                self.semijoin(),
            ),
            (
                FederationStrategy::TableRelocation,
                caps.cap_joins,
                self.relocation(),
            ),
        ];
        let offered = offered.into_iter().filter(|&(_, ok, _)| ok);
        let (strategy, ..) = offered
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("a remote scan is always offered");
        strategy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 7's scenario: a selective local predicate leaves one local
    /// row; the remote table is large. The semijoin must win.
    #[test]
    fn selective_local_side_picks_semijoin() {
        let j = JoinSituation {
            local_rows: 1.0,
            remote_filtered: 1_000_000.0,
            join_out: 10.0,
            local_width: 4.0,
            remote_width: 8.0,
            local_key_ndv: 0.0,
        };
        assert_eq!(j.pick(&CapabilitySet::iq()), FederationStrategy::SemiJoin);
    }

    /// A heavily filtered remote side that is small after pushdown makes
    /// the plain remote scan cheapest.
    #[test]
    fn small_filtered_remote_picks_remote_scan() {
        let j = JoinSituation {
            local_rows: 100_000.0,
            remote_filtered: 50.0,
            join_out: 50.0,
            local_width: 4.0,
            remote_width: 4.0,
            local_key_ndv: 0.0,
        };
        assert_eq!(j.pick(&CapabilitySet::iq()), FederationStrategy::RemoteScan);
    }

    /// A source that can run neither a semijoin nor a join is read by a
    /// remote scan, however cheap the others would be.
    #[test]
    fn a_source_without_joins_is_scanned() {
        let j = JoinSituation {
            local_rows: 1.0,
            remote_filtered: 1_000_000.0,
            join_out: 10.0,
            local_width: 4.0,
            remote_width: 8.0,
            local_key_ndv: 0.0,
        };
        let caps = CapabilitySet {
            cap_semi_join: false,
            cap_joins: false,
            ..CapabilitySet::iq()
        };
        assert_eq!(j.pick(&caps), FederationStrategy::RemoteScan);
    }

    /// Every strategy costs more with more remote rows.
    #[test]
    fn costs_are_monotonic_in_transfer_volume() {
        let small = JoinSituation {
            local_rows: 10.0,
            remote_filtered: 10_000.0,
            join_out: 10.0,
            local_width: 2.0,
            remote_width: 4.0,
            local_key_ndv: 0.0,
        };
        let big = JoinSituation {
            remote_filtered: 1_000_000.0,
            ..small
        };
        assert!(big.remote_scan() > small.remote_scan());
        assert!(big.semijoin() > small.semijoin());
        assert!(big.relocation() > small.relocation());
    }
}
