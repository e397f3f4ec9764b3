//! The span-charge settlement rule.
//!
//! The dispatcher's batched span charging
//! ([`Dispatcher::charge_span`](crate::Dispatcher::charge_span)) defers the
//! account update and run-queue re-rank for consecutive charges to the same
//! thread, settling only when the deferral could change a dispatch
//! decision or an observable statistic.  This module is the single source
//! of truth for *when* that is, shared by the batched sim path and the
//! per-charge reference path
//! ([`Dispatcher::charge`](crate::Dispatcher::charge), which the
//! wall-clock executor drives), so the two paths cannot
//! drift: the per-charge path derives its throttle decision from the same
//! [`charge_exhausts`] arithmetic the batcher uses to detect the throttle
//! edge.

use crate::accounting::UsageAccount;

/// Why a batched span charge had to settle instead of accumulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SettleReason {
    /// The clock reached the thread's next period boundary: the pending
    /// usage belongs to the finished period and must land in the account
    /// before the boundary rolls.
    PeriodBoundary,
    /// This charge exhausts the period budget: the thread throttles *now*,
    /// which unlinks it from the run queue and arms its release timer.
    ThrottleEdge,
    /// A zero-length charge still publishes the Running → Ready transition
    /// and re-watches the thread for the controller's usage feed, so it
    /// takes the full per-charge path.
    ZeroSpan,
}

/// Returns `true` when charging `us` more microseconds — on top of what the
/// account has already recorded this period plus `pending_us` not yet
/// settled — exhausts the period budget.
///
/// This is exactly [`UsageAccount::exhausted`] evaluated *after* such a
/// charge would land: the per-charge path asserts the equivalence, so the
/// batcher's throttle-edge prediction and the reference's post-charge
/// throttle test are one rule.
pub(crate) fn charge_exhausts(account: &UsageAccount, pending_us: u64, us: u64) -> bool {
    let used = account.used_this_period_us + pending_us + us;
    used >= account.budget_us && used > 0
}

/// Decides whether a span charge of `us` microseconds may be deferred.
///
/// `None` means the charge can accumulate into the pending batch: the
/// clock has not reached the thread's next period boundary, the budget
/// survives the charge, and the charge is non-zero (so no state
/// or watch transition is due).  Any `Some` reason requires settling the
/// batch and taking the full per-charge path.
///
/// The window end is not a reason *here* because it is not visible from a
/// single charge: the dispatcher settles explicitly at every operation that
/// can observe or perturb the account (dispatch after a queue mutation,
/// block, migration, re-reservation, sync, usage drain).
pub(crate) fn span_settle_reason(
    us: u64,
    pending_us: u64,
    account: &UsageAccount,
    now_us: u64,
    next_boundary_us: u64,
) -> Option<SettleReason> {
    if now_us >= next_boundary_us {
        return Some(SettleReason::PeriodBoundary);
    }
    if charge_exhausts(account, pending_us, us) {
        return Some(SettleReason::ThrottleEdge);
    }
    if us == 0 {
        return Some(SettleReason::ZeroSpan);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account(budget: u64, used: u64) -> UsageAccount {
        let mut a = UsageAccount::new(0, budget);
        a.charge(used);
        a
    }

    #[test]
    fn boundary_reached_settles_before_the_roll() {
        let a = account(1000, 10);
        assert_eq!(
            span_settle_reason(10, 0, &a, 5_000, 5_000),
            Some(SettleReason::PeriodBoundary)
        );
        assert_eq!(span_settle_reason(10, 0, &a, 4_999, 5_000), None);
    }

    #[test]
    fn throttle_edge_counts_the_pending_batch() {
        let a = account(1000, 600);
        // 600 used + 300 pending + 99 = 999 < 1000: still deferrable.
        assert_eq!(span_settle_reason(99, 300, &a, 0, 1), None);
        // ... + 100 = 1000: exhausts, settle and throttle.
        assert_eq!(
            span_settle_reason(100, 300, &a, 0, 1),
            Some(SettleReason::ThrottleEdge)
        );
        assert!(charge_exhausts(&a, 300, 100));
        assert!(!charge_exhausts(&a, 300, 99));
    }

    #[test]
    fn zero_span_takes_the_full_path() {
        let a = account(1000, 10);
        assert_eq!(
            span_settle_reason(0, 0, &a, 0, 1),
            Some(SettleReason::ZeroSpan)
        );
    }

    #[test]
    fn zero_on_zero_budget_is_not_exhaustion() {
        // A fresh zero-budget account with nothing used stays unexhausted
        // (`used > 0` guards the degenerate case), matching
        // `UsageAccount::exhausted`.
        let a = account(0, 0);
        assert!(!charge_exhausts(&a, 0, 0));
        assert_eq!(charge_exhausts(&a, 0, 0), a.exhausted());
        // Any actual use on a zero budget is exhaustion.
        assert!(charge_exhausts(&a, 0, 1));
    }

    /// The prediction matches the account's own post-charge verdict.
    #[test]
    fn charge_exhausts_matches_exhausted_after_charging() {
        for budget in [0u64, 1, 500, 1000] {
            for used in [0u64, 1, 499, 500, 999, 1000] {
                for us in [0u64, 1, 500, 1000] {
                    let mut a = account(budget, used);
                    let predicted = charge_exhausts(&a, 0, us);
                    a.charge(us);
                    assert_eq!(
                        predicted,
                        a.exhausted(),
                        "budget={budget} used={used} us={us}"
                    );
                }
            }
        }
    }
}
