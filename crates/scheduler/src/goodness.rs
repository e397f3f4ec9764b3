//! The Linux-style goodness function used at dispatch.
//!
//! The prototype RBS is layered on Linux 2.0.35's dispatcher: "Our policy
//! calculates goodness to ensure that threads it controls have higher
//! goodness than jobs under other policies, and that jobs with shorter
//! periods have higher goodness values" (§3.1).  This module reproduces
//! the second half of that ordering as a pure function so it can be tested
//! exhaustively.  Jobs under other policies are not modelled: every thread
//! the dispatcher holds carries a reservation (the controller gives
//! miscellaneous jobs one too, §3.2), so there is nothing for an RBS thread
//! to outrank.

use crate::types::Period;

/// Base goodness for any runnable RBS-controlled thread — in the prototype,
/// far above anything a thread under another Linux policy could reach.
pub(crate) const RBS_BASE_GOODNESS: i64 = 1_000_000_000;

/// Goodness of an RBS thread with budget remaining in its current period.
///
/// Shorter periods produce strictly higher goodness (rate-monotonic order).
pub(crate) fn rbs_goodness(period: Period) -> i64 {
    // 1e12 / period_us: a 1 ms period scores 1e9 above base, a 1 s period
    // scores 1e6 above base; all are above RBS_BASE_GOODNESS and ordered by
    // period.
    RBS_BASE_GOODNESS + (1_000_000_000_000u64 / period.as_micros()) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shorter_period_wins() {
        let short = rbs_goodness(Period::from_millis(10));
        let long = rbs_goodness(Period::from_millis(30));
        assert!(short > long);
    }

    #[test]
    fn equal_periods_have_equal_goodness() {
        assert_eq!(
            rbs_goodness(Period::from_millis(30)),
            rbs_goodness(Period::from_micros(30_000))
        );
    }

    proptest! {
        #[test]
        fn rbs_goodness_is_monotone_in_period(a in 1u64..1_000_000, b in 1u64..1_000_000) {
            let ga = rbs_goodness(Period::from_micros(a));
            let gb = rbs_goodness(Period::from_micros(b));
            if a < b {
                prop_assert!(ga >= gb);
            }
        }
    }
}
