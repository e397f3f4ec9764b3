//! Proportion/period reservations.

use crate::types::{Period, Proportion};
use serde::{Deserialize, Serialize};

/// A CPU reservation: a proportion of the CPU over a period.
///
/// "If one thread has been given a proportion of 50 out of 1000 (5%) and a
/// period of 30 milliseconds, it should be able to run up to 1.5
/// milliseconds every 30 milliseconds" (§3.1).
///
/// # Examples
///
/// ```
/// use rrs_scheduler::{Period, Proportion, Reservation};
///
/// let r = Reservation::new(Proportion::from_ppt(50), Period::from_millis(30));
/// let budget_micros = r.period.as_micros() * r.proportion.ppt() as u64 / 1000;
/// assert_eq!(budget_micros, 1_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reservation {
    /// Fraction of the CPU, in parts per thousand.
    pub proportion: Proportion,
    /// Interval over which the proportion must be delivered.
    pub period: Period,
}

impl Reservation {
    /// Creates a reservation.
    pub fn new(proportion: Proportion, period: Period) -> Self {
        Self { proportion, period }
    }

    /// The execution budget per period, in microseconds:
    /// `proportion × period`.
    pub(crate) fn budget_micros(&self) -> u64 {
        let (period, ppt) = (self.period.as_micros(), self.proportion.ppt() as u64);
        // Every dispatcher sync asks, so stay in 64 bits (one `mul`, one
        // `div`) unless the product overflows — a period beyond 500 000
        // years — where the 128-bit division is a runtime-library call.
        match period.checked_mul(ppt) {
            Some(product) => product / 1000,
            None => (period as u128 * ppt as u128 / 1000) as u64,
        }
    }
}

impl std::fmt::Display for Reservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} over {}", self.proportion, self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_budget() {
        // 5 % of 30 ms is 1.5 ms.
        let r = Reservation::new(Proportion::from_ppt(50), Period::from_millis(30));
        assert_eq!(r.budget_micros(), 1500);
    }

    #[test]
    fn display() {
        let r = Reservation::new(Proportion::from_ppt(50), Period::from_millis(30));
        assert_eq!(r.to_string(), "50‰ over 30ms");
    }

    #[test]
    fn zero_proportion_has_zero_budget() {
        let r = Reservation::new(Proportion::ZERO, Period::from_millis(30));
        assert_eq!(r.budget_micros(), 0);
    }

    /// `proportion × period` as it was computed before the 64-bit path.
    fn wide_budget(r: Reservation) -> u64 {
        (r.period.as_micros() as u128 * r.proportion.ppt() as u128 / 1000) as u64
    }

    #[test]
    fn budget_falls_back_to_128_bits_where_the_product_overflows() {
        let edge = u64::MAX / 1000;
        for period_us in [1, 30_000, edge - 1, edge, edge + 1, u64::MAX - 1, u64::MAX] {
            for ppt in [0, 1, 2, 999, 1000] {
                let r = Reservation::new(Proportion::from_ppt(ppt), Period::from_micros(period_us));
                assert_eq!(
                    r.budget_micros(),
                    wide_budget(r),
                    "{ppt}‰ of {period_us} µs"
                );
            }
        }
        let whole = Reservation::new(Proportion::from_ppt(1000), Period::from_micros(u64::MAX));
        assert_eq!(whole.budget_micros(), u64::MAX);
    }

    proptest! {
        #[test]
        fn budget_never_exceeds_period(ppt in 0u32..=1000, period_ms in 1u64..1000) {
            let r = Reservation::new(Proportion::from_ppt(ppt), Period::from_millis(period_ms));
            prop_assert!(r.budget_micros() <= r.period.as_micros());
        }

        #[test]
        fn budget_is_monotone_in_proportion(a in 0u32..=1000, b in 0u32..=1000, period_ms in 1u64..100) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let period = Period::from_millis(period_ms);
            let r_lo = Reservation::new(Proportion::from_ppt(lo), period);
            let r_hi = Reservation::new(Proportion::from_ppt(hi), period);
            prop_assert!(r_lo.budget_micros() <= r_hi.budget_micros());
        }
    }
}
