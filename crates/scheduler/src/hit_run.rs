//! A run of next-quantum cache hits, served from a local copy of the
//! dispatcher state.
//!
//! While the cache is live, a dispatch re-issues the last pick and a span
//! charge joins the pending batch: neither reads the run queue, the timer
//! list or any other thread.  A [`HitRun`] holds all those two steps read
//! and write — the clock, the pending batch, the pick sequence and the
//! overhead total, against the pick's limits, which stay fixed while the
//! run lasts — so a span loop serves a stretch of hits with no dispatcher
//! call.  [`Dispatcher::hit_run`](crate::Dispatcher::hit_run) opens a run
//! and [`Dispatcher::end_hit_run`](crate::Dispatcher::end_hit_run) writes
//! it back once; the dispatcher's own cached dispatch is a run of one hit.

use crate::settle::span_settle_reason;
use crate::types::ThreadId;
use rrs_telemetry::{Recorder, TraceEventKind};

/// The dispatcher state a run of next-quantum cache hits reads and writes.
///
/// Between [`Dispatcher::hit_run`](crate::Dispatcher::hit_run) and
/// [`Dispatcher::end_hit_run`](crate::Dispatcher::end_hit_run) the
/// dispatcher itself must not be called: the run is its state.
#[derive(Debug, Clone, Copy)]
pub struct HitRun {
    /// The dispatcher's clock.
    pub(crate) now_us: u64,
    /// The pending span batch.
    pub(crate) pending_us: u64,
    /// The pick sequence: one more per hit.
    pub(crate) pick_seq: u64,
    /// [`crate::DispatchStats::overhead_us`].
    pub(crate) overhead_us: f64,
    /// The pick's budget this period.
    pub(crate) budget_us: u64,
    /// What the pick's account holds as used this period (the pending
    /// batch apart).
    pub(crate) used_us: u64,
    /// The pick's next period boundary.
    pub(crate) next_boundary_us: u64,
    /// The earliest throttle release, `u64::MAX` for none.
    pub(crate) next_expiry_us: u64,
    /// The dispatch interval, at least 1 µs.
    pub(crate) interval_us: u64,
    /// The modelled cost of a dispatch decision.
    pub(crate) dispatch_cost_us: f64,
    /// The pick.
    pub(crate) thread: ThreadId,
    /// The CPU index stamped on trace events.
    pub(crate) cpu: u32,
}

impl HitRun {
    /// Advances the clock to `t` and re-issues the pick, returning the
    /// quantum it may run for; `recorder` gets the `CacheHit` event.
    ///
    /// `None` means the cache cannot serve this dispatch, and the run must
    /// end here: either a throttle release is due by `t` — the clock then
    /// stays put, so that [`Dispatcher::advance_to`](crate::Dispatcher::advance_to)
    /// releases it after the write-back — or the clock has reached the
    /// pick's period boundary.
    #[inline]
    pub fn hit(&mut self, t: u64, recorder: Option<&Recorder>) -> Option<u64> {
        if t > self.now_us {
            if self.next_expiry_us <= t {
                return None;
            }
            self.now_us = t;
        }
        if self.now_us >= self.next_boundary_us {
            return None;
        }
        self.pick_seq += 1;
        self.overhead_us += self.dispatch_cost_us;
        if let Some(r) = recorder {
            r.record(self.now_us, TraceEventKind::CacheHit { cpu: self.cpu });
        }
        // The slow path's `remaining_us()` cap, the pending batch counted
        // as already charged.
        let cap = self
            .budget_us
            .saturating_sub(self.used_us + self.pending_us)
            .max(1);
        Some(self.interval_us.min(cap))
    }

    /// Defers a span's charge of `us` into the pending batch.  Returns
    /// `false`, having changed nothing, when the charge must settle instead
    /// (`crate::settle::span_settle_reason`); the run must then end, and
    /// [`Dispatcher::charge_span`](crate::Dispatcher::charge_span) takes
    /// the charge.
    #[inline]
    pub fn defer(&mut self, us: u64) -> bool {
        let deferred = span_settle_reason(
            us,
            self.used_us + self.pending_us,
            self.budget_us,
            self.now_us,
            self.next_boundary_us,
        )
        .is_none();
        if deferred {
            self.pending_us += us;
        }
        deferred
    }

    /// [`crate::DispatchStats::overhead_us`] as it stands in the run.
    #[inline]
    pub fn overhead_us(&self) -> f64 {
        self.overhead_us
    }
}

#[cfg(test)]
mod tests {
    use crate::types::{Period, Proportion};
    use crate::{DispatchOutcome, Dispatcher, DispatcherConfig, Reservation, ThreadId};
    use proptest::prelude::*;

    const A: ThreadId = ThreadId(1);
    const B: ThreadId = ThreadId(2);

    fn reserved(ppt: u32, period_ms: u64) -> Reservation {
        Reservation::new(Proportion::from_ppt(ppt), Period::from_millis(period_ms))
    }

    /// Everything a caller can read of one side, to compare the two.
    fn observed(d: &Dispatcher) -> String {
        let per = |id| (d.usage(id), d.reservation(id), d.thread_state(id));
        format!("{:?} {:?} {:?} {}", d.stats(), per(A), per(B), d.now_us())
    }

    proptest! {
        /// A run of cache hits served from a [`super::HitRun`] and written
        /// back once, against the same dispatches made one by one.  Two
        /// dispatchers hold a thread `A` and, unless `b_ppt` is 0, a
        /// second thread `B` whose throttle releases fall inside `A`'s
        /// runs.  Each step ends blocked threads' sleeps that are over,
        /// dispatches at the clock, and runs the pick for a span that
        /// uses `len` µs (at most its quantum), nothing (`kind` 1) or
        /// blocks after it (`kind` 0).  The reference advances, dispatches
        /// and charges through the dispatcher at every step; the other
        /// side opens a run after each span that leaves the pick running
        /// and serves every step it can from the run.  Every hit must give
        /// the reference's pick, quantum and overhead total; whenever no
        /// run is open — after every stop's write-back — the statistics,
        /// both threads' accounts, reservations and states, and the clock
        /// must agree, and both dispatchers must be consistent.
        #[test]
        fn a_hit_run_matches_dispatching_hit_by_hit(
            a_ppt in 1u32..1000,
            a_ms in 1u64..30,
            b_ppt in 0u32..400,
            b_ms in 1u64..30,
            spans in proptest::collection::vec((0u8..24, 0u64..1500), 1..300),
        ) {
            let config = DispatcherConfig::default();
            let mut reference = Dispatcher::new(config);
            let mut viewed = Dispatcher::new(config);
            for d in [&mut reference, &mut viewed] {
                d.add_thread_preadmitted(A, reserved(a_ppt, a_ms)).unwrap();
                if b_ppt > 0 {
                    d.add_thread_preadmitted(B, reserved(b_ppt, b_ms)).unwrap();
                }
            }
            let mut run = None;
            let mut asleep: Vec<(ThreadId, u32, u64)> = Vec::new();
            let mut t = 0u64;
            for (kind, len) in spans {
                while let Some(i) = asleep.iter().position(|&(.., at)| at <= t) {
                    let (id, slot, _) = asleep.swap_remove(i);
                    if let Some(r) = run.take() {
                        viewed.end_hit_run(r);
                    }
                    reference.unblock_slot(slot, id).unwrap();
                    viewed.unblock_slot(slot, id).unwrap();
                }
                reference.advance_to(t);
                let want = reference.dispatch();
                let hit = run.as_mut().and_then(|r: &mut super::HitRun| {
                    let quantum_us = r.hit(t, None)?;
                    Some((DispatchOutcome { thread: Some(r.thread), quantum_us }, r.overhead_us()))
                });
                let got = match hit {
                    Some((outcome, overhead_us)) => {
                        prop_assert_eq!(overhead_us, reference.overhead_us());
                        outcome
                    }
                    None => {
                        if let Some(r) = run.take() {
                            viewed.end_hit_run(r);
                        }
                        viewed.advance_to(t);
                        viewed.dispatch()
                    }
                };
                prop_assert_eq!(got, want);
                let Some(_) = want.thread else {
                    t += want.quantum_us;
                    continue;
                };
                let blocks = kind == 0;
                let used = if kind == 1 { 0 } else { len.clamp(1, want.quantum_us) };
                let deferred = !blocks && run.as_mut().is_some_and(|r| r.defer(used));
                reference.charge_span(used);
                if !deferred {
                    if let Some(r) = run.take() {
                        viewed.end_hit_run(r);
                    }
                    viewed.charge_span(used);
                }
                t += used.max(1);
                if blocks {
                    let slot = reference.block_span();
                    prop_assert_eq!(viewed.block_span(), slot);
                    asleep.push((want.thread.unwrap(), slot, t + len));
                } else if used > 0 && run.is_none() {
                    run = viewed.hit_run();
                }
                if run.is_none() {
                    prop_assert_eq!(observed(&viewed), observed(&reference));
                    reference.assert_consistent();
                    viewed.assert_consistent();
                }
            }
            if let Some(r) = run.take() {
                viewed.end_hit_run(r);
            }
            prop_assert_eq!(observed(&viewed), observed(&reference));
            reference.sync_all();
            viewed.sync_all();
            prop_assert_eq!(observed(&viewed), observed(&reference));
            viewed.assert_consistent();
        }
    }
}
