//! Property tests for cross-CPU migration.
//!
//! `Dispatcher::take_thread` / `Dispatcher::inject_thread` (via
//! `Machine::migrate`) must transplant a thread's *entire* scheduling
//! state: whatever interleaving of dispatches, partial charges, blocks,
//! reservation changes and clock advances preceded the migration, the
//! thread must continue on the destination CPU exactly as it would have
//! on the source.  The oracle is a plain single-CPU [`Dispatcher`] driven
//! with the identical operation sequence but no migrations: reservation,
//! throttle state and mid-period usage accounting must stay bit-for-bit
//! equal after every operation.
//!
//! The last test pins the handle contract on top: a machine driven
//! through the [`ThreadHandle`]s its placing calls returned must be
//! indistinguishable from one whose every call resolves the thread's id
//! afresh, and a handle made stale by a migration, a removal or the reuse
//! of its slot must be refused without touching anything.

use proptest::prelude::*;
use rrs_scheduler::{
    CpuId, Dispatcher, DispatcherConfig, Machine, MigratedThread, Period, Proportion, Reservation,
    SchedError, ThreadHandle, ThreadId, UsageAccount,
};
use std::collections::BTreeMap;

/// The id edge as a caller without a stored handle spells it: resolve
/// through the CPUs' id maps, then act on the handle.
fn resolve(machine: &Machine, id: ThreadId) -> Result<ThreadHandle, SchedError> {
    machine.handle_of(id).ok_or(SchedError::UnknownThread(id))
}

fn remove(machine: &mut Machine, id: ThreadId) -> Result<(), SchedError> {
    resolve(machine, id).and_then(|h| machine.remove_thread_at(h, id))
}

fn extract(machine: &mut Machine, id: ThreadId) -> Result<MigratedThread, SchedError> {
    resolve(machine, id).and_then(|h| machine.extract_thread_at(h, id))
}

/// Re-reserves the thread and returns the CPU it is on.
fn set_reservation(
    machine: &mut Machine,
    id: ThreadId,
    r: Reservation,
) -> Result<CpuId, SchedError> {
    let h = resolve(machine, id)?;
    machine.set_reservation_at(h, id, r).map(|()| h.cpu)
}

fn reservation_of(machine: &Machine, id: ThreadId) -> Option<Reservation> {
    machine.reservation_at(machine.handle_of(id)?, id)
}

fn usage_of(machine: &Machine, id: ThreadId) -> Option<UsageAccount> {
    machine.usage_at(machine.handle_of(id)?, id)
}

fn block(machine: &mut Machine, id: ThreadId) -> Result<(), SchedError> {
    resolve(machine, id).and_then(|h| machine.block_at(h, id))
}

fn unblock(machine: &mut Machine, id: ThreadId) -> Result<(), SchedError> {
    resolve(machine, id).and_then(|h| machine.unblock_at(h, id))
}

fn charge(machine: &mut Machine, id: ThreadId, us: u64) -> Result<(), SchedError> {
    resolve(machine, id).and_then(|h| machine.charge_at(h, id, us))
}

fn assert_accounts_equal(machine: &UsageAccount, oracle: &UsageAccount) {
    assert_eq!(machine.period_start_us, oracle.period_start_us);
    assert_eq!(machine.budget_us, oracle.budget_us);
    assert_eq!(machine.used_this_period_us, oracle.used_this_period_us);
    assert_eq!(
        machine.was_runnable_this_period,
        oracle.was_runnable_this_period
    );
    assert_eq!(machine.total_used_us, oracle.total_used_us);
    assert_eq!(machine.total_budget_us, oracle.total_budget_us);
    assert_eq!(machine.periods_completed, oracle.periods_completed);
    assert_eq!(machine.deadlines_missed, oracle.deadlines_missed);
    assert_eq!(machine.last_period_used_us, oracle.last_period_used_us);
    assert_eq!(machine.last_period_budget_us, oracle.last_period_budget_us);
}

proptest! {
    #[test]
    fn migrating_thread_tracks_a_single_cpu_oracle(
        cpus in 2usize..=4,
        ppt in 50u32..=900,
        period_ms in 1u64..=20,
        ops in collection::vec((0u8..=4, 0u64..4096, 1u64..=2000), 1..=60),
    ) {
        let config = DispatcherConfig::default();
        let mut machine = Machine::new(config, cpus);
        let mut oracle = Dispatcher::new(config);
        let id = ThreadId(1);
        let reservation = Reservation::new(
            Proportion::from_ppt(ppt),
            Period::from_millis(period_ms),
        );
        machine
            .add_thread_preadmitted_on(CpuId(0), id, reservation, 0)
            .unwrap();
        oracle.add_thread_preadmitted(id, reservation).unwrap();

        for (op, target, param) in ops {
            match op {
                // One dispatch round on the thread's CPU, charging a
                // random share of the granted quantum.
                0 => {
                    let cpu = machine.cpu_of(id).unwrap();
                    let got = machine.dispatch(cpu);
                    let want = oracle.dispatch();
                    prop_assert_eq!(got, want, "dispatch outcomes diverged");
                    if let Some(t) = got.thread {
                        let used = (got.quantum_us * (param % 101) / 100)
                            .clamp(1, got.quantum_us);
                        charge(&mut machine, t, used).unwrap();
                        oracle.charge(t, used).unwrap();
                    }
                    let next = machine.now_us() + got.quantum_us.max(1);
                    machine.advance_to(next);
                    oracle.advance_to(next);
                }
                // A bare clock advance (possibly across period boundaries).
                1 => {
                    let next = machine.now_us() + param;
                    machine.advance_to(next);
                    oracle.advance_to(next);
                }
                // Block / unblock (both sides must agree on the outcome).
                2 => {
                    if param % 2 == 0 {
                        prop_assert_eq!(block(&mut machine, id).is_ok(), oracle.block(id).is_ok());
                    } else {
                        prop_assert_eq!(unblock(&mut machine, id).is_ok(), oracle.unblock(id).is_ok());
                    }
                }
                // The operation under test: migrate to an arbitrary CPU
                // (possibly the one it is already on).  The oracle does
                // nothing — migration must be invisible to the thread.
                3 => {
                    let to = CpuId((target % cpus as u64) as u32);
                    machine.migrate(id, to).unwrap();
                    prop_assert_eq!(machine.cpu_of(id), Some(to));
                }
                // A controller-style reservation change.
                _ => {
                    let new = Reservation::new(
                        Proportion::from_ppt(50 + (param % 850) as u32),
                        Period::from_millis(1 + target % 20),
                    );
                    prop_assert_eq!(
                        set_reservation(&mut machine, id, new).is_ok(),
                        oracle.set_reservation(id, new).is_ok()
                    );
                }
            }

            // After *every* operation the thread must be indistinguishable
            // from the never-migrated oracle.  A migration rolls the
            // mover's boundary backlog, so both sides settle theirs first.
            machine.sync_all();
            oracle.sync_all();
            prop_assert_eq!(reservation_of(&machine, id), oracle.reservation(id));
            let cpu = machine.cpu_of(id).unwrap();
            prop_assert_eq!(
                machine.dispatcher(cpu).thread_state(id),
                oracle.thread_state(id),
                "throttle/run state diverged"
            );
            assert_accounts_equal(
                &usage_of(&machine, id).unwrap(),
                &oracle.usage(id).unwrap(),
            );
        }
    }

    #[test]
    fn migration_is_a_pure_move_in_a_populated_machine(
        cpus in 2usize..=4,
        threads in 2u64..=6,
        rounds in collection::vec((0u64..4096, 0u64..4096), 1..=40),
    ) {
        // Several reserved threads run concurrently; random migrations
        // interleave with dispatch rounds on every CPU.  Each migration
        // must move exactly one thread's reservation and account without
        // touching anyone else's, and machine-wide load must always equal
        // the sum of the per-thread reservations.
        let config = DispatcherConfig::default();
        let mut machine = Machine::new(config, cpus);
        let mut expected_total = 0;
        for i in 0..threads {
            let r = Reservation::new(
                Proportion::from_ppt(100 + (i as u32 * 37) % 200),
                Period::from_millis(5 + i % 10),
            );
            expected_total += r.proportion.ppt();
            machine.add_thread_preadmitted(ThreadId(i), r).unwrap();
        }
        for (pick, to) in rounds {
            // One lockstep dispatch round.
            let mut max_q = 1;
            for cpu in 0..cpus {
                let o = machine.dispatch(CpuId(cpu as u32));
                if let Some(t) = o.thread {
                    charge(&mut machine, t, o.quantum_us).unwrap();
                }
                max_q = max_q.max(o.quantum_us);
            }
            machine.advance_to(machine.now_us() + max_q);

            // Migrate one random thread and snapshot it across the move,
            // its boundary backlog (which the move rolls) settled first.
            machine.sync_all();
            let id = ThreadId(pick % threads);
            let to = CpuId((to % cpus as u64) as u32);
            let before_account = usage_of(&machine, id).unwrap();
            let before_reservation = reservation_of(&machine, id).unwrap();
            let before_state = machine
                .dispatcher(machine.cpu_of(id).unwrap())
                .thread_state(id)
                .unwrap();
            machine.migrate(id, to).unwrap();
            prop_assert_eq!(machine.cpu_of(id), Some(to));
            prop_assert_eq!(reservation_of(&machine, id), Some(before_reservation));
            prop_assert_eq!(
                machine.dispatcher(to).thread_state(id),
                Some(before_state)
            );
            assert_accounts_equal(&usage_of(&machine, id).unwrap(), &before_account);

            // Conservation: nobody was lost, duplicated or re-weighted.
            prop_assert_eq!(machine.thread_count(), threads as usize);
            prop_assert_eq!(machine.total_reserved_ppt(), expected_total);
            let spread: u32 = (0..cpus as u32).map(|c| machine.cpu_load_ppt(CpuId(c))).sum();
            prop_assert_eq!(spread, expected_total);
        }
    }

    #[test]
    fn handle_addressed_ops_match_id_addressed_ops(
        cpus in 1usize..=3,
        ops in collection::vec((0u8..=8, 0u64..6, 0u64..4096, 1u64..=3000), 1..=120),
    ) {
        // Two machines take the same operations, one by id, one through
        // the handles it was given.  Removals and re-admissions keep the
        // LIFO free list busy, so stale handles routinely name a slot that
        // now belongs to somebody else.
        let config = DispatcherConfig::default();
        let mut by_id = Machine::new(config, cpus);
        let mut by_handle = Machine::new(config, cpus);
        let mut handles: BTreeMap<ThreadId, ThreadHandle> = BTreeMap::new();
        let mut stale: Vec<(ThreadId, ThreadHandle)> = Vec::new();
        let reservation = |ppt: u64, period: u64| {
            Reservation::new(
                Proportion::from_ppt(20 + (ppt % 200) as u32),
                Period::from_millis(1 + period % 20),
            )
        };
        for (op, pick, a, b) in ops {
            let id = ThreadId(pick);
            let to = CpuId((a % cpus as u64) as u32);
            let held = handles.get(&id).copied();
            match (op, held) {
                // Admit the thread (by slot reuse, if anything was freed).
                (0 | 1, None) => {
                    let r = reservation(a, b);
                    by_id.add_thread_preadmitted_on(to, id, r, 0).unwrap();
                    let handle = by_handle.add_thread_preadmitted_on(to, id, r, 0).unwrap();
                    prop_assert_eq!(handle.cpu, to);
                    handles.insert(id, handle);
                }
                (0, Some(handle)) => {
                    remove(&mut by_id, id).unwrap();
                    by_handle.remove_thread_at(handle, id).unwrap();
                    handles.remove(&id);
                    stale.push((id, handle));
                }
                (1, Some(handle)) => {
                    let thread = extract(&mut by_id, id).unwrap();
                    by_id.inject_thread_on(to, thread, 0).unwrap();
                    let thread = by_handle.extract_thread_at(handle, id).unwrap();
                    let moved = by_handle.inject_thread_on(to, thread, 0).unwrap();
                    handles.insert(id, moved);
                    stale.push((id, handle));
                }
                (2, Some(handle)) => {
                    let from = by_id.migrate(id, to).unwrap();
                    let moved = by_handle.migrate_at(handle, id, to).unwrap();
                    prop_assert_eq!((from, moved.cpu), (handle.cpu, to));
                    handles.insert(id, moved);
                    stale.push((id, handle));
                }
                // The actuation pair as the hosts used to spell it, against
                // `actuate`.
                (3, Some(mut handle)) => {
                    let r = reservation(b, a);
                    let from = set_reservation(&mut by_id, id, r).unwrap();
                    let migrated = from != to && by_id.migrate(id, to).is_ok();
                    let moved = by_handle.actuate(&mut handle, id, r, to).unwrap();
                    prop_assert_eq!(moved, migrated.then_some(from));
                    stale.push((id, handles.insert(id, handle).unwrap()));
                }
                (4, Some(handle)) => {
                    let r = reservation(a, b);
                    set_reservation(&mut by_id, id, r).unwrap();
                    by_handle.set_reservation_at(handle, id, r).unwrap();
                }
                (5, Some(handle)) => {
                    prop_assert_eq!(block(&mut by_id, id), by_handle.block_at(handle, id));
                }
                (6, Some(handle)) => {
                    prop_assert_eq!(unblock(&mut by_id, id), by_handle.unblock_at(handle, id));
                }
                // One dispatch round, each pick charged part of its quantum.
                (7, _) => {
                    let mut max_q = 1;
                    for cpu in (0..cpus as u32).map(CpuId) {
                        let got = by_id.dispatch(cpu);
                        prop_assert_eq!(got, by_handle.dispatch(cpu));
                        if let Some(t) = got.thread {
                            let used = (got.quantum_us * (a % 101) / 100).clamp(1, got.quantum_us);
                            charge(&mut by_id, t, used).unwrap();
                            by_handle.charge_at(handles[&t], t, used).unwrap();
                        }
                        max_q = max_q.max(got.quantum_us);
                    }
                    by_id.advance_to(by_id.now_us() + max_q);
                    by_handle.advance_to(by_handle.now_us() + max_q);
                }
                (8, _) => {
                    by_id.advance_to(by_id.now_us() + b);
                    by_handle.advance_to(by_handle.now_us() + b);
                }
                // Any other op on a thread the machine does not hold: both
                // edges must say so.
                (_, None) => {
                    let gone = Err(SchedError::UnknownThread(id));
                    prop_assert_eq!(unblock(&mut by_id, id), gone);
                    prop_assert_eq!(charge(&mut by_handle, id, b), gone);
                }
                (_, Some(_)) => unreachable!("ops 0..=8 are all matched above"),
            }

            // Every handle that has gone stale is refused by every entry
            // point.  (A thread can win its old slot back; then the handle
            // is simply right again.)
            for &(id, handle) in &stale {
                if by_handle.handle_of(id) == Some(handle) {
                    continue;
                }
                let gone = Err(SchedError::UnknownThread(id));
                let r = reservation(a, b);
                prop_assert_eq!(by_handle.set_reservation_at(handle, id, r), gone);
                prop_assert_eq!(by_handle.reservation_at(handle, id), None);
                prop_assert!(by_handle.usage_at(handle, id).is_none());
                prop_assert_eq!(by_handle.remove_thread_at(handle, id), gone.clone());
                prop_assert!(by_handle.extract_thread_at(handle, id).is_err());
                prop_assert_eq!(by_handle.unblock_at(handle, id), gone);
                prop_assert_eq!(by_handle.charge_at(handle, id, b), gone);
                prop_assert_eq!(
                    by_handle.migrate_at(handle, id, to),
                    Err(SchedError::UnknownThread(id))
                );
                let mut cached = handle;
                prop_assert_eq!(
                    by_handle.actuate(&mut cached, id, r, to),
                    Err(SchedError::UnknownThread(id))
                );
                prop_assert_eq!(cached, handle);
                prop_assert_eq!(by_handle.block_at(handle, id), gone);
            }

            // ... and neither those refusals nor the choice of edge shows:
            // the two machines agree on every thread and every counter.
            for raw in 0..6 {
                let id = ThreadId(raw);
                prop_assert_eq!(by_handle.handle_of(id), handles.get(&id).copied());
                prop_assert_eq!(by_id.cpu_of(id), by_handle.cpu_of(id));
                let Some(handle) = handles.get(&id).copied() else {
                    prop_assert!(usage_of(&by_id, id).is_none() && usage_of(&by_handle, id).is_none());
                    continue;
                };
                assert_accounts_equal(
                    &usage_of(&by_id, id).unwrap(),
                    &by_handle.usage_at(handle, id).unwrap(),
                );
                prop_assert_eq!(reservation_of(&by_id, id), by_handle.reservation_at(handle, id));
                prop_assert_eq!(
                    by_id.dispatcher(handle.cpu).thread_state(id),
                    by_handle.dispatcher(handle.cpu).thread_state(id)
                );
            }
            prop_assert_eq!(by_id.stats(), by_handle.stats());
            for cpu in (0..cpus as u32).map(CpuId) {
                prop_assert_eq!(
                    by_id.dispatcher(cpu).next_timer_expiry(),
                    by_handle.dispatcher(cpu).next_timer_expiry()
                );
                prop_assert_eq!(by_id.cpu_load_ppt(cpu), by_handle.cpu_load_ppt(cpu));
            }
        }
    }
}
