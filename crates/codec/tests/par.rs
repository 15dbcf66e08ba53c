//! The ordered fan-out: index order at any worker count, one thread per
//! state, and panics re-raised with their payload.

use lmpr_codec::par;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread::{self, ThreadId};

/// `i²` for every `i` in `0..6·w` on the `w = par::workers(max_workers)`
/// workers in lockstep: each waits at a barrier before every item, so
/// every worker claims one item a round and each one's results reach the
/// merge interleaved with the others'.
fn lockstep_squares(max_workers: usize) -> (usize, Vec<u64>) {
    let workers = par::workers(max_workers);
    let round = Barrier::new(workers);
    let items = 6 * workers;
    let squares = par::map(
        items,
        max_workers,
        || (),
        |(), i| {
            round.wait();
            (i as u64) * (i as u64)
        },
    );
    (items, squares)
}

#[test]
fn results_are_in_index_order_at_any_worker_count() {
    for max_workers in [1, 2, 3, 5] {
        let (items, got) = lockstep_squares(max_workers);
        let want: Vec<u64> = (0..items as u64).map(|i| i * i).collect();
        assert_eq!(got, want, "{max_workers} workers");
    }
    // More workers than items: the surplus gets no state and no item.
    let built = AtomicUsize::new(0);
    let got = par::map(3, 16, || built.fetch_add(1, Ordering::SeqCst), |_, i| i);
    assert_eq!(got, [0, 1, 2]);
    assert!(built.load(Ordering::SeqCst) <= 3);
}

#[test]
fn zero_items_give_an_empty_result_and_build_no_state() {
    let built = AtomicUsize::new(0);
    let got: Vec<usize> = par::map(0, 4, || built.fetch_add(1, Ordering::SeqCst), |_, i| i);
    assert!(got.is_empty());
    assert_eq!(built.load(Ordering::SeqCst), 0);
}

#[test]
fn each_state_stays_on_one_thread() {
    struct State {
        id: usize,
        home: Option<ThreadId>,
    }
    // Every worker holds its first item at the barrier until all of
    // them have one, so the workers provably run side by side.
    let workers = par::workers(4);
    let all_started = Barrier::new(workers);
    let mut ids = 0..;
    let seen = par::map(
        200,
        4,
        || State {
            id: ids.next().unwrap_or(usize::MAX),
            home: None,
        },
        |state, _| {
            let me = thread::current().id();
            if state.home.is_none() {
                state.home = Some(me);
                all_started.wait();
            }
            assert_eq!(state.home, Some(me), "state {} moved threads", state.id);
            (state.id, me)
        },
    );
    assert_eq!(seen.len(), 200);
    let mut homes: Vec<(usize, ThreadId)> = Vec::new();
    for &(id, thread) in &seen {
        match homes.iter().find(|&&(state, _)| state == id) {
            Some(&(_, home)) => assert_eq!(home, thread, "state {id} ran on two threads"),
            None => homes.push((id, thread)),
        }
    }
    assert_eq!(homes.len(), workers, "one state per worker");
    for (i, &(_, thread)) in homes.iter().enumerate() {
        assert!(homes[i + 1..].iter().all(|&(_, t)| t != thread));
    }
}

/// The payload a test item panics with.
struct Broken;

#[test]
fn a_panicking_item_is_re_raised_with_its_payload() {
    let caller = thread::current().id();
    let workers = par::workers(3);
    // Every worker holds its first item at the barrier until all of them
    // have one; then the items of the calling thread panic, or those of
    // the spawned workers (the caller's when it is the only worker).
    for on_caller in [true, false] {
        let all_started = Barrier::new(workers);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            par::map(
                9,
                3,
                || false,
                |started, i| {
                    if !std::mem::replace(started, true) {
                        all_started.wait();
                    }
                    if workers == 1 || (thread::current().id() == caller) == on_caller {
                        std::panic::panic_any(Broken);
                    }
                    i
                },
            )
        }));
        let payload = outcome.expect_err("the panic reaches the caller");
        assert!(payload.is::<Broken>(), "on_caller: {on_caller}");
    }
}

#[test]
fn workers_are_capped_by_the_request() {
    assert_eq!(par::workers(0), 0);
    assert_eq!(par::workers(1), 1);
    assert!(par::workers(usize::MAX) >= 1);
}
