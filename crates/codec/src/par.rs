//! The workspace's one fan-out: independent items mapped on a few
//! scoped threads, results returned in item order.
//!
//! Permutation studies, offered-load sweeps and sharded coverage audits
//! are all pure functions of an item index, so they share this one
//! helper instead of each owning a thread pool, a channel or a panic
//! policy. Workers claim indices from a shared counter and every result
//! is stored beside its index, so the output is the same at any worker
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many workers a fan-out of at most `max_workers` gets: the CPUs
/// this process may run on, capped at `max_workers`. The CPU count is
/// read once: the query reads cgroup files, ≈ 23 µs a call on a 2-vCPU
/// machine.
pub fn workers(max_workers: usize) -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    cpus.min(max_workers)
}

/// `work(state, i)` for every `i` in `0..items`, in index order.
///
/// [`workers`]`(max_workers)`, at most one per item, share the items;
/// the calling thread is one of them. `state` is called once per worker
/// on the calling thread before any thread starts, and each state is
/// used by its own worker only, so it suits scratch buffers and engines.
/// A panic in `work` is re-raised on the calling thread with its
/// original payload once every worker has stopped.
pub fn map<S, T, W>(
    items: usize,
    max_workers: usize,
    mut state: impl FnMut() -> S,
    work: W,
) -> Vec<T>
where
    S: Send,
    T: Send,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let mut states = (0..workers(max_workers).min(items))
        .map(|_| state())
        .collect::<Vec<_>>();
    let Some(own) = states.pop() else {
        return Vec::new();
    };
    // Relaxed: the counter only hands out indices; the results travel
    // back through `join`, which orders them.
    let next = AtomicUsize::new(0);
    let run = |mut state: S| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items {
                return done;
            }
            done.push((i, work(&mut state, i)));
        }
    };
    let run = &run;
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = states
            .into_iter()
            .map(|s| scope.spawn(move || run(s)))
            .collect();
        let mut done = run(own);
        for handle in spawned {
            match handle.join() {
                Ok(mut theirs) => done.append(&mut theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}
