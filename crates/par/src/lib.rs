//! Deterministic data-parallel primitives for the reproduction
//! pipeline.
//!
//! Everything here obeys one rule, stated in `DESIGN.md`: **parallelism
//! must never change results**. Work is distributed dynamically across
//! threads, but results are merged back in input order, so the output
//! of every helper is a pure function of its inputs — byte-identical
//! whether run on 1 thread or 64.
//!
//! The thread budget is a process-wide setting ([`set_max_threads`]),
//! defaulting to the machine's available parallelism. Helpers fall back
//! to plain sequential execution when the budget is 1 or the input is
//! trivially small, so single-threaded runs pay no synchronization
//! cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod executor;

pub use cache::{CacheOutcome, CacheStats, MemoCache};
pub use executor::Executor;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;

/// Sentinel meaning "not configured yet" (resolve to the hardware).
const UNSET: usize = 0;

static MAX_THREADS: AtomicUsize = AtomicUsize::new(UNSET);

/// Sets the process-wide thread budget for all `sc-par` helpers.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn set_max_threads(n: usize) {
    assert!(n > 0, "thread budget must be at least 1");
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The current thread budget: the value of the last
/// [`set_max_threads`] call, or the machine's available parallelism if
/// never configured.
pub fn current_threads() -> usize {
    match MAX_THREADS.load(Ordering::Relaxed) {
        UNSET => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Inputs below this size run sequentially regardless of the budget —
/// thread startup costs more than the work.
const MIN_PARALLEL_ITEMS: usize = 4;

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Items are claimed dynamically (an atomic cursor, not static chunks),
/// so uneven item costs balance across threads; each result lands in
/// its item's slot, so the returned `Vec` is identical to
/// `items.iter().map(f).collect()` for any thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = current_threads().min(items.len());
    if threads <= 1 || items.len() < MIN_PARALLEL_ITEMS {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (cursor, f) = (&cursor, &f);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        slots.into_iter().map(|r| r.expect("every index is claimed exactly once")).collect()
    })
}

/// Shared-channel capacity per worker for [`par_stream`]: the channel
/// holds at most `threads * STREAM_CHANNEL_CAP` results in transit.
const STREAM_CHANNEL_CAP: usize = 64;

/// Streaming variant of [`par_map`]: maps `f` over `items` in parallel
/// and delivers each result to `consume` **in input order**, without
/// ever materializing the full result vector.
///
/// Workers claim items dynamically and send `(index, result)` pairs
/// into one bounded [`mpsc::sync_channel`]; the calling thread blocks
/// on the receiver and restores input order through a reorder buffer.
/// The channel bounds results in transit to
/// `threads * STREAM_CHANNEL_CAP`. The reorder buffer is not bounded
/// by it: every arrival is drained into the buffer, which holds the
/// results that finished ahead of the oldest unfinished item. Peak
/// memory is O(aggregate state) + O(channel bound) + that reorder
/// backlog, never the full O(items) result vector of [`par_map`]
/// unless a single item stalls while every other one finishes.
///
/// `consume` observes exactly the sequence
/// `(0, f(&items[0])), (1, f(&items[1])), …` for any thread budget —
/// the same determinism contract as [`par_map`]. A panic in `f` is
/// re-raised on the calling thread.
pub fn par_stream<T, R, F, C>(items: &[T], f: F, mut consume: C)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    C: FnMut(usize, R),
{
    let threads = current_threads().min(items.len());
    if threads <= 1 || items.len() < MIN_PARALLEL_ITEMS {
        for (i, item) in items.iter().enumerate() {
            consume(i, f(item));
        }
        return;
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::sync_channel::<(usize, R)>(threads * STREAM_CHANNEL_CAP);
    let mut pending: BTreeMap<usize, R> = BTreeMap::new();
    let mut next = 0usize;
    thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (cursor, f) = (&cursor, &f);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        // The receiver is moved in here so that a panicking `consume`
        // drops it and unblocks every worker stuck in send(). The loop
        // ends once every worker has dropped its sender, including one
        // that panicked mid-item; the scope join then re-raises it.
        for (i, result) in rx {
            pending.insert(i, result);
            while let Some(result) = pending.remove(&next) {
                consume(next, result);
                next += 1;
            }
        }
    });
    // Reached only when no worker panicked (the scope join re-raises
    // worker panics), so every index must have been delivered.
    assert!(next == items.len() && pending.is_empty(), "par_stream lost in-flight results");
}

/// Runs heterogeneous one-shot tasks on the thread budget.
///
/// Tasks communicate results by capturing their own output slot
/// (`&mut Option<T>`), which keeps this free of `Any`-casting while
/// still bounding concurrency — unlike spawning one thread per task.
/// Execution order is unspecified; completion is awaited for all tasks.
pub fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let threads = current_threads().min(tasks.len());
    if threads <= 1 {
        for task in tasks {
            task();
        }
        return;
    }

    let queue = Mutex::new(tasks.into_iter());
    thread::scope(|scope| {
        for _ in 0..threads {
            let queue = &queue;
            scope.spawn(move || loop {
                let task = queue.lock().expect("task queue poisoned").next();
                match task {
                    Some(task) => task(),
                    None => break,
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the process-wide thread budget.
    static BUDGET_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        let expected: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, expected);
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        assert_eq!(par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_matches_sequential_for_any_budget() {
        let items: Vec<u64> = (0..257).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9e37)).collect();
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        for budget in [1, 2, 3, 8] {
            set_max_threads(budget);
            assert_eq!(par_map(&items, |&x| x.wrapping_mul(0x9e37)), sequential);
        }
        set_max_threads(saved);
    }

    #[test]
    fn par_stream_delivers_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let mut seen = Vec::new();
        par_stream(&items, |&x| x * 3, |i, r| seen.push((i, r)));
        let expected: Vec<(usize, u64)> =
            items.iter().enumerate().map(|(i, &x)| (i, x * 3)).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn par_stream_handles_empty_and_tiny_inputs() {
        let mut count = 0;
        par_stream(&[] as &[u64], |&x| x, |_, _| count += 1);
        assert_eq!(count, 0);
        let mut out = Vec::new();
        par_stream(&[5u64], |&x| x + 1, |i, r| out.push((i, r)));
        assert_eq!(out, vec![(0, 6)]);
    }

    #[test]
    fn par_stream_matches_sequential_for_any_budget() {
        // Uneven per-item cost so workers genuinely race out of order.
        let items: Vec<u64> = (0..300).collect();
        let work = |&x: &u64| {
            let spin = (x % 7) * 10;
            let mut acc = x;
            for _ in 0..spin {
                acc = std::hint::black_box(acc.wrapping_mul(0x9e37).rotate_left(7));
            }
            acc
        };
        let mut sequential = Vec::new();
        for (i, item) in items.iter().enumerate() {
            sequential.push((i, work(item)));
        }
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        for budget in [1, 2, 3, 8] {
            set_max_threads(budget);
            let mut seen = Vec::new();
            par_stream(&items, work, |i, r| seen.push((i, r)));
            assert_eq!(seen, sequential, "budget {budget}");
        }
        set_max_threads(saved);
    }

    #[test]
    fn par_stream_propagates_a_worker_panic() {
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        set_max_threads(2);
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            // Enough items to fill the channel, so workers are blocked
            // in send() when the consumer panics.
            let items: Vec<u64> = (0..10_000).collect();
            let in_worker = std::panic::catch_unwind(|| {
                par_stream(
                    &items,
                    |&x| {
                        assert!(x != 37, "injected worker panic");
                        x
                    },
                    |_, _| {},
                )
            });
            let in_consumer = std::panic::catch_unwind(|| {
                par_stream(&items, |&x| x, |i, _| assert!(i != 37, "injected consumer panic"))
            });
            tx.send((in_worker.is_err(), in_consumer.is_err())).expect("test thread waits");
        });
        let panicked = rx.recv_timeout(std::time::Duration::from_secs(30));
        set_max_threads(saved);
        assert_eq!(panicked, Ok((true, true)), "a panic is re-raised, not hung on or swallowed");
    }

    #[test]
    fn run_tasks_completes_all_tasks() {
        let mut a = None;
        let mut b = None;
        let mut c = None;
        run_tasks(vec![
            Box::new(|| a = Some(1)),
            Box::new(|| b = Some("two")),
            Box::new(|| c = Some(3.0)),
        ]);
        assert_eq!((a, b, c), (Some(1), Some("two"), Some(3.0)));
    }

    #[test]
    fn thread_budget_round_trips() {
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        set_max_threads(5);
        assert_eq!(current_threads(), 5);
        set_max_threads(saved);
    }
}
