//! A resident request executor for long-running services.
//!
//! [`par_map`](crate::par_map) and friends are *batch* helpers: they
//! spawn scoped workers, drain one input slice, and join. A query
//! service needs the opposite shape — a resident pool that accepts
//! one-shot requests from many client threads over its whole lifetime.
//! [`Executor`] provides that:
//!
//! - Submitted tasks go into one shared FIFO queue (an
//!   [`mpsc::channel`]); whichever worker is free takes the next one,
//!   so a long task never holds back the tasks queued behind it.
//! - Idle workers block in `recv` (or on the mutex around the shared
//!   receiver), so wakeups are prompt and an idle pool burns no CPU.
//! - Tasks are opaque `FnOnce` boxes; result delivery is the caller's
//!   business (the serving layer pairs each task with a channel).
//!
//! The executor never promises an execution *order* — services built on
//! it must make each task a pure function of its own inputs, which is
//! exactly the contract the memoization layer ([`crate::cache`])
//! enforces for query results.

use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// One submitted unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A resident pool of worker threads executing submitted one-shot
/// tasks; see the module docs for the scheduling discipline.
///
/// Dropping the executor shuts the pool down: workers finish every
/// already-submitted task, then exit and are joined.
pub struct Executor {
    /// The queue's sending half; `None` only inside [`Drop`].
    tasks: Option<mpsc::Sender<Task>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("workers", &self.workers.len()).finish_non_exhaustive()
    }
}

impl Executor {
    /// A pool of exactly `threads` workers (at least 1).
    pub fn new(threads: usize) -> Executor {
        let (tx, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = rx.clone();
                thread::Builder::new()
                    .name(format!("sc-serve-worker-{i}"))
                    .spawn(move || loop {
                        // The guard is a temporary, released before the
                        // task runs; recv fails once the sender is gone
                        // and the queue is drained.
                        let task = rx.lock().expect("task queue poisoned").recv();
                        match task {
                            Ok(task) => task(),
                            Err(mpsc::RecvError) => break,
                        }
                    })
                    .expect("worker thread spawns")
            })
            .collect();
        Executor { tasks: Some(tx), workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits one task for asynchronous execution.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        let tasks = self.tasks.as_ref().expect("sender lives until drop");
        // Send fails only once every worker has died of a panicking
        // task; the dropped task then drops whatever result channel it
        // captured, so its caller sees a disconnect instead of hanging.
        let _ = tasks.send(Box::new(task));
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Closing the queue lets each worker drain what was submitted
        // and then exit.
        drop(self.tasks.take());
        let current = thread::current().id();
        for worker in self.workers.drain(..) {
            // A task that owns the last reference to a service can end
            // up dropping the executor *from* a worker thread; joining
            // that thread would deadlock, so it is detached instead.
            if worker.thread().id() != current {
                worker.join().expect("worker thread exits cleanly");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_every_submitted_task() {
        let exec = Executor::new(4);
        let count = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for i in 0..1000u64 {
            let count = count.clone();
            let tx = tx.clone();
            exec.spawn(move || {
                count.fetch_add(i, Ordering::Relaxed);
                tx.send(()).expect("receiver alive");
            });
        }
        for _ in 0..1000 {
            rx.recv_timeout(Duration::from_secs(10)).expect("task completes");
        }
        assert_eq!(count.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn single_worker_pool_still_drains() {
        let exec = Executor::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u32 {
            let tx = tx.clone();
            exec.spawn(move || tx.send(i).expect("receiver alive"));
        }
        let mut seen: Vec<u32> = (0..100)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).expect("task completes"))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn one_blocked_task_does_not_hold_back_the_rest() {
        // One long task pins the worker that took it; the burst queued
        // behind it must complete anyway on the other workers.
        let exec = Executor::new(4);
        let (tx, rx) = mpsc::channel();
        let blocker = Arc::new(Mutex::new(()));
        let held = blocker.lock().expect("test lock");
        for i in 0..64u32 {
            let tx = tx.clone();
            if i == 0 {
                let blocker = blocker.clone();
                exec.spawn(move || {
                    let _wait = blocker.lock().expect("test lock");
                    tx.send(i).expect("receiver alive");
                });
            } else {
                exec.spawn(move || tx.send(i).expect("receiver alive"));
            }
        }
        // All short tasks finish while task 0 is still blocked.
        let mut done = Vec::new();
        for _ in 0..63 {
            done.push(rx.recv_timeout(Duration::from_secs(10)).expect("queued task completes"));
        }
        assert!(!done.contains(&0));
        drop(held);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).expect("blocked task completes"), 0);
    }

    #[test]
    fn drop_finishes_submitted_tasks() {
        let count = Arc::new(AtomicU64::new(0));
        {
            let exec = Executor::new(2);
            for _ in 0..200 {
                let count = count.clone();
                exec.spawn(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(count.load(Ordering::Relaxed), 200, "drop drains the queue before joining");
    }

    #[test]
    fn executor_dropped_from_its_own_worker_detaches() {
        let exec = Arc::new(Executor::new(2));
        let last_ref = Arc::downgrade(&exec);
        let (tx, rx) = mpsc::channel();
        let owned = exec.clone();
        exec.spawn(move || {
            // Wait until the test has let go, so this task holds the
            // last reference and runs the executor's Drop itself.
            while Arc::strong_count(&owned) > 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(owned);
            tx.send(()).expect("receiver alive");
        });
        drop(exec);
        rx.recv_timeout(Duration::from_secs(10)).expect("task finishes without joining itself");
        assert!(last_ref.upgrade().is_none(), "the task dropped the last reference");
    }
}
