//! The persistent host worker pool backing every kernel launch.
//!
//! One process-wide pool, created lazily on the first parallel launch and
//! shared by every simulated [`crate::Gpu`], the primitives, and the CPU
//! baselines: at paper scale — tens of thousands of launches per job —
//! spawning threads per launch would dominate host-side wall clock.
//!
//! Determinism contract: [`run_indexed`] returns results **in task-index
//! order**, and nothing about scheduling leaks into outputs. Simulated
//! costs are integer sums, so kernel timing is bit-identical no matter how
//! many pool workers exist or how tasks interleave. `GPMR_WORKER_THREADS`
//! caps the pool size.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Condvar, Mutex, Once, OnceLock};

/// Default host parallelism per launch: `GPMR_WORKER_THREADS` if set to a
/// positive integer, else the machine's available parallelism.
pub fn worker_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("GPMR_WORKER_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(4)
            })
    })
}

/// A queued unit of work. Tasks are `'static` from the queue's point of
/// view; [`run_indexed`] guarantees the borrows behind that lifetime stay
/// valid until the task has reported completion.
type Task = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Pool {
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
}

impl Pool {
    fn submit(&self, tasks: impl IntoIterator<Item = Task>) {
        let mut q = self.queue.lock().unwrap();
        q.extend(tasks);
        drop(q);
        self.available.notify_all();
    }
}

thread_local! {
    /// True on pool worker threads: nested `run_indexed` calls from inside
    /// a task run inline rather than deadlocking on a saturated pool.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn worker_loop(pool: &'static Pool) {
    IS_POOL_WORKER.with(|f| f.set(true));
    loop {
        let task = {
            let mut q = pool.queue.lock().unwrap();
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = pool.available.wait(q).unwrap();
            }
        };
        // Tasks catch their own panics; this guard only keeps the worker
        // alive if a panic payload's Drop impl itself panics.
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static STARTED: Once = Once::new();
    let pool = POOL.get_or_init(Pool::default);
    STARTED.call_once(|| {
        for i in 0..worker_threads() {
            std::thread::Builder::new()
                .name(format!("gpmr-pool-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("failed to spawn pool worker");
        }
    });
    pool
}

/// Run `f(0..n)` on the persistent pool, returning the results in index
/// order. Panics in `f` are re-raised on the caller after every task has
/// finished. Calls from inside a pool task (or with `n <= 1`) run inline.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n <= 1 || IS_POOL_WORKER.with(|flag| flag.get()) {
        return (0..n).map(f).collect();
    }

    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
    let f = &f;
    let tasks = (0..n).map(|i| {
        let tx = tx.clone();
        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| f(i)));
            // The caller only hangs up after draining all n messages, so
            // this send cannot fail while the task is alive.
            let _ = tx.send((i, result));
        });
        // SAFETY: the task borrows `f` and `tx` from this stack frame. The
        // drain loop below does not return (or unwind) until it has
        // received one completion message per submitted task, so every
        // borrow strictly outlives the task's execution.
        unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) }
    });
    global().submit(tasks);

    let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (i, result) = rx.recv().expect("pool worker disconnected");
        slots[i] = Some(result);
    }

    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot.expect("pool task completed twice or not at all") {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(64, |i| {
            // Stagger finish times so out-of-order completion is likely.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let out = run_indexed(worker_threads() * 4, |i| {
            run_indexed(8, move |j| i * 8 + j).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..worker_threads() * 4)
            .map(|i| (0..8).map(|j| i * 8 + j).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "task 13 exploded")]
    fn panics_propagate_to_the_caller() {
        run_indexed(32, |i| {
            if i == 13 {
                panic!("task 13 exploded");
            }
            i
        });
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(16, |i| {
                if i % 2 == 0 {
                    panic!("even tasks fail");
                }
                i
            })
        });
        assert!(result.is_err());
        // The pool still works after the panic.
        assert_eq!(run_indexed(16, |i| i), (0..16).collect::<Vec<_>>());
    }
}
