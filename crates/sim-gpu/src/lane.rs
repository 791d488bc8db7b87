//! The product's one use of a second core: two halves of host work, one
//! on the calling thread and one on a scoped helper, joined here.
//!
//! A split launch (`kernel::run_blocks`) and the Sort stage's lane
//! (`gpmr-core`'s `Run::sort_reduce`) call [`join`]; neither starts a
//! thread of its own. Every simulated charge stays on the calling thread,
//! so nothing the helper runs can move a simulated number.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `upper` on one scoped helper thread and `lower` on the calling
/// thread, and return `(lower's result, upper's result)` once both have
/// finished. A panic in either half resumes on the calling thread after
/// both have stopped; when both panic, the helper's payload wins, since
/// a caller that waits on its helper (the sort lane) panics only because
/// the helper died first.
pub fn join<A, B: Send>(lower: impl FnOnce() -> A, upper: impl FnOnce() -> B + Send) -> (A, B) {
    std::thread::scope(|s| {
        let upper = s.spawn(upper);
        let lower = catch_unwind(AssertUnwindSafe(lower));
        match (lower, upper.join()) {
            (Ok(lower), Ok(upper)) => (lower, upper),
            (_, Err(panic)) | (Err(panic), _) => std::panic::resume_unwind(panic),
        }
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use std::time::Duration;

    use super::*;

    /// The payload `f` panicked with, which must be a `&'static str`.
    fn payload<T>(f: impl FnOnce() -> T) -> &'static str {
        let panic = catch_unwind(AssertUnwindSafe(f)).err().expect("a panic");
        *panic.downcast::<&'static str>().expect("a string payload")
    }

    #[test]
    fn returns_lower_then_upper_and_runs_upper_off_the_calling_thread() {
        let caller = thread::current().id();
        let (lower, upper) = join(|| thread::current().id(), || thread::current().id());
        assert_eq!(lower, caller);
        assert_ne!(upper, caller);
        assert_eq!(join(|| "lower", || 2u8), ("lower", 2));
    }

    #[test]
    fn a_panic_in_the_upper_half_resumes_with_its_payload() {
        assert_eq!(payload(|| join(|| 1, || panic!("upper"))), "upper");
    }

    #[test]
    fn a_panic_in_the_lower_half_resumes_after_the_upper_half_finished() {
        let finished = AtomicBool::new(false);
        let got = payload(|| {
            join(
                || panic!("lower"),
                || {
                    thread::sleep(Duration::from_millis(20));
                    finished.store(true, Ordering::SeqCst);
                },
            )
        });
        assert_eq!(got, "lower");
        assert!(
            finished.load(Ordering::SeqCst),
            "resumed before the helper finished"
        );
    }

    #[test]
    fn when_both_halves_panic_the_helpers_payload_wins() {
        let got = payload(|| join(|| panic!("lower"), || panic!("upper")));
        assert_eq!(got, "upper");
    }
}
