//! Who owns a core: the one place the workspace reads the machine's
//! size, and the rule by which concurrent callers divide it.
//!
//! A lone `TreeGrape` may size itself for the whole machine — producer
//! threads for its plan, a thread per board for a long force call,
//! sort threads. K cluster shards or W service workers in one process
//! may not: each would spawn for cores the others are already using.
//! So every long-lived compute thread registers itself with [`enter`]
//! for as long as it computes, and every site that used to ask for the
//! machine asks for its [`share`] instead: `total / callers`, at least
//! one. With as many callers as cores every one of them runs the
//! one-core path — inline plan, boards in turn, serial sort — and
//! spawns nothing.
//!
//! Equal shares, no tokens: a share is read, never taken, so there is
//! nothing to hand back, nothing to leak and nothing to wait for. The
//! count can be stale by the time it is used and may over-count (a
//! parent blocked in `thread::scope` while its registered children run
//! still counts); both err towards fewer threads, and no result
//! depends on the answer — every site that reads it is
//! schedule-invariant.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Registered callers. `Relaxed` throughout: the count sizes thread
/// pools and publishes no other data.
static CALLERS: AtomicUsize = AtomicUsize::new(0);

/// Cores the process may use: `available_parallelism`, resolved on
/// first use and fixed for the life of the process (on Linux every call
/// re-reads the cgroup files, ≈ 20 µs — too much per sort or stream).
/// A CPU-affinity change after the first call is not seen.
pub fn total() -> usize {
    static TOTAL: OnceLock<usize> = OnceLock::new();
    *TOTAL.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// Registration of one long-lived compute thread; leaves the count
/// when dropped, also by a panic's unwinding. Not tied to the thread
/// that made it: a parent may register its children before it spawns
/// them — every child then sees all of its siblings from its first
/// instruction — and release each one as it joins it.
#[derive(Debug)]
#[must_use = "a caller counts only while the guard is alive"]
pub struct Caller(());

impl Drop for Caller {
    fn drop(&mut self) {
        CALLERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Register a compute thread that shares the process with others: a
/// service worker while it has a job, a cluster shard thread while it
/// evaluates. Threads that never enter are not counted, except that a
/// process with no registered caller counts as one (its main thread).
pub fn enter() -> Caller {
    CALLERS.fetch_add(1, Ordering::Relaxed);
    Caller(())
}

/// The cores *this* caller may size itself for: an equal share of
/// [`total`] among the registered callers, never less than one.
pub fn share() -> usize {
    share_of(total(), CALLERS.load(Ordering::Relaxed))
}

fn share_of(total: usize, callers: usize) -> usize {
    (total / callers.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_shares_never_less_than_one() {
        assert_eq!([0, 1, 2, 3, 8, 20].map(|c| share_of(8, c)), [8, 8, 4, 2, 1, 1]);
        assert_eq!([0, 1, 2].map(|c| share_of(1, c)), [1, 1, 1]);
    }

    // One test owns the process-wide count: nothing else in this test
    // binary enters.
    #[test]
    fn guards_nest_drop_in_any_order_and_survive_a_panic() {
        let callers = || CALLERS.load(Ordering::Relaxed);
        assert_eq!(callers(), 0);
        assert_eq!(share(), total());
        let a = enter();
        let b = enter();
        let c = enter();
        assert_eq!(callers(), 3);
        assert_eq!(share(), share_of(total(), 3));
        drop(a);
        drop(c);
        assert_eq!(callers(), 1);
        // a guard entered here may leave on another thread
        std::thread::spawn(move || drop(b)).join().unwrap();
        assert_eq!(callers(), 0);
        let panicked = std::thread::spawn(|| {
            let _me = enter();
            assert_eq!(CALLERS.load(Ordering::Relaxed), 1);
            panic!("a caller that dies still leaves the count");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(callers(), 0);
        // resolved once: every thread sees the same machine
        assert_eq!(std::thread::spawn(total).join().unwrap(), total());
    }
}
