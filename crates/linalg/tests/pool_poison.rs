//! Worker-panic poisoning of the persistent pool.
//!
//! This test deliberately panics inside a chunk closure *on a worker
//! thread* and asserts the documented poisoning contract. It lives in its
//! own integration-test binary (its own process) so the poisoned global
//! pool cannot leak into unrelated tests.

use std::panic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use priu_linalg::{par, Matrix};

/// Whether the current thread is one of the pool's workers (they are
/// spawned with a fixed name).
fn on_worker_thread() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|name| name.starts_with("priu-par-worker"))
}

#[test]
fn worker_panic_poisons_the_pool_and_shutdown_clears_it() {
    let worker_panicked = AtomicBool::new(false);

    // Submit a job with many chunks. The submitting thread parks inside its
    // first chunk until a worker has panicked (or a timeout passes), which
    // guarantees the panic happens on a worker thread, not the submitter.
    let result = panic::catch_unwind(|| {
        par::with_threads(4, || {
            par::run_chunks(64, |_c| {
                if on_worker_thread() {
                    worker_panicked.store(true, Ordering::SeqCst);
                    panic!("deliberate worker panic (poisoning test)");
                }
                // Submitter: wait for the poison to land so we never finish
                // the job before a worker had the chance to panic.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !par::pool_is_poisoned() && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            });
        })
    });

    assert!(
        worker_panicked.load(Ordering::SeqCst),
        "test setup: no chunk ever ran on a worker thread"
    );
    // The submitting call itself reports the poison as a panic...
    let payload = result.expect_err("a poisoned job must panic on the submitter");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("poisoned") && message.contains("deliberate worker panic"),
        "unexpected poison message: {message:?}"
    );
    assert!(par::pool_is_poisoned());

    // ...and every later multi-chunk call fails loudly instead of computing
    // on a broken pool.
    let a = Matrix::from_fn(1100, 16, |i, j| (i + j) as f64);
    let x = vec![1.0; 16];
    let later = panic::catch_unwind(|| par::with_threads(4, || a.matvec(&x).unwrap()));
    assert!(
        later.is_err(),
        "multi-chunk kernels must refuse a poisoned pool"
    );

    // Inline paths are unaffected: single-thread calls never touch the pool.
    let serial = par::with_threads(1, || a.matvec(&x).unwrap());

    // Shutdown clears the poison and the pool restarts cleanly.
    par::shutdown_pool();
    assert!(!par::pool_is_poisoned());
    assert_eq!(par::pool_workers(), 0);
    let parallel = par::with_threads(4, || a.matvec(&x).unwrap());
    assert_eq!(serial, parallel, "restarted pool must compute correct bits");

    worker_panic_inside_a_lockstep_region_poisons_the_pool();
}

/// A lockstep region is one pool job, so a chunk that panics on a worker
/// poisons the pool under the same contract, and the participants waiting
/// for the round it never finishes give up instead of hanging.
fn worker_panic_inside_a_lockstep_region_poisons_the_pool() {
    let worker_panicked = AtomicBool::new(false);
    let mut state = 0usize;
    let mut partials = vec![0.0; 4];
    let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        par::with_threads(4, || {
            par::run_lockstep(
                50,
                4,
                &mut state,
                &mut partials,
                |_t, _c, _state, _partial| {
                    if on_worker_thread() {
                        worker_panicked.store(true, Ordering::SeqCst);
                        panic!("deliberate worker panic in a region");
                    }
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !par::pool_is_poisoned() && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                },
                |_t, state, _partials| *state += 1,
            )
        })
    }));
    assert!(
        worker_panicked.load(Ordering::SeqCst),
        "test setup: no region chunk ever ran on a worker thread"
    );
    let payload = result.expect_err("a poisoned region must panic on the caller");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("poisoned") && message.contains("deliberate worker panic in a region"),
        "unexpected poison message: {message:?}"
    );
    assert!(state < 50, "the aborted region cannot have finished");
    assert!(par::pool_is_poisoned());
    par::shutdown_pool();
    assert!(!par::pool_is_poisoned());

    // The restarted pool runs regions again.
    let mut state = 0usize;
    par::with_threads(4, || {
        par::run_lockstep(
            50,
            4,
            &mut state,
            &mut [0.0; 4],
            |_, _, _, _| {},
            |_, s, _| *s += 1,
        )
    });
    assert_eq!(state, 50);
}
