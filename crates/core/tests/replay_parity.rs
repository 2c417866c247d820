//! Bitwise parity of the dense linear PrIU replay.
//!
//! The replay runs each iteration as one round of a lockstep region over
//! the `K` row ranges of the packed Gram (`SymvChunks`), with `K` a
//! function of `m` alone. Its result must therefore be bitwise identical
//! for every thread count on each SIMD level, and for the single-range
//! shapes (`K = 1`) it must be exactly the plain sequential replay, kept
//! here as an in-test copy. The region must also finish when the pool's
//! job slot is taken by another thread's job, and when the replay itself
//! runs inside a pool worker.
//!
//! The provenance the replay consumes is captured after the SGD recursion,
//! in one pool region over the iterations; every cache must be bitwise the
//! same for every thread count, and the same as capturing each batch
//! inline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use priu_core::capture::{GramCache, LinearIterationCache, LinearProvenance};
use priu_core::trainer::linear::train_linear;
use priu_core::update::priu_linear::priu_update_linear;
use priu_core::{Compression, DeletionEngine, Method, SessionBuilder, TrainerConfig};
use priu_data::catalog::Hyperparameters;
use priu_data::dataset::DenseDataset;
use priu_data::dirty::random_subsets;
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_linalg::simd::{self, SimdLevel};
use priu_linalg::{axpy_slices, par, SymvChunks, Vector};

const THREADS: [usize; 3] = [1, 2, 4];
const RATES: [f64; 3] = [0.0, 0.001, 0.2];

fn data(m: usize, n: usize) -> DenseDataset {
    generate_regression(&RegressionConfig {
        num_samples: n,
        num_features: m,
        noise_std: 0.1,
        seed: 300 + m as u64,
        ..Default::default()
    })
}

fn config(batch_size: usize, num_iterations: usize) -> TrainerConfig {
    TrainerConfig::from_hyper(Hyperparameters {
        batch_size,
        num_iterations,
        learning_rate: 0.002,
        regularization: 0.01,
    })
    .with_seed(17)
    .with_opt_capture(false)
    .with_compression(Compression::None)
}

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|x| x.to_bits()).collect()
}

/// The replay as one sequential loop, the way it ran before the Gram was
/// split into row ranges: apply the whole cache, accumulate the removed
/// rows in batch order, then the four-step update.
fn sequential_replay(data: &DenseDataset, p: &LinearProvenance, removed: &[usize]) -> Vec<f64> {
    let y = data.labels.as_continuous().unwrap();
    let mut removed = removed.to_vec();
    removed.sort_unstable();
    removed.dedup();
    let m = data.num_features();
    let (eta, lambda) = (p.learning_rate, p.regularization);
    let mut w = p.initial_model.weight().clone();
    let (mut s0, mut s1) = (Vec::new(), Vec::new());
    for (t, cache) in p.iterations.iter().enumerate() {
        let batch = p.schedule.batch(t);
        let gone: Vec<usize> = batch
            .into_iter()
            .filter(|i| removed.binary_search(i).is_ok())
            .collect();
        let b_u = cache.batch_size - gone.len();
        if b_u == 0 {
            w.scale_mut(1.0 - eta * lambda);
            continue;
        }
        let mut gw = vec![0.0; m];
        cache
            .gram
            .apply_into(&w, &mut gw, &mut s0, &mut s1)
            .unwrap();
        let (mut delta_gw, mut delta_xy) = (vec![0.0; m], vec![0.0; m]);
        for &i in &gone {
            let row = data.x.row(i);
            axpy_slices(&mut delta_gw, simd::dot(row, &w), row);
            axpy_slices(&mut delta_xy, y[i], row);
        }
        let scale = 2.0 * eta / b_u as f64;
        w.scale_add(1.0 - eta * lambda, -scale, &gw).unwrap();
        w.axpy(scale, &delta_gw).unwrap();
        w.axpy(scale, &cache.xy).unwrap();
        w.axpy(-scale, &delta_xy).unwrap();
    }
    w.as_slice().to_vec()
}

/// Runs the replay at every thread count on `level`, asserting one set of
/// bits, and returns it.
fn replay_on_every_thread_count(
    level: SimdLevel,
    data: &DenseDataset,
    p: &LinearProvenance,
    removed: &[usize],
    case: &str,
) -> Vec<f64> {
    let run = |threads| {
        simd::with_level(level, || {
            par::with_threads(threads, || {
                priu_update_linear(data, p, removed)
                    .unwrap()
                    .weight()
                    .as_slice()
                    .to_vec()
            })
        })
    };
    let first = run(THREADS[0]);
    assert!(first.iter().all(|v| v.is_finite()), "{case}: diverged");
    for threads in &THREADS[1..] {
        assert_eq!(
            bits(&run(*threads)),
            bits(&first),
            "{case}: threads {threads} vs {} ({level})",
            THREADS[0]
        );
    }
    first
}

#[test]
fn dense_replay_is_bitwise_equal_on_every_thread_count() {
    // (m, n, B, T): m = 8 and 64 are single-range shapes, m = 318 (the
    // SGEMM-extended width) splits into two ranges.
    for (m, n, b, t) in [(8, 1000, 50, 40), (64, 1000, 50, 30), (318, 1000, 100, 12)] {
        let data = data(m, n);
        let trained = train_linear(&data, &config(b, t)).unwrap();
        let p = &trained.provenance;
        let k = SymvChunks::new(m).count();
        assert_eq!(k, if m == 318 { 2 } else { 1 }, "m={m}");

        let mut removals: Vec<(String, Vec<usize>)> = RATES
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                let set = random_subsets(n, rate, 1, 40 + i as u64).remove(0);
                (format!("m={m} rate={rate}"), set)
            })
            .collect();
        // Every member of batch 1 removed: that iteration only shrinks.
        let mut whole = p.schedule.batch(1);
        whole.extend([2, 500, 999]);
        removals.push((format!("m={m} batch 1 removed"), whole));
        assert!(removals[1].1.len() == 1 && removals[2].1.len() == n / 5);

        for (case, removed) in &removals {
            for level in simd::available_levels() {
                let got = replay_on_every_thread_count(level, &data, p, removed, case);
                let want = simd::with_level(level, || sequential_replay(&data, p, removed));
                if k == 1 {
                    assert_eq!(bits(&got), bits(&want), "{case}: vs sequential ({level})");
                } else {
                    // Split ranges regroup the sums: equal to rounding only.
                    let scale = Vector::from_vec(want.clone()).norm2().max(1.0);
                    for (g, w) in got.iter().zip(&want) {
                        assert!((g - w).abs() <= 1e-10 * scale, "{case}: {g} vs {w}");
                    }
                }
            }
        }
    }
}

#[test]
fn chained_and_deflated_provenance_replay_bitwise_on_every_thread_count() {
    // A chained session (deletion propagation shrank the caches and the
    // schedule) at the two-range width, dense and truncated-then-deflated.
    let (m, n) = (318, 600);
    for compression in [Compression::None, Compression::Exact { rank: 40 }] {
        let session = SessionBuilder::dense(data(m, n), config(60, 10))
            .compression(compression)
            .opt_capture(false)
            .closed_form_capture(false)
            .fit()
            .unwrap();
        let first = random_subsets(n, 0.05, 1, 71).remove(0);
        let chained = session.apply(Method::Priu, &first).unwrap().session;
        let second = random_subsets(n - first.len(), 0.05, 1, 72).remove(0);
        for level in simd::available_levels() {
            let run = |threads| {
                simd::with_level(level, || {
                    par::with_threads(threads, || {
                        chained.update(Method::Priu, &second).unwrap().model
                    })
                })
            };
            let want = run(1);
            assert!(want.weight().iter().all(|v| v.is_finite()));
            for threads in [2, 4] {
                assert_eq!(
                    bits(run(threads).weight()),
                    bits(want.weight()),
                    "{compression:?} threads {threads} ({level})"
                );
            }
        }
    }
}

#[test]
fn replay_completes_when_the_pool_is_busy_or_it_runs_on_a_worker() {
    let (m, n) = (318, 800);
    let data = data(m, n);
    let trained = train_linear(&data, &config(100, 12)).unwrap();
    let p = &trained.provenance;
    let removed = random_subsets(n, 0.2, 1, 90).remove(0);
    let want = par::with_threads(1, || priu_update_linear(&data, p, &removed).unwrap());

    // Another thread keeps submitting multi-chunk jobs, taking the pool's
    // job slot while the replay's region is in flight.
    let stop = Arc::new(AtomicBool::new(false));
    let hog = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut jobs = 0u64;
            while !stop.load(Ordering::Relaxed) || jobs == 0 {
                par::with_threads(4, || {
                    par::run_chunks(16, |c| {
                        let mut x = c as f64;
                        for _ in 0..2000 {
                            x = std::hint::black_box(x * 1.000001 + 1.0);
                        }
                        std::hint::black_box(x);
                    })
                });
                jobs += 1;
            }
            jobs
        })
    };
    for _ in 0..20 {
        let got = par::with_threads(4, || priu_update_linear(&data, p, &removed).unwrap());
        assert_eq!(got, want, "replay under a busy pool");
    }
    stop.store(true, Ordering::Relaxed);
    assert!(hog.join().unwrap() > 0);

    // Replays as pool tasks: those on a worker run their region inline.
    let results = par::with_threads(4, || {
        par::run_tasks(
            (0..4)
                .map(|_| || priu_update_linear(&data, p, &removed).unwrap())
                .collect(),
        )
    });
    for got in results {
        assert_eq!(got, want, "replay nested in a pool task");
    }
}

/// Bit patterns of one iteration cache: the Gram's stored values, the
/// moment vector and the batch size.
fn cache_bits(cache: &LinearIterationCache) -> (Vec<u64>, Vec<u64>, usize) {
    let gram = match &cache.gram {
        GramCache::Dense(g) => bits(g.as_slice()),
        GramCache::Truncated(t) => [bits(t.p().as_slice()), bits(t.v().as_slice())].concat(),
        GramCache::Deflated { .. } => panic!("a fresh capture is never deflated"),
    };
    (gram, bits(cache.xy.as_slice()), cache.batch_size)
}

#[test]
fn trainer_captures_are_bitwise_equal_on_every_thread_count_and_to_an_inline_loop() {
    // (m, n, B, T, compression): single-chunk batches, a batch past the
    // kernels' 512-row chunk threshold (its Gram reduces two chunks inside
    // the region), truncated caches, and a capture small enough to run on
    // the calling thread alone.
    let cases = [
        (40, 600, 64, 40, Compression::None),
        (24, 1300, 600, 8, Compression::None),
        (32, 400, 50, 80, Compression::Exact { rank: 5 }),
        (8, 300, 40, 20, Compression::None),
    ];
    for level in simd::available_levels() {
        for &(m, n, b, t, compression) in &cases {
            let data = data(m, n);
            let y = data.labels.as_continuous().unwrap();
            let cfg = config(b, t).with_compression(compression);
            let runs: Vec<Vec<_>> = THREADS
                .iter()
                .map(|&threads| {
                    simd::with_level(level, || {
                        par::with_threads(threads, || {
                            let trained = train_linear(&data, &cfg).unwrap();
                            trained
                                .provenance
                                .iterations
                                .iter()
                                .map(cache_bits)
                                .collect()
                        })
                    })
                })
                .collect();
            // The inline loop: each batch's rows, labels and unit weights,
            // captured one after another on the calling thread.
            let provenance =
                simd::with_level(level, || train_linear(&data, &cfg).unwrap()).provenance;
            let inline: Vec<_> = simd::with_level(level, || {
                par::with_threads(1, || {
                    (0..t)
                        .map(|it| {
                            let batch = provenance.schedule.batch(it);
                            let rows = data.x.select_rows(&batch);
                            let y_batch: Vec<f64> = batch.iter().map(|&i| y[i]).collect();
                            let cache = LinearIterationCache {
                                gram: GramCache::build(&rows, &vec![1.0; batch.len()], compression)
                                    .unwrap(),
                                xy: rows.transpose_matvec(&y_batch).unwrap(),
                                batch_size: batch.len(),
                            };
                            cache_bits(&cache)
                        })
                        .collect()
                })
            });
            for (threads, run) in THREADS.iter().zip(&runs) {
                assert!(
                    *run == inline,
                    "captures at {threads} threads differ from the inline loop \
                     (m = {m}, B = {b}, {compression:?}, {level})"
                );
            }
        }
    }
}
