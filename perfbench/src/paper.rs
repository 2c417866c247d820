//! `paper-linear`: the paper's Fig. 1b comparison on the SGEMM (extended)
//! analogue, calling `priu-core` directly. One fit, then an interleaved
//! schedule of removal sets at four rates, each answered by PrIU, PrIU-opt,
//! BaseL retraining and the closed-form update on the same session.

use std::time::Instant;

use priu_core::{
    compare_models, Compression, DeletionEngine, Method, Session, SessionBuilder, TrainerConfig,
};
use priu_data::catalog::DatasetCatalog;
use priu_data::dirty::random_subsets;
use priu_rng::Rng64;

use crate::probe;
use crate::report::{median, percentile, Outcome, METHODS, RATES};
use crate::trace::Tracer;
use crate::Params;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Single-row predicts timed on the PrIU model after each removal set.
const PREDICTS_PER_SET: usize = 256;
/// The PrIU model must stay this close to BaseL on every set.
const PRIU_SIMILARITY_FLOOR: f64 = 0.9999;

const ORDER: [Method; 4] = [
    Method::Priu,
    Method::PriuOpt,
    Method::Retrain,
    Method::ClosedForm,
];

fn method_index(method: Method) -> usize {
    ORDER
        .iter()
        .position(|&m| m == method)
        .expect("only the four compared methods run")
}

pub fn run(params: &Params, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spec = DatasetCatalog::sgemm_extended().scaled(0.25 * params.scale);
    spec.seed = params.seed;
    let data = spec
        .generate()
        .as_dense()
        .expect("SGEMM is a dense dataset")
        .clone();
    let (n, m) = (data.num_samples(), data.num_features());
    let config = TrainerConfig::from_hyper(spec.hyper)
        .with_seed(params.seed ^ 0xA11CE)
        .with_compression(Compression::None)
        .with_opt_capture(true);

    // Offline phase, several times: fit + provenance capture.
    let mut setup_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut session: Option<Session> = None;
    for i in 0..SETUPS {
        drop(session.take());
        let input = data.clone();
        let start = Instant::now();
        let fitted = SessionBuilder::dense(input, config)
            .closed_form_capture(true)
            .fit()
            .map_err(|e| format!("fit: {e}"))?;
        let end = Instant::now();
        tracer.record("fit", start, end, None, i as u64);
        setup_s.push((end - start).as_secs_f64());
        fit_s.push(fitted.training_time().as_secs_f64());
        session = Some(fitted);
    }
    let session = session.expect("at least one setup");
    out.set("setup_s", median(&mut setup_s));
    out.set("core.fit_s", median(&mut fit_s));
    out.set(
        "core.provenance_mb",
        session.provenance_bytes() as f64 / (1 << 20) as f64,
    );
    for method in ORDER {
        out.check(session.supports(method), || {
            format!("session does not support {method}")
        });
    }

    if tracer.enabled() {
        let spent = probe::kernel_probes(&mut out, &data.x);
        tracer.record_ending("kernel", spent, Instant::now(), None, 0);
        let mean_rate = RATES.iter().map(|(r, _)| r).sum::<f64>() / RATES.len() as f64;
        out.set(
            "linalg.priu_replay_flops",
            probe::priu_replay_flops(
                spec.hyper.num_iterations,
                m,
                spec.hyper.batch_size as f64 * mean_rate,
            ),
        );
    }

    // The schedule: blocks of one set per rate in seeded order, until the
    // run time is up. Whole blocks only, so every rate has the same count.
    let mut rng = Rng64::from_seed_stream(params.seed, 0x5C4E);
    let predict_rows: Vec<usize> = (0..PREDICTS_PER_SET).map(|_| rng.index(n)).collect();
    // times[method][rate] in seconds; similarity[method] minimum vs BaseL.
    let mut times = vec![vec![Vec::new(); RATES.len()]; ORDER.len()];
    let mut similarity = [f64::INFINITY; 4];
    let mut rows_removed = [usize::MAX; 4];
    let mut predicts = Vec::new();
    let mut sets = 0u64;
    let cpu_start = probe::process_cpu_s();
    let host_start = probe::host_ticks();
    let run_start = Instant::now();
    while sets == 0 || run_start.elapsed().as_secs_f64() < params.seconds {
        let mut block: Vec<usize> = (0..RATES.len()).collect();
        rng.shuffle(&mut block);
        for r in block {
            let (rate, label) = RATES[r];
            let removed = random_subsets(n, rate, 1, rng.next_u64()).remove(0);
            rows_removed[r] = rows_removed[r].min(removed.len());
            let mut methods = ORDER;
            rng.shuffle(&mut methods);
            let set_start = Instant::now();
            let mut models = [None, None, None, None];
            for method in methods {
                out.attempted += 1;
                let start = Instant::now();
                let result = session.update(method, &removed);
                let end = Instant::now();
                tracer.record("update", start, end, Some("set"), sets);
                match result {
                    Ok(outcome) => {
                        out.check(
                            outcome.num_removed == removed.len() && outcome.model.is_finite(),
                            || format!("{method} at {label}: bad outcome"),
                        );
                        times[method_index(method)][r].push((end - start).as_secs_f64());
                        models[method_index(method)] = Some(outcome.model);
                    }
                    Err(err) => out.fail(format!("{method} at {label}: {err}")),
                }
            }
            if let [Some(priu), Some(priu_opt), Some(basel), Some(closed)] = &models {
                for (i, model) in [(0, priu), (1, priu_opt), (3, closed)] {
                    let cos =
                        compare_models(basel, model).map_or(f64::NAN, |c| c.cosine_similarity);
                    similarity[i] = similarity[i].min(cos);
                    if i == 0 {
                        out.check(cos >= PRIU_SIMILARITY_FLOOR, || {
                            format!("PrIU cosine to BaseL {cos} at {label}")
                        });
                    }
                }
                // Predicts on the updated model: the call the server's
                // predict path makes on a snapshot.
                for &row in &predict_rows {
                    let features = data.x.row(row);
                    let start = Instant::now();
                    std::hint::black_box(priu.predict_linear(std::hint::black_box(features)));
                    let end = Instant::now();
                    tracer.record("predict", start, end, Some("set"), sets);
                    predicts.push((end - start).as_secs_f64() * 1e6);
                }
            }
            tracer.record("set", set_start, Instant::now(), None, sets);
            sets += 1;
        }
    }
    let cpu_s = probe::process_cpu_s() - cpu_start;
    out.set("host.steal_frac", probe::steal_frac_since(host_start));

    for (r, (_, label)) in RATES.iter().enumerate() {
        out.check(rows_removed[r] >= 1, || {
            format!("no rows removed at {label}")
        });
        out.set(
            &format!("core.rows_removed.{label}"),
            rows_removed[r] as f64,
        );
        for (k, method) in METHODS.iter().enumerate() {
            let p50 = median(&mut times[k][r].clone()) * 1e3;
            out.set(&format!("core.update_p50_ms.{method}.{label}"), p50);
        }
    }
    for (k, method) in METHODS.iter().enumerate() {
        let total: f64 = times[k].iter().flatten().sum();
        let count = times[k].iter().map(Vec::len).sum::<usize>();
        out.set(
            &format!("{method}_updates_per_s"),
            if total > 0.0 {
                count as f64 / total
            } else {
                0.0
            },
        );
    }
    out.set("core.similarity_min.priu", similarity[0]);
    out.set("core.similarity_min.priu_opt", similarity[1]);
    out.set("core.similarity_min.closed_form", similarity[3]);
    out.set("similarity_min", similarity[0].min(similarity[1]));

    let mut priu: Vec<f64> = times[0].iter().flatten().map(|s| s * 1e3).collect();
    out.set("delete_ack_p50_ms", median(&mut priu));
    out.set("update_ms_p50", out.get("delete_ack_p50_ms"));
    out.set("delete_ack_p95_ms", percentile(&mut priu, 95.0));
    out.set("predict_p50_us", median(&mut predicts));
    out.set("predict_p95_us", percentile(&mut predicts, 95.0));
    out.set("cpu_us_per_op", cpu_s * 1e6 / out.attempted.max(1) as f64);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}
