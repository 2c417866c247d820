//! Regression test for fits whose full-data Gram matrix `XᵀX` is rank
//! deficient (fewer samples than features). The PrIU-opt capture
//! eigendecomposes `XᵀX`; its implicit-shift QL must deflate the couplings
//! inside the cluster of zero eigenvalues, which a deflation test relative
//! to the neighbouring diagonal entries never does.
//!
//! The shape is Fig. 1b's SGEMM (extended) analogue shrunk to 250 × 318 —
//! the `reproduce fig1b --scale 0.0125` configuration.

use priu_core::engine::{DeletionEngine, Method, SessionBuilder};
use priu_core::metrics::compare_models;
use priu_core::{Compression, TrainerConfig};
use priu_data::catalog::DatasetCatalog;
use priu_data::dirty::random_subsets;

#[test]
fn opt_capture_fits_when_samples_are_fewer_than_features() {
    let spec = DatasetCatalog::sgemm_extended().scaled(0.0125);
    let data = spec
        .generate()
        .as_dense()
        .expect("SGEMM is a dense dataset")
        .clone();
    let (n, m) = (data.num_samples(), data.num_features());
    assert_eq!((n, m), (250, 318), "the shape under test has n < m");
    let config = TrainerConfig::from_hyper(spec.hyper)
        .with_seed(7)
        .with_compression(Compression::None)
        .with_opt_capture(true);
    let session = SessionBuilder::dense(data, config)
        .fit()
        .expect("a rank-deficient opt capture must fit");

    let removed = random_subsets(n, 0.02, 1, 11)[0].clone();
    let opt = session
        .update(Method::PriuOpt, &removed)
        .expect("PrIU-opt update on the rank-deficient capture");
    assert!(
        opt.model.is_finite(),
        "PrIU-opt returned a non-finite model"
    );
    let retrained = session.update(Method::Retrain, &removed).unwrap().model;
    let priu = session.update(Method::Priu, &removed).unwrap().model;
    let cmp = compare_models(&retrained, &priu).unwrap();
    assert!(
        cmp.cosine_similarity > 0.9999,
        "PrIU cosine to BaseL {}",
        cmp.cosine_similarity
    );
    let cmp = compare_models(&retrained, &opt.model).unwrap();
    println!("PrIU-opt cosine to BaseL: {}", cmp.cosine_similarity);
    assert!(cmp.cosine_similarity.is_finite());
}
