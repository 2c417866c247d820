//! The benchmark's workloads, probes, spans and report format; `main.rs`
//! is the command line around them.

pub mod paper;
pub mod probe;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["paper-linear", "serve-durable", "serve-window"];

/// A response frame a serve workload's transport drops or corrupts.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    Drop(u64),
    Corrupt(u64),
}

/// The inputs of one workload run.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub fault: Option<Fault>,
    /// Where stores and trace files go: `perfbench/out` in the checkout.
    pub out_dir: PathBuf,
}
