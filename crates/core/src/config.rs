//! Trainer / provenance-capture configuration.

use crate::interpolation::PiecewiseLinearSigmoid;
use priu_data::catalog::Hyperparameters;

/// How per-iteration Gram-form intermediates are compressed (§5.1 / §5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Compression {
    /// Cache the dense `m x m` Gram matrices (no compression), stored as
    /// their packed upper triangles (`m(m+1)/2` values each).
    None,
    /// Exact truncated eigendecomposition via the `B x B` kernel matrix.
    Exact {
        /// Retained rank `r`.
        rank: usize,
    },
    /// Randomized truncated eigendecomposition (Halko range finder).
    Randomized {
        /// Retained rank `r`.
        rank: usize,
        /// Oversampling beyond the target rank.
        oversample: usize,
    },
    /// Pick automatically: dense caching for small feature spaces, randomized
    /// rank-`min(32, m/4)` compression once the feature count exceeds 128.
    Auto,
}

impl Compression {
    /// Resolves `Auto` into a concrete strategy for a feature count `m`.
    pub fn resolve(self, num_features: usize) -> Compression {
        match self {
            Compression::Auto => {
                if num_features > 128 {
                    Compression::Randomized {
                        rank: (num_features / 4).clamp(8, 32),
                        oversample: 8,
                    }
                } else {
                    Compression::None
                }
            }
            other => other,
        }
    }
}

/// Configuration of a training run with provenance capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Mini-batch size, iteration count, learning rate and regularisation.
    pub hyper: Hyperparameters,
    /// Seed controlling the mini-batch schedule (and nothing else — the
    /// datasets carry their own seeds).
    pub seed: u64,
    /// Compression applied to the cached per-iteration Gram forms.
    pub compression: Compression,
    /// Piecewise-linear interpolation of the logistic non-linearity.
    pub interpolation: PiecewiseLinearSigmoid,
    /// Fraction of the iterations after which PrIU-opt stops capturing fresh
    /// provenance for logistic regression (§5.4's rule of thumb is 0.7).
    pub opt_capture_fraction: f64,
    /// Whether to additionally capture the PrIU-opt structures (full-data
    /// Gram eigendecompositions). Costs one `O(n·m²)`-ish pass; disable for
    /// very large feature spaces where only plain PrIU is used.
    pub capture_opt: bool,
}

impl TrainerConfig {
    /// Builds a config from hyperparameters with library defaults for the
    /// provenance-capture knobs.
    pub fn from_hyper(hyper: Hyperparameters) -> Self {
        Self {
            hyper,
            seed: 0,
            compression: Compression::Auto,
            interpolation: PiecewiseLinearSigmoid::default(),
            opt_capture_fraction: 0.7,
            capture_opt: true,
        }
    }

    /// Sets the mini-batch schedule seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the compression strategy.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Enables or disables the PrIU-opt capture.
    pub fn with_opt_capture(mut self, capture: bool) -> Self {
        self.capture_opt = capture;
        self
    }

    /// Sets the interpolation grid.
    pub fn with_interpolation(mut self, interpolation: PiecewiseLinearSigmoid) -> Self {
        self.interpolation = interpolation;
        self
    }

    /// Sets the PrIU-opt early-termination fraction `ts / τ`.
    pub fn with_opt_capture_fraction(mut self, fraction: f64) -> Self {
        self.opt_capture_fraction = fraction;
        self
    }

    /// The iteration `ts` at which PrIU-opt stops capturing fresh provenance.
    pub fn opt_switch_iteration(&self) -> usize {
        let ts = (self.hyper.num_iterations as f64 * self.opt_capture_fraction).floor() as usize;
        ts.clamp(1, self.hyper.num_iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hyper() -> Hyperparameters {
        Hyperparameters {
            batch_size: 100,
            num_iterations: 1000,
            learning_rate: 0.01,
            regularization: 0.1,
        }
    }

    #[test]
    fn builder_sets_fields() {
        let c = TrainerConfig::from_hyper(hyper())
            .with_seed(9)
            .with_compression(Compression::Exact { rank: 5 })
            .with_opt_capture(false)
            .with_opt_capture_fraction(0.5)
            .with_interpolation(PiecewiseLinearSigmoid::new(10.0, 100));
        assert_eq!(c.seed, 9);
        assert_eq!(c.compression, Compression::Exact { rank: 5 });
        assert!(!c.capture_opt);
        assert_eq!(c.opt_switch_iteration(), 500);
        assert_eq!(c.interpolation.num_intervals(), 100);
    }

    #[test]
    fn opt_switch_iteration_defaults_to_seventy_percent() {
        let c = TrainerConfig::from_hyper(hyper());
        assert_eq!(c.opt_switch_iteration(), 700);
    }

    #[test]
    fn auto_compression_resolves_by_feature_count() {
        assert_eq!(Compression::Auto.resolve(54), Compression::None);
        match Compression::Auto.resolve(512) {
            Compression::Randomized { rank, oversample } => {
                assert_eq!(rank, 32);
                assert_eq!(oversample, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Compression::Auto.resolve(160) {
            Compression::Randomized { rank, .. } => assert_eq!(rank, 32),
            other => panic!("unexpected {other:?}"),
        }
        // Concrete strategies resolve to themselves.
        assert_eq!(
            Compression::Exact { rank: 3 }.resolve(1000),
            Compression::Exact { rank: 3 }
        );
        assert_eq!(Compression::None.resolve(1000), Compression::None);
    }
}
