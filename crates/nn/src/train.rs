//! Mini-batch SGD training loop with the paper's uniform convergence
//! criterion.
//!
//! The paper trains every network — MotherNets, hatched members, and
//! baseline members — with "the same convergence criterion … across all
//! networks" (§3). Here that criterion is *relative* validation-loss
//! patience: training stops once the validation loss has failed to improve
//! by at least a `min_delta` **fraction** for `patience` consecutive epochs
//! (or at `max_epochs`). A relative criterion is what lets a network
//! hatched from a trained MotherNet — which starts at a low loss and can
//! only improve slowly — stop after a handful of epochs, while a
//! from-scratch network keeps earning its large early improvements; this
//! asymmetry is the paper's per-network speedup.
//!
//! The reported [`TrainReport`] carries both wall-clock seconds and a
//! deterministic cost counter (gradient steps × parameter count), which the
//! benchmark harness uses to make figure shapes reproducible on noisy
//! hardware (see DESIGN.md §4).

use std::time::Instant;

use mn_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::layer::Mode;
use crate::loss::softmax_cross_entropy_ws;
use crate::metrics::{evaluate_with, gather_examples_into, Evaluation};
use crate::network::Network;
use crate::optim::Sgd;
use crate::schedule::LrSchedule;

/// Hyper-parameters of a training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Learning-rate schedule (multiplier on `lr` per epoch).
    pub schedule: LrSchedule,
    /// Hard cap on epochs.
    pub max_epochs: usize,
    /// Epochs without `min_delta` improvement before stopping.
    pub patience: usize,
    /// Minimum *relative* validation-loss improvement that resets patience
    /// (e.g. `0.01` = 1 %).
    pub min_delta: f32,
    /// Seed for epoch shuffling.
    pub shuffle_seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            schedule: LrSchedule::default(),
            max_epochs: 30,
            patience: 3,
            min_delta: 0.01,
            shuffle_seed: 0,
        }
    }
}

impl TrainConfig {
    /// Returns a copy with a different epoch cap.
    pub fn with_max_epochs(mut self, max_epochs: usize) -> Self {
        self.max_epochs = max_epochs;
        self
    }

    /// Returns a copy with a different shuffle seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.shuffle_seed = seed;
        self
    }
}

/// Per-epoch statistics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Validation loss after the epoch.
    pub val_loss: f32,
    /// Validation error rate after the epoch.
    pub val_error: f32,
    /// Wall-clock seconds spent in the epoch (including validation).
    pub wall_secs: f64,
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Per-epoch statistics, in order.
    pub epochs: Vec<EpochStats>,
    /// Total wall-clock seconds.
    pub wall_secs: f64,
    /// Total number of gradient steps taken.
    pub gradient_steps: u64,
    /// Deterministic cost proxy: gradient steps × parameter count.
    pub cost_units: f64,
    /// Whether the patience criterion fired (vs. hitting `max_epochs`).
    pub converged: bool,
    /// Validation statistics at the end of training.
    pub final_val: Evaluation,
}

impl TrainReport {
    /// Number of epochs actually run.
    pub fn epochs_run(&self) -> usize {
        self.epochs.len()
    }
}

/// Splits `n` examples into mini-batch ranges of `batch_size`, merging a
/// trailing range of size 1 into its predecessor (batch norm needs ≥ 2
/// elements per channel in train mode, and dropping the example would
/// silently shrink the epoch). A lone size-1 range (`n == 1`) is kept.
fn batch_ranges(n: usize, batch_size: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let merge_tail = batch_size >= 2 && n > batch_size && n % batch_size == 1;
    let mut starts: Vec<usize> = (0..n).step_by(batch_size).collect();
    if merge_tail {
        starts.pop(); // the last range absorbs the trailing example
    }
    let count = starts.len();
    starts.into_iter().enumerate().map(move |(i, s)| {
        s..if i + 1 == count {
            n
        } else {
            (s + batch_size).min(n)
        }
    })
}

/// Trains `net` on `(x_train, y_train)` until convergence, validating on
/// `(x_val, y_val)`.
///
/// # Panics
///
/// Panics on empty inputs or label/example count mismatches. A training
/// set of exactly one example trains with a batch of 1 (rather than
/// silently skipping it), which batch-norm networks reject loudly
/// ("needs >= 2 elements per channel").
pub fn train(
    net: &mut Network,
    x_train: &Tensor,
    y_train: &[usize],
    x_val: &Tensor,
    y_val: &[usize],
    cfg: &TrainConfig,
) -> TrainReport {
    train_with(
        net,
        x_train,
        y_train,
        x_val,
        y_val,
        cfg,
        &mut Workspace::new(),
    )
}

/// [`train`] staging every per-step buffer — mini-batch gather, forward
/// activations, loss gradient, backward gradients, layer caches and
/// kernel scratch — and the per-epoch validation pass in the caller's
/// [`Workspace`].
///
/// After the first steps the workspace holds its high-water set of
/// buffers: a steady-state training step reuses every activation,
/// gradient and scratch buffer (the optimizer's velocity buffers persist
/// inside [`Sgd`]) and allocates only a fixed count of small bookkeeping
/// buffers that does not grow with the batch. Callers that train many networks (the ensemble trainer's
/// per-worker jobs) pass a retained workspace so the pool survives across
/// member fine-tunes of equal geometry.
///
/// # Panics
///
/// Same conditions as [`train`].
#[allow(clippy::too_many_arguments)]
pub fn train_with(
    net: &mut Network,
    x_train: &Tensor,
    y_train: &[usize],
    x_val: &Tensor,
    y_val: &[usize],
    cfg: &TrainConfig,
    ws: &mut Workspace,
) -> TrainReport {
    let n = x_train.shape().dim(0);
    assert_eq!(y_train.len(), n, "train labels length mismatch");
    assert!(n > 0, "empty training set");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    assert!(cfg.max_epochs > 0, "max_epochs must be positive");

    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);
    let param_count = net.param_count() as f64;

    let start = Instant::now();
    let mut epochs = Vec::new();
    let mut steps: u64 = 0;
    let mut best_val = f32::INFINITY;
    let mut wait = 0usize;
    let mut converged = false;

    let mut order: Vec<usize> = (0..n).collect();
    // Persistent label buffer: reused across every step of the run.
    let mut yb: Vec<usize> = Vec::with_capacity(cfg.batch_size + 1);
    for epoch in 0..cfg.max_epochs {
        let epoch_start = Instant::now();
        opt.lr = cfg.lr * cfg.schedule.factor(epoch);
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        for range in batch_ranges(n, cfg.batch_size) {
            let chunk = &order[range];
            let mut xb = ws.acquire_uninit(x_train.shape().with_dim(0, chunk.len()));
            gather_examples_into(x_train, chunk, &mut xb);
            yb.clear();
            yb.extend(chunk.iter().map(|&i| y_train[i]));
            let logits = net.forward_with(&xb, Mode::Train, ws);
            ws.release(xb);
            let (loss, grad) = softmax_cross_entropy_ws(&logits, &yb, ws);
            ws.release(logits);
            net.backward_with(&grad, ws);
            ws.release(grad);
            opt.step_network(net);
            epoch_loss += loss as f64 * chunk.len() as f64;
            seen += chunk.len();
            steps += 1;
        }
        let val = evaluate_with(net, x_val, y_val, cfg.batch_size, ws);
        epochs.push(EpochStats {
            epoch,
            train_loss: if seen > 0 {
                (epoch_loss / seen as f64) as f32
            } else {
                f32::NAN
            },
            val_loss: val.loss,
            val_error: val.error,
            wall_secs: epoch_start.elapsed().as_secs_f64(),
        });

        let improved = val.loss.is_finite()
            && (best_val.is_infinite() || val.loss < best_val * (1.0 - cfg.min_delta));
        if improved {
            best_val = val.loss;
            wait = 0;
        } else {
            wait += 1;
            if wait >= cfg.patience {
                converged = true;
                break;
            }
        }
    }

    net.clear_caches();
    let final_val = evaluate_with(net, x_val, y_val, cfg.batch_size, ws);
    TrainReport {
        epochs,
        wall_secs: start.elapsed().as_secs_f64(),
        gradient_steps: steps,
        cost_units: steps as f64 * param_count,
        converged,
        final_val,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{Architecture, InputSpec};

    /// A linearly separable toy problem: class = argmax over channel means.
    fn toy_data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::randn([n, 3, 4, 4], 0.3, &mut rng);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 3;
            labels.push(class);
            for h in 0..4 {
                for w in 0..4 {
                    *x.at4_mut(i, class, h, w) += 1.5;
                }
            }
        }
        (x, labels)
    }

    #[test]
    fn training_reduces_error_on_separable_task() {
        let (x_train, y_train) = toy_data(120, 1);
        let (x_val, y_val) = toy_data(60, 2);
        let arch = Architecture::mlp("m", InputSpec::new(3, 4, 4), 3, vec![16]);
        let mut net = Network::seeded(&arch, 3);
        let before = crate::metrics::evaluate(&mut net, &x_val, &y_val, 32);
        let cfg = TrainConfig {
            max_epochs: 15,
            patience: 5,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &x_train, &y_train, &x_val, &y_val, &cfg);
        assert!(report.final_val.error < before.error, "no improvement");
        assert!(
            report.final_val.error < 0.2,
            "error too high: {}",
            report.final_val.error
        );
        assert!(report.gradient_steps > 0);
        assert!(report.cost_units > 0.0);
        assert_eq!(report.epochs_run(), report.epochs.len());
    }

    #[test]
    fn early_stopping_fires_on_plateau() {
        let (x, y) = toy_data(60, 4);
        let arch = Architecture::mlp("m", InputSpec::new(3, 4, 4), 3, vec![8]);
        let mut net = Network::seeded(&arch, 5);
        // Impossible relative improvement threshold (>100 %): nothing can
        // ever improve after the first epoch.
        let cfg = TrainConfig {
            max_epochs: 50,
            patience: 2,
            min_delta: 2.0,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &x, &y, &x, &y, &cfg);
        assert!(report.converged);
        // Epoch 0 always "improves" from infinity; then `patience` epochs
        // without improvement.
        assert_eq!(report.epochs_run(), 1 + cfg.patience);
    }

    #[test]
    fn deterministic_given_seeds() {
        let (x, y) = toy_data(40, 6);
        let arch = Architecture::mlp("m", InputSpec::new(3, 4, 4), 3, vec![8]);
        let cfg = TrainConfig {
            max_epochs: 3,
            ..TrainConfig::default()
        };
        let mut a = Network::seeded(&arch, 7);
        let mut b = Network::seeded(&arch, 7);
        let ra = train(&mut a, &x, &y, &x, &y, &cfg);
        let rb = train(&mut b, &x, &y, &x, &y, &cfg);
        assert_eq!(ra.final_val.loss, rb.final_val.loss);
        assert_eq!(ra.gradient_steps, rb.gradient_steps);
    }

    #[test]
    fn batch_ranges_merge_trailing_singleton() {
        // 33 examples at batch 32: one merged batch of 33 (no drop).
        let r: Vec<_> = batch_ranges(33, 32).collect();
        assert_eq!(r, vec![0..33]);
        // 65 at 32: 0..32, 32..65.
        let r: Vec<_> = batch_ranges(65, 32).collect();
        assert_eq!(r, vec![0..32, 32..65]);
        // Exact multiples and non-singleton tails are untouched.
        let r: Vec<_> = batch_ranges(64, 32).collect();
        assert_eq!(r, vec![0..32, 32..64]);
        let r: Vec<_> = batch_ranges(34, 32).collect();
        assert_eq!(r, vec![0..32, 32..34]);
        // A lone example (or batch_size 1) is preserved, not merged away.
        let r: Vec<_> = batch_ranges(1, 32).collect();
        assert_eq!(r, vec![0..1]);
        let r: Vec<_> = batch_ranges(3, 1).collect();
        assert_eq!(r, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn every_example_is_seen_with_trailing_singleton() {
        // Regression: n ≡ 1 (mod batch_size) used to silently drop one
        // example per epoch; it must now be merged into the last batch.
        let (x, y) = toy_data(33, 9);
        let arch = Architecture::mlp("m", InputSpec::new(3, 4, 4), 3, vec![8]);
        let mut net = Network::seeded(&arch, 10);
        let cfg = TrainConfig {
            max_epochs: 1,
            batch_size: 32,
            patience: 5,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &x, &y, &x, &y, &cfg);
        // One merged batch of 33 → exactly one gradient step, finite loss
        // computed over all 33 examples.
        assert_eq!(report.gradient_steps, 1);
        assert!(report.epochs[0].train_loss.is_finite());
    }

    #[test]
    fn train_with_reused_workspace_matches_fresh() {
        let (x, y) = toy_data(40, 11);
        let arch = Architecture::mlp("m", InputSpec::new(3, 4, 4), 3, vec![8]);
        let cfg = TrainConfig {
            max_epochs: 2,
            ..TrainConfig::default()
        };
        let mut fresh = Network::seeded(&arch, 12);
        let fresh_report = train(&mut fresh, &x, &y, &x, &y, &cfg);
        // A workspace dirtied by a full prior run must not perturb results.
        let mut ws = mn_tensor::Workspace::new();
        let mut warm = Network::seeded(&arch, 1);
        train_with(&mut warm, &x, &y, &x, &y, &cfg, &mut ws);
        let mut reused = Network::seeded(&arch, 12);
        let reused_report = train_with(&mut reused, &x, &y, &x, &y, &cfg, &mut ws);
        assert_eq!(fresh_report.final_val.loss, reused_report.final_val.loss);
        assert_eq!(fresh_report.gradient_steps, reused_report.gradient_steps);
    }

    #[test]
    #[should_panic(expected = "labels length mismatch")]
    fn validates_label_count() {
        let arch = Architecture::mlp("m", InputSpec::new(3, 4, 4), 3, vec![8]);
        let mut net = Network::seeded(&arch, 8);
        let x = Tensor::zeros([4, 3, 4, 4]);
        train(
            &mut net,
            &x,
            &[0, 1],
            &x,
            &[0, 1, 2, 0],
            &TrainConfig::default(),
        );
    }
}
