//! The jointly trained Sparsely-Gated Mixture-of-Experts model.
//!
//! This is the paper's strongest baseline: K expert networks (the same
//! downsized architectures TeamNet uses) plus a linear noisy-top-k gate,
//! all trained together on the combined cross-entropy plus the importance
//! load-balancing loss. The contrast the paper draws: SG-MoE spreads data
//! across experts by *noise*, not by competence, so experts specialize
//! less — visible as the accuracy drop at K = 4 in Tables I and II.

use crate::gating::{gate_logit_grad, importance_loss, noisy_top_k, GatingOutput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use teamnet_core::build_expert;
use teamnet_data::Dataset;
use teamnet_nn::{softmax_cross_entropy, Layer, Mode, ModelSpec, Sequential, Sgd};
use teamnet_tensor::Tensor;

/// SG-MoE hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgMoeConfig {
    /// Number of experts each example is routed to (the paper's
    /// experiments use sparse gating; we default to 2, or 1 when K = 2).
    pub top_k: usize,
    /// Weight of the importance (load-balancing) loss.
    pub importance_weight: f32,
    /// Expert learning rate.
    pub learning_rate: f32,
    /// Expert SGD momentum.
    pub momentum: f32,
    /// Gate learning rate.
    pub gate_learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for SgMoeConfig {
    fn default() -> Self {
        SgMoeConfig {
            top_k: 2,
            importance_weight: 0.1,
            learning_rate: 0.1,
            momentum: 0.9,
            gate_learning_rate: 0.01,
            epochs: 3,
            batch_size: 64,
            seed: 0,
        }
    }
}

/// A Sparsely-Gated Mixture-of-Experts classifier.
pub struct SgMoe {
    spec: ModelSpec,
    experts: Vec<Sequential>,
    optimizers: Vec<Sgd>,
    gate_w: Tensor,
    noise_w: Tensor,
    input_dim: usize,
    config: SgMoeConfig,
    rng: StdRng,
}

impl SgMoe {
    /// Creates an SG-MoE with `k` experts of architecture `spec` gating on
    /// the flattened input.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `top_k > k`.
    pub fn new(spec: ModelSpec, k: usize, config: SgMoeConfig) -> Self {
        assert!(k >= 2, "SG-MoE needs at least two experts");
        assert!(
            config.top_k >= 1 && config.top_k <= k,
            "top_k must be in 1..=K"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let input_dim: usize = spec.input_dims().iter().product();
        let experts: Vec<Sequential> = (0..k)
            .map(|i| build_expert(&spec, config.seed.wrapping_add(0xB0B + i as u64)))
            .collect();
        let optimizers = (0..k)
            .map(|_| Sgd::with_momentum(config.learning_rate, config.momentum))
            .collect();
        SgMoe {
            gate_w: Tensor::randn([input_dim, k], 0.0, 0.01, &mut rng),
            noise_w: Tensor::randn([input_dim, k], 0.0, 0.01, &mut rng),
            spec,
            experts,
            optimizers,
            input_dim,
            config,
            rng,
        }
    }

    /// Number of experts.
    pub fn k(&self) -> usize {
        self.experts.len()
    }

    /// The experts' architecture.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The configuration.
    pub fn config(&self) -> &SgMoeConfig {
        &self.config
    }

    /// Mutable access to expert `i` (deployment).
    pub fn expert_mut(&mut self, i: usize) -> &mut Sequential {
        &mut self.experts[i]
    }

    fn flatten(&self, images: &Tensor) -> Tensor {
        let n = images.dims()[0];
        // Caller contract: images carry input_dim features per row. lint: allow(no-expect)
        images
            .reshape([n, self.input_dim])
            .expect("input volume matches spec")
    }

    /// Evaluation-mode gating (no noise) for a batch.
    pub fn gate(&mut self, images: &Tensor) -> GatingOutput {
        let x = self.flatten(images);
        let clean = x.matmul(&self.gate_w);
        noisy_top_k(&clean, None, self.config.top_k, &mut self.rng)
    }

    /// One joint training step; returns `(task loss, importance loss)`.
    pub fn train_batch(&mut self, images: &Tensor, labels: &[usize]) -> (f32, f32) {
        let classes = self.spec.classes();
        let x = self.flatten(images);

        // Noisy gating.
        let clean = x.matmul(&self.gate_w);
        let noise = x.matmul(&self.noise_w);
        let gating = noisy_top_k(&clean, Some(&noise), self.config.top_k, &mut self.rng);

        // Run each expert on its routed rows; cache logits and row maps.
        let k = self.k();
        let expert_rows = gating.expert_rows(k);
        let expert_logits = self.expert_logits(images, &expert_rows, Mode::Train);
        let combined = gating.weighted_sum(&expert_rows, &expert_logits, classes);

        // Task loss on the combined logits, plus the importance loss.
        let out = softmax_cross_entropy(&combined, labels);
        let (imp_loss, imp_grad) = importance_loss(&gating.gates);

        // Gradient to the dense gate values: task term + importance term.
        let mut d_gates = imp_grad.scale(self.config.importance_weight);
        for i in 0..k {
            let Some(logits) = &expert_logits[i] else {
                continue;
            };
            for (pos, &r) in expert_rows[i].iter().enumerate() {
                let dot: f32 = (0..classes)
                    .map(|c| out.grad.at(&[r, c]) * logits.at(&[pos, c]))
                    .sum();
                let v = d_gates.at(&[r, i]) + dot;
                d_gates.set(&[r, i], v);
            }
        }

        // Expert updates: each expert receives its gate-weighted share of
        // the combined-logit gradient.
        for i in 0..k {
            if expert_logits[i].is_none() {
                continue;
            }
            let rows = &expert_rows[i];
            let mut grad = Tensor::zeros([rows.len(), classes]);
            for (pos, &r) in rows.iter().enumerate() {
                let g = gating.gates.at(&[r, i]);
                for c in 0..classes {
                    grad.set(&[pos, c], g * out.grad.at(&[r, c]));
                }
            }
            self.experts[i].zero_grad();
            self.experts[i].backward(&grad);
            self.optimizers[i].step(&mut self.experts[i]);
        }

        // Gate update through the kept-set softmax jacobian. The noise
        // path is treated as exploration (no gradient), as in common
        // implementations.
        let d_logits = gate_logit_grad(&gating, &d_gates);
        let d_gate_w = x.transpose().matmul(&d_logits);
        self.gate_w.axpy(-self.config.gate_learning_rate, &d_gate_w);

        (out.loss, imp_loss)
    }

    /// Trains for `config.epochs` epochs; returns the mean task loss per
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train(&mut self, data: &Dataset) -> Vec<f32> {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        for _ in 0..self.config.epochs {
            let shuffled = data.shuffled(&mut self.rng);
            let mut total = 0.0f32;
            let mut batches = 0usize;
            for batch in shuffled.batches(self.config.batch_size) {
                let (loss, _) = self.train_batch(&batch.images, &batch.labels);
                total += loss;
                batches += 1;
            }
            epoch_losses.push(total / batches.max(1) as f32);
        }
        epoch_losses
    }

    /// Each expert's logits over the rows routed to it (`None` where
    /// there are none), experts run in order.
    fn expert_logits(
        &mut self,
        images: &Tensor,
        expert_rows: &[Vec<usize>],
        mode: Mode,
    ) -> Vec<Option<Tensor>> {
        let routed = expert_rows.iter().zip(&mut self.experts);
        routed
            .map(|(rows, e)| (!rows.is_empty()).then(|| e.forward(&images.select_rows(rows), mode)))
            .collect()
    }

    /// Evaluation-mode combined class probabilities, `[n, classes]`.
    pub fn predict_proba(&mut self, images: &Tensor) -> Tensor {
        let gating = self.gate(images);
        let expert_rows = gating.expert_rows(self.k());
        let logits = self.expert_logits(images, &expert_rows, Mode::Eval);
        let combined = gating.weighted_sum(&expert_rows, &logits, self.spec.classes());
        combined.softmax_rows()
    }

    /// Accuracy on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn evaluate(&mut self, data: &Dataset) -> f64 {
        assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
        let mut correct = 0usize;
        for batch in data.batches(256) {
            let probs = self.predict_proba(&batch.images);
            for (pred, &truth) in probs.argmax_rows().iter().zip(&batch.labels) {
                if *pred == truth {
                    correct += 1;
                }
            }
        }
        correct as f64 / data.len() as f64
    }
}

impl std::fmt::Debug for SgMoe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SgMoe(k={}, top_k={}, spec={:?})",
            self.k(),
            self.config.top_k,
            self.spec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamnet_data::synth_digits;

    fn quick_config() -> SgMoeConfig {
        SgMoeConfig {
            epochs: 3,
            batch_size: 32,
            ..SgMoeConfig::default()
        }
    }

    #[test]
    fn construction_and_shapes() {
        let mut moe = SgMoe::new(ModelSpec::mlp(2, 16), 4, quick_config());
        assert_eq!(moe.k(), 4);
        let x = Tensor::zeros([3, 1, 28, 28]);
        let probs = moe.predict_proba(&x);
        assert_eq!(probs.dims(), &[3, 10]);
        for r in 0..3 {
            assert!((probs.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(77);
        let data = synth_digits(400, &mut rng);
        let mut moe = SgMoe::new(ModelSpec::mlp(2, 32), 2, quick_config());
        let losses = moe.train(&data);
        assert!(losses.last().unwrap() < &(losses[0] * 0.7), "{losses:?}");
    }

    #[test]
    fn trained_moe_beats_chance() {
        let mut rng = StdRng::seed_from_u64(78);
        let data = synth_digits(1_000, &mut rng);
        let (train, test) = data.split(800);
        let mut moe = SgMoe::new(
            ModelSpec::mlp(2, 32),
            2,
            SgMoeConfig {
                epochs: 5,
                ..quick_config()
            },
        );
        moe.train(&train);
        let acc = moe.evaluate(&test);
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn gate_routes_to_top_k_experts() {
        let mut moe = SgMoe::new(ModelSpec::mlp(2, 16), 4, quick_config());
        let x = Tensor::ones([5, 1, 28, 28]);
        let gating = moe.gate(&x);
        for r in 0..5 {
            assert_eq!(gating.top_indices[r].len(), 2);
        }
    }

    #[test]
    fn importance_weight_spreads_load() {
        // With a strong importance penalty, trained expert usage should be
        // less skewed than with none. A single training run is noisy (two
        // epochs, random init), so compare the mean skew across seeds.
        let usage = |weight: f32| -> f32 {
            let seeds = [79u64, 80, 81];
            let total: f32 = seeds
                .iter()
                .map(|&seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let data = synth_digits(300, &mut rng);
                    let mut moe = SgMoe::new(
                        ModelSpec::mlp(2, 16),
                        4,
                        SgMoeConfig {
                            importance_weight: weight,
                            epochs: 2,
                            ..quick_config()
                        },
                    );
                    moe.train(&data);
                    let gating = moe.gate(data.images());
                    let imp = gating.gates.sum_cols();
                    // Coefficient of variation of expert usage.
                    let mean = imp.mean();
                    let var = imp.map(|x| (x - mean) * (x - mean)).mean();
                    var.sqrt() / mean
                })
                .sum();
            total / 3.0
        };
        let balanced = usage(1.0);
        let free = usage(0.0);
        assert!(
            balanced <= free + 0.15,
            "importance loss should not worsen balance: {balanced} vs {free}"
        );
    }

    #[test]
    #[should_panic(expected = "top_k must be in")]
    fn rejects_top_k_above_k() {
        SgMoe::new(
            ModelSpec::mlp(2, 8),
            2,
            SgMoeConfig {
                top_k: 3,
                ..quick_config()
            },
        );
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
