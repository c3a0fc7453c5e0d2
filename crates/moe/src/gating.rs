//! Noisy top-k gating (Shazeer et al., 2017) — the gate of the SG-MoE
//! baseline.
//!
//! For each example, gate logits are `x·W_g` plus (during training)
//! Gaussian noise scaled by `softplus(x·W_noise)`. Only the top-k logits
//! keep non-zero gate values, renormalized by softmax over the kept set.
//! An importance loss (the squared coefficient of variation of per-expert
//! total gate mass) discourages the gate from collapsing onto one expert —
//! Shazeer's answer to the same "richer gets richer" problem TeamNet
//! solves with its proportional controller.

use rand::Rng;
use teamnet_tensor::Tensor;

/// Per-row sparse gate values and the bookkeeping needed for backprop.
#[derive(Debug, Clone)]
pub struct GatingOutput {
    /// Dense `[n, K]` gate value matrix; exactly `top_k` non-zeros per row.
    pub gates: Tensor,
    /// The kept expert indices per row (descending gate logit).
    pub top_indices: Vec<Vec<usize>>,
}

impl GatingOutput {
    /// The rows routed to each of `k` experts, ascending.
    pub fn expert_rows(&self, k: usize) -> Vec<Vec<usize>> {
        let mut expert_rows: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (r, kept) in self.top_indices.iter().enumerate() {
            for &i in kept {
                expert_rows[i].push(r);
            }
        }
        expert_rows
    }

    /// Combined logits `[n, classes]`: the gate-weighted sum of the
    /// experts' logits, accumulated in expert order. `logits[i]` holds
    /// expert `i`'s logits over `expert_rows[i]`, in that order (`None`
    /// where it was routed nothing).
    pub fn weighted_sum(
        &self,
        expert_rows: &[Vec<usize>],
        logits: &[Option<Tensor>],
        classes: usize,
    ) -> Tensor {
        let mut combined = Tensor::zeros([self.top_indices.len(), classes]);
        for (i, (rows, logits)) in expert_rows.iter().zip(logits).enumerate() {
            let Some(logits) = logits else { continue };
            for (pos, &r) in rows.iter().enumerate() {
                let g = self.gates.at(&[r, i]);
                for c in 0..classes {
                    let v = combined.at(&[r, c]) + g * logits.at(&[pos, c]);
                    combined.set(&[r, c], v);
                }
            }
        }
        combined
    }
}

/// Numerically stable `softplus(x) = ln(1 + eˣ)`.
pub fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else {
        x.exp().ln_1p()
    }
}

/// Computes noisy top-k gates from clean logits `[n, K]` and (optionally,
/// for training) noise-scale logits `[n, K]`.
///
/// # Panics
///
/// Panics unless `1 <= top_k <= K` and the shapes agree.
pub fn noisy_top_k(
    clean_logits: &Tensor,
    noise_logits: Option<&Tensor>,
    top_k: usize,
    rng: &mut impl Rng,
) -> GatingOutput {
    assert_eq!(clean_logits.rank(), 2, "gate logits must be [n, K]");
    let (n, k) = (clean_logits.dims()[0], clean_logits.dims()[1]);
    assert!(top_k >= 1 && top_k <= k, "top_k must be in 1..=K");

    let mut noisy = clean_logits.clone();
    if let Some(noise) = noise_logits {
        assert!(
            noise.shape().same_as(clean_logits.shape()),
            "noise logits shape mismatch"
        );
        for (v, &s) in noisy.data_mut().iter_mut().zip(noise.data()) {
            let eps: f32 = {
                // Box–Muller standard normal.
                let u1: f32 = 1.0 - rng.gen::<f32>();
                let u2: f32 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            };
            *v += eps * softplus(s);
        }
    }

    let mut gates = Tensor::zeros([n, k]);
    let mut top_indices = Vec::with_capacity(n);
    for r in 0..n {
        let row = noisy.row(r);
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
        let kept = &order[..top_k];
        // Softmax over the kept logits only.
        let max = kept
            .iter()
            .map(|&i| row[i])
            .fold(f32::NEG_INFINITY, f32::max);
        let mut exp_sum = 0.0f32;
        let exps: Vec<f32> = kept
            .iter()
            .map(|&i| {
                let e = (row[i] - max).exp();
                exp_sum += e;
                e
            })
            .collect();
        for (&i, e) in kept.iter().zip(exps) {
            gates.set(&[r, i], e / exp_sum);
        }
        top_indices.push(kept.to_vec());
    }
    GatingOutput { gates, top_indices }
}

/// Backpropagates `d_gates` (`[n, K]`, gradient of the loss w.r.t. the
/// dense gate values) to the gate *logits*, through the per-row softmax
/// over each row's kept set. Entries outside the kept set receive zero
/// gradient (the hard top-k selection is treated as constant, as in the
/// original implementation).
pub fn gate_logit_grad(gating: &GatingOutput, d_gates: &Tensor) -> Tensor {
    let (n, k) = (gating.gates.dims()[0], gating.gates.dims()[1]);
    assert!(
        d_gates.shape().same_as(gating.gates.shape()),
        "gate grad shape mismatch"
    );
    let mut out = Tensor::zeros([n, k]);
    for r in 0..n {
        let kept = &gating.top_indices[r];
        // softmax jacobian within the kept set: dz_i = g_i (dg_i − Σ_j dg_j g_j).
        let dot: f32 = kept
            .iter()
            .map(|&i| d_gates.at(&[r, i]) * gating.gates.at(&[r, i]))
            .sum();
        for &i in kept {
            let g = gating.gates.at(&[r, i]);
            out.set(&[r, i], g * (d_gates.at(&[r, i]) - dot));
        }
    }
    out
}

/// The importance loss: `CV²` of per-expert total gate mass, and its
/// gradient with respect to the dense gate matrix.
///
/// Returns `(loss, d_loss/d_gates)`.
pub fn importance_loss(gates: &Tensor) -> (f32, Tensor) {
    let (n, k) = (gates.dims()[0], gates.dims()[1]);
    let importance = gates.sum_cols(); // [K]
    let mean = importance.mean();
    if mean <= 1e-12 {
        return (0.0, Tensor::zeros([n, k]));
    }
    let var = importance.map(|x| (x - mean) * (x - mean)).mean();
    let loss = var / (mean * mean);

    // d loss / d importance_i = 2(x_i − m)/(K m²) − 2·Var/(K m³);
    // d importance_i / d gates[r][i] = 1.
    let kf = k as f32;
    let d_imp: Vec<f32> = importance
        .data()
        .iter()
        .map(|&x| 2.0 * (x - mean) / (kf * mean * mean) - 2.0 * var / (kf * mean * mean * mean))
        .collect();
    let mut grad = Tensor::zeros([n, k]);
    for r in 0..n {
        for (c, &d) in d_imp.iter().enumerate() {
            grad.set(&[r, c], d);
        }
    }
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softplus_basics() {
        assert!((softplus(0.0) - 2.0f32.ln()).abs() < 1e-6);
        assert!((softplus(30.0) - 30.0).abs() < 1e-4);
        assert!(softplus(-30.0) < 1e-8);
    }

    #[test]
    fn exactly_top_k_nonzeros_summing_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let logits = Tensor::rand_uniform([6, 5], -2.0, 2.0, &mut rng);
        let out = noisy_top_k(&logits, None, 2, &mut rng);
        for r in 0..6 {
            let row = out.gates.row(r);
            let nonzero = row.iter().filter(|&&g| g > 0.0).count();
            assert_eq!(nonzero, 2, "row {r}");
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert_eq!(out.top_indices[r].len(), 2);
        }
    }

    #[test]
    fn without_noise_top_one_is_argmax() {
        let logits = Tensor::from_vec(vec![0.1, 2.0, -1.0, 3.0, 0.0, 1.0], [2, 3]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let out = noisy_top_k(&logits, None, 1, &mut rng);
        assert_eq!(out.top_indices[0], vec![1]);
        assert_eq!(out.top_indices[1], vec![0]);
        assert_eq!(out.gates.at(&[0, 1]), 1.0);
    }

    #[test]
    fn noise_perturbs_selection_sometimes() {
        // With large noise scale, selections must differ across draws.
        let logits = Tensor::zeros([50, 4]);
        let noise = Tensor::full([50, 4], 3.0); // softplus(3) ≈ 3.05
        let mut rng = StdRng::seed_from_u64(3);
        let a = noisy_top_k(&logits, Some(&noise), 1, &mut rng);
        let b = noisy_top_k(&logits, Some(&noise), 1, &mut rng);
        assert_ne!(a.top_indices, b.top_indices);
    }

    #[test]
    fn gate_logit_grad_matches_finite_differences() {
        // Build a fixed top-k selection, then check the softmax-restricted
        // jacobian numerically.
        let logits = Tensor::from_vec(vec![2.0, 1.0, -3.0], [1, 3]).unwrap();
        let d_gates = Tensor::from_vec(vec![0.7, -0.3, 0.9], [1, 3]).unwrap();

        let eval = |l: &Tensor| -> (GatingOutput, f32) {
            let mut rng_inner = StdRng::seed_from_u64(0);
            let out = noisy_top_k(l, None, 2, &mut rng_inner);
            let score: f32 = out
                .gates
                .data()
                .iter()
                .zip(d_gates.data())
                .map(|(&g, &d)| g * d)
                .sum();
            (out, score)
        };
        let (gating, _) = eval(&logits);
        let analytic = gate_logit_grad(&gating, &d_gates);

        let eps = 1e-3;
        for idx in 0..2 {
            // only kept entries (0 and 1) get gradient
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let num = (eval(&lp).1 - eval(&lm).1) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 1e-3,
                "logit {idx}: numeric {num} vs analytic {}",
                analytic.data()[idx]
            );
        }
        // The dropped expert gets zero gradient.
        assert_eq!(analytic.data()[2], 0.0);
    }

    #[test]
    fn importance_loss_zero_when_balanced() {
        let gates = Tensor::from_vec(vec![0.5, 0.5, 0.5, 0.5], [2, 2]).unwrap();
        let (loss, grad) = importance_loss(&gates);
        assert!(loss < 1e-9);
        assert!(grad.norm_sq() < 1e-9);
    }

    #[test]
    fn importance_loss_penalizes_collapse() {
        let balanced = Tensor::from_vec(vec![0.5, 0.5, 0.5, 0.5], [2, 2]).unwrap();
        let collapsed = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], [2, 2]).unwrap();
        assert!(importance_loss(&collapsed).0 > importance_loss(&balanced).0);
    }

    #[test]
    fn importance_gradient_matches_finite_differences() {
        let gates = Tensor::from_vec(vec![0.9, 0.1, 0.6, 0.4, 0.8, 0.2], [3, 2]).unwrap();
        let (_, grad) = importance_loss(&gates);
        let eps = 1e-3;
        for idx in 0..gates.len() {
            let mut gp = gates.clone();
            gp.data_mut()[idx] += eps;
            let mut gm = gates.clone();
            gm.data_mut()[idx] -= eps;
            let num = (importance_loss(&gp).0 - importance_loss(&gm).0) / (2.0 * eps);
            assert!(
                (num - grad.data()[idx]).abs() < 1e-3,
                "gate {idx}: numeric {num} vs analytic {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    #[should_panic(expected = "top_k must be in")]
    fn rejects_bad_top_k() {
        let mut rng = StdRng::seed_from_u64(0);
        noisy_top_k(&Tensor::zeros([1, 2]), None, 3, &mut rng);
    }
}
