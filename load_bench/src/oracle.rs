//! The seeded input pool and the correctness oracle.
//!
//! Reference predictions come from a local in-process `TeamNet` built
//! from the same expert seeds as the cluster; every reply row must match
//! it on label, winning expert and entropy bits (expert forwards are
//! row-independent, the property `tests/serve_props.rs` pins).

use crate::cluster::Team;
use rand::rngs::StdRng;
use rand::SeedableRng;
use teamnet_core::{TeamNet, TeamPrediction};
use teamnet_data::{synth_digits, synth_objects};
use teamnet_nn::ModelSpec;
use teamnet_tensor::Tensor;

/// Request tensors generated from `--seed`, each with its reference
/// predictions.
pub struct Pool {
    requests: Vec<Tensor>,
    expected: Vec<Vec<TeamPrediction>>,
}

impl Pool {
    /// `requests` tensors of `rows` images each, from the synthetic
    /// dataset matching the team's model.
    pub fn build(team: &Team, rows: usize, requests: usize, seed: u64) -> Pool {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rows * requests;
        let data = match team.model {
            ModelSpec::Mlp { .. } => synth_digits(n, &mut rng),
            ModelSpec::ShakeShake { .. } => synth_objects(n, &mut rng),
        };
        let images = data.images();
        let experts = (0..team.k).map(|node| team.expert(node)).collect();
        let reference = TeamNet::from_experts(team.model.clone(), experts).predict(images);
        let requests: Vec<Tensor> = (0..requests)
            .map(|r| images.select_rows(&(r * rows..(r + 1) * rows).collect::<Vec<_>>()))
            .collect();
        let expected = reference.chunks(rows).map(<[_]>::to_vec).collect();
        Pool { requests, expected }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    pub fn input(&self, index: usize) -> &Tensor {
        &self.requests[index]
    }

    /// Rows per request.
    pub fn rows(&self) -> usize {
        self.expected.first().map_or(0, Vec::len)
    }

    /// The reference answer for request `index`.
    #[cfg(test)]
    pub fn reference(&self, index: usize) -> &[TeamPrediction] {
        &self.expected[index]
    }

    /// Whether `got` is exactly the reference answer for request `index`.
    pub fn matches(&self, index: usize, got: &[TeamPrediction]) -> bool {
        let want = &self.expected[index];
        want.len() == got.len()
            && want.iter().zip(got).all(|(w, g)| {
                w.label == g.label
                    && w.expert == g.expert
                    && w.entropy.to_bits() == g.entropy.to_bits()
            })
    }

    /// Negative control for `--self-test`: breaks one reference label (of
    /// the last request; the first is the warm reply set-up checks).
    /// Workloads walk the whole pool, so a run that still reports
    /// `failed = 0` is not checking its outputs.
    pub fn corrupt_reference(&mut self) {
        if let Some(row) = self.expected.last_mut().and_then(|want| want.first_mut()) {
            row.label = (row.label + 1) % 10;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_a_corrupted_reference_is_caught() {
        let team = Team::mlp4();
        let a = Pool::build(&team, 2, 3, 7);
        let b = Pool::build(&team, 2, 3, 7);
        let c = Pool::build(&team, 2, 3, 8);
        assert_eq!(a.len(), 3);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.input(1).dims(), &[2, 1, 28, 28]);
        assert_eq!(a.input(1).data(), b.input(1).data());
        assert_ne!(a.input(1).data(), c.input(1).data());

        let mut a = a;
        let answer = b.reference(2).to_vec();
        assert!(a.matches(2, &answer));
        assert!(!a.matches(2, &answer[..1]));
        a.corrupt_reference();
        assert!(!a.matches(2, &answer));
        assert!(a.matches(0, b.reference(0)));
    }
}
