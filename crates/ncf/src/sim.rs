//! Federated training with shared `V` **and** `Θ`.
//!
//! A thin configuration wrapper over `fedrec_federated::Simulation` with
//! the [`NcfClientModel`] plugged into the model seam: per round, each
//! selected client computes BPR gradients through the MLP, clips and
//! noises *both* `∇V_i` and `∇Θ_i` (Eq. 5), uploads them, and steps its
//! private `u_i` (Eq. 6); the server applies both aggregates (Eq. 7).
//! Routing through the generic round loop (rather than a parallel NCF
//! one) is what extends every byte-identity gate — dense-vs-sharded,
//! thread-count, kill-and-resume, faulted-round — to NCF.

use crate::attack::NcfAdversary;
use crate::client_model::{NcfAdversaryBridge, NcfClientModel};
use crate::model::{ItemProjection, NcfModel};
use crate::theta::Theta;
use fedrec_data::Dataset;
use fedrec_federated::server::SumAggregator;
use fedrec_federated::{DefensePipeline, FedConfig, Simulation, StoreBackend};
use fedrec_linalg::{Matrix, SeededRng};
use fedrec_recsys::metrics::MetricsAccumulator;
use fedrec_recsys::scorer::DenseScores;
use std::sync::Arc;

/// Configuration for NCF federated training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NcfConfig {
    /// Latent dimension of the embeddings.
    pub k: usize,
    /// Hidden width of the interaction MLP.
    pub hidden: usize,
    /// Learning rate η.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Fraction of clients selected per round.
    pub client_fraction: f64,
    /// DP noise scale µ (σ = µ·C on both `∇V` rows and `∇Θ`).
    pub noise_scale: f32,
    /// ℓ2 bound C for uploaded gradient rows / the Θ gradient.
    pub clip_norm: f32,
    /// Master seed.
    pub seed: u64,
}

impl NcfConfig {
    /// Small, fast configuration for tests and examples.
    pub fn smoke() -> Self {
        Self {
            k: 8,
            hidden: 16,
            lr: 0.05,
            epochs: 40,
            client_fraction: 1.0,
            noise_scale: 0.0,
            clip_norm: 1.0,
            seed: 42,
        }
    }

    /// The generic federated config this NCF setup runs under.
    pub fn fed_config(&self) -> FedConfig {
        FedConfig {
            k: self.k,
            lr: self.lr,
            epochs: self.epochs,
            client_fraction: self.client_fraction,
            noise_scale: self.noise_scale,
            clip_norm: self.clip_norm,
            l2_reg: 0.0,
            threads: 1,
            seed: self.seed,
        }
    }
}

/// Evaluation output (same metrics as the MF pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NcfEvalReport {
    /// ER@10 of the target items.
    pub er_at_10: f64,
    /// NDCG@10 of the target items.
    pub ndcg_at_10: f64,
    /// HR@10 on the leave-one-out test items (99 sampled negatives).
    pub hr_at_10: f64,
}

/// The federated NCF deployment.
pub struct NcfSimulation {
    sim: Simulation,
    hidden: usize,
    k: usize,
}

impl NcfSimulation {
    /// Build over `data` with `num_malicious` adversary-controlled slots.
    pub fn new(
        data: &Dataset,
        cfg: NcfConfig,
        adversary: Box<dyn NcfAdversary>,
        num_malicious: usize,
    ) -> Self {
        let fed = cfg.fed_config();
        let sim = Simulation::with_model(
            Arc::new(data.clone()),
            fed,
            Box::new(NcfClientModel::new(cfg.hidden, cfg.k)),
            Box::new(NcfAdversaryBridge::new(adversary, cfg.hidden, cfg.k)),
            num_malicious,
            DefensePipeline::plain(Box::new(SumAggregator)),
            StoreBackend::Dense,
        );
        Self {
            sim,
            hidden: cfg.hidden,
            k: cfg.k,
        }
    }

    /// Current shared item matrix.
    pub fn items(&self) -> &Matrix {
        self.sim.items()
    }

    /// Current shared MLP parameters (rebuilt from the round loop's flat
    /// shared block).
    pub fn theta(&self) -> Theta {
        Theta::from_flat(self.hidden, self.k, self.sim.shared())
    }

    /// The generic simulation underneath (checkpointing, fault plans,
    /// store introspection).
    pub fn inner(&self) -> &Simulation {
        &self.sim
    }

    /// Assemble the measurement-only global model.
    pub fn model(&self) -> NcfModel {
        NcfModel {
            user_factors: self.sim.user_factors(),
            item_factors: self.sim.items().clone(),
            theta: self.theta(),
        }
    }

    /// Run all epochs; returns the per-epoch benign loss.
    pub fn run(&mut self) -> Vec<f32> {
        self.sim.run(None).losses
    }

    /// One round; returns the benign loss.
    pub fn step(&mut self, epoch: usize) -> f32 {
        self.sim.step(epoch)
    }

    /// Evaluate the current global model: target exposure plus HR@10.
    pub fn evaluate(
        &self,
        train: &Dataset,
        test: &fedrec_data::split::TestSet,
        targets: &[u32],
        seed: u64,
    ) -> NcfEvalReport {
        let model = self.model();
        let mut acc = MetricsAccumulator::new();
        let mut rng = SeededRng::new(seed);
        let mut scores = vec![0.0f32; train.num_items()];
        let proj = ItemProjection::new(&model.theta, &model.item_factors);
        for (u, t) in test.iter().enumerate() {
            proj.scores(model.user_factors.row(u), &mut scores);
            acc.push_user_attack(&mut DenseScores::new(&scores), train.user_items(u), targets);
            if let Some(test_item) = *t {
                let pos = train.user_items(u);
                let available = train.num_items().saturating_sub(pos.len() + 1);
                let want = 99.min(available);
                let mut negs = Vec::with_capacity(want);
                while negs.len() < want {
                    let v = rng.below(train.num_items()) as u32;
                    if v != test_item && pos.binary_search(&v).is_err() && !negs.contains(&v) {
                        negs.push(v);
                    }
                }
                acc.push_user_hr(&mut DenseScores::new(&scores), test_item, &negs);
            }
        }
        let m = acc.attack_metrics();
        NcfEvalReport {
            er_at_10: m.er_at_10,
            ndcg_at_10: m.ndcg_at_10,
            hr_at_10: acc.hr_at_10(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::NcfNoAttack;
    use fedrec_data::split::leave_one_out;
    use fedrec_data::synthetic::SyntheticConfig;

    #[test]
    fn clean_ncf_training_descends_and_learns() {
        let data = SyntheticConfig::smoke().generate(1);
        let (train, test) = leave_one_out(&data, 2);
        let cfg = NcfConfig::smoke();
        let mut sim = NcfSimulation::new(&train, cfg, Box::new(NcfNoAttack), 0);
        let losses = sim.run();
        assert!(losses.last().unwrap() < &(losses[0] * 0.95), "{losses:?}");
        let targets = train.coldest_items(1);
        let rep = sim.evaluate(&train, &test, &targets, 3);
        assert!(rep.hr_at_10 > 0.15, "NCF failed to learn: {rep:?}");
        assert!(rep.er_at_10 < 0.2, "cold target exposed: {rep:?}");
    }

    #[test]
    fn run_is_deterministic() {
        let data = SyntheticConfig::smoke().generate(2);
        let go = || {
            let mut sim = NcfSimulation::new(&data, NcfConfig::smoke(), Box::new(NcfNoAttack), 3);
            let l = sim.run();
            (l, sim.theta())
        };
        let (l1, t1) = go();
        let (l2, t2) = go();
        assert_eq!(l1, l2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn theta_moves_during_training() {
        let data = SyntheticConfig::smoke().generate(3);
        let mut sim = NcfSimulation::new(&data, NcfConfig::smoke(), Box::new(NcfNoAttack), 0);
        let before = sim.theta();
        sim.step(0);
        assert_ne!(before, sim.theta(), "Θ must be updated by Eq. 7");
    }

    #[test]
    fn dp_noise_changes_the_trajectory() {
        let data = SyntheticConfig::smoke().generate(4);
        let mut clean = NcfSimulation::new(&data, NcfConfig::smoke(), Box::new(NcfNoAttack), 0);
        let cfg_noisy = NcfConfig {
            noise_scale: 0.1,
            ..NcfConfig::smoke()
        };
        let mut noisy = NcfSimulation::new(&data, cfg_noisy, Box::new(NcfNoAttack), 0);
        clean.step(0);
        noisy.step(0);
        assert_ne!(clean.theta(), noisy.theta());
    }

    #[test]
    fn wrapper_reports_the_ncf_model_seam() {
        let data = SyntheticConfig::smoke().generate(5);
        let sim = NcfSimulation::new(&data, NcfConfig::smoke(), Box::new(NcfNoAttack), 0);
        assert_eq!(sim.inner().model_name(), "ncf");
        assert_eq!(
            sim.inner().shared().len(),
            Theta::len_for(16, 8),
            "shared block is the flattened MLP"
        );
    }
}
