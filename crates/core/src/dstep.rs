//! The D-Step: learning the directionality function from the embeddings
//! (Sec. 4.5.2, Algorithm 1 lines 19–21).
//!
//! The labeled universe ties (directed ties and their mirrors) form the
//! training set; features are the embedding rows `m_e`. The paper's head is
//! a logistic regression with L2 regularization, warm-started from the
//! E-Step's joint classifier `(w', b')`. The future-work MLP head is also
//! available via [`DStepHead::Mlp`](crate::config::DStepHead).

use dd_linalg::logreg::{LogRegConfig, LogisticRegression};
use dd_linalg::matrix::DenseMatrix;
use dd_linalg::mlp::{Mlp, MlpConfig};
use dd_linalg::rng::Pcg32;
use dd_linalg::Rows;
use dd_telemetry::EpochProgress;
use serde::{Deserialize, Serialize};

use crate::config::{DStepHead, DeepDirectConfig};
use crate::estep::EStepParams;
use crate::universe::TieUniverse;

/// The trained directionality-function head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DirectionalityHead {
    /// Logistic regression `d(e) = σ(w · m_e + b)` (Eq. 26).
    Logistic(LogisticRegression),
    /// Non-linear head (paper's future-work extension).
    Mlp(Mlp),
}

impl DirectionalityHead {
    /// Directionality value `d(e) ∈ [0, 1]` for a feature vector.
    ///
    /// The logistic head scores through [`dd_linalg::kernels::dot8_f64`]
    /// with f64 accumulation in the kernel's fixed lane order — the same
    /// policy as the model's hot path, so fold-in scores share its
    /// bit-compatibility guarantees. Training is untouched: it goes through
    /// [`dd_linalg::LogisticRegression`]'s own f32 loops.
    #[inline]
    pub fn score(&self, embedding: &[f32]) -> f64 {
        match self {
            DirectionalityHead::Logistic(lr) => dd_linalg::sigmoid64(
                dd_linalg::kernels::dot8_f64(&lr.w, embedding) + f64::from(lr.b),
            ),
            DirectionalityHead::Mlp(mlp) => mlp.predict_proba(embedding) as f64,
        }
    }
}

/// Feature dimensionality of the D-Step under `cfg`.
pub fn feature_dim(cfg: &DeepDirectConfig) -> usize {
    if cfg.context_features {
        2 * cfg.dim
    } else {
        cfg.dim
    }
}

/// The D-Step's training rows, read in place from the E-Step matrices: row
/// `i` is `m_e` of the `i`-th labeled tie `e`, extended with `n_e` under
/// `context_features` (the extension that restores the tail side, DESIGN
/// §7.5).
struct TieRows<'a> {
    m: &'a DenseMatrix,
    n: Option<&'a DenseMatrix>,
    ties: Vec<usize>,
}

impl Rows for TieRows<'_> {
    fn len(&self) -> usize {
        self.ties.len()
    }

    fn copy_row(&self, i: usize, out: &mut [f32]) {
        let e = self.ties[i];
        let (head, tail) = out.split_at_mut(self.m.cols());
        head.copy_from_slice(self.m.row(e));
        match self.n {
            Some(n) => tail.copy_from_slice(n.row(e)),
            None => debug_assert!(tail.is_empty()),
        }
    }
}

/// Trains the D-Step head on the labeled ties of the universe.
pub fn train(
    universe: &TieUniverse,
    estep: &EStepParams,
    cfg: &DeepDirectConfig,
) -> DirectionalityHead {
    let (ties, ys): (Vec<usize>, Vec<f32>) = universe
        .labeled_ties()
        .map(|(i, tie)| (i, tie.label.expect("labeled_ties yields labeled ties")))
        .unzip();
    assert!(!ties.is_empty(), "TDL requires at least one directed tie (Definition 1)");
    let rows = TieRows { m: &estep.m, n: cfg.context_features.then_some(&estep.n), ties };
    match cfg.head {
        DStepHead::Logistic => {
            // Warm start from (w', b') per Algorithm 1 line 20; the context
            // half (extension) starts at zero.
            let mut w0 = estep.w.clone();
            w0.resize(feature_dim(cfg), 0.0);
            let mut lr = LogisticRegression::from_params(w0, estep.b);
            let logreg_cfg = LogRegConfig {
                epochs: cfg.dstep_epochs,
                lr: 0.05,
                l2: cfg.dstep_l2,
                seed: cfg.seed ^ 0xd5,
            };
            let total_epochs = cfg.dstep_epochs as u64;
            let mut report = |epoch: usize, loss: f64| {
                cfg.observer.on_epoch(&EpochProgress {
                    stage: "dstep".to_string(),
                    epoch: epoch as u64,
                    total_epochs,
                    loss,
                });
            };
            let progress: Option<&mut dyn FnMut(usize, f64)> =
                if cfg.observer.is_enabled() { Some(&mut report) } else { None };
            lr.fit_rows(&rows, &ys, None, &logreg_cfg, progress);
            DirectionalityHead::Logistic(lr)
        }
        DStepHead::Mlp => {
            let mut rng = Pcg32::seed_from_u64(cfg.seed ^ 0x31a9);
            let mut mlp = Mlp::new(feature_dim(cfg), cfg.mlp_hidden, &mut rng);
            mlp.fit_rows(
                &rows,
                &ys,
                &MlpConfig {
                    hidden: cfg.mlp_hidden,
                    epochs: cfg.dstep_epochs,
                    lr: 0.05,
                    l2: cfg.dstep_l2,
                    seed: cfg.seed ^ 0x31aa,
                },
            );
            DirectionalityHead::Mlp(mlp)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estep;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::hide_directions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (TieUniverse, EStepParams, DeepDirectConfig) {
        let gen_cfg = SocialNetConfig { n_nodes: 120, ..Default::default() };
        let mut grng = StdRng::seed_from_u64(seed);
        let net = social_network(&gen_cfg, &mut grng).network;
        let hidden = hide_directions(&net, 0.5, &mut grng);
        let mut rng = Pcg32::seed_from_u64(seed);
        let u = TieUniverse::build(&hidden.network, 8, &mut rng);
        let cfg = DeepDirectConfig {
            dim: 16,
            max_iterations: Some(50_000),
            ..DeepDirectConfig::default()
        };
        let e = estep::train(&u, &cfg);
        (u, e.params, cfg)
    }

    /// The D-Step as written before rows were read in place: materialized
    /// feature vectors and the per-sample SGD loop with its `f32` step
    /// counter. Returns the head and the per-epoch losses (index order).
    fn reference_logistic(
        u: &TieUniverse,
        params: &EStepParams,
        cfg: &DeepDirectConfig,
    ) -> (LogisticRegression, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (i, tie) in u.labeled_ties() {
            let mut x = params.m.row(i).to_vec();
            if cfg.context_features {
                x.extend_from_slice(params.n.row(i));
            }
            xs.push(x);
            ys.push(tie.label.unwrap());
        }
        let mut w0 = params.w.clone();
        w0.resize(feature_dim(cfg), 0.0);
        let mut model = LogisticRegression::from_params(w0, params.b);
        let mut rng = Pcg32::seed_from_u64(cfg.seed ^ 0xd5);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let total_steps = (cfg.dstep_epochs * xs.len()).max(1) as f32;
        let mut step = 0f32;
        let mut losses = Vec::new();
        for _ in 0..cfg.dstep_epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(i + 1);
                order.swap(i, j);
            }
            for &i in &order {
                let lr = 0.05 * (1.0 - step / total_steps).max(0.01);
                model.sgd_step(&xs[i], ys[i], 1.0, lr, cfg.dstep_l2);
                step += 1.0;
            }
            let total: f64 = xs
                .iter()
                .zip(&ys)
                .map(|(x, &y)| dd_linalg::cross_entropy(y as f64, model.predict_proba(x) as f64))
                .sum();
            losses.push(total / xs.len() as f64);
        }
        (model, losses)
    }

    #[derive(Default)]
    struct EpochLosses(std::sync::Mutex<Vec<f64>>);

    impl dd_telemetry::TrainObserver for EpochLosses {
        fn on_event(&self, e: &dd_telemetry::Event) {
            if e.kind == dd_telemetry::kind::DSTEP_EPOCH {
                self.0.lock().unwrap().push(e.sampled_loss.unwrap());
            }
        }
    }

    #[test]
    fn logistic_head_is_bit_identical_to_the_materialized_loop() {
        let (u, params, cfg) = setup(4);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for context_features in [false, true] {
            let cfg = DeepDirectConfig { context_features, dstep_epochs: 6, ..cfg.clone() };
            let (reference, losses) = reference_logistic(&u, &params, &cfg);
            let DirectionalityHead::Logistic(plain) = train(&u, &params, &cfg) else {
                panic!("logistic head expected")
            };
            assert_eq!(bits(&plain.w), bits(&reference.w), "context={context_features}");
            assert_eq!(plain.b.to_bits(), reference.b.to_bits());

            let sink = std::sync::Arc::new(EpochLosses::default());
            let observed = DeepDirectConfig {
                observer: dd_telemetry::ObserverHandle::new(sink.clone()),
                ..cfg
            };
            let DirectionalityHead::Logistic(watched) = train(&u, &params, &observed) else {
                panic!("logistic head expected")
            };
            assert_eq!(bits(&watched.w), bits(&reference.w), "context={context_features}");
            assert_eq!(watched.b.to_bits(), reference.b.to_bits());
            let seen = sink.0.lock().unwrap();
            assert_eq!(
                seen.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn logistic_head_fits_labels() {
        let (u, params, cfg) = setup(1);
        let head = train(&u, &params, &cfg);
        let mut correct = 0;
        let mut total = 0;
        for (i, tie) in u.labeled_ties() {
            let d = head.score(params.m.row(i));
            assert!((0.0..=1.0).contains(&d));
            if (d >= 0.5) == (tie.label.unwrap() >= 0.5) {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "D-Step train accuracy {acc}");
    }

    #[test]
    fn mlp_head_fits_labels() {
        let (u, params, mut cfg) = setup(2);
        cfg.head = DStepHead::Mlp;
        cfg.mlp_hidden = 16;
        let head = train(&u, &params, &cfg);
        assert!(matches!(head, DirectionalityHead::Mlp(_)));
        let mut correct = 0;
        let mut total = 0;
        for (i, tie) in u.labeled_ties() {
            let d = head.score(params.m.row(i));
            if (d >= 0.5) == (tie.label.unwrap() >= 0.5) {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "MLP D-Step train accuracy {acc}");
    }

    #[test]
    fn reverse_pairs_get_complementary_scores() {
        let (u, params, cfg) = setup(3);
        let head = train(&u, &params, &cfg);
        // For a directed tie and its mirror the scores should mostly
        // straddle 0.5 in opposite directions.
        let mut agree = 0usize;
        let mut total = 0usize;
        for (i, tie) in u.labeled_ties() {
            if tie.label == Some(1.0) {
                let rev = u.find(tie.dst, tie.src).unwrap();
                let d_fwd = head.score(params.m.row(i));
                let d_rev = head.score(params.m.row(rev));
                if d_fwd > d_rev {
                    agree += 1;
                }
                total += 1;
            }
        }
        let frac = agree as f64 / total as f64;
        assert!(frac > 0.85, "forward beats mirror on {frac} of ties");
    }
}
