//! Logistic regression — the directionality-function model of Sec. 3.2 and
//! the D-Step of DeepDirect (Sec. 4.5.2).
//!
//! `d(e) = σ(w · x_e + b)` trained by mini-batchless SGD on the binary
//! cross-entropy with optional L2 regularization and per-sample weights.
//! Supports warm-starting `w, b` from the E-Step's joint classifier
//! (`w', b'`), as Algorithm 1 line 20 prescribes.

use serde::{Deserialize, Serialize};

use crate::activations::{cross_entropy, sigmoid};
use crate::rng::Pcg32;
use crate::rows::{visit_gathered, Rows, ShuffledEpochs};

/// Training hyper-parameters for [`LogisticRegression::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogRegConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to `lr / 100`.
    pub lr: f32,
    /// L2 regularization strength (applied to `w`, not `b`).
    pub l2: f32,
    /// Seed for the shuffling RNG.
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig { epochs: 20, lr: 0.1, l2: 1e-4, seed: 0x5eed }
    }
}

/// A binary logistic regression model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    /// Weight vector `w`.
    pub w: Vec<f32>,
    /// Bias `b`.
    pub b: f32,
}

impl LogisticRegression {
    /// Zero-initialized model over `dim` features.
    pub fn new(dim: usize) -> Self {
        LogisticRegression { w: vec![0.0; dim], b: 0.0 }
    }

    /// Model warm-started from existing parameters (D-Step initialization).
    pub fn from_params(w: Vec<f32>, b: f32) -> Self {
        LogisticRegression { w, b }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Raw decision value `w · x + b`.
    #[inline]
    pub fn decision(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.w.len());
        crate::vecops::dot(&self.w, x) + self.b
    }

    /// Predicted probability `σ(w · x + b)`.
    #[inline]
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        sigmoid(self.decision(x))
    }

    /// Hard 0/1 prediction at threshold 0.5.
    #[inline]
    pub fn predict(&self, x: &[f32]) -> bool {
        self.decision(x) >= 0.0
    }

    /// One SGD step on a single `(x, y)` example with sample weight `sw` and
    /// learning rate `lr`. Labels may be soft (`y ∈ [0, 1]`).
    #[inline]
    pub fn sgd_step(&mut self, x: &[f32], y: f32, sw: f32, lr: f32, l2: f32) {
        let p = self.predict_proba(x);
        let g = sw * (p - y); // ∂CE/∂z for soft labels
        for (wi, xi) in self.w.iter_mut().zip(x) {
            *wi -= lr * (g * xi + l2 * *wi);
        }
        self.b -= lr * g;
    }

    /// Trains on `xs[i] → ys[i]` (with optional per-sample weights) by
    /// shuffled SGD.
    ///
    /// # Panics
    /// Panics when shapes disagree or the dataset is empty.
    pub fn fit(
        &mut self,
        xs: &[Vec<f32>],
        ys: &[f32],
        sample_weights: Option<&[f32]>,
        cfg: &LogRegConfig,
    ) {
        self.fit_rows(xs, ys, sample_weights, cfg, None);
    }

    /// Trains on `rows[i] → ys[i]` by shuffled SGD, reading each row from
    /// `rows` once per epoch (see [`crate::rows`]). With `progress`, calls
    /// `progress(epoch, log_loss)` after every epoch (1-based); the loss,
    /// summed in row order, is only computed when a callback is attached.
    ///
    /// # Panics
    /// Panics when shapes disagree or the dataset is empty.
    pub fn fit_rows<R: Rows + ?Sized>(
        &mut self,
        rows: &R,
        ys: &[f32],
        sample_weights: Option<&[f32]>,
        cfg: &LogRegConfig,
        mut progress: Option<&mut dyn FnMut(usize, f64)>,
    ) {
        assert_eq!(rows.len(), ys.len(), "xs and ys must align");
        assert!(!rows.is_empty(), "empty training set");
        if let Some(sw) = sample_weights {
            assert_eq!(sw.len(), ys.len(), "sample weights must align");
        }
        let rng = Pcg32::seed_from_u64(cfg.seed);
        let mut epochs = ShuffledEpochs::new(rows, self.dim(), rng, cfg.lr, cfg.epochs);
        for epoch in 0..cfg.epochs {
            epochs.epoch(|i, x, lr| {
                let sw = sample_weights.map_or(1.0, |s| s[i]);
                self.sgd_step(x, ys[i], sw, lr, cfg.l2);
            });
            if let Some(cb) = progress.as_deref_mut() {
                cb(epoch + 1, self.log_loss_rows(rows, ys));
            }
        }
    }

    /// Mean binary cross-entropy of the model on a dataset.
    pub fn log_loss(&self, xs: &[Vec<f32>], ys: &[f32]) -> f64 {
        self.log_loss_rows(xs, ys)
    }

    /// [`log_loss`](Self::log_loss) over a row source, summed in row order.
    fn log_loss_rows<R: Rows + ?Sized>(&self, rows: &R, ys: &[f32]) -> f64 {
        assert_eq!(rows.len(), ys.len());
        if ys.is_empty() {
            return 0.0;
        }
        let order: Vec<usize> = (0..ys.len()).collect();
        let mut total = 0.0f64;
        visit_gathered(rows, &order, self.dim(), &mut Vec::new(), |i, x| {
            total += cross_entropy(ys[i] as f64, self.predict_proba(x) as f64);
        });
        total / ys.len() as f64
    }

    /// Classification accuracy at threshold 0.5 against hard labels.
    pub fn accuracy(&self, xs: &[Vec<f32>], ys: &[f32]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return 0.0;
        }
        let correct = xs.iter().zip(ys).filter(|(x, &y)| self.predict(x) == (y >= 0.5)).count();
        correct as f64 / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable 2-D blobs.
    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(2 * n);
        let mut ys = Vec::with_capacity(2 * n);
        for _ in 0..n {
            xs.push(vec![1.0 + rng.next_f32(), 1.0 + rng.next_f32()]);
            ys.push(1.0);
            xs.push(vec![-1.0 - rng.next_f32(), -1.0 - rng.next_f32()]);
            ys.push(0.0);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_blobs() {
        let (xs, ys) = blobs(200, 1);
        let mut lr = LogisticRegression::new(2);
        lr.fit(&xs, &ys, None, &LogRegConfig::default());
        assert!(lr.accuracy(&xs, &ys) > 0.99);
        assert!(lr.log_loss(&xs, &ys) < 0.2);
    }

    #[test]
    fn warm_start_preserved() {
        let lr = LogisticRegression::from_params(vec![1.0, -2.0], 0.5);
        assert_eq!(lr.w, vec![1.0, -2.0]);
        assert_eq!(lr.b, 0.5);
        assert_eq!(lr.dim(), 2);
        // decision = 1*1 + (-2)*1 + 0.5 = -0.5 → class 0.
        assert!(!lr.predict(&[1.0, 1.0]));
        assert!(lr.predict_proba(&[1.0, 1.0]) < 0.5);
    }

    #[test]
    fn progress_reports_decreasing_loss_without_changing_fit() {
        let (xs, ys) = blobs(100, 3);
        let cfg = LogRegConfig::default();
        let mut plain = LogisticRegression::new(2);
        plain.fit(&xs, &ys, None, &cfg);
        let mut observed = LogisticRegression::new(2);
        let mut epochs = Vec::new();
        observed.fit_rows(
            xs.as_slice(),
            &ys,
            None,
            &cfg,
            Some(&mut |epoch, loss| epochs.push((epoch, loss))),
        );
        assert_eq!(observed.w, plain.w, "progress hook must not change training");
        assert_eq!(observed.b, plain.b);
        assert_eq!(epochs.len(), cfg.epochs);
        assert_eq!(epochs[0].0, 1);
        assert!(epochs.iter().all(|&(_, l)| l.is_finite()));
        assert!(epochs.last().unwrap().1 < epochs[0].1, "loss should decrease across epochs");
    }

    /// The per-sample SGD loop as written before the gathered epochs (f32
    /// step counter included): the oracle for the bit-identity pins. Returns
    /// the per-epoch losses, summed over the rows in index order.
    fn reference_fit(
        model: &mut LogisticRegression,
        xs: &[Vec<f32>],
        ys: &[f32],
        sample_weights: Option<&[f32]>,
        cfg: &LogRegConfig,
    ) -> Vec<f64> {
        let mut rng = Pcg32::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let total_steps = (cfg.epochs * xs.len()).max(1) as f32;
        let mut step = 0f32;
        let mut losses = Vec::new();
        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(i + 1);
                order.swap(i, j);
            }
            for &i in &order {
                let lr = cfg.lr * (1.0 - step / total_steps).max(0.01);
                let sw = sample_weights.map_or(1.0, |s| s[i]);
                model.sgd_step(&xs[i], ys[i], sw, lr, cfg.l2);
                step += 1.0;
            }
            let total: f64 = xs
                .iter()
                .zip(ys)
                .map(|(x, &y)| cross_entropy(y as f64, model.predict_proba(x) as f64))
                .sum();
            losses.push(total / xs.len() as f64);
        }
        losses
    }

    #[test]
    fn gathered_fit_is_bit_identical_to_the_per_sample_loop() {
        // More rows than one gather block, so blocks and their seams are
        // covered; noisy labels so the weights keep moving every epoch.
        let mut rng = Pcg32::seed_from_u64(17);
        let xs: Vec<Vec<f32>> =
            (0..1_337).map(|_| (0..5).map(|_| rng.next_f32() * 2.0 - 1.0).collect()).collect();
        let ys: Vec<f32> = xs
            .iter()
            .map(|x| if x[0] + 0.3 * x[1] + 0.4 * rng.next_f32() > 0.2 { 1.0 } else { 0.0 })
            .collect();
        let sw: Vec<f32> = (0..xs.len()).map(|_| 0.5 + rng.next_f32()).collect();
        let cfg = LogRegConfig { epochs: 7, lr: 0.2, l2: 1e-3, seed: 23 };
        let start = LogisticRegression::from_params(vec![0.1, -0.2, 0.0, 0.3, 0.05], -0.1);
        for weights in [None, Some(sw.as_slice())] {
            let mut reference = start.clone();
            let losses = reference_fit(&mut reference, &xs, &ys, weights, &cfg);

            let mut plain = start.clone();
            plain.fit(&xs, &ys, weights, &cfg);
            assert_eq!(
                plain.w.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                reference.w.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(plain.b.to_bits(), reference.b.to_bits());

            let mut observed = start.clone();
            let mut seen = Vec::new();
            observed.fit_rows(
                xs.as_slice(),
                &ys,
                weights,
                &cfg,
                Some(&mut |_, loss| seen.push(loss)),
            );
            assert_eq!(
                observed.w.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                reference.w.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(observed.b.to_bits(), reference.b.to_bits());
            assert_eq!(
                seen.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn l2_shrinks_weights() {
        let (xs, ys) = blobs(100, 2);
        let mut free = LogisticRegression::new(2);
        free.fit(&xs, &ys, None, &LogRegConfig { l2: 0.0, ..Default::default() });
        let mut reg = LogisticRegression::new(2);
        reg.fit(&xs, &ys, None, &LogRegConfig { l2: 0.5, ..Default::default() });
        let n_free = crate::vecops::norm2(&free.w);
        let n_reg = crate::vecops::norm2(&reg.w);
        assert!(n_reg < n_free, "L2 must shrink ({n_reg} vs {n_free})");
    }

    #[test]
    fn sample_weights_bias_decision() {
        // Conflicting labels on the same point; heavier weight should win.
        let xs = vec![vec![1.0f32], vec![1.0]];
        let ys = vec![1.0f32, 0.0];
        let sw = vec![10.0f32, 1.0];
        let mut lr = LogisticRegression::new(1);
        lr.fit(&xs, &ys, Some(&sw), &LogRegConfig { epochs: 200, ..Default::default() });
        assert!(lr.predict_proba(&[1.0]) > 0.5);
    }

    #[test]
    fn soft_labels_converge_to_target() {
        // Single feature always 1, soft label 0.7: optimum is p = 0.7.
        let xs: Vec<Vec<f32>> = (0..50).map(|_| vec![1.0f32]).collect();
        let ys = vec![0.7f32; 50];
        let mut lr = LogisticRegression::new(1);
        lr.fit(&xs, &ys, None, &LogRegConfig { epochs: 300, l2: 0.0, ..Default::default() });
        let p = lr.predict_proba(&[1.0]);
        assert!((p - 0.7).abs() < 0.05, "p = {p}");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_dataset() {
        let mut lr = LogisticRegression::new(1);
        lr.fit(&[], &[], None, &LogRegConfig::default());
    }

    #[test]
    fn serde_roundtrip() {
        let lr = LogisticRegression::from_params(vec![0.25, -0.5], 1.5);
        let s = serde_json::to_string(&lr).unwrap();
        let lr2: LogisticRegression = serde_json::from_str(&s).unwrap();
        assert_eq!(lr2.w, lr.w);
        assert_eq!(lr2.b, lr.b);
    }
}
