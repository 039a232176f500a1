//! Shuffled-epoch SGD over a row source, shared by the logistic and MLP
//! heads.
//!
//! Both heads train by plain SGD, visiting the rows in a fresh Fisher–Yates
//! order every epoch. When the rows live in a large matrix (the D-Step
//! reads embedding rows straight out of the E-Step's `M`), visiting them in
//! shuffled order makes each SGD step wait on a cache miss, and the misses
//! never overlap: the next step's loads sit behind this step's updates.
//! `ShuffledEpochs` therefore copies each block of the shuffled order into
//! a small contiguous buffer first (independent loads the CPU overlaps) and
//! then visits the buffered rows in the same order. The SGD arithmetic and
//! the RNG use are those of the plain loop, so the result is bit-identical.

use crate::rng::Pcg32;

/// A training set's feature rows, readable by index.
pub trait Rows {
    /// Number of rows.
    fn len(&self) -> usize;

    /// Whether there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies row `i` into `out`, whose length is the feature count.
    fn copy_row(&self, i: usize, out: &mut [f32]);
}

impl Rows for [Vec<f32>] {
    fn len(&self) -> usize {
        <[Vec<f32>]>::len(self)
    }

    fn copy_row(&self, i: usize, out: &mut [f32]) {
        out.copy_from_slice(&self[i]);
    }
}

/// Rows gathered per block: 512 rows of 64 floats are 128 KiB, so a block
/// stays in L2 between its gather and its SGD steps.
const GATHER_ROWS: usize = 512;

/// Learning rate `lr · max(1 − step/total, 0.01)` of the linear decay both
/// heads use. `step` counts in an integer: an `f32` counter stops at 2^24
/// (`2^24 + 1.0 == 2^24`), which froze the decay on long fits. The cast is
/// exact below 2^24, so shorter fits are unchanged.
#[inline]
fn decayed_lr(lr: f32, step: u64, total_steps: f32) -> f32 {
    lr * (1.0 - step as f32 / total_steps).max(0.01)
}

/// Calls `visit(i, x_i)` for every `i` in `order`, in that order, copying
/// each block of the rows into `buf` before visiting it.
pub(crate) fn visit_gathered<R: Rows + ?Sized>(
    rows: &R,
    order: &[usize],
    dim: usize,
    buf: &mut Vec<f32>,
    mut visit: impl FnMut(usize, &[f32]),
) {
    buf.resize(dim * GATHER_ROWS.min(order.len()), 0.0);
    for block in order.chunks(GATHER_ROWS) {
        for (&i, out) in block.iter().zip(buf.chunks_exact_mut(dim)) {
            rows.copy_row(i, out);
        }
        for (&i, x) in block.iter().zip(buf.chunks_exact(dim)) {
            visit(i, x);
        }
    }
}

/// Shuffled SGD's visiting order and learning-rate schedule, with the rows
/// gathered block by block into a contiguous buffer.
pub(crate) struct ShuffledEpochs<'a, R: Rows + ?Sized> {
    rows: &'a R,
    dim: usize,
    order: Vec<usize>,
    rng: Pcg32,
    buf: Vec<f32>,
    lr: f32,
    total_steps: f32,
    step: u64,
}

impl<'a, R: Rows + ?Sized> ShuffledEpochs<'a, R> {
    /// Visiting state over `rows` of `dim` features, shuffled by `rng`, with
    /// the learning rate decaying from `lr` over `epochs` passes.
    pub(crate) fn new(rows: &'a R, dim: usize, rng: Pcg32, lr: f32, epochs: usize) -> Self {
        let order: Vec<usize> = (0..rows.len()).collect();
        let total_steps = (epochs * order.len()).max(1) as f32;
        ShuffledEpochs { rows, dim, order, rng, buf: Vec::new(), lr, total_steps, step: 0 }
    }

    /// Reshuffles the order (Fisher–Yates) and calls `visit(i, x_i, lr)` for
    /// every row in it, with the step's decayed learning rate.
    pub(crate) fn epoch(&mut self, mut visit: impl FnMut(usize, &[f32], f32)) {
        for i in (1..self.order.len()).rev() {
            let j = self.rng.gen_range(i + 1);
            self.order.swap(i, j);
        }
        let (lr, total_steps, step) = (self.lr, self.total_steps, &mut self.step);
        visit_gathered(self.rows, &self.order, self.dim, &mut self.buf, |i, x| {
            visit(i, x, decayed_lr(lr, *step, total_steps));
            *step += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_keeps_decaying_past_two_to_the_24_steps() {
        let f32_limit = 1u64 << 24;
        // The old f32 counter stops at 2^24: a million more steps leave it,
        // and so the learning rate, where it was.
        let mut frozen = f32_limit as f32;
        for _ in 0..1_000_000 {
            frozen += 1.0;
        }
        assert_eq!(frozen, f32_limit as f32);
        // The integer counter keeps the decay going to the end of a fit of
        // 3 · 2^24 steps.
        let total = (3 * f32_limit) as f32;
        let mut prev = decayed_lr(0.05, f32_limit, total);
        for k in 1..=32 {
            let step = f32_limit + k * (f32_limit / 16);
            let lr = decayed_lr(0.05, step, total);
            assert!(lr < prev, "lr must keep decreasing at step {step}: {lr} vs {prev}");
            prev = lr;
        }
        assert!(prev < 0.05 * 0.02, "lr {prev} must approach its floor");
    }

    #[test]
    fn epochs_visit_every_row_once_in_the_shuffled_order() {
        let rows: Vec<Vec<f32>> = (0..1_300).map(|i| vec![i as f32, -(i as f32)]).collect();
        let mut epochs = ShuffledEpochs::new(rows.as_slice(), 2, Pcg32::seed_from_u64(5), 0.1, 3);
        let mut rng = Pcg32::seed_from_u64(5);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        for _ in 0..3 {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(i + 1);
                order.swap(i, j);
            }
            let mut seen = Vec::new();
            epochs.epoch(|i, x, _| {
                assert_eq!(x, rows[i].as_slice());
                seen.push(i);
            });
            assert_eq!(seen, order);
        }
    }
}
