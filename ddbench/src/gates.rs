//! Correctness gates. Each returns whether the program's output passed;
//! a failed gate fails the run and counts as a failed operation.
//!
//! Every gate is also shown, on the run's own data, to reject a corrupted
//! copy of that data ([`self_checks`]); a gate that would let a corrupted
//! output through counts as a missed check.

use std::collections::HashMap;
use std::sync::Arc;

use dd_graph::NodeId;
use dd_stream::{StreamEngine, TieEvent};
use deepdirect::{DirectionalityModel, FoldInIndex};

use crate::load::Outcome;

/// The offline answer for any served score: each model the server may have
/// answered with, keyed by fingerprint, with its fold-in index.
pub struct Oracle {
    models: HashMap<u64, (Arc<DirectionalityModel>, FoldInIndex)>,
}

impl Oracle {
    pub fn new(models: &[Arc<DirectionalityModel>]) -> Self {
        let models = models
            .iter()
            .map(|m| (m.fingerprint(), (Arc::clone(m), FoldInIndex::build(m))))
            .collect();
        Oracle { models }
    }

    /// The score a live key must get from the model with `fingerprint`:
    /// the trained score for a trained tie, the fold-in score (`0.5` for
    /// an unseen head) for a dynamic one. `None` for an unknown model.
    pub fn expected(
        &self,
        fingerprint: u64,
        key: (u32, u32),
        scratch: &mut Vec<f32>,
    ) -> Option<f64> {
        let (model, index) = self.models.get(&fingerprint)?;
        let (u, v) = (NodeId(key.0), NodeId(key.1));
        Some(match model.score(u, v) {
            Some(s) => s,
            None => index.foldin_score_into(model, u, v, scratch).unwrap_or(0.5),
        })
    }

    /// Whether a served read of a key that was live when sent is
    /// bit-equal to the offline score of the model that answered.
    pub fn read_ok(&self, key: (u32, u32), outcome: &Outcome, scratch: &mut Vec<f32>) -> bool {
        match *outcome {
            Outcome::Scored { score, fingerprint } => self
                .expected(fingerprint, key, scratch)
                .is_some_and(|want| want.to_bits() == score.to_bits()),
            Outcome::Status(_) | Outcome::Transport => false,
        }
    }
}

/// A served score matches the offline engine: `200` with a bit-equal score
/// from the engine's model for a live key, `404` for a dead one.
pub fn sweep_ok(
    engine: &StreamEngine,
    key: (u32, u32),
    outcome: &Outcome,
    scratch: &mut Vec<f32>,
) -> bool {
    let want = engine.score(NodeId(key.0), NodeId(key.1), scratch);
    match (*outcome, want) {
        (Outcome::Scored { score, fingerprint }, Some(w)) => {
            fingerprint == engine.fingerprint() && score.to_bits() == w.to_bits()
        }
        (Outcome::Status(404), None) => true,
        _ => false,
    }
}

/// Every digest the server(s) acknowledged last equals the digest of the
/// acknowledged log replayed offline against the final model.
pub fn digest_ok(served: &[u64], final_model: &Arc<DirectionalityModel>, log: &[TieEvent]) -> bool {
    let offline = StreamEngine::replay(Arc::clone(final_model), log).state_digest();
    !served.is_empty() && served.iter().all(|&d| d == offline)
}

/// Direction-discovery accuracy is at or above the workload's floor.
pub fn accuracy_ok(accuracy: f64, floor: f64) -> bool {
    accuracy.is_finite() && accuracy >= floor
}

/// Every hidden tie scores finite and in `[0, 1]`, both ways round.
pub fn hidden_scores_ok(model: &DirectionalityModel, hidden: &[(NodeId, NodeId)]) -> bool {
    hidden.iter().all(|&(u, v)| {
        [model.score(u, v), model.score(v, u)]
            .iter()
            .all(|s| s.is_some_and(|s| s.is_finite() && (0.0..=1.0).contains(&s)))
    })
}

/// Outcome of one gate.
pub struct Gate {
    pub name: &'static str,
    pub passed: bool,
}

/// Shows each gate rejects a corrupted copy of this run's outputs: a
/// served score with one bit flipped, the log with one acknowledged batch
/// dropped, and an accuracy just below the floor. Returns the name of each
/// gate that let its corruption through.
pub fn self_checks(
    oracle: &Oracle,
    read: Option<((u32, u32), Outcome)>,
    served_digest: Option<u64>,
    final_model: &Arc<DirectionalityModel>,
    batches: &[Vec<TieEvent>],
    floor: f64,
) -> Vec<&'static str> {
    let mut missed = Vec::new();
    let mut scratch = Vec::new();
    if let Some((key, Outcome::Scored { score, fingerprint })) = read {
        let flipped = Outcome::Scored { score: f64::from_bits(score.to_bits() ^ 1), fingerprint };
        if oracle.read_ok(key, &flipped, &mut scratch) {
            missed.push("scores");
        }
    }
    if let (Some(digest), Some(drop)) = (served_digest, batches.len().checked_sub(1)) {
        // Drop the middle batch: the digest must notice a lost write that
        // later batches do not mask.
        let drop = drop / 2;
        let short: Vec<TieEvent> = batches
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop)
            .flat_map(|(_, b)| b.iter().copied())
            .collect();
        if digest_ok(&[digest], final_model, &short) {
            missed.push("ingest_digest");
        }
    }
    if accuracy_ok(floor - 1e-6, floor) {
        missed.push("fit_accuracy");
    }
    missed
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_datasets::spec::twitter;
    use dd_graph::sampling::hide_directions;
    use dd_stream::EventOp;
    use deepdirect::{DeepDirect, DeepDirectConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_model(seed: u64) -> (Arc<DirectionalityModel>, Vec<(NodeId, NodeId)>) {
        let g = twitter().generate(400, 5).network;
        let hidden = hide_directions(&g, 0.5, &mut StdRng::seed_from_u64(6));
        let cfg = DeepDirectConfig {
            dim: 8,
            max_iterations: Some(5_000),
            dstep_epochs: 2,
            seed,
            ..Default::default()
        };
        (Arc::new(DeepDirect::new(cfg).fit(&hidden.network)), hidden.truth)
    }

    fn untrained(model: &DirectionalityModel) -> (u32, u32) {
        let n = model.ties().iter().map(|&(u, v)| u.max(v)).max().unwrap_or(0);
        (n + 1, model.ties()[0].1)
    }

    #[test]
    fn score_gate_rejects_a_flipped_bit_and_a_wrong_model() {
        let (a, _) = small_model(1);
        let (b, _) = small_model(2);
        let oracle = Oracle::new(&[Arc::clone(&a), Arc::clone(&b)]);
        let mut scratch = Vec::new();
        let key = a.ties()[3];
        let score = a.score(NodeId(key.0), NodeId(key.1)).unwrap();
        let good = Outcome::Scored { score, fingerprint: a.fingerprint() };
        assert!(oracle.read_ok(key, &good, &mut scratch));
        let flipped = Outcome::Scored {
            score: f64::from_bits(score.to_bits() ^ 1),
            fingerprint: a.fingerprint(),
        };
        assert!(!oracle.read_ok(key, &flipped, &mut scratch));
        let mislabeled = Outcome::Scored { score, fingerprint: b.fingerprint() };
        assert!(!oracle.read_ok(key, &mislabeled, &mut scratch));
        assert!(!oracle.read_ok(key, &Outcome::Status(404), &mut scratch));
        assert!(!oracle.read_ok(key, &Outcome::Transport, &mut scratch));
        let dynamic = untrained(&a);
        let folded = oracle.expected(a.fingerprint(), dynamic, &mut scratch).unwrap();
        let served = Outcome::Scored { score: folded, fingerprint: a.fingerprint() };
        assert!(oracle.read_ok(dynamic, &served, &mut scratch));
    }

    #[test]
    fn digest_gate_rejects_a_dropped_batch() {
        let (a, _) = small_model(1);
        let (u, v) = untrained(&a);
        let batches: Vec<Vec<TieEvent>> = (0..3)
            .map(|i| {
                vec![
                    TieEvent::new(EventOp::Follow, u + i, v),
                    TieEvent::new(EventOp::Follow, v, u + i),
                ]
            })
            .collect();
        let log: Vec<TieEvent> = batches.concat();
        let served = StreamEngine::replay(Arc::clone(&a), &log).state_digest();
        assert!(digest_ok(&[served], &a, &log));
        assert!(!digest_ok(&[served, served ^ 1], &a, &log));
        assert!(!digest_ok(&[], &a, &log));
        let oracle = Oracle::new(&[Arc::clone(&a)]);
        assert!(self_checks(&oracle, None, Some(served), &a, &batches, 0.5).is_empty());
    }

    #[test]
    fn sweep_gate_checks_scores_and_missing_ties() {
        let (a, _) = small_model(1);
        let (u, v) = untrained(&a);
        let trained = a.ties()[0];
        let log = [
            TieEvent::new(EventOp::Follow, u, v),
            TieEvent::new(EventOp::Unfollow, trained.0, trained.1),
        ];
        let engine = StreamEngine::replay(Arc::clone(&a), &log);
        let mut scratch = Vec::new();
        let dyn_score = engine.score(NodeId(u), NodeId(v), &mut scratch).unwrap();
        let fp = a.fingerprint();
        assert!(sweep_ok(
            &engine,
            (u, v),
            &Outcome::Scored { score: dyn_score, fingerprint: fp },
            &mut scratch
        ));
        assert!(sweep_ok(&engine, trained, &Outcome::Status(404), &mut scratch));
        assert!(!sweep_ok(&engine, (u, v), &Outcome::Status(404), &mut scratch));
        let stale = a.score(NodeId(trained.0), NodeId(trained.1)).unwrap();
        assert!(!sweep_ok(
            &engine,
            trained,
            &Outcome::Scored { score: stale, fingerprint: fp },
            &mut scratch
        ));
    }

    #[test]
    fn accuracy_gate_rejects_below_the_floor() {
        assert!(accuracy_ok(0.70, 0.65));
        assert!(accuracy_ok(0.65, 0.65));
        assert!(!accuracy_ok(0.6499, 0.65));
        assert!(!accuracy_ok(f64::NAN, 0.0));
    }

    #[test]
    fn hidden_score_gate_and_self_checks() {
        let (a, truth) = small_model(1);
        assert!(hidden_scores_ok(&a, &truth));
        let (u, v) = untrained(&a);
        assert!(!hidden_scores_ok(&a, &[(NodeId(u), NodeId(v))]));
        let oracle = Oracle::new(&[Arc::clone(&a)]);
        let key = a.ties()[1];
        let score = a.score(NodeId(key.0), NodeId(key.1)).unwrap();
        let read = Some((key, Outcome::Scored { score, fingerprint: a.fingerprint() }));
        assert!(self_checks(&oracle, read, None, &a, &[], 0.6).is_empty());
    }
}
