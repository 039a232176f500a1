//! The three workloads. Each is one plan run through the same phases:
//! set-up, a fitted model behind a serving topology, open-loop reads and
//! an ingest log with reloads, a rate ladder, and the gates.
//! The plans differ in what they stress; see `README.md` beside this file.

use crate::load::KeyDist;

/// When the open-loop reader runs.
#[derive(Clone, Copy, Debug)]
pub enum ReadSpan {
    /// A fixed window, in slices that alternate with passes of the log
    /// on topologies of their own.
    Fixed(f64),
    /// While the writer posts the log, beside it.
    BesideWrites,
}

/// Everything that distinguishes one workload from another.
#[derive(Clone, Debug)]
pub struct Plan {
    pub name: &'static str,
    /// Twitter-analog scale divisor (`1` = the paper's node count).
    pub scale: usize,
    pub dim: usize,
    /// E-step iteration cap.
    pub iterations: u64,
    pub dstep_epochs: usize,
    /// `true`: set-up only generates the data and the fit is measured on
    /// its own. `false`: set-up trains two serving models (the second is
    /// the alternate reload artifact) and `fit_s` is the set-up fit.
    pub measured_fit: bool,
    /// Two shard servers behind an in-process router, or one server.
    pub routed: bool,
    pub read_rate: f64,
    pub read_keys: KeyDist,
    pub read_span: ReadSpan,
    /// Latency windows in seconds of due time (`None`: the whole phase).
    pub window_s: Option<f64>,
    /// Generator threads of the read phase (at most `nproc` with the writer).
    pub read_threads: usize,
    /// Events in the ingest log.
    pub events: usize,
    /// Events per `/ingest` request.
    pub batch: usize,
    /// Reloads at evenly spaced event counts of the log.
    pub reloads: usize,
    /// Direction-discovery accuracy floor, below every accuracy measured
    /// when the floors were set.
    pub accuracy_floor: f64,
}

pub const NAMES: [&str; 3] = ["fit", "serve-zipf", "ingest-reload"];

/// The plan for `name`, sized by the run's `--seconds`.
pub fn plan(name: &str, seconds: f64) -> Option<Plan> {
    let serving = Plan {
        name: "",
        scale: 4,
        dim: 32,
        iterations: 300_000,
        dstep_epochs: 5,
        measured_fit: false,
        routed: false,
        // At 1000 req/s, p50 and the ingest rate after it wandered more
        // from run to run than at 3000 req/s, and p50 itself was higher
        // (0.34 against 0.18 ms on `serve-zipf`): the vCPUs idle between
        // reads and wake late.
        read_rate: 3000.0,
        read_keys: KeyDist::Uniform,
        read_span: ReadSpan::Fixed(seconds),
        window_s: Some(1.0),
        read_threads: 2,
        // Large batches: where the writes follow the reads, the write phase
        // measures ingest itself, not one connection per 64 events.
        events: 131_072,
        batch: 1_024,
        reloads: 5,
        accuracy_floor: 0.55,
    };
    Some(match name {
        "fit" => Plan {
            name: "fit",
            scale: 1,
            dim: 64,
            iterations: 5_000_000,
            dstep_epochs: 30,
            measured_fit: true,
            // Each reload of the paper-scale artifact takes ~1.7 s, and the
            // log is written once per round.
            reloads: 2,
            accuracy_floor: 0.66,
            ..serving
        },
        "serve-zipf" => {
            Plan { name: "serve-zipf", routed: true, read_keys: KeyDist::Zipf(1.1), ..serving }
        }
        "ingest-reload" => Plan {
            name: "ingest-reload",
            read_rate: 400.0,
            read_span: ReadSpan::BesideWrites,
            window_s: None,
            read_threads: 1,
            events: (16_000.0 * seconds) as usize,
            batch: 64,
            reloads: 8,
            ..serving
        },
        _ => return None,
    })
}
