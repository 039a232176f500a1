//! Runs one workload plan end to end and collects its metrics.
//!
//! Every layer is driven through its public functions and timed from
//! outside: the benchmark's own spans sit around each call. The traced run
//! (`--trace 1`) repeats the same phases and adds the per-layer
//! measurements; end-to-end numbers come from untraced runs only.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dd_datasets::spec::twitter;
use dd_datasets::{temporal_event_stream, EventStreamConfig};
use dd_graph::sampling::{hide_directions, HiddenDirections};
use dd_graph::{MixedSocialNetwork, NodeId};
use dd_serve::{
    client, http, IngestResponse, ReloadResponse, Router, RouterConfig, RouterHandle,
    ScoreResponse, ServeConfig, Server, ServerHandle,
};
use dd_stream::{parse_events, to_jsonl, EventOp, StreamEngine, TieEvent};
use dd_telemetry::{Event, MetricSnapshot, ObserverHandle, Registry, TrainObserver};
use deepdirect::apps::discovery::{discover_directions, discovery_accuracy};
use deepdirect::{
    dstep, estep, DeepDirect, DeepDirectConfig, DirectionalityModel, FoldInIndex, TieUniverse,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gates::{self, Gate, Oracle};
use crate::load::{self, KeyDist, Outcome, Sample, Schedule};
use crate::machine::peak_rss_mb;
use crate::workload::{Plan, ReadSpan};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Read slices and passes of the write log on a fixed-window plan.
const ROUNDS: usize = 4;
/// Ladder limit: a rung passes when `p99` from the due time stays within it.
const LADDER_P99_S: f64 = 0.002;
/// Each ladder rung offers this much more than the last.
const LADDER_STEP: f64 = 1.1;
const LADDER_START: f64 = 1000.0;
/// Serial post-run score sweep, per key class.
const SWEEP_KEYS: usize = 1000;
/// Reads replayed by the overhead measurement before the write log.
const REPLAY_READS: usize = 2000;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunOutput {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Gates that let a corrupted copy of this run's output through.
    pub missed_checks: Vec<&'static str>,
    /// Human-readable lines for the report (sample counts, ladder rungs).
    pub notes: Vec<String>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn model_config(plan: &Plan, seed: u64) -> DeepDirectConfig {
    DeepDirectConfig {
        dim: plan.dim,
        max_iterations: Some(plan.iterations),
        dstep_epochs: plan.dstep_epochs,
        threads: 2,
        seed,
        ..Default::default()
    }
}

/// Collects the durations of the program's existing spans with the given
/// names while active: the servers' `serve.queue_wait`, and the fit's
/// `universe.build`, `estep.train` and `dstep.train`.
struct SpanLog {
    names: &'static [&'static str],
    active: AtomicBool,
    seconds: Mutex<Vec<f64>>,
}

impl SpanLog {
    fn new(names: &'static [&'static str], active: bool) -> Arc<Self> {
        Arc::new(SpanLog {
            names,
            active: AtomicBool::new(active),
            seconds: Mutex::new(Vec::new()),
        })
    }

    fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.seconds.lock().expect("span log poisoned"))
    }
}

impl TrainObserver for SpanLog {
    fn on_event(&self, event: &Event) {
        if self.active.load(Ordering::Relaxed)
            && event.kind == "span"
            && event.name.as_deref().is_some_and(|n| self.names.contains(&n))
        {
            if let Some(s) = event.seconds {
                self.seconds.lock().expect("span log poisoned").push(s);
            }
        }
    }
}

/// The serving topology: one stream-enabled server, or two behind a
/// router. Requests go to `entry`.
struct Topology {
    servers: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    entry: String,
}

impl Topology {
    fn start(
        model: &Arc<DirectionalityModel>,
        routed: bool,
        observer: &ObserverHandle,
    ) -> Result<Self, String> {
        let mut servers = Vec::new();
        for _ in 0..if routed { 2 } else { 1 } {
            servers.push(Server::start(
                Arc::clone(model),
                ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    stream: true,
                    observer: observer.clone(),
                    ..Default::default()
                },
            )?);
        }
        let router = if routed {
            Some(Router::start(RouterConfig {
                addr: "127.0.0.1:0".to_string(),
                shards: servers.iter().map(|s| s.addr().to_string()).collect(),
                observer: observer.clone(),
                ..Default::default()
            })?)
        } else {
            None
        };
        let entry = match &router {
            Some(r) => r.addr().to_string(),
            None => servers[0].addr().to_string(),
        };
        Ok(Topology { servers, router, entry })
    }

    fn shard_registries(&self) -> Vec<Arc<Registry>> {
        self.servers.iter().map(|s| s.registry()).collect()
    }

    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// Each shard's reply in a response body: the router nests them as
/// `{"shards":[{"detail": …}, …]}`, a lone server sends its own.
fn replies<T: serde::Deserialize>(body: &str) -> Vec<T> {
    let Ok(v) = serde_json::from_str::<serde_json::Value>(body) else { return Vec::new() };
    match v.get("shards") {
        Some(serde_json::Value::Array(shards)) => {
            shards.iter().filter_map(|s| serde_json::from_value(s.get("detail")?).ok()).collect()
        }
        _ => serde_json::from_value(&v).ok().into_iter().collect(),
    }
}

fn score_request(entry: &str, key: (u32, u32)) -> Outcome {
    match client::get(entry, &format!("/score?src={}&dst={}", key.0, key.1)) {
        Ok(r) if r.status == 200 => {
            let parsed = serde_json::from_str::<ScoreResponse>(&r.body).ok();
            let scored = parsed.and_then(|p| {
                let fingerprint = u64::from_str_radix(p.fingerprint.as_deref()?, 16).ok()?;
                Some(Outcome::Scored { score: p.score?, fingerprint })
            });
            scored.unwrap_or(Outcome::Status(200))
        }
        Ok(r) => Outcome::Status(r.status),
        Err(_) => Outcome::Transport,
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Where the reader's keys come from.
enum Keys<'a> {
    /// A precomputed index sequence into a fixed key set.
    Indexed { set: &'a [(u32, u32)], idx: Vec<usize> },
    /// Uniform over the stable trained ties plus the dynamic ties already
    /// acknowledged by `/ingest`, drawn when the request is sent.
    Live {
        stable: &'a [(u32, u32)],
        dynamic: &'a [((u32, u32), usize)],
        acked: &'a AtomicUsize,
        seed: u64,
    },
}

impl Keys<'_> {
    fn key(&self, i: usize) -> (u32, u32) {
        match self {
            Keys::Indexed { set, idx } => set[idx[i % idx.len()]],
            Keys::Live { stable, dynamic, acked, seed } => {
                let acked = acked.load(Ordering::SeqCst);
                let n_dyn = dynamic.partition_point(|&(_, at)| at < acked);
                let j = (splitmix(seed ^ i as u64) % (stable.len() + n_dyn) as u64) as usize;
                if j < stable.len() {
                    stable[j]
                } else {
                    dynamic[j - stable.len()].0
                }
            }
        }
    }
}

/// Keys the ingest log leaves alone or makes permanently live.
struct LogKeys {
    /// Trained ties no event of the log unfollows.
    stable: Vec<(u32, u32)>,
    /// Untrained ties the log follows and never unfollows, each with the
    /// index of the event that makes it live.
    dynamic: Vec<((u32, u32), usize)>,
    /// Every untrained pair the log touches (for the post-run sweep).
    touched_untrained: Vec<(u32, u32)>,
}

fn log_keys(model: &DirectionalityModel, log: &[TieEvent]) -> LogKeys {
    let trained = |p: (u32, u32)| model.tie_row(NodeId(p.0), NodeId(p.1)).is_some();
    let unfollowed: HashSet<(u32, u32)> =
        log.iter().filter(|e| e.op == EventOp::Unfollow).map(|e| (e.src, e.dst)).collect();
    let stable = model.ties().iter().copied().filter(|p| !unfollowed.contains(p)).collect();
    let mut seen = HashSet::new();
    let mut dynamic = Vec::new();
    let mut touched_untrained = Vec::new();
    for (i, e) in log.iter().enumerate() {
        let pairs = match e.op {
            EventOp::Reciprocate => vec![(e.src, e.dst), (e.dst, e.src)],
            EventOp::Follow | EventOp::Unfollow => vec![(e.src, e.dst)],
        };
        for p in pairs {
            if trained(p) || !seen.insert(p) {
                continue;
            }
            touched_untrained.push(p);
            if e.op != EventOp::Unfollow && !unfollowed.contains(&p) {
                dynamic.push((p, i));
            }
        }
    }
    LogKeys { stable, dynamic, touched_untrained }
}

/// What the writer did.
#[derive(Default)]
struct Written {
    /// Events per second of each acknowledged `/ingest` call; once
    /// pooled, the median pass at each batch of the log.
    batch_rates: Vec<f64>,
    attempted: u64,
    failed: u64,
    acked_batches: usize,
    acked_events: usize,
    last_digests: Vec<u64>,
    /// Seconds of each reload; once pooled, of every pass.
    reload_s: Vec<f64>,
    /// Reload request windows, as (start, end).
    reload_windows: Vec<(Instant, Instant)>,
    purged: Vec<u64>,
    /// Index into the artifact list of the model served at the end.
    final_artifact: usize,
    /// Once pooled: the median pass at each reload of the log.
    mid_reload_s: Vec<f64>,
    /// Once pooled: `last_digests` of every pass.
    pass_digests: Vec<Vec<u64>>,
    /// Once pooled: the median of `batch_rates` of every pass.
    pass_rates: Vec<f64>,
}

/// The median of several passes over the same work, position by
/// position, over the positions every pass reached.
fn median_per_position(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..n).map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>())).collect()
}

impl Written {
    /// Every pass of the same log in one record: the median pass at each
    /// batch and reload, the other timings pooled, counts summed, and the
    /// final state (acknowledged batches, digests, served artifact) taken
    /// from the last pass. The host's slow spells last seconds, about as
    /// long as one pass, so the median pass sets aside one slow pass (or
    /// one unusually fast one) where a single long pass could not.
    fn pool(passes: Vec<Written>) -> Written {
        let rates: Vec<Vec<f64>> = passes.iter().map(|w| w.batch_rates.clone()).collect();
        let reloads: Vec<Vec<f64>> = passes.iter().map(|w| w.reload_s.clone()).collect();
        let mut out = Written {
            batch_rates: median_per_position(&rates),
            mid_reload_s: median_per_position(&reloads),
            ..Written::default()
        };
        for w in passes {
            out.pass_rates.push(median(&w.batch_rates));
            out.attempted += w.attempted;
            out.failed += w.failed;
            out.reload_s.extend(w.reload_s);
            out.reload_windows.extend(w.reload_windows);
            out.purged.extend(w.purged);
            out.pass_digests.push(w.last_digests.clone());
            out.acked_batches = w.acked_batches;
            out.acked_events = w.acked_events;
            out.last_digests = w.last_digests;
            out.final_artifact = w.final_artifact;
        }
        out
    }
}

/// Posts the log batch by batch (closed loop), reloading before the
/// batches in `reload_before`. Stops at the first failed request.
fn write_log(
    entry: &str,
    batches: &[Vec<TieEvent>],
    reload_before: &[(usize, usize)],
    artifacts: &[PathBuf],
    acked: &AtomicUsize,
) -> Written {
    let mut w = Written::default();
    for (bi, batch) in batches.iter().enumerate() {
        for &(_, artifact) in reload_before.iter().filter(|&&(at, _)| at == bi) {
            w.attempted += 1;
            let body = format!("{{\"path\":{:?}}}", artifacts[artifact].display().to_string());
            let start = Instant::now();
            let resp = client::post(entry, "/admin/reload", &body);
            let end = Instant::now();
            match resp {
                Ok(r) if r.status == 200 => {
                    w.reload_s.push((end - start).as_secs_f64());
                    w.reload_windows.push((start, end));
                    w.purged.extend(
                        replies::<ReloadResponse>(&r.body).iter().filter_map(|r| r.cache_purged),
                    );
                    w.final_artifact = artifact;
                }
                _ => {
                    w.failed += 1;
                    return w;
                }
            }
        }
        w.attempted += 1;
        let body = to_jsonl(batch);
        let (resp, secs) = timed(|| client::post(entry, "/ingest", &body));
        match resp {
            Ok(r) if r.status == 200 => {
                w.batch_rates.push(batch.len() as f64 / secs);
                w.acked_batches += 1;
                w.acked_events += batch.len();
                acked.store(w.acked_events, Ordering::SeqCst);
                w.last_digests = replies::<IngestResponse>(&r.body)
                    .iter()
                    .filter_map(|r| u64::from_str_radix(&r.digest, 16).ok())
                    .collect();
            }
            _ => {
                w.failed += 1;
                return w;
            }
        }
    }
    w
}

/// Result of the rate ladder.
#[derive(Default)]
struct Ladder {
    max_qps: f64,
    samples: Vec<Sample>,
    rungs: Vec<String>,
}

/// Offers increasing fixed rates until a rung misses the latency limit,
/// fails a request or lets the generator's lag grow. `score_max_qps` is
/// the completed rate of the last rung that passed.
fn ladder<'k>(
    entry: &str,
    threads: usize,
    keys_for: &dyn Fn(f64, f64, u64) -> Keys<'k>,
    seed: u64,
) -> Ladder {
    let mut out = Ladder::default();
    let mut rate = LADDER_START;
    for rung in 0u64.. {
        // At least 1000 samples, so p99 has ten beyond it.
        let secs = (1000.0 / rate).max(0.5);
        let keys = keys_for(rate, secs, seed ^ (rung + 1).wrapping_mul(0x5851_f42d));
        let (schedule, samples) = load::open_loop(rate, secs, threads, None, |i| {
            let k = keys.key(i);
            (k, score_request(entry, k))
        });
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
        let summary = load::summarize(&lat);
        let p99 = summary.p99;
        let ok = samples.iter().all(|s| matches!(s.outcome, Outcome::Scored { .. }));
        let tail = &samples[samples.len() * 9 / 10..];
        let lag_end = tail.iter().map(|s| s.lag_s).fold(0.0, f64::max);
        let elapsed = samples.iter().map(|s| s.due_s + s.lag_s + s.service_s).fold(0.0, f64::max);
        let achieved = samples.len() as f64 / elapsed.max(f64::MIN_POSITIVE);
        let pass = ok && p99 <= LADDER_P99_S && lag_end <= LADDER_P99_S;
        out.rungs.push(format!(
            "rung {:.0} req/s: completed {:.1} req/s, p50 {:.3} ms, p99 {:.3} ms, end lag {:.3} ms, {}",
            schedule.rate,
            achieved,
            summary.p50 * 1e3,
            p99 * 1e3,
            lag_end * 1e3,
            if pass { "pass" } else { "fail" }
        ));
        out.samples.extend(samples);
        if !pass {
            break;
        }
        out.max_qps = achieved;
        rate *= LADDER_STEP;
    }
    out
}

/// Counter or gauge value, or histogram `(sum, count)`, per metric name.
type Totals = HashMap<String, (f64, u64)>;

/// [`Totals`] of every metric in `regs`, summed by name.
fn registry_totals(regs: &[Arc<Registry>]) -> Totals {
    let mut out: Totals = HashMap::new();
    for reg in regs {
        for (name, snap) in reg.snapshot() {
            let e = out.entry(name).or_default();
            match snap {
                MetricSnapshot::Counter(c) => e.0 += c as f64,
                MetricSnapshot::Gauge(g) => e.0 += g,
                MetricSnapshot::Histogram(h) => {
                    e.0 += h.sum;
                    e.1 += h.count;
                }
            }
        }
    }
    out
}

fn delta(after: &Totals, before: &Totals, name: &str) -> (f64, u64) {
    let a = after.get(name).copied().unwrap_or_default();
    let b = before.get(name).copied().unwrap_or_default();
    (a.0 - b.0, a.1 - b.1)
}

fn mean_ms(d: (f64, u64)) -> f64 {
    if d.1 == 0 {
        0.0
    } else {
        d.0 / d.1 as f64 * 1e3
    }
}

/// Nanoseconds per call of `f` over `n` items, repeated for at least
/// 50 ms.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let t = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t.elapsed().as_secs_f64() < 0.05 {
        for i in 0..n {
            f(i);
        }
        calls += n;
    }
    t.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Closed-loop burst of `/score` requests.
fn burst(entry: &str, keys: &[(u32, u32)]) {
    for &k in keys {
        black_box(score_request(entry, k));
    }
}

struct Artifacts {
    paths: Vec<PathBuf>,
    /// Loaded back from `paths`, in the same order.
    models: Vec<Arc<DirectionalityModel>>,
    save_s: f64,
    load_s: f64,
    bytes: u64,
    roundtrip_ok: bool,
}

/// Writes each model as `.ddm`, loads it back and checks the fingerprint
/// survived. Times are for the first model.
fn save_and_load(models: Vec<DirectionalityModel>, work: &Path) -> Result<Artifacts, String> {
    let mut a = Artifacts {
        paths: Vec::new(),
        models: Vec::new(),
        save_s: 0.0,
        load_s: 0.0,
        bytes: 0,
        roundtrip_ok: true,
    };
    for (i, m) in models.into_iter().enumerate() {
        let path = work.join(format!("model-{i}.ddm"));
        let (saved, save_s) = timed(|| m.save_binary_to_path(&path));
        saved?;
        let fingerprint = m.fingerprint();
        drop(m);
        let (loaded, load_s) = timed(|| DirectionalityModel::load_from_path(&path));
        let loaded = loaded?;
        a.roundtrip_ok &= loaded.fingerprint() == fingerprint;
        if i == 0 {
            a.save_s = save_s;
            a.load_s = load_s;
            a.bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        }
        a.paths.push(path);
        a.models.push(Arc::new(loaded));
    }
    Ok(a)
}

fn accuracy(model: &DirectionalityModel, hidden: &HiddenDirections) -> f64 {
    let preds = discover_directions(&hidden.network, |u, v| model.score(u, v).unwrap_or(0.5));
    discovery_accuracy(&preds, &hidden.truth)
}

/// One set-up: the workload's data and, on the serving workloads, its two
/// models written, loaded back and served.
struct SetUp {
    hidden: HiddenDirections,
    serving: Option<(Artifacts, Topology)>,
    times: SetUpTimes,
}

struct SetUpTimes {
    setup_s: f64,
    generate_s: f64,
    fit_s: Vec<f64>,
}

fn set_up(
    plan: &Plan,
    seed: u64,
    fit_a: &mut dyn FnMut(&MixedSocialNetwork) -> (DirectionalityModel, f64),
    cfg_b: &DeepDirectConfig,
    observer: &ObserverHandle,
    work: &Path,
) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let (g, generate_s) = timed(|| twitter().generate(plan.scale, seed).network);
    let hidden = hide_directions(&g, 0.5, &mut StdRng::seed_from_u64(seed ^ 0x41de));
    drop(g);
    let mut fit_s = Vec::new();
    let serving = if plan.measured_fit {
        None
    } else {
        let (a, fa) = fit_a(&hidden.network);
        fit_s.push(fa);
        let (b, fb) = timed(|| DeepDirect::new(cfg_b.clone()).fit(&hidden.network));
        fit_s.push(fb);
        if a.ties() != b.ties() {
            return Err("the two serving models disagree on the trained tie set".into());
        }
        let art = save_and_load(vec![a, b], work)?;
        let topo = Topology::start(&art.models[0], plan.routed, observer)?;
        Some((art, topo))
    };
    let times = SetUpTimes { setup_s: t0.elapsed().as_secs_f64(), generate_s, fit_s };
    Ok(SetUp { hidden, serving, times })
}

/// Marks the line a set-up child prints its times on.
const SETUP_LINE: &str = "setup-times";

/// One untraced set-up, then a line with its times: set-up, generation,
/// and each fit. This is what a set-up child runs (`--setup-only 1`).
pub fn set_up_only(plan: &Plan, seed: u64, work: &Path) -> Result<String, String> {
    let cfg_a = model_config(plan, seed ^ 0xa11ce);
    let mut fit_a = |g: &MixedSocialNetwork| timed(|| DeepDirect::new(cfg_a.clone()).fit(g));
    let cfg_b = model_config(plan, seed ^ 0xb0b);
    let s = set_up(plan, seed, &mut fit_a, &cfg_b, &ObserverHandle::none(), work)?;
    if let Some((_, topo)) = s.serving {
        topo.shutdown();
    }
    let t = &s.times;
    let times: Vec<String> =
        [t.setup_s, t.generate_s].iter().chain(&t.fit_s).map(f64::to_string).collect();
    Ok(format!("{SETUP_LINE} {}", times.join(" ")))
}

/// Runs [`set_up_only`] in a child process of this benchmark, waits for it
/// and reads its times back.
fn set_up_in_child(plan: &Plan, seed: u64) -> Result<SetUpTimes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up child: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", plan.name, "--seed", &seed.to_string(), "--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let times: Vec<f64> = stdout
        .lines()
        .find_map(|l| l.strip_prefix(SETUP_LINE))
        .ok_or("set-up child printed no times")?
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("set-up child: {e}"))?;
    match times.as_slice() {
        [setup_s, generate_s, fit_s @ ..] => {
            Ok(SetUpTimes { setup_s: *setup_s, generate_s: *generate_s, fit_s: fit_s.to_vec() })
        }
        _ => Err("set-up child printed too few times".into()),
    }
}

pub fn run(plan: &Plan, seed: u64, trace: bool, work: &Path) -> Result<RunOutput, String> {
    let queue_waits = SpanLog::new(&["serve.queue_wait"], false);
    let fit_spans = SpanLog::new(&["universe.build", "estep.train", "dstep.train"], true);
    let mut cfg_a = model_config(plan, seed ^ 0xa11ce);
    let observer = if trace {
        cfg_a.observer = ObserverHandle::new(Arc::clone(&fit_spans) as Arc<dyn TrainObserver>);
        ObserverHandle::new(Arc::clone(&queue_waits) as Arc<dyn TrainObserver>)
    } else {
        ObserverHandle::none()
    };
    let cfg_b = model_config(plan, seed ^ 0xb0b);
    // Share of each traced fit of the first model covered by its own
    // universe, E-step and D-step spans.
    let (mut stage_shares, mut fit_a_s) = (Vec::new(), Vec::new());
    let mut fit_a = |g: &MixedSocialNetwork| {
        fit_spans.take();
        let (m, secs) = timed(|| DeepDirect::new(cfg_a.clone()).fit(g));
        stage_shares.push(fit_spans.take().iter().sum::<f64>() / secs);
        fit_a_s.push(secs);
        (m, secs)
    };
    let mut notes = Vec::new();

    // Set-up, several times: all but the last in child processes, so that
    // this process's heap, and with it `peak_rss_mb`, holds one set-up
    // only, as a real run's would. The last one's state is kept.
    let (mut setup_s, mut generate_s, mut fit_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 1..SETUP_REPS {
        let child = set_up_in_child(plan, seed)?;
        setup_s.push(child.setup_s);
        generate_s.push(child.generate_s);
        fit_s.extend(child.fit_s);
    }
    let kept = set_up(plan, seed, &mut fit_a, &cfg_b, &observer, work)?;
    setup_s.push(kept.times.setup_s);
    generate_s.push(kept.times.generate_s);
    fit_s.extend(kept.times.fit_s);
    let hidden = kept.hidden;
    // On `fit` the serving set-up follows the measured fit: the `.ddm`
    // round trip and the server start of the fitted model. It is set-up
    // work by the definition of `setup_s`, done once per run.
    let mut serving_setup_s = 0.0;
    let (art, topo) = match kept.serving {
        Some(s) => s,
        None => {
            let (m, f) = fit_a(&hidden.network);
            fit_s.push(f);
            let (art, secs) = timed(|| save_and_load(vec![m], work));
            serving_setup_s += secs;
            let art = art?;
            // The paper-scale artifact (~275 MB) would otherwise be written
            // back by the kernel in the middle of the read and write
            // phases; flush it before they start.
            for path in &art.paths {
                std::fs::File::open(path)
                    .and_then(|f| f.sync_all())
                    .map_err(|e| format!("flushing {}: {e}", path.display()))?;
            }
            let (topo, secs) = timed(|| Topology::start(&art.models[0], plan.routed, &observer));
            serving_setup_s += secs;
            (art, topo?)
        }
    };
    let model_a = Arc::clone(&art.models[0]);
    let fit_accuracy = accuracy(&model_a, &hidden);
    let oracle = Oracle::new(&art.models);
    let entry = topo.entry.clone();

    // The ingest log and the keys it leaves alone.
    let log = temporal_event_stream(
        &hidden.network,
        &EventStreamConfig { count: plan.events, seed: seed ^ 0x1095, ..Default::default() },
    );
    let keys = log_keys(&model_a, &log);
    let batches: Vec<Vec<TieEvent>> = log.chunks(plan.batch).map(<[TieEvent]>::to_vec).collect();
    let reload_before: Vec<(usize, usize)> = (1..=plan.reloads)
        .map(|k| (k * batches.len() / (plan.reloads + 1), k % art.paths.len()))
        .collect();
    let trained: Vec<(u32, u32)> = model_a.ties().to_vec();
    let acked = AtomicUsize::new(0);
    let keys_for = |rate: f64, secs: f64, key_seed: u64| -> Keys<'_> {
        match plan.read_span {
            ReadSpan::Fixed(_) => Keys::Indexed {
                set: &trained,
                idx: load::key_indices(
                    plan.read_keys,
                    trained.len(),
                    (rate * secs).ceil() as usize + 1,
                    key_seed,
                ),
            },
            ReadSpan::BesideWrites => Keys::Live {
                stable: &keys.stable,
                dynamic: &keys.dynamic,
                acked: &acked,
                seed: key_seed,
            },
        }
    };
    let regs = topo.shard_registries();
    let router_reg = topo.router.as_ref().map(|r| r.registry());

    // Read and write phases. A fixed-window plan alternates a slice of its
    // reads with one pass of the write log on a fresh topology, `ROUNDS`
    // times, so that each metric's samples spread over the whole run and a
    // slow spell of the shared host moves one round, not the result. The
    // read topology sees reads only. `ingest-reload` runs its writer beside
    // its reader on the one topology, once.
    let before = registry_totals(&regs);
    let router_before = router_reg.as_ref().map(|r| registry_totals(std::slice::from_ref(r)));
    let read_keys = keys_for(
        plan.read_rate,
        match plan.read_span {
            ReadSpan::Fixed(s) => s,
            ReadSpan::BesideWrites => 0.0,
        },
        seed ^ 0x7eed,
    );
    let send = |i: usize| {
        let k = read_keys.key(i);
        (k, score_request(&entry, k))
    };
    let mut passes: Vec<Written> = Vec::new();
    // Besides the reads: the topology of the last pass of the log when it
    // is not the read topology, and its registry totals before that pass.
    let (schedule, reads, write_topo, write_before) = match plan.read_span {
        ReadSpan::Fixed(seconds) => {
            let mut reads: Vec<Sample> = Vec::new();
            let mut first: Option<Schedule> = None;
            let mut last_topo = None;
            let mut round_p50 = Vec::new();
            for _ in 0..ROUNDS {
                let offset = reads.len();
                queue_waits.active.store(true, Ordering::Relaxed);
                let (sched, chunk) = load::open_loop(
                    plan.read_rate,
                    seconds / ROUNDS as f64,
                    plan.read_threads,
                    None,
                    |i| send(offset + i),
                );
                queue_waits.active.store(false, Ordering::Relaxed);
                let service: Vec<f64> = chunk.iter().map(|s| s.service_s).collect();
                round_p50.push(load::summarize(&service).p50);
                // One schedule for the whole phase: indices and due times
                // count from the first round's start.
                let origin = *first.get_or_insert(sched);
                let shift = (sched.start - origin.start).as_secs_f64();
                reads.extend(chunk.into_iter().map(|s| Sample {
                    index: offset + s.index,
                    due_s: shift + s.due_s,
                    ..s
                }));
                if let Some((t, _)) = last_topo.take() {
                    Topology::shutdown(t);
                }
                let wt = Topology::start(&art.models[0], plan.routed, &observer)?;
                let wt_before = registry_totals(&wt.shard_registries());
                passes.push(write_log(&wt.entry, &batches, &reload_before, &art.paths, &acked));
                last_topo = Some((wt, wt_before));
            }
            notes.push(format!(
                "service p50 per read slice {:.4?} ms",
                round_p50.iter().map(|s| s * 1e3).collect::<Vec<_>>()
            ));
            let (wt, wt_before) = last_topo.expect("at least one round");
            (first.expect("at least one round"), reads, Some(wt), wt_before)
        }
        ReadSpan::BesideWrites => {
            let stop = AtomicBool::new(false);
            queue_waits.active.store(true, Ordering::Relaxed);
            let (schedule, reads) = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let w = write_log(&entry, &batches, &reload_before, &art.paths, &acked);
                    stop.store(true, Ordering::SeqCst);
                    w
                });
                let out = load::open_loop(
                    plan.read_rate,
                    f64::INFINITY,
                    plan.read_threads,
                    Some(&stop),
                    send,
                );
                passes.push(writer.join().expect("writer thread panicked"));
                out
            });
            queue_waits.active.store(false, Ordering::Relaxed);
            (schedule, reads, None, before.clone())
        }
    };
    let after = registry_totals(&regs);
    let router_after = router_reg.as_ref().map(|r| registry_totals(std::slice::from_ref(r)));
    let write_entry = write_topo.as_ref().map_or(entry.as_str(), |t| t.entry.as_str()).to_string();
    let write_after = match &write_topo {
        Some(t) => registry_totals(&t.shard_registries()),
        None => registry_totals(&regs),
    };

    // Ladder, on the read topology after the reads (and, on
    // `ingest-reload`, at the final state of the writes).
    // It only runs traced: its rung verdicts hinge on p99 over short
    // rungs and do not repeat from run to run (see README.md).
    let ladder =
        if trace { ladder(&entry, 2, &keys_for, seed ^ 0x1add) } else { Ladder::default() };
    notes.extend(ladder.rungs.iter().cloned());
    let all_acked = passes.iter().all(|w| w.acked_batches == batches.len());
    let written = Written::pool(passes);
    let final_model = Arc::clone(&art.models[written.final_artifact]);
    let acked_log: Vec<TieEvent> = batches[..written.acked_batches].concat();

    // Gates.
    let mut scratch = Vec::new();
    // A read that got a score must be bit-equal to the offline score of
    // the model that answered (the gate); a read that got no score is a
    // failed operation.
    let bad: Vec<&Sample> = reads
        .iter()
        .chain(&ladder.samples)
        .filter(|s| !oracle.read_ok(s.key, &s.outcome, &mut scratch))
        .collect();
    let wrong_reads = bad.iter().filter(|s| matches!(s.outcome, Outcome::Scored { .. })).count();
    for s in bad.iter().take(5) {
        let due = schedule.start + std::time::Duration::from_secs_f64(s.due_s);
        let in_reload = written.reload_windows.iter().any(|&(a, b)| due >= a && due <= b);
        notes.push(format!(
            "failed read {:?} due at {:.3} s{}: {:?}",
            s.key,
            s.due_s,
            if in_reload { " inside a reload window" } else { "" },
            s.outcome
        ));
    }
    let bad_reads = bad.len() as u64;
    let offline = StreamEngine::replay(Arc::clone(&final_model), &acked_log);
    let digest_ok = all_acked
        && written.pass_digests.iter().all(|d| gates::digest_ok(d, &final_model, &acked_log));
    let mut sweep_keys: Vec<(u32, u32)> =
        load::key_indices(KeyDist::Uniform, trained.len(), SWEEP_KEYS, seed ^ 0x5eed)
            .into_iter()
            .map(|i| trained[i])
            .collect();
    let step = (keys.touched_untrained.len() / SWEEP_KEYS).max(1);
    sweep_keys.extend(keys.touched_untrained.iter().step_by(step).take(SWEEP_KEYS));
    sweep_keys.extend(
        log.iter().filter(|e| e.op == EventOp::Unfollow).map(|e| (e.src, e.dst)).take(SWEEP_KEYS),
    );
    let bad_sweep = sweep_keys
        .iter()
        .filter(|&&k| !gates::sweep_ok(&offline, k, &score_request(&write_entry, k), &mut scratch))
        .count() as u64;
    if let Some(t) = write_topo {
        t.shutdown();
    }
    let gates = vec![
        Gate { name: "reads_bit_equal", passed: wrong_reads == 0 },
        Gate { name: "ingest_digest", passed: digest_ok },
        Gate { name: "post_run_sweep", passed: bad_sweep == 0 },
        Gate {
            name: "fit_accuracy_floor",
            passed: gates::accuracy_ok(fit_accuracy, plan.accuracy_floor),
        },
        Gate {
            name: "hidden_scores_in_unit_interval",
            passed: gates::hidden_scores_ok(&model_a, &hidden.truth),
        },
        Gate { name: "ddm_roundtrip_fingerprint", passed: art.roundtrip_ok },
    ];
    let first_read = reads
        .iter()
        .find(|s| matches!(s.outcome, Outcome::Scored { .. }))
        .map(|s| (s.key, s.outcome));
    let missed_checks = gates::self_checks(
        &oracle,
        first_read,
        written.last_digests.first().copied(),
        &final_model,
        &batches[..written.acked_batches],
        plan.accuracy_floor,
    );
    let n_reads = (reads.len() + ladder.samples.len()) as u64;
    let attempted = n_reads + written.attempted + sweep_keys.len() as u64 + gates.len() as u64;
    let failed = bad_reads
        + written.failed
        + bad_sweep
        + gates.iter().filter(|g| !g.passed).count() as u64
        + missed_checks.len() as u64;

    // End-to-end metrics.
    let lat: Vec<f64> = reads.iter().map(|s| s.latency_s).collect();
    let lat_sum = load::summarize(&lat);
    let (p50, p99, windows) = load::windowed(&reads, plan.window_s);
    let service = load::summarize(&reads.iter().map(|s| s.service_s).collect::<Vec<_>>());
    let lag = load::summarize(&reads.iter().map(|s| s.lag_s).collect::<Vec<_>>());
    notes.push(format!(
        "read phase: {} requests at {:.0} req/s; from the due time over the phase p50 {:.4} ms, p99 {:.4} ms, rule tail {}; median of {windows} windows p50 {:.4} ms, p99 {:.4} ms; service p50 {:.4} ms; lag p99 {:.4} ms",
        lat_sum.count,
        plan.read_rate,
        lat_sum.p50 * 1e3,
        lat_sum.p99 * 1e3,
        lat_sum.tail.map_or("none".to_string(), |(p, v)| format!("p{p} {:.4} ms", v * 1e3)),
        p50 * 1e3,
        p99 * 1e3,
        service.p50 * 1e3,
        lag.p99 * 1e3
    ));
    // The median over the log's batches of the median pass at each batch.
    // A plain total over the log moved by a quarter from run to run: one
    // pass spends about a second in `/ingest` on the fixed-window plans,
    // so a few stalls of the host weighed on it.
    let ingest_events_per_s = median(&written.batch_rates);
    notes.push(format!(
        "writer: {} events in {} batches per pass, median {:.0?} events/s per pass, {:.0} events/s over the passes, {} reloads ({:?} ms); sweep {} keys; fit samples {:?} s; setup samples {:?} s, serving set-up after the fit {:.3} s",
        written.acked_events,
        written.acked_batches,
        written.pass_rates,
        ingest_events_per_s,
        written.reload_s.len(),
        written.reload_s.iter().map(|s| (s * 1e4).round() / 10.0).collect::<Vec<_>>(),
        sweep_keys.len(),
        fit_s,
        setup_s,
        serving_setup_s
    ));
    let end_to_end = vec![
        Metric { name: "setup_s", value: median(&setup_s) + serving_setup_s, unit: "s" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MB" },
        Metric { name: "fit_s", value: median(&fit_s), unit: "s" },
        Metric { name: "fit_accuracy", value: fit_accuracy, unit: "fraction" },
        Metric { name: "reload_ms", value: median(&written.mid_reload_s) * 1e3, unit: "ms" },
    ];

    let per_layer = if trace {
        let ctx = LayerContext {
            plan,
            cfg: &cfg_a,
            hidden: &hidden,
            art: &art,
            stage_share: median(&stage_shares),
            fit_s: median(&fit_a_s),
            generate_s: median(&generate_s),
            reads: &reads,
            schedule,
            written: &written,
            batches: &batches,
            reload_before: &reload_before,
            keys: &keys,
            before: &before,
            after: &after,
            router: router_before.as_ref().zip(router_after.as_ref()),
            write_before: &write_before,
            write_after: &write_after,
            queue_waits: &queue_waits,
            entry: &entry,
            final_model: &final_model,
            offline: &offline,
        };
        let mut layers = per_layer_metrics(&ctx, &registry_totals(&regs));
        topo.shutdown();
        layers.extend(staged_fit(&ctx));
        layers.push(Metric { name: "serve.ladder.max_qps", value: ladder.max_qps, unit: "req/s" });
        layers.push(Metric { name: "serve.score_due_p50_ms", value: p50 * 1e3, unit: "ms" });
        layers.push(Metric {
            name: "serve.ingest.events_per_s",
            value: ingest_events_per_s,
            unit: "events/s",
        });
        layers.push(Metric { name: "serve.score_p99_ms", value: p99 * 1e3, unit: "ms" });
        layers.push(Metric {
            name: "serve.score_tail_ms",
            value: lat_sum.tail.map_or(0.0, |(_, v)| v * 1e3),
            unit: "ms",
        });
        layers.push(Metric {
            name: "telemetry.overhead_ratio",
            value: overhead_ratio(&ctx)?,
            unit: "ratio",
        });
        layers
    } else {
        topo.shutdown();
        Vec::new()
    };
    Ok(RunOutput { end_to_end, per_layer, attempted, failed, gates, missed_checks, notes })
}

/// What the per-layer measurements read from the run.
struct LayerContext<'a> {
    plan: &'a Plan,
    cfg: &'a DeepDirectConfig,
    hidden: &'a HiddenDirections,
    art: &'a Artifacts,
    stage_share: f64,
    /// Median wall time of the traced fits of the first model.
    fit_s: f64,
    generate_s: f64,
    reads: &'a [Sample],
    schedule: Schedule,
    written: &'a Written,
    batches: &'a [Vec<TieEvent>],
    reload_before: &'a [(usize, usize)],
    keys: &'a LogKeys,
    before: &'a Totals,
    after: &'a Totals,
    router: Option<(&'a Totals, &'a Totals)>,
    /// Registry totals of the topology the last pass of the log wrote to,
    /// before and after that pass.
    write_before: &'a Totals,
    write_after: &'a Totals,
    queue_waits: &'a SpanLog,
    entry: &'a str,
    final_model: &'a Arc<DirectionalityModel>,
    offline: &'a StreamEngine,
}

fn per_layer_metrics(c: &LayerContext<'_>, regs_now: &Totals) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut put =
        |name: &'static str, value: f64, unit: &'static str| m.push(Metric { name, value, unit });
    let model_a = &c.art.models[0];
    put("datasets.generate_s", c.generate_s, "s");
    put("core.model.save_binary_s", c.art.save_s, "s");
    put("core.model.bytes", c.art.bytes as f64, "bytes");
    put("core.model.load_s", c.art.load_s, "s");

    // Kernel cost over the read phase's exact key sequence.
    let read_keys: Vec<(u32, u32)> = c.reads.iter().map(|s| s.key).collect();
    put(
        "core.model.score_ns",
        ns_per_call(read_keys.len(), |i| {
            black_box(model_a.score(NodeId(read_keys[i].0), NodeId(read_keys[i].1)));
        }),
        "ns",
    );
    // Fold-in cost over the dynamic ties the reader hit, or over the log's
    // dynamic ties when the reads ran before the writes.
    let read_set: HashSet<(u32, u32)> = read_keys.iter().copied().collect();
    let mut dynamic: Vec<(u32, u32)> =
        c.keys.dynamic.iter().map(|&(k, _)| k).filter(|k| read_set.contains(k)).collect();
    if dynamic.is_empty() {
        dynamic = c.keys.dynamic.iter().map(|&(k, _)| k).collect();
    }
    let index = FoldInIndex::build(c.final_model);
    let mut scratch = Vec::new();
    put(
        "core.foldin.score_ns",
        ns_per_call(dynamic.len(), |i| {
            black_box(index.foldin_score_into(
                c.final_model,
                NodeId(dynamic[i].0),
                NodeId(dynamic[i].1),
                &mut scratch,
            ));
        }),
        "ns",
    );

    // Client side of the read phase.
    let service: Vec<f64> = c.reads.iter().map(|s| s.service_s).collect();
    let lag: Vec<f64> = c.reads.iter().map(|s| s.lag_s).collect();
    let svc = load::summarize(&service);
    put("serve.client.samples", svc.count as f64, "count");
    put("serve.client.service_p50_ms", svc.p50 * 1e3, "ms");
    put("serve.client.service_p99_ms", svc.p99 * 1e3, "ms");
    put("serve.generator.lag_p99_ms", load::summarize(&lag).p99 * 1e3, "ms");

    // HTTP parsing of the exact request bytes the client sent.
    let requests: Vec<Vec<u8>> = read_keys
        .iter()
        .take(20_000)
        .map(|k| {
            format!(
                "GET /score?src={}&dst={} HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
                k.0, k.1, c.entry
            )
            .into_bytes()
        })
        .collect();
    put(
        "serve.http.parse_us",
        ns_per_call(requests.len(), |i| {
            black_box(http::read_request(&mut Cursor::new(&requests[i])).ok());
        }) / 1e3,
        "us",
    );

    // Server registries over the read phase.
    let shard_lat = delta(c.after, c.before, "serve.latency.score");
    put("serve.server.latency_ms", mean_ms(shard_lat), "ms");
    let waits = c.queue_waits.take();
    put(
        "serve.server.queue_wait_ms",
        if waits.is_empty() { 0.0 } else { median(&waits) * 1e3 },
        "ms",
    );
    let mut rejected = delta(regs_now, c.before, "serve.rejected.queue_full").0;
    match c.router {
        Some((rb, ra)) => {
            rejected += delta(ra, rb, "router.rejected.queue_full").0;
            put(
                "serve.router.hop_ms",
                mean_ms(delta(ra, rb, "router.latency.score")) - mean_ms(shard_lat),
                "ms",
            );
            put("serve.router.failovers", delta(ra, rb, "router.failovers").0, "count");
            let forwards: Vec<f64> = ra
                .keys()
                .filter(|k| k.starts_with("router.shard.forwards."))
                .map(|k| delta(ra, rb, k).0)
                .collect();
            let (lo, hi) = forwards
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(lo, hi), &f| (lo.min(f), hi.max(f)));
            put("serve.router.forward_skew", if lo > 0.0 { hi / lo } else { 0.0 }, "ratio");
        }
        None => {
            put("serve.router.hop_ms", 0.0, "ms");
            put("serve.router.failovers", 0.0, "count");
            put("serve.router.forward_skew", 0.0, "ratio");
        }
    }
    put("serve.server.rejected", rejected, "count");
    let hits = delta(c.after, c.before, "serve.cache.hits").0;
    let misses = delta(c.after, c.before, "serve.cache.misses").0;
    put(
        "serve.lru.hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        "fraction",
    );
    put("serve.lru.lookups", hits + misses, "count");
    put("serve.lru.evictions", delta(c.after, c.before, "serve.cache.evictions").0, "count");
    let purged: f64 = c.written.purged.iter().map(|&p| p as f64).sum();
    put("serve.lru.purged_per_reload", purged / c.written.reload_s.len().max(1) as f64, "count");
    let events = delta(c.write_after, c.write_before, "serve.ingest.events").0;
    let invalidations = delta(c.write_after, c.write_before, "serve.ingest.invalidations").0;
    put(
        "serve.ingest.invalidations_per_event",
        if events > 0.0 { invalidations / events } else { 0.0 },
        "ratio",
    );

    // Reads due inside a reload window.
    let windows: Vec<(f64, f64)> = c
        .written
        .reload_windows
        .iter()
        .map(|&(a, b)| (secs_since(c.schedule.start, a), secs_since(c.schedule.start, b)))
        .collect();
    let in_reload: Vec<f64> = c
        .reads
        .iter()
        .filter(|s| windows.iter().any(|&(a, b)| s.due_s >= a && s.due_s <= b))
        .map(|s| s.latency_s)
        .collect();
    put("serve.reads_in_reload.count", in_reload.len() as f64, "count");
    put(
        "serve.reads_in_reload_p99_ms",
        if in_reload.is_empty() { 0.0 } else { load::summarize(&in_reload).p99 * 1e3 },
        "ms",
    );

    // Stream layer, replayed offline over the exact batches.
    let bodies: Vec<String> = c.batches.iter().map(|b| to_jsonl(b)).collect();
    let (_, parse_s) = timed(|| {
        for b in &bodies {
            black_box(parse_events(b).ok());
        }
    });
    put("stream.event.parse_s", parse_s, "s");
    let mut engine = StreamEngine::new(Arc::clone(model_a));
    let mut apply_us = Vec::with_capacity(c.batches.len());
    let mut rebind_ms = Vec::new();
    for (bi, batch) in c.batches.iter().enumerate() {
        for &(_, artifact) in c.reload_before.iter().filter(|&&(at, _)| at == bi) {
            let model = Arc::clone(&c.art.models[artifact]);
            rebind_ms.push(timed(|| engine.rebind(model)).1 * 1e3);
        }
        apply_us.push(timed(|| black_box(engine.apply_all(batch))).1 * 1e6);
    }
    let tenth = (apply_us.len() / 10).max(1);
    put("stream.engine.apply_us_first_tenth", median(&apply_us[..tenth]), "us");
    put("stream.engine.apply_us_last_tenth", median(&apply_us[apply_us.len() - tenth..]), "us");
    let scans: Vec<f64> = (0..5)
        .map(|_| timed(|| black_box((engine.live_dynamic(), engine.state_digest()))).1 * 1e6)
        .collect();
    put("stream.engine.scan_us", median(&scans), "us");
    put("stream.engine.rebind_ms", median(&rebind_ms), "ms");
    put(
        "stream.engine.overlay_entries",
        (c.offline.live_dynamic() + c.offline.removed_trained()) as f64,
        "count",
    );
    put("stream.engine.log_len", c.offline.events_applied() as f64, "count");
    m
}

fn secs_since(origin: Instant, t: Instant) -> f64 {
    if t >= origin {
        (t - origin).as_secs_f64()
    } else {
        -(origin - t).as_secs_f64()
    }
}

/// The fit's three stages called one by one through their public
/// functions, each under the benchmark's own span. `core.fit.stage_share`
/// comes from the traced fit itself: its own stage spans over its wall
/// time, both from one fit.
fn staged_fit(c: &LayerContext<'_>) -> Vec<Metric> {
    let threads = dd_runtime::Threads::new(c.cfg.threads).expect("two fit threads");
    let mut rng = dd_linalg::Pcg32::seed_from_u64(c.cfg.seed ^ 0x9e37);
    let (universe, build_s) = timed(|| {
        TieUniverse::build_with_threads(&c.hidden.network, c.cfg.gamma, &mut rng, threads)
    });
    let (estep_out, estep_s) = timed(|| estep::train(&universe, c.cfg));
    let rows = universe.labeled_ties().count();
    let (_, dstep_s) = timed(|| black_box(dstep::train(&universe, &estep_out.params, c.cfg)));
    vec![
        Metric { name: "core.universe.build_s", value: build_s, unit: "s" },
        Metric { name: "core.universe.ties", value: universe.len() as f64, unit: "count" },
        Metric { name: "core.estep.train_s", value: estep_s, unit: "s" },
        Metric {
            name: "core.estep.iters_per_s",
            value: estep_out.params.iterations as f64 / estep_s,
            unit: "1/s",
        },
        Metric { name: "core.dstep.train_s", value: dstep_s, unit: "s" },
        Metric { name: "core.dstep.rows", value: rows as f64, unit: "count" },
        Metric { name: "core.fit.stage_share", value: c.stage_share, unit: "fraction" },
    ]
}

/// Traced over untraced wall time of the phase the traced run repeats.
/// On `fit` that is the paper-scale fit: the traced fit against one more
/// fit of the same graph and seed without the observer. On the serving
/// workloads it is a closed-loop replay of the run's first reads and its
/// whole write log, reloads included, against fresh topologies with and
/// without the observer, alternated twice.
fn overhead_ratio(c: &LayerContext<'_>) -> Result<f64, String> {
    if c.plan.measured_fit {
        let untraced = DeepDirectConfig { observer: ObserverHandle::none(), ..c.cfg.clone() };
        let (_, secs) = timed(|| DeepDirect::new(untraced).fit(&c.hidden.network));
        return Ok(c.fit_s / secs);
    }
    let keys: Vec<(u32, u32)> = c.reads.iter().take(REPLAY_READS).map(|s| s.key).collect();
    let replay = |observer: ObserverHandle| -> Result<f64, String> {
        let topo = Topology::start(&c.art.models[0], c.plan.routed, &observer)?;
        let (written, secs) = timed(|| {
            burst(&topo.entry, &keys);
            write_log(&topo.entry, c.batches, c.reload_before, &c.art.paths, &AtomicUsize::new(0))
        });
        topo.shutdown();
        if written.failed > 0 {
            return Err("a write of the overhead replay failed".into());
        }
        Ok(secs)
    };
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        untraced.push(replay(ObserverHandle::none())?);
        let sink: Arc<dyn TrainObserver> = SpanLog::new(&["serve.queue_wait"], true);
        traced.push(replay(ObserverHandle::new(sink))?);
    }
    Ok(median(&traced) / median(&untraced))
}
