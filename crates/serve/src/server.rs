//! The query server: scores out of a hot-swappable [`DirectionalityModel`],
//! behind the shared HTTP front end (`front.rs`: bounded accept queue,
//! worker pool, timeouts, panic isolation, per-endpoint metrics, drain).
//!
//! This module is the route function and the state behind it: each worker
//! scores through the sharded LRU cache with its own slot reader and
//! fold-in scratch buffer, and logs every request with its child spans.
//! The model lives in a [`ModelSlot`]: `POST /admin/reload` swaps a new
//! artifact in while in-flight requests finish on the `Arc` they started
//! with (DESIGN.md §7.14).
//!
//! With [`ServeConfig::stream`] on, the server also accepts `POST /ingest`:
//! JSONL tie events fold into the frozen embedding space through a
//! [`StreamEngine`] (DESIGN.md §7.15), and exactly the touched
//! `(fingerprint, src, dst)` cache entries are invalidated — new ties score
//! within one request of being ingested, without retraining.

use std::net::SocketAddr;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use dd_graph::NodeId;
use dd_stream::{parse_events, StreamEngine};
use dd_telemetry::trace::derive_span_id;
use dd_telemetry::{Counter, Event, Gauge, MetricSnapshot, ObserverHandle, Registry};
use deepdirect::{DirectionalityModel, MODEL_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};

use crate::front::{
    self, error, json, parse_id, Exchange, Front, FrontConfig, Routed, Service, NDJSON, PROM_TEXT,
};
use crate::http;
use crate::lru::ScoreCache;
use crate::slot::{ModelSlot, SlotReader};

/// Server configuration. `Default` is suitable for local use.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Total LRU score-cache capacity; `0` disables caching.
    pub cache_size: usize,
    /// Per-request read/write timeout.
    pub request_timeout: Duration,
    /// Accepted connections that may wait for a free worker before new
    /// arrivals are rejected with `503`.
    pub queue_depth: usize,
    /// Structured request-log sink (JSONL events of kind `serve.request`).
    pub observer: ObserverHandle,
    /// Enables streaming tie ingestion: `POST /ingest` accepts JSONL tie
    /// events and folds them into the frozen embedding space (DESIGN.md
    /// §7.15). Off by default — with it off, `/ingest` answers `400`.
    pub stream: bool,
    /// Test-only fault injection: when `true`, `GET /__panic` panics inside
    /// the request handler. The chaos suite uses it to prove panic
    /// isolation (500 to the client, `serve.panics` incremented, worker
    /// survives). Leave `false` in production.
    pub panic_route: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 4,
            cache_size: 4096,
            request_timeout: Duration::from_secs(5),
            queue_depth: 64,
            observer: ObserverHandle::none(),
            stream: false,
            panic_route: false,
        }
    }
}

impl ServeConfig {
    fn front(&self) -> FrontConfig<'_> {
        FrontConfig {
            prefix: "serve",
            addr: &self.addr,
            workers: self.workers,
            queue_depth: self.queue_depth,
            request_timeout: self.request_timeout,
            observer: self.observer.clone(),
        }
    }
}

/// Streaming-ingest state: the engine plus its instruments. Present only
/// when [`ServeConfig::stream`] is on.
struct StreamState {
    /// Scoring takes read locks (one per cache miss); `POST /ingest` and
    /// reload rebinds take the write lock.
    engine: RwLock<StreamEngine>,
    /// Events applied over the server's lifetime (`serve.ingest.events`).
    events_applied: Arc<Counter>,
    /// Ingest batches accepted (`serve.ingest.batches`).
    batches: Arc<Counter>,
    /// Cache entries invalidated by ingests (`serve.ingest.invalidations`).
    invalidations: Arc<Counter>,
    /// Live dynamic (untrained, followed) ties (`serve.stream.live`).
    live: Arc<Gauge>,
}

impl StreamState {
    // Poison recovery mirrors the slot/worker locks: the guarded sections
    // only mutate the engine's own plain data structures, so a poisoned
    // lock means a panic elsewhere unwound through a guard — the engine
    // state is still coherent (apply/rebind never partially apply).
    fn read_engine(&self) -> RwLockReadGuard<'_, StreamEngine> {
        self.engine.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write_engine(&self) -> RwLockWriteGuard<'_, StreamEngine> {
        self.engine.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The server's shared state: the model slot, cache, stream engine, and the
/// instruments behind them.
struct AppState {
    slot: Arc<ModelSlot>,
    cache: Option<ScoreCache>,
    /// Streaming-ingest engine; `None` unless [`ServeConfig::stream`].
    stream: Option<StreamState>,
    registry: Arc<Registry>,
    observer: ObserverHandle,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_occupancy: Arc<Gauge>,
    /// Dead-generation entries reclaimed on reload (`serve.cache.purged`).
    cache_purged: Arc<Counter>,
    pool_utilization: Arc<Gauge>,
    /// Current reload generation, exported so dashboards can correlate
    /// latency shifts with model swaps.
    model_generation: Arc<Gauge>,
    /// Successful `POST /admin/reload` swaps.
    model_reloads: Arc<Counter>,
    started: Instant,
    n_workers: usize,
    panic_route: bool,
}

/// Per-request cache accounting, collected by [`AppState::score_cached`] so
/// the request trace can tag cache hits/misses without reading the global
/// counters (which concurrent requests would tear).
#[derive(Debug, Default, Clone, Copy)]
struct RouteStats {
    cache_hits: u64,
    cache_misses: u64,
}

/// One worker's state. The slot reader makes steady-state requests cost one
/// atomic generation load; only the first request after a reload re-locks
/// the slot. The scratch vector is the reusable fold-in buffer, so the
/// streaming score path never allocates. `model`, `generation` and `stats`
/// belong to the request in hand.
struct Worker {
    reader: SlotReader,
    scratch: Vec<f32>,
    model: Arc<DirectionalityModel>,
    generation: u64,
    stats: RouteStats,
}

impl AppState {
    fn new(slot: Arc<ModelSlot>, cfg: &ServeConfig, registry: Arc<Registry>) -> Self {
        registry.gauge("serve.pool.workers").set(cfg.workers as f64);
        let model_generation = registry.gauge("serve.model.generation");
        model_generation.set(slot.generation() as f64);
        let stream = if cfg.stream {
            Some(StreamState {
                engine: RwLock::new(StreamEngine::new(slot.load())),
                events_applied: registry.counter("serve.ingest.events"),
                batches: registry.counter("serve.ingest.batches"),
                invalidations: registry.counter("serve.ingest.invalidations"),
                live: registry.gauge("serve.stream.live"),
            })
        } else {
            None
        };
        AppState {
            slot,
            cache: ScoreCache::new(cfg.cache_size),
            stream,
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            cache_evictions: registry.counter("serve.cache.evictions"),
            cache_occupancy: registry.gauge("serve.cache.occupancy"),
            cache_purged: registry.counter("serve.cache.purged"),
            model_generation,
            model_reloads: registry.counter("serve.model.reloads"),
            observer: cfg.observer.clone(),
            pool_utilization: registry.gauge("serve.pool.utilization"),
            // dd-lint: allow(trace-hygiene) — uptime anchor for /healthz;
            // a process lifetime is not a span.
            started: Instant::now(),
            n_workers: cfg.workers,
            panic_route: cfg.panic_route,
            registry,
        }
    }

    /// Refreshes `serve.pool.utilization`: the fraction of the worker
    /// pool's wall-clock capacity spent inside request handlers (sum of
    /// per-endpoint latency over `uptime × workers`).
    fn update_pool_utilization(&self) {
        let busy: f64 = self
            .registry
            .snapshot()
            .iter()
            .filter_map(|(name, snap)| match snap {
                MetricSnapshot::Histogram(h) if name.starts_with("serve.latency.") => Some(h.sum),
                _ => None,
            })
            .sum();
        let capacity = self.started.elapsed().as_secs_f64() * self.n_workers as f64;
        if capacity > 0.0 {
            self.pool_utilization.set(busy / capacity);
        }
    }

    /// Scores `(src, dst)` against `model` through the LRU cache. `None`
    /// when the ordered tie is not in the trained universe (never cached).
    ///
    /// Entries are keyed by the model's content fingerprint in addition to
    /// the tie, so a hot reload invalidates the whole cache by construction
    /// — stale scores can never be served, even while requests on two model
    /// generations are in flight at once.
    ///
    /// With streaming on, the compute *and* the insert both happen under
    /// the engine read lock. `POST /ingest` takes the write lock to apply a
    /// batch and removes the touched keys after releasing it; if the insert
    /// ran outside the read lock, a whole ingest (apply + invalidate) could
    /// slip between this request's compute and its insert, and the
    /// pre-ingest score would be cached — and served — indefinitely.
    /// Holding the read lock across both steps means a racing ingest either
    /// waits for this insert (its removal then kills the entry) or has
    /// already applied (this request computes the post-ingest score).
    fn score_cached(
        &self,
        model: &DirectionalityModel,
        src: u32,
        dst: u32,
        scratch: &mut Vec<f32>,
        stats: &mut RouteStats,
    ) -> Option<f64> {
        let Some(cache) = &self.cache else {
            return self.score_live(model, src, dst, scratch);
        };
        let key = (model.fingerprint(), src, dst);
        if let Some(v) = cache.get(key) {
            self.cache_hits.incr();
            stats.cache_hits += 1;
            return Some(v);
        }
        let v = if let Some(stream) = &self.stream {
            let engine = stream.read_engine();
            if engine.fingerprint() != model.fingerprint() {
                // A reload is racing this request: the slot and the engine
                // disagree on the generation for the duration of the swap.
                // Serve the plain trained score but never cache it — the
                // engine's overlay (tombstones, dynamic ties) was not
                // consulted, so a cached entry could outlive the race and
                // keep serving an overlay-blind score.
                drop(engine);
                let v = model.score(NodeId(src), NodeId(dst))?;
                self.cache_misses.incr();
                stats.cache_misses += 1;
                return Some(v);
            }
            let v = engine.score(NodeId(src), NodeId(dst), scratch)?;
            self.cache_misses.incr();
            stats.cache_misses += 1;
            // dd-lint: order(engine < shard) — §7.15 rule 1: cache shards
            // are only ever locked under the engine lock (this insert, and
            // ingest's removals run with no engine guard held at all), so
            // the insert can never deadlock against an ingest invalidation
            // dd-lint: acquires(shard) — ScoreCache::insert locks the
            // key's LRU shard internally
            if cache.insert(key, v) {
                self.cache_evictions.incr();
            }
            v
        } else {
            let v = model.score(NodeId(src), NodeId(dst))?;
            self.cache_misses.incr();
            stats.cache_misses += 1;
            if cache.insert(key, v) {
                self.cache_evictions.incr();
            }
            v
        };
        self.cache_occupancy.set(cache.len() as f64);
        Some(v)
    }

    /// Resolves one uncached score (the cache-disabled path). With
    /// streaming on, the engine answers (exact trained scores for untouched
    /// pairs, fold-in for dynamic ones, `None` for tombstones); without it,
    /// the model answers directly. `scratch` is the worker-owned fold-in
    /// buffer, so the streaming path never allocates per request.
    fn score_live(
        &self,
        model: &DirectionalityModel,
        src: u32,
        dst: u32,
        scratch: &mut Vec<f32>,
    ) -> Option<f64> {
        if let Some(stream) = &self.stream {
            let engine = stream.read_engine();
            if engine.fingerprint() == model.fingerprint() {
                return engine.score(NodeId(src), NodeId(dst), scratch);
            }
            // A reload is racing this request: the engine rebinds to the
            // new generation before the slot swap, so this request's model
            // snapshot is one generation behind the engine. Fall through
            // to the plain trained score for that snapshot — nothing is
            // cached on this path, so nothing can go stale.
        }
        model.score(NodeId(src), NodeId(dst))
    }
}

/// `GET /healthz` payload.
#[derive(Debug, Serialize, Deserialize)]
pub struct HealthResponse {
    /// `"ok"` while the server is accepting requests.
    pub status: String,
    /// Ties in the served model's training universe.
    pub ties: usize,
    /// Model artifact schema version the server was built against.
    pub model_schema: u32,
    /// Content fingerprint of the served model (16 lowercase hex digits);
    /// identical whether the model was loaded from JSON or `.ddm`.
    pub model_fingerprint: String,
    /// Reload generation: 1 for the model the process started with,
    /// incremented by every successful `POST /admin/reload`.
    pub generation: Option<u64>,
    /// Live dynamic ties folded in via streaming ingestion; absent when the
    /// server runs without [`ServeConfig::stream`].
    pub live_dynamic: Option<u64>,
}

/// A tie pair, as accepted by `/score` query params and `/batch` JSONL lines.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TiePair {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
}

/// One score result line, as returned by `/score` and `/batch`.
#[derive(Debug, Serialize, Deserialize)]
pub struct ScoreResponse {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Directionality value `d(src, dst)`; absent when the tie is unknown.
    pub score: Option<f64>,
    /// Error description; absent on success.
    pub error: Option<String>,
    /// Content fingerprint (16 lowercase hex digits) of the model that
    /// produced this score. Under hot reload this is the ground truth for
    /// which generation answered — scores are bit-identical to offline
    /// scoring against the artifact with this fingerprint.
    pub fingerprint: Option<String>,
}

/// `POST /admin/reload` request body.
#[derive(Debug, Serialize, Deserialize)]
pub struct ReloadRequest {
    /// Path to the new model artifact (JSON or binary `.ddm`, sniffed).
    pub path: String,
}

/// `POST /admin/reload` success payload.
#[derive(Debug, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// `"reloaded"` on success.
    pub status: String,
    /// Fingerprint of the model that was swapped out.
    pub old_fingerprint: String,
    /// Fingerprint of the model now being served.
    pub new_fingerprint: String,
    /// Reload generation after the swap.
    pub generation: u64,
    /// Ties in the new model's training universe.
    pub ties: usize,
    /// Dead-generation cache entries reclaimed by the swap; absent when the
    /// cache is disabled.
    pub cache_purged: Option<u64>,
}

/// `POST /ingest` success payload.
#[derive(Debug, Serialize, Deserialize)]
pub struct IngestResponse {
    /// `"applied"` on success (application is atomic: a malformed batch is
    /// rejected whole with a `400` and applies nothing).
    pub status: String,
    /// Events applied from this batch.
    pub applied: usize,
    /// Cache entries invalidated by this batch.
    pub invalidated: usize,
    /// Live dynamic ties after this batch.
    pub live_dynamic: usize,
    /// Events applied over the engine's lifetime (the event-log length).
    pub events_total: usize,
    /// Engine state digest after this batch (16 lowercase hex digits);
    /// replaying the same event log against the same model reproduces it
    /// bit for bit (DESIGN.md §7.15).
    pub digest: String,
    /// Content fingerprint of the model the events folded into.
    pub fingerprint: String,
}

impl Service for AppState {
    type Worker = Worker;

    fn worker(&self) -> Worker {
        let mut reader = self.slot.reader();
        Worker {
            model: Arc::clone(reader.current()),
            generation: reader.generation(),
            reader,
            scratch: Vec::new(),
            stats: RouteStats::default(),
        }
    }

    fn begin(&self, w: &mut Worker) {
        // The request's model snapshot: taken once here so a reload
        // mid-request cannot change what this request scores against, and
        // so the response fingerprint always names the model that answered.
        w.model = Arc::clone(w.reader.current());
        w.generation = w.reader.generation();
        w.stats = RouteStats::default();
    }

    fn route(&self, w: &mut Worker, req: &http::Request, _traceparent: &str) -> Routed {
        let model = &w.model;
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                let body = HealthResponse {
                    status: "ok".to_string(),
                    ties: model.n_ties(),
                    model_schema: MODEL_SCHEMA_VERSION,
                    model_fingerprint: format!("{:016x}", model.fingerprint()),
                    generation: Some(w.generation),
                    live_dynamic: self
                        .stream
                        .as_ref()
                        .map(|s| s.read_engine().live_dynamic() as u64),
                };
                json("healthz", 200, &body)
            }
            ("GET", "/score") => score_endpoint(self, w, req),
            ("POST", "/batch") => batch_endpoint(self, w, req),
            ("POST", "/ingest") => ingest_endpoint(self, req),
            ("POST", "/admin/reload") => reload_endpoint(self, req),
            // Fault injection for the chaos suite (ServeConfig::panic_route);
            // with the flag off this falls through to the 404 arm.
            ("GET", "/__panic") if self.panic_route => {
                panic!("injected handler panic via /__panic")
            }
            ("GET", "/metrics") => {
                if let Some(cache) = &self.cache {
                    self.cache_occupancy.set(cache.len() as f64);
                }
                self.update_pool_utilization();
                self.model_generation.set(self.slot.generation() as f64);
                let mut body = front::render_metrics(&self.registry, "serve", &[]);
                // The 64-bit fingerprint cannot ride in an f64 gauge without
                // precision loss, so it rides as an info-style label instead
                // (value = generation, like Prometheus build_info).
                body.extend_from_slice(
                    format!(
                        "# HELP dd_serve_model_info Identity of the currently served model.\n\
                         # TYPE dd_serve_model_info gauge\n\
                         dd_serve_model_info{{fingerprint=\"{:016x}\"}} {}\n",
                        model.fingerprint(),
                        w.generation,
                    )
                    .as_bytes(),
                );
                ("metrics", 200, PROM_TEXT, body)
            }
            _ => front::unrouted(req),
        }
    }

    fn log(&self, w: &Worker, exchange: &Exchange) {
        if !self.observer.is_enabled() {
            return;
        }
        emit_request_trace(&self.observer, exchange, &w.stats);
        let mut e = exchange.event();
        // The serving model's identity rides on the trace root so a
        // dashboard can slice request latency by reload generation.
        e.model_fingerprint = Some(format!("{:016x}", w.model.fingerprint()));
        e.fields = Some(vec![("model.generation".to_string(), w.generation as f64)]);
        self.observer.on_event(&e);
    }
}

/// Parses a `/batch` body: one [`TiePair`] per non-blank JSONL line. Any
/// malformed line rejects the whole batch before a single pair is scored.
pub(crate) fn parse_batch(req: &http::Request) -> Result<Vec<TiePair>, Routed> {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Err(error("batch", 400, "body must be UTF-8 JSONL"));
    };
    let mut pairs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<TiePair>(line) {
            Ok(p) => pairs.push(p),
            Err(e) => {
                let msg = format!("line {}: expected {{\"src\":A,\"dst\":B}}: {e}", i + 1);
                return Err(error("batch", 400, &msg));
            }
        }
    }
    if pairs.is_empty() {
        return Err(error("batch", 400, "empty batch: send one JSON pair per line"));
    }
    Ok(pairs)
}

fn score_endpoint(state: &AppState, w: &mut Worker, req: &http::Request) -> Routed {
    let (src, dst) = match (parse_id(req, "src"), parse_id(req, "dst")) {
        (Ok(s), Ok(d)) => (s, d),
        (Err(e), _) | (_, Err(e)) => return error("score", 400, &e),
    };
    let fingerprint = Some(format!("{:016x}", w.model.fingerprint()));
    match state.score_cached(&w.model, src, dst, &mut w.scratch, &mut w.stats) {
        Some(score) => {
            let body = ScoreResponse { src, dst, score: Some(score), error: None, fingerprint };
            json("score", 200, &body)
        }
        None => {
            let body = ScoreResponse {
                src,
                dst,
                score: None,
                error: Some("unknown tie: pair was not in the training universe".to_string()),
                fingerprint,
            };
            json("score", 404, &body)
        }
    }
}

fn batch_endpoint(state: &AppState, w: &mut Worker, req: &http::Request) -> Routed {
    let pairs = match parse_batch(req) {
        Ok(pairs) => pairs,
        Err(rejected) => return rejected,
    };
    let fingerprint = format!("{:016x}", w.model.fingerprint());
    let mut out = String::new();
    for TiePair { src, dst } in pairs {
        let score = state.score_cached(&w.model, src, dst, &mut w.scratch, &mut w.stats);
        let resp = ScoreResponse {
            src,
            dst,
            score,
            error: score.is_none().then(|| "unknown tie".to_string()),
            fingerprint: Some(fingerprint.clone()),
        };
        out.push_str(&serde_json::to_string(&resp).unwrap_or_default());
        out.push('\n');
    }
    ("batch", 200, NDJSON, out.into_bytes())
}

/// `POST /ingest`: applies a JSONL tie-event batch to the streaming engine
/// and invalidates exactly the touched `(fingerprint, src, dst)` cache
/// entries, so the very next request scores against the new state.
/// Application is atomic — any malformed line rejects the whole batch with
/// a `400` before the engine sees a single event (DESIGN.md §7.15).
fn ingest_endpoint(state: &AppState, req: &http::Request) -> Routed {
    let Some(stream) = &state.stream else {
        return error(
            "ingest",
            400,
            "streaming ingestion is disabled; start `dd serve` with --stream",
        );
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error("ingest", 400, "body must be UTF-8 JSONL");
    };
    let events = match parse_events(text) {
        Ok(ev) => ev,
        Err(e) => return error("ingest", 400, &format!("rejected batch: {e}")),
    };
    if events.is_empty() {
        return error("ingest", 400, "empty batch: send one JSON event per line");
    }
    // One write-lock hold per batch; scoring reads queue behind it only for
    // the duration of the overlay fold (no I/O, no allocation spikes).
    let ((fingerprint, report, live, events_total, digest), seconds) =
        state.observer.time("ingest.apply", || {
            let mut engine = stream.write_engine();
            let fingerprint = engine.fingerprint();
            let report = engine.apply_all(&events);
            let live = engine.live_dynamic();
            (fingerprint, report, live, engine.events_applied(), engine.state_digest())
        });
    let mut invalidated = 0usize;
    if let Some(cache) = &state.cache {
        for &(u, v) in &report.touched {
            if cache.remove((fingerprint, u, v)) {
                invalidated += 1;
            }
        }
        state.cache_occupancy.set(cache.len() as f64);
    }
    stream.events_applied.add(report.applied as u64);
    stream.batches.incr();
    stream.invalidations.add(invalidated as u64);
    stream.live.set(live as f64);
    state.observer.on_event(&Event::ingest_apply(report.applied, invalidated, seconds));
    let body = IngestResponse {
        status: "applied".to_string(),
        applied: report.applied,
        invalidated,
        live_dynamic: live,
        events_total,
        digest: format!("{digest:016x}"),
        fingerprint: format!("{fingerprint:016x}"),
    };
    json("ingest", 200, &body)
}

/// `POST /admin/reload`: loads the artifact named in the body off the hot
/// path, validates it, and swaps it into the slot. In-flight requests keep
/// the old `Arc`; the fingerprint-keyed cache makes their entries
/// unreachable to the new generation automatically. The load runs on this
/// worker thread — other workers keep serving throughout.
fn reload_endpoint(state: &AppState, req: &http::Request) -> Routed {
    let parsed: Result<ReloadRequest, _> = match std::str::from_utf8(&req.body) {
        Ok(text) => serde_json::from_str(text),
        Err(_) => return error("admin", 400, "body must be UTF-8 JSON"),
    };
    let reload = match parsed {
        Ok(r) => r,
        Err(e) => return error("admin", 400, &format!("expected {{\"path\":\"…\"}}: {e}")),
    };
    let new = match DirectionalityModel::load_from_path(&reload.path) {
        Ok(m) => m,
        Err(e) => return error("admin", 400, &format!("reload failed: {e}")),
    };
    if new.n_ties() == 0 {
        return error("admin", 400, "reload rejected: model has no ties");
    }
    let new_fingerprint = format!("{:016x}", new.fingerprint());
    let ties = new.n_ties();
    let new_arc = Arc::new(new);
    // Rebind the streaming engine — the retained event log re-normalizes
    // against the new model's trained tie set, as if replayed from scratch
    // — *before* the slot swap, holding the engine write lock across the
    // swap. That ordering means no request can ever observe the new model
    // with an engine still bound to the old generation: that interleaving
    // would make the scorer fall through to the overlay-blind trained
    // score and cache it under the new fingerprint, where it survives the
    // generation purge below (e.g. a tombstoned tie serving its trained
    // score until churned out). The benign reverse — a request holding the
    // old slot snapshot against the rebound engine — stays uncached (see
    // `score_cached`).
    let old = if let Some(stream) = &state.stream {
        let mut engine = stream.write_engine();
        engine.rebind(Arc::clone(&new_arc));
        stream.live.set(engine.live_dynamic() as f64);
        // dd-lint: order(engine < current) — §7.15 rule 2: the slot swap
        // happens under the engine write lock (rebind-then-swap), never
        // the reverse, so no request can see the new model with an engine
        // still bound to the old generation
        // dd-lint: acquires(current) — Slot::swap locks the current-model
        // mutex internally
        state.slot.swap(Arc::clone(&new_arc))
    } else {
        state.slot.swap(Arc::clone(&new_arc))
    };
    let generation = state.slot.generation();
    // Entries keyed by dead generations can never be served again (the
    // fingerprint key changed), but until purged they squat on LRU capacity
    // and force phantom evictions of live entries.
    let cache_purged = state.cache.as_ref().map(|cache| {
        let purged = cache.purge_other_generations(new_arc.fingerprint()) as u64;
        state.cache_purged.add(purged);
        state.cache_occupancy.set(cache.len() as f64);
        purged
    });
    state.model_generation.set(generation as f64);
    state.model_reloads.incr();
    state.observer.on_event(&Event::metric("serve.model.reload", generation as f64, None));
    let body = ReloadResponse {
        status: "reloaded".to_string(),
        old_fingerprint: format!("{:016x}", old.fingerprint()),
        new_fingerprint,
        generation,
        ties,
        cache_purged,
    };
    json("admin", 200, &body)
}

/// Emits the per-request child spans: accept-queue wait, the handler phase,
/// and cache hit/miss tags. All share the request's trace ID and parent to
/// the `serve.request` root (the request-log event itself).
fn emit_request_trace(observer: &ObserverHandle, req: &Exchange, stats: &RouteStats) {
    let mut queue = Event::span("serve.queue_wait", Some("serve.request"), req.queue_seconds)
        .with_trace(
            req.trace_id,
            derive_span_id(req.trace_id, req.root_sid, "serve.queue_wait", 0),
            Some(req.root_sid),
        );
    queue.start_seconds = Some((req.start_seconds - req.queue_seconds).max(0.0));
    observer.on_event(&queue);

    let handler_name = format!("serve.handler.{}", req.endpoint);
    let handler_sid = derive_span_id(req.trace_id, req.root_sid, &handler_name, 0);
    let mut handler = Event::span(&handler_name, Some("serve.request"), req.handler_seconds)
        .with_trace(req.trace_id, handler_sid, Some(req.root_sid));
    handler.start_seconds = Some(req.handler_start_seconds);
    observer.on_event(&handler);

    for (name, count) in
        [("serve.cache.hit", stats.cache_hits), ("serve.cache.miss", stats.cache_misses)]
    {
        if count == 0 {
            continue;
        }
        let mut tag = Event::span(name, Some(handler_name.as_str()), 0.0).with_trace(
            req.trace_id,
            derive_span_id(req.trace_id, handler_sid, name, 0),
            Some(handler_sid),
        );
        tag.value = Some(count as f64);
        tag.start_seconds = Some(req.handler_start_seconds);
        observer.on_event(&tag);
    }
}

/// The server factory. See [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `cfg.addr`, spawns the acceptor and worker pool, and returns a
    /// handle. The model is shared read-only across workers; scores are
    /// bit-identical to calling [`DirectionalityModel::score`] directly.
    pub fn start(
        model: Arc<DirectionalityModel>,
        cfg: ServeConfig,
    ) -> Result<ServerHandle, String> {
        Self::start_with_slot(Arc::new(ModelSlot::new(model)), cfg)
    }

    /// [`Server::start`] with a caller-owned [`ModelSlot`], for embedders
    /// that want to drive swaps directly instead of via `POST /admin/reload`
    /// (tests, embedding hosts).
    pub fn start_with_slot(slot: Arc<ModelSlot>, cfg: ServeConfig) -> Result<ServerHandle, String> {
        let registry = Arc::new(Registry::new());
        let state = AppState::new(Arc::clone(&slot), &cfg, Arc::clone(&registry));
        let front = Front::start(cfg.front(), registry, Arc::new(state))?;
        Ok(ServerHandle { front, slot })
    }
}

/// A running server. Dropping the handle shuts the server down gracefully;
/// call [`ServerHandle::shutdown`] to do it explicitly and get the request
/// count back.
pub struct ServerHandle {
    front: Front,
    slot: Arc<ModelSlot>,
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The server's metric registry (same data `/metrics` renders).
    pub fn registry(&self) -> Arc<Registry> {
        self.front.registry()
    }

    /// The hot-swappable model slot the server scores from.
    pub fn slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.slot)
    }

    /// Total requests handled so far, across all endpoints.
    pub fn requests_total(&self) -> u64 {
        self.front.requests_total()
    }

    /// Graceful shutdown: stop accepting, drain every queued and in-flight
    /// request, join the pool, flush the request log. Returns the total
    /// number of requests served.
    pub fn shutdown(mut self) -> u64 {
        self.front.shutdown();
        self.front.requests_total()
    }
}
