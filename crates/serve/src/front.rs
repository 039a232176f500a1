//! The HTTP front end shared by the query server and the fleet router.
//!
//! Everything between the socket and a route function lives here, once:
//! bind, a bounded `sync_channel` accept queue (overflow → immediate `503`
//! instead of unbounded memory), a fixed worker pool draining it, per-
//! request read/write timeouts, request parsing with parse errors mapped to
//! `408`/`413`/`400`, panic isolation, trace identity (a client
//! `traceparent` wins, else one is derived from the request sequence, and
//! it is echoed on every response), the per-endpoint `{prefix}.requests.*`
//! counters and `{prefix}.latency.*` histograms, and graceful drain.
//!
//! A [`Service`] plugs in what differs: its route function, the state each
//! worker owns, and its request log. [`server`](crate::server) and
//! [`router`](crate::router) are the two services; `prefix` (`serve` or
//! `router`) names their metrics, threads and trace roots.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dd_runtime::{spawn_named, Threads, WorkerPool};
use dd_telemetry::export::{prometheus_text, PromFamily};
use dd_telemetry::trace::{
    derive_span_id, derive_trace_id, format_traceparent, now_seconds, parse_traceparent,
    SpanContext,
};
use dd_telemetry::{Counter, Event, Histogram, MetricSnapshot, ObserverHandle, Registry};
use serde::Serialize;

use crate::http;

pub(crate) const JSON: &str = "application/json";
pub(crate) const NDJSON: &str = "application/x-ndjson";
/// Prometheus text exposition format version 0.0.4.
pub(crate) const PROM_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A route function's answer: endpoint label, status, content type, body.
pub(crate) type Routed = (&'static str, u16, &'static str, Vec<u8>);

/// Endpoint labels used in metric names and request-log events. The first
/// six are routes; the rest label requests no route answered.
const ENDPOINTS: [&str; 10] = [
    "healthz",
    "score",
    "batch",
    "ingest",
    "metrics",
    "admin",
    "other",
    "timeout",
    "malformed",
    "panic",
];

/// What a front end serves. Implementations are shared by every worker.
pub(crate) trait Service: Send + Sync + 'static {
    /// State one worker owns for its lifetime (buffers, slot readers, the
    /// request in hand).
    type Worker;

    /// Builds one worker's state. Also rebuilds it after a panic escaped
    /// the connection path, so no half-updated state outlives the panic.
    fn worker(&self) -> Self::Worker;

    /// Called once per request, after it was read and before it is routed
    /// or logged.
    fn begin(&self, _worker: &mut Self::Worker) {}

    /// Answers one parsed request. `traceparent` names this request's root
    /// span, for propagation to upstreams.
    fn route(&self, worker: &mut Self::Worker, req: &http::Request, traceparent: &str) -> Routed;

    /// Writes the request log for one answered request.
    fn log(&self, worker: &Self::Worker, exchange: &Exchange);
}

/// Identity and timing of one answered request, handed to [`Service::log`].
pub(crate) struct Exchange {
    pub endpoint: &'static str,
    pub status: u16,
    pub trace_id: u64,
    pub root_sid: u64,
    /// Wall-clock start of handling, after the accept-queue wait.
    pub start_seconds: f64,
    /// Time the connection waited in the accept queue.
    pub queue_seconds: f64,
    pub handler_start_seconds: f64,
    /// Time spent routing (or classifying the parse error).
    pub handler_seconds: f64,
    /// Handling latency, response write included.
    pub seconds: f64,
}

impl Exchange {
    /// The request-log root event: kind `serve.request`, carrying the
    /// request's trace identity and start time.
    pub fn event(&self) -> Event {
        let mut e = Event::serve_request(self.endpoint, self.status, self.seconds).with_trace(
            self.trace_id,
            self.root_sid,
            None,
        );
        e.start_seconds = Some(self.start_seconds);
        e
    }
}

/// The socket-facing settings both `ServeConfig` and `RouterConfig` carry.
pub(crate) struct FrontConfig<'a> {
    /// `serve` or `router`: the metric, thread-name and trace-root prefix.
    pub prefix: &'static str,
    pub addr: &'a str,
    pub workers: usize,
    pub queue_depth: usize,
    pub request_timeout: Duration,
    pub observer: ObserverHandle,
}

impl FrontConfig<'_> {
    /// Rejects a pool that could never serve: no workers, no queue, or a
    /// zero timeout (which sockets refuse, leaving stalled clients with no
    /// deadline at all).
    fn validate(&self) -> Result<(), String> {
        let prefix = self.prefix;
        if self.workers == 0 {
            return Err(format!("{prefix}: need at least one worker"));
        }
        if self.queue_depth == 0 {
            return Err(format!("{prefix}: queue depth must be positive"));
        }
        if self.request_timeout.is_zero() {
            return Err(format!("{prefix}: request timeout must be positive"));
        }
        Ok(())
    }
}

/// Per-endpoint instruments, registered once at startup so the request path
/// never takes the registry lock.
struct EndpointMetrics {
    requests: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// What the acceptor and every worker share.
struct Shared<S> {
    service: Arc<S>,
    observer: ObserverHandle,
    request_timeout: Duration,
    /// `{prefix}.request`: the name trace roots are derived under.
    root_span: String,
    endpoints: Vec<(&'static str, EndpointMetrics)>,
    queue_rejections: Arc<Counter>,
    panics: Arc<Counter>,
    /// Monotone request sequence; seeds per-request trace IDs when the
    /// client did not send a `traceparent` header.
    request_seq: AtomicU64,
}

impl<S> Shared<S> {
    fn endpoint(&self, name: &str) -> Option<&EndpointMetrics> {
        // ENDPOINTS is tiny and `name` always comes from routing constants;
        // an unknown name is a routing bug, and losing that one metrics
        // sample beats panicking on the response path.
        self.endpoints.iter().find(|(n, _)| *n == name).map(|(_, m)| m)
    }
}

/// A running front end. Dropping it shuts it down gracefully.
pub(crate) struct Front {
    addr: SocketAddr,
    prefix: &'static str,
    registry: Arc<Registry>,
    observer: ObserverHandle,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: WorkerPool,
    /// Service-owned background threads, joined after the workers drain.
    helpers: Vec<JoinHandle<()>>,
}

impl Front {
    /// Binds `cfg.addr`, registers the front end's instruments in
    /// `registry`, and spawns the acceptor and worker pool around `service`.
    pub fn start<S: Service>(
        cfg: FrontConfig<'_>,
        registry: Arc<Registry>,
        service: Arc<S>,
    ) -> Result<Front, String> {
        cfg.validate()?;
        let prefix = cfg.prefix;
        let listener =
            TcpListener::bind(cfg.addr).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let endpoints = ENDPOINTS
            .iter()
            .map(|&name| {
                let m = EndpointMetrics {
                    requests: registry.counter(&format!("{prefix}.requests.{name}")),
                    // 10 µs … ~84 s exponential latency buckets.
                    latency: registry.histogram(&format!("{prefix}.latency.{name}"), 1e-5, 2.0, 23),
                };
                (name, m)
            })
            .collect();
        let shared = Arc::new(Shared {
            service,
            observer: cfg.observer.clone(),
            request_timeout: cfg.request_timeout,
            root_span: format!("{prefix}.request"),
            endpoints,
            queue_rejections: registry.counter(&format!("{prefix}.rejected.queue_full")),
            panics: registry.counter(&format!("{prefix}.panics")),
            request_seq: AtomicU64::new(0),
        });
        let shutdown = Arc::new(AtomicBool::new(false));

        let (tx, rx) = std::sync::mpsc::sync_channel::<(TcpStream, Instant)>(cfg.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = {
            let shared = Arc::clone(&shared);
            WorkerPool::start(
                &format!("dd-{prefix}-worker"),
                Threads::new(cfg.workers).map_err(|e| format!("{prefix} workers: {e}"))?,
                move |_| worker_loop(&rx, &shared),
            )?
        };
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            spawn_named(&format!("dd-{prefix}-acceptor"), move || {
                accept_loop(listener, tx, &shutdown, &shared)
            })?
        };
        Ok(Front {
            addr,
            prefix,
            registry,
            observer: cfg.observer,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            helpers: Vec::new(),
        })
    }

    /// Spawns a named background thread that runs until shutdown begins;
    /// it is joined after the worker pool drains.
    pub fn spawn_helper(
        &mut self,
        name: &str,
        body: impl FnOnce(&AtomicBool) + Send + 'static,
    ) -> Result<(), String> {
        let shutdown = Arc::clone(&self.shutdown);
        self.helpers.push(spawn_named(name, move || body(&shutdown))?);
        Ok(())
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metric registry `/metrics` renders.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Total requests handled so far, across all endpoints.
    pub fn requests_total(&self) -> u64 {
        let requests = format!("{}.requests.", self.prefix);
        self.registry
            .snapshot()
            .into_iter()
            .filter(|(name, _)| name.starts_with(&requests))
            .map(|(_, snap)| match snap {
                MetricSnapshot::Counter(c) => c,
                _ => 0,
            })
            .sum()
    }

    /// Graceful shutdown: stop accepting, drain every queued and in-flight
    /// request, join the pool and helpers, flush the request log.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.acceptor.is_none() && self.workers.is_empty() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a wakeup connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // The acceptor dropped the sender; workers drain the queue and exit.
        self.workers.join();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
        self.observer.flush();
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `{"error": msg}` as a JSON body.
pub(crate) fn error_body(msg: &str) -> Vec<u8> {
    format!("{{\"error\":{}}}", serde_json::to_string(&msg.to_string()).unwrap_or_default())
        .into_bytes()
}

/// An error answer under `endpoint`.
pub(crate) fn error(endpoint: &'static str, status: u16, msg: &str) -> Routed {
    (endpoint, status, JSON, error_body(msg))
}

/// A JSON answer under `endpoint`.
pub(crate) fn json<T: Serialize>(endpoint: &'static str, status: u16, body: &T) -> Routed {
    (endpoint, status, JSON, serde_json::to_string(body).unwrap_or_default().into_bytes())
}

/// The answer for a request no route matched: `405` on a known path with
/// the wrong method, `404` otherwise.
pub(crate) fn unrouted(req: &http::Request) -> Routed {
    match req.path.as_str() {
        "/healthz" | "/score" | "/batch" | "/ingest" | "/metrics" | "/admin/reload" => {
            error("other", 405, &format!("method {} not allowed", req.method))
        }
        path => error("other", 404, &format!("no such endpoint '{path}'")),
    }
}

/// A node-id query parameter of `/score`.
pub(crate) fn parse_id(req: &http::Request, key: &str) -> Result<u32, String> {
    match req.query_param(key) {
        None => Err(format!("missing query parameter '{key}' (expected /score?src=A&dst=B)")),
        Some(raw) => raw
            .parse::<u32>()
            .map_err(|_| format!("query parameter '{key}' must be a node id, got '{raw}'")),
    }
}

/// Renders `registry` in Prometheus text exposition format (0.0.4). The
/// per-endpoint counters and latency histograms group into labeled
/// families (`dd_{prefix}_requests_total{endpoint="…"}`,
/// `dd_{prefix}_latency_seconds_bucket{endpoint="…",le="…"}`), followed by
/// the service's `extra` families; everything else renders standalone
/// under its sanitized `dd_`-prefixed name.
pub(crate) fn render_metrics(
    registry: &Registry,
    prefix: &str,
    extra: &[PromFamily<'_>],
) -> Vec<u8> {
    let requests = (format!("{prefix}.requests."), format!("dd_{prefix}_requests"));
    let latency = (format!("{prefix}.latency."), format!("dd_{prefix}_latency_seconds"));
    let mut families = vec![
        PromFamily {
            prefix: &requests.0,
            family: &requests.1,
            label: "endpoint",
            help: "Requests handled, by endpoint.",
        },
        PromFamily {
            prefix: &latency.0,
            family: &latency.1,
            label: "endpoint",
            help: "Request wall latency in seconds, by endpoint.",
        },
    ];
    families.extend_from_slice(extra);
    prometheus_text(&registry.snapshot(), &families).into_bytes()
}

fn handle_connection<S: Service>(
    shared: &Shared<S>,
    worker: &mut S::Worker,
    stream: TcpStream,
    accepted: Instant,
) {
    // dd-lint: allow(trace-hygiene) — request latency/queue-wait measurement
    // is the serving path's own instrumentation, reported via telemetry.
    let start = Instant::now();
    let start_seconds = now_seconds();
    let queue_seconds = start.saturating_duration_since(accepted).as_secs_f64();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.request_timeout));
    let _ = stream.set_write_timeout(Some(shared.request_timeout));
    let Ok(read_half) = stream.try_clone() else { return };
    let parsed = http::read_request(&mut BufReader::new(read_half));
    let service = &shared.service;
    service.begin(worker);

    // Request trace identity: a client-supplied `traceparent` wins (the
    // request joins the caller's trace); otherwise each request opens its
    // own trace derived from the request sequence number.
    let seq = shared.request_seq.fetch_add(1, Ordering::Relaxed);
    let client_trace =
        parsed.as_ref().ok().and_then(|r| r.header("traceparent")).and_then(parse_traceparent);
    let trace_id = client_trace.unwrap_or_else(|| derive_trace_id(seq, &shared.root_span));
    let root_sid = derive_span_id(trace_id, 0, &shared.root_span, seq);
    // Echoed to the caller, and the parent of any upstream hop: one trace
    // across client → router → shard.
    let traceparent = format_traceparent(SpanContext { trace_id, span_id: root_sid });

    let handler_start_seconds = now_seconds();
    // dd-lint: allow(trace-hygiene) — handler-phase timing for the request
    // trace's handler child span.
    let handler_start = Instant::now();
    let (endpoint, status, content_type, body) = match parsed {
        // Panic isolation: a handler panic becomes a `500` to this client
        // and a `{prefix}.panics` tick; the worker thread survives and keeps
        // serving. Services keep their shared state behind their own
        // locks/atomics, so `AssertUnwindSafe` cannot observe broken
        // invariants.
        Ok(req) => {
            match catch_unwind(AssertUnwindSafe(|| service.route(worker, &req, &traceparent))) {
                Ok(routed) => routed,
                Err(_) => {
                    shared.panics.incr();
                    shared.observer.on_event(&Event::serve_panic(&req.path));
                    error("panic", 500, "internal error: request handler panicked")
                }
            }
        }
        // Port probes (and the shutdown wakeup) connect and say nothing;
        // not a request, nothing to log.
        Err(http::ParseError::ConnectionClosed) => return,
        Err(http::ParseError::Timeout) => error("timeout", 408, "timed out reading request"),
        Err(e @ http::ParseError::TooLarge(_)) => error("malformed", 413, &e.to_string()),
        Err(e @ http::ParseError::Malformed(_)) => error("malformed", 400, &e.to_string()),
        Err(http::ParseError::Io(_)) => return,
    };
    let handler_seconds = handler_start.elapsed().as_secs_f64();
    let mut write_half = stream;
    let _ = http::write_response_with_headers(
        &mut write_half,
        status,
        content_type,
        &[("traceparent", traceparent)],
        &body,
    );
    let seconds = start.elapsed().as_secs_f64();
    if let Some(m) = shared.endpoint(endpoint) {
        m.requests.incr();
        m.latency.record(seconds);
    }
    service.log(
        worker,
        &Exchange {
            endpoint,
            status,
            trace_id,
            root_sid,
            start_seconds,
            queue_seconds,
            handler_start_seconds,
            handler_seconds,
            seconds,
        },
    );
}

fn accept_loop<S>(
    listener: TcpListener,
    tx: SyncSender<(TcpStream, Instant)>,
    shutdown: &AtomicBool,
    shared: &Shared<S>,
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            // The accept timestamp rides along so the handling worker can
            // report how long the connection sat in the queue.
            // dd-lint: allow(trace-hygiene) — queue-wait enqueue timestamp.
            Ok(stream) => match tx.try_send((stream, Instant::now())) {
                Ok(()) => {}
                Err(TrySendError::Full((mut stream, _))) => {
                    shared.queue_rejections.incr();
                    shared.observer.on_event(&Event::serve_request("rejected", 503, 0.0));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = http::write_response(
                        &mut stream,
                        503,
                        JSON,
                        &error_body("accept queue full, retry later"),
                    );
                }
                Err(TrySendError::Disconnected(_)) => break,
            },
            Err(_) if shutdown.load(Ordering::SeqCst) => break,
            // Transient accept errors (EMFILE, aborted handshakes) must not
            // kill the front end.
            Err(_) => {}
        }
    }
}

fn worker_loop<S: Service>(rx: &Mutex<Receiver<(TcpStream, Instant)>>, shared: &Shared<S>) {
    let mut worker = shared.service.worker();
    loop {
        // Holding the lock while blocked in `recv` is the shared-receiver
        // pattern: exactly one worker waits in recv, the rest wait on the
        // mutex, and handling happens outside the lock — so the pool still
        // processes in parallel. Poison recovery is sound because nothing
        // under the lock can panic (it only wraps `recv`); connection
        // handling runs outside it, under `catch_unwind`.
        // dd-lint: allow(blocking-while-locked) — shared-receiver idiom:
        // the mutex IS the recv token for the worker pool, held only for
        // the blocking recv itself
        let next = { rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).recv() };
        let Ok((stream, accepted)) = next else {
            // Sender dropped and queue drained: graceful exit.
            break;
        };
        // Backstop: `handle_connection` already isolates route panics, but
        // a panic anywhere else on the connection path (response write,
        // metrics, request log) must not kill the worker either — a dead
        // worker would silently shrink the pool.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(shared, &mut worker, stream, accepted)
        }));
        if outcome.is_err() {
            shared.panics.incr();
            worker = shared.service.worker();
        }
    }
}
