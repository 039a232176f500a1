//! Front ends under test: the same HTTP contract is checked against a bare
//! server and against a router in front of one shard.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use dd_serve::{Router, RouterConfig, RouterHandle, ServeConfig, Server, ServerHandle};
use dd_telemetry::{Event, MetricSnapshot, ObserverHandle, Registry, TrainObserver};
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn fit_model() -> DirectionalityModel {
    let gen_cfg = SocialNetConfig { n_nodes: 80, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(7);
    let net = social_network(&gen_cfg, &mut rng).network;
    let hidden = hide_directions(&net, 0.5, &mut rng).network;
    let cfg =
        DeepDirectConfig { dim: 8, max_iterations: Some(8_000), ..DeepDirectConfig::default() };
    DeepDirect::new(cfg).fit(&hidden)
}

/// Observer that records every event, so tests can assert on the request
/// and fault logs.
#[derive(Default)]
pub struct CaptureSink(pub Mutex<Vec<Event>>);

impl TrainObserver for CaptureSink {
    fn on_event(&self, event: &Event) {
        self.0.lock().unwrap().push(event.clone());
    }
}

/// Which front end faces the client.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Server,
    /// A router in front of one default-configured shard.
    Router,
}

pub const KINDS: [Kind; 2] = [Kind::Server, Kind::Router];

/// The settings both front ends share; they apply to the client-facing one.
pub struct FrontSettings {
    pub workers: usize,
    pub queue_depth: usize,
    pub request_timeout: Duration,
    pub observer: ObserverHandle,
}

impl Default for FrontSettings {
    fn default() -> Self {
        let d = ServeConfig::default();
        FrontSettings {
            workers: d.workers,
            queue_depth: d.queue_depth,
            request_timeout: d.request_timeout,
            observer: d.observer,
        }
    }
}

pub enum Target {
    Server(ServerHandle),
    Router { router: RouterHandle, shard: ServerHandle },
}

impl Target {
    pub fn start(kind: Kind, mutate: impl FnOnce(&mut FrontSettings)) -> Target {
        let model = Arc::new(fit_model());
        let mut f = FrontSettings::default();
        mutate(&mut f);
        let addr = "127.0.0.1:0".to_string();
        match kind {
            Kind::Server => Target::Server(
                Server::start(
                    model,
                    ServeConfig {
                        addr,
                        workers: f.workers,
                        queue_depth: f.queue_depth,
                        request_timeout: f.request_timeout,
                        observer: f.observer,
                        ..ServeConfig::default()
                    },
                )
                .expect("server starts"),
            ),
            Kind::Router => {
                let shard = Server::start(
                    model,
                    ServeConfig { addr: addr.clone(), ..ServeConfig::default() },
                )
                .expect("shard starts");
                let router = Router::start(RouterConfig {
                    addr,
                    shards: vec![shard.addr().to_string()],
                    workers: f.workers,
                    queue_depth: f.queue_depth,
                    request_timeout: f.request_timeout,
                    observer: f.observer,
                    ..RouterConfig::default()
                })
                .expect("router starts");
                Target::Router { router, shard }
            }
        }
    }

    pub fn addr(&self) -> String {
        match self {
            Target::Server(s) => s.addr().to_string(),
            Target::Router { router, .. } => router.addr().to_string(),
        }
    }

    /// The client-facing front end's counter `{serve|router}.{name}`.
    pub fn counter(&self, name: &str) -> u64 {
        let (registry, name): (Arc<Registry>, String) = match self {
            Target::Server(s) => (s.registry(), format!("serve.{name}")),
            Target::Router { router, .. } => (router.registry(), format!("router.{name}")),
        };
        registry
            .snapshot()
            .into_iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, s)| match s {
                MetricSnapshot::Counter(c) => Some(c),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no counter named {name}"))
    }

    /// Requests the client-facing front end has handled so far.
    pub fn requests_total(&self) -> u64 {
        match self {
            Target::Server(s) => s.requests_total(),
            Target::Router { router, .. } => router.requests_total(),
        }
    }

    /// Drains the client-facing front end (router first, then its shard)
    /// and returns the requests it handled.
    pub fn shutdown(self) -> u64 {
        match self {
            Target::Server(s) => s.shutdown(),
            Target::Router { router, shard } => {
                let served = router.shutdown();
                shard.shutdown();
                served
            }
        }
    }
}
