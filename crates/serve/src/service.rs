//! The long-running query service over one frozen simulated world.
//!
//! [`Service::build`] pays the simulation cost exactly once, then the
//! world — trace, configuration, [`SimOutput`] — is immutable for the
//! service's lifetime. Every response is a pure render of that frozen
//! state, so a response's bytes depend only on `(scenario, seed,
//! query)`: cache state, request interleaving, and the executor's
//! thread budget can change *when* a response is ready, never *what* it
//! says. That is the whole determinism contract, inherited rather than
//! re-proved.
//!
//! Requests flow through two layers from [`crate::Query`] to bytes:
//!
//! - a [`sc_par::MemoCache`] keyed on [`QueryKey`] with single-flight
//!   dedup — concurrent identical queries coalesce onto one
//!   computation;
//! - a [`sc_par::Executor`] (work-stealing, fixed thread budget) that
//!   runs [`Service::submit`] requests; [`Pending::wait`] joins one.
//!
//! Failures are served in-band: a query whose computation cannot
//! proceed (e.g. a figure over an empty population) returns a
//! deterministic `ERROR …` body rather than an `Err`, so error
//! responses memoize and coalesce exactly like successes.

use crate::query::{Query, RelQuery};
use sc_cluster::{SimConfig, SimOutput, Simulation};
use sc_core::pipeline::DatasetReport;
use sc_core::{corrupt_and_ingest, QueryKey, ReliabilityConfig};
use sc_obs::stagelog::StageSpan;
use sc_obs::{Obs, SharedCounter, StageLog};
use sc_par::{CacheOutcome, CacheStats, Executor, MemoCache};
use sc_policy::PolicyExperiment;
use sc_scenario::Scenario;
use sc_telemetry::corruption::DataQualityProfile;
use sc_workload::Trace;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How a [`Service`] builds its world and runs its request plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Workload scale factor (1.0 = the paper's 125-day trace).
    pub scale: f64,
    /// Master RNG seed for trace generation and fault injection.
    pub seed: u64,
    /// Executor worker threads; 0 means [`sc_par::current_threads`].
    pub threads: usize,
    /// Landed-response bound for the memo cache; 0 means unbounded
    /// (the pre-eviction behavior). Overflow evicts by the cache's
    /// deterministic second-chance sweep; an evicted response simply
    /// recomputes to the same bytes on its next request.
    pub cache_capacity: usize,
    /// Minimum user population, whatever the scale. User-level figures
    /// (10–12, 17) degenerate below a few dozen users.
    pub users_floor: usize,
    /// Record a wall-clock stage span per computed response (feeds the
    /// Chrome trace exporter; off keeps the hot path allocation-free).
    pub tracing: bool,
    /// The scenario the world is built from; `None` builds the
    /// `supercloud` preset under its historical `supercloud:s<scale>`
    /// label. A given scenario's parsed hash becomes a cache-key
    /// dimension, so two services built from different scenario files
    /// never share memoized bytes even when their names collide.
    pub scenario: Option<Scenario>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            scale: 0.02,
            seed: 42,
            threads: 0,
            cache_capacity: 256,
            users_floor: 64,
            tracing: false,
            scenario: None,
        }
    }
}

/// Shared per-service request counters, safe to read from any thread
/// while workers serve.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests accepted (blocking and submitted).
    pub queries: SharedCounter,
    /// Responses served from the cache without waiting.
    pub hits: SharedCounter,
    /// Responses this service computed on a cache miss.
    pub misses: SharedCounter,
    /// Responses that waited on another request's in-flight compute.
    pub coalesced: SharedCounter,
    /// Cached responses evicted by the second-chance sweep (mirrors
    /// the cache's monotone eviction total; 0 when the cache is
    /// unbounded).
    pub evictions: SharedCounter,
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct Response {
    /// The rendered body. Shared, not copied: a cache hit and the miss
    /// that filled it hold the same allocation.
    pub body: Arc<String>,
    /// How the cache satisfied this request.
    pub outcome: CacheOutcome,
}

/// A submitted request that has not been joined yet.
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<(Response, Instant)>,
    submitted: Instant,
}

impl Pending {
    /// Blocks until the worker finishes this request.
    ///
    /// # Panics
    ///
    /// Panics if the computing closure panicked on a worker thread —
    /// the request can never complete, and the panic already poisoned
    /// the cache flight.
    pub fn wait(self) -> Completed {
        let (response, done) = self.rx.recv().expect("request worker dropped its response");
        Completed { response, latency: done.duration_since(self.submitted) }
    }
}

/// A joined request: the response plus its submit-to-finish latency.
#[derive(Debug, Clone)]
pub struct Completed {
    /// The answered query.
    pub response: Response,
    /// Wall-clock time from [`Service::submit`] to worker completion —
    /// queueing included, which is the latency a client observes.
    pub latency: Duration,
}

/// The query service: one frozen world, a memoizing cache, and a
/// work-stealing request executor.
pub struct Service {
    config: ServeConfig,
    scenario: String,
    world: Scenario,
    trace: Trace,
    sim_config: SimConfig,
    out: SimOutput,
    cache: MemoCache<QueryKey, String>,
    exec: Executor,
    metrics: ServeMetrics,
    stage_log: StageLog,
    build_secs: f64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("scenario", &self.scenario)
            .field("seed", &self.config.seed)
            .field("threads", &self.exec.threads())
            .field("cache", &self.cache.len())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Runs the simulation once and freezes it behind the query plane.
    ///
    /// This is the only expensive constructor in the crate: everything
    /// after it is a render (or a policy/data-quality replay) of the
    /// state built here.
    pub fn build(config: ServeConfig) -> Service {
        let t0 = Instant::now();
        // Every world is a scenario: the `supercloud` preset unless the
        // config names another. The default world keeps its historical
        // cache-key label.
        let scenario = match &config.scenario {
            Some(sc) => format!("{}#{:016x}:s{}", sc.name, sc.hash(), config.scale),
            None => format!("supercloud:s{}", config.scale),
        };
        let world = config
            .scenario
            .clone()
            .unwrap_or_else(|| Scenario::preset("supercloud").expect("committed preset"));
        let mut spec = world.scaled_spec(config.scale);
        let sim_config = world.sim_config(config.scale, config.seed);
        spec.users = spec.users.max(config.users_floor);
        let trace = Trace::generate(&spec, config.seed);
        let out = Simulation::new(sim_config.clone()).run(&trace);
        let threads = if config.threads == 0 { sc_par::current_threads() } else { config.threads };
        Service {
            scenario,
            world,
            trace,
            sim_config,
            out,
            cache: MemoCache::with_capacity(config.cache_capacity),
            exec: Executor::new(threads),
            metrics: ServeMetrics::default(),
            stage_log: StageLog::new(),
            build_secs: t0.elapsed().as_secs_f64(),
            config,
        }
    }

    /// Scenario descriptor: `supercloud:s<scale>` for the flag-default
    /// world, `<name>#<hash>:s<scale>` for a scenario-built one.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The seed the world was generated from.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Executor worker-thread count.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Wall-clock cost of [`Service::build`], seconds.
    pub fn build_secs(&self) -> f64 {
        self.build_secs
    }

    /// The frozen simulation output queries are answered from.
    pub fn sim_output(&self) -> &SimOutput {
        &self.out
    }

    /// The cache key addressing `q` on this service's world.
    pub fn key(&self, q: &Query) -> QueryKey {
        QueryKey { scenario: self.scenario.clone(), seed: self.config.seed, query: q.token() }
    }

    /// Request counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Cache counters (hits/misses/coalesced as the cache saw them).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Wall-clock spans recorded so far (empty unless
    /// [`ServeConfig::tracing`] is on); feeds
    /// [`sc_obs::chrome_trace_json`].
    pub fn stage_spans(&self) -> Vec<StageSpan> {
        self.stage_log.spans()
    }

    /// Answers `q` on the calling thread, through the cache.
    pub fn query_blocking(&self, q: &Query) -> Response {
        self.metrics.queries.incr();
        let (body, outcome) = self.cache.get_or_compute(self.key(q), || self.compute_traced(q));
        match outcome {
            CacheOutcome::Hit => self.metrics.hits.incr(),
            CacheOutcome::Miss => self.metrics.misses.incr(),
            CacheOutcome::Coalesced => self.metrics.coalesced.incr(),
        }
        // Only a miss can have pushed the cache over capacity, so the
        // mirror only needs refreshing here; `record_at_least` keeps
        // concurrent misses from double-counting.
        if outcome == CacheOutcome::Miss {
            self.metrics.evictions.record_at_least(self.cache.stats().evictions);
        }
        Response { body, outcome }
    }

    /// Answers `q` without consulting or filling the cache — the
    /// cold-compute baseline the cache's speedup is measured against.
    /// Does not touch the request counters.
    pub fn query_uncached(&self, q: &Query) -> Arc<String> {
        Arc::new(self.compute_traced(q))
    }

    /// Enqueues `q` on the executor; join with [`Pending::wait`].
    ///
    /// Needs `Arc<Service>` because the worker must hold the service
    /// alive until the response is sent.
    pub fn submit(self: &Arc<Service>, q: Query) -> Pending {
        let (tx, rx) = mpsc::sync_channel(1);
        let svc = Arc::clone(self);
        let submitted = Instant::now();
        self.exec.spawn(move || {
            let response = svc.query_blocking(&q);
            // Stamp completion on the worker so `wait` measures service
            // latency, not how late the client got around to joining.
            let _ = tx.send((response, Instant::now()));
        });
        Pending { rx, submitted }
    }

    fn compute_traced(&self, q: &Query) -> String {
        if self.config.tracing {
            self.stage_log.time(&format!("query:{}", q.token()), || self.compute(q))
        } else {
            self.compute(q)
        }
    }

    fn compute(&self, q: &Query) -> String {
        match q {
            Query::Point(p) => match p.compute(&self.out) {
                Ok(v) => format!("{} = {v:.6}\n", p.name()),
                Err(e) => format!("ERROR point:{}: {e}\n", p.name()),
            },
            Query::Figure(id) => id
                .render_from_sim(&self.out)
                .unwrap_or_else(|e| format!("ERROR fig:{}: {e}\n", id.name())),
            Query::PolicyAb(spec) => {
                // The arms re-simulate the frozen trace; the detailed
                // telemetry subset only feeds figures 6/7, so the A/B
                // replay skips it (same shortcut as the batch tool).
                let base = SimConfig { detailed_series_jobs: 0, ..self.sim_config.clone() };
                PolicyExperiment::new(base, *spec).run(&self.trace, &Obs::off()).fig.render()
            }
            Query::DataQuality(profile) => self
                .compute_data_quality(*profile)
                .unwrap_or_else(|e| format!("ERROR dq:{}: {e}\n", profile.label())),
            Query::Reliability(r) => self.compute_reliability(*r),
        }
    }

    /// Answers one `rel:*` query: replay the frozen trace under the
    /// scenario's failure model (or a stressed Supercloud default when
    /// the world has none) and render the requested figure. Like the
    /// policy arms, the replay skips the detailed telemetry subset and
    /// relies on the memo cache to amortize repeats.
    fn compute_reliability(&self, r: RelQuery) -> String {
        let base = SimConfig { detailed_series_jobs: 0, ..self.sim_config.clone() };
        let model = self.world.reliability_failure_model(self.config.seed);
        let cfg = match &self.config.scenario {
            Some(sc) => sc.reliability_config(),
            // Flag-default world: a small grid keeps cold latency in
            // policy-arm territory (each point is one event-loop run).
            None => ReliabilityConfig {
                mtbf_factors: vec![1.0, 0.2],
                sweep_points: 3,
                sweep_span: 2.0,
                growth_factors: Vec::new(),
                write_secs: 30.0,
            },
        };
        match r {
            RelQuery::Summary => {
                sc_core::reliability::reliability_size_fig(&self.trace, &base, &model).render()
            }
            RelQuery::Frontier => sc_core::reliability::goodput_frontier(
                &self.trace,
                &base,
                &model,
                &cfg.mtbf_factors,
            )
            .render(),
            RelQuery::Sweep => {
                sc_core::reliability::checkpoint_sweep(&self.trace, &base, &model, &cfg).render()
            }
        }
    }

    fn compute_data_quality(&self, profile: DataQualityProfile) -> Result<String, String> {
        let clean =
            DatasetReport::try_from_dataset(&self.out.dataset).map_err(|e| e.to_string())?;
        let (ingested, injected) =
            corrupt_and_ingest(&self.out.dataset, profile, self.config.seed, &Obs::off())
                .map_err(|e| e.to_string())?;
        let recovered =
            DatasetReport::try_from_dataset(&ingested.dataset).map_err(|e| e.to_string())?;
        let fig = sc_core::DataQualityFig::compute(
            profile.label(),
            injected,
            ingested.report,
            &clean,
            &recovered,
            None,
        );
        Ok(fig.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::{FigureId, PointStat};
    use std::sync::OnceLock;

    static SVC: OnceLock<Arc<Service>> = OnceLock::new();

    /// One shared 2%-scale service; building it once keeps the suite
    /// fast, and every test below only reads.
    fn svc() -> &'static Arc<Service> {
        SVC.get_or_init(|| {
            Arc::new(Service::build(ServeConfig {
                seed: 20_220_701,
                threads: 2,
                ..ServeConfig::default()
            }))
        })
    }

    #[test]
    fn point_query_serves_and_then_hits() {
        let s = svc();
        let q = Query::Point(PointStat::MedianRunMin);
        let first = s.query_blocking(&q);
        let again = s.query_blocking(&q);
        assert!(first.body.starts_with("median_run_min = "), "{}", first.body);
        assert_eq!(first.body, again.body);
        assert_eq!(again.outcome, CacheOutcome::Hit);
    }

    #[test]
    fn figure_query_matches_the_standalone_render() {
        let s = svc();
        let served = s.query_blocking(&Query::Figure(FigureId::Fig3));
        let direct = FigureId::Fig3.render_from_sim(s.sim_output()).expect("fig3");
        assert_eq!(*served.body, direct);
        assert!(!served.body.contains("ERROR"), "{}", served.body);
    }

    #[test]
    fn uncached_body_is_byte_identical_to_cached() {
        let s = svc();
        for q in [Query::Point(PointStat::MeanSmUtil), Query::Figure(FigureId::Fig4)] {
            let cold = s.query_uncached(&q);
            let cached = s.query_blocking(&q);
            assert_eq!(cold, cached.body, "{}", q.token());
        }
    }

    #[test]
    fn submitted_request_matches_blocking_bytes() {
        let s = svc();
        let q = Query::Point(PointStat::TotalGpuHours);
        let blocking = s.query_blocking(&q);
        let done = s.submit(q).wait();
        assert_eq!(done.response.body, blocking.body);
        assert!(done.latency >= Duration::ZERO);
    }

    #[test]
    fn concurrent_identical_queries_compute_once() {
        let s = svc();
        let q = Query::Figure(FigureId::Fig15);
        let before = s.cache_stats();
        let pending: Vec<Pending> = (0..8).map(|_| s.submit(q)).collect();
        let bodies: Vec<Arc<String>> =
            pending.into_iter().map(|p| p.wait().response.body).collect();
        let delta = s.cache_stats().since(&before);
        assert_eq!(delta.misses, 1, "{delta:?}");
        assert_eq!(delta.hits + delta.coalesced, 7, "{delta:?}");
        for b in &bodies {
            assert_eq!(b, &bodies[0]);
        }
    }

    #[test]
    fn error_responses_are_in_band_and_cached() {
        // A fresh tiny world with no users floor and almost no jobs:
        // whether a user figure renders or degenerates to an ERROR
        // body, the response must cache and repeat byte-identically.
        let tiny = Service::build(ServeConfig {
            scale: 0.0001,
            users_floor: 1,
            threads: 1,
            ..ServeConfig::default()
        });
        let q = Query::Figure(FigureId::Fig10);
        let first = tiny.query_blocking(&q);
        let again = tiny.query_blocking(&q);
        assert_eq!(first.body, again.body);
        assert_eq!(again.outcome, CacheOutcome::Hit);
    }

    #[test]
    fn bounded_cache_evicts_and_recomputes_identical_bytes() {
        let s = Service::build(ServeConfig {
            scale: 0.0001,
            users_floor: 1,
            threads: 1,
            cache_capacity: 16,
            ..ServeConfig::default()
        });
        let surface: Vec<Query> =
            Query::point_queries().into_iter().chain(Query::figure_queries()).collect();
        assert!(surface.len() > 16, "need more distinct queries than cache slots");
        let first: Vec<Arc<String>> = surface.iter().map(|q| s.query_blocking(q).body).collect();
        let stats = s.cache_stats();
        assert!(stats.evictions > 0, "an overfull cache must evict: {stats:?}");
        assert_eq!(s.metrics().evictions.get(), stats.evictions, "metrics mirror the cache");
        // Second pass: hits and post-eviction recomputes alike must
        // reproduce the first pass byte-for-byte.
        for (q, body) in surface.iter().zip(&first) {
            assert_eq!(&s.query_blocking(q).body, body, "{}", q.token());
        }
    }

    #[test]
    fn uncached_queries_serve_cold_and_leave_the_cache_alone() {
        let s = Service::build(ServeConfig {
            scale: 0.0001,
            users_floor: 1,
            threads: 1,
            ..ServeConfig::default()
        });
        let q = Query::Point(PointStat::JobsAnalyzed);
        let cold = s.query_uncached(&q);
        let cold_again = s.query_uncached(&q);
        assert_eq!(cold, cold_again);
        assert_eq!(s.metrics().queries.get(), 0, "cold answers are not counted");
        assert_eq!(s.cache_stats().misses, 0, "cold answers never fill the cache");
        // The first cached request still misses, and serves the cold bytes.
        let first = s.query_blocking(&q);
        assert_eq!(first.outcome, CacheOutcome::Miss);
        assert_eq!(first.body, cold);
    }

    #[test]
    fn reliability_queries_serve_hit_and_match_cold_bytes() {
        let s = svc();
        for q in Query::reliability_queries() {
            let first = s.query_blocking(&q);
            assert!(!first.body.is_empty(), "{}", q.token());
            assert!(!first.body.contains("ERROR"), "{}: {}", q.token(), first.body);
            let again = s.query_blocking(&q);
            assert_eq!(again.outcome, CacheOutcome::Hit, "{}", q.token());
            assert_eq!(first.body, again.body, "{}", q.token());
            // The memoized bytes equal a cold recompute: the cache can
            // only change latency, never content.
            assert_eq!(s.query_uncached(&q), first.body, "{}", q.token());
        }
    }

    #[test]
    fn reliability_summary_respects_the_scenario_failure_model() {
        // A scenario with a stress failure profile must answer
        // rel:summary from its own model, not the flag-default one.
        let sc = Scenario::parse(
            "[scenario]\nname = \"rel\"\n[failures]\nprofile = \"stress\"\n\
             [reliability]\nenabled = true\nsweep_points = 2\nmtbf_factors = [1.0]\n",
        )
        .expect("valid scenario");
        let s = Service::build(ServeConfig {
            scale: 0.002,
            users_floor: 8,
            threads: 1,
            scenario: Some(sc),
            ..ServeConfig::default()
        });
        let body = s.query_blocking(&Query::Reliability(RelQuery::Summary)).body;
        assert!(body.contains("Reliability vs job size"), "{body}");
    }

    #[test]
    fn supercloud_scenario_serves_default_bytes_under_a_hashed_key() {
        // The supercloud preset IS the flag default, so response bodies
        // must match byte-for-byte; only the cache-key scenario label
        // differs (scenario worlds are hash-addressed, the default
        // world keeps its historical label).
        let base =
            ServeConfig { scale: 0.0001, users_floor: 1, threads: 1, ..ServeConfig::default() };
        let default_svc = Service::build(base.clone());
        let sc = Scenario::preset("supercloud").expect("preset");
        let hash = sc.hash();
        let scen_svc = Service::build(ServeConfig { scenario: Some(sc), ..base });
        assert_eq!(default_svc.scenario(), "supercloud:s0.0001");
        assert_eq!(scen_svc.scenario(), format!("supercloud#{hash:016x}:s0.0001"));
        for q in [Query::Point(PointStat::TotalGpuHours), Query::Figure(FigureId::Fig3)] {
            assert_eq!(
                default_svc.query_blocking(&q).body,
                scen_svc.query_blocking(&q).body,
                "{}",
                q.token()
            );
            assert_ne!(default_svc.key(&q), scen_svc.key(&q), "{}", q.token());
        }
    }

    #[test]
    fn different_scenarios_never_share_cache_keys() {
        let base =
            ServeConfig { scale: 0.0001, users_floor: 1, threads: 1, ..ServeConfig::default() };
        let philly = Service::build(ServeConfig {
            scenario: Some(Scenario::preset("philly").expect("preset")),
            ..base.clone()
        });
        let nersc = Service::build(ServeConfig {
            scenario: Some(Scenario::preset("nersc").expect("preset")),
            ..base
        });
        let q = Query::Point(PointStat::JobsAnalyzed);
        assert_ne!(philly.key(&q), nersc.key(&q));
        assert!(philly.scenario().starts_with("philly#"), "{}", philly.scenario());
        assert!(nersc.scenario().starts_with("nersc#"), "{}", nersc.scenario());
    }

    #[test]
    fn tracing_records_one_span_per_computed_response() {
        let s = Service::build(ServeConfig {
            scale: 0.0001,
            users_floor: 1,
            threads: 1,
            tracing: true,
            ..ServeConfig::default()
        });
        let q = Query::Point(PointStat::JobsAnalyzed);
        s.query_blocking(&q);
        s.query_blocking(&q); // hit: no new span
        let spans = s.stage_spans();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].name, "query:point:jobs_analyzed");
    }
}
