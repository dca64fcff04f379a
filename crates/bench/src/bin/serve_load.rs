//! Seeded load generator for the `sc-serve` query service.
//!
//! ```text
//! serve_load [--scenario NAME|FILE] [--scale F] [--seed N] [--threads N]
//!            [--requests N] [--cache-capacity N] [--out BENCH_serve.json]
//!            [--trace FILE]
//! ```
//!
//! Builds one frozen-world [`Service`], then drives four request mixes
//! through it in a fixed order, each over a seeded query sequence:
//!
//! 1. `point_flood` — random point-statistic queries; the first
//!    occurrence of each statistic is cold, the rest hit.
//! 2. `cold_ab` — every standard policy arm and corruption profile
//!    once, all cold: the heavy what-if tail.
//! 3. `cache_storm` — warm the whole point+figure surface, then hammer
//!    it with random queries: the steady-state hit path.
//! 4. `steady` — a 70/25/5 point/figure/what-if blend over the now-warm
//!    cache: mixed steady-state serving.
//!
//! A final uncached replay of the storm surface measures the
//! cold-compute baseline the cache's speedup is gated against. Every
//! response body (mixes and baseline alike) folds into one FNV-1a
//! digest in submission order; because responses are pure functions of
//! `(scenario, seed, query)`, the digest is byte-stable across thread
//! budgets, cache states, and request interleavings — CI compares runs
//! by this one hex string. `--scenario` swaps the world under the same
//! harness: the service's cache keys gain the parsed scenario's hash
//! as a dimension, and the reported `scenario` label records exactly
//! which world the digest describes.
//!
//! The report (per-mix p50/p95/p99 latency, throughput, cache
//! hit-rate; cold baseline; storm speedup) prints to stdout as JSON
//! and also lands in `--out` when given. `--trace FILE` enables
//! per-query wall-clock spans and writes them as a Chrome trace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_bench::{peak_rss_bytes, per_sec, report_json, Cli};
use sc_serve::{Digest, Pending, Query, ServeConfig, Service};
use sc_stats::percentile;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    scenario: Option<sc_scenario::Scenario>,
    scale: f64,
    seed: u64,
    threads: Option<usize>,
    requests: usize,
    cache_capacity: usize,
    out: Option<String>,
    trace: Option<String>,
}

const USAGE: &str = "usage: serve_load [--scenario NAME|FILE] [--scale F] [--seed N]
                  [--threads N] [--requests N] [--cache-capacity N]
                  [--out FILE] [--trace FILE]

  --scenario S   build the world from a scenario preset or TOML file
                 (presets: supercloud|philly|nersc|in2p3; default: the
                 supercloud preset). The parsed scenario's
                 hash becomes a cache-key dimension and the report's
                 scenario label, so digests from different scenario
                 files never compare equal.
  --scale F      scale the simulated workload by F (default 0.02)
  --seed N       master RNG seed for the world and the query streams
                 (default 42)
  --threads N    executor worker threads (default: SC_PAR_THREADS or
                 all cores)
  --requests N   requests per flood mix (default 200; the cold what-if
                 mix always runs its 6 queries once each)
  --cache-capacity N
                 memo-cache bound, landed responses (default 256;
                 0 = unbounded). Overflow evicts by the deterministic
                 second-chance sweep and the report counts evictions.
  --out FILE     also write the JSON report to FILE
  --trace FILE   record per-query wall-clock spans and write them as a
                 Chrome trace (chrome://tracing / Perfetto)";

const CLI: Cli = Cli { name: "serve_load", usage: USAGE };

fn parse_args() -> Args {
    let mut args = Args {
        scenario: None,
        scale: 0.02,
        seed: 42,
        threads: None,
        requests: 200,
        cache_capacity: 256,
        out: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| CLI.usage_error(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--scenario" => {
                let spec = value("--scenario");
                args.scenario = Some(
                    sc_scenario::Scenario::load(&spec)
                        .unwrap_or_else(|e| CLI.usage_error(&format!("--scenario {spec}: {e}"))),
                );
            }
            "--scale" => args.scale = CLI.positive_factor("--scale", &value("--scale")),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| CLI.usage_error("--seed needs a u64"));
            }
            "--threads" => args.threads = Some(CLI.thread_count(&value("--threads"))),
            "--requests" => {
                let n: usize = value("--requests")
                    .parse()
                    .unwrap_or_else(|_| CLI.usage_error("--requests needs a count"));
                if n == 0 {
                    CLI.usage_error("--requests must be at least 1");
                }
                args.requests = n;
            }
            "--cache-capacity" => {
                args.cache_capacity = value("--cache-capacity")
                    .parse()
                    .unwrap_or_else(|_| CLI.usage_error("--cache-capacity needs a count"));
            }
            "--out" => args.out = Some(value("--out")),
            "--trace" => args.trace = Some(value("--trace")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => CLI.usage_error(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// Submissions kept in flight at once. Deep enough to exercise
/// coalescing and keep every worker busy, shallow enough that latency
/// still reflects service time rather than pure queueing.
const WINDOW: usize = 32;

/// The serve report, printed to stdout and written to `--out`.
#[derive(Serialize)]
struct ServeReport {
    scenario: String,
    threads: usize,
    scale: f64,
    seed: u64,
    requests_per_mix: usize,
    build_secs: f64,
    mixes: Mixes,
    cold_baseline: ColdBaseline,
    storm_speedup: f64,
    digest: String,
    peak_rss_bytes: u64,
}

/// The four request mixes, in run order.
#[derive(Serialize)]
struct Mixes {
    point_flood: MixReport,
    cold_ab: MixReport,
    cache_storm: MixReport,
    steady: MixReport,
}

/// One mix's measurements.
#[derive(Serialize)]
struct MixReport {
    requests: usize,
    secs: f64,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    hit_rate: f64,
}

/// The uncached replay of the storm surface.
#[derive(Serialize)]
struct ColdBaseline {
    requests: usize,
    secs: f64,
    qps: f64,
}

/// Drives `queries` through the service with a bounded in-flight
/// window, joining in submission order so the digest fold order is
/// independent of which worker finishes first.
fn run_mix(
    svc: &Arc<Service>,
    name: &'static str,
    queries: &[Query],
    digest: &mut Digest,
) -> MixReport {
    let before = svc.cache_stats();
    let mut latencies_ms = Vec::with_capacity(queries.len());
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
    let join = |p: Pending, lat: &mut Vec<f64>, digest: &mut Digest| {
        let done = p.wait();
        digest.update(done.response.body.as_bytes());
        lat.push(done.latency.as_secs_f64() * 1e3);
    };
    let t0 = Instant::now();
    for q in queries {
        if inflight.len() == WINDOW {
            let oldest = inflight.pop_front().expect("non-empty window");
            join(oldest, &mut latencies_ms, digest);
        }
        inflight.push_back(svc.submit(*q));
    }
    for p in inflight {
        join(p, &mut latencies_ms, digest);
    }
    let secs = t0.elapsed().as_secs_f64();
    let cache = svc.cache_stats().since(&before);
    let pct = |p: f64| {
        percentile(&latencies_ms, p)
            .unwrap_or_else(|e| CLI.fail(&format!("latency percentile for {name}: {e}")))
    };
    MixReport {
        requests: queries.len(),
        secs,
        qps: per_sec(queries.len(), secs),
        p50_ms: pct(50.0),
        p95_ms: pct(95.0),
        p99_ms: pct(99.0),
        hits: cache.hits,
        misses: cache.misses,
        coalesced: cache.coalesced,
        evictions: cache.evictions,
        hit_rate: cache.hit_rate(),
    }
}

/// `n` seeded draws from `pool`.
fn random_stream(pool: &[Query], n: usize, rng: &mut StdRng) -> Vec<Query> {
    (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

/// The steady-state blend: 70% points, 25% figures, 5% what-ifs.
fn steady_stream(n: usize, rng: &mut StdRng) -> Vec<Query> {
    let points = Query::point_queries();
    let figures = Query::figure_queries();
    let what_ifs = Query::what_if_queries();
    (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            if r < 0.70 {
                points[rng.gen_range(0..points.len())]
            } else if r < 0.95 {
                figures[rng.gen_range(0..figures.len())]
            } else {
                what_ifs[rng.gen_range(0..what_ifs.len())]
            }
        })
        .collect()
}

fn main() {
    let args = parse_args();
    // --threads wins; SC_PAR_THREADS is the fallback so the binary
    // composes with the CI determinism matrix without extra flags.
    let requested = args.threads.or_else(|| {
        std::env::var("SC_PAR_THREADS").ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0)
    });
    if let Some(n) = requested {
        sc_par::set_max_threads(n);
    }
    let threads = sc_par::current_threads();
    eprintln!(
        "building scale-{} world (seed {}, {} worker threads) ...",
        args.scale, args.seed, threads
    );
    let svc = Arc::new(Service::build(ServeConfig {
        scale: args.scale,
        seed: args.seed,
        threads,
        cache_capacity: args.cache_capacity,
        tracing: args.trace.is_some(),
        scenario: args.scenario.clone(),
        ..ServeConfig::default()
    }));
    eprintln!("world frozen in {:.2}s; serving {}", svc.build_secs(), svc.scenario());

    let mut digest = Digest::new();

    // Each mix draws from its own seeded stream, so adding a mix never
    // perturbs the others' query sequences.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0070_6f69_6e74); // "point"
    let flood = random_stream(&Query::point_queries(), args.requests, &mut rng);
    let point_flood = run_mix(&svc, "point_flood", &flood, &mut digest);
    eprintln!("point_flood: {:.0} req/s", point_flood.qps);

    let what_ifs = Query::what_if_queries();
    let cold_ab = run_mix(&svc, "cold_ab", &what_ifs, &mut digest);
    eprintln!("cold_ab: p99 {:.0} ms", cold_ab.p99_ms);

    // Warm the whole cheap surface (blocking, excluded from latency and
    // digest: the storm re-serves every one of these bodies), then
    // hammer it.
    let surface: Vec<Query> =
        Query::point_queries().into_iter().chain(Query::figure_queries()).collect();
    for q in &surface {
        svc.query_blocking(q);
    }
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0073_746f_726d); // "storm"
    let storm = random_stream(&surface, args.requests * 2, &mut rng);
    let cache_storm = run_mix(&svc, "cache_storm", &storm, &mut digest);
    eprintln!("cache_storm: {:.0} req/s", cache_storm.qps);

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7374_6561_6479); // "steady"
    let steady = run_mix(&svc, "steady", &steady_stream(args.requests, &mut rng), &mut digest);
    eprintln!("steady: {:.0} req/s", steady.qps);

    // Cold-compute baseline: the storm surface once each, bypassing the
    // cache. Folded into the digest too — a cold render that diverged
    // from its cached twin must fail the cross-run comparison.
    let t0 = Instant::now();
    for q in &surface {
        digest.update(svc.query_uncached(q).as_bytes());
    }
    let cold_secs = t0.elapsed().as_secs_f64();
    let cold_baseline = ColdBaseline {
        requests: surface.len(),
        secs: cold_secs,
        qps: per_sec(surface.len(), cold_secs),
    };
    let storm_speedup = cache_storm.qps / cold_baseline.qps.max(1e-9);
    eprintln!("cold baseline: {:.1} req/s (storm speedup {storm_speedup:.0}x)", cold_baseline.qps);

    let json = report_json(&ServeReport {
        scenario: svc.scenario().to_string(),
        threads,
        scale: args.scale,
        seed: args.seed,
        requests_per_mix: args.requests,
        build_secs: svc.build_secs(),
        mixes: Mixes { point_flood, cold_ab, cache_storm, steady },
        cold_baseline,
        storm_speedup,
        digest: digest.hex(),
        peak_rss_bytes: peak_rss_bytes(),
    });
    print!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, &json)
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.trace {
        let trace = sc_obs::chrome_trace_json(&svc.stage_spans());
        std::fs::write(path, trace)
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> MixReport {
        MixReport {
            requests: 1,
            secs: 0.5,
            qps: 2.0,
            p50_ms: 1.0,
            p95_ms: 1.0,
            p99_ms: 1.0,
            hits: 0,
            misses: 1,
            coalesced: 0,
            evictions: 0,
            hit_rate: 0.0,
        }
    }

    #[test]
    fn scenario_label_is_escaped_in_the_report() {
        let report = ServeReport {
            scenario: r#"smoke "quoted" \ name#0123456789abcdef:s0.005"#.to_string(),
            threads: 1,
            scale: 0.005,
            seed: 42,
            requests_per_mix: 1,
            build_secs: 0.25,
            mixes: Mixes { point_flood: mix(), cold_ab: mix(), cache_storm: mix(), steady: mix() },
            cold_baseline: ColdBaseline { requests: 1, secs: 0.5, qps: 2.0 },
            storm_speedup: 1.0,
            digest: "0123456789abcdef".to_string(),
            peak_rss_bytes: 0,
        };
        let json = report_json(&report);
        assert!(
            json.starts_with(
                r#"{"scenario":"smoke \"quoted\" \\ name#0123456789abcdef:s0.005","threads":1,"#
            ),
            "{json}"
        );
        assert!(json.ends_with("\"peak_rss_bytes\":0}\n"), "{json}");
    }
}
