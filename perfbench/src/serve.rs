//! The query-service layer: building the frozen world, answering the
//! whole 39-key surface cold, and a closed loop of client threads over
//! a seeded request stream in `serve_load`'s steady blend.

use crate::spans::timed;
use sc_obs::StageLog;
use sc_serve::{Digest, Query, ServeConfig, Service};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Workload scale of the served world: a 1,496-job Supercloud trace,
/// small enough that a cold what-if costs tens of milliseconds.
pub const SCALE: f64 = 0.02;

/// Memo-cache bound, below the 39-key surface so the loop evicts. About
/// 77% of requests hit, mostly points and figures; a what-if is evicted
/// before it is asked again, so each request for one recomputes it.
/// With 12 entries only about half the requests hit, and the median
/// request flipped between a hit and a miss from seed to seed.
pub const CACHE_CAPACITY: usize = 24;

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;

/// Requests whose bodies fold into the run's digest, in submission
/// order. The loop always issues at least this many.
pub const DIGEST_PREFIX: u64 = 256;

/// Every query the service answers: points, figures, policy and
/// data-quality what-ifs, then the reliability what-ifs.
pub fn surface() -> Vec<Query> {
    let mut qs = Query::standard_queries();
    qs.extend(Query::reliability_queries());
    qs
}

/// The query class a token belongs to (`point`, `fig`, `ab`, `dq`, `rel`).
pub fn class_of(q: &Query) -> &'static str {
    match q {
        Query::Point(_) => "point",
        Query::Figure(_) => "fig",
        Query::PolicyAb(_) => "ab",
        Query::DataQuality(_) => "dq",
        Query::Reliability(_) => "rel",
    }
}

pub const CLASSES: [&str; 5] = ["point", "fig", "ab", "dq", "rel"];

/// Seed of the served world. The run's seed drives the request stream:
/// at this scale a cold policy what-if costs 25-50 ms depending on the
/// world's seed, which would swamp the serving layer's own variation.
pub const WORLD_SEED: u64 = 42;

/// Builds the served world at `scale`.
pub fn build(scale: f64, threads: usize) -> Service {
    Service::build(ServeConfig {
        scale,
        seed: WORLD_SEED,
        threads,
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    })
}

/// One SplitMix64 step: the request stream's shuffle generator.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The group of `serve_load`'s steady blend a query falls in, and the
/// group's share of requests: 70% points, 25% figures and 5% what-ifs,
/// with the reliability queries counted among the what-ifs. Keys of a
/// group are equally popular, as in `serve_load`.
fn blend_group(q: &Query) -> (&'static str, f64) {
    match q {
        Query::Point(_) => ("point", 0.70),
        Query::Figure(_) => ("fig", 0.25),
        Query::PolicyAb(_) | Query::DataQuality(_) | Query::Reliability(_) => ("what-if", 0.05),
    }
}

/// The seeded request stream: consecutive cycles of [`CYCLE`] requests,
/// each holding every key as often as its class share gives, in a
/// seeded shuffled order. Drawing keys independently instead lets the
/// count of 100 ms reliability misses in a run swing by tens of percent
/// between seeds.
pub struct Stream {
    order: Vec<u16>,
}

/// Requests per cycle: the smallest count at which the 12 points, 18
/// figures and 9 what-ifs each get a whole number of requests (42, 10
/// and 4).
const CYCLE: usize = 720;
/// Cycles generated; a longer run wraps around to the first.
const STREAM_CYCLES: usize = 256;

impl Stream {
    pub fn new(seed: u64, keys: &[Query]) -> Stream {
        let groups: Vec<(&str, f64)> = keys.iter().map(blend_group).collect();
        let mut cycle: Vec<u16> = Vec::new();
        for (k, (group, share)) in groups.iter().enumerate() {
            let members = groups.iter().filter(|(g, _)| g == group).count();
            let n = (share / members as f64 * CYCLE as f64).round() as usize;
            cycle.extend(std::iter::repeat_n(k as u16, n));
        }
        let mut order = Vec::with_capacity(cycle.len() * STREAM_CYCLES);
        let mut state = seed;
        for _ in 0..STREAM_CYCLES {
            let mut c = cycle.clone();
            for i in (1..c.len()).rev() {
                state = splitmix(state);
                let j = (state % (i as u64 + 1)) as usize;
                c.swap(i, j);
            }
            order.extend(c);
        }
        Stream { order }
    }

    /// Surface index of request `i`.
    pub fn key(&self, i: u64) -> usize {
        self.order[(i % self.order.len() as u64) as usize] as usize
    }
}

/// What the closed loop measured.
pub struct LoopOut {
    pub requests: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Every request's latency, seconds, unsorted.
    pub latencies: Vec<f64>,
    /// Client time spent in requests that computed or waited on a
    /// computation (misses and coalesced), over all client time.
    pub compute_share: f64,
    /// FNV-1a 64 over the first [`DIGEST_PREFIX`] bodies in submission order.
    pub digest: u64,
    /// First body seen per surface key.
    pub bodies: Vec<Option<Arc<String>>>,
    pub problems: Vec<String>,
}

/// Runs [`CLIENTS`] closed-loop clients against `svc` until `secs` have
/// passed and the digest prefix is complete. Each client sends its next
/// request when the previous one returns.
pub fn closed_loop(svc: &Service, seed: u64, secs: f64) -> LoopOut {
    let keys = surface();
    let stream = Stream::new(seed, &keys);
    let next = AtomicU64::new(0);
    let first: Vec<OnceLock<Arc<String>>> = keys.iter().map(|_| OnceLock::new()).collect();
    let prefix: Mutex<Vec<Option<Arc<String>>>> = Mutex::new(vec![None; DIGEST_PREFIX as usize]);
    let problems = Mutex::new(Vec::new());
    let deadline = Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, u64, f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut lat = Vec::with_capacity(1 << 16);
                    let (mut failed, mut busy, mut computing) = (0u64, 0.0, 0.0);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= DIGEST_PREFIX && t0.elapsed() >= deadline {
                            break;
                        }
                        let k = stream.key(i);
                        let start = Instant::now();
                        let answer =
                            catch_unwind(AssertUnwindSafe(|| svc.query_blocking(&keys[k])));
                        let dt = start.elapsed().as_secs_f64();
                        lat.push(dt);
                        busy += dt;
                        let Ok(response) = answer else {
                            failed += 1;
                            computing += dt;
                            continue;
                        };
                        if response.outcome != sc_par::CacheOutcome::Hit {
                            computing += dt;
                        }
                        let body = response.body;
                        let reference = first[k].get_or_init(|| Arc::clone(&body));
                        let wrong = if body.starts_with("ERROR") {
                            Some(format!("{} answered {}", keys[k], body.trim_end()))
                        } else if !Arc::ptr_eq(reference, &body) && **reference != *body {
                            Some(format!("{} answered different bytes on a repeat", keys[k]))
                        } else {
                            None
                        };
                        if let Some(msg) = wrong {
                            failed += 1;
                            let mut p = problems.lock().expect("problem list poisoned");
                            if p.len() < 8 {
                                p.push(msg);
                            }
                        }
                        if i < DIGEST_PREFIX {
                            prefix.lock().expect("digest prefix poisoned")[i as usize] = Some(body);
                        }
                    }
                    (lat, failed, busy, computing)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut digest = Digest::new();
    for body in prefix.into_inner().expect("digest prefix poisoned").iter().flatten() {
        digest.update(body.as_bytes());
    }
    let (mut latencies, mut failed, mut busy, mut computing) = (Vec::new(), 0, 0.0, 0.0);
    for (lat, f, b, c) in per_client {
        latencies.extend(lat);
        failed += f;
        busy += b;
        computing += c;
    }
    LoopOut {
        requests: latencies.len() as u64,
        failed,
        wall_s,
        latencies,
        compute_share: if busy > 0.0 { computing / busy } else { 0.0 },
        digest: digest.finish(),
        bodies: first.into_iter().map(|c| c.into_inner()).collect(),
        problems: problems.into_inner().expect("problem list poisoned"),
    }
}

/// Answers every surface key without the cache, one span per class.
/// Returns the mean cold latency per class in [`CLASSES`] order, and
/// the bodies.
pub fn cold_surface(svc: &Service, log: Option<&StageLog>) -> (Vec<f64>, Vec<Arc<String>>) {
    let keys = surface();
    let mut bodies = Vec::with_capacity(keys.len());
    let means = CLASSES
        .iter()
        .map(|class| {
            let members: Vec<&Query> = keys.iter().filter(|q| class_of(q) == *class).collect();
            let t0 = Instant::now();
            timed(log, &format!("serve.cold.{class}"), || {
                for q in &members {
                    bodies.push(svc.query_uncached(q));
                }
            });
            t0.elapsed().as_secs_f64() / members.len() as f64
        })
        .collect();
    (means, bodies)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cycle of the stream is exactly `serve_load`'s 70/25/5
    /// blend, with every key present.
    #[test]
    fn each_cycle_holds_the_steady_blend() {
        let keys = surface();
        let stream = Stream::new(7, &keys);
        assert_eq!(stream.order.len(), CYCLE * STREAM_CYCLES);
        for cycle in stream.order.chunks(CYCLE).take(3) {
            let mut per_key = vec![0usize; keys.len()];
            for &k in cycle {
                per_key[k as usize] += 1;
            }
            assert!(per_key.iter().all(|&n| n > 0), "{per_key:?}");
            let share = |classes: &[&str]| {
                let n: usize = keys
                    .iter()
                    .zip(&per_key)
                    .filter(|(q, _)| classes.contains(&class_of(q)))
                    .map(|(_, n)| n)
                    .sum();
                n as f64 / CYCLE as f64
            };
            assert_eq!(share(&["point"]), 0.70);
            assert_eq!(share(&["fig"]), 0.25);
            assert_eq!(share(&["ab", "dq", "rel"]), 0.05);
        }
    }
}
