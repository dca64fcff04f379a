//! Spans the benchmark records around each layer call, and the self
//! time of each span: its duration minus the time its child spans
//! cover.

use sc_obs::stagelog::StageSpan;
use sc_obs::StageLog;

/// Runs `f`, inside a span named `name` when tracing is on.
pub fn timed<T>(log: Option<&StageLog>, name: &str, f: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => log.time(name, f),
        None => f(),
    }
}

/// Slack for a child that starts or ends a hair outside its parent:
/// spans pushed from a layer's own timings are offset from the
/// benchmark's clock reads around the call.
const NEST_EPS_S: f64 = 1e-4;

/// One span with its self time.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: String,
    pub dur_s: f64,
    pub self_s: f64,
}

/// Self time of every span, in start order. The spans must nest: each
/// lies wholly inside its parent and siblings do not overlap, which
/// holds for the sequential layer calls the benchmark wraps.
///
/// # Errors
///
/// Returns the first pair of spans that overlap without nesting.
pub fn self_times(spans: &[StageSpan]) -> Result<Vec<SelfTime>, String> {
    let mut order: Vec<&StageSpan> = spans.iter().collect();
    order.sort_by(|a, b| {
        a.start_secs.total_cmp(&b.start_secs).then(b.dur_secs.total_cmp(&a.dur_secs))
    });
    let end = |s: &StageSpan| s.start_secs + s.dur_secs;
    let mut out: Vec<SelfTime> = Vec::with_capacity(order.len());
    // Indices into `order`/`out` of the open ancestors.
    let mut stack: Vec<usize> = Vec::new();
    for (i, span) in order.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if span.start_secs >= end(order[top]) - NEST_EPS_S {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            if end(span) > end(order[parent]) + NEST_EPS_S {
                return Err(format!(
                    "span {} overlaps {} without nesting in it",
                    span.name, order[parent].name
                ));
            }
            out[parent].self_s -= span.dur_secs;
        }
        out.push(SelfTime { name: span.name.clone(), dur_s: span.dur_secs, self_s: span.dur_secs });
        stack.push(i);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, dur: f64) -> StageSpan {
        StageSpan { name: name.to_string(), start_secs: start, dur_secs: dur }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0),
            span("a.x", 1.5, 1.0),
            span("b", 5.0, 3.0),
        ];
        let st = self_times(&spans).expect("nested");
        let get = |n: &str| st.iter().find(|s| s.name == n).expect("present").self_s;
        assert_eq!(get("root"), 3.0);
        assert_eq!(get("a"), 3.0);
        assert_eq!(get("a.x"), 1.0);
        assert_eq!(get("b"), 3.0);
        let sum: f64 = st.iter().map(|s| s.self_s).sum();
        assert!((sum - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_siblings_are_rejected() {
        let spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0), span("b", 3.0, 4.0)];
        assert!(self_times(&spans).is_err());
    }
}
