//! From-scratch seeded decision forest (bagged CART trees).
//!
//! No external ML or RNG dependency: bagging and per-split feature
//! subsampling draw from an explicit SplitMix64 stream seeded per
//! tree, so a `(train set, trees, seed)` triple always grows the same
//! forest. Trees train in parallel through `sc_par::par_map`
//! (index-ordered — the forest is identical at any thread budget).
//!
//! Splits greedily minimize weighted Gini impurity over a random
//! subset of features, scanning at most `MAX_THRESHOLDS` candidate
//! cuts per feature; ties keep the first candidate in deterministic
//! scan order.

use sc_stats::hash::{splitmix64, SPLITMIX_GAMMA};
use sc_workload::WorkloadArchetype;

use crate::dataset::Sample;
use crate::features::FEATURE_COUNT;
use crate::fmix64;

/// Number of classes (archetypes).
const CLASSES: usize = WorkloadArchetype::ALL.len();
/// Maximum tree depth.
const MAX_DEPTH: usize = 10;
/// Minimum samples on each side of a split.
const MIN_LEAF: usize = 4;
/// Maximum candidate thresholds scanned per feature per split.
const MAX_THRESHOLDS: usize = 32;
/// Features considered per split (~sqrt of [`FEATURE_COUNT`]).
const FEATURES_PER_SPLIT: usize = 4;

/// Minimal SplitMix64 generator — the crate's only randomness source.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(SPLITMIX_GAMMA);
        z
    }

    /// Uniform index in `[0, n)` (modulo bias is irrelevant at these
    /// sizes and keeps the draw a single step).
    pub(crate) fn next_index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Debug, Clone)]
enum Node {
    /// Predicted class index.
    Leaf(u8),
    /// Binary split: `feature <= threshold` goes left.
    Split { feature: usize, threshold: f64, left: u32, right: u32 },
}

/// One CART tree over bootstrap-resampled training data.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    root: u32,
}

impl Tree {
    fn train(samples: &[Sample], seed: u64) -> Tree {
        let mut rng = SplitMix64::new(seed);
        let n = samples.len();
        let bootstrap: Vec<usize> = (0..n).map(|_| rng.next_index(n)).collect();
        let mut nodes = Vec::new();
        let root = grow(samples, bootstrap, 0, &mut rng, &mut nodes);
        Tree { nodes, root }
    }

    fn predict(&self, x: &[f64; FEATURE_COUNT]) -> u8 {
        let mut at = self.root;
        loop {
            match &self.nodes[at as usize] {
                Node::Leaf(class) => return *class,
                Node::Split { feature, threshold, left, right } => {
                    at = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Nodes in the tree (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

fn class_counts(samples: &[Sample], idx: &[usize]) -> [usize; CLASSES] {
    let mut counts = [0usize; CLASSES];
    for &i in idx {
        counts[samples[i].label.index()] += 1;
    }
    counts
}

/// Majority class; ties break to the lowest class index.
fn majority(counts: &[usize; CLASSES]) -> u8 {
    let mut best = 0usize;
    for (c, &n) in counts.iter().enumerate() {
        if n > counts[best] {
            best = c;
        }
    }
    best as u8
}

fn gini(counts: &[usize; CLASSES]) -> f64 {
    let n: usize = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / n) * (c as f64 / n)).sum::<f64>()
}

fn pick_features(rng: &mut SplitMix64) -> [usize; FEATURES_PER_SPLIT] {
    let mut all = [0usize; FEATURE_COUNT];
    for (i, slot) in all.iter_mut().enumerate() {
        *slot = i;
    }
    let mut out = [0usize; FEATURES_PER_SPLIT];
    for (i, slot) in out.iter_mut().enumerate() {
        let j = i + rng.next_index(FEATURE_COUNT - i);
        all.swap(i, j);
        *slot = all[i];
    }
    out
}

/// Midpoints between consecutive distinct sorted values, thinned to at
/// most [`MAX_THRESHOLDS`] evenly spaced candidates.
fn candidate_cuts(sorted_distinct: &[f64]) -> Vec<f64> {
    let gaps = sorted_distinct.len() - 1;
    let take = gaps.min(MAX_THRESHOLDS);
    (0..take)
        .map(|k| {
            let i = k * gaps / take;
            (sorted_distinct[i] + sorted_distinct[i + 1]) / 2.0
        })
        .collect()
}

/// Best `(weighted-gini, feature, threshold)` split of `idx` over the
/// given candidate features, or `None` when no split leaves
/// [`MIN_LEAF`] samples on both sides.
fn best_split(samples: &[Sample], idx: &[usize], features: &[usize]) -> Option<(f64, usize, f64)> {
    let total = idx.len() as f64;
    let mut best: Option<(f64, usize, f64)> = None;
    for &feature in features {
        let mut vals: Vec<f64> = idx.iter().map(|&i| samples[i].features[feature]).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        for threshold in candidate_cuts(&vals) {
            let mut left = [0usize; CLASSES];
            let mut right = [0usize; CLASSES];
            for &i in idx {
                if samples[i].features[feature] <= threshold {
                    left[samples[i].label.index()] += 1;
                } else {
                    right[samples[i].label.index()] += 1;
                }
            }
            let (ln, rn): (usize, usize) = (left.iter().sum(), right.iter().sum());
            if ln < MIN_LEAF || rn < MIN_LEAF {
                continue;
            }
            let score = (ln as f64 * gini(&left) + rn as f64 * gini(&right)) / total;
            if best.is_none_or(|(s, _, _)| score < s) {
                best = Some((score, feature, threshold));
            }
        }
    }
    best
}

fn grow(
    samples: &[Sample],
    idx: Vec<usize>,
    depth: usize,
    rng: &mut SplitMix64,
    nodes: &mut Vec<Node>,
) -> u32 {
    let counts = class_counts(samples, &idx);
    let leaf_class = majority(&counts);
    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    if depth >= MAX_DEPTH || idx.len() < 2 * MIN_LEAF || pure {
        nodes.push(Node::Leaf(leaf_class));
        return (nodes.len() - 1) as u32;
    }
    // Prefer the sampled feature subset; if none of those can split
    // (e.g. all constant on this node), fall back to every feature so
    // a node only leafs out when the data is genuinely unsplittable.
    let sampled = pick_features(rng);
    let all: [usize; FEATURE_COUNT] = std::array::from_fn(|i| i);
    let best = best_split(samples, &idx, &sampled).or_else(|| best_split(samples, &idx, &all));
    let Some((_, feature, threshold)) = best else {
        nodes.push(Node::Leaf(leaf_class));
        return (nodes.len() - 1) as u32;
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        idx.into_iter().partition(|&i| samples[i].features[feature] <= threshold);
    let left = grow(samples, left_idx, depth + 1, rng, nodes);
    let right = grow(samples, right_idx, depth + 1, rng, nodes);
    nodes.push(Node::Split { feature, threshold, left, right });
    (nodes.len() - 1) as u32
}

/// A bagged forest of [`Tree`]s with majority voting.
#[derive(Debug, Clone)]
pub struct Forest {
    trees: Vec<Tree>,
}

impl Forest {
    /// Trains `trees` bagged CART trees from `train`, deterministically
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or `trees` is zero.
    pub fn train(train: &[Sample], trees: usize, seed: u64) -> Forest {
        assert!(!train.is_empty(), "forest needs training samples");
        assert!(trees > 0, "forest needs at least one tree");
        let seeds: Vec<u64> = (0..trees as u64)
            .map(|i| fmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let trees = sc_par::par_map(&seeds, |s| Tree::train(train, *s));
        Forest { trees }
    }

    /// Majority vote over all trees; ties break to the lowest class
    /// index.
    pub fn predict(&self, x: &[f64; FEATURE_COUNT]) -> WorkloadArchetype {
        let mut votes = [0usize; CLASSES];
        for t in &self.trees {
            votes[t.predict(x) as usize] += 1;
        }
        WorkloadArchetype::ALL[majority(&votes) as usize]
    }

    /// Trees in the forest.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest holds no trees (never true post-`train`).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_telemetry::record::JobId;

    /// Synthetic linearly separable samples: class index encoded in
    /// features 2 and 8 with a little hash jitter.
    fn synthetic(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let class = i % CLASSES;
                let jitter = crate::hash_unit(i as u64) * 0.5;
                let mut features = [0.0; FEATURE_COUNT];
                features[2] = class as f64 * 10.0 + jitter;
                features[8] = (CLASSES - class) as f64 + jitter;
                Sample { job_id: JobId(i as u64), label: WorkloadArchetype::ALL[class], features }
            })
            .collect()
    }

    #[test]
    fn learns_a_separable_problem_perfectly() {
        let data = synthetic(200);
        let forest = Forest::train(&data, 9, 7);
        assert_eq!(forest.len(), 9);
        for s in &synthetic(80) {
            assert_eq!(forest.predict(&s.features), s.label, "{:?}", s.features);
        }
    }

    #[test]
    fn training_is_deterministic_in_the_seed() {
        let data = synthetic(120);
        let a = Forest::train(&data, 5, 42);
        let b = Forest::train(&data, 5, 42);
        let probe = synthetic(40);
        for s in &probe {
            assert_eq!(a.predict(&s.features), b.predict(&s.features));
        }
        let sizes_a: Vec<usize> = a.trees.iter().map(Tree::node_count).collect();
        let sizes_b: Vec<usize> = b.trees.iter().map(Tree::node_count).collect();
        assert_eq!(sizes_a, sizes_b, "identical seeds grow identical trees");
    }

    #[test]
    fn tie_votes_break_to_lowest_class() {
        assert_eq!(majority(&[3, 3, 1, 0]), 0);
        assert_eq!(majority(&[1, 4, 4, 2]), 1);
    }

    #[test]
    fn candidate_cuts_are_bounded_and_ordered() {
        let vals: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let cuts = candidate_cuts(&vals);
        assert_eq!(cuts.len(), MAX_THRESHOLDS);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    }
}
