//! Node-level resource accounting and placement.
//!
//! The paper's key scheduling property (Sec. III): GPUs are **exclusive**
//! ("Supercloud does not co-locate jobs on the same GPU at this point.
//! However, it allows CPU resources to be divided among jobs"), and
//! multi-GPU jobs are "placed as densely as possible, either on the same
//! node or on neighboring nodes".

use crate::spec::ClusterSpec;
use sc_workload::JobSpec;
use serde::{Deserialize, Serialize};

/// Index of a node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// A job's slice of one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeAlloc {
    /// The node.
    pub node: NodeId,
    /// GPUs taken on this node.
    pub gpus: u32,
    /// CPU threads taken on this node.
    pub cpus: u32,
    /// Host memory taken on this node, GiB.
    pub mem_gib: f64,
}

/// A complete allocation for one job, possibly spanning nodes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Allocation {
    /// Per-node slices.
    pub parts: Vec<NodeAlloc>,
}

impl Allocation {
    /// Total GPUs in the allocation.
    pub fn total_gpus(&self) -> u32 {
        self.parts.iter().map(|p| p.gpus).sum()
    }

    /// Number of distinct nodes used.
    pub fn node_count(&self) -> usize {
        self.parts.len()
    }

    /// Number of distinct leaf switches the allocation touches — 1
    /// means the job's traffic never crosses the fat-tree spine.
    pub fn switch_count(&self, nodes_per_switch: u32) -> usize {
        assert!(nodes_per_switch > 0, "need at least one node per switch");
        let mut switches: Vec<u32> =
            self.parts.iter().map(|p| p.node.0 / nodes_per_switch).collect();
        switches.sort_unstable();
        switches.dedup();
        switches.len()
    }
}

/// Free capacity of one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    /// Free CPU threads.
    pub cpus_free: u32,
    /// Free host memory, GiB.
    pub mem_free_gib: f64,
    /// Free GPUs.
    pub gpus_free: u32,
}

/// Mutable cluster state: free resources and liveness per node.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    spec: ClusterSpec,
    nodes: Vec<NodeState>,
    /// Out-of-service flag per node, kept by `set_offline`/`set_online`.
    offline: Vec<bool>,
}

impl ClusterState {
    /// A fully free cluster: the fast GPU nodes of Table I, then any
    /// slow-tier GPU nodes, then CPU-only expansion nodes (zero GPUs —
    /// GPU placement skips them naturally).
    pub fn new(spec: ClusterSpec) -> Self {
        let nodes = (0..spec.total_nodes())
            .map(|i| NodeState {
                cpus_free: spec.node.cpu_threads,
                mem_free_gib: spec.node.mem_gib,
                gpus_free: spec.gpus_of_node(i),
            })
            .collect::<Vec<_>>();
        let offline = vec![false; nodes.len()];
        ClusterState { spec, nodes, offline }
    }

    /// The hardware spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Per-node free capacities.
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// Total free GPUs.
    pub fn gpus_free(&self) -> u32 {
        self.nodes.iter().map(|n| n.gpus_free).sum()
    }

    /// GPUs currently allocated.
    pub fn gpus_in_use(&self) -> u32 {
        self.spec.total_gpus() - self.gpus_free()
    }

    /// Attempts to find an allocation for `job` without mutating state.
    ///
    /// GPU jobs are packed densely: nodes with the most free GPUs are
    /// taken first so a 2-GPU job lands on one node whenever possible.
    /// CPU jobs need a single node with the full CPU/memory request free
    /// — which is why they queue behind each other while GPU jobs
    /// co-locate (Fig. 3b).
    pub fn try_place(&self, job: &JobSpec) -> Option<Allocation> {
        if job.is_gpu_job() {
            // Tier routing (Sec. VIII Recommendation II): with a slow
            // tier configured, interactive sessions go to the slow GPUs
            // and everything else stays on the fast tier.
            let route_slow = self.spec.slow_tier.is_some()
                && job.interface == sc_telemetry::record::SubmissionInterface::Interactive;
            self.try_place_gpu_routed(job, route_slow)
        } else {
            self.try_place_cpu(job)
        }
    }

    /// GPU placement with an explicit tier choice, for routing policies
    /// that override the interface-based default: `route_slow` selects
    /// the slow tier when one is configured (and is ignored otherwise).
    pub fn try_place_gpu_routed(&self, job: &JobSpec, route_slow: bool) -> Option<Allocation> {
        let g_total = job.gpus;
        let nps = self.spec.nodes_per_switch.max(1);
        let mut order: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| {
                self.spec.slow_tier.is_none() || (self.spec.is_slow_node(i as u32) == route_slow)
            })
            .collect();
        // Dense packing: most free GPUs first; ties prefer the leaf
        // switch with the most free GPUs (keeping multi-node jobs on
        // "neighboring nodes on the network interconnect"); final
        // tie-break by index keeps placement deterministic.
        let mut switch_free: Vec<u32> = vec![0; self.nodes.len() / nps as usize + 1];
        for (i, n) in self.nodes.iter().enumerate() {
            switch_free[i / nps as usize] += n.gpus_free;
        }
        order.sort_by(|&a, &b| {
            self.nodes[b]
                .gpus_free
                .cmp(&self.nodes[a].gpus_free)
                .then(switch_free[b / nps as usize].cmp(&switch_free[a / nps as usize]))
                .then(a.cmp(&b))
        });
        // For single-GPU jobs prefer half-used nodes (best fit) so full
        // pairs stay available for 2-GPU jobs.
        if g_total == 1 {
            order.sort_by(|&a, &b| {
                let key = |n: &NodeState| match n.gpus_free {
                    0 => u32::MAX,
                    f => f, // fewest free GPUs (but > 0) first
                };
                key(&self.nodes[a]).cmp(&key(&self.nodes[b])).then(a.cmp(&b))
            });
        }
        let mut remaining = g_total;
        let mut parts = Vec::new();
        for idx in order {
            if remaining == 0 {
                break;
            }
            let n = &self.nodes[idx];
            if n.gpus_free == 0 {
                continue;
            }
            let take_g = n.gpus_free.min(remaining);
            // CPU/memory shares proportional to the GPUs taken here.
            let cpus = (job.cpus * take_g).div_ceil(g_total);
            let mem = job.mem_gib * take_g as f64 / g_total as f64;
            if n.cpus_free < cpus || n.mem_free_gib < mem {
                continue;
            }
            parts.push(NodeAlloc { node: NodeId(idx as u32), gpus: take_g, cpus, mem_gib: mem });
            remaining -= take_g;
        }
        if remaining == 0 {
            Some(Allocation { parts })
        } else {
            None
        }
    }

    fn try_place_cpu(&self, job: &JobSpec) -> Option<Allocation> {
        for (idx, n) in self.nodes.iter().enumerate() {
            if n.cpus_free >= job.cpus && n.mem_free_gib >= job.mem_gib {
                return Some(Allocation {
                    parts: vec![NodeAlloc {
                        node: NodeId(idx as u32),
                        gpus: 0,
                        cpus: job.cpus,
                        mem_gib: job.mem_gib,
                    }],
                });
            }
        }
        None
    }

    /// Whether `node` is out of service.
    pub fn is_offline(&self, node: NodeId) -> bool {
        self.offline[node.0 as usize]
    }

    /// Number of nodes out of service.
    pub fn nodes_down(&self) -> usize {
        self.offline.iter().filter(|&&down| down).count()
    }

    /// Takes a node offline (hardware failure): marks it out of service
    /// and zeroes its free capacity so nothing new places there.
    /// Resident jobs must have been killed (their allocations released)
    /// first. A node that is already offline stays as it is.
    ///
    /// # Panics
    ///
    /// Panics if the node still has resources allocated — killing the
    /// residents is the caller's responsibility.
    pub fn set_offline(&mut self, node: NodeId) {
        if self.is_offline(node) {
            return;
        }
        let full_gpus = self.spec.gpus_of_node(node.0);
        let n = &mut self.nodes[node.0 as usize];
        assert!(
            n.gpus_free == full_gpus && n.cpus_free == self.spec.node.cpu_threads,
            "node {node:?} still hosts allocations"
        );
        n.gpus_free = 0;
        n.cpus_free = 0;
        n.mem_free_gib = 0.0;
        self.offline[node.0 as usize] = true;
    }

    /// Brings a repaired node back online at full capacity. A node that
    /// is already online stays as it is.
    pub fn set_online(&mut self, node: NodeId) {
        if !self.is_offline(node) {
            return;
        }
        let full_gpus = self.spec.gpus_of_node(node.0);
        let n = &mut self.nodes[node.0 as usize];
        n.gpus_free = full_gpus;
        n.cpus_free = self.spec.node.cpu_threads;
        n.mem_free_gib = self.spec.node.mem_gib;
        self.offline[node.0 as usize] = false;
    }

    /// Commits an allocation.
    ///
    /// # Panics
    ///
    /// Panics if the allocation exceeds free capacity (a scheduler bug).
    pub fn allocate(&mut self, alloc: &Allocation) {
        for p in &alloc.parts {
            let n = &mut self.nodes[p.node.0 as usize];
            assert!(n.gpus_free >= p.gpus, "GPU over-allocation on {:?}", p.node);
            assert!(n.cpus_free >= p.cpus, "CPU over-allocation on {:?}", p.node);
            assert!(n.mem_free_gib >= p.mem_gib - 1e-9, "memory over-allocation on {:?}", p.node);
            n.gpus_free -= p.gpus;
            n.cpus_free -= p.cpus;
            n.mem_free_gib -= p.mem_gib;
        }
    }

    /// Releases an allocation.
    ///
    /// # Panics
    ///
    /// Panics if releasing would exceed the node's capacity (a
    /// double-free bug).
    pub fn release(&mut self, alloc: &Allocation) {
        for p in &alloc.parts {
            let n = &mut self.nodes[p.node.0 as usize];
            n.gpus_free += p.gpus;
            n.cpus_free += p.cpus;
            n.mem_free_gib += p.mem_gib;
            assert!(n.gpus_free <= self.spec.node.gpus, "GPU double-free on {:?}", p.node);
            assert!(n.cpus_free <= self.spec.node.cpu_threads, "CPU double-free on {:?}", p.node);
            assert!(
                n.mem_free_gib <= self.spec.node.mem_gib + 1e-6,
                "memory double-free on {:?}",
                p.node
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_telemetry::record::{JobId, SubmissionInterface, UserId};
    use sc_workload::PlannedOutcome;

    fn gpu_job(gpus: u32, cpus: u32) -> JobSpec {
        JobSpec {
            job_id: JobId(1),
            user: UserId(0),
            arrival: 0.0,
            interface: SubmissionInterface::Other,
            gpus,
            cpus,
            mem_gib: 32.0,
            time_limit: 3600.0,
            class: None,
            outcome: PlannedOutcome::Complete { work_secs: 100.0 },
            archetype: None,
            truth_params: None,
            idle_gpus: 0,
            truth_seed: 0,
            checkpointable: false,
            max_restarts: 0,
        }
    }

    fn cpu_job(cpus: u32, mem: f64) -> JobSpec {
        JobSpec { gpus: 0, cpus, mem_gib: mem, ..gpu_job(0, cpus) }
    }

    fn small_cluster(nodes: u32) -> ClusterState {
        let mut spec = ClusterSpec::supercloud();
        spec.nodes = nodes;
        ClusterState::new(spec)
    }

    #[test]
    fn two_gpu_job_lands_on_one_node() {
        let c = small_cluster(4);
        let alloc = c.try_place(&gpu_job(2, 8)).unwrap();
        assert_eq!(alloc.node_count(), 1);
        assert_eq!(alloc.total_gpus(), 2);
    }

    #[test]
    fn large_job_spans_nodes_densely() {
        let c = small_cluster(8);
        let alloc = c.try_place(&gpu_job(6, 24)).unwrap();
        assert_eq!(alloc.node_count(), 3); // 2 GPUs per node
        assert_eq!(alloc.total_gpus(), 6);
    }

    #[test]
    fn single_gpu_jobs_fill_fragments_first() {
        let mut c = small_cluster(3);
        // Occupy one GPU on node 0.
        let first = c.try_place(&gpu_job(1, 4)).unwrap();
        c.allocate(&first);
        let node0 = first.parts[0].node;
        // Next 1-GPU job should prefer the half-used node.
        let second = c.try_place(&gpu_job(1, 4)).unwrap();
        assert_eq!(second.parts[0].node, node0);
    }

    #[test]
    fn placement_fails_when_gpus_exhausted() {
        let mut c = small_cluster(1); // 2 GPUs total
        let a = c.try_place(&gpu_job(2, 8)).unwrap();
        c.allocate(&a);
        assert!(c.try_place(&gpu_job(1, 4)).is_none());
        assert_eq!(c.gpus_in_use(), 2);
        c.release(&a);
        assert_eq!(c.gpus_in_use(), 0);
    }

    #[test]
    fn multi_node_jobs_stay_on_one_switch_when_possible() {
        // 56 nodes = 2 switches of 28. Fragment switch 0 (one GPU taken
        // on each of its nodes) and leave switch 1 untouched: a 6-GPU
        // job should land entirely on switch 1.
        let mut c = small_cluster(56);
        for i in 0..28 {
            let a = Allocation {
                parts: vec![NodeAlloc { node: NodeId(i), gpus: 1, cpus: 4, mem_gib: 8.0 }],
            };
            c.allocate(&a);
        }
        let alloc = c.try_place(&gpu_job(6, 12)).unwrap();
        assert_eq!(alloc.switch_count(28), 1, "allocation spans switches: {alloc:?}");
        assert!(alloc.parts.iter().all(|p| p.node.0 >= 28));
    }

    #[test]
    fn switch_count_counts_distinct_leaves() {
        let a = Allocation {
            parts: vec![
                NodeAlloc { node: NodeId(0), gpus: 2, cpus: 4, mem_gib: 8.0 },
                NodeAlloc { node: NodeId(27), gpus: 2, cpus: 4, mem_gib: 8.0 },
                NodeAlloc { node: NodeId(28), gpus: 2, cpus: 4, mem_gib: 8.0 },
            ],
        };
        assert_eq!(a.switch_count(28), 2);
        assert_eq!(a.switch_count(1), 3);
    }

    #[test]
    fn cpu_job_needs_single_node_with_full_request() {
        let mut c = small_cluster(2);
        // A GPU job taking 16 threads leaves 64 free on its node.
        let g = c.try_place(&gpu_job(2, 16)).unwrap();
        c.allocate(&g);
        // An 80-thread CPU job cannot share that node...
        let a = c.try_place(&cpu_job(80, 360.0)).unwrap();
        assert_ne!(a.parts[0].node, g.parts[0].node);
        c.allocate(&a);
        // ...and a second full-node CPU job now has nowhere to go.
        assert!(c.try_place(&cpu_job(80, 360.0)).is_none());
        // All GPUs are taken, so no further GPU job fits either.
        assert!(c.try_place(&gpu_job(1, 8)).is_none());
    }

    #[test]
    fn cpu_constraint_blocks_gpu_placement() {
        let mut c = small_cluster(1);
        let a = c.try_place(&cpu_job(76, 300.0)).unwrap();
        c.allocate(&a);
        // 4 threads left: a GPU job wanting 8 threads cannot fit.
        assert!(c.try_place(&gpu_job(1, 8)).is_none());
        // But a thin GPU job can.
        assert!(c.try_place(&gpu_job(1, 4)).is_some());
    }

    #[test]
    fn offline_round_trip_tracks_liveness_and_capacity() {
        let mut c = small_cluster(3);
        let fresh = c.clone();
        assert_eq!(c.nodes_down(), 0);
        c.set_offline(NodeId(1));
        assert!(c.is_offline(NodeId(1)));
        assert!(!c.is_offline(NodeId(0)) && !c.is_offline(NodeId(2)));
        assert_eq!(c.nodes_down(), 1);
        assert_eq!(c.gpus_free(), 4, "an offline node offers no GPUs");
        // A second fault on a node that is already down changes nothing.
        c.set_offline(NodeId(1));
        assert_eq!(c.nodes_down(), 1);
        assert_eq!(c.gpus_free(), 4);
        c.set_offline(NodeId(2));
        assert_eq!(c.nodes_down(), 2);
        // Nothing places on the offline nodes.
        let a = c.try_place(&gpu_job(2, 8)).unwrap();
        assert!(a.parts.iter().all(|p| p.node == NodeId(0)));
        c.set_online(NodeId(1));
        c.set_online(NodeId(2));
        assert_eq!(c.nodes_down(), 0);
        assert_eq!(c, fresh, "repair restores the node at full capacity");
        // Repairing a node that is already online changes nothing.
        c.set_online(NodeId(1));
        assert_eq!(c, fresh);
    }

    #[test]
    #[should_panic(expected = "still hosts allocations")]
    fn offlining_an_occupied_node_is_a_bug() {
        let mut c = small_cluster(1);
        let a = c.try_place(&gpu_job(1, 4)).unwrap();
        c.allocate(&a);
        c.set_offline(NodeId(0));
    }

    #[test]
    #[should_panic(expected = "GPU over-allocation")]
    fn over_allocation_is_a_bug() {
        let mut c = small_cluster(1);
        let a = c.try_place(&gpu_job(2, 8)).unwrap();
        c.allocate(&a);
        c.allocate(&a); // double allocate must panic
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_job() -> impl Strategy<Value = JobSpec> {
            (0u32..=8, 1u32..=80, 1.0f64..380.0).prop_map(|(gpus, cpus, mem)| JobSpec {
                gpus,
                cpus,
                mem_gib: mem,
                ..gpu_job(1, 1)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_place_allocate_release_conserves(jobs in proptest::collection::vec(arb_job(), 1..40)) {
                let mut c = small_cluster(6);
                let gpus_before = c.gpus_free();
                let mut allocs = Vec::new();
                for j in &jobs {
                    if let Some(a) = c.try_place(j) {
                        // The allocation delivers exactly what was asked.
                        if j.is_gpu_job() {
                            prop_assert_eq!(a.total_gpus(), j.gpus);
                        }
                        c.allocate(&a);
                        allocs.push(a);
                    }
                }
                // Free never negative is enforced by type; release all.
                for a in &allocs {
                    c.release(a);
                }
                prop_assert_eq!(c.gpus_free(), gpus_before);
                for n in c.nodes() {
                    prop_assert_eq!(n.cpus_free, 80);
                    prop_assert!((n.mem_free_gib - 384.0).abs() < 1e-6);
                }
            }

            #[test]
            fn prop_placement_never_exceeds_node_capacity(jobs in proptest::collection::vec(arb_job(), 1..40)) {
                let mut c = small_cluster(4);
                for j in &jobs {
                    if let Some(a) = c.try_place(j) {
                        c.allocate(&a); // panics on over-allocation
                    }
                }
                for n in c.nodes() {
                    prop_assert!(n.gpus_free <= 2);
                    prop_assert!(n.cpus_free <= 80);
                    prop_assert!(n.mem_free_gib <= 384.0 + 1e-6);
                }
            }

            #[test]
            fn prop_gpu_parts_are_consistent(g in 1u32..=8, cpus in 1u32..=16) {
                let c = small_cluster(6);
                let j = gpu_job(g, cpus);
                if let Some(a) = c.try_place(&j) {
                    prop_assert_eq!(a.total_gpus(), g);
                    // CPU shares across parts cover the request.
                    let cpu_total: u32 = a.parts.iter().map(|p| p.cpus).sum();
                    prop_assert!(cpu_total >= cpus);
                    // Dense placement: no more nodes than strictly needed.
                    prop_assert!(a.node_count() <= g.div_ceil(2) as usize);
                }
            }
        }
    }

    #[test]
    fn conservation_under_allocate_release_cycles() {
        let mut c = small_cluster(4);
        let total_before = c.gpus_free();
        let jobs: Vec<JobSpec> = (1..=4).map(|g| gpu_job(g, 8)).collect();
        let mut allocs = Vec::new();
        for j in &jobs {
            if let Some(a) = c.try_place(j) {
                c.allocate(&a);
                allocs.push(a);
            }
        }
        for a in &allocs {
            c.release(a);
        }
        assert_eq!(c.gpus_free(), total_before);
        for n in c.nodes() {
            assert_eq!(n.cpus_free, 80);
            assert!((n.mem_free_gib - 384.0).abs() < 1e-6);
        }
    }
}
