//! A decentralized job-placement layer on top of resource selection — the
//! "first step towards a complete decentralized job execution system" the
//! paper's conclusion calls for (their follow-up work on decentralized grid
//! scheduling).
//!
//! Placement works with **no central allocator state**: every node
//! advertises its remaining job slots as a *dynamic attribute* (footnote 1),
//! so a placement query `free_slots ≥ 1 ∧ <job requirements>` is answered by
//! exactly the machines that can take the job *right now*. Allocating
//! decrements the node's own slot count locally — nothing to refresh, no
//! registry to go stale.

use std::collections::HashMap;

use attrspace::{Query, Range};
use autosel_core::{DynamicConstraint, QueryId, QueryRequest};
use epigossip::NodeId;
use overlay_sim::SimCluster;

/// The dynamic-attribute key under which free job slots are advertised.
pub const FREE_SLOTS_KEY: u32 = 0xF_5107;

/// A job to place: a static resource query plus extra dynamic requirements
/// and the number of machines wanted.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job name.
    pub name: String,
    /// Static resource requirements (routed).
    pub query: Query,
    /// Additional dynamic requirements (checked locally by candidates).
    pub dynamic: Vec<DynamicConstraint>,
    /// Machines required.
    pub replicas: u32,
}

/// A successful placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Ticket used to release the job later.
    pub job: JobTicket,
    /// The machines the job was placed on.
    pub nodes: Vec<NodeId>,
}

/// Opaque handle for a placed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobTicket(u64);

/// Why a job could not be placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Fewer than `replicas` machines currently match (including capacity).
    Insufficient {
        /// Machines found.
        found: usize,
        /// Machines required.
        wanted: u32,
    },
    /// The placement query did not complete (should not happen on a static
    /// simulated cluster).
    QueryFailed(
        /// The failed query id.
        QueryId,
    ),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Insufficient { found, wanted } => {
                write!(f, "only {found} of {wanted} required machines available")
            }
            ScheduleError::QueryFailed(id) => write!(f, "placement query {id} did not complete"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A job scheduler driving a [`SimCluster`]: placement by overlay query,
/// capacity by self-advertised dynamic slots.
#[derive(Debug)]
pub struct Scheduler {
    cluster: SimCluster,
    slots: HashMap<NodeId, u32>,
    jobs: HashMap<JobTicket, Vec<NodeId>>,
    next_ticket: u64,
}

impl Scheduler {
    /// Wraps a populated cluster, giving every node `slots_per_node` job
    /// slots (advertised immediately as a dynamic attribute).
    pub fn new(mut cluster: SimCluster, slots_per_node: u32) -> Self {
        let mut slots = HashMap::new();
        for id in cluster.node_ids().to_vec() {
            cluster.set_dynamic(id, FREE_SLOTS_KEY, u64::from(slots_per_node));
            slots.insert(id, slots_per_node);
        }
        Scheduler {
            cluster,
            slots,
            jobs: HashMap::new(),
            next_ticket: 0,
        }
    }

    /// Read/drive access to the underlying cluster.
    pub fn cluster_mut(&mut self) -> &mut SimCluster {
        &mut self.cluster
    }

    /// Fraction of total slots currently allocated.
    pub fn utilization(&self) -> f64 {
        let total: u64 = self.slots.values().map(|&s| u64::from(s)).sum();
        let used: u64 = self.jobs.values().map(|nodes| nodes.len() as u64).sum();
        if total + used == 0 {
            0.0
        } else {
            used as f64 / (total + used) as f64
        }
    }

    /// Places `spec` on `spec.replicas` machines, preferring the least
    /// recently loaded candidates. Capacity is honored through the
    /// `free_slots` dynamic attribute — a machine with no slots never even
    /// appears in the candidate set.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Insufficient`] when not enough machines match;
    /// nothing is allocated in that case.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Allocation, ScheduleError> {
        let mut dynamic = spec.dynamic.clone();
        dynamic.push(DynamicConstraint {
            key: FREE_SLOTS_KEY,
            range: Range {
                lo: 1,
                hi: u64::MAX,
            },
        });
        // Ask for head-room: 2× replicas lets the scheduler pick.
        let sigma = spec.replicas.saturating_mul(2);
        let origin = self.cluster.random_node();
        let request = QueryRequest {
            dynamic,
            ..QueryRequest::matches(spec.query.clone(), Some(sigma))
        };
        let qid = self.cluster.issue(origin, request);
        self.cluster.run_to_quiescence();
        let Some(matches) = self.cluster.query_result(qid) else {
            return Err(ScheduleError::QueryFailed(qid));
        };
        let mut candidates: Vec<NodeId> = matches.iter().map(|m| m.node).collect();
        self.cluster.forget_query(qid);

        if (candidates.len() as u32) < spec.replicas {
            return Err(ScheduleError::Insufficient {
                found: candidates.len(),
                wanted: spec.replicas,
            });
        }
        // Prefer the fullest remaining capacity (spread load).
        candidates.sort_by_key(|id| std::cmp::Reverse(self.slots.get(id).copied().unwrap_or(0)));
        candidates.truncate(spec.replicas as usize);

        for &id in &candidates {
            let s = self.slots.entry(id).or_insert(0);
            *s = s.saturating_sub(1);
            self.cluster.set_dynamic(id, FREE_SLOTS_KEY, u64::from(*s));
        }
        let ticket = JobTicket(self.next_ticket);
        self.next_ticket += 1;
        self.jobs.insert(ticket, candidates.clone());
        Ok(Allocation {
            job: ticket,
            nodes: candidates,
        })
    }

    /// Releases a placed job, returning its slots to the machines (dead
    /// machines are skipped). Unknown tickets are ignored.
    pub fn release(&mut self, ticket: JobTicket) {
        let Some(nodes) = self.jobs.remove(&ticket) else {
            return;
        };
        for id in nodes {
            if self.cluster.point_of(id).is_none() {
                continue; // machine died while running the job
            }
            let s = self.slots.entry(id).or_insert(0);
            *s += 1;
            self.cluster.set_dynamic(id, FREE_SLOTS_KEY, u64::from(*s));
        }
    }

    /// Remaining free slots on a machine.
    pub fn free_slots(&self, id: NodeId) -> u32 {
        self.slots.get(&id).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Space;
    use overlay_sim::{Placement, SimConfig};

    fn scheduler(n: usize, slots: u32) -> (Scheduler, Space) {
        let space = Space::uniform(3, 80, 3).unwrap();
        let mut cluster = SimCluster::new(space.clone(), SimConfig::fast_static(), 77);
        cluster.populate(&Placement::Uniform { lo: 0, hi: 80 }, n);
        cluster.wire_oracle();
        (Scheduler::new(cluster, slots), space)
    }

    fn job(space: &Space, replicas: u32) -> JobSpec {
        JobSpec {
            name: "test".into(),
            query: Query::builder(space).min("a0", 20).build().unwrap(),
            dynamic: Vec::new(),
            replicas,
        }
    }

    #[test]
    fn placement_respects_capacity() {
        let (mut s, space) = scheduler(200, 1);
        let spec = job(&space, 10);
        let a1 = s.submit(&spec).expect("first placement");
        assert_eq!(a1.nodes.len(), 10);
        let a2 = s.submit(&spec).expect("second placement");
        // One slot per machine: the two placements are disjoint.
        for n in &a2.nodes {
            assert!(!a1.nodes.contains(n), "machine {n} double-booked");
            assert_eq!(s.free_slots(*n), 0);
        }
    }

    #[test]
    fn release_returns_slots() {
        let (mut s, space) = scheduler(60, 1);
        let spec = JobSpec {
            replicas: 30,
            ..job(&space, 30)
        };
        let a = s.submit(&spec).expect("placement");
        // The pool is nearly drained; an identical job cannot fit.
        let err = s.submit(&spec).unwrap_err();
        assert!(matches!(err, ScheduleError::Insufficient { .. }));
        s.release(a.job);
        assert!(s.submit(&spec).is_ok(), "slots returned after release");
    }

    #[test]
    fn utilization_tracks_allocations() {
        let (mut s, space) = scheduler(100, 2);
        assert_eq!(s.utilization(), 0.0);
        let a = s.submit(&job(&space, 20)).unwrap();
        assert!(s.utilization() > 0.0);
        s.release(a.job);
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn failed_placement_allocates_nothing() {
        let (mut s, space) = scheduler(30, 1);
        // Demand more replicas than machines exist.
        let err = s.submit(&job(&space, 500)).unwrap_err();
        assert!(matches!(err, ScheduleError::Insufficient { .. }));
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn extra_dynamic_requirements_apply() {
        let (mut s, space) = scheduler(120, 1);
        // Advertise a GPU on a handful of machines.
        let ids = s.cluster_mut().node_ids().to_vec();
        for (i, id) in ids.iter().enumerate() {
            if i % 10 == 0 {
                s.cluster_mut().set_dynamic(*id, 42, 1);
            }
        }
        let spec = JobSpec {
            name: "gpu".into(),
            query: Query::builder(&space).build().unwrap(),
            dynamic: vec![DynamicConstraint {
                key: 42,
                range: Range { lo: 1, hi: 1 },
            }],
            replicas: 5,
        };
        let a = s.submit(&spec).expect("gpu placement");
        for n in &a.nodes {
            let idx = ids.iter().position(|x| x == n).unwrap();
            assert_eq!(idx % 10, 0, "machine {n} has no GPU");
        }
    }
}
