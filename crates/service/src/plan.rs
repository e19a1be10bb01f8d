//! Deterministic request-plan generation.
//!
//! The whole traffic scenario — arrival times, operations, keys, shard
//! routing, worker assignment — is materialized up front as a pure
//! function of the spec's seed, *before* any simulated thread runs.
//! This is what makes the engine open-loop: arrival times cannot react
//! to service progress, so queueing delay is measured rather than
//! silently absorbed into the arrival process (coordinated omission).

use crate::ServiceSpec;
use elision_sim::{generate_arrivals, DetRng};

/// RNG streams used by plan generation. They sit far above the strand
/// streams the harness derives per thread (`tid`, `1_000_000 + tid`,
/// `2_000_000 + tid`), so a service plan never aliases a worker's
/// workload/abort/retry stream.
const STREAM_ARRIVALS: u64 = 3_000_001;
const STREAM_OPS: u64 = 3_000_002;
const STREAM_KEYS: u64 = 3_000_003;

/// Routing salt after a hot-shard migration. Chosen so the Zipf head
/// key actually changes shards at common shard counts (salt 1 happens
/// to keep key 0 on the same shard at 4 shards).
const MIGRATED_SALT: u64 = 2;

/// One operation of the sharded key-value/queue service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOp {
    /// Key-value lookup.
    Get,
    /// Key-value insert/overwrite.
    Put,
    /// Key-value delete.
    Remove,
    /// Queue push (value = key).
    Enqueue,
    /// Queue pop.
    Dequeue,
}

/// Operation percentages of the service workload; the remainder after
/// all four named percentages is `Get`.
#[derive(Debug, Clone, Copy)]
pub struct ServiceMix {
    /// Percent of requests that are `Put`.
    pub put_pct: u32,
    /// Percent of requests that are `Remove`.
    pub remove_pct: u32,
    /// Percent of requests that are `Enqueue`.
    pub enqueue_pct: u32,
    /// Percent of requests that are `Dequeue`.
    pub dequeue_pct: u32,
}

impl ServiceMix {
    /// Mixed key-value + queue traffic.
    pub const MIXED: ServiceMix =
        ServiceMix { put_pct: 15, remove_pct: 10, enqueue_pct: 10, dequeue_pct: 10 };

    /// Draw one operation.
    pub fn draw(&self, rng: &mut DetRng) -> RequestOp {
        let r = rng.below(100) as u32;
        if r < self.put_pct {
            RequestOp::Put
        } else if r < self.put_pct + self.remove_pct {
            RequestOp::Remove
        } else if r < self.put_pct + self.remove_pct + self.enqueue_pct {
            RequestOp::Enqueue
        } else if r < self.put_pct + self.remove_pct + self.enqueue_pct + self.dequeue_pct {
            RequestOp::Dequeue
        } else {
            RequestOp::Get
        }
    }
}

/// One scheduled request, fully determined before the run.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Scheduled arrival cycle (latency is measured from here).
    pub at: u64,
    /// Index of the arrival phase that produced this request.
    pub phase: usize,
    /// The operation.
    pub op: RequestOp,
    /// The key (also the queued value for queue ops).
    pub key: u64,
    /// The shard serving this request.
    pub shard: usize,
}

/// The materialized request plan for one service run.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    /// Requests per worker thread (indexed by simulated tid), each in
    /// arrival order.
    pub per_worker: Vec<Vec<Request>>,
    /// Requests routed to each shard.
    pub per_shard: Vec<u64>,
    /// Requests in each arrival phase.
    pub per_phase: Vec<u64>,
    /// Total requests.
    pub total: u64,
}

/// The SplitMix64 finalizer, used as the shard-routing hash.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard serving `key` under routing salt `salt`.
///
/// Routing is by hash, so the Zipf head keys concentrate on whichever
/// shard the salt maps them to — changing the salt mid-run *migrates*
/// the hot set to a different shard (the hot-shard-migration scenario).
pub fn shard_of(key: u64, salt: u64, shards: usize) -> usize {
    (mix64(key ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)) % shards as u64) as usize
}

/// Materialize the full request plan for `spec`.
pub fn build_plan(spec: &ServiceSpec) -> ServicePlan {
    let workers = spec.workers();
    let shards = spec.shards;
    let mut rng_arrivals = DetRng::new(spec.seed, STREAM_ARRIVALS);
    let mut rng_ops = DetRng::new(spec.seed, STREAM_OPS);
    let mut rng_keys = DetRng::new(spec.seed, STREAM_KEYS);

    let arrivals = generate_arrivals(&mut rng_arrivals, &spec.phases);
    let zipf = elision_sim::Zipf::new(spec.key_domain() as usize, spec.zipf_theta);

    let mut per_worker: Vec<Vec<Request>> = vec![Vec::new(); workers];
    let mut per_shard = vec![0u64; shards];
    let mut per_phase = vec![0u64; spec.phases.len()];
    // Round-robin dispatch across a shard's workers, like an accept
    // loop handing connections to a worker pool.
    let mut rr = vec![0usize; shards];
    for a in &arrivals {
        let key = zipf.sample(&mut rng_keys);
        let op = spec.mix.draw(&mut rng_ops);
        let salt = match spec.migrate_at {
            Some(at) if a.at >= at => MIGRATED_SALT,
            _ => 0,
        };
        let shard = shard_of(key, salt, shards);
        let worker = shard * spec.workers_per_shard + rr[shard];
        rr[shard] = (rr[shard] + 1) % spec.workers_per_shard;
        per_shard[shard] += 1;
        per_phase[a.phase] += 1;
        per_worker[worker].push(Request { at: a.at, phase: a.phase, op, key, shard });
    }
    let total = arrivals.len() as u64;
    ServicePlan { per_worker, per_shard, per_phase, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceSpec;
    use elision_sim::ArrivalPhase;

    fn spec() -> ServiceSpec {
        let mut s = ServiceSpec::quick(elision_core::SchemeKind::Hle, elision_core::LockKind::Ttas);
        s.phases = vec![
            ArrivalPhase::steady("steady", 50_000, 60.0),
            ArrivalPhase::steady("burst", 20_000, 15.0),
        ];
        s
    }

    #[test]
    fn plan_is_deterministic() {
        let s = spec();
        let a = build_plan(&s);
        let b = build_plan(&s);
        assert_eq!(a.total, b.total);
        assert_eq!(a.per_shard, b.per_shard);
        for (x, y) in a.per_worker.iter().zip(&b.per_worker) {
            assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(y) {
                assert_eq!((p.at, p.op, p.key, p.shard), (q.at, q.op, q.key, q.shard));
            }
        }
    }

    #[test]
    fn plan_conserves_requests() {
        let plan = build_plan(&spec());
        let by_worker: u64 = plan.per_worker.iter().map(|w| w.len() as u64).sum();
        let by_shard: u64 = plan.per_shard.iter().sum();
        let by_phase: u64 = plan.per_phase.iter().sum();
        assert_eq!(by_worker, plan.total);
        assert_eq!(by_shard, plan.total);
        assert_eq!(by_phase, plan.total);
        assert!(plan.total > 0);
    }

    #[test]
    fn workers_only_serve_their_shard() {
        let s = spec();
        let plan = build_plan(&s);
        for (tid, reqs) in plan.per_worker.iter().enumerate() {
            let shard = tid / s.workers_per_shard;
            assert!(reqs.iter().all(|r| r.shard == shard), "worker {tid} crossed shards");
        }
    }

    #[test]
    fn worker_queues_are_in_arrival_order() {
        let plan = build_plan(&spec());
        for reqs in &plan.per_worker {
            for w in reqs.windows(2) {
                assert!(w[0].at < w[1].at);
            }
        }
    }

    #[test]
    fn zipf_skew_creates_a_hot_shard() {
        let mut s = spec();
        s.zipf_theta = 1.2;
        let plan = build_plan(&s);
        let max = *plan.per_shard.iter().max().unwrap();
        let min = *plan.per_shard.iter().min().unwrap();
        assert!(max > min * 2, "skewed keys must concentrate on one shard: {:?}", plan.per_shard);
    }

    #[test]
    fn migration_moves_the_hot_set() {
        let mut s = spec();
        s.zipf_theta = 1.2;
        s.migrate_at = Some(50_000);
        let plan = build_plan(&s);
        // Recompute the pre/post hot shard from the plan itself.
        let mut pre = vec![0u64; s.shards];
        let mut post = vec![0u64; s.shards];
        for reqs in &plan.per_worker {
            for r in reqs {
                if r.at < 50_000 {
                    pre[r.shard] += 1;
                } else {
                    post[r.shard] += 1;
                }
            }
        }
        let hot_pre = pre.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        let hot_post = post.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_ne!(hot_pre, hot_post, "salt flip must migrate the hot shard");
    }

    #[test]
    fn mix_draw_covers_all_ops() {
        let mix = ServiceMix::MIXED;
        let mut rng = DetRng::new(5, 0);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let i = match mix.draw(&mut rng) {
                RequestOp::Get => 0,
                RequestOp::Put => 1,
                RequestOp::Remove => 2,
                RequestOp::Enqueue => 3,
                RequestOp::Dequeue => 4,
            };
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
