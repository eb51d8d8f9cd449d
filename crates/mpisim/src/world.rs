//! The world: rank spawning and point-to-point messaging.

use crate::stats::{SharedStats, TrafficStats};
use crate::wire::WireSize;
use std::any::Any;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

/// A message in flight.
struct Envelope {
    src: usize,
    tag: u64,
    payload: Box<dyn Any + Send>,
}

/// A communicator world of `size` ranks.
///
/// Analogous to `MPI_COMM_WORLD`: construct one, then [`World::run`] a
/// closure on every rank.
pub struct World {
    size: usize,
}

impl World {
    /// Create a world with `size` ranks (≥ 1).
    pub fn new(size: usize) -> World {
        assert!(size >= 1, "world needs at least one rank");
        World { size }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` on every rank concurrently, returning the per-rank results
    /// in rank order.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Send + Sync,
    {
        self.run_with_stats(f).0
    }

    /// Like [`World::run`] but also returns aggregate traffic statistics.
    pub fn run_with_stats<T, F>(&self, f: F) -> (Vec<T>, TrafficStats)
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Send + Sync,
    {
        let (results, report) = self.run_with_report(f);
        (results, report.traffic)
    }

    /// Like [`World::run`] but also returns a full [`WorldReport`]:
    /// aggregate traffic plus the CPU seconds each rank consumed. The
    /// per-rank CPU times let callers compute an idealised parallel wall
    /// clock (`max` over ranks + a communication model) even when the
    /// simulated ranks timeshare fewer physical cores than there are
    /// ranks — the basis of the scaling figures on small machines.
    pub fn run_with_report<T, F>(&self, f: F) -> (Vec<T>, WorldReport)
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Send + Sync,
    {
        let n = self.size;
        let mut senders: Vec<Sender<Envelope>> = Vec::with_capacity(n);
        let mut receivers: Vec<Option<Receiver<Envelope>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let barrier = Arc::new(Barrier::new(n));
        let stats = Arc::new(SharedStats::default());

        let outcomes: Vec<(T, f64)> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank_id, rx_slot) in receivers.iter_mut().enumerate() {
                let rx = rx_slot.take().expect("receiver taken once");
                let senders = senders.clone();
                let barrier = Arc::clone(&barrier);
                let stats = Arc::clone(&stats);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let timer = crate::cputime::ThreadCpuTimer::start();
                    let mut rank = Rank {
                        id: rank_id,
                        size: n,
                        senders,
                        rx,
                        pending: Vec::new(),
                        barrier,
                        stats,
                        coll_seq: 0,
                    };
                    let out = f(&mut rank);
                    (out, timer.elapsed())
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });

        let mut results = Vec::with_capacity(n);
        let mut rank_cpu_secs = Vec::with_capacity(n);
        for (out, cpu) in outcomes {
            results.push(out);
            rank_cpu_secs.push(cpu);
        }
        (
            results,
            WorldReport {
                traffic: stats.snapshot(),
                rank_cpu_secs,
            },
        )
    }
}

/// Everything a [`World::run_with_report`] execution observed beyond the
/// per-rank results.
#[derive(Debug, Clone)]
pub struct WorldReport {
    /// Aggregate message statistics.
    pub traffic: TrafficStats,
    /// CPU seconds consumed by each rank's thread, in rank order. On an
    /// unconstrained machine this approximates each rank's wall time; on
    /// an oversubscribed one it is the honest per-rank compute cost.
    pub rank_cpu_secs: Vec<f64>,
}

impl WorldReport {
    /// The idealised parallel compute time: the busiest rank's CPU time
    /// (every other rank would have finished earlier on its own
    /// processor).
    pub fn critical_path_secs(&self) -> f64 {
        self.rank_cpu_secs.iter().copied().fold(0.0, f64::max)
    }
}

/// Base of the tag space reserved for collectives; user tags must stay
/// below this.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 62;

/// One rank's handle on the world: its identity plus the messaging
/// endpoints. Passed to the per-rank closure by [`World::run`].
pub struct Rank {
    id: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    rx: Receiver<Envelope>,
    /// Messages received but not yet claimed by a matching `recv`.
    pending: Vec<Envelope>,
    barrier: Arc<Barrier>,
    pub(crate) stats: Arc<SharedStats>,
    /// Collective sequence number; advances identically on every rank
    /// because collectives are executed in program order.
    pub(crate) coll_seq: u64,
}

impl Rank {
    /// This rank's id in `[0, size)`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `value` to rank `dest` with a user `tag`.
    ///
    /// Sending to self is allowed (the message is delivered through the
    /// same queue). User tags must be below the reserved collective range.
    pub fn send<T: WireSize + Send + 'static>(&mut self, dest: usize, tag: u64, value: T) {
        assert!(tag < COLLECTIVE_TAG_BASE, "tag {tag} is reserved");
        self.send_internal(dest, tag, value);
    }

    pub(crate) fn send_internal<T: WireSize + Send + 'static>(
        &mut self,
        dest: usize,
        tag: u64,
        value: T,
    ) {
        assert!(dest < self.size, "destination {dest} out of range");
        self.stats.record_send(value.wire_bytes());
        self.senders[dest]
            .send(Envelope {
                src: self.id,
                tag,
                payload: Box::new(value),
            })
            .expect("receiving rank hung up");
    }

    /// Receive the next message from `src` with `tag`, blocking until it
    /// arrives. Panics if the payload type does not match `T` — that is a
    /// protocol bug, not a runtime condition.
    pub fn recv<T: Send + 'static>(&mut self, src: usize, tag: u64) -> T {
        // First check messages that arrived earlier but were not claimed.
        if let Some(idx) = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag)
        {
            let env = self.pending.swap_remove(idx);
            return Self::downcast(env);
        }
        loop {
            let env = self.rx.recv().expect("all senders hung up");
            if env.src == src && env.tag == tag {
                return Self::downcast(env);
            }
            self.pending.push(env);
        }
    }

    fn downcast<T: 'static>(env: Envelope) -> T {
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!("type mismatch receiving (src {}, tag {})", env.src, env.tag)
        })
    }

    /// Block until every rank reaches the barrier.
    pub fn barrier(&mut self) {
        use std::sync::atomic::Ordering;
        // Count the barrier once: the thread whose wait() is the "leader".
        if self.barrier.wait().is_leader() {
            self.stats.barriers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_know_their_identity() {
        let world = World::new(4);
        let ids = world.run(|rank| (rank.id(), rank.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_ring() {
        // Each rank sends its id to the next rank around a ring.
        let world = World::new(5);
        let got = world.run(|rank| {
            let next = (rank.id() + 1) % rank.size();
            let prev = (rank.id() + rank.size() - 1) % rank.size();
            rank.send(next, 7, rank.id() as u64);
            rank.recv::<u64>(prev, 7)
        });
        assert_eq!(got, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let world = World::new(2);
        let got = world.run(|rank| {
            if rank.id() == 0 {
                rank.send(1, 1, 100u64);
                rank.send(1, 2, 200u64);
                0
            } else {
                // Receive in the opposite order they were sent.
                let b = rank.recv::<u64>(0, 2);
                let a = rank.recv::<u64>(0, 1);
                a * 1000 + b
            }
        });
        assert_eq!(got[1], 100_200);
    }

    #[test]
    fn self_send_works() {
        let world = World::new(1);
        let got = world.run(|rank| {
            rank.send(0, 3, vec![1.5f64, 2.5]);
            rank.recv::<Vec<f64>>(0, 3)
        });
        assert_eq!(got[0], vec![1.5, 2.5]);
    }

    #[test]
    fn traffic_is_accounted() {
        let world = World::new(2);
        let (_, stats) = world.run_with_stats(|rank| {
            if rank.id() == 0 {
                rank.send(1, 0, vec![0u8; 100]);
            } else {
                let _ = rank.recv::<Vec<u8>>(0, 0);
            }
        });
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.payload_bytes, 108); // 100 + length prefix
    }

    #[test]
    fn barriers_rendezvous() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let world = World::new(4);
        let (results, stats) = world.run_with_stats(|rank| {
            counter.fetch_add(1, Ordering::SeqCst);
            rank.barrier();
            // After the barrier every rank must observe all 4 increments.
            counter.load(Ordering::SeqCst)
        });
        assert_eq!(results, vec![4; 4]);
        assert_eq!(stats.barriers, 1);
    }

    #[test]
    fn world_report_carries_per_rank_cpu() {
        // Timing under scheduler noise is probabilistic: the busy rank
        // dominating an idle one is only *likely* per attempt, so retry a
        // few times before declaring the report wrong.
        let mut last = None;
        for _ in 0..5 {
            let world = World::new(3);
            let (_, report) = world.run_with_report(|rank| {
                // Rank 2 does noticeably more work than the others.
                let rounds = if rank.id() == 2 {
                    12_000_000u64
                } else {
                    50_000
                };
                let mut acc = 0u64;
                for i in 0..rounds {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(acc);
            });
            assert_eq!(report.rank_cpu_secs.len(), 3);
            assert!(report.rank_cpu_secs.iter().all(|&t| t >= 0.0));
            if (report.critical_path_secs() - report.rank_cpu_secs[2]).abs() < 1e-9
                || report.rank_cpu_secs[2] >= report.rank_cpu_secs[0]
            {
                return;
            }
            last = Some(report.rank_cpu_secs.clone());
        }
        panic!("the busy rank never dominated in 5 attempts: {last:?}");
    }

    #[test]
    #[should_panic]
    fn reserved_tags_rejected() {
        let world = World::new(1);
        world.run(|rank| rank.send(0, COLLECTIVE_TAG_BASE, 0u8));
    }

    #[test]
    #[should_panic]
    fn type_mismatch_panics() {
        let world = World::new(1);
        world.run(|rank| {
            rank.send(0, 0, 1u64);
            let _ = rank.recv::<f32>(0, 0);
        });
    }
}
