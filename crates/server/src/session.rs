//! Session lifecycle and registry.
//!
//! A session is the unit of isolation: each one owns a
//! [`ShardedAccumulator`] over the server's reference genome, so reads
//! from many sessions can share micro-batches and workers while their
//! evidence never mixes. `FixedAccumulator` deposits commute bit-exactly,
//! which is what lets batch composition, worker count, and scheduling
//! order vary without changing a session's final digest.
//!
//! Lifecycle: `Open` (accepting submits) → `Finalizing` (closed to new
//! reads, waiting for in-flight reads to drain) → removed (calls
//! returned, or aborted on client disconnect). A finalize that times out
//! leaves the session closed but registered, so the client can retry.

use exec::ShardedAccumulator;
use gnumap_core::accum::FixedAccumulator;
use gnumap_core::pipeline::EvidenceSink;
use gnumap_core::snpcall::SnpCallConfig;
use pairhmm::marginal::ColumnPosterior;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

struct Pending {
    in_flight: u64,
    closed: bool,
}

/// One live session: its accumulator, calling config, and drain state.
pub struct SessionState {
    /// Wire-visible session id.
    pub id: u64,
    /// How this session's evidence will be tested at finalize.
    pub calling: SnpCallConfig,
    // `None` once the accumulator has been taken (finalize) or dropped
    // (abort). Deposits through a read lock keep workers concurrent.
    acc: RwLock<Option<ShardedAccumulator<FixedAccumulator>>>,
    pending: Mutex<Pending>,
    drained: Condvar,
    reads_submitted: AtomicU64,
    reads_processed: AtomicU64,
    reads_mapped: AtomicU64,
}

impl SessionState {
    fn new(id: u64, calling: SnpCallConfig, genome_len: usize, shards: usize) -> SessionState {
        SessionState {
            id,
            calling,
            acc: RwLock::new(Some(ShardedAccumulator::new(genome_len, shards))),
            pending: Mutex::new(Pending {
                in_flight: 0,
                closed: false,
            }),
            drained: Condvar::new(),
            reads_submitted: AtomicU64::new(0),
            reads_processed: AtomicU64::new(0),
            reads_mapped: AtomicU64::new(0),
        }
    }

    /// Reserve `n` in-flight reads. Returns `false` if the session is
    /// closed (finalizing or aborted) — the caller must not enqueue.
    pub fn begin_submit(&self, n: u64) -> bool {
        let mut p = self.pending.lock().unwrap();
        if p.closed {
            return false;
        }
        p.in_flight += n;
        self.reads_submitted.fetch_add(n, Ordering::Relaxed);
        true
    }

    /// Roll back a reservation whose chunk was shed before enqueueing.
    pub fn cancel_submit(&self, n: u64) {
        let mut p = self.pending.lock().unwrap();
        p.in_flight -= n;
        self.reads_submitted.fetch_sub(n, Ordering::Relaxed);
        if p.in_flight == 0 {
            self.drained.notify_all();
        }
    }

    /// Deposit one alignment's weighted columns. A no-op after abort
    /// (the in-flight read still completes, its evidence just lands
    /// nowhere).
    pub fn deposit(&self, window_start: usize, weight: f64, columns: &[ColumnPosterior]) {
        if let Some(acc) = self.acc.read().unwrap().as_ref() {
            acc.deposit(window_start, weight, columns);
        }
    }

    /// Mark one read fully processed.
    pub fn complete_read(&self, mapped: bool) {
        self.reads_processed.fetch_add(1, Ordering::Relaxed);
        if mapped {
            self.reads_mapped.fetch_add(1, Ordering::Relaxed);
        }
        let mut p = self.pending.lock().unwrap();
        p.in_flight -= 1;
        if p.in_flight == 0 {
            self.drained.notify_all();
        }
    }

    /// Close the session to new submits (idempotent).
    pub fn close(&self) {
        self.pending.lock().unwrap().closed = true;
    }

    /// Wait until every in-flight read has completed, up to `deadline`.
    /// Returns `false` on deadline expiry.
    pub fn wait_drained(&self, deadline: Duration) -> bool {
        let end = Instant::now() + deadline;
        let mut p = self.pending.lock().unwrap();
        while p.in_flight > 0 {
            let now = Instant::now();
            if now >= end {
                return false;
            }
            let (guard, _) = self.drained.wait_timeout(p, end - now).unwrap();
            p = guard;
        }
        true
    }

    /// Take the accumulator for calling. `None` if already taken or
    /// aborted.
    pub fn take_accumulator(&self) -> Option<ShardedAccumulator<FixedAccumulator>> {
        self.acc.write().unwrap().take()
    }

    /// Tear the session down without producing calls: close it and free
    /// the accumulator immediately. Returns `true` if the accumulator was
    /// still held (i.e. this abort actually reclaimed memory).
    pub fn abort(&self) -> bool {
        self.close();
        self.acc.write().unwrap().take().is_some()
    }

    /// Reads submitted so far (admitted past ingress).
    pub fn reads_submitted(&self) -> u64 {
        self.reads_submitted.load(Ordering::Relaxed)
    }

    /// Reads fully processed so far.
    pub fn reads_processed(&self) -> u64 {
        self.reads_processed.load(Ordering::Relaxed)
    }

    /// Processed reads that mapped.
    pub fn reads_mapped(&self) -> u64 {
        self.reads_mapped.load(Ordering::Relaxed)
    }
}

/// Workers deposit into a shared session, so the map → deposit body's
/// sink is a shared reference.
impl EvidenceSink for &SessionState {
    fn deposit(&mut self, window_start: usize, weight: f64, columns: &[ColumnPosterior]) {
        SessionState::deposit(self, window_start, weight, columns);
    }
}

/// The table of live sessions.
pub struct Registry {
    sessions: Mutex<HashMap<u64, Arc<SessionState>>>,
    next_id: AtomicU64,
    genome_len: usize,
    shards: usize,
}

impl Registry {
    /// A registry for sessions over a genome of `genome_len` positions,
    /// each with a `shards`-way sharded accumulator.
    pub fn new(genome_len: usize, shards: usize) -> Registry {
        Registry {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            genome_len,
            shards,
        }
    }

    /// Open a new session.
    pub fn open(&self, calling: SnpCallConfig) -> Arc<SessionState> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(SessionState::new(id, calling, self.genome_len, self.shards));
        self.sessions
            .lock()
            .unwrap()
            .insert(id, Arc::clone(&session));
        session
    }

    /// Look up a live session.
    pub fn get(&self, id: u64) -> Option<Arc<SessionState>> {
        self.sessions.lock().unwrap().get(&id).cloned()
    }

    /// Remove a session from the table (its `Arc` may outlive this while
    /// in-flight reads finish).
    pub fn remove(&self, id: u64) -> Option<Arc<SessionState>> {
        self.sessions.lock().unwrap().remove(&id)
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Whether no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn registry() -> Registry {
        Registry::new(100, 4)
    }

    #[test]
    fn lifecycle_open_submit_drain_take() {
        let reg = registry();
        let s = reg.open(SnpCallConfig::default());
        assert!(s.begin_submit(3));
        assert!(!s.wait_drained(Duration::from_millis(10)));
        s.complete_read(true);
        s.complete_read(false);
        s.complete_read(true);
        assert!(s.wait_drained(Duration::from_millis(10)));
        assert_eq!(s.reads_processed(), 3);
        assert_eq!(s.reads_mapped(), 2);
        s.close();
        assert!(!s.begin_submit(1), "closed session must refuse submits");
        assert!(s.take_accumulator().is_some());
        assert!(s.take_accumulator().is_none(), "second take must fail");
    }

    #[test]
    fn deposit_after_abort_is_a_noop() {
        let reg = registry();
        let s = reg.open(SnpCallConfig::default());
        assert!(s.begin_submit(1));
        assert!(s.abort());
        // A worker still holding the read finishes harmlessly.
        let col = ColumnPosterior {
            probs: [1.0, 0.0, 0.0, 0.0, 0.0],
        };
        s.deposit(0, 1.0, &[col]);
        s.complete_read(true);
        assert!(s.wait_drained(Duration::from_millis(10)));
        assert!(!s.abort(), "second abort reclaims nothing");
    }

    #[test]
    fn drain_wakes_blocked_waiter() {
        let reg = registry();
        let s = reg.open(SnpCallConfig::default());
        assert!(s.begin_submit(1));
        let s2 = Arc::clone(&s);
        let waiter = thread::spawn(move || s2.wait_drained(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        s.complete_read(true);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn registry_tracks_sessions() {
        let reg = registry();
        let a = reg.open(SnpCallConfig::default());
        let b = reg.open(SnpCallConfig::default());
        assert_ne!(a.id, b.id);
        assert_eq!(reg.len(), 2);
        assert!(reg.get(a.id).is_some());
        assert!(reg.remove(a.id).is_some());
        assert!(reg.get(a.id).is_none());
        assert_eq!(reg.len(), 1);
        assert!(reg.remove(a.id).is_none());
    }
}
