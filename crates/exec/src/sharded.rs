//! Striped-lock accumulator for concurrent deposits.
//!
//! The genome is cut into `shard_count` contiguous position ranges, each
//! guarded by its own `std::sync::Mutex` around an ordinary
//! [`GenomeAccumulator`] covering just that range. A deposit locks only
//! the shard(s) its window overlaps — almost always one, occasionally two
//! at a boundary — so workers mapping different genome regions never
//! contend, and there is no end-of-run merge of per-worker replicas: the
//! shards already hold disjoint slices of the final accumulator.

use gnumap_core::accum::{GenomeAccumulator, NUM_SYMBOLS};
use gnumap_core::pipeline::{deposit, EvidenceSink};
use pairhmm::marginal::ColumnPosterior;
use std::sync::{Mutex, MutexGuard};

/// A genome-length accumulator striped across independently locked shards.
pub struct ShardedAccumulator<A> {
    shards: Vec<Mutex<A>>,
    /// Start position of each shard; shard `i` covers
    /// `starts[i]..starts[i+1]` (the last runs to `len`).
    starts: Vec<usize>,
    len: usize,
}

impl<A: GenomeAccumulator> ShardedAccumulator<A> {
    /// Stripe `len` positions across `shard_count` shards (clamped to at
    /// least 1 and at most one shard per position).
    pub fn new(len: usize, shard_count: usize) -> Self {
        let n = shard_count.clamp(1, len.max(1));
        let starts: Vec<usize> = (0..n).map(|i| i * len / n).collect();
        let shards = (0..n)
            .map(|i| {
                let end = if i + 1 < n { starts[i + 1] } else { len };
                Mutex::new(A::new(end - starts[i]))
            })
            .collect();
        ShardedAccumulator {
            shards,
            starts,
            len,
        }
    }

    /// Genome positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length genome.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_end(&self, i: usize) -> usize {
        if i + 1 < self.starts.len() {
            self.starts[i + 1]
        } else {
            self.len
        }
    }

    /// Index of the shard owning `pos`.
    fn shard_of(&self, pos: usize) -> usize {
        self.starts.partition_point(|&s| s <= pos) - 1
    }

    /// Deposit one alignment's weighted columns, locking each overlapped
    /// shard once. Column order within a shard is preserved; clipping
    /// beyond the genome end matches [`gnumap_core::pipeline::deposit`].
    pub fn deposit(&self, window_start: usize, weight: f64, columns: &[ColumnPosterior]) {
        if window_start >= self.len || columns.is_empty() {
            return;
        }
        let end = (window_start + columns.len()).min(self.len);
        let mut pos = window_start;
        while pos < end {
            let si = self.shard_of(pos);
            let shard_start = self.starts[si];
            let stop = end.min(self.shard_end(si));
            let mut guard = lock(&self.shards[si]);
            deposit(
                &mut *guard,
                pos - shard_start,
                weight,
                &columns[pos - window_start..stop - window_start],
            );
            drop(guard);
            pos = stop;
        }
    }

    /// Decoded counts for every position, shard by shard (used for
    /// checkpoints). Callers must ensure no concurrent deposits if a
    /// globally consistent snapshot is required.
    pub fn snapshot_counts(&self) -> Vec<[f64; NUM_SYMBOLS]> {
        let mut out = Vec::with_capacity(self.len);
        for (i, shard) in self.shards.iter().enumerate() {
            let guard = lock(shard);
            for local in 0..self.shard_end(i) - self.starts[i] {
                out.push(guard.counts(local));
            }
        }
        out
    }

    /// Load a snapshot back (checkpoint resume). The accumulator must be
    /// freshly created (all zero).
    pub fn load_counts(&self, counts: &[[f64; NUM_SYMBOLS]]) {
        assert_eq!(counts.len(), self.len, "snapshot length mismatch");
        for (i, shard) in self.shards.iter().enumerate() {
            let start = self.starts[i];
            let mut guard = lock(shard);
            for local in 0..self.shard_end(i) - start {
                let c = &counts[start + local];
                if c.iter().sum::<f64>() > 0.0 {
                    guard.add(local, c);
                }
            }
        }
    }

    /// Collapse the stripes into one full-length accumulator for SNP
    /// calling. Shards cover disjoint ranges, so this is a positional
    /// copy, not a sum — for integer-celled accumulators (FIXED) it is
    /// exact.
    pub fn into_full(self) -> A {
        let mut full = A::new(self.len);
        for (i, shard) in self.shards.into_iter().enumerate() {
            let start = self.starts[i];
            let acc = shard.into_inner().expect(POISONED);
            for local in 0..acc.len() {
                let c = acc.counts(local);
                if c.iter().sum::<f64>() > 0.0 {
                    full.add(start + local, &c);
                }
            }
        }
        full
    }

    /// Total heap bytes across shards.
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).heap_bytes()).sum()
    }
}

/// Lock a shard. A depositor that panicked while holding it may have left
/// a deposit half done, so poison is fatal.
fn lock<A>(shard: &Mutex<A>) -> MutexGuard<'_, A> {
    shard.lock().expect(POISONED)
}

const POISONED: &str = "a depositor panicked while holding an accumulator shard";

/// Workers share one striped accumulator, so the map → deposit body's
/// sink is a shared reference.
impl<A: GenomeAccumulator> EvidenceSink for &ShardedAccumulator<A> {
    fn deposit(&mut self, window_start: usize, weight: f64, columns: &[ColumnPosterior]) {
        ShardedAccumulator::deposit(self, window_start, weight, columns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnumap_core::accum::FixedAccumulator;

    fn col(probs: [f64; NUM_SYMBOLS]) -> ColumnPosterior {
        ColumnPosterior { probs }
    }

    #[test]
    fn striping_covers_every_position_once() {
        for (len, shards) in [(10usize, 3usize), (100, 7), (5, 8), (1, 1)] {
            let s = ShardedAccumulator::<FixedAccumulator>::new(len, shards);
            assert_eq!(s.len(), len);
            let mut covered = 0;
            for i in 0..s.shard_count() {
                assert!(s.shard_end(i) > s.starts[i], "empty shard {i}");
                covered += s.shard_end(i) - s.starts[i];
            }
            assert_eq!(covered, len);
            for pos in 0..len {
                let si = s.shard_of(pos);
                assert!(s.starts[si] <= pos && pos < s.shard_end(si));
            }
        }
    }

    #[test]
    fn boundary_spanning_deposit_matches_serial() {
        let cols: Vec<ColumnPosterior> = (0..6)
            .map(|i| col([0.5 + i as f64 * 0.01, 0.2, 0.1, 0.1, 0.1]))
            .collect();

        let mut serial = FixedAccumulator::new(10);
        deposit(&mut serial, 2, 0.8, &cols);

        // 3 shards of [0,3), [3,6), [6,10): the window 2..8 spans all three.
        let sharded = ShardedAccumulator::<FixedAccumulator>::new(10, 3);
        sharded.deposit(2, 0.8, &cols);
        let full = sharded.into_full();
        for pos in 0..10 {
            assert_eq!(full.counts(pos), serial.counts(pos), "pos {pos}");
        }
    }

    #[test]
    fn deposits_clip_at_genome_end() {
        let sharded = ShardedAccumulator::<FixedAccumulator>::new(4, 2);
        let cols = vec![col([1.0, 0.0, 0.0, 0.0, 0.0]); 8];
        sharded.deposit(2, 1.0, &cols);
        sharded.deposit(99, 1.0, &cols); // fully out of range: no-op
        let full = sharded.into_full();
        assert_eq!(full.counts(2)[0], 1.0);
        assert_eq!(full.counts(3)[0], 1.0);
        assert_eq!(full.counts(0), [0.0; 5]);
    }

    #[test]
    fn snapshot_and_load_round_trip() {
        let a = ShardedAccumulator::<FixedAccumulator>::new(9, 4);
        let cols = vec![col([0.25, 0.25, 0.25, 0.125, 0.125]); 5];
        a.deposit(1, 0.9, &cols);
        a.deposit(6, 0.4, &cols);
        let snap = a.snapshot_counts();

        let b = ShardedAccumulator::<FixedAccumulator>::new(9, 2); // different striping
        b.load_counts(&snap);
        let fa = a.into_full();
        let fb = b.into_full();
        for pos in 0..9 {
            assert_eq!(fa.counts(pos), fb.counts(pos), "pos {pos}");
        }
    }

    #[test]
    fn concurrent_deposits_are_exact() {
        use std::sync::Arc;
        let sharded = Arc::new(ShardedAccumulator::<FixedAccumulator>::new(50, 8));
        let cols = vec![col([0.3, 0.3, 0.2, 0.1, 0.1]); 10];
        std::thread::scope(|s| {
            for t in 0..4 {
                let sharded = Arc::clone(&sharded);
                let cols = cols.clone();
                s.spawn(move || {
                    for rep in 0..25 {
                        sharded.deposit((t * 7 + rep) % 45, 0.5, &cols);
                    }
                });
            }
        });
        let mut serial = FixedAccumulator::new(50);
        for t in 0..4 {
            for rep in 0..25 {
                deposit(&mut serial, (t * 7 + rep) % 45, 0.5, &cols);
            }
        }
        let full = Arc::into_inner(sharded).unwrap().into_full();
        for pos in 0..50 {
            assert_eq!(full.counts(pos), serial.counts(pos), "pos {pos}");
        }
    }
}
