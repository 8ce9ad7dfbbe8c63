//! Item encoding and the verification every workload ends with.
//!
//! An item is `tag << 48 | producer << 40 | seq`: the run's tag (from the
//! seed, never 0, so no item is 0), the producer that enqueued it, and that
//! producer's sequence number. Producers enqueue `seq = 0, 1, 2, ...`, so
//! the expected contents of the queue follow from the per-producer counts
//! alone.
//!
//! Each consumer feeds what it receives into its own [`Tally`] as it goes
//! (a few bits per item, so memory does not grow with the samples a run
//! keeps); after the post-run crash and recovery, the drained survivors go
//! into one more tally. [`verify`] then checks:
//!
//! * every enqueued item came out exactly once — consumed during the run
//!   or drained after recovery. An item never delivered is lost, one
//!   delivered twice is duplicated, one never enqueued is foreign. So the
//!   survivors are exactly the enqueued items minus the consumed ones;
//! * per-producer FIFO order within each shard: each consumer's first
//!   deliveries of one producer's items on one shard, followed by the
//!   drained survivors, must have strictly increasing sequence numbers.
//!   The shard is known without asking the queue: the workloads route
//!   round-robin from a fresh queue and give each producer its own thread
//!   id, so producer `p`'s `seq`-th enqueue lands on shard `seq % shards`;
//! * leased runs: every nacked item came back exactly once, with delivery
//!   count 2, and was acked once.

const SEQ_BITS: u32 = 40;
const PRODUCER_BITS: u32 = 8;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Encodes `producer`'s `seq`-th item of a run tagged `tag`.
#[inline]
pub fn item(tag: u16, producer: usize, seq: u64) -> u64 {
    debug_assert!(tag != 0 && producer < 1 << PRODUCER_BITS && seq <= SEQ_MASK);
    (tag as u64) << (SEQ_BITS + PRODUCER_BITS) | (producer as u64) << SEQ_BITS | seq
}

/// Splits an item into `(tag, producer, seq)`.
#[inline]
pub fn decode(item: u64) -> (u16, usize, u64) {
    (
        (item >> (SEQ_BITS + PRODUCER_BITS)) as u16,
        ((item >> SEQ_BITS) & ((1 << PRODUCER_BITS) - 1)) as usize,
        item & SEQ_MASK,
    )
}

/// A growable bit set over sequence numbers.
#[derive(Default, Clone)]
struct Bits(Vec<u64>);

impl Bits {
    /// Sets bit `i`; returns whether it was already set.
    fn set(&mut self, i: u64) -> bool {
        let w = (i / 64) as usize;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        let mask = 1 << (i % 64);
        let was = self.0[w] & mask != 0;
        self.0[w] |= mask;
        was
    }

    fn get(&self, i: u64) -> bool {
        self.0
            .get((i / 64) as usize)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Set bits at or above `n`.
    fn ones_from(&self, n: u64) -> u64 {
        self.0
            .iter()
            .enumerate()
            .map(|(w, &bits)| {
                let first = w as u64 * 64;
                let keep = if first >= n {
                    bits
                } else if first + 64 <= n {
                    0
                } else {
                    bits & !((1u64 << (n - first)) - 1)
                };
                keep.count_ones() as u64
            })
            .sum()
    }
}

/// What one consumer (or the post-recovery drain) received.
#[derive(Clone)]
pub struct Tally {
    tag: u16,
    shards: usize,
    seen: Vec<Bits>,
    /// Deliveries with count 2 (the redelivery of a nacked item).
    second: Vec<Bits>,
    /// The last sequence number taken per producer and shard, at
    /// `producer * shards + shard`.
    last: Vec<Option<u64>>,
    repeats: u64,
    second_repeats: u64,
    foreign: u64,
    reordered: u64,
}

impl Tally {
    pub fn new(tag: u16, producers: usize, shards: usize) -> Self {
        Tally {
            tag,
            shards,
            seen: vec![Bits::default(); producers],
            second: vec![Bits::default(); producers],
            last: vec![None; producers * shards],
            repeats: 0,
            second_repeats: 0,
            foreign: 0,
            reordered: 0,
        }
    }

    /// Records one delivery of `item` with delivery count `delivery`.
    #[inline]
    pub fn observe(&mut self, item: u64, delivery: u32) {
        let (t, p, seq) = decode(item);
        if t != self.tag || p >= self.seen.len() {
            self.foreign += 1;
            return;
        }
        self.repeats += self.seen[p].set(seq) as u64;
        if delivery == 2 {
            self.second_repeats += self.second[p].set(seq) as u64;
        }
        self.follow(item, delivery);
    }

    /// Continues this consumer's per-shard FIFO order with `item` without
    /// counting it as received here (used for the survivors drained after
    /// recovery, which must come after everything this consumer took).
    #[inline]
    pub fn follow(&mut self, item: u64, delivery: u32) {
        let (t, p, seq) = decode(item);
        if delivery != 1 || t != self.tag || p >= self.seen.len() {
            return;
        }
        let last = &mut self.last[p * self.shards + (seq % self.shards as u64) as usize];
        if last.is_some_and(|l| l >= seq) {
            self.reordered += 1;
        } else {
            *last = Some(seq);
        }
    }
}

/// The verification result. Every field but `attempted` counts failures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Items enqueued.
    pub attempted: u64,
    pub lost: u64,
    pub duplicated: u64,
    pub foreign: u64,
    pub reordered: u64,
    /// Nacked items not redelivered exactly once.
    pub redelivery: u64,
    /// Calls that returned an error.
    pub errors: u64,
}

impl std::ops::AddAssign for Verdict {
    fn add_assign(&mut self, o: Verdict) {
        self.attempted += o.attempted;
        self.lost += o.lost;
        self.duplicated += o.duplicated;
        self.foreign += o.foreign;
        self.reordered += o.reordered;
        self.redelivery += o.redelivery;
        self.errors += o.errors;
    }
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.lost + self.duplicated + self.foreign + self.reordered + self.redelivery + self.errors
    }

    pub fn summary(&self) -> String {
        format!(
            "{} of {} items failed (lost {}, duplicated {}, foreign {}, out of order {}, \
             bad redelivery {}, call errors {})",
            self.failed(),
            self.attempted,
            self.lost,
            self.duplicated,
            self.foreign,
            self.reordered,
            self.redelivery,
            self.errors
        )
    }
}

/// Checks the tallies of every consumer and of the drain against
/// `produced[p]` items enqueued by each producer `p`, with `nacked` the
/// items nacked during the run and `errors` the calls that failed.
pub fn verify(produced: &[u64], tallies: &[Tally], nacked: &[u64], errors: u64) -> Verdict {
    let mut v = Verdict {
        attempted: produced.iter().sum(),
        errors,
        ..Verdict::default()
    };
    for t in tallies {
        v.duplicated += t.repeats;
        v.redelivery += t.second_repeats;
        v.foreign += t.foreign;
        v.reordered += t.reordered;
    }
    for (p, &n) in produced.iter().enumerate() {
        for seq in 0..n {
            match tallies.iter().filter(|t| t.seen[p].get(seq)).count() {
                0 => v.lost += 1,
                1 => {}
                k => v.duplicated += k as u64 - 1,
            }
        }
        v.foreign += tallies.iter().map(|t| t.seen[p].ones_from(n)).sum::<u64>();
    }
    for &item in nacked {
        let (tag, p, seq) = decode(item);
        let count = |bits: fn(&Tally) -> &Vec<Bits>| {
            tallies
                .iter()
                .filter(|t| t.tag == tag && p < t.seen.len() && bits(t)[p].get(seq))
                .count()
        };
        if count(|t| &t.second) != 1 || count(|t| &t.seen) != 1 {
            v.redelivery += 1;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    const TAG: u16 = 0x5EED;

    /// A queue double that runs a scripted fault on one item.
    #[derive(Clone, Copy)]
    enum Fault {
        None,
        Drop(u64),
        Duplicate(u64),
        /// Hands out `item` one place later than FIFO order would.
        Delay(u64),
    }

    struct Double {
        q: VecDeque<u64>,
        fault: Fault,
        held: Option<u64>,
    }

    impl Double {
        fn enqueue(&mut self, item: u64) {
            match self.fault {
                Fault::Drop(x) if x == item => {}
                Fault::Duplicate(x) if x == item => {
                    self.q.push_back(item);
                    self.q.push_back(item);
                }
                _ => self.q.push_back(item),
            }
        }

        fn dequeue(&mut self) -> Option<u64> {
            let next = self.q.pop_front();
            match (next, &self.fault) {
                (Some(x), Fault::Delay(d)) if x == *d => {
                    self.held = Some(x);
                    self.fault = Fault::None;
                    self.q.pop_front()
                }
                (Some(x), _) => {
                    if let Some(h) = self.held.take() {
                        self.q.push_front(h);
                    }
                    Some(x)
                }
                (None, _) => self.held.take(),
            }
        }
    }

    /// Round-robin shards over [`Double`]s, routed like `ShardedQueue`:
    /// each producer's `seq`-th enqueue goes to shard `seq % shards`, and
    /// dequeues scan the shards from a rotating start.
    struct Sharded {
        shards: Vec<Double>,
        next: usize,
    }

    impl Sharded {
        fn new(shards: usize, fault: Fault) -> Self {
            let double = || Double {
                q: VecDeque::new(),
                fault,
                held: None,
            };
            Sharded {
                shards: (0..shards).map(|_| double()).collect(),
                next: 0,
            }
        }

        fn enqueue(&mut self, item: u64) {
            let n = self.shards.len() as u64;
            self.shards[(decode(item).2 % n) as usize].enqueue(item);
        }

        fn dequeue(&mut self) -> Option<u64> {
            let n = self.shards.len();
            (0..n).find_map(|i| {
                let s = (self.next + i) % n;
                let x = self.shards[s].dequeue()?;
                self.next = s + 1;
                Some(x)
            })
        }
    }

    /// Two producers enqueue 50 items each into `shards` shards, a
    /// consumer takes 60, the rest is drained as after recovery.
    fn run_on(shards: usize, fault: Fault) -> Verdict {
        let mut q = Sharded::new(shards, fault);
        for seq in 0..50 {
            q.enqueue(item(TAG, 0, seq));
            q.enqueue(item(TAG, 1, seq));
        }
        let mut consumer = Tally::new(TAG, 2, shards);
        for x in (0..60).filter_map(|_| q.dequeue()) {
            consumer.observe(x, 1);
        }
        let mut drained = Tally::new(TAG, 2, shards);
        while let Some(x) = q.dequeue() {
            drained.observe(x, 1);
            consumer.follow(x, 1);
        }
        verify(&[50, 50], &[consumer, drained], &[], 0)
    }

    fn run(fault: Fault) -> Verdict {
        run_on(1, fault)
    }

    #[test]
    fn a_correct_queue_passes() {
        for shards in [1, 2] {
            let v = run_on(shards, Fault::None);
            assert_eq!(v.failed(), 0, "{}", v.summary());
            assert_eq!(v.attempted, 100);
        }
    }

    #[test]
    fn a_dropped_item_is_flagged() {
        let v = run(Fault::Drop(item(TAG, 1, 17)));
        assert_eq!((v.lost, v.failed()), (1, 1), "{}", v.summary());
    }

    #[test]
    fn a_duplicated_item_is_flagged() {
        let v = run(Fault::Duplicate(item(TAG, 0, 3)));
        assert_eq!(v.duplicated, 1, "{}", v.summary());
        assert_eq!(v.lost, 0);
    }

    #[test]
    fn a_reordered_item_is_flagged() {
        let v = run(Fault::Delay(item(TAG, 0, 10)));
        assert_eq!((v.lost, v.duplicated), (0, 0), "{}", v.summary());
        assert_eq!(v.reordered, 1, "{}", v.summary());
        // Reordering across the consumed/drained boundary is caught too.
        let v = run(Fault::Delay(item(TAG, 0, 29)));
        assert_eq!(v.reordered, 1, "{}", v.summary());
    }

    #[test]
    fn an_item_reordered_within_its_shard_is_flagged() {
        // Shard 0 hands out producer 0's seq 12 before its seq 10 (or
        // shard 1 producer 1's seq 27 before its 25); the other shard's
        // items interleave with both.
        for x in [item(TAG, 0, 10), item(TAG, 1, 25)] {
            let v = run_on(2, Fault::Delay(x));
            assert_eq!((v.lost, v.duplicated), (0, 0), "{}", v.summary());
            assert_eq!(v.reordered, 1, "{}", v.summary());
        }
    }

    #[test]
    fn shards_order_only_their_own_items() {
        let check = |seqs: &[u64], shards| {
            let mut t = Tally::new(TAG, 1, shards);
            for &s in seqs {
                t.observe(item(TAG, 0, s), 1);
            }
            verify(&[seqs.len() as u64], &[t], &[], 0)
        };
        // Shard 0 holds the even items, shard 1 the odd ones.
        assert_eq!(check(&[1, 0, 3, 2, 5, 4], 2).failed(), 0);
        assert_eq!(check(&[1, 0, 3, 2, 5, 4], 1).reordered, 3);
        // A one-item swap inside shard 0 (4 before 2).
        assert_eq!(check(&[0, 1, 4, 2, 3, 5], 2).reordered, 1);
    }

    #[test]
    fn foreign_items_and_bad_redeliveries_are_flagged() {
        let (a, b) = (item(TAG, 0, 0), item(TAG, 0, 1));
        let mut t = Tally::new(TAG, 1, 1);
        t.observe(b, 1);
        t.observe(a, 2);
        t.observe(item(TAG ^ 1, 0, 0), 1);
        t.observe(item(TAG, 0, 5), 1);
        // `a` was redelivered once; `b` was nacked but never came back
        // with delivery count 2; seq 5 was never enqueued.
        let v = verify(&[2], &[t], &[a, b], 1);
        assert_eq!((v.foreign, v.redelivery, v.errors, v.lost), (2, 1, 1, 0));
    }

    #[test]
    fn items_round_trip_through_the_encoding() {
        let x = item(0xBEEF, 3, 123_456_789);
        assert_eq!(decode(x), (0xBEEF, 3, 123_456_789));
        assert_ne!(item(1, 0, 0), 0);
    }
}
