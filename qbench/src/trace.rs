//! Spans recorded around the calls that cross into each layer, and the
//! self-time analysis over them.
//!
//! A span is opened before a call into a layer and closed when it returns;
//! spans opened while another is open on the same thread become its
//! children. Spans go into a per-thread buffer preallocated when the thread
//! starts ([`thread_begin`]); a full buffer drops further spans and raises
//! [`is_full`] so the traced phase can end. Buffers are handed over when the
//! thread ends ([`thread_end`]) and analysed after the run ([`analyze`]).
//! A layer's self time is its span's duration minus the durations of its
//! direct children.

use crate::stats::Histogram;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The call a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// One producer call as the client sees it.
    ClientEnqueue,
    /// One consumed item as the client sees it (dequeue, plus ack when
    /// leased).
    ClientConsume,
    LeaseDequeue,
    LeaseAck,
    LeaseNack,
    ShardEnqueue,
    ShardDequeue,
    CoreEnqueue,
    CoreDequeue,
    StoreSfence,
    StoreFlush,
    StorePersist,
    StoreGrow,
}

/// Number of [`Op`] variants.
pub const OPS: usize = 13;

impl Op {
    pub const ALL: [Op; OPS] = [
        Op::ClientEnqueue,
        Op::ClientConsume,
        Op::LeaseDequeue,
        Op::LeaseAck,
        Op::LeaseNack,
        Op::ShardEnqueue,
        Op::ShardDequeue,
        Op::CoreEnqueue,
        Op::CoreDequeue,
        Op::StoreSfence,
        Op::StoreFlush,
        Op::StorePersist,
        Op::StoreGrow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::ClientEnqueue => "client.enqueue",
            Op::ClientConsume => "client.consume",
            Op::LeaseDequeue => "lease.dequeue",
            Op::LeaseAck => "lease.ack",
            Op::LeaseNack => "lease.nack",
            Op::ShardEnqueue => "shard.enqueue",
            Op::ShardDequeue => "shard.dequeue",
            Op::CoreEnqueue => "core.enqueue",
            Op::CoreDequeue => "core.dequeue",
            Op::StoreSfence => "store.sfence",
            Op::StoreFlush => "store.flush",
            Op::StorePersist => "store.persist_now",
            Op::StoreGrow => "store.try_grow",
        }
    }

    /// The layer (crate) the call crosses into.
    pub fn layer(self) -> &'static str {
        match self {
            Op::ClientEnqueue | Op::ClientConsume => "client",
            Op::LeaseDequeue | Op::LeaseAck | Op::LeaseNack => "lease",
            Op::ShardEnqueue | Op::ShardDequeue => "shard",
            Op::CoreEnqueue | Op::CoreDequeue => "core",
            _ => "store",
        }
    }
}

/// One timed call. `parent` is the index + 1 of the enclosing span in the
/// same thread's buffer (`0` for a root span). `item` is the request id:
/// the item enqueued, or the item a dequeue returned (`0` for none).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: Op,
    /// Shard index for `core` spans under a sharded queue, else 0.
    pub shard: u8,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    pub item: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Buffer {
    spans: Vec<Span>,
    open: u32,
}

thread_local! {
    static BUFFER: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

static FULL: AtomicBool = AtomicBool::new(false);
static HARVEST: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    base().elapsed().as_nanos() as u64
}

/// Gives the calling thread an empty span buffer of `capacity` spans.
pub fn thread_begin(capacity: usize) {
    base();
    BUFFER.with(|b| {
        *b.borrow_mut() = Some(Buffer {
            spans: Vec::with_capacity(capacity),
            open: 0,
        })
    });
}

/// Hands the calling thread's spans to the collector and stops recording
/// on it.
pub fn thread_end() {
    if let Some(buf) = BUFFER.with(|b| b.borrow_mut().take()) {
        HARVEST
            .lock()
            .expect("a span-recording thread panicked")
            .push(buf.spans);
    }
}

/// Takes every buffer handed over since the last call, and clears the
/// full flag.
pub fn harvest() -> Vec<Vec<Span>> {
    FULL.store(false, Ordering::Relaxed);
    std::mem::take(&mut *HARVEST.lock().expect("a span-recording thread panicked"))
}

/// Whether some thread's buffer has filled up since the last [`harvest`].
pub fn is_full() -> bool {
    FULL.load(Ordering::Relaxed)
}

/// Opens a span; returns its token (`0` when not recorded).
#[inline]
pub fn enter(op: Op, shard: u8, item: u64) -> u32 {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        let Some(buf) = b.as_mut() else {
            return 0;
        };
        if buf.spans.len() == buf.spans.capacity() {
            FULL.store(true, Ordering::Relaxed);
            return 0;
        }
        buf.spans.push(Span {
            op,
            shard,
            parent: buf.open,
            start: now_ns(),
            end: 0,
            item,
        });
        buf.open = buf.spans.len() as u32;
        buf.open
    })
}

/// Closes the span `token` opened; `item` overrides the request id when
/// the call produced it (a dequeue).
#[inline]
pub fn exit(token: u32, item: Option<u64>) {
    if token == 0 {
        return;
    }
    let end = now_ns();
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        let Some(buf) = b.as_mut() else { return };
        let span = &mut buf.spans[token as usize - 1];
        span.end = end;
        if let Some(item) = item {
            span.item = item;
        }
        buf.open = span.parent;
    })
}

/// Times `f` as a span of `op` on `item`.
#[inline]
pub fn span<R>(op: Op, item: u64, f: impl FnOnce() -> R) -> R {
    let t = enter(op, 0, item);
    let r = f();
    exit(t, None);
    r
}

/// Per-[`Op`] figures over a set of spans.
#[derive(Default)]
pub struct OpFigures {
    pub count: u64,
    /// Spans whose call returned no item (empty dequeues).
    pub empty: u64,
    pub total_ns: u64,
    pub self_ns: Histogram,
    /// Direct children per child op.
    pub children: [u64; OPS],
}

/// The analysed trace.
pub struct Analysis {
    pub ops: Vec<OpFigures>,
    /// `core.enqueue` spans per shard index.
    pub enqueues_per_shard: Vec<u64>,
    /// `self_under[root][op]`: self time of `op` spans summed over the
    /// trees rooted at `root` spans.
    pub self_under: [[u64; OPS]; OPS],
    pub spans: u64,
}

impl Analysis {
    pub fn empty() -> Self {
        Analysis {
            ops: (0..OPS).map(|_| OpFigures::default()).collect(),
            enqueues_per_shard: Vec::new(),
            self_under: [[0; OPS]; OPS],
            spans: 0,
        }
    }

    pub fn op(&self, op: Op) -> &OpFigures {
        &self.ops[op as usize]
    }

    /// Consume calls that returned an item.
    pub fn consumed(&self) -> u64 {
        let c = self.op(Op::ClientConsume);
        c.count - c.empty
    }

    /// Total time of every root (client) span.
    pub fn client_busy_ns(&self) -> u64 {
        self.op(Op::ClientEnqueue).total_ns + self.op(Op::ClientConsume).total_ns
    }
}

/// Computes per-op counts, durations and self times over the spans of
/// every thread.
pub fn analyze(threads: &[Vec<Span>]) -> Analysis {
    let mut a = Analysis::empty();
    a.add(threads);
    a
}

impl Analysis {
    /// Adds the spans of more threads (each buffer a whole thread's
    /// spans, so every parent is in the same buffer as its children).
    pub fn add(&mut self, threads: &[Vec<Span>]) {
        let a = self;
        for spans in threads {
            let mut child_ns = vec![0u64; spans.len()];
            // Parents are pushed before their children, so one forward pass
            // finds every span's root.
            let mut root = vec![Op::ClientEnqueue; spans.len()];
            for (i, s) in spans.iter().enumerate() {
                if s.parent == 0 {
                    root[i] = s.op;
                    continue;
                }
                let p = s.parent as usize - 1;
                root[i] = root[p];
                child_ns[p] += s.duration();
                a.ops[spans[p].op as usize].children[s.op as usize] += 1;
            }
            for ((s, child), root) in spans.iter().zip(child_ns).zip(root) {
                let own = s.duration().saturating_sub(child);
                a.self_under[root as usize][s.op as usize] += own;
                let f = &mut a.ops[s.op as usize];
                f.count += 1;
                f.total_ns += s.duration();
                f.self_ns.record(own);
                if s.item == 0 {
                    f.empty += 1;
                }
                if s.op == Op::CoreEnqueue {
                    let i = s.shard as usize;
                    if a.enqueues_per_shard.len() <= i {
                        a.enqueues_per_shard.resize(i + 1, 0);
                    }
                    a.enqueues_per_shard[i] += 1;
                }
            }
            a.spans += spans.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(op: Op, parent: u32, start: u64, end: u64, item: u64) -> Span {
        Span {
            op,
            shard: 0,
            parent,
            start,
            end,
            item,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // consume [0,100) > lease.dequeue [10,60) > shard.dequeue [20,50)
        //   > core.dequeue [25,45) > store.sfence [30,35); lease.ack [70,90).
        let spans = vec![
            s(Op::ClientConsume, 0, 0, 100, 9),
            s(Op::LeaseDequeue, 1, 10, 60, 9),
            s(Op::ShardDequeue, 2, 20, 50, 9),
            s(Op::CoreDequeue, 3, 25, 45, 9),
            s(Op::StoreSfence, 4, 30, 35, 0),
            s(Op::LeaseAck, 1, 70, 90, 9),
        ];
        let a = analyze(&[spans]);
        assert_eq!(a.spans, 6);
        assert_eq!(a.op(Op::ClientConsume).self_ns.quantile(0.5), 30.0);
        assert_eq!(a.op(Op::LeaseDequeue).self_ns.quantile(0.5), 20.0);
        assert_eq!(a.op(Op::ShardDequeue).self_ns.quantile(0.5), 10.0);
        assert_eq!(a.op(Op::CoreDequeue).self_ns.quantile(0.5), 15.0);
        assert_eq!(a.op(Op::StoreSfence).self_ns.quantile(0.5), 5.0);
        assert_eq!(a.op(Op::LeaseAck).self_ns.quantile(0.5), 20.0);
        assert_eq!(a.op(Op::ClientConsume).total_ns, 100);
        assert_eq!(a.op(Op::StoreSfence).empty, 1);
        assert_eq!(a.op(Op::ShardDequeue).children[Op::CoreDequeue as usize], 1);
        // The self times of every span add up to the root's duration.
        let total_self: u64 = Op::ALL.iter().map(|&o| a.op(o).self_ns.sum()).sum();
        assert_eq!(total_self, 100);
        let under = a.self_under[Op::ClientConsume as usize];
        assert_eq!(under.iter().sum::<u64>(), 100);
        assert_eq!(under[Op::StoreSfence as usize], 5);
    }

    #[test]
    fn recorded_spans_nest_and_stop_when_the_buffer_is_full() {
        std::thread::spawn(|| {
            thread_begin(3);
            let v = span(Op::ShardDequeue, 0, || {
                let t = enter(Op::CoreDequeue, 1, 0);
                exit(t, Some(42));
                span(Op::CoreDequeue, 0, || 7)
            });
            assert_eq!(v, 7);
            span(Op::LeaseAck, 5, || ());
            assert!(is_full());
            thread_end();
        })
        .join()
        .unwrap();
        let bufs = harvest();
        let spans = bufs.into_iter().find(|b| b.len() == 3).expect("our buffer");
        assert_eq!(spans[0].op, Op::ShardDequeue);
        assert_eq!(spans[0].parent, 0);
        assert_eq!((spans[1].parent, spans[1].shard, spans[1].item), (1, 1, 42));
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.end >= s.start && s.end > 0));
        // The fourth span did not fit.
        assert!(!spans.iter().any(|s| s.op == Op::LeaseAck));
    }
}
