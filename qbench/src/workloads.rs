//! The workloads. Each builds its stack through the layers' public
//! APIs, runs a closed loop (every client waits for its call to return),
//! crashes the queue, recovers it and checks what survived.
//!
//! A "crash" here skips every destructor (`mem::forget`), exactly what a
//! `kill -9` leaves behind: file pools keep whatever reached the page
//! cache, the ack log keeps whatever was written, and nothing is marked
//! clean. The simulated pool crashes through `simulate_crash`.

use crate::check::{item, verify, Tally, Verdict};
use crate::stats::Histogram;
use crate::trace::{self, Analysis, Op};
use crate::wrap::{register_shard, Traced, TracedBackend};
use durable_queues::{DurableQueue, OptUnlinkedQueue, QueueConfig, RecoverableQueue};
use lease::{
    create_leased_dir, open_leased_dir, LeaseConfig, LeaseDirConfig, LeaseStats, LeasedQueue,
    DLQ_POOL_FILE,
};
use pmem::{LatencyModel, PmemPool, PoolConfig, StatsSnapshot};
use shard::{
    RecoveryOrchestrator, RecoveryReport, RoutePolicy, ShardConfig, ShardManifest, ShardedQueue,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};
use store::{FileConfig, FilePool, SyncPolicy};

/// Times the simulated pool is set up in one run (the median is
/// reported); a leased run sets up once per round.
const SETUPS: usize = 7;
/// Times the crashed simulated pool is recovered in one run (the median
/// is reported): a 32 MiB image copy plus the scan takes tens of
/// milliseconds and swings with page-fault costs.
const SIM_RECOVERIES: usize = 25;
/// Spans one thread may buffer in a traced phase.
const SPAN_CAPACITY: usize = 1 << 20;

/// A workload's fixed shape.
pub struct Workload {
    pub name: &'static str,
    /// Client threads it runs (never more than the CPUs).
    pub threads: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sim-pairs",
        threads: 2,
        why: "the paper's Figure 2 enqueue-dequeue pairs: OptUnlinkedQ on the simulated \
              pool with Optane-like latencies, queue size 10",
    },
    Workload {
        name: "file-leased",
        threads: 2,
        why: "peek-lock consumption over 2 process-crash shards, 5% nacks: the ack-log \
              append dominates",
    },
];

/// Inputs of one run.
pub struct Ctx {
    pub seed: u64,
    pub secs: f64,
    /// Scratch directory for pool files; removed by the caller.
    pub dir: PathBuf,
}

impl Ctx {
    /// The run's item tag: derived from the seed, never 0.
    pub fn tag(&self) -> u16 {
        (mix(self.seed) as u16).max(1)
    }

    /// Whether the first delivery of `item` is nacked: a seeded 5%.
    fn nacks(&self, item: u64) -> bool {
        mix(self.seed ^ item.rotate_left(17)) % 100 < 5
    }
}

/// SplitMix64's finaliser.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The timed sim-pairs phase is cut into this many slices (a leased run's
/// slices are its rounds); the end-to-end figures are medians over the
/// slices, so a stall that hits one slice moves them less than it moves a
/// whole-run figure.
pub const SLICES: usize = 20;

/// One slice of a measured phase.
#[derive(Default, Clone)]
pub struct Slice {
    pub enq: Histogram,
    pub consume: Histogram,
    pub consumed: u64,
    /// When the slice's first and last items were consumed.
    pub first: Option<Instant>,
    pub last: Option<Instant>,
}

impl Slice {
    /// Items consumed per second within the slice.
    pub fn rate(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) if b > a => (self.consumed - 1) as f64 / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }

    fn merge(&mut self, other: &Slice) {
        self.enq.merge(&other.enq);
        self.consume.merge(&other.consume);
        self.consumed += other.consumed;
        self.first = match (self.first, other.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last = self.last.max(other.last);
    }
}

/// The slice of a timed phase that `now` falls in.
fn slice_at(now: Instant, start: Instant, dur: Duration) -> usize {
    let share = (now - start).as_secs_f64() / dur.as_secs_f64();
    ((share * SLICES as f64) as usize).min(SLICES - 1)
}

/// Everything one measured phase produced.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Length of the measured phase.
    pub secs: f64,
    pub slices: Vec<Slice>,
    pub enqueued: u64,
    /// Items consumed (acked, for leased workloads).
    pub consumed: u64,
    pub enq: Histogram,
    pub consume: Histogram,
    pub nack: Histogram,
    pub dequeue_calls: u64,
    /// Persistence counters over the phase.
    pub pmem: StatsSnapshot,
    pub model: Option<LatencyModel>,
    pub recovery_s: Vec<f64>,
    pub report: Option<RecoveryReport>,
    /// Bytes the deployment holds at the end of the phase: pool files
    /// plus ack log on disk, or the simulated pool's allocation watermark.
    pub disk_bytes: u64,
    /// Items `disk_bytes` is counted against: every item enqueued for file
    /// pools, whose use grows with the items moved; the items live at once
    /// for the simulated pool, whose allocator recycles nodes, so that its
    /// watermark does not grow with the run.
    pub disk_items: u64,
    /// Pool bytes in use (allocation watermarks) at the end of the phase.
    pub pool_bytes: u64,
    pub lease: Option<LeaseStats>,
    /// Ack-log bytes rewritten by compactions (traced runs only).
    pub compaction_bytes: u64,
    pub verdict: Verdict,
    pub spans: Option<Analysis>,
    /// One-line description of the inputs.
    pub inputs: String,
}

/// One client thread's results.
struct Client {
    enq: Histogram,
    consume: Histogram,
    nack: Histogram,
    enqueued: u64,
    consumed: u64,
    dequeue_calls: u64,
    nacked: Vec<u64>,
    errors: u64,
    compaction_bytes: u64,
    tally: Tally,
    slices: Vec<Slice>,
    end: Option<Instant>,
}

impl Client {
    fn new(tally: Tally, slices: usize) -> Self {
        Client {
            enq: Histogram::default(),
            consume: Histogram::default(),
            nack: Histogram::default(),
            enqueued: 0,
            consumed: 0,
            dequeue_calls: 0,
            nacked: Vec::new(),
            errors: 0,
            compaction_bytes: 0,
            tally,
            slices: vec![Slice::default(); slices],
            end: None,
        }
    }

    /// Records one enqueue call that took `ns`, in slice `k`.
    #[inline]
    fn enqueued(&mut self, k: usize, ns: u64) {
        self.enq.record(ns);
        self.slices[k].enq.record(ns);
        self.enqueued += 1;
    }

    /// Records one item consumed in `ns`, ending at `now`, in slice `k`.
    #[inline]
    fn consumed(&mut self, k: usize, now: Instant, ns: u64, item: u64, delivery: u32) {
        self.consume.record(ns);
        let slice = &mut self.slices[k];
        slice.consume.record(ns);
        slice.consumed += 1;
        slice.first.get_or_insert(now);
        slice.last = Some(now);
        self.consumed += 1;
        self.tally.observe(item, delivery);
    }
}

/// Client results merged into `run`, their slices appended to its
/// slices; returns the tallies.
fn absorb(run: &mut Run, clients: Vec<Client>, start: Instant) -> (Vec<Tally>, Vec<u64>, u64) {
    note_memory();
    let mut slices: Vec<Slice> = Vec::new();
    let mut tallies = Vec::new();
    let mut nacked = Vec::new();
    let mut errors = 0;
    let mut end = start;
    for c in clients {
        run.enq.merge(&c.enq);
        run.consume.merge(&c.consume);
        run.nack.merge(&c.nack);
        run.enqueued += c.enqueued;
        run.consumed += c.consumed;
        run.dequeue_calls += c.dequeue_calls;
        run.compaction_bytes += c.compaction_bytes;
        slices.resize(c.slices.len(), Slice::default());
        for (into, from) in slices.iter_mut().zip(&c.slices) {
            into.merge(from);
        }
        nacked.extend(c.nacked);
        errors += c.errors;
        end = end.max(c.end.unwrap_or(start));
        tallies.push(c.tally);
    }
    run.slices.extend(slices);
    run.secs += (end - start).as_secs_f64();
    (tallies, nacked, errors)
}

/// Runs `body(tid, start)` on `threads` client threads that start
/// together; a traced phase gives each thread a span buffer.
fn clients<F>(threads: usize, traced: bool, body: F) -> (Vec<Client>, Instant)
where
    F: Fn(usize, Instant) -> Client + Sync,
{
    let barrier = Barrier::new(threads);
    let start = OnceLock::new();
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (barrier, start, body) = (&barrier, &start, &body);
                s.spawn(move || {
                    if traced {
                        trace::thread_begin(SPAN_CAPACITY);
                    }
                    barrier.wait();
                    let t0 = *start.get_or_init(Instant::now);
                    let c = body(tid, t0);
                    trace::thread_end();
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (out, *start.get().expect("clients ran"))
}

static PEAK_ANON_KIB: AtomicU64 = AtomicU64::new(0);

/// Samples this process's anonymous resident memory (heap, simulated
/// pools, lease state) into the peak [`peak_memory_mb`] reports. Pages of
/// mapped pool files are left out: they are counted by the disk metrics,
/// and they grow with the items a run moves.
pub fn note_memory() {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("RssAnon:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .unwrap_or(0);
    PEAK_ANON_KIB.fetch_max(kib, Ordering::Relaxed);
}

/// Peak of the [`note_memory`] samples, in MiB.
pub fn peak_memory_mb() -> f64 {
    PEAK_ANON_KIB.load(Ordering::Relaxed) as f64 / 1024.0
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn stop(now: Instant, deadline: Instant, traced: bool) -> bool {
    now >= deadline || (traced && trace::is_full())
}

/// Bytes allocated on disk to the files directly in `dir` (pool files
/// are sparse until written).
fn dir_bytes(dir: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.blocks() * 512)
                .sum()
        })
        .unwrap_or(0)
}

/// Empties every file in `dir`, then removes it. Only for deployments
/// whose queues were forgotten and are never touched again: their
/// mappings would otherwise keep the files' space, and the kernel would
/// still write their dirty pages back under the rounds that follow.
fn discard_dir(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_file() {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(0)?;
        }
    }
    std::fs::remove_dir_all(dir)
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// Runs `make` [`SETUPS`] times, timing each; keeps the last result and
/// drops the others as soon as they are timed.
fn set_up<T>(mut make: impl FnMut() -> io::Result<T>) -> io::Result<(Vec<f64>, T)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let made = make()?;
        times.push(t.elapsed().as_secs_f64());
        note_memory();
        kept = Some(made);
    }
    Ok((times, kept.expect("set up at least once")))
}

// ----------------------------------------------------------------------
// sim-pairs
// ----------------------------------------------------------------------

const SIM_THREADS: usize = 2;
const SIM_QUEUE_SIZE: u64 = 10;
const SIM_POOL_BYTES: usize = 32 << 20;

pub fn sim_pairs(ctx: &Ctx, traced: bool) -> io::Result<Run> {
    if traced {
        sim_pairs_on::<Traced<OptUnlinkedQueue>>(ctx, true)
    } else {
        sim_pairs_on::<OptUnlinkedQueue>(ctx, false)
    }
}

fn sim_pairs_on<Q: RecoverableQueue>(ctx: &Ctx, traced: bool) -> io::Result<Run> {
    let tag = ctx.tag();
    let qcfg = QueueConfig::bench(SIM_THREADS);
    let pcfg = PoolConfig::bench(SIM_POOL_BYTES);
    let producers = SIM_THREADS + 1; // the last one is the pre-fill
    let (setup_s, q) = set_up(|| {
        let q = Q::create(Arc::new(PmemPool::new(pcfg)), qcfg);
        for seq in 0..SIM_QUEUE_SIZE {
            q.enqueue(0, item(tag, SIM_THREADS, seq));
        }
        Ok(q)
    })?;
    let mut run = Run {
        setup_s,
        model: Some(pcfg.latency),
        inputs: format!(
            "{SIM_THREADS} threads of enqueue-dequeue pairs on a queue of {SIM_QUEUE_SIZE}, \
             {} MiB simulated pool",
            SIM_POOL_BYTES >> 20
        ),
        ..Run::default()
    };
    let before = q.stats();
    let dur = Duration::from_secs_f64(ctx.secs);
    let (clients, start) = clients(SIM_THREADS, traced, |tid, start| {
        let deadline = start + dur;
        let mut c = Client::new(Tally::new(tag, producers, 1), SLICES);
        loop {
            let x = item(tag, tid, c.enqueued);
            let t0 = Instant::now();
            let s = if traced {
                trace::enter(Op::ClientEnqueue, 0, x)
            } else {
                0
            };
            q.enqueue(tid, x);
            trace::exit(s, None);
            let t1 = Instant::now();
            let s = if traced {
                trace::enter(Op::ClientConsume, 0, 0)
            } else {
                0
            };
            let v = q.dequeue(tid);
            trace::exit(s, Some(v.unwrap_or(0)));
            let t2 = Instant::now();
            let k = slice_at(t2, start, dur);
            c.enqueued(k, ns(t1 - t0));
            c.dequeue_calls += 1;
            if let Some(v) = v {
                c.consumed(k, t2, ns(t2 - t1), v, 1);
            }
            if stop(t2, deadline, traced) {
                c.end = Some(t2);
                return c;
            }
        }
    });
    run.pmem = q.stats() - before;
    run.disk_bytes = q.pool().watermark() as u64;
    // The pre-fill plus one item in flight per thread.
    run.disk_items = SIM_QUEUE_SIZE + SIM_THREADS as u64;
    run.spans = traced.then(|| trace::analyze(&trace::harvest()));
    let mut produced: Vec<u64> = clients.iter().map(|c| c.enqueued).collect();
    produced.push(SIM_QUEUE_SIZE);
    let (mut tallies, _, _) = absorb(&mut run, clients, start);

    // Crash and recover (a few times; the median is reported), then drain.
    let mut recovered = None;
    for _ in 0..SIM_RECOVERIES {
        drop(recovered.take());
        let t = Instant::now();
        let image = Arc::new(q.pool().simulate_crash());
        let r = OptUnlinkedQueue::recover(image, qcfg);
        run.recovery_s.push(t.elapsed().as_secs_f64());
        recovered = Some(r);
    }
    let r = recovered.expect("recovered");
    let mut drained = Tally::new(tag, producers, 1);
    while let Some(v) = r.dequeue(0) {
        drained.observe(v, 1);
        tallies.iter_mut().for_each(|t| t.follow(v, 1));
    }
    tallies.push(drained);
    note_memory();
    run.verdict = verify(&produced, &tallies, &[], 0);
    Ok(run)
}

// ----------------------------------------------------------------------
// Sharded file deployments
// ----------------------------------------------------------------------

const SHARDS: usize = 2;

fn shard_config(queue: QueueConfig, pool: usize) -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        queue,
        pool: PoolConfig::test_with_size(pool),
        policy: RoutePolicy::RoundRobin,
    }
}

/// Creates the pool files and manifest of a sharded directory by hand,
/// with every pool behind a [`TracedBackend`] — the layout
/// `RecoveryOrchestrator::create_dir` writes.
fn create_traced_shards(
    dir: &Path,
    config: ShardConfig,
    file: FileConfig,
) -> io::Result<ShardedQueue<Traced<OptUnlinkedQueue>>> {
    let manifest = ShardManifest::new(config.shards, config.policy);
    let mut pools = Vec::new();
    for (i, path) in manifest.pool_paths(dir).iter().enumerate() {
        let pool = TracedBackend::into_pool(FilePool::create(path, file)?);
        register_shard(&pool, i);
        pools.push(pool);
    }
    manifest.write(dir)?;
    Ok(ShardedQueue::create_on(pools, config))
}

// ----------------------------------------------------------------------
// file-leased
// ----------------------------------------------------------------------

/// Un-acked items the producer may have outstanding.
const LEASE_WINDOW: u64 = 32;
/// Items one round moves. Every round runs on a fresh directory, because
/// the producer's allocator never gets back the nodes the consumer frees:
/// pool use grows by about 150 B per item moved, and rounds keep each
/// pool file to one round's share, so no file the benchmark writes is
/// larger than the benchmark's own binary.
const ROUND_ITEMS: u64 = 50_000;
/// Sparse, so only pages the queue touches take space: room for a
/// shard's half of a round plus the allocator areas that creation and
/// recovery carve.
const LEASE_POOL: usize = 8 << 20;
/// Allocator area size: creation and every recovery carve one per thread
/// out of each shard pool and the dead-letter pool.
const LEASE_AREA: u32 = 512 << 10;
const LEASE_THREADS: usize = 2;

/// Process-crash durability: fences order stores in the page cache, and
/// nothing is forced to the disk.
const LEASE_SYNC: SyncPolicy = SyncPolicy::ProcessCrash;

fn lease_dir_config() -> LeaseDirConfig {
    LeaseDirConfig {
        // Long enough that nothing expires: redelivery comes from nacks.
        lease_timeout: Duration::from_secs(600),
        sync: LEASE_SYNC,
        // Creation and the round's recovery each carve allocator areas
        // out of the dead-letter pool.
        dlq_bytes: 4 << 20,
        ..LeaseDirConfig::default()
    }
}

/// [`create_leased_dir`] with the shard pools behind [`TracedBackend`]s
/// and a `shard` span around the base queue.
fn create_traced_leased(
    dir: &Path,
    config: ShardConfig,
    file: FileConfig,
    lease: &LeaseDirConfig,
) -> io::Result<LeasedQueue<Traced<ShardedQueue<Traced<OptUnlinkedQueue>>>>> {
    let base = Traced::shard_layer(create_traced_shards(dir, config, file)?);
    let dlq_file = FileConfig::with_size(lease.dlq_bytes).with_sync(lease.sync);
    let dlq_pool = FilePool::create(dir.join(DLQ_POOL_FILE), dlq_file)?.into_pool();
    let dlq: Arc<dyn DurableQueue> = Arc::new(OptUnlinkedQueue::create(dlq_pool, config.queue));
    let lease_config = LeaseConfig::new(dir)
        .with_timeout(lease.lease_timeout)
        .with_max_deliveries(lease.max_deliveries)
        .with_sync(lease.sync)
        .with_compact_after(lease.compact_after);
    LeasedQueue::create(base, Some(dlq), lease_config)
}

/// What a round's phase hands to the post-recovery check.
struct Consumed {
    produced: u64,
    tallies: Vec<Tally>,
    nacked: Vec<u64>,
    errors: u64,
}

pub fn leased(ctx: &Ctx, traced: bool) -> io::Result<Run> {
    let orch = RecoveryOrchestrator::new(LEASE_THREADS);
    let queue = QueueConfig {
        max_threads: LEASE_THREADS,
        area_size: LEASE_AREA,
    };
    let config = shard_config(queue, LEASE_POOL);
    let file = FileConfig::with_size(LEASE_POOL).with_sync(LEASE_SYNC);
    let lease = lease_dir_config();
    let rounds = lease_rounds(ctx.secs);
    let mut run = Run {
        inputs: format!(
            "{rounds} rounds of {ROUND_ITEMS} items from 1 producer (at most {LEASE_WINDOW} \
             un-acked) to 1 consumer, each on a fresh directory of {SHARDS} {} shards of {} MiB; \
             a seeded 5% of items nacked once",
            LEASE_SYNC.key(),
            LEASE_POOL >> 20,
        ),
        ..Run::default()
    };
    for round in 0..rounds {
        let dir = ctx.dir.join(format!("round-{round}"));
        let mut seen = if traced {
            leased_round(
                ctx,
                &dir,
                &mut run,
                true,
                |d| create_traced_leased(d, config, file, &lease),
                |q| q.base().inner().pools(),
            )?
        } else {
            leased_round(
                ctx,
                &dir,
                &mut run,
                false,
                |d| create_leased_dir::<OptUnlinkedQueue>(&orch, d, config, file, &lease),
                |q| q.base().pools(),
            )?
        };

        // Recover, then drain and check.
        let t = Instant::now();
        let (q, report, _) =
            open_leased_dir::<OptUnlinkedQueue>(&orch, &dir, config.queue, &lease, None)?;
        run.recovery_s.push(t.elapsed().as_secs_f64());
        run.report = Some(report);
        let mut drained = Tally::new(ctx.tag(), 1, SHARDS);
        while let Some(l) = q.dequeue(0) {
            if q.ack(&l).is_err() {
                seen.errors += 1;
            }
            drained.observe(l.item, l.delivery_count);
            for t in &mut seen.tallies {
                t.follow(l.item, l.delivery_count);
            }
        }
        // Forgotten, not closed: a clean close would msync and fsync the
        // MiB the round wrote to files that are deleted right after,
        // loading the disk under the rounds that follow.
        std::mem::forget(q);
        seen.tallies.push(drained);
        note_memory();
        run.verdict += verify(&[seen.produced], &seen.tallies, &seen.nacked, seen.errors);
        discard_dir(&dir)?;
    }
    Ok(run)
}

/// Rounds a leased run makes: about what the workload moves in `secs` on
/// a 2-CPU VM. The count, not the time, is fixed, so every commit does
/// the same work — the memory the lease layer and the allocator keep per
/// item moved, the log compactions — and the run still takes about `secs`.
fn lease_rounds(secs: f64) -> u64 {
    ((200_000.0 * secs) as u64 / ROUND_ITEMS).max(1)
}

/// Sets up a leased deployment in `dir` with `make` (timed), runs one
/// round's producer/consumer phase on it, adds the round to `run` as one
/// slice and crashes the deployment.
fn leased_round<B: DurableQueue>(
    ctx: &Ctx,
    dir: &Path,
    run: &mut Run,
    traced: bool,
    make: impl Fn(&Path) -> io::Result<LeasedQueue<B>>,
    pools: impl Fn(&LeasedQueue<B>) -> Vec<Arc<PmemPool>>,
) -> io::Result<Consumed> {
    fresh_dir(dir)?;
    let t = Instant::now();
    let q = make(dir)?;
    run.setup_s.push(t.elapsed().as_secs_f64());
    note_memory();
    let before = q.base().stats();
    let phase = LeasePhase {
        ctx,
        total: ROUND_ITEMS,
        traced,
        acked: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };
    let (clients, start) = clients(LEASE_THREADS, traced, |tid, start| {
        // A cap far above a round's half second, so a pathological build
        // still ends the run.
        let cap = start + Duration::from_secs(30);
        let mut c = Client::new(Tally::new(ctx.tag(), 1, SHARDS), 1);
        if tid == 0 {
            phase.produce(&q, &mut c, cap);
        } else {
            phase.consume(&q, &mut c, cap);
        }
        c
    });
    run.pmem += q.base().stats() - before;
    let stats = q.stats();
    let lease = run.lease.get_or_insert_with(LeaseStats::default);
    lease.granted += stats.granted;
    lease.redelivered += stats.redelivered;
    lease.acked += stats.acked;
    lease.nacked += stats.nacked;
    lease.expired += stats.expired;
    lease.dead_lettered += stats.dead_lettered;
    lease.compactions += stats.compactions;
    run.pool_bytes += pools(&q).iter().map(|p| p.watermark() as u64).sum::<u64>();
    run.disk_bytes += dir_bytes(dir);
    if traced {
        run.spans
            .get_or_insert_with(Analysis::empty)
            .add(&trace::harvest());
    }
    let produced = clients[0].enqueued;
    let (tallies, nacked, errors) = absorb(run, clients, start);
    run.disk_items = run.enqueued;
    std::mem::forget(q);
    Ok(Consumed {
        produced,
        tallies,
        nacked,
        errors,
    })
}

/// The shared state of one producer/consumer phase.
struct LeasePhase<'a> {
    ctx: &'a Ctx,
    /// Items the producer enqueues.
    total: u64,
    traced: bool,
    acked: AtomicU64,
    /// Set when the consumer stops.
    done: AtomicBool,
}

impl LeasePhase<'_> {
    fn over(&self, now: Instant, cap: Instant) -> bool {
        now >= cap || (self.traced && trace::is_full())
    }

    /// Enqueues `total` items, keeping fewer than [`LEASE_WINDOW`]
    /// un-acked.
    fn produce<B: DurableQueue>(&self, q: &LeasedQueue<B>, c: &mut Client, cap: Instant) {
        let tag = self.ctx.tag();
        while c.enqueued < self.total {
            let t0 = Instant::now();
            if self.over(t0, cap) || self.done.load(Ordering::Acquire) {
                break;
            }
            if c.enqueued >= self.acked.load(Ordering::Acquire) + LEASE_WINDOW {
                std::hint::spin_loop();
                continue;
            }
            let x = item(tag, 0, c.enqueued);
            let s = if self.traced {
                trace::enter(Op::ClientEnqueue, 0, x)
            } else {
                0
            };
            q.enqueue(0, x);
            trace::exit(s, None);
            c.enqueued(0, ns(t0.elapsed()));
        }
        c.end = Some(Instant::now());
    }

    /// Dequeues, then acks — or nacks, for the seeded 5% on first
    /// delivery — until all but half a window of the items are acked, so
    /// the crash leaves survivors to check.
    fn consume<B: DurableQueue>(&self, q: &LeasedQueue<B>, c: &mut Client, cap: Instant) {
        const TID: usize = 1;
        let target = self.total.saturating_sub(LEASE_WINDOW / 2);
        let span = |op, item| {
            if self.traced {
                trace::enter(op, 0, item)
            } else {
                0
            }
        };
        let mut log_records = 0;
        while c.consumed < target {
            let t0 = Instant::now();
            if self.over(t0, cap) {
                break;
            }
            let s = span(Op::ClientConsume, 0);
            let d = span(Op::LeaseDequeue, 0);
            let lease = q.dequeue(TID);
            trace::exit(d, Some(lease.map_or(0, |l| l.item)));
            c.dequeue_calls += 1;
            let Some(l) = lease else {
                trace::exit(s, Some(0));
                continue;
            };
            if l.delivery_count == 1 && self.ctx.nacks(l.item) {
                let n = span(Op::LeaseNack, l.item);
                let r = q.nack(TID, &l);
                trace::exit(n, None);
                trace::exit(s, Some(l.item));
                c.nack.record(ns(t0.elapsed()));
                c.errors += r.is_err() as u64;
                c.nacked.push(l.item);
                continue;
            }
            let a = span(Op::LeaseAck, l.item);
            let r = q.ack(&l);
            trace::exit(a, None);
            trace::exit(s, Some(l.item));
            let t1 = Instant::now();
            c.consumed(0, t1, ns(t1 - t0), l.item, l.delivery_count);
            c.errors += r.is_err() as u64;
            self.acked.fetch_add(1, Ordering::Release);
            if self.traced {
                // A drop in the record count is a compaction: the log was
                // rewritten as a header plus the live records left.
                let now = q.log_records();
                if now < log_records {
                    c.compaction_bytes +=
                        (lease::log::HEADER_LEN + now as usize * lease::log::RECORD_LEN) as u64;
                }
                log_records = now;
            }
        }
        self.done.store(true, Ordering::Release);
        c.end = Some(Instant::now());
    }
}
