//! End-to-end and per-layer benchmark of the durable-queue stack.
//!
//! ```text
//! qbench --workload NAME --seed N --seconds S --trace 0|1 --dir SCRATCH
//! ```
//!
//! Runs one workload (see `workloads.rs`) from this process, checks after
//! the run that the queue recovered exactly what it should, and prints
//! every metric by name and unit. The last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run is split into
//! an untraced and a traced half and the metrics are the per-layer ones
//! (plus the tracing overhead).

mod check;
mod stats;
mod trace;
mod workloads;
mod wrap;

use stats::{median, Histogram};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use trace::Op;
use workloads::{Ctx, Run, Slice, WORKLOADS};

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("qbench: {msg}");
    eprintln!(
        "usage: qbench --workload {{{}}} --seed N --seconds S --trace 0|1 --dir DIR",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut dir) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or(false),
        dir: dir.unwrap_or_else(|| usage("--dir is required")),
    }
}

fn run(name: &str, ctx: &Ctx, traced: bool) -> io::Result<Run> {
    match name {
        "sim-pairs" => workloads::sim_pairs(ctx, traced),
        "file-leased" => workloads::leased(ctx, traced),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A latency percentile in µs, noting its sample count.
fn percentile_us(name: &'static str, h: &Histogram, q: f64) -> Metric {
    let mut m = metric(name, h.quantile(q) / 1e3, "us");
    m.note = format!("n={}, {} beyond", h.count(), h.beyond(q));
    m
}

/// The median over the run's slices of a latency percentile, in µs.
fn slice_percentile_us(name: &'static str, r: &Run, q: f64, h: fn(&Slice) -> &Histogram) -> Metric {
    let per_slice: Vec<f64> = r
        .slices
        .iter()
        .map(h)
        .filter(|h| h.count() > 0)
        .map(|h| h.quantile(q) / 1e3)
        .collect();
    let least = r.slices.iter().map(|s| h(s).beyond(q)).min().unwrap_or(0);
    let mut m = metric(name, median(&per_slice), "us");
    m.note = format!(
        "median of {} slices; n={} in all, at least {least} beyond in each slice",
        per_slice.len(),
        r.slices.iter().map(|s| h(s).count()).sum::<u64>()
    );
    m
}

fn end_to_end(r: &Run) -> Vec<Metric> {
    let rates: Vec<f64> = r.slices.iter().map(Slice::rate).collect();
    let shown: Vec<String> = rates.iter().map(|x| format!("{x:.0}")).collect();
    println!("items/s by slice: {}", shown.join(" "));
    let mut items = metric("items_per_s", median(&rates), "1/s");
    items.note = format!(
        "median of {} slices; {} items in {:.3} s",
        rates.len(),
        r.consumed,
        r.secs
    );
    let mut recovery = metric("recovery_s", median(&r.recovery_s), "s");
    recovery.note = format!("median of {}", r.recovery_s.len());
    let mut setup = metric("setup_s", median(&r.setup_s), "s");
    setup.note = format!("median of {}", r.setup_s.len());
    vec![
        items,
        slice_percentile_us("enqueue_p50_us", r, 0.5, |s| &s.enq),
        slice_percentile_us("enqueue_p99_us", r, 0.99, |s| &s.enq),
        slice_percentile_us("consume_p50_us", r, 0.5, |s| &s.consume),
        slice_percentile_us("consume_p99_us", r, 0.99, |s| &s.consume),
        recovery,
        setup,
        metric(
            "disk_bytes_per_item",
            ratio(r.disk_bytes as f64, r.disk_items as f64),
            "B",
        ),
        metric("peak_rss_mb", workloads::peak_memory_mb(), "MB"),
    ]
}

fn per_layer(untraced: &Run, r: &Run) -> Vec<Metric> {
    let a = r.spans.as_ref().expect("a traced run records spans");
    let items = r.consumed.max(1) as f64;
    let ops = (r.enqueued + r.dequeue_calls).max(1) as f64;
    let busy = (r.enq.sum() + r.consume.sum() + r.nack.sum()) as f64;
    let p = &r.pmem;
    let stall = r.model.map_or(0.0, |m| {
        (p.fences * m.fence_ns as u64
            + p.flushes * m.flush_ns as u64
            + p.post_flush_accesses * m.nvram_read_ns as u64
            + p.nt_stores * m.nt_store_ns as u64) as f64
    });
    let op = |o: Op| a.op(o);
    let q_ns = |o: Op, q: f64| op(o).self_ns.quantile(q);
    let mut shard_self = op(Op::ShardEnqueue).self_ns.clone();
    shard_self.merge(&op(Op::ShardDequeue).self_ns);
    let per_shard = &a.enqueues_per_shard;
    let skew = if op(Op::ShardEnqueue).count == 0 || per_shard.is_empty() {
        0.0
    } else {
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
        ratio(*per_shard.iter().max().unwrap() as f64, mean)
    };
    let report = r.report.as_ref();
    let sfence = op(Op::StoreSfence);
    let grow = op(Op::StoreGrow);
    let lease = r.lease.unwrap_or_default();
    let records = lease.granted + lease.acked + lease.nacked + lease.expired + lease.dead_lettered;
    let log_bytes = records as usize * lease::log::RECORD_LEN + r.compaction_bytes as usize;
    let consume = &a.self_under[Op::ClientConsume as usize];
    let consume_total: u64 = consume.iter().sum();
    let layer_share = |layer: &str| {
        let ns: u64 = Op::ALL
            .iter()
            .filter(|o| o.layer() == layer)
            .map(|&o| consume[o as usize])
            .sum();
        ratio(ns as f64, consume_total as f64)
    };
    let traced_rate = ratio(r.consumed as f64, r.secs);
    let untraced_rate = ratio(untraced.consumed as f64, untraced.secs);
    vec![
        metric("pmem.fences_per_op", p.fences as f64 / ops, "1/op"),
        metric("pmem.flushes_per_op", p.flushes as f64 / ops, "1/op"),
        metric(
            "pmem.post_flush_per_op",
            p.post_flush_accesses as f64 / ops,
            "1/op",
        ),
        metric("pmem.cas_per_op", p.cas_ops as f64 / ops, "1/op"),
        metric("pmem.modelled_stall_share", ratio(stall, busy), "ratio"),
        metric("core.enqueue_p50_ns", q_ns(Op::CoreEnqueue, 0.5), "ns"),
        metric("core.enqueue_p99_ns", q_ns(Op::CoreEnqueue, 0.99), "ns"),
        metric("core.dequeue_p50_ns", q_ns(Op::CoreDequeue, 0.5), "ns"),
        metric("core.dequeue_p99_ns", q_ns(Op::CoreDequeue, 0.99), "ns"),
        metric(
            "core.empty_dequeue_ratio",
            ratio(
                op(Op::CoreDequeue).empty as f64,
                op(Op::CoreDequeue).count as f64,
            ),
            "ratio",
        ),
        metric("shard.self_p50_ns", shard_self.quantile(0.5), "ns"),
        metric(
            "shard.probes_per_dequeue",
            ratio(
                op(Op::ShardDequeue).children[Op::CoreDequeue as usize] as f64,
                op(Op::ShardDequeue).count as f64,
            ),
            "1/op",
        ),
        metric("shard.skew", skew, "ratio"),
        metric(
            "shard.recover_critical_path_s",
            report.map_or(0.0, |r| r.critical_path().as_secs_f64()),
            "s",
        ),
        metric(
            "shard.recover_speedup",
            report.map_or(0.0, |r| r.speedup()),
            "x",
        ),
        metric("store.sfence_p50_ns", q_ns(Op::StoreSfence, 0.5), "ns"),
        metric("store.sfence_p99_ns", q_ns(Op::StoreSfence, 0.99), "ns"),
        metric(
            "store.fences_per_item",
            ratio(sfence.count as f64, a.consumed() as f64),
            "1/item",
        ),
        metric(
            "store.flushes_per_item",
            ratio(op(Op::StoreFlush).count as f64, a.consumed() as f64),
            "1/item",
        ),
        metric(
            "store.sfence_share",
            ratio(sfence.total_ns as f64, a.client_busy_ns() as f64),
            "ratio",
        ),
        metric(
            "store.grow_count",
            (grow.count - grow.empty) as f64,
            "count",
        ),
        metric("store.grow_s", grow.total_ns as f64 / 1e9, "s"),
        metric(
            "store.pool_bytes_per_item",
            ratio(r.pool_bytes as f64, r.enqueued as f64),
            "B/item",
        ),
        metric(
            "lease.dequeue_self_p50_ns",
            q_ns(Op::LeaseDequeue, 0.5),
            "ns",
        ),
        metric(
            "lease.dequeue_self_p99_ns",
            q_ns(Op::LeaseDequeue, 0.99),
            "ns",
        ),
        metric("lease.ack_p50_ns", q_ns(Op::LeaseAck, 0.5), "ns"),
        metric("lease.ack_p99_ns", q_ns(Op::LeaseAck, 0.99), "ns"),
        metric("lease.nack_p50_ns", q_ns(Op::LeaseNack, 0.5), "ns"),
        metric(
            "lease.log_records_per_item",
            records as f64 / items,
            "1/item",
        ),
        metric(
            "lease.log_bytes_per_item",
            log_bytes as f64 / items,
            "B/item",
        ),
        metric(
            "lease.grants_per_ack",
            ratio(lease.granted as f64, lease.acked as f64),
            "ratio",
        ),
        metric(
            "lease.redelivered_per_nack",
            ratio(lease.redelivered as f64, lease.nacked as f64),
            "ratio",
        ),
        metric(
            "trace.overhead",
            1.0 - ratio(traced_rate, untraced_rate),
            "ratio",
        ),
        metric("trace.spans", a.spans as f64, "count"),
        metric("trace.consume_lease_share", layer_share("lease"), "ratio"),
        metric("trace.consume_shard_share", layer_share("shard"), "ratio"),
        metric("trace.consume_core_share", layer_share("core"), "ratio"),
        metric("trace.consume_store_share", layer_share("store"), "ratio"),
        metric(
            "trace.consume_unexplained_share",
            layer_share("client"),
            "ratio",
        ),
        percentile_us("trace.enqueue_p999_us", &untraced.enq, 0.999),
        percentile_us("trace.consume_p999_us", &untraced.consume, 0.999),
    ]
}

fn main() {
    let args = parse();
    let w = args.workload;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpus\": {cpus}, \"host\": \"{}\", \"threads\": {}}}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        host(),
        w.threads
    );
    if w.threads > cpus {
        eprintln!(
            "qbench: refusing {}: it runs {} threads and this machine has {cpus} CPUs",
            w.name, w.threads
        );
        std::process::exit(2);
    }
    println!("workload {}: {}", w.name, w.why);
    if args.dir.exists() {
        std::fs::remove_dir_all(&args.dir).unwrap_or_else(|e| {
            eprintln!("qbench: cannot clear {}: {e}", args.dir.display());
            std::process::exit(1);
        });
    }
    let ctx = |secs| Ctx {
        seed: args.seed,
        secs,
        dir: args.dir.clone(),
    };
    let result = if args.trace {
        run(w.name, &ctx(args.seconds / 2.0), false)
            .and_then(|u| Ok((run(w.name, &ctx(args.seconds / 2.0), true)?, Some(u))))
    } else {
        run(w.name, &ctx(args.seconds), false).map(|r| (r, None))
    };
    // Pool files still mapped by crashed (forgotten) queues go away with
    // the process.
    let _ = std::fs::remove_dir_all(&args.dir);
    let (r, untraced) = result.unwrap_or_else(|e| {
        eprintln!("qbench: {} failed: {e}", w.name);
        std::process::exit(1);
    });
    println!("inputs: {}", r.inputs);

    if let Some(a) = &r.spans {
        println!("spans of the traced phase ({} recorded):", a.spans);
        for o in Op::ALL.iter().filter(|&&o| a.op(o).count > 0) {
            let f = a.op(*o);
            println!(
                "  {:<18} {:>9} spans, {:>10.3} ms in total, self p50 {:>10.1} ns, p99 {:>10.1} ns",
                o.name(),
                f.count,
                f.total_ns as f64 / 1e6,
                f.self_ns.quantile(0.5),
                f.self_ns.quantile(0.99)
            );
        }
    }
    let mut verdicts = vec![r.verdict];
    let metrics = match &untraced {
        Some(u) => {
            verdicts.push(u.verdict);
            per_layer(u, &r)
        }
        None => end_to_end(&r),
    };
    let attempted: u64 = verdicts.iter().map(|v| v.attempted).sum();
    let failed: u64 = verdicts.iter().map(|v| v.failed()).sum();
    for v in &verdicts {
        let status = if v.failed() == 0 { "passed" } else { "FAILED" };
        println!("verification {status}: {}", v.summary());
    }
    for m in &metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("{:<34} {:>18.6} {}{note}", m.name, m.value, m.unit);
    }
    println!(
        "{:<34} {:>18.6} ratio  ({failed} of {attempted})",
        "failed_fraction",
        ratio(failed as f64, attempted as f64)
    );

    let mut json = String::new();
    for m in &metrics {
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        failed == 0,
        attempted.max(1),
        failed
    );
}
