//! HTAP benchmark for the L-Store engine.
//!
//! ```text
//! htapbench --workload <htap_uniform|oltp_hot|durable_serve> --seed <n> \
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! A run repeats rounds until `--seconds` have passed. Each round loads a
//! fresh 200k-row table, commits the workload's fixed count of update
//! transactions while its other clients run, and checks every result
//! against a model the benchmark keeps. With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it runs each round twice, untraced
//! and traced, and prints the per-layer metrics of the traced rounds. The
//! last line of standard output is one JSON object; the exit code is 1 if
//! any check failed.

mod model;
mod report;
mod round;
mod spec;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use lstore_bench::workload::Zipfian;

use report::{median, pct, Metrics};
use round::{RoundCtx, RoundOut};
use spec::{KeyDraw, Workload, ROWS, ZIPF_THETA};
use trace::{Depth, Name, Summary};

const USAGE: &str = "usage: htapbench --workload <htap_uniform|oltp_hot|durable_serve> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("htapbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("htapbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run the rounds, print the metrics; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let spec = args.workload.spec();
    let zipf = Zipfian::new(ROWS, ZIPF_THETA);
    let draw = KeyDraw::new(spec.keys, &zipf);
    let work_dir = PathBuf::from(".htapbench-tmp").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    println!(
        "htapbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut round = 0;
    let mut rss_peak_mb = 0.0;
    let mut summary = Summary::default();
    let mut last_spans = Vec::new();
    let outcome = 'rounds: loop {
        let ctx = |traced| RoundCtx {
            spec,
            draw: &draw,
            seed: args.seed,
            round,
            traced,
            work_dir: &work_dir,
        };
        // A traced run alternates which twin of a pair runs first, so
        // drift within the run does not bias the tracing overhead.
        let order: &[bool] = match (args.trace, round % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_round in order {
            let result = round::run(&ctx(traced_round));
            if let Ok(out) = &result {
                describe(round, traced_round, out);
            }
            match result {
                Ok(mut out) if traced_round => {
                    // Fold each traced round's spans in as it ends; keep
                    // only the last round's for the span dump.
                    summary.add(&out.spans);
                    last_spans = std::mem::take(&mut out.spans);
                    traced.push(out);
                }
                Ok(out) => plain.push(out),
                Err(e) => break 'rounds Err(e),
            }
        }
        if round == 0 {
            // Peak memory of one round's fixed work, before later rounds
            // add allocator fragmentation that depends on their count.
            rss_peak_mb = report::rss_peak_mb();
        }
        round += 1;
        if Instant::now() >= deadline {
            break Ok(());
        }
    };
    if work_dir.exists() {
        std::fs::remove_dir_all(&work_dir).map_err(|e| format!("remove work dir: {e}"))?;
    }
    let _ = std::fs::remove_dir(".htapbench-tmp");
    outcome?;

    let rounds: Vec<&RoundOut> = plain.iter().chain(&traced).collect();
    let errors: Vec<&String> = rounds.iter().flat_map(|r| &r.errors).collect();
    for e in errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    let attempted: u64 = rounds.iter().map(|r| r.ops.attempts).sum();
    let failed: u64 = rounds.iter().map(|r| r.ops.failed).sum();

    let metrics = if args.trace {
        let spans_path =
            PathBuf::from(".htapbench-out").join(format!("spans-{}.tsv", args.workload.name()));
        trace::write_spans(&spans_path, &last_spans)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        println!("spans of the last traced round: {}", spans_path.display());
        per_layer(&plain, &traced, &summary)
    } else {
        end_to_end(&plain, rss_peak_mb)
    };
    metrics.print(errors.is_empty(), attempted, failed);
    Ok(errors.is_empty())
}

/// One line per round: its times, operation counts and latency medians.
fn describe(round: u64, traced: bool, r: &RoundOut) {
    let p50_us = |v: &Vec<u64>| {
        let mut v = v.clone();
        v.sort_unstable();
        pct(&v, 50.0) / 1e3
    };
    println!(
        "round {round}{}: {:.3} s, setup {:.3} s, {} txns in {:.3} s (p50 {:.1} us), \
         {} scans (p50 {:.1} us), {} wire reads (p50 {:.1} us)",
        if traced { " traced" } else { "" },
        r.round_s,
        r.setup_s,
        r.committed,
        r.update_s,
        p50_us(&r.txn_ns),
        r.scan_ns.len(),
        p50_us(&r.scan_ns),
        r.wire_ns.len(),
        p50_us(&r.wire_ns),
    );
}

fn txn_per_s(r: &RoundOut) -> f64 {
    r.committed as f64 / r.update_s
}

/// All rounds' samples, sorted.
fn pooled(rounds: &[RoundOut], samples: fn(&RoundOut) -> &Vec<u64>) -> Vec<u64> {
    let mut all: Vec<u64> = rounds
        .iter()
        .flat_map(|r| samples(r).iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// The metrics a user sees, from untraced rounds: rates and set-up time
/// are medians over rounds, latency percentiles pool every round's
/// samples. The p99 latencies are printed but left out of the result line:
/// on a 2-vCPU virtual machine they follow scheduler, wake-up and I/O
/// stalls, and moved by more than any bound between runs of the same code.
fn end_to_end(rounds: &[RoundOut], rss_peak_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    let n = rounds.len();
    m.add("setup_s", median(rounds.iter().map(|r| r.setup_s)), "s", n);
    m.add("txn_per_s", median(rounds.iter().map(txn_per_s)), "1/s", n);
    let txn = pooled(rounds, |r| &r.txn_ns);
    m.add("txn_p50_us", pct(&txn, 50.0) / 1e3, "us", txn.len());
    m.info("txn_p99_us", pct(&txn, 99.0) / 1e3, "us", txn.len());
    let scan = pooled(rounds, |r| &r.scan_ns);
    m.add("scan_p50_ms", pct(&scan, 50.0) / 1e6, "ms", scan.len());
    m.info("scan_p99_ms", pct(&scan, 99.0) / 1e6, "ms", scan.len());
    let wire = pooled(rounds, |r| &r.wire_ns);
    m.add("read_p50_us", pct(&wire, 50.0) / 1e3, "us", wire.len());
    m.info("read_p99_us", pct(&wire, 99.0) / 1e3, "us", wire.len());
    let attempts: u64 = rounds.iter().map(|r| r.ops.attempts).sum();
    let bad: u64 = rounds.iter().map(|r| r.ops.aborted + r.ops.failed).sum();
    m.add(
        "ok_frac",
        1.0 - ratio(bad, attempts),
        "ratio",
        attempts as usize,
    );
    m.add("rss_peak_mb", rss_peak_mb, "MB", 1);
    m
}

/// The per-layer metrics, from traced rounds and the `summary` of their
/// spans; `plain` are the untraced twins of the same inputs, for the
/// tracing overhead.
fn per_layer(plain: &[RoundOut], traced: &[RoundOut], summary: &Summary) -> Metrics {
    let sorted = |name: Name| -> Vec<u64> {
        let mut v = summary.durations.get(&name).cloned().unwrap_or_default();
        v.sort_unstable();
        v
    };
    let us = |v: &[u64], p: f64| pct(v, p) / 1e3;
    let mut m = Metrics::default();

    let begin = sorted(Name::Begin);
    m.add("txn.begin_us_p50", us(&begin, 50.0), "us", begin.len());
    m.add("txn.begin_us_p99", us(&begin, 99.0), "us", begin.len());
    let commit = sorted(Name::Commit);
    m.add(
        "commit.commit_us_p50",
        us(&commit, 50.0),
        "us",
        commit.len(),
    );
    m.add(
        "commit.commit_us_p99",
        us(&commit, 99.0),
        "us",
        commit.len(),
    );
    let abort = sorted(Name::Abort);
    m.add("txn.abort_us_p50", us(&abort, 50.0), "us", abort.len());

    for d in Depth::ALL {
        let reads = sorted(Name::Read(d));
        let name = format!("read.point_us.{}", d.suffix());
        m.add(&name, us(&reads, 50.0), "us", reads.len());
        m.add(&format!("{name}.n"), reads.len() as f64, "count", 1);
    }

    let update = sorted(Name::Update);
    m.add("table.update_us_p50", us(&update, 50.0), "us", update.len());
    m.add("table.update_us_p99", us(&update, 99.0), "us", update.len());
    let sum = |f: fn(&RoundOut) -> u64| traced.iter().map(f).sum::<u64>();
    let committed = sum(|r| r.committed);
    let n = traced.len() as f64;
    m.add(
        "table.conflicts_per_txn",
        ratio(sum(|r| r.counters.table.write_conflicts), committed),
        "ratio",
        committed as usize,
    );
    m.add(
        "table.snapshots_per_update",
        ratio(
            sum(|r| r.counters.table.snapshots_taken),
            sum(|r| r.counters.table.updates),
        ),
        "ratio",
        committed as usize,
    );

    let locate = sorted(Name::Locate);
    m.add("index.locate_us_p50", us(&locate, 50.0), "us", locate.len());
    let span = sorted(Name::SumSpan);
    m.add(
        "scan.sum_span_ms_p50",
        pct(&span, 50.0) / 1e6,
        "ms",
        span.len(),
    );
    m.add(
        "scan.sum_span_ms_p99",
        pct(&span, 99.0) / 1e6,
        "ms",
        span.len(),
    );

    let merges = sum(|r| r.counters.table.merges);
    m.add("merge.passes", merges as f64 / n, "count", traced.len());
    m.add(
        "merge.records_per_pass",
        ratio(sum(|r| r.counters.table.merged_records), merges),
        "count",
        merges as usize,
    );
    m.add(
        "merge.backlog_max",
        traced.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
        "count",
        traced.len(),
    );

    let (hits, faults) = (
        sum(|r| r.counters.pool.hits),
        sum(|r| r.counters.pool.faults),
    );
    let ops = sum(|r| r.measured_ops);
    m.add(
        "pool.pins_per_op",
        ratio(hits + faults, ops),
        "1/op",
        ops as usize,
    );
    m.add(
        "pool.hit_ratio",
        ratio(hits, hits + faults),
        "ratio",
        (hits + faults) as usize,
    );
    m.add(
        "pool.faults_per_op",
        ratio(faults, ops),
        "1/op",
        ops as usize,
    );
    m.add(
        "pool.evictions",
        sum(|r| r.counters.pool.evictions) as f64 / n,
        "count",
        traced.len(),
    );
    m.add(
        "pool.writebacks",
        sum(|r| r.counters.pool.writebacks) as f64 / n,
        "count",
        traced.len(),
    );

    let batches = sum(|r| r.counters.wire.batches);
    m.add(
        "wire.batch_size",
        ratio(sum(|r| r.counters.wire.batched_requests), batches),
        "count",
        batches as usize,
    );
    m.add(
        "wire.shed",
        sum(|r| r.counters.wire.shed) as f64 / n,
        "count",
        traced.len(),
    );
    m.add(
        "wire.timed_out",
        sum(|r| r.counters.wire.timed_out) as f64 / n,
        "count",
        traced.len(),
    );

    m.add(
        "wal.bytes_per_txn",
        ratio(sum(|r| r.counters.wal_bytes), committed),
        "B/txn",
        committed as usize,
    );
    m.add(
        "store.file_bytes_per_txn",
        ratio(sum(|r| r.counters.store_bytes), committed),
        "B/txn",
        committed as usize,
    );
    m.add(
        "storage.base_bytes_per_row",
        median(traced.iter().map(|r| r.base_bytes as f64)) / ROWS as f64,
        "B/row",
        traced.len(),
    );

    // Self time per operation: what each layer adds to the mean latency of
    // the operation that called it.
    let txns = summary.count(Name::Txn) as u64;
    let scans = summary.count(Name::Scan) as u64;
    let wires = summary.count(Name::Wire) as u64;
    let self_ns = |names: &[Name]| -> u64 {
        names
            .iter()
            .map(|n| summary.self_ns.get(n).copied().unwrap_or(0))
            .sum()
    };
    let reads: Vec<Name> = Depth::ALL.iter().map(|&d| Name::Read(d)).collect();
    for (label, names, per) in [
        ("self.txn_us", &[Name::Txn][..], txns),
        ("self.txn.begin_us", &[Name::Begin][..], txns),
        ("self.read.point_us", &reads[..], txns),
        ("self.table.update_us", &[Name::Update][..], txns),
        ("self.commit.commit_us", &[Name::Commit][..], txns),
        ("self.txn.abort_us", &[Name::Abort][..], txns),
        ("self.scan_us", &[Name::Scan][..], scans),
        ("self.index.locate_us", &[Name::Locate][..], scans),
        ("self.scan.sum_span_us", &[Name::SumSpan][..], scans),
        ("self.wire.multi_read_us", &[Name::Wire][..], wires),
    ] {
        m.add(label, ratio(self_ns(names), per) / 1e3, "us", per as usize);
    }

    let overhead = 1.0 - median(traced.iter().map(txn_per_s)) / median(plain.iter().map(txn_per_s));
    m.add("trace.overhead_frac", overhead, "ratio", traced.len());
    m
}

/// `num / den`, 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
