//! Service-tier axis: closed-loop multi-get throughput and latency through
//! the wire protocol, with request coalescing off (`direct`: each request
//! executes inline on its connection's thread) vs on (`coalesced`: requests
//! from all connections that queue while one engine batch runs are
//! submitted together as the next — the read-path twin of WAL group
//! commit). The
//! workload is hot-key multi-gets over the medium-contention active set, so
//! a coalesced cross-connection batch overlaps heavily and the sorted
//! point-read planner resolves each hot key once for the whole cohort.
//!
//! Cells per connection count: `direct` and `coalesced` report requests/s
//! (plain numbers, so the CI gate tracks both trajectories), and
//! `coalesce_vs_direct` pins the coalescing dividend at multi-connection
//! rows the same way `group_vs_wal` pins group commit — the ratio collapses
//! toward 1 if batching breaks long before absolute throughput looks wrong
//! on a noisy runner. The `*_p50/_p95/_p99` cells report client-observed
//! request latency in microseconds (suffixed text: visible in the table and
//! archived in `BENCH_JSON`, not gated).
//!
//! Env: `BENCH_CONNS` sweeps client connections (default `1,4`),
//! `BENCH_SERVE_KEYS` the keys per wire request (default 64),
//! `BENCH_SERVE_DEPTH` the pipelined requests outstanding per connection
//! (default 4); `BENCH_ROWS`/`BENCH_SECONDS`/`BENCH_POOL_THREADS` as
//! everywhere. The table runs with background merge off so the pre-update
//! pass pins a deterministic tail-chain depth for the whole measurement.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lstore_bench::report;
use lstore_bench::setup;
use lstore_bench::workload::Contention;
use lstore_server::{Client, Coalesce, Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// One connection's closed-loop run: requests completed + per-request
/// latencies (ns).
struct ConnResult {
    requests: u64,
    latencies_ns: Vec<u64>,
}

/// Drive one closed-loop connection until `deadline`, keeping `depth`
/// requests outstanding (the wire protocol's request ids exist exactly so
/// a client can pipeline; depth 1 is classic lockstep).
fn drive(
    addr: std::net::SocketAddr,
    table: &str,
    active_set: u64,
    keys_per_req: usize,
    depth: usize,
    seed: u64,
    deadline: Instant,
) -> ConnResult {
    let mut client = Client::connect(addr).expect("connect");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut keys = vec![0u64; keys_per_req];
    let send = |client: &mut Client, rng: &mut SmallRng, keys: &mut Vec<u64>| {
        for k in keys.iter_mut() {
            *k = rng.random_range(0..active_set);
        }
        let id = client
            .send_multi_read(table, keys, None, None)
            .expect("send");
        (id, Instant::now())
    };
    // Warm the connection (and the server's connection thread) off the
    // clock.
    for _ in 0..3 {
        send(&mut client, &mut rng, &mut keys);
        client.recv().expect("warmup");
    }
    let mut result = ConnResult {
        requests: 0,
        latencies_ns: Vec::new(),
    };
    let mut inflight = std::collections::HashMap::new();
    for _ in 0..depth {
        let (id, t0) = send(&mut client, &mut rng, &mut keys);
        inflight.insert(id, t0);
    }
    loop {
        let (id, reply) = client.recv().expect("recv");
        let t0 = inflight.remove(&id).expect("known id");
        result.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        match reply {
            lstore_server::Reply::Results(replies) => assert_eq!(replies.len(), keys.len()),
            other => panic!("unexpected reply {other:?}"),
        }
        result.requests += 1;
        if Instant::now() < deadline {
            let (id, t0) = send(&mut client, &mut rng, &mut keys);
            inflight.insert(id, t0);
        } else if inflight.is_empty() {
            return result;
        }
    }
}

/// Measure one (connections × coalesce mode) cell: requests/s plus the
/// merged latency distribution.
fn measure(
    db: &Arc<lstore::Database>,
    conns: usize,
    coalesce: Coalesce,
    active_set: u64,
    keys_per_req: usize,
    depth: usize,
    window: Duration,
) -> (f64, Vec<u64>) {
    let server = Server::start(
        Arc::clone(db),
        "127.0.0.1:0",
        ServerConfig {
            coalesce,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    let start = Instant::now();
    let deadline = start + window;
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                drive(
                    addr,
                    "bench",
                    active_set,
                    keys_per_req,
                    depth,
                    0xC0FFEE ^ (c as u64).wrapping_mul(0x9E37_79B9),
                    deadline,
                )
            })
        })
        .collect();
    let mut requests = 0u64;
    let mut latencies = Vec::new();
    for h in handles {
        let mut r = h.join().expect("client thread");
        requests += r.requests;
        latencies.append(&mut r.latencies_ns);
    }
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    latencies.sort_unstable();
    (requests as f64 / elapsed, latencies)
}

/// Percentile (0..=100) of a sorted ns distribution, in microseconds.
fn percentile_us(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted_ns[rank] as f64 / 1_000.0
}

fn main() {
    let config = setup::workload(Contention::Medium);
    let pool_threads = setup::pool_thread_sweep().into_iter().max().unwrap_or(1);
    let keys_per_req = setup::serve_keys_per_request();
    let depth = setup::serve_pipeline_depth();
    let engine = setup::lstore_serving_engine(&config, pool_threads);
    let active_set = config.contention.active_set(config.rows);

    // Give the hot set real version chains: remote reads should walk tails
    // like a warmed-up system, not freshly merged base pages.
    let table = engine.table();
    for round in 0..8u64 {
        for key in 0..active_set {
            let col = ((key + round) % config.cols as u64) as usize;
            table
                .update_auto(key, &[(col, key ^ round)])
                .expect("pre-update");
        }
    }
    // Let the pool drain any queued work so both modes measure the same
    // steady state (background work bleeding into the first measurement
    // window is the dominant run-to-run noise at smoke scale).
    std::thread::sleep(Duration::from_millis(50));

    report::header(
        "Serving",
        &format!(
            "closed-loop multi-get ({keys_per_req} keys/req, depth {depth}) over the wire; \
             rows={} active={} pool={}",
            config.rows, active_set, pool_threads
        ),
    );
    for conns in setup::conn_sweep() {
        let (direct_rps, direct_lat) = measure(
            engine.database(),
            conns,
            Coalesce::Off,
            active_set,
            keys_per_req,
            depth,
            setup::window(),
        );
        let (coal_rps, coal_lat) = measure(
            engine.database(),
            conns,
            Coalesce::group_read(),
            active_set,
            keys_per_req,
            depth,
            setup::window(),
        );
        let mut cells: Vec<(&str, String)> = vec![
            ("direct", format!("{direct_rps:.0}")),
            ("coalesced", format!("{coal_rps:.0}")),
        ];
        if direct_rps > 0.0 {
            cells.push((
                "coalesce_vs_direct",
                format!("{:.3}", coal_rps / direct_rps),
            ));
        }
        for (name, lat) in [("d", &direct_lat), ("c", &coal_lat)] {
            for (tag, pct) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
                let label: &'static str = match (name, tag) {
                    ("d", "p50") => "d_p50",
                    ("d", "p95") => "d_p95",
                    ("d", "p99") => "d_p99",
                    ("c", "p50") => "c_p50",
                    ("c", "p95") => "c_p95",
                    (_, _) => "c_p99",
                };
                cells.push((label, format!("{:.0}us", percentile_us(lat, pct))));
            }
        }
        report::row(&format!("conns={conns}"), &cells);
    }
}
