//! Loopback client/server integration: the service tier must be a
//! transparent window onto the embedded engine — coalesced remote reads
//! byte-identical to embedded batched reads even under concurrent
//! writers — and its backpressure behaviors (load shed, queue timeout)
//! must surface as the explicit wire errors, never as silence.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lstore::{Database, DbConfig, Error, ReadRequest, ReadResponse, Table, TableConfig};
use lstore_server::protocol::{encode_response, Response};
use lstore_server::{Client, ClientError, Coalesce, Server, ServerConfig};

const COLS: usize = 3;

fn populated_db(rows: u64) -> (Arc<Database>, Arc<Table>) {
    let db = Database::new(DbConfig::new().with_shards(2).with_pool_threads(2));
    let table = db
        .create_table("kv", &["a", "b", "c"], TableConfig::small())
        .unwrap();
    for k in 0..rows {
        table.insert_auto(k, &[k, k * 2, k * 3]).unwrap();
    }
    (db, table)
}

/// Tiny deterministic generator so tests need no rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The embedded result vocabulary (`Result<Option<Vec<u64>>>`) mapped
/// into the wire vocabulary, so both sides can be byte-compared through
/// the same encoder.
fn embedded_as_wire(results: Vec<lstore::Result<Option<Vec<u64>>>>) -> Response {
    Response::Results(
        results
            .into_iter()
            .map(|r| r.map(|values| ReadResponse { values }))
            .collect(),
    )
}

#[test]
fn coalesced_reads_are_byte_identical_to_embedded_reads_under_writers() {
    let (db, table) = populated_db(2_000);
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            coalesce: Coalesce::group_read(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = Lcg(0x9E3779B9 + w);
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.next() % 2_000;
                    let col = (rng.next() % COLS as u64) as usize;
                    let _ = table.update_auto(key, &[(col, rng.next())]);
                }
            })
        })
        .collect();

    // Concurrent clients: frozen-timestamp batches must match the
    // embedded engine byte-for-byte while writers churn, because both
    // sides read the same immutable snapshot.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = Lcg(0xDEADBEEF + c);
                for _ in 0..50 {
                    let keys: Vec<u64> = (0..32)
                        .map(|i| {
                            if i % 7 == 3 {
                                5_000_000 + rng.next() % 10 // unindexed
                            } else {
                                rng.next() % 600 // hot range, cross-client overlap
                            }
                        })
                        .collect();
                    let ts = table.now();
                    let remote = client.multi_read("kv", &keys, None, Some(ts)).unwrap();
                    let embedded =
                        table.multi_read_as_of(&keys, &(0..COLS).collect::<Vec<_>>(), ts);
                    let remote_frame = encode_response(0, &Response::Results(remote));
                    let embedded_frame = encode_response(0, &embedded_as_wire(embedded));
                    assert_eq!(remote_frame, embedded_frame, "snapshot reads diverged");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    // The coalescer really batched across connections (not a degenerate
    // one-request-per-batch stream).
    let stats = server.stats();
    assert!(stats.batches > 0, "no coalesced batches ran: {stats:?}");
    assert!(
        stats.batched_requests >= stats.batches,
        "batch accounting broken: {stats:?}"
    );

    // With writers quiesced, latest-mode remote reads equal the embedded
    // multi_read_latest vocabulary exactly.
    let mut client = Client::connect(addr).unwrap();
    let keys: Vec<u64> = (0..64).chain([5_000_001]).collect();
    let remote = client.multi_read("kv", &keys, None, None).unwrap();
    let embedded = table.multi_read_latest(&keys);
    for ((key, remote), embedded) in keys.iter().zip(remote).zip(embedded) {
        match (remote, embedded) {
            (Ok(r), Ok(values)) => assert_eq!(r.values, Some(values), "key {key}"),
            // multi_read_latest folds "invisible" into KeyNotFound.
            (Ok(ReadResponse { values: None }), Err(Error::KeyNotFound(_))) => {}
            (Err(a), Err(b)) => assert_eq!(a.to_parts(), b.to_parts(), "key {key}"),
            (a, b) => panic!("key {key}: remote {a:?} vs embedded {b:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_match_by_id_out_of_order() {
    let (db, _table) = populated_db(100);
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            coalesce: Coalesce::group_read(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    let mut expected = std::collections::HashMap::new();
    for k in 0..20u64 {
        let id = client.send_read("kv", &ReadRequest::latest(k)).unwrap();
        expected.insert(id, k);
    }
    for _ in 0..20 {
        let (id, reply) = client.recv().unwrap();
        let key = expected.remove(&id).expect("unknown or duplicate id");
        match reply {
            lstore_server::Reply::Results(results) => {
                assert_eq!(results.len(), 1);
                assert_eq!(
                    results[0].as_ref().unwrap().values,
                    Some(vec![key, key * 2, key * 3])
                );
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(expected.is_empty());
}

#[test]
fn exhausted_budget_sheds_with_overloaded() {
    let (db, _table) = populated_db(10);
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            coalesce: Coalesce::Off,
            max_inflight: 0, // every admission is over budget
            request_timeout: None,
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.read("kv", &ReadRequest::latest(1)) {
        Err(ClientError::Rejected(Error::Overloaded)) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Pings are control traffic, not reads: they bypass the budget, so a
    // drowning server still answers liveness probes.
    client.ping().unwrap();
    assert!(server.stats().shed >= 1);
}

#[test]
fn queued_requests_past_deadline_time_out() {
    let (db, _table) = populated_db(10);
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            coalesce: Coalesce::group_read(),
            max_inflight: 4096,
            // Zero deadline: by the time any batch runs a request, it has
            // aged past the limit — deterministic timeout.
            request_timeout: Some(Duration::ZERO),
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.read("kv", &ReadRequest::latest(1)) {
        Err(ClientError::Rejected(Error::RequestTimeout)) => {}
        other => panic!("expected RequestTimeout, got {other:?}"),
    }
    assert!(server.stats().timed_out >= 1);
}

#[test]
fn engine_errors_cross_the_wire_with_stable_codes() {
    let (db, _table) = populated_db(10);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    match client.read("ghost", &ReadRequest::latest(1)).unwrap() {
        Err(Error::TableNotFound(name)) => assert_eq!(name, "ghost"),
        other => panic!("expected TableNotFound, got {other:?}"),
    }
    match client.read("kv", &ReadRequest::latest(12345)).unwrap() {
        Err(e @ Error::KeyNotFound(12345)) => assert_eq!(e.code(), 2),
        other => panic!("expected KeyNotFound, got {other:?}"),
    }
    match client
        .read("kv", &ReadRequest::latest(1).with_columns(vec![99]))
        .unwrap()
    {
        Err(Error::ColumnOutOfRange {
            column: 99,
            columns,
        }) => assert_eq!(columns, COLS),
        other => panic!("expected ColumnOutOfRange, got {other:?}"),
    }
}

#[test]
fn pipelined_connections_coalesce_and_match_embedded_reads() {
    const CONNS: u64 = 4;
    const DEPTH: usize = 4;
    const REQUESTS: usize = 200;
    let (db, table) = populated_db(1_000);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let ts = table.now();
    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = Lcg(0x5EED + c);
                let mut inflight = std::collections::HashMap::new();
                let (mut sent, mut received) = (0, 0);
                while received < REQUESTS {
                    while sent < REQUESTS && inflight.len() < DEPTH {
                        let keys: Vec<u64> = (0..16).map(|_| rng.next() % 1_200).collect();
                        let id = client.send_multi_read("kv", &keys, None, Some(ts)).unwrap();
                        inflight.insert(id, keys);
                        sent += 1;
                    }
                    let (id, reply) = client.recv().unwrap();
                    let keys = inflight.remove(&id).expect("unknown or duplicate id");
                    let lstore_server::Reply::Results(remote) = reply else {
                        panic!("unexpected reply {reply:?}");
                    };
                    let embedded =
                        table.multi_read_as_of(&keys, &(0..COLS).collect::<Vec<_>>(), ts);
                    assert_eq!(
                        encode_response(0, &Response::Results(remote)),
                        encode_response(0, &embedded_as_wire(embedded)),
                        "pipelined reads diverged"
                    );
                    received += 1;
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let stats = server.stats();
    assert!(stats.batches > 0, "no coalesced batches ran: {stats:?}");
    assert_eq!(stats.admitted, CONNS * REQUESTS as u64, "{stats:?}");
    assert_eq!(stats.batched_requests, stats.admitted, "{stats:?}");
}

/// Pipeline 64-key multi-reads on `stream` without reading a reply, until
/// a write fails; return how it failed. Once the socket buffers fill, the
/// server's reply writes stall and it stops reading this connection. The
/// 20 s limit (`TimedOut`) only guards the test against a server that
/// never closes the connection.
fn pipeline_until_closed(mut stream: TcpStream) -> ErrorKind {
    let guard = Instant::now() + Duration::from_secs(20);
    stream
        .set_write_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let keys: Vec<u64> = (0..64).collect();
    for id in 1..=1_000_000u64 {
        if Instant::now() > guard {
            return ErrorKind::TimedOut;
        }
        let frame = lstore_server::protocol::encode_request(
            id,
            &lstore_server::protocol::Request::MultiRead {
                table: "kv".into(),
                keys: keys.clone(),
                columns: None,
                as_of: None,
            },
        );
        if let Err(e) = stream.write_all(&frame) {
            return e.kind();
        }
    }
    panic!("a million unread replies never stalled the server");
}

/// The server closed the connection: the sender's writes failed with a
/// reset or broken pipe, not with its own timeout.
fn assert_closed_by_server(kind: ErrorKind) {
    assert!(
        !matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "the stalled connection was never closed ({kind:?})"
    );
}

/// Blocking 64-key multi-reads on a fresh connection until `done` holds
/// (and at least 50 ran), each checked against the populated values;
/// returns the slowest one.
fn read_until(addr: std::net::SocketAddr, done: impl Fn() -> bool) -> Duration {
    let mut client = Client::connect(addr).unwrap();
    let keys: Vec<u64> = (0..64).collect();
    let mut reads = 0;
    let mut slowest = Duration::ZERO;
    while reads < 50 || !done() {
        let started = Instant::now();
        let results = client.multi_read("kv", &keys, None, None).unwrap();
        slowest = slowest.max(started.elapsed());
        for (key, result) in keys.iter().zip(results) {
            assert_eq!(result.unwrap().values, Some(vec![*key, key * 2, key * 3]));
        }
        reads += 1;
    }
    client.ping().unwrap();
    slowest
}

fn assert_prompt_shutdown(server: &Server) {
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_peer_that_never_reads_is_closed_without_stalling_others() {
    let (db, _table) = populated_db(2_000);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let stream = TcpStream::connect(addr).unwrap();
    let slow = std::thread::spawn(move || pipeline_until_closed(stream));

    // A second connection's blocking reads keep completing meanwhile.
    read_until(addr, || slow.is_finished());
    assert_closed_by_server(slow.join().unwrap());
    assert_prompt_shutdown(&server);
}

#[test]
fn stalled_and_trickling_peers_are_closed_without_delaying_others() {
    let (db, _table) = populated_db(2_000);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Two peers never read. A third reads 64 KiB every 100 ms, so writes
    // to it keep making a little progress but never catch up.
    let mut slow: Vec<_> = (0..2)
        .map(|_| {
            let stream = TcpStream::connect(addr).unwrap();
            std::thread::spawn(move || pipeline_until_closed(stream))
        })
        .collect();
    let trickle = TcpStream::connect(addr).unwrap();
    let mut trickle_reads = trickle.try_clone().unwrap();
    let trickle_done = Arc::new(AtomicBool::new(false));
    let trickling = {
        let done = Arc::clone(&trickle_done);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 64 << 10];
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                if matches!(trickle_reads.read(&mut buf), Ok(0) | Err(_)) {
                    return;
                }
            }
        })
    };
    slow.push(std::thread::spawn(move || pipeline_until_closed(trickle)));

    // Replies to the slow peers never hold up this connection's for
    // anywhere near the 1 s request timeout.
    let slowest = read_until(addr, || slow.iter().all(|t| t.is_finished()));
    for peer in slow {
        assert_closed_by_server(peer.join().unwrap());
    }
    trickle_done.store(true, Ordering::Relaxed);
    trickling.join().unwrap();
    assert!(
        slowest < Duration::from_millis(500),
        "a healthy connection's read took {slowest:?}"
    );
    assert_prompt_shutdown(&server);
}
