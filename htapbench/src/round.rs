//! One round: set up a fresh database, run a workload's clients over its
//! fixed count of update transactions, check every result against the
//! benchmark's model, tear down.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lstore::stats::StatsSnapshot;
use lstore::{Database, DbConfig, Durability, Error, Table, TableConfig};
use lstore_server::{Client, ClientError, Server, ServerConfig, ServerStats};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::model::Model;
use crate::spec::{
    gen_txns, initial_value, stream_seed, KeyDraw, Spec, TxnInput, COLS, LOAD_BATCH, POOL_FRAMES,
    PROBE_OPS, PROBE_WARMUP, ROWS, SCAN_SPAN, WIRE_KEYS,
};
use crate::trace::{Depth, Name, Recorder, Span};

const TABLE: &str = "bench";
const ALL_COLS: [usize; COLS] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
/// Attempts of one transaction before it counts as failed.
const MAX_ATTEMPTS: u64 = 10_000;
/// Keys whose wire read is compared with the in-process read.
const WIRE_CHECK_KEYS: usize = 1024;
/// Merge-backlog sampling interval of a traced round.
const BACKLOG_SAMPLE: Duration = Duration::from_millis(5);

/// What a round needs to know beyond the workload's settings.
pub struct RoundCtx<'a> {
    pub spec: Spec,
    pub draw: &'a KeyDraw<'a>,
    pub seed: u64,
    pub round: u64,
    pub traced: bool,
    /// Directory for the WAL and page-store files of durable rounds.
    pub work_dir: &'a Path,
}

/// Operations attempted and failed, any kind. An aborted attempt that is
/// retried to commit is counted in `aborted`, not in `failed`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    pub attempts: u64,
    pub aborted: u64,
    pub failed: u64,
}

impl Ops {
    fn absorb(&mut self, other: Ops) {
        self.attempts += other.attempts;
        self.aborted += other.aborted;
        self.failed += other.failed;
    }
}

/// Buffer-pool counters (`Database::store_stats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolCounts {
    pub hits: u64,
    pub faults: u64,
    pub evictions: u64,
    pub writebacks: u64,
}

/// Engine counters and file sizes, read before and after the measured
/// phase; a round reports their difference.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub table: StatsSnapshot,
    pub pool: PoolCounts,
    pub wire: ServerStats,
    pub wal_bytes: u64,
    pub store_bytes: u64,
}

impl Counters {
    fn read(env: &Env) -> Counters {
        let pool = env
            .db
            .store_stats()
            .map_or(PoolCounts::default(), |p| PoolCounts {
                hits: p.hits,
                faults: p.faults,
                evictions: p.evictions,
                writebacks: p.writebacks,
            });
        Counters {
            table: env.table.stats(),
            pool,
            wire: env.server.stats(),
            wal_bytes: file_bytes(env.dir.as_deref(), "wal"),
            store_bytes: file_bytes(env.dir.as_deref(), "pages"),
        }
    }

    /// The counters' growth since `before`.
    fn since(&self, before: &Counters) -> Counters {
        let (a, b) = (&before.table, &self.table);
        Counters {
            table: StatsSnapshot {
                updates: b.updates - a.updates,
                snapshots_taken: b.snapshots_taken - a.snapshots_taken,
                write_conflicts: b.write_conflicts - a.write_conflicts,
                merges: b.merges - a.merges,
                merged_records: b.merged_records - a.merged_records,
                ..StatsSnapshot::default()
            },
            pool: PoolCounts {
                hits: self.pool.hits - before.pool.hits,
                faults: self.pool.faults - before.pool.faults,
                evictions: self.pool.evictions - before.pool.evictions,
                writebacks: self.pool.writebacks - before.pool.writebacks,
            },
            wire: ServerStats {
                admitted: self.wire.admitted - before.wire.admitted,
                shed: self.wire.shed - before.wire.shed,
                timed_out: self.wire.timed_out - before.wire.timed_out,
                batches: self.wire.batches - before.wire.batches,
                batched_requests: self.wire.batched_requests - before.wire.batched_requests,
            },
            wal_bytes: self.wal_bytes.saturating_sub(before.wal_bytes),
            store_bytes: self.store_bytes.saturating_sub(before.store_bytes),
        }
    }
}

pub struct RoundOut {
    /// Wall time of the whole round, set-up to teardown.
    pub round_s: f64,
    pub setup_s: f64,
    /// Wall time until the last update client finished.
    pub update_s: f64,
    pub committed: u64,
    pub ops: Ops,
    pub txn_ns: Vec<u64>,
    pub scan_ns: Vec<u64>,
    pub wire_ns: Vec<u64>,
    pub spans: Vec<Span>,
    /// Counter growth over the measured phase.
    pub counters: Counters,
    /// Committed transactions plus scans and wire requests of the measured
    /// phase.
    pub measured_ops: u64,
    /// Highest sampled `Table::unmerged_tail_records` (traced rounds).
    pub backlog_max: u64,
    pub base_bytes: u64,
    /// Correctness failures; empty when the round checked out.
    pub errors: Vec<String>,
}

struct Env {
    db: Arc<Database>,
    table: Arc<Table>,
    server: Server,
    client: Client,
    dir: Option<PathBuf>,
}

/// Run one round.
pub fn run(ctx: &RoundCtx<'_>) -> Result<RoundOut, String> {
    let t0 = Instant::now();
    let mut env = setup(ctx)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let result = measure(ctx, &mut env, setup_s);
    teardown(env)?;
    result.map(|out| RoundOut {
        round_s: t0.elapsed().as_secs_f64(),
        ..out
    })
}

fn setup(ctx: &RoundCtx<'_>) -> Result<Env, String> {
    let mut config = DbConfig::new().with_pool_threads(1).with_shards(1);
    let dir = if ctx.spec.durable {
        let dir = ctx.work_dir.join(format!("round{}", ctx.round));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // OS-buffered commits: every commit writes its log record to the
        // OS but waits for no fsync. With group commit, the fsync wait on a
        // shared virtual disk moved commit latency up to 2.6-fold between
        // runs of the same code, beyond any bound this benchmark can gate.
        config = config
            .with_wal_path(dir.join("wal"))
            .with_durability(Durability::None)
            .with_page_store(dir.join("pages"))
            .with_buffer_pool_pages(POOL_FRAMES);
        Some(dir)
    } else {
        None
    };
    let db = Database::new(config);
    let names: Vec<String> = (0..COLS).map(|c| format!("c{c}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let table = db
        .create_table(TABLE, &names, TableConfig::default())
        .map_err(|e| format!("create table: {e}"))?;
    let mut row = [0u64; COLS];
    for first in (0..ROWS).step_by(LOAD_BATCH as usize) {
        let mut txn = db.begin();
        for key in first..(first + LOAD_BATCH).min(ROWS) {
            for (c, v) in row.iter_mut().enumerate() {
                *v = initial_value(ctx.seed, ctx.round, key, c);
            }
            table
                .insert(&mut txn, key, &row)
                .map_err(|e| format!("load key {key}: {e}"))?;
        }
        db.commit(&mut txn)
            .map_err(|e| format!("load commit: {e}"))?;
    }
    table.merge_all();
    db.drain_merges();
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Env {
        db,
        table,
        server,
        client,
        dir,
    })
}

fn teardown(env: Env) -> Result<(), String> {
    let Env {
        db,
        table,
        server,
        client,
        dir,
    } = env;
    drop(client);
    server.shutdown();
    drop(server);
    drop(table);
    drop(db);
    if let Some(dir) = dir {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Summed size of the files in `dir` whose name starts with `prefix`.
fn file_bytes(dir: Option<&Path>, prefix: &str) -> u64 {
    let Some(dir) = dir else { return 0 };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn measure(ctx: &RoundCtx<'_>, env: &mut Env, setup_s: f64) -> Result<RoundOut, String> {
    let spec = ctx.spec;
    let inputs: Vec<Vec<TxnInput>> = (0..spec.update_clients)
        .map(|c| gen_txns(&spec, ctx.draw, ctx.seed, ctx.round, c))
        .collect();
    let updates_seen: Vec<AtomicU32> = (0..ROWS).map(|_| AtomicU32::new(0)).collect();
    let done = AtomicBool::new(false);
    let epoch = Instant::now();
    let before = Counters::read(env);
    let (db, table) = (&*env.db, &*env.table);
    let client = &mut env.client;
    let start = Instant::now();
    let (updaters, update_s, analytic, wire, backlog_max) = std::thread::scope(|s| {
        let updaters: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(c, inputs)| {
                let rec = Recorder::new(ctx.traced, epoch, c as u64 + 1, inputs.len() * 14);
                let seen = &updates_seen;
                s.spawn(move || update_client(db, table, inputs, seen, rec))
            })
            .collect();
        let analytic = spec.analytic_client.then(|| {
            let mut rng = SmallRng::seed_from_u64(stream_seed(ctx.seed, ctx.round, 200));
            let rec = Recorder::new(ctx.traced, epoch, 90, 1 << 16);
            let done = &done;
            s.spawn(move || {
                scan_client(table, &mut rng, rec, None, || !done.load(Ordering::Acquire))
            })
        });
        let wire = spec.wire_client.then(|| {
            let mut rng = SmallRng::seed_from_u64(stream_seed(ctx.seed, ctx.round, 300));
            let rec = Recorder::new(ctx.traced, epoch, 91, 1 << 16);
            let done = &done;
            s.spawn(move || {
                let go = || !done.load(Ordering::Acquire);
                wire_client(client, ctx.draw, &mut rng, rec, None, go)
            })
        });
        let sampler = ctx.traced.then(|| {
            let done = &done;
            s.spawn(move || {
                let mut max = 0;
                while !done.load(Ordering::Acquire) {
                    max = max.max(table.unmerged_tail_records());
                    std::thread::sleep(BACKLOG_SAMPLE);
                }
                max
            })
        });
        let updaters: Vec<UpdateOut> = updaters
            .into_iter()
            .map(|h| h.join().expect("update client panicked"))
            .collect();
        let update_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        let analytic = analytic.map(|h| h.join().expect("analytic client panicked"));
        let wire = wire.map(|h| h.join().expect("wire client panicked"));
        let backlog_max = sampler.map_or(0, |h| h.join().expect("sampler panicked"));
        (updaters, update_s, analytic, wire, backlog_max)
    });
    let counters = Counters::read(env).since(&before);

    let mut out = RoundOut {
        round_s: 0.0,
        setup_s,
        update_s,
        committed: 0,
        ops: Ops::default(),
        txn_ns: Vec::new(),
        scan_ns: Vec::new(),
        wire_ns: Vec::new(),
        spans: Vec::new(),
        counters,
        measured_ops: 0,
        backlog_max,
        base_bytes: 0,
        errors: Vec::new(),
    };
    let mut log = Vec::new();
    for (c, u) in updaters.into_iter().enumerate() {
        out.committed += u.log.len() as u64;
        log.extend(u.log.iter().map(|&(ts, idx)| (ts, c, idx)));
        out.ops.absorb(u.ops);
        out.txn_ns.extend(u.lat_ns);
        out.spans.extend(u.rec.spans);
        out.errors.extend(u.errors);
    }
    let mut measured_ops = out.committed;
    for (c, samples) in [(analytic, &mut out.scan_ns), (wire, &mut out.wire_ns)] {
        if let Some(c) = c {
            measured_ops += c.lat_ns.len() as u64;
            out.ops.absorb(c.ops);
            samples.extend(c.lat_ns);
            out.spans.extend(c.rec.spans);
            out.errors.extend(c.errors);
        }
    }
    out.measured_ops = measured_ops;

    env.db.drain_merges();
    match Model::build(ctx.seed, ctx.round, &inputs, &mut log) {
        Ok(model) => {
            probe(ctx, env, &model, epoch, &mut out);
            check(env, &model, &mut out.errors);
        }
        Err(e) => out.errors.push(e),
    }
    out.base_bytes = env.table.base_bytes() as u64;
    Ok(out)
}

struct UpdateOut {
    /// `(commit_ts, input index)` of each committed transaction.
    log: Vec<(u64, usize)>,
    lat_ns: Vec<u64>,
    ops: Ops,
    rec: Recorder,
    errors: Vec<String>,
}

/// A closed-loop update client: each transaction runs to commit, retried
/// from `begin` after a write-write conflict.
fn update_client(
    db: &Database,
    table: &Table,
    inputs: &[TxnInput],
    updates_seen: &[AtomicU32],
    mut rec: Recorder,
) -> UpdateOut {
    let mut out_log = Vec::with_capacity(inputs.len());
    let mut lat_ns = Vec::with_capacity(inputs.len());
    let mut ops = Ops::default();
    let mut errors = Vec::new();
    for (idx, input) in inputs.iter().enumerate() {
        let t0 = Instant::now();
        let op = rec.next_id();
        let mut attempts = 0;
        loop {
            attempts += 1;
            ops.attempts += 1;
            let mut txn = rec.time(Name::Begin, op, || db.begin());
            let mut result = Ok(());
            for &key in &input.reads {
                let depth = Depth::of(updates_seen[key as usize].load(Ordering::Relaxed));
                match rec.time(Name::Read(depth), op, || {
                    table.read(&mut txn, key, &ALL_COLS)
                }) {
                    Ok(Some(values)) => {
                        black_box(values);
                    }
                    Ok(None) => {
                        result = Err(Error::KeyNotFound(key));
                        break;
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            if result.is_ok() {
                for (key, cols) in &input.writes {
                    if let Err(e) =
                        rec.time(Name::Update, op, || table.update(&mut txn, *key, cols))
                    {
                        result = Err(e);
                        break;
                    }
                }
            }
            match result {
                Ok(()) => {
                    match rec.time(Name::Commit, op, || db.commit(&mut txn)) {
                        Ok(ts) => {
                            out_log.push((ts, idx));
                            for (key, _) in &input.writes {
                                updates_seen[*key as usize].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            ops.failed += 1;
                            errors.push(format!("commit of txn {idx}: {e}"));
                        }
                    }
                    break;
                }
                Err(Error::WriteConflict { .. }) if attempts < MAX_ATTEMPTS => {
                    rec.time(Name::Abort, op, || db.abort(&mut txn));
                    ops.aborted += 1;
                }
                Err(e) => {
                    db.abort(&mut txn);
                    ops.failed += 1;
                    errors.push(format!("txn {idx} after {attempts} attempts: {e}"));
                    break;
                }
            }
        }
        let t1 = Instant::now();
        lat_ns.push((t1 - t0).as_nanos() as u64);
        rec.root(Name::Txn, op, t0, t1);
    }
    UpdateOut {
        log: out_log,
        lat_ns,
        ops,
        rec,
        errors,
    }
}

struct ClientOut {
    lat_ns: Vec<u64>,
    ops: Ops,
    rec: Recorder,
    errors: Vec<String>,
}

/// A closed-loop analytic client: snapshot SUM of a random column over a
/// random 10% RID span at `Table::now()`. With `model`, every sum is
/// checked against it. Runs at least once, then while `go` holds.
fn scan_client(
    table: &Table,
    rng: &mut SmallRng,
    mut rec: Recorder,
    model: Option<&Model>,
    mut go: impl FnMut() -> bool,
) -> ClientOut {
    let mut out = ClientOut {
        lat_ns: Vec::new(),
        ops: Ops::default(),
        rec: Recorder::new(false, Instant::now(), 0, 0),
        errors: Vec::new(),
    };
    loop {
        let first = rng.random_range(0..=ROWS - SCAN_SPAN);
        let col = rng.random_range(0..COLS);
        let t0 = Instant::now();
        let op = rec.next_id();
        out.ops.attempts += 1;
        match rec.time(Name::Locate, op, || table.locate(first)) {
            Ok(rid) => {
                let sum = rec.time(Name::SumSpan, op, || {
                    table.sum_rid_span(rid, SCAN_SPAN, col, table.now())
                });
                if let Some(want) = model.map(|m| m.span_sum(first, col)) {
                    if sum != want {
                        out.errors.push(format!(
                            "span sum from key {first} c{col}: {sum}, model {want}"
                        ));
                    }
                }
                black_box(sum);
            }
            Err(e) => {
                out.ops.failed += 1;
                out.errors.push(format!("locate {first}: {e}"));
            }
        }
        let t1 = Instant::now();
        out.lat_ns.push((t1 - t0).as_nanos() as u64);
        rec.root(Name::Scan, op, t0, t1);
        if !go() {
            break;
        }
    }
    out.rec = rec;
    out
}

/// A closed-loop wire connection: one `multi_read` of `WIRE_KEYS` keys at
/// a time. With `model`, every returned row is checked against it. Runs at
/// least once, then while `go` holds.
fn wire_client(
    client: &mut Client,
    draw: &KeyDraw<'_>,
    rng: &mut SmallRng,
    mut rec: Recorder,
    model: Option<&Model>,
    mut go: impl FnMut() -> bool,
) -> ClientOut {
    let mut out = ClientOut {
        lat_ns: Vec::new(),
        ops: Ops::default(),
        rec: Recorder::new(false, Instant::now(), 0, 0),
        errors: Vec::new(),
    };
    let mut keys = [0u64; WIRE_KEYS];
    loop {
        for k in keys.iter_mut() {
            *k = draw.draw(rng);
        }
        let t0 = Instant::now();
        let op = rec.next_id();
        out.ops.attempts += 1;
        let reply = client.multi_read(TABLE, &keys, None, None);
        let t1 = Instant::now();
        rec.root(Name::Wire, op, t0, t1);
        out.lat_ns.push((t1 - t0).as_nanos() as u64);
        match reply {
            Ok(results) => {
                for (key, result) in keys.iter().zip(results) {
                    let values = match result {
                        Ok(response) => response.values,
                        Err(e) => {
                            out.errors.push(format!("wire read of key {key}: {e}"));
                            None
                        }
                    };
                    let ok = match (&values, model) {
                        (Some(v), Some(m)) => v.as_slice() == m.row(*key),
                        (Some(v), None) => v.len() == COLS,
                        (None, _) => false,
                    };
                    if !ok {
                        out.errors
                            .push(format!("wire read of key {key} returned {values:?}"));
                    }
                }
            }
            Err(ClientError::Rejected(e)) => {
                // Shed or timed out: a failed operation, not a wrong answer.
                out.ops.failed += 1;
                black_box(e);
            }
            Err(e) => {
                out.ops.failed += 1;
                out.errors.push(format!("wire transport: {e}"));
                break;
            }
        }
        if !go() {
            break;
        }
    }
    out.rec = rec;
    out
}

/// Quiescent probes, after the update clients finished and merges drained,
/// for each client kind the workload has no concurrent client of. Their
/// results are checked against the model. Each probe first runs
/// `PROBE_WARMUP` untimed operations: the connection and the server's
/// threads sat idle through the measured phase, and their first wake-ups
/// would otherwise be most of the probe's tail.
fn probe(ctx: &RoundCtx<'_>, env: &mut Env, model: &Model, epoch: Instant, out: &mut RoundOut) {
    let limit = |ops: usize| {
        let mut n = 0;
        move || {
            n += 1;
            n < ops
        }
    };
    if !ctx.spec.analytic_client {
        let mut rng = SmallRng::seed_from_u64(stream_seed(ctx.seed, ctx.round, 201));
        let table = &*env.table;
        let off = Recorder::new(false, epoch, 0, 0);
        let warm = scan_client(table, &mut rng, off, Some(model), limit(PROBE_WARMUP));
        absorb_client(
            out,
            ClientOut {
                lat_ns: Vec::new(),
                ..warm
            },
            true,
        );
        let rec = Recorder::new(ctx.traced, epoch, 92, PROBE_OPS * 3);
        let c = scan_client(table, &mut rng, rec, Some(model), limit(PROBE_OPS));
        absorb_client(out, c, true);
    }
    if !ctx.spec.wire_client {
        let mut rng = SmallRng::seed_from_u64(stream_seed(ctx.seed, ctx.round, 301));
        let client = &mut env.client;
        let off = Recorder::new(false, epoch, 0, 0);
        let warm = wire_client(
            client,
            ctx.draw,
            &mut rng,
            off,
            Some(model),
            limit(PROBE_WARMUP),
        );
        absorb_client(
            out,
            ClientOut {
                lat_ns: Vec::new(),
                ..warm
            },
            false,
        );
        let rec = Recorder::new(ctx.traced, epoch, 93, PROBE_OPS);
        let c = wire_client(
            client,
            ctx.draw,
            &mut rng,
            rec,
            Some(model),
            limit(PROBE_OPS),
        );
        absorb_client(out, c, false);
    }
}

fn absorb_client(out: &mut RoundOut, c: ClientOut, scan: bool) {
    out.ops.absorb(c.ops);
    if scan {
        out.scan_ns.extend(c.lat_ns);
    } else {
        out.wire_ns.extend(c.lat_ns);
    }
    out.spans.extend(c.rec.spans);
    out.errors.extend(c.errors);
}

/// End-of-round checks: every touched key reads back equal to the model,
/// every column's table-wide SUM equals the model's, and wire reads of a
/// sample of keys equal in-process reads.
fn check(env: &mut Env, model: &Model, errors: &mut Vec<String>) {
    let table = &*env.table;
    for key in model.touched() {
        match table.read_latest_auto(key) {
            Ok(values) if values.as_slice() == model.row(key) => {}
            other => errors.push(format!(
                "key {key} reads {other:?}, model {:?}",
                model.row(key)
            )),
        }
    }
    let now = table.now();
    for col in 0..COLS {
        let (got, want) = (table.sum_as_of(col, now), model.col_sum(col));
        if got != want {
            errors.push(format!("sum_as_of(c{col}) = {got}, model {want}"));
        }
    }
    // The hottest keys, then an even spread over the rest.
    let hot = WIRE_CHECK_KEYS as u64 / 4;
    let step = (ROWS - hot) as usize / (WIRE_CHECK_KEYS - hot as usize);
    let sample: Vec<u64> = (0..hot).chain((hot..ROWS).step_by(step)).collect();
    for keys in sample.chunks(WIRE_KEYS) {
        match env.client.multi_read(TABLE, keys, None, None) {
            Ok(results) => {
                for (key, result) in keys.iter().zip(results) {
                    let remote = result.map(|r| r.values);
                    let local = table.read_latest_auto(*key).map(Some);
                    if remote.as_ref().ok() != local.as_ref().ok() || remote.is_err() {
                        errors.push(format!("key {key}: wire {remote:?}, in-process {local:?}"));
                    }
                }
            }
            Err(e) => errors.push(format!("wire check: {e}")),
        }
    }
}
