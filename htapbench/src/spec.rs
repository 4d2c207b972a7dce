//! The three workloads and the seeded generation of their inputs.
//!
//! Every input the engine sees — loaded rows, transaction keys, columns and
//! values, scan spans, wire keys — is a pure function of the `--seed`
//! argument, the round number and the client number.

use lstore_bench::workload::Zipfian;
use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Rows loaded per round.
pub const ROWS: u64 = 200_000;
/// Value columns per row (the key is implicit).
pub const COLS: usize = 10;
/// All-column point reads per update transaction (§6.1 mix).
pub const READS_PER_TXN: usize = 8;
/// Updates per update transaction.
pub const UPDATES_PER_TXN: usize = 2;
/// Columns written per update.
pub const COLS_PER_UPDATE: usize = 4;
/// Rows per load transaction.
pub const LOAD_BATCH: u64 = 1000;
/// Rows covered by one analytic SUM (10% of the table).
pub const SCAN_SPAN: u64 = ROWS / 10;
/// Keys per wire multi-get.
pub const WIRE_KEYS: usize = 16;
/// Buffer-pool budget of `durable_serve`, in page frames.
pub const POOL_FRAMES: usize = 150;
/// Zipfian skew of the hot-key workloads.
pub const ZIPF_THETA: f64 = 0.99;
/// Operations of each quiescent probe a workload runs after its update
/// clients finish, for the client kinds it has no concurrent client of.
pub const PROBE_OPS: usize = 1000;
/// Untimed operations before each probe.
pub const PROBE_WARMUP: usize = 50;

/// One of the benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HtapUniform,
    OltpHot,
    DurableServe,
}

/// How update keys (and wire keys) are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keys {
    Uniform,
    Zipf,
}

/// Which columns an update writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Columns {
    /// A random 4-of-10 set per update.
    Random,
    /// The same 4 columns on every update.
    Fixed,
}

/// The fixed settings of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub update_clients: usize,
    pub keys: Keys,
    pub columns: Columns,
    /// Update transactions committed per round, across all update clients.
    pub txns: usize,
    /// One closed-loop snapshot-SUM client alongside the update clients.
    pub analytic_client: bool,
    /// One closed-loop wire multi-get connection alongside the update
    /// clients.
    pub wire_client: bool,
    /// WAL plus a page store behind a bounded buffer pool.
    pub durable: bool,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HtapUniform,
        Workload::OltpHot,
        Workload::DurableServe,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HtapUniform => "htap_uniform",
            Workload::OltpHot => "oltp_hot",
            Workload::DurableServe => "durable_serve",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::HtapUniform => Spec {
                update_clients: 1,
                keys: Keys::Uniform,
                columns: Columns::Random,
                txns: 50_000,
                analytic_client: true,
                wire_client: false,
                durable: false,
            },
            Workload::OltpHot => Spec {
                update_clients: 2,
                keys: Keys::Zipf,
                columns: Columns::Fixed,
                txns: 12_000,
                analytic_client: false,
                wire_client: false,
                durable: false,
            },
            Workload::DurableServe => Spec {
                update_clients: 1,
                keys: Keys::Zipf,
                columns: Columns::Random,
                txns: 2_000,
                analytic_client: false,
                wire_client: true,
                durable: true,
            },
        }
    }
}

/// One pre-generated update transaction: 8 reads, then 2 updates of 4
/// columns each on two distinct keys.
#[derive(Clone, Debug)]
pub struct TxnInput {
    pub reads: [u64; READS_PER_TXN],
    pub writes: [(u64, [(usize, u64); COLS_PER_UPDATE]); UPDATES_PER_TXN],
}

/// Mix a stream identity into a 64-bit seed.
pub fn stream_seed(seed: u64, round: u64, stream: u64) -> u64 {
    let mut s = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.rotate_left(32);
    splitmix64(&mut s)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Loaded value of `(key, col)` in `round`: 32 bits, so sums stay far from
/// wrapping and no value collides with the engine's NULL sentinel.
pub fn initial_value(seed: u64, round: u64, key: u64, col: usize) -> u64 {
    let mut s = stream_seed(seed, round, 1) ^ key.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ col as u64;
    splitmix64(&mut s) & 0xFFFF_FFFF
}

/// Draws keys from a workload's key distribution.
pub struct KeyDraw<'a> {
    keys: Keys,
    zipf: &'a Zipfian,
}

impl<'a> KeyDraw<'a> {
    pub fn new(keys: Keys, zipf: &'a Zipfian) -> KeyDraw<'a> {
        KeyDraw { keys, zipf }
    }

    /// Zipfian rank `r` is key `r`: the hot keys share the first ranges.
    pub fn draw(&self, rng: &mut SmallRng) -> u64 {
        match self.keys {
            Keys::Uniform => rng.random_range(0..ROWS),
            Keys::Zipf => self.zipf.sample(rng),
        }
    }
}

/// Generate update client `client`'s share of a round's transactions.
pub fn gen_txns(
    spec: &Spec,
    draw: &KeyDraw<'_>,
    seed: u64,
    round: u64,
    client: usize,
) -> Vec<TxnInput> {
    let count = spec.txns / spec.update_clients;
    let mut rng = SmallRng::seed_from_u64(stream_seed(seed, round, 100 + client as u64));
    (0..count)
        .map(|_| {
            let reads = std::array::from_fn(|_| draw.draw(&mut rng));
            let first = draw.draw(&mut rng);
            let mut second = draw.draw(&mut rng);
            while second == first {
                second = draw.draw(&mut rng);
            }
            let writes = [first, second].map(|key| {
                let cols = match spec.columns {
                    Columns::Fixed => [0, 1, 2, 3],
                    Columns::Random => pick_columns(&mut rng),
                };
                (key, cols.map(|c| (c, rng.next_u64() & 0xFFFF_FFFF)))
            });
            TxnInput { reads, writes }
        })
        .collect()
}

/// A uniformly random 4-of-10 column set (partial Fisher–Yates).
fn pick_columns(rng: &mut SmallRng) -> [usize; COLS_PER_UPDATE] {
    let mut all: [usize; COLS] = std::array::from_fn(|c| c);
    for i in 0..COLS_PER_UPDATE {
        let j = rng.random_range(i..COLS);
        all.swap(i, j);
    }
    std::array::from_fn(|i| all[i])
}
