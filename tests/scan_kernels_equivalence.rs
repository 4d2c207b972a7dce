//! Kernel-execution equivalence at the engine level: every aggregate scan
//! must return byte-identical results with `scan_kernels` on (compressed
//! per-page kernels + visibility masks) and off (the per-row
//! decode-then-aggregate path) — across merges, updates, deletes, historic
//! compression, and time-travel snapshots.

use std::collections::BTreeMap;

use lstore::{Database, DbConfig, Rid, Table, TableConfig};

const KEYS: u64 = 1200;

type Built = (std::sync::Arc<Database>, std::sync::Arc<Table>, Vec<u64>);

/// Build one engine and drive it through a workload that leaves a mix of
/// clean merged pages, dirty tail chains, deletes, and compressed history.
fn build(kernels: bool) -> Built {
    let config = DbConfig::deterministic().with_scan_kernels(kernels);
    build_with(config, TableConfig::default(), KEYS)
}

/// [`build`]'s workload over `keys` keys with the given configurations.
fn build_with(config: DbConfig, table: TableConfig, keys: u64) -> Built {
    let db = Database::new(config);
    let t = db
        .create_table("agg", &["grp", "val", "wide"], table)
        .unwrap();
    let mut marks = Vec::new();

    // Compressible base data: 16 groups in 64-long runs, plus a max-width
    // column that exercises wrapping arithmetic in the kernels.
    for k in 0..keys {
        t.insert_auto(k, &[(k / 64) % 16, k % 97, u64::MAX - (k % 7)])
            .unwrap();
    }
    t.merge_all();
    marks.push(t.now());

    // Sparse updates: a few MVCC holes per page for the masked kernels.
    for k in (0..keys).step_by(37) {
        t.update_auto(k, &[(1, k + 1_000_000)]).unwrap();
    }
    marks.push(t.now());

    // Deletes, then a second merge so some deletes live in merged pages.
    for k in (0..keys).step_by(101) {
        t.delete_auto(k).unwrap();
    }
    t.merge_all();
    marks.push(t.now());

    // A dense update wave: more than a quarter of rows dirty, which pushes
    // the mask planner past its density cutoff into the fallback path.
    for k in (0..keys / 2).map(|i| i * 2) {
        t.update_auto(k, &[(0, (k / 64) % 5), (1, k)]).ok();
    }
    marks.push(t.now());

    for range in 0..t.range_count() as u32 {
        t.compress_historic(range, t.now());
    }
    marks.push(t.now());

    (db, t, marks)
}

#[derive(Debug, PartialEq)]
struct Snapshot {
    sums: Vec<u64>,
    multi: Vec<u64>,
    count: u64,
    groups: BTreeMap<u64, u64>,
    key_ranges: Vec<u64>,
    rid_span: u64,
}

fn observe(t: &Table, ts: u64) -> Snapshot {
    Snapshot {
        sums: (0..3).map(|c| t.sum_as_of(c, ts)).collect(),
        multi: t.sum_cols_as_of(&[0, 1, 2], ts),
        count: t.count_as_of(ts),
        groups: t.group_by_sum(0, 1, ts),
        key_ranges: vec![
            t.sum_key_range(1, 0, KEYS, ts),
            t.sum_key_range(1, 100, 500, ts),
            t.sum_key_range(2, 63, 64, ts),
        ],
        rid_span: t.sum_rid_span(Rid::base(0, 5), KEYS / 2, 1, ts),
    }
}

#[test]
fn kernel_and_decode_paths_agree() {
    let (_db_on, on, marks_on) = build(true);
    let (_db_off, off, marks_off) = build(false);
    assert_eq!(
        marks_on, marks_off,
        "deterministic clocks must line up for snapshot comparison"
    );
    for &ts in &marks_on {
        let a = observe(&on, ts);
        let b = observe(&off, ts);
        assert_eq!(a, b, "kernels on/off diverged at ts {ts}");
    }
    // And at "now", after all mutations.
    let ts = on.now().max(off.now());
    assert_eq!(observe(&on, ts), observe(&off, ts));
}

/// Range size of the multi-range battery: small enough that its table
/// spans several ranges, so windows start, end and cross range boundaries.
const RANGE: u32 = 256;
const RANGED_KEYS: u64 = 2000;

/// Key-range sums and rows: logical results every configuration shares.
#[derive(Debug, PartialEq)]
struct Logical {
    key_ranges: Vec<u64>,
    rows: Vec<(u64, Vec<u64>)>,
}

fn observe_logical(t: &Table, ts: u64) -> Logical {
    let edge = RANGE as u64;
    Logical {
        key_ranges: vec![
            t.sum_key_range(1, 0, RANGED_KEYS, ts),
            t.sum_key_range(2, 100, 1500, ts),
            // Shorter than the kernel's minimum window, across a range edge.
            t.sum_key_range(1, edge - 6, edge + 5, ts),
            t.sum_key_range(2, 3 * edge - 2, 3 * edge + 1, ts),
        ],
        rows: t.scan_as_of(&[0, 1, 2], ts),
    }
}

/// RID spans depend on physical placement, so they compare kernels on
/// against off within one configuration only.
fn observe_spans(t: &Table, ts: u64) -> (Vec<u64>, Snapshot) {
    let spans = vec![
        // From mid-range across three range boundaries.
        t.sum_rid_span(Rid::base(1, RANGE / 2), 3 * RANGE as u64, 1, ts),
        t.sum_rid_span(Rid::base(1, RANGE / 2), 3 * RANGE as u64, 2, ts),
        // A 10-slot span across one boundary.
        t.sum_rid_span(Rid::base(2, RANGE - 4), 10, 1, ts),
        t.sum_rid_span(Rid::base(0, 0), u64::MAX, 0, ts),
    ];
    (spans, observe(t, ts))
}

#[test]
fn multi_range_windows_agree_across_kernels_pools_and_shards() {
    let mut logical: Option<Vec<Logical>> = None;
    for pool_threads in [1, 2] {
        for shards in [1, 2] {
            let build_one = |kernels| {
                let config = DbConfig::deterministic()
                    .with_scan_kernels(kernels)
                    .with_pool_threads(pool_threads)
                    .with_shards(shards);
                let table = TableConfig::default().with_range_size(RANGE as usize);
                build_with(config, table, RANGED_KEYS)
            };
            let (_db_on, on, marks_on) = build_one(true);
            let (_db_off, off, marks_off) = build_one(false);
            let cell = format!("pool_threads={pool_threads} shards={shards}");
            assert_eq!(marks_on, marks_off, "{cell}: clocks must line up");
            assert!(on.range_count() >= 5, "{cell}: {} ranges", on.range_count());
            let mut seen = Vec::new();
            for &ts in &marks_on {
                let a = observe_logical(&on, ts);
                assert_eq!(
                    a,
                    observe_logical(&off, ts),
                    "{cell}: kernels diverged at ts {ts}"
                );
                assert_eq!(
                    observe_spans(&on, ts),
                    observe_spans(&off, ts),
                    "{cell}: kernels diverged at ts {ts}"
                );
                seen.push(a);
            }
            match &logical {
                Some(first) => assert_eq!(first, &seen, "{cell} diverged from the first config"),
                None => logical = Some(seen),
            }
        }
    }
}
