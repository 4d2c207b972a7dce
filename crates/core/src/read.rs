//! Version resolution: latest, snapshot, and time-travel reads.
//!
//! "When a reader performing index lookup, it always lands at a base record,
//! and from the base record it can reach any desired version of the record
//! by following the table-embedded indirection" (§2.2). This module
//! implements that walk with the paper's fast paths:
//!
//! * **2-hop access / TPS interpretation** (§4.2): if the indirection is ⊥,
//!   or the pointed-to sequence number is ≤ the base page's (per-column)
//!   TPS, the base page already reflects the latest value — no chain walk.
//! * **Bounded resolve**: past the newest visible version, a requested
//!   column is read from the base as soon as the walk may stop for it —
//!   when the slot never updated the column (the updated-columns bitmap,
//!   the base-record Schema Encoding of §2.1), or when the column's TPS
//!   covers the current hop (§4.2; snapshot reads also need the slot's
//!   Last Updated Time within the snapshot). With cumulative tail records
//!   (§2.1) carrying every column updated since the last merge, a latest
//!   read costs the head record plus the base, and a snapshot read the
//!   versions newer than the snapshot plus the base.
//! * **Lazy commit-timestamp swap** (§5.1.1): when a reader resolves a Start
//!   Time cell holding the id of a committed transaction, it CASes the
//!   commit timestamp into the cell.
//! * **Snapshot safety** (Lemma 2): because a column's original value is
//!   snapshotted into the tail on its first update, walking the chain can
//!   reconstruct *any* version even after merges replaced base values —
//!   the base page is only consulted for columns it provably holds at the
//!   read time.
//! * **Historic crossing** (§4.3): walks that descend below the range's
//!   historic boundary continue in the re-organized historic store.

use lstore_txn::TxnManager;

use crate::historic::HistoricStore;
use crate::range::{BaseVersion, UpdateRange};
use crate::rid::Rid;
use crate::schema::{SchemaEncoding, MAX_COLUMNS};

/// How a read resolves visibility.
#[derive(Debug, Clone, Copy)]
pub struct ReadMode {
    /// `Some(ts)`: snapshot semantics — only versions with commit time ≤ ts.
    /// `None`: latest-committed semantics.
    pub as_of: Option<u64>,
    /// The reading transaction's id (its own writes are always visible);
    /// 0 for detached readers.
    pub txn_id: u64,
    /// Accept versions of pre-committed transactions (§5.1.1
    /// speculative-read).
    pub speculative: bool,
    /// Skip versions written by `txn_id` itself — used by commit-time
    /// validation, which must compare against what *other* transactions
    /// see, not against the validator's own installed writes.
    pub exclude_own: bool,
}

impl ReadMode {
    /// Latest committed version, as a detached reader.
    pub fn latest() -> Self {
        ReadMode {
            as_of: None,
            txn_id: 0,
            speculative: false,
            exclude_own: false,
        }
    }

    /// Snapshot at `ts`, as a detached reader.
    pub fn as_of(ts: u64) -> Self {
        ReadMode {
            as_of: Some(ts),
            txn_id: 0,
            speculative: false,
            exclude_own: false,
        }
    }
}

/// Outcome of resolving one record at one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolved {
    /// The record is visible; `version_rid` identifies the visible version
    /// (for read-set validation), `values` the requested columns.
    Visible { version_rid: Rid, values: Vec<u64> },
    /// The record is deleted as of the read time.
    Deleted,
    /// The record does not exist at the read time (uncommitted insert or
    /// inserted after the snapshot).
    NotVisible,
}

/// A borrowed view bundling everything a read needs.
pub struct VersionReader<'a> {
    /// The range being read.
    pub range: &'a UpdateRange,
    /// A pinned base snapshot (grab once per range per query).
    pub base: &'a BaseVersion,
    /// Transaction table for Start Time resolution.
    pub mgr: &'a TxnManager,
    /// Historic store for walks below the historic boundary.
    pub historic: Option<&'a HistoricStore>,
}

impl<'a> VersionReader<'a> {
    /// Resolve a raw Start Time cell under `mode`: `Some(effective_ts)` when
    /// the version is visible, `None` otherwise. Own writes resolve to 0
    /// (visible under any snapshot bound).
    fn resolve(&self, cell: u64, mode: ReadMode) -> Option<u64> {
        if cell == lstore_storage::NULL_VALUE {
            return None; // unwritten slot
        }
        if lstore_txn::is_txn_id(cell) {
            if cell == mode.txn_id {
                if mode.exclude_own {
                    return None; // validation: own writes don't count
                }
                return Some(0); // own write: always visible
            }
            let ts = self.mgr.resolve_start_time(cell, mode.speculative)?;
            match mode.as_of {
                Some(bound) if ts > bound => None,
                _ => Some(ts),
            }
        } else {
            match mode.as_of {
                Some(bound) if cell > bound => None,
                _ => Some(cell),
            }
        }
    }

    /// Resolve + lazily swap a tail record's Start Time cell when it holds a
    /// committed transaction id.
    fn resolve_tail(&self, seq: u32, mode: ReadMode) -> Option<u64> {
        #[cfg(test)]
        tests::note_hop();
        let cell = self.range.tail.start_cell(seq);
        let vis = self.resolve(cell, mode);
        if let Some(ts) = vis {
            if ts > 0 && lstore_txn::is_txn_id(cell) {
                // Lazy swap: only for *committed* (not pre-committed) owners.
                if let Some(info) = self.mgr.get(cell) {
                    if info.status == lstore_txn::TxnStatus::Committed {
                        self.range.tail.swap_start_cell(seq, cell, ts);
                    }
                }
            }
        }
        vis
    }

    /// Resolve the base record's visibility, lazily swapping an insert-phase
    /// Start Time cell once its transaction committed (§5.1.1: "Swapping the
    /// transaction ID with commit time is done lazily by future readers").
    fn resolve_base(&self, slot: u32, mode: ReadMode) -> Option<u64> {
        let cell = self.base.start_cell(slot);
        let vis = self.resolve(cell, mode)?;
        if lstore_txn::is_txn_id(cell) {
            if let Some(info) = self.mgr.get(cell) {
                if info.status == lstore_txn::TxnStatus::Committed {
                    if let crate::range::BaseData::Insert(t) = &self.base.data {
                        let _ = t.start_time.cas(slot as usize, cell, info.commit);
                    }
                }
            }
        }
        Some(vis)
    }

    /// Read `columns` of the record at `slot`.
    pub fn read_record(&self, slot: u32, columns: &[usize], mode: ReadMode) -> Resolved {
        // 1. Base-record visibility (covers uncommitted / future inserts).
        if self.resolve_base(slot, mode).is_none() {
            return Resolved::NotVisible;
        }
        let base_rid = Rid::base(self.range.id, slot);
        let head = self.range.indirection(slot);

        // 2. Fast path: ⊥ indirection → the base record is the only version.
        if head.is_null() {
            if SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
                return Resolved::Deleted;
            }
            return Resolved::Visible {
                version_rid: base_rid,
                values: columns.iter().map(|&c| self.base.value(c, slot)).collect(),
            };
        }

        // 3. Fast path: TPS interpretation (§4.2). For latest reads, when
        // every requested column's TPS covers the head sequence, the base
        // page is current for those columns — 2 hops, no chain walk.
        if mode.as_of.is_none() && !columns.is_empty() {
            let seq = head.seq() as u64;
            let covered = columns.iter().all(|&c| self.base.column_tps[c] >= seq);
            if covered {
                if SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
                    return Resolved::Deleted;
                }
                return Resolved::Visible {
                    version_rid: head,
                    values: columns.iter().map(|&c| self.base.value(c, slot)).collect(),
                };
            }
        }

        // 4. Chain walk: find the newest visible version.
        let boundary = self.range.historic_boundary();
        let mut cursor = head;
        let (version_rid, version_enc) = loop {
            if cursor.is_null() || cursor.is_base() {
                // No visible tail version: the base record itself.
                if SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
                    return Resolved::Deleted;
                }
                return Resolved::Visible {
                    version_rid: base_rid,
                    values: columns.iter().map(|&c| self.base.value(c, slot)).collect(),
                };
            }
            let seq = cursor.seq();
            if (seq as u64) < boundary {
                // Crossed into the historic store.
                return self.read_historic(slot, columns, mode, base_rid);
            }
            if self.resolve_tail(seq, mode).is_some() {
                break (cursor, self.range.tail.encoding(seq));
            }
            cursor = self.range.tail.prev(seq);
        };

        if version_enc.is_delete() {
            return Resolved::Deleted;
        }

        // 5. Collect the requested columns, newest visible version first.
        Resolved::Visible {
            version_rid,
            values: self.collect(slot, columns, mode, version_rid, boundary),
        }
    }

    /// Values of `columns` as of the visible version `version_rid` (step 5
    /// of [`VersionReader::read_record`]), walking older versions only for
    /// columns that version does not carry and only until the base page
    /// provably holds them.
    fn collect(
        &self,
        slot: u32,
        columns: &[usize],
        mode: ReadMode,
        version_rid: Rid,
        boundary: u64,
    ) -> Vec<u64> {
        // Loaded after the head: writers set a column's bit before they
        // install the pointer that makes its first tail record reachable.
        let updated = self.range.updated_columns(slot);
        let want = columns.iter().fold(0u64, |m, &c| m | 1 << c);
        // Columns this slot never updated have no tail value anywhere in
        // the chain: the base holds them at every time.
        let mut from_base = want & !updated;
        let mut missing = want & updated;
        let mut vals = [0u64; MAX_COLUMNS];
        // Whether the base image of this slot is no newer than the read
        // time; decided (at most one Last Updated Time pin) only when a
        // TPS stop would fire.
        let mut base_current: Option<bool> = None;
        let mut cursor = version_rid;
        let mut visible = true; // the version found in step 4
        while missing != 0 {
            if cursor.is_null() || cursor.is_base() {
                from_base |= missing;
                break;
            }
            let seq = cursor.seq();
            let in_tail = (seq as u64) >= boundary;
            // Older versions must still be visible (skip tombstones).
            if in_tail && (visible || self.resolve_tail(seq, mode).is_some()) {
                let carried = missing & self.range.tail.encoding(seq).column_bits();
                for c in bit_indices(carried) {
                    vals[c] = self.range.tail.value(seq, c);
                }
                missing &= !carried;
            }
            // TPS stop (§4.2): a column whose TPS covers this hop is
            // reflected by the base page, and every newer record of the
            // chain was visited above without supplying it — so the base
            // holds exactly the value an exhaustive walk would find.
            let covered = self.covered_at(missing, seq as u64);
            if covered != 0 && *base_current.get_or_insert_with(|| self.base_not_newer(slot, mode))
            {
                from_base |= covered;
                missing &= !covered;
            }
            if !in_tail {
                // Remaining columns come from the historic store, as of the
                // effective bound (historic data is strictly older).
                let bound = mode.as_of.unwrap_or(u64::MAX);
                for c in bit_indices(missing) {
                    match self
                        .historic
                        .and_then(|hist| hist.read_column(self.range.id, slot, c, bound))
                    {
                        Some(v) => vals[c] = v,
                        None => from_base |= 1 << c,
                    }
                }
                break;
            }
            visible = false;
            cursor = self.range.tail.prev(seq);
        }
        for c in bit_indices(from_base) {
            vals[c] = self.base.value(c, slot);
        }

        columns.iter().map(|&c| vals[c]).collect()
    }

    /// The subset of `missing` whose per-column TPS covers tail record
    /// `seq`: the base page already consolidates that record and every
    /// older one for those columns.
    #[inline]
    fn covered_at(&self, missing: u64, seq: u64) -> u64 {
        bit_indices(missing)
            .filter(|&c| self.base.column_tps[c] >= seq)
            .fold(0, |m, c| m | 1 << c)
    }

    /// Is the base image of `slot` no newer than what `mode` may see?
    /// Latest reads always qualify: merges consume only a committed prefix.
    /// Snapshot reads need the slot's Last Updated Time at or below the
    /// bound; the page-wide maximum answers that without a pin when it can.
    fn base_not_newer(&self, slot: u32, mode: ReadMode) -> bool {
        match mode.as_of {
            None => true,
            Some(bound) if self.base.max_last_updated <= bound => true,
            Some(bound) => {
                let lu = self.base.last_updated(slot);
                lu == lstore_storage::NULL_VALUE || lu <= bound
            }
        }
    }

    /// Read a single column of the record at `slot`; `None` when the record
    /// is invisible or deleted. The scan fast path for merged columns.
    pub fn read_column(&self, slot: u32, column: usize, mode: ReadMode) -> Option<u64> {
        self.resolve_base(slot, mode)?;
        let head = self.range.indirection(slot);
        if head.is_null() {
            if SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
                return None;
            }
            return Some(self.base.value(column, slot));
        }
        let seq = head.seq() as u64;
        // TPS fast path; for snapshot reads additionally require that the
        // merged image is not newer than the snapshot (Last Updated Time).
        if self.base.column_tps[column] >= seq {
            let fresh_enough = match mode.as_of {
                None => true,
                Some(bound) => {
                    let lu = self.base.last_updated(slot);
                    lu == lstore_storage::NULL_VALUE || lu <= bound
                }
            };
            if fresh_enough {
                if SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
                    return None;
                }
                return Some(self.base.value(column, slot));
            }
        }
        match self.read_record(slot, &[column], mode) {
            Resolved::Visible { values, .. } => Some(values[0]),
            _ => None,
        }
    }

    /// Fallback path once a walk crosses the historic boundary before
    /// finding a visible version in regular tail pages.
    fn read_historic(
        &self,
        slot: u32,
        columns: &[usize],
        mode: ReadMode,
        base_rid: Rid,
    ) -> Resolved {
        let bound = mode.as_of.unwrap_or(u64::MAX);
        if let Some(hist) = self.historic {
            match hist.read_record(self.range.id, slot, columns, bound) {
                Some(crate::historic::HistoricRead::Visible(values, filled)) => {
                    // Columns without historic coverage fall back to base.
                    let values = values
                        .into_iter()
                        .zip(columns)
                        .zip(filled)
                        .map(|((v, &c), has)| if has { v } else { self.base.value(c, slot) })
                        .collect();
                    return Resolved::Visible {
                        version_rid: base_rid,
                        values,
                    };
                }
                Some(crate::historic::HistoricRead::Deleted) => return Resolved::Deleted,
                None => {}
            }
        }
        // No historic record: the base record as stored.
        if SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
            return Resolved::Deleted;
        }
        Resolved::Visible {
            version_rid: base_rid,
            values: columns.iter().map(|&c| self.base.value(c, slot)).collect(),
        }
    }
}

/// Indices of the set bits of `mask`, ascending.
#[inline]
fn bit_indices(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let c = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(c)
    })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::{Database, DbConfig, Table, TableConfig};

    thread_local! {
        static HOPS: Cell<u64> = const { Cell::new(0) };
    }

    /// Count one visited tail record on this thread.
    pub(super) fn note_hop() {
        HOPS.with(|h| h.set(h.get() + 1));
    }

    fn take_hops() -> u64 {
        HOPS.with(|h| h.replace(0))
    }

    /// The reference resolver: the unbounded walk this module used before
    /// the bounded resolve. Every requested column comes from the newest
    /// visible record that carries it, the historic store below the
    /// boundary, or the base once the chain ends — never from a TPS stop
    /// or the updated-columns bitmap.
    fn full_walk(r: &VersionReader<'_>, slot: u32, columns: &[usize], mode: ReadMode) -> Resolved {
        // 1. Base-record visibility (covers uncommitted / future inserts).
        if r.resolve_base(slot, mode).is_none() {
            return Resolved::NotVisible;
        }
        let base_rid = Rid::base(r.range.id, slot);
        let head = r.range.indirection(slot);

        // 2. Fast path: ⊥ indirection → the base record is the only version.
        if head.is_null() {
            if SchemaEncoding(r.base.schema_enc(slot)).is_delete() {
                return Resolved::Deleted;
            }
            return Resolved::Visible {
                version_rid: base_rid,
                values: columns.iter().map(|&c| r.base.value(c, slot)).collect(),
            };
        }

        // 3. Fast path: TPS interpretation (§4.2). For latest reads, when
        // every requested column's TPS covers the head sequence, the base
        // page is current for those columns — 2 hops, no chain walk.
        if mode.as_of.is_none() && !columns.is_empty() {
            let seq = head.seq() as u64;
            let covered = columns.iter().all(|&c| r.base.column_tps[c] >= seq);
            if covered {
                if SchemaEncoding(r.base.schema_enc(slot)).is_delete() {
                    return Resolved::Deleted;
                }
                return Resolved::Visible {
                    version_rid: head,
                    values: columns.iter().map(|&c| r.base.value(c, slot)).collect(),
                };
            }
        }

        // 4. Chain walk: find the newest visible version.
        let boundary = r.range.historic_boundary();
        let mut cursor = head;
        let (version_rid, version_enc) = loop {
            if cursor.is_null() || cursor.is_base() {
                // No visible tail version: the base record itr.
                if SchemaEncoding(r.base.schema_enc(slot)).is_delete() {
                    return Resolved::Deleted;
                }
                return Resolved::Visible {
                    version_rid: base_rid,
                    values: columns.iter().map(|&c| r.base.value(c, slot)).collect(),
                };
            }
            let seq = cursor.seq();
            if (seq as u64) < boundary {
                // Crossed into the historic store.
                return r.read_historic(slot, columns, mode, base_rid);
            }
            if r.resolve_tail(seq, mode).is_some() {
                break (cursor, r.range.tail.encoding(seq));
            }
            cursor = r.range.tail.prev(seq);
        };

        if version_enc.is_delete() {
            return Resolved::Deleted;
        }

        // 5. Collect requested columns from the visible version, walking
        // older visible versions for columns it does not carry.
        let mut values = vec![u64::MAX; columns.len()];
        let mut missing: Vec<usize> = (0..columns.len()).collect();
        let mut cursor = version_rid;
        while !missing.is_empty() {
            if cursor.is_null() || cursor.is_base() {
                for &i in &missing {
                    values[i] = r.base.value(columns[i], slot);
                }
                break;
            }
            let seq = cursor.seq();
            if (seq as u64) < boundary {
                // Remaining columns come from the historic store, as of the
                // effective bound (historic data is strictly older).
                let bound = mode.as_of.unwrap_or(u64::MAX);
                for &i in missing.clone().iter() {
                    if let Some(hist) = r.historic {
                        if let Some(v) = hist.read_column(r.range.id, slot, columns[i], bound) {
                            values[i] = v;
                            missing.retain(|&m| m != i);
                            continue;
                        }
                    }
                    values[i] = r.base.value(columns[i], slot);
                    missing.retain(|&m| m != i);
                }
                break;
            }
            // Older versions: must still be committed (skip tombstones).
            if r.resolve_tail(seq, mode).is_some() {
                let enc = r.range.tail.encoding(seq);
                missing.retain(|&i| {
                    if enc.has(columns[i]) {
                        values[i] = r.range.tail.value(seq, columns[i]);
                        false
                    } else {
                        true
                    }
                });
            }
            cursor = r.range.tail.prev(seq);
        }

        Resolved::Visible {
            version_rid,
            values,
        }
    }

    /// Tiny deterministic generator (no external dependency).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A non-empty random subset of `0..n`.
        fn subset(&mut self, n: usize) -> Vec<usize> {
            let bits = 1 + self.below((1 << n) - 1);
            (0..n).filter(|c| bits & (1 << c) != 0).collect()
        }
    }

    const VALUE_COLS: usize = 5;

    /// `(value column, value)` pairs of one update.
    type Updates = Vec<(usize, u64)>;
    const KEYS: u64 = 300; // a full first range and a second in its insert phase
    const HOT: u64 = 40; // the keys the history writes: deep chains

    /// The history writes `HOT` keys, half at each end of the key space so
    /// both the merged first range and the insert-phase second range build
    /// chains.
    fn hot_key(i: u64) -> u64 {
        if i < HOT / 2 {
            i
        } else {
            KEYS - HOT + i
        }
    }

    /// Resolve the records of every written key plus untouched neighbours
    /// with both resolvers under `mode`, for several column requests, and
    /// require identical results.
    fn assert_equivalent(t: &Table, mode: ReadMode, rng: &mut Lcg, ctx: &str) {
        let all: Vec<usize> = (0..=VALUE_COLS).collect();
        for key in (0..HOT / 2 + 4).chain(KEYS - HOT / 2 - 4..KEYS) {
            let rid = t.locate(key).unwrap();
            let range = t.range_handle(rid.range());
            let base = range.base();
            let reader = t.reader(&range, &base);
            let one = [1 + rng.below(VALUE_COLS as u64) as usize];
            let some: Vec<usize> = rng.subset(VALUE_COLS).iter().map(|c| c + 1).collect();
            for cols in [&all[..], &one[..], &some[..], &[]] {
                assert_eq!(
                    reader.read_record(rid.slot(), cols, mode),
                    full_walk(&reader, rid.slot(), cols, mode),
                    "{ctx}: key {key} cols {cols:?} mode {mode:?}"
                );
            }
        }
    }

    /// Latest reads of every written key equal the model's last committed
    /// row: the carried values of cumulative records are right, not just
    /// read identically by both resolvers.
    fn assert_matches_model(t: &Table, model: &[Option<Vec<u64>>], ctx: &str) {
        let all: Vec<usize> = (0..=VALUE_COLS).collect();
        for key in (0..HOT).map(hot_key) {
            let rid = t.locate(key).unwrap();
            let range = t.range_handle(rid.range());
            let base = range.base();
            let got = t
                .reader(&range, &base)
                .read_record(rid.slot(), &all, ReadMode::latest());
            match (&model[key as usize], got) {
                (Some(row), Resolved::Visible { values, .. }) => {
                    assert_eq!(&values, row, "{ctx}: key {key}")
                }
                (None, Resolved::Deleted) => {}
                (want, got) => panic!("{ctx}: key {key}: want {want:?}, got {got:?}"),
            }
        }
    }

    /// One random history, checked against the reference after every few
    /// operations in latest, snapshot, speculative, own-write and
    /// validation (`exclude_own`) modes.
    fn run_history(seed: u64, store: bool) {
        let mut rng = Lcg(seed);
        let path = std::env::temp_dir().join(format!(
            "lstore-read-equiv-{}-{seed}.pages",
            std::process::id()
        ));
        let mut cfg = DbConfig::deterministic();
        if store {
            std::fs::remove_file(&path).ok();
            cfg = cfg.with_page_store(path.clone()).with_buffer_pool_pages(6);
        }
        let db = Database::new(cfg);
        let names = ["a", "b", "c", "d", "e"];
        let config = TableConfig::small()
            .with_auto_merge(false)
            .with_cumulative(rng.below(4) != 0);
        let t = db.create_table("equiv", &names, config).unwrap();
        // Latest committed row per key (key column first), `None` once
        // deleted: the model the latest reads must also match.
        let mut model: Vec<Option<Vec<u64>>> = Vec::new();
        for k in 0..KEYS {
            let row: Vec<u64> = (0..VALUE_COLS as u64).map(|c| k * 10 + c).collect();
            t.insert_auto(k, &row).unwrap();
            model.push(Some([vec![k], row].concat()));
        }
        let apply = |model: &mut Vec<Option<Vec<u64>>>, key: u64, ups: &[(usize, u64)]| {
            let row = model[key as usize].as_mut().expect("updated keys exist");
            for &(c, v) in ups {
                row[c + 1] = v;
            }
        };
        if rng.below(2) == 0 {
            t.merge_all();
        }
        let mgr = &db.runtime().mgr;
        // Open transactions with the one update each has made.
        let mut open: Vec<(lstore_txn::Transaction, u64, Updates)> = Vec::new();
        let mut precommitted: Vec<u64> = Vec::new();
        let mut marks = vec![t.now()];
        for step in 0..240u64 {
            let key = hot_key(rng.below(HOT));
            let range_id = t.locate(key).unwrap().range();
            match rng.below(100) {
                0..=54 => {
                    let cols = rng.subset(VALUE_COLS);
                    let ups: Vec<(usize, u64)> =
                        cols.iter().map(|&c| (c, step * 100 + c as u64)).collect();
                    if t.update_auto(key, &ups).is_ok() {
                        apply(&mut model, key, &ups);
                    }
                }
                55..=62 => {
                    let mut txn = db.begin();
                    let cols = rng.subset(VALUE_COLS);
                    let ups: Vec<(usize, u64)> =
                        cols.iter().map(|&c| (c, 7_000_000 + step)).collect();
                    if t.update(&mut txn, key, &ups).is_ok() {
                        open.push((txn, key, ups));
                    } else {
                        db.abort(&mut txn);
                    }
                }
                63..=70 if !open.is_empty() => {
                    let (mut txn, key, ups) =
                        open.swap_remove(rng.below(open.len() as u64) as usize);
                    match rng.below(3) {
                        0 => db.abort(&mut txn),
                        1 => {
                            mgr.pre_commit(txn.id, &db.runtime().clock);
                            precommitted.push(txn.id);
                        }
                        _ => {
                            db.commit(&mut txn).unwrap();
                            apply(&mut model, key, &ups);
                        }
                    }
                }
                71..=74 => {
                    if t.delete_auto(key).is_ok() {
                        model[key as usize] = None;
                    }
                }
                75..=82 => {
                    t.merge_now(range_id);
                }
                83..=88 => {
                    let cols = rng.subset(VALUE_COLS);
                    t.merge_columns_now(range_id, &cols).unwrap();
                }
                89..=92 => {
                    let horizon = marks[rng.below(marks.len() as u64) as usize];
                    t.compress_historic(range_id, horizon);
                }
                _ => marks.push(t.now()),
            }
            if step % 40 == 39 {
                let ctx = format!("seed {seed} store {store} step {step}");
                let now = t.now();
                assert_equivalent(&t, ReadMode::latest(), &mut rng, &ctx);
                for &ts in marks.iter().rev().take(4).chain([&now]) {
                    assert_equivalent(&t, ReadMode::as_of(ts), &mut rng, &ctx);
                }
                let speculative = ReadMode {
                    speculative: true,
                    ..ReadMode::latest()
                };
                assert_equivalent(&t, speculative, &mut rng, &ctx);
                assert_matches_model(&t, &model, &ctx);
                for (txn, _, _) in &open {
                    for as_of in [None, Some(txn.begin)] {
                        for exclude_own in [false, true] {
                            let mode = ReadMode {
                                as_of,
                                txn_id: txn.id,
                                speculative: false,
                                exclude_own,
                            };
                            assert_equivalent(&t, mode, &mut rng, &ctx);
                        }
                    }
                }
            }
        }
        for (mut txn, _, _) in open {
            db.abort(&mut txn);
        }
        for id in precommitted {
            mgr.abort(id);
        }
        drop(t);
        drop(db);
        if store {
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn bounded_resolve_matches_full_walk() {
        for seed in 1..=24 {
            run_history(seed, false);
        }
    }

    #[test]
    fn bounded_resolve_matches_full_walk_with_page_store() {
        for seed in 101..=112 {
            run_history(seed, true);
        }
    }

    /// A hot key updated 200 times on the same 4 of 10 columns, never
    /// merged: an all-column latest read visits the head record only —
    /// the cumulative head carries the 4 columns and the bitmap sends the
    /// other 7 (key included) straight to the base.
    #[test]
    fn hot_key_latest_read_visits_at_most_two_records() {
        let db = Database::new(DbConfig::deterministic());
        let names: Vec<String> = (0..10).map(|c| format!("c{c}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let t = db
            .create_table("hot", &refs, TableConfig::small().with_auto_merge(false))
            .unwrap();
        t.insert_auto(7, &[0; 10]).unwrap();
        for i in 1..=200u64 {
            t.update_auto(7, &[(0, i), (1, i), (2, i), (3, i)]).unwrap();
        }
        let rid = t.locate(7).unwrap();
        let range = t.range_handle(rid.range());
        let base = range.base();
        let reader = t.reader(&range, &base);
        let all: Vec<usize> = (0..=10).collect();

        take_hops();
        let got = reader.read_record(rid.slot(), &all, ReadMode::latest());
        let hops = take_hops();
        let want = full_walk(&reader, rid.slot(), &all, ReadMode::latest());
        let reference_hops = take_hops();

        assert_eq!(got, want);
        let Resolved::Visible { values, .. } = got else {
            panic!("record must be visible");
        };
        assert_eq!(values, [7, 200, 200, 200, 200, 0, 0, 0, 0, 0, 0]);
        assert!(hops <= 2, "bounded resolve visited {hops} tail records");
        assert!(
            reference_hops > 200,
            "the full walk visits the whole chain ({reference_hops} records)"
        );
    }
}
