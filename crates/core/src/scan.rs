//! Analytical scans over the unified store.
//!
//! Scans are the OLAP half of the paper's evaluation: snapshot-isolated
//! aggregations over columns that are concurrently updated (§6.2 "computing
//! the SUM aggregation on a column that is continuously been updated").
//! L-Store's answer is one idea (§2.1): aggregate a range's read-optimized
//! base pages directly, and resolve through the lineage only the rows whose
//! updates outran the merge. Every public aggregate here — `sum_as_of`,
//! `sum_cols_as_of`, `group_by_sum`, `count_as_of`, `sum_key_range`,
//! `sum_rid_span`, `scan_as_of` — is one `AggregatePlan` (what to
//! compute, over which rows, at which snapshot) run by `Table::aggregate`.
//!
//! **Fan-out.** `aggregate` pins the reclamation epoch once (merged-away
//! base pages survive until the scan drains, §4.1.1 step 5) and makes one
//! `Table::scan_fanout` call over the plan's work units, so the per-range
//! work interleaves with merge jobs on the unified task pool
//! (`DbConfig::pool_threads`; with one thread every scan stays sequential
//! on the caller). The whole table is handed out as the shard-aligned
//! partitions of `Table::scan_partitions`, each a list of whole-range
//! windows; a RID span as one window per covered range; a key interval as
//! one key sub-interval per pool thread, which the worker probes through
//! the primary index and coalesces into windows — consecutive keys on
//! consecutive slots of one range extend one window. Ranges are disjoint
//! record sets with immutable base versions, so partials combine
//! associatively without synchronization, and `scan_as_of` sorts by key:
//! neither the shard count nor the pool width is observable in any result
//! (the `property_model` suite pins both).
//!
//! **One window loop.** A window is slots `lo..hi` of one range's base
//! version. Each lane of the plan (one per summed column; one for a count,
//! a GROUP BY pair or a row) takes the first path that applies:
//!
//! 1. *Kernel.* The row-visibility mask (`Table::visibility_mask`: one
//!    indirection load per slot, or none when the range's lineage proves
//!    every slot clean) keeps the rows whose base values are current at
//!    the snapshot. The page codec's
//!    [`lstore_storage::compress::ColumnKernel`] aggregates them straight
//!    off the encoding — run arithmetic for RLE, word-walk block sums for
//!    FOR/bit-packing, code frequencies for dictionaries; a run-length
//!    encoded GROUP BY column accumulates one masked sum per run; a count
//!    reads no payload page at all. Masked holes resolve through the
//!    version chain. Windows shorter than `KERNEL_SPAN_MIN` (16) slots and
//!    masks that exclude more than a quarter of the window skip it.
//! 2. *Whole-page decode.* With `DbConfig::scan_kernels = false` (the
//!    decode-then-aggregate baseline) a SUM over a whole, fully merged
//!    range decodes its base page.
//! 3. *Per-row walk.* Every lane left over resolves slot by slot, all of
//!    them in one chain walk per slot.
//!
//! Results are byte-identical on every path (`scan_kernels_equivalence`).

use std::collections::BTreeMap;
use std::sync::Arc;

use lstore_storage::compress::{Compressed, RowMask};
use lstore_storage::store::{PagePtr, PageRead};
use lstore_storage::NULL_VALUE;

use crate::range::{BaseData, BaseVersion, UpdateRange};
use crate::read::{ReadMode, Resolved, VersionReader};
use crate::rid::Rid;
use crate::schema::SchemaEncoding;
use crate::table::Table;

/// Mask-density fallback threshold: once more than `1/DENSE_MASK_DENOM` of
/// a kernel window is excluded, the encoded-sum-minus-holes arithmetic
/// loses to plain per-slot resolution and the window takes the per-row
/// walk instead.
const DENSE_MASK_DENOM: usize = 4;

/// Minimum window length before the kernel path is tried; shorter windows
/// (a sparse key interval yields one per key) take the per-row walk,
/// because building a mask costs one atomic load per slot and must
/// amortize.
const KERNEL_SPAN_MIN: u32 = 16;

/// What an aggregate computes. Columns are internal data-column indices
/// (column 0 is the key).
pub(crate) enum AggOp<'a> {
    /// One wrapping SUM per listed column.
    Sum(&'a [usize]),
    /// Visible records.
    Count,
    /// Wrapping SUM of the second column per value of the first.
    GroupSum([usize; 2]),
    /// Visible rows as `(first column, the other columns)`, sorted by the
    /// first; `scan_as_of` lists the key first.
    Rows(&'a [usize]),
}

/// Which records an aggregate covers.
pub(crate) enum Domain {
    /// Every range.
    All,
    /// Keys in `[lo, hi]`, located through the primary index.
    KeyRange(u64, u64),
    /// `count` consecutive record slots from `start`, crossing ranges.
    RidSpan(Rid, u64),
}

/// One analytical query: an operation over a domain at snapshot `ts`.
pub(crate) struct AggregatePlan<'a> {
    pub op: AggOp<'a>,
    pub domain: Domain,
    pub ts: u64,
}

/// A worker's partial result; partials of one plan merge associatively.
pub(crate) enum Partial {
    Sums(Vec<u64>),
    Count(u64),
    Groups(BTreeMap<u64, u64>),
    Rows(Vec<(u64, Vec<u64>)>),
}

/// Slots `lo..hi` of one range under one base-version snapshot.
type Window = (Arc<UpdateRange>, Arc<BaseVersion>, u32, u32);

/// One fan-out item.
enum Unit {
    /// Windows planned up front (whole table, RID span).
    Windows(Vec<Window>),
    /// A key sub-interval the worker locates and coalesces into windows.
    Keys(u64, u64),
}

impl AggOp<'_> {
    /// Number of lanes: independently masked column sets. A SUM has one
    /// lane per column (per-column TPS lets one column be fully merged
    /// while another is not); every other op has one lane.
    fn lanes(&self) -> usize {
        match self {
            AggOp::Sum(cols) => cols.len(),
            _ => 1,
        }
    }

    /// The columns lane `lane` reads.
    fn lane(&self, lane: usize) -> &[usize] {
        match self {
            AggOp::Sum(cols) => std::slice::from_ref(&cols[lane]),
            AggOp::Count => &[0],
            AggOp::GroupSum(pair) => pair,
            AggOp::Rows(cols) => cols,
        }
    }
}

fn add_group(groups: &mut BTreeMap<u64, u64>, group: u64, value: u64) {
    let entry = groups.entry(group).or_insert(0);
    *entry = entry.wrapping_add(value);
}

impl Partial {
    fn empty(op: &AggOp) -> Self {
        match op {
            AggOp::Sum(cols) => Partial::Sums(vec![0; cols.len()]),
            AggOp::Count => Partial::Count(0),
            AggOp::GroupSum(..) => Partial::Groups(BTreeMap::new()),
            AggOp::Rows(_) => Partial::Rows(Vec::new()),
        }
    }

    /// Fold one visible record's values of `lane`'s columns.
    #[inline]
    fn absorb(&mut self, lane: usize, values: &[u64]) {
        match self {
            Partial::Sums(sums) => sums[lane] = sums[lane].wrapping_add(values[0]),
            Partial::Count(n) => *n += 1,
            Partial::Groups(groups) => add_group(groups, values[0], values[1]),
            Partial::Rows(rows) => rows.push((values[0], values[1..].to_vec())),
        }
    }

    /// Fold the rows of `lo..hi` that `mask` keeps straight off the
    /// compressed pages of `lane`'s columns, one pin per page.
    fn kernel(
        &mut self,
        lane: usize,
        cols: &[usize],
        pages: &[PagePtr],
        mask: &RowMask,
        (lo, hi): (usize, usize),
    ) {
        match self {
            Partial::Sums(sums) => {
                sums[lane] = sums[lane].wrapping_add(kernel_sum(&pages[cols[0]], lo, hi, mask));
            }
            // The mask alone decides; no payload page is touched.
            Partial::Count(n) => *n += (hi - lo - mask.excluded()) as u64,
            Partial::Groups(groups) => {
                let (gpage, vpage) = (pages[cols[0]].read(), pages[cols[1]].read());
                match gpage.compressed() {
                    // Run-granular: one masked value-kernel sum per group run.
                    Compressed::Rle(runs) => {
                        for (start, end, group) in runs.runs_in(lo, hi) {
                            if mask.excluded_in(start, end) < end - start {
                                add_group(groups, group, vpage.sum_range_masked(start, end, mask));
                            }
                        }
                    }
                    _ => {
                        for slot in (lo..hi).filter(|&s| !mask.is_excluded(s)) {
                            add_group(groups, gpage.get(slot), vpage.get(slot));
                        }
                    }
                }
            }
            Partial::Rows(rows) => {
                let pinned: Vec<PageRead> = cols.iter().map(|&c| pages[c].read()).collect();
                for slot in (lo..hi).filter(|&s| !mask.is_excluded(s)) {
                    let values = pinned[1..].iter().map(|p| p.get(slot)).collect();
                    rows.push((pinned[0].get(slot), values));
                }
            }
        }
    }

    fn merge(&mut self, other: Partial) {
        match (self, other) {
            (Partial::Sums(a), Partial::Sums(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.wrapping_add(y);
                }
            }
            (Partial::Count(a), Partial::Count(b)) => *a += b,
            (Partial::Groups(a), Partial::Groups(b)) => {
                for (group, value) in b {
                    add_group(a, group, value);
                }
            }
            (Partial::Rows(a), Partial::Rows(b)) => a.extend(b),
            _ => unreachable!("partials of one plan share its op"),
        }
    }
}

/// Resolve `cols` of one slot at the reader's snapshot and hand a visible
/// record's values to `visit`. A single column takes `read_column`, which
/// allocates nothing.
#[inline]
fn resolve(
    reader: &VersionReader,
    slot: u32,
    cols: &[usize],
    mode: ReadMode,
    mut visit: impl FnMut(&[u64]),
) {
    if let [col] = cols {
        if let Some(v) = reader.read_column(slot, *col, mode) {
            visit(&[v]);
        }
    } else if let Resolved::Visible { values, .. } = reader.read_record(slot, cols, mode) {
        visit(&values);
    }
}

// The two SUM loops below stay out of line: inlined into the window loop,
// they measured slower on x86-64 (on a 20 000-row table, the plain codec's
// kernel by up to 1.6× and the per-row walk by 12–15%).

/// Kernel SUM over `lo..hi` of one page, under one pin.
#[inline(never)]
fn kernel_sum(page: &PagePtr, lo: usize, hi: usize, mask: &RowMask) -> u64 {
    page.read().sum_range_masked(lo, hi, mask)
}

/// SUM of `col` over `slots`, resolved slot by slot.
#[inline(never)]
fn sum_column(
    reader: &VersionReader,
    col: usize,
    slots: std::ops::Range<u32>,
    mode: ReadMode,
) -> u64 {
    let mut sum = 0u64;
    for slot in slots {
        if let Some(v) = reader.read_column(slot, col, mode) {
            sum = sum.wrapping_add(v);
        }
    }
    sum
}

/// Can the whole range be summed straight off its compressed base page?
/// True when every slot's latest version for `col` is in the base page
/// (tail fully merged), nothing is deleted, and every start/merge time is
/// within the snapshot bound — the read-optimized path that makes L-Store
/// scans behave like a column store (§2.1). The kernel's mask shortcut
/// covers the same case; this is the kernels-off baseline's whole-page
/// decode.
fn clean_range_page<'a>(
    range: &UpdateRange,
    base: &'a BaseVersion,
    col: usize,
    ts: u64,
) -> Option<PageRead<'a>> {
    if base.has_deletes
        || base.max_start == u64::MAX
        || base.max_start > ts
        || base.max_last_updated > ts && base.max_last_updated != u64::MAX
    {
        return None;
    }
    if (range.tail.high_seq() as u64) > base.column_tps[col] {
        return None; // unmerged updates may supersede base values
    }
    match &base.data {
        BaseData::Pages { data, .. } => Some(data[col].read()),
        BaseData::Insert(_) => None,
    }
}

/// One worker's share of a plan: the op it evaluates and the partial it
/// folds into.
struct Worker<'a> {
    table: &'a Table,
    op: &'a AggOp<'a>,
    ts: u64,
    kernels: bool,
    acc: Partial,
    /// Lanes the current window leaves to the per-row walk (reused).
    walked: Vec<usize>,
}

impl Worker<'_> {
    /// The one window loop: fold slots `lo..hi` of `range` into the
    /// partial, each lane by kernel, whole-page decode or per-row walk.
    fn window(&mut self, range: &UpdateRange, base: &BaseVersion, lo: u32, hi: u32) {
        let (table, op, ts) = (self.table, self.op, self.ts);
        let mode = ReadMode::as_of(ts);
        let reader = table.reader(range, base);
        // The kernels-off baseline decodes the page of a clean whole range.
        let decode = !self.kernels && lo == 0 && hi == table.occupied_slots(range, base);
        self.walked.clear();
        for lane in 0..op.lanes() {
            let cols = op.lane(lane);
            if self.kernels && hi - lo >= KERNEL_SPAN_MIN {
                if let Some((mask, pages)) = table.visibility_mask(range, base, cols, ts, lo, hi) {
                    let window = (lo as usize, hi as usize);
                    self.acc.kernel(lane, cols, pages, &mask, window);
                    if !mask.all_visible() {
                        for slot in mask.iter_excluded(window.0, window.1) {
                            resolve(&reader, slot as u32, cols, mode, |v| {
                                self.acc.absorb(lane, v)
                            });
                        }
                    }
                    continue;
                }
            }
            if let (true, Partial::Sums(sums)) = (decode, &mut self.acc) {
                if let Some(page) = clean_range_page(range, base, cols[0], ts) {
                    let sum = page.sum_range_decoded(lo as usize, hi as usize);
                    sums[lane] = sums[lane].wrapping_add(sum);
                    continue;
                }
            }
            self.walked.push(lane);
        }
        match (&mut self.acc, &self.walked[..]) {
            (_, []) => {}
            // One column summed: `read_column` into a register.
            (Partial::Sums(sums), &[lane]) => {
                let sum = sum_column(&reader, op.lane(lane)[0], lo..hi, mode);
                sums[lane] = sums[lane].wrapping_add(sum);
            }
            // One chain walk per slot covers every walked lane.
            (acc, walked) => {
                let request: Vec<usize> =
                    walked.iter().flat_map(|&l| op.lane(l)).copied().collect();
                for slot in lo..hi {
                    resolve(&reader, slot, &request, mode, |values| {
                        let mut at = 0;
                        for &lane in walked {
                            let n = op.lane(lane).len();
                            acc.absorb(lane, &values[at..at + n]);
                            at += n;
                        }
                    });
                }
            }
        }
    }

    /// Locate the keys of `[key_lo, key_hi]` and fold them as windows:
    /// consecutive keys on consecutive slots of one range extend the open
    /// window, and the last `(range, base)` snapshot is reused while keys
    /// stay in its range.
    fn keys(&mut self, key_lo: u64, key_hi: u64) {
        let mut open: Option<Window> = None;
        for key in key_lo..=key_hi {
            let Ok(rid) = self.table.locate(key) else {
                continue;
            };
            if let Some((range, _, _, hi)) = &mut open {
                if range.id == rid.range() && rid.slot() == *hi {
                    *hi += 1;
                    continue;
                }
            }
            let cached = open.take().and_then(|(range, base, lo, hi)| {
                self.window(&range, &base, lo, hi);
                (range.id == rid.range()).then_some((range, base))
            });
            let (range, base) = cached.unwrap_or_else(|| {
                let range = self.table.range(rid.range());
                let base = range.base();
                (range, base)
            });
            open = Some((range, base, rid.slot(), rid.slot() + 1));
        }
        if let Some((range, base, lo, hi)) = open {
            self.window(&range, &base, lo, hi);
        }
    }
}

impl Table {
    /// Build the row-visibility mask for kernel aggregation of `cols` over
    /// slots `lo..hi` of one merged range, with the range's data pages. A
    /// row is *clean* (kept in the mask) exactly when `read_column` would
    /// take its TPS fast path for every requested column: no newer-than-TPS
    /// tail version, a merged image no newer than the snapshot, and no
    /// delete marker. Every other row is excluded — the kernel skips it
    /// and the caller resolves it through the version chain. Returns
    /// `None` when the range is still in its insert phase, a base record
    /// starts after the snapshot (or is unstamped), or the mask would be
    /// dense enough (> 1/[`DENSE_MASK_DENOM`] of the window) that per-slot
    /// resolution is cheaper than encoded-sum-minus-holes.
    fn visibility_mask<'a>(
        &self,
        range: &UpdateRange,
        base: &'a BaseVersion,
        cols: &[usize],
        ts: u64,
        lo: u32,
        hi: u32,
    ) -> Option<(RowMask, &'a [PagePtr])> {
        // `max_start` tracks raw Start Time cells, so unresolved
        // transaction ids (bit 63 set) disqualify the range too.
        if base.max_start == u64::MAX || base.max_start > ts {
            return None;
        }
        let BaseData::Pages { data: pages, .. } = &base.data else {
            return None;
        };
        let mut mask = RowMask::new(base.len);
        let min_tps = cols
            .iter()
            .map(|&c| base.column_tps[c])
            .min()
            .unwrap_or(base.tps);
        let lu_clean = base.max_last_updated <= ts;
        // Whole-window shortcut: nothing unmerged for these columns, all
        // merged images inside the snapshot, no deletes — the empty mask,
        // without touching a single indirection cell.
        if !base.has_deletes && (range.tail.high_seq() as u64) <= min_tps && lu_clean {
            return Some((mask, pages));
        }
        for slot in lo..hi {
            let head = range.indirection(slot);
            let clean = if head.is_null() {
                true
            } else {
                min_tps >= head.seq() as u64
                    && (lu_clean || {
                        let lu = base.last_updated(slot);
                        lu == NULL_VALUE || lu <= ts
                    })
            };
            if !clean || base.has_deletes && SchemaEncoding(base.schema_enc(slot)).is_delete() {
                mask.exclude(slot as usize);
            }
        }
        if mask.excluded() * DENSE_MASK_DENOM > (hi - lo) as usize {
            return None; // masked-dense: the per-row walk wins
        }
        Some((mask, pages))
    }

    /// Split `domain` into fan-out units. Base versions are snapshotted
    /// here, under the caller's epoch pin.
    fn plan_units(&self, domain: &Domain) -> Vec<Unit> {
        match *domain {
            Domain::All => self
                .scan_partitions()
                .into_iter()
                .map(|part| {
                    let windows = part.into_iter().map(|range| {
                        let base = range.base();
                        let slots = self.occupied_slots(&range, &base);
                        (range, base, 0, slots)
                    });
                    Unit::Windows(windows.collect())
                })
                .collect(),
            Domain::KeyRange(key_lo, key_hi) if key_hi < key_lo => Vec::new(),
            Domain::KeyRange(key_lo, key_hi) => {
                // One sub-interval per configured width; saturating, so a
                // full-domain interval still partitions correctly (the loop
                // is bounded by `key_hi`, not by span).
                let span = (key_hi - key_lo).saturating_add(1);
                let width = (self.runtime.scan_width() as u64).min(span).max(1);
                let per = span.div_ceil(width);
                let mut units = Vec::with_capacity(width as usize);
                let mut lo = key_lo;
                loop {
                    let hi = key_hi.min(lo.saturating_add(per - 1));
                    units.push(Unit::Keys(lo, hi));
                    if hi == key_hi {
                        break units;
                    }
                    lo = hi + 1;
                }
            }
            Domain::RidSpan(start, count) => {
                let mut units = Vec::new();
                let mut remaining = count;
                let mut slot = start.slot();
                for id in start.range()..self.range_count() as u32 {
                    if remaining == 0 {
                        break;
                    }
                    let range = self.range(id);
                    let base = range.base();
                    let slots = self.occupied_slots(&range, &base);
                    if slot < slots {
                        let take = remaining.min((slots - slot) as u64);
                        remaining -= take;
                        let window = (range, base, slot, slot + take as u32);
                        units.push(Unit::Windows(vec![window]));
                    }
                    slot = 0;
                }
                units
            }
        }
    }

    /// Run one analytical plan: pin the epoch, plan the work units, fan
    /// them out across the scan pool and merge the workers' partials.
    pub(crate) fn aggregate(&self, plan: AggregatePlan) -> Partial {
        let guard = self.runtime.epoch.pin();
        let kernels = self.runtime.scan_kernels();
        let units = self.plan_units(&plan.domain);
        let partials = self.scan_fanout(&units, &guard, |chunk| {
            let mut worker = Worker {
                table: self,
                op: &plan.op,
                ts: plan.ts,
                kernels,
                acc: Partial::empty(&plan.op),
                walked: Vec::new(),
            };
            for unit in chunk {
                match unit {
                    Unit::Windows(windows) => {
                        for (range, base, lo, hi) in windows {
                            worker.window(range, base, *lo, *hi);
                        }
                    }
                    Unit::Keys(lo, hi) => worker.keys(*lo, *hi),
                }
            }
            worker.acc
        });
        let mut total = (partials.into_iter())
            .reduce(|mut total, partial| {
                total.merge(partial);
                total
            })
            .expect("the fan-out yields at least one partial");
        if let Partial::Rows(rows) = &mut total {
            rows.sort_by_key(|&(key, _)| key);
        }
        total
    }

    /// Current clock value — convenient snapshot timestamp for detached
    /// scans ("now").
    pub fn now(&self) -> u64 {
        self.runtime.clock.peek()
    }

    /// SUM over a value column at snapshot `ts` (wrapping arithmetic, as
    /// deleted/invisible records contribute nothing).
    pub fn sum_as_of(&self, user_col: usize, ts: u64) -> u64 {
        self.sum(&[user_col + 1], Domain::All, ts)[0]
    }

    /// SUM over a value column at the current snapshot.
    pub fn sum_auto(&self, user_col: usize) -> u64 {
        self.sum_as_of(user_col, self.now())
    }

    /// SUM over several value columns at once at snapshot `ts`: one table
    /// pass producing one total per requested column. Each column is masked
    /// on its own, so a fully merged column folds straight off its
    /// compressed pages while the rest resolve through the version chain
    /// at the same snapshot — the totals are mutually consistent.
    pub fn sum_cols_as_of(&self, user_cols: &[usize], ts: u64) -> Vec<u64> {
        let cols: Vec<usize> = user_cols.iter().map(|&c| c + 1).collect();
        self.sum(&cols, Domain::All, ts)
    }

    /// GROUP BY one value column, SUM another, at snapshot `ts`. Partial
    /// maps merge associatively, so the result is identical for every pool
    /// width.
    pub fn group_by_sum(
        &self,
        group_user_col: usize,
        value_user_col: usize,
        ts: u64,
    ) -> BTreeMap<u64, u64> {
        let plan = AggregatePlan {
            op: AggOp::GroupSum([group_user_col + 1, value_user_col + 1]),
            domain: Domain::All,
            ts,
        };
        let Partial::Groups(groups) = self.aggregate(plan) else {
            unreachable!("a GROUP BY plan yields groups")
        };
        groups
    }

    /// SUM over a value column restricted to keys in `[key_lo, key_hi]` via
    /// the primary index — the paper's partial scans "up to 10% of the data"
    /// (§6.1). The key interval splits into contiguous sub-intervals, one
    /// per pool thread; on merged, densely keyed data it becomes a handful
    /// of masked kernel sums.
    pub fn sum_key_range(&self, user_col: usize, key_lo: u64, key_hi: u64, ts: u64) -> u64 {
        self.sum(&[user_col + 1], Domain::KeyRange(key_lo, key_hi), ts)[0]
    }

    /// RID-ordered partial scan: SUM `user_col` over `count` consecutive
    /// record slots starting at `start` (crossing range boundaries). This is
    /// how a columnar engine scans a segment of the table — no per-record
    /// index lookups (§6.1's "scan up to 10% of the data"). The span splits
    /// at range boundaries and the per-range windows fan out across the
    /// pool; a window may start or end mid-range.
    pub fn sum_rid_span(&self, start: Rid, count: u64, user_col: usize, ts: u64) -> u64 {
        self.sum(&[user_col + 1], Domain::RidSpan(start, count), ts)[0]
    }

    /// One SUM per column of `cols` over `domain`.
    fn sum(&self, cols: &[usize], domain: Domain, ts: u64) -> Vec<u64> {
        let plan = AggregatePlan {
            op: AggOp::Sum(cols),
            domain,
            ts,
        };
        let Partial::Sums(sums) = self.aggregate(plan) else {
            unreachable!("a SUM plan yields sums")
        };
        sums
    }

    /// Count visible records at snapshot `ts`. Visibility is governed by
    /// the key column.
    pub fn count_as_of(&self, ts: u64) -> u64 {
        let plan = AggregatePlan {
            op: AggOp::Count,
            domain: Domain::All,
            ts,
        };
        let Partial::Count(n) = self.aggregate(plan) else {
            unreachable!("a COUNT plan yields a count")
        };
        n
    }

    /// Full scan: visible `(key, value-columns)` rows at snapshot `ts`, in
    /// ascending key order. The concatenated partials are key-sorted, so
    /// the row order is identical for every shard count and pool width
    /// (physical placement — which shard's range holds a record — is never
    /// observable).
    pub fn scan_as_of(&self, user_cols: &[usize], ts: u64) -> Vec<(u64, Vec<u64>)> {
        let mut cols = vec![0]; // key first
        cols.extend(user_cols.iter().map(|&c| c + 1));
        let plan = AggregatePlan {
            op: AggOp::Rows(&cols),
            domain: Domain::All,
            ts,
        };
        let Partial::Rows(rows) = self.aggregate(plan) else {
            unreachable!("a row plan yields rows")
        };
        rows
    }

    /// Multi-column consistency check (Lemma 3 / Theorem 2): read several
    /// columns of one record, *detecting* per-column TPS divergence from
    /// independent column merges and reconciling through the version chain.
    /// Returns `(values, was_consistent)` where `was_consistent` is false
    /// when the fast path had to be abandoned because the columns' TPS
    /// counters differed.
    pub fn read_consistent(
        &self,
        key: u64,
        user_cols: &[usize],
        ts: u64,
    ) -> crate::error::Result<(Option<Vec<u64>>, bool)> {
        let cols: Vec<usize> = user_cols.iter().map(|&c| c + 1).collect();
        let base_rid = self.locate(key)?;
        let range = self.range(base_rid.range());
        let base = range.base();
        // Lemma 3: "for a range of records, all read base pages must have an
        // identical TPS counter; otherwise, the read will be inconsistent."
        let tps0 = cols.first().map(|&c| base.column_tps[c]).unwrap_or(0);
        let consistent = cols.iter().all(|&c| base.column_tps[c] == tps0);
        // Theorem 2: reconciliation is always possible — the as-of chain
        // walk brings every column to the same snapshot independently.
        let reader = self.reader(&range, &base);
        match reader.read_record(base_rid.slot(), &cols, ReadMode::as_of(ts)) {
            Resolved::Visible { values, .. } => Ok((Some(values), consistent)),
            _ => Ok((None, consistent)),
        }
    }

    /// Latest-committed point read of all value columns (auto-commit) — a
    /// thin adapter over [`Table::read_one`] with a latest-snapshot
    /// [`crate::request::ReadRequest`]; [`Table::multi_read_latest`] is the
    /// batched variant.
    pub fn read_latest_auto(&self, key: u64) -> crate::error::Result<Vec<u64>> {
        self.read_one(&crate::request::ReadRequest::latest(key))?
            .values
            .ok_or(crate::error::Error::KeyNotFound(key))
    }

    /// Latest-committed point read of selected value columns (auto-commit);
    /// `None` when the record is deleted, [`Error::ColumnOutOfRange`] when
    /// `user_cols` names a column the table lacks. A thin adapter over
    /// [`Table::read_one`]; the batched variant is
    /// [`Table::multi_read_cols_latest`].
    ///
    /// [`Error::ColumnOutOfRange`]: crate::error::Error::ColumnOutOfRange
    pub fn read_cols_auto(
        &self,
        key: u64,
        user_cols: &[usize],
    ) -> crate::error::Result<Option<Vec<u64>>> {
        let cols: Vec<u32> = user_cols.iter().map(|&c| c as u32).collect();
        let request = crate::request::ReadRequest::latest(key).with_columns(cols);
        Ok(self.read_one(&request)?.values)
    }

    /// Version-relative read: `versions_back = 0` is the latest committed
    /// version, `1` the one before, etc. (the paper's "querying and
    /// retaining the current and historic data"). `None` when the record has
    /// fewer versions or is deleted at that version.
    pub fn read_version_auto(
        &self,
        key: u64,
        user_cols: &[usize],
        versions_back: usize,
    ) -> crate::error::Result<Option<Vec<u64>>> {
        let base_rid = self.locate(key)?;
        let range = self.range(base_rid.range());
        let base = range.base();
        // Collect distinct committed version timestamps, newest first.
        let mut stamps = Vec::new();
        let mut cursor = range.indirection(base_rid.slot());
        let boundary = range.historic_boundary();
        while cursor.is_tail() && (cursor.seq() as u64) >= boundary {
            let cell = range.tail.start_cell(cursor.seq());
            if let Some(ts) = self.runtime.mgr.resolve_start_time(cell, false) {
                if !range.tail.encoding(cursor.seq()).is_snapshot() && !stamps.contains(&ts) {
                    stamps.push(ts);
                }
            }
            cursor = range.tail.prev(cursor.seq());
        }
        // Base version (original) is the final stamp.
        if let Some(ts) = self
            .runtime
            .mgr
            .resolve_start_time(base.start_cell(base_rid.slot()), false)
        {
            if !stamps.contains(&ts) {
                stamps.push(ts);
            }
        }
        match stamps.get(versions_back) {
            Some(&ts) => self.read_as_of(key, user_cols, ts),
            None => Ok(None),
        }
    }
}
