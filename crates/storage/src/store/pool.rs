//! Buffer-pool frames, pin accounting, and clock/second-chance eviction.
//!
//! A [`Frame`] is the unit of residency: one stable page id plus a slot
//! that either holds the cached [`BasePage`] or is empty (evicted). Readers
//! pin frames through [`PinnedPage`] guards; the pool only ever evicts
//! frames with zero pins, so a guard is a hard residency guarantee for as
//! long as it lives — the same contract the epoch mechanism gives retired
//! base-page *versions*, applied one level down to page *images*.
//!
//! Eviction is the classic clock (second chance): a hand sweeps the ring of
//! resident frames, clearing reference bits, skipping pinned frames, and
//! evicting the first unpinned frame whose bit was already clear. Dirty
//! victims are written back through a caller-supplied writeback function
//! before the slot is dropped, so the file always holds a decodable image
//! of every evicted page. A frame joins the ring when its page becomes
//! resident (sealed or faulted in) and leaves it when the hand finds it
//! evicted, so the sweep's length tracks the budget, not every page the
//! store has ever held.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use crate::error::{StorageError, StorageResult};
use crate::page::BasePage;

use super::PageStore;

/// Shared pool counters. The two gauges (`resident`, `pinned`) live in
/// one word, so a snapshot reads both at one instant; the rest are
/// monotonic event counters.
///
/// Every gauge transition keeps the invariant `resident ≤ budget + pinned`
/// (absent writeback failures, which park a dirty frame resident):
/// admission paths bump `pinned` *before* `resident`, evictions only lower
/// `resident`, and releasing a pin that would break the bound evicts
/// first ([`Frame::release_pin`]).
#[derive(Debug)]
pub(crate) struct PoolStats {
    /// `resident << 32 | pinned`.
    gauges: AtomicU64,
    /// Capacity budget in frames (`None` = unbounded).
    budget: Option<u64>,
    pub(crate) hits: AtomicU64,
    pub(crate) faults: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) writebacks: AtomicU64,
}

impl PoolStats {
    /// One resident frame in the packed gauge word.
    const RESIDENT: u64 = 1 << 32;

    fn new(budget: Option<u64>) -> PoolStats {
        PoolStats {
            gauges: AtomicU64::new(0),
            budget,
            hits: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        }
    }

    /// `(resident, pinned)` of a gauge word.
    fn unpack(g: u64) -> (u64, u64) {
        (g >> 32, g & (Self::RESIDENT - 1))
    }

    /// `(resident, pinned)` at one instant.
    fn gauges(&self) -> (u64, u64) {
        Self::unpack(self.gauges.load(Ordering::SeqCst))
    }

    pub(crate) fn add_resident(&self) {
        self.gauges.fetch_add(Self::RESIDENT, Ordering::SeqCst);
    }

    fn sub_resident(&self) {
        self.gauges.fetch_sub(Self::RESIDENT, Ordering::SeqCst);
    }

    /// Drop one pin from the gauge unless that would leave
    /// `resident > budget + pinned`; false means a frame must go first.
    fn try_release_pin(&self) -> bool {
        let mut g = self.gauges.load(Ordering::SeqCst);
        loop {
            let (resident, pinned) = Self::unpack(g);
            if self.budget.is_some_and(|b| resident + 1 > b + pinned) {
                return false;
            }
            match self
                .gauges
                .compare_exchange_weak(g, g - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => g = now,
            }
        }
    }
}

/// Point-in-time copy of the pool counters plus the configured budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStatsSnapshot {
    /// Frames whose slot currently holds a page.
    pub resident: u64,
    /// Outstanding [`PinnedPage`] guards.
    pub pinned: u64,
    /// Pins satisfied without touching the page file.
    pub hits: u64,
    /// Pins that had to read and decode a page image (misses).
    pub faults: u64,
    /// Frames whose slot was dropped by the clock sweep.
    pub evictions: u64,
    /// Dirty pages encoded and appended to the page file.
    pub writebacks: u64,
    /// Capacity budget in frames (`None` = unbounded).
    pub budget: Option<u64>,
}

impl PoolStatsSnapshot {
    /// Hit fraction of all pin requests, in `[0, 1]`; `1.0` before any
    /// request (an empty window has no misses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.faults;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One buffer-pool frame: a stable page id plus an evictable page slot.
pub(crate) struct Frame {
    /// Stable id of this page in the store file.
    pub(crate) id: u64,
    /// The owning store, for evictions a pin release must run first.
    store: Weak<PageStore>,
    /// The cached page; `None` when evicted.
    pub(crate) slot: RwLock<Option<Arc<BasePage>>>,
    /// Outstanding pins; the clock never evicts a pinned frame.
    pub(crate) pins: AtomicU64,
    /// Clock reference bit (second chance).
    pub(crate) referenced: AtomicBool,
    /// True while the cached page has no up-to-date image in the file.
    pub(crate) dirty: AtomicBool,
    /// True while the frame is on the clock ring; changed only under the
    /// clock lock.
    in_ring: AtomicBool,
    stats: Arc<PoolStats>,
}

impl Frame {
    pub(crate) fn new(
        id: u64,
        page: Option<Arc<BasePage>>,
        dirty: bool,
        store: Weak<PageStore>,
        stats: Arc<PoolStats>,
    ) -> Frame {
        Frame {
            id,
            store,
            slot: RwLock::new(page),
            pins: AtomicU64::new(0),
            referenced: AtomicBool::new(false),
            dirty: AtomicBool::new(dirty),
            in_ring: AtomicBool::new(false),
            stats,
        }
    }

    /// Pin this frame around `page`. The caller must hold (or be inside the
    /// critical section that installs) the page in `self.slot`; the
    /// returned guard keeps the frame unevictable until dropped.
    pub(crate) fn pin_with(self: &Arc<Self>, page: Arc<BasePage>) -> PinnedPage {
        self.pins.fetch_add(1, Ordering::SeqCst);
        self.stats.gauges.fetch_add(1, Ordering::SeqCst);
        self.referenced.store(true, Ordering::SeqCst);
        PinnedPage {
            page,
            frame: Arc::clone(self),
        }
    }

    /// Release one pin from the pinned gauge (the frame's own count is
    /// already down). When the pool sits at `budget + pinned`, the release
    /// would break that bound, so it evicts an unpinned frame first — more
    /// than `budget` of them exist then. A writeback failure releases
    /// anyway: the dirty victim stays resident, as in any sweep.
    fn release_pin(&self) {
        while !self.stats.try_release_pin() {
            let evicted = self
                .store
                .upgrade()
                .is_some_and(|store| store.evict_for_release());
            if !evicted {
                self.stats.gauges.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        // A frame dying with its page still installed (version retired by
        // the epoch mechanism while resident) leaves the resident gauge.
        if self.slot.get_mut().is_some() {
            self.stats.sub_resident();
        }
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("id", &self.id)
            .field("pins", &self.pins.load(Ordering::Relaxed))
            .field("dirty", &self.dirty.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A pinned, dereferenceable base page. Dropping the guard unpins the
/// frame, making it evictable again.
pub struct PinnedPage {
    page: Arc<BasePage>,
    frame: Arc<Frame>,
}

impl Deref for PinnedPage {
    type Target = BasePage;

    #[inline]
    fn deref(&self) -> &BasePage {
        &self.page
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::SeqCst);
        self.frame.release_pin();
    }
}

impl fmt::Debug for PinnedPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PinnedPage(id={})", self.frame.id)
    }
}

/// Outcome of one eviction attempt.
pub(crate) enum EvictOutcome {
    /// A frame's slot was dropped (after writeback if it was dirty).
    Evicted,
    /// No evictable frame exists right now (everything pinned/referenced).
    NoVictim,
    /// A dirty victim's writeback failed; the frame stays resident and
    /// dirty — nothing was corrupted, but the budget cannot be met.
    WritebackFailed(StorageError),
}

/// Clock state: the ring of (possibly) resident frames and the sweep hand.
struct Clock {
    frames: Vec<Weak<Frame>>,
    hand: usize,
}

/// Capacity-budgeted frame cache with clock/second-chance eviction.
///
/// The pool holds frames weakly: frame lifetime belongs to the `PagePtr`s
/// embedded in base versions, which the engine retires through the epoch
/// mechanism. Dead weak entries and evicted frames are pruned as the hand
/// passes them.
pub(crate) struct BufferPool {
    clock: Mutex<Clock>,
    stats: Arc<PoolStats>,
}

impl BufferPool {
    pub(crate) fn new(budget: Option<usize>) -> BufferPool {
        BufferPool {
            clock: Mutex::new(Clock {
                frames: Vec::new(),
                hand: 0,
            }),
            stats: Arc::new(PoolStats::new(budget.map(|b| b.max(1) as u64))),
        }
    }

    pub(crate) fn budget(&self) -> Option<usize> {
        self.stats.budget.map(|b| b as usize)
    }

    pub(crate) fn stats(&self) -> &Arc<PoolStats> {
        &self.stats
    }

    /// Put a frame whose page was just installed on the clock ring;
    /// idempotent. The caller installs the page *before* registering, and
    /// the sweep removes a frame only after seeing its slot empty under the
    /// clock lock, so a resident frame is never left off the ring.
    pub(crate) fn register(&self, frame: &Arc<Frame>) {
        let mut clock = self.clock.lock();
        if !frame.in_ring.swap(true, Ordering::Relaxed) {
            clock.frames.push(Arc::downgrade(frame));
        }
    }

    /// Frames on the clock ring.
    #[cfg(test)]
    pub(crate) fn ring_len(&self) -> usize {
        self.clock.lock().frames.len()
    }

    /// Snapshot the live frames on the ring (for flush sweeps: dirty
    /// frames are always resident, so always on it).
    pub(crate) fn live_frames(&self) -> Vec<Arc<Frame>> {
        self.clock
            .lock()
            .frames
            .iter()
            .filter_map(Weak::upgrade)
            .collect()
    }

    /// Fast path: pin `frame` if its page is resident. Counts a hit.
    pub(crate) fn try_pin(&self, frame: &Arc<Frame>) -> Option<PinnedPage> {
        let slot = frame.slot.read();
        let page = Arc::clone(slot.as_ref()?);
        // Pin under the read lock: the evictor requires the write lock to
        // clear the slot and re-checks pins while holding it, so a pin
        // taken here is never raced away.
        let pinned = frame.pin_with(page);
        drop(slot);
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        Some(pinned)
    }

    /// Evict until the resident gauge is back under the budget. Pinned
    /// frames are exempt, so `resident` may legitimately settle at
    /// `budget + pinned`. A writeback failure stops the sweep and is
    /// returned; the victim stays resident and dirty.
    pub(crate) fn enforce_budget(
        &self,
        writeback: &mut dyn FnMut(u64, &BasePage) -> StorageResult<()>,
    ) -> StorageResult<()> {
        let Some(budget) = self.stats.budget else {
            return Ok(());
        };
        while self.stats.gauges().0 > budget {
            match self.evict_one(writeback) {
                EvictOutcome::Evicted => continue,
                EvictOutcome::NoVictim => break,
                EvictOutcome::WritebackFailed(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One clock sweep step: advance the hand until a victim is evicted or
    /// two full revolutions found nothing evictable.
    pub(crate) fn evict_one(
        &self,
        writeback: &mut dyn FnMut(u64, &BasePage) -> StorageResult<()>,
    ) -> EvictOutcome {
        let sweep_limit = {
            let clock = self.clock.lock();
            clock.frames.len().saturating_mul(2).max(1)
        };
        for _ in 0..sweep_limit {
            // Hold the clock lock only to pick the next candidate; the
            // slot locks are taken without it, so pin/fault paths never
            // wait on the sweep.
            let candidate = {
                let mut clock = self.clock.lock();
                if clock.frames.is_empty() {
                    return EvictOutcome::NoVictim;
                }
                if clock.hand >= clock.frames.len() {
                    clock.hand = 0;
                }
                let at = clock.hand;
                let frame = clock.frames[at].upgrade();
                // Evicted: the slot is empty and, with the clock lock held,
                // no fault can re-register the frame until we are done.
                let evicted = frame
                    .as_ref()
                    .is_some_and(|f| f.slot.try_read().is_some_and(|slot| slot.is_none()));
                match frame {
                    Some(frame) if !evicted => {
                        clock.hand += 1;
                        frame
                    }
                    _ => {
                        // Prune the dead or evicted entry; the hand stays,
                        // now pointing at the swapped-in tail frame.
                        if let Some(frame) = frame {
                            frame.in_ring.store(false, Ordering::Relaxed);
                        }
                        clock.frames.swap_remove(at);
                        continue;
                    }
                }
            };
            if candidate.pins.load(Ordering::SeqCst) > 0 {
                continue;
            }
            if candidate.referenced.swap(false, Ordering::SeqCst) {
                continue; // second chance
            }
            let Some(mut slot) = candidate.slot.try_write() else {
                continue; // mid-fault or mid-pin; look elsewhere
            };
            let Some(page) = slot.clone() else {
                continue; // already evicted
            };
            // Pins are taken under the slot read lock, so holding the
            // write lock freezes the count; anything >0 pinned before us.
            if candidate.pins.load(Ordering::SeqCst) > 0 {
                continue;
            }
            if candidate.dirty.load(Ordering::SeqCst) {
                if let Err(e) = writeback(candidate.id, &page) {
                    return EvictOutcome::WritebackFailed(e);
                }
                candidate.dirty.store(false, Ordering::SeqCst);
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            *slot = None;
            self.stats.sub_resident();
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            return EvictOutcome::Evicted;
        }
        EvictOutcome::NoVictim
    }

    pub(crate) fn snapshot(&self) -> PoolStatsSnapshot {
        let (resident, pinned) = self.stats.gauges();
        PoolStatsSnapshot {
            resident,
            pinned,
            hits: self.stats.hits.load(Ordering::Relaxed),
            faults: self.stats.faults.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
            budget: self.stats.budget,
        }
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferPool")
            .field("budget", &self.stats.budget)
            .field("stats", &self.snapshot())
            .finish_non_exhaustive()
    }
}
