//! # lstore-storage
//!
//! Columnar page store underpinning the L-Store engine (Sadoghi et al.,
//! EDBT 2018). This crate provides the storage substrate the paper's
//! lineage-based architecture is built on:
//!
//! * **Base pages** ([`page::BasePage`]) — read-only, optionally compressed
//!   columnar pages produced by the merge process.
//! * **Tail pages** ([`tail::TailPage`], [`tail::AppendVec`]) — uncompressed,
//!   strictly append-only, write-once pages holding recent updates.
//! * **Compression codecs** ([`compress`]) — dictionary, run-length, and
//!   frame-of-reference bit-packing with random-access decode, applied to
//!   base pages at merge time and to historic tail data (§4.3).
//! * **Epoch-based reclamation** ([`epoch::EpochManager`]) — contention-free
//!   de-allocation of outdated base pages once all readers that began before
//!   the merge have drained (§4.1.1 step 5, Fig. 6).
//! * **Disk persistence** ([`disk`]) — a codec-native page-image format so
//!   base and tail pages are "persisted identically" (§2.1) and load back
//!   with a word copy.
//! * **Buffer-pool page store** ([`store`]) — sealed base pages live in a
//!   page file behind a capacity-budgeted buffer pool with
//!   clock/second-chance eviction, so datasets outgrow RAM while readers
//!   stay oblivious to page residency.
//!
//! All value cells are `u64`; the paper's implicit special null ∅ is
//! represented by [`NULL_VALUE`].

pub mod compress;
pub mod disk;
pub mod epoch;
pub mod error;
pub mod page;
pub mod store;
pub mod tail;

pub use error::{StorageError, StorageResult};

/// The special null value ∅ the paper pre-assigns to non-updated columns in
/// tail pages (§2.1). Data columns must not store this value as real data.
pub const NULL_VALUE: u64 = u64::MAX;

/// Default number of record slots per page. With 8-byte cells this makes a
/// 32 KB page, the page size used throughout the paper's evaluation (§6.1).
pub const DEFAULT_PAGE_SLOTS: usize = 4096;
