//! # asterix-storage — LSM-based storage and indexing
//!
//! The storage layer of the AsterixDB reproduction (paper §4.3): a generic
//! LSM-ification framework (in-memory component, immutable bloom-filtered
//! disk components, flush/merge with pluggable merge policies, antimatter
//! deletes, validity-marker shadowing), an order-preserving key codec for
//! ADM values, and three key layouts on that one [`LsmTree`] — the
//! composite-key B+-tree, the inverted (keyword / n-gram) indexes and the
//! Z-order spatial index — all sharing one buffer cache.

pub mod bloom;
pub mod btree;
pub mod cache;
pub mod columnar;
pub mod component;
pub mod error;
pub mod inverted;
pub mod keycodec;
pub mod lsm;
mod merge;
pub mod spatial;

pub use cache::BufferCache;
pub use columnar::{
    CmpOp, ColumnFilter, ColumnarOptions, ColumnarStats, KeyRange, PartnerTest, Projection,
    RowCodec, ScanBound, SelfDescribingCodec,
};
pub use component::{DiskComponent, Entry, ProjEntry, ProjKind};
pub use error::{Result, StorageError};
pub use lsm::{LsmConfig, LsmMetrics, LsmObserver, LsmTree, MergePolicy, NullObserver, ScanValue};
