//! # asterix-hyracks — the data-parallel runtime (§4.1)
//!
//! Hyracks executes Jobs: DAGs of **Operators** connected by **Connectors**.
//! Operators consume partitions of their inputs and produce output
//! partitions; connectors redistribute data between them. Every operator
//! but a source is a set of push-stage *activities* (one per input), and
//! this reproduction runs every pipeline — a chain of operators linked by
//! same-partition one-to-one edges, on one partition — on its own thread,
//! with frames (batches of ADM tuples) flowing through channels between
//! pipelines: the thread-per-pipeline analogue of the paper's
//! shared-nothing cluster, preserving the same dataflow semantics
//! (partitioning, replication, merging) and the same activity/stage
//! structure (blocking activities like hash-join build or sort run
//! generation split jobs into stages).
//!
//! The operator library covers the paper's §4.1 inventory: joins
//! (hybrid-hash with Grace-style spilling, the nested-loop join being one
//! with no key, and index nested-loop),
//! aggregation (hash group-by, local/global scalar aggregation), external
//! sort, select/assign/project/limit/unnest, index lifecycle operators
//! (scans, searches, insert/delete), and the six connector kinds.

pub mod connector;
pub mod error;
pub mod executor;
pub mod filter;
pub mod frame;
pub mod job;
pub mod ops;
pub mod pipeline;
pub mod profile;

pub use connector::{Comparator, ConnectorKind, ExchangeConfig, ExchangeStats};
pub use error::{HyracksError, Result};
pub use executor::{run_job, run_job_profiled, run_job_with, run_job_with_stats, ExecutorConfig};
pub use filter::{FilterConsult, FilterFactory, FilterStats, KeyTest, RuntimeFilterHub};
pub use frame::{
    hash_encoded_fields, hash_encoded_key, hash_fields, Frame, FrameBuf, FramePool, SelBitmap,
    Tuple, DEFAULT_FRAME_BYTES, FRAME_CAPACITY,
};
pub use job::{FusedChain, FusionPlan, JobSpec, OperatorId};
pub use pipeline::{ExecEnv, PipelineCtx, PipelineOp};
pub use profile::{JobProfile, OperatorProfile, PartitionProfile, PortStat};
