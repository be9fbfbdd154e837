//! What the tests, examples and benches of the reproduction need beyond
//! the standard library, in the subset they use:
//!
//! - [`TempDir`]: a directory removed on drop;
//! - [`rng`]: a seeded SplitMix64 `StdRng` with `gen_range`/`gen_bool`;
//! - [`prop`]: property tests — strategies, `proptest!`, `prop_oneof!`
//!   and `prop_assert*!`. Cases are drawn from a seed derived from the
//!   test's name, so a run repeats; a failure reports the case number.
//!   There is no shrinking yet;
//! - [`bench`](mod@bench): `criterion_group!`/`criterion_main!` bench targets that
//!   run each body twice and print the faster wall time.

pub mod bench;
pub mod prop;
pub mod rng;
mod tempdir;

pub use tempdir::TempDir;
