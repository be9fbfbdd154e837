//! # asterix-perf — the repository's end-to-end benchmark
//!
//! One process holds an `asterixdb::Instance`, an `asterix_net::Server`
//! on a loopback port and one closed-loop `asterix_net::Client`. Each
//! invocation runs one of four workloads against a seeded corpus, checks
//! every answer against an oracle, and prints either the six end-to-end
//! metrics or, traced, the per-layer ones. See `README.md` beside this
//! crate's manifest.

pub mod agree;
pub mod counters;
pub mod env;
pub mod gen;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod shapes;
pub mod stats;
pub mod trace;
pub mod workloads;
