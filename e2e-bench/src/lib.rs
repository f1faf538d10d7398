//! End-to-end case-study benchmark for preserva: the paper pipeline,
//! HTTP reads, and curator edits beside reads, with per-layer
//! attribution from a separate traced run. See `README.md`.

pub mod checks;
pub mod client;
pub mod model;
pub mod ops;
pub mod pipeline;
pub mod stats;
pub mod trace;
pub mod workloads;
