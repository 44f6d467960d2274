//! The repository benchmark's harness: workloads, schedules, output checks
//! and reporting shared by the end-to-end runner (`perfbench`) and the
//! traced per-layer replica (`perfbench-trace`). See `perfbench/README.md`.
//!
//! This library and the end-to-end runner use the session API
//! (`SessionBuilder`, `ExplainSession::{explain, explain_batch, update,
//! stats}` and the accessors the output checks read), the serve HTTP API and
//! its client, and the data generators. Only the traced replica calls into
//! the layer crates directly.

#![forbid(unsafe_code)]

pub mod args;
pub mod check;
pub mod daemon;
pub mod host;
pub mod report;
pub mod sched;
pub mod seq;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod workloads;
