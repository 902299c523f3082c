//! End-to-end and per-layer benchmark of the continuous-deployment
//! platform. See `README.md` beside this crate for the workloads, metrics
//! and how to read the traced report.

pub mod bench;
pub mod check;
pub mod inputs;
pub mod layers;
pub mod measure;
pub mod run;
