//! # anoncmp-bench
//!
//! The experiment-reproduction harness for the `anoncmp` workspace. The
//! [`experiments`] module maps every table and figure of the EDBT'09 paper
//! to a runnable experiment (E01–E12) and adds the extended studies
//! (E13–E17); the `experiments` binary prints them:
//!
//! ```text
//! cargo run -p anoncmp-bench --release --bin experiments          # all
//! cargo run -p anoncmp-bench --release --bin experiments e04 e13  # some
//! cargo run -p anoncmp-bench --bin experiments -- --list          # index
//! ```
//!
//! Kernel timings and the design-decision ablations are groups of the
//! `bench_baseline` binary (`BENCH_baseline.json`). See DESIGN.md.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
