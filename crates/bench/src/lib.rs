//! # here-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§8) from
//! the simulated stack. Each experiment has a typed runner in
//! [`experiments`]; the `repro` binary prints them as text tables and
//! writes the `BENCH_*.json` documents — each built once as a
//! [`json::Json`] value by its experiment's `document()` — that each
//! experiment's unit test reads back as the same type and compares for
//! exact equality against `baselines/` (the test-only `gate` module).
//! Everything here is virtual (cost-model) time; wall-clock cost is
//! measured by the stand-alone `benchmark/` package.
//!
//! | Paper artefact | Runner |
//! |---|---|
//! | Table 1 | [`experiments::security::run_table1`] |
//! | Table 2 | [`experiments::security::run_table2`] |
//! | Table 5 | [`experiments::security::run_table5`] |
//! | Fig. 5 | [`experiments::checkpoint::run_fig5`] |
//! | Fig. 6 | [`experiments::migration::run_fig6_idle`] / [`experiments::migration::run_fig6_loaded`] |
//! | Fig. 7 | [`experiments::migration::run_fig7`] |
//! | Fig. 8 | [`experiments::checkpoint::run_fig8`] |
//! | Fig. 9 | [`experiments::dynamic::run_fig9`] |
//! | Fig. 10 | [`experiments::dynamic::run_fig10`] |
//! | Figs. 11–13 | [`experiments::apps::run_ycsb_figure`] |
//! | Figs. 14–16 | [`experiments::apps::run_spec_figure`] |
//! | Fig. 17 | [`experiments::network::run_fig17`] |
//! | §8.7 | [`experiments::overhead::run_overhead`] |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
#[cfg(test)]
mod gate;
pub mod json;
pub mod tables;

pub use experiments::Scale;
