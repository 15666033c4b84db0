//! # glitch-bench
//!
//! The experiment harness of the reproduction: one function per table or
//! figure of the paper, shared by the `exp_*` command-line binaries (which
//! print paper-style tables) and the Criterion benchmarks (which time the
//! underlying engines).
//!
//! | Paper reference | Function | Binary |
//! |---|---|---|
//! | Figure 3 / §3.1 (worst case) | [`experiments::worst_case`] | `exp_worst_case` |
//! | Equations 2–7 / §3.2–3.3 | [`experiments::rca_ratio_table`] | `exp_rca_ratios` |
//! | Figure 5 | [`experiments::figure5`] | `exp_fig5_rca_histogram` |
//! | Table 1 | [`experiments::table1`] | `exp_table1_multipliers` |
//! | Table 2 | [`experiments::table2`] | `exp_table2_sum_delay` |
//! | §4.2 (direction detector) | [`experiments::direction_detector_activity`] | `exp_direction_detector` |
//! | Table 3 / Figure 10 | [`experiments::table3_power_sweep`] | `exp_table3_power_retiming` |
//! | Figure 9 (retiming removes glitches) | [`experiments::figure9`] | `exp_fig9_retiming_glitches` |
//!
//! [`timing`] holds the wall-clock medians behind the ignored ratio gates
//! in `tests/`.

pub mod experiments;
pub mod timing;
