//! # secure-tlbs
//!
//! A reproduction of *Secure TLBs* (Deng, Xiong, Szefer — ISCA 2019) as a
//! Rust library: the three-step TLB vulnerability model, the Static
//! Partition (SP) and Random Fill (RF) secure TLB designs, a cycle-level
//! simulation substrate, micro security benchmarks with channel-capacity
//! analysis, and the paper's performance-evaluation workloads.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names. See the repository README for an architecture overview and
//! DESIGN.md for the paper-to-module map.
//!
//! Security campaigns run on one deterministic campaign engine,
//! [`secbench::resilience`]: every trial's RFE seed is a pure function of
//! its coordinates (base seed, vulnerability, design, placement, trial
//! index), so sharding the campaign across any number of workers — the
//! `workers` argument of its entry points, or `--workers` on the bench
//! binaries — produces bitwise-identical results to measuring each cell
//! serially.
//!
//! ```
//! use secure_tlbs::model::enumerate_vulnerabilities;
//!
//! // The paper's Table 2: 24 timing-based TLB vulnerability types.
//! assert_eq!(enumerate_vulnerabilities().len(), 24);
//! ```

#![forbid(unsafe_code)]

pub use sectlb_area as area;
pub use sectlb_model as model;
pub use sectlb_secbench as secbench;
pub use sectlb_sim as sim;
pub use sectlb_tlb as tlb;
pub use sectlb_workloads as workloads;
