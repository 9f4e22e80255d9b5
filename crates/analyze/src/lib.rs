//! `wsvd-analyze`: ahead-of-time static analysis for the W-cycle SVD
//! workspace.
//!
//! Two prongs (DESIGN.md §12):
//!
//! 1. **Plan-space certification** ([`plan_space`]): enumerate every plan
//!    family the auto-tuner or a pinned experiment configuration can reach,
//!    and statically prove each one safe on every device model — shared-
//!    memory fit (including the Observation-2 terminal boundary), schedule
//!    conflict-freedom and exactly-once coverage up to a proven block
//!    count, thread-shape and barrier discipline. The result is a
//!    [`wsvd_core::certify::CertificateStore`] the runtime consults at
//!    plan-selection time: a certified plan skips per-launch
//!    re-verification, an uncertified plan is a hard error *before* any
//!    launch.
//! 2. **Project-invariant lints** ([`lint`]): source-level checks for the
//!    invariants this workspace's design notes promise but the compiler
//!    cannot see — sink producers guarded by `is_enabled()`, no wall-clock
//!    reads in simulated-time paths, no `HashMap` iteration in
//!    registry/exposition code, no float `==` in convergence logic.
//!
//! [`interleave`] adds an exhaustive two-thread interleaving checker for
//! the workspace's concurrent protocols, and [`lex`] the comment/string
//! masking scanner the lints run on (no `syn` in the vendored set).

pub mod interleave;
pub mod lex;
pub mod lint;
pub mod plan_space;
