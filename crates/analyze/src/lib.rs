//! `wsvd-analyze`: ahead-of-time static analysis for the W-cycle SVD
//! workspace.
//!
//! Two prongs (DESIGN.md §12):
//!
//! 1. **Plan-space certification** ([`certify`], [`plan_space`]): enumerate
//!    every plan family the auto-tuner or a pinned experiment configuration
//!    can reach, and statically prove each one safe on every device model —
//!    shared-memory fit (including the Observation-2 terminal boundary),
//!    schedule conflict-freedom and exactly-once coverage up to a proven
//!    block count, thread-shape and barrier discipline. The proofs land in a
//!    [`certify::CertificateStore`]; the reachability sweep then checks every
//!    plan the real auto-tuner selects against it. The proofs run ahead of
//!    time only (`wsvd-analyze certify`, `self-test`, the `ext-certify`
//!    experiment); at run time a level's plan is checked by the sanitizer's
//!    `verify_level` under `--sanitize`.
//! 2. **Project-invariant lints** ([`lint`]): source-level checks for the
//!    invariants this workspace's design notes promise but the compiler
//!    cannot see — sink producers guarded by `is_enabled()`, no wall-clock
//!    reads in simulated-time paths, no `HashMap` iteration in
//!    registry/exposition code, no float `==` in convergence logic, no
//!    `partial_cmp(..).unwrap()` sorts, no FMA in the numerical crates.
//!
//! [`interleave`] adds an exhaustive two-thread interleaving checker that
//! proves the block-worker pool's job protocol, and [`lex`] the
//! comment/string masking scanner the lints run on (no `syn` in the
//! vendored set).

pub mod certify;
pub mod interleave;
pub mod lex;
pub mod lint;
pub mod plan_space;
