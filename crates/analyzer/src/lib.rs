//! `diffreg-analyzer` — in-tree static analysis.
//!
//! Turns the invariants the runtime chaos/telemetry layers only check
//! *dynamically* into checks that run on every CI pass without ever
//! executing the solver.
//!
//! A hand-rolled pipeline ([`lexer`], [`scope`], [`parse`], [`cfg`],
//! [`callgraph`], [`dataflow`], [`lint`], [`lints`], [`engine`]): lexer →
//! per-function ASTs → control-flow graphs → workspace call graph →
//! dataflow lints. The syntactic lints ([`lints`]) catch local hazards
//! (`unwrap` in library code, float `==`, `debug_assert!` side effects);
//! the dataflow lints ([`dataflow`]) prove flow-sensitive, interprocedural
//! properties — collective-sequence consistency across rank-dependent
//! branches, must-consume handle lifecycles, allocation-free hot paths,
//! and swallowed `CommError`s. A finding is suppressible only at its site,
//! with `// diffreg-allow(<lint>): <reason>`. What rustc already enforces
//! (`forbid(unsafe_code)`, `deny(missing_docs)` in every lib root) is left
//! to rustc.
//!
//! The binary (`cargo run -p diffreg-analyzer -- check`) is wired into
//! `scripts/ci.sh` as a hard gate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod lint;
pub mod lints;
pub mod parse;
pub mod scope;
