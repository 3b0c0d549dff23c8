//! # dk-lint — the workspace determinism auditor
//!
//! Every result in this reproduction rests on bit-for-bit
//! reproducibility contracts (identical output across thread counts
//! and, for the integer reducers, shard counts — see `LINTS.md` and
//! the `csr_equivalence` / `stream_equivalence` / `sketch_tolerance`
//! harnesses). Those contracts are enforced *after the fact* by
//! equivalence tests; `dk-lint` enforces them **at the source level**,
//! before any test runs, by scanning the workspace for the constructs
//! that historically introduce silent nondeterminism:
//!
//! * std `HashMap`/`HashSet` (random iteration order) — [`rules::NO_STD_HASH`];
//! * wall-clock reads — [`rules::NO_WALL_CLOCK`];
//! * OS-entropy RNG seeding — [`rules::NO_ENTROPY`];
//! * crate roots missing `#![forbid(unsafe_code)]` — [`rules::FORBID_UNSAFE_DRIFT`];
//! * unordered f64 reductions in the graph, metrics and core crates — [`rules::ORDERED_FLOAT_MERGE`];
//! * panic-site growth vs `baseline.toml` — [`rules::PANIC_RATCHET`];
//! * metric doc tables drifting from the registry — [`rules::DOC_DRIFT`];
//! * bench-log lines that stop being valid JSON — [`rules::BENCH_LOG`].
//!
//! The full catalogue — invariant, rationale, waiver protocol, and the
//! test that backs each rule — lives in `LINTS.md` at the workspace
//! root.
//!
//! The crate's one dependency is the dependency-free `dk-json`:
//! [`lexer`] is a hand-rolled Rust lexical stripper producing a
//! comment/string-blanked *code view* (so rules never fire in docs),
//! [`jsonchk`] is the bench-log schema check, and [`rules`] is the engine with
//! per-rule allowlists and the `// lint: allow(<rule>) — <reason>`
//! waiver syntax.
//!
//! Two entry points run the same pass: the `dk-lint` binary
//! (`cargo run -p dk-lint -- --workspace`, CI gate) and the
//! `tests/lint_clean.rs` integration test (tier-1 gate), so there is no
//! CI-only blind spot.

#![forbid(unsafe_code)]

pub mod jsonchk;
pub mod lexer;
pub mod rules;

pub use rules::{run_workspace, Context, Finding};
