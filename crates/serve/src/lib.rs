//! # dk-serve — long-running analysis/generation daemon
//!
//! Re-measuring a large topology for every `dk metrics` invocation
//! re-pays graph loading each time. `dk serve` keeps graphs resident: a
//! daemon holds a registry of **named graphs**, each owning a frozen
//! snapshot per epoch and a per-epoch response table, and answers
//! analysis/generation requests over a line-delimited JSON protocol on
//! a Unix socket. A snapshot ([`registry::Snapshot`]) holds the epoch's
//! graph and the analysis bases ([`dk_metrics::AnalysisBase`]: frozen
//! CSR, GCC, triangle census) that its first computed reads build, one
//! per GCC policy; every computed read of the epoch runs only its own
//! passes on that base ([`dk_metrics::AnalysisCache::build_on`]), and
//! repeats replay the table.
//!
//! ```text
//! dk serve  --socket /tmp/dk.sock [--memory-budget BYTES] [--threads N]
//! dk client --socket /tmp/dk.sock '{"op":"stats"}'
//! ```
//!
//! Three properties the tests enforce:
//!
//! * **Batched coalescing** — identical concurrent requests (same
//!   graph, epoch, op, knobs) collapse onto one computation; sequential
//!   repeats replay the graph's per-epoch response table ([`registry`]).
//! * **Admission control** — requests are priced against the sharded
//!   executor's byte model before any allocation; over-budget requests
//!   get a structured `over_budget` error instead of an OOM, and
//!   admitted ones carry the budget into the executor ([`registry`]).
//! * **Determinism** — the same request stream with the same seeds
//!   produces byte-identical response bodies for every `--threads`
//!   value ([`server`]).
//!
//! # Protocol reference
//!
//! One request per line, one JSON object per request; one JSON object
//! per response line. Requests over 1 MiB ([`protocol::MAX_REQUEST_BYTES`])
//! are rejected and the connection closed. Successful responses carry
//! `"ok":true` and echo `"op"`; failures are
//! `{"ok":false,"error":{"code":…,"message":…}}` with codes
//! `parse`, `bad_request`, `unknown_op`, `unknown_graph`,
//! `unknown_metric`, `bad_knob`, `over_budget`, `io`, `oversized`.
//!
//! | op | request fields | response (beyond `ok`/`op`) |
//! |----|----------------|------------------------------|
//! | `load` | `graph`, `path` | `graph`, `epoch`, `n`, `m` |
//! | `metric` | `graph`, `metrics?` (list or `cheap`/`default`/`all`), `no_gcc?`, `samples?`, `sketch_bits?` (the CLI's `--sketch-bits` range), `shards?` (≥ 1), `memory_budget?` (bytes, ≥ 1) | `graph`, `result:{epoch, graph_summary, values}` |
//! | `compare` | `a`, `b`, + the `metric` knobs | `distances:{d1,d2,d3,epoch_a,epoch_b}`, `a`/`b` sides with `result` fragments (both sides and the distances are computed from one snapshot per graph, captured up front) |
//! | `attack` | `graph`, `strategy?`, `seed?`, `checkpoints?` (array in `0..=1`), `samples?`, `no_gcc?` | `graph`, `epoch`, `report` (the `dk attack` JSON) |
//! | `rewire` | `graph`, `d` (0..=3), `attempts?`, `seed?` | `graph`, new `epoch`, `accepted`, `attempts`, `n`, `m` |
//! | `generate-into` | `graph` (dest), `from` (source), `d`, `algo?` (default `pseudograph`), `seed?` | `graph`, `from`, `algo`, `d`, new `epoch`, `n`, `m` |
//! | `stats` | — | `graphs` (sorted by name; per graph `epoch`, `n`, `m`), `counters` |
//! | `shutdown` | — | — (daemon exits after responding) |
//!
//! Metric values in `values` use a **tagged** encoding that separates
//! "undefined on this graph" from "computed but not finite" — see
//! [`protocol::tagged_value`]. `load`, `rewire`, and `generate-into`
//! bump the entry's **epoch**, atomically clearing its response table;
//! `rewire` and `generate-into` are priced
//! through the same admission gate as analysis ops (the mutable
//! clone / generated graph is the footprint), so an over-budget daemon
//! rejects them structurally too. `stats` counters reflect scheduling
//! and are the one response exempt from the byte-identity contract.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::{one_shot, Client};
pub use protocol::{ReqError, MAX_REQUEST_BYTES};
pub use registry::{Counters, Registry};
pub use server::{handle_line, run, Server, ServerConfig};
