//! The determinism rule engine.
//!
//! Each rule encodes an invariant the workspace's reproducibility
//! contracts already depend on (see `LINTS.md` at the workspace root
//! for the catalogue: invariant, rationale, waiver protocol, and the
//! equivalence test backing each rule). Rules scan the **code view**
//! produced by [`crate::lexer`] — never comments or string literals —
//! and report [`Finding`]s with `file:line` positions.
//!
//! ## Waivers
//!
//! A token rule can be waived at a single site with a comment on the
//! offending line or the line directly above:
//!
//! ```text
//! // lint: allow(no-wall-clock) — progress display only; covered by cli_end_to_end
//! ```
//!
//! The reason is mandatory and must cite a test (a `tests/*.rs` stem or
//! the word "test") that pins the behavior the waiver exempts — a
//! waiver without a covering test is itself a finding
//! ([`WAIVER_SYNTAX`]), and a waiver that suppresses nothing is flagged
//! as [`UNUSED_WAIVER`] so stale escapes cannot accumulate. Structural
//! rules (`forbid-unsafe-drift`, `panic-ratchet`, `doc-drift`) are not
//! waivable: their escape hatches are the committed baseline and the
//! doc/table fix itself.

use crate::lexer::{self, Stripped};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Rule: `std::collections::{HashMap, HashSet}` forbidden outside the
/// deterministic-hashing module — std's per-process random hasher seed
/// makes iteration order differ between runs, which breaks seeded
/// reproducibility anywhere a map is iterated while making choices.
pub const NO_STD_HASH: &str = "no-std-hash";
/// Rule: `Instant::now` / `SystemTime` forbidden everywhere —
/// wall-clock reads are inherently run-dependent.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule: `thread_rng` / `from_entropy` / `getrandom` / `OsRng`
/// forbidden everywhere — every RNG must be seeded from an explicit,
/// recorded seed.
pub const NO_ENTROPY: &str = "no-entropy";
/// Rule: every crate root must carry `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE_DRIFT: &str = "forbid-unsafe-drift";
/// Rule: floating-point reducers in `dk-graph` / `dk-metrics` must live
/// in a file on the ordered-merge allowlist (whose merges are anchored
/// at `ensemble::run_fold`'s job-order fold and locked by an
/// equivalence test) or carry a waiver citing the covering test.
pub const ORDERED_FLOAT_MERGE: &str = "ordered-float-merge";
/// Rule: `.unwrap()` / `.expect(` / `panic!` counts per library-crate
/// file may only decrease relative to `crates/lint/baseline.toml`.
pub const PANIC_RATCHET: &str = "panic-ratchet";
/// Rule: the `metric.rs` module-doc registry/route tables and the
/// hardcoded metric-set name arrays must agree with the registry
/// parsed from source.
pub const DOC_DRIFT: &str = "doc-drift";
/// Rule: malformed waiver comment (unparsable, unknown rule, missing
/// or non-test-citing reason).
pub const WAIVER_SYNTAX: &str = "waiver-syntax";
/// Rule: a waiver that suppressed no finding.
pub const UNUSED_WAIVER: &str = "unused-waiver";
/// Rule: a bench-log line failed the JSON-lines schema check.
pub const BENCH_LOG: &str = "bench-log";

/// Every rule name, for `allow(...)` validation and listings.
pub const ALL_RULES: &[&str] = &[
    NO_STD_HASH,
    NO_WALL_CLOCK,
    NO_ENTROPY,
    FORBID_UNSAFE_DRIFT,
    ORDERED_FLOAT_MERGE,
    PANIC_RATCHET,
    DOC_DRIFT,
    WAIVER_SYNTAX,
    UNUSED_WAIVER,
    BENCH_LOG,
];

/// Files allowed to contain f64 reducers, each anchored by the ordered
/// merge design and the test that locks it (see `LINTS.md`). Paths are
/// workspace-relative.
const ORDERED_MERGE_ALLOW: &[(&str, &str)] = &[
    (
        "crates/graph/src/ensemble.rs",
        "run_fold merges job outputs in strict job order; ensemble::tests::run_fold_matches_collect_then_merge",
    ),
    (
        "crates/graph/src/layout.rs",
        "serial coordinate/mass accumulation for SVG rendering only; cli_end_to_end",
    ),
    (
        "crates/metrics/src/betweenness.rs",
        "Brandes partials merge per shard in shard order; stream_equivalence + csr_equivalence",
    ),
    (
        "crates/metrics/src/distance.rs",
        "distance histograms merge per shard in shard order; stream_equivalence",
    ),
    (
        "crates/metrics/src/sketch.rs",
        "registers are integer max-merges; N(t) sums run sequentially in node order; sketch_tolerance",
    ),
    (
        "crates/metrics/src/analyzer.rs",
        "ensemble summary statistics fold replica reports in replica order; analyzer_golden",
    ),
    (
        "crates/metrics/src/clustering.rs",
        "serial per-node sums, no parallel reduction; analyzer_golden",
    ),
    (
        "crates/metrics/src/likelihood.rs",
        "serial edge/wedge scan, no parallel reduction; maxent + analyzer_golden",
    ),
    (
        "crates/metrics/src/jdd.rs",
        "serial edge scan, no parallel reduction; analyzer_golden",
    ),
];

/// One diagnostic. Rendered as `file:line: [rule] message`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Human explanation with the remedy.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Scan context: what the waiver-citation check accepts as a test
/// reference, and the committed panic-ratchet baseline.
#[derive(Clone, Debug, Default)]
pub struct Context {
    /// Integration-test stems (`stream_equivalence`, …). A waiver
    /// reason must contain one of these or the word "test".
    pub known_tests: Vec<String>,
    /// `file → allowed panic-site count` from `baseline.toml`.
    pub baseline: BTreeMap<String, usize>,
}

/// A parsed `lint: allow(...)` waiver.
#[derive(Clone, Debug)]
struct Waiver {
    line: usize,
    rule: String,
    used: bool,
}

/// Scans one file. `scoped` selects workspace path scoping (true for
/// `--workspace`; false for fixtures/ad-hoc files, where every token
/// rule applies regardless of path). Returns per-file findings with
/// waivers already applied, plus the file's panic-site count for the
/// workspace-level ratchet.
pub fn scan_file(rel: &str, raw: &str, ctx: &Context, scoped: bool) -> (Vec<Finding>, usize) {
    let stripped = lexer::strip(raw);
    let mut findings = Vec::new();
    let mut waivers = parse_waivers(rel, &stripped, ctx, &mut findings);

    token_rules(rel, &stripped, scoped, &mut findings);

    let base = file_name(rel);
    if base == "lib.rs" || base.ends_with("_lib.rs") {
        crate_root_rule(rel, &stripped, &mut findings);
    }
    if base == "metric.rs" || base.ends_with("_metric.rs") {
        doc_drift_rule(rel, raw, &mut findings);
    }

    // Apply waivers: a finding is suppressed by a matching-rule waiver
    // on its line or the line above.
    findings.retain(|f| {
        for w in waivers.iter_mut() {
            if w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line) {
                w.used = true;
                return false;
            }
        }
        true
    });
    for w in &waivers {
        if !w.used {
            findings.push(Finding {
                file: rel.to_string(),
                line: w.line,
                rule: UNUSED_WAIVER,
                msg: format!(
                    "waiver for `{}` suppresses nothing on this or the next line — remove it",
                    w.rule
                ),
            });
        }
    }

    let panics = count_panic_sites(&stripped.code);
    (findings, panics)
}

fn file_name(rel: &str) -> &str {
    rel.rsplit('/').next().unwrap_or(rel)
}

/// Parses every `lint: allow(rule) — reason` comment; malformed ones
/// become [`WAIVER_SYNTAX`] findings instead of waivers.
fn parse_waivers(
    rel: &str,
    stripped: &Stripped,
    ctx: &Context,
    findings: &mut Vec<Finding>,
) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &stripped.comments {
        // Only a comment *starting* with `lint:` is a waiver — a doc
        // line quoting the syntax keeps its inner `//` (see the lexer)
        // and so never matches.
        let Some(body) = c.text.strip_prefix("lint:") else {
            continue;
        };
        let body = body.trim();
        let bad = |msg: String| Finding {
            file: rel.to_string(),
            line: c.line,
            rule: WAIVER_SYNTAX,
            msg,
        };
        let Some(rest) = body.strip_prefix("allow(") else {
            findings.push(bad(
                "waiver must read `lint: allow(<rule>) — <reason citing a test>`".to_string(),
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(bad("waiver is missing the closing `)`".to_string()));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !ALL_RULES.contains(&rule.as_str()) {
            findings.push(bad(format!(
                "waiver names unknown rule `{rule}` — known rules: {}",
                ALL_RULES.join(", ")
            )));
            continue;
        }
        let reason = rest[close + 1..]
            .trim_start_matches(['—', '-', ':', ' ', '\u{2014}'])
            .trim();
        let cites_test = !reason.is_empty()
            && (reason.contains("test") || ctx.known_tests.iter().any(|t| reason.contains(t)));
        if !cites_test {
            findings.push(bad(format!(
                "waiver for `{rule}` must give a reason citing the test that covers it \
                 (a tests/*.rs stem)"
            )));
            continue;
        }
        out.push(Waiver {
            line: c.line,
            rule,
            used: false,
        });
    }
    out
}

/// The per-line token rules: no-std-hash, no-wall-clock, no-entropy,
/// ordered-float-merge.
fn token_rules(rel: &str, stripped: &Stripped, scoped: bool, findings: &mut Vec<Finding>) {
    let hash_exempt = scoped && rel == "crates/graph/src/hashers.rs";
    let merge_in_scope =
        !scoped || rel.starts_with("crates/graph/src/") || rel.starts_with("crates/metrics/src/");
    let merge_allowed = scoped && ORDERED_MERGE_ALLOW.iter().any(|&(p, _)| p == rel);

    for (idx, line) in stripped.code.lines().enumerate() {
        let lineno = idx + 1;
        let mut push = |rule: &'static str, msg: String| {
            findings.push(Finding {
                file: rel.to_string(),
                line: lineno,
                rule,
                msg,
            });
        };

        if !hash_exempt {
            for ident in ["HashMap", "HashSet"] {
                if !lexer::find_ident(line, ident).is_empty() {
                    push(
                        NO_STD_HASH,
                        format!(
                            "std `{ident}` iterates in a per-process random order, breaking \
                             seeded reproducibility — use `dk_graph::hashers::Det{ident}`"
                        ),
                    );
                }
            }
        }

        for ident in ["Instant", "SystemTime", "UNIX_EPOCH"] {
            if !lexer::find_ident(line, ident).is_empty() {
                push(
                    NO_WALL_CLOCK,
                    format!(
                        "`{ident}` reads the wall clock — results must be pure functions of \
                         their inputs; timing lives in perfbench/, outside the workspace"
                    ),
                );
            }
        }

        for ident in ["thread_rng", "from_entropy", "getrandom", "OsRng"] {
            if !lexer::find_ident(line, ident).is_empty() {
                push(
                    NO_ENTROPY,
                    format!(
                        "`{ident}` seeds from OS entropy — every RNG must derive from an \
                         explicit seed (`StdRng::seed_from_u64`, `ensemble::derive_seed`)"
                    ),
                );
            }
        }

        if merge_in_scope && !merge_allowed && is_float_reduction(line) {
            push(
                ORDERED_FLOAT_MERGE,
                "f64 reduction in a traversal crate: float addition is non-associative, so \
                 merge order must be fixed (fold through `ensemble::run_fold` in job order) — \
                 add the file to the ordered-merge allowlist in crates/lint/src/rules.rs with \
                 its covering equivalence test, or waive citing that test"
                    .to_string(),
            );
        }
    }
}

/// `true` if a code-view line contains an f64 reduction: an explicit
/// `.sum::<f64>()`, or a `+=` whose line mentions `f64` or a float
/// literal. (A lexical heuristic: integer `+=` lines fire on neither.)
fn is_float_reduction(line: &str) -> bool {
    if line.contains(".sum::<f64>()") {
        return true;
    }
    if !line.contains("+=") {
        return false;
    }
    if !lexer::find_ident(line, "f64").is_empty() {
        return true;
    }
    // float literal: digit '.' digit
    let chars: Vec<char> = line.chars().collect();
    chars
        .windows(3)
        .any(|w| w[0].is_ascii_digit() && w[1] == '.' && w[2].is_ascii_digit())
}

/// Counts `.unwrap()` / `.expect(` / `panic!` sites in a code view.
pub fn count_panic_sites(code: &str) -> usize {
    // These pattern literals live in strings, which the lexer blanks —
    // so dk-lint's own source does not inflate its own count.
    [".unwrap()", ".expect(", "panic!"]
        .iter()
        .map(|pat| code.matches(pat).count())
        .sum()
}

/// forbid-unsafe-drift: a crate root must carry `#![forbid(unsafe_code)]`.
fn crate_root_rule(rel: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    let squashed: String = stripped
        .code
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    if !squashed.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            file: rel.to_string(),
            line: 1,
            rule: FORBID_UNSAFE_DRIFT,
            msg: "crate root lacks `#![forbid(unsafe_code)]` — every workspace crate \
                  forbids unsafe so sanitizer runs stay meaningful; add the attribute"
                .to_string(),
        });
    }
}

/// doc-drift: parses the metric registry, the `Cost::name` labels, the
/// two module-doc tables, and the hardcoded set arrays out of
/// `metric.rs` source, and cross-checks them.
fn doc_drift_rule(rel: &str, raw: &str, findings: &mut Vec<Finding>) {
    let mut push = |line: usize, msg: String| {
        findings.push(Finding {
            file: rel.to_string(),
            line,
            rule: DOC_DRIFT,
            msg,
        });
    };

    let names = registry_field_strings(raw, "name:");
    if names.is_empty() {
        push(
            1,
            "could not find `static REGISTRY` metric names".to_string(),
        );
        return;
    }
    let aliases = registry_alias_strings(raw);
    let costs = cost_labels(raw);
    let tables = doc_tables(raw);

    // 1. The registry table (header first cell "name") must name
    //    exactly the registered metrics.
    if let Some(t) = tables.iter().find(|t| t.header_first == "name") {
        for n in &names {
            if !t.tokens.contains(n) {
                push(
                    t.line,
                    format!(
                        "metric `{n}` is registered but missing from the module-doc \
                         registry table"
                    ),
                );
            }
        }
        for tok in &t.tokens {
            if !names.contains(tok) {
                push(
                    t.line,
                    format!("registry table names `{tok}`, which is not a registered metric"),
                );
            }
        }
    } else {
        push(
            1,
            "module docs lack the registry table (header `| name | …`)".to_string(),
        );
    }

    // 2. The route table (header first cell "cost") must name exactly
    //    the Cost classes.
    if let Some(t) = tables.iter().find(|t| t.header_first == "cost") {
        for c in &costs {
            if !t.tokens.contains(c) {
                push(
                    t.line,
                    format!("cost class `{c}` is missing from the route/memory doc table"),
                );
            }
        }
        for tok in &t.tokens {
            if !costs.contains(tok) {
                push(
                    t.line,
                    format!("route table names `{tok}`, which is not a Cost class label"),
                );
            }
        }
    } else if !costs.is_empty() {
        push(
            1,
            "module docs lack the route table (header `| cost | route | …`)".to_string(),
        );
    }

    // 3. The hardcoded set arrays may only name registered metrics (a
    //    rename would otherwise panic at first use, not at lint time).
    for set_fn in ["fn default_set", "fn cheap_set"] {
        for (line, s) in fn_array_strings(raw, set_fn) {
            if !names.contains(&s) && !aliases.contains(&s) {
                push(
                    line,
                    format!(
                        "`{set_fn}` names `{s}`, which is neither a registered metric \
                         nor an alias"
                    ),
                );
            }
        }
    }
}

/// String values of `field "..."` occurrences between `static REGISTRY`
/// and the closing `];`.
fn registry_field_strings(raw: &str, field: &str) -> Vec<String> {
    let Some(start) = raw.find("static REGISTRY") else {
        return Vec::new();
    };
    let region = match raw[start..].find("];") {
        Some(end) => &raw[start..start + end],
        None => &raw[start..],
    };
    let mut out = Vec::new();
    for line in region.lines() {
        if let Some(rest) = find_field(line, field) {
            if let Some(s) = quoted(rest) {
                out.push(s);
            }
        }
    }
    out
}

/// Rest of `line` after a `field` occurrence that starts on an
/// identifier boundary (`name:` must not match `display_name:`).
fn find_field<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let mut from = 0usize;
    while let Some(off) = line[from..].find(field) {
        let pos = from + off;
        let boundary = line[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if boundary {
            return Some(&line[pos + field.len()..]);
        }
        from = pos + field.len();
    }
    None
}

/// All alias strings: `aliases: &["a", "b"]` lines in the registry.
fn registry_alias_strings(raw: &str) -> Vec<String> {
    let Some(start) = raw.find("static REGISTRY") else {
        return Vec::new();
    };
    let region = match raw[start..].find("];") {
        Some(end) => &raw[start..start + end],
        None => &raw[start..],
    };
    let mut out = Vec::new();
    for line in region.lines() {
        if let Some(rest) = find_field(line, "aliases:") {
            out.extend(all_quoted(rest));
        }
    }
    out
}

/// Labels from `Cost::X => "label"` match arms.
fn cost_labels(raw: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in raw.lines() {
        if line.contains("Cost::") && line.contains("=> \"") {
            if let Some(at) = line.find("=> \"") {
                if let Some(s) = quoted(&line[at + 3..]) {
                    out.push(s);
                }
            }
        }
    }
    out
}

/// One markdown table from the module docs.
struct DocTable {
    /// 1-based line of the header row.
    line: usize,
    /// First header cell, lowercased.
    header_first: String,
    /// Backticked tokens from the first cell of every data row.
    tokens: Vec<String>,
}

/// Extracts every `//! | … |` table: groups of consecutive doc-comment
/// table rows.
fn doc_tables(raw: &str) -> Vec<DocTable> {
    let mut tables = Vec::new();
    let mut current: Option<DocTable> = None;
    for (idx, line) in raw.lines().enumerate() {
        let t = line.trim_start();
        let row = t
            .strip_prefix("//!")
            .map(str::trim_start)
            .filter(|r| r.starts_with('|'));
        match row {
            Some(r) => {
                let first_cell = r
                    .trim_start_matches('|')
                    .split('|')
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                if first_cell.chars().all(|c| c == '-' || c.is_whitespace()) {
                    continue; // separator row
                }
                match current.as_mut() {
                    None => {
                        current = Some(DocTable {
                            line: idx + 1,
                            header_first: first_cell.to_lowercase(),
                            tokens: Vec::new(),
                        })
                    }
                    Some(table) => table.tokens.extend(backticked(&first_cell)),
                }
            }
            None => {
                if let Some(t) = current.take() {
                    tables.push(t);
                }
            }
        }
    }
    if let Some(t) = current.take() {
        tables.push(t);
    }
    tables
}

/// Quoted strings inside the first `[...]` array literal after `marker`.
fn fn_array_strings(raw: &str, marker: &str) -> Vec<(usize, String)> {
    let Some(fn_at) = raw.find(marker) else {
        return Vec::new();
    };
    let tail = &raw[fn_at..];
    let Some(open) = tail.find('[') else {
        return Vec::new();
    };
    let Some(close) = tail[open..].find(']') else {
        return Vec::new();
    };
    let base_line = raw[..fn_at + open].lines().count().max(1);
    let body = &tail[open..open + close];
    let mut out = Vec::new();
    for (i, line) in body.lines().enumerate() {
        for s in all_quoted(line) {
            out.push((base_line + i, s));
        }
    }
    out
}

/// First `"…"` payload in `s`.
fn quoted(s: &str) -> Option<String> {
    let open = s.find('"')?;
    let close = s[open + 1..].find('"')?;
    Some(s[open + 1..open + 1 + close].to_string())
}

/// Every `"…"` payload in `s`.
fn all_quoted(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(open) = rest.find('"') {
        let Some(close) = rest[open + 1..].find('"') else {
            break;
        };
        out.push(rest[open + 1..open + 1 + close].to_string());
        rest = &rest[open + 1 + close + 1..];
    }
    out
}

/// All `` `…` `` tokens in `s`.
fn backticked(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(open) = rest.find('`') {
        let Some(close) = rest[open + 1..].find('`') else {
            break;
        };
        let tok = rest[open + 1..open + 1 + close].trim();
        if !tok.is_empty() {
            out.push(tok.to_string());
        }
        rest = &rest[open + 1 + close + 1..];
    }
    out
}

/// Crates whose files ride the panic ratchet: the library crates (plus
/// dk-lint itself). Bench mains and the vendored shims are exempt —
/// a bench that panics fails loudly in CI, and the shims are frozen.
const RATCHET_SCOPE: &[&str] = &[
    "crates/graph/src/",
    "crates/linalg/src/",
    "crates/metrics/src/",
    "crates/mcmc/src/",
    "crates/core/src/",
    "crates/topologies/src/",
    "crates/cli/src/",
    "crates/lint/src/",
    "crates/json/src/",
    "crates/serve/src/",
];

/// `true` if `rel` is ratcheted.
pub fn in_ratchet_scope(rel: &str) -> bool {
    RATCHET_SCOPE.iter().any(|p| rel.starts_with(p))
}

/// Compares measured per-file panic counts against the committed
/// baseline. Any mismatch is a finding: an increase is a regression; a
/// decrease must be locked in with `--write-baseline` so the slack
/// cannot be silently re-spent later.
pub fn ratchet_findings(counts: &BTreeMap<String, usize>, ctx: &Context) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (file, &count) in counts {
        match ctx.baseline.get(file) {
            Some(&allowed) if count > allowed => findings.push(Finding {
                file: file.clone(),
                line: 1,
                rule: PANIC_RATCHET,
                msg: format!(
                    "{count} panic sites (.unwrap()/.expect(/panic!), baseline allows \
                     {allowed} — return a structured error (GraphError-style) instead \
                     of panicking"
                ),
            }),
            Some(&allowed) if count < allowed => findings.push(Finding {
                file: file.clone(),
                line: 1,
                rule: PANIC_RATCHET,
                msg: format!(
                    "{count} panic sites, down from the baseline's {allowed} — lock the \
                     improvement in with `cargo run -p dk-lint -- --write-baseline`"
                ),
            }),
            Some(_) => {}
            None if count > 0 => findings.push(Finding {
                file: file.clone(),
                line: 1,
                rule: PANIC_RATCHET,
                msg: format!(
                    "{count} panic sites in a file absent from crates/lint/baseline.toml — \
                     run `cargo run -p dk-lint -- --write-baseline` and justify the new \
                     sites in review"
                ),
            }),
            None => {}
        }
    }
    for file in ctx.baseline.keys() {
        if !counts.contains_key(file) {
            findings.push(Finding {
                file: "crates/lint/baseline.toml".to_string(),
                line: 1,
                rule: PANIC_RATCHET,
                msg: format!(
                    "stale baseline entry for `{file}` (file gone or out of ratchet \
                     scope) — run `cargo run -p dk-lint -- --write-baseline`"
                ),
            });
        }
    }
    findings
}

/// Parses `baseline.toml`: a `[panics]` table of `"path" = count`.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    let mut in_panics = false;
    for (idx, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if t.starts_with('[') {
            in_panics = t == "[panics]";
            continue;
        }
        if !in_panics {
            continue;
        }
        let (key, value) = t
            .split_once('=')
            .ok_or_else(|| format!("baseline.toml:{}: expected `\"path\" = count`", idx + 1))?;
        let key = key.trim().trim_matches('"').to_string();
        let value: usize = value
            .trim()
            .parse()
            .map_err(|e| format!("baseline.toml:{}: bad count: {e}", idx + 1))?;
        out.insert(key, value);
    }
    Ok(out)
}

/// Renders a baseline file from measured counts (sorted, stable).
pub fn render_baseline(counts: &BTreeMap<String, usize>) -> String {
    let mut out = String::from(
        "# panic-ratchet baseline: allowed `.unwrap()` / `.expect(` / `panic!` sites\n\
         # per library-crate file. Counts may only go down; regenerate after a\n\
         # burn-down with: cargo run -p dk-lint -- --write-baseline\n\
         # (see LINTS.md, rule `panic-ratchet`)\n\n[panics]\n",
    );
    for (file, count) in counts {
        if *count > 0 {
            out.push_str(&format!("\"{file}\" = {count}\n"));
        }
    }
    out
}

/// Scans a bench log file's contents into findings.
pub fn bench_log_findings(rel: &str, contents: &str) -> Vec<Finding> {
    crate::jsonchk::check_bench_log(contents)
        .into_iter()
        .map(|(line, msg)| Finding {
            file: rel.to_string(),
            line,
            rule: BENCH_LOG,
            msg,
        })
        .collect()
}

/// Recursively collects workspace-relative paths of `.rs` files under
/// `root`'s scanned directories (`src`, `crates`, `tests`, `examples`),
/// skipping build output, VCS metadata, and dk-lint's own rule
/// fixtures (which are violations *by design*).
pub fn collect_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let iter = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in iter {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Builds the default [`Context`] for a workspace: test stems from
/// `tests/` and `crates/*/tests/`, baseline from
/// `crates/lint/baseline.toml` (missing file = empty baseline, so a
/// fresh checkout reports rather than errors).
pub fn workspace_context(root: &Path) -> Context {
    let mut known_tests = Vec::new();
    let mut test_dirs = vec![root.join("tests")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            test_dirs.push(e.path().join("tests"));
        }
    }
    for dir in test_dirs {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy();
                if let Some(stem) = name.strip_suffix(".rs") {
                    known_tests.push(stem.to_string());
                }
            }
        }
    }
    known_tests.sort();
    let baseline = std::fs::read_to_string(root.join("crates/lint/baseline.toml"))
        .ok()
        .and_then(|t| parse_baseline(&t).ok())
        .unwrap_or_default();
    Context {
        known_tests,
        baseline,
    }
}

/// The full `--workspace` pass: every rule over every scanned file,
/// findings sorted by position.
pub fn run_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let ctx = workspace_context(root);
    let files = collect_files(root)?;
    let mut findings = Vec::new();
    let mut panic_counts: BTreeMap<String, usize> = BTreeMap::new();
    for rel in &files {
        let raw = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        let (mut file_findings, panics) = scan_file(rel, &raw, &ctx, true);
        findings.append(&mut file_findings);
        if in_ratchet_scope(rel) {
            panic_counts.insert(rel.clone(), panics);
        }
    }
    findings.extend(ratchet_findings(&panic_counts, &ctx));
    findings.sort();
    Ok(findings)
}

/// Measured panic counts for every ratcheted file (the
/// `--write-baseline` input).
pub fn measure_panics(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let mut counts = BTreeMap::new();
    for rel in collect_files(root)? {
        if !in_ratchet_scope(&rel) {
            continue;
        }
        let raw = std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
        let stripped = lexer::strip(&raw);
        counts.insert(rel, count_panic_sites(&stripped.code));
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context {
            known_tests: vec!["stream_equivalence".to_string()],
            baseline: BTreeMap::new(),
        }
    }

    #[test]
    fn std_hash_fires_outside_hashers() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }\n";
        let (f, _) = scan_file("crates/core/src/x.rs", src, &ctx(), true);
        assert!(f.iter().filter(|f| f.rule == NO_STD_HASH).count() >= 2);
        let (f, _) = scan_file("crates/graph/src/hashers.rs", src, &ctx(), true);
        assert!(f.iter().all(|f| f.rule != NO_STD_HASH));
    }

    #[test]
    fn det_hash_map_does_not_fire() {
        let src = "use dk_graph::hashers::DetHashMap;\nfn f(m: DetHashMap<u32, u32>) {}\n";
        let (f, _) = scan_file("crates/core/src/x.rs", src, &ctx(), true);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mentions_in_comments_and_strings_do_not_fire() {
        let src = "// a HashMap would break this\nfn f() { let s = \"Instant::now\"; }\n";
        let (f, _) = scan_file("crates/core/src/x.rs", src, &ctx(), true);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn clock_has_no_allowlist() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        for rel in ["crates/metrics/src/x.rs", "crates/bench/src/bin/table3.rs"] {
            let (f, _) = scan_file(rel, src, &ctx(), true);
            assert_eq!(f.len(), 1, "{rel}");
            assert_eq!(f[0].rule, NO_WALL_CLOCK);
            assert_eq!(f[0].line, 1);
        }
    }

    #[test]
    fn entropy_has_no_allowlist() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        let (f, _) = scan_file("crates/bench/src/x.rs", src, &ctx(), true);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, NO_ENTROPY);
    }

    #[test]
    fn float_merge_heuristic() {
        assert!(is_float_reduction("let s = v.iter().sum::<f64>();"));
        assert!(is_float_reduction("acc += x as f64;"));
        assert!(is_float_reduction("total += 0.5 * w;"));
        assert!(!is_float_reduction("count += 1;"));
        assert!(!is_float_reduction("i += step;"));
        assert!(!is_float_reduction("let s: f64 = v.iter().sum();")); // untyped sum: miss, by design
    }

    #[test]
    fn float_merge_respects_allowlist_and_waivers() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        let (f, _) = scan_file("crates/metrics/src/newpass.rs", src, &ctx(), true);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, ORDERED_FLOAT_MERGE);
        // allowlisted file
        let (f, _) = scan_file("crates/metrics/src/distance.rs", src, &ctx(), true);
        assert!(f.is_empty());
        // out of scope entirely
        let (f, _) = scan_file("crates/core/src/x.rs", src, &ctx(), true);
        assert!(f.is_empty());
        // waived, citing a known test
        let waived = "fn f(xs: &[f64]) -> f64 {\n    // lint: allow(ordered-float-merge) — serial; stream_equivalence\n    xs.iter().sum::<f64>()\n}\n";
        let (f, _) = scan_file("crates/metrics/src/newpass.rs", waived, &ctx(), true);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn waiver_syntax_is_policed() {
        // no reason at all
        let src = "// lint: allow(no-entropy)\nfn f() { thread_rng(); }\n";
        let (f, _) = scan_file("crates/core/src/x.rs", src, &ctx(), true);
        assert!(f.iter().any(|f| f.rule == WAIVER_SYNTAX));
        assert!(
            f.iter().any(|f| f.rule == NO_ENTROPY),
            "bad waiver must not suppress"
        );
        // unknown rule
        let src = "// lint: allow(no-such-rule) — tests cover it\n";
        let (f, _) = scan_file("crates/core/src/x.rs", src, &ctx(), true);
        assert!(f.iter().any(|f| f.rule == WAIVER_SYNTAX));
        // unused waiver
        let src = "// lint: allow(no-entropy) — covered by stream_equivalence\nfn f() {}\n";
        let (f, _) = scan_file("crates/core/src/x.rs", src, &ctx(), true);
        assert!(f.iter().any(|f| f.rule == UNUSED_WAIVER));
    }

    #[test]
    fn panic_sites_are_counted_in_code_only() {
        let code = lexer::strip(
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\");\n// .unwrap() in a comment\nlet s = \".expect(\"; }",
        );
        assert_eq!(count_panic_sites(&code.code), 3);
        assert_eq!(count_panic_sites("x.unwrap_or(1); expect_err();"), 0);
    }

    #[test]
    fn ratchet_reports_all_directions() {
        let mut counts = BTreeMap::new();
        counts.insert("crates/graph/src/a.rs".to_string(), 3);
        counts.insert("crates/graph/src/b.rs".to_string(), 1);
        counts.insert("crates/graph/src/c.rs".to_string(), 2);
        let mut baseline = BTreeMap::new();
        baseline.insert("crates/graph/src/a.rs".to_string(), 2); // worse
        baseline.insert("crates/graph/src/b.rs".to_string(), 5); // better
        baseline.insert("crates/graph/src/gone.rs".to_string(), 1); // stale
        let ctx = Context {
            known_tests: Vec::new(),
            baseline,
        };
        let f = ratchet_findings(&counts, &ctx);
        assert_eq!(f.len(), 4, "{f:?}"); // worse + better + new-file(c) + stale
        assert!(f.iter().all(|f| f.rule == PANIC_RATCHET));
    }

    #[test]
    fn baseline_round_trips() {
        let mut counts = BTreeMap::new();
        counts.insert("crates/graph/src/a.rs".to_string(), 3);
        counts.insert("crates/graph/src/zero.rs".to_string(), 0);
        let text = render_baseline(&counts);
        let parsed = parse_baseline(&text).expect("well-formed");
        assert_eq!(parsed.get("crates/graph/src/a.rs"), Some(&3));
        assert!(!parsed.contains_key("crates/graph/src/zero.rs"));
        assert!(parse_baseline("[panics]\ngarbage").is_err());
    }

    #[test]
    fn crate_root_must_forbid_unsafe() {
        let (f, _) = scan_file("crates/x/src/lib.rs", "pub fn f() {}\n", &ctx(), true);
        assert!(f.iter().any(|f| f.rule == FORBID_UNSAFE_DRIFT));
        let (f, _) = scan_file(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
            &ctx(),
            true,
        );
        assert!(f.is_empty());
        // non-root files are not checked
        let (f, _) = scan_file("crates/x/src/other.rs", "pub fn f() {}\n", &ctx(), true);
        assert!(f.is_empty());
    }

    const MINI_METRIC: &str = r#"
//! | name | kind | cost |
//! |------|------|------|
//! | `n`, `m` | scalar | trivial |
//!
//! | cost | route |
//! |------|-------|
//! | `trivial` | single pass |

impl Cost {
    pub const fn name(self) -> &'static str {
        match self {
            Cost::Trivial => "trivial",
        }
    }
}

static REGISTRY: &[Def] = &[
    Def { name: "n", aliases: &["nodes"] },
    Def { name: "m", aliases: &[] },
];

    pub fn default_set() -> Vec<AnyMetric> {
        ["n", "nodes"].iter().map(get).collect()
    }
"#;

    #[test]
    fn doc_drift_accepts_consistent_source() {
        let (f, _) = scan_file("crates/metrics/src/metric.rs", MINI_METRIC, &ctx(), true);
        let drift: Vec<_> = f.iter().filter(|f| f.rule == DOC_DRIFT).collect();
        assert!(drift.is_empty(), "{drift:?}");
    }

    #[test]
    fn doc_drift_catches_each_direction() {
        // table ghost + registry metric missing from table
        let bad = MINI_METRIC.replace("| `n`, `m` |", "| `n`, `ghost` |");
        let (f, _) = scan_file("crates/metrics/src/metric.rs", &bad, &ctx(), true);
        assert!(f
            .iter()
            .any(|f| f.rule == DOC_DRIFT && f.msg.contains("`m`")));
        assert!(f
            .iter()
            .any(|f| f.rule == DOC_DRIFT && f.msg.contains("`ghost`")));
        // set array names unknown metric
        let bad = MINI_METRIC.replace("[\"n\", \"nodes\"]", "[\"n\", \"bogus\"]");
        let (f, _) = scan_file("crates/metrics/src/metric.rs", &bad, &ctx(), true);
        assert!(f
            .iter()
            .any(|f| f.rule == DOC_DRIFT && f.msg.contains("bogus")));
        // route table out of sync with Cost labels
        let bad = MINI_METRIC.replace("| `trivial` | single pass |", "| `warp` | single pass |");
        let (f, _) = scan_file("crates/metrics/src/metric.rs", &bad, &ctx(), true);
        assert!(f
            .iter()
            .any(|f| f.rule == DOC_DRIFT && f.msg.contains("trivial")));
        assert!(f
            .iter()
            .any(|f| f.rule == DOC_DRIFT && f.msg.contains("warp")));
    }
}
