//! Bench-log JSON schema check, over the shared [`dk_json`] parser.
//!
//! `results/BENCH_metrics.json` is the repository's historical JSON-lines
//! perf log. No program in the workspace writes or reads it, which is
//! exactly how a log format rots. `dk-lint --bench-log`
//! re-parses every line and checks the schema invariants every
//! consumer of the log relies on: each line is a JSON **object**
//! carrying a `"bench"` key that names the emitting benchmark and a
//! `"threads"` key recording the worker count the numbers were
//! measured at — without it, multi-core perf lines are untraceable
//! against the 1-core history ROADMAP quotes.
//!
//! The recursive-descent parser that used to live here was promoted to
//! the dependency-free `dk-json` crate (PR 9) so the serve protocol
//! could parse full value trees with it; this module keeps only the
//! bench-log schema logic.

use dk_json::JsonValue;

/// Parses one JSON value spanning the whole of `line` and returns the
/// top-level object keys (duplicates included; empty for non-object
/// values).
///
/// # Errors
/// A message with a byte offset on malformed input.
pub fn parse_line(line: &str) -> Result<Vec<String>, String> {
    let value = JsonValue::parse(line)?;
    Ok(value
        .entries()
        .map(|members| members.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default())
}

/// Validates a whole JSON-lines log: every non-empty line parses and
/// carries the `"bench"` and `"threads"` keys. Returns
/// `(line_number, message)` pairs.
pub fn check_bench_log(contents: &str) -> Vec<(usize, String)> {
    let mut problems = Vec::new();
    let mut seen_any = false;
    for (idx, line) in contents.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        seen_any = true;
        match parse_line(line) {
            Err(e) => problems.push((idx + 1, format!("not valid JSON: {e}"))),
            Ok(keys) => {
                for (key, why) in [
                    ("bench", "naming the emitting benchmark"),
                    ("threads", "recording the measured worker count"),
                ] {
                    if !keys.iter().any(|k| k == key) {
                        problems
                            .push((idx + 1, format!("JSON line lacks the \"{key}\" key {why}")));
                    }
                }
            }
        }
    }
    if !seen_any {
        problems.push((1, "bench log is empty".to_string()));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_bench_lines_parse() {
        let line = r#"{"bench":"csr","n":100000,"fused_s":1.30,"ok":true,"tags":[1,2],"nested":{"a":null}}"#;
        let keys = parse_line(line).expect("valid");
        assert!(keys.contains(&"bench".to_string()));
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "{",
            "{\"a\" 1}",
            "{\"a\": }",
            "[1, 2",
            "{\"a\":1} trailing",
            "nul",
            "{\"n\": 1.2.3}",
            "\"open",
            "",
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn numbers_and_escapes() {
        assert!(parse_line(r#"{"x": -1.5e-3, "s": "a\"b\\c"}"#).is_ok());
        assert!(parse_line("3.25").is_ok());
        assert!(parse_line("true").is_ok());
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(parse_line(&deep).is_err());
    }

    #[test]
    fn non_objects_have_no_keys() {
        assert!(parse_line("[1,2]").unwrap().is_empty());
        assert!(parse_line("42").unwrap().is_empty());
    }

    #[test]
    fn bench_log_check_flags_each_problem_line() {
        let log = "{\"bench\":\"a\",\"threads\":1}\n\n{\"other\":1}\nnot json\n{\"bench\":\"b\",\"threads\":4}\n";
        let problems = check_bench_log(log);
        // line 3 lacks both required keys, line 4 is malformed
        assert_eq!(problems.len(), 3);
        assert_eq!(problems[0].0, 3);
        assert!(problems[0].1.contains("\"bench\""));
        assert_eq!(problems[1].0, 3);
        assert!(problems[1].1.contains("\"threads\""));
        assert_eq!(problems[2].0, 4);
        assert_eq!(
            check_bench_log(""),
            vec![(1, "bench log is empty".to_string())]
        );
        assert!(check_bench_log("{\"bench\":\"x\",\"threads\":1}\n").is_empty());
    }

    #[test]
    fn bench_log_requires_the_threads_key() {
        // the pre-PR-10 line shape: "bench" present, "threads" missing
        let problems = check_bench_log("{\"bench\":\"mcmc_2k\",\"n\":20000}\n");
        assert_eq!(problems.len(), 1);
        assert!(problems[0].1.contains("\"threads\""));
    }
}
