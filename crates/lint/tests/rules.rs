//! Fixture tests: every rule class fires at exactly the expected
//! (rule, line) set — including the tricky cases (patterns inside
//! string literals, inside `#[cfg(test)]` items, suppressed with and
//! without a reason) — and path scoping routes rules to the right
//! crates.

use reorder_lint::scan_source;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// (rule, line) pairs, in the scanner's reporting order.
fn findings(virtual_path: &str, src: &str) -> Vec<(String, usize)> {
    scan_source(virtual_path, src)
        .into_iter()
        .map(|v| (v.rule.to_string(), v.line))
        .collect()
}

#[test]
fn determinism_rules_fire_per_line() {
    let got = findings("crates/core/src/fx.rs", &fixture("determinism.rs"));
    let want = vec![
        ("hash-collections", 1),
        ("hash-collections", 2),
        ("wall-clock", 3),
        ("hash-collections", 5),
        ("wall-clock", 6),
        ("env-read", 7),
        ("unseeded-rng", 8),
        ("hash-collections", 9),
        ("unseeded-rng", 10),
    ];
    let want: Vec<(String, usize)> = want.into_iter().map(|(r, l)| (r.to_string(), l)).collect();
    assert_eq!(got, want);
}

#[test]
fn robustness_rules_fire_per_line() {
    let got = findings("crates/core/src/fx.rs", &fixture("robustness.rs"));
    let want: Vec<(String, usize)> = [
        ("unwrap", 2),
        ("expect", 3),
        ("float-eq", 4),
        ("panic", 5),
        ("float-eq", 7),
        ("panic", 8),
    ]
    .into_iter()
    .map(|(r, l)| (r.to_string(), l))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn hygiene_rules_fire_in_library_crate_root() {
    let got = findings("crates/netsim/src/lib.rs", &fixture("hygiene.rs"));
    let want: Vec<(String, usize)> = [("forbid-unsafe", 1), ("println", 2), ("dbg-macro", 3)]
        .into_iter()
        .map(|(r, l)| (r.to_string(), l))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn strings_comments_and_test_code_are_invisible() {
    let got = findings("crates/core/src/fx.rs", &fixture("tricky.rs"));
    assert_eq!(got, vec![("unwrap".to_string(), 26)]);
}

#[test]
fn suppressions_require_reasons_and_must_be_used() {
    let got = findings("crates/core/src/fx.rs", &fixture("suppressed.rs"));
    let want: Vec<(String, usize)> = [
        ("bad-allow", 9),
        ("unwrap", 9),
        ("unused-allow", 11),
        ("unknown-rule", 13),
    ]
    .into_iter()
    .map(|(r, l)| (r.to_string(), l))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn scoping_println_and_determinism_do_not_apply_to_cli() {
    // Same hygiene fixture, but under the CLI crate: println! is the
    // CLI's job and the file is not a crate root, so only dbg! fires.
    let got = findings("crates/cli/src/fx.rs", &fixture("hygiene.rs"));
    assert_eq!(got, vec![("dbg-macro".to_string(), 3)]);
}

#[test]
fn scoping_bench_bins_are_exempt_from_robustness() {
    let got = findings("crates/bench/src/bin/fx.rs", &fixture("robustness.rs"));
    assert_eq!(got, Vec::<(String, usize)>::new());
}

#[test]
fn scoping_determinism_only_in_output_affecting_crates() {
    // The determinism fixture under bench (not output-affecting):
    // no determinism findings, and nothing robustness-shaped in it.
    let got = findings("crates/bench/src/fx.rs", &fixture("determinism.rs"));
    assert_eq!(got, Vec::<(String, usize)>::new());
}

#[test]
fn files_outside_scanned_roots_yield_nothing() {
    let src = fixture("robustness.rs");
    assert_eq!(findings("vendor/rand/src/lib.rs", &src), vec![]);
    assert_eq!(findings("crates/core/tests/fx.rs", &src), vec![]);
    assert_eq!(findings("crates/core/benches/fx.rs", &src), vec![]);
}

#[test]
fn rule_table_ids_are_unique_and_kebab_case() {
    let mut seen = std::collections::BTreeSet::new();
    for (id, _, desc) in reorder_lint::RULES {
        assert!(seen.insert(*id), "duplicate rule id {id}");
        assert!(
            id.bytes().all(|b| b.is_ascii_lowercase() || b == b'-'),
            "rule id {id} is not kebab-case"
        );
        assert!(!desc.is_empty());
    }
}

#[test]
fn escaped_backslash_char_literal_keeps_the_scanner_in_sync() {
    // `b'\\'` once swallowed its own closing quote, so the scanner
    // masked code up to the next `'` and read every string after it
    // inside out: the `#[cfg(test)]` module below was no longer
    // exempt, and real findings could be hidden.
    let src = r#"pub fn escapes(b: u8) -> bool {
    b == b'\\' || b == b'"' || b == b'\''
}
pub fn real(x: Option<u8>) -> u8 {
    x.unwrap()
}
#[cfg(test)]
mod tests {
    fn exempt() {
        assert!(super::escapes(b"\"\\"[0]));
        Some(1).unwrap();
    }
}
"#;
    let got = findings("crates/core/src/fx.rs", src);
    assert_eq!(got, vec![("unwrap".to_string(), 5)]);
}
