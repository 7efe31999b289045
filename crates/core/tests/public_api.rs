//! Public-API snapshots: one golden file per library crate listing
//! every `pub` item declaration, so an API change (added, removed or
//! re-signed export) shows up as a reviewable diff instead of sliding
//! through unnoticed. The same job `cargo public-api` does,
//! implemented offline against the crate sources. `reorder-core`'s
//! snapshot is `tests/public_api.txt`; `reorder-netsim`'s and
//! `reorder-survey`'s sit beside it as `tests/public_api_netsim.txt`
//! and `tests/public_api_survey.txt`.
//!
//! On mismatch, inspect the assertion output; if the change is
//! intended, regenerate all three with
//!
//! ```sh
//! REORDER_API_BLESS=1 cargo test -p reorder-core --test public_api
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const ITEM_KEYWORDS: [&str; 9] = [
    "pub fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub mod ",
    "pub const ",
    "pub static ",
    "pub type ",
    "pub use ",
];

/// Count `{` minus `}` outside string and char literals, so format
/// strings like `"{kind}"` never desynchronize the module tracker.
/// (Line comments and `//`-prefixed text never reach this: callers
/// pass trimmed source lines and Rust keeps braces balanced in code.)
fn brace_delta(line: &str) -> i64 {
    let mut delta = 0i64;
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char = false;
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_str || in_char => {
                chars.next(); // escaped char, including \" and \'
            }
            '"' if !in_char => in_str = !in_str,
            // A char literal ('{', '\n'); lifetimes ('p) have no
            // closing quote and fall through harmlessly.
            '\'' if !in_str
                && (chars.peek() == Some(&'\\') || chars.clone().nth(1) == Some('\'')) =>
            {
                in_char = !in_char;
            }
            '\'' if in_char => in_char = false,
            '{' if !in_str && !in_char => delta += 1,
            '}' if !in_str && !in_char => delta -= 1,
            _ => {}
        }
    }
    delta
}

/// A declaration is complete when its parentheses/angle-free shape is
/// closed: a `pub use …{…}` list has balanced braces, a `pub fn` has
/// balanced parentheses, everything else is single-line.
fn declaration_complete(decl: &str) -> bool {
    let parens = decl.matches('(').count() as i64 - decl.matches(')').count() as i64;
    let braces = decl.matches('{').count() as i64 - decl.matches('}').count() as i64;
    if decl.starts_with("pub use ") {
        braces <= 0
    } else {
        // A fn/struct signature line is complete once its parens
        // balance; the trailing body `{` (if any) is stripped later.
        parens <= 0
    }
}

/// Extract the public item declarations of one source file, skipping
/// private modules (`mod tests`, …) wholesale: a private
/// module's `pub` items are not crate API. Declarations spanning
/// several lines (brace-lists of `pub use`, multi-line `pub fn`
/// signatures) are joined, so a change to any re-export or parameter
/// shows up in the snapshot.
fn public_items(source: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut skip_depth: Option<i64> = None;
    let mut depth: i64 = 0;
    let mut pending: Option<String> = None;
    for line in source.lines() {
        let trimmed = line.trim();
        if let Some(decl) = &mut pending {
            decl.push(' ');
            decl.push_str(trimmed);
            if declaration_complete(decl) {
                items.push(finish_declaration(&pending.take().expect("pending")));
            }
            depth += brace_delta(trimmed);
            continue;
        }
        if let Some(until) = skip_depth {
            depth += brace_delta(trimmed);
            if depth <= until {
                skip_depth = None;
            }
            continue;
        }
        // A private inline module hides everything inside it.
        if trimmed.starts_with("mod ") && trimmed.ends_with('{') {
            skip_depth = Some(depth);
            depth += brace_delta(trimmed);
            continue;
        }
        if ITEM_KEYWORDS.iter().any(|k| trimmed.starts_with(k)) {
            if declaration_complete(trimmed) {
                items.push(finish_declaration(trimmed));
            } else {
                pending = Some(trimmed.to_string());
            }
        }
        depth += brace_delta(trimmed);
    }
    items
}

/// Normalize a joined declaration: strip the body opener and trailing
/// punctuation, collapse interior whitespace runs.
fn finish_declaration(decl: &str) -> String {
    let decl = decl
        .trim_end_matches('{')
        .trim_end()
        .trim_end_matches(';')
        .trim_end();
    let mut out = String::with_capacity(decl.len());
    let mut last_space = false;
    for c in decl.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out
}

fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .expect("read src dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            source_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The snapshotted crates: package name, source directory relative to
/// this crate's manifest, golden file relative to this crate's
/// manifest.
const CRATES: [(&str, &str, &str); 3] = [
    ("reorder-core", "src", "tests/public_api.txt"),
    (
        "reorder-netsim",
        "../netsim/src",
        "tests/public_api_netsim.txt",
    ),
    (
        "reorder-survey",
        "../survey/src",
        "tests/public_api_survey.txt",
    ),
];

fn snapshot(package: &str, src: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(src);
    let mut files = Vec::new();
    source_files(&root, &mut files);
    let mut out = format!(
        "# {package} public API snapshot (one `pub` declaration per line).\n\
         # Regenerate: REORDER_API_BLESS=1 cargo test -p reorder-core --test public_api\n",
    );
    let crate_dir = root.parent().unwrap_or(&root);
    for path in files {
        let rel = path
            .strip_prefix(crate_dir)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path).expect("read source file");
        let items = public_items(&source);
        if items.is_empty() {
            continue;
        }
        let _ = writeln!(out, "\n## {rel}");
        for item in items {
            let _ = writeln!(out, "{item}");
        }
    }
    out
}

#[test]
fn public_api_matches_snapshot() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bless = std::env::var_os("REORDER_API_BLESS").is_some();
    for (package, src, golden) in CRATES {
        let golden_path = manifest.join(golden);
        let current = snapshot(package, src);
        if bless {
            fs::write(&golden_path, &current).expect("write golden file");
            continue;
        }
        let expected = fs::read_to_string(&golden_path).unwrap_or_default();
        assert!(
            expected == current,
            "{package}'s public API changed.\n\
             If intended, regenerate the snapshots with\n\
             REORDER_API_BLESS=1 cargo test -p reorder-core --test public_api\n\
             and commit {golden} with the API change.\n\n\
             --- expected ({golden}) ---\n{expected}\n\
             --- actual ---\n{current}"
        );
    }
}

#[test]
fn snapshot_sees_the_measurement_api() {
    // Self-check of the extractor: the tentpole exports must be in the
    // snapshot, and private-module internals must not leak into it.
    let s = snapshot("reorder-core", "src");
    for needle in [
        "pub trait Technique",
        "pub struct Session<'p>",
        "pub struct Measurer",
        "pub struct Measurement",
        "pub fn registry(cfg: TestConfig) -> Vec<Box<dyn Technique>>",
        "pub enum TestKind",
        // Multi-line declarations are joined, not truncated: a change
        // to any re-export in the brace list or any parameter of a
        // wrapped signature must move the snapshot.
        "pub use measurer::{ registry, technique,",
        "pub fn checkout( &mut self, tag: &'static str, mss: u16, window: u16,",
        // The JSON reader is public; its parser state is not.
        "pub fn parse(text: &str) -> Result<Value<'_>, String>",
    ] {
        assert!(s.contains(needle), "snapshot must contain `{needle}`:\n{s}");
    }
    assert!(
        !s.contains("Parser"),
        "private parser internals leaked into the snapshot"
    );
}

#[test]
fn extractor_handles_braces_in_strings_and_multiline_items() {
    let src = r#"
mod hidden {
    pub fn secret(s: &str) {
        let _ = format!("{s} {{literal}}");
    }
}
pub fn multi(
    a: usize,
    b: usize,
) -> usize {
    a + b
}
pub use other::{
    Alpha,
    Beta,
};
pub struct Plain {
    field: u8,
}
"#;
    let items = public_items(src);
    assert_eq!(
        items,
        vec![
            "pub fn multi( a: usize, b: usize, ) -> usize".to_string(),
            "pub use other::{ Alpha, Beta, }".to_string(),
            "pub struct Plain".to_string(),
        ],
        "brace-bearing strings must not desynchronize the module skip"
    );
}
