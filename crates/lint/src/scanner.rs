//! Comment/string-aware source scanner.
//!
//! `reorder-lint` has no access to a registry, so there is no `syn`;
//! the rules it enforces are all lexical (a forbidden identifier, a
//! forbidden macro, a comparison against a float literal), which means
//! a full parse is unnecessary — but a *naive* substring search is not
//! enough either, because the patterns routinely appear inside string
//! literals, doc comments, and `#[cfg(test)]` modules where they are
//! harmless. This module closes exactly that gap:
//!
//! * [`mask_source`] replaces every comment, string literal (plain,
//!   raw, byte, byte-raw) and char literal with spaces, byte-for-byte,
//!   so offsets and line structure are preserved and rules only ever
//!   match real code. Line comments are collected on the side so the
//!   `// reorder-lint: allow(rule, reason)` suppressions can be parsed
//!   from them.
//! * [`blank_test_regions`] additionally blanks every item annotated
//!   `#[cfg(test)]` or `#[test]` (attribute through matching close
//!   brace, or through `;` for brace-less items), so test-only code is
//!   invisible to the library-code rules.
//! * [`parse_allows`] extracts the inline suppressions, resolving each
//!   to the line of code it targets: the same line when the comment
//!   trails code, otherwise the next line that contains code.

/// One `//` comment, with enough position info to resolve suppression
/// targets.
#[derive(Debug, Clone)]
pub struct LineComment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment text after the `//` (not trimmed).
    pub text: String,
    /// Whether masked code (non-whitespace) precedes the comment on
    /// its own line — i.e. the comment trails a statement.
    pub trails_code: bool,
}

/// Result of [`mask_source`].
pub struct Masked {
    /// The source with comments and string/char literals blanked to
    /// spaces. Newlines are preserved, so line numbers line up with
    /// the original.
    pub code: String,
    /// Every `//` comment in the file, in order.
    pub comments: Vec<LineComment>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blank `out[start..end]` to spaces, preserving newline bytes so the
/// line structure survives.
fn blank_range(out: &mut [u8], start: usize, end: usize) {
    let end = end.min(out.len());
    for b in &mut out[start..end] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// Mask comments and literals. Total over arbitrary input: unterminated
/// literals or comments simply blank to end-of-file.
pub fn mask_source(src: &str) -> Masked {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut line_start = 0usize; // byte offset of current line start
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            line_start = i + 1;
            i += 1;
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            // Line comment (also covers `///` and `//!` doc comments).
            let start = i;
            let mut j = i + 2;
            while j < b.len() && b[j] != b'\n' {
                j += 1;
            }
            let trails_code = out[line_start..start]
                .iter()
                .any(|&x| x != b' ' && x != b'\t');
            comments.push(LineComment {
                line,
                text: src[start + 2..j].to_string(),
                trails_code,
            });
            blank_range(&mut out, start, j);
            i = j;
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            // Block comment, nestable.
            let start = i;
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    if b[j] == b'\n' {
                        line += 1;
                        line_start = j + 1;
                    }
                    j += 1;
                }
            }
            blank_range(&mut out, start, j);
            i = j;
            continue;
        }
        // Raw strings: r"…", r#"…"#, br"…", b r#…# — only when the
        // `r`/`b` is not the tail of a longer identifier (`hr"x"`).
        let prev_ident = i > 0 && is_ident_byte(b[i - 1]);
        if !prev_ident && (c == b'r' || c == b'b') {
            let mut k = i + 1;
            if c == b'b' && k < b.len() && b[k] == b'r' {
                k += 1;
            }
            let hash_start = k;
            while k < b.len() && b[k] == b'#' {
                k += 1;
            }
            let hashes = k - hash_start;
            if k < b.len()
                && b[k] == b'"'
                && (c == b'r' || hashes > 0 || b[i + 1] == b'r' || {
                    // `b"…"` plain byte string is handled below.
                    false
                })
            {
                // Find closing `"` followed by `hashes` `#`s.
                let mut j = k + 1;
                loop {
                    if j >= b.len() {
                        break;
                    }
                    if b[j] == b'\n' {
                        line += 1;
                        line_start = j + 1;
                        j += 1;
                        continue;
                    }
                    if b[j] == b'"'
                        && b.len() >= j + 1 + hashes
                        && b[j + 1..j + 1 + hashes].iter().all(|&h| h == b'#')
                    {
                        j += 1 + hashes;
                        break;
                    }
                    j += 1;
                }
                blank_range(&mut out, i, j);
                i = j;
                continue;
            }
        }
        if c == b'"' || (!prev_ident && c == b'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            // Plain (or byte) string literal with escapes.
            let start = i;
            let mut j = if c == b'"' { i + 1 } else { i + 2 };
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        line_start = j + 1;
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            blank_range(&mut out, start, j);
            i = j;
            continue;
        }
        if c == b'\'' || (!prev_ident && c == b'b' && i + 1 < b.len() && b[i + 1] == b'\'') {
            // Char literal vs lifetime. `'\…'` and `'<char>'` are
            // literals; `'ident` (no closing quote right after one
            // char) is a lifetime and stays code.
            let q = if c == b'\'' { i } else { i + 1 };
            if q + 1 < b.len() && b[q + 1] == b'\\' {
                // The byte after the backslash is the escaped char
                // itself (`\\`, `\'`, `n`, `x`, `u`), never the close.
                let mut j = q + 3;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                blank_range(&mut out, i, (j + 1).min(b.len()));
                i = (j + 1).min(b.len());
                continue;
            }
            // One char (possibly multi-byte) then a closing quote?
            if let Some(ch) = src[q + 1..].chars().next() {
                let after = q + 1 + ch.len_utf8();
                if after < b.len() && b[after] == b'\'' {
                    blank_range(&mut out, i, after + 1);
                    i = after + 1;
                    continue;
                }
            }
            // Lifetime: leave as code.
            out[i] = c;
            i += 1;
            continue;
        }
        i += 1;
    }
    Masked {
        code: String::from_utf8_lossy(&out).into_owned(),
        comments,
    }
}

/// In already-masked code, blank every item annotated `#[cfg(test)]`
/// or `#[test]`: from the attribute through the item's matching close
/// brace (or terminating `;`). Handles attribute stacks
/// (`#[cfg(test)]` followed by `#[allow(…)]` before the item).
pub fn blank_test_regions(masked: &str) -> String {
    let b = masked.as_bytes();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] != b'#' {
            i += 1;
            continue;
        }
        if let Some((attr_end, body)) = parse_attr(b, i) {
            let norm: String = body.chars().filter(|c| !c.is_whitespace()).collect();
            if norm == "cfg(test)" || norm == "test" {
                let end = item_extent(b, attr_end);
                ranges.push((i, end));
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    let mut out = b.to_vec();
    for (s, e) in ranges {
        blank_range(&mut out, s, e);
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse an outer attribute starting at `#`. Returns (end offset just
/// past `]`, inner text). Inner attributes (`#![…]`) are skipped (they
/// never gate an item body).
fn parse_attr(b: &[u8], at: usize) -> Option<(usize, String)> {
    let mut i = at + 1;
    while i < b.len() && (b[i] as char).is_whitespace() {
        i += 1;
    }
    if i >= b.len() || b[i] != b'[' {
        return None;
    }
    let start = i + 1;
    let mut depth = 1usize;
    let mut j = start;
    while j < b.len() && depth > 0 {
        match b[j] {
            b'[' => depth += 1,
            b']' => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    if depth != 0 {
        return None;
    }
    Some((j, String::from_utf8_lossy(&b[start..j - 1]).into_owned()))
}

/// From just past a test attribute, find the extent of the annotated
/// item: skip whitespace and further attributes, then scan to the
/// first top-level `{` (returning the offset just past its matching
/// `}`) or to a terminating `;`.
fn item_extent(b: &[u8], from: usize) -> usize {
    let mut i = from;
    loop {
        while i < b.len() && (b[i] as char).is_whitespace() {
            i += 1;
        }
        if i < b.len() && b[i] == b'#' {
            if let Some((end, _)) = parse_attr(b, i) {
                i = end;
                continue;
            }
        }
        break;
    }
    let mut paren = 0isize;
    while i < b.len() {
        match b[i] {
            b'(' => paren += 1,
            b')' => paren -= 1,
            b';' if paren == 0 => return i + 1,
            b'{' if paren == 0 => {
                let mut depth = 1isize;
                let mut j = i + 1;
                while j < b.len() && depth > 0 {
                    match b[j] {
                        b'{' => depth += 1,
                        b'}' => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                return j;
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// A parsed `// reorder-lint: allow(rule, reason)` suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule id being suppressed.
    pub rule: String,
    /// Justification text. Empty means the allow is invalid.
    pub reason: String,
    /// Line the comment sits on.
    pub comment_line: usize,
    /// Line of code the suppression applies to.
    pub target_line: usize,
    /// Set while matching; an allow that suppresses nothing is itself
    /// a finding.
    pub used: bool,
}

/// Outcome of parsing one comment that *tried* to be a suppression but
/// failed (malformed syntax or missing reason).
#[derive(Debug, Clone)]
pub struct BadAllow {
    pub line: usize,
    pub detail: String,
}

/// Extract suppressions from the collected comments. `masked_lines`
/// is the comment/string-masked source split into lines, used to find
/// the next line of code for comments that sit on their own line.
pub fn parse_allows(
    comments: &[LineComment],
    masked_lines: &[&str],
) -> (Vec<Allow>, Vec<BadAllow>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let t = c.text.trim();
        let Some(rest) = t.strip_prefix("reorder-lint") else {
            continue;
        };
        let rest = rest.trim_start().strip_prefix(':').unwrap_or(rest).trim();
        let parsed = (|| {
            let inner = rest.strip_prefix("allow(")?;
            let close = inner.rfind(')')?;
            let inner = &inner[..close];
            let (rule, reason) = match inner.find(',') {
                Some(p) => (&inner[..p], inner[p + 1..].trim()),
                None => (inner, ""),
            };
            let reason = reason.trim_matches('"').trim();
            Some((rule.trim().to_string(), reason.to_string()))
        })();
        match parsed {
            None => bad.push(BadAllow {
                line: c.line,
                detail: format!(
                    "malformed suppression `//{}` — expected \
                     `// reorder-lint: allow(rule, reason)`",
                    c.text.trim_end()
                ),
            }),
            Some((rule, reason)) if reason.is_empty() => bad.push(BadAllow {
                line: c.line,
                detail: format!(
                    "suppression for `{rule}` is missing its reason — \
                     `// reorder-lint: allow({rule}, why this is safe)`"
                ),
            }),
            Some((rule, reason)) => {
                let target_line = if c.trails_code {
                    c.line
                } else {
                    // First following line with any code on it.
                    (c.line..masked_lines.len())
                        .find(|&ln| !masked_lines[ln].trim().is_empty())
                        .map(|ln| ln + 1) // back to 1-based
                        .unwrap_or(c.line)
                };
                allows.push(Allow {
                    rule,
                    reason,
                    comment_line: c.line,
                    target_line,
                    used: false,
                });
            }
        }
    }
    (allows, bad)
}
