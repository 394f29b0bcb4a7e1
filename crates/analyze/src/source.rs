//! The per-file source model the passes share: the token stream, the
//! `analyze::allow(...)` annotations, `#[cfg(test)]` regions, and the
//! function/impl map the call-graph passes walk.

use std::cell::Cell;
use std::path::Path;

use crate::lexer::{lex, Token, TokenKind};

/// One `// analyze::allow(lint, reason = "...")` annotation.
///
/// An annotation suppresses findings of its lint on the line it sits on
/// and the next code line (the usual "comment above the statement"
/// placement). With `scope = "fn"` it covers the whole body of the next
/// `fn` item — the right shape for hot loops whose every line indexes
/// into chunk-disjoint slices.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The lint being allowed (`panic`, `indexing`, `lock`,
    /// `determinism`, `wire`).
    pub lint: String,
    /// The written justification. The analyzer rejects empty reasons.
    pub reason: String,
    /// First line the annotation covers.
    pub from_line: usize,
    /// Last line the annotation covers (inclusive).
    pub to_line: usize,
    /// Whether any pass actually suppressed a finding through this
    /// annotation (stale-allow detection).
    pub used: Cell<bool>,
    /// Line the annotation itself sits on.
    pub at_line: usize,
}

/// A function item: its name, the impl type it belongs to (if any), and
/// its body's token/line extent.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// The `impl` type the function sits in, when inside an impl block.
    pub impl_type: Option<String>,
    /// Token index of the `fn` keyword.
    pub fn_token: usize,
    /// Token index of the body's opening `{` (functions without bodies
    /// — trait signatures — are not recorded).
    pub body_open: usize,
    /// Token index of the body's closing `}`.
    pub body_close: usize,
    /// Line of the `fn` keyword.
    pub line: usize,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/serve/src/server.rs`).
    pub rel: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
    /// Malformed annotations (reported as findings by the driver).
    pub bad_annotations: Vec<(usize, String)>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Every `fn` item with a body, in source order.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Lexes and indexes one file.
    #[must_use]
    pub fn parse(rel: &str, source: &str) -> Self {
        let lexed = lex(source);
        let tokens = lexed.tokens;
        let mut file = Self {
            rel: rel.to_owned(),
            tokens,
            allows: Vec::new(),
            bad_annotations: Vec::new(),
            test_ranges: Vec::new(),
            fns: Vec::new(),
        };
        file.index_test_ranges();
        file.index_fns();
        file.index_allows(&lexed.comments);
        file
    }

    /// Reads a file from disk and parses it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn load(root: &Path, rel: &str) -> std::io::Result<Self> {
        let source = std::fs::read_to_string(root.join(rel))?;
        Ok(Self::parse(rel, &source))
    }

    /// Whether `line` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(from, to)| (from..=to).contains(&line))
    }

    /// Looks for an annotation allowing `lint` at `line`; marks it used.
    #[must_use]
    pub fn allowed(&self, lint: &str, line: usize) -> Option<&Allow> {
        let allow = self
            .allows
            .iter()
            .find(|a| a.lint == lint && (a.from_line..=a.to_line).contains(&line))?;
        allow.used.set(true);
        Some(allow)
    }

    /// The function whose body contains token index `idx`, if any
    /// (innermost wins for nested fns).
    #[must_use]
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| (f.body_open..=f.body_close).contains(&idx))
            .min_by_key(|f| f.body_close - f.body_open)
    }

    /// Token index of the `}` matching the `{` at `open` (or the last
    /// token when unbalanced — forgiving, like the lexer).
    #[must_use]
    pub fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for (i, t) in self.tokens.iter().enumerate().skip(open) {
            match t.kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.tokens.len().saturating_sub(1)
    }

    fn ident_at(&self, idx: usize) -> Option<&str> {
        match &self.tokens.get(idx)?.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn is_punct(&self, idx: usize, c: char) -> bool {
        matches!(self.tokens.get(idx), Some(t) if t.kind == TokenKind::Punct(c))
    }

    /// Finds `#[cfg(test)]` attributes and records the line extent of
    /// the item that follows (skipping further attributes).
    fn index_test_ranges(&mut self) {
        let mut ranges = Vec::new();
        let mut i = 0usize;
        while i + 4 < self.tokens.len() {
            let is_cfg_test = self.is_punct(i, '#')
                && self.is_punct(i + 1, '[')
                && self.ident_at(i + 2) == Some("cfg")
                && self.is_punct(i + 3, '(')
                && self.ident_at(i + 4) == Some("test");
            if !is_cfg_test {
                i += 1;
                continue;
            }
            let from_line = self.tokens[i].line;
            // Skip to the end of this attribute, then past any further
            // attributes, to the item's opening brace.
            let mut j = i + 4;
            while j < self.tokens.len() && !self.is_punct(j, ']') {
                j += 1;
            }
            j += 1;
            while self.is_punct(j, '#') {
                while j < self.tokens.len() && !self.is_punct(j, ']') {
                    j += 1;
                }
                j += 1;
            }
            // Find the item body. `use …;`-style items end at `;`.
            let mut open = None;
            let mut k = j;
            while k < self.tokens.len() {
                if self.is_punct(k, '{') {
                    open = Some(k);
                    break;
                }
                if self.is_punct(k, ';') {
                    break;
                }
                k += 1;
            }
            if let Some(open) = open {
                let close = self.matching_brace(open);
                ranges.push((from_line, self.tokens[close].line));
                i = close;
            } else {
                ranges.push((from_line, self.tokens.get(k).map_or(from_line, |t| t.line)));
                i = k;
            }
            i += 1;
        }
        self.test_ranges = ranges;
    }

    /// Records every `fn` item with a body, tagged with its enclosing
    /// `impl` type (one level — impls do not nest in this workspace).
    fn index_fns(&mut self) {
        let mut fns = Vec::new();
        let mut impl_stack: Vec<(String, usize)> = Vec::new(); // (type, close idx)
        let mut i = 0usize;
        while i < self.tokens.len() {
            while let Some(&(_, close)) = impl_stack.last() {
                if i > close {
                    impl_stack.pop();
                } else {
                    break;
                }
            }
            match self.ident_at(i) {
                Some("impl") => {
                    // `impl Type {` or `impl Trait for Type {`: the type
                    // name is the last path ident before `{` (skipping
                    // generics soup is fine — we only need a stable tag).
                    let mut j = i + 1;
                    let mut name = None;
                    let mut for_seen_name = None;
                    while j < self.tokens.len() && !self.is_punct(j, '{') && !self.is_punct(j, ';')
                    {
                        if let Some(id) = self.ident_at(j) {
                            if id == "for" {
                                for_seen_name = Some(j);
                            } else if id != "where" {
                                name = Some(id.to_owned());
                            }
                        }
                        j += 1;
                    }
                    // `impl Trait for Type`: take the ident after `for`.
                    if let Some(for_idx) = for_seen_name {
                        let mut k = for_idx + 1;
                        while k < j {
                            if let Some(id) = self.ident_at(k) {
                                name = Some(id.to_owned());
                                break;
                            }
                            k += 1;
                        }
                    }
                    if self.is_punct(j, '{') {
                        let close = self.matching_brace(j);
                        if let Some(name) = name {
                            impl_stack.push((name, close));
                        }
                        i = j + 1;
                        continue;
                    }
                    i = j;
                }
                Some("fn") => {
                    let name = self.ident_at(i + 1).unwrap_or_default().to_owned();
                    // The body opens at the first `{` outside the
                    // signature's parentheses and brackets; a `;` there
                    // ends a bodiless declaration, but one inside them
                    // belongs to an array type (`-> [f64; N]`).
                    let mut j = i + 2;
                    let mut depth = 0usize;
                    while j < self.tokens.len() {
                        match self.tokens[j].kind {
                            TokenKind::Punct('(' | '[') => depth += 1,
                            TokenKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
                            TokenKind::Punct('{' | ';') if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if self.is_punct(j, '{') {
                        let close = self.matching_brace(j);
                        fns.push(FnItem {
                            name,
                            impl_type: impl_stack.last().map(|(n, _)| n.clone()),
                            fn_token: i,
                            body_open: j,
                            body_close: close,
                            line: self.tokens[i].line,
                        });
                        // Do NOT skip the body: nested fns/closures keep
                        // their own entries and impl tags.
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
        self.fns = fns;
    }

    fn index_allows(&mut self, comments: &[crate::lexer::Comment]) {
        for comment in comments {
            let Some(at) = comment.text.find("analyze::allow(") else {
                continue;
            };
            let rest = &comment.text[at + "analyze::allow(".len()..];
            match parse_allow_args(rest) {
                Ok((lint, scope_fn, reason)) => {
                    let (from_line, to_line) = if scope_fn {
                        match self.fn_body_lines_after(comment.line) {
                            Some(range) => range,
                            None => {
                                self.bad_annotations.push((
                                    comment.line,
                                    "analyze::allow(…, scope = \"fn\") with no following fn item"
                                        .to_owned(),
                                ));
                                continue;
                            }
                        }
                    } else {
                        (comment.line, comment.line + 1)
                    };
                    self.allows.push(Allow {
                        lint,
                        reason,
                        from_line,
                        to_line,
                        used: Cell::new(false),
                        at_line: comment.line,
                    });
                }
                Err(why) => self.bad_annotations.push((comment.line, why)),
            }
        }
    }

    /// The line extent of the first fn item at or after `line`
    /// (annotation line through body close).
    fn fn_body_lines_after(&self, line: usize) -> Option<(usize, usize)> {
        let f = self.fns.iter().find(|f| f.line >= line)?;
        Some((line, self.tokens[f.body_close].line))
    }
}

/// Parses `lint[, scope = "fn"], reason = "..."` — the inside of an
/// `analyze::allow(...)` annotation.
fn parse_allow_args(rest: &str) -> Result<(String, bool, String), String> {
    let close = rest
        .rfind(')')
        .ok_or_else(|| "analyze::allow(… missing closing parenthesis".to_owned())?;
    let args = &rest[..close];
    let mut lint = None;
    let mut scope_fn = false;
    let mut reason = None;
    for (i, piece) in split_args(args).into_iter().enumerate() {
        let piece = piece.trim();
        if i == 0 {
            lint = Some(piece.to_owned());
            continue;
        }
        if let Some(value) = piece.strip_prefix("scope") {
            let value = value.trim_start().strip_prefix('=').unwrap_or("").trim();
            if value.trim_matches('"') == "fn" {
                scope_fn = true;
            } else {
                return Err(format!("unknown analyze::allow scope {value}"));
            }
        } else if let Some(value) = piece.strip_prefix("reason") {
            let value = value.trim_start().strip_prefix('=').unwrap_or("").trim();
            let value = value.trim_matches('"').trim();
            if value.is_empty() {
                return Err("analyze::allow reason must not be empty".to_owned());
            }
            reason = Some(value.to_owned());
        } else {
            return Err(format!("unknown analyze::allow argument {piece:?}"));
        }
    }
    let lint = lint.filter(|l| !l.is_empty()).ok_or_else(|| {
        "analyze::allow needs a lint name (panic|indexing|lock|determinism|wire)".to_owned()
    })?;
    let known = ["panic", "indexing", "lock", "determinism", "wire"];
    if !known.contains(&lint.as_str()) {
        return Err(format!(
            "unknown lint {lint:?} in analyze::allow (expected one of {known:?})"
        ));
    }
    let reason =
        reason.ok_or_else(|| "analyze::allow requires reason = \"…\" (non-empty)".to_owned())?;
    Ok((lint, scope_fn, reason))
}

/// Splits annotation arguments on commas outside quotes.
fn split_args(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in args.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_test_ranges() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n";
        let file = SourceFile::parse("x.rs", src);
        assert!(!file.in_test_code(1));
        assert!(file.in_test_code(2));
        assert!(file.in_test_code(4));
        assert!(file.in_test_code(5));
    }

    #[test]
    fn parses_line_allow() {
        let src =
            "fn f() {\n  // analyze::allow(panic, reason = \"startup only\")\n  x.unwrap();\n}\n";
        let file = SourceFile::parse("x.rs", src);
        assert_eq!(file.allows.len(), 1);
        assert!(file.allowed("panic", 3).is_some());
        assert!(file.allowed("panic", 4).is_none());
        assert!(file.allowed("indexing", 3).is_none());
        assert!(file.allows[0].used.get());
    }

    #[test]
    fn parses_fn_scope_allow() {
        let src = "// analyze::allow(indexing, scope = \"fn\", reason = \"chunk-disjoint\")\nfn hot() {\n  a[i];\n  b[j];\n}\nfn cold() { c[k]; }\n";
        let file = SourceFile::parse("x.rs", src);
        assert!(file.allowed("indexing", 3).is_some());
        assert!(file.allowed("indexing", 4).is_some());
        assert!(file.allowed("indexing", 6).is_none());
    }

    #[test]
    fn fn_scope_allow_spans_array_typed_signatures() {
        // A `;` inside the signature's array types must not end the
        // item: the allow covers `row` alone, not `run` after it.
        let src = "// analyze::allow(indexing, scope = \"fn\", reason = \"r < len\")\nfn row(x: [u8; 2]) -> [f64; 4] {\n  a[r];\n}\nfn run() {\n  b[j];\n}\ntrait T { fn decl(&self) -> [u8; 2]; }\n";
        let file = SourceFile::parse("x.rs", src);
        assert!(file.allowed("indexing", 3).is_some());
        assert!(file.allowed("indexing", 6).is_none());
        let names: Vec<&str> = file.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["row", "run"]);
    }

    #[test]
    fn rejects_bad_annotations() {
        for bad in [
            "// analyze::allow(panic)",
            "// analyze::allow(panic, reason = \"\")",
            "// analyze::allow(frobnicate, reason = \"x\")",
            "// analyze::allow(panic, scope = \"mod\", reason = \"x\")",
        ] {
            let file = SourceFile::parse("x.rs", &format!("{bad}\nfn f() {{}}\n"));
            assert_eq!(file.allows.len(), 0, "{bad}");
            assert_eq!(file.bad_annotations.len(), 1, "{bad}");
        }
    }

    #[test]
    fn indexes_fns_with_impl_types() {
        let src =
            "impl Foo {\n  fn a() {}\n}\nimpl Display for Bar {\n  fn fmt() {}\n}\nfn free() {}\n";
        let file = SourceFile::parse("x.rs", src);
        let tags: Vec<(Option<String>, String)> = file
            .fns
            .iter()
            .map(|f| (f.impl_type.clone(), f.name.clone()))
            .collect();
        assert_eq!(
            tags,
            vec![
                (Some("Foo".into()), "a".into()),
                (Some("Bar".into()), "fmt".into()),
                (None, "free".into()),
            ]
        );
    }
}
