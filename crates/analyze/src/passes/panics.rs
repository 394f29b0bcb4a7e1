//! Pass 1 — panic-path audit.
//!
//! In the designated server-facing / hot-path modules, every construct
//! that can abort the thread — `unwrap()`, `expect()`, `panic!`,
//! `unreachable!`, `todo!`, `unimplemented!`, `assert!`, `assert_eq!`,
//! `assert_ne!`, and direct slice/array indexing — must either
//! disappear (return a structured error) or carry a written
//! justification (the `debug_assert*` forms are compiled out of
//! release builds and stay exempt):
//!
//! ```text
//! // analyze::allow(panic, reason = "startup-time config check")
//! // analyze::allow(indexing, scope = "fn", reason = "chunk-disjoint writes")
//! ```
//!
//! A panic on one of these paths kills a connection thread or an
//! executor instead of producing a structured `err` frame — the audit
//! makes every remaining site a reviewed decision, not an accident.
//! `#[cfg(test)]` code is exempt.

use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Relative paths the audit covers: `serve/*`, `store/*`, the tier-2
/// simulation harness (`sim/*` — it runs inside every query with sim
/// objectives), the `skyline` session/plan/repair/shard modules and
/// the stored rows every result reads (`rows.rs`), the `skyline`
/// evaluation core (`dse.rs` — the shard kernel runs its
/// `pair_stage` and `PairStage::score` for every candidate of every
/// query) and query vocabulary (`query.rs` — it validates every plan),
/// the components store, the strict-JSON parser (it decodes every wire
/// request and every durable log record) and the float writer behind
/// it (it spells every number of every response).
#[must_use]
pub fn is_designated(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/")
        || rel.starts_with("crates/store/src/")
        || rel.starts_with("crates/sim/src/")
        || matches!(
            rel,
            "crates/skyline/src/session.rs"
                | "crates/skyline/src/plan.rs"
                | "crates/skyline/src/dse.rs"
                | "crates/skyline/src/query.rs"
                | "crates/skyline/src/repair.rs"
                | "crates/skyline/src/rows.rs"
                | "crates/skyline/src/shard.rs"
                | "crates/components/src/store.rs"
                | "crates/components/src/json.rs"
                | "crates/components/src/json/ryu.rs"
        )
}

const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Rust keywords that can precede `[` without forming an index
/// expression (`let [a, b] = …`, `for x in [..]`, `match … { [..] => }`).
const NON_INDEX_KEYWORDS: [&str; 24] = [
    "let", "in", "mut", "ref", "return", "break", "else", "match", "if", "while", "loop", "move",
    "dyn", "impl", "fn", "where", "as", "const", "static", "type", "use", "pub", "crate", "enum",
];

/// Runs the audit over one file (no-op for non-designated files).
#[must_use]
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !is_designated(&file.rel) {
        return findings;
    }
    let tokens = &file.tokens;
    let debug_only = debug_assert_ranges(file);
    let mut flagged_lines: Vec<(usize, &'static str)> = Vec::new();
    let mut flag = |line: usize, lint: &'static str, message: String| {
        if file.in_test_code(line) || file.allowed(lint, line).is_some() {
            return;
        }
        if flagged_lines.contains(&(line, lint)) {
            return;
        }
        flagged_lines.push((line, lint));
        findings.push(Finding::at("panic", &file.rel, line, message));
    };
    for (i, token) in tokens.iter().enumerate() {
        // `debug_assert!` bodies are compiled out of release builds —
        // nothing inside one can panic a production thread.
        if debug_only.iter().any(|&(lo, hi)| i > lo && i < hi) {
            continue;
        }
        match &token.kind {
            TokenKind::Ident(name) if name == "unwrap" || name == "expect" => {
                let is_method = i > 0 && tokens[i - 1].kind == TokenKind::Punct('.');
                let called =
                    matches!(tokens.get(i + 1), Some(t) if t.kind == TokenKind::Punct('('));
                if !is_method || !called {
                    continue;
                }
                if name == "expect" {
                    // `self.expect(b'{')` is the strict-JSON reader's
                    // own parser method, not `Option::expect` — the
                    // receiver `self` is never an Option/Result here.
                    let receiver_is_self =
                        i >= 2 && matches!(&tokens[i - 2].kind, TokenKind::Ident(r) if r == "self");
                    if receiver_is_self {
                        continue;
                    }
                }
                flag(
                    token.line,
                    "panic",
                    format!(
                        "`.{name}()` can panic on a designated hot/server path — convert to a \
                         structured error, or justify with \
                         `// analyze::allow(panic, reason = \"…\")`"
                    ),
                );
            }
            TokenKind::Ident(name) if PANIC_MACROS.contains(&name.as_str()) => {
                let is_macro =
                    matches!(tokens.get(i + 1), Some(t) if t.kind == TokenKind::Punct('!'));
                if !is_macro {
                    continue;
                }
                flag(
                    token.line,
                    "panic",
                    format!(
                        "`{name}!` aborts the thread on a designated hot/server path — convert \
                         to a structured error, or justify with \
                         `// analyze::allow(panic, reason = \"…\")`"
                    ),
                );
            }
            TokenKind::Punct('[') if i > 0 => {
                let indexing = match &tokens[i - 1].kind {
                    TokenKind::Ident(prev) => !NON_INDEX_KEYWORDS.contains(&prev.as_str()),
                    TokenKind::Punct(')' | ']') => true,
                    _ => false,
                };
                if !indexing {
                    continue;
                }
                flag(
                    token.line,
                    "indexing",
                    "direct indexing panics when out of bounds on a designated hot/server path \
                     — use `.get()`/`try_*`, or justify with \
                     `// analyze::allow(indexing, reason = \"…\")` \
                     (`scope = \"fn\"` covers a whole hot loop)"
                        .to_owned(),
                );
            }
            _ => {}
        }
    }
    findings
}

/// Token ranges `(open, close)` of `debug_assert*!(…)` invocations.
fn debug_assert_ranges(file: &SourceFile) -> Vec<(usize, usize)> {
    let tokens = &file.tokens;
    let mut ranges = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if !matches!(
            name.as_str(),
            "debug_assert" | "debug_assert_eq" | "debug_assert_ne"
        ) {
            continue;
        }
        if !matches!(tokens.get(i + 1), Some(t) if t.kind == TokenKind::Punct('!')) {
            continue;
        }
        let open = i + 2;
        if !matches!(tokens.get(open), Some(t) if t.kind == TokenKind::Punct('(')) {
            continue;
        }
        let mut depth = 0usize;
        for (j, t) in tokens.iter().enumerate().skip(open) {
            match t.kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        ranges.push((open, j));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse("crates/serve/src/protocol.rs", src))
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let src = "fn f() {\n  x.unwrap();\n  y.expect(\"m\");\n  panic!(\"boom\");\n  unreachable!();\n}\n";
        let found = run(src);
        assert_eq!(found.len(), 4, "{found:?}");
    }

    #[test]
    fn skips_self_expect_parser_method() {
        let found = run("fn f() { self.expect(b'{')?; }");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn skips_unwrap_or_else() {
        let found = run("fn f() { m.lock().unwrap_or_else(PoisonError::into_inner); }");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn flags_indexing_but_not_array_literals() {
        let src = "fn f() {\n  let a = [0u8; 4];\n  let b = [1, 2];\n  let [x, y] = b;\n  a[0];\n  f()[1];\n}\n";
        let found = run(src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|f| f.message.contains("indexing")));
    }

    #[test]
    fn debug_assert_bodies_are_exempt() {
        // Compiled out in release — not a production panic path. A
        // plain `assert!` still panics in release and stays flagged.
        let src = "fn f(v: &[u8]) {\n  debug_assert!(v.windows(2).all(|w| w[0] < w[1]));\n  debug_assert_eq!(v[0], v[1]);\n  assert!(v[2] > 0);\n}\n";
        let found = run(src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn flags_release_asserts() {
        let src = "fn f(a: u8, b: u8) {\n  assert!(a > 0);\n  assert_eq!(a, b);\n  assert_ne!(a, b, \"m\");\n}\n";
        let found = run(src);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found
            .iter()
            .all(|f| f.message.contains("aborts the thread")));
    }

    #[test]
    fn respects_allow_annotations() {
        let src = "fn f() {\n  // analyze::allow(panic, reason = \"unit test helper\")\n  x.unwrap();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn skips_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); a[0]; }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn ignores_non_designated_files() {
        let file = SourceFile::parse("crates/skyline/src/frontier.rs", "fn f() { x.unwrap(); }");
        assert!(check(&file).is_empty());
    }

    #[test]
    fn audits_the_evaluation_core_and_the_query_vocabulary() {
        for rel in ["crates/skyline/src/dse.rs", "crates/skyline/src/query.rs"] {
            let file = SourceFile::parse(rel, "fn f() { x.unwrap(); }");
            assert_eq!(check(&file).len(), 1, "{rel}");
        }
    }
}
