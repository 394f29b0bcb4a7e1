//! Pass 3 — determinism lint.
//!
//! The serving tier's cacheability story depends on byte-stable
//! output: canonical plan keys, `ResultSet::to_json`, the catalog
//! digest, and every wire body must not vary run-to-run. Two classes
//! of accidental nondeterminism are linted in the scoped files:
//!
//! * **Hash-order iteration** — iterating a `HashMap`/`HashSet`
//!   (declared as a field or local in a scoped file) in any
//!   non-test function. Order-insensitive chains are exempt: a chain
//!   that terminates in `min`/`max`/`sum`/`count`/`any`/`all`/`len`/
//!   `fold`-free reductions, or that collects into a `BTreeMap`/
//!   `BTreeSet`, cannot leak iteration order. `min_by_key` is **not**
//!   exempt — ties are broken by encounter order, which is the hash
//!   order.
//! * **Ad-hoc float formatting** — `{:.N}` / `{:e}` / `{:E}`
//!   placeholders in format strings. Floats on wire paths go through
//!   the one canonical shortest-round-trip speller, the wire writer's
//!   `push_number` in `f1_components::json` (plan keys reach it through
//!   `fmt_float`): an in-repo Ryū writer whose bytes equal `{v:?}` and
//!   which `float_spellings.txt` pins. A precision-truncating format
//!   silently diverges from the parse round-trip check.
//!
//! Suppression: `// analyze::allow(determinism, reason = "…")` — used
//! when the surrounding code restores determinism in a way the
//! token-level lint cannot see (e.g. collect-then-sort).

use std::collections::BTreeSet;

use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Files whose output feeds plan keys, wire bodies, or digests.
#[must_use]
pub fn is_scoped(rel: &str) -> bool {
    matches!(
        rel,
        "crates/serve/src/protocol.rs"
            | "crates/serve/src/scheduler.rs"
            | "crates/serve/src/server.rs"
            | "crates/skyline/src/session.rs"
            | "crates/skyline/src/plan.rs"
            | "crates/skyline/src/shard.rs"
            | "crates/components/src/store.rs"
            | "crates/components/src/json.rs"
            | "crates/components/src/json/ryu.rs"
    )
}

/// Chain terminators that collapse an iterator order-insensitively.
/// `min_by_key`/`max_by_key` are absent on purpose: their ties are
/// resolved by encounter order.
const ORDER_INSENSITIVE: [&str; 8] = [
    "min",
    "max",
    "sum",
    "count",
    "any",
    "all",
    "len",
    "contains_key",
];

/// Iteration-starting methods on a hash collection.
const ITERATES: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Runs the lint over one file (no-op for out-of-scope files).
#[must_use]
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !is_scoped(&file.rel) {
        return findings;
    }
    let hashes = hash_collections(file);
    let tokens = &file.tokens;
    let mut flagged: Vec<usize> = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        // Hash-order iteration: `name.iter()` / `name.keys()` / … where
        // `name` is a declared HashMap/HashSet.
        if let TokenKind::Ident(method) = &token.kind {
            let is_call = i >= 2
                && tokens[i - 1].kind == TokenKind::Punct('.')
                && matches!(tokens.get(i + 1), Some(t) if t.kind == TokenKind::Punct('('));
            if is_call && ITERATES.contains(&method.as_str()) {
                let receiver = match &tokens[i - 2].kind {
                    TokenKind::Ident(r) => Some(r.as_str()),
                    _ => None,
                };
                let dotted = i >= 3 && tokens[i - 3].kind == TokenKind::Punct('.');
                if let Some(name) = receiver.filter(|r| hashes.matches(r, dotted)) {
                    let line = token.line;
                    if !file.in_test_code(line)
                        && file.allowed("determinism", line).is_none()
                        && !chain_is_order_insensitive(file, i)
                        && !flagged.contains(&line)
                    {
                        flagged.push(line);
                        findings.push(Finding::at(
                            "determinism",
                            &file.rel,
                            line,
                            format!(
                                "iteration over hash-ordered `{name}` — order varies run-to-run \
                                 and can reach a plan key, wire body, or digest; iterate a \
                                 `BTreeMap`/sorted copy instead, or justify with \
                                 `// analyze::allow(determinism, reason = \"…\")`"
                            ),
                        ));
                    }
                }
            }
        }
        // `for pat in <expr containing a hash name> {` — a bare loop
        // without an explicit `.iter()`.
        if let TokenKind::Ident(kw) = &token.kind {
            if kw == "for" {
                if let Some(name) = for_loop_hash_source(file, i, &hashes) {
                    let line = token.line;
                    if !file.in_test_code(line)
                        && file.allowed("determinism", line).is_none()
                        && !flagged.contains(&line)
                    {
                        flagged.push(line);
                        findings.push(Finding::at(
                            "determinism",
                            &file.rel,
                            line,
                            format!(
                                "`for` loop over hash-ordered `{name}` — order varies \
                                 run-to-run; iterate a sorted copy, or justify with \
                                 `// analyze::allow(determinism, reason = \"…\")`"
                            ),
                        ));
                    }
                }
            }
        }
        // Ad-hoc float formatting in string literals.
        if let TokenKind::Literal(text) = &token.kind {
            if has_float_placeholder(text) {
                let line = token.line;
                if !file.in_test_code(line)
                    && file.allowed("determinism", line).is_none()
                    && !flagged.contains(&line)
                {
                    flagged.push(line);
                    findings.push(Finding::at(
                        "determinism",
                        &file.rel,
                        line,
                        "precision/exponent float formatting in a wire-adjacent file — floats \
                         must go through the canonical shortest-round-trip writer \
                         (`json::push_number`, or `fmt_float` for plan keys), or justify with \
                         `// analyze::allow(determinism, reason = \"…\")`"
                            .to_owned(),
                    ));
                }
            }
        }
    }
    findings
}

/// Names declared with a `HashMap<…>`/`HashSet<…>` type anywhere in the
/// file, split by declaration shape. A `name: Type` declaration (a
/// struct field, usually) is only matched behind a dot (`self.plans.…`)
/// — a bare `plans` elsewhere in the file is more likely an unrelated
/// local or parameter that happens to share the name. `let`-bound
/// locals are matched bare. (A hash-typed fn *parameter* iterated bare
/// is outside this model; the codebase passes slices, not maps.)
struct HashNames {
    /// `name : HashMap<…>` shapes — fields/params; dotted access only.
    typed: BTreeSet<String>,
    /// `let name = HashMap::new()` shapes — matched anywhere.
    locals: BTreeSet<String>,
}

impl HashNames {
    /// Whether `name` at a given access shape refers to a declared hash
    /// collection.
    fn matches(&self, name: &str, dotted: bool) -> bool {
        self.locals.contains(name) || (dotted && self.typed.contains(name))
    }
}

fn hash_collections(file: &SourceFile) -> HashNames {
    let mut typed = BTreeSet::new();
    let mut locals = BTreeSet::new();
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        // Walk back over `std :: collections ::` path prefixes to the
        // `field : Type` or `let name = Type::new()` shape.
        let mut pos = i;
        while pos >= 3
            && tokens[pos - 1].kind == TokenKind::Punct(':')
            && tokens[pos - 2].kind == TokenKind::Punct(':')
            && matches!(tokens[pos - 3].kind, TokenKind::Ident(_))
        {
            pos -= 3;
        }
        if pos >= 2 && tokens[pos - 1].kind == TokenKind::Punct(':') {
            if let TokenKind::Ident(field) = &tokens[pos - 2].kind {
                // `let name: HashMap<…> = …` is still a local; only a
                // bare `name: Type` (struct field) is dotted-only.
                let mut k = pos - 2;
                if k >= 1 && matches!(&tokens[k - 1].kind, TokenKind::Ident(m) if m == "mut") {
                    k -= 1;
                }
                if k >= 1 && matches!(&tokens[k - 1].kind, TokenKind::Ident(l) if l == "let") {
                    locals.insert(field.clone());
                } else {
                    typed.insert(field.clone());
                }
                continue;
            }
        }
        if pos >= 3 && tokens[pos - 1].kind == TokenKind::Punct('=') {
            let mut j = pos - 2;
            if let TokenKind::Ident(local) = &tokens[j].kind {
                let local = local.clone();
                if j >= 1 && matches!(&tokens[j - 1].kind, TokenKind::Ident(m) if m == "mut") {
                    j -= 1;
                }
                if j >= 1 && matches!(&tokens[j - 1].kind, TokenKind::Ident(l) if l == "let") {
                    locals.insert(local);
                }
            }
        }
    }
    HashNames { typed, locals }
}

/// Whether the method chain starting at the iteration call at token `i`
/// ends in an order-insensitive reduction or a BTree collect before the
/// statement ends. The backward scan covers the
/// `let x: BTreeMap<_, _> = hash.iter().collect()` shape, where the
/// re-sorting destination is a type annotation *before* the call.
fn chain_is_order_insensitive(file: &SourceFile, i: usize) -> bool {
    let tokens = &file.tokens;
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &tokens[j].kind {
            TokenKind::Punct(';' | '{' | '}') => break,
            TokenKind::Ident(name) if name == "BTreeMap" || name == "BTreeSet" => return true,
            _ => {}
        }
    }
    let mut depth = 0usize;
    let mut j = i;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokenKind::Punct(';' | ',') if depth == 0 => break,
            TokenKind::Ident(name) if depth == 0 => {
                if ORDER_INSENSITIVE.contains(&name.as_str()) {
                    return true;
                }
                if name == "BTreeMap" || name == "BTreeSet" {
                    // `collect::<BTreeMap<_, _>>()` re-sorts.
                    return true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    false
}

/// For a `for` keyword at token `i`, returns the hash-collection name
/// iterated, if the `in …` expression names one directly (not through
/// an order-insensitive adapter — a bare `for` has none).
fn for_loop_hash_source(file: &SourceFile, i: usize, hashes: &HashNames) -> Option<String> {
    let tokens = &file.tokens;
    // Find the `in` keyword at pattern depth 0.
    let mut depth = 0usize;
    let mut j = i + 1;
    let in_pos = loop {
        match tokens.get(j).map(|t| &t.kind) {
            Some(TokenKind::Punct('(' | '[')) => depth += 1,
            Some(TokenKind::Punct(')' | ']')) => depth = depth.saturating_sub(1),
            Some(TokenKind::Ident(kw)) if kw == "in" && depth == 0 => break j,
            Some(TokenKind::Punct('{')) | None => return None,
            _ => {}
        }
        j += 1;
    };
    // Scan the source expression up to the loop body `{`.
    let mut depth = 0usize;
    let mut j = in_pos + 1;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('(' | '[') => depth += 1,
            TokenKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
            TokenKind::Punct('{') if depth == 0 => break,
            TokenKind::Ident(name)
                if hashes.matches(name, j >= 1 && tokens[j - 1].kind == TokenKind::Punct('.')) =>
            {
                // `for k in plans.keys()` is caught by the method rule;
                // only flag when no iteration method call follows (the
                // `&plans` / `plans` direct borrow form).
                let via_method = matches!(
                    tokens.get(j + 1),
                    Some(n) if n.kind == TokenKind::Punct('.')
                );
                if !via_method {
                    return Some(name.clone());
                }
                return None;
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Whether a format-string literal contains a precision (`{:.…}`) or
/// exponent (`{:e}`/`{:E}`) placeholder.
fn has_float_placeholder(text: &str) -> bool {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        if bytes[i] == b'{' && bytes[i + 1] == b'{' {
            i += 2; // escaped brace
            continue;
        }
        if bytes[i] == b'{' {
            // Scan the placeholder to `}`. A spec never contains
            // whitespace, quotes, or escapes — JSON-looking literals
            // like `{"pong": true}` are not placeholders.
            let mut j = i + 1;
            let mut saw_colon = false;
            while j < bytes.len() && bytes[j] != b'}' {
                if bytes[j] == b'{' {
                    // Rescan from the nested `{` as a fresh candidate.
                    j -= 1;
                    break;
                }
                if matches!(bytes[j], b' ' | b'"' | b'\\') {
                    break;
                }
                if bytes[j] == b':' {
                    saw_colon = true;
                }
                if saw_colon && (bytes[j] == b'.' || bytes[j] == b'e' || bytes[j] == b'E') {
                    // `{:e}` / `{:E}` only when terminal before `}`.
                    if bytes[j] == b'.' || (j + 1 < bytes.len() && bytes[j + 1] == b'}') {
                        return true;
                    }
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse("crates/skyline/src/session.rs", src))
    }

    #[test]
    fn flags_hash_iteration() {
        let src = "
struct C { plans: HashMap<String, u32> }
impl C {
  fn keys_out(&self) -> Vec<String> { self.plans.keys().cloned().collect() }
}
";
        let found = run(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("plans"));
    }

    #[test]
    fn min_by_key_is_not_exempt() {
        let src = "
struct C { plans: HashMap<String, u32> }
fn evict(c: &C) { c.plans.iter().min_by_key(|x| x.1); }
";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn order_insensitive_chains_are_exempt() {
        let src = "
struct C { states: HashMap<u64, u32> }
fn f(c: &C) {
  let n = c.states.keys().min();
  let total: u32 = c.states.values().sum();
  let sorted: std::collections::BTreeMap<_, _> = c.states.iter().collect();
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn flags_bare_for_loop() {
        let src = "
struct C { states: HashMap<u64, u32> }
fn f(c: &C) { for (k, v) in &c.states { use_it(k, v); } }
";
        let found = run(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("for"));
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let src = "
struct C { plans: BTreeMap<String, u32> }
fn f(c: &C) { for k in c.plans.keys() { use_it(k); } }
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn flags_precision_float_format() {
        let src = "fn f(v: f64) -> String { format!(\"{:.3}\", v) }";
        let found = run(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("shortest-round-trip"));
    }

    #[test]
    fn flags_exponent_format_but_not_plain() {
        assert_eq!(
            run("fn f(v: f64) -> String { format!(\"{v:e}\", ) }").len(),
            1
        );
        assert!(run("fn f(v: f64) -> String { format!(\"{v:?} {}\", v) }").is_empty());
        assert!(run("fn f() -> String { format!(\"{{:.3}} literal brace\") }").is_empty());
    }

    #[test]
    fn json_literals_are_not_placeholders() {
        // `{"pong": true}` — the `e` of `true` sits right before `}`
        // after a colon, but a spec never contains spaces or quotes.
        assert!(run(r#"fn f() -> &'static str { "{\"pong\": true}\n" }"#).is_empty());
        assert!(run(r#"fn f() -> &'static str { "{\"shutting_down\": true}" }"#).is_empty());
        // A placeholder nested after JSON text is still caught.
        assert_eq!(
            run(r#"fn f(v: f64) -> String { format!("{{\"v\": {v:.3}}}") }"#).len(),
            1
        );
    }

    #[test]
    fn slice_param_sharing_a_field_name_is_not_flagged() {
        // `plans` is a HashMap *field*, but the free function's `plans`
        // is a slice parameter — bare access must not resolve to the
        // field's declaration. Dotted access still does.
        let src = "
struct C { plans: HashMap<String, u32> }
fn run(plans: &[&u32]) -> Option<&u32> { plans.iter().find(|p| true) }
fn bad(c: &C) -> Vec<String> { c.plans.keys().cloned().collect() }
";
        let found = run(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("plans"));
        // An annotated `let` local is still matched bare.
        let src = "
fn f() {
  let seen: HashMap<u64, u32> = HashMap::new();
  for k in seen.keys() { use_it(k); }
}
";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "
struct C { plans: HashMap<String, u32> }
impl C {
  fn keys_out(&self) -> Vec<String> {
    // analyze::allow(determinism, reason = \"collected then sorted by caller\")
    self.plans.keys().cloned().collect()
  }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "
#[cfg(test)]
mod tests {
  fn t() {
    let m: HashMap<u32, u32> = HashMap::new();
    for k in m.keys() { let s = format!(\"{:.2}\", k); }
  }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn the_wire_writer_is_in_scope() {
        assert!(is_scoped("crates/components/src/json.rs"));
    }

    #[test]
    fn the_float_writer_is_in_scope() {
        let path = "crates/components/src/json/ryu.rs";
        assert!(is_scoped(path));
        assert!(crate::passes::panics::is_designated(path));
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let file = SourceFile::parse(
            "crates/skyline/src/report.rs",
            "fn f(v: f64) -> String { format!(\"{:.2}\", v) }",
        );
        assert!(check(&file).is_empty());
    }
}
