//! Structural index over one lexed file.
//!
//! Built on top of [`crate::lexer`], this pass recovers just enough item
//! structure for the rules: function items (name, body token range, whether
//! they sit inside test code), `#[cfg(test)]` spans, struct fields, and enum
//! variants. It tracks brace depth instead of parsing, which is robust
//! against everything the workspace actually contains.

use crate::lexer::{self, Comment, Token};

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword; `tokens[sig_start..body_start]` is
    /// the signature (name, generics, parameters, return type).
    pub sig_start: usize,
    /// Token index of the body's opening `{` (`tokens[body_start] == {`).
    /// `None` for bodiless trait-method declarations.
    pub body_start: Option<usize>,
    /// Token index one past the body's closing `}`.
    pub body_end: usize,
    /// Whether the item is inside `#[cfg(test)]` or under `#[test]`.
    pub in_test: bool,
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Struct the field belongs to.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
    /// Raw type tokens joined with no spaces (`u64`, `Vec<CrashEvent>`).
    pub ty: String,
}

/// One variant of an enum.
#[derive(Debug, Clone)]
pub struct VariantItem {
    /// Enum the variant belongs to.
    pub owner: String,
    /// Variant name.
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
}

/// Fully indexed source file, input to every rule.
pub struct FileIndex {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Comments (side channel), sorted by line.
    pub comments: Vec<Comment>,
    /// Function items in source order.
    pub fns: Vec<FnItem>,
    /// Struct fields in source order.
    pub fields: Vec<FieldItem>,
    /// Enum variants in source order.
    pub variants: Vec<VariantItem>,
    /// For each token index, whether it lies inside test code
    /// (`#[cfg(test)]` module or `#[test]` function).
    test_mask: Vec<bool>,
}

impl FileIndex {
    /// Lexes and indexes `src` as the file `rel_path`.
    pub fn parse(rel_path: &str, src: &str) -> FileIndex {
        let (tokens, comments) = lexer::lex(src);
        let mut idx = FileIndex {
            rel_path: rel_path.replace('\\', "/"),
            tokens,
            comments,
            fns: Vec::new(),
            fields: Vec::new(),
            variants: Vec::new(),
            test_mask: Vec::new(),
        };
        idx.test_mask = vec![false; idx.tokens.len()];
        idx.index_items();
        idx
    }

    /// Whether the token at `i` is inside test code.
    pub fn is_test(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// The function whose body contains token `i`, if any (innermost wins —
    /// closures are not items, so nesting only happens for fns in fns, which
    /// the workspace does not use; last match is the innermost).
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .rfind(|f| f.body_start.is_some_and(|s| s <= i) && i < f.body_end)
    }

    /// Whether any comment within `span` lines above `line` contains `needle`.
    pub fn comment_above(&self, line: u32, span: u32, needle: &str) -> bool {
        let lo = line.saturating_sub(span);
        self.comments
            .iter()
            .any(|c| c.line >= lo && c.line < line && c.text.contains(needle))
    }

    /// Walks the token stream once, recording fns, struct fields, enum
    /// variants and the test mask.
    fn index_items(&mut self) {
        let toks = &self.tokens;
        let n = toks.len();
        // Depth-indexed stack of "test scope opened at this depth".
        let mut test_depth: Option<u32> = None;
        let mut depth: u32 = 0;
        // Pending attribute state: a `#[cfg(test)]` or `#[test]` attribute
        // seen since the last item keyword applies to the next `{`-scope.
        let mut pending_test_attr = false;
        let mut i = 0;
        let mut open_fns: Vec<usize> = Vec::new(); // indices into self.fns
        // Deferred (owner, open, close, is_struct) member scans — run after
        // the walk so the token borrow is released.
        let mut member_spans: Vec<(String, usize, usize, bool)> = Vec::new();

        while i < n {
            let t = &toks[i];
            match &t.kind {
                crate::lexer::Tok::Punct("#") => {
                    // Attribute: `#[ ... ]` (or `#![ ... ]`). Scan it whole.
                    let mut j = i + 1;
                    if j < n && toks[j].is_punct("!") {
                        j += 1;
                    }
                    if j < n && toks[j].is_punct("[") {
                        let close = match_bracket(toks, j);
                        let attr: Vec<&str> = toks[j + 1..close]
                            .iter()
                            .filter_map(|t| t.kind.ident())
                            .collect();
                        if attr == ["test"]
                            || (attr.first() == Some(&"cfg") && attr.contains(&"test"))
                        {
                            pending_test_attr = true;
                        }
                        // Tokens inside the attribute inherit the current mask.
                        let in_test = test_depth.is_some();
                        for k in i..=close.min(n - 1) {
                            self.test_mask[k] = in_test;
                        }
                        i = close + 1;
                        continue;
                    }
                }
                crate::lexer::Tok::Ident(id) if id == "fn" => {
                    if let Some(name_tok) = toks.get(i + 1) {
                        if let Some(name) = name_tok.kind.ident() {
                            let (body_start, body_end) = fn_body_range(toks, i + 2);
                            self.fns.push(FnItem {
                                name: name.to_owned(),
                                line: t.line,
                                sig_start: i,
                                body_start,
                                body_end,
                                in_test: test_depth.is_some() || pending_test_attr,
                            });
                            if pending_test_attr && test_depth.is_none() {
                                // A `#[test]` fn: mark its body via the mask
                                // below by treating it as a test scope.
                                if let Some(s) = body_start {
                                    let idx = self.fns.len() - 1;
                                    open_fns.push(idx);
                                    for k in s..body_end.min(n) {
                                        self.test_mask[k] = true;
                                    }
                                    open_fns.pop();
                                }
                            }
                        }
                    }
                    pending_test_attr = false;
                }
                crate::lexer::Tok::Ident(id) if id == "struct" || id == "enum" => {
                    let is_struct = id == "struct";
                    if let Some(owner) = toks.get(i + 1).and_then(|t| t.kind.ident()) {
                        let owner = owner.to_owned();
                        // Find the body `{`, skipping generics; tuple/unit
                        // structs (`(` or `;`) carry no named members.
                        let mut j = i + 2;
                        let mut angle = 0i32;
                        while j < n {
                            match &toks[j].kind {
                                crate::lexer::Tok::Punct("<") => angle += 1,
                                crate::lexer::Tok::Punct(">") => angle -= 1,
                                crate::lexer::Tok::Punct("<<") => angle += 2,
                                crate::lexer::Tok::Punct(">>") => angle -= 2,
                                crate::lexer::Tok::Punct("{") if angle <= 0 => break,
                                crate::lexer::Tok::Punct("(") | crate::lexer::Tok::Punct(";")
                                    if angle <= 0 =>
                                {
                                    j = n;
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        if j < n {
                            let close = match_bracket(toks, j);
                            member_spans.push((owner, j, close, is_struct));
                        }
                    }
                    pending_test_attr = false;
                }
                crate::lexer::Tok::Ident(id) if id == "mod" || id == "impl" || id == "trait" => {
                    // `pending_test_attr` on a mod opens a test scope at the
                    // mod's `{` — handled below via the depth bookkeeping.
                }
                crate::lexer::Tok::Punct("{") => {
                    depth += 1;
                    if pending_test_attr && test_depth.is_none() {
                        test_depth = Some(depth);
                        pending_test_attr = false;
                    }
                }
                crate::lexer::Tok::Punct("}") => {
                    if test_depth == Some(depth) {
                        test_depth = None;
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
            if test_depth.is_some() {
                self.test_mask[i] = true;
            }
            i += 1;
        }
        for (owner, open, close, is_struct) in member_spans {
            if is_struct {
                self.index_struct_fields(&owner, open, close);
            } else {
                self.index_enum_variants(&owner, open, close);
            }
        }
        // Second pass: fn items flagged in_test mask their whole bodies
        // (covers `#[test]` fns and fns lexically inside `#[cfg(test)]`).
        let spans: Vec<(usize, usize)> = self
            .fns
            .iter()
            .filter(|f| f.in_test)
            .filter_map(|f| f.body_start.map(|s| (s, f.body_end)))
            .collect();
        for (s, e) in spans {
            for k in s..e.min(self.test_mask.len()) {
                self.test_mask[k] = true;
            }
        }
    }

    /// Records named fields of a struct whose body spans tokens
    /// `(open..=close)` (both braces).
    fn index_struct_fields(&mut self, owner: &str, open: usize, close: usize) {
        let toks = &self.tokens;
        let mut i = open + 1;
        while i < close {
            // Skip attributes and visibility.
            if toks[i].is_punct("#") {
                if let Some(j) = toks.get(i + 1).filter(|t| t.is_punct("[")) {
                    let _ = j;
                    i = match_bracket(toks, i + 1) + 1;
                    continue;
                }
            }
            if toks[i].kind.is_ident("pub") {
                i += 1;
                if i < close && toks[i].is_punct("(") {
                    i = match_bracket(toks, i) + 1;
                }
                continue;
            }
            // Field: `name : ty ,`
            if let Some(name) = toks[i].kind.ident() {
                if toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
                    let line = toks[i].line;
                    let name = name.to_owned();
                    // Type runs until a top-level comma or the close brace.
                    let mut j = i + 2;
                    let mut nest = 0i32;
                    let mut ty = String::new();
                    while j < close {
                        match &toks[j].kind {
                            crate::lexer::Tok::Punct(p @ ("<" | "(" | "[")) => {
                                nest += 1;
                                ty.push_str(p);
                            }
                            crate::lexer::Tok::Punct(p @ (">" | ")" | "]")) => {
                                nest -= 1;
                                ty.push_str(p);
                            }
                            crate::lexer::Tok::Punct(",") if nest <= 0 => break,
                            crate::lexer::Tok::Ident(s) => ty.push_str(s),
                            crate::lexer::Tok::Punct(p) => ty.push_str(p),
                            _ => {}
                        }
                        j += 1;
                    }
                    self.fields.push(FieldItem {
                        owner: owner.to_owned(),
                        name,
                        line,
                        ty,
                    });
                    i = j + 1;
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Records variants of an enum whose body spans tokens `(open..=close)`.
    fn index_enum_variants(&mut self, owner: &str, open: usize, close: usize) {
        let toks = &self.tokens;
        let mut i = open + 1;
        while i < close {
            if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
                i = match_bracket(toks, i + 1) + 1;
                continue;
            }
            if let Some(name) = toks[i].kind.ident() {
                let line = toks[i].line;
                self.variants.push(VariantItem {
                    owner: owner.to_owned(),
                    name: name.to_owned(),
                    line,
                });
                // Skip payload (struct-like `{…}`, tuple `(…)`, or `= disc`)
                // up to the next top-level comma.
                let mut j = i + 1;
                let mut nest = 0i32;
                while j < close {
                    match &toks[j].kind {
                        crate::lexer::Tok::Punct("{" | "(" | "[") => nest += 1,
                        crate::lexer::Tok::Punct("}" | ")" | "]") => nest -= 1,
                        crate::lexer::Tok::Punct(",") if nest <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            i += 1;
        }
    }
}

/// Token index of the `}`/`]`/`)` matching the opener at `open`.
///
/// Returns the last token index if unbalanced (EOF-tolerant).
pub(crate) fn match_bracket(toks: &[Token], open: usize) -> usize {
    let (o, c) = match &toks[open].kind {
        crate::lexer::Tok::Punct("{") => ("{", "}"),
        crate::lexer::Tok::Punct("[") => ("[", "]"),
        crate::lexer::Tok::Punct("(") => ("(", ")"),
        _ => return open,
    };
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Finds a fn body's `{..}` token range starting the scan at `from`
/// (just past the fn name). Skips generics, parameters, return type and
/// where clauses; stops at `;` (trait method without a body).
fn fn_body_range(toks: &[Token], from: usize) -> (Option<usize>, usize) {
    let mut j = from;
    let mut angle = 0i32;
    while j < toks.len() {
        match &toks[j].kind {
            crate::lexer::Tok::Punct("<") => angle += 1,
            crate::lexer::Tok::Punct(">") => angle -= 1,
            // The lexer fuses shift operators; in generics position they
            // are nested closers.
            crate::lexer::Tok::Punct("<<") => angle += 2,
            crate::lexer::Tok::Punct(">>") => angle -= 2,
            crate::lexer::Tok::Punct("->") => {}
            crate::lexer::Tok::Punct("(") | crate::lexer::Tok::Punct("[") => {
                j = match_bracket(toks, j);
            }
            crate::lexer::Tok::Punct("{") if angle <= 0 => {
                let close = match_bracket(toks, j);
                return (Some(j), close + 1);
            }
            crate::lexer::Tok::Punct(";") if angle <= 0 => return (None, j + 1),
            _ => {}
        }
        j += 1;
    }
    (None, toks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub struct MemStats {
    pub reads: u64,
    pub crash_events: Vec<CrashEvent>,
}

pub enum Error {
    NoCheckpoint,
    TableFull { table: &'static str },
    AddressOutOfRange { addr: u64, limit: u64 },
}

impl Thing {
    pub fn recover_step(&mut self) -> u64 {
        self.reads += 1;
        self.reads
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn checks_reads() {
        let t = Thing::new();
        assert_eq!(t.reads, 0);
    }
}
"#;

    #[test]
    fn finds_fns_fields_variants() {
        let idx = FileIndex::parse("crates/x/src/lib.rs", SRC);
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["recover_step", "checks_reads"]);
        assert!(!idx.fns[0].in_test);
        assert!(idx.fns[1].in_test);

        let fields: Vec<(&str, &str)> = idx
            .fields
            .iter()
            .map(|f| (f.owner.as_str(), f.name.as_str()))
            .collect();
        assert_eq!(fields, vec![("MemStats", "reads"), ("MemStats", "crash_events")]);
        assert_eq!(idx.fields[1].ty, "Vec<CrashEvent>");

        let variants: Vec<&str> = idx.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(variants, vec!["NoCheckpoint", "TableFull", "AddressOutOfRange"]);
        // Payload field names must not leak into the variant list.
        assert!(!variants.contains(&"table"));
        assert!(!variants.contains(&"addr"));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let idx = FileIndex::parse("crates/x/src/lib.rs", SRC);
        // Every token of `checks_reads` is masked; `recover_step` is not.
        let prod = idx.fns.iter().find(|f| f.name == "recover_step").expect("indexed");
        let test = idx.fns.iter().find(|f| f.name == "checks_reads").expect("indexed");
        let ps = prod.body_start.expect("has body");
        let ts = test.body_start.expect("has body");
        assert!(!idx.is_test(ps + 1));
        assert!(idx.is_test(ts + 1));
    }

    #[test]
    fn enclosing_fn_resolves() {
        let idx = FileIndex::parse("crates/x/src/lib.rs", SRC);
        let prod = idx.fns.iter().find(|f| f.name == "recover_step").expect("indexed");
        let inside = prod.body_start.expect("has body") + 2;
        assert_eq!(idx.enclosing_fn(inside).map(|f| f.name.as_str()), Some("recover_step"));
    }

    #[test]
    fn comment_annotations_are_visible() {
        let src = "// lint: recovery-path\nfn replay() {}\n";
        let idx = FileIndex::parse("a.rs", src);
        assert!(idx.comment_above(2, 5, "lint: recovery-path"));
        assert!(!idx.comment_above(1, 5, "lint: recovery-path"));
    }

    #[test]
    fn test_attr_fn_outside_mod_is_masked() {
        let src = "#[test]\nfn standalone() { x.unwrap(); }\nfn prod() { y(); }\n";
        let idx = FileIndex::parse("a.rs", src);
        let st = idx.fns.iter().find(|f| f.name == "standalone").expect("indexed");
        let pr = idx.fns.iter().find(|f| f.name == "prod").expect("indexed");
        assert!(st.in_test);
        assert!(!pr.in_test);
        assert!(idx.is_test(st.body_start.expect("body") + 1));
        assert!(!idx.is_test(pr.body_start.expect("body") + 1));
    }

    #[test]
    fn tuple_structs_have_no_named_fields() {
        let idx = FileIndex::parse("a.rs", "struct Wrapper(u64);\nstruct Unit;\n");
        assert!(idx.fields.is_empty());
    }

    #[test]
    fn generic_fn_body_found_despite_angle_brackets() {
        let src = "fn take<T: Into<Vec<u8>>>(x: T) -> Vec<u8> where T: Clone { x.into() }";
        let idx = FileIndex::parse("a.rs", src);
        assert_eq!(idx.fns.len(), 1);
        assert!(idx.fns[0].body_start.is_some());
    }
}
