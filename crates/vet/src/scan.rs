//! A hand-rolled Rust token scanner.
//!
//! `vh-vet` needs just enough lexical structure to tell code from
//! comments and string literals, attach a line number to every token, and
//! recognise `#[cfg(test)]` regions — nothing a full parser provides is
//! required, and the workspace's no-external-deps rule forbids `syn`.
//! The scanner handles the Rust surface the workspace actually uses:
//! line and (nested) block comments, cooked/raw/byte string literals,
//! char literals vs. lifetimes, identifiers, integer/float literals and
//! single-character punctuation. Everything it does not model (shebangs,
//! frontmatter, exotic suffixes) degrades to `Punct`/`Num` tokens, which
//! the lints ignore.

/// What a token is. String and comment *contents* are preserved because
/// several lints match on them (`SAFETY:` comments, span-name literals).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`unsafe`, `fn`, `unwrap`, …).
    Ident(String),
    /// A string literal's contents, escapes left as written.
    Str(String),
    /// A comment's text with the `//`/`/*` markers stripped and the
    /// remainder trimmed. `doc` is true for `///`, `//!`, `/**`, `/*!`.
    Comment {
        /// Comment text without markers, trimmed.
        text: String,
        /// Whether this is a doc comment.
        doc: bool,
    },
    /// A numeric literal, verbatim (`42`, `0x7f`, `1_000`).
    Num(String),
    /// One character of punctuation (`.`, `!`, `(`, `{`, …).
    Punct(char),
    /// A char literal or lifetime — carried for completeness, unused by
    /// the lints.
    Other,
}

/// One token with the 1-based source line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// 1-based line of the token's first character.
    pub line: u32,
    /// The token itself.
    pub kind: Tok,
}

/// Scans `src` into a token stream. The scanner never fails: malformed
/// input (an unterminated string, say) yields a best-effort tail token,
/// which is the right behaviour for a linter that must keep going.
pub fn scan(src: &str) -> Vec<Token> {
    Scanner {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Scanner<'_> {
    fn run(mut self) -> Vec<Token> {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.raw_or_byte_string() => {}
                b'"' => self.cooked_string(),
                b'\'' => self.char_or_lifetime(),
                b if b == b'_' || b.is_ascii_alphabetic() => self.ident(),
                b if b.is_ascii_digit() => self.number(),
                _ => {
                    // Multi-byte UTF-8 only occurs inside strings/comments
                    // in this workspace; a stray lead byte is punctuation
                    // noise the lints never look at.
                    self.push(Tok::Punct(char::from(b)));
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: Tok) {
        self.out.push(Token {
            line: self.line,
            kind,
        });
    }

    fn line_comment(&mut self) {
        let start = self.pos + 2;
        let mut end = start;
        while end < self.bytes.len() && self.bytes[end] != b'\n' {
            end += 1;
        }
        let raw = String::from_utf8_lossy(&self.bytes[start..end]);
        let doc = raw.starts_with('/') || raw.starts_with('!');
        let text = raw.trim_start_matches(['/', '!']).trim().to_string();
        self.push(Tok::Comment { text, doc });
        self.pos = end;
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.pos + 2;
        let mut depth = 1usize;
        let mut i = start;
        while i < self.bytes.len() && depth > 0 {
            if self.bytes[i] == b'\n' {
                self.line += 1;
                i += 1;
            } else if self.bytes[i] == b'/' && self.bytes.get(i + 1) == Some(&b'*') {
                depth += 1;
                i += 2;
            } else if self.bytes[i] == b'*' && self.bytes.get(i + 1) == Some(&b'/') {
                depth -= 1;
                i += 2;
            } else {
                i += 1;
            }
        }
        let end = i.saturating_sub(2).max(start);
        let raw = String::from_utf8_lossy(&self.bytes[start..end]);
        let doc = raw.starts_with('*') || raw.starts_with('!');
        let text = raw
            .trim_start_matches(['*', '!'])
            .trim()
            .replace("\n", " ")
            .to_string();
        self.out.push(Token {
            line,
            kind: Tok::Comment { text, doc },
        });
        self.pos = i;
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##` and `b'x'`.
    /// Returns false when the leading `r`/`b` begins a plain identifier,
    /// leaving the position untouched.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut i = self.pos + 1;
        if self.bytes[self.pos] == b'b' {
            if self.peek(1) == Some(b'\'') {
                // Byte char literal b'x' / b'\n'.
                self.pos += 1; // consume `b`, then reuse the char scanner
                self.char_literal();
                return true;
            }
            if self.peek(1) == Some(b'r') {
                i += 1;
            } else if self.peek(1) != Some(b'"') {
                return false;
            }
        }
        let mut hashes = 0usize;
        while self.bytes.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
        if self.bytes.get(i) != Some(&b'"') {
            return false;
        }
        if hashes == 0 && self.bytes[self.pos] != b'r' && self.peek(1) == Some(b'"') {
            // b"…" — cooked with escapes.
            self.pos += 1;
            self.cooked_string();
            return true;
        }
        // Raw: scan to `"` followed by `hashes` hashes, no escapes.
        let content_start = i + 1;
        let line = self.line;
        let mut j = content_start;
        while j < self.bytes.len() {
            if self.bytes[j] == b'\n' {
                self.line += 1;
                j += 1;
                continue;
            }
            if self.bytes[j] == b'"'
                && self.bytes[j + 1..]
                    .iter()
                    .take(hashes)
                    .eq(std::iter::repeat_n(&b'#', hashes))
            {
                break;
            }
            j += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[content_start..j.min(self.bytes.len())]);
        self.out.push(Token {
            line,
            kind: Tok::Str(text.into_owned()),
        });
        self.pos = (j + 1 + hashes).min(self.bytes.len());
        true
    }

    /// Cooked string; the scanner is positioned at the opening quote.
    fn cooked_string(&mut self) {
        let line = self.line;
        let start = self.pos + 1;
        let mut i = start;
        while i < self.bytes.len() {
            match self.bytes[i] {
                b'\\' => i += 2,
                b'"' => break,
                b'\n' => {
                    self.line += 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..i.min(self.bytes.len())]);
        self.out.push(Token {
            line,
            kind: Tok::Str(text.into_owned()),
        });
        self.pos = (i + 1).min(self.bytes.len());
    }

    fn char_or_lifetime(&mut self) {
        // A lifetime is `'` + ident not followed by a closing `'`.
        let is_lifetime = match self.peek(1) {
            Some(c) if c == b'_' || c.is_ascii_alphabetic() => {
                // 'a' is a char literal; 'a is a lifetime; 'static too.
                let mut j = self.pos + 2;
                while self
                    .bytes
                    .get(j)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    j += 1;
                }
                self.bytes.get(j) != Some(&b'\'')
            }
            _ => false,
        };
        if is_lifetime {
            self.push(Tok::Other);
            self.pos += 2;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
            {
                self.pos += 1;
            }
        } else {
            self.char_literal();
        }
    }

    fn char_literal(&mut self) {
        // At the opening `'`; consume through the closing `'`.
        let mut i = self.pos + 1;
        while i < self.bytes.len() {
            match self.bytes[i] {
                b'\\' => i += 2,
                b'\'' => {
                    i += 1;
                    break;
                }
                b'\n' => break, // malformed; don't run away
                _ => i += 1,
            }
        }
        self.push(Tok::Other);
        self.pos = i;
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
        {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(Tok::Ident(text));
    }

    fn number(&mut self) {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
        {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push(Tok::Num(text));
    }
}

/// Marks the token ranges covered by `#[cfg(test)]` (or any `cfg(...)`
/// attribute mentioning `test`) so lints can skip test-only code. Returns
/// one flag per token: `true` means the token is inside a test region.
///
/// The recognition is brace-based: after a test-cfg attribute, the next
/// `{` opens the suppressed region, which ends at its matching `}`. This
/// covers `#[cfg(test)] mod tests { … }` and cfg-gated functions, the two
/// shapes the workspace uses.
pub fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut suppressed = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if is_test_cfg_attr(tokens, i) {
            // Find the `{` that opens the gated item, then its match. A
            // brace-less gated item (`#[cfg(test)] use …;`) ends at the
            // first `;` instead.
            let mut j = i;
            while j < tokens.len()
                && tokens[j].kind != Tok::Punct('{')
                && tokens[j].kind != Tok::Punct(';')
            {
                j += 1;
            }
            if tokens.get(j).map(|t| &t.kind) == Some(&Tok::Punct(';')) {
                for flag in suppressed.iter_mut().take(j + 1).skip(i) {
                    *flag = true;
                }
                i = j + 1;
                continue;
            }
            let mut depth = 0usize;
            let mut k = j;
            while k < tokens.len() {
                match tokens[k].kind {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            for flag in suppressed
                .iter_mut()
                .take(k.min(tokens.len() - 1) + 1)
                .skip(i)
            {
                *flag = true;
            }
            i = k + 1;
        } else {
            i += 1;
        }
    }
    suppressed
}

/// Does the token at `i` start a `#[cfg(…test…)]` or `#[test]` attribute?
fn is_test_cfg_attr(tokens: &[Token], i: usize) -> bool {
    if tokens[i].kind != Tok::Punct('#') {
        return false;
    }
    let Some(t1) = tokens.get(i + 1) else {
        return false;
    };
    if t1.kind != Tok::Punct('[') {
        return false;
    }
    // `#[test]`
    if let (Some(t2), Some(t3)) = (tokens.get(i + 2), tokens.get(i + 3)) {
        if t2.kind == Tok::Ident("test".into()) && t3.kind == Tok::Punct(']') {
            return true;
        }
        // `#[cfg(...)]` with `test` anywhere inside the balanced brackets.
        if t2.kind == Tok::Ident("cfg".into()) && t3.kind == Tok::Punct('(') {
            let mut depth = 0usize;
            let mut saw_test = false;
            for t in &tokens[i + 3..] {
                match &t.kind {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Ident(s) if s == "test" => saw_test = true,
                    _ => {}
                }
            }
            return saw_test;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_idents() {
        let src = r#"
            let a = "panic!(unwrap)"; // unwrap in a comment
            /* block panic! */
            let b = 'x';
            let c = b"bytes";
        "#;
        let ids = idents(src);
        assert!(ids.contains(&"let".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_strings_are_opaque() {
        let src = r##"let s = r#"a "quoted" unwrap()"#; s.len()"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"len".to_string()));
    }

    #[test]
    fn comment_markers_inside_raw_strings_do_not_open_comments() {
        let src = r###"let p = r#"// not a comment /* nor this"#; q.unwrap()"###;
        let toks = scan(src);
        assert!(
            !toks.iter().any(|t| matches!(t.kind, Tok::Comment { .. })),
            "raw string contents must stay opaque: {toks:?}"
        );
        // The code *after* the raw string is still scanned normally.
        assert!(idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let src = "/* outer /* inner unwrap() */ still comment */ fn after() {}";
        let toks = scan(src);
        let comments = toks
            .iter()
            .filter(|t| matches!(t.kind, Tok::Comment { .. }))
            .count();
        assert_eq!(comments, 1, "one nested comment, not two: {toks:?}");
        let ids = idents(src);
        assert!(ids.contains(&"after".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"still".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        assert_eq!(ids.iter().filter(|s| *s == "f").count(), 1);
    }

    #[test]
    fn comment_text_and_doc_flag_are_preserved() {
        let toks = scan("/// SAFETY: fine\n// vet: allow(hot-path) — ok\nlet x = 1;");
        let comments: Vec<(String, bool)> = toks
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Comment { text, doc } => Some((text, doc)),
                _ => None,
            })
            .collect();
        assert_eq!(comments[0], ("SAFETY: fine".to_string(), true));
        assert_eq!(
            comments[1],
            ("vet: allow(hot-path) — ok".to_string(), false)
        );
    }

    #[test]
    fn line_numbers_track_newlines_in_all_token_kinds() {
        let src = "let a = \"multi\nline\";\nlet b = 2; /* c\nd */ let e = 3;";
        let toks = scan(src);
        let line_of = |name: &str| {
            toks.iter()
                .find(|t| t.kind == Tok::Ident(name.into()))
                .map(|t| t.line)
        };
        assert_eq!(line_of("a"), Some(1));
        assert_eq!(line_of("b"), Some(3));
        assert_eq!(line_of("e"), Some(4));
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn gone() {}\n}\nfn live2() {}";
        let toks = scan(src);
        let sup = test_regions(&toks);
        let flag_of = |name: &str| {
            toks.iter()
                .position(|t| t.kind == Tok::Ident(name.into()))
                .map(|i| sup[i])
        };
        assert_eq!(flag_of("live"), Some(false));
        assert_eq!(flag_of("gone"), Some(true));
        assert_eq!(flag_of("live2"), Some(false));
    }

    #[test]
    fn cfg_any_with_test_is_suppressed() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod t { fn gone() {} }\nfn live() {}";
        let toks = scan(src);
        let sup = test_regions(&toks);
        let gone = toks
            .iter()
            .position(|t| t.kind == Tok::Ident("gone".into()))
            .map(|i| sup[i]);
        let live = toks
            .iter()
            .position(|t| t.kind == Tok::Ident("live".into()))
            .map(|i| sup[i]);
        assert_eq!(gone, Some(true));
        assert_eq!(live, Some(false));
    }
}
