//! A hand-rolled Rust lexer: the token stream the rule engine walks.
//!
//! Deliberately *not* a parser — the rules in [`crate::rules`] are
//! token-pattern matchers, which is exactly the level of analysis the
//! determinism lints need (clippy owns the type-aware layer; see
//! `clippy.toml`). The lexer therefore only has to get the *lexical*
//! structure of Rust right, and that part it gets fully right:
//!
//! * line comments, nested block comments (`/* /* */ */`), doc comments;
//! * string literals with escapes, raw strings with any `#` depth
//!   (`r"…"`, `r#"…"#`, `br##"…"##`), byte strings, C strings;
//! * char literals vs. lifetimes (`'a'` vs `'a`);
//! * numbers with underscores, type suffixes, and float exponents;
//! * identifiers (including raw `r#ident`) and one-character punctuation.
//!
//! Every token carries its 1-based line number so diagnostics point at
//! real source lines, and comments are kept as tokens so the suppression
//! scanner ([`crate::source`]) can read `lint:allow(...)` markers.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `fn`, `r#type`).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.5`, `2e9`, `1_f64`).
    Float,
    /// String-ish literal (`"…"`, `r#"…"#`, `b"…"`, `'c'`).
    Literal,
    /// `// …` or `//! …` or `/// …` up to end of line.
    LineComment,
    /// `/* … */`, nested arbitrarily.
    BlockComment,
    /// A single punctuation character (`.`, `:`, `(`, …).
    Punct,
}

/// One token: kind, the source text, and the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The exact source slice.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True for a punctuation token with exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.starts_with(c)
    }

    /// True for comments (skipped by rule matchers).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Lexes `src` into tokens. Unterminated literals/comments are tolerated
/// (the remainder becomes one token): the linter must never panic on the
/// code it audits.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    /// Advances one byte, tracking newlines.
    fn bump(&mut self) {
        if self.bytes.get(self.pos) == Some(&b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    /// Advances until after the first occurrence of `needle` (or EOF).
    fn skip_past(&mut self, needle: u8) {
        while let Some(b) = self.peek() {
            self.bump();
            if b == needle {
                return;
            }
        }
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        self.out.push(Token {
            kind,
            text: self.src[start..self.pos].to_string(),
            line,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek() {
            let start = self.pos;
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek_at(1) == Some(b'/') => {
                    self.skip_past(b'\n');
                    // Strip the trailing newline from the comment text.
                    let end = self.src[start..self.pos].trim_end_matches('\n');
                    self.out.push(Token {
                        kind: TokenKind::LineComment,
                        text: end.to_string(),
                        line,
                    });
                }
                b'/' if self.peek_at(1) == Some(b'*') => {
                    self.block_comment();
                    self.push(TokenKind::BlockComment, start, line);
                }
                b'r' | b'b' | b'c' if self.raw_string_ahead() => {
                    self.raw_string();
                    self.push(TokenKind::Literal, start, line);
                }
                b'b' if self.peek_at(1) == Some(b'\'') => {
                    self.bump(); // b
                    self.char_literal();
                    self.push(TokenKind::Literal, start, line);
                }
                b'b' | b'c' if self.peek_at(1) == Some(b'"') => {
                    self.bump(); // b / c
                    self.string_literal();
                    self.push(TokenKind::Literal, start, line);
                }
                b'"' => {
                    self.string_literal();
                    self.push(TokenKind::Literal, start, line);
                }
                b'\'' => {
                    if self.lifetime_ahead() {
                        self.bump(); // '
                        self.ident_tail();
                        self.push(TokenKind::Lifetime, start, line);
                    } else {
                        self.char_literal();
                        self.push(TokenKind::Literal, start, line);
                    }
                }
                b'0'..=b'9' => {
                    let kind = self.number();
                    self.push(kind, start, line);
                }
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                    // Raw identifier r#foo: the `r` case above only fires
                    // for raw *strings* (r" / r#"), so r#ident lands here
                    // only via the plain-ident path… handle it explicitly.
                    if (b == b'r' || b == b'b') && self.peek_at(1) == Some(b'#') {
                        let after = self.peek_at(2);
                        if matches!(after, Some(b'_' | b'a'..=b'z' | b'A'..=b'Z')) {
                            self.bump(); // r
                            self.bump(); // #
                        }
                    }
                    self.ident_tail();
                    self.push(TokenKind::Ident, start, line);
                }
                _ if b < 0x80 => {
                    self.bump();
                    self.push(TokenKind::Punct, start, line);
                }
                _ => {
                    // Multi-byte UTF-8 scalar (only legal in idents by now,
                    // but keep the lexer total): consume the whole scalar.
                    let ch_len = self.src[self.pos..]
                        .chars()
                        .next()
                        .map(char::len_utf8)
                        .unwrap_or(1);
                    for _ in 0..ch_len {
                        self.bump();
                    }
                    self.push(TokenKind::Punct, start, line);
                }
            }
        }
        self.out
    }

    /// At `/*`: consumes the comment, honouring nesting.
    fn block_comment(&mut self) {
        self.bump(); // /
        self.bump(); // *
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => return, // unterminated: tolerate
            }
        }
    }

    /// True if the cursor sits on a raw-string introducer: `r"`, `r#…#"`,
    /// `br"`, `br#`, `cr"`, `cr#`.
    fn raw_string_ahead(&self) -> bool {
        let mut i = 0;
        if matches!(self.peek(), Some(b'b' | b'c')) && self.peek_at(1) == Some(b'r') {
            i = 2;
        } else if self.peek() == Some(b'r') {
            i = 1;
        }
        if i == 0 {
            return false;
        }
        let mut j = i;
        while self.peek_at(j) == Some(b'#') {
            j += 1;
        }
        // `r#ident` has no quote after the hashes — not a string.
        self.peek_at(j) == Some(b'"') && (j > i || self.peek_at(i) == Some(b'"'))
    }

    /// Consumes `r##"…"##` with any hash depth (escapes are inert).
    fn raw_string(&mut self) {
        while matches!(self.peek(), Some(b'b' | b'c' | b'r')) {
            self.bump();
        }
        let mut hashes = 0usize;
        while self.peek() == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        loop {
            match self.peek() {
                None => return, // unterminated: tolerate
                Some(b'"') => {
                    self.bump();
                    let mut seen = 0usize;
                    while seen < hashes && self.peek() == Some(b'#') {
                        seen += 1;
                        self.bump();
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => self.bump(),
            }
        }
    }

    /// Consumes `"…"` honouring `\"` and `\\` escapes.
    fn string_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(b) = self.peek() {
            match b {
                b'\\' => {
                    self.bump();
                    if self.peek().is_some() {
                        self.bump();
                    }
                }
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// After a `'`: lifetime iff an ident char follows and the char after
    /// *that* is not a closing quote (`'a'` is a char literal, `'a` a
    /// lifetime; `'\n'` is always a char literal).
    fn lifetime_ahead(&self) -> bool {
        match self.peek_at(1) {
            Some(b'_' | b'a'..=b'z' | b'A'..=b'Z') => self.peek_at(2) != Some(b'\''),
            _ => false,
        }
    }

    /// Consumes `'x'`, `'\n'`, `'\u{1F600}'`.
    fn char_literal(&mut self) {
        self.bump(); // opening quote
        match self.peek() {
            Some(b'\\') => {
                self.bump();
                if self.peek().is_some() {
                    self.bump();
                }
                // \u{…}: run to the closing brace.
                if self.bytes.get(self.pos.wrapping_sub(1)) == Some(&b'u')
                    && self.peek() == Some(b'{')
                {
                    self.skip_past(b'}');
                }
            }
            Some(_) => {
                // One UTF-8 scalar.
                let ch_len = self.src[self.pos..]
                    .chars()
                    .next()
                    .map(char::len_utf8)
                    .unwrap_or(1);
                for _ in 0..ch_len {
                    self.bump();
                }
            }
            None => return,
        }
        if self.peek() == Some(b'\'') {
            self.bump();
        }
    }

    fn ident_tail(&mut self) {
        while matches!(
            self.peek(),
            Some(b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9')
        ) {
            self.bump();
        }
    }

    /// Consumes a numeric literal; returns `Int` or `Float`.
    fn number(&mut self) -> TokenKind {
        let mut float = false;
        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'x' | b'o' | b'b')) {
            self.bump();
            self.bump();
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F' | b'_')
            ) {
                self.bump();
            }
        } else {
            while matches!(self.peek(), Some(b'0'..=b'9' | b'_')) {
                self.bump();
            }
            // Fractional part — but not `1..2` (range) or `1.method()`.
            if self.peek() == Some(b'.') && matches!(self.peek_at(1), Some(b'0'..=b'9')) {
                float = true;
                self.bump();
                while matches!(self.peek(), Some(b'0'..=b'9' | b'_')) {
                    self.bump();
                }
            }
            // Exponent.
            if matches!(self.peek(), Some(b'e' | b'E')) {
                let sign = usize::from(matches!(self.peek_at(1), Some(b'+' | b'-')));
                if matches!(self.peek_at(1 + sign), Some(b'0'..=b'9')) {
                    float = true;
                    self.bump();
                    if sign == 1 {
                        self.bump();
                    }
                    while matches!(self.peek(), Some(b'0'..=b'9' | b'_')) {
                        self.bump();
                    }
                }
            }
        }
        // Type suffix (`u64`, `f64`, `usize`).
        let suffix_start = self.pos;
        while matches!(
            self.peek(),
            Some(b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9')
        ) {
            self.bump();
        }
        let suffix = &self.src[suffix_start..self.pos];
        if suffix.starts_with('f') {
            float = true;
        }
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ts = kinds("let x = a.b();");
        let texts: Vec<&str> = ts.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "a", ".", "b", "(", ")", ";"]);
        assert_eq!(ts[0].0, TokenKind::Ident);
        assert_eq!(ts[2].0, TokenKind::Punct);
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        // A raw string containing what would otherwise be real tokens.
        let ts = kinds(r####"let s = r#"partial_cmp().unwrap() " quote"#; x"####);
        assert_eq!(
            ts[3],
            (
                TokenKind::Literal,
                r###"r#"partial_cmp().unwrap() " quote"#"###.to_string()
            )
        );
        assert!(ts.iter().any(|(k, s)| *k == TokenKind::Ident && s == "x"));
        // No identifier token leaked out of the literal.
        assert!(!ts
            .iter()
            .any(|(k, s)| *k == TokenKind::Ident && s == "partial_cmp"));
    }

    #[test]
    fn raw_strings_with_deep_hashes_and_byte_prefix() {
        let src = r####"br##"a "# b"## ident"####;
        let ts = kinds(src);
        assert_eq!(ts[0].0, TokenKind::Literal);
        assert_eq!(ts[0].1, r###"br##"a "# b"##"###);
        assert_eq!(ts[1], (TokenKind::Ident, "ident".to_string()));
    }

    #[test]
    fn nested_block_comments() {
        let ts = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[1].0, TokenKind::BlockComment);
        assert!(ts[1].1.contains("inner"));
        assert_eq!(ts[2], (TokenKind::Ident, "b".to_string()));
    }

    #[test]
    fn line_comments_keep_text_and_lines() {
        let ts = lex("x\n// lint:allow(D001): reason\ny");
        assert_eq!(ts[1].kind, TokenKind::LineComment);
        assert_eq!(ts[1].text, "// lint:allow(D001): reason");
        assert_eq!(ts[1].line, 2);
        assert_eq!(ts[2].line, 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ts = kinds("&'a str; 'x'; '\\n'; b'z'");
        assert_eq!(ts[1], (TokenKind::Lifetime, "'a".to_string()));
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokenKind::Literal && s == "'x'"));
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokenKind::Literal && s == "'\\n'"));
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokenKind::Literal && s == "b'z'"));
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let ts = kinds("1 1.5 2e9 0xFF 1_000u64 1f64 1..2");
        assert_eq!(ts[0].0, TokenKind::Int);
        assert_eq!(ts[1].0, TokenKind::Float);
        assert_eq!(ts[2].0, TokenKind::Float);
        assert_eq!(ts[3].0, TokenKind::Int);
        assert_eq!(ts[4].0, TokenKind::Int);
        assert_eq!(ts[5].0, TokenKind::Float);
        // `1..2` lexes as Int, two dots, Int — not a malformed float.
        assert_eq!(ts[6].0, TokenKind::Int);
        assert_eq!(ts[7].0, TokenKind::Punct);
        assert_eq!(ts[8].0, TokenKind::Punct);
        assert_eq!(ts[9].0, TokenKind::Int);
    }

    #[test]
    fn strings_with_escapes() {
        let ts = kinds(r#"let s = "a \" b \\"; t"#);
        assert_eq!(ts[3].0, TokenKind::Literal);
        assert_eq!(ts[3].1, r#""a \" b \\""#);
        assert_eq!(ts[5], (TokenKind::Ident, "t".to_string()));
    }

    #[test]
    fn raw_identifiers() {
        let ts = kinds("r#type r#match plain");
        assert_eq!(ts[0], (TokenKind::Ident, "r#type".to_string()));
        assert_eq!(ts[1], (TokenKind::Ident, "r#match".to_string()));
        assert_eq!(ts[2], (TokenKind::Ident, "plain".to_string()));
    }

    #[test]
    fn shift_operators_are_single_char_puncts() {
        // Rules match punctuation one character at a time (`::` is two
        // `:` tokens, `HashMap <` opens a generic list), so `>>` closing
        // two generic lists (or a shift) must never lex as one token.
        for src in [
            "Vec<Vec<u32>>",
            "a >> b",
            "a << b",
            "HashMap<u32, Vec<Vec<u8>>>",
        ] {
            let ts = kinds(src);
            assert!(
                ts.iter()
                    .filter(|(k, _)| *k == TokenKind::Punct)
                    .all(|(_, s)| s.len() == 1),
                "{src:?} must lex punctuation one char at a time: {ts:?}"
            );
        }
    }

    #[test]
    fn raw_strings_spanning_lines_keep_line_numbers() {
        let ts = lex("a\nr#\"x\ny \" z\"# b");
        let b = ts.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3, "tokens after a multiline raw string");
        let lit = ts.iter().find(|t| t.kind == TokenKind::Literal).unwrap();
        assert_eq!(lit.line, 2, "the literal starts on its opening line");
    }

    #[test]
    fn raw_string_hash_runs_shorter_than_the_delimiter_stay_inside() {
        // `"#` and `"` inside an `##`-delimited raw string are content;
        // only `"##` closes. The lexer must resume counting from scratch
        // after each shorter run.
        let src = r####"r##"a "# b " c "## after"####;
        let ts = kinds(src);
        assert_eq!(ts[0].0, TokenKind::Literal);
        assert_eq!(ts[0].1, r####"r##"a "# b " c "##"####);
        assert_eq!(ts[1], (TokenKind::Ident, "after".to_string()));
    }

    #[test]
    fn unterminated_input_is_total() {
        // Never panic, whatever the input.
        lex("/* unterminated");
        lex("\"unterminated");
        lex("r#\"unterminated");
        lex("'");
        lex("b'");
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb \"x\ny\" c";
        let ts = lex(src);
        let b = ts.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
        let c = ts.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!(c.line, 5);
    }
}
