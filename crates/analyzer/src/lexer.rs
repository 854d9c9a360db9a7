//! A small, line/column-tracking Rust lexer.
//!
//! This is not a full grammar — it is exactly the token model the project
//! lints need, with the failure modes that break naive `grep`-style linting
//! handled correctly:
//!
//! * **block comments nest** (`/* outer /* inner */ still comment */`),
//! * **raw strings** carry arbitrary hash fences (`r#"..."#`, `br##"..."##`)
//!   and can contain `"` and `//` without ending the literal,
//! * **char literals vs lifetimes** are disambiguated (`'a'` is a char,
//!   `'a` in `&'a str` is a lifetime, `'"'` is a char containing a quote),
//! * **byte strings / byte chars** (`b"..."`, `b'x'`) and escape sequences
//!   (`'\''`, `"\""`) are handled,
//! * every token records its **1-based line and column**, so diagnostics
//!   point at real source locations.
//!
//! Comments are *kept* as tokens: the lint engine needs them for
//! `// diffreg-allow(...)` suppressions and `// SAFETY:` audits. Use
//! [`Token::is_code`] to filter them out when scanning program structure.

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (the lexer does not separate keywords).
    Ident,
    /// A lifetime such as `'a` or `'static` (including the quote).
    Lifetime,
    /// Numeric literal (integer or float, any base, with suffix).
    Number,
    /// String literal `"..."` (escapes resolved lexically, not decoded).
    Str,
    /// Raw string literal `r"..."` / `r#"..."#` (any fence depth).
    RawStr,
    /// Byte-string literal `b"..."` or raw byte string `br#"..."#`.
    ByteStr,
    /// Char literal `'x'` (including escapes such as `'\''`).
    Char,
    /// Byte-char literal `b'x'`.
    ByteChar,
    /// Punctuation / operator. Multi-character operators that matter to the
    /// lints (`==`, `!=`, `<=`, `>=`, `=>`, `->`, `::`, `&&`, `||`, `..`,
    /// compound assignments) are joined into one token.
    Punct,
    /// `// ...` line comment (doc comments included), text without newline.
    LineComment,
    /// `/* ... */` block comment (doc comments included), nesting handled.
    BlockComment,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The raw source text of the token.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// 1-based column (in characters) of the token's first character.
    pub col: usize,
}

impl Token {
    /// True for tokens that are program code (everything but comments).
    pub fn is_code(&self) -> bool {
        !matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// True if this token is the identifier/keyword `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// Multi-character operators joined into single [`TokenKind::Punct`] tokens,
/// longest first so maximal munch works.
const JOINED_PUNCT: &[&str] = &[
    "..=", "<<=", ">>=", "==", "!=", "<=", ">=", "=>", "->", "::", "&&", "||", "..", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lexes `src` into a token stream. Never fails: unterminated literals are
/// closed at end of file (the lint pass runs on code that already compiles,
/// so this only matters for fixtures).
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { chars: src.chars().collect(), src, pos: 0, line: 1, col: 1, out: Vec::new() }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize, col: usize) {
        self.out.push(Token { kind, text, line, col });
    }

    fn run(mut self) -> Vec<Token> {
        let _ = self.src;
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line, col),
                '/' if self.peek(1) == Some('*') => self.block_comment(line, col),
                '"' => self.string(line, col, TokenKind::Str, String::new()),
                'r' if matches!(self.peek(1), Some('"' | '#')) && self.is_raw_start(1) => {
                    self.raw_string(line, col, TokenKind::RawStr)
                }
                'b' if self.peek(1) == Some('"') => {
                    let mut text = String::new();
                    text.push(self.bump().unwrap_or('b'));
                    self.string(line, col, TokenKind::ByteStr, text);
                }
                'b' if self.peek(1) == Some('\'') => {
                    let mut text = String::new();
                    text.push(self.bump().unwrap_or('b'));
                    self.char_lit(line, col, TokenKind::ByteChar, text);
                }
                'b' if self.peek(1) == Some('r') && self.is_raw_start(2) => {
                    self.raw_string(line, col, TokenKind::ByteStr)
                }
                '\'' => self.quote(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                c if c == '_' || c.is_alphabetic() => self.ident(line, col),
                _ => self.punct(line, col),
            }
        }
        self.out
    }

    /// Is the text at offset `from` (relative to `pos`, pointing after the
    /// `r` / `br` prefix) a raw-string fence: zero or more `#` then `"` ?
    fn is_raw_start(&self, from: usize) -> bool {
        let mut i = from;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn line_comment(&mut self, line: usize, col: usize) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::LineComment, text, line, col);
    }

    fn block_comment(&mut self, line: usize, col: usize) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push('/');
                text.push('*');
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push('*');
                text.push('/');
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::BlockComment, text, line, col);
    }

    /// Lexes a `"..."` string whose opening quote is at the cursor. `text`
    /// may already hold a consumed prefix (`b`).
    fn string(&mut self, line: usize, col: usize, kind: TokenKind, mut text: String) {
        text.push(self.bump().unwrap_or('"')); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(e) = self.bump() {
                    text.push(e);
                }
                continue;
            }
            text.push(c);
            self.bump();
            if c == '"' {
                break;
            }
        }
        self.push(kind, text, line, col);
    }

    /// Lexes `r#"..."#` / `br##"..."##`: cursor on the `r` or `b`.
    fn raw_string(&mut self, line: usize, col: usize, kind: TokenKind) {
        let mut text = String::new();
        // Consume prefix letters (r or br).
        while matches!(self.peek(0), Some('r' | 'b')) {
            text.push(self.bump().unwrap_or('r'));
        }
        let mut fence = 0usize;
        while self.peek(0) == Some('#') {
            fence += 1;
            text.push('#');
            self.bump();
        }
        if self.peek(0) == Some('"') {
            text.push('"');
            self.bump();
        }
        // Scan to `"` followed by `fence` hashes.
        'outer: while let Some(c) = self.peek(0) {
            if c == '"' {
                for i in 0..fence {
                    if self.peek(1 + i) != Some('#') {
                        text.push('"');
                        self.bump();
                        continue 'outer;
                    }
                }
                text.push('"');
                self.bump();
                for _ in 0..fence {
                    text.push('#');
                    self.bump();
                }
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(kind, text, line, col);
    }

    /// Lexes a char literal whose opening `'` is at the cursor. `text` may
    /// already hold a consumed `b` prefix.
    fn char_lit(&mut self, line: usize, col: usize, kind: TokenKind, mut text: String) {
        text.push(self.bump().unwrap_or('\'')); // opening quote
        if self.peek(0) == Some('\\') {
            text.push('\\');
            self.bump();
            if let Some(e) = self.bump() {
                text.push(e);
            }
            // Multi-char escapes (\x41, \u{...}) — consume to closing quote.
            while let Some(c) = self.peek(0) {
                if c == '\'' {
                    break;
                }
                text.push(c);
                self.bump();
            }
        } else if let Some(c) = self.bump() {
            text.push(c);
        }
        if self.peek(0) == Some('\'') {
            text.push('\'');
            self.bump();
        }
        self.push(kind, text, line, col);
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime). A quote starts a
    /// lifetime when it is followed by an identifier character that is *not*
    /// closed by another quote right after one character — i.e. `'a'` is a
    /// char, `'ab...` or `'a,` is a lifetime. `'\...` is always a char.
    fn quote(&mut self, line: usize, col: usize) {
        let next = self.peek(1);
        let is_lifetime = match next {
            Some(c) if c == '_' || c.is_alphabetic() => self.peek(2) != Some('\''),
            _ => false,
        };
        if is_lifetime {
            let mut text = String::new();
            text.push(self.bump().unwrap_or('\'')); // the quote
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, line, col);
        } else {
            self.char_lit(line, col, TokenKind::Char, String::new());
        }
    }

    fn number(&mut self, line: usize, col: usize) {
        let mut text = String::new();
        // Integer / prefix part (0x, 0b, 0o handled by the same char class).
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Fractional part: a '.' followed by a digit (not `..` or a method).
        if self.peek(0) == Some('.') {
            if let Some(d) = self.peek(1) {
                if d.is_ascii_digit() {
                    text.push('.');
                    self.bump();
                    while let Some(c) = self.peek(0) {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        // Exponent sign (1e-3): the alnum scan above eats `e`, grab `-3`.
        if (text.ends_with('e') || text.ends_with('E'))
            && matches!(self.peek(0), Some('+' | '-'))
            && self.peek(1).map(|c| c.is_ascii_digit()).unwrap_or(false)
        {
            text.push(self.bump().unwrap_or('-'));
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.push(TokenKind::Number, text, line, col);
    }

    fn ident(&mut self, line: usize, col: usize) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line, col);
    }

    fn punct(&mut self, line: usize, col: usize) {
        for op in JOINED_PUNCT {
            if op.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c)) {
                for _ in 0..op.len() {
                    self.bump();
                }
                self.push(TokenKind::Punct, (*op).to_string(), line, col);
                return;
            }
        }
        let c = self.bump().unwrap_or(' ');
        self.push(TokenKind::Punct, c.to_string(), line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* x /* y */ z */ b");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0], (TokenKind::Ident, "a".into()));
        assert_eq!(toks[1].0, TokenKind::BlockComment);
        assert_eq!(toks[1].1, "/* x /* y */ z */");
        assert_eq!(toks[2], (TokenKind::Ident, "b".into()));
    }

    #[test]
    fn raw_strings_hide_quotes_and_comments() {
        let toks = kinds(r####"let s = r#"not // a "comment" */"#;"####);
        let raw = toks.iter().find(|t| t.0 == TokenKind::RawStr).expect("raw string token");
        assert!(raw.1.contains("not // a"));
        assert!(toks.iter().all(|t| t.0 != TokenKind::LineComment));
    }

    #[test]
    fn raw_byte_string() {
        let toks = kinds(r###"let s = br##"x"# y"##;"###);
        let raw = toks.iter().find(|t| t.0 == TokenKind::ByteStr).expect("byte raw string");
        assert!(raw.1.contains(r##"x"# y"##), "{}", raw.1);
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'b'; let q = '\"'; let e = '\\''; }");
        let lifetimes: Vec<_> = toks.iter().filter(|t| t.0 == TokenKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.1 == "'a"));
        let chars: Vec<_> = toks.iter().filter(|t| t.0 == TokenKind::Char).collect();
        assert_eq!(chars.len(), 3, "{chars:?}");
        assert_eq!(chars[1].1, "'\"'");
        assert_eq!(chars[2].1, "'\\''");
    }

    #[test]
    fn line_and_column_tracking() {
        let toks = lex("ab\n  cd == 1.5e-3");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col, toks[1].text.as_str()), (2, 3, "cd"));
        assert_eq!(toks[2].text, "==");
        assert_eq!(toks[3].kind, TokenKind::Number);
        assert_eq!(toks[3].text, "1.5e-3");
    }

    #[test]
    fn numbers_and_ranges() {
        let toks = kinds("0..10 1.0 0xff_u32 2.5f64 1e9 x.abs()");
        assert_eq!(toks[0], (TokenKind::Number, "0".into()));
        assert_eq!(toks[1], (TokenKind::Punct, "..".into()));
        assert_eq!(toks[2], (TokenKind::Number, "10".into()));
        assert_eq!(toks[3], (TokenKind::Number, "1.0".into()));
        assert_eq!(toks[4], (TokenKind::Number, "0xff_u32".into()));
        assert_eq!(toks[5], (TokenKind::Number, "2.5f64".into()));
        assert_eq!(toks[6], (TokenKind::Number, "1e9".into()));
        // `x.abs()` must not lex `.a` into the number path.
        assert_eq!(toks[7], (TokenKind::Ident, "x".into()));
        assert_eq!(toks[8], (TokenKind::Punct, ".".into()));
    }

    #[test]
    fn byte_literals() {
        let toks = kinds(r#"let a = b"bytes"; let c = b'x';"#);
        assert!(toks.iter().any(|t| t.0 == TokenKind::ByteStr && t.1 == "b\"bytes\""));
        assert!(toks.iter().any(|t| t.0 == TokenKind::ByteChar && t.1 == "b'x'"));
    }

    #[test]
    fn joined_operators() {
        let toks = kinds("a != b && c == d || e <= f .. g ..= h");
        let puncts: Vec<_> =
            toks.iter().filter(|t| t.0 == TokenKind::Punct).map(|t| t.1.as_str()).collect();
        assert_eq!(puncts, vec!["!=", "&&", "==", "||", "<=", "..", "..="]);
    }

    #[test]
    fn static_lifetime_and_string_escapes() {
        let toks = kinds(r#"let s: &'static str = "a \" b"; "#);
        assert!(toks.iter().any(|t| t.0 == TokenKind::Lifetime && t.1 == "'static"));
        assert!(toks.iter().any(|t| t.0 == TokenKind::Str && t.1 == r#""a \" b""#));
    }
}
