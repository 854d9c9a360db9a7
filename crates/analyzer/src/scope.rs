//! Source-file model and lightweight structural analysis.
//!
//! [`SourceFile`] owns the text, the token stream, and the structural map
//! the lints share: **test regions** — which tokens live under
//! `#[cfg(test)] mod` / `#[test] fn` items (per-token flag, brace-matched),
//! so library lints can exempt test code without being fooled by
//! formatting.

use crate::lexer::{lex, Token, TokenKind};
use std::path::Path;

/// Classification of a file from its path (drives lint applicability).
#[derive(Debug, Clone)]
pub struct FileClass {
    /// The crate the file belongs to (`comm`, `pfft`, ... or `diffreg` for
    /// the root crate), when it sits under a `src/` directory.
    pub crate_name: Option<String>,
    /// True for files under `tests/`, `benches/`, or `examples/`
    /// directories — entire file counts as test code.
    pub is_test_file: bool,
    /// True for library sources: under `src/` but not `src/bin/`.
    pub is_lib_src: bool,
}

impl FileClass {
    /// Derives the class from a repo-relative path.
    pub fn from_path(path: &Path) -> FileClass {
        let rel: Vec<String> =
            path.iter().map(|c| c.to_string_lossy().into_owned()).collect();
        let has = |name: &str| rel.iter().any(|c| c == name);
        let is_test_file = has("tests") || has("benches") || has("examples");
        let in_src = has("src");
        let in_bin = has("bin");
        let crate_name = if rel.first().map(String::as_str) == Some("crates") {
            rel.get(1).cloned()
        } else if in_src {
            Some("diffreg".to_string())
        } else {
            None
        };
        FileClass { crate_name, is_test_file, is_lib_src: in_src && !in_bin && !is_test_file }
    }
}

/// A lexed source file plus the structural map the lints consume.
pub struct SourceFile {
    /// Repo-relative path (slash-separated in diagnostics).
    pub path: String,
    /// Raw source lines (for snippets).
    pub lines: Vec<String>,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the code tokens (comments filtered).
    pub code: Vec<usize>,
    /// Per-`tokens` index: token is inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: Vec<bool>,
    /// Path-derived classification.
    pub class: FileClass,
}

impl SourceFile {
    /// Lexes and analyzes `text` as the file at repo-relative `path`.
    pub fn parse(path: &Path, text: &str) -> SourceFile {
        let tokens = lex(text);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_code())
            .map(|(i, _)| i)
            .collect();
        let in_test = test_regions(&tokens, &code);
        SourceFile {
            path: path.to_string_lossy().replace('\\', "/"),
            lines: text.lines().map(str::to_string).collect(),
            tokens,
            code,
            in_test,
            class: FileClass::from_path(path),
        }
    }

    /// The trimmed source text of 1-based line `line` (empty when out of
    /// range).
    pub fn snippet(&self, line: usize) -> String {
        self.lines.get(line.wrapping_sub(1)).map(|l| l.trim().to_string()).unwrap_or_default()
    }

    /// True if the code token at `tokens` index `ti` is in test code —
    /// either structurally (`#[cfg(test)]` / `#[test]`) or because the whole
    /// file is a test/bench/example file.
    pub fn is_test_token(&self, ti: usize) -> bool {
        self.class.is_test_file || self.in_test.get(ti).copied().unwrap_or(false)
    }
}

/// Computes the per-token test-region flags in one walk over the code
/// tokens.
fn test_regions(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];

    // Test-ness of each open `{`.
    let mut stack: Vec<bool> = Vec::new();
    // Attribute-derived "next item is a test item" flag.
    let mut pending_test = false;

    let mut i = 0usize;
    while i < code.len() {
        let ti = code[i];
        let tok = &tokens[ti];
        let cur_test = stack.last().copied().unwrap_or(false);
        in_test[ti] = cur_test || pending_test;

        // Attributes: `#[...]` / `#![...]` — consumed wholly here so their
        // brackets never confuse the brace tracker.
        if tok.is_punct("#") {
            let mut j = i + 1;
            if j < code.len() && tokens[code[j]].is_punct("!") {
                j += 1;
            }
            if j < code.len() && tokens[code[j]].is_punct("[") {
                let mut depth = 0usize;
                let mut idents: Vec<&str> = Vec::new();
                while j < code.len() {
                    let t = &tokens[code[j]];
                    in_test[code[j]] = cur_test || pending_test;
                    if t.is_punct("[") {
                        depth += 1;
                    } else if t.is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if t.kind == TokenKind::Ident {
                        idents.push(&t.text);
                    }
                    j += 1;
                }
                let is_test_attr = idents.first() == Some(&"test")
                    || (idents.contains(&"cfg")
                        && idents.contains(&"test")
                        && !idents.contains(&"not"));
                if is_test_attr {
                    pending_test = true;
                }
                i = j + 1;
                continue;
            }
        }

        if tok.is_punct("{") {
            stack.push(cur_test || pending_test);
            pending_test = false;
        } else if tok.is_punct("}") {
            stack.pop();
        } else if tok.is_punct(";") {
            pending_test = false;
        }
        i += 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sf(src: &str) -> SourceFile {
        SourceFile::parse(&PathBuf::from("crates/demo/src/lib.rs"), src)
    }

    fn token_at(f: &SourceFile, text: &str) -> usize {
        f.tokens
            .iter()
            .position(|t| t.text == text)
            .unwrap_or_else(|| panic!("token {text:?} not found"))
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let f = sf("fn lib_code() { work(); }\n\
                    #[cfg(test)]\nmod tests {\n    fn helper() { inner(); }\n}\n");
        assert!(!f.in_test[token_at(&f, "work")]);
        assert!(f.in_test[token_at(&f, "inner")]);
    }

    #[test]
    fn test_attr_fn_is_a_test_region_and_cfg_not_test_is_not() {
        let f = sf("#[test]\nfn t() { check(); }\n\
                    #[cfg(not(test))]\nfn prod() { live(); }\n");
        assert!(f.in_test[token_at(&f, "check")]);
        assert!(!f.in_test[token_at(&f, "live")]);
    }

    #[test]
    fn file_class_from_paths() {
        let c = FileClass::from_path(&PathBuf::from("crates/comm/src/threaded.rs"));
        assert_eq!(c.crate_name.as_deref(), Some("comm"));
        assert!(c.is_lib_src && !c.is_test_file);
        let t = FileClass::from_path(&PathBuf::from("crates/comm/tests/chaos.rs"));
        assert!(t.is_test_file && !t.is_lib_src);
        let b = FileClass::from_path(&PathBuf::from("src/bin/diffreg.rs"));
        assert!(!b.is_lib_src);
        assert_eq!(b.crate_name.as_deref(), Some("diffreg"));
        let e = FileClass::from_path(&PathBuf::from("examples/quickstart.rs"));
        assert!(e.is_test_file);
    }
}
