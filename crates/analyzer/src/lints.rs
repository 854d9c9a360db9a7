//! The lint implementations.
//!
//! Each lint is a pure function from a [`SourceFile`] to diagnostics. They
//! all operate on the lexed token stream (never on raw text), so string
//! literals, raw strings, and comments can never produce false call sites.

use crate::lexer::TokenKind;
use crate::lint::{Diagnostic, Lint};
use crate::scope::SourceFile;

/// Crates whose non-test library code must not `unwrap()`/`expect()`/
/// `panic!` (they form the distributed solve path).
pub const NO_UNWRAP_CRATES: &[&str] =
    &["comm", "fft", "pfft", "grid", "spectral", "interp", "transport", "optim", "core"];

fn diag(f: &SourceFile, lint: Lint, line: usize, col: usize, message: String) -> Diagnostic {
    Diagnostic {
        lint,
        path: f.path.clone(),
        line,
        col,
        message,
        snippet: f.snippet(line),
        func: String::new(),
    }
}

/// `no-unwrap-in-lib`: `unwrap()` / `expect()` / `panic!` in non-test
/// library code of the solver crates.
pub fn no_unwrap_in_lib(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let in_scope = f
        .class
        .crate_name
        .as_deref()
        .map(|c| NO_UNWRAP_CRATES.contains(&c))
        .unwrap_or(false)
        && f.class.is_lib_src;
    if !in_scope {
        return;
    }
    let code = &f.code;
    for i in 0..code.len() {
        let ti = code[i];
        if f.is_test_token(ti) {
            continue;
        }
        let tok = &f.tokens[ti];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |s: &str| i + 1 < code.len() && f.tokens[code[i + 1]].is_punct(s);
        let prev_is_dot = i > 0 && f.tokens[code[i - 1]].is_punct(".");
        let hit = match tok.text.as_str() {
            "unwrap" | "expect" => prev_is_dot && next_is("("),
            "panic" => next_is("!"),
            _ => false,
        };
        if hit {
            let what = if tok.text == "panic" { "panic!" } else { &tok.text };
            out.push(diag(
                f,
                Lint::NoUnwrapInLib,
                tok.line,
                tok.col,
                format!(
                    "`{what}` in solver library code: return a typed error (CommError, ...) \
                     or annotate with diffreg-allow and a reason"
                ),
            ));
        }
    }
}

/// True when a number token denotes a float.
fn is_float_number(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    if text.ends_with("f32") || text.ends_with("f64") {
        return true;
    }
    if text.contains('.') {
        return true;
    }
    // Decimal exponent form without a dot: 1e9, 2E-3.
    let has_exp = text
        .char_indices()
        .any(|(i, c)| i > 0 && (c == 'e' || c == 'E'))
        && text.chars().all(|c| c.is_ascii_digit() || matches!(c, 'e' | 'E' | '+' | '-' | '_'));
    has_exp
}

/// Tokens that terminate an operand scan around `==` / `!=`.
fn operand_boundary(text: &str) -> bool {
    matches!(
        text,
        "," | ";"
            | "&&"
            | "||"
            | "="
            | "=="
            | "!="
            | "<"
            | ">"
            | "<="
            | ">="
            | "=>"
            | "{"
            | "}"
            | "return"
            | "if"
            | "else"
            | "while"
            | "match"
            | "let"
            | "?"
    )
}

/// `float-eq`: `==`/`!=` with a float-typed operand, outside tests.
pub fn float_eq(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &f.code;
    for i in 0..code.len() {
        let ti = code[i];
        let tok = &f.tokens[ti];
        if tok.kind != TokenKind::Punct || (tok.text != "==" && tok.text != "!=") {
            continue;
        }
        if f.is_test_token(ti) {
            continue;
        }
        let mut float_operand = false;
        // Left operand: walk back, skipping matched () / [] groups.
        let mut depth = 0isize;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &f.tokens[code[j]];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    ")" | "]" => depth += 1,
                    "(" | "[" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    _ if depth == 0 && operand_boundary(&t.text) => break,
                    _ => {}
                }
            } else if depth == 0 && t.kind == TokenKind::Ident && operand_boundary(&t.text) {
                break;
            }
            if float_token(f, code, j) {
                float_operand = true;
            }
        }
        // Right operand: walk forward symmetrically.
        let mut depth = 0isize;
        let mut j = i + 1;
        while j < code.len() {
            let t = &f.tokens[code[j]];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    _ if depth == 0 && operand_boundary(&t.text) => break,
                    _ => {}
                }
            } else if depth == 0 && t.kind == TokenKind::Ident && operand_boundary(&t.text) {
                break;
            }
            if float_token(f, code, j) {
                float_operand = true;
            }
            j += 1;
        }
        if float_operand {
            out.push(diag(
                f,
                Lint::FloatEq,
                tok.line,
                tok.col,
                format!(
                    "`{}` between float-typed operands: use an epsilon/ULP comparison, or \
                     annotate an intentional exact comparison with diffreg-allow and a reason",
                    tok.text
                ),
            ));
        }
    }
}

/// Is the code token at position `j` evidence of a float-typed operand
/// (float literal, `f32`/`f64` path or cast)?
fn float_token(f: &SourceFile, code: &[usize], j: usize) -> bool {
    let t = &f.tokens[code[j]];
    match t.kind {
        TokenKind::Number => is_float_number(&t.text),
        TokenKind::Ident => t.text == "f32" || t.text == "f64",
        _ => false,
    }
}

/// Method names treated as mutating inside `debug_assert!` bodies.
const MUTATING_METHODS: &[&str] = &[
    "push", "pop", "insert", "remove", "clear", "take", "replace", "truncate", "drain", "retain",
    "fill", "extend", "next", "swap", "sort", "dedup", "reverse", "write", "store", "fetch_add",
    "fetch_sub", "advance", "append", "resize",
];

/// `debug-assert-side-effect`: assignment / mutation inside `debug_assert!`.
pub fn debug_assert_side_effect(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &f.code;
    let mut i = 0usize;
    while i < code.len() {
        let tok = &f.tokens[code[i]];
        let is_da = tok.kind == TokenKind::Ident
            && matches!(tok.text.as_str(), "debug_assert" | "debug_assert_eq" | "debug_assert_ne")
            && i + 2 < code.len()
            && f.tokens[code[i + 1]].is_punct("!")
            && f.tokens[code[i + 2]].is_punct("(");
        if !is_da {
            i += 1;
            continue;
        }
        let macro_name = tok.text.clone();
        // Scan the macro body to the matching `)`.
        let mut depth = 0isize;
        let mut j = i + 2;
        while j < code.len() {
            let t = &f.tokens[code[j]];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => {
                        out.push(diag(
                            f,
                            Lint::DebugAssertSideEffect,
                            t.line,
                            t.col,
                            format!(
                                "assignment `{}` inside `{macro_name}!`: the mutation silently \
                                 disappears in release builds",
                                t.text
                            ),
                        ));
                    }
                    _ => {}
                }
            } else if t.kind == TokenKind::Ident
                && MUTATING_METHODS.contains(&t.text.as_str())
                && j > 0
                && f.tokens[code[j - 1]].is_punct(".")
                && j + 1 < code.len()
                && f.tokens[code[j + 1]].is_punct("(")
            {
                out.push(diag(
                    f,
                    Lint::DebugAssertSideEffect,
                    t.line,
                    t.col,
                    format!(
                        "mutating call `.{}()` inside `{macro_name}!`: the side effect silently \
                         disappears in release builds",
                        t.text
                    ),
                ));
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Runs every *syntactic* lint over one file (the dataflow lints live in
/// [`crate::dataflow`]; suppressions are applied by the engine, not here).
pub fn run_all(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    no_unwrap_in_lib(f, &mut out);
    float_eq(f, &mut out);
    debug_assert_side_effect(f, &mut out);
    out.sort_by_key(|d| (d.line, d.col, d.lint));
    out
}
