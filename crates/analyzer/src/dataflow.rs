//! The dataflow lints: drivers that turn AST/CFG/call-graph facts into
//! [`Diagnostic`]s.
//!
//! Four lints live here (the syntactic ones stay in [`crate::lints`]):
//!
//! * `collective-consistency` — reads the per-branch divergence findings the
//!   [`crate::callgraph::CallGraph`] computed interprocedurally.
//! * `unwaited-handle` — CFG must-consume over `let`-bound comm `try_*`
//!   results and pending handles.
//! * `alloc-in-hot-path` — allocating calls inside the call-graph hot set
//!   rooted at the `newton.iter` / `newton.pcg` / `interp.eval` spans.
//! * `swallowed-comm-error` — `CommError` results discarded, collapsed, or
//!   matched into empty `Err` arms.

use crate::callgraph::CallGraph;
use crate::cfg;
use crate::lexer::TokenKind;
use crate::lint::{Diagnostic, Lint};
use crate::parse::{CallNode, FileAst, LetNode, Node};
use crate::scope::SourceFile;

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

/// Comm operations whose `try_` form returns `Result<_, CommError>` (or a
/// pending handle). `try_into`/`try_fold`-style std conversions are
/// deliberately *not* matched — they carry non-comm error types.
fn comm_try(name: &str) -> bool {
    if let Some(base) = name.strip_prefix("try_") {
        return crate::callgraph::is_collective(base, 2)
            || crate::callgraph::is_collective(base, 0)
            || matches!(base, "send" | "recv" | "recv_any" | "probe" | "split");
    }
    name.starts_with("post_")
}

/// Result-consuming method names: a tracked value followed by one of these
/// has been handled (or deliberately crashed) rather than dropped.
const CONSUMERS: &[&str] = &[
    "unwrap",
    "expect",
    "ok",
    "err",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "is_ok",
    "is_err",
    "expect_err",
    "unwrap_err",
    "wait",
    "test",
];

fn calls_in<'n>(nodes: &'n [Node], out: &mut Vec<&'n CallNode>) {
    for n in nodes {
        match n {
            Node::Call(c) => out.push(c),
            Node::Let(l) => calls_in(&l.init, out),
            Node::Branch(b) => {
                calls_in(&b.cond, out);
                for a in &b.arms {
                    calls_in(&a.body, out);
                }
            }
            Node::Loop { body, .. } | Node::Closure { body } | Node::Block(body) => {
                calls_in(body, out)
            }
            Node::Return { value, .. } => calls_in(value, out),
            _ => {}
        }
    }
}

fn has_try_op(nodes: &[Node]) -> bool {
    nodes.iter().any(|n| match n {
        Node::Try { .. } => true,
        Node::Let(l) => has_try_op(&l.init),
        Node::Block(b) | Node::Closure { body: b } => has_try_op(b),
        Node::Return { value, .. } => has_try_op(value),
        _ => false,
    })
}

/// Does `init` bind an unconsumed comm `try_*` result? (The defining call
/// present, no `?`, and no consumer method applied in the initializer.)
fn init_is_pending(init: &[Node]) -> bool {
    let mut calls = Vec::new();
    calls_in(init, &mut calls);
    let has_pending = calls.iter().any(|c| !c.bang && comm_try(&c.name));
    if !has_pending || has_try_op(init) {
        return false;
    }
    let consumed = calls.iter().any(|c| c.method && CONSUMERS.contains(&c.name.as_str()));
    !consumed
}

/// `unwaited-handle`: a `let`-bound comm `try_*` result / pending handle
/// must be consumed on every CFG path before scope exit.
pub fn unwaited_handle(f: &SourceFile, ast: &FileAst, out: &mut Vec<Diagnostic>) {
    if !f.class.is_lib_src {
        return;
    }
    let classify: cfg::Classify = &|l: &LetNode| {
        if l.name.is_some() && init_is_pending(&l.init) {
            Some("comm try_* result".to_string())
        } else {
            None
        }
    };
    for fun in &ast.fns {
        if fun.in_test {
            continue;
        }
        let graph = cfg::build(&fun.body, classify);
        for leak in cfg::unconsumed_defs(&graph) {
            out.push(diag(
                f,
                Lint::UnwaitedHandle,
                leak.line,
                leak.col,
                format!(
                    "`{}` binds a {} that is not consumed on every path before scope exit: \
                     wait/unwrap/propagate it on all branches (a dropped pending comm op is a \
                     silent protocol desync)",
                    leak.name, leak.desc
                ),
            ));
        }
    }
}

/// `collective-consistency`: surfaces the call-graph findings that belong
/// to this file.
pub fn collective_consistency(
    f: &SourceFile,
    graph: &CallGraph,
    out: &mut Vec<Diagnostic>,
) {
    for c in &graph.consistency {
        let info = &graph.fns[c.fn_idx];
        if info.path != f.path {
            continue;
        }
        out.push(diag(
            f,
            Lint::CollectiveConsistency,
            c.line,
            c.col,
            format!("in `{}`: {}", info.name, c.message),
        ));
    }
}

/// Allocating constructor types for `Type::new()` / `Type::with_capacity()`.
const ALLOC_TYPES: &[&str] =
    &["Vec", "String", "Box", "HashMap", "BTreeMap", "VecDeque", "BinaryHeap", "HashSet"];

/// Method calls that allocate a fresh buffer.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "into_boxed_slice"];

/// Arena-routed qualifiers/receivers exempt from the hot-path rule.
fn arena_exempt(c: &CallNode) -> bool {
    let q = c.qual.as_deref().unwrap_or("");
    let r = c.recv.as_deref().unwrap_or("");
    q == "Pool"
        || q == "PooledVec"
        || q.to_lowercase().contains("arena")
        || r.to_lowercase().contains("pool")
        || r.to_lowercase().contains("arena")
}

fn alloc_walk(f: &SourceFile, nodes: &[Node], root: &str, out: &mut Vec<Diagnostic>) {
    let mut calls = Vec::new();
    calls_in(nodes, &mut calls);
    for c in calls {
        let hit = if c.bang {
            matches!(c.name.as_str(), "vec" | "format")
        } else if c.method {
            ALLOC_METHODS.contains(&c.name.as_str())
        } else if c.name == "with_capacity" || c.name == "new" {
            c.qual.as_deref().map(|q| ALLOC_TYPES.contains(&q)).unwrap_or(false)
        } else {
            false
        };
        if hit && !arena_exempt(c) {
            let what = if c.bang {
                format!("{}!", c.name)
            } else if let Some(q) = &c.qual {
                format!("{q}::{}", c.name)
            } else {
                format!(".{}()", c.name)
            };
            out.push(diag(
                f,
                Lint::AllocInHotPath,
                c.line,
                c.col,
                format!(
                    "allocating call `{what}` in a function reachable from the `{root}` hot \
                     span: route the buffer through grid::arena (or hoist it out of the hot \
                     loop) to keep the zero-alloc steady-state invariant"
                ),
            ));
        }
    }
}

/// `alloc-in-hot-path`: allocations in functions statically reachable from
/// the hot telemetry spans, outside `grid::arena` itself.
pub fn alloc_in_hot_path(
    f: &SourceFile,
    ast: &FileAst,
    graph: &CallGraph,
    out: &mut Vec<Diagnostic>,
) {
    if !f.class.is_lib_src || f.path.ends_with("grid/src/arena.rs") {
        return;
    }
    for fun in &ast.fns {
        if fun.in_test {
            continue;
        }
        let Some(idx) = graph.fn_at(&f.path, fun.line) else { continue };
        let Some(root) = graph.hot.get(&idx) else { continue };
        alloc_walk(f, &fun.body, root, out);
    }
}

/// `swallowed-comm-error`, pattern (a): `let _ = c.try_*(...)` — and
/// patterns (c)/(d): empty `Err` match arms and else-less `if let Ok`.
fn swallowed_in_nodes(f: &SourceFile, nodes: &[Node], out: &mut Vec<Diagnostic>) {
    for n in nodes {
        match n {
            Node::Let(l) => {
                if l.underscore && init_is_pending(&l.init) {
                    out.push(diag(
                        f,
                        Lint::SwallowedCommError,
                        l.line,
                        l.col,
                        "`let _ =` discards a comm try_* result: the CommError (and any rank \
                         failure it reports) vanishes — handle it or propagate it"
                            .to_string(),
                    ));
                }
                swallowed_in_nodes(f, &l.init, out);
            }
            Node::Branch(b) => {
                let mut cond_calls = Vec::new();
                calls_in(&b.cond, &mut cond_calls);
                let cond_has_try = cond_calls.iter().any(|c| !c.bang && comm_try(&c.name));
                if b.is_match && cond_has_try {
                    for arm in &b.arms {
                        if arm.pat.starts_with("Err") && arm.body.is_empty() {
                            out.push(diag(
                                f,
                                Lint::SwallowedCommError,
                                arm.line,
                                1,
                                "empty `Err` arm on a comm try_* result: the CommError is \
                                 matched and dropped — log it, recover, or propagate it"
                                    .to_string(),
                            ));
                        }
                    }
                }
                if !b.is_match
                    && cond_has_try
                    && !b.has_else
                    && b.cond_text.starts_with("let Ok")
                {
                    out.push(diag(
                        f,
                        Lint::SwallowedCommError,
                        b.line,
                        b.col,
                        "`if let Ok(..)` on a comm try_* result with no else branch: the \
                         CommError path is silently dropped"
                            .to_string(),
                    ));
                }
                swallowed_in_nodes(f, &b.cond, out);
                for arm in &b.arms {
                    swallowed_in_nodes(f, &arm.body, out);
                }
            }
            Node::Loop { body, .. } | Node::Closure { body } | Node::Block(body) => {
                swallowed_in_nodes(f, body, out)
            }
            Node::Return { value, .. } => swallowed_in_nodes(f, value, out),
            _ => {}
        }
    }
}

/// `swallowed-comm-error`, pattern (b): token-level scan for a `try_*` comm
/// call whose result is immediately collapsed with `.ok()` / `.unwrap_or*`.
fn swallowed_collapse(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &f.code;
    for i in 0..code.len() {
        let ti = code[i];
        if f.is_test_token(ti) {
            continue;
        }
        let tok = &f.tokens[ti];
        if tok.kind != TokenKind::Ident || !comm_try(&tok.text) {
            continue;
        }
        // Must be a call: next token `(`; skip the balanced argument group.
        let mut j = i + 1;
        if !(j < code.len() && f.tokens[code[j]].is_punct("(")) {
            continue;
        }
        let mut depth = 0isize;
        while j < code.len() {
            let t = &f.tokens[code[j]];
            if t.is_punct("(") {
                depth += 1;
            } else if t.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        // `.ok(` / `.unwrap_or(` / `.unwrap_or_default(` right after.
        if j + 3 < code.len()
            && f.tokens[code[j + 1]].is_punct(".")
            && f.tokens[code[j + 2]].kind == TokenKind::Ident
            && matches!(
                f.tokens[code[j + 2]].text.as_str(),
                "ok" | "unwrap_or" | "unwrap_or_default"
            )
            && f.tokens[code[j + 3]].is_punct("(")
        {
            let m = &f.tokens[code[j + 2]];
            out.push(diag(
                f,
                Lint::SwallowedCommError,
                m.line,
                m.col,
                format!(
                    "`.{}()` collapses the CommError from `{}` without a typed recovery \
                     path: match on the error (or propagate it) instead",
                    m.text, tok.text
                ),
            ));
        }
    }
}

/// `swallowed-comm-error`: all patterns, over non-test lib code.
pub fn swallowed_comm_error(f: &SourceFile, ast: &FileAst, out: &mut Vec<Diagnostic>) {
    if !f.class.is_lib_src {
        return;
    }
    for fun in &ast.fns {
        if fun.in_test {
            continue;
        }
        swallowed_in_nodes(f, &fun.body, out);
    }
    swallowed_collapse(f, out);
}

/// Runs all four dataflow lints for one file against a prepared call graph.
pub fn run_dataflow(
    f: &SourceFile,
    ast: &FileAst,
    graph: &CallGraph,
    out: &mut Vec<Diagnostic>,
) {
    collective_consistency(f, graph, out);
    unwaited_handle(f, ast, out);
    alloc_in_hot_path(f, ast, graph, out);
    swallowed_comm_error(f, ast, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::parse::parse_file;
    use std::path::PathBuf;

    fn run(path: &str, src: &str) -> Vec<(Lint, usize)> {
        let sf = SourceFile::parse(&PathBuf::from(path), src);
        let ast = parse_file(&sf);
        let files = vec![(sf.path.clone(), sf.class.crate_name.clone(), &ast)];
        let graph = CallGraph::build(&files);
        let mut out = Vec::new();
        run_dataflow(&sf, &ast, &graph, &mut out);
        out.into_iter().map(|d| (d.lint, d.line)).collect()
    }

    #[test]
    fn unwaited_handle_flags_partial_consumption() {
        let got = run(
            "crates/comm/src/x.rs",
            "pub fn f(c: &C, flag: bool) {\n\
                let h = c.try_barrier();\n\
                if flag {\n\
                    h.unwrap();\n\
                }\n\
             }\n",
        );
        assert_eq!(got, vec![(Lint::UnwaitedHandle, 2)]);
    }

    #[test]
    fn unwaited_handle_clean_when_consumed_or_propagated() {
        let got = run(
            "crates/comm/src/x.rs",
            "pub fn f(c: &C) -> Result<(), CommError> {\n\
                let h = c.try_barrier();\n\
                h?;\n\
                let v = c.try_allreduce(&mut [0.0])?;\n\
                let w = c.try_send(1, &buf).map_err(adjust)?;\n\
                Ok(())\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn swallowed_patterns_fire() {
        let got = run(
            "crates/comm/src/x.rs",
            "pub fn f(c: &C) {\n\
                let _ = c.try_barrier();\n\
                let v = c.try_allreduce(&mut [0.0]).ok();\n\
                match c.try_send(1, &buf) {\n\
                    Ok(()) => on_sent(),\n\
                    Err(_) => {}\n\
                }\n\
             }\n",
        );
        assert!(got.contains(&(Lint::SwallowedCommError, 2)), "{got:?}");
        assert!(got.contains(&(Lint::SwallowedCommError, 3)), "{got:?}");
        assert!(got.contains(&(Lint::SwallowedCommError, 6)), "{got:?}");
    }

    #[test]
    fn try_into_is_not_a_comm_result() {
        let got = run(
            "crates/core/src/x.rs",
            "pub fn f(bytes: &[u8]) -> u64 {\n\
                let arr = bytes.try_into().unwrap_or_default();\n\
                u64::from_le_bytes(arr)\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn alloc_in_hot_path_follows_the_call_graph() {
        let got = run(
            "crates/optim/src/x.rs",
            "pub fn hot_root(ws: &mut W) {\n\
                let _g = span(\"newton.iter\");\n\
                inner_step(ws);\n\
             }\n\
             fn inner_step(ws: &mut W) {\n\
                let buf = Vec::with_capacity(64);\n\
                ws.consume(buf);\n\
             }\n\
             pub fn cold_path() -> Vec<f64> {\n\
                vec![0.0; 8]\n\
             }\n",
        );
        assert_eq!(got, vec![(Lint::AllocInHotPath, 6)]);
    }

    #[test]
    fn arena_routed_allocation_is_exempt() {
        let got = run(
            "crates/optim/src/x.rs",
            "pub fn hot_root(ws: &mut W) {\n\
                let _g = span(\"newton.pcg\");\n\
                let buf = ws.pool.take(64);\n\
                ws.consume(buf.into_vec());\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn consistency_finding_lands_on_the_owning_file() {
        let got = run(
            "crates/core/src/x.rs",
            "pub fn entry(c: &C) {\n\
                if c.rank() == 0 {\n\
                    c.barrier();\n\
                } else {\n\
                    c.allreduce(&mut [0.0], Op::Sum);\n\
                }\n\
             }\n",
        );
        assert_eq!(got, vec![(Lint::CollectiveConsistency, 2)]);
    }
}
