//! The analysis driver: workspace walk, parse/link/analyze phases,
//! suppression handling, and report rendering (human and JSON v3).
//!
//! A `check` run has three phases:
//!
//! 1. **parse** — every workspace file is read, lexed, and parsed to a
//!    [`FileAst`];
//! 2. **link** — one [`CallGraph`] is built over all ASTs, which also runs
//!    the interprocedural analyses (collective-consistency resolution,
//!    hot-set BFS);
//! 3. **analyze** — per-file syntactic + dataflow lints run against the
//!    shared graph, allows are applied, findings tagged with their
//!    enclosing function.
//!
//! Files are visited in sorted-path order, so the report is
//! byte-deterministic.

use crate::callgraph::CallGraph;
use crate::dataflow;
use crate::lint::{parse_allow, Diagnostic, Lint, ALL_LINTS};
use crate::lints;
use crate::parse::{parse_file, FileAst};
use crate::scope::SourceFile;
use diffreg_telemetry::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Directory names never descended into during the workspace walk.
/// `benchmark/` is its own Cargo workspace, frozen by `BENCHMARK.json`; it
/// links this one but is not held to its lints.
const SKIP_DIRS: &[&str] = &["target", ".git", "results", "figures", "fixtures", "benchmark"];

/// Recursively collects the workspace's `.rs` files, repo-relative, sorted.
/// `fixtures/` directories are excluded — they hold deliberate violations
/// for the analyzer's own tests.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// The outcome of analyzing one file: surviving findings plus the set of
/// allow comments that were actually used.
pub struct FileReport {
    /// Findings that were not suppressed by a `diffreg-allow` comment.
    pub findings: Vec<Diagnostic>,
    /// Findings suppressed at their site (kept for accounting).
    pub suppressed: Vec<Diagnostic>,
}

/// Runs every lint on `file` standalone: the AST is parsed and a
/// single-file call graph built internally. Used by the fixture harness and
/// one-off callers; the workspace path goes through [`check`] so the graph
/// spans all files.
pub fn analyze_file(file: &SourceFile) -> FileReport {
    let ast = parse_file(file);
    let files = vec![(file.path.clone(), file.class.crate_name.clone(), &ast)];
    let graph = CallGraph::build(&files);
    analyze_parsed(file, &ast, &graph)
}

/// Runs every lint on a parsed file against a prepared (possibly
/// workspace-wide) call graph, applies `diffreg-allow` suppressions, and
/// reports stale/malformed allows as [`Lint::UnusedAllow`] findings.
pub fn analyze_parsed(file: &SourceFile, ast: &FileAst, graph: &CallGraph) -> FileReport {
    let enclosing_fn =
        |line: usize| ast.enclosing_fn(line).map(|f| f.name.clone()).unwrap_or_default();
    let mut raw = lints::run_all(file);
    dataflow::run_dataflow(file, ast, graph, &mut raw);
    for d in &mut raw {
        d.func = enclosing_fn(d.line);
    }
    raw.sort_by_key(|d| (d.line, d.col, d.lint));

    // Collect allow comments, per line. Doc comments (`///`, `//!`, `/**`,
    // `/*!`) are documentation, not suppressions — prose that *mentions*
    // the allow syntax must not accidentally suppress anything.
    let mut allows: Vec<(crate::lint::Allow, bool)> = Vec::new(); // (allow, used)
    for t in &file.tokens {
        if t.is_code() {
            continue;
        }
        let is_doc = ["///", "//!", "/**", "/*!"].iter().any(|p| t.text.starts_with(p));
        if is_doc {
            continue;
        }
        if let Some(a) = parse_allow(&t.text, t.line, t.col) {
            allows.push((a, false));
        }
    }

    // Which source lines consist only of comments/whitespace? Allow comments
    // stack: each one applies to the first code line below the comment block.
    let comment_only: Vec<bool> = file
        .lines
        .iter()
        .enumerate()
        .map(|(idx, l)| {
            let trimmed = l.trim();
            trimmed.is_empty()
                || trimmed.starts_with("//")
                || file
                    .tokens
                    .iter()
                    .filter(|t| t.line == idx + 1)
                    .all(|t| !t.is_code())
        })
        .collect();

    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for d in raw {
        let mut hit = false;
        for (a, used) in allows.iter_mut() {
            if a.lint != Some(d.lint) || a.reason.is_empty() {
                continue;
            }
            let applies = if a.line == d.line {
                true // trailing comment on the offending line
            } else if a.line < d.line {
                // Stacked block of comment-only lines directly above.
                (a.line..d.line.saturating_sub(1))
                    .all(|l| comment_only.get(l).copied().unwrap_or(false))
                    && a.line < d.line
            } else {
                false
            };
            if applies {
                hit = true;
                *used = true;
                break;
            }
        }
        if hit {
            suppressed.push(d);
        } else {
            findings.push(d);
        }
    }

    // Stale / malformed allows are findings themselves.
    for (a, used) in &allows {
        if *used {
            continue;
        }
        let msg = if a.lint.is_none() {
            format!("diffreg-allow names unknown lint `{}`", a.name)
        } else if a.reason.is_empty() {
            format!("diffreg-allow({}) has no reason — write `: <why>` after it", a.name)
        } else {
            format!("diffreg-allow({}) suppresses nothing here (stale — remove it)", a.name)
        };
        findings.push(Diagnostic {
            lint: Lint::UnusedAllow,
            path: file.path.clone(),
            line: a.line,
            col: a.col,
            message: msg,
            snippet: file.snippet(a.line),
            func: enclosing_fn(a.line),
        });
    }
    findings.sort_by_key(|d| (d.line, d.col, d.lint));
    FileReport { findings, suppressed }
}

/// The aggregate result of a `check` run over the workspace.
pub struct CheckReport {
    /// Unsuppressed findings — any one fails the gate.
    pub findings: Vec<Diagnostic>,
    /// Per-site suppressed findings (accounting only).
    pub suppressed: Vec<Diagnostic>,
    /// Number of files analyzed.
    pub files: usize,
}

impl CheckReport {
    /// True when the gate passes (no findings).
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-lint counts as (new, suppressed), every registered lint present
    /// (zero-filled).
    pub fn counts(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut m: BTreeMap<&'static str, (usize, usize)> =
            ALL_LINTS.iter().map(|l| (l.name(), (0, 0))).collect();
        for d in &self.findings {
            m.entry(d.lint.name()).or_default().0 += 1;
        }
        for d in &self.suppressed {
            m.entry(d.lint.name()).or_default().1 += 1;
        }
        m
    }

    /// Renders the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.render());
            out.push('\n');
            if !d.snippet.is_empty() {
                out.push_str(&format!("    | {}\n", d.snippet));
            }
        }
        out.push_str(&format!(
            "\nanalyzer: {} file(s), {} finding(s), {} suppressed\n",
            self.files,
            self.findings.len(),
            self.suppressed.len()
        ));
        out
    }

    /// Renders the machine-readable JSON report, schema
    /// `diffreg-analyzer-v3`: per-lint `counts` are zero-filled for every
    /// registered lint, so CI can assert on absent lints too.
    pub fn render_json(&self) -> String {
        fn diag_json(d: &Diagnostic) -> Json {
            Json::obj()
                .set("lint", d.lint.name())
                .set("path", d.path.as_str())
                .set("line", d.line as f64)
                .set("col", d.col as f64)
                .set("func", d.func.as_str())
                .set("message", d.message.as_str())
                .set("snippet", d.snippet.as_str())
        }
        let mut counts = Json::obj();
        for (name, (new, supp)) in self.counts() {
            counts = counts
                .set(name, Json::obj().set("new", new as f64).set("suppressed", supp as f64));
        }
        let j = Json::obj()
            .set("schema", "diffreg-analyzer-v3")
            .set("files", self.files as f64)
            .set("ok", self.ok())
            .set("suppressed", self.suppressed.len() as f64)
            .set("counts", counts)
            .set("findings", Json::Arr(self.findings.iter().map(diag_json).collect()));
        j.to_string()
    }
}

/// Runs the full check over `root`. `paths` (when non-empty) restricts
/// *analysis* to files under the given repo-relative prefixes — the call
/// graph still spans the whole workspace so interprocedural facts stay
/// correct.
pub fn check(root: &Path, paths: &[String]) -> std::io::Result<CheckReport> {
    let mut parsed: Vec<(SourceFile, FileAst)> = Vec::new();
    for rel in workspace_files(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let sf = SourceFile::parse(&rel, &text);
        let ast = parse_file(&sf);
        parsed.push((sf, ast));
    }
    let refs: Vec<(String, Option<String>, &FileAst)> = parsed
        .iter()
        .map(|(sf, ast)| (sf.path.clone(), sf.class.crate_name.clone(), ast))
        .collect();
    let graph = CallGraph::build(&refs);
    let mut report = CheckReport { findings: Vec::new(), suppressed: Vec::new(), files: 0 };
    for (sf, ast) in &parsed {
        if !paths.is_empty() && !paths.iter().any(|p| sf.path.starts_with(p.as_str())) {
            continue;
        }
        let rep = analyze_parsed(sf, ast, &graph);
        report.findings.extend(rep.findings);
        report.suppressed.extend(rep.suppressed);
        report.files += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn analyze(src: &str) -> FileReport {
        let sf = SourceFile::parse(&PathBuf::from("crates/comm/src/demo.rs"), src);
        analyze_file(&sf)
    }

    #[test]
    fn allow_on_preceding_line_suppresses() {
        let rep = analyze(
            "fn f(c: &C) {\n\
             // diffreg-allow(collective-consistency): the divergence is this test's point\n\
             if rank == 0 { c.barrier(); }\n\
             }\n",
        );
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.suppressed.len(), 1);
    }

    #[test]
    fn trailing_allow_suppresses_and_stacked_allows_work() {
        let rep = analyze(
            "fn f(c: &C) {\n\
             // diffreg-allow(no-unwrap-in-lib): lock poisoning is fatal by design\n\
             // diffreg-allow(collective-consistency): demo of stacking\n\
             if rank == 0 { c.barrier(); m.lock().unwrap(); }\n\
             }\n",
        );
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.suppressed.len(), 2);
    }

    #[test]
    fn allow_without_reason_is_rejected_and_reported() {
        let rep = analyze(
            "fn f(c: &C) {\n\
             // diffreg-allow(collective-consistency)\n\
             if rank == 0 { c.barrier(); }\n\
             }\n",
        );
        // The original finding survives AND the malformed allow is flagged.
        assert_eq!(rep.findings.len(), 2, "{:?}", rep.findings);
        assert!(rep.findings.iter().any(|d| d.lint == Lint::CollectiveConsistency));
        assert!(rep
            .findings
            .iter()
            .any(|d| d.lint == Lint::UnusedAllow && d.message.contains("no reason")));
    }

    #[test]
    fn stale_allow_is_reported() {
        let rep = analyze("// diffreg-allow(float-eq): nothing here anymore\nfn g() {}\n");
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].lint, Lint::UnusedAllow);
        assert!(rep.findings[0].message.contains("stale"));
    }

    #[test]
    fn doc_comments_mentioning_allow_syntax_are_not_suppressions() {
        let rep = analyze(
            "/// Suppress with `// diffreg-allow(float-eq): why` above the line.\n\
             pub fn documented() {}\n",
        );
        // No stale-allow finding for the prose mention.
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert!(rep.suppressed.is_empty());
    }

    #[test]
    fn unknown_lint_name_is_reported() {
        let rep = analyze("// diffreg-allow(not-a-lint): whatever\nfn g() {}\n");
        assert_eq!(rep.findings.len(), 1);
        assert!(rep.findings[0].message.contains("unknown lint"));
    }

    #[test]
    fn findings_carry_enclosing_fn() {
        let rep = analyze(
            "fn solve(c: &C) {\n\
                let x = m.lock().unwrap();\n\
             }\n",
        );
        let d = rep
            .findings
            .iter()
            .find(|d| d.lint == Lint::NoUnwrapInLib)
            .expect("unwrap finding");
        assert_eq!(d.func, "solve");
    }

    #[test]
    fn json_report_parses_back_with_v3_key_set() {
        let rep = CheckReport {
            findings: vec![Diagnostic {
                lint: Lint::FloatEq,
                path: "a.rs".into(),
                line: 3,
                col: 9,
                message: "m".into(),
                snippet: "x == 0.0".into(),
                func: "f".into(),
            }],
            suppressed: vec![],
            files: 1,
        };
        let j = Json::parse(&rep.render_json()).expect("valid json");
        // Objects serialize with sorted keys.
        let keys = |o: &Json| -> Vec<String> {
            let Json::Obj(m) = o else { panic!("not an object: {o:?}") };
            m.keys().cloned().collect()
        };
        assert_eq!(keys(&j), ["counts", "files", "findings", "ok", "schema", "suppressed"]);
        assert_eq!(j.get("schema").and_then(|s| s.as_str()), Some("diffreg-analyzer-v3"));
        let arr = j.get("findings").and_then(|a| a.as_arr()).expect("array");
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("lint").and_then(|s| s.as_str()), Some("float-eq"));
        assert_eq!(arr[0].get("func").and_then(|s| s.as_str()), Some("f"));
        let counts = j.get("counts").expect("counts object");
        let fe = counts.get("float-eq").expect("float-eq entry");
        assert_eq!(fe.get("new").and_then(|v| v.as_f64()), Some(1.0));
        // Every registered lint appears, zero-filled, with exactly the two
        // per-lint keys.
        for l in ALL_LINTS {
            let c = counts.get(l.name()).unwrap_or_else(|| panic!("no counts for {}", l.name()));
            assert_eq!(keys(c), ["new", "suppressed"]);
        }
    }
}
