//! The analysis driver: workspace walk, parallel parse/analyze phases,
//! suppression handling, baseline application, and report rendering (human
//! and JSON v2).
//!
//! A `check` run has three phases:
//!
//! 1. **parse** (parallel) — every workspace file is read, lexed, and
//!    parsed to a [`FileAst`];
//! 2. **link** (serial) — one [`CallGraph`] is built over all ASTs, which
//!    also runs the interprocedural analyses (collective-consistency
//!    resolution, hot-set BFS);
//! 3. **analyze** (parallel) — per-file syntactic + dataflow lints run
//!    against the shared graph, allows are applied, findings enriched with
//!    their enclosing function and structural hash.
//!
//! Results are merged in sorted-path order and matched against the baseline
//! serially, so the report is byte-deterministic regardless of thread
//! count.

use crate::baseline::{fnv1a, Baseline};
use crate::callgraph::CallGraph;
use crate::dataflow;
use crate::lint::{parse_allow, Diagnostic, Lint, ALL_LINTS};
use crate::lints;
use crate::parse::{parse_file, FileAst};
use crate::scope::SourceFile;
use diffreg_telemetry::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

/// A file after phase 1: source model plus AST.
pub struct ParsedFile {
    /// Lexed/classified source.
    pub sf: SourceFile,
    /// Per-function ASTs.
    pub ast: FileAst,
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
    let mut raw = lints::run_all(file);
    dataflow::run_dataflow(file, ast, graph, &mut raw);
    for d in &mut raw {
        enrich(d, file, ast);
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
        let mut d = Diagnostic {
            lint: Lint::UnusedAllow,
            path: file.path.clone(),
            line: a.line,
            col: a.col,
            message: msg,
            snippet: file.snippet(a.line),
            func: String::new(),
            shash: 0,
        };
        enrich(&mut d, file, ast);
        findings.push(d);
    }
    findings.sort_by_key(|d| (d.line, d.col, d.lint));
    FileReport { findings, suppressed }
}

/// Fills a diagnostic's v2 baseline key: enclosing function name and the
/// FNV-1a structural hash over (lint, fn, code tokens of the line).
fn enrich(d: &mut Diagnostic, file: &SourceFile, ast: &FileAst) {
    d.func = ast.enclosing_fn(d.line).map(|f| f.name.clone()).unwrap_or_default();
    let mut parts: Vec<&str> = vec![d.lint.name(), &d.func];
    for &ti in &file.code {
        let t = &file.tokens[ti];
        if t.line == d.line {
            parts.push(&t.text);
        }
    }
    d.shash = fnv1a(&parts);
}

/// The aggregate result of a `check` run over the workspace.
pub struct CheckReport {
    /// Findings not covered by the baseline — these fail the gate.
    pub new_findings: Vec<Diagnostic>,
    /// Findings covered by the baseline (grandfathered).
    pub baselined: Vec<Diagnostic>,
    /// Per-site suppressed findings (accounting only).
    pub suppressed: Vec<Diagnostic>,
    /// Baseline entries that matched nothing (should be pruned).
    pub stale_baseline: Vec<String>,
    /// Number of files analyzed.
    pub files: usize,
}

impl CheckReport {
    /// True when the gate passes (no new findings).
    pub fn ok(&self) -> bool {
        self.new_findings.is_empty()
    }

    /// Per-lint counts as (new, baselined, suppressed), every registered
    /// lint present (zero-filled).
    pub fn counts(&self) -> BTreeMap<&'static str, (usize, usize, usize)> {
        let mut m: BTreeMap<&'static str, (usize, usize, usize)> =
            ALL_LINTS.iter().map(|l| (l.name(), (0, 0, 0))).collect();
        for d in &self.new_findings {
            m.entry(d.lint.name()).or_default().0 += 1;
        }
        for d in &self.baselined {
            m.entry(d.lint.name()).or_default().1 += 1;
        }
        for d in &self.suppressed {
            m.entry(d.lint.name()).or_default().2 += 1;
        }
        m
    }

    /// Renders the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.new_findings {
            out.push_str(&d.render());
            out.push('\n');
            if !d.snippet.is_empty() {
                out.push_str(&format!("    | {}\n", d.snippet));
            }
        }
        if !self.stale_baseline.is_empty() {
            out.push_str("\nstale baseline entries (run `fix-baseline` to prune):\n");
            for s in &self.stale_baseline {
                out.push_str(&format!("  {s}\n"));
            }
        }
        out.push_str(&format!(
            "\nanalyzer: {} file(s), {} new finding(s), {} baselined, {} suppressed\n",
            self.files,
            self.new_findings.len(),
            self.baselined.len(),
            self.suppressed.len()
        ));
        out
    }

    /// Renders the machine-readable JSON report, schema
    /// `diffreg-analyzer-v2`: adds per-lint `counts` (zero-filled for every
    /// registered lint, so CI can assert on absent lints too) and the v2
    /// baseline key fields (`func`, `hash`) on each finding.
    pub fn render_json(&self) -> String {
        fn diag_json(d: &Diagnostic) -> Json {
            Json::obj()
                .set("lint", d.lint.name())
                .set("path", d.path.as_str())
                .set("line", d.line as f64)
                .set("col", d.col as f64)
                .set("func", d.func.as_str())
                .set("hash", format!("{:016x}", d.shash).as_str())
                .set("message", d.message.as_str())
                .set("snippet", d.snippet.as_str())
        }
        let mut counts = Json::obj();
        for (name, (new, base, supp)) in self.counts() {
            counts = counts.set(
                name,
                Json::obj()
                    .set("new", new as f64)
                    .set("baselined", base as f64)
                    .set("suppressed", supp as f64),
            );
        }
        let j = Json::obj()
            .set("schema", "diffreg-analyzer-v2")
            .set("files", self.files as f64)
            .set("ok", self.ok())
            .set("suppressed", self.suppressed.len() as f64)
            .set("counts", counts)
            .set(
                "new_findings",
                Json::Arr(self.new_findings.iter().map(diag_json).collect()),
            )
            .set("baselined", Json::Arr(self.baselined.iter().map(diag_json).collect()))
            .set(
                "stale_baseline",
                Json::Arr(self.stale_baseline.iter().map(|s| Json::from(s.as_str())).collect()),
            );
        j.to_string()
    }
}

/// How many analysis threads to use. `jobs = 0` picks
/// `min(available_parallelism, 8)`.
fn thread_count(jobs: usize, items: usize) -> usize {
    let n = if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
    };
    n.clamp(1, items.max(1))
}

/// Applies `f` to every index in parallel, preserving index order in the
/// result. Results are deterministic regardless of thread count.
fn parallel_map<T, F>(items: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = thread_count(jobs, items);
    if threads <= 1 || items <= 1 {
        return (0..items).map(f).collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items).map(|_| None).collect());
    std::thread::scope(|s| {
        for t in 0..threads {
            let f = &f;
            let slots = &slots;
            s.spawn(move || {
                let mut mine: Vec<(usize, T)> = Vec::new();
                let mut i = t;
                while i < items {
                    mine.push((i, f(i)));
                    i += threads;
                }
                let mut guard = slots.lock().unwrap_or_else(|e| e.into_inner());
                for (i, v) in mine {
                    guard[i] = Some(v);
                }
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|o| o.expect("every index produced"))
        .collect()
}

/// Phase 1+2: reads and parses the given files (parallel), then links the
/// workspace call graph (serial).
pub fn parse_workspace(
    root: &Path,
    files: &[PathBuf],
    jobs: usize,
) -> std::io::Result<(Vec<ParsedFile>, CallGraph)> {
    let results: Vec<std::io::Result<ParsedFile>> = parallel_map(files.len(), jobs, |i| {
        let rel = &files[i];
        let text = std::fs::read_to_string(root.join(rel))?;
        let sf = SourceFile::parse(rel, &text);
        let ast = parse_file(&sf);
        Ok(ParsedFile { sf, ast })
    });
    let mut parsed = Vec::with_capacity(results.len());
    for r in results {
        parsed.push(r?);
    }
    let refs: Vec<(String, Option<String>, &FileAst)> = parsed
        .iter()
        .map(|p| (p.sf.path.clone(), p.sf.class.crate_name.clone(), &p.ast))
        .collect();
    let graph = CallGraph::build(&refs);
    Ok((parsed, graph))
}

/// Runs the full check over `root`, applying `baseline`. `paths` (when
/// non-empty) restricts *analysis* to files under the given repo-relative
/// prefixes — the call graph still spans the whole workspace so
/// interprocedural facts stay correct. `jobs = 0` = auto.
pub fn check_with(
    root: &Path,
    mut baseline: Baseline,
    paths: &[String],
    jobs: usize,
) -> std::io::Result<CheckReport> {
    let files = workspace_files(root)?;
    let (parsed, graph) = parse_workspace(root, &files, jobs)?;
    let selected: Vec<usize> = (0..parsed.len())
        .filter(|&i| {
            paths.is_empty() || paths.iter().any(|p| parsed[i].sf.path.starts_with(p.as_str()))
        })
        .collect();
    let reports: Vec<FileReport> = parallel_map(selected.len(), jobs, |k| {
        let p = &parsed[selected[k]];
        analyze_parsed(&p.sf, &p.ast, &graph)
    });
    let mut new_findings = Vec::new();
    let mut baselined = Vec::new();
    let mut suppressed = Vec::new();
    for rep in reports {
        suppressed.extend(rep.suppressed);
        for d in rep.findings {
            if baseline.matches(&d) {
                baselined.push(d);
            } else {
                new_findings.push(d);
            }
        }
    }
    Ok(CheckReport {
        new_findings,
        baselined,
        suppressed,
        stale_baseline: baseline.stale(),
        files: selected.len(),
    })
}

/// Runs the full check over `root`, applying `baseline` (all files, auto
/// thread count).
pub fn check(root: &Path, baseline: Baseline) -> std::io::Result<CheckReport> {
    check_with(root, baseline, &[], 0)
}

/// Computes the diagnostics that would form a fresh baseline for `root`
/// (all unsuppressed findings except [`Lint::UnusedAllow`], which must
/// always be fixed at the site).
pub fn baseline_candidates(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let files = workspace_files(root)?;
    let (parsed, graph) = parse_workspace(root, &files, 0)?;
    let mut out = Vec::new();
    for p in &parsed {
        out.extend(
            analyze_parsed(&p.sf, &p.ast, &graph)
                .findings
                .into_iter()
                .filter(|d| d.lint != Lint::UnusedAllow),
        );
    }
    Ok(out)
}

/// Sanity helper for tests: the distinct lints that fired in a report.
pub fn lints_fired(diags: &[Diagnostic]) -> BTreeSet<Lint> {
    diags.iter().map(|d| d.lint).collect()
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
        // No stale-allow finding for the prose mention (and the doc comment
        // still counts as documentation for the pub fn).
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
    fn findings_carry_enclosing_fn_and_structural_hash() {
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
        assert_ne!(d.shash, 0);
        // Same code in a different fn hashes differently (fn is in the key).
        let rep2 = analyze(
            "fn other_name(c: &C) {\n\
                let x = m.lock().unwrap();\n\
             }\n",
        );
        let d2 = rep2
            .findings
            .iter()
            .find(|d| d.lint == Lint::NoUnwrapInLib)
            .expect("unwrap finding");
        assert_ne!(d.shash, d2.shash);
    }

    #[test]
    fn json_report_parses_back_with_v2_counts() {
        let rep = CheckReport {
            new_findings: vec![Diagnostic {
                lint: Lint::FloatEq,
                path: "a.rs".into(),
                line: 3,
                col: 9,
                message: "m".into(),
                snippet: "x == 0.0".into(),
                func: "f".into(),
                shash: 0x1234,
            }],
            baselined: vec![],
            suppressed: vec![],
            stale_baseline: vec![],
            files: 1,
        };
        let j = Json::parse(&rep.render_json()).expect("valid json");
        assert_eq!(j.get("schema").and_then(|s| s.as_str()), Some("diffreg-analyzer-v2"));
        let arr = j.get("new_findings").and_then(|a| a.as_arr()).expect("array");
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("lint").and_then(|s| s.as_str()), Some("float-eq"));
        assert_eq!(arr[0].get("func").and_then(|s| s.as_str()), Some("f"));
        assert_eq!(arr[0].get("hash").and_then(|s| s.as_str()), Some("0000000000001234"));
        let counts = j.get("counts").expect("counts object");
        let fe = counts.get("float-eq").expect("float-eq entry");
        assert_eq!(fe.get("new").and_then(|v| v.as_f64()), Some(1.0));
        // Every registered lint appears, zero-filled.
        for l in ALL_LINTS {
            assert!(counts.get(l.name()).is_some(), "missing counts for {}", l.name());
        }
    }

    #[test]
    fn parallel_map_is_order_preserving() {
        let v = parallel_map(100, 4, |i| i * 3);
        assert_eq!(v, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        let v1 = parallel_map(7, 1, |i| i + 1);
        assert_eq!(v1, (0..7).map(|i| i + 1).collect::<Vec<_>>());
    }
}
