//! Lint identifiers, diagnostics, and the per-site suppression protocol.
//!
//! Every finding the analyzer emits is a [`Diagnostic`] tagged with a
//! [`Lint`]. A finding can be silenced at its site with a suppression
//! comment carrying a mandatory reason:
//!
//! ```text
//! // diffreg-allow(float-eq): exact-zero guard, 0.0 is the computed sentinel
//! if den == 0.0 { ... }
//! ```
//!
//! The comment applies to the *next* code line when it stands alone, or to
//! its own line when it trails code. Several stacked `diffreg-allow`
//! comments all apply to the code line below them. An allow without a
//! reason is ignored (and will itself be reported), so every suppression in
//! the tree documents *why* the invariant is waived.

use std::fmt;

/// The project lints, in registry order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// A rank-dependent branch across which the *resolved* collective
    /// sequence diverges — the interprocedural, path-sensitive upgrade of
    /// the old syntactic `collective-in-rank-branch` lint and the static
    /// counterpart of the runtime collective-ordering contract checker.
    /// Each arm (plus the function continuation, empty for arms that
    /// return early) is lowered through the workspace call graph to its
    /// collective sequence; any mismatch is a guaranteed hang on a real
    /// machine. Symmetric code that merely *computes* differently per rank
    /// no longer fires.
    CollectiveConsistency,
    /// A `try_*` comm result / pending handle bound by a `let` but not
    /// consumed on every control-flow path before scope exit. A dropped
    /// pending operation is a silent protocol desync; a dropped `Result`
    /// swallows a `CommError`.
    UnwaitedHandle,
    /// An allocating call (`Vec::new`, `with_capacity`, `vec!`, `collect`,
    /// `to_vec`, ...) in a function statically reachable from the
    /// `newton.iter` / `newton.pcg` / `interp.eval` telemetry spans without
    /// going through `grid::arena` — the compile-time gate for the
    /// `zero_alloc.rs` steady-state invariant.
    AllocInHotPath,
    /// A `CommError` result that is discarded (`let _ =`), collapsed
    /// (`.ok()`, `.unwrap_or*`) or matched into an empty `Err` arm without
    /// reaching a typed recovery path.
    SwallowedCommError,
    /// `unwrap()` / `expect()` / `panic!` in non-test library code of the
    /// solver crates. Library paths must surface typed errors
    /// (`CommError`, ...) or carry an explicit allow with a reason.
    NoUnwrapInLib,
    /// `==` / `!=` between float-typed operands outside tests. Exact float
    /// equality is almost always wrong after arithmetic; intentional
    /// exact-zero guards must say so in an allow reason.
    FloatEq,
    /// A mutating call or assignment inside `debug_assert!` — the side
    /// effect silently disappears in release builds.
    DebugAssertSideEffect,
    /// A `diffreg-allow` comment that suppressed nothing (stale), carries an
    /// unknown lint name, or is missing its reason.
    UnusedAllow,
}

/// All lints, in registry order.
pub const ALL_LINTS: &[Lint] = &[
    Lint::CollectiveConsistency,
    Lint::UnwaitedHandle,
    Lint::AllocInHotPath,
    Lint::SwallowedCommError,
    Lint::NoUnwrapInLib,
    Lint::FloatEq,
    Lint::DebugAssertSideEffect,
    Lint::UnusedAllow,
];

impl Lint {
    /// The kebab-case name used in output and `diffreg-allow(...)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Lint::CollectiveConsistency => "collective-consistency",
            Lint::UnwaitedHandle => "unwaited-handle",
            Lint::AllocInHotPath => "alloc-in-hot-path",
            Lint::SwallowedCommError => "swallowed-comm-error",
            Lint::NoUnwrapInLib => "no-unwrap-in-lib",
            Lint::FloatEq => "float-eq",
            Lint::DebugAssertSideEffect => "debug-assert-side-effect",
            Lint::UnusedAllow => "unused-allow",
        }
    }

    /// Parses a lint name as written in a suppression comment.
    pub fn from_name(name: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.name() == name)
    }

    /// One-line description for `diffreg-analyzer list`.
    pub fn description(self) -> &'static str {
        match self {
            Lint::CollectiveConsistency => {
                "collective sequence diverges across a rank-dependent branch (static hang proof)"
            }
            Lint::UnwaitedHandle => {
                "try_*/pending comm result not consumed on every path before scope exit"
            }
            Lint::AllocInHotPath => {
                "allocation outside grid::arena in a fn reachable from a hot telemetry span"
            }
            Lint::SwallowedCommError => "CommError dropped or collapsed without typed recovery",
            Lint::NoUnwrapInLib => "unwrap()/expect()/panic! in non-test solver library code",
            Lint::FloatEq => "==/!= between float-typed operands outside tests",
            Lint::DebugAssertSideEffect => "side effect inside debug_assert! (vanishes in release)",
            Lint::UnusedAllow => "stale or malformed diffreg-allow suppression",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Path of the offending file, relative to the repo root.
    pub path: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// 1-based column of the finding.
    pub col: usize,
    /// Human-readable explanation with site context.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
    /// Name of the enclosing function (`""` for file-level findings).
    pub func: String,
}

impl Diagnostic {
    /// Renders as `path:line:col: [lint] message`.
    pub fn render(&self) -> String {
        format!("{}:{}:{}: [{}] {}", self.path, self.line, self.col, self.lint, self.message)
    }
}

/// A parsed `diffreg-allow` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The lint being waived.
    pub lint: Option<Lint>,
    /// The lint name as written (for unknown-name reporting).
    pub name: String,
    /// The justification after the colon (trimmed); empty = malformed.
    pub reason: String,
    /// 1-based line the comment sits on.
    pub line: usize,
    /// 1-based column of the comment token.
    pub col: usize,
}

/// Extracts a `diffreg-allow(<lint>): <reason>` clause from a comment body.
pub fn parse_allow(comment: &str, line: usize, col: usize) -> Option<Allow> {
    let start = comment.find("diffreg-allow(")?;
    let rest = &comment[start + "diffreg-allow(".len()..];
    let close = rest.find(')')?;
    let name = rest[..close].trim().to_string();
    let after = &rest[close + 1..];
    let reason = after.strip_prefix(':').unwrap_or("").trim().to_string();
    Some(Allow { lint: Lint::from_name(&name), name, reason, line, col })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_round_trip() {
        for &l in ALL_LINTS {
            assert_eq!(Lint::from_name(l.name()), Some(l));
        }
        assert_eq!(Lint::from_name("no-such-lint"), None);
    }

    #[test]
    fn parse_allow_extracts_name_and_reason() {
        let a = parse_allow("// diffreg-allow(float-eq): exact-zero guard", 3, 5)
            .expect("allow parsed");
        assert_eq!(a.lint, Some(Lint::FloatEq));
        assert_eq!(a.reason, "exact-zero guard");
        assert_eq!((a.line, a.col), (3, 5));
    }

    #[test]
    fn parse_allow_flags_missing_reason_and_unknown_lint() {
        let a = parse_allow("// diffreg-allow(float-eq)", 1, 1).expect("parsed");
        assert!(a.reason.is_empty());
        let b = parse_allow("// diffreg-allow(bogus): because", 1, 1).expect("parsed");
        assert!(b.lint.is_none());
        assert_eq!(b.name, "bogus");
        assert!(parse_allow("// ordinary comment", 1, 1).is_none());
    }
}
