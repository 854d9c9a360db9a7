//! `diffreg-analyzer` CLI: the static-analysis gate.
//!
//! ```text
//! diffreg-analyzer check [--json] [--root DIR] [--paths a,b]
//!                                                # gate: exit 1 on any finding
//! diffreg-analyzer list                          # describe the registered lints
//! ```
//!
//! Exit codes: 0 clean, 1 findings (gate fails), 2 usage/IO error.

#![forbid(unsafe_code)]

use diffreg_analyzer::engine;
use diffreg_analyzer::lint::ALL_LINTS;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: diffreg-analyzer <check [--json] [--root DIR] [--paths P1,P2] | list>");
    ExitCode::from(2)
}

/// Finds the workspace root: `--root` if given, else walk up from the
/// current directory to the first ancestor holding a `crates/` directory.
fn find_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(r) = explicit {
        return Some(r);
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut paths: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--paths" => match args.next() {
                Some(list) => {
                    paths.extend(
                        list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from),
                    );
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    match cmd.as_str() {
        "list" => {
            for l in ALL_LINTS {
                println!("{:<28} {}", l.name(), l.description());
            }
            ExitCode::SUCCESS
        }
        "check" => {
            let Some(root) = find_root(root_arg) else {
                eprintln!("diffreg-analyzer: cannot locate workspace root (try --root)");
                return ExitCode::from(2);
            };
            let report = match engine::check(&root, &paths) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("diffreg-analyzer: {e}");
                    return ExitCode::from(2);
                }
            };
            if json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        _ => usage(),
    }
}
