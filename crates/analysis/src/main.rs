//! `rrs-analysis` — run the workspace invariant linter.
//!
//! ```text
//! cargo run -p rrs-analysis -- [--deny] [--root <dir>] [--config <file>] [--list]
//! ```
//!
//! Without flags the run is report-only (exit 0).  With `--deny` any
//! violation, stale allowlist entry, or config error exits non-zero —
//! this is the mode CI blocks on.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut list = false;
    let mut root = rrs_analysis::default_root();
    let mut config_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--list" => list = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--config" => match args.next() {
                Some(file) => config_path = Some(PathBuf::from(file)),
                None => return usage("--config needs a file"),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    if list {
        println!("lints enforced by rrs-analysis (scopes in analysis.json):");
        for name in rrs_analysis::config::LINT_NAMES {
            println!("  {name}");
        }
        return ExitCode::SUCCESS;
    }
    let config_path = config_path.unwrap_or_else(|| root.join("analysis.json"));
    let config = match rrs_analysis::load_config(&config_path) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("rrs-analysis: config error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match rrs_analysis::analyze_workspace(&root, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rrs-analysis: {e}");
            return ExitCode::FAILURE;
        }
    };

    for v in &report.violations {
        println!(
            "violation[{}] {}:{}: {} — {}",
            v.lint, v.file, v.line, v.snippet, v.message
        );
    }
    for idx in &report.stale_allows {
        let a = &report.allows[*idx];
        println!(
            "stale-allow[{}] {}: pattern {:?} matched nothing — delete the entry (why was: {})",
            a.lint, a.file, a.pattern, a.why
        );
    }

    let documented = report
        .unsafe_inventory
        .iter()
        .filter(|s| s.documented)
        .count();
    println!(
        "unsafe inventory: {} site(s), {} documented",
        report.unsafe_inventory.len(),
        documented
    );
    for site in &report.unsafe_inventory {
        println!(
            "  unsafe {} at {}:{} {}",
            site.kind,
            site.file,
            site.line,
            if site.documented {
                "(SAFETY documented)"
            } else {
                "(UNDOCUMENTED)"
            }
        );
    }
    println!(
        "scanned {} files: {} violation(s), {} allowed by {} justified entr{}, {} stale",
        report.files_scanned,
        report.violations.len(),
        report.allowed.len(),
        report.allows.len(),
        if report.allows.len() == 1 { "y" } else { "ies" },
        report.stale_allows.len(),
    );

    if report.is_clean() {
        println!("rrs-analysis: clean");
        ExitCode::SUCCESS
    } else if deny {
        eprintln!("rrs-analysis: FAILED (--deny)");
        ExitCode::FAILURE
    } else {
        println!("rrs-analysis: violations found (report-only; pass --deny to fail)");
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("rrs-analysis: {msg}");
    eprintln!("usage: rrs-analysis [--deny] [--root <dir>] [--config <file>] [--list]");
    ExitCode::FAILURE
}
