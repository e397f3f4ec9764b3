//! Violation and report types, and the allowlist reconciliation that
//! turns raw lint findings into the final verdict.

use crate::config::AllowEntry;

/// One lint finding at a specific source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The lint that fired.
    pub lint: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The matched construct (`Instant::now`, `self.loads`, ...); this is
    /// what allowlist patterns are tested against, alongside the raw
    /// source line.
    pub snippet: String,
    /// Human-readable explanation of the broken invariant.
    pub message: String,
}

/// One `unsafe` occurrence, for the inventory report.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// What the keyword introduces: `impl`, `fn`, `trait` or `block`.
    pub kind: String,
    /// Whether a `// SAFETY:` comment accompanies it.
    pub documented: bool,
}

/// The outcome of one analysis run.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// Findings that survived allowlist reconciliation.
    pub violations: Vec<Violation>,
    /// Findings absorbed by an allowlist entry, with that entry's index
    /// into [`AnalysisReport::allows`].
    pub allowed: Vec<(Violation, usize)>,
    /// Indices of allowlist entries that matched nothing — stale entries
    /// are themselves a failure, so exemptions cannot outlive their
    /// reason.
    pub stale_allows: Vec<usize>,
    /// The allowlist the run was reconciled against (for reporting).
    pub allows: Vec<AllowEntry>,
    /// Every `unsafe` occurrence found, documented or not (undocumented
    /// ones additionally surface as `unsafe-inventory` violations).
    pub unsafe_inventory: Vec<UnsafeSite>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl AnalysisReport {
    /// `true` when there are no violations and no stale allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty()
    }

    /// Reconciles raw findings against the allowlist: each entry may
    /// absorb up to `count` matching findings in its file; everything
    /// else (and every entry left unused) is reported.
    pub(crate) fn reconcile(
        raw: Vec<Violation>,
        allows: Vec<AllowEntry>,
        line_text: impl Fn(&Violation) -> String,
    ) -> Self {
        let mut used = vec![0usize; allows.len()];
        let mut report = AnalysisReport {
            allows,
            ..Default::default()
        };
        for v in raw {
            let line = line_text(&v);
            let slot = report.allows.iter().enumerate().position(|(k, a)| {
                a.lint == v.lint
                    && a.file == v.file
                    && used[k] < a.count
                    && (v.snippet.contains(&a.pattern) || line.contains(&a.pattern))
            });
            match slot {
                Some(k) => {
                    used[k] += 1;
                    report.allowed.push((v, k));
                }
                None => report.violations.push(v),
            }
        }
        report.stale_allows = used
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == 0)
            .map(|(k, _)| k)
            .collect();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(lint: &'static str, file: &str, snippet: &str) -> Violation {
        Violation {
            lint,
            file: file.to_owned(),
            line: 1,
            snippet: snippet.to_owned(),
            message: String::new(),
        }
    }

    fn allow(lint: &str, file: &str, pattern: &str, count: usize) -> AllowEntry {
        AllowEntry {
            lint: lint.to_owned(),
            file: file.to_owned(),
            pattern: pattern.to_owned(),
            count,
            why: "test".to_owned(),
        }
    }

    #[test]
    fn allow_entries_absorb_up_to_count_and_go_stale_when_unused() {
        let raw = vec![
            v("determinism", "a.rs", "Instant::now"),
            v("determinism", "a.rs", "Instant::now"),
            v("determinism", "a.rs", "Instant::now"),
            v("determinism", "b.rs", "HashMap"),
        ];
        let allows = vec![
            allow("determinism", "a.rs", "Instant::now", 2),
            allow("determinism", "c.rs", "HashSet", 1),
        ];
        let report = AnalysisReport::reconcile(raw, allows, |_| String::new());
        // Two absorbed, the third Instant::now and the HashMap remain.
        assert_eq!(report.allowed.len(), 2);
        assert_eq!(report.violations.len(), 2);
        // The c.rs entry matched nothing.
        assert_eq!(report.stale_allows, vec![1]);
        assert!(!report.is_clean());
    }

    #[test]
    fn wrong_lint_or_file_never_matches() {
        let raw = vec![v("panic-discipline", "a.rs", "unwrap()")];
        let allows = vec![allow("determinism", "a.rs", "unwrap()", 1)];
        let report = AnalysisReport::reconcile(raw, allows, |_| String::new());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.stale_allows, vec![0]);
    }
}
