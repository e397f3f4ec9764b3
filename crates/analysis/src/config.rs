//! Typed view of `analysis.toml`: per-lint path scopes and the justified
//! allowlist.
//!
//! The config is checked in at the workspace root and is itself part of
//! the contract: every allowlist entry **must** carry a non-empty `why`,
//! and entries that no longer match anything are reported as stale so
//! the file cannot rot into a pile of blanket exemptions.

use crate::toml::Value;

/// One justified exemption from a lint.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The lint this entry exempts (`determinism`, `panic-discipline`, ...).
    pub lint: String,
    /// Workspace-relative file the exemption applies to.
    pub file: String,
    /// Substring matched against the violation's snippet or source line.
    pub pattern: String,
    /// Maximum number of matches this entry may absorb (default 1); more
    /// matches than `count` surface as violations again.
    pub count: usize,
    /// The human justification.  Mandatory and non-empty by construction.
    pub why: String,
}

/// One `file::function` declared hot (allocation-free steady state).
/// `function` may be `*` for every function in the file.
#[derive(Debug, Clone)]
pub struct HotFn {
    /// Workspace-relative file path.
    pub file: String,
    /// Function name within the file, or `*`.
    pub function: String,
}

/// One id-keyed map the `edge-only-by-id` lint tracks: a field name,
/// optionally confined to one file (`<file>::<field>`) when the name is
/// too common to ban everywhere.
#[derive(Debug, Clone)]
pub struct IdMap {
    /// The only file the name is tracked in, or `None` for every file in
    /// the lint's scope.
    pub file: Option<String>,
    /// The field's identifier.
    pub field: String,
}

/// The whole parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Directories (workspace-relative) scanned for `.rs` sources.
    pub include: Vec<String>,
    /// Scope of the `determinism` lint.
    pub determinism_paths: Vec<String>,
    /// Functions declared hot for `hot-path-no-alloc` (and `by_id`-free
    /// for `edge-only-by-id`).
    pub hot_functions: Vec<HotFn>,
    /// Scope of the `integer-time` lint.
    pub integer_time_paths: Vec<String>,
    /// Scope of the `edge-only-by-id` lint.
    pub edge_paths: Vec<String>,
    /// Files allowed to touch the id-keyed maps (the public-API edge).
    pub edge_files: Vec<String>,
    /// The id-keyed maps `edge-only-by-id` tracks (default: `by_id`).
    pub id_maps: Vec<IdMap>,
    /// Scope of the `panic-discipline` lint.
    pub panic_paths: Vec<String>,
    /// Scope of the `unsafe-inventory` lint.
    pub unsafe_paths: Vec<String>,
    /// File holding the sharded parallel region.
    pub parallel_file: String,
    /// `self.<field>` accesses permitted inside the parallel region.
    pub parallel_allowed_self_fields: Vec<String>,
    /// Identifiers (barrier-merge machinery) forbidden inside it.
    pub parallel_forbidden: Vec<String>,
    /// Scope of the `dead-public` lint: library crates whose `pub` items
    /// must have a caller in another crate.
    pub dead_public_paths: Vec<String>,
    /// Every justified allowlist entry, across all lints.
    pub allows: Vec<AllowEntry>,
}

/// The lint names recognised in `[lints.<name>]` tables.
pub const LINT_NAMES: &[&str] = &[
    "determinism",
    "hot-path-no-alloc",
    "integer-time",
    "edge-only-by-id",
    "panic-discipline",
    "unsafe-inventory",
    "parallel-region",
    "dead-public",
];

impl AnalysisConfig {
    /// Builds the typed config from the text of an `analysis.toml`,
    /// validating the allowlist (`file`, `pattern` and a non-empty `why`
    /// are mandatory on every entry).
    pub fn from_toml(src: &str) -> Result<Self, String> {
        let doc = &crate::toml::parse(src)?;
        if let Some(lints) = doc.get("lints").and_then(Value::as_table) {
            for name in lints.keys() {
                if !LINT_NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "analysis.toml: unknown lint {name:?} (known: {LINT_NAMES:?})"
                    ));
                }
            }
        }
        let mut cfg = AnalysisConfig {
            include: doc.str_list("paths.include"),
            determinism_paths: doc.str_list("lints.determinism.paths"),
            integer_time_paths: doc.str_list("lints.integer-time.paths"),
            edge_paths: doc.str_list("lints.edge-only-by-id.paths"),
            edge_files: doc.str_list("lints.edge-only-by-id.edge_files"),
            panic_paths: doc.str_list("lints.panic-discipline.paths"),
            unsafe_paths: doc.str_list("lints.unsafe-inventory.paths"),
            parallel_file: doc
                .get("lints.parallel-region.file")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned(),
            parallel_allowed_self_fields: doc.str_list("lints.parallel-region.allowed_self_fields"),
            parallel_forbidden: doc.str_list("lints.parallel-region.forbidden"),
            dead_public_paths: doc.str_list("lints.dead-public.paths"),
            ..Default::default()
        };
        let mut id_maps = doc.str_list("lints.edge-only-by-id.id_maps");
        if id_maps.is_empty() {
            id_maps.push("by_id".to_owned());
        }
        for entry in id_maps {
            cfg.id_maps.push(match entry.split_once("::") {
                Some((file, field)) => IdMap {
                    file: Some(file.to_owned()),
                    field: field.to_owned(),
                },
                None => IdMap {
                    file: None,
                    field: entry,
                },
            });
        }
        if cfg.include.is_empty() {
            return Err("analysis.toml: [paths] include must list at least one directory".into());
        }
        for entry in doc.str_list("lints.hot-path-no-alloc.hot") {
            let (file, function) = entry
                .split_once("::")
                .ok_or_else(|| format!("hot entry {entry:?} must be \"<file>::<fn>\""))?;
            cfg.hot_functions.push(HotFn {
                file: file.to_owned(),
                function: function.to_owned(),
            });
        }
        for lint in LINT_NAMES {
            let Some(list) = doc.get(&format!("lints.{lint}.allow")) else {
                continue;
            };
            let items = list
                .as_array()
                .ok_or_else(|| format!("lints.{lint}.allow must be an array of tables"))?;
            for item in items {
                cfg.allows.push(parse_allow(lint, item)?);
            }
        }
        Ok(cfg)
    }
}

fn parse_allow(lint: &str, item: &Value) -> Result<AllowEntry, String> {
    let field = |name: &str| {
        item.get(name)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("allow entry for {lint} is missing {name:?}"))
    };
    let why = field("why")?;
    if why.trim().is_empty() {
        return Err(format!(
            "allow entry for {lint} has an empty \"why\" — every exemption needs a justification"
        ));
    }
    Ok(AllowEntry {
        lint: lint.to_owned(),
        file: field("file")?,
        pattern: field("pattern")?,
        count: item
            .get("count")
            .and_then(Value::as_int)
            .map(|n| n.max(0) as usize)
            .unwrap_or(1),
        why,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_a_full_config() {
        let cfg = AnalysisConfig::from_toml(
            r#"
            [paths]
            include = ["crates"]
            [lints.determinism]
            paths = ["crates/core/src"]
            [[lints.determinism.allow]]
            file = "crates/core/src/controller.rs"
            pattern = "Instant::now"
            count = 2
            why = "telemetry stage timing"
            [lints.edge-only-by-id]
            id_maps = ["by_id", "crates/scheduler/src/machine.rs::placement"]
            [lints.hot-path-no-alloc]
            hot = ["crates/scheduler/src/runqueue.rs::*", "a.rs::dispatch"]
            [lints.parallel-region]
            file = "crates/sim/src/sharded.rs"
            allowed_self_fields = ["shards"]
            forbidden = ["merge_traces"]
            "#,
        )
        .unwrap();
        assert_eq!(cfg.determinism_paths, vec!["crates/core/src"]);
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].count, 2);
        assert_eq!(cfg.hot_functions.len(), 2);
        assert_eq!(cfg.hot_functions[0].function, "*");
        assert_eq!(cfg.parallel_allowed_self_fields, vec!["shards"]);
        assert_eq!(cfg.id_maps.len(), 2);
        assert_eq!(cfg.id_maps[0].file, None);
        assert_eq!(
            cfg.id_maps[1].file.as_deref(),
            Some("crates/scheduler/src/machine.rs")
        );
        assert_eq!(cfg.id_maps[1].field, "placement");
    }

    #[test]
    fn rejects_unjustified_allow_entries() {
        let err = AnalysisConfig::from_toml(
            "[paths]\ninclude = [\"crates\"]\n[[lints.determinism.allow]]\nfile = \"a.rs\"\npattern = \"x\"\nwhy = \"\"\n",
        )
        .unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn rejects_unknown_lints() {
        let src = "[paths]\ninclude = [\"crates\"]\n[lints.typo-lint]\npaths = []\n";
        assert!(AnalysisConfig::from_toml(src)
            .unwrap_err()
            .contains("typo-lint"));
    }
}
