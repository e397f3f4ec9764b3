//! Typed view of `analysis.json`: per-lint path scopes and the justified
//! allowlist.
//!
//! The config is checked in at the workspace root and is itself part of
//! the contract: every allowlist entry **must** carry a non-empty `why`,
//! entries that no longer match anything are reported as stale so the
//! file cannot rot into a pile of blanket exemptions, and a key the
//! loader does not know is an error, so a misspelt scope cannot switch a
//! lint off.

use serde::Value;
use std::collections::BTreeMap;

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
    /// Every lint's `paths` scope, by lint name; empty for a lint that
    /// scopes by function (`hot-path-no-alloc`) or file (`parallel-region`).
    pub lint_paths: BTreeMap<String, Vec<String>>,
    /// Functions declared hot for `hot-path-no-alloc` (and `by_id`-free
    /// for `edge-only-by-id`).
    pub hot_functions: Vec<HotFn>,
    /// Files allowed to touch the id-keyed maps (the public-API edge).
    pub edge_files: Vec<String>,
    /// The id-keyed maps `edge-only-by-id` tracks (default: `by_id`).
    pub id_maps: Vec<IdMap>,
    /// File holding the sharded parallel region.
    pub parallel_file: String,
    /// `self.<field>` accesses permitted inside the parallel region.
    pub parallel_allowed_self_fields: Vec<String>,
    /// Identifiers (barrier-merge machinery) forbidden inside it.
    pub parallel_forbidden: Vec<String>,
    /// Every justified allowlist entry, across all lints.
    pub allows: Vec<AllowEntry>,
}

/// The lint names recognised under `lints`.
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

/// The keys a `lints.<lint>` object may hold: its scope, and `allow`.
fn lint_keys(lint: &str) -> &'static [&'static str] {
    match lint {
        "hot-path-no-alloc" => &["hot", "allow"],
        "edge-only-by-id" => &["paths", "edge_files", "id_maps", "allow"],
        "parallel-region" => &["file", "allowed_self_fields", "forbidden", "allow"],
        _ => &["paths", "allow"],
    }
}

impl AnalysisConfig {
    /// Builds the typed config from the text of an `analysis.json`,
    /// rejecting unknown lints and keys and validating the allowlist
    /// (`file`, `pattern` and a non-empty `why` are mandatory on every
    /// entry).
    pub fn from_json(src: &str) -> Result<Self, String> {
        let doc = &serde_json::from_str::<Value>(src).map_err(|e| format!("analysis.json: {e}"))?;
        check_keys(Some(doc), "the top level", &["paths", "lints"])?;
        check_keys(get(doc, "paths"), "paths", &["include"])?;
        check_keys(get(doc, "lints"), "lints", LINT_NAMES)?;
        let mut cfg = AnalysisConfig {
            include: str_list(doc, "paths.include"),
            edge_files: str_list(doc, "lints.edge-only-by-id.edge_files"),
            parallel_file: get(doc, "lints.parallel-region.file")
                .and_then(as_str)
                .unwrap_or_default()
                .to_owned(),
            parallel_allowed_self_fields: str_list(
                doc,
                "lints.parallel-region.allowed_self_fields",
            ),
            parallel_forbidden: str_list(doc, "lints.parallel-region.forbidden"),
            ..Default::default()
        };
        let mut id_maps = str_list(doc, "lints.edge-only-by-id.id_maps");
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
            return Err("analysis.json: paths.include must list at least one directory".into());
        }
        for entry in str_list(doc, "lints.hot-path-no-alloc.hot") {
            let (file, function) = entry
                .split_once("::")
                .ok_or_else(|| format!("hot entry {entry:?} must be \"<file>::<fn>\""))?;
            cfg.hot_functions.push(HotFn {
                file: file.to_owned(),
                function: function.to_owned(),
            });
        }
        for lint in LINT_NAMES {
            let at = format!("lints.{lint}");
            check_keys(get(doc, &at), &at, lint_keys(lint))?;
            let paths = str_list(doc, &format!("{at}.paths"));
            cfg.lint_paths.insert((*lint).to_owned(), paths);
            let Some(list) = get(doc, &format!("{at}.allow")) else {
                continue;
            };
            let items = list
                .as_arr()
                .ok_or_else(|| format!("lints.{lint}.allow must be an array of objects"))?;
            for item in items {
                cfg.allows.push(parse_allow(lint, item)?);
            }
        }
        Ok(cfg)
    }

    /// The `paths` scope of `lint`; empty when it has none.
    pub(crate) fn paths(&self, lint: &str) -> &[String] {
        self.lint_paths.get(lint).map_or(&[], Vec::as_slice)
    }
}

/// The value at the dotted `path` below `doc` (`"lints.determinism.paths"`).
fn get<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(doc, |value, key| {
        value
            .as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    })
}

fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The strings of the array at `path`; empty when it is absent.
fn str_list(doc: &Value, path: &str) -> Vec<String> {
    get(doc, path)
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|v| as_str(v).map(str::to_owned))
        .collect()
}

/// Fails unless `table` (where present) is an object whose keys are all
/// in `known`, each once.  A misspelt key (`"path"` for `"paths"`) would
/// otherwise leave its lint's scope empty and the lint silently off.
fn check_keys(table: Option<&Value>, at: &str, known: &[&str]) -> Result<(), String> {
    let Some(table) = table else { return Ok(()) };
    let keys = table
        .as_obj()
        .ok_or_else(|| format!("analysis.json: {at} must be an object"))?;
    for (i, (key, _)) in keys.iter().enumerate() {
        if !known.contains(&key.as_str()) || keys[..i].iter().any(|(k, _)| k == key) {
            return Err(format!(
                "analysis.json: unknown or duplicate key {key:?} in {at} (known: {known:?})"
            ));
        }
    }
    Ok(())
}

fn parse_allow(lint: &str, item: &Value) -> Result<AllowEntry, String> {
    let known = ["file", "pattern", "count", "why"];
    check_keys(Some(item), &format!("an allow entry for {lint}"), &known)?;
    let field = |name: &str| {
        get(item, name)
            .and_then(as_str)
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
        count: match get(item, "count") {
            Some(Value::Num(n)) => n.as_i64().map_or(1, |n| n.max(0) as usize),
            _ => 1,
        },
        why,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_a_full_config() {
        let cfg = AnalysisConfig::from_json(
            r#"
            {
              "paths": {
                "include": ["crates"]
              },
              "lints": {
                "determinism": {
                  "paths": ["crates/core/src"],
                  "allow": [
                    {
                      "file": "crates/core/src/controller.rs",
                      "pattern": "Instant::now",
                      "count": 2,
                      "why": "telemetry stage timing"
                    }
                  ]
                },
                "edge-only-by-id": {
                  "id_maps": ["by_id", "crates/scheduler/src/machine.rs::placement"]
                },
                "hot-path-no-alloc": {
                  "hot": ["crates/scheduler/src/runqueue.rs::*", "a.rs::dispatch"]
                },
                "parallel-region": {
                  "file": "crates/sim/src/sharded.rs",
                  "allowed_self_fields": ["shards"],
                  "forbidden": ["merge_traces"]
                }
              }
            }
            "#,
        )
        .unwrap();
        assert_eq!(cfg.paths("determinism"), ["crates/core/src"]);
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

    /// A config with `paths.include` set and `lints` as given.
    fn with_lints(lints: &str) -> Result<AnalysisConfig, String> {
        AnalysisConfig::from_json(&format!(
            r#"{{
              "paths": {{
                "include": ["crates"]
              }},
              "lints": {lints}
            }}"#
        ))
    }

    #[test]
    fn rejects_unjustified_allow_entries() {
        let err = with_lints(
            r#"{
              "determinism": {
                "allow": [
                  {
                    "file": "a.rs",
                    "pattern": "x",
                    "why": ""
                  }
                ]
              }
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn rejects_unknown_lints() {
        let err = with_lints(
            r#"{
              "typo-lint": {
                "paths": []
              }
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("typo-lint"), "{err}");
    }

    #[test]
    fn rejects_unknown_and_duplicate_top_level_keys() {
        let err = AnalysisConfig::from_json(
            r#"{
              "paths": {
                "include": ["crates"]
              },
              "lint": {}
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("\"lint\""), "{err}");
        // A repeated key would otherwise be read once and silently dropped.
        let err = AnalysisConfig::from_json(
            r#"{
              "paths": {
                "include": ["crates"]
              },
              "paths": {
                "include": ["tests"]
              }
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("duplicate key \"paths\""), "{err}");
    }

    #[test]
    fn rejects_unknown_paths_keys() {
        let err = AnalysisConfig::from_json(
            r#"{
              "paths": {
                "includes": ["crates"]
              }
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("\"includes\""), "{err}");
    }

    #[test]
    fn rejects_unknown_lint_keys() {
        // A misspelt scope would leave the lint scanning nothing.
        let err = with_lints(
            r#"{
              "determinism": {
                "path": ["crates"]
              }
            }"#,
        )
        .unwrap_err();
        assert!(
            err.contains("\"path\"") && err.contains("lints.determinism"),
            "{err}"
        );
        // Another lint's scope key is unknown here too.
        let err = with_lints(
            r#"{
              "determinism": {
                "hot": []
              }
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("\"hot\""), "{err}");
    }

    #[test]
    fn rejects_unknown_allow_entry_keys() {
        let err = with_lints(
            r#"{
              "determinism": {
                "allow": [
                  {
                    "file": "a.rs",
                    "pattern": "x",
                    "counts": 2,
                    "why": "a typo would leave count at its default"
                  }
                ]
              }
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("\"counts\""), "{err}");
    }
}
