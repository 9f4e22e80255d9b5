//! The two halves of the lint acceptance criteria: every lint fires on its
//! planted-violation fixture, and the real workspace is lint-clean.

use std::path::{Path, PathBuf};

use wsvd_analyze::lint::{lint_source, lint_workspace, Finding, RULES};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/analyze")
        .to_path_buf()
}

fn lint_fixture(file: &str, pretend: &str) -> Vec<Finding> {
    let path = workspace_root().join("crates/analyze/fixtures").join(file);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    lint_source(pretend, &src)
}

#[test]
fn sink_guard_fires_on_fixture() {
    let f = lint_fixture("sink_guard.rs", "crates/core/src/fixture.rs");
    // Exactly the unguarded producer, not the guarded one below it.
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "sink-guard");
    assert!(f[0].message.contains("trace.instant"), "{}", f[0].message);
}

#[test]
fn wall_clock_fires_on_fixture() {
    let f = lint_fixture("wall_clock.rs", "crates/core/src/fixture.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "no-wall-clock");
}

#[test]
fn hashmap_fires_on_fixture() {
    let f = lint_fixture("hashmap.rs", "crates/metrics/src/fixture.rs");
    assert_eq!(f.len(), 2, "use + field: {f:?}");
    assert!(f.iter().all(|x| x.rule == "no-hashmap"));
}

#[test]
fn float_eq_fires_on_fixture() {
    let f = lint_fixture("float_eq.rs", "crates/core/src/wcycle.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "no-float-eq");
}

#[test]
fn every_rule_has_a_firing_fixture() {
    let fired: Vec<&str> = [
        lint_fixture("sink_guard.rs", "crates/core/src/fixture.rs"),
        lint_fixture("wall_clock.rs", "crates/core/src/fixture.rs"),
        lint_fixture("hashmap.rs", "crates/metrics/src/fixture.rs"),
        lint_fixture("float_eq.rs", "crates/core/src/wcycle.rs"),
        lint_fixture("partial_cmp.rs", "crates/core/src/fixture.rs"),
        lint_fixture("fma.rs", "crates/linalg/src/fixture.rs"),
    ]
    .iter()
    .flat_map(|fs| fs.iter().map(|f| f.rule))
    .collect();
    for rule in RULES {
        assert!(fired.contains(&rule), "no fixture exercises `{rule}`");
    }
}

#[test]
fn partial_cmp_fires_on_fixture() {
    let f = lint_fixture("partial_cmp.rs", "crates/core/src/fixture.rs");
    // Exactly the planted sort comparator, not the pragma'd partial order.
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "no-partial-cmp-sort");
}

#[test]
fn fma_fires_on_fixture() {
    let f = lint_fixture("fma.rs", "crates/linalg/src/fixture.rs");
    // `mul_add`, the FMA target feature and its intrinsic; not the AVX2-only
    // variant.
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [8, 13, 15], "{f:?}");
    assert!(f.iter().all(|x| x.rule == "no-fma"));
}

#[test]
fn workspace_is_lint_clean() {
    let findings = lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "workspace lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
