//! Source-level invariant lints.
//!
//! Previous PRs established project contracts by convention; these lints
//! make them machine-checked. The catalog (see DESIGN.md §12 for the full
//! rationale per invariant):
//!
//! * **`sink-guard`** — every `TraceSink` / `MetricsSink` / `HealthSink`
//!   producer call happens inside a function that consulted
//!   `is_enabled()` first (the zero-cost contract: disabled sinks must not
//!   even build their event arguments). Functions that are documented
//!   caller-guarded helpers carry a `// wsvd-lint: allow(sink-guard)`
//!   pragma.
//! * **`no-wall-clock`** — no `std::time::{Instant, SystemTime}` inside
//!   simulated-time crates: wall-clock reads there would leak host timing
//!   into deterministic simulated seconds. The bench harness (host-side
//!   timing) and this crate are exempt.
//! * **`no-hashmap`** — no `HashMap` in registry/exposition code paths
//!   (metrics, trace, health, the plan cache, bench reports, the
//!   certificate store): iteration order must be deterministic so snapshots
//!   and baselines are byte-identical.
//! * **`no-float-eq`** — no float `==` / `!=` against float literals in
//!   convergence logic (the Jacobi sweeps, the W-cycle driver, the
//!   convergence verifier): exact float comparison there encodes a
//!   tolerance decision by accident. Kernel zero-guards elsewhere (e.g.
//!   `beta == 0.0` short-circuits in Householder) are deliberate exact
//!   sentinel tests and stay out of scope.
//! * **`no-partial-cmp-sort`** — no `partial_cmp` float orderings anywhere
//!   in the workspace crates: `.partial_cmp(..).unwrap()` panics on NaN
//!   (PR 1 fixed exactly this in `profile.rs`, then the pattern reappeared
//!   in eight more sorting paths), and an `unwrap_or(Equal)` fallback makes
//!   the order silently input-dependent. Use `total_cmp`, adding an
//!   explicit tiebreak where equal keys must resolve deterministically. A
//!   deliberate partial order carries a
//!   `// wsvd-lint: allow(no-partial-cmp-sort)` pragma with its reason.
//! * **`no-fma`** — no fused multiply-add in the numerical crates (linalg,
//!   jacobi, batched, core, baselines): no `mul_add`, no `_mm*_fmadd` /
//!   `fmsub` (or `fnmadd` / `fnmsub`) intrinsics, and no
//!   `target_feature(enable = "…fma…")`. A fused multiply-add rounds once
//!   where the scalar reference rounds twice, so it would break the
//!   bit-identical summation order of the host kernels (DESIGN.md §6) and
//!   with it every sweep count and simulated time.
//!
//! Suppression: `// wsvd-lint: allow(<rule>)` on the finding's line, the
//! line above it, or within the three lines above the enclosing `fn` header
//! suppresses that rule there. Test regions (`#[cfg(test)]` items, files
//! under `tests/`) are skipped entirely.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::lex::{enclosing_fn, fn_spans, mask_non_code, test_region_lines};

/// One lint hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`sink-guard`, `no-wall-clock`, ...).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Every rule identifier in the catalog.
pub const RULES: [&str; 6] = [
    "sink-guard",
    "no-wall-clock",
    "no-hashmap",
    "no-float-eq",
    "no-partial-cmp-sort",
    "no-fma",
];

const SINK_RECEIVERS: [&str; 4] = ["trace", "metrics", "health", "sink"];
const SINK_PRODUCERS: [&str; 11] = [
    "span",
    "instant",
    "counter",
    "record",
    "counter_add",
    "gauge_set",
    "observe",
    "plan_selected",
    "not_converged",
    "batch_check",
    "nonfinite",
];

/// Whether `sink-guard` applies to this workspace-relative path: producer
/// call sites, i.e. everything but the sink-defining crates themselves,
/// the host-side bench/analyze tooling, and tests.
fn sink_guard_scope(rel: &str) -> bool {
    rel.ends_with(".rs")
        && rel.starts_with("crates/")
        && !rel.starts_with("crates/trace/")
        && !rel.starts_with("crates/metrics/")
        && !rel.starts_with("crates/health/")
        && !rel.starts_with("crates/analyze/")
        && !rel.starts_with("crates/bench/")
        && rel.contains("/src/")
}

/// Whether `no-wall-clock` applies: every simulated-time crate. The bench
/// harness measures real host time on purpose; wsvd-analyze never runs
/// simulated work.
fn wall_clock_scope(rel: &str) -> bool {
    rel.ends_with(".rs")
        && rel.starts_with("crates/")
        && !rel.starts_with("crates/bench/")
        && !rel.starts_with("crates/analyze/")
        && rel.contains("/src/")
}

/// Whether `no-hashmap` applies: registry / exposition / cache code whose
/// iteration order feeds deterministic output.
fn hashmap_scope(rel: &str) -> bool {
    let files = [
        "crates/batched/src/autotune.rs",
        "crates/analyze/src/certify.rs",
        "crates/bench/src/metrics_report.rs",
    ];
    files.contains(&rel)
        || ((rel.starts_with("crates/metrics/")
            || rel.starts_with("crates/trace/")
            || rel.starts_with("crates/health/"))
            && rel.contains("/src/")
            && rel.ends_with(".rs"))
}

/// Whether `no-partial-cmp-sort` applies: every workspace crate's source.
/// The pattern is never load-bearing — all nine historical sites were
/// orderings over finite floats where `total_cmp` is drop-in — so the scope
/// is the whole tree rather than a hot-path allowlist.
fn partial_cmp_scope(rel: &str) -> bool {
    rel.ends_with(".rs") && rel.starts_with("crates/") && rel.contains("/src/")
}

/// Whether `no-float-eq` applies: convergence-decision code.
fn float_eq_scope(rel: &str) -> bool {
    [
        "crates/jacobi/src/onesided.rs",
        "crates/jacobi/src/evd.rs",
        "crates/core/src/wcycle.rs",
        "crates/linalg/src/verify.rs",
    ]
    .contains(&rel)
}

/// Whether `no-fma` applies: the crates whose float arithmetic feeds the
/// simulated numerics.
fn fma_scope(rel: &str) -> bool {
    ["linalg", "jacobi", "batched", "core", "baselines"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
        && rel.ends_with(".rs")
}

/// Lints one file's source. `rel` is the workspace-relative path (unix
/// separators) used for rule scoping; fixtures pass pretend paths.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let masked = mask_non_code(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();
    let tests = test_region_lines(&masked, src);
    let spans = fn_spans(&masked);
    let in_tests = |line: usize| tests.iter().any(|&(s, e)| s <= line && line < e);
    let allowed = |rule: &str, line: usize| {
        let tag = format!("wsvd-lint: allow({rule})");
        let near = |l: usize| l >= 1 && raw_lines.get(l - 1).is_some_and(|s| s.contains(&tag));
        if near(line) || line > 1 && near(line - 1) {
            return true;
        }
        if let Some((header, _)) = enclosing_fn(&spans, line) {
            (header.saturating_sub(3)..=header).any(near)
        } else {
            false
        }
    };
    let mut findings = Vec::new();

    if sink_guard_scope(rel) {
        for (idx, line) in masked_lines.iter().enumerate() {
            let l = idx + 1;
            if in_tests(l) {
                continue;
            }
            let Some(call) = find_producer_call(line) else {
                continue;
            };
            // The enclosing function must consult is_enabled() somewhere —
            // the established idiom binds `let traced = trace.is_enabled();`
            // up front and guards every producer under it.
            let guarded = match enclosing_fn(&spans, l) {
                Some((s, e)) => masked_lines[s - 1..e.min(masked_lines.len())]
                    .iter()
                    .any(|fl| fl.contains("is_enabled()")),
                None => false,
            };
            if !guarded && !allowed("sink-guard", l) {
                findings.push(Finding {
                    rule: "sink-guard",
                    file: rel.to_string(),
                    line: l,
                    message: format!(
                        "sink producer `{call}` in a function that never checks is_enabled(); \
                         guard it or mark the fn `// wsvd-lint: allow(sink-guard)` if the \
                         caller guards"
                    ),
                });
            }
        }
    }

    if wall_clock_scope(rel) {
        for (idx, line) in masked_lines.iter().enumerate() {
            let l = idx + 1;
            if in_tests(l) || allowed("no-wall-clock", l) {
                continue;
            }
            for pat in ["std::time", "Instant::now", "SystemTime"] {
                if line.contains(pat) {
                    findings.push(Finding {
                        rule: "no-wall-clock",
                        file: rel.to_string(),
                        line: l,
                        message: format!(
                            "`{pat}` in a simulated-time crate; wall-clock reads break \
                             deterministic simulated seconds"
                        ),
                    });
                    break;
                }
            }
        }
    }

    if hashmap_scope(rel) {
        for (idx, line) in masked_lines.iter().enumerate() {
            let l = idx + 1;
            if in_tests(l) || allowed("no-hashmap", l) {
                continue;
            }
            if has_word(line, "HashMap") {
                findings.push(Finding {
                    rule: "no-hashmap",
                    file: rel.to_string(),
                    line: l,
                    message: "`HashMap` in registry/exposition code; iteration order must be \
                              deterministic — use `BTreeMap`"
                        .to_string(),
                });
            }
        }
    }

    if partial_cmp_scope(rel) {
        for (idx, line) in masked_lines.iter().enumerate() {
            let l = idx + 1;
            if in_tests(l) || allowed("no-partial-cmp-sort", l) {
                continue;
            }
            if has_word(line, "partial_cmp") {
                findings.push(Finding {
                    rule: "no-partial-cmp-sort",
                    file: rel.to_string(),
                    line: l,
                    message: "`partial_cmp` float ordering is NaN-unsafe (panics on unwrap, or \
                              silently reorders under unwrap_or); use `total_cmp` with an \
                              explicit deterministic tiebreak"
                        .to_string(),
                });
            }
        }
    }

    if float_eq_scope(rel) {
        for (idx, line) in masked_lines.iter().enumerate() {
            let l = idx + 1;
            if in_tests(l) || allowed("no-float-eq", l) {
                continue;
            }
            if float_literal_comparison(line) {
                findings.push(Finding {
                    rule: "no-float-eq",
                    file: rel.to_string(),
                    line: l,
                    message: "float literal compared with == / != in convergence logic; use a \
                              tolerance"
                        .to_string(),
                });
            }
        }
    }

    if fma_scope(rel) {
        for (idx, (line, raw)) in masked_lines.iter().zip(&raw_lines).enumerate() {
            let l = idx + 1;
            if in_tests(l) || allowed("no-fma", l) {
                continue;
            }
            if let Some(what) = fma_use(line, raw) {
                findings.push(Finding {
                    rule: "no-fma",
                    file: rel.to_string(),
                    line: l,
                    message: format!(
                        "{what}: a fused multiply-add rounds once where the scalar reference \
                         rounds twice, breaking the bit-identical host kernels"
                    ),
                });
            }
        }
    }

    findings
}

/// The fused multiply-add on a line, if any: a `mul_add` call, an FMA
/// intrinsic, or a `target_feature(...)` attribute whose (raw, unmasked)
/// arguments enable `fma`.
fn fma_use(masked: &str, raw: &str) -> Option<String> {
    if has_word(masked, "mul_add") {
        return Some("`mul_add`".to_string());
    }
    let words = masked.split(|c: char| !(c.is_alphanumeric() || c == '_'));
    for w in words {
        let fused = ["fmadd", "fmsub", "fnmadd", "fnmsub"]
            .iter()
            .any(|f| w.contains(f));
        if w.starts_with("_mm") && fused {
            return Some(format!("FMA intrinsic `{w}`"));
        }
    }
    let at = masked.find("target_feature")?;
    let rest = &masked[at + "target_feature".len()..];
    let open = at + "target_feature".len() + rest.find(|c: char| c != ' ')?;
    if !masked[open..].starts_with('(') {
        return None;
    }
    let close = masked[open..].find(')').map_or(masked.len(), |c| open + c);
    let args = raw.get(open..close)?;
    (args.contains("enable") && args.contains("fma"))
        .then(|| "`target_feature` enabling `fma`".to_string())
}

/// Finds `receiver.producer(` on a line where the receiver is one of the
/// sink binding names (optionally `self.`-qualified) and the method is a
/// producer. Returns `receiver.method` for the message.
fn find_producer_call(line: &str) -> Option<String> {
    for recv in SINK_RECEIVERS {
        let mut from = 0;
        while let Some(off) = line[from..].find(recv) {
            let at = from + off;
            from = at + recv.len();
            // Word boundary before the receiver (allowing `self.`).
            let before = line[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let rest = &line[at + recv.len()..];
            let Some(rest) = rest.strip_prefix('.') else {
                continue;
            };
            for m in SINK_PRODUCERS {
                if let Some(after) = rest.strip_prefix(m) {
                    let boundary = after.trim_start().starts_with('(');
                    if boundary {
                        return Some(format!("{recv}.{m}"));
                    }
                }
            }
        }
    }
    None
}

fn has_word(line: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(off) = line[from..].find(word) {
        let at = from + off;
        let before_ok = !line[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = line[at + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Whether the line compares a float literal with `==` or `!=`.
fn float_literal_comparison(line: &str) -> bool {
    for op in ["==", "!="] {
        let mut from = 0;
        while let Some(off) = line[from..].find(op) {
            let at = from + off;
            from = at + op.len();
            // `!=` vs `!==`-like false positives don't exist in Rust; check
            // both operand sides for a float literal.
            let lhs = line[..at].trim_end();
            let rhs = line[at + op.len()..].trim_start();
            if ends_with_float_literal(lhs) || starts_with_float_literal(rhs) {
                return true;
            }
        }
    }
    false
}

fn starts_with_float_literal(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == 0 || i >= b.len() {
        return false;
    }
    b[i] == b'.' || b[i] == b'e' || b[i] == b'E'
}

fn ends_with_float_literal(s: &str) -> bool {
    // Scan back over [0-9_] then require a '.' with a digit before it, or
    // an exponent suffix.
    let b = s.as_bytes();
    let mut i = b.len();
    while i > 0 && (b[i - 1].is_ascii_digit() || b[i - 1] == b'_') {
        i -= 1;
    }
    if i == b.len() {
        return false;
    }
    if i > 0 && b[i - 1] == b'.' {
        return i > 1 && b[i - 2].is_ascii_digit();
    }
    if i > 0 && (b[i - 1] == b'e' || b[i - 1] == b'E' || b[i - 1] == b'-') {
        // 1e-8 / 2.5e3: walk back over the exponent marker to a digit/dot.
        let mut j = i - 1;
        if b[j] == b'-' && j > 0 {
            j -= 1;
        }
        if (b[j] == b'e' || b[j] == b'E') && j > 0 {
            return b[j - 1].is_ascii_digit() || b[j - 1] == b'.';
        }
    }
    false
}

/// Recursively lints every `.rs` file reachable from the workspace root,
/// skipping vendored deps, build output, fixtures and git internals.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        findings.extend(lint_source(&rel_str, &src));
    }
    Ok(findings)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "vendor" | "target" | "fixtures" | ".git" | ".github" | "repro_results"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap().to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unguarded_producer_fires_and_guard_silences() {
        let bad =
            "fn f(trace: &TraceSink) {\n    trace.instant(0, \"t\", \"n\", 0.0, vec![]);\n}\n";
        let f = lint_source("crates/core/src/x.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "sink-guard");
        assert_eq!(f[0].line, 2);

        let good = "fn f(trace: &TraceSink) {\n    if trace.is_enabled() {\n        \
                    trace.instant(0, \"t\", \"n\", 0.0, vec![]);\n    }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn allow_pragma_above_fn_suppresses() {
        let src =
            "// wsvd-lint: allow(sink-guard) — caller guards\nfn f(trace: &TraceSink) {\n    \
                   trace.counter(0, \"t\", \"n\", 0.0, 1.0);\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn snapshot_readers_do_not_fire() {
        // `snap.counter(...)` is a Snapshot reader, not a sink producer.
        let src =
            "fn f(snap: &Snapshot) -> f64 {\n    snap.counter(\"e\", \"k\", None, \"n\")\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_fires_in_scope_only() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        assert_eq!(lint_source("crates/gpu-sim/src/x.rs", src).len(), 1);
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_fires_in_registry_scope_only() {
        let src = "use std::collections::HashMap;\n";
        let f = lint_source("crates/metrics/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-hashmap");
        assert!(lint_source("crates/linalg/src/matrix.rs", src).is_empty());
        // Masked occurrences never fire.
        assert!(lint_source("crates/metrics/src/lib.rs", "// HashMap\n").is_empty());
    }

    #[test]
    fn float_eq_detects_literals_both_sides() {
        for src in [
            "fn f(x: f64) -> bool { x == 0.0 }\n",
            "fn f(x: f64) -> bool { 1e-8 != x }\n",
            "fn f(x: f64) -> bool { x != 2.5e3 }\n",
        ] {
            let f = lint_source("crates/jacobi/src/onesided.rs", src);
            assert_eq!(f.len(), 1, "{src}");
            assert_eq!(f[0].rule, "no-float-eq");
        }
        // Integer comparisons and out-of-scope files stay silent.
        assert!(lint_source(
            "crates/jacobi/src/onesided.rs",
            "fn f(x: usize) { x == 0; }\n"
        )
        .is_empty());
        assert!(lint_source(
            "crates/linalg/src/householder.rs",
            "fn f(b: f64) { b == 0.0; }\n"
        )
        .is_empty());
    }

    #[test]
    fn partial_cmp_fires_everywhere_in_crate_sources() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        for rel in [
            "crates/jacobi/src/evd.rs",
            "crates/serve/src/server.rs",
            "crates/bench/src/metrics_report.rs",
        ] {
            let f = lint_source(rel, src);
            assert_eq!(f.len(), 1, "{rel}");
            assert_eq!(f[0].rule, "no-partial-cmp-sort");
            assert_eq!(f[0].line, 2);
        }
        // total_cmp is the fix, and pragmas opt a deliberate partial order out.
        assert!(lint_source(
            "crates/jacobi/src/evd.rs",
            "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n"
        )
        .is_empty());
        let pragma = "fn f(a: f64, b: f64) {\n    // wsvd-lint: allow(no-partial-cmp-sort) — \
                      deliberate partial order\n    let _ = a.partial_cmp(&b);\n}\n";
        assert!(lint_source("crates/jacobi/src/evd.rs", pragma).is_empty());
        // Out of crate sources (root tests, binaries outside src/) stays silent.
        assert!(lint_source("tests/serve_integration.rs", src).is_empty());
    }

    #[test]
    fn fma_fires_in_numerical_crates_only() {
        for (src, what) in [
            (
                "fn f(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }\n",
                "mul_add",
            ),
            ("fn f(a: f64) -> f64 { f64::mul_add(a, a, a) }\n", "mul_add"),
            ("let s = _mm256_fmadd_pd(x, y, acc);\n", "_mm256_fmadd_pd"),
            ("let s = _mm_fnmsub_sd(x, y, acc);\n", "_mm_fnmsub_sd"),
            (
                "#[target_feature(enable = \"avx2,fma\")]\nfn f() {}\n",
                "target_feature",
            ),
        ] {
            for rel in [
                "crates/linalg/src/gemm.rs",
                "crates/jacobi/src/evd.rs",
                "crates/baselines/src/block.rs",
            ] {
                let f = lint_source(rel, src);
                assert_eq!(f.len(), 1, "{rel}: {src}");
                assert_eq!(f[0].rule, "no-fma");
                assert!(f[0].message.contains(what), "{}", f[0].message);
            }
            assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
        }
        // AVX2 without FMA, FMA checks, comments and strings stay silent.
        for src in [
            "#[target_feature(enable = \"avx2\")] // not fma\nfn f() {}\n",
            "let on = cfg!(target_feature = \"fma\");\n",
            "// a.mul_add(b, c) would round once\n",
            "let s = \"_mm256_fmadd_pd\";\n",
            "let s = _mm256_mul_pd(x, y);\n",
        ] {
            assert!(
                lint_source("crates/linalg/src/simd.rs", src).is_empty(),
                "{src}"
            );
        }
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(x: f64) { let _ = x == 0.0; }\n}\n";
        assert!(lint_source("crates/jacobi/src/onesided.rs", src).is_empty());
    }
}
