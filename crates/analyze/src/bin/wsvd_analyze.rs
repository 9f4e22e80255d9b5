//! Standalone static-analysis driver.
//!
//! ```text
//! wsvd-analyze [lint [--root DIR]]       run the project-invariant lints
//! wsvd-analyze certify [--out FILE]      build + summarize the certificate
//!              [--max-blocks N]          store for every device model
//! wsvd-analyze self-test                 planted-bug probes (lints must
//!                                        fire on fixtures, bad plans must
//!                                        be rejected, the pool protocol's
//!                                        broken variants must violate)
//! wsvd-analyze                           all of the above, workspace root
//! ```
//!
//! Exit status is non-zero on any finding, rejection failure, or sweep
//! false-rejection — CI runs this as the `Static analysis` step.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wsvd_analyze::interleave::{
    self, pool_no_touch_after_return, PoolLocal, PoolState, POOL_SUBMITTER,
    POOL_SUBMITTER_WAIT_FIRST, POOL_WORKER, POOL_WORKER_SPLIT_OWNER, POOL_WORKER_SPLIT_REGISTER,
};
use wsvd_analyze::lint::{lint_source, lint_workspace};
use wsvd_analyze::plan_space::{
    certify_all_devices, planted_rejections, sweep_reachability, DEFAULT_MAX_BLOCKS,
};
use wsvd_gpu_sim::V100;

fn workspace_root() -> PathBuf {
    // crates/analyze -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/analyze")
        .to_path_buf()
}

fn run_lint(root: &Path) -> Result<(), String> {
    let findings = lint_workspace(root).map_err(|e| format!("lint walk failed: {e}"))?;
    if findings.is_empty() {
        println!("lint: workspace clean");
        Ok(())
    } else {
        for f in &findings {
            println!("{f}");
        }
        Err(format!("lint: {} finding(s)", findings.len()))
    }
}

fn run_certify(out: Option<&Path>, max_blocks: usize) -> Result<(), String> {
    let store = certify_all_devices(max_blocks).map_err(|e| format!("certification: {e}"))?;
    let sweep = sweep_reachability(&store).map_err(|e| format!("false rejection: {e}"))?;
    println!(
        "certify: {} certificates across {} devices; atlas proves {} schedule(s) up to {} \
         blocks ({} pairs)",
        store.len(),
        store.devices.len(),
        store.atlas.proofs,
        store.atlas.max_blocks,
        store.atlas.pairs,
    );
    println!(
        "certify: sweep accepted {} selections over {} workloads ({} distinct families)",
        sweep.selections,
        sweep.workloads,
        sweep.selected_families.len(),
    );
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&store).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("certify: store written to {}", path.display());
    }
    Ok(())
}

fn run_self_test(root: &Path) -> Result<(), String> {
    // 1. Planted plans must be statically rejected.
    let (smem, sched) = planted_rejections(&V100);
    println!("self-test: oversized-smem plan rejected ({smem})");
    println!("self-test: conflicting-schedule plan rejected ({sched})");

    // 2. Every lint must fire on its fixture.
    let fixtures = [
        ("sink-guard", "sink_guard.rs", "crates/core/src/fixture.rs"),
        (
            "no-wall-clock",
            "wall_clock.rs",
            "crates/core/src/fixture.rs",
        ),
        ("no-hashmap", "hashmap.rs", "crates/metrics/src/fixture.rs"),
        ("no-float-eq", "float_eq.rs", "crates/core/src/wcycle.rs"),
        (
            "no-partial-cmp-sort",
            "partial_cmp.rs",
            "crates/core/src/fixture.rs",
        ),
        ("no-fma", "fma.rs", "crates/linalg/src/fixture.rs"),
    ];
    for (rule, file, pretend) in fixtures {
        let path = root.join("crates/analyze/fixtures").join(file);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let findings = lint_source(pretend, &src);
        if findings.iter().any(|f| f.rule == rule) {
            println!("self-test: lint '{rule}' fires on {file}");
        } else {
            return Err(format!(
                "self-test: lint '{rule}' did NOT fire on its fixture {file}"
            ));
        }
    }

    // 3. The interleaving checker must prove the pool's job protocol, on a
    //    job of three owners and on an inline single-owner job, and catch
    //    every planted bug.
    let pool = |job: PoolState, submitter, worker| {
        interleave::explore(
            &job,
            &PoolLocal::pair(),
            [submitter, worker],
            &pool_no_touch_after_return,
        )
    };
    let inline = PoolState::new(&[&[0, 1, 2]]);
    for (what, job) in [("owned", PoolState::three_owners()), ("inline", inline)] {
        let sound = pool(job, POOL_SUBMITTER, POOL_WORKER);
        if !sound.holds() {
            return Err(format!(
                "self-test: {what} pool job protocol violated: {:?}",
                sound.violations
            ));
        }
    }
    for (bug, submitter, worker) in [
        (
            "wait-then-unpublish",
            POOL_SUBMITTER_WAIT_FIRST,
            POOL_WORKER,
        ),
        (
            "split registration",
            POOL_SUBMITTER,
            POOL_WORKER_SPLIT_REGISTER,
        ),
        ("split owner", POOL_SUBMITTER, POOL_WORKER_SPLIT_OWNER),
    ] {
        if pool(PoolState::three_owners(), submitter, worker).holds() {
            return Err(format!(
                "self-test: planted {bug} in pool job went unnoticed (vacuous checker)"
            ));
        }
    }
    println!("self-test: interleaving checker proves pool job, catches its planted bugs");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = workspace_root();
    let mut out: Option<PathBuf> = None;
    let mut max_blocks = DEFAULT_MAX_BLOCKS;
    let mut cmd: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--out" if i + 1 < args.len() => {
                out = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--max-blocks" if i + 1 < args.len() => {
                max_blocks = match args[i + 1].parse() {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("wsvd-analyze: bad --max-blocks: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                i += 2;
            }
            c if cmd.is_none() && !c.starts_with('-') => {
                cmd = Some(c.to_string());
                i += 1;
            }
            other => {
                eprintln!("wsvd-analyze: unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = match cmd.as_deref() {
        Some("lint") => run_lint(&root),
        Some("certify") => run_certify(out.as_deref(), max_blocks),
        Some("self-test") => run_self_test(&root),
        None => run_lint(&root)
            .and_then(|()| run_certify(out.as_deref(), max_blocks))
            .and_then(|()| run_self_test(&root)),
        Some(other) => Err(format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wsvd-analyze: {e}");
            ExitCode::FAILURE
        }
    }
}
