//! Exhaustive two-thread interleaving exploration.
//!
//! The block-worker pool's job protocol is the workspace's one concurrent
//! protocol. The pool is the vendored `rayon` crate; its `map` and
//! `map_mut`, which run every kernel launch, hand any job that does not run
//! inline to one `submit`, so one model covers both. The protocol's
//! correctness argument — a job's borrowed closure is never reached after
//! its submitter returns, every index runs exactly once, and an owner's
//! indices never split across threads — lives in comments. `loom` is not
//! vendorable, so this module implements the small fragment needed to
//! *prove* it: the protocol is modelled as two threads of atomic steps over
//! a shared state, and a depth-first search enumerates **every**
//! interleaving, checking an invariant at each terminal state.
//!
//! A step is a plain function `fn(&mut S, &mut L) -> Step`; `Step::Goto`
//! expresses retry back-edges, `Step::Again` a loop on one op, and
//! `Step::Blocked` a blocking wait (a condition-variable wait whose
//! condition is false); a state in which every unfinished thread is blocked
//! is reported as a deadlock. Exploration clones the state at each branch
//! point, so models stay small (the pool model runs a three-owner job of
//! four indices in at most 13 steps, 1266 distinct executions).
//!
//! The checker itself is validated by *planted-bug* models: the same
//! protocol with its ordering broken (waiting for idle before unpublishing;
//! checking "published" and registering in two steps) or its claims too
//! fine (stealing the rest of an owner another thread has started) must
//! exhibit a violating interleaving. A checker that passes those models
//! would be vacuous, and the tests fail.

/// Outcome of executing one atomic step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Fall through to the next op in the thread's program.
    Next,
    /// Jump to op `0`-based index — a loop back-edge.
    Goto(usize),
    /// Run this op again: a loop of one op.
    Again,
    /// Terminate this thread early.
    Done,
    /// The step cannot fire in this state (a blocking wait): the thread
    /// stays at this op and only the other thread may move. Any mutation
    /// the op made is discarded.
    Blocked,
}

/// One atomic step: observes/mutates the shared state `S` and this
/// thread's local state `L` indivisibly.
pub type Op<S, L> = fn(&mut S, &mut L) -> Step;

/// Result of exploring every interleaving of a two-thread model.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Number of distinct complete executions visited.
    pub executions: usize,
    /// Invariant violations, one message per failing execution, each
    /// prefixed with the schedule (`"ABBA: ..."`) that produced it.
    pub violations: Vec<String>,
}

impl Exploration {
    /// True when every interleaving satisfied the invariant.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-execution step budget: a `Goto` loop that cannot be broken by the
/// other thread's progress would otherwise run the DFS forever. The pool
/// model's claim loops run at most `owners + len + 2` times between them
/// and its other ops 4, so 16 is enough;
/// exceeding it is reported as a violation (a livelock is a bug too). The
/// budget also bounds the whole search at `2^16` paths in the worst case —
/// combined with [`MAX_VIOLATIONS`] pruning, a livelocking model terminates
/// promptly instead of enumerating every doomed schedule.
const STEP_BUDGET: usize = 16;

/// Exploration stops growing the violation list past this point: the model
/// is already proven broken, and a pathological model (e.g. a pure spin
/// loop) would otherwise produce exponentially many failing schedules.
const MAX_VIOLATIONS: usize = 64;

/// A terminal-state invariant: checked once per complete interleaving.
pub type Invariant<'a, S, L> = dyn Fn(&S, &[L; 2]) -> Result<(), String> + 'a;

/// Runs every interleaving of the two thread programs from `shared` /
/// `locals`, checking `invariant` at each terminal state. The search is
/// exhaustive: every total order of the threads' atomic steps (including
/// retry re-executions) is visited exactly once.
pub fn explore<S: Clone, L: Clone>(
    shared: &S,
    locals: &[L; 2],
    programs: [&[Op<S, L>]; 2],
    invariant: &Invariant<'_, S, L>,
) -> Exploration {
    let mut out = Exploration {
        executions: 0,
        violations: Vec::new(),
    };
    let mut schedule = String::new();
    dfs(
        shared,
        locals,
        programs,
        [0, 0],
        0,
        &mut schedule,
        invariant,
        &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs<S: Clone, L: Clone>(
    shared: &S,
    locals: &[L; 2],
    programs: [&[Op<S, L>]; 2],
    pc: [usize; 2],
    steps: usize,
    schedule: &mut String,
    invariant: &Invariant<'_, S, L>,
    out: &mut Exploration,
) {
    if out.violations.len() >= MAX_VIOLATIONS {
        return;
    }
    let runnable: Vec<usize> = (0..2).filter(|&t| pc[t] < programs[t].len()).collect();
    if runnable.is_empty() {
        out.executions += 1;
        if let Err(msg) = invariant(shared, locals) {
            out.violations.push(format!("{schedule}: {msg}"));
        }
        return;
    }
    if steps >= STEP_BUDGET {
        out.violations
            .push(format!("{schedule}: step budget exhausted (livelock?)"));
        return;
    }
    let mut fired = false;
    for t in runnable {
        let mut s = shared.clone();
        let mut l = locals.clone();
        let step = (programs[t][pc[t]])(&mut s, &mut l[t]);
        let mut next_pc = pc;
        next_pc[t] = match step {
            Step::Next => pc[t] + 1,
            Step::Goto(i) => i,
            Step::Again => pc[t],
            Step::Done => programs[t].len(),
            Step::Blocked => continue,
        };
        fired = true;
        schedule.push(if t == 0 { 'A' } else { 'B' });
        dfs(
            &s,
            &l,
            programs,
            next_pc,
            steps + 1,
            schedule,
            invariant,
            out,
        );
        schedule.pop();
    }
    if !fired {
        out.violations.push(format!(
            "{schedule}: deadlock (every unfinished thread is blocked)"
        ));
    }
}

// ---------------------------------------------------------------------------
// Model: block-worker pool job protocol.
// ---------------------------------------------------------------------------

/// Shared state of one pool job: the submitter (thread A) has built it and
/// races one worker (thread B). The job's indices are grouped by owner,
/// in claim order (most indices first), and claimed whole through one
/// shared next-group counter. `returned` and `late_touch` record the property
/// under test.
#[derive(Clone, Debug, Default)]
pub struct PoolState {
    /// The job is in the pool's queue.
    pub published: bool,
    /// Workers registered on the job.
    pub active: usize,
    /// Each owner's indices, ascending; owners in claim order.
    pub groups: Vec<Vec<usize>>,
    /// The next group to claim (`fetch_add` on the job's counter).
    pub next: usize,
    /// Per thread, the group it is running and the position of the next
    /// index of it to run.
    pub running: [Option<(usize, usize)>; 2],
    /// The submitter has returned: the job's borrows are dead.
    pub returned: bool,
    /// The first worker step that touched the job after the return.
    pub late_touch: Option<&'static str>,
}

impl PoolState {
    /// The job of the indices `owners` lists per owner (owners in claim
    /// order), as `submit` builds it: published, unless it has a
    /// single owner, which runs inline on the submitter and is never
    /// published.
    pub fn new(owners: &[&[usize]]) -> Self {
        PoolState {
            published: owners.len() > 1,
            groups: owners.iter().map(|g| g.to_vec()).collect(),
            ..Self::default()
        }
    }

    /// The two-thread job the proofs run: indices 0 and 2 belong to owner
    /// 0, index 1 to owner 1 and index 3 to owner 2.
    pub fn three_owners() -> Self {
        Self::new(&[&[0, 2], &[1], &[3]])
    }

    fn touch(&mut self, what: &'static str) {
        if self.returned && self.late_touch.is_none() {
            self.late_touch = Some(what);
        }
    }

    /// Claims the next unclaimed group, if any.
    fn claim(&mut self) -> Option<usize> {
        let g = self.next;
        self.next += 1;
        (g < self.groups.len()).then_some(g)
    }

    /// Runs the next index of thread `me`'s group into `ran`.
    fn run_next(&mut self, me: usize, ran: &mut Vec<usize>) -> bool {
        let Some((g, k)) = self.running[me] else {
            return false;
        };
        ran.push(self.groups[g][k]);
        self.running[me] = (k + 1 < self.groups[g].len()).then_some((g, k + 1));
        true
    }
}

/// Per-thread state: which thread it is and the indices it ran.
#[derive(Clone, Debug, Default)]
pub struct PoolLocal {
    /// 0 for the submitter, 1 for the worker.
    pub me: usize,
    /// Indices run by this thread, in order.
    pub ran: Vec<usize>,
}

impl PoolLocal {
    /// The submitter's and the worker's initial local state.
    pub fn pair() -> [PoolLocal; 2] {
        [0, 1].map(|me| PoolLocal {
            me,
            ran: Vec::new(),
        })
    }
}

/// One step of `claim_all`: run the next index of the group in hand, or
/// claim a whole group when none is in hand. False once nothing is left.
fn pool_claim_step(s: &mut PoolState, l: &mut PoolLocal) -> bool {
    if s.run_next(l.me, &mut l.ran) {
        return true;
    }
    match s.claim() {
        Some(g) => {
            s.running[l.me] = Some((g, 0));
            true
        }
        None => false,
    }
}

/// Submitter step: claim and run until no group is left (`claim_all`);
/// the program's first op.
pub fn pool_submitter_claim(s: &mut PoolState, l: &mut PoolLocal) -> Step {
    if pool_claim_step(s, l) {
        Step::Again
    } else {
        Step::Next
    }
}

/// Submitter step: remove the job from the queue, under the queue lock.
pub fn pool_unpublish(s: &mut PoolState, _l: &mut PoolLocal) -> Step {
    s.published = false;
    Step::Next
}

/// Submitter step: wait until no worker is registered, then return.
pub fn pool_wait_idle_and_return(s: &mut PoolState, _l: &mut PoolLocal) -> Step {
    if s.active > 0 {
        return Step::Blocked;
    }
    s.returned = true;
    Step::Next
}

/// The planted wrong order, first half: wait for `active == 0` while the
/// job is still published...
pub fn pool_wait_idle(s: &mut PoolState, _l: &mut PoolLocal) -> Step {
    if s.active > 0 {
        Step::Blocked
    } else {
        Step::Next
    }
}

/// ...second half: then unpublish and return at once. A worker that
/// registers between the two halves outlives the submitter.
pub fn pool_unpublish_and_return(s: &mut PoolState, _l: &mut PoolLocal) -> Step {
    s.published = false;
    s.returned = true;
    Step::Next
}

/// Worker step, as in the pool: check "published" and register as active
/// in one step under the queue lock; skip the job if it is gone.
pub fn pool_worker_register(s: &mut PoolState, _l: &mut PoolLocal) -> Step {
    if !s.published {
        return Step::Done;
    }
    s.active += 1;
    Step::Next
}

/// Worker step: one step of `claim_all`, repeated until nothing is left.
pub fn pool_worker_claim(s: &mut PoolState, l: &mut PoolLocal) -> Step {
    s.touch("claim");
    if pool_claim_step(s, l) {
        Step::Again
    } else {
        Step::Next
    }
}

/// The planted fine-grained steal: a worker that finds no unclaimed group
/// takes the next index of the group the submitter is running, splitting
/// that owner across threads.
pub fn pool_worker_claim_splitting(s: &mut PoolState, l: &mut PoolLocal) -> Step {
    s.touch("claim");
    if pool_claim_step(s, l) || s.run_next(1 - l.me, &mut l.ran) {
        Step::Again
    } else {
        Step::Next
    }
}

/// Worker step: deregister (`active -= 1` under the job's lock).
pub fn pool_worker_deregister(s: &mut PoolState, _l: &mut PoolLocal) -> Step {
    s.touch("deregister");
    s.active -= 1;
    Step::Next
}

/// The planted split registration, first half: read "published"...
pub fn pool_worker_check_published(s: &mut PoolState, _l: &mut PoolLocal) -> Step {
    if s.published {
        Step::Next
    } else {
        Step::Done
    }
}

/// ...second half: register on the strength of a stale read.
pub fn pool_worker_register_late(s: &mut PoolState, _l: &mut PoolLocal) -> Step {
    s.touch("register");
    s.active += 1;
    Step::Next
}

/// The pool's submitter: claim until exhausted, unpublish, wait for idle,
/// return. An inline job runs the same program; it was never published.
pub const POOL_SUBMITTER: &[Op<PoolState, PoolLocal>] = &[
    pool_submitter_claim,
    pool_unpublish,
    pool_wait_idle_and_return,
];

/// The pool's worker: register, claim until exhausted, deregister.
pub const POOL_WORKER: &[Op<PoolState, PoolLocal>] = &[
    pool_worker_register,
    pool_worker_claim,
    pool_worker_deregister,
];

/// Planted bug: the submitter waits for idle *before* unpublishing.
pub const POOL_SUBMITTER_WAIT_FIRST: &[Op<PoolState, PoolLocal>] = &[
    pool_submitter_claim,
    pool_wait_idle,
    pool_unpublish_and_return,
];

/// Planted bug: the worker checks "published" and registers in two steps.
pub const POOL_WORKER_SPLIT_REGISTER: &[Op<PoolState, PoolLocal>] = &[
    pool_worker_check_published,
    pool_worker_register_late,
    pool_worker_claim,
    pool_worker_deregister,
];

/// Planted bug: the worker steals single indices of a started owner.
pub const POOL_WORKER_SPLIT_OWNER: &[Op<PoolState, PoolLocal>] = &[
    pool_worker_register,
    pool_worker_claim_splitting,
    pool_worker_deregister,
];

/// Invariant of the pool model: the submitter returned, no worker touched
/// the job after that, every index ran exactly once, each owner's indices
/// ran on one thread in ascending order, and a single-owner job ran on the
/// submitter.
pub fn pool_no_touch_after_return(s: &PoolState, l: &[PoolLocal; 2]) -> Result<(), String> {
    if !s.returned {
        return Err("submitter never returned".into());
    }
    if let Some(what) = s.late_touch {
        return Err(format!(
            "worker {what} touched the job after the submitter returned"
        ));
    }
    let mut ran: Vec<usize> = l.iter().flat_map(|t| t.ran.iter().copied()).collect();
    ran.sort_unstable();
    let mut want: Vec<usize> = s.groups.concat();
    want.sort_unstable();
    if ran != want {
        return Err(format!("indices run {ran:?}, want each of {want:?} once"));
    }
    for (o, group) in s.groups.iter().enumerate() {
        let on: Vec<usize> = (0..2)
            .filter(|&t| l[t].ran.iter().any(|i| group.contains(i)))
            .collect();
        if on.len() > 1 {
            return Err(format!("owner {o} split across both threads"));
        }
        let order: Vec<usize> = on
            .iter()
            .flat_map(|&t| l[t].ran.iter().filter(|i| group.contains(i)).copied())
            .collect();
        if &order != group {
            return Err(format!("owner {o} ran {order:?}, want {group:?}"));
        }
    }
    if s.groups.len() == 1 && !l[1].ran.is_empty() {
        return Err("the worker ran part of an inline single-owner job".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn livelock_is_reported_not_hung() {
        fn spin(_s: &mut (), _l: &mut ()) -> Step {
            Step::Goto(0)
        }
        let prog: &[Op<(), ()>] = &[spin];
        let r = explore(&(), &[(), ()], [prog, prog], &|_, _| Ok(()));
        assert!(!r.holds());
        assert!(
            r.violations.iter().any(|v| v.contains("livelock")),
            "{:?}",
            r.violations
        );
    }

    fn explore_job(
        job: PoolState,
        submitter: &[Op<PoolState, PoolLocal>],
        worker: &[Op<PoolState, PoolLocal>],
    ) -> Exploration {
        explore(
            &job,
            &PoolLocal::pair(),
            [submitter, worker],
            &pool_no_touch_after_return,
        )
    }

    fn explore_pool(
        submitter: &[Op<PoolState, PoolLocal>],
        worker: &[Op<PoolState, PoolLocal>],
    ) -> Exploration {
        explore_job(PoolState::three_owners(), submitter, worker)
    }

    #[test]
    fn pool_job_is_never_touched_after_its_submitter_returns() {
        let r = explore_pool(POOL_SUBMITTER, POOL_WORKER);
        assert!(r.holds(), "{:?}", r.violations);
        assert_eq!(r.executions, 1266);
    }

    #[test]
    fn each_owner_runs_whole_on_one_thread_in_every_interleaving() {
        // Whole-owner claims from one counter let the worker run any subset
        // of the three owners, and the invariant holds in each; every
        // subset occurs.
        let split = std::cell::RefCell::new(std::collections::BTreeSet::new());
        let r = explore(
            &PoolState::three_owners(),
            &PoolLocal::pair(),
            [POOL_SUBMITTER, POOL_WORKER],
            &|s, l| {
                let mut worker = l[1].ran.clone();
                worker.sort_unstable();
                split.borrow_mut().insert(worker);
                pool_no_touch_after_return(s, l)
            },
        );
        assert!(r.holds(), "{:?}", r.violations);
        let want: [&[usize]; 8] = [
            &[],
            &[0, 1, 2],
            &[0, 1, 2, 3],
            &[0, 2],
            &[0, 2, 3],
            &[1],
            &[1, 3],
            &[3],
        ];
        assert_eq!(split.into_inner().into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn a_single_owner_job_runs_inline_and_no_worker_touches_it() {
        let r = explore_job(PoolState::new(&[&[0, 1, 2]]), POOL_SUBMITTER, POOL_WORKER);
        assert!(r.holds(), "{:?}", r.violations);
    }

    #[test]
    fn waiting_before_unpublishing_lets_a_worker_outlive_the_submitter() {
        let r = explore_pool(POOL_SUBMITTER_WAIT_FIRST, POOL_WORKER);
        assert!(
            !r.holds(),
            "checker is vacuous: wait-then-unpublish went unnoticed"
        );
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("worker claim touched the job after the submitter returned")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn split_registration_lets_a_worker_outlive_the_submitter() {
        let r = explore_pool(POOL_SUBMITTER, POOL_WORKER_SPLIT_REGISTER);
        assert!(
            !r.holds(),
            "checker is vacuous: the split registration went unnoticed"
        );
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("worker register touched the job after the submitter returned")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn stealing_from_a_started_owner_splits_it() {
        let r = explore_pool(POOL_SUBMITTER, POOL_WORKER_SPLIT_OWNER);
        assert!(
            !r.holds(),
            "checker is vacuous: the split owner went unnoticed"
        );
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("owner 0 split across both threads")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn deadlock_is_reported() {
        // A submitter waiting on a worker that registered but never
        // deregisters: the wait blocks forever.
        let stuck: &[Op<PoolState, PoolLocal>] = &[pool_worker_register];
        let r = explore_pool(POOL_SUBMITTER, stuck);
        assert!(
            r.violations.iter().any(|v| v.contains("deadlock")),
            "{:?}",
            r.violations
        );
    }
}
