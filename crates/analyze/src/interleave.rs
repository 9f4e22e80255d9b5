//! Exhaustive two-thread interleaving exploration.
//!
//! The workspace has four concurrent protocols whose correctness arguments
//! live in comments: the flight-recorder ring's reserve-then-publish
//! protocol (`wsvd_health::FlightRecorder::record` — "never overwrite newer
//! with older"), the cluster model's CAS accumulation loop
//! (`wsvd_gpu_sim::cluster` — "a plain load-add-store here loses updates"),
//! the elastic work deque's claim protocol
//! (`wsvd_gpu_sim::cluster::queue::RankQueue::claim` — a single `fetch_add`
//! hands each chunk to exactly one puller, whether owner or thief), and the
//! block-worker pool's job protocol (the vendored `rayon` shim — a job's
//! borrowed closure is never reached after its submitter returns).
//! `loom` is not vendorable, so this module implements the small fragment
//! needed to *prove* those comments: each protocol is modelled as two
//! threads of atomic steps over a shared state, and a depth-first search
//! enumerates **every** interleaving, checking an invariant at each
//! terminal state.
//!
//! A step is a plain function `fn(&mut S, &mut L) -> Step`; `Step::Goto`
//! expresses CAS-retry back-edges and `Step::Blocked` a blocking wait (a
//! condition-variable wait whose condition is false); a state in which
//! every unfinished thread is blocked is reported as a deadlock.
//! Exploration clones the state at each branch point, so models stay small
//! (the real ones here have ≤ 5 steps per thread and < 120 distinct
//! executions).
//!
//! The checker itself is validated by *planted-bug* models: the same
//! protocols with the guard removed (unconditional publish; non-atomic
//! load-add-store) must exhibit a violating interleaving. A checker that
//! passes those models would be vacuous, and the tests fail.

/// Outcome of executing one atomic step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Fall through to the next op in the thread's program.
    Next,
    /// Jump to op `0`-based index — the CAS-retry back-edge.
    Goto(usize),
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
/// other thread's progress would otherwise run the DFS forever. Real CAS
/// loops here retry at most once per competing thread, so 16 is generous;
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
pub type Invariant<S, L> = dyn Fn(&S, &[L; 2]) -> Result<(), String>;

/// Runs every interleaving of the two thread programs from `shared` /
/// `locals`, checking `invariant` at each terminal state. The search is
/// exhaustive: every total order of the threads' atomic steps (including
/// retry re-executions) is visited exactly once.
pub fn explore<S: Clone, L: Clone>(
    shared: &S,
    locals: &[L; 2],
    programs: [&[Op<S, L>]; 2],
    invariant: &Invariant<S, L>,
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
    invariant: &Invariant<S, L>,
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
// Model: flight-recorder ring publish protocol.
// ---------------------------------------------------------------------------

/// Shared state of the ring model: the reservation cursor and one slot
/// (capacity 1 forces both writers onto the same slot — the only case
/// where the publish guard matters).
#[derive(Clone, Debug, Default)]
pub struct RingState {
    /// The `fetch_add` cursor.
    pub cursor: u64,
    /// The single slot's published sequence number.
    pub slot: Option<u64>,
}

/// Writer-local state: the reserved sequence number.
#[derive(Clone, Debug, Default)]
pub struct RingLocal {
    /// Sequence reserved by this writer's `fetch_add`.
    pub seq: Option<u64>,
}

/// Step 1 of `FlightRecorder::record`: `cursor.fetch_add(1)` — atomic.
pub fn ring_reserve(s: &mut RingState, l: &mut RingLocal) -> Step {
    l.seq = Some(s.cursor);
    s.cursor += 1;
    Step::Next
}

/// Step 2 of `FlightRecorder::record`: publish under the slot lock with the
/// newest-wins guard `old.seq <= seq`.
pub fn ring_publish_guarded(s: &mut RingState, l: &mut RingLocal) -> Step {
    let seq = l.seq.expect("reserve ran first");
    if s.slot.is_none_or(|old| old <= seq) {
        s.slot = Some(seq);
    }
    Step::Next
}

/// The planted bug: publish without the guard (blind overwrite). Some
/// interleaving must then leave a lapped writer's *older* event in the slot.
pub fn ring_publish_unguarded(s: &mut RingState, l: &mut RingLocal) -> Step {
    s.slot = Some(l.seq.expect("reserve ran first"));
    Step::Next
}

/// Invariant of the ring model: once both writers finish, the slot holds
/// the newest sequence that mapped to it.
pub fn ring_newest_wins(s: &RingState, _l: &[RingLocal; 2]) -> Result<(), String> {
    if s.slot == Some(1) {
        Ok(())
    } else {
        Err(format!("slot holds {:?}, expected Some(1)", s.slot))
    }
}

// ---------------------------------------------------------------------------
// Model: cluster sync CAS accumulation.
// ---------------------------------------------------------------------------

/// Shared accumulator of the cluster model (`sync_seconds` as integer
/// "seconds" so the invariant is exact).
#[derive(Clone, Debug, Default)]
pub struct CasState {
    /// The accumulated value.
    pub total: u64,
}

/// Shard-local state: the observed snapshot for the pending CAS.
#[derive(Clone, Debug, Default)]
pub struct CasLocal {
    /// Value read by the last `load`.
    pub observed: u64,
    /// This shard's contribution.
    pub delta: u64,
}

/// Load half of the `fetch_update` loop: observe the current total.
pub fn cas_load(s: &mut CasState, l: &mut CasLocal) -> Step {
    l.observed = s.total;
    Step::Next
}

/// Compare-and-swap: commit `observed + delta` iff nothing changed since
/// the load, else retry from the load (the `fetch_update` back-edge).
pub fn cas_commit(s: &mut CasState, l: &mut CasLocal) -> Step {
    if s.total == l.observed {
        s.total = l.observed + l.delta;
        Step::Next
    } else {
        Step::Goto(0)
    }
}

/// The planted bug: blind store (`load-add-store` without the compare).
pub fn cas_blind_store(s: &mut CasState, l: &mut CasLocal) -> Step {
    s.total = l.observed + l.delta;
    Step::Next
}

/// Invariant of the accumulation model: no update is lost.
pub fn cas_no_lost_update(s: &CasState, l: &[CasLocal; 2]) -> Result<(), String> {
    let want = l[0].delta + l[1].delta;
    if s.total == want {
        Ok(())
    } else {
        Err(format!("total {} != sum of deltas {want}", s.total))
    }
}

// ---------------------------------------------------------------------------
// Model: elastic work-deque claim (owner pop vs thief steal).
// ---------------------------------------------------------------------------

/// Shared state of one rank's work deque: the claim cursor over `len`
/// queued chunks. Owner `pop_own` and a thief's `steal` race on the same
/// cursor — the protocol's whole correctness story is that the claim is one
/// `fetch_add`.
#[derive(Clone, Debug, Default)]
pub struct DequeState {
    /// The `fetch_add` claim cursor (`RankQueue::next`).
    pub next: usize,
    /// Number of chunks in the queue.
    pub len: usize,
}

/// Puller-local state: the cursor snapshot of a split (lossy) claim, and
/// the chunks this puller won.
#[derive(Clone, Debug, Default)]
pub struct DequeLocal {
    /// Cursor value read by the lossy variant's separate load.
    pub observed: Option<usize>,
    /// Chunk indices claimed by this puller.
    pub claimed: Vec<usize>,
}

/// The real protocol, one atomic step: `next.fetch_add(1)` and the bounds
/// check happen indivisibly, exactly like `RankQueue::claim`.
pub fn deque_claim_atomic(s: &mut DequeState, l: &mut DequeLocal) -> Step {
    let i = s.next;
    s.next += 1;
    if i < s.len {
        l.claimed.push(i);
    }
    Step::Next
}

/// First half of the planted lossy variant: read the cursor...
pub fn deque_load_cursor(s: &mut DequeState, l: &mut DequeLocal) -> Step {
    l.observed = Some(s.next);
    Step::Next
}

/// ...second half: bump it and take the chunk at the *stale* snapshot. Two
/// pullers that both loaded the same cursor claim the same chunk — and the
/// chunk behind it is silently never run.
pub fn deque_store_claim_lossy(s: &mut DequeState, l: &mut DequeLocal) -> Step {
    let i = l.observed.take().expect("load ran first");
    s.next = i + 1;
    if i < s.len {
        l.claimed.push(i);
    }
    Step::Next
}

/// Invariant of the deque model: every queued chunk is claimed by exactly
/// one puller — no double execution, no lost work.
pub fn deque_exactly_once(s: &DequeState, l: &[DequeLocal; 2]) -> Result<(), String> {
    let mut seen = vec![0usize; s.len];
    for local in l {
        for &c in &local.claimed {
            seen[c] += 1;
        }
    }
    for (i, &n) in seen.iter().enumerate() {
        if n != 1 {
            return Err(format!("chunk {i} claimed {n} times (want exactly once)"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Model: block-worker pool job protocol.
// ---------------------------------------------------------------------------

/// Shared state of one pool job: the submitter (thread A) has published it
/// and races one worker (thread B). `returned` and `late_touch` record the
/// property under test.
#[derive(Clone, Debug, Default)]
pub struct PoolState {
    /// The job is in the pool's queue.
    pub published: bool,
    /// Workers registered on the job.
    pub active: usize,
    /// The `fetch_add` next-index counter.
    pub next: usize,
    /// Number of indices.
    pub len: usize,
    /// The submitter has returned: the job's borrows are dead.
    pub returned: bool,
    /// The first worker step that touched the job after the return.
    pub late_touch: Option<&'static str>,
}

impl PoolState {
    /// A published job of `len` indices, nothing claimed yet.
    pub fn published(len: usize) -> Self {
        PoolState {
            published: true,
            len,
            ..Self::default()
        }
    }

    fn touch(&mut self, what: &'static str) {
        if self.returned && self.late_touch.is_none() {
            self.late_touch = Some(what);
        }
    }
}

/// Per-thread state: the indices this thread ran.
#[derive(Clone, Debug, Default)]
pub struct PoolLocal {
    /// Indices claimed (and run) by this thread.
    pub claimed: Vec<usize>,
}

/// One `next.fetch_add(1)`; runs the index if it is in range.
fn pool_claim_one(s: &mut PoolState, l: &mut PoolLocal) -> bool {
    let i = s.next;
    s.next += 1;
    if i < s.len {
        l.claimed.push(i);
    }
    i < s.len
}

/// Submitter step: claim indices until none are left (`claim_all`); the
/// program's first op.
pub fn pool_submitter_claim(s: &mut PoolState, l: &mut PoolLocal) -> Step {
    if pool_claim_one(s, l) {
        Step::Goto(0)
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

/// Worker step: claim and run at most one index. A worker program repeats
/// it once per index it may win.
pub fn pool_worker_claim(s: &mut PoolState, l: &mut PoolLocal) -> Step {
    s.touch("claim");
    pool_claim_one(s, l);
    Step::Next
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
/// return.
pub const POOL_SUBMITTER: &[Op<PoolState, PoolLocal>] = &[
    pool_submitter_claim,
    pool_unpublish,
    pool_wait_idle_and_return,
];

/// The pool's worker on a two-index job: register, claim twice,
/// deregister.
pub const POOL_WORKER: &[Op<PoolState, PoolLocal>] = &[
    pool_worker_register,
    pool_worker_claim,
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
    pool_worker_claim,
    pool_worker_deregister,
];

/// Invariant of the pool model: the submitter returned, no worker touched
/// the job after that, and every index ran exactly once.
pub fn pool_no_touch_after_return(s: &PoolState, l: &[PoolLocal; 2]) -> Result<(), String> {
    if !s.returned {
        return Err("submitter never returned".into());
    }
    if let Some(what) = s.late_touch {
        return Err(format!(
            "worker {what} touched the job after the submitter returned"
        ));
    }
    let mut ran: Vec<usize> = l.iter().flat_map(|t| t.claimed.iter().copied()).collect();
    ran.sort_unstable();
    if ran != (0..s.len).collect::<Vec<_>>() {
        return Err(format!(
            "indices run {ran:?}, want each of 0..{} once",
            s.len
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_publish_protocol_is_newest_wins_under_all_interleavings() {
        let prog: &[Op<RingState, RingLocal>] = &[ring_reserve, ring_publish_guarded];
        let r = explore(
            &RingState::default(),
            &[RingLocal::default(), RingLocal::default()],
            [prog, prog],
            &ring_newest_wins,
        );
        // 4 steps, 2 threads: C(4,2) = 6 interleavings, all clean.
        assert_eq!(r.executions, 6);
        assert!(r.holds(), "{:?}", r.violations);
    }

    #[test]
    fn unguarded_publish_exhibits_the_lapped_overwrite() {
        let prog: &[Op<RingState, RingLocal>] = &[ring_reserve, ring_publish_unguarded];
        let r = explore(
            &RingState::default(),
            &[RingLocal::default(), RingLocal::default()],
            [prog, prog],
            &ring_newest_wins,
        );
        assert_eq!(r.executions, 6);
        assert!(
            !r.holds(),
            "checker is vacuous: blind overwrite went unnoticed"
        );
        // The violating schedule is the lap: B reserves+publishes seq 1,
        // then parked writer A publishes its older seq 0 last.
        assert!(
            r.violations.iter().any(|v| v.contains("Some(0)")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn cas_loop_never_loses_an_update() {
        let prog: &[Op<CasState, CasLocal>] = &[cas_load, cas_commit];
        let locals = [
            CasLocal {
                observed: 0,
                delta: 3,
            },
            CasLocal {
                observed: 0,
                delta: 5,
            },
        ];
        let r = explore(
            &CasState::default(),
            &locals,
            [prog, prog],
            &cas_no_lost_update,
        );
        assert!(r.holds(), "{:?}", r.violations);
        // Retries add executions beyond the interleaving count of the
        // straight-line programs.
        assert!(r.executions >= 6, "{r:?}");
    }

    #[test]
    fn blind_store_loses_an_update_somewhere() {
        let prog: &[Op<CasState, CasLocal>] = &[cas_load, cas_blind_store];
        let locals = [
            CasLocal {
                observed: 0,
                delta: 3,
            },
            CasLocal {
                observed: 0,
                delta: 5,
            },
        ];
        let r = explore(
            &CasState::default(),
            &locals,
            [prog, prog],
            &cas_no_lost_update,
        );
        assert_eq!(r.executions, 6);
        assert!(!r.holds(), "checker is vacuous: lost update went unnoticed");
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("total 3") || v.contains("total 5")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn deque_claim_is_exactly_once_under_all_interleavings() {
        // Two chunks, two pullers (owner + thief), each trying two claims:
        // overshooting claims past `len` are the empty-pop no-op.
        let prog: &[Op<DequeState, DequeLocal>] = &[deque_claim_atomic, deque_claim_atomic];
        let r = explore(
            &DequeState { next: 0, len: 2 },
            &[DequeLocal::default(), DequeLocal::default()],
            [prog, prog],
            &deque_exactly_once,
        );
        assert_eq!(r.executions, 6);
        assert!(r.holds(), "{:?}", r.violations);
    }

    #[test]
    fn split_claim_double_runs_a_chunk_somewhere() {
        let prog: &[Op<DequeState, DequeLocal>] = &[
            deque_load_cursor,
            deque_store_claim_lossy,
            deque_load_cursor,
            deque_store_claim_lossy,
        ];
        let r = explore(
            &DequeState { next: 0, len: 2 },
            &[DequeLocal::default(), DequeLocal::default()],
            [prog, prog],
            &deque_exactly_once,
        );
        assert!(
            !r.holds(),
            "checker is vacuous: the torn claim went unnoticed"
        );
        // The signature failure: two pullers loaded the same cursor value,
        // so some chunk runs twice (and the one behind it is lost).
        assert!(
            r.violations.iter().any(|v| v.contains("claimed 2 times")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn livelock_is_reported_not_hung() {
        fn spin(_s: &mut CasState, _l: &mut CasLocal) -> Step {
            Step::Goto(0)
        }
        let prog: &[Op<CasState, CasLocal>] = &[spin];
        let r = explore(
            &CasState::default(),
            &[CasLocal::default(), CasLocal::default()],
            [prog, prog],
            &cas_no_lost_update,
        );
        assert!(!r.holds());
        assert!(
            r.violations.iter().any(|v| v.contains("livelock")),
            "{:?}",
            r.violations
        );
    }

    fn explore_pool(
        submitter: &[Op<PoolState, PoolLocal>],
        worker: &[Op<PoolState, PoolLocal>],
    ) -> Exploration {
        explore(
            &PoolState::published(2),
            &[PoolLocal::default(), PoolLocal::default()],
            [submitter, worker],
            &pool_no_touch_after_return,
        )
    }

    #[test]
    fn pool_job_is_never_touched_after_its_submitter_returns() {
        let r = explore_pool(POOL_SUBMITTER, POOL_WORKER);
        assert!(r.holds(), "{:?}", r.violations);
        // Across these, the worker wins zero, one or both indices.
        assert_eq!(r.executions, 57);
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
