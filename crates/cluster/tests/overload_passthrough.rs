//! Per-request errors cross the router as *answers*, not shard failures.
//! `Overloaded { retry_after_ms }` and `Unauthorized` come from a shard
//! that is healthy but busy (or strict) — a router that marked it down
//! on those would amplify a momentary shed into an outage, and a
//! retrying client (`RemoteClient::submit_with_retry`) would never get
//! its second chance. Only a broken link — a transport failure, a
//! version mismatch, or `Malformed`, after which the server hangs up —
//! marks a shard down.

use exsample_cluster::{global_repo, global_session, split_session, ShardRouter, ShardService};
use exsample_engine::{
    QuerySpec, RepoId, RepoInfo, SearchService, ServiceError, ServiceStats, SessionId,
    SessionReport, SessionSnapshot, SessionStatus,
};
use exsample_videosim::ClassId;
use std::sync::{Arc, Mutex};

/// A shard stub that answers like a reactor under pressure: while it
/// holds an `answer`, submits, polls and cancels fail with it; once the
/// answer is cleared, they succeed. Waits and forgets know no session.
struct BusyShard {
    repo_name: &'static str,
    answer: Mutex<Option<ServiceError>>,
}

impl BusyShard {
    fn new(repo_name: &'static str, answer: Option<ServiceError>) -> Arc<Self> {
        Arc::new(BusyShard {
            repo_name,
            answer: Mutex::new(answer),
        })
    }

    fn answer_with(&self, answer: Option<ServiceError>) {
        *self.answer.lock().unwrap() = answer;
    }

    fn answer(&self) -> Result<(), ServiceError> {
        self.answer.lock().unwrap().clone().map_or(Ok(()), Err)
    }
}

impl SearchService for BusyShard {
    fn repos(&self) -> Result<Vec<RepoInfo>, ServiceError> {
        Ok(vec![RepoInfo {
            id: RepoId(0),
            name: self.repo_name.to_owned(),
            frames: 1000,
            classes: 1,
            dataset_fingerprint: 7,
        }])
    }

    fn submit(&self, _spec: QuerySpec) -> Result<SessionId, ServiceError> {
        self.answer()?;
        Ok(SessionId(11))
    }

    fn poll(
        &self,
        _id: SessionId,
        _cursor: u64,
        _window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError> {
        self.answer()?;
        Ok(SessionSnapshot {
            status: SessionStatus::Done,
            found: 1,
            samples: 2,
            charges: Default::default(),
            events: Vec::new(),
            next_cursor: 0,
        })
    }

    fn cancel(&self, _id: SessionId) -> Result<(), ServiceError> {
        self.answer()
    }

    fn wait(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        Err(ServiceError::UnknownSession(id))
    }

    fn forget(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        Err(ServiceError::UnknownSession(id))
    }

    fn stats(&self) -> Result<ServiceStats, ServiceError> {
        Ok(ServiceStats::default())
    }

    fn diagnostics(&self) -> Result<exsample_engine::Diagnostics, ServiceError> {
        Ok(exsample_engine::Diagnostics::default())
    }
}

fn spec(repo: RepoId) -> QuerySpec {
    QuerySpec::new(
        repo,
        ClassId(0),
        exsample_core::driver::StopCond::results(1),
    )
}

fn assert_all_up(router: &ShardRouter) {
    for h in router.health() {
        assert!(
            h.up,
            "shard {:?} wrongly marked down: {:?}",
            h.name, h.cause
        );
    }
}

#[test]
fn overloaded_submits_pass_through_without_marking_the_shard_down() {
    let busy = BusyShard::new(
        "busy-repo",
        Some(ServiceError::Overloaded { retry_after_ms: 35 }),
    );
    let calm = BusyShard::new("calm-repo", None);
    let router = ShardRouter::new(vec![
        ("a-busy".to_owned(), busy.clone() as ShardService),
        ("b-calm".to_owned(), calm as ShardService),
    ]);

    let busy_repo = global_repo(0, RepoId(0)).unwrap();
    let calm_repo = global_repo(1, RepoId(0)).unwrap();

    // The busy shard sheds: the typed answer crosses the router intact,
    // retry hint and all...
    assert_eq!(
        router.submit(spec(busy_repo)),
        Err(ServiceError::Overloaded { retry_after_ms: 35 })
    );
    // ...and the shard stays in rotation — a shed is not an outage.
    assert_all_up(&router);

    // Traffic to the other shard is untouched, and its session id comes
    // back namespaced under its slot.
    let sid = router.submit(spec(calm_repo)).expect("calm shard accepts");
    assert_eq!(split_session(sid), (1, SessionId(11)));

    // Once the pressure clears, the *same* router lands the submit with
    // no revive step — nothing was ever marked down.
    busy.answer_with(None);
    let sid = router.submit(spec(busy_repo)).expect("retry lands");
    assert_eq!(split_session(sid), (0, SessionId(11)));
}

#[test]
fn overloaded_and_unauthorized_lifecycle_calls_are_per_request_answers() {
    // The shard under test sits at slot 1, so every id it echoes must come
    // back re-namespaced.
    let busy = BusyShard::new("busy-repo", None);
    let router = ShardRouter::new(vec![
        (
            "a-calm".to_owned(),
            BusyShard::new("calm-repo", None) as ShardService,
        ),
        ("b-busy".to_owned(), busy.clone() as ShardService),
    ]);
    let repo = global_repo(1, RepoId(0)).unwrap();
    let sid = global_session(1, SessionId(11)).unwrap();

    // Every per-request answer a shard can give: unchanged but for its
    // ids, on a submit and on session calls alike, and the shard stays up.
    let invalid = ServiceError::InvalidSpec("chunks must be positive".into());
    for (sent, seen) in [
        (
            ServiceError::Overloaded { retry_after_ms: 35 },
            ServiceError::Overloaded { retry_after_ms: 35 },
        ),
        (
            ServiceError::Unauthorized("no ticket".into()),
            ServiceError::Unauthorized("no ticket".into()),
        ),
        (
            ServiceError::UnknownSession(SessionId(11)),
            ServiceError::UnknownSession(sid),
        ),
        (
            ServiceError::SessionRunning(SessionId(11)),
            ServiceError::SessionRunning(sid),
        ),
        (invalid.clone(), invalid),
        (
            ServiceError::UnknownRepo(RepoId(0)),
            ServiceError::UnknownRepo(repo),
        ),
    ] {
        busy.answer_with(Some(sent.clone()));
        assert_eq!(router.submit(spec(repo)), Err(seen.clone()), "{sent:?}");
        assert_eq!(router.poll(sid, 0, None), Err(seen.clone()), "{sent:?}");
        assert_eq!(router.cancel(sid), Err(seen), "{sent:?}");
        assert_all_up(&router);
    }
    assert_eq!(
        router.wait(sid),
        Err(ServiceError::UnknownSession(sid)),
        "a session error a shard reports itself is re-namespaced too"
    );

    // A broken link marks the shard down: the failing call and every
    // later one routed to it answer `ShardDown`, until it is revived.
    for sent in [
        ServiceError::Malformed("expected a request".into()),
        ServiceError::Transport("link severed".into()),
        ServiceError::VersionMismatch { ours: 9, theirs: 8 },
    ] {
        let down = ServiceError::ShardDown {
            shard: "b-busy".into(),
            cause: sent.to_string(),
        };
        busy.answer_with(Some(sent.clone()));
        assert_eq!(router.poll(sid, 0, None), Err(down.clone()), "{sent:?}");
        busy.answer_with(None);
        assert_eq!(router.submit(spec(repo)), Err(down.clone()), "{sent:?}");
        let health = router.health();
        assert!(health[0].up);
        assert_eq!(
            (health[1].up, health[1].cause.clone()),
            (false, Some(sent.to_string()))
        );
        assert!(router.revive("b-busy"));
    }

    // Nothing was left down, so the moment the shard stops refusing the
    // identical poll succeeds.
    assert_all_up(&router);
    let snap = router.poll(sid, 0, None).expect("poll lands after shed");
    assert_eq!(snap.status, SessionStatus::Done);
}
