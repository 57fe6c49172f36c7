//! [`Engine`] as a [`SearchService`]: the in-process implementation of
//! the client-facing API. Calls go straight to the engine, no
//! serialization; the remote implementation (`exsample-proto`'s
//! `RemoteClient`) is interchangeable with this one and produces
//! identical session results.

use super::{Engine, EngineError};
use crate::service::{
    Diagnostics, RepoInfo, SearchService, ServiceError, ServiceStats, SubmitError,
};
use crate::session::{QuerySpec, SessionId, SessionReport, SessionSnapshot};
use exsample_obs::{SpanRecord, TraceId};

/// Map lifecycle [`EngineError`]s onto the service vocabulary. Submit
/// errors are handled separately (they map onto [`SubmitError`]).
fn service_err(e: EngineError) -> ServiceError {
    match e {
        EngineError::UnknownSession(s) => ServiceError::UnknownSession(s),
        EngineError::SessionRunning(s) => ServiceError::SessionRunning(s),
        // Unreachable from lifecycle calls; surfaced faithfully anyway.
        other => ServiceError::Transport(other.to_string()),
    }
}

impl SearchService for Engine {
    fn repos(&self) -> Result<Vec<RepoInfo>, ServiceError> {
        Ok(Engine::repos(self))
    }

    fn submit(&self, spec: QuerySpec) -> Result<SessionId, SubmitError> {
        Engine::submit(self, spec).map_err(|e| match e {
            EngineError::UnknownRepo(r) => SubmitError::UnknownRepo(r),
            EngineError::InvalidSpec(why) => SubmitError::InvalidSpec(why.to_string()),
            other => SubmitError::InvalidSpec(other.to_string()),
        })
    }

    fn poll(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError> {
        Engine::poll_window(self, id, cursor, window).map_err(service_err)
    }

    fn cancel(&self, id: SessionId) -> Result<(), ServiceError> {
        Engine::cancel(self, id).map_err(service_err)
    }

    fn wait(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        Engine::wait(self, id).map_err(service_err)
    }

    fn forget(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        Engine::forget(self, id).map_err(service_err)
    }

    fn stats(&self) -> Result<ServiceStats, ServiceError> {
        Ok(Engine::service_stats(self))
    }

    fn diagnostics(&self) -> Result<Diagnostics, ServiceError> {
        Ok(Engine::diagnostics(self))
    }

    fn collect_trace(&self, trace: TraceId) -> Result<Vec<SpanRecord>, ServiceError> {
        Ok(Engine::collect_trace(self, trace))
    }
}
