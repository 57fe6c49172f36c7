//! [`Engine`] as a [`SearchService`]: the in-process implementation of
//! the client-facing API. Calls go straight to the engine, no
//! serialization and no error translation; the remote implementation
//! (`exsample-proto`'s `RemoteClient`) is interchangeable with this one
//! and produces identical session results.

use super::Engine;
use crate::service::{Diagnostics, RepoInfo, SearchService, ServiceError, ServiceStats};
use crate::session::{QuerySpec, SessionId, SessionReport, SessionSnapshot};
use exsample_obs::{SpanRecord, TraceId};

impl SearchService for Engine {
    fn repos(&self) -> Result<Vec<RepoInfo>, ServiceError> {
        Ok(Engine::repos(self))
    }

    fn submit(&self, spec: QuerySpec) -> Result<SessionId, ServiceError> {
        Engine::submit(self, spec)
    }

    fn poll(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError> {
        Engine::poll_window(self, id, cursor, window)
    }

    fn cancel(&self, id: SessionId) -> Result<(), ServiceError> {
        Engine::cancel(self, id)
    }

    fn wait(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        Engine::wait(self, id)
    }

    fn forget(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        Engine::forget(self, id)
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
