//! Admission control: connection caps, per-tenant quotas, and
//! queue-depth load shedding.
//!
//! Every limit here rejects with a *typed, retryable* answer — a
//! [`ServiceError::Overloaded`] or [`ServiceError::Unauthorized`] that
//! the reactor sends as is, keeping the connection open — rather than
//! stalling the client or dropping the socket. A shed client knows
//! exactly when to come back; an unauthorized one knows it must
//! re-`Hello`.

use exsample_engine::{Engine, ServiceError, TenantId};
use std::collections::HashMap;

/// Limits enforced by the reactor's admission layer.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Cap on simultaneously open client connections across all
    /// tenants. Connections beyond the cap are answered with
    /// `Overloaded` and closed after the answer flushes.
    pub max_connections: usize,
    /// Cap on simultaneously open connections bound to one tenant.
    pub max_connections_per_tenant: usize,
    /// Cap on unfinished sessions owned by one tenant. Submits beyond
    /// it are shed (the connection survives).
    pub max_sessions_per_tenant: u64,
    /// Cap on unfinished sessions engine-wide — the shed threshold.
    /// When the engine's run queue is this deep, further submits from
    /// *any* tenant are answered `Overloaded`.
    pub max_queue_depth: usize,
    /// The `retry_after_ms` hint carried by every `Overloaded` answer.
    pub retry_after_ms: u64,
    /// When true, submits on a connection that has not completed a
    /// `Hello` are rejected `Unauthorized`. When false, unauthenticated
    /// connections run as the anonymous tenant.
    pub require_auth: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_connections: 16_384,
            max_connections_per_tenant: 16_384,
            max_sessions_per_tenant: 4_096,
            max_queue_depth: 65_536,
            retry_after_ms: 50,
            require_auth: false,
        }
    }
}

/// Admission state: the config plus per-tenant connection counts.
/// Session counts are *not* duplicated here — the engine already tracks
/// them exactly (`Engine::tenant_running`, `Engine::running_sessions`),
/// and reading the engine's own ledger means admission can never drift
/// from reality across worker-side session retirement.
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    conns_by_tenant: HashMap<TenantId, usize>,
}

impl Admission {
    /// New admission state over `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        Admission {
            config,
            conns_by_tenant: HashMap::new(),
        }
    }

    /// May another connection be accepted, given `active` already open?
    pub(crate) fn admit_connection(&self, active: usize) -> Result<(), ServiceError> {
        if active >= self.config.max_connections {
            return Err(self.overloaded());
        }
        Ok(())
    }

    /// Bind a freshly authenticated connection to `tenant`, enforcing
    /// the per-tenant connection cap. On `Ok` the count is taken;
    /// release it with [`unbind_tenant`](Self::unbind_tenant) when the
    /// connection closes or re-authenticates.
    pub(crate) fn bind_tenant(&mut self, tenant: TenantId) -> Result<(), ServiceError> {
        let n = self.conns_by_tenant.entry(tenant).or_insert(0);
        if *n >= self.config.max_connections_per_tenant {
            return Err(self.overloaded());
        }
        *n += 1;
        Ok(())
    }

    /// Release one connection slot of `tenant`.
    pub(crate) fn unbind_tenant(&mut self, tenant: TenantId) {
        if let Some(n) = self.conns_by_tenant.get_mut(&tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.conns_by_tenant.remove(&tenant);
            }
        }
    }

    /// May `tenant` (None = unauthenticated) submit another session
    /// right now? Checks authentication requirement, the engine-wide
    /// queue depth, and the tenant's session quota.
    pub fn admit_submit(
        &self,
        tenant: Option<TenantId>,
        engine: &Engine,
    ) -> Result<(), ServiceError> {
        let tenant = match tenant {
            Some(t) => t,
            None if self.config.require_auth => {
                return Err(ServiceError::Unauthorized(
                    "submit requires an authenticated tenant; send Hello first".to_owned(),
                ));
            }
            None => TenantId(0),
        };
        if engine.running_sessions() >= self.config.max_queue_depth {
            return Err(self.overloaded());
        }
        if engine.tenant_running(tenant) >= self.config.max_sessions_per_tenant {
            return Err(self.overloaded());
        }
        Ok(())
    }

    fn overloaded(&self) -> ServiceError {
        ServiceError::Overloaded {
            retry_after_ms: self.config.retry_after_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> Admission {
        Admission::new(AdmissionConfig {
            max_connections: 2,
            max_connections_per_tenant: 1,
            max_sessions_per_tenant: 1,
            max_queue_depth: 4,
            retry_after_ms: 25,
            require_auth: false,
        })
    }

    #[test]
    fn connection_cap_sheds_with_hint() {
        let adm = tight();
        assert!(adm.admit_connection(0).is_ok());
        assert!(adm.admit_connection(1).is_ok());
        assert_eq!(
            adm.admit_connection(2),
            Err(ServiceError::Overloaded { retry_after_ms: 25 })
        );
    }

    #[test]
    fn per_tenant_connection_quota_binds_and_releases() {
        let mut adm = tight();
        let t = TenantId(7);
        assert!(adm.bind_tenant(t).is_ok());
        assert!(matches!(
            adm.bind_tenant(t),
            Err(ServiceError::Overloaded { .. })
        ));
        assert_eq!(adm.conns_by_tenant.get(&t), Some(&1));
        adm.unbind_tenant(t);
        assert_eq!(adm.conns_by_tenant.get(&t), None);
        assert!(adm.bind_tenant(t).is_ok());
        // A different tenant has its own budget.
        assert!(adm.bind_tenant(TenantId(8)).is_ok());
    }

    #[test]
    fn unbind_of_unknown_tenant_is_harmless() {
        let mut adm = tight();
        adm.unbind_tenant(TenantId(99));
        assert!(adm.conns_by_tenant.is_empty());
    }

    #[test]
    fn require_auth_rejects_anonymous_submits() {
        let cfg = AdmissionConfig {
            require_auth: true,
            ..AdmissionConfig::default()
        };
        let adm = Admission::new(cfg);
        let engine = Engine::new(exsample_engine::EngineConfig {
            workers: 1,
            ..Default::default()
        });
        match adm.admit_submit(None, &engine) {
            Err(ServiceError::Unauthorized(_)) => {}
            other => panic!("expected Unauthorized, got {other:?}"),
        }
        assert!(adm.admit_submit(Some(TenantId(1)), &engine).is_ok());
    }
}
