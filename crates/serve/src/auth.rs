//! Tenant identity: tokens, tiers, and the registry resolving one to
//! the other.
//!
//! Authentication is deliberately minimal — a bearer-token lookup, not
//! a credential system. What matters architecturally is *where* the
//! identity is established: the reactor binds a [`TenantId`] to a
//! connection at the [`Hello`](exsample_proto::Message::Hello) exchange
//! and every later submit inherits it, so quota accounting and tier
//! weighting key off something the server verified, never off a field
//! the client controls.

use exsample_engine::{TenantBinding, TenantId};
use exsample_proto::connection::ANONYMOUS;
use std::collections::HashMap;

/// Service tier of a tenant, mapped onto a scheduler weight multiplier:
/// under contention, an `Enterprise` session receives 16× the detector
/// budget of a `Free` session submitting the same spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Baseline: weight ×1.
    Free,
    /// Weight ×4.
    Pro,
    /// Weight ×16.
    Enterprise,
}

impl Tier {
    /// The tier's scheduler weight multiplier (≥ 1); composes with the
    /// per-query `QuerySpec::weight` by multiplication.
    pub fn weight(self) -> u32 {
        match self {
            Tier::Free => 1,
            Tier::Pro => 4,
            Tier::Enterprise => 16,
        }
    }
}

/// One registered tenant.
#[derive(Debug, Clone)]
struct Registered {
    tenant: TenantId,
    tier: Tier,
    name: String,
}

/// Token → tenant registry, fixed at server construction.
///
/// Tenant ids are assigned from 1; id 0 is reserved for the anonymous
/// tenant that an *empty* registry resolves every token to (an open
/// server — what the blocking pump, which has no registry, answers too:
/// [`exsample_proto::connection::ANONYMOUS`]).
/// A non-empty registry rejects unknown tokens.
#[derive(Debug, Default, Clone)]
pub struct AuthRegistry {
    by_token: HashMap<String, Registered>,
    next: u32,
}

impl AuthRegistry {
    /// An empty registry: every token authenticates as the anonymous
    /// tenant `(0, Free)`.
    pub fn new() -> Self {
        AuthRegistry {
            by_token: HashMap::new(),
            next: 1,
        }
    }

    /// Register a tenant under `token`, returning its assigned id.
    /// Re-registering an existing token replaces its entry (same id).
    pub fn register(&mut self, name: &str, token: &str, tier: Tier) -> TenantId {
        if let Some(existing) = self.by_token.get_mut(token) {
            existing.tier = tier;
            existing.name = name.to_owned();
            return existing.tenant;
        }
        let tenant = TenantId(self.next);
        self.next += 1;
        self.by_token.insert(
            token.to_owned(),
            Registered {
                tenant,
                tier,
                name: name.to_owned(),
            },
        );
        tenant
    }

    /// Resolve a presented token. `Some` carries the tenant's binding
    /// (identity + tier weight); `None` means the token is unknown to a
    /// non-empty registry and the connection must stay unauthenticated.
    pub fn authenticate(&self, token: &str) -> Option<TenantBinding> {
        if self.by_token.is_empty() {
            return Some(ANONYMOUS);
        }
        self.by_token.get(token).map(|r| TenantBinding {
            tenant: r.tenant,
            weight: r.tier.weight(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_is_open_anonymous() {
        let auth = AuthRegistry::new();
        let b = auth.authenticate("anything").unwrap();
        assert_eq!(b.tenant, TenantId(0));
        assert_eq!(b.weight, 1);
    }

    #[test]
    fn tokens_resolve_to_tier_weights() {
        let mut auth = AuthRegistry::new();
        let free = auth.register("hobbyist", "tok-free", Tier::Free);
        let ent = auth.register("acme", "tok-ent", Tier::Enterprise);
        assert_ne!(free, ent);
        assert_ne!(free, TenantId(0), "id 0 is reserved for anonymous");
        assert_eq!(auth.authenticate("tok-free").unwrap().weight, 1);
        let b = auth.authenticate("tok-ent").unwrap();
        assert_eq!(b.weight, 16);
        assert_eq!(b.tenant, ent);
        assert_eq!(auth.by_token["tok-ent"].name, "acme");
        // Non-empty registry rejects unknown tokens.
        assert!(auth.authenticate("tok-wrong").is_none());
    }

    #[test]
    fn reregistering_a_token_keeps_its_id() {
        let mut auth = AuthRegistry::new();
        let a = auth.register("acme", "tok", Tier::Free);
        let b = auth.register("acme-renamed", "tok", Tier::Pro);
        assert_eq!(a, b);
        assert_eq!(auth.by_token.len(), 1);
        assert_eq!(auth.authenticate("tok").unwrap().weight, 4);
    }
}
