//! Local decision rules (Section 5.3).
//!
//! When design-time information or a centralized decision maker is
//! unavailable, each super-peer adapts on its own. The paper gives
//! three guidelines, under a "limited altruism" assumption (a
//! super-peer accepts any load below its self-imposed limit):
//!
//! I.   *Always accept new clients.* If the cluster grows past the
//!      limit, promote a capable client to a redundant partner, or
//!      split the cluster; if the cluster is far below the limit, try
//!      to coalesce with another small cluster.
//! II.  *Increase outdegree* while the cluster is not growing and
//!      resources are spare (rule #3 — effective only if everyone
//!      does it); resign to client if even a few neighbors are too
//!      much.
//! III. *Decrease TTL* when it does not affect reach — detected by
//!      watching whether responses ever arrive from the last hop.
//!
//! [`advise`] is a pure function from a super-peer's local view to a
//! prioritized action list; the `sp-sim` crate executes these actions
//! under churn and measures that the network converges (its
//! `adaptive` scenario).

use sp_model::load::Load;

/// What one super-peer can see locally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalView {
    /// Current measured load.
    pub load: Load,
    /// Self-imposed load limit (the "limited altruism" budget).
    pub limit: Load,
    /// Current number of clients.
    pub num_clients: usize,
    /// Current number of neighbor super-peers.
    pub num_neighbors: usize,
    /// Number of partners in this virtual super-peer (1 = alone).
    pub num_partners: usize,
    /// TTL currently stamped on forwarded queries.
    pub ttl: u16,
    /// Deepest hop count from which a response was recently observed
    /// (`0` if none observed yet).
    pub max_response_hop: u16,
    /// Whether the cluster has been growing recently.
    pub cluster_growing: bool,
}

impl LocalView {
    /// Fraction of the tightest limit component currently used (>1
    /// means overloaded).
    pub fn utilization(&self) -> f64 {
        let mut u: f64 = 0.0;
        if self.limit.in_bw > 0.0 {
            u = u.max(self.load.in_bw / self.limit.in_bw);
        }
        if self.limit.out_bw > 0.0 {
            u = u.max(self.load.out_bw / self.limit.out_bw);
        }
        if self.limit.proc > 0.0 {
            u = u.max(self.load.proc / self.limit.proc);
        }
        u
    }
}

/// An action a super-peer can take locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalAction {
    /// Keep accepting clients (guideline I: never refuse while under
    /// the limit).
    AcceptClients,
    /// Promote the most capable client to a redundant partner
    /// (overloaded, and not yet redundant).
    PromotePartner,
    /// Split the cluster in two, handing half the clients to a capable
    /// client-turned-super-peer (overloaded and already redundant, or
    /// redundancy unavailable).
    SplitCluster,
    /// Look for another small cluster to merge with (far below the
    /// limit).
    Coalesce,
    /// Open a connection to one more neighbor super-peer (guideline
    /// II).
    IncreaseOutdegree,
    /// Too weak to hold even a few neighbors: shed clients or resign to
    /// being a client (guideline II, last resort).
    Resign,
    /// Reduce the TTL stamped on forwarded queries (guideline III).
    DecreaseTtl,
}

/// Utilization above which a super-peer is considered overloaded.
pub const OVERLOAD: f64 = 1.0;
/// Utilization below which a cluster is a coalesce candidate.
pub const IDLE: f64 = 0.25;
/// Utilization headroom required before volunteering for more
/// neighbors.
pub const SPARE: f64 = 0.6;

/// Produces the prioritized local actions for a view, per the Section
/// 5.3 guidelines. The first action is the most urgent; `AcceptClients`
/// is always present unless the node should resign.
pub fn advise(view: &LocalView) -> Vec<LocalAction> {
    let mut actions = Vec::new();
    let u = view.utilization();

    if u > OVERLOAD {
        if view.num_neighbors <= 1 && view.num_clients <= 1 {
            // Can't even hold a couple of connections: step down.
            return vec![LocalAction::Resign];
        }
        if view.num_partners < 2 && view.num_clients >= 1 {
            actions.push(LocalAction::PromotePartner);
        } else if view.num_clients >= 2 {
            actions.push(LocalAction::SplitCluster);
        } else {
            actions.push(LocalAction::Resign);
        }
    }

    // Guideline III: if no response ever arrives from the final hop,
    // the TTL is wasting redundant transmissions.
    if view.ttl > 1 && view.max_response_hop > 0 && view.max_response_hop < view.ttl {
        actions.push(LocalAction::DecreaseTtl);
    }

    // Guideline II: spare capacity and a stable cluster → volunteer for
    // more neighbors.
    if u < SPARE && !view.cluster_growing {
        actions.push(LocalAction::IncreaseOutdegree);
    }

    // Guideline I second half: a nearly idle cluster should merge.
    if u < IDLE && view.num_clients > 0 {
        actions.push(LocalAction::Coalesce);
    }

    if u <= OVERLOAD {
        actions.push(LocalAction::AcceptClients);
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_view() -> LocalView {
        LocalView {
            load: Load {
                in_bw: 50_000.0,
                out_bw: 50_000.0,
                proc: 5e6,
            },
            limit: Load {
                in_bw: 100_000.0,
                out_bw: 100_000.0,
                proc: 1e7,
            },
            num_clients: 10,
            num_neighbors: 5,
            num_partners: 1,
            ttl: 4,
            max_response_hop: 4,
            cluster_growing: false,
        }
    }

    #[test]
    fn utilization_is_max_over_resources() {
        let v = base_view();
        assert!((v.utilization() - 0.5).abs() < 1e-12);
        let mut hot = v;
        hot.load.proc = 2e7;
        assert!((hot.utilization() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn healthy_node_accepts_clients_and_grows_outdegree() {
        let a = advise(&base_view());
        assert!(a.contains(&LocalAction::AcceptClients));
        assert!(a.contains(&LocalAction::IncreaseOutdegree));
        assert!(!a.contains(&LocalAction::SplitCluster));
    }

    #[test]
    fn overloaded_non_redundant_promotes_partner_first() {
        let mut v = base_view();
        v.load.out_bw = 150_000.0;
        let a = advise(&v);
        assert_eq!(a[0], LocalAction::PromotePartner);
        assert!(!a.contains(&LocalAction::AcceptClients));
    }

    #[test]
    fn overloaded_redundant_splits() {
        let mut v = base_view();
        v.load.out_bw = 150_000.0;
        v.num_partners = 2;
        let a = advise(&v);
        assert_eq!(a[0], LocalAction::SplitCluster);
    }

    #[test]
    fn hopeless_node_resigns() {
        let mut v = base_view();
        v.load.proc = 1e9;
        v.num_clients = 0;
        v.num_neighbors = 1;
        assert_eq!(advise(&v), vec![LocalAction::Resign]);
    }

    #[test]
    fn unused_ttl_hops_trigger_decrease() {
        let mut v = base_view();
        v.ttl = 7;
        v.max_response_hop = 3;
        assert!(advise(&v).contains(&LocalAction::DecreaseTtl));
        // But never below the observed hop depth.
        v.max_response_hop = 7;
        assert!(!advise(&v).contains(&LocalAction::DecreaseTtl));
        // And not before any response has been seen.
        v.max_response_hop = 0;
        assert!(!advise(&v).contains(&LocalAction::DecreaseTtl));
    }

    #[test]
    fn idle_cluster_coalesces() {
        let mut v = base_view();
        v.load = Load {
            in_bw: 1000.0,
            out_bw: 1000.0,
            proc: 1000.0,
        };
        let a = advise(&v);
        assert!(a.contains(&LocalAction::Coalesce));
        assert!(a.contains(&LocalAction::AcceptClients));
    }

    #[test]
    fn growing_cluster_defers_outdegree_increase() {
        let mut v = base_view();
        v.cluster_growing = true;
        assert!(!advise(&v).contains(&LocalAction::IncreaseOutdegree));
    }

    #[test]
    fn zero_limits_are_never_overloaded() {
        let mut v = base_view();
        v.limit = Load::ZERO; // "no limit declared"
        assert_eq!(v.utilization(), 0.0);
        assert!(advise(&v).contains(&LocalAction::AcceptClients));
    }
}
