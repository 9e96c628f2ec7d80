//! Mutable network state: peers, clusters, and the dynamic overlay.
//!
//! Peers and clusters live in generation-guarded slots so ids can be
//! recycled under churn without dangling events. The overlay is a
//! dynamic adjacency over clusters (the `sp-graph` CSR type is
//! immutable, built for the analytic engine; here edges come and go
//! every few simulated seconds).

use crate::counters::LoadCounters;
use crate::events::{ClusterId, PeerId, SimTime};
use sp_model::config::Config;
use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError};
use sp_stats::SpRng;

/// Slot counts a churn run reserves once, before bootstrap or a
/// restore fills any slab, so no slab regrows while it is filled
/// (DESIGN.md §11, "Storage sized once").
///
/// Computed from the run's [`Config`] alone; capacity is never
/// serialized, so the plan moves no metric and no snapshot byte. A run
/// that outgrows a slot count still runs: that slab grows on demand
/// from the planned capacity.
#[derive(Debug, Clone, Copy)]
pub struct SlabPlan {
    /// Peer slots. Each departure schedules exactly one replacement
    /// arrival, so the slab never outgrows the bootstrap population:
    /// `graph_size` give or take the per-cluster client draws, which
    /// an eighth plus 64 covers.
    pub(crate) peers: usize,
    /// Cluster slots: the configured cluster count with the same
    /// margin, for new super-peers and splits.
    pub(crate) clusters: usize,
    /// Pending events: a live peer holds at most one leave, one query
    /// and one update timer, a departed peer's replacement arrival is
    /// one event, and a cluster holds at most one adapt tick; the
    /// peer-slot margin absorbs orphans' rejoin timers and recruit
    /// timers.
    pub(crate) events: usize,
}

impl SlabPlan {
    /// The plan for a run of `config`.
    pub(crate) fn for_config(config: &Config) -> SlabPlan {
        let peers = config.graph_size + config.graph_size / 8 + 64;
        let clusters = config.num_clusters() + config.num_clusters() / 8 + 16;
        SlabPlan {
            peers,
            clusters,
            events: 3 * peers + clusters,
        }
    }
}

/// A live peer.
#[derive(Debug, Clone)]
pub struct SimPeer {
    /// Slot generation (bumped on reuse).
    pub generation: u32,
    /// Shared files.
    pub files: u32,
    /// Cluster membership (`None` while orphaned).
    pub cluster: Option<ClusterId>,
    /// Whether the peer is currently a super-peer partner.
    pub is_partner: bool,
    /// When the peer joined the network.
    pub joined_at: SimTime,
    /// When the peer last attached to a cluster (for connected-time
    /// accounting; equals `joined_at` until the first orphaning).
    pub attached_at: SimTime,
}

/// A live cluster (virtual super-peer + clients).
#[derive(Debug, Clone)]
pub struct SimCluster {
    /// Slot generation (bumped on reuse).
    pub generation: u32,
    /// Partner peers (≥ 1 while alive).
    pub partners: Vec<PeerId>,
    /// Client peers.
    pub clients: Vec<PeerId>,
    /// Neighboring clusters in the overlay.
    pub neighbors: Vec<ClusterId>,
    /// TTL this cluster stamps on the queries it originates.
    pub ttl: u16,
    /// Total files indexed (partners + clients), maintained
    /// incrementally.
    pub total_files: u64,
    /// Round-robin pointer for partner selection.
    pub rr: usize,
    /// Deepest hop a response was observed from (local rule III input).
    pub max_response_hop: u16,
    /// Clients gained since the last adaptation tick.
    pub growth: i64,
    /// When the adaptation window was last drained (cluster creation
    /// time until the first tick). Ticks are staggered, so the window
    /// length varies and must be measured, not assumed.
    pub last_adapt_at: SimTime,
    /// Cached `Σ |partners(nb)|` over this cluster's neighbors,
    /// maintained incrementally by [`SimNetwork`] on every edge and
    /// partner-set change. Connection counting is on the per-message
    /// charging path, so recomputing the sum per message would make
    /// query cost quadratic in overlay degree.
    pub neighbor_partner_links: usize,
}

impl SimCluster {
    /// Number of member peers (partners + clients).
    pub fn size(&self) -> usize {
        self.partners.len() + self.clients.len()
    }

    /// Open connections per partner: clients + one link to every
    /// partner of every neighbor + co-partners. Uses the *current*
    /// partner counts, so it adapts as redundancy changes.
    pub fn partner_connections(&self, neighbor_partner_links: usize) -> f64 {
        self.clients.len() as f64
            + neighbor_partner_links as f64
            + (self.partners.len() as f64 - 1.0)
    }

    /// [`partner_connections`](Self::partner_connections) using the
    /// incrementally maintained neighbor-link cache — O(1) instead of
    /// O(degree). Produces exactly the same value: the cache is an
    /// integer sum, so no floating-point drift is possible.
    pub fn partner_connections_cached(&self) -> f64 {
        self.partner_connections(self.neighbor_partner_links)
    }
}

/// The whole mutable network.
#[derive(Debug, Default)]
pub struct SimNetwork {
    /// Peer slots.
    pub peers: Vec<Option<SimPeer>>,
    /// Traffic counters, parallel to `peers` and indexed by peer id.
    ///
    /// Kept out of [`SimPeer`] deliberately: charging is the hottest
    /// path in the simulator, and a dense array of cache-line-aligned
    /// 64-byte records holds nothing a charge does not write, where
    /// interleaving the counters with the 40-byte peer slots would put
    /// peer data on the lines a flood charges. A freed
    /// slot's counters stay readable (departure accounting) until
    /// [`SimNetwork::add_peer`] recycles the slot and zeroes them.
    pub counters: Vec<LoadCounters>,
    free_peers: Vec<PeerId>,
    peer_generations: Vec<u32>,
    /// Cluster slots.
    pub clusters: Vec<Option<SimCluster>>,
    free_clusters: Vec<ClusterId>,
    cluster_generations: Vec<u32>,
    /// Alive cluster ids, for O(1) random discovery ("pong server").
    alive: Vec<ClusterId>,
    alive_pos: Vec<usize>,
}

const NOT_ALIVE: usize = usize::MAX;

impl SimNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty network whose per-peer and per-cluster slabs
    /// hold `plan`'s slot counts without regrowing.
    pub(crate) fn with_capacity(plan: &SlabPlan) -> Self {
        SimNetwork {
            peers: Vec::with_capacity(plan.peers),
            counters: Vec::with_capacity(plan.peers),
            peer_generations: Vec::with_capacity(plan.peers),
            clusters: Vec::with_capacity(plan.clusters),
            cluster_generations: Vec::with_capacity(plan.clusters),
            alive: Vec::with_capacity(plan.clusters),
            alive_pos: Vec::with_capacity(plan.clusters),
            ..Self::default()
        }
    }

    // ---- peers ----

    /// Allocates a peer slot.
    pub fn add_peer(&mut self, files: u32, joined_at: SimTime) -> PeerId {
        let id = match self.free_peers.pop() {
            Some(id) => id,
            None => {
                let id = self.peers.len() as PeerId;
                self.peers.push(None);
                self.counters.push(LoadCounters::new());
                self.peer_generations.push(0);
                id
            }
        };
        let generation = self.peer_generations[id as usize];
        self.counters[id as usize] = LoadCounters::new();
        self.peers[id as usize] = Some(SimPeer {
            generation,
            files,
            cluster: None,
            is_partner: false,
            joined_at,
            attached_at: joined_at,
        });
        id
    }

    /// Frees a peer slot, returning its final state.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free.
    pub fn remove_peer(&mut self, id: PeerId) -> SimPeer {
        let peer = self.peers[id as usize]
            .take()
            .expect("peer already removed");
        self.peer_generations[id as usize] = self.peer_generations[id as usize].wrapping_add(1);
        self.free_peers.push(id);
        peer
    }

    /// The peer in a slot, if alive and matching the generation.
    pub fn peer(&self, id: PeerId, generation: u32) -> Option<&SimPeer> {
        self.peers
            .get(id as usize)?
            .as_ref()
            .filter(|p| p.generation == generation)
    }

    /// Mutable access regardless of generation (caller checked).
    pub fn peer_mut(&mut self, id: PeerId) -> Option<&mut SimPeer> {
        self.peers.get_mut(id as usize)?.as_mut()
    }

    /// Current generation of a peer slot.
    pub fn peer_generation(&self, id: PeerId) -> u32 {
        self.peer_generations[id as usize]
    }

    // ---- clusters ----

    /// Creates a cluster led by `partner` (which must be an unattached
    /// peer).
    pub fn add_cluster(&mut self, partner: PeerId, ttl: u16) -> ClusterId {
        let id = match self.free_clusters.pop() {
            Some(id) => id,
            None => {
                let id = self.clusters.len() as ClusterId;
                self.clusters.push(None);
                self.cluster_generations.push(0);
                self.alive_pos.push(NOT_ALIVE);
                id
            }
        };
        let generation = self.cluster_generations[id as usize];
        let files = self.peers[partner as usize]
            .as_ref()
            .expect("partner alive")
            .files as u64;
        self.clusters[id as usize] = Some(SimCluster {
            generation,
            partners: vec![partner],
            clients: Vec::new(),
            neighbors: Vec::new(),
            ttl,
            total_files: files,
            rr: 0,
            max_response_hop: 0,
            growth: 0,
            last_adapt_at: 0.0,
            neighbor_partner_links: 0,
        });
        {
            let p = self.peers[partner as usize]
                .as_mut()
                .expect("partner alive");
            p.cluster = Some(id);
            p.is_partner = true;
        }
        self.alive_pos[id as usize] = self.alive.len();
        self.alive.push(id);
        id
    }

    /// Removes a cluster (must already have no members) and detaches
    /// its overlay edges.
    pub fn remove_cluster(&mut self, id: ClusterId) {
        let cluster = self.clusters[id as usize]
            .take()
            .expect("cluster already removed");
        assert!(
            cluster.partners.is_empty() && cluster.clients.is_empty(),
            "cluster removed while members remain"
        );
        for nb in cluster.neighbors {
            if let Some(n) = self.clusters[nb as usize].as_mut() {
                n.neighbors.retain(|&c| c != id);
            }
        }
        self.cluster_generations[id as usize] =
            self.cluster_generations[id as usize].wrapping_add(1);
        self.free_clusters.push(id);
        // Swap-remove from the alive list.
        let pos = self.alive_pos[id as usize];
        debug_assert_ne!(pos, NOT_ALIVE);
        let last = *self.alive.last().expect("alive nonempty");
        self.alive.swap_remove(pos);
        if last != id {
            self.alive_pos[last as usize] = pos;
        }
        self.alive_pos[id as usize] = NOT_ALIVE;
    }

    /// The cluster in a slot, if alive and matching the generation.
    pub fn cluster(&self, id: ClusterId, generation: u32) -> Option<&SimCluster> {
        self.clusters
            .get(id as usize)?
            .as_ref()
            .filter(|c| c.generation == generation)
    }

    /// Mutable access regardless of generation.
    pub fn cluster_mut(&mut self, id: ClusterId) -> Option<&mut SimCluster> {
        self.clusters.get_mut(id as usize)?.as_mut()
    }

    /// Number of live clusters.
    pub fn num_alive_clusters(&self) -> usize {
        self.alive.len()
    }

    /// A uniformly random live cluster (the "pong server" discovery of
    /// Section 4.1), or `None` if the network is empty.
    pub fn random_cluster(&self, rng: &mut SpRng) -> Option<ClusterId> {
        if self.alive.is_empty() {
            None
        } else {
            Some(self.alive[rng.index(self.alive.len())])
        }
    }

    /// Iterator over live cluster ids.
    pub fn alive_clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.alive.iter().copied()
    }

    // ---- membership & overlay ----

    /// Attaches an unattached peer as a client.
    pub fn attach_client(&mut self, peer: PeerId, cluster: ClusterId) {
        let files = {
            let p = self.peers[peer as usize].as_mut().expect("peer alive");
            debug_assert!(p.cluster.is_none(), "peer already attached");
            p.cluster = Some(cluster);
            p.is_partner = false;
            p.files as u64
        };
        let c = self.clusters[cluster as usize]
            .as_mut()
            .expect("cluster alive");
        c.clients.push(peer);
        c.total_files += files;
        c.growth += 1;
    }

    /// Detaches a client (on leave or orphan migration).
    pub fn detach_client(&mut self, peer: PeerId) {
        let (cluster, files) = {
            let p = self.peers[peer as usize].as_mut().expect("peer alive");
            let cluster = p.cluster.take().expect("client attached");
            (cluster, p.files as u64)
        };
        if let Some(c) = self.clusters[cluster as usize].as_mut() {
            c.clients.retain(|&x| x != peer);
            c.total_files -= files;
            c.growth -= 1;
        }
    }

    /// Detaches a partner from its cluster; returns the cluster id.
    pub fn detach_partner(&mut self, peer: PeerId) -> ClusterId {
        let (cluster, files) = {
            let p = self.peers[peer as usize].as_mut().expect("peer alive");
            let cluster = p.cluster.take().expect("partner attached");
            p.is_partner = false;
            (cluster, p.files as u64)
        };
        let c = self.clusters[cluster as usize]
            .as_mut()
            .expect("cluster alive");
        c.partners.retain(|&x| x != peer);
        c.total_files -= files;
        self.partner_count_changed(cluster, -1);
        cluster
    }

    /// Propagates a ±1 partner-count change of `cluster` into every
    /// neighbor's `neighbor_partner_links` cache.
    fn partner_count_changed(&mut self, cluster: ClusterId, delta: isize) {
        let num_neighbors = self.clusters[cluster as usize]
            .as_ref()
            .expect("cluster alive")
            .neighbors
            .len();
        for i in 0..num_neighbors {
            let nb = self.clusters[cluster as usize]
                .as_ref()
                .expect("cluster alive")
                .neighbors[i];
            if let Some(n) = self.clusters[nb as usize].as_mut() {
                n.neighbor_partner_links =
                    n.neighbor_partner_links.checked_add_signed(delta).expect(
                        "neighbor_partner_links underflow: cache out of sync with partner sets",
                    );
            }
        }
    }

    /// Promotes a client of `cluster` to partner. Returns the promoted
    /// peer, or `None` if the cluster has no clients.
    pub fn promote_client(&mut self, cluster: ClusterId, rng: &mut SpRng) -> Option<PeerId> {
        let peer = {
            let c = self.clusters[cluster as usize].as_mut()?;
            if c.clients.is_empty() {
                return None;
            }
            let idx = rng.index(c.clients.len());
            let peer = c.clients.swap_remove(idx);
            c.partners.push(peer);
            peer
        };
        self.partner_count_changed(cluster, 1);
        let p = self.peers[peer as usize].as_mut().expect("client alive");
        p.is_partner = true;
        Some(peer)
    }

    /// Promotes a *specific* client of `cluster` to partner. Returns
    /// `None` if the peer is not currently a client of that cluster.
    pub fn promote_specific(&mut self, cluster: ClusterId, peer: PeerId) -> Option<PeerId> {
        {
            let c = self.clusters[cluster as usize].as_mut()?;
            let idx = c.clients.iter().position(|&x| x == peer)?;
            c.clients.swap_remove(idx);
            c.partners.push(peer);
        }
        self.partner_count_changed(cluster, 1);
        let p = self.peers[peer as usize].as_mut().expect("client alive");
        p.is_partner = true;
        Some(peer)
    }

    /// Adds an undirected overlay edge; no-op when already present or
    /// when the ends coincide. Returns whether an edge was added.
    pub fn add_edge(&mut self, a: ClusterId, b: ClusterId) -> bool {
        if a == b {
            return false;
        }
        let present = self.clusters[a as usize]
            .as_ref()
            .map(|c| c.neighbors.contains(&b))
            .unwrap_or(true);
        if present {
            return false;
        }
        if self.clusters[b as usize].is_none() {
            return false;
        }
        let a_partners = self.clusters[a as usize]
            .as_ref()
            .expect("checked")
            .partners
            .len();
        let b_partners = self.clusters[b as usize]
            .as_ref()
            .expect("checked")
            .partners
            .len();
        {
            let ca = self.clusters[a as usize].as_mut().expect("checked");
            ca.neighbors.push(b);
            ca.neighbor_partner_links += b_partners;
        }
        {
            let cb = self.clusters[b as usize].as_mut().expect("checked");
            cb.neighbors.push(a);
            cb.neighbor_partner_links += a_partners;
        }
        true
    }

    /// Writes the whole network into a snapshot payload **verbatim**,
    /// including the private free lists (their pop order governs slot
    /// reuse), slot generations, and the alive list with its
    /// back-pointers (its order governs `random_cluster` draws).
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.len(self.peers.len());
        for slot in &self.peers {
            match slot {
                None => w.bool(false),
                Some(p) => {
                    w.bool(true);
                    w.u32(p.generation);
                    w.u32(p.files);
                    match p.cluster {
                        None => w.bool(false),
                        Some(c) => {
                            w.bool(true);
                            w.u32(c);
                        }
                    }
                    w.bool(p.is_partner);
                    w.f64(p.joined_at);
                    w.f64(p.attached_at);
                }
            }
        }
        w.len(self.counters.len());
        for c in &self.counters {
            c.snap(w);
        }
        w.len(self.free_peers.len());
        for &id in &self.free_peers {
            w.u32(id);
        }
        w.len(self.peer_generations.len());
        for &g in &self.peer_generations {
            w.u32(g);
        }
        w.len(self.clusters.len());
        for slot in &self.clusters {
            match slot {
                None => w.bool(false),
                Some(c) => {
                    w.bool(true);
                    w.u32(c.generation);
                    w.len(c.partners.len());
                    for &p in &c.partners {
                        w.u32(p);
                    }
                    w.len(c.clients.len());
                    for &p in &c.clients {
                        w.u32(p);
                    }
                    w.len(c.neighbors.len());
                    for &n in &c.neighbors {
                        w.u32(n);
                    }
                    w.u16(c.ttl);
                    w.u64(c.total_files);
                    w.len(c.rr);
                    w.u16(c.max_response_hop);
                    w.u64(c.growth as u64);
                    w.f64(c.last_adapt_at);
                    w.len(c.neighbor_partner_links);
                }
            }
        }
        w.len(self.free_clusters.len());
        for &id in &self.free_clusters {
            w.u32(id);
        }
        w.len(self.cluster_generations.len());
        for &g in &self.cluster_generations {
            w.u32(g);
        }
        w.len(self.alive.len());
        for &id in &self.alive {
            w.u32(id);
        }
        w.len(self.alive_pos.len());
        for &pos in &self.alive_pos {
            w.u64(pos as u64);
        }
    }

    /// Reads a network written by [`SimNetwork::snap`] into slabs that
    /// hold at least `plan`'s slot counts.
    pub(crate) fn unsnap(
        r: &mut SnapReader<'_>,
        plan: &SlabPlan,
    ) -> Result<SimNetwork, SnapshotError> {
        let n_peers = r.len("peer slots len")?;
        let mut peers = Vec::with_capacity(n_peers.max(plan.peers));
        for _ in 0..n_peers {
            if !r.bool("peer slot occupied")? {
                peers.push(None);
                continue;
            }
            peers.push(Some(SimPeer {
                generation: r.u32("peer generation")?,
                files: r.u32("peer files")?,
                cluster: if r.bool("peer has cluster")? {
                    Some(r.u32("peer cluster")?)
                } else {
                    None
                },
                is_partner: r.bool("peer is_partner")?,
                joined_at: r.f64("peer joined_at")?,
                attached_at: r.f64("peer attached_at")?,
            }));
        }
        let n_counters = r.len("counters len")?;
        let mut counters = Vec::with_capacity(n_counters.max(plan.peers));
        for _ in 0..n_counters {
            counters.push(LoadCounters::unsnap(r)?);
        }
        let n_free_peers = r.len("free peers len")?;
        let mut free_peers = Vec::with_capacity(n_free_peers);
        for _ in 0..n_free_peers {
            free_peers.push(r.u32("free peer id")?);
        }
        let n_pgen = r.len("peer generations len")?;
        let mut peer_generations = Vec::with_capacity(n_pgen.max(plan.peers));
        for _ in 0..n_pgen {
            peer_generations.push(r.u32("peer slot generation")?);
        }
        let n_clusters = r.len("cluster slots len")?;
        let mut clusters = Vec::with_capacity(n_clusters.max(plan.clusters));
        for _ in 0..n_clusters {
            if !r.bool("cluster slot occupied")? {
                clusters.push(None);
                continue;
            }
            let generation = r.u32("cluster generation")?;
            let n = r.len("cluster partners len")?;
            let mut partners = Vec::with_capacity(n);
            for _ in 0..n {
                partners.push(r.u32("cluster partner")?);
            }
            let n = r.len("cluster clients len")?;
            let mut clients = Vec::with_capacity(n);
            for _ in 0..n {
                clients.push(r.u32("cluster client")?);
            }
            let n = r.len("cluster neighbors len")?;
            let mut neighbors = Vec::with_capacity(n);
            for _ in 0..n {
                neighbors.push(r.u32("cluster neighbor")?);
            }
            clusters.push(Some(SimCluster {
                generation,
                partners,
                clients,
                neighbors,
                ttl: r.u16("cluster ttl")?,
                total_files: r.u64("cluster total_files")?,
                // The round-robin cursor is a wrapping counter, not a
                // length: in a long high-rate run it legitimately
                // exceeds the payload size, so skip the bounds check.
                rr: r.u64("cluster rr")? as usize,
                max_response_hop: r.u16("cluster max_response_hop")?,
                growth: r.u64("cluster growth")? as i64,
                last_adapt_at: r.f64("cluster last_adapt_at")?,
                neighbor_partner_links: r.len("cluster neighbor_partner_links")?,
            }));
        }
        let n_free_clusters = r.len("free clusters len")?;
        let mut free_clusters = Vec::with_capacity(n_free_clusters);
        for _ in 0..n_free_clusters {
            free_clusters.push(r.u32("free cluster id")?);
        }
        let n_cgen = r.len("cluster generations len")?;
        let mut cluster_generations = Vec::with_capacity(n_cgen.max(plan.clusters));
        for _ in 0..n_cgen {
            cluster_generations.push(r.u32("cluster slot generation")?);
        }
        let n_alive = r.len("alive len")?;
        let mut alive = Vec::with_capacity(n_alive.max(plan.clusters));
        for _ in 0..n_alive {
            let id = r.u32("alive cluster id")?;
            if id as usize >= clusters.len() {
                return Err(SnapshotError::Malformed(format!(
                    "alive cluster {id} outside slab of {}",
                    clusters.len()
                )));
            }
            alive.push(id);
        }
        let n_alive_pos = r.len("alive_pos len")?;
        let mut alive_pos = Vec::with_capacity(n_alive_pos.max(plan.clusters));
        for _ in 0..n_alive_pos {
            // NOT_ALIVE (usize::MAX) exceeds the payload size, so read
            // the raw u64 rather than the bounds-checked `len`.
            alive_pos.push(r.u64("alive_pos entry")? as usize);
        }
        for &pos in &alive_pos {
            if pos != NOT_ALIVE && pos >= alive.len() {
                return Err(SnapshotError::Malformed(format!(
                    "alive_pos {pos} outside alive list of {}",
                    alive.len()
                )));
            }
        }
        let net = SimNetwork {
            peers,
            counters,
            free_peers,
            peer_generations,
            clusters,
            free_clusters,
            cluster_generations,
            alive,
            alive_pos,
        };
        net.check_invariants().map_err(SnapshotError::Malformed)?;
        Ok(net)
    }

    /// Validates structural invariants (membership symmetry, edge
    /// symmetry, file-count consistency). Test/debug helper.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, slot) in self.clusters.iter().enumerate() {
            let Some(c) = slot else { continue };
            let mut files = 0u64;
            for &p in c.partners.iter().chain(c.clients.iter()) {
                let peer = self.peers[p as usize]
                    .as_ref()
                    .ok_or_else(|| format!("cluster {i} references dead peer {p}"))?;
                if peer.cluster != Some(i as ClusterId) {
                    return Err(format!("peer {p} does not point back at cluster {i}"));
                }
                files += peer.files as u64;
            }
            if files != c.total_files {
                return Err(format!(
                    "cluster {i}: cached files {} != actual {files}",
                    c.total_files
                ));
            }
            let mut neighbor_links = 0usize;
            for &nb in &c.neighbors {
                let n = self.clusters[nb as usize]
                    .as_ref()
                    .ok_or_else(|| format!("cluster {i} has dead neighbor {nb}"))?;
                if !n.neighbors.contains(&(i as ClusterId)) {
                    return Err(format!("asymmetric edge {i} → {nb}"));
                }
                neighbor_links += n.partners.len();
            }
            if neighbor_links != c.neighbor_partner_links {
                return Err(format!(
                    "cluster {i}: cached neighbor partner links {} != actual {neighbor_links}",
                    c.neighbor_partner_links
                ));
            }
        }
        for (i, &pos) in self.alive_pos.iter().enumerate() {
            let alive = self.clusters[i].is_some();
            if alive != (pos != NOT_ALIVE) {
                return Err(format!("alive list out of sync for cluster {i}"));
            }
            if alive && self.alive[pos] != i as ClusterId {
                return Err(format!("alive position wrong for cluster {i}"));
            }
        }
        Ok(())
    }

    /// Every slab `plan` sizes: its name, capacity, and planned slot
    /// count.
    #[cfg(test)]
    pub(crate) fn slab_capacities(&self, plan: &SlabPlan) -> [(&'static str, usize, usize); 7] {
        [
            ("net.peers", self.peers.capacity(), plan.peers),
            ("net.counters", self.counters.capacity(), plan.peers),
            (
                "net.peer_generations",
                self.peer_generations.capacity(),
                plan.peers,
            ),
            ("net.clusters", self.clusters.capacity(), plan.clusters),
            (
                "net.cluster_generations",
                self.cluster_generations.capacity(),
                plan.clusters,
            ),
            ("net.alive", self.alive.capacity(), plan.clusters),
            ("net.alive_pos", self.alive_pos.capacity(), plan.clusters),
        ]
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]
mod tests {
    use super::*;

    fn rng() -> SpRng {
        SpRng::seed_from_u64(7)
    }

    #[test]
    fn peer_slots_recycle_with_generation_bump() {
        let mut net = SimNetwork::new();
        let a = net.add_peer(10, 0.0);
        let g0 = net.peer_generation(a);
        net.remove_peer(a);
        let b = net.add_peer(20, 1.0);
        assert_eq!(a, b, "slot reused");
        assert_ne!(net.peer_generation(b), g0);
        assert!(net.peer(b, g0).is_none(), "stale generation rejected");
        assert!(net.peer(b, net.peer_generation(b)).is_some());
    }

    #[test]
    fn cluster_lifecycle_and_alive_list() {
        let mut net = SimNetwork::new();
        let mut r = rng();
        let p1 = net.add_peer(5, 0.0);
        let p2 = net.add_peer(7, 0.0);
        let c1 = net.add_cluster(p1, 7);
        let c2 = net.add_cluster(p2, 7);
        assert_eq!(net.num_alive_clusters(), 2);
        assert!(net.add_edge(c1, c2));
        assert!(!net.add_edge(c1, c2), "duplicate edge rejected");
        assert!(!net.add_edge(c1, c1), "self edge rejected");
        net.check_invariants().unwrap();

        net.detach_partner(p1);
        net.remove_cluster(c1);
        assert_eq!(net.num_alive_clusters(), 1);
        assert_eq!(net.random_cluster(&mut r), Some(c2));
        // Edge removed from the survivor.
        assert!(net.clusters[c2 as usize]
            .as_ref()
            .unwrap()
            .neighbors
            .is_empty());
        net.check_invariants().unwrap();
    }

    #[test]
    fn attach_detach_maintains_files() {
        let mut net = SimNetwork::new();
        let sp = net.add_peer(100, 0.0);
        let c = net.add_cluster(sp, 7);
        let cl = net.add_peer(50, 0.0);
        net.attach_client(cl, c);
        assert_eq!(net.clusters[c as usize].as_ref().unwrap().total_files, 150);
        net.check_invariants().unwrap();
        net.detach_client(cl);
        assert_eq!(net.clusters[c as usize].as_ref().unwrap().total_files, 100);
        net.check_invariants().unwrap();
    }

    #[test]
    fn promote_client_moves_role() {
        let mut net = SimNetwork::new();
        let mut r = rng();
        let sp = net.add_peer(10, 0.0);
        let c = net.add_cluster(sp, 7);
        assert!(net.promote_client(c, &mut r).is_none());
        let cl = net.add_peer(5, 0.0);
        net.attach_client(cl, c);
        let promoted = net.promote_client(c, &mut r).unwrap();
        assert_eq!(promoted, cl);
        assert!(net.peers[cl as usize].as_ref().unwrap().is_partner);
        let cluster = net.clusters[c as usize].as_ref().unwrap();
        assert_eq!(cluster.partners.len(), 2);
        assert!(cluster.clients.is_empty());
        assert_eq!(cluster.total_files, 15);
        net.check_invariants().unwrap();
    }

    #[test]
    fn neighbor_partner_links_tracks_promotions_and_departures() {
        let mut net = SimNetwork::new();
        let mut r = rng();
        let p1 = net.add_peer(1, 0.0);
        let p2 = net.add_peer(1, 0.0);
        let c1 = net.add_cluster(p1, 7);
        let c2 = net.add_cluster(p2, 7);
        net.add_edge(c1, c2);
        let links = |net: &SimNetwork, c: ClusterId| {
            net.clusters[c as usize]
                .as_ref()
                .unwrap()
                .neighbor_partner_links
        };
        assert_eq!(links(&net, c1), 1);
        assert_eq!(links(&net, c2), 1);

        // Promoting a client of c2 raises c1's link count.
        let cl = net.add_peer(1, 0.0);
        net.attach_client(cl, c2);
        assert_eq!(links(&net, c1), 1, "clients do not add partner links");
        net.promote_client(c2, &mut r).unwrap();
        assert_eq!(links(&net, c1), 2);
        net.check_invariants().unwrap();

        // A partner departure lowers it again.
        net.detach_partner(cl);
        assert_eq!(links(&net, c1), 1);
        net.check_invariants().unwrap();

        // Cached and recomputed connection counts agree.
        let c = net.clusters[c1 as usize].as_ref().unwrap();
        assert_eq!(
            c.partner_connections_cached(),
            c.partner_connections(links(&net, c1))
        );
    }

    #[test]
    fn random_cluster_on_empty_network() {
        let net = SimNetwork::new();
        assert!(net.random_cluster(&mut rng()).is_none());
    }

    #[test]
    #[should_panic(expected = "members remain")]
    fn removing_populated_cluster_panics() {
        let mut net = SimNetwork::new();
        let sp = net.add_peer(1, 0.0);
        let c = net.add_cluster(sp, 7);
        net.remove_cluster(c);
    }
}
