//! TTL-bounded BFS flooding.
//!
//! The paper's baseline search (Section 3.1) is Gnutella flooding: the
//! source sends the query to all neighbors; every node that receives a
//! *new* query decrements the TTL and, if it is still positive,
//! forwards the query to all neighbors except the one it arrived from.
//! Copies that arrive at a node which has already seen the query are
//! **dropped — but they still consumed bandwidth and processing on both
//! endpoints**. Counting those redundant transmissions is what makes
//! rule #4 ("minimize TTL") and the Appendix E caveat ("outdegree can
//! be too large") quantitative, so [`flood`] reports them exactly.
//!
//! Responses travel the reverse path of the query, i.e. up the BFS
//! predecessor tree (Section 4.1, Step 2); [`FloodResult`] exposes the
//! tree and a deepest-first accumulation helper so response traffic can
//! be charged to every intermediate hop in O(n).

use crate::graph::{Graph, NodeId};

/// Depth marker for unreached nodes.
pub const UNREACHED: u16 = u16::MAX;

/// Result of flooding a query from one source with a TTL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodResult {
    /// The query source.
    pub source: NodeId,
    /// The TTL the flood was run with.
    pub ttl: u16,
    /// BFS visit order; `order[0] == source`. Contains exactly the
    /// reached nodes, in nondecreasing depth.
    pub order: Vec<NodeId>,
    /// `depth[v]` is the hop count of `v` from the source
    /// ([`UNREACHED`] if not reached within the TTL).
    pub depth: Vec<u16>,
    /// BFS predecessor: the neighbor the first copy arrived from.
    /// `parent[source] == source`; unreached nodes also map to
    /// themselves.
    pub parent: Vec<NodeId>,
}

impl FloodResult {
    /// Number of nodes that processed the query — the paper's *reach*
    /// (includes the source, which processes its own query over its
    /// index).
    pub fn reach(&self) -> usize {
        self.order.len()
    }

    /// Whether `v` received the query.
    pub fn is_reached(&self, v: NodeId) -> bool {
        self.depth[v as usize] != UNREACHED
    }

    /// Whether `v` forwarded the query: it was reached with remaining
    /// TTL (`depth < ttl`).
    pub fn forwards(&self, v: NodeId) -> bool {
        self.depth[v as usize] < self.ttl
    }

    /// Accumulates per-node values up the predecessor tree, deepest
    /// first: after the call, `values[v]` holds the sum of the initial
    /// values over `v`'s whole BFS subtree (including `v` itself).
    ///
    /// This is how response traffic is charged to intermediaries in
    /// O(n): seed `values[T]` with the response bytes node `T`
    /// originates; afterwards the bytes *forwarded through* `v` are
    /// `values[v] - own(v)` and the bytes arriving at the source are
    /// `values[source] - own(source)`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the graph size the flood
    /// was computed on.
    pub fn accumulate_up(&self, values: &mut [f64]) {
        assert_eq!(
            values.len(),
            self.depth.len(),
            "values slice must cover every node"
        );
        for &v in self.order.iter().rev() {
            if v != self.source {
                values[self.parent[v as usize] as usize] += values[v as usize];
            }
        }
    }
}

/// Floods a query from `source` with the given `ttl` (Gnutella
/// semantics: `ttl` is the maximum hop count, so `ttl = 1` reaches the
/// direct neighbors).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn flood(g: &Graph, source: NodeId, ttl: u16) -> FloodResult {
    let n = g.num_nodes();
    assert!((source as usize) < n, "source {source} out of range");
    let mut depth = vec![UNREACHED; n];
    let mut parent: Vec<NodeId> = (0..n as NodeId).collect();
    let mut order = Vec::with_capacity(64);

    depth[source as usize] = 0;
    order.push(source);
    let mut head = 0usize;
    while head < order.len() {
        let v = order[head];
        head += 1;
        let d = depth[v as usize];
        if d >= ttl || d + 1 == UNREACHED {
            // Node received the query with TTL exhausted; it processes
            // but does not forward. (The second guard keeps depths from
            // colliding with the UNREACHED sentinel on pathological
            // graphs with eccentricity >= u16::MAX.)
            continue;
        }
        for &u in g.neighbors(v) {
            if depth[u as usize] == UNREACHED {
                depth[u as usize] = d + 1;
                parent[u as usize] = v;
                order.push(u);
            }
        }
    }
    FloodResult {
        source,
        ttl,
        order,
        depth,
        parent,
    }
}

/// Per-node query-message transmission counts for one flood, including
/// redundant copies that arrive over cycle edges and are dropped.
///
/// Forwarding rules (Section 3.1): the source transmits to all its
/// neighbors; any other forwarding node transmits to all neighbors
/// *except* its BFS parent (the connection the first copy arrived on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageCounts {
    /// Query messages sent by each node.
    pub sent: Vec<u32>,
    /// Query messages received by each node (first copies + dropped
    /// redundant copies).
    pub recv: Vec<u32>,
}

/// Reusable, allocation-free flood state: one BFS + message-count pass
/// writes into epoch-stamped arrays instead of fresh vectors, so a
/// sweep that floods from every source cluster allocates **nothing**
/// per source after the first call.
///
/// Compared to [`flood`] + [`message_counts`] (which this type matches
/// exactly — see the equivalence tests), a scratch flood also exposes
/// the *touched-node list* ([`FloodScratch::order`]): per-node outputs
/// (`depth`, `sent`, `recv`, `parent`) are only valid at indices that
/// appear in `order`, which is precisely the set with any nonzero
/// count. Callers iterate `order` instead of `0..n`, turning O(n)
/// per-source post-processing into O(reach).
///
/// # Examples
///
/// ```
/// use sp_graph::{GraphBuilder, FloodScratch};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// let mut scratch = FloodScratch::new();
/// scratch.flood(&g, 0, 2);
/// assert_eq!(scratch.order(), &[0, 1, 2]);
/// assert_eq!(scratch.depth(2), 2);
/// scratch.flood(&g, 2, 1); // reuses the same buffers
/// assert_eq!(scratch.reach(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FloodScratch {
    /// Current epoch; a node's per-node slots are valid iff its stamp
    /// matches.
    epoch: u32,
    stamp: Vec<u32>,
    depth: Vec<u16>,
    parent: Vec<NodeId>,
    sent: Vec<u32>,
    recv: Vec<u32>,
    order: Vec<NodeId>,
}

impl FloodScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new flood epoch over `n` nodes, resizing buffers if the
    /// graph grew and invalidating all per-node slots in O(1).
    fn begin(&mut self, n: usize, source: NodeId) {
        assert!((source as usize) < n, "source {source} out of range");
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.depth.resize(n, UNREACHED);
            self.parent.resize(n, 0);
            self.sent.resize(n, 0);
            self.recv.resize(n, 0);
            // Reach is at most n, so reserving here keeps every later
            // flood on this graph allocation-free.
            self.order.clear();
            self.order.reserve(n);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrapped: hard-reset stamps once every 2^32
                // floods.
                self.stamp.fill(0);
                1
            }
        };
        self.order.clear();
    }

    /// First touch of `v` this epoch: zero its slots.
    #[inline]
    fn touch(&mut self, v: NodeId) {
        let vi = v as usize;
        if self.stamp[vi] != self.epoch {
            self.stamp[vi] = self.epoch;
            self.depth[vi] = UNREACHED;
            self.parent[vi] = v;
            self.sent[vi] = 0;
            self.recv[vi] = 0;
        }
    }

    /// Floods a query from `source` with `ttl` over `g`, computing BFS
    /// depths, predecessors, and per-node query-transmission counts
    /// (including redundant copies over cycle edges) in a single pass.
    ///
    /// Equivalent to [`flood`] followed by [`message_counts`], without
    /// the three O(n) allocations per source.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn flood(&mut self, g: &Graph, source: NodeId, ttl: u16) {
        self.begin(g.num_nodes(), source);
        self.touch(source);
        self.depth[source as usize] = 0;
        self.order.push(source);
        let mut head = 0usize;
        while head < self.order.len() {
            let v = self.order[head];
            head += 1;
            let vi = v as usize;
            let d = self.depth[vi];
            if d >= ttl || d + 1 == UNREACHED {
                // TTL exhausted: the node processes but does not
                // forward (second guard: keep depths clear of the
                // UNREACHED sentinel on pathological graphs).
                continue;
            }
            // Forwarding rules (Section 3.1): the source transmits to
            // every neighbor, everyone else to every neighbor except
            // its BFS parent.
            let deg = g.degree(v) as u32;
            self.sent[vi] = if v == source {
                deg
            } else {
                deg.saturating_sub(1)
            };
            let parent = self.parent[vi];
            for &u in g.neighbors(v) {
                if v != source && u == parent {
                    continue;
                }
                self.touch(u);
                self.recv[u as usize] += 1;
                if self.depth[u as usize] == UNREACHED {
                    self.depth[u as usize] = d + 1;
                    self.parent[u as usize] = v;
                    self.order.push(u);
                }
            }
        }
    }

    /// Fills the scratch with the closed-form flood over the complete
    /// graph `K_n` (used by symbolic strongly-connected topologies):
    /// every non-source node sits at depth 1, and with `ttl >= 2` each
    /// depth-1 node echoes `n − 2` redundant copies.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn flood_complete(&mut self, n: usize, source: NodeId, ttl: u16) {
        self.begin(n, source);
        self.touch(source);
        self.depth[source as usize] = 0;
        self.order.push(source);
        if ttl >= 1 && n > 1 {
            self.sent[source as usize] = (n - 1) as u32;
            let echo = if ttl >= 2 { (n - 2) as u32 } else { 0 };
            for v in 0..n as NodeId {
                if v == source {
                    continue;
                }
                self.touch(v);
                self.depth[v as usize] = 1;
                self.parent[v as usize] = source;
                self.recv[v as usize] = 1 + echo;
                self.sent[v as usize] = echo;
                self.order.push(v);
            }
        }
    }

    /// BFS visit order: exactly the reached nodes, in nondecreasing
    /// depth, starting with the source. This is also the complete set
    /// of nodes with valid (nonzero-able) `depth`/`sent`/`recv` slots.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of reached nodes (the paper's *reach*, incl. the source).
    pub fn reach(&self) -> usize {
        self.order.len()
    }

    /// Hop count of `v`. Only meaningful for nodes in [`Self::order`].
    #[inline]
    pub fn depth(&self, v: NodeId) -> u16 {
        self.depth[v as usize]
    }

    /// BFS predecessor of `v`. Only meaningful for reached nodes.
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Query messages sent by `v`. Only meaningful for reached nodes.
    #[inline]
    pub fn sent(&self, v: NodeId) -> u32 {
        self.sent[v as usize]
    }

    /// Query messages received by `v` (first + redundant copies). Only
    /// meaningful for reached nodes.
    #[inline]
    pub fn recv(&self, v: NodeId) -> u32 {
        self.recv[v as usize]
    }
}

/// Computes [`MessageCounts`] for a flood on `g`.
pub fn message_counts(g: &Graph, flood: &FloodResult) -> MessageCounts {
    let n = g.num_nodes();
    let mut sent = vec![0u32; n];
    let mut recv = vec![0u32; n];
    for &v in &flood.order {
        if !flood.forwards(v) {
            continue;
        }
        let vi = v as usize;
        let deg = g.degree(v) as u32;
        if v == flood.source {
            sent[vi] = deg;
            for &u in g.neighbors(v) {
                recv[u as usize] += 1;
            }
        } else {
            // Everything except the parent edge.
            sent[vi] = deg.saturating_sub(1);
            let p = flood.parent[vi];
            for &u in g.neighbors(v) {
                if u != p {
                    recv[u as usize] += 1;
                }
            }
        }
    }
    MessageCounts { sent, recv }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// 0 - 1 - 2 - 3 path.
    fn path4() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.build()
    }

    /// Triangle 0-1-2 plus pendant 3 on node 2.
    fn triangle_pendant() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn flood_depths_on_path() {
        let g = path4();
        let f = flood(&g, 0, 2);
        assert_eq!(f.depth, vec![0, 1, 2, UNREACHED]);
        assert_eq!(f.reach(), 3);
        assert!(!f.is_reached(3));
        assert_eq!(f.parent[2], 1);
        assert_eq!(f.parent[0], 0);
    }

    #[test]
    fn flood_ttl_zero_reaches_only_source() {
        let g = path4();
        let f = flood(&g, 1, 0);
        assert_eq!(f.reach(), 1);
        assert_eq!(f.order, vec![1]);
    }

    #[test]
    fn flood_full_reach_on_connected_graph() {
        let g = triangle_pendant();
        let f = flood(&g, 0, 10);
        assert_eq!(f.reach(), 4);
        assert_eq!(f.depth[3], 2);
    }

    #[test]
    fn accumulate_up_sums_subtrees() {
        let g = path4();
        let f = flood(&g, 0, 3);
        let mut vals = vec![1.0; 4];
        f.accumulate_up(&mut vals);
        // Node 3's subtree = {3}; node 2's = {2,3}; node 1's = {1,2,3};
        // node 0's = all four.
        assert_eq!(vals, vec![4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn message_counts_on_triangle() {
        // Triangle 0-1-2, flood from 0 with ttl 2.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let f = flood(&g, 0, 2);
        let mc = message_counts(&g, &f);
        // Source sends to 1 and 2. Each of 1, 2 (depth 1 < ttl 2)
        // forwards to its non-parent neighbor — the cycle edge — so
        // nodes 1 and 2 each send 1 redundant copy to each other.
        assert_eq!(mc.sent[0], 2);
        assert_eq!(mc.sent[1], 1);
        assert_eq!(mc.sent[2], 1);
        assert_eq!(mc.recv[0], 0);
        assert_eq!(mc.recv[1], 2); // first copy + redundant from 2
        assert_eq!(mc.recv[2], 2);
        assert_eq!(mc.sent.iter().sum::<u32>(), 4);
    }

    #[test]
    fn message_counts_ttl_one_no_redundancy_on_tree() {
        let g = path4();
        let f = flood(&g, 1, 1);
        let mc = message_counts(&g, &f);
        assert_eq!(mc.sent[1], 2);
        assert_eq!(mc.recv[0], 1);
        assert_eq!(mc.recv[2], 1);
        assert_eq!(mc.sent.iter().sum::<u32>(), 2);
    }

    #[test]
    fn leaf_at_ttl_does_not_forward() {
        let g = path4();
        let f = flood(&g, 0, 2);
        // Node 2 is at depth 2 == ttl: processes but must not forward.
        assert!(!f.forwards(2));
        let mc = message_counts(&g, &f);
        assert_eq!(mc.sent[2], 0);
        assert_eq!(mc.recv[3], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flood_bad_source_panics() {
        flood(&Graph::empty(1), 5, 1);
    }

    /// Deterministic pseudo-random simple graph for equivalence tests.
    fn scrambled_graph(n: usize, edges: usize, seed: u64) -> Graph {
        let mut b = GraphBuilder::new(n);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..edges {
            let a = (next() % n as u64) as NodeId;
            let c = (next() % n as u64) as NodeId;
            b.add_edge(a, c);
        }
        b.build()
    }

    #[test]
    fn scratch_matches_allocating_flood_across_sources_and_ttls() {
        let mut scratch = FloodScratch::new();
        for seed in [3u64, 17, 99] {
            let g = scrambled_graph(60, 140, seed);
            for ttl in [0u16, 1, 2, 4, 9] {
                for src in 0..g.num_nodes() as NodeId {
                    let f = flood(&g, src, ttl);
                    let mc = message_counts(&g, &f);
                    // The scratch is deliberately reused across every
                    // (graph, source, ttl) combination.
                    scratch.flood(&g, src, ttl);
                    assert_eq!(scratch.order(), &f.order[..], "order src={src} ttl={ttl}");
                    assert_eq!(scratch.reach(), f.reach());
                    for &v in &f.order {
                        assert_eq!(scratch.depth(v), f.depth[v as usize]);
                        assert_eq!(scratch.parent(v), f.parent[v as usize]);
                        assert_eq!(scratch.sent(v), mc.sent[v as usize]);
                        assert_eq!(scratch.recv(v), mc.recv[v as usize]);
                    }
                    // Conversely every nonzero count is on a reached
                    // node, so iterating `order` loses nothing.
                    for v in 0..g.num_nodes() as NodeId {
                        if !f.is_reached(v) {
                            assert_eq!(mc.sent[v as usize], 0);
                            assert_eq!(mc.recv[v as usize], 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_grows_with_larger_graphs() {
        let mut scratch = FloodScratch::new();
        scratch.flood(&path4(), 0, 3);
        assert_eq!(scratch.reach(), 4);
        let big = scrambled_graph(100, 300, 11);
        scratch.flood(&big, 42, 5);
        assert!(scratch.reach() > 4);
        // Shrinking back down must not leak state from the big epoch.
        scratch.flood(&path4(), 3, 1);
        assert_eq!(scratch.order(), &[3, 2]);
        assert_eq!(scratch.sent(3), 1);
        assert_eq!(scratch.recv(2), 1);
    }

    #[test]
    fn scratch_complete_matches_triangle() {
        // K_3 via the closed form vs the explicit triangle.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let mut explicit = FloodScratch::new();
        let mut closed = FloodScratch::new();
        for ttl in 0u16..4 {
            explicit.flood(&g, 1, ttl);
            closed.flood_complete(3, 1, ttl);
            assert_eq!(explicit.reach(), closed.reach(), "ttl {ttl}");
            for &v in explicit.order() {
                assert_eq!(explicit.depth(v), closed.depth(v));
                assert_eq!(explicit.sent(v), closed.sent(v));
                assert_eq!(explicit.recv(v), closed.recv(v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scratch_bad_source_panics() {
        FloodScratch::new().flood(&Graph::empty(2), 9, 1);
    }
}
