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
//!
//! [`flood`] and [`message_counts`] allocate their per-node vectors on
//! every call and are the oracle. [`FloodScratch`] computes the same
//! flood into reusable buffers laid out by BFS position (the node, its
//! parent's position, its copies sent and each depth level's end),
//! keeping one `u32` per node for the reached flag and the copies
//! received; it is what the analysis engine floods into once per
//! source.

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
    /// TTL (`depth < ttl`) and short of the depth cap that keeps depths
    /// clear of [`UNREACHED`] (see [`flood`]).
    pub fn forwards(&self, v: NodeId) -> bool {
        self.depth[v as usize] < self.ttl.min(UNREACHED - 1)
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

/// Bit 31 of a [`FloodScratch`] node slot: the node was reached. The
/// low bits count the copies it received; they stay below the flag
/// because a simple graph with fewer than 2³¹ nodes has every degree
/// below 2³¹ − 1.
const REACHED: u32 = 1 << 31;

/// Reusable, allocation-free flood state laid out by BFS position: one
/// BFS + message-count pass writes into buffers sized once per graph,
/// so a sweep that floods from every source cluster allocates
/// **nothing** per source after the first call.
///
/// Position `k` is the `k`-th node reached ([`FloodScratch::order`];
/// position 0 is the source). The BFS parent's position
/// ([`FloodScratch::parents`]), the copies sent ([`FloodScratch::sent`])
/// and the end of each depth level ([`FloodScratch::level_ends`]) are
/// stored by position; only the copies received
/// ([`FloodScratch::recv`]) are stored by node. Callers walk positions
/// instead of `0..n`, which turns O(n) per-source post-processing into
/// O(reach), and can index their own per-source records by position,
/// so that charging a record to its parent moves through memory in
/// order.
///
/// Each node keeps one `u32`: bit 31 says it was reached, and the low
/// bits count the copies it received. The next flood zeroes the slots
/// of the nodes this one reached, so nothing is stamped and nothing
/// else is per node. Discovery has no branch: every
/// transmission writes the neighbor and its parent position at
/// `order[len]` and advances `len` only if the neighbor was new.
///
/// A scratch flood matches [`flood`] + [`message_counts`] exactly; see
/// the equivalence tests.
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
/// assert_eq!(scratch.parents(), &[0, 0, 1]); // positions, not nodes
/// assert_eq!(scratch.level_ends(), &[1, 2, 3]); // node 2 is at depth 2
/// assert_eq!(scratch.sent(), &[1, 1, 0]);
/// assert_eq!(scratch.recv(2), 1);
/// scratch.flood(&g, 2, 1); // reuses the same buffers
/// assert_eq!(scratch.order(), &[2, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FloodScratch {
    /// By node: `REACHED` plus the copies received. Nonzero exactly
    /// at the nodes the last flood reached.
    slot: Vec<u32>,
    /// By position: the node. One entry longer than the graph, because
    /// discovery writes at `order[len]` whether or not the neighbor is
    /// new.
    order: Vec<NodeId>,
    /// By position: the BFS parent's position (0 at the source). As
    /// long as `order`, for the same reason.
    parent: Vec<u32>,
    /// By position: the query copies the node sent.
    sent: Vec<u32>,
    /// `level_end[d]` is one past the last position at depth `d`.
    level_end: Vec<u32>,
    /// Nodes reached: the valid prefix of the by-position arrays.
    len: usize,
}

impl FloodScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a flood over `n` nodes: zeroes the slots the previous
    /// flood set, grows the buffers if the graph grew, and places
    /// `source` at position 0.
    fn begin(&mut self, n: usize, source: NodeId) {
        assert!((source as usize) < n, "source {source} out of range");
        assert!(
            n < REACHED as usize,
            "{n} nodes: a copy count could reach the flag bit"
        );
        for &v in &self.order[..self.len] {
            self.slot[v as usize] = 0;
        }
        self.level_end.clear();
        if self.slot.len() < n {
            self.slot.resize(n, 0);
            self.order.resize(n + 1, 0);
            self.parent.resize(n + 1, 0);
            self.sent.resize(n, 0);
            // Every level holds a node, so reserving here keeps every
            // later flood on this graph allocation-free.
            self.level_end.reserve(n);
        }
        self.slot[source as usize] = REACHED;
        self.order[0] = source;
        self.parent[0] = 0;
        self.len = 1;
    }

    /// Floods a query from `source` with `ttl` over `g`, computing the
    /// BFS order, predecessors and depth levels and the per-node
    /// query-transmission counts (including redundant copies over
    /// cycle edges) in a single pass, one depth level at a time.
    ///
    /// Equivalent to [`flood`] followed by [`message_counts`], without
    /// the O(n) allocations per source.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `g` has 2³¹ nodes or more.
    pub fn flood(&mut self, g: &Graph, source: NodeId, ttl: u16) {
        self.begin(g.num_nodes(), source);
        // Nodes shallower than `last` forward. The cap keeps depths
        // clear of the UNREACHED sentinel on pathological graphs with
        // eccentricity >= u16::MAX, as in `flood`.
        let last = ttl.min(UNREACHED - 1);
        let (slot, order, parent, sent) = (
            &mut self.slot,
            &mut self.order,
            &mut self.parent,
            &mut self.sent,
        );
        let mut len = 1;
        let mut head = 0;
        let mut depth = 0;
        loop {
            let end = len;
            self.level_end.push(end as u32);
            if depth == last {
                // TTL exhausted: the level processes but does not
                // forward.
                sent[head..end].fill(0);
                break;
            }
            for k in head..end {
                // Forwarding rules (Section 3.1): the source transmits
                // to every neighbor, everyone else to every neighbor
                // except its BFS parent. No node is numbered
                // `NodeId::MAX`, so the source skips nothing.
                let skip = if k == 0 {
                    NodeId::MAX
                } else {
                    order[parent[k] as usize]
                };
                let nbrs = g.neighbors(order[k]);
                sent[k] = nbrs.len() as u32 - u32::from(k != 0);
                for &u in nbrs {
                    let s = slot[u as usize];
                    slot[u as usize] = (s | REACHED) + u32::from(u != skip);
                    order[len] = u;
                    parent[len] = k as u32;
                    len += usize::from(s < REACHED);
                }
            }
            if len == end {
                break;
            }
            head = end;
            depth += 1;
        }
        self.len = len;
    }

    /// Fills the scratch with the closed-form flood over the complete
    /// graph `K_n` (used by symbolic strongly-connected topologies):
    /// every non-source node sits at depth 1, and with `ttl >= 2` each
    /// depth-1 node echoes `n − 2` redundant copies.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `n >= 2³¹`.
    pub fn flood_complete(&mut self, n: usize, source: NodeId, ttl: u16) {
        self.begin(n, source);
        self.level_end.push(1);
        if ttl == 0 || n == 1 {
            self.sent[0] = 0;
            return;
        }
        self.sent[0] = (n - 1) as u32;
        let echo = if ttl >= 2 { (n - 2) as u32 } else { 0 };
        for v in (0..n as NodeId).filter(|&v| v != source) {
            let k = self.len;
            self.slot[v as usize] = REACHED | (1 + echo);
            self.order[k] = v;
            self.parent[k] = 0;
            self.sent[k] = echo;
            self.len += 1;
        }
        self.level_end.push(n as u32);
    }

    /// BFS visit order, by position: exactly the reached nodes, in
    /// nondecreasing depth, starting with the source.
    pub fn order(&self) -> &[NodeId] {
        &self.order[..self.len]
    }

    /// By position: the position of the node's BFS predecessor (the
    /// neighbor the first copy arrived from), so the parent node of
    /// position `k` is `order()[parents()[k]]`. The source, at
    /// position 0, maps to itself; every other parent position is
    /// smaller than its child's.
    pub fn parents(&self) -> &[u32] {
        &self.parent[..self.len]
    }

    /// By position: query messages the node sent (0 at the last depth
    /// level, which does not forward).
    pub fn sent(&self) -> &[u32] {
        &self.sent[..self.len]
    }

    /// `level_ends()[d]` is one past the last position at depth `d`:
    /// depth 0 is position 0 alone, depth `d > 0` holds positions
    /// `level_ends()[d - 1]..level_ends()[d]`, and the last entry is
    /// the reach. No level is empty.
    pub fn level_ends(&self) -> &[u32] {
        &self.level_end
    }

    /// Number of reached nodes (the paper's *reach*, incl. the source).
    pub fn reach(&self) -> usize {
        self.len
    }

    /// Query messages received by node `v` (first + redundant copies);
    /// 0 for every node the flood did not reach.
    #[inline]
    pub fn recv(&self, v: NodeId) -> u32 {
        self.slot[v as usize] & !REACHED
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

    /// A graph whose node 4 has no edges, so a flood from it reaches
    /// only itself at every TTL.
    fn isolated_source() -> Graph {
        let mut b = GraphBuilder::new(5);
        for (a, c) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
            b.add_edge(a, c);
        }
        b.build()
    }

    /// Two components: a 5-cycle with a chord and a 4-cycle with a
    /// chord. A flood from either never enters the other.
    fn two_components() -> Graph {
        let mut b = GraphBuilder::new(9);
        for (a, c) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
            b.add_edge(a, c);
        }
        for (a, c) in [(5, 6), (6, 7), (7, 8), (8, 5), (6, 8)] {
            b.add_edge(a, c);
        }
        b.build()
    }

    /// Asserts that `scratch`, just flooded over `g` from `src` with
    /// `ttl`, equals [`flood`] + [`message_counts`] at every BFS
    /// position (node, depth from the level ends, parent, sent and
    /// recv), and that no unreached node received a copy.
    fn assert_matches_flood(scratch: &FloodScratch, g: &Graph, src: NodeId, ttl: u16) {
        let f = flood(g, src, ttl);
        let mc = message_counts(g, &f);
        let at = format!("src={src} ttl={ttl}");
        assert_eq!(scratch.order(), &f.order[..], "order {at}");
        assert_eq!(scratch.reach(), f.reach(), "reach {at}");
        let ends = scratch.level_ends();
        assert_eq!(ends.first(), Some(&1), "depth 0 is the source {at}");
        assert!(ends.windows(2).all(|w| w[0] < w[1]), "empty level {at}");
        assert_eq!(ends.last().map(|&e| e as usize), Some(f.reach()), "{at}");
        let mut depth = 0;
        for (k, &v) in scratch.order().iter().enumerate() {
            while k >= ends[depth] as usize {
                depth += 1;
            }
            let vu = v as usize;
            let parent = scratch.order()[scratch.parents()[k] as usize];
            assert_eq!(depth as u16, f.depth[vu], "depth of {v} {at}");
            assert_eq!(parent, f.parent[vu], "parent of {v} {at}");
            assert_eq!(scratch.sent()[k], mc.sent[vu], "sent by {v} {at}");
            assert_eq!(scratch.recv(v), mc.recv[vu], "recv at {v} {at}");
        }
        // Conversely every nonzero count is on a reached node, so
        // walking positions loses nothing.
        for v in g.nodes().filter(|&v| !f.is_reached(v)) {
            assert_eq!(mc.sent[v as usize], 0);
            assert_eq!(mc.recv[v as usize], 0);
            assert_eq!(scratch.recv(v), 0, "recv at unreached {v} {at}");
        }
    }

    #[test]
    fn scratch_matches_allocating_flood_across_sources_and_ttls() {
        let mut graphs: Vec<Graph> = [3u64, 17, 99]
            .iter()
            .map(|&seed| scrambled_graph(60, 140, seed))
            .collect();
        graphs.extend([isolated_source(), two_components()]);
        // The scratch is deliberately reused across every (graph,
        // source, ttl) combination.
        let mut scratch = FloodScratch::new();
        for g in &graphs {
            for ttl in [0u16, 1, 2, 4, 9] {
                for src in g.nodes() {
                    scratch.flood(g, src, ttl);
                    assert_matches_flood(&scratch, g, src, ttl);
                }
            }
        }
        scratch.flood(&isolated_source(), 4, 9);
        assert_eq!(scratch.order(), &[4]);
        assert_eq!(scratch.level_ends(), &[1]);
        assert_eq!(scratch.sent(), &[0]);
        scratch.flood(&two_components(), 5, 9);
        assert!(scratch.order().iter().all(|&v| v >= 5));
    }

    #[test]
    fn scratch_grows_with_larger_graphs() {
        let mut scratch = FloodScratch::new();
        scratch.flood(&path4(), 0, 3);
        assert_matches_flood(&scratch, &path4(), 0, 3);
        let big = scrambled_graph(100, 300, 11);
        scratch.flood(&big, 42, 5);
        assert_matches_flood(&scratch, &big, 42, 5);
        assert!(scratch.reach() > 4);
        // Shrinking back down must not leak state from the big flood:
        // every slot it set is zero again.
        scratch.flood(&path4(), 3, 1);
        assert_matches_flood(&scratch, &path4(), 3, 1);
        assert_eq!(scratch.order(), &[3, 2]);
        assert_eq!(scratch.sent(), &[1, 0]);
        assert_eq!(scratch.recv(2), 1);
        assert!((4..100).all(|v| scratch.recv(v) == 0));
        scratch.flood(&big, 42, 5);
        assert_matches_flood(&scratch, &big, 42, 5);
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
            for src in g.nodes() {
                explicit.flood(&g, src, ttl);
                closed.flood_complete(3, src, ttl);
                assert_matches_flood(&explicit, &g, src, ttl);
                let at = format!("src={src} ttl={ttl}");
                assert_eq!(explicit.order(), closed.order(), "{at}");
                assert_eq!(explicit.parents(), closed.parents(), "{at}");
                assert_eq!(explicit.level_ends(), closed.level_ends(), "{at}");
                assert_eq!(explicit.sent(), closed.sent(), "{at}");
                for v in g.nodes() {
                    assert_eq!(explicit.recv(v), closed.recv(v), "{at}");
                }
            }
        }
    }

    #[test]
    fn scratch_depth_stops_short_of_the_unreached_sentinel() {
        // A path longer than u16::MAX: at depth u16::MAX - 1 a node
        // stops forwarding whatever the TTL, so depths never reach
        // the UNREACHED sentinel.
        let n = 65_537;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge(v - 1, v);
        }
        let g = b.build();
        let mut scratch = FloodScratch::new();
        scratch.flood(&g, 0, u16::MAX);
        assert_matches_flood(&scratch, &g, 0, u16::MAX);
        let last = usize::from(UNREACHED - 1);
        assert_eq!(scratch.reach(), last + 1);
        assert_eq!(scratch.level_ends().len(), last + 1);
        assert_eq!(scratch.sent()[last], 0);
        assert_eq!(scratch.recv(last as NodeId + 1), 0);
    }

    #[test]
    #[should_panic(expected = "flag bit")]
    fn scratch_rejects_graphs_whose_counts_could_reach_the_flag() {
        FloodScratch::new().flood_complete(1 << 31, 0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scratch_bad_source_panics() {
        FloodScratch::new().flood(&Graph::empty(2), 9, 1);
    }
}
