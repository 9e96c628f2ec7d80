//! Compact undirected simple graph in CSR form.
//!
//! The analysis engine floods queries from every node of every trial
//! instance, so adjacency iteration is the hottest loop in the
//! repository. CSR keeps each node's neighbor list contiguous, and
//! `u32` node ids halve the memory traffic relative to `usize` — the
//! paper's largest topology (20 000 clusters) fits comfortably.

/// Node identifier. `u32` bounds graphs at ~4 billion nodes, far above
/// the paper's 10 000–20 000-peer networks.
pub type NodeId = u32;

/// Incremental builder for [`Graph`].
///
/// Collects undirected edges, silently deduplicating parallels and
/// rejecting self-loops (the overlay protocol never opens a connection
/// to itself), then freezes into CSR.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates capacity for `m` edges.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{a, b}`.
    ///
    /// Self-loops are ignored; duplicate edges are deduplicated at
    /// [`build`](Self::build) time. Returns `true` if the edge was
    /// recorded (i.e., not a self-loop).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert!(
            (a as usize) < self.n && (b as usize) < self.n,
            "edge ({a},{b}) out of range for {} nodes",
            self.n
        );
        if a == b {
            return false;
        }
        // Store canonically so deduplication is a sort+dedup.
        self.edges.push(if a < b { (a, b) } else { (b, a) });
        true
    }

    /// Freezes into an immutable CSR graph.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let mut degree = vec![0u32; self.n];
        for &(a, b) in &self.edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..self.n].to_vec();
        let mut neighbors = vec![0 as NodeId; acc as usize];
        for &(a, b) in &self.edges {
            neighbors[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        // Each node's slice is sorted ascending because edges were
        // sorted, but the (b, a) insertions interleave — sort per node
        // to enable binary-search membership tests.
        for v in 0..self.n {
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            neighbors[s..e].sort_unstable();
        }
        Graph { offsets, neighbors }
    }
}

/// Immutable undirected simple graph in CSR form.
///
/// # Examples
///
/// ```
/// use sp_graph::{Graph, GraphBuilder};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for node `v`.
    offsets: Vec<u32>,
    /// Concatenated, per-node-sorted adjacency lists.
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// A graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree (outdegree, in the paper's terminology) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Sorted neighbor slice of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.neighbors[s..e]
    }

    /// Whether `{a, b}` is an edge (binary search, O(log deg)).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Mean degree `2m / n` (the paper's "average outdegree").
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.num_nodes() as f64
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over each undirected edge once, as `(low, high)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |v| {
            self.neighbors(v)
                .iter()
                .copied()
                .filter(move |&u| v < u)
                .map(move |u| (v, u))
        })
    }

    /// Validates structural invariants (symmetry, sortedness, no
    /// self-loops, no duplicates). Used by property tests and debug
    /// assertions in generators.
    pub fn check_invariants(&self) -> Result<(), String> {
        for v in self.nodes() {
            let ns = self.neighbors(v);
            for w in ns.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("node {v}: adjacency not strictly sorted"));
                }
            }
            for &u in ns {
                if u == v {
                    return Err(format!("self-loop at {v}"));
                }
                if !self.has_edge(u, v) {
                    return Err(format!("asymmetric edge ({v},{u})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 0);
        }
        assert_eq!(g.mean_degree(), 0.0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    fn builder_dedups_and_symmetrizes() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate in reverse
        b.add_edge(2, 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert!(g.has_edge(3, 2));
        g.check_invariants().unwrap();
    }

    #[test]
    fn self_loops_rejected() {
        let mut b = GraphBuilder::new(2);
        assert!(!b.add_edge(1, 1));
        assert!(b.add_edge(0, 1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = GraphBuilder::new(5);
        for u in [4u32, 2, 3, 1] {
            b.add_edge(0, u);
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.degree(0), 4);
    }

    #[test]
    fn edges_iterator_visits_each_once() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(3, 0);
        let g = b.build();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(0, 1)));
        assert!(edges.contains(&(0, 3)));
    }

    #[test]
    fn mean_degree_matches() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert!((g.mean_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        GraphBuilder::new(2).add_edge(0, 2);
    }
}
