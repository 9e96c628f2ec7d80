//! [`PartitionMonitor`]: connectivity of the live super-peer overlay,
//! rebuilt at each observation.
//!
//! The simulator needs to answer, repeatedly and cheaply, "how
//! fragmented is the super-peer graph right now, and what fraction of
//! peers sit in the largest fragment?" — the first-order robustness
//! metric for crash storms (a query can only reach clusters in the
//! submitter's component). A full BFS per observation would be
//! O(V + E) with allocation; this monitor is a weighted union-find
//! (union by size, path compression) with an *epoch-stamped lazy
//! reset*. Each observation bumps the epoch
//! ([`PartitionMonitor::begin_epoch`], O(1) — no buffer clearing),
//! then inserts the live nodes and unions the live edges (amortized
//! near-O(1) each). Churn deletes nodes and edges between any two
//! observations, and union-find cannot un-merge, so every observation
//! rebuilds; the buffers persist, so a rebuild allocates nothing once
//! they have grown to the overlay's size.
//!
//! Component count and largest-component weight are maintained as
//! running aggregates during the rebuild, so reading them is O(1). All state is plain
//! vectors indexed by node id: deterministic by construction (rule D1
//! of DESIGN.md §13 — no hashed containers), no RNG, no iteration-order
//! dependence (union-find aggregates are merge-order independent).

/// Weighted union-find over `u32` node ids with O(1) epoch reset.
///
/// Nodes carry a caller-supplied weight (for the simulator: peers per
/// cluster), so "largest component" is by total weight, not node
/// count. See the module docs for the per-observation rebuild.
#[derive(Debug, Clone, Default)]
pub struct PartitionMonitor {
    /// Union-find parent pointers, indexed by node id.
    parent: Vec<u32>,
    /// Total weight of the component rooted at each index (valid only
    /// at roots).
    weight: Vec<u64>,
    /// Epoch stamp per slot; a slot is live iff its stamp equals
    /// `epoch`.
    stamp: Vec<u32>,
    /// Current epoch. Starts at 1 so zero-initialized stamps read as
    /// stale.
    epoch: u32,
    /// Live components this epoch.
    components: u32,
    /// Weight of the heaviest component this epoch.
    largest: u64,
}

impl PartitionMonitor {
    /// Creates an empty monitor.
    pub fn new() -> PartitionMonitor {
        PartitionMonitor {
            epoch: 1,
            ..PartitionMonitor::default()
        }
    }

    /// Starts a fresh epoch: every previously inserted node and union
    /// is forgotten in O(1). Call this, then insert the live nodes and
    /// edges, before each observation.
    pub fn begin_epoch(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrapped: old stamps could alias the new epoch,
                // so clear them once and restart from 1.
                self.stamp.fill(0);
                1
            }
        };
        self.components = 0;
        self.largest = 0;
    }

    /// Registers `id` as a singleton component of the given weight.
    /// Re-inserting a live id is a no-op returning `false`.
    pub fn insert(&mut self, id: u32, weight: u64) -> bool {
        let i = id as usize;
        if i >= self.parent.len() {
            self.parent.resize(i + 1, 0);
            self.weight.resize(i + 1, 0);
            self.stamp.resize(i + 1, 0);
        }
        if self.stamp[i] == self.epoch {
            return false;
        }
        self.stamp[i] = self.epoch;
        self.parent[i] = id;
        self.weight[i] = weight;
        self.components += 1;
        self.largest = self.largest.max(weight);
        true
    }

    /// Whether `id` was inserted this epoch.
    pub fn contains(&self, id: u32) -> bool {
        (id as usize) < self.stamp.len() && self.stamp[id as usize] == self.epoch
    }

    /// Merges the components of `a` and `b`. Returns `true` when two
    /// distinct components were joined; `false` when they were already
    /// connected or either id is absent this epoch.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        if !self.contains(a) || !self.contains(b) {
            return false;
        }
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        // Union by weight: hang the lighter root under the heavier.
        let (big, small) = if self.weight[ra as usize] >= self.weight[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.weight[big as usize] += self.weight[small as usize];
        self.components -= 1;
        self.largest = self.largest.max(self.weight[big as usize]);
        true
    }

    /// Live components this epoch.
    pub fn component_count(&self) -> u32 {
        self.components
    }

    /// Total weight of the heaviest component this epoch.
    pub fn largest_weight(&self) -> u64 {
        self.largest
    }

    /// Root of `id`'s component with two-pass path compression.
    /// `id` must be live this epoch.
    fn find(&mut self, id: u32) -> u32 {
        let mut root = id;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = id;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions_track_components() {
        let mut m = PartitionMonitor::new();
        for id in 0..5 {
            assert!(m.insert(id, 10));
        }
        assert_eq!(m.component_count(), 5);
        assert_eq!(m.largest_weight(), 10);

        assert!(m.union(0, 1));
        assert!(m.union(1, 2));
        assert!(!m.union(0, 2), "already connected");
        assert_eq!(m.component_count(), 3);
        assert_eq!(m.largest_weight(), 30);
    }

    #[test]
    fn duplicate_insert_is_a_no_op() {
        let mut m = PartitionMonitor::new();
        assert!(m.insert(3, 7));
        assert!(!m.insert(3, 99));
        assert_eq!(m.largest_weight(), 7);
        assert_eq!(m.component_count(), 1);
    }

    #[test]
    fn union_with_absent_node_is_rejected() {
        let mut m = PartitionMonitor::new();
        m.insert(0, 1);
        assert!(!m.union(0, 42));
        assert!(!m.union(42, 0));
        assert_eq!(m.component_count(), 1);
    }

    #[test]
    fn epoch_rebuild_forgets_everything() {
        let mut m = PartitionMonitor::new();
        m.insert(0, 5);
        m.insert(1, 5);
        m.union(0, 1);

        m.begin_epoch();
        assert_eq!(m.component_count(), 0);
        assert_eq!(m.largest_weight(), 0);
        assert!(!m.contains(0), "stale nodes are gone after the bump");

        // Rebuild with node 1 removed: 0 stands alone again.
        m.insert(0, 5);
        assert_eq!(m.component_count(), 1);
        assert!(!m.union(0, 1), "1 no longer exists");
    }

    #[test]
    fn largest_weight_follows_merges_across_shapes() {
        let mut m = PartitionMonitor::new();
        // Two chains of very different weight.
        for id in 0..4 {
            m.insert(id, 1);
        }
        m.insert(4, 100);
        m.union(0, 1);
        m.union(2, 3);
        assert_eq!(m.largest_weight(), 100);
        m.union(1, 2);
        assert_eq!(m.largest_weight(), 100);
        m.union(3, 4);
        assert_eq!(m.component_count(), 1);
        assert_eq!(m.largest_weight(), 104);
    }

    #[test]
    fn matches_naive_components_on_a_random_graph() {
        // Deterministic LCG edge stream over 60 nodes; compare against
        // a naive DFS labeling.
        let n = 60u32;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut x = 9001u64;
        for _ in 0..80 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) as u32 % n;
            let b = (x >> 11) as u32 % n;
            if a != b {
                edges.push((a, b));
            }
        }

        let mut m = PartitionMonitor::new();
        for id in 0..n {
            m.insert(id, (id as u64) + 1);
        }
        for &(a, b) in &edges {
            m.union(a, b);
        }

        // Naive labeling.
        let mut label: Vec<u32> = (0..n).collect();
        loop {
            let mut changed = false;
            for &(a, b) in &edges {
                let (la, lb) = (label[a as usize], label[b as usize]);
                let min = la.min(lb);
                if la != min || lb != min {
                    label[a as usize] = min;
                    label[b as usize] = min;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut roots: Vec<u32> = label.clone();
        roots.sort_unstable();
        roots.dedup();
        let naive_components = roots.len() as u32;
        let naive_largest = roots
            .iter()
            .map(|&r| {
                (0..n)
                    .filter(|&i| label[i as usize] == r)
                    .map(|i| (i as u64) + 1)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);

        assert_eq!(m.component_count(), naive_components);
        assert_eq!(m.largest_weight(), naive_largest);
    }

    #[test]
    fn epoch_overflow_resets_cleanly() {
        let mut m = PartitionMonitor::new();
        m.insert(0, 1);
        // Force the wrap path.
        m.epoch = u32::MAX;
        m.begin_epoch();
        assert_eq!(m.epoch, 1);
        assert!(!m.contains(0));
        assert!(m.insert(0, 2));
        assert_eq!(m.largest_weight(), 2);
    }
}
