//! Network topology: undirected graphs with hop-count and weighted
//! shortest paths.

use std::collections::{BTreeMap, VecDeque};

/// An undirected graph over nodes `0..n`.
///
/// Edges can be taken *down* ([`Graph::remove_edge`]) and brought back
/// ([`Graph::restore_edge`]) without disturbing adjacency-list
/// positions: [`Graph::neighbours`] keeps returning the full list so
/// per-neighbour state held by callers (router Q-tables, link queues)
/// stays index-stable across faults, while path computations and
/// [`Graph::are_adjacent`] only see edges that are up. Use
/// [`Graph::edge_up`] to test an individual link.
///
/// # Example
///
/// ```
/// use cpn::Graph;
///
/// let g = Graph::grid(2, 3);
/// assert_eq!(g.len(), 6);
/// assert!(g.are_adjacent(0, 1));
/// assert!(!g.are_adjacent(0, 4));
/// let next = g.bfs_next_hops(5);
/// // From node 0 the shortest route to 5 starts right (1) or down (3).
/// assert!(next[0] == Some(1) || next[0] == Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
    /// Cut edges, as normalised `(min, max)` pairs mapped to their
    /// *cut depth*: overlapping fault windows each add a cut, and the
    /// edge only comes back up when every cut has been restored.
    /// Entries stay in `adj` (so neighbour positions never shift) but
    /// are excluded from adjacency queries and path computations.
    down: BTreeMap<(usize, usize), u32>,
}

/// Normalised key for an undirected edge.
fn edge_key(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            down: BTreeMap::new(),
        }
    }

    /// Builds a `rows × cols` grid (4-neighbourhood), the F2 topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        let mut g = Self::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let u = r * cols + c;
                if c + 1 < cols {
                    g.add_edge(u, u + 1);
                }
                if r + 1 < rows {
                    g.add_edge(u, u + cols);
                }
            }
        }
        g
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds an undirected edge (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "node out of range"
        );
        assert_ne!(u, v, "no self loops");
        if !self.adj[u].contains(&v) {
            self.adj[u].push(v);
            self.adj[v].push(u);
        }
        // Re-adding a cut edge brings it back up, clearing every
        // outstanding cut.
        self.down.remove(&edge_key(u, v));
    }

    /// Takes the edge `u — v` down (a link fault). The edge stays in
    /// the adjacency lists — neighbour positions are stable — but
    /// disappears from [`Graph::are_adjacent`], [`Graph::edge_count`]
    /// and all path computations.
    ///
    /// Cuts are *counted*: an edge cut twice (overlapping fault
    /// windows) needs two [`Graph::restore_edge`] calls to come back
    /// up. Returns `true` only when this call actually took the edge
    /// down (it existed and was up).
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        let structurally = self.adj.get(u).is_some_and(|ns| ns.contains(&v));
        if !structurally {
            return false;
        }
        let depth = self.down.entry(edge_key(u, v)).or_insert(0);
        *depth += 1;
        *depth == 1
    }

    /// Undoes one cut on the edge. Returns `true` only when this call
    /// actually brought the edge back up (its last outstanding cut
    /// was restored); an edge still held down by an overlapping fault
    /// stays down.
    pub fn restore_edge(&mut self, u: usize, v: usize) -> bool {
        let key = edge_key(u, v);
        match self.down.get_mut(&key) {
            None => false,
            Some(depth) if *depth > 1 => {
                *depth -= 1;
                false
            }
            Some(_) => {
                self.down.remove(&key);
                true
            }
        }
    }

    /// Whether the edge `u — v` exists *and is currently up*.
    #[must_use]
    pub fn edge_up(&self, u: usize, v: usize) -> bool {
        self.adj.get(u).is_some_and(|ns| ns.contains(&v)) && !self.link_down(u, v)
    }

    /// Whether the edge `u — v` is currently cut. Cheaper than
    /// [`Graph::edge_up`] when `v` is already known to be a neighbour
    /// of `u` (e.g. taken from [`Graph::neighbours`]).
    #[must_use]
    pub fn link_down(&self, u: usize, v: usize) -> bool {
        !self.down.is_empty() && self.down.contains_key(&edge_key(u, v))
    }

    /// Neighbours of `u`, *including* those across cut edges (so that
    /// per-neighbour state indexed by position survives link faults).
    /// Filter with [`Graph::edge_up`] when liveness matters.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn neighbours(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Whether `u` and `v` share an edge that is up.
    #[must_use]
    pub fn are_adjacent(&self, u: usize, v: usize) -> bool {
        self.edge_up(u, v)
    }

    /// Number of edges currently up.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2 - self.down.len()
    }

    /// For every node, the next hop on a shortest (hop-count) path to
    /// `dst` (`None` for `dst` itself and unreachable nodes).
    #[must_use]
    pub fn bfs_next_hops(&self, dst: usize) -> Vec<Option<usize>> {
        self.bfs_next_hops_over(dst, |u, v| !self.link_down(u, v))
    }

    /// [`Graph::bfs_next_hops`] over the links `up(u, v)` reports up
    /// (for neighbours `u`, `v`) instead of the graph's current ones.
    pub(crate) fn bfs_next_hops_over<U: Fn(usize, usize) -> bool>(
        &self,
        dst: usize,
        up: U,
    ) -> Vec<Option<usize>> {
        let n = self.adj.len();
        let mut next = vec![None; n];
        let mut dist = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        dist[dst] = 0;
        queue.push_back(dst);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if !up(u, v) {
                    continue;
                }
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    next[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        next
    }

    /// For every node, the next hop to `dst` minimising the sum of
    /// `weight(u, v)` along the path (Dijkstra from `dst` over the
    /// reversed — identical, undirected — graph).
    ///
    /// `weight` must be positive.
    #[must_use]
    pub fn weighted_next_hops<W: Fn(usize, usize) -> f64>(
        &self,
        dst: usize,
        weight: W,
    ) -> Vec<Option<usize>> {
        self.weighted_next_hops_over(dst, |u, v| !self.link_down(u, v), weight)
    }

    /// [`Graph::weighted_next_hops`] over the links `up(u, v)` reports
    /// up (for neighbours `u`, `v`) instead of the graph's current ones.
    pub(crate) fn weighted_next_hops_over<U, W>(
        &self,
        dst: usize,
        up: U,
        weight: W,
    ) -> Vec<Option<usize>>
    where
        U: Fn(usize, usize) -> bool,
        W: Fn(usize, usize) -> f64,
    {
        let n = self.adj.len();
        let mut next = vec![None; n];
        let mut dist = vec![f64::INFINITY; n];
        let mut visited = vec![false; n];
        dist[dst] = 0.0;
        for _ in 0..n {
            // Extract the unvisited node with minimal distance.
            let u = (0..n)
                .filter(|&i| !visited[i] && dist[i].is_finite())
                .min_by(|&a, &b| {
                    dist[a]
                        .partial_cmp(&dist[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            let Some(u) = u else { break };
            visited[u] = true;
            for &v in &self.adj[u] {
                if !up(u, v) {
                    continue;
                }
                let w = weight(v, u); // cost of traversing v → u
                debug_assert!(w > 0.0, "weights must be positive");
                if dist[u] + w < dist[v] {
                    dist[v] = dist[u] + w;
                    next[v] = Some(u);
                }
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape() {
        let g = Graph::grid(4, 6);
        assert_eq!(g.len(), 24);
        // Interior node degree 4, corner degree 2.
        assert_eq!(g.neighbours(7).len(), 4);
        assert_eq!(g.neighbours(0).len(), 2);
        // Edges: rows*(cols-1) + cols*(rows-1) = 4*5 + 6*3 = 38.
        assert_eq!(g.edge_count(), 38);
    }

    #[test]
    fn bfs_next_hops_point_toward_destination() {
        let g = Graph::grid(3, 3);
        let next = g.bfs_next_hops(8); // bottom-right corner
                                       // Walking the next-hop chain from node 0 must reach 8 in 4 hops.
        let mut at = 0;
        let mut hops = 0;
        while at != 8 {
            at = next[at].expect("reachable");
            hops += 1;
            assert!(hops <= 4, "too many hops");
        }
        assert_eq!(hops, 4);
        assert_eq!(next[8], None);
    }

    #[test]
    fn weighted_routes_avoid_heavy_edges() {
        // Triangle 0-1-2 plus chain: make direct edge 0-2 very heavy.
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        let next = g.weighted_next_hops(2, |u, v| {
            if (u == 0 && v == 2) || (u == 2 && v == 0) {
                10.0
            } else {
                1.0
            }
        });
        assert_eq!(next[0], Some(1), "should detour around the heavy edge");
        let cheap = g.weighted_next_hops(2, |_, _| 1.0);
        assert_eq!(cheap[0], Some(2), "direct edge when uniform");
    }

    #[test]
    fn unreachable_nodes_get_none() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        // 2, 3 disconnected (and from each other).
        let next = g.bfs_next_hops(0);
        assert_eq!(next[1], Some(0));
        assert_eq!(next[2], None);
        assert_eq!(next[3], None);
    }

    #[test]
    fn add_edge_idempotent() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.are_adjacent(0, 1));
        assert!(g.are_adjacent(1, 0));
    }

    #[test]
    fn cpn_routes_on_grid_topology() {
        use crate::routing::RoutingStrategy;
        // 3×4 grid: node 11 is five hops from node 0.
        let g = Graph::grid(3, 4);
        let r = RoutingStrategy::cpn_default().build(&g);
        let mut rng = simkernel::SeedTree::new(4).rng("grid");
        let mut at = 0;
        let mut prev = None;
        for _ in 0..5 {
            let nxt = r.next_hop(&g, at, 11, prev, false, &mut rng).unwrap();
            prev = Some(at);
            at = nxt;
        }
        assert_eq!(at, 11, "greedy CPN init should take a shortest path");
    }

    #[test]
    fn removed_edges_leave_positions_stable() {
        let mut g = Graph::grid(2, 2); // 0-1, 0-2, 1-3, 2-3
        let before: Vec<usize> = g.neighbours(0).to_vec();
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 3), "never existed");
        assert_eq!(g.neighbours(0), before.as_slice(), "positions stable");
        assert!(!g.are_adjacent(0, 1));
        assert!(!g.edge_up(1, 0), "symmetric");
        assert_eq!(g.edge_count(), 3);
        assert!(g.restore_edge(1, 0), "restore from either end");
        assert!(!g.restore_edge(0, 1), "already up");
        assert!(g.are_adjacent(0, 1));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn double_cut_needs_double_restore() {
        // Two overlapping fault windows cut the same link; the first
        // restore must NOT resurrect the edge while the second fault
        // still holds it down.
        let mut g = Graph::grid(2, 2);
        assert!(g.remove_edge(0, 1), "first cut takes the edge down");
        assert!(!g.remove_edge(0, 1), "second cut: already down");
        assert!(!g.restore_edge(0, 1), "one fault still outstanding");
        assert!(!g.are_adjacent(0, 1), "edge must stay down");
        assert_eq!(g.edge_count(), 3);
        assert!(g.restore_edge(0, 1), "last restore brings it up");
        assert!(g.are_adjacent(0, 1));
        assert_eq!(g.edge_count(), 4);
        assert!(!g.restore_edge(0, 1), "no cuts left");
    }

    #[test]
    fn cut_restore_cycles_are_idempotent() {
        let mut g = Graph::grid(3, 3);
        let pristine = g.clone();
        for depth in 1..=4u32 {
            for _ in 0..depth {
                g.remove_edge(0, 1);
            }
            assert!(!g.edge_up(0, 1));
            for k in 0..depth {
                let came_up = g.restore_edge(0, 1);
                assert_eq!(came_up, k + 1 == depth, "depth {depth} restore {k}");
            }
            assert_eq!(g, pristine, "cycle at depth {depth} must round-trip");
        }
    }

    #[test]
    fn add_edge_clears_all_outstanding_cuts() {
        let mut g = Graph::grid(2, 2);
        g.remove_edge(0, 1);
        g.remove_edge(0, 1);
        g.add_edge(0, 1); // hard re-add: operator replaced the link
        assert!(g.edge_up(0, 1));
        assert!(!g.restore_edge(0, 1), "no stale cuts survive add_edge");
    }

    #[test]
    fn partitioned_graph_routes_around_or_gives_none() {
        // 2×3 grid:
        //   0 1 2
        //   3 4 5
        // Cutting 1-2 and 4-5 splits {0,1,3,4} from {2,5}.
        let mut g = Graph::grid(2, 3);
        assert!(g.remove_edge(1, 2));
        assert!(g.remove_edge(4, 5));
        let next = g.bfs_next_hops(5);
        assert_eq!(next[5], None, "destination itself");
        assert_eq!(next[2], Some(5), "same side still routes");
        for u in [0, 1, 3, 4] {
            assert_eq!(next[u], None, "node {u} is cut off");
        }
        let weighted = g.weighted_next_hops(5, |_, _| 1.0);
        for u in [0, 1, 3, 4] {
            assert_eq!(weighted[u], None, "weighted agrees: {u} cut off");
        }
        // Restoring one crossing reconnects everything.
        assert!(g.restore_edge(4, 5));
        let next = g.bfs_next_hops(5);
        for (u, hop) in next.iter().enumerate().take(5) {
            assert!(hop.is_some(), "node {u} reconnected");
        }
        assert_eq!(next[1], Some(4), "detours around the still-cut 1-2");
    }

    #[test]
    fn bfs_detours_around_cut_bridge() {
        let mut g = Graph::grid(3, 3);
        g.remove_edge(0, 1);
        let next = g.bfs_next_hops(2);
        // 0 can no longer go right; it must drop down to 3.
        assert_eq!(next[0], Some(3));
        // add_edge on a down edge brings it back up.
        g.add_edge(0, 1);
        assert!(g.edge_up(0, 1));
        assert_eq!(g.bfs_next_hops(2)[0], Some(1));
    }

    #[test]
    #[should_panic(expected = "no self loops")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }
}
