//! Uniform-grid spatial index over points in the unit square.
//!
//! The dense camera loop answers "which cameras see this object?" by
//! scanning all `n` cameras — O(n) per object, O(n·m) per tick, the
//! cost that caps that loop at tens of cameras and that the sparse
//! drive of `camnet::des` was built to escape. The grid bins points
//! into square cells of edge `cell ≥ query radius`, so a radius query
//! inspects at most the 3×3 cell block around the centre: O(points in
//! the neighbourhood), independent of the network size.
//!
//! The index is a counting sort of the points by cell, in CSR form:
//! cell `c`'s points are `ids[starts[c] .. starts[c + 1]]`, and their
//! coordinates sit at the same positions of a second array, so the
//! cells of one grid row are one contiguous slice of both. A query
//! scans three such row slices, reading coordinates in sequence rather
//! than gathering them by id.
//!
//! Determinism contract: [`GridIndex::query_circle_into`] returns hits
//! in **ascending id order**, each with the distance it was filtered
//! by, and filters by *exact* Euclidean distance (`d ≤ r`), so
//! iterating the result set is bit-identical to the dense scan
//! `(0..n).filter(|i| dist(i) <= r)` — the property the
//! dense-vs-sparse parity proptests pin down. The F12 world indexes
//! its static cameras once and queries them once per object per tick;
//! nothing is re-indexed while a run goes on.

use workloads::trajectories::Point;

/// Columns (and rows) of a grid with cells of edge `cell`. Rounded
/// DOWN so each actual cell is at least `cell` wide — a query with
/// radius ≤ the requested edge must stay exact. At least one cell per
/// axis; capped so degenerate tiny cells cannot blow up memory (beyond
/// 4096² the 3×3 block is already far below one point per cell for any
/// realistic n).
fn columns(cell: f64) -> usize {
    (((1.0 / cell) + 1e-9).floor() as usize).clamp(1, 4096)
}

/// A uniform grid over points in `[0, 1] × [0, 1]`.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    cols: usize,
    // CSR layout: ids of the points in cell c are
    // `ids[starts[c] .. starts[c + 1]]`, ascending within each cell,
    // and `coords[j]` is the position of point `ids[j]`.
    starts: Vec<u32>,
    ids: Vec<u32>,
    coords: Vec<Point>,
}

impl GridIndex {
    /// Builds an index over `points` with cells of edge `cell`.
    ///
    /// Radius queries are exact for any radius `r ≤ cell`; larger
    /// radii would need a wider cell block than the 3×3 the query
    /// visits, unless the grid has at most two columns, where that
    /// block covers every cell and any radius is exact.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    #[must_use]
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell edge must be positive");
        let cols = columns(cell);
        let ncells = cols * cols;
        let mut grid = Self {
            cell: 1.0 / cols as f64,
            cols,
            starts: vec![0; ncells + 1],
            ids: vec![0; points.len()],
            coords: vec![Point::default(); points.len()],
        };
        for &p in points {
            let c = grid.cell_of(p);
            grid.starts[c] += 1;
        }
        // Inclusive prefix sums: `starts[c]` is the end of cell c ...
        let mut end = 0;
        for s in &mut grid.starts[..ncells] {
            end += *s;
            *s = end;
        }
        grid.starts[ncells] = end;
        // ... and filling each cell from its end in descending id
        // order leaves `starts[c]` at its start with the ids ascending
        // within the cell — the property the ordered query relies on.
        for (i, &p) in points.iter().enumerate().rev() {
            let c = grid.cell_of(p);
            grid.starts[c] -= 1;
            let j = grid.starts[c] as usize;
            grid.ids[j] = i as u32;
            grid.coords[j] = p;
        }
        grid
    }

    /// The cell holding `p`.
    fn cell_of(&self, p: Point) -> usize {
        self.axis(p.y) * self.cols + self.axis(p.x)
    }

    /// The column (or row) holding coordinate `v`: points on the
    /// square's far edges belong to its last one, and anything left of
    /// it to its first.
    fn axis(&self, v: f64) -> usize {
        ((v * self.cols as f64) as usize).min(self.cols - 1)
    }

    /// Collects into `out` every indexed point within exact Euclidean
    /// distance `r` of `center` as `(id, distance)`, in ascending id
    /// order; `distance` is `point.distance(center)`, the value the
    /// `≤ r` test read. `out` is cleared first; the caller reuses one
    /// buffer across queries to keep the hot loop allocation-free.
    ///
    /// Exact only for `r ≤ cell` or a grid of at most two columns (see
    /// [`GridIndex::build`]); otherwise a larger radius silently misses
    /// points outside the 3×3 block, so debug builds assert against it.
    pub fn query_circle_into(&self, center: Point, r: f64, out: &mut Vec<(usize, f64)>) {
        debug_assert!(
            self.cols <= 2 || r <= self.cell * (1.0 + 1e-9),
            "query radius {r} exceeds cell edge {} of a {}-column grid",
            self.cell,
            self.cols
        );
        out.clear();
        let last = self.cols - 1;
        let (cx, cy) = (self.axis(center.x), self.axis(center.y));
        let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(last));
        let mut hits = 0;
        for y in cy.saturating_sub(1)..=(cy + 1).min(last) {
            // Cells (y, x0..=x1) are adjacent in the CSR layout: one
            // slice of ids and coordinates covers the block's row.
            let lo = self.starts[y * self.cols + x0] as usize;
            let hi = self.starts[y * self.cols + x1 + 1] as usize;
            // Every candidate is written behind the hits so far, and
            // only a hit moves past it: the `≤ r` test is a 0 or 1 to
            // add, not a branch that mispredicts on a third of them.
            out.resize(hits + (hi - lo), (0, 0.0));
            for (&id, p) in self.ids[lo..hi].iter().zip(&self.coords[lo..hi]) {
                let d = p.distance(center);
                out[hits] = (id as usize, d);
                hits += usize::from(d <= r);
            }
        }
        out.truncate(hits);
        // Ids ascend only within a cell; one sort restores the global
        // id order the parity contract requires. The result set is a
        // handful of neighbours, so this is cheap.
        out.sort_unstable_by_key(|&(id, _)| id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// Hits as `(id, distance bits)`, so equal results are
    /// bit-identical.
    fn bits(hits: &[(usize, f64)]) -> Vec<(usize, u64)> {
        hits.iter().map(|&(id, d)| (id, d.to_bits())).collect()
    }

    fn dense_query(points: &[Point], center: Point, r: f64) -> Vec<(usize, f64)> {
        (0..points.len())
            .map(|i| (i, points[i].distance(center)))
            .filter(|&(_, d)| d <= r)
            .collect()
    }

    /// Points and radius queries for a grid of requested cell edge
    /// `cell`.
    #[derive(Debug)]
    struct Scenario {
        cell: f64,
        points: Vec<Point>,
        queries: Vec<(Point, f64)>,
    }

    /// Draws [`Scenario`]s:
    ///
    /// * the cell edge is 1/4,096, 0.5, uniform in `[0.5, 2.5)` (a grid
    ///   of one or two columns, as a world of side 1 or 2 builds), or
    ///   log-uniform between 1/4,200 (past the 4,096-column cap) and
    ///   0.6;
    /// * each of up to 300 points has coordinates uniform in `[0, 1)`,
    ///   on one of the grid's cell boundaries `k / cols`, or on the
    ///   square's edges 0.0 and 1.0;
    /// * each of up to 40 queries has a centre drawn the same way and a
    ///   radius of exactly `cell` or uniform in `(0, cell]`, or, on a
    ///   grid of at most two columns, uniform in `[cell, cell + 2)`.
    struct Scenarios;

    impl Scenarios {
        fn coord(rng: &mut TestRng, cols: usize) -> f64 {
            match rng.below(8) {
                0 => 0.0,
                1 => 1.0,
                2 | 3 => rng.below(cols as u64 + 1) as f64 / cols as f64,
                _ => rng.unit_f64(),
            }
        }

        fn point(rng: &mut TestRng, cols: usize) -> Point {
            let x = Self::coord(rng, cols);
            Point::new(x, Self::coord(rng, cols))
        }

        fn points(rng: &mut TestRng, cols: usize) -> Vec<Point> {
            let n = rng.below(301) as usize;
            (0..n).map(|_| Self::point(rng, cols)).collect()
        }
    }

    impl Strategy for Scenarios {
        type Value = Scenario;

        fn generate(&self, rng: &mut TestRng) -> Scenario {
            let (lo, hi) = ((1.0f64 / 4_200.0).ln(), 0.6f64.ln());
            let cell = match rng.below(16) {
                0 => 1.0 / 4_096.0,
                1 | 2 => 0.5,
                3 | 4 => 0.5 + 2.0 * rng.unit_f64(),
                _ => (lo + rng.unit_f64() * (hi - lo)).exp(),
            };
            let cols = columns(cell);
            let points = Self::points(rng, cols);
            let queries = (0..1 + rng.below(40))
                .map(|_| {
                    let center = Self::point(rng, cols);
                    let r = match rng.below(4) {
                        0 => cell,
                        1 if cols <= 2 => cell + 2.0 * rng.unit_f64(),
                        _ => cell * (1.0 - rng.unit_f64()),
                    };
                    (center, r)
                })
                .collect();
            Scenario {
                cell,
                points,
                queries,
            }
        }
    }

    proptest! {
        #[test]
        fn queries_match_the_dense_scan(s in Scenarios) {
            let grid = GridIndex::build(&s.points, s.cell);
            prop_assert_eq!(grid.ids.len(), s.points.len());
            let mut out = vec![(usize::MAX, 0.0)]; // stale content must be cleared
            for &(center, r) in &s.queries {
                grid.query_circle_into(center, r, &mut out);
                prop_assert_eq!(
                    bits(&out),
                    bits(&dense_query(&s.points, center, r)),
                    "cell {}, centre {:?}, r {}, points {:?}",
                    s.cell,
                    center,
                    r,
                    s.points
                );
            }
        }
    }

    #[test]
    fn results_are_id_sorted_and_buffer_is_cleared() {
        let points = vec![
            Point::new(0.52, 0.5),
            Point::new(0.48, 0.5),
            Point::new(0.5, 0.52),
            Point::new(0.9, 0.9),
        ];
        let grid = GridIndex::build(&points, 0.1);
        let mut out = vec![(999, 0.0)]; // stale content must be cleared
        grid.query_circle_into(Point::new(0.5, 0.5), 0.1, &mut out);
        let ids: Vec<usize> = out.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    /// The radius is a closed boundary: a point at exactly `r` is a hit
    /// at distance `r`, and one a single ulp farther is not.
    #[test]
    fn a_point_at_exactly_the_radius_is_a_hit() {
        let (centre, r) = (Point::new(0.0, 0.5), 0.25f64);
        let beyond = f64::from_bits(r.to_bits() + 1);
        let points = vec![Point::new(beyond, 0.5), Point::new(r, 0.5)];
        assert_eq!(points[0].distance(centre), beyond);
        assert_eq!(points[1].distance(centre), r);
        let grid = GridIndex::build(&points, r);
        let mut out = Vec::new();
        grid.query_circle_into(centre, r, &mut out);
        assert_eq!(bits(&out), bits(&[(1, r)]));
    }

    #[test]
    fn boundary_points_are_indexed() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let grid = GridIndex::build(&points, 0.25);
        assert_eq!(grid.ids.len(), 4);
        let mut out = Vec::new();
        grid.query_circle_into(Point::new(1.0, 1.0), 0.2, &mut out);
        assert_eq!(out, vec![(1, 0.0)]);
        grid.query_circle_into(Point::new(0.0, 0.0), 0.2, &mut out);
        assert_eq!(out, vec![(0, 0.0)]);
    }

    #[test]
    fn empty_index_answers_empty() {
        let grid = GridIndex::build(&[], 0.1);
        assert!(grid.ids.is_empty());
        let mut out = Vec::new();
        grid.query_circle_into(Point::new(0.5, 0.5), 0.1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "cell edge must be positive")]
    fn zero_cell_panics() {
        let _ = GridIndex::build(&[], 0.0);
    }
}
