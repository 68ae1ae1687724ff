//! Barnes-Hut quadtree: `O(n log n)` approximate n-body repulsion.
//!
//! The paper (§3.3) adopts "the scalable Barnes-Hut algorithm —
//! O(n log n)" over the basic `O(n²)` force computation. The tree
//! recursively subdivides the bounding square of the charged nodes;
//! a query against a far-away cell (cell size / distance below the
//! opening angle `θ`) is answered with the cell's aggregate charge at
//! its charge-weighted centroid instead of recursing.

use crate::vec2::Vec2;

const MAX_DEPTH: usize = 32;

#[derive(Debug, Clone)]
struct Cell {
    /// Center of the square region.
    center: Vec2,
    /// Half the side length.
    half: f64,
    /// Total charge in the cell.
    charge: f64,
    /// Charge-weighted centroid of the cell.
    centroid: Vec2,
    /// Index of the first child cell (children are contiguous:
    /// `child + quadrant`), or `usize::MAX` for leaves.
    child: usize,
    /// Index of the stored point for occupied leaves (`usize::MAX`
    /// otherwise).
    point: usize,
}

impl Cell {
    fn new(center: Vec2, half: f64) -> Cell {
        Cell {
            center,
            half,
            charge: 0.0,
            centroid: Vec2::default(),
            child: usize::MAX,
            point: usize::MAX,
        }
    }

    fn is_leaf(&self) -> bool {
        self.child == usize::MAX
    }

    fn quadrant(&self, p: Vec2) -> usize {
        (usize::from(p.x >= self.center.x)) | (usize::from(p.y >= self.center.y) << 1)
    }

    fn child_center(&self, quadrant: usize) -> Vec2 {
        let q = self.half / 2.0;
        Vec2::new(
            self.center.x + if quadrant & 1 == 1 { q } else { -q },
            self.center.y + if quadrant & 2 == 2 { q } else { -q },
        )
    }
}

/// A built Barnes-Hut quadtree over a set of charged points.
#[derive(Debug, Clone)]
pub struct QuadTree {
    cells: Vec<Cell>,
    points: Vec<(Vec2, f64)>,
}

impl QuadTree {
    /// Builds the tree over `(position, charge)` points.
    ///
    /// Coincident points are merged into the deepest cell (bounded
    /// subdivision), which keeps construction `O(n log n)` even on
    /// degenerate inputs.
    pub fn build(points: &[(Vec2, f64)]) -> QuadTree {
        let mut tree = QuadTree { cells: Vec::new(), points: points.to_vec() };
        if points.is_empty() {
            return tree;
        }
        let mut lo = points[0].0;
        let mut hi = points[0].0;
        for &(p, _) in points {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        let center = (lo + hi) * 0.5;
        let half = ((hi - lo).x.max((hi - lo).y) / 2.0).max(1e-9) * 1.0001;
        tree.cells.push(Cell::new(center, half));
        for i in 0..points.len() {
            tree.insert(0, i, 0);
        }
        tree.finalize(0);
        tree
    }

    fn insert(&mut self, cell: usize, point: usize, depth: usize) {
        let p = self.points[point].0;
        if self.cells[cell].is_leaf() {
            if self.cells[cell].point == usize::MAX {
                self.cells[cell].point = point;
                return;
            }
            if depth >= MAX_DEPTH {
                // Degenerate (coincident) points: merge charges into
                // the resident point.
                let resident = self.cells[cell].point;
                self.points[resident].1 += self.points[point].1;
                return;
            }
            // Split: push 4 children, reinsert the resident point.
            let child = self.cells.len();
            for q in 0..4 {
                let c = Cell::new(self.cells[cell].child_center(q), self.cells[cell].half / 2.0);
                self.cells.push(c);
            }
            let resident = self.cells[cell].point;
            self.cells[cell].child = child;
            self.cells[cell].point = usize::MAX;
            let rq = self.cells[cell].quadrant(self.points[resident].0);
            self.insert(child + rq, resident, depth + 1);
        }
        let q = self.cells[cell].quadrant(p);
        let child = self.cells[cell].child;
        self.insert(child + q, point, depth + 1);
    }

    /// Computes aggregate charge and centroid bottom-up.
    fn finalize(&mut self, cell: usize) {
        if self.cells[cell].is_leaf() {
            if self.cells[cell].point != usize::MAX {
                let (p, q) = self.points[self.cells[cell].point];
                self.cells[cell].charge = q;
                self.cells[cell].centroid = p;
            }
            return;
        }
        let child = self.cells[cell].child;
        let mut charge = 0.0;
        let mut weighted = Vec2::default();
        for q in 0..4 {
            self.finalize(child + q);
            let c = &self.cells[child + q];
            charge += c.charge;
            weighted += c.centroid * c.charge;
        }
        self.cells[cell].charge = charge;
        self.cells[cell].centroid = if charge != 0.0 {
            weighted / charge
        } else {
            self.cells[cell].center
        };
    }

    /// Number of tree cells (diagnostics).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total charge stored in the tree.
    pub fn total_charge(&self) -> f64 {
        self.cells.first().map_or(0.0, |c| c.charge)
    }

    /// The approximate Coulomb repulsion exerted by all points on a
    /// probe of charge `charge` at `at`, excluding the point stored at
    /// index `exclude` (pass `usize::MAX` to include everything), and
    /// the number of Coulomb evaluations performed (leaf points plus
    /// macro-cells the opening-angle test accepted). The observability
    /// layer compares that tally against the naive `n·(n-1)` pair count
    /// to show the paper's Barnes-Hut trade-off (§3.3) as a live metric
    /// instead of a claim.
    ///
    /// `theta` is the opening angle: 0 degrades to exact `O(n)` per
    /// query; larger values are faster and coarser (0.5–1.0 typical).
    /// `min_dist` clamps the singularity at zero distance.
    pub fn repulsion(
        &self,
        at: Vec2,
        charge: f64,
        exclude: usize,
        theta: f64,
        min_dist: f64,
    ) -> (Vec2, u64) {
        if self.cells.is_empty() {
            return (Vec2::default(), 0);
        }
        let mut force = Vec2::default();
        let mut visits = 0u64;
        // Explicit stack to avoid recursion overhead.
        let mut stack = vec![0usize];
        while let Some(ci) = stack.pop() {
            let cell = &self.cells[ci];
            if cell.charge == 0.0 {
                continue;
            }
            if cell.is_leaf() {
                if cell.point != usize::MAX && cell.point != exclude {
                    force +=
                        coulomb(at, cell.centroid, charge * cell.charge, min_dist, exclude as u64);
                    visits += 1;
                }
                continue;
            }
            let d = at.distance(cell.centroid);
            if cell.half * 2.0 < theta * d {
                // Far enough: treat the cell as a single macro-charge.
                // (A cell containing the excluded point is never "far"
                // in practice because the probe sits inside it; the
                // approximation error this introduces is part of the
                // Barnes-Hut contract.)
                force += coulomb(at, cell.centroid, charge * cell.charge, min_dist, exclude as u64);
                visits += 1;
            } else {
                for q in 0..4 {
                    stack.push(cell.child + q);
                }
            }
        }
        (force, visits)
    }
}

/// Coulomb repulsion exerted on a probe at `at` by a charge at `from`,
/// with product of charges `qq`: magnitude `qq / d²` pointing away from
/// `from`. `min_dist > 0` clamps the distance so the magnitude stays
/// finite; for an *exactly* coincident pair the direction is a
/// deterministic pseudo-random unit vector derived from `salt` (the
/// probe's index), so piles of identical positions fan out instead of
/// marching in lockstep — and no `0/0` NaN can form.
pub fn coulomb(at: Vec2, from: Vec2, qq: f64, min_dist: f64, salt: u64) -> Vec2 {
    let delta = at - from;
    let d = delta.length().max(min_dist);
    let dir = if delta.length() > 0.0 {
        delta / delta.length()
    } else {
        crate::forces::jitter_direction(salt)
    };
    dir * (qq / (d * d))
}

/// Exact `O(n²)`-style repulsion on one probe (reference
/// implementation used by tests and the naive engine step).
pub fn naive_repulsion(
    points: &[(Vec2, f64)],
    at: Vec2,
    charge: f64,
    exclude: usize,
    min_dist: f64,
) -> Vec2 {
    let mut force = Vec2::default();
    for (j, &(p, q)) in points.iter().enumerate() {
        if j != exclude {
            force += coulomb(at, p, charge * q, min_dist, exclude as u64);
        }
    }
    force
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<(Vec2, f64)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (
                    Vec2::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)),
                    rng.gen_range(0.5..4.0),
                )
            })
            .collect()
    }

    #[test]
    fn empty_tree_is_inert() {
        let t = QuadTree::build(&[]);
        assert_eq!(t.total_charge(), 0.0);
        assert_eq!(
            t.repulsion(Vec2::new(1.0, 1.0), 1.0, usize::MAX, 0.7, 0.01),
            (Vec2::default(), 0)
        );
    }

    #[test]
    fn single_point_repels_probe() {
        let t = QuadTree::build(&[(Vec2::new(0.0, 0.0), 2.0)]);
        let (f, _) = t.repulsion(Vec2::new(3.0, 0.0), 1.0, usize::MAX, 0.7, 0.01);
        // Magnitude 2/9 along +x.
        assert!((f.x - 2.0 / 9.0).abs() < 1e-12);
        assert_eq!(f.y, 0.0);
    }

    #[test]
    fn total_charge_is_preserved() {
        let pts = random_points(200, 1);
        let t = QuadTree::build(&pts);
        let expect: f64 = pts.iter().map(|&(_, q)| q).sum();
        assert!((t.total_charge() - expect).abs() < 1e-9);
    }

    #[test]
    fn theta_zero_matches_naive_exactly() {
        let pts = random_points(64, 2);
        let t = QuadTree::build(&pts);
        for (i, &(p, q)) in pts.iter().enumerate() {
            let exact = naive_repulsion(&pts, p, q, i, 0.01);
            let (approx, _) = t.repulsion(p, q, i, 0.0, 0.01);
            assert!(
                (exact - approx).length() < 1e-9 * exact.length().max(1.0),
                "mismatch at {i}: {exact:?} vs {approx:?}"
            );
        }
    }

    #[test]
    fn barnes_hut_approximates_naive() {
        let pts = random_points(300, 3);
        let t = QuadTree::build(&pts);
        // Normalize by the typical force magnitude: nodes in the bulk
        // have a near-zero *net* force (everything cancels), so a
        // per-node relative error is meaningless there.
        let exact: Vec<Vec2> = pts
            .iter()
            .enumerate()
            .map(|(i, &(p, q))| naive_repulsion(&pts, p, q, i, 0.01))
            .collect();
        let typical =
            exact.iter().map(|f| f.length()).sum::<f64>() / pts.len() as f64;
        let mut worst = 0.0f64;
        let mut total = 0.0f64;
        for (i, &(p, q)) in pts.iter().enumerate() {
            let (approx, _) = t.repulsion(p, q, i, 0.5, 0.01);
            let err = (exact[i] - approx).length();
            worst = worst.max(err);
            total += err;
        }
        let mean = total / pts.len() as f64;
        // The *mean* error must be small; the worst single node can be
        // much worse (θ=0.5 on a clustered sample where the net force
        // nearly cancels), so only bound it loosely.
        assert!(
            mean < 0.05 * typical,
            "mean abs error {mean} vs typical magnitude {typical}"
        );
        assert!(
            worst < typical,
            "worst abs error {worst} vs typical magnitude {typical}"
        );
    }

    #[test]
    fn coincident_points_do_not_hang() {
        let p = Vec2::new(1.0, 1.0);
        let pts = vec![(p, 1.0); 10];
        let t = QuadTree::build(&pts);
        assert!((t.total_charge() - 10.0).abs() < 1e-9);
        // A probe elsewhere feels all ten charges.
        let (f, _) = t.repulsion(Vec2::new(4.0, 1.0), 1.0, usize::MAX, 0.7, 0.01);
        assert!((f.x - 10.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn coulomb_coincident_probe_is_deterministic_and_finite() {
        let p = Vec2::new(1.0, 1.0);
        let f = coulomb(p, p, 4.0, 0.1, 3);
        assert_eq!(f, coulomb(p, p, 4.0, 0.1, 3), "same salt, same direction");
        assert!(f.x.is_finite() && f.y.is_finite());
        // Magnitude is the clamped 4/0.1² regardless of direction.
        assert!((f.length() - 400.0).abs() < 1e-9, "{f}");
        // Different salts escape in different directions.
        assert!((f - coulomb(p, p, 4.0, 0.1, 4)).length() > 1.0);
    }

    #[test]
    fn repulsion_visits_prune_below_naive() {
        let pts = random_points(400, 5);
        let t = QuadTree::build(&pts);
        let mut total_visits = 0u64;
        for (i, &(p, q)) in pts.iter().enumerate() {
            let (_, visits) = t.repulsion(p, q, i, 0.7, 0.01);
            assert!(visits > 0 && visits < pts.len() as u64);
            total_visits += visits;
        }
        let naive_pairs = (pts.len() * (pts.len() - 1)) as u64;
        assert!(
            total_visits < naive_pairs / 2,
            "θ=0.7 should prune well below naive: {total_visits} vs {naive_pairs}"
        );
        // θ=0 degrades to exactly the naive pair count.
        let (_, exact_visits) = t.repulsion(pts[0].0, pts[0].1, 0, 0.0, 0.01);
        assert_eq!(exact_visits, pts.len() as u64 - 1);
    }

    #[test]
    fn cell_count_is_linearithmic_ish() {
        let pts = random_points(1000, 4);
        let t = QuadTree::build(&pts);
        // Loose sanity bound: a quadtree over n well-spread points has
        // O(n) cells.
        assert!(t.cell_count() < 20 * pts.len(), "{} cells", t.cell_count());
    }
}
