//! Force model and its interactive parameters.
//!
//! The three knobs mirror the paper's §4.2 sliders exactly:
//! **charge** (Coulomb repulsion), **spring** (Hooke attraction) and
//! **damping** (velocity decay).

use crate::vec2::Vec2;

/// Parameters of the force-directed simulation.
///
/// All fields are public: the analyst tunes them live through sliders
/// (paper Fig. 5) and the engine picks the new values up on the next
/// step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutConfig {
    /// Coulomb constant multiplying `qᵢ·qⱼ / d²`. "Higher their value,
    /// more disperse the nodes are in the view."
    pub repulsion: f64,
    /// Hooke constant of edge springs.
    pub spring: f64,
    /// Natural spring length (the rest distance of connected nodes).
    pub spring_length: f64,
    /// Velocity retained per step, in `(0, 1]`. Lower values "make the
    /// algorithm converge faster, or ... stop it".
    pub damping: f64,
    /// Barnes-Hut opening angle θ; 0 = exact.
    pub theta: f64,
    /// Integration time step.
    pub dt: f64,
    /// Distance clamp for the repulsion singularity.
    pub min_distance: f64,
    /// Hard cap on per-step node displacement (numerical guard).
    pub max_displacement: f64,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig {
            repulsion: 100.0,
            spring: 2.0,
            spring_length: 10.0,
            damping: 0.6,
            theta: 0.7,
            dt: 0.05,
            min_distance: 0.05,
            max_displacement: 25.0,
        }
    }
}

impl LayoutConfig {
    /// Validates the parameter set, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics when any parameter is non-finite, `damping` is outside
    /// `(0, 1]`, or a scale parameter is non-positive.
    pub fn validated(self) -> LayoutConfig {
        assert!(self.repulsion.is_finite() && self.repulsion >= 0.0);
        assert!(self.spring.is_finite() && self.spring >= 0.0);
        assert!(self.spring_length.is_finite() && self.spring_length > 0.0);
        assert!(self.damping.is_finite() && self.damping > 0.0 && self.damping <= 1.0);
        assert!(self.theta.is_finite() && self.theta >= 0.0);
        assert!(self.dt.is_finite() && self.dt > 0.0);
        assert!(self.min_distance.is_finite() && self.min_distance > 0.0);
        assert!(self.max_displacement.is_finite() && self.max_displacement > 0.0);
        self
    }

    /// Repairs the parameter set instead of panicking: non-finite
    /// fields fall back to their defaults and finite values are clamped
    /// into their legal range. A configuration that already passes
    /// [`validated`](LayoutConfig::validated) comes back bit-identical,
    /// so sanitizing on every step never perturbs a healthy layout.
    ///
    /// This is the slider trust boundary: the engine consumes whatever
    /// the UI hands it without ever aborting the session.
    pub fn sanitized(self) -> LayoutConfig {
        let d = LayoutConfig::default();
        fn nonneg(v: f64, fallback: f64) -> f64 {
            if v.is_finite() {
                v.max(0.0)
            } else {
                fallback
            }
        }
        fn positive(v: f64, fallback: f64) -> f64 {
            if v.is_finite() && v > 0.0 {
                v
            } else {
                fallback
            }
        }
        LayoutConfig {
            repulsion: nonneg(self.repulsion, d.repulsion),
            spring: nonneg(self.spring, d.spring),
            spring_length: positive(self.spring_length, d.spring_length),
            damping: positive(self.damping, d.damping).min(1.0),
            theta: nonneg(self.theta, d.theta),
            dt: positive(self.dt, d.dt),
            min_distance: positive(self.min_distance, d.min_distance),
            max_displacement: positive(self.max_displacement, d.max_displacement),
        }
    }
}

/// Hooke spring force on the node at `at`, attached to `other`:
/// `-k · (d - L) · û`. Attractive beyond the natural length `L`,
/// repulsive when compressed.
pub fn spring_force(at: Vec2, other: Vec2, k: f64, natural_length: f64) -> Vec2 {
    let delta = at - other;
    let d = delta.length();
    if d == 0.0 {
        return Vec2::default(); // coincident: repulsion will separate them
    }
    let stretch = d - natural_length;
    (delta / d) * (-k * stretch)
}

/// A deterministic pseudo-random unit vector derived from `salt`.
///
/// Exactly coincident nodes have no geometric direction to repel
/// along; pushing them all the same way (say `+x`) would keep them
/// coincident *with each other* forever. Hashing each probe's index
/// into its own escape direction separates the pile-up in one step
/// while keeping layouts reproducible.
pub fn jitter_direction(salt: u64) -> Vec2 {
    // SplitMix64 finalizer: cheap, stateless, well mixed.
    let mut z = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let angle = std::f64::consts::TAU * (z >> 11) as f64 / (1u64 << 53) as f64;
    Vec2::new(angle.cos(), angle.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let _ = LayoutConfig::default().validated();
    }

    #[test]
    #[should_panic]
    fn zero_damping_rejected() {
        let _ = LayoutConfig { damping: 0.0, ..Default::default() }.validated();
    }

    #[test]
    fn sanitized_is_identity_on_valid_configs() {
        let cfg = LayoutConfig { repulsion: 37.5, damping: 1.0, ..Default::default() };
        assert_eq!(cfg.sanitized(), cfg);
        assert_eq!(LayoutConfig::default().sanitized(), LayoutConfig::default());
    }

    #[test]
    fn sanitized_repairs_hostile_sliders() {
        let cfg = LayoutConfig {
            repulsion: f64::NAN,
            spring: -3.0,
            spring_length: 0.0,
            damping: f64::INFINITY,
            theta: -1.0,
            dt: f64::NEG_INFINITY,
            min_distance: -0.5,
            max_displacement: f64::NAN,
        }
        .sanitized();
        // Sanitized output always passes full validation.
        let _ = cfg.validated();
        let d = LayoutConfig::default();
        assert_eq!(cfg.repulsion, d.repulsion);
        assert_eq!(cfg.spring, 0.0, "negative clamps to zero");
        assert_eq!(cfg.spring_length, d.spring_length);
        assert_eq!(cfg.damping, d.damping, "non-finite damping falls back");
        assert_eq!(cfg.theta, 0.0);
        assert_eq!(cfg.dt, d.dt);
        assert_eq!(cfg.min_distance, d.min_distance);
        assert_eq!(cfg.max_displacement, d.max_displacement);
        // Finite but over-unity damping clamps to the legal ceiling.
        let over = LayoutConfig { damping: 2.0, ..Default::default() }.sanitized();
        assert_eq!(over.damping, 1.0);
    }

    /// The measured regression the threshold exists for: at 500 hosts
    /// the parallel repulsion pass was slower than serial, so the
    /// force pass must stay serial there.
    #[test]
    fn default_threshold_keeps_500_hosts_serial() {
        const { assert!(crate::engine::PARALLEL_THRESHOLD > 500) };
    }

    #[test]
    fn stretched_spring_attracts() {
        let f = spring_force(Vec2::new(20.0, 0.0), Vec2::new(0.0, 0.0), 1.0, 10.0);
        // Stretched by 10 beyond natural length: pull toward the other
        // node (negative x).
        assert!((f.x + 10.0).abs() < 1e-12);
        assert_eq!(f.y, 0.0);
    }

    #[test]
    fn compressed_spring_repels() {
        let f = spring_force(Vec2::new(5.0, 0.0), Vec2::new(0.0, 0.0), 1.0, 10.0);
        assert!(f.x > 0.0);
    }

    #[test]
    fn rest_length_is_equilibrium() {
        let f = spring_force(Vec2::new(10.0, 0.0), Vec2::new(0.0, 0.0), 3.0, 10.0);
        assert!(f.length() < 1e-12);
    }

    #[test]
    fn coincident_nodes_no_spring_force() {
        let p = Vec2::new(1.0, 1.0);
        assert_eq!(spring_force(p, p, 1.0, 10.0), Vec2::default());
    }
}
