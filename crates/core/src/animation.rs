//! Temporal animation: sweeping the time-slice across the trace.
//!
//! The paper's Fig. 9 follows "the temporal evolution of workload
//! distribution" by animating a given view over consecutive
//! time-slices. [`Animation`] captures one frame per slice while
//! keeping the layout warm between frames (the graph barely moves, so
//! the eye tracks values, not positions).

use viva_agg::{AggIndex, TimeSlice};
use viva_trace::{ContainerId, Trace};

use crate::session::AnalysisSession;
use crate::view::GraphView;

/// A sequence of views over consecutive time-slices.
#[derive(Debug, Clone)]
pub struct Animation {
    /// `(slice, view)` frames in time order.
    pub frames: Vec<(TimeSlice, GraphView)>,
}

impl Animation {
    /// Captures one frame per slice from `session`, restoring the
    /// session's original slice afterwards. `relax_steps` layout
    /// iterations run between frames (values change node sizes, which
    /// barely perturbs positions).
    pub fn capture(
        session: &mut AnalysisSession,
        slices: &[TimeSlice],
        relax_steps: usize,
    ) -> Animation {
        let original = session.time_slice();
        let mut frames = Vec::with_capacity(slices.len());
        for &s in slices {
            session.set_time_slice(s);
            session.relax(relax_steps);
            frames.push((s, session.view()));
        }
        session.set_time_slice(original);
        Animation { frames }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the animation has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The largest node displacement between consecutive frames — the
    /// "smoothness" of the animation (small is good: the analyst is
    /// not confused by layout jumps, §3.3).
    pub fn max_frame_displacement(&self) -> f64 {
        let mut worst = 0.0f64;
        for w in self.frames.windows(2) {
            let (_, a) = &w[0];
            let (_, b) = &w[1];
            for n in &a.nodes {
                if let Some(m) = b.node(n.container) {
                    worst = worst.max(n.position.distance(m.position));
                }
            }
        }
        worst
    }
}

/// The Fig. 9 series: for each group (row) and each slice (column), the
/// Equation 1 integral of `metric`, read from one [`AggIndex`] over the
/// trace. Rows follow `groups` order.
pub fn evolution_matrix(
    trace: &Trace,
    metric: &str,
    groups: &[ContainerId],
    slices: &[TimeSlice],
) -> Vec<Vec<f64>> {
    let Some(m) = trace.metric_id(metric) else {
        return vec![vec![0.0; slices.len()]; groups.len()];
    };
    let index = AggIndex::build(trace);
    groups
        .iter()
        .map(|&g| slices.iter().map(|&s| index.integrate(m, g, s)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_trace::{ContainerKind, TraceBuilder};

    fn session() -> AnalysisSession {
        let mut b = TraceBuilder::new();
        let power = b.metric("power", "MFlop/s");
        let used = b.metric("power_used", "MFlop/s");
        let cl = b.new_container(b.root(), "c", ContainerKind::Cluster).unwrap();
        for i in 0..3 {
            let h = b
                .new_container(cl, format!("h{i}"), ContainerKind::Host)
                .unwrap();
            b.set_variable(0.0, h, power, 100.0).unwrap();
            // Host i becomes busy at time i*10 (staggered diffusion).
            b.set_variable(10.0 * i as f64, h, used, 100.0).unwrap();
        }
        AnalysisSession::builder(b.finish(30.0)).build()
    }

    #[test]
    fn capture_produces_one_frame_per_slice() {
        let mut s = session();
        let slices = TimeSlice::new(0.0, 30.0).split(3);
        let anim = Animation::capture(&mut s, &slices, 10);
        assert_eq!(anim.len(), 3);
        assert!(!anim.is_empty());
        // Original slice restored.
        assert_eq!(s.time_slice(), TimeSlice::new(0.0, 30.0));
    }

    #[test]
    fn frames_show_workload_diffusion() {
        let mut s = session();
        let slices = TimeSlice::new(0.0, 30.0).split(3);
        let anim = Animation::capture(&mut s, &slices, 0);
        let tree_h2 = s.trace().containers().by_name("h2").unwrap().id();
        // h2 idle in the first frame, busy in the last.
        let first = anim.frames[0].1.node(tree_h2).unwrap().fill_value;
        let last = anim.frames[2].1.node(tree_h2).unwrap().fill_value;
        assert_eq!(first, 0.0);
        assert_eq!(last, 100.0);
    }

    #[test]
    fn animation_is_smooth() {
        let mut s = session();
        s.relax(300);
        let slices = TimeSlice::new(0.0, 30.0).split(3);
        let anim = Animation::capture(&mut s, &slices, 5);
        // Values change across frames but the layout barely moves.
        assert!(anim.max_frame_displacement() < s.layout().config().spring_length);
    }

    #[test]
    fn evolution_matrix_is_staggered() {
        let s = session();
        let t = s.trace();
        let hosts: Vec<ContainerId> = (0..3)
            .map(|i| t.containers().by_name(&format!("h{i}")).unwrap().id())
            .collect();
        let slices = TimeSlice::new(0.0, 30.0).split(3);
        let m = evolution_matrix(t, "power_used", &hosts, &slices);
        // Row 0 busy from the start; row 2 only in the last slice.
        assert_eq!(m[0], vec![1000.0, 1000.0, 1000.0]);
        assert_eq!(m[1], vec![0.0, 1000.0, 1000.0]);
        assert_eq!(m[2], vec![0.0, 0.0, 1000.0]);
        // Unknown metric → zero matrix.
        let z = evolution_matrix(t, "nope", &hosts, &slices);
        assert!(z.iter().all(|row| row.iter().all(|&v| v == 0.0)));
    }

    /// The index answers every cell as the per-group rescan does.
    #[test]
    fn evolution_matrix_matches_the_rescan() {
        let mut b = TraceBuilder::new();
        let used = b.metric("power_used", "MFlop/s");
        let mut groups = vec![b.root()];
        for c in 0..3 {
            let cl = b.new_container(b.root(), format!("c{c}"), ContainerKind::Cluster).unwrap();
            groups.push(cl);
            for h in 0..4 {
                let name = format!("c{c}-h{h}");
                let host = b.new_container(cl, name, ContainerKind::Host).unwrap();
                groups.push(host);
                for k in 0..6 {
                    let t = (3 * c + h + 5 * k) as f64 * 0.7;
                    let v = ((7 * c + 3 * h + 11 * k) % 13) as f64 * 12.5 + 0.1;
                    b.set_variable(t, host, used, v).unwrap();
                }
            }
        }
        let trace = b.finish(30.0);
        let m = trace.metric_id("power_used").unwrap();
        let mut slices = TimeSlice::new(0.0, 30.0).split(7);
        slices.push(TimeSlice::new(2.3, 17.9));
        let matrix = evolution_matrix(&trace, "power_used", &groups, &slices);
        for (row, &g) in matrix.iter().zip(&groups) {
            for (&fast, &s) in row.iter().zip(&slices) {
                let naive = viva_agg::integrate_group(&trace, m, g, s);
                assert!((naive - fast).abs() <= 1e-9 * naive.abs().max(1.0), "{naive} vs {fast}");
            }
        }
    }
}
