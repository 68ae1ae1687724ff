//! Interactive aggregation state: which groups are collapsed.
//!
//! The paper's analyst "interactively aggregate\[s\] parts of the graph"
//! (§3.2.2, Fig. 3) and navigates whole levels at once (Fig. 8:
//! hosts → clusters → sites → grid). [`ViewState`] is that piece of
//! session state: a set of collapsed containers plus the derived
//! *visible frontier*.

use std::collections::HashSet;

use viva_trace::{ContainerId, ContainerTree};

/// The collapse/expand state of a topology view.
///
/// A *collapsed* container is drawn as a single aggregated node; all
/// its descendants are hidden. The **visible frontier** is the set of
/// containers to draw: every node that has no collapsed proper
/// ancestor and is either collapsed itself or a leaf.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViewState {
    collapsed: HashSet<ContainerId>,
}

impl ViewState {
    /// Creates a fully-expanded view (every leaf visible).
    pub fn new() -> ViewState {
        ViewState::default()
    }

    /// Whether `id` is collapsed.
    pub fn is_collapsed(&self, id: ContainerId) -> bool {
        self.collapsed.contains(&id)
    }

    /// Collapses `id` into a single aggregated node (no-op when already
    /// collapsed). Collapsing a leaf is allowed and harmless.
    pub fn collapse(&mut self, id: ContainerId) {
        self.collapsed.insert(id);
    }

    /// Expands `id` (no-op when not collapsed).
    pub fn expand(&mut self, id: ContainerId) {
        self.collapsed.remove(&id);
    }

    /// Expands everything.
    pub fn expand_all(&mut self) {
        self.collapsed.clear();
    }

    /// The collapsed containers, sorted by id — the serializable form
    /// of this state. Replaying `collapse` over these ids on a fresh
    /// `ViewState` reproduces `self` exactly, which is what session
    /// checkpoint/restore relies on.
    pub fn collapsed_ids(&self) -> Vec<ContainerId> {
        let mut ids: Vec<ContainerId> = self.collapsed.iter().copied().collect();
        ids.sort_by_key(|c| c.index());
        ids
    }

    /// Sets the view to one hierarchy level: collapses every container
    /// with children at depth `depth` and clears all other collapse
    /// marks. Depth 0 collapses the whole tree into one node; the tree
    /// height yields the fully-expanded host view (Fig. 8's four
    /// levels).
    pub fn collapse_at_depth(&mut self, tree: &ContainerTree, depth: u32) {
        self.collapsed.clear();
        for c in tree.iter() {
            if c.depth() == depth && !c.is_leaf() {
                self.collapsed.insert(c.id());
            }
        }
    }

    /// Whether `id` is visible: no proper ancestor collapsed, and
    /// either collapsed itself or a leaf.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not part of `tree`.
    pub fn is_visible(&self, tree: &ContainerTree, id: ContainerId) -> bool {
        if proper_ancestors(tree, id).any(|a| self.collapsed.contains(&a)) {
            return false;
        }
        self.collapsed.contains(&id) || tree.node(id).is_leaf()
    }

    /// The visible frontier, in container-id order.
    pub fn visible(&self, tree: &ContainerTree) -> Vec<ContainerId> {
        let mut out = Vec::new();
        // Depth-first walk that stops at collapsed nodes.
        let mut stack = vec![tree.root()];
        while let Some(c) = stack.pop() {
            let node = tree.node(c);
            if self.collapsed.contains(&c) || node.is_leaf() {
                out.push(c);
                continue;
            }
            for &ch in node.children().iter().rev() {
                stack.push(ch);
            }
        }
        out.sort();
        out
    }

    /// The visible node that represents `id` in the current view: `id`
    /// itself when visible, otherwise its nearest collapsed ancestor.
    /// `None` when `id` is an expanded internal node (not drawn).
    ///
    /// # Panics
    ///
    /// Panics when `id` is not part of `tree`.
    pub fn representative(&self, tree: &ContainerTree, id: ContainerId) -> Option<ContainerId> {
        // The outermost collapsed ancestor wins: the walk goes up from
        // `id`, so the last one it meets.
        let outermost = proper_ancestors(tree, id)
            .filter(|a| self.collapsed.contains(a))
            .last();
        if outermost.is_some() {
            return outermost;
        }
        if self.collapsed.contains(&id) || tree.node(id).is_leaf() {
            Some(id)
        } else {
            None
        }
    }

    /// Number of collapsed containers.
    pub fn collapsed_count(&self) -> usize {
        self.collapsed.len()
    }
}

/// The proper ancestors of `id`, nearest first, following parent links
/// (no allocation, unlike [`ContainerTree::ancestors`]).
fn proper_ancestors(
    tree: &ContainerTree,
    id: ContainerId,
) -> impl Iterator<Item = ContainerId> + '_ {
    std::iter::successors(tree.node(id).parent(), |&p| tree.node(p).parent())
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_trace::ContainerKind;

    /// root → s1 → (c1 → h1,h2 ; c2 → h3) ; s2 → c3 → h4
    fn tree() -> (ContainerTree, Vec<ContainerId>) {
        let mut t = ContainerTree::new();
        let s1 = t.add(t.root(), "s1", ContainerKind::Site).unwrap();
        let s2 = t.add(t.root(), "s2", ContainerKind::Site).unwrap();
        let c1 = t.add(s1, "c1", ContainerKind::Cluster).unwrap();
        let c2 = t.add(s1, "c2", ContainerKind::Cluster).unwrap();
        let c3 = t.add(s2, "c3", ContainerKind::Cluster).unwrap();
        let h1 = t.add(c1, "h1", ContainerKind::Host).unwrap();
        let h2 = t.add(c1, "h2", ContainerKind::Host).unwrap();
        let h3 = t.add(c2, "h3", ContainerKind::Host).unwrap();
        let h4 = t.add(c3, "h4", ContainerKind::Host).unwrap();
        (t, vec![s1, s2, c1, c2, c3, h1, h2, h3, h4])
    }

    #[test]
    fn fully_expanded_shows_leaves() {
        let (t, ids) = tree();
        let v = ViewState::new();
        let visible = v.visible(&t);
        // h1..h4 only.
        assert_eq!(visible, vec![ids[5], ids[6], ids[7], ids[8]]);
    }

    #[test]
    fn collapse_hides_descendants() {
        let (t, ids) = tree();
        let [s1, _s2, c1, .., h3, _h4] =
            [ids[0], ids[1], ids[2], ids[3], ids[4], ids[7], ids[8]];
        let mut v = ViewState::new();
        v.collapse(c1);
        let visible = v.visible(&t);
        assert!(visible.contains(&c1));
        assert!(!visible.contains(&ids[5]), "h1 hidden");
        assert!(visible.contains(&h3), "h3 in other cluster still visible");
        // Collapsing an ancestor of a collapsed node hides it too.
        v.collapse(s1);
        let visible = v.visible(&t);
        assert!(visible.contains(&s1));
        assert!(!visible.contains(&c1));
    }

    #[test]
    fn collapse_at_depth_levels() {
        let (t, ids) = tree();
        let mut v = ViewState::new();
        // Site level (depth 1): s1, s2 aggregated.
        v.collapse_at_depth(&t, 1);
        assert_eq!(v.visible(&t), vec![ids[0], ids[1]]);
        // Cluster level (depth 2): c1, c2, c3.
        v.collapse_at_depth(&t, 2);
        assert_eq!(v.visible(&t), vec![ids[2], ids[3], ids[4]]);
        // Grid level (depth 0): one node.
        v.collapse_at_depth(&t, 0);
        assert_eq!(v.visible(&t), vec![t.root()]);
        // Host level: nothing collapsed (hosts are leaves).
        v.collapse_at_depth(&t, 3);
        assert_eq!(v.collapsed_count(), 0);
        assert_eq!(v.visible(&t).len(), 4);
    }

    #[test]
    fn expand_restores() {
        let (t, ids) = tree();
        let mut v = ViewState::new();
        v.collapse(ids[2]);
        assert!(v.is_collapsed(ids[2]));
        v.expand(ids[2]);
        assert!(!v.is_collapsed(ids[2]));
        assert_eq!(v.visible(&t).len(), 4);
        v.collapse(ids[0]);
        v.collapse(ids[1]);
        v.expand_all();
        assert_eq!(v.collapsed_count(), 0);
    }

    #[test]
    fn representative_resolution() {
        let (t, ids) = tree();
        let [s1, c1, h1] = [ids[0], ids[2], ids[5]];
        let mut v = ViewState::new();
        // Fully expanded: a leaf represents itself, internal nodes are
        // not drawn.
        assert_eq!(v.representative(&t, h1), Some(h1));
        assert_eq!(v.representative(&t, c1), None);
        v.collapse(c1);
        assert_eq!(v.representative(&t, h1), Some(c1));
        assert_eq!(v.representative(&t, c1), Some(c1));
        // Outermost collapsed ancestor wins.
        v.collapse(s1);
        assert_eq!(v.representative(&t, h1), Some(s1));
        assert_eq!(v.representative(&t, c1), Some(s1));
    }

    #[test]
    fn is_visible_consistent_with_visible() {
        let (t, ids) = tree();
        let mut v = ViewState::new();
        v.collapse(ids[2]);
        v.collapse(ids[1]);
        let listed: std::collections::HashSet<_> =
            v.visible(&t).into_iter().collect();
        for c in t.iter() {
            assert_eq!(
                listed.contains(&c.id()),
                v.is_visible(&t, c.id()),
                "mismatch on {}",
                c.name()
            );
        }
    }
}
