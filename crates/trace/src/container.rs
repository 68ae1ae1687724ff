//! Container tree: the hierarchy of monitored entities.
//!
//! The paper's spatial aggregation (§3.2.2) groups monitored entities by
//! "neighbourhoods ... inherited from the traces through the definition
//! of groups, possibly hierarchically organized". The container tree is
//! that hierarchy: `Grid → Site → Cluster → Host/Link` for platforms,
//! with `Process` containers optionally nested under hosts.

use std::fmt;

use crate::error::TraceError;

/// Opaque identifier of a [`Container`] inside one [`ContainerTree`].
///
/// Ids are dense indices: they are assigned in creation order starting
/// from 0 (the root), which makes `Vec`-backed per-container side tables
/// cheap for downstream crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub(crate) u32);

impl ContainerId {
    /// Returns the dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index.
    ///
    /// Only meaningful for indices previously obtained via
    /// [`ContainerId::index`] on the same tree.
    pub fn from_index(index: usize) -> ContainerId {
        ContainerId(index as u32)
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The nature of a monitored entity.
///
/// The kind drives the default visual mapping (paper §3.1: hosts are
/// squares, links are diamonds) and the default aggregation grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// The root of the observed system (e.g. a whole grid).
    Root,
    /// A geographical/administrative site of a grid.
    Site,
    /// A homogeneous cluster of hosts.
    Cluster,
    /// A computing host.
    Host,
    /// A network link.
    Link,
    /// A network router/switch.
    Router,
    /// An application process pinned to a host.
    Process,
    /// A user-defined grouping with no prescribed semantics.
    Group,
}

impl ContainerKind {
    /// Returns `true` for kinds that represent aggregable groupings
    /// rather than leaf monitored entities.
    pub fn is_grouping(self) -> bool {
        matches!(
            self,
            ContainerKind::Root
                | ContainerKind::Site
                | ContainerKind::Cluster
                | ContainerKind::Group
        )
    }

    /// Short lowercase label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            ContainerKind::Root => "root",
            ContainerKind::Site => "site",
            ContainerKind::Cluster => "cluster",
            ContainerKind::Host => "host",
            ContainerKind::Link => "link",
            ContainerKind::Router => "router",
            ContainerKind::Process => "process",
            ContainerKind::Group => "group",
        }
    }

    /// Parses a label produced by [`ContainerKind::label`].
    pub fn from_label(label: &str) -> Option<ContainerKind> {
        Some(match label {
            "root" => ContainerKind::Root,
            "site" => ContainerKind::Site,
            "cluster" => ContainerKind::Cluster,
            "host" => ContainerKind::Host,
            "link" => ContainerKind::Link,
            "router" => ContainerKind::Router,
            "process" => ContainerKind::Process,
            "group" => ContainerKind::Group,
            _ => return None,
        })
    }
}

impl fmt::Display for ContainerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One monitored entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    id: ContainerId,
    parent: Option<ContainerId>,
    name: String,
    kind: ContainerKind,
    depth: u32,
    children: Vec<ContainerId>,
    /// Leaves in this container's subtree (1 for a leaf itself).
    leaves: u32,
}

impl Container {
    /// This container's id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The parent container, `None` for the root.
    pub fn parent(&self) -> Option<ContainerId> {
        self.parent
    }

    /// Human-readable name, unique among siblings.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entity kind.
    pub fn kind(&self) -> ContainerKind {
        self.kind
    }

    /// Distance from the root (the root has depth 0).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Ids of direct children, in creation order.
    pub fn children(&self) -> &[ContainerId] {
        &self.children
    }

    /// Whether this container has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The tree of all monitored entities of a trace.
///
/// A tree always contains at least the root container.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerTree {
    nodes: Vec<Container>,
}

impl ContainerTree {
    /// Creates a tree holding only a root container named `root`.
    pub fn new() -> ContainerTree {
        ContainerTree {
            nodes: vec![Container {
                id: ContainerId(0),
                parent: None,
                name: "root".to_owned(),
                kind: ContainerKind::Root,
                depth: 0,
                children: Vec::new(),
                leaves: 1,
            }],
        }
    }

    /// The root container id (always present).
    pub fn root(&self) -> ContainerId {
        ContainerId(0)
    }

    /// Number of containers, root included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false`: a tree always holds at least the root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds a child of `parent` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownContainer`] if `parent` is not in
    /// this tree.
    pub fn add(
        &mut self,
        parent: ContainerId,
        name: impl Into<String>,
        kind: ContainerKind,
    ) -> Result<ContainerId, TraceError> {
        let depth = self
            .get(parent)
            .ok_or(TraceError::UnknownContainer(parent))?
            .depth
            + 1;
        let id = ContainerId(self.nodes.len() as u32);
        self.nodes.push(Container {
            id,
            parent: Some(parent),
            name: name.into(),
            kind,
            depth,
            children: Vec::new(),
            leaves: 1,
        });
        let siblings = &mut self.nodes[parent.index()].children;
        siblings.push(id);
        // A leaf parent hands its own count to its first child; a later
        // child is one more leaf for every ancestor.
        if siblings.len() > 1 {
            let mut cur = Some(parent);
            while let Some(c) = cur {
                self.nodes[c.index()].leaves += 1;
                cur = self.nodes[c.index()].parent;
            }
        }
        Ok(id)
    }

    /// Looks a container up by id.
    pub fn get(&self, id: ContainerId) -> Option<&Container> {
        self.nodes.get(id.index())
    }

    /// Panicking indexed access, for ids known to be valid.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this tree.
    pub fn node(&self, id: ContainerId) -> &Container {
        &self.nodes[id.index()]
    }

    /// Iterates over all containers in creation (= id) order.
    pub fn iter(&self) -> impl Iterator<Item = &Container> {
        self.nodes.iter()
    }

    /// Finds the first container with the given name anywhere in the
    /// tree (names are only guaranteed unique among siblings).
    pub fn by_name(&self, name: &str) -> Option<&Container> {
        self.nodes.iter().find(|c| c.name == name)
    }

    /// Finds a child of `parent` by name.
    pub fn child_by_name(&self, parent: ContainerId, name: &str) -> Option<&Container> {
        self.get(parent)?
            .children
            .iter()
            .map(|&c| self.node(c))
            .find(|c| c.name == name)
    }

    /// `/`-separated path from the root to `id` (root excluded).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this tree.
    pub fn path(&self, id: ContainerId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = self.node(c);
            if n.parent.is_some() {
                parts.push(n.name.as_str());
            }
            cur = n.parent;
        }
        parts.reverse();
        parts.join("/")
    }

    /// Resolves a path produced by [`ContainerTree::path`].
    pub fn by_path(&self, path: &str) -> Option<&Container> {
        if path.is_empty() {
            return self.get(self.root());
        }
        let mut cur = self.root();
        for part in path.split('/') {
            cur = self.child_by_name(cur, part)?.id();
        }
        self.get(cur)
    }

    /// Ids of the ancestors of `id`, nearest first, root last.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this tree.
    pub fn ancestors(&self, id: ContainerId) -> Vec<ContainerId> {
        let mut out = Vec::new();
        let mut cur = self.node(id).parent;
        while let Some(c) = cur {
            out.push(c);
            cur = self.node(c).parent;
        }
        out
    }

    /// The ancestor of `id` at depth `depth`, or `id` itself if its
    /// depth already is `depth`. `None` if `id` is shallower.
    ///
    /// This is the primitive behind "aggregate the view at cluster /
    /// site / grid level" (paper Fig. 8).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this tree.
    pub fn ancestor_at_depth(&self, id: ContainerId, depth: u32) -> Option<ContainerId> {
        let mut cur = id;
        loop {
            let n = self.node(cur);
            if n.depth == depth {
                return Some(cur);
            }
            if n.depth < depth {
                return None;
            }
            cur = n.parent.expect("non-root has a parent");
        }
    }

    /// All ids in the subtree rooted at `id`, pre-order, `id` first.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this tree.
    pub fn subtree(&self, id: ContainerId) -> Vec<ContainerId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(c) = stack.pop() {
            out.push(c);
            // Push in reverse so that children come out in order.
            for &ch in self.node(c).children.iter().rev() {
                stack.push(ch);
            }
        }
        out
    }

    /// Leaf ids in the subtree rooted at `id`, in pre-order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this tree.
    pub fn leaves_under(&self, id: ContainerId) -> Vec<ContainerId> {
        self.subtree(id)
            .into_iter()
            .filter(|&c| self.node(c).is_leaf())
            .collect()
    }

    /// Number of leaves in the subtree rooted at `id` (1 for a leaf):
    /// `leaves_under(id).len()` in `O(1)`, kept up to date by
    /// [`add`](ContainerTree::add).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this tree.
    pub fn leaf_count(&self, id: ContainerId) -> usize {
        self.node(id).leaves as usize
    }

    /// All ids of a given kind, in id order.
    pub fn of_kind(&self, kind: ContainerKind) -> Vec<ContainerId> {
        self.nodes
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.id)
            .collect()
    }

    /// Maximum depth over all containers.
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|c| c.depth).max().unwrap_or(0)
    }
}

impl Default for ContainerTree {
    fn default() -> Self {
        ContainerTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (ContainerTree, ContainerId, ContainerId, ContainerId) {
        let mut t = ContainerTree::new();
        let site = t.add(t.root(), "grenoble", ContainerKind::Site).unwrap();
        let cluster = t.add(site, "adonis", ContainerKind::Cluster).unwrap();
        let host = t.add(cluster, "adonis-1", ContainerKind::Host).unwrap();
        (t, site, cluster, host)
    }

    #[test]
    fn root_exists() {
        let t = ContainerTree::new();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.node(t.root()).kind(), ContainerKind::Root);
        assert_eq!(t.node(t.root()).depth(), 0);
        assert!(t.node(t.root()).parent().is_none());
    }

    #[test]
    fn add_builds_depth_and_children() {
        let (t, site, cluster, host) = sample();
        assert_eq!(t.node(site).depth(), 1);
        assert_eq!(t.node(cluster).depth(), 2);
        assert_eq!(t.node(host).depth(), 3);
        assert_eq!(t.node(site).children(), &[cluster]);
        assert_eq!(t.node(host).parent(), Some(cluster));
        assert!(t.node(host).is_leaf());
        assert!(!t.node(site).is_leaf());
    }

    /// Leaf counts stay equal to a subtree walk while the tree grows in
    /// any order, including children added under an existing leaf (what
    /// a live append does).
    #[test]
    fn leaf_count_tracks_the_subtree_walk_as_the_tree_grows() {
        let mut t = ContainerTree::new();
        let check = |t: &ContainerTree| {
            for c in t.iter() {
                assert_eq!(t.leaf_count(c.id()), t.leaves_under(c.id()).len(), "{}", c.id());
            }
        };
        check(&t);
        let mut ids = vec![t.root()];
        for i in 0..60usize {
            // A spread of parents: old leaves, inner nodes, the root.
            let parent = ids[(i * 7 + i / 3) % ids.len()];
            ids.push(t.add(parent, format!("c{i}"), ContainerKind::Host).unwrap());
            check(&t);
        }
    }

    #[test]
    fn add_rejects_unknown_parent() {
        let mut t = ContainerTree::new();
        let bogus = ContainerId(42);
        assert_eq!(
            t.add(bogus, "x", ContainerKind::Host),
            Err(TraceError::UnknownContainer(bogus))
        );
    }

    #[test]
    fn path_roundtrip() {
        let (t, _, _, host) = sample();
        let p = t.path(host);
        assert_eq!(p, "grenoble/adonis/adonis-1");
        assert_eq!(t.by_path(&p).unwrap().id(), host);
        assert_eq!(t.by_path("").unwrap().id(), t.root());
        assert!(t.by_path("grenoble/nope").is_none());
    }

    #[test]
    fn ancestors_nearest_first() {
        let (t, site, cluster, host) = sample();
        assert_eq!(t.ancestors(host), vec![cluster, site, t.root()]);
        assert_eq!(t.ancestors(t.root()), vec![]);
    }

    #[test]
    fn ancestor_at_depth_matches_levels() {
        let (t, site, cluster, host) = sample();
        assert_eq!(t.ancestor_at_depth(host, 1), Some(site));
        assert_eq!(t.ancestor_at_depth(host, 2), Some(cluster));
        assert_eq!(t.ancestor_at_depth(host, 3), Some(host));
        assert_eq!(t.ancestor_at_depth(site, 3), None);
        assert_eq!(t.ancestor_at_depth(host, 0), Some(t.root()));
    }

    #[test]
    fn subtree_is_preorder() {
        let (mut t, site, cluster, host) = sample();
        let host2 = t.add(cluster, "adonis-2", ContainerKind::Host).unwrap();
        assert_eq!(t.subtree(site), vec![site, cluster, host, host2]);
        assert_eq!(t.leaves_under(site), vec![host, host2]);
        assert_eq!(t.subtree(host), vec![host]);
    }

    #[test]
    fn of_kind_filters() {
        let (t, _, _, host) = sample();
        assert_eq!(t.of_kind(ContainerKind::Host), vec![host]);
        assert!(t.of_kind(ContainerKind::Link).is_empty());
    }

    #[test]
    fn kind_label_roundtrip() {
        for k in [
            ContainerKind::Root,
            ContainerKind::Site,
            ContainerKind::Cluster,
            ContainerKind::Host,
            ContainerKind::Link,
            ContainerKind::Router,
            ContainerKind::Process,
            ContainerKind::Group,
        ] {
            assert_eq!(ContainerKind::from_label(k.label()), Some(k));
        }
        assert_eq!(ContainerKind::from_label("widget"), None);
    }

    #[test]
    fn by_name_finds_first() {
        let (t, _, cluster, _) = sample();
        assert_eq!(t.by_name("adonis").unwrap().id(), cluster);
        assert!(t.by_name("missing").is_none());
    }
}
