//! The in-memory oracle: the generated `phylo::Tree` every stored answer is
//! checked against, and the seeded request mixes built from it.
//!
//! A stored node's id is `(tree << 32) | arena index`, the loader's
//! documented layout; [`Reference::verify_names`] confirms that mapping by
//! leaf name before any answer is trusted to it.

use phylo::ops::{isomorphic, project};
use phylo::{NodeId, Tree};

use crate::common::Rng;

pub struct Reference {
    pub tree: Tree,
    /// Leaves in pre-order ("leaf order").
    pub leaves: Vec<NodeId>,
    /// Every node in pre-order.
    order: Vec<NodeId>,
    /// Pre-order rank by arena index.
    pre: Vec<u32>,
    /// Rank of the last pre-order descendant, by arena index.
    end: Vec<u32>,
    /// Leaves in pre-order before each node, by arena index: a clade's
    /// leaves are `leaves[leaves_before[v]..][..leaves_under[v]]`.
    leaves_before: Vec<u32>,
    /// Leaves under each node, by arena index.
    leaves_under: Vec<u32>,
}

impl Reference {
    pub fn new(tree: Tree) -> Reference {
        let n = tree.node_count();
        let mut order = Vec::with_capacity(n);
        let mut pre = vec![0u32; n];
        let mut end = vec![0u32; n];
        let mut stack = vec![(tree.root_unchecked(), false)];
        while let Some((node, done)) = stack.pop() {
            if done {
                end[node.index()] = order.len() as u32 - 1;
                continue;
            }
            pre[node.index()] = order.len() as u32;
            order.push(node);
            stack.push((node, true));
            for &child in tree.children(node).iter().rev() {
                stack.push((child, false));
            }
        }
        let leaves: Vec<NodeId> = order.iter().copied().filter(|&v| tree.is_leaf(v)).collect();
        let mut leaves_before = vec![0u32; n];
        let mut seen = 0;
        for &v in &order {
            leaves_before[v.index()] = seen;
            seen += u32::from(tree.is_leaf(v));
        }
        let mut leaves_under = vec![0u32; n];
        for &v in order.iter().rev() {
            leaves_under[v.index()] += u32::from(tree.is_leaf(v));
            if let Some(p) = tree.parent(v) {
                leaves_under[p.index()] += leaves_under[v.index()];
            }
        }
        Reference {
            tree,
            leaves,
            order,
            pre,
            end,
            leaves_before,
            leaves_under,
        }
    }

    pub fn sid(handle: u64, node: NodeId) -> u64 {
        (handle << 32) | node.0 as u64
    }

    pub fn leaf_sids(&self, handle: u64) -> Vec<u64> {
        self.leaves.iter().map(|&l| Self::sid(handle, l)).collect()
    }

    /// `names[i]` is the stored name of `leaf_sids(handle)[i]`.
    pub fn verify_names(&self, names: &[String]) -> bool {
        names.len() == self.leaves.len()
            && self
                .leaves
                .iter()
                .zip(names)
                .all(|(&l, name)| self.tree.name(l) == Some(name.as_str()))
    }

    /// The minimal spanning clade of `nodes`, in pre-order.
    pub fn clade(&self, nodes: &[NodeId]) -> &[NodeId] {
        let top = nodes[1..]
            .iter()
            .fold(nodes[0], |acc, &n| self.tree.lca(acc, n));
        let (p, e) = (self.pre[top.index()], self.end[top.index()]);
        &self.order[p as usize..=e as usize]
    }

    /// The `ivl_by_node` index value of a node: `(pre << 32) | end`.
    pub fn packed_interval(&self, node: NodeId) -> u64 {
        ((self.pre[node.index()] as u64) << 32) | self.end[node.index()] as u64
    }

    /// Whether `answer` is the projection of the tree onto `leaves`.
    pub fn projection_matches(&self, leaves: &[NodeId], answer: &Tree) -> bool {
        project(&self.tree, leaves).is_ok_and(|expected| isomorphic(&expected, answer))
    }

    pub fn random_leaf(&self, rng: &mut Rng) -> NodeId {
        self.leaves[rng.below(self.leaves.len())]
    }

    /// An ancestor-test pair: a random leaf and, half the time, one of its
    /// real ancestors, otherwise a random node — so both answers occur.
    pub fn ancestor_pair(&self, rng: &mut Rng) -> (NodeId, NodeId) {
        let node = self.random_leaf(rng);
        if rng.below(2) == 0 {
            let mut anc = node;
            for _ in 0..rng.below(8) {
                match self.tree.parent(anc) {
                    Some(p) => anc = p,
                    None => break,
                }
            }
            (anc, node)
        } else {
            (self.order[rng.below(self.order.len())], node)
        }
    }

    /// Two leaves at most `span` apart in leaf order.
    pub fn near_pair(&self, rng: &mut Rng, span: usize) -> (NodeId, NodeId) {
        let n = self.leaves.len();
        let i = rng.below(n - 1);
        let j = (i + 1 + rng.below(span)).min(n - 1);
        (self.leaves[i], self.leaves[j])
    }

    /// Two leaves of one clade of at most `max_leaves` leaves — the largest
    /// clade above a random leaf within that size — so they are fewer than
    /// `max_leaves` apart in leaf order and their spanning clade stays small
    /// whatever the tree's shape.
    pub fn small_clade_pair(&self, rng: &mut Rng, max_leaves: u32) -> (NodeId, NodeId) {
        let a = self.random_leaf(rng);
        let mut top = a;
        while let Some(p) = self.tree.parent(top) {
            if self.leaves_under[p.index()] > max_leaves {
                break;
            }
            top = p;
        }
        let first = self.leaves_before[top.index()] as usize;
        let b = self.leaves[first + rng.below(self.leaves_under[top.index()] as usize)];
        (a, b)
    }

    /// `k` distinct leaves drawn from a window of `window` consecutive
    /// leaves (the whole tree when `window >= leaf count`).
    pub fn leaf_window(&self, rng: &mut Rng, k: usize, window: usize) -> Vec<NodeId> {
        let n = self.leaves.len();
        let window = window.min(n);
        let base = rng.below(n - window + 1);
        let mut picked: Vec<usize> = Vec::with_capacity(k);
        while picked.len() < k.min(window) {
            let off = rng.below(window);
            if !picked.contains(&off) {
                picked.push(off);
            }
        }
        picked.iter().map(|&off| self.leaves[base + off]).collect()
    }
}
