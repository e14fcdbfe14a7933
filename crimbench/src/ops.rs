//! The structure-query operations the read workloads issue, how they run
//! embedded or over the wire, and how each answer is checked.

use crimson::error::CrimsonResult;
use crimson::{Repository, RepositoryReader, StoredNodeId, TreeHandle};
use crimson_server::{Request, Response};
use phylo::{NodeId, Tree};

use crate::common::{splitmix64, Rng};
use crate::reference::Reference;

/// One read, in terms of the in-memory oracle's nodes.
#[derive(Debug, Clone)]
pub enum Op {
    Lca(NodeId, NodeId),
    IsAncestor(NodeId, NodeId),
    SpanningClade(Vec<NodeId>),
    Project(Vec<NodeId>),
}

/// What an operation returned, embedded or served.
#[derive(Debug, Clone)]
pub enum Answer {
    Node(u64),
    Flag(bool),
    /// A spanning clade, kept as a digest of its ids in order so the
    /// answer log stays small however fast the run goes.
    Clade(u64),
    Tree(Box<Tree>),
    /// A served projection, parsed when it is checked.
    Newick(Box<str>),
    Failed(Box<str>),
}

impl Op {
    /// Span name of the engine call.
    pub fn span(&self) -> &'static str {
        match self {
            Op::Lca(..) => "crimson.query.lca",
            Op::IsAncestor(..) => "crimson.query.is_ancestor",
            Op::SpanningClade(_) => "crimson.query.spanning_clade",
            Op::Project(_) => "crimson.query.project",
        }
    }

    /// Leaf or node ids the operation reads by id (B+tree probe keys).
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            Op::Lca(a, b) | Op::IsAncestor(a, b) => vec![*a, *b],
            Op::SpanningClade(v) | Op::Project(v) => v.clone(),
        }
    }

    pub fn request(&self, tree: u64) -> Request {
        let sid = |n: &NodeId| Reference::sid(tree, *n);
        match self {
            Op::Lca(a, b) => Request::Lca {
                a: sid(a),
                b: sid(b),
            },
            Op::IsAncestor(anc, node) => Request::IsAncestor {
                ancestor: sid(anc),
                node: sid(node),
            },
            Op::SpanningClade(v) => Request::SpanningClade {
                nodes: v.iter().map(sid).collect(),
            },
            Op::Project(v) => Request::Project {
                tree,
                leaves: v.iter().map(sid).collect(),
            },
        }
    }

    /// Run the operation on an embedded engine.
    pub fn run<E: Engine>(&self, engine: &E, tree: u64) -> Answer {
        let sids = |v: &[NodeId]| -> Vec<StoredNodeId> {
            v.iter()
                .map(|n| StoredNodeId(Reference::sid(tree, *n)))
                .collect()
        };
        let out = match self {
            Op::Lca(a, b) => {
                let ids = sids(&[*a, *b]);
                engine.lca(ids[0], ids[1]).map(|x| Answer::Node(x.0))
            }
            Op::IsAncestor(anc, node) => {
                let ids = sids(&[*anc, *node]);
                engine.is_ancestor(ids[0], ids[1]).map(Answer::Flag)
            }
            Op::SpanningClade(v) => engine
                .spanning_clade(&sids(v))
                .map(|c| Answer::Clade(clade_digest(c.into_iter().map(|s| s.0)))),
            Op::Project(v) => engine
                .project(TreeHandle(tree), &sids(v))
                .map(|t| Answer::Tree(Box::new(t))),
        };
        out.unwrap_or_else(|e| Answer::Failed(e.to_string().into()))
    }

    /// Whether `answer` is what the in-memory tree says.
    pub fn check(&self, r: &Reference, tree: u64, answer: &Answer) -> bool {
        let sid = |n: NodeId| Reference::sid(tree, n);
        match (self, answer) {
            (Op::Lca(a, b), Answer::Node(x)) => *x == sid(r.tree.lca(*a, *b)),
            (Op::IsAncestor(anc, node), Answer::Flag(f)) => *f == r.tree.is_ancestor(*anc, *node),
            (Op::SpanningClade(v), Answer::Clade(got)) => {
                *got == clade_digest(r.clade(v).iter().map(|&n| sid(n)))
            }
            (Op::Project(v), Answer::Tree(t)) => r.projection_matches(v, t),
            (Op::Project(v), Answer::Newick(text)) => {
                phylo::newick::parse(text).is_ok_and(|t| r.projection_matches(v, &t))
            }
            _ => false,
        }
    }
}

impl Answer {
    pub fn from_response(resp: &Response) -> Answer {
        match resp {
            Response::Node(x) => Answer::Node(*x),
            Response::Flag(f) => Answer::Flag(*f),
            Response::Nodes(v) => Answer::Clade(clade_digest(v.iter().copied())),
            Response::Newick(s) => Answer::Newick(s.as_str().into()),
            other => Answer::Failed(format!("unexpected response {other:?}").into()),
        }
    }

    /// Make the answer wrong (self-test of the error accounting).
    pub fn corrupt(&mut self) {
        *self = match std::mem::replace(self, Answer::Flag(false)) {
            Answer::Node(x) => Answer::Node(x ^ 1),
            Answer::Flag(f) => Answer::Flag(!f),
            Answer::Clade(d) => Answer::Clade(d ^ 1),
            Answer::Tree(_) | Answer::Newick(_) => Answer::Newick("(corrupt_a,corrupt_b);".into()),
            failed @ Answer::Failed(_) => failed,
        }
    }
}

/// Order-sensitive digest of a node-id sequence (length included).
pub fn clade_digest(ids: impl Iterator<Item = u64>) -> u64 {
    let (mut h, mut n) = (0u64, 0u64);
    for id in ids {
        h = splitmix64(h ^ id);
        n += 1;
    }
    splitmix64(h ^ n.rotate_left(32))
}

/// The read mix of `served-reads`: equal shares of LCA, ancestor test,
/// spanning clade of two leaves inside one clade of at most 32 leaves, and
/// projection of 8 leaves from a 64-leaf window. Every reply stays small:
/// pairs merely 32 apart in leaf order can straddle a split near the root,
/// which made served latency follow each seed's tree shape.
pub fn served_mix(r: &Reference, rng: &mut Rng) -> Op {
    match rng.below(4) {
        0 => Op::Lca(r.random_leaf(rng), r.random_leaf(rng)),
        1 => {
            let (anc, node) = r.ancestor_pair(rng);
            Op::IsAncestor(anc, node)
        }
        2 => {
            let (a, b) = r.small_clade_pair(rng, 32);
            Op::SpanningClade(vec![a, b])
        }
        _ => Op::Project(r.leaf_window(rng, 8, 64)),
    }
}

/// The read mix of `cold-reads`: 40% LCA and 40% ancestor tests between
/// random nodes, 15% spanning clade of two leaves at most 64 apart, 5%
/// projection of 64 random leaves.
pub fn cold_mix(r: &Reference, rng: &mut Rng) -> Op {
    match rng.below(20) {
        0..=7 => Op::Lca(r.random_leaf(rng), r.random_leaf(rng)),
        8..=15 => {
            let (anc, node) = r.ancestor_pair(rng);
            Op::IsAncestor(anc, node)
        }
        16..=18 => {
            let (a, b) = r.near_pair(rng, 64);
            Op::SpanningClade(vec![a, b])
        }
        _ => Op::Project(r.leaf_window(rng, 64, usize::MAX)),
    }
}

/// The read surface shared by the writer and snapshot readers.
pub trait Engine {
    fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId>;
    fn is_ancestor(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<bool>;
    fn spanning_clade(&self, nodes: &[StoredNodeId]) -> CrimsonResult<Vec<StoredNodeId>>;
    fn project(&self, tree: TreeHandle, leaves: &[StoredNodeId]) -> CrimsonResult<Tree>;
}

macro_rules! engine_impl {
    ($t:ty) => {
        impl Engine for $t {
            fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
                <$t>::lca(self, a, b)
            }
            fn is_ancestor(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<bool> {
                <$t>::is_ancestor(self, a, b)
            }
            fn spanning_clade(&self, nodes: &[StoredNodeId]) -> CrimsonResult<Vec<StoredNodeId>> {
                <$t>::minimal_spanning_clade(self, nodes)
            }
            fn project(&self, tree: TreeHandle, leaves: &[StoredNodeId]) -> CrimsonResult<Tree> {
                <$t>::project(self, tree, leaves)
            }
        }
    };
}

engine_impl!(Repository);
engine_impl!(RepositoryReader);

/// Check every recorded answer against the operation that produced it
/// (`ops` regenerates the run's seeded stream), after corrupting the first
/// `corrupt` answers (across calls) when the self-test asks for it.
pub fn check_all(
    r: &Reference,
    tree: u64,
    ops: impl Iterator<Item = Op>,
    answers: &mut [Answer],
    corrupt: &mut usize,
    out: &mut crate::common::Outcome,
) {
    let mut first_error = None;
    for (op, answer) in ops.zip(answers.iter_mut()) {
        if *corrupt > 0 {
            answer.corrupt();
            *corrupt -= 1;
        }
        if let Answer::Failed(e) = answer {
            first_error.get_or_insert_with(|| e.clone());
        }
        out.check(op.check(r, tree, answer));
    }
    if let Some(e) = first_error {
        out.note(format!("first failed operation: {e}"));
    }
}

/// A run's seeded operation stream. Runs keep only answers and regenerate
/// the stream to check them, so the benchmark's own memory does not grow
/// with throughput.
pub fn op_stream<'a>(
    r: &'a Reference,
    mix: fn(&Reference, &mut Rng) -> Op,
    seed: u64,
    stream: u64,
) -> impl Iterator<Item = Op> + 'a {
    let mut rng = Rng::new(seed, stream);
    std::iter::repeat_with(move || mix(r, &mut rng))
}
