//! Query planning: locate the endpoints' fragments and enumerate the
//! chains of fragments to evaluate.
//!
//! §2.1: "for any two nodes in G there is only one chain of fragments …"
//! when the fragmentation graph is loosely connected; "if the
//! fragmentation is not loosely connected, it is required to consider all
//! possible chains of fragments independently."
//!
//! A chain `[f0, f1, …, fk]` turns into k+1 independent site subqueries:
//! `x → DS(f0,f1)` at site f0, `DS(fi-1,fi) → DS(fi,fi+1)` at the
//! intermediate sites, and `DS(fk-1,fk) → y` at site fk.
//!
//! The chains of a query depend only on its endpoints' fragment sets, and
//! those never change under maintenance, so the planner enumerates them
//! once per pair of sets for the life of the fragmentation: a table of
//! [`ChainSet`] slots, filled on first use ([`Planner::chain_set`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use ds_fragment::{FragmentId, FragmentationGraph, Membership};
use ds_graph::NodeId;

use crate::error::ClosureError;

/// One site subquery of a chain plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteQuery {
    /// The site (fragment) that evaluates it.
    pub site: FragmentId,
    /// Entry nodes (the query source, or the upstream disconnection set).
    pub sources: Vec<NodeId>,
    /// Exit nodes (the downstream disconnection set, or the query target).
    pub targets: Vec<NodeId>,
}

impl SiteQuery {
    /// The same subquery with its node lists borrowed.
    pub fn as_ref(&self) -> SiteQueryRef<'_> {
        SiteQueryRef {
            site: self.site,
            sources: &self.sources,
            targets: &self.targets,
        }
    }
}

/// A site subquery over borrowed node lists — what the evaluator hands a
/// backend, so the planner's disconnection sets are never copied per
/// query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteQueryRef<'a> {
    pub site: FragmentId,
    pub sources: &'a [NodeId],
    pub targets: &'a [NodeId],
}

/// A chain of fragments with its site subqueries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainPlan {
    pub fragments: Vec<FragmentId>,
    pub queries: Vec<SiteQuery>,
}

/// The full plan for one `(x, y)` query: every chain to evaluate.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    pub chains: Vec<ChainPlan>,
    /// True when the planner had to fall back to multi-chain enumeration
    /// (cyclic fragmentation graph).
    pub enumerated: bool,
}

/// The fragment chains connecting two endpoint fragment sets: what every
/// query between nodes of those sets evaluates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainSet {
    /// Each chain once, shared by pointer with every answer it wins.
    pub chains: Vec<Arc<[FragmentId]>>,
    /// True when multi-chain enumeration was needed (cyclic
    /// fragmentation graph).
    pub enumerated: bool,
}

/// Planner over a fixed fragmentation.
#[derive(Clone, Debug)]
pub struct Planner {
    /// Per node, its fragment set's class.
    membership: Membership,
    frag_graph: FragmentationGraph,
    ds: BTreeMap<(FragmentId, FragmentId), Vec<NodeId>>,
    max_chains: usize,
    max_chain_len: usize,
    /// Mandatory hub for Parallel Hierarchical Evaluation, if configured.
    hub: Option<FragmentId>,
    /// Per source class, a slot per target class: the chains from class
    /// `a` to class `b` are `chain_table[a][b]`, enumerated by the first
    /// query that asks for them. A source class's slots are allocated by
    /// the first query from it, so the table grows with the classes
    /// queries start from, not with the class count squared up front.
    chain_table: Box<[ChainRow]>,
}

/// A source class's chain slots, one per target class, allocated on
/// first use.
type ChainRow = OnceLock<Box<[OnceLock<ChainSet>]>>;

/// `n` unfilled slots.
fn unfilled<T>(n: usize) -> Box<[OnceLock<T>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

impl ChainSet {
    /// Heap bytes held: the chain list and each chain's shared
    /// allocation.
    fn memory_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        // An `Arc` allocation is its two counters and the slice.
        let arc = |c: &Arc<[FragmentId]>| 2 * size_of::<usize>() + size_of_val(&**c);
        self.chains.capacity() * size_of::<Arc<[FragmentId]>>()
            + self.chains.iter().map(arc).sum::<usize>()
    }
}

impl Planner {
    /// Build a planner over a fragmentation's membership table.
    /// `max_chains`/`max_chain_len` cap the enumeration on cyclic
    /// fragmentation graphs; `hub` switches on PHE routing.
    pub fn new(
        membership: Membership,
        max_chains: usize,
        max_chain_len: usize,
        hub: Option<FragmentId>,
    ) -> Self {
        Planner {
            chain_table: unfilled(membership.class_count()),
            frag_graph: membership.fragmentation_graph(),
            ds: membership.disconnection_sets(),
            membership,
            max_chains,
            max_chain_len,
            hub,
        }
    }

    /// Fragments containing a node, ascending.
    pub fn fragments_of(&self, v: NodeId) -> &[FragmentId] {
        self.membership.fragments_of(v)
    }

    /// An id for the fragment *set* of `v`: two nodes get the same id
    /// exactly when [`Planner::fragments_of`] agrees on them, so chain
    /// sets — which depend only on the endpoints' fragment sets — are
    /// kept under a pair of ids.
    pub fn membership_class(&self, v: NodeId) -> u32 {
        self.membership.class_of(v)
    }

    /// The disconnection set between two fragments (empty if none).
    pub fn ds_between(&self, a: FragmentId, b: FragmentId) -> &[NodeId] {
        let key = (a.min(b), a.max(b));
        self.ds.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The fragmentation graph the planner navigates.
    pub fn fragmentation_graph(&self) -> &FragmentationGraph {
        &self.frag_graph
    }

    /// Plan a query from `x` to `y`: its chains ([`Planner::chain_set`])
    /// turned into site subqueries.
    pub fn plan(&self, x: NodeId, y: NodeId) -> Result<QueryPlan, ClosureError> {
        let (set, _) = self.chain_set(x, y)?;
        let chains = (set.chains.iter())
            .filter_map(|c| self.instantiate_chain(c, x, y))
            .collect();
        Ok(QueryPlan {
            chains,
            enumerated: set.enumerated,
        })
    }

    /// The chains a query from `x` to `y` evaluates, and whether this call
    /// enumerated them. The one place chains are looked up: the slot of
    /// the endpoints' [`Planner::membership_class`] pair, filled through
    /// [`Planner::chain_sets`] by the first query that asks for it (when
    /// two ask at once, one enumerates and both read its set). Node sets
    /// never change under maintenance, so every epoch that shares this
    /// planner shares its slots. Errs when an endpoint is in no fragment.
    pub fn chain_set(&self, x: NodeId, y: NodeId) -> Result<(&ChainSet, bool), ClosureError> {
        let (cx, cy) = (self.membership_class(x), self.membership_class(y));
        for (v, class) in [(x, cx), (y, cy)] {
            if class == 0 {
                return Err(ClosureError::NodeNotInAnyFragment(v));
            }
        }
        let classes = self.membership.class_count();
        let row = self.chain_table[cx as usize].get_or_init(|| unfilled(classes));
        let mut filled = false;
        let set = row[cy as usize].get_or_init(|| {
            filled = true;
            let class = |c| self.membership.class(c);
            self.chain_sets(class(cx), class(cy))
        });
        Ok((set, filled))
    }

    /// The filled rows of the chain table.
    fn chain_rows(&self) -> impl Iterator<Item = &[OnceLock<ChainSet>]> + Clone {
        self.chain_table
            .iter()
            .filter_map(|row| row.get().map(|r| &r[..]))
    }

    /// Chain sets enumerated so far.
    #[cfg(test)]
    pub(crate) fn plans_filled(&self) -> usize {
        self.chain_rows()
            .map(|row| row.iter().filter(|s| s.get().is_some()).count())
            .sum()
    }

    /// Heap bytes held by the membership table and the chain table (its
    /// slots and the chain sets filled so far). The fragmentation graph
    /// and the disconnection sets are not counted.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let sets = self
            .chain_rows()
            .flat_map(|row| row.iter().filter_map(OnceLock::get));
        self.membership.memory_bytes()
            + size_of_val(&self.chain_table[..])
            + self.chain_rows().map(size_of_val).sum::<usize>()
            + sets.map(ChainSet::memory_bytes).sum::<usize>()
    }

    /// A copy sharing nothing with `self`. Its chain table starts empty:
    /// the copy's own queries enumerate their chains again.
    pub(crate) fn unshared_clone(&self) -> Self {
        Planner {
            membership: self.membership.clone(),
            frag_graph: self.frag_graph.clone(),
            ds: self.ds.clone(),
            max_chains: self.max_chains,
            max_chain_len: self.max_chain_len,
            hub: self.hub,
            chain_table: unfilled(self.membership.class_count()),
        }
    }

    /// Enumerate the fragment chains connecting any fragment of `fx` to
    /// any fragment of `fy`, without instantiating site subqueries — what
    /// fills a slot of [`Planner::chain_set`]. A chain with an empty
    /// junction disconnection set cannot carry a path and is left out.
    pub fn chain_sets(&self, fx: &[FragmentId], fy: &[FragmentId]) -> ChainSet {
        let mut fragment_chains: BTreeSet<Vec<FragmentId>> = BTreeSet::new();
        let mut enumerated = false;
        for &a in fx {
            for &b in fy {
                if let Some(hub) = self.hub {
                    // PHE: "a separate fragment that mandatorily has to be
                    // traversed when going to a non-adjacent fragment."
                    for chain in hub_chains(a, b, hub, &self.frag_graph) {
                        fragment_chains.insert(chain);
                    }
                    continue;
                }
                if a == b {
                    fragment_chains.insert(vec![a]);
                    continue;
                }
                if let Some(chain) = self.frag_graph.unique_chain(a, b) {
                    fragment_chains.insert(chain);
                } else {
                    enumerated = true;
                    for chain in self
                        .frag_graph
                        .chains(a, b, self.max_chains, self.max_chain_len)
                    {
                        fragment_chains.insert(chain);
                    }
                }
            }
        }
        let usable = |c: &Vec<FragmentId>| {
            c.windows(2)
                .all(|w| !self.ds_between(w[0], w[1]).is_empty())
        };
        ChainSet {
            chains: (fragment_chains.into_iter())
                .filter(usable)
                .map(Arc::from)
                .collect(),
            enumerated,
        }
    }

    /// Turn a fragment chain into site subqueries. Returns `None` when a
    /// junction disconnection set is empty (chain unusable).
    pub fn instantiate_chain(
        &self,
        chain: &[FragmentId],
        x: NodeId,
        y: NodeId,
    ) -> Option<ChainPlan> {
        let l = chain.len();
        if l == 1 {
            return Some(ChainPlan {
                fragments: chain.to_vec(),
                queries: vec![SiteQuery {
                    site: chain[0],
                    sources: vec![x],
                    targets: vec![y],
                }],
            });
        }
        let mut queries = Vec::with_capacity(l);
        for (k, &site) in chain.iter().enumerate() {
            let sources = if k == 0 {
                vec![x]
            } else {
                let ds = self.ds_between(chain[k - 1], site);
                if ds.is_empty() {
                    return None;
                }
                ds.to_vec()
            };
            let targets = if k == l - 1 {
                vec![y]
            } else {
                let ds = self.ds_between(site, chain[k + 1]);
                if ds.is_empty() {
                    return None;
                }
                ds.to_vec()
            };
            queries.push(SiteQuery {
                site,
                sources,
                targets,
            });
        }
        Some(ChainPlan {
            fragments: chain.to_vec(),
            queries,
        })
    }
}

/// PHE chains between `a` and `b` through mandatory hub `h`:
/// `[a]` when a == b, `[a, b]` when directly adjacent (one of them may be
/// the hub itself), else `[a, h, b]`.
fn hub_chains(
    a: FragmentId,
    b: FragmentId,
    h: FragmentId,
    fg: &FragmentationGraph,
) -> Vec<Vec<FragmentId>> {
    if a == b {
        return vec![vec![a]];
    }
    let adjacent = fg.neighbors(a).contains(&b);
    let mut out = Vec::new();
    if adjacent {
        out.push(vec![a, b]);
    }
    if a != h && b != h && fg.neighbors(a).contains(&h) && fg.neighbors(b).contains(&h) {
        out.push(vec![a, h, b]);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ds_fragment::Fragmentation;
    use ds_graph::Edge;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(a, b)| Edge::unit(NodeId(a), NodeId(b)))
            .collect()
    }

    /// Path 0-1-2-3-4-5-6 in three fragments sharing nodes 2 and 4.
    pub(crate) fn three_fragment_path() -> Fragmentation {
        Fragmentation::new(
            7,
            vec![
                edges(&[(0, 1), (1, 2)]),
                edges(&[(2, 3), (3, 4)]),
                edges(&[(4, 5), (5, 6)]),
            ],
            vec![vec![], vec![], vec![]],
        )
    }

    #[test]
    fn same_fragment_plan_is_single_site() {
        let frag = three_fragment_path();
        let p = Planner::new(Membership::new(&frag), 16, 8, None);
        let plan = p.plan(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(plan.chains.len(), 1);
        assert_eq!(plan.chains[0].fragments, vec![0]);
        assert_eq!(
            plan.chains[0].queries,
            vec![SiteQuery {
                site: 0,
                sources: vec![NodeId(0)],
                targets: vec![NodeId(1)]
            }]
        );
        assert!(!plan.enumerated);
    }

    #[test]
    fn cross_chain_plan_has_one_query_per_site() {
        let frag = three_fragment_path();
        let p = Planner::new(Membership::new(&frag), 16, 8, None);
        let plan = p.plan(NodeId(0), NodeId(6)).unwrap();
        assert_eq!(plan.chains.len(), 1);
        let chain = &plan.chains[0];
        assert_eq!(chain.fragments, vec![0, 1, 2]);
        assert_eq!(chain.queries.len(), 3);
        assert_eq!(chain.queries[0].targets, vec![NodeId(2)]);
        assert_eq!(chain.queries[1].sources, vec![NodeId(2)]);
        assert_eq!(chain.queries[1].targets, vec![NodeId(4)]);
        assert_eq!(chain.queries[2].sources, vec![NodeId(4)]);
        assert_eq!(chain.queries[2].targets, vec![NodeId(6)]);
    }

    #[test]
    fn border_endpoint_generates_multiple_chains() {
        // Node 2 belongs to fragments 0 and 1: plans from it consider
        // both starting fragments.
        let frag = three_fragment_path();
        let p = Planner::new(Membership::new(&frag), 16, 8, None);
        let plan = p.plan(NodeId(2), NodeId(6)).unwrap();
        assert!(plan.chains.len() >= 2);
        let lens: BTreeSet<usize> = plan.chains.iter().map(|c| c.fragments.len()).collect();
        assert!(lens.contains(&2), "direct chain from fragment 1");
        assert!(lens.contains(&3), "chain from fragment 0 through 1");
    }

    /// Ring 0-1-…-7-0 in four fragments, each sharing one node with the
    /// next: the fragmentation graph is the cycle 0-1-2-3-0, and every
    /// cross-ring query has a chain each way round.
    pub(crate) fn four_fragment_ring() -> Fragmentation {
        Fragmentation::new(
            8,
            vec![
                edges(&[(0, 1)]),
                edges(&[(1, 2), (2, 3)]),
                edges(&[(3, 4), (4, 5)]),
                edges(&[(5, 6), (6, 7), (7, 0)]),
            ],
            vec![vec![], vec![], vec![], vec![]],
        )
    }

    /// Star: clusters 0, 1 and 2 each adjacent only to hub fragment 3.
    fn hub_star() -> Fragmentation {
        Fragmentation::new(
            9,
            vec![
                edges(&[(0, 1)]),
                edges(&[(3, 4)]),
                edges(&[(6, 7)]),
                edges(&[(1, 3), (4, 6)]), // hub holds the cross links
            ],
            vec![vec![], vec![], vec![], vec![]],
        )
    }

    #[test]
    fn cyclic_fragmentation_enumerates() {
        // Query across the ring.
        let frag = four_fragment_ring();
        assert!(!frag.fragmentation_graph().is_acyclic());
        let p = Planner::new(Membership::new(&frag), 16, 8, None);
        let plan = p.plan(NodeId(1), NodeId(4)).unwrap();
        assert!(plan.enumerated);
        assert!(plan.chains.len() >= 2, "both ways around the ring");
    }

    #[test]
    fn unknown_node_is_an_error() {
        let frag = three_fragment_path();
        // Node universe is 7 nodes; extend membership query with a node
        // that exists but is in no fragment.
        let frag2 = Fragmentation::new(
            8,
            frag.fragments()
                .iter()
                .map(|f| f.edges().to_vec())
                .collect(),
            vec![vec![], vec![], vec![]],
        );
        let p = Planner::new(Membership::new(&frag2), 16, 8, None);
        assert_eq!(
            p.plan(NodeId(7), NodeId(0)).unwrap_err(),
            ClosureError::NodeNotInAnyFragment(NodeId(7))
        );
    }

    #[test]
    fn hub_routing_limits_chain_length() {
        let p = Planner::new(Membership::new(&hub_star()), 16, 8, Some(3));
        let plan = p.plan(NodeId(0), NodeId(7)).unwrap();
        assert!(!plan.chains.is_empty());
        for c in &plan.chains {
            assert!(c.fragments.len() <= 3);
            if c.fragments.len() == 3 {
                assert_eq!(c.fragments[1], 3, "middle hop must be the hub");
            }
        }
    }

    #[test]
    fn unconnected_fragments_produce_empty_plan() {
        let frag = Fragmentation::new(
            4,
            vec![edges(&[(0, 1)]), edges(&[(2, 3)])],
            vec![vec![], vec![]],
        );
        let p = Planner::new(Membership::new(&frag), 16, 8, None);
        let plan = p.plan(NodeId(0), NodeId(3)).unwrap();
        assert!(plan.chains.is_empty());
    }

    /// Every pair of membership classes, on an acyclic fragmentation, on
    /// the cyclic ring and under a PHE hub: the table holds exactly what
    /// the enumeration yields, fills one slot per class pair on first use
    /// and enumerates nothing after that.
    #[test]
    fn the_chain_table_holds_what_the_enumeration_yields() {
        let cases = [
            (
                "acyclic",
                Planner::new(Membership::new(&three_fragment_path()), 16, 8, None),
                7,
            ),
            (
                "ring",
                Planner::new(Membership::new(&four_fragment_ring()), 16, 8, None),
                8,
            ),
            (
                "hub",
                Planner::new(Membership::new(&hub_star()), 16, 8, Some(3)),
                9,
            ),
        ];
        for (name, p, count) in cases {
            // Nodes in no fragment have no class to plan from.
            let nodes: Vec<NodeId> = (0..count)
                .map(n)
                .filter(|&v| !p.fragments_of(v).is_empty())
                .collect();
            let class = |v| p.membership_class(v);
            let pairs: BTreeSet<(u32, u32)> = (nodes.iter())
                .flat_map(|&x| nodes.iter().map(move |&y| (class(x), class(y))))
                .collect();
            let mut filled = BTreeSet::new();
            for &x in &nodes {
                for &y in &nodes {
                    let (set, fresh) = p.chain_set(x, y).unwrap();
                    assert_eq!(
                        fresh,
                        filled.insert((class(x), class(y))),
                        "{name}: {x} -> {y}"
                    );
                    let want = p.chain_sets(p.fragments_of(x), p.fragments_of(y));
                    assert_eq!(set, &want, "{name}: {x} -> {y}");
                }
            }
            assert_eq!(filled, pairs, "{name}");
            assert_eq!(p.plans_filled(), pairs.len(), "{name}");
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A new planner holds one empty slot per class; the first query from
    /// a class allocates that class's row of slots, and only the chain set
    /// it asked for is filled. An unshared copy starts empty again.
    #[test]
    fn the_chain_table_grows_with_the_classes_queries_start_from() {
        use std::mem::size_of;
        let p = Planner::new(Membership::new(&four_fragment_ring()), 16, 8, None);
        let classes = p.membership.class_count();
        let empty = p.memory_bytes();
        assert_eq!(p.chain_rows().count(), 0);
        let (set, _) = p.chain_set(n(1), n(4)).unwrap();
        let row = classes * size_of::<OnceLock<ChainSet>>();
        assert_eq!(p.memory_bytes(), empty + row + set.memory_bytes());
        // Another target from the same class: no new row.
        let (other, _) = p.chain_set(n(1), n(6)).unwrap();
        let grown = empty + row + set.memory_bytes() + other.memory_bytes();
        assert_eq!(p.memory_bytes(), grown);
        assert_eq!((p.chain_rows().count(), p.plans_filled()), (1, 2));
        let copy = p.unshared_clone();
        assert_eq!((copy.memory_bytes(), copy.plans_filled()), (empty, 0));
        let (copied, filled) = copy.chain_set(n(1), n(4)).unwrap();
        assert!(filled && copied == set);
        assert!(!Arc::ptr_eq(&copied.chains[0], &set.chains[0]));
    }

    /// Threads released together onto the same empty slot: exactly one
    /// enumerates, and every thread reads that one set.
    #[test]
    fn racing_chain_set_fills_agree() {
        for _ in 0..50 {
            let p = Planner::new(Membership::new(&four_fragment_ring()), 16, 8, None);
            let barrier = std::sync::Barrier::new(2);
            let seen: Vec<(usize, bool)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            let (set, filled) = p.chain_set(n(1), n(4)).unwrap();
                            (set as *const ChainSet as usize, filled)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(seen[0].0, seen[1].0, "one set, read by both");
            assert!(seen[0].1 ^ seen[1].1, "exactly one filled: {seen:?}");
            assert_eq!(p.plans_filled(), 1);
            assert_eq!(p.chain_set(n(1), n(4)).unwrap().0.chains.len(), 4);
        }
    }
}
