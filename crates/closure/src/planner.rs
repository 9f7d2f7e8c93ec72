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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ds_fragment::{FragmentId, Fragmentation, FragmentationGraph};
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

/// Planner over a fixed fragmentation.
#[derive(Clone, Debug)]
pub struct Planner {
    /// Per node, the index into `classes` of its fragment set.
    class_of: Vec<u32>,
    /// The distinct fragment sets nodes belong to, each ascending;
    /// `classes[0]` is the empty set (a node in no fragment).
    classes: Vec<Vec<FragmentId>>,
    frag_graph: FragmentationGraph,
    ds: BTreeMap<(FragmentId, FragmentId), Vec<NodeId>>,
    max_chains: usize,
    max_chain_len: usize,
    /// Mandatory hub for Parallel Hierarchical Evaluation, if configured.
    hub: Option<FragmentId>,
}

impl Planner {
    /// Build a planner. `max_chains`/`max_chain_len` cap the enumeration
    /// on cyclic fragmentation graphs; `hub` switches on PHE routing.
    pub fn new(
        frag: &Fragmentation,
        max_chains: usize,
        max_chain_len: usize,
        hub: Option<FragmentId>,
    ) -> Self {
        let mut members: Vec<Vec<FragmentId>> = vec![Vec::new(); frag.node_count()];
        for f in frag.fragments() {
            for &v in f.nodes() {
                members[v.index()].push(f.id());
            }
        }
        let mut classes = vec![Vec::new()];
        let mut index: HashMap<Vec<FragmentId>, u32> = HashMap::from([(Vec::new(), 0)]);
        let class_of = members
            .into_iter()
            .map(|set| {
                *index.entry(set).or_insert_with_key(|set| {
                    classes.push(set.clone());
                    (classes.len() - 1) as u32
                })
            })
            .collect();
        Planner {
            class_of,
            classes,
            frag_graph: frag.fragmentation_graph(),
            ds: frag.disconnection_sets(),
            max_chains,
            max_chain_len,
            hub,
        }
    }

    /// Fragments containing a node, ascending.
    pub fn fragments_of(&self, v: NodeId) -> &[FragmentId] {
        &self.classes[self.membership_class(v) as usize]
    }

    /// An id for the fragment *set* of `v`: two nodes get the same id
    /// exactly when [`Planner::fragments_of`] agrees on them, so chain
    /// sets — which depend only on the endpoints' fragment sets — can be
    /// cached under a pair of ids.
    pub fn membership_class(&self, v: NodeId) -> u32 {
        self.class_of.get(v.index()).copied().unwrap_or(0)
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

    /// Plan a query from `x` to `y`.
    pub fn plan(&self, x: NodeId, y: NodeId) -> Result<QueryPlan, ClosureError> {
        let fx = self.fragments_of(x);
        if fx.is_empty() {
            return Err(ClosureError::NodeNotInAnyFragment(x));
        }
        let fy = self.fragments_of(y);
        if fy.is_empty() {
            return Err(ClosureError::NodeNotInAnyFragment(y));
        }
        let (fragment_chains, enumerated) = self.chain_sets(fx, fy);
        let chains = fragment_chains
            .into_iter()
            .filter_map(|c| self.instantiate_chain(&c, x, y))
            .collect();
        Ok(QueryPlan { chains, enumerated })
    }

    /// Enumerate the fragment chains connecting any fragment of `fx` to
    /// any fragment of `fy`, without instantiating site subqueries.
    ///
    /// This is the expensive half of [`Planner::plan`]: it depends only on
    /// the endpoint *fragment sets*, so batch evaluation computes it once
    /// per `(source-fragment, target-fragment)` pair and reuses it across
    /// every query with those endpoints' fragments (see
    /// [`crate::api::BatchPlanner`]). The second return value reports
    /// whether multi-chain enumeration was needed (cyclic fragmentation
    /// graph). A chain with an empty junction disconnection set cannot
    /// carry a path and is left out.
    pub fn chain_sets(&self, fx: &[FragmentId], fy: &[FragmentId]) -> (Vec<Vec<FragmentId>>, bool) {
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
        (
            fragment_chains.into_iter().filter(usable).collect(),
            enumerated,
        )
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
mod tests {
    use super::*;
    use ds_graph::Edge;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(a, b)| Edge::unit(NodeId(a), NodeId(b)))
            .collect()
    }

    /// Path 0-1-2-3-4-5-6 in three fragments sharing nodes 2 and 4.
    fn three_fragment_path() -> Fragmentation {
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
        let p = Planner::new(&frag, 16, 8, None);
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
        let p = Planner::new(&frag, 16, 8, None);
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
        let p = Planner::new(&frag, 16, 8, None);
        let plan = p.plan(NodeId(2), NodeId(6)).unwrap();
        assert!(plan.chains.len() >= 2);
        let lens: BTreeSet<usize> = plan.chains.iter().map(|c| c.fragments.len()).collect();
        assert!(lens.contains(&2), "direct chain from fragment 1");
        assert!(lens.contains(&3), "chain from fragment 0 through 1");
    }

    #[test]
    fn cyclic_fragmentation_enumerates() {
        // Ring of 4 fragments: 0-1-2-3-0, query across the ring.
        let frag = Fragmentation::new(
            8,
            vec![
                edges(&[(0, 1)]),
                edges(&[(1, 2), (2, 3)]),
                edges(&[(3, 4), (4, 5)]),
                edges(&[(5, 6), (6, 7), (7, 0)]),
            ],
            vec![vec![], vec![], vec![], vec![]],
        );
        assert!(!frag.fragmentation_graph().is_acyclic());
        let p = Planner::new(&frag, 16, 8, None);
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
        let p = Planner::new(&frag2, 16, 8, None);
        assert_eq!(
            p.plan(NodeId(7), NodeId(0)).unwrap_err(),
            ClosureError::NodeNotInAnyFragment(NodeId(7))
        );
    }

    #[test]
    fn hub_routing_limits_chain_length() {
        // Star: clusters 0,1,2 all adjacent only to hub 3.
        let frag = Fragmentation::new(
            9,
            vec![
                edges(&[(0, 1)]),
                edges(&[(3, 4)]),
                edges(&[(6, 7)]),
                edges(&[(1, 3), (4, 6)]), // hub holds the cross links
            ],
            vec![vec![], vec![], vec![], vec![]],
        );
        let p = Planner::new(&frag, 16, 8, Some(3));
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
        let p = Planner::new(&frag, 16, 8, None);
        let plan = p.plan(NodeId(0), NodeId(3)).unwrap();
        assert!(plan.chains.is_empty());
    }
}
