//! Trail (edge-injective) semantics — the paper's §7 outlook, implemented.
//!
//! The paper closes by proposing the edge-injective analogues of its two
//! semantics: **atom-edge-injective** (`a-trail`: each atom witnessed by a
//! trail — no repeated edge; closed trail for `x -L-> x` atoms) and
//! **query-edge-injective** (`q-trail`: additionally, witness trails of
//! distinct atoms are pairwise edge-disjoint). Unlike query-injective
//! semantics there is *no* injectivity requirement on the variable
//! assignment — only edges are consumed.
//!
//! The hierarchy (mirroring Remark 2.1, plus a cross-link to the
//! node-injective semantics) is:
//!
//! ```text
//! q-trail ⊆ a-trail ⊆ st        a-inj ⊆ a-trail
//! ```
//!
//! (simple paths are trails). Note that `q-inj ⊆ q-trail` does **not**
//! hold under this operational definition: two atoms may pick *identical*
//! witness paths under q-inj (their expansion atoms coincide after
//! deduplication, so a node-injective homomorphism exists), while q-trail
//! demands pairwise edge-disjoint trails. On instances whose witnesses
//! never duplicate a whole path the inclusion holds — see the tests. The
//! paper's §7 outlook leaves this definitional choice open; we take the
//! disjoint-trails reading (the natural "edge-consuming" semantics).

use crate::eval::{enumerate_tuples, CompiledAtom, Semantics, VariantEval};
use crpq_graph::rpq::{self, Edge};
use crpq_graph::{GraphDb, NodeId};
use crpq_query::Crpq;
use crpq_util::FxHashSet;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// The two edge-injective semantics of §7.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrailSemantics {
    /// Each atom witnessed by a trail; trails may share edges across atoms.
    AtomTrail,
    /// Witness trails of distinct atoms are pairwise edge-disjoint.
    QueryTrail,
}

impl TrailSemantics {
    /// Both variants.
    pub const ALL: [TrailSemantics; 2] = [TrailSemantics::AtomTrail, TrailSemantics::QueryTrail];

    /// Short display name.
    pub fn short_name(self) -> &'static str {
        match self {
            TrailSemantics::AtomTrail => "a-trail",
            TrailSemantics::QueryTrail => "q-trail",
        }
    }
}

impl std::fmt::Display for TrailSemantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Whether `tuple ∈ Q(G)_sem` under a trail semantics.
///
/// ```
/// use crpq_core::{eval_boolean_trail, TrailSemantics};
/// use crpq_graph::GraphBuilder;
/// use crpq_query::parse_crpq;
///
/// // Figure-of-eight: the trail a·b·c·d revisits m but repeats no edge.
/// let mut b = GraphBuilder::new();
/// b.edge("u", "a", "m").edge("m", "b", "n").edge("n", "c", "m").edge("m", "d", "v");
/// let mut g = b.finish();
/// let q = parse_crpq("x -[a b c d]-> y", g.alphabet_mut()).unwrap();
/// assert!(eval_boolean_trail(&q, &g, TrailSemantics::AtomTrail));
/// // No *simple path* spells abcd (m repeats):
/// use crpq_core::{eval_boolean, Semantics};
/// assert!(!eval_boolean(&q, &g, Semantics::AtomInjective));
/// ```
pub fn eval_contains_trail(q: &Crpq, g: &GraphDb, tuple: &[NodeId], sem: TrailSemantics) -> bool {
    assert_eq!(
        q.free.len(),
        tuple.len(),
        "tuple arity must match free tuple"
    );
    q.epsilon_free_union()
        .iter()
        .any(|variant| contains_trail(variant, g, tuple, sem))
}

/// Whether the Boolean query holds under a trail semantics.
pub fn eval_boolean_trail(q: &Crpq, g: &GraphDb, sem: TrailSemantics) -> bool {
    assert!(
        q.is_boolean(),
        "eval_boolean_trail requires a Boolean query"
    );
    eval_contains_trail(q, g, &[], sem)
}

/// The full result set under a trail semantics (sorted, deduplicated).
pub fn eval_tuples_trail(q: &Crpq, g: &GraphDb, sem: TrailSemantics) -> Vec<Vec<NodeId>> {
    let mut out = BTreeSet::new();
    let variants = q.epsilon_free_union();
    let mut tuple = vec![NodeId(0); q.free.len()];
    enumerate_tuples(g, &mut tuple, 0, &mut |tuple: &[NodeId]| {
        if variants.iter().any(|v| contains_trail(v, g, tuple, sem)) {
            out.insert(tuple.to_vec());
        }
    });
    out.into_iter().collect()
}

/// Membership of `tuple` in one ε-free variant: the membership engine's
/// search under standard semantics (trail semantics put no injectivity
/// requirement on μ) with the trail check on complete assignments.
fn contains_trail(variant: &Crpq, g: &GraphDb, tuple: &[NodeId], sem: TrailSemantics) -> bool {
    VariantEval::new(variant, g, Semantics::Standard).any_assignment(tuple, &mut |this, mu| {
        let atoms = &this.atoms;
        match sem {
            TrailSemantics::AtomTrail => atoms.iter().all(|atom| {
                let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
                rpq::trail_exists(g, &atom.nfa, s, d)
            }),
            TrailSemantics::QueryTrail => place_trails(g, atoms, mu, &mut FxHashSet::default()),
        }
    })
}

/// Joint edge-disjoint placement for query-trail semantics: a trail for
/// the first atom avoiding `used`, then the rest avoiding it as well.
fn place_trails(
    g: &GraphDb,
    atoms: &[CompiledAtom],
    mu: &[NodeId],
    used: &mut FxHashSet<Edge>,
) -> bool {
    let Some((atom, rest)) = atoms.split_first() else {
        return true;
    };
    let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
    let blocked = used.clone();
    !rpq::for_each_trail(g, &atom.nfa, s, d, &blocked, |edges| {
        used.extend(edges);
        let ok = place_trails(g, rest, mu, used);
        for e in edges {
            used.remove(e);
        }
        if ok {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_contains, eval_tuples, Semantics};
    use crpq_graph::GraphBuilder;
    use crpq_query::parse_crpq;

    fn graph(edges: &[(&str, &str, &str)]) -> GraphDb {
        let mut b = GraphBuilder::new();
        for &(u, l, v) in edges {
            b.edge(u, l, v);
        }
        b.finish()
    }

    #[test]
    fn figure_of_eight_separates_trails_from_simple_paths() {
        // u -a-> m -b-> m2 -c-> m -d-> v: the abcd walk repeats node m but
        // no edge: a trail, not a simple path.
        let mut g = graph(&[
            ("u", "a", "m"),
            ("m", "b", "m2"),
            ("m2", "c", "m"),
            ("m", "d", "v"),
        ]);
        let q = parse_crpq("(x, y) <- x -[a b c d]-> y", g.alphabet_mut()).unwrap();
        let (u, v) = (g.node_by_name("u").unwrap(), g.node_by_name("v").unwrap());
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, v],
            TrailSemantics::AtomTrail
        ));
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, v],
            TrailSemantics::QueryTrail
        ));
        assert!(!eval_contains(&q, &g, &[u, v], Semantics::AtomInjective));
    }

    #[test]
    fn edge_disjointness_vs_sharing() {
        // Two atoms both needing the single a-edge: a-trail allows sharing,
        // q-trail does not.
        let mut g = graph(&[("u", "a", "v")]);
        let q = parse_crpq("x -[a]-> y, x -[a]-> z", g.alphabet_mut()).unwrap();
        assert!(eval_boolean_trail(&q, &g, TrailSemantics::AtomTrail));
        assert!(!eval_boolean_trail(&q, &g, TrailSemantics::QueryTrail));
        // With two parallel a-edges via an extra node, q-trail succeeds.
        let mut g2 = graph(&[("u", "a", "v"), ("u", "a", "w")]);
        let q2 = parse_crpq("x -[a]-> y, x -[a]-> z", g2.alphabet_mut()).unwrap();
        assert!(eval_boolean_trail(&q2, &g2, TrailSemantics::QueryTrail));
    }

    #[test]
    fn trail_semantics_do_not_require_injective_assignment() {
        // Q(x,y) = x -a-> y with tuple (u,u) on an a-loop: q-trail accepts
        // (no variable injectivity), q-inj rejects.
        let mut g = graph(&[("u", "a", "u")]);
        let q = parse_crpq("(x, y) <- x -[a]-> y", g.alphabet_mut()).unwrap();
        let u = g.node_by_name("u").unwrap();
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, u],
            TrailSemantics::QueryTrail
        ));
        assert!(!eval_contains(&q, &g, &[u, u], Semantics::QueryInjective));
        // And even a-inj rejects (simple path u→u must be empty):
        assert!(!eval_contains(&q, &g, &[u, u], Semantics::AtomInjective));
    }

    #[test]
    fn closed_trails_for_self_loop_atoms() {
        // x -[a a]-> x: closed trail of length 2 via u→v→u.
        let mut g = graph(&[("u", "a", "v"), ("v", "a", "u")]);
        let q = parse_crpq("x -[a a]-> x", g.alphabet_mut()).unwrap();
        for sem in TrailSemantics::ALL {
            assert!(eval_boolean_trail(&q, &g, sem), "under {sem}");
        }
        // A single self-loop cannot spell aa as a trail (edge repeats).
        let mut g2 = graph(&[("u", "a", "u")]);
        let q2 = parse_crpq("x -[a a]-> x", g2.alphabet_mut()).unwrap();
        assert!(!eval_boolean_trail(&q2, &g2, TrailSemantics::AtomTrail));
    }

    #[test]
    fn hierarchy_with_node_injective_semantics() {
        // q-trail ⊆ a-trail ⊆ st, a-inj ⊆ a-trail, q-inj ⊆ q-trail on the
        // paper's example instances and a random instance.
        for (edges, qtext) in [
            (
                vec![
                    ("u", "a", "v"),
                    ("v", "b", "w"),
                    ("w", "c", "v"),
                    ("v", "c", "u"),
                ],
                "(x, y) <- x -[(a b)*]-> y, y -[c*]-> x",
            ),
            (
                vec![
                    ("u", "a", "w"),
                    ("w", "b", "t"),
                    ("t", "a", "u"),
                    ("u", "b", "v"),
                    ("v", "c", "u"),
                ],
                "(x, y) <- x -[(a b)*]-> y, y -[c*]-> x",
            ),
        ] {
            let mut g = graph(&edges);
            let q = parse_crpq(qtext, g.alphabet_mut()).unwrap();
            let st = eval_tuples(&q, &g, Semantics::Standard);
            let a_inj = eval_tuples(&q, &g, Semantics::AtomInjective);
            let q_inj = eval_tuples(&q, &g, Semantics::QueryInjective);
            let a_trail = eval_tuples_trail(&q, &g, TrailSemantics::AtomTrail);
            let q_trail = eval_tuples_trail(&q, &g, TrailSemantics::QueryTrail);
            for t in &q_trail {
                assert!(a_trail.contains(t), "q-trail ⊆ a-trail");
            }
            for t in &a_trail {
                assert!(st.contains(t), "a-trail ⊆ st");
            }
            for t in &a_inj {
                assert!(a_trail.contains(t), "a-inj ⊆ a-trail");
            }
            // On these instances no q-inj witness duplicates a whole
            // path, so the q-inj ⊆ q-trail cross-link holds here (it is
            // not an inclusion in general — see the module docs).
            for t in &q_inj {
                assert!(q_trail.contains(t), "q-inj ⊆ q-trail on this instance");
            }
        }
    }

    #[test]
    fn example21_under_trail_semantics() {
        // On the Example 2.1 graph G, the cc-path and ab-path share node v
        // but no edge: (u,w) holds under q-trail although not under q-inj.
        let mut g = graph(&[
            ("u", "a", "v"),
            ("v", "b", "w"),
            ("w", "c", "v"),
            ("v", "c", "u"),
        ]);
        let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
        let (u, w) = (g.node_by_name("u").unwrap(), g.node_by_name("w").unwrap());
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, w],
            TrailSemantics::QueryTrail
        ));
        assert!(!eval_contains(&q, &g, &[u, w], Semantics::QueryInjective));
    }
}
