//! Representative-sample selection — the paper's **Algorithm 3**.
//!
//! The RepSamSel problem (Definition 7): pick a minimum subset `D` of the
//! SamGraph's vertices such that every vertex is represented by some
//! member of `D`. The problem is NP-hard (reduction from Minimum
//! Dominating Set, paper Lemma IV.1), so the paper uses a greedy strategy:
//! sort samples by out-degree once, then repeatedly persist the first
//! not-yet-covered sample and drop everything it represents. Only the
//! selected representatives are persisted in the sample table; every other
//! local sample is discarded and its cube-table cell points at its
//! representative's sample id.

use crate::samgraph::SamGraph;

/// Output of Algorithm 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Indices (into the cube-entry list) of the persisted representative
    /// samples, in selection order.
    pub representatives: Vec<u32>,
    /// For every cube entry, the index of the representative whose sample
    /// answers its queries. `rep_of[r] == r` for representatives.
    pub rep_of: Vec<u32>,
}

impl Selection {
    /// How many samples selection avoided persisting.
    pub fn samples_saved(&self) -> usize {
        self.rep_of.len() - self.representatives.len()
    }
}

/// Run Algorithm 3 on `graph`.
///
/// Faithful to the paper: heads are sorted by out-degree *once* (the
/// LinkedHashMap), then scanned in order; each head that is still present
/// is selected and all its tails are removed. Ties are broken by vertex
/// index, making the output deterministic. Because every vertex carries a
/// self-edge, coverage is total.
pub fn select_representatives(graph: &SamGraph) -> Selection {
    let m = graph.len();
    // Sort heads by descending out-degree, ascending index on ties.
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_by_key(|&h| (std::cmp::Reverse(graph.edges[h as usize].len()), h));

    let mut removed = vec![false; m];
    let mut rep_of = vec![u32::MAX; m];
    let mut representatives = Vec::new();
    for &head in &order {
        if removed[head as usize] {
            continue;
        }
        representatives.push(head);
        removed[head as usize] = true;
        rep_of[head as usize] = head;
        for &tail in &graph.edges[head as usize] {
            if !removed[tail as usize] {
                removed[tail as usize] = true;
                rep_of[tail as usize] = head;
            }
        }
    }
    debug_assert!(rep_of.iter().all(|&r| r != u32::MAX), "total coverage");
    Selection { representatives, rep_of }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a graph from explicit adjacency (self-edges added).
    fn graph(adj: &[&[u32]]) -> SamGraph {
        let edges = adj
            .iter()
            .enumerate()
            .map(|(u, outs)| {
                let mut e = vec![u as u32];
                e.extend(outs.iter().copied().filter(|&v| v != u as u32));
                e
            })
            .collect();
        SamGraph { edges }
    }

    #[test]
    fn reproduces_the_papers_figure_7_walkthrough() {
        // Paper Figure 7, 1-indexed samples 1..8 mapped to 0..7 here:
        // Sample2 represents {1,2,3,6,7}; Sample8 represents {3,7,8};
        // Sample5 represents {5,6}; Sample4 represents itself; the rest
        // only represent themselves. Expected pick order: 2, 8, 5, 4.
        let g = graph(&[
            &[],           // 1
            &[0, 2, 5, 6], // 2 → 1,3,6,7
            &[],           // 3
            &[],           // 4
            &[5],          // 5 → 6
            &[],           // 6
            &[],           // 7
            &[2, 6],       // 8 → 3,7
        ]);
        let sel = select_representatives(&g);
        assert_eq!(sel.representatives, vec![1, 7, 4, 3]); // samples 2, 8, 5, 4
                                                           // Every vertex covered by a representative that has an edge to it.
        for (v, &r) in sel.rep_of.iter().enumerate() {
            assert!(
                g.edges[r as usize].contains(&(v as u32)),
                "vertex {v} not actually represented by {r}"
            );
        }
        assert_eq!(sel.samples_saved(), 4);
    }

    #[test]
    fn disconnected_graph_keeps_every_sample() {
        let g = graph(&[&[], &[], &[]]);
        let sel = select_representatives(&g);
        assert_eq!(sel.representatives, vec![0, 1, 2]);
        assert_eq!(sel.rep_of, vec![0, 1, 2]);
        assert_eq!(sel.samples_saved(), 0);
    }

    #[test]
    fn complete_graph_keeps_one() {
        let g = graph(&[&[1, 2, 3], &[0, 2, 3], &[0, 1, 3], &[0, 1, 2]]);
        let sel = select_representatives(&g);
        assert_eq!(sel.representatives.len(), 1);
        let r = sel.representatives[0];
        assert!(sel.rep_of.iter().all(|&x| x == r));
        assert_eq!(sel.samples_saved(), 3);
    }

    #[test]
    fn ties_break_deterministically_by_index() {
        // Two vertices each covering one other vertex: equal out-degree.
        let g = graph(&[&[2], &[3], &[], &[]]);
        let sel = select_representatives(&g);
        assert_eq!(sel.representatives, vec![0, 1]);
        assert_eq!(sel.rep_of, vec![0, 1, 0, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = SamGraph { edges: vec![] };
        let sel = select_representatives(&g);
        assert!(sel.representatives.is_empty());
        assert!(sel.rep_of.is_empty());
    }

    #[test]
    fn coverage_is_always_total_and_valid() {
        // A chain: 0 → 1 → 2 → 3 (each also self-covering).
        let g = graph(&[&[1], &[2], &[3], &[]]);
        let sel = select_representatives(&g);
        for (v, &r) in sel.rep_of.iter().enumerate() {
            assert!(g.edges[r as usize].contains(&(v as u32)), "vertex {v}");
        }
        // Representatives are exactly the fixed points of rep_of.
        for &r in &sel.representatives {
            assert_eq!(sel.rep_of[r as usize], r);
        }
    }
}
