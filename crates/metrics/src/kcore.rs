//! k-core decomposition.
//!
//! The coreness of a node is the largest `k` such that it survives in the
//! `k`-core (the maximal subgraph of minimum degree ≥ k). Core structure
//! is a standard AS-topology fingerprint (a deep nested core is exactly
//! what distinguishes measured AS graphs from degree-matched random
//! ones), making it a useful independent check on dK convergence: it is
//! *not* one of the paper's §2 metrics, so matching it is evidence that
//! the dK-series captures "any future metrics" (§3), not just the
//! advertised list.
//!
//! Implemented with the linear-time Batagelj–Zaveršnik bucket algorithm,
//! generic over [`AdjacencyView`] so the peeling runs on the analyzer's
//! CSR (the inner loop touches every neighbor list once —
//! exactly the access pattern CSR flattens).

use dk_graph::AdjacencyView;

/// Coreness of every node.
pub fn coreness<V: AdjacencyView + ?Sized>(g: &V) -> Vec<usize> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v as u32)).collect();
    let max_deg = *degree.iter().max().expect("non-empty");
    // bucket sort nodes by degree
    let mut bin_start = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin_start[d + 1] += 1;
    }
    for i in 1..bin_start.len() {
        bin_start[i] += bin_start[i - 1];
    }
    let mut pos = vec![0usize; n]; // position of node in `order`
    let mut order = vec![0u32; n]; // nodes sorted by current degree
    {
        let mut next = bin_start.clone();
        for v in 0..n {
            let d = degree[v];
            order[next[d]] = v as u32;
            pos[v] = next[d];
            next[d] += 1;
        }
    }
    let mut core = vec![0usize; n];
    for i in 0..n {
        let v = order[i];
        core[v as usize] = degree[v as usize];
        for &u in g.neighbors(v) {
            let du = degree[u as usize];
            if du > degree[v as usize] {
                // move u one bucket down: swap with the first element of
                // its bucket, then shrink the bucket
                let pu = pos[u as usize];
                let bucket_first = bin_start[du];
                let w = order[bucket_first];
                if u != w {
                    order.swap(pu, bucket_first);
                    pos[u as usize] = bucket_first;
                    pos[w as usize] = pu;
                }
                bin_start[du] += 1;
                degree[u as usize] -= 1;
            }
        }
    }
    core
}

/// Maximum coreness (the graph's degeneracy).
pub fn degeneracy<V: AdjacencyView + ?Sized>(g: &V) -> usize {
    coreness(g).into_iter().max().unwrap_or(0)
}

/// Number of nodes in each k-core: `sizes[k]` = |{v : coreness(v) ≥ k}|.
pub fn core_sizes<V: AdjacencyView + ?Sized>(g: &V) -> Vec<usize> {
    let core = coreness(g);
    let kmax = core.iter().copied().max().unwrap_or(0);
    let mut sizes = vec![0usize; kmax + 1];
    for c in core {
        for slot in &mut sizes[..=c] {
            *slot += 1;
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, CsrGraph, Graph};

    #[test]
    fn complete_graph_core() {
        let g = builders::complete(6);
        assert_eq!(coreness(&g), vec![5; 6]);
        assert_eq!(degeneracy(&g), 5);
    }

    #[test]
    fn tree_is_one_core() {
        let g = builders::balanced_tree(3, 3);
        assert!(coreness(&g).iter().all(|&c| c == 1));
    }

    #[test]
    fn star_core() {
        let g = builders::star(7);
        let core = coreness(&g);
        assert_eq!(core[0], 1); // hub coreness = 1 (leaves peel first)
        assert!(core[1..].iter().all(|&c| c == 1));
    }

    #[test]
    fn clique_with_pendant_chain() {
        // K4 + path hanging off node 0: clique nodes coreness 3, chain 1.
        let mut g = builders::complete(4);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(0, a).unwrap();
        g.add_edge(a, b).unwrap();
        let core = coreness(&g);
        assert_eq!(&core[..4], &[3, 3, 3, 3]);
        assert_eq!(core[a as usize], 1);
        assert_eq!(core[b as usize], 1);
    }

    #[test]
    fn cycle_is_two_core() {
        assert_eq!(coreness(&builders::cycle(9)), vec![2; 9]);
    }

    #[test]
    fn core_sizes_monotone() {
        let g = builders::karate_club();
        let sizes = core_sizes(&g);
        assert_eq!(sizes[0], 34);
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // karate's degeneracy is 4 (known value)
        assert_eq!(degeneracy(&g), 4);
    }

    #[test]
    fn empty_graph() {
        assert!(coreness(&Graph::new()).is_empty());
        assert_eq!(degeneracy(&Graph::new()), 0);
    }

    #[test]
    fn csr_peeling_matches_graph_peeling() {
        for g in [builders::karate_club(), builders::star(7)] {
            let csr = CsrGraph::from_graph(&g);
            assert_eq!(coreness(&g), coreness(&csr));
            assert_eq!(degeneracy(&g), degeneracy(&csr));
            assert_eq!(core_sizes(&g), core_sizes(&csr));
        }
    }

    #[test]
    fn coreness_bounded_by_degree() {
        let g = builders::karate_club();
        let core = coreness(&g);
        for v in g.nodes() {
            assert!(core[v as usize] <= g.degree(v));
        }
    }

    #[test]
    fn peeling_oracle_small_random() {
        // brute-force oracle: repeatedly delete min-degree nodes
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let mut g = Graph::with_nodes(20);
            for _ in 0..40 {
                let u = rng.gen_range(0..20u32);
                let v = rng.gen_range(0..20u32);
                if u != v {
                    let _ = g.try_add_edge(u, v);
                }
            }
            let fast = coreness(&g);
            let slow = oracle_coreness(&g);
            assert_eq!(fast, slow);
        }
    }

    fn oracle_coreness(g: &Graph) -> Vec<usize> {
        let n = g.node_count();
        let mut core = vec![0usize; n];
        let mut alive = vec![true; n];
        let mut deg: Vec<usize> = g.degrees();
        for _round in 0..n {
            // peel at the current minimum alive degree
            let Some(&mind) = deg
                .iter()
                .zip(&alive)
                .filter(|(_, &a)| a)
                .map(|(d, _)| d)
                .min()
            else {
                break;
            };
            // all nodes of degree <= mind peel at level mind
            let mut changed = true;
            while changed {
                changed = false;
                for v in 0..n {
                    if alive[v] && deg[v] <= mind {
                        alive[v] = false;
                        core[v] = mind;
                        changed = true;
                        for &u in g.neighbors(v as u32) {
                            if alive[u as usize] {
                                deg[u as usize] -= 1;
                            }
                        }
                    }
                }
            }
        }
        core
    }
}
