//! Execution statistics of the closure operators.
//!
//! The paper's performance arguments are about exactly these quantities:
//! the number of iterations to the fixpoint ("given by the maximum
//! diameter of the graph", §2.1) and the size of intermediate results
//! ("the size of intermediate results depends on the connectivity",
//! §2.2). The bulk materializer reports the same frame — its phases as
//! iterations, arcs scanned plus fold candidates as generated tuples —
//! inside [`crate::bulk::MaterializeStats`].

use std::fmt;

/// Counters collected by one transitive-closure evaluation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TcStats {
    /// Join-and-merge rounds until the fixpoint.
    pub iterations: usize,
    /// Total tuples produced by joins (before dedup/min aggregation).
    pub tuples_generated: usize,
    /// Tuples in the final result.
    pub result_tuples: usize,
    /// Tuples admitted per iteration — the Δ trajectory for semi-naive,
    /// the join-output sizes for naive, the result tuples written
    /// per phase for bulk. `delta_sizes.len() == iterations`.
    pub delta_sizes: Vec<usize>,
    /// Times a prebuilt hash-join build table was probed again instead of
    /// being rebuilt from the full relation (see
    /// [`crate::join::JoinIndex`]).
    pub index_reuses: usize,
}

impl TcStats {
    /// Merge counters from another evaluation (e.g. across fragments):
    /// iteration-like counters take the max, volume counters add, and
    /// delta trajectories add element-wise (iteration `k` of each side
    /// happens concurrently in the fragmented reading).
    pub fn absorb(&mut self, other: &TcStats) {
        self.iterations = self.iterations.max(other.iterations);
        self.tuples_generated += other.tuples_generated;
        self.result_tuples += other.result_tuples;
        if self.delta_sizes.len() < other.delta_sizes.len() {
            self.delta_sizes.resize(other.delta_sizes.len(), 0);
        }
        for (mine, theirs) in self.delta_sizes.iter_mut().zip(&other.delta_sizes) {
            *mine += *theirs;
        }
        self.index_reuses += other.index_reuses;
    }
}

impl fmt::Display for TcStats {
    /// One-line summary for examples and benches, e.g.
    /// `7 iters, 1532 generated -> 420 tuples, 6 index reuses`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} iters, {} generated -> {} tuples",
            self.iterations, self.tuples_generated, self.result_tuples
        )?;
        if self.index_reuses > 0 {
            write!(f, ", {} index reuses", self.index_reuses)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_takes_max_iterations_and_sums_tuples() {
        let mut a = TcStats {
            iterations: 3,
            tuples_generated: 10,
            result_tuples: 5,
            delta_sizes: vec![4, 1],
            index_reuses: 2,
        };
        let b = TcStats {
            iterations: 7,
            tuples_generated: 1,
            result_tuples: 2,
            delta_sizes: vec![1, 1, 1],
            index_reuses: 6,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            TcStats {
                iterations: 7,
                tuples_generated: 11,
                result_tuples: 7,
                delta_sizes: vec![5, 2, 1],
                index_reuses: 8,
            }
        );
    }

    #[test]
    fn display_is_a_one_liner() {
        let plain = TcStats {
            iterations: 2,
            tuples_generated: 12,
            result_tuples: 6,
            ..TcStats::default()
        };
        assert_eq!(plain.to_string(), "2 iters, 12 generated -> 6 tuples");
        let indexed = TcStats {
            iterations: 4,
            tuples_generated: 40,
            result_tuples: 20,
            delta_sizes: vec![10, 6, 3, 1],
            index_reuses: 3,
        };
        let line = indexed.to_string();
        assert!(line.ends_with("3 index reuses"), "{line}");
        assert!(!line.contains('\n'));
    }
}
