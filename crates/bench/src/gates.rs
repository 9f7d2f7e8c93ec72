//! The checks `benches/gates.rs` fails on, as pure functions from
//! measured rows to `Result<(), String>` — so each can be (and, in the
//! tests below, is) shown to fail on a doctored input. They are the
//! checks no `BENCHMARK.json` end-to-end metric bounds: exact counts,
//! and ratios of two arms timed in the same run on the same machine.

/// `what` must not have swept at all.
pub fn no_sweeps(what: &str, sweeps: u64) -> Result<(), String> {
    match sweeps {
        0 => Ok(()),
        n => Err(format!("{what}: ran {n} Dijkstra sweeps, none allowed")),
    }
}

/// `what` must have counted exactly `expected`.
pub fn exact_count(what: &str, expected: u64, counted: u64) -> Result<(), String> {
    if counted == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: counted {counted}, expected exactly {expected}"
        ))
    }
}

/// `what` must have counted at most `ceiling`.
pub fn at_most(what: &str, ceiling: u64, counted: u64) -> Result<(), String> {
    if counted <= ceiling {
        Ok(())
    } else {
        Err(format!(
            "{what}: counted {counted}, at most {ceiling} allowed"
        ))
    }
}

/// Every acknowledged write was logged exactly once, and group commit
/// folded at least two records into one fsync somewhere in the run.
pub fn group_commit(
    what: &str,
    acknowledged: u64,
    records: u64,
    commits: u64,
) -> Result<(), String> {
    if records != acknowledged {
        Err(format!(
            "{what}: {records} WAL records for {acknowledged} acknowledged writes"
        ))
    } else if commits >= records {
        Err(format!(
            "{what}: {commits} group commits for {records} records, none folded two"
        ))
    } else {
        Ok(())
    }
}

/// Two arms of one paired measurement (same run, same seed, same
/// machine); the gate is on `numerator_ns / denominator_ns`.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    pub seed: u64,
    pub numerator_ns: f64,
    pub denominator_ns: f64,
}

impl Pair {
    pub fn ratio(&self) -> f64 {
        self.numerator_ns / self.denominator_ns
    }
}

/// The smallest ratio over the pairs (the conservative bound a floor is
/// held against); infinite when there are none.
pub fn worst_ratio(pairs: &[Pair]) -> f64 {
    pairs.iter().map(Pair::ratio).fold(f64::INFINITY, f64::min)
}

/// Every pair's ratio is at least `floor`.
pub fn ratio_floor(what: &str, pairs: &[Pair], floor: f64) -> Result<(), String> {
    if pairs.is_empty() {
        return Err(format!("{what}: no pair measured"));
    }
    match pairs
        .iter()
        .find(|p| p.ratio().is_nan() || p.ratio() < floor)
    {
        None => Ok(()),
        Some(p) => Err(format!(
            "{what}: {:.2}x on seed {} ({:.0} ns over {:.0} ns), floor {floor}x",
            p.ratio(),
            p.seed,
            p.numerator_ns,
            p.denominator_ns
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The warm-sweeps row: a warm request sweeps nowhere, not even for
    /// two non-border nodes of one fragment, so its total is held to 0
    /// and one sweep over fails with the row's name.
    #[test]
    fn warm_sweeps_passes_the_bound_and_fails_one_sweep_over() {
        assert_eq!(no_sweeps("warm-sweeps-per-query", 0), Ok(()));
        let over = no_sweeps("warm-sweeps-per-query", 1);
        assert!(over.is_err_and(|e| e.contains("warm-sweeps-per-query: ran 1 Dijkstra sweeps")));
    }

    #[test]
    fn no_sweeps_fails_on_the_first_sweep() {
        assert_eq!(no_sweeps("connected/index", 0), Ok(()));
        let failure = no_sweeps("connected/index", 1);
        assert!(failure.is_err_and(|e| e.contains("connected/index")));
    }

    #[test]
    fn exact_count_fails_one_over_and_one_under() {
        assert_eq!(exact_count("reach/dijkstra/sweeps", 64, 64), Ok(()));
        for doctored in [63, 65] {
            let failure = exact_count("reach/dijkstra/sweeps", 64, doctored);
            let want = format!("reach/dijkstra/sweeps: counted {doctored}, expected exactly 64");
            assert_eq!(failure, Err(want));
        }
    }

    #[test]
    fn at_most_holds_the_ceiling_and_fails_one_over() {
        assert_eq!(at_most("bytes-general-hub", 85_264, 85_264), Ok(()));
        assert_eq!(at_most("write-crossing-gather-compares", 30, 0), Ok(()));
        let failure = at_most("bytes-general-hub", 85_264, 85_265);
        let want = "bytes-general-hub: counted 85265, at most 85264 allowed";
        assert_eq!(failure, Err(want.to_string()));
    }

    #[test]
    fn group_commit_needs_every_write_logged_once_and_one_fold() {
        assert_eq!(group_commit("wal/seed-1", 1920, 1920, 700), Ok(()));
        // A write acknowledged but not logged, one logged twice, and a
        // run in which every record paid its own fsync.
        let lost = group_commit("wal/seed-1", 1920, 1919, 700);
        assert!(lost.is_err_and(|e| e.contains("1919 WAL records for 1920 acknowledged")));
        assert!(group_commit("wal/seed-1", 1920, 1921, 700).is_err());
        let unfolded = group_commit("wal/seed-1", 1920, 1920, 1920);
        assert!(unfolded.is_err_and(|e| e.contains("1920 group commits for 1920 records")));
    }

    #[test]
    fn ratio_floor_holds_the_worst_pair_to_the_floor() {
        let pair = |seed, numerator_ns| Pair {
            seed,
            numerator_ns,
            denominator_ns: 100.0,
        };
        let measured = [pair(1, 900.0), pair(2, 510.0)];
        assert_eq!(worst_ratio(&measured), 5.1);
        assert_eq!(ratio_floor("publication", &measured, 5.0), Ok(()));
        // The same rows with one seed doctored below the floor.
        let doctored = [pair(1, 900.0), pair(2, 490.0)];
        let failure = ratio_floor("publication", &doctored, 5.0);
        assert!(failure.is_err_and(|e| e.contains("4.90x on seed 2")));
        // A ratio below one is still a ratio (wal-on over wal-off).
        assert_eq!(ratio_floor("wal", &[pair(1, 75.0)], 0.7), Ok(()));
        assert!(ratio_floor("wal", &[pair(1, 65.0)], 0.7).is_err());
        assert!(ratio_floor("wal", &[], 0.7).is_err());
        assert!(ratio_floor("wal", &[pair(1, f64::NAN)], 0.7).is_err());
    }
}
