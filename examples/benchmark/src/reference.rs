//! The machine-speed probe: a fixed computation of the benchmark's own,
//! timed between the slices of a run, so that every timing can be reported
//! at one nominal machine speed.
//!
//! Why it exists. This sandbox's two vCPUs each move between speeds up to
//! 1.45x apart, hold one for seconds, and drift together by a quarter over
//! minutes (no steal time is reported; it looks like a busy neighbour on
//! the same cores). Ten runs of the same binary on the same inputs then
//! spread by 18-24 % of their median whatever is measured and however it
//! is summarised, which is the whole of the largest regression bound. The
//! product of a run's throughput and the time the same run took over a
//! fixed computation spreads by a few per cent.
//!
//! What it is. Three pieces of work written here, calling nothing of the
//! repository, so that no later change to the system under test can move
//! them: binary-heap Dijkstra sweeps over a pinned pseudo-random graph, a
//! hash map filled and read back, and adjacency lists allocated, sorted
//! and loaded into an ordered map. The mix matters. Timed side by side
//! over seven minutes of this machine's speed changes, the system's own
//! kernels (an inline batch, a build) slowed by 1.6x to 1.9x from their
//! fastest to their slowest, the Dijkstra sweeps alone by 1.45x whatever
//! the size of their graph, the hash map and the allocating code by 1.8x
//! to 1.9x: what the neighbours contend for is memory, and a probe that
//! stays in the cache under-reports them. Against the three together the
//! system's kernels keep a slope of 0.86 to 1.12.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Instant;

use crate::pinned::{REFERENCE_NOMINAL_SECONDS, REFERENCE_REPEATS, REFERENCE_SWEEPS};

const NODES: usize = 4096;
const DEGREE: usize = 4;
/// Keys put into the hash map (half as many distinct ones).
const HASH_KEYS: u64 = 40_000;
/// Nodes of the allocated adjacency lists, `DEGREE` edges each on average.
const LIST_NODES: u64 = 8_000;

/// Xorshift64: the pinned stream the hash and allocation work draw from.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The pinned graph, in CSR form with a fixed out-degree.
struct Reference {
    targets: Vec<u32>,
    weights: Vec<u32>,
    /// What one computation must return: the probe checks it, so the
    /// timed work cannot be skipped or go wrong unnoticed.
    checksum: u64,
}

impl Reference {
    fn new() -> Reference {
        // SplitMix64 from a fixed state: the graph never changes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut targets = Vec::with_capacity(NODES * DEGREE);
        let mut weights = Vec::with_capacity(NODES * DEGREE);
        for v in 0..NODES {
            // One edge to the next node keeps every node reachable.
            targets.push(((v + 1) % NODES) as u32);
            weights.push(1 + (next() % 1000) as u32);
            for _ in 1..DEGREE {
                targets.push((next() % NODES as u64) as u32);
                weights.push(1 + (next() % 1000) as u32);
            }
        }
        let mut reference = Reference {
            targets,
            weights,
            checksum: 0,
        };
        reference.checksum = reference.compute();
        reference
    }

    /// `REFERENCE_SWEEPS` full single-source sweeps from fixed sources;
    /// returns the sum of all distances found.
    fn sweeps(&self) -> u64 {
        let mut dist = vec![u32::MAX; NODES];
        let mut heap = BinaryHeap::with_capacity(NODES);
        let mut sum = 0u64;
        for sweep in 0..REFERENCE_SWEEPS {
            dist.fill(u32::MAX);
            let source = (sweep * 61) % NODES;
            dist[source] = 0;
            heap.push(Reverse((0u32, source as u32)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v as usize] {
                    continue;
                }
                let edges = v as usize * DEGREE..(v as usize + 1) * DEGREE;
                for (&t, &w) in self.targets[edges.clone()].iter().zip(&self.weights[edges]) {
                    let through = d + w;
                    if through < dist[t as usize] {
                        dist[t as usize] = through;
                        heap.push(Reverse((through, t)));
                    }
                }
            }
            sum += dist.iter().map(|&d| u64::from(d)).sum::<u64>();
        }
        sum
    }

    /// A hash map filled with counts and read back.
    fn hashing() -> u64 {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let mut x = 88_172_645_463_325_252u64;
        for i in 0..HASH_KEYS {
            *counts
                .entry(xorshift(&mut x) % (HASH_KEYS / 2))
                .or_insert(0) += i;
        }
        (0..HASH_KEYS)
            .filter_map(|key| counts.get(&key))
            .fold(0, |sum, &v| sum.wrapping_add(v))
    }

    /// Adjacency lists grown edge by edge, then each copied, sorted and
    /// loaded into an ordered map.
    fn allocating() -> u64 {
        let mut x = 88_172_645_463_325_252u64;
        let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); LIST_NODES as usize];
        for _ in 0..LIST_NODES * DEGREE as u64 {
            let r = xorshift(&mut x);
            lists[(r % LIST_NODES) as usize]
                .push((((r >> 20) % LIST_NODES) as u32, (r >> 40) as u32 % 1000));
        }
        let mut edges: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for (from, list) in lists.iter().enumerate() {
            let mut list = list.clone();
            list.sort_unstable();
            for (to, weight) in list {
                edges.insert((from as u32, to), weight);
            }
        }
        edges
            .iter()
            .map(|(&(from, to), &weight)| u64::from(from ^ to ^ weight))
            .sum()
    }

    /// The timed computation: all three pieces, one after the other.
    fn compute(&self) -> u64 {
        self.sweeps()
            .wrapping_add(Self::hashing())
            .wrapping_add(Self::allocating())
    }

    /// One probe on the calling thread: the machine's speed now as a
    /// share of the nominal speed (1.0 = the computation took
    /// `REFERENCE_NOMINAL_SECONDS`). The computation is timed
    /// `REFERENCE_REPEATS` times and the median time counts, so that a
    /// scheduling hiccup during a probe does not pass for a slow machine.
    fn speed_here(&self) -> f64 {
        let mut secs: Vec<f64> = (0..REFERENCE_REPEATS)
            .map(|_| {
                let t = Instant::now();
                let sum = std::hint::black_box(self).compute();
                let secs = t.elapsed().as_secs_f64();
                assert_eq!(sum, self.checksum, "the reference computation changed");
                secs
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        REFERENCE_NOMINAL_SECONDS / secs[REFERENCE_REPEATS / 2]
    }

    /// The probe on `threads` threads at once (the caller's among them),
    /// as many as the work it is to normalise keeps busy: the mean of
    /// their speeds.
    fn speed(&self, threads: usize) -> f64 {
        let speeds: Vec<f64> = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads)
                .map(|_| s.spawn(|| self.speed_here()))
                .collect();
            let mine = self.speed_here();
            others
                .into_iter()
                .map(|h| h.join().expect("reference probe panicked"))
                .chain([mine])
                .collect()
        });
        speeds.iter().sum::<f64>() / speeds.len() as f64
    }
}

/// The probes of one run, in the order taken. A run probes before and
/// after each group of timed calls and reports the group's timings at
/// the nominal speed by the mean of the two probes around it.
pub struct SpeedProbe {
    reference: Reference,
    threads: usize,
    speeds: Vec<f64>,
}

impl SpeedProbe {
    /// Builds the reference graph and takes the first probe.
    pub fn start(threads: usize) -> SpeedProbe {
        let reference = Reference::new();
        let speeds = vec![reference.speed(threads)];
        SpeedProbe {
            reference,
            threads,
            speeds,
        }
    }

    /// Probe now; the machine's speed over the time since the last probe,
    /// as the mean of that probe and this one.
    pub fn since_last(&mut self) -> f64 {
        let before = self.speeds[self.speeds.len() - 1];
        let now = self.reference.speed(self.threads);
        self.speeds.push(now);
        (before + now) / 2.0
    }

    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }
}
