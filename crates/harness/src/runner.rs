//! Multi-threaded workload drivers.
//!
//! The runner spawns `threads` workers behind a barrier, drives the
//! workload until a deadline or for a fixed per-thread op count, and sums
//! the per-thread counts that [`validate_after_run`] checks. It times
//! nothing: rates and latencies are `perfbench`'s job.

use crate::workload::{OpGenerator, WorkloadSpec};
use nbbst_dictionary::{ConcurrentMap, Operation};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Operation counts of one run, summed over its workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Completed operations.
    pub total_ops: u64,
    /// `Insert` operations that returned `true`.
    pub successful_inserts: u64,
    /// `Delete` operations that returned `true`.
    pub successful_deletes: u64,
}

/// Inserts the spec's prefill keys (single-threaded).
pub fn prefill<M: ConcurrentMap<u64, u64> + ?Sized>(map: &M, spec: &WorkloadSpec) {
    for k in spec.prefill_keys() {
        map.insert(k, k);
    }
}

/// Runs `spec` on `map` with `threads` workers until `duration` has
/// passed.
pub fn run_for<M: ConcurrentMap<u64, u64> + ?Sized>(
    map: &M,
    spec: &WorkloadSpec,
    threads: usize,
    duration: Duration,
) -> RunResult {
    run(map, spec, threads, Until::Elapsed(duration))
}

/// Runs exactly `ops_per_thread` operations on each of `threads` workers
/// (for when total work, not time, must be controlled).
pub fn run_ops<M: ConcurrentMap<u64, u64> + ?Sized>(
    map: &M,
    spec: &WorkloadSpec,
    threads: usize,
    ops_per_thread: u64,
) -> RunResult {
    run(map, spec, threads, Until::Ops(ops_per_thread))
}

/// When a worker stops.
#[derive(Clone, Copy)]
enum Until {
    /// Once this long has passed since the barrier released it.
    Elapsed(Duration),
    /// After this many operations.
    Ops(u64),
}

fn run<M: ConcurrentMap<u64, u64> + ?Sized>(
    map: &M,
    spec: &WorkloadSpec,
    threads: usize,
    until: Until,
) -> RunResult {
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                let mut gen = spec.generator(t);
                s.spawn(move || {
                    barrier.wait();
                    work(map, &mut gen, until)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .fold(RunResult::default(), |sum, r| RunResult {
                total_ops: sum.total_ops + r.total_ops,
                successful_inserts: sum.successful_inserts + r.successful_inserts,
                successful_deletes: sum.successful_deletes + r.successful_deletes,
            })
    })
}

/// The one worker loop behind [`run_for`] and [`run_ops`].
fn work<M: ConcurrentMap<u64, u64> + ?Sized>(
    map: &M,
    gen: &mut OpGenerator,
    until: Until,
) -> RunResult {
    let (deadline, budget) = match until {
        Until::Elapsed(d) => (Some(Instant::now() + d), u64::MAX),
        Until::Ops(n) => (None, n),
    };
    let mut counts = RunResult::default();
    while counts.total_ops < budget {
        // Read the clock once per 128 operations, off the hot path.
        if counts.total_ops % 128 == 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        match gen.next_op() {
            Operation::Contains(k) => {
                std::hint::black_box(map.contains(&k));
            }
            Operation::Insert(k, v) => counts.successful_inserts += u64::from(map.insert(k, v)),
            Operation::Remove(k) => counts.successful_deletes += u64::from(map.remove(&k)),
        }
        counts.total_ops += 1;
    }
    counts
}

/// Validates a map after a run: the set of keys reported by `contains`
/// must match `quiescent_len`, and replaying successful-update deltas must
/// be consistent (`prefill + inserts_true - deletes_true = len`).
///
/// # Errors
///
/// Describes the first inconsistency found.
pub fn validate_after_run<M: ConcurrentMap<u64, u64> + ?Sized>(
    map: &M,
    spec: &WorkloadSpec,
    result: &RunResult,
) -> Result<(), String> {
    let prefill = spec.prefill_keys().len() as i64;
    let expected = prefill + result.successful_inserts as i64 - result.successful_deletes as i64;
    let actual = map.quiescent_len() as i64;
    if expected != actual {
        return Err(format!(
            "size mismatch: prefill {prefill} + inserts {} - deletes {} = {expected}, \
             but the dictionary holds {actual}",
            result.successful_inserts, result.successful_deletes
        ));
    }
    let observed = (0..spec.key_range).filter(|k| map.contains(k)).count() as i64;
    if observed != actual {
        return Err(format!(
            "membership mismatch: contains() sees {observed} keys, len is {actual}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbst_dictionary::SeqMap;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Reference concurrent map for runner tests.
    #[derive(Default)]
    struct Locked(Mutex<BTreeMap<u64, u64>>);
    impl ConcurrentMap<u64, u64> for Locked {
        fn insert(&self, k: u64, v: u64) -> bool {
            SeqMap::insert(&mut *self.0.lock().unwrap(), k, v)
        }
        fn remove(&self, k: &u64) -> bool {
            SeqMap::remove(&mut *self.0.lock().unwrap(), k)
        }
        fn contains(&self, k: &u64) -> bool {
            SeqMap::contains(&*self.0.lock().unwrap(), k)
        }
        fn get(&self, k: &u64) -> Option<u64> {
            SeqMap::get(&*self.0.lock().unwrap(), k)
        }
        fn quiescent_len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    #[test]
    fn run_for_stops_at_the_deadline_with_exact_accounting() {
        let map = Locked::default();
        let spec = WorkloadSpec::read_heavy(256);
        prefill(&map, &spec);
        let r = run_for(&map, &spec, 2, Duration::from_millis(50));
        assert!(r.total_ops > 0);
        validate_after_run(&map, &spec, &r).unwrap();
    }

    #[test]
    fn run_ops_executes_exact_counts() {
        let map = Locked::default();
        let spec = WorkloadSpec::balanced(128);
        prefill(&map, &spec);
        let r = run_ops(&map, &spec, 3, 1_000);
        assert_eq!(r.total_ops, 3_000);
        validate_after_run(&map, &spec, &r).unwrap();
    }

    #[test]
    fn validate_catches_corruption() {
        let map = Locked::default();
        let spec = WorkloadSpec::read_heavy(64);
        prefill(&map, &spec);
        let r = run_ops(&map, &spec, 2, 200);
        // Corrupt: sneak in a key the accounting doesn't know about.
        map.insert(63_000 % 64, 0); // may or may not be new...
        map.0.lock().unwrap().insert(1_000_000, 0); // definitely outside range
        assert!(validate_after_run(&map, &spec, &r).is_err());
    }
}
