//! Operation counters instrumenting every CAS type of Figure 4.
//!
//! The paper's Figure 4 is a state machine over `{Clean, IFlag, DFlag,
//! Mark}` whose transitions are the seven CAS kinds (`iflag`, `ichild`,
//! `iunflag`, `dflag`, `mark`, `dchild`/`dunflag`, `backtrack`). A
//! [`TreeStats`] records how often each succeeds, plus helping and retry
//! activity. [`StatsSnapshot::check_figure4`] verifies, at quiescence, the
//! arithmetic identities the state machine implies — the executable
//! reproduction of Figure 4.
//!
//! Counters are optional (see `NbBst::with_stats`) and use relaxed
//! increments; they are for experiments, not for synchronization.

use std::fmt;
// `Counter*` alias: the nbbst-lint facade pass recognizes it as the
// documented instrumentation exclusion — these never synchronize and
// deliberately stay std atomics under `--cfg loom` (see
// nbbst-reclaim's `primitives` module).
use std::sync::atomic::{AtomicU64 as CounterU64, Ordering};

/// The counter word: a std atomic even under loom (instrumentation only).
pub(crate) type Counter = CounterU64;

macro_rules! stats_fields {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Live counters attached to a tree (all `u64`, relaxed).
        #[derive(Debug, Default)]
        pub struct TreeStats {
            $( $(#[$doc])* pub(crate) $name: Counter, )+
        }

        /// A point-in-time copy of [`TreeStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )+
        }

        impl TreeStats {
            /// Copies all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )+
                }
            }
        }

        impl StatsSnapshot {
            /// Field-wise sum (`self + other`) — merging per-shard (or
            /// per-phase) snapshots into one aggregate.
            ///
            /// Merging is commutative and associative, and every
            /// [`StatsSnapshot::check_figure4`] identity is *linear*
            /// (equalities and `<=` between counter sums), so identities
            /// that hold per shard at quiescence hold for the merged
            /// snapshot too.
            #[must_use]
            pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name + other.$name, )+
                }
            }

            /// Merges an iterator of snapshots (e.g. one per shard).
            pub fn merged<I: IntoIterator<Item = StatsSnapshot>>(iter: I) -> StatsSnapshot {
                iter.into_iter()
                    .fold(StatsSnapshot::default(), |acc, s| acc.merge(&s))
            }

            /// Field-wise difference (`self - earlier`), for measuring one
            /// phase of a long run.
            #[must_use]
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name - earlier.$name, )+
                }
            }
        }

        impl fmt::Display for StatsSnapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $( writeln!(f, "{:<22} {:>12}", stringify!($name), self.$name)?; )+
                Ok(())
            }
        }
    };
}

stats_fields! {
    /// Completed `Find` calls.
    finds,
    /// Completed `Insert` calls (either outcome).
    inserts,
    /// Completed `Delete` calls (either outcome).
    deletes,
    /// `Insert` calls that returned `true`.
    inserts_true,
    /// `Delete` calls that returned `true`.
    deletes_true,
    /// `Delete` calls that returned `true` by replacing their leaf with a
    /// copy one entry smaller (the iflag → ichild → iunflag circuit)
    /// instead of splicing it out (dflag → mark → dchild → dunflag).
    deletes_by_copy,
    /// `Search` traversals performed (one per attempt).
    searches,
    /// Insert attempts abandoned and retried.
    insert_retries,
    /// Delete attempts abandoned and retried.
    delete_retries,
    /// iflag CAS attempts (line 56).
    iflag_attempts,
    /// Successful iflag CAS steps (Clean -> IFlag).
    iflag_success,
    /// Successful ichild CAS steps (lines 115/117 via HelpInsert): one per
    /// leaf replacement, whether by an Insert or a Delete.
    ichild_success,
    /// Successful iunflag CAS steps (IFlag -> Clean).
    iunflag_success,
    /// dflag CAS attempts (line 81).
    dflag_attempts,
    /// Successful dflag CAS steps (Clean -> DFlag).
    dflag_success,
    /// mark CAS attempts (line 91).
    mark_attempts,
    /// Successful mark CAS steps (Clean -> Mark on the parent).
    mark_success,
    /// Successful dchild CAS steps (line 105).
    dchild_success,
    /// Successful dunflag CAS steps (DFlag -> Clean, line 106).
    dunflag_success,
    /// Successful backtrack CAS steps (DFlag -> Clean, line 98).
    backtrack_success,
    /// Calls into the general `Help` routine (lines 107–112).
    helps,
    /// Calls into `HelpInsert`, finishing another operation's leaf
    /// replacement (an operation takes its own ichild and iunflag as
    /// steps of its update machine, not through `HelpInsert`).
    help_insert_calls,
    /// Calls into `HelpDelete` for another operation's deletion.
    help_delete_calls,
    /// Calls into `HelpMarked` for another operation's deletion (from
    /// `Help` or `HelpDelete`).
    help_marked_calls,
    /// Nodes retired to the collector.
    nodes_retired,
    /// Info records retired to the collector.
    infos_retired,
}

impl StatsSnapshot {
    /// Verifies the Figure 4 state-machine identities at quiescence (no
    /// operation in flight):
    ///
    /// * every leaf-replacement circuit runs `iflag → ichild → iunflag`
    ///   exactly once each: the three counts are equal;
    /// * every deletion circuit that leaves `DFlag` does so by exactly one
    ///   of `mark` (continuing to `dchild`, `dunflag`) or `backtrack`:
    ///   `dflag = mark + backtrack`, and `mark = dchild = dunflag`;
    /// * successful updates linearize at their child CAS, and each has
    ///   exactly one: every ichild is a successful Insert or a Delete that
    ///   replaced its leaf, so `ichild = inserts_true + deletes_by_copy`;
    ///   a successful Delete completes by one of the two circuits, so
    ///   `deletes_true = dchild + deletes_by_copy`;
    /// * a fresh flag is installed per circuit, never reused:
    ///   successes never exceed attempts.
    ///
    /// # Errors
    ///
    /// Returns which identity failed.
    pub fn check_figure4(&self) -> Result<(), String> {
        self.check_figure4_inner(false)
    }

    /// [`StatsSnapshot::check_figure4`], but tolerating operations that
    /// were deliberately *abandoned* mid-circuit (crash-injection tests):
    /// a delete abandoned before its mark CAS is completed by helpers, so
    /// its `dchild` has no matching `deletes_true`; the two
    /// completed-operation identities therefore relax to `<=` against the
    /// flag and mark counts.
    ///
    /// # Errors
    ///
    /// Returns which identity failed.
    pub fn check_figure4_allowing_abandoned(&self) -> Result<(), String> {
        self.check_figure4_inner(true)
    }

    fn check_figure4_inner(&self, allow_abandoned: bool) -> Result<(), String> {
        let eq = |name: &str, a: u64, b: u64| {
            if a == b {
                Ok(())
            } else {
                Err(format!("figure-4 identity violated: {name}: {a} != {b}"))
            }
        };
        let le = |name: &str, a: u64, b: u64| {
            if a <= b {
                Ok(())
            } else {
                Err(format!("figure-4 identity violated: {name}: {a} > {b}"))
            }
        };
        if allow_abandoned {
            // Crashed circuits may be stalled at any point, so each step of
            // a circuit happens at most as often as the one before it; and
            // completed-op counts trail their child CASes.
            le("ichild <= iflag", self.ichild_success, self.iflag_success)?;
            le(
                "iunflag <= ichild",
                self.iunflag_success,
                self.ichild_success,
            )?;
            le(
                "mark + backtrack <= dflag",
                self.mark_success + self.backtrack_success,
                self.dflag_success,
            )?;
            le("dchild <= mark", self.dchild_success, self.mark_success)?;
            le(
                "dunflag <= dchild",
                self.dunflag_success,
                self.dchild_success,
            )?;
            le(
                "inserts_true + deletes_by_copy <= iflag",
                self.inserts_true + self.deletes_by_copy,
                self.iflag_success,
            )?;
            le(
                "deletes_true <= mark + deletes_by_copy",
                self.deletes_true,
                self.mark_success + self.deletes_by_copy,
            )?;
        } else {
            eq("iflag = ichild", self.iflag_success, self.ichild_success)?;
            eq(
                "ichild = iunflag",
                self.ichild_success,
                self.iunflag_success,
            )?;
            eq(
                "dflag = mark + backtrack",
                self.dflag_success,
                self.mark_success + self.backtrack_success,
            )?;
            eq("mark = dchild", self.mark_success, self.dchild_success)?;
            eq(
                "dchild = dunflag",
                self.dchild_success,
                self.dunflag_success,
            )?;
            eq(
                "ichild = inserts_true + deletes_by_copy",
                self.ichild_success,
                self.inserts_true + self.deletes_by_copy,
            )?;
            eq(
                "deletes_true = dchild + deletes_by_copy",
                self.deletes_true,
                self.dchild_success + self.deletes_by_copy,
            )?;
        }
        if self.iflag_success > self.iflag_attempts {
            return Err("iflag successes exceed attempts".into());
        }
        if self.dflag_success > self.dflag_attempts {
            return Err("dflag successes exceed attempts".into());
        }
        if self.mark_success > self.mark_attempts {
            return Err("mark successes exceed attempts".into());
        }
        Ok(())
    }

    /// Helping performed per completed update — the "conservative helping"
    /// metric of experiment T9.
    pub fn helps_per_update(&self) -> f64 {
        let updates = self.inserts + self.deletes;
        if updates == 0 {
            0.0
        } else {
            self.helps as f64 / updates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let s = TreeStats::default();
        s.finds.fetch_add(3, Ordering::Relaxed);
        s.iflag_success.fetch_add(2, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.finds, 3);
        assert_eq!(snap.iflag_success, 2);
    }

    #[test]
    fn figure4_accepts_consistent_counts() {
        let snap = StatsSnapshot {
            iflag_attempts: 5,
            iflag_success: 4,
            ichild_success: 4,
            iunflag_success: 4,
            inserts_true: 4,
            dflag_attempts: 4,
            dflag_success: 3,
            mark_attempts: 3,
            mark_success: 2,
            backtrack_success: 1,
            dchild_success: 2,
            dunflag_success: 2,
            deletes_true: 2,
            ..Default::default()
        };
        snap.check_figure4().unwrap();
    }

    #[test]
    fn figure4_counts_deletes_completed_by_leaf_copy_exactly() {
        // 4 inserts and 3 copy-deletes share the insertion circuit (7
        // ichild); 2 deletes splice their leaf out (2 dchild).
        let snap = StatsSnapshot {
            iflag_attempts: 7,
            iflag_success: 7,
            ichild_success: 7,
            iunflag_success: 7,
            inserts_true: 4,
            deletes_by_copy: 3,
            dflag_attempts: 2,
            dflag_success: 2,
            mark_attempts: 2,
            mark_success: 2,
            dchild_success: 2,
            dunflag_success: 2,
            deletes_true: 5,
            ..Default::default()
        };
        snap.check_figure4().unwrap();

        // One copy-delete too few or too many breaks both sums.
        let short = StatsSnapshot {
            deletes_by_copy: 2,
            ..snap
        };
        let err = short.check_figure4().unwrap_err();
        assert!(
            err.contains("ichild = inserts_true + deletes_by_copy"),
            "{err}"
        );
        let long = StatsSnapshot {
            inserts_true: 3,
            deletes_by_copy: 4,
            ..snap
        };
        let err = long.check_figure4().unwrap_err();
        assert!(
            err.contains("deletes_true = dchild + deletes_by_copy"),
            "{err}"
        );
    }

    #[test]
    fn figure4_rejects_unbalanced_insert_circuit() {
        let snap = StatsSnapshot {
            iflag_attempts: 2,
            iflag_success: 2,
            ichild_success: 1,
            ..Default::default()
        };
        let err = snap.check_figure4().unwrap_err();
        assert!(err.contains("iflag = ichild"), "{err}");
    }

    #[test]
    fn figure4_rejects_deletion_leak() {
        let snap = StatsSnapshot {
            dflag_attempts: 3,
            dflag_success: 3,
            mark_attempts: 3,
            mark_success: 1,
            backtrack_success: 1, // one DFlag never resolved
            dchild_success: 1,
            dunflag_success: 1,
            deletes_true: 1,
            ..Default::default()
        };
        let err = snap.check_figure4().unwrap_err();
        assert!(err.contains("dflag = mark + backtrack"), "{err}");
    }

    #[test]
    fn merge_adds_fieldwise_and_is_commutative() {
        let a = StatsSnapshot {
            finds: 10,
            iflag_success: 3,
            nodes_retired: 7,
            ..Default::default()
        };
        let b = StatsSnapshot {
            finds: 5,
            iflag_success: 2,
            helps: 4,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.finds, 15);
        assert_eq!(m.iflag_success, 5);
        assert_eq!(m.nodes_retired, 7);
        assert_eq!(m.helps, 4);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn merged_folds_many_and_preserves_figure4() {
        // Each per-shard snapshot satisfies the Figure-4 identities; the
        // identities are linear, so the merged snapshot must too.
        let shard = |n: u64| StatsSnapshot {
            iflag_attempts: n + 1,
            iflag_success: n,
            ichild_success: n,
            iunflag_success: n,
            inserts_true: n,
            dflag_attempts: n,
            dflag_success: n,
            mark_attempts: n,
            mark_success: n,
            dchild_success: n,
            dunflag_success: n,
            deletes_true: n,
            ..Default::default()
        };
        let parts: Vec<StatsSnapshot> = (1..=4).map(shard).collect();
        for p in &parts {
            p.check_figure4().unwrap();
        }
        let total = StatsSnapshot::merged(parts);
        assert_eq!(total.iflag_success, 1 + 2 + 3 + 4);
        assert_eq!(total.iflag_attempts, 2 + 3 + 4 + 5);
        total.check_figure4().unwrap();
    }

    #[test]
    fn merge_then_delta_round_trips() {
        let a = StatsSnapshot {
            finds: 9,
            deletes: 2,
            ..Default::default()
        };
        let b = StatsSnapshot {
            finds: 4,
            mark_success: 1,
            ..Default::default()
        };
        assert_eq!(a.merge(&b).delta(&b), a);
        assert_eq!(a.merge(&b).delta(&a), b);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = StatsSnapshot {
            finds: 10,
            helps: 4,
            ..Default::default()
        };
        let b = StatsSnapshot {
            finds: 3,
            helps: 1,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.finds, 7);
        assert_eq!(d.helps, 3);
    }

    #[test]
    fn helps_per_update_handles_zero() {
        assert_eq!(StatsSnapshot::default().helps_per_update(), 0.0);
        let s = StatsSnapshot {
            inserts: 2,
            deletes: 2,
            helps: 6,
            ..Default::default()
        };
        assert!((s.helps_per_update() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display_lists_every_counter() {
        let s = TreeStats::default().snapshot().to_string();
        assert!(s.contains("iflag_success"));
        assert!(s.contains("backtrack_success"));
        assert!(s.contains("helps"));
    }
}
