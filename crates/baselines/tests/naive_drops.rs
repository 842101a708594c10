//! Every value the naive tree is handed or clones is dropped exactly once:
//! through one-shot updates, the Figure 3(b) and 3(c) schedules (which
//! unlink nodes that stay referenced by nothing), a failed insert commit and
//! a prepared insert that is dropped without a commit.

use nbbst_baselines::naive::{CommitOutcome, NaiveBst};
use std::cell::RefCell;
use std::rc::Rc;

/// `drops[id]` counts the drops of the value with that id; each clone gets
/// a fresh id.
type Ledger = Rc<RefCell<Vec<u32>>>;

#[derive(Debug)]
struct Counted {
    id: usize,
    ledger: Ledger,
}

impl Counted {
    fn new(ledger: &Ledger) -> Counted {
        let mut drops = ledger.borrow_mut();
        drops.push(0);
        Counted {
            id: drops.len() - 1,
            ledger: Rc::clone(ledger),
        }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Counted {
        Counted::new(&self.ledger)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.ledger.borrow_mut()[self.id] += 1;
    }
}

// Figure 3 letters as keys: A=10, C=30, E=50, F=60, H=80.
fn figure3_tree(ledger: &Ledger) -> NaiveBst<u64, Counted> {
    let t = NaiveBst::new();
    for k in [10, 30, 50, 80] {
        assert!(t.insert(k, Counted::new(ledger)));
    }
    t
}

#[test]
fn every_value_is_dropped_exactly_once() {
    let ledger = Ledger::default();

    // One-shot remove, then Figure 3(b): Delete(C) || Delete(E).
    let t = figure3_tree(&ledger);
    assert!(t.remove(&10));
    let del_c = t.prepare_delete(&30).unwrap();
    let del_e = t.prepare_delete(&50).unwrap();
    assert!(matches!(del_e.commit(), CommitOutcome::Applied));
    assert!(matches!(del_c.commit(), CommitOutcome::Applied));
    assert!(t.contains(&50), "the Figure 3(b) anomaly still reproduces");
    // A prepared insert dropped without a commit, and one whose CAS fails.
    drop(t.prepare_insert(70, Counted::new(&ledger)).unwrap());
    let first = t.prepare_insert(20, Counted::new(&ledger)).unwrap();
    let second = t.prepare_insert(25, Counted::new(&ledger)).unwrap();
    assert!(matches!(first.commit(), CommitOutcome::Applied));
    assert!(matches!(
        second.commit(),
        CommitOutcome::CasFailed(Some((25, _)))
    ));
    drop(t);

    // Figure 3(c): Delete(E) || Insert(F).
    let t = figure3_tree(&ledger);
    let del_e = t.prepare_delete(&50).unwrap();
    let ins_f = t.prepare_insert(60, Counted::new(&ledger)).unwrap();
    assert!(matches!(ins_f.commit(), CommitOutcome::Applied));
    assert!(matches!(del_e.commit(), CommitOutcome::Applied));
    assert!(!t.contains(&60), "the Figure 3(c) anomaly still reproduces");
    drop(t);

    let drops = ledger.borrow();
    let wrong: Vec<(usize, u32)> = drops
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, n)| n != 1)
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} values not dropped exactly once: (id, drops) {wrong:?}",
        wrong.len(),
        drops.len()
    );
}
