//! The per-worker oracle: the exact result each operation must return.
//!
//! Worker `t` is the only writer of the keys it owns (see
//! [`Owner`](crate::workload::Owner)), so the expected answer for every
//! operation on them is exact. A mismatch is one failed operation; the
//! oracle then resyncs that key to what the map returned, so one lost or
//! phantom key is counted once, not on every later touch.

use crate::workload::{Kind, Op, SCAN_KEYS};

/// Ownership and presence bits over the whole key space, for one worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Oracle {
    /// Size of the key space.
    keys: u64,
    owned: Vec<u64>,
    present: Vec<u64>,
}

fn bit(bits: &[u64], key: u64) -> bool {
    bits[(key / 64) as usize] >> (key % 64) & 1 == 1
}

fn set_bit(bits: &mut [u64], key: u64, on: bool) {
    let (w, b) = ((key / 64) as usize, key % 64);
    bits[w] = (bits[w] & !(1 << b)) | ((on as u64) << b);
}

impl Oracle {
    /// The oracle of the worker owning `owned` after `prefill` was
    /// inserted into an empty map over `keys` keys.
    pub fn new(keys: u64, owned: &[u64], prefill: &[u64]) -> Oracle {
        let words = keys.div_ceil(64) as usize;
        let mut o = Oracle {
            keys,
            owned: vec![0; words],
            present: vec![0; words],
        };
        for &k in owned {
            set_bit(&mut o.owned, k, true);
        }
        for &k in prefill {
            if o.owns(k) {
                o.set(k, true);
            }
        }
        o
    }

    /// Whether this worker owns `key`.
    pub fn owns(&self, key: u64) -> bool {
        key < self.keys && bit(&self.owned, key)
    }

    /// Whether the oracle expects `key` (owned by this worker) present.
    pub fn get(&self, key: u64) -> bool {
        bit(&self.present, key)
    }

    fn set(&mut self, key: u64, present: bool) {
        set_bit(&mut self.present, key, present);
    }

    /// Checks a point operation's result; returns `false` on a mismatch.
    pub fn check_point(&mut self, op: Op, got: bool) -> bool {
        let present = self.get(op.key);
        // What the map's answer says the key's state is afterwards.
        let (expected, after) = match op.kind {
            Kind::Find => (present, got),
            Kind::Insert => (!present, true),
            Kind::Delete => (present, false),
            Kind::Scan => unreachable!("scans are checked by check_scan"),
        };
        self.set(op.key, after);
        got == expected
    }

    /// Checks the result of a scan over `lo ..= lo + SCAN_KEYS - 1`: every
    /// returned key is in bounds, strictly ascending and maps to itself,
    /// and the owned keys returned are exactly the oracle's. Returns
    /// `false` on a mismatch.
    pub fn check_scan(&mut self, lo: u64, got: &[(u64, u64)]) -> bool {
        let hi = lo + SCAN_KEYS - 1;
        let well_formed = got.windows(2).all(|w| w[0].0 < w[1].0)
            && got.iter().all(|&(k, v)| (lo..=hi).contains(&k) && v == k);
        let owned: Vec<u64> = got
            .iter()
            .map(|&(k, _)| k)
            .filter(|&k| self.owns(k))
            .collect();
        let mut owned = owned.into_iter().peekable();
        let mut matches = true;
        for k in lo..=hi.min(self.keys - 1) {
            if !self.owns(k) {
                continue;
            }
            let returned = owned.next_if_eq(&k).is_some();
            matches &= returned == self.get(k);
            self.set(k, returned);
        }
        // An owned key left over is out of order or out of the key space.
        well_formed && matches && owned.next().is_none()
    }

    /// Owned keys the oracle expects present, ascending.
    pub fn present(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.keys).filter(|&k| self.owns(k) && self.get(k))
    }
}

/// Compares a map's final contents with the union of the oracles; returns
/// how many keys differ (missing, extra, duplicated or with a wrong value).
pub fn audit_contents(oracles: &[Oracle], entries: &[(u64, u64)]) -> usize {
    let mut expected: Vec<u64> = oracles.iter().flat_map(Oracle::present).collect();
    expected.sort_unstable();
    let (mut i, mut j, mut bad) = (0, 0, 0);
    while i < expected.len() || j < entries.len() {
        match (expected.get(i), entries.get(j)) {
            (Some(&e), Some(&(k, v))) if e == k => {
                bad += usize::from(v != k);
                i += 1;
                j += 1;
            }
            (Some(&e), Some(&(k, _))) if e < k => {
                bad += 1;
                i += 1;
            }
            (Some(_), None) => {
                bad += 1;
                i += 1;
            }
            _ => {
                bad += 1;
                j += 1;
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: Kind, key: u64) -> Op {
        Op { kind, key }
    }

    /// The oracle of the worker owning the keys `≡ worker (mod 2)`.
    fn parity(worker: u64, keys: u64, prefill: &[u64]) -> Oracle {
        let owned: Vec<u64> = (worker..keys).step_by(2).collect();
        Oracle::new(keys, &owned, prefill)
    }

    #[test]
    fn point_results_follow_the_owned_state() {
        let mut o = parity(1, 64, &[3, 4, 5]);
        assert!(o.get(3) && o.get(5) && !o.get(7));
        assert!(o.check_point(op(Kind::Find, 3), true));
        assert!(o.check_point(op(Kind::Insert, 7), true));
        assert!(o.check_point(op(Kind::Insert, 7), false));
        assert!(o.check_point(op(Kind::Delete, 3), true));
        assert!(o.check_point(op(Kind::Find, 3), false));
        assert!(!o.check_point(op(Kind::Delete, 3), true), "phantom delete");
        // Resynced to the map's answer: the key is now absent either way.
        assert!(o.check_point(op(Kind::Insert, 3), true));
        assert!(!o.check_point(op(Kind::Find, 9), true), "phantom find");
        assert!(o.check_point(op(Kind::Find, 9), true), "counted once");
    }

    #[test]
    fn scans_check_owned_keys_bounds_and_order() {
        let mut o = parity(0, 256, &[2, 4, 70]);
        // Keys of the other worker (odd) are unchecked but must be in
        // bounds and ordered.
        assert!(o.check_scan(0, &[(2, 2), (3, 3), (4, 4)]));
        assert!(!o.check_scan(0, &[(2, 2)]), "owned key 4 missing");
        assert!(!o.get(4), "resynced to the scan's answer");
        assert!(!o.check_scan(0, &[(2, 2), (4, 4)]), "owned key 4 phantom");
        assert!(o.check_scan(0, &[(2, 2), (4, 4)]));
        assert!(!o.check_scan(0, &[(4, 4), (2, 2)]), "unsorted");
        assert!(!o.check_scan(0, &[(2, 2), (2, 2), (4, 4)]), "duplicate");
        assert!(!o.check_scan(0, &[(2, 2), (4, 5)]), "wrong value");
        assert!(
            !o.check_scan(0, &[(2, 2), (4, 4), (64, 64)]),
            "out of bounds"
        );
        assert!(o.check_scan(10, &[(63, 63), (70, 70)]));
        assert!(o.check_scan(250, &[]), "range past the key space");
    }

    #[test]
    fn audit_counts_every_differing_key() {
        let a = parity(0, 16, &[0, 2, 4]);
        let b = parity(1, 16, &[1, 9]);
        let good = [(0, 0), (1, 1), (2, 2), (4, 4), (9, 9)];
        assert_eq!(audit_contents(&[a.clone(), b.clone()], &good), 0);
        let bad = [(0, 0), (2, 3), (3, 3), (4, 4), (4, 4)];
        // 1 missing, 2 wrong value, 3 extra, 4 duplicated, 9 missing.
        assert_eq!(audit_contents(&[a, b], &bad), 5);
    }
}
