//! **F4** — regenerate the paper's Figure 4: the update-word state machine
//! and its CAS transitions.
//!
//! We stress the tree with a contended multithreaded workload while
//! counting every CAS type, then print the transition matrix and verify
//! the arithmetic identities the Figure 4 circuits imply (every insertion
//! circuit runs `iflag → ichild → iunflag` exactly once; every deletion
//! circuit resolves its `DFlag` by exactly one of `mark` or `backtrack`;
//! `mark = dchild = dunflag`).
//!
//! The tree has one key per leaf, the paper's tree, so that every
//! successful delete runs the deletion circuit. The binary exits non-zero
//! if any edge of that circuit (`dflag`, `mark`, `dchild`, `dunflag`) was
//! never taken, since its identities would then hold vacuously. Only
//! `backtrack`, which needs a mark CAS to lose a race, may stay at zero.
//! The run is not timed; `perfbench` measures rates.

use nbbst_core::NbBst;
use nbbst_harness::{prefill, run_for, KeyDist, OpMix, WorkloadSpec};
use std::time::Duration;

/// A small key range, so that updates contend.
const KEY_RANGE: u64 = 256;
const THREADS: usize = 8;
const DURATION: Duration = Duration::from_millis(500);

fn main() {
    nbbst_bench::banner("F4", "CAS state machine of the update word", "Figure 4");

    let tree: NbBst<u64, u64> = NbBst::with_stats().one_key_leaves();
    let spec = WorkloadSpec {
        key_range: KEY_RANGE,
        mix: OpMix::UPDATE_ONLY,
        dist: KeyDist::Uniform,
        prefill_fraction: 0.5,
        seed: 4,
    };
    prefill(&tree, &spec);
    let result = run_for(&tree, &spec, THREADS, DURATION);
    println!(
        "\nworkload: {spec} x {THREADS} threads for {DURATION:?} -> {} operations\n",
        result.total_ops
    );

    let s = tree.stats().expect("stats enabled");

    let transitions = [
        ("Clean -> IFlag", "iflag", s.iflag_success),
        ("child swing (leaf replaced)", "ichild", s.ichild_success),
        ("IFlag -> Clean", "iunflag", s.iunflag_success),
        ("Clean -> DFlag", "dflag", s.dflag_success),
        (
            "Clean -> Mark (child of flagged gp)",
            "mark",
            s.mark_success,
        ),
        ("child swing (delete)", "dchild", s.dchild_success),
        (
            "DFlag -> Clean (after dchild)",
            "dunflag",
            s.dunflag_success,
        ),
        (
            "DFlag -> Clean (mark failed)",
            "backtrack",
            s.backtrack_success,
        ),
    ];
    println!(
        "{:<35}  {:>9}  {:>10}",
        "transition (Figure 4 edge)", "CAS type", "successes"
    );
    for (edge, cas, successes) in transitions {
        println!("{edge:<35}  {cas:>9}  {successes:>10}");
    }
    println!();

    println!("attempt/success rates:");
    println!(
        "  iflag {}/{}  dflag {}/{}  mark {}/{}",
        s.iflag_success,
        s.iflag_attempts,
        s.dflag_success,
        s.dflag_attempts,
        s.mark_success,
        s.mark_attempts
    );
    println!(
        "helping: {} Help() calls ({} help_insert, {} help_delete, {} help_marked); {:.4} helps/update",
        s.helps, s.help_insert_calls, s.help_delete_calls, s.help_marked_calls,
        s.helps_per_update()
    );

    s.check_figure4().expect("Figure 4 identities");
    tree.check_invariants().expect("structural invariants");
    let untaken: Vec<&str> = transitions
        .iter()
        .filter(|&&(_, cas, successes)| successes == 0 && cas != "backtrack")
        .map(|&(_, cas, _)| cas)
        .collect();
    if !untaken.is_empty() {
        eprintln!("F4 vacuous: no successful {untaken:?} CAS in this run");
        std::process::exit(1);
    }
    println!("\nF4 verified: all observed transitions satisfy the Figure 4 circuit identities:");
    println!(
        "  iflag = ichild = iunflag            ({} each)",
        s.iflag_success
    );
    println!(
        "  dflag = mark + backtrack            ({} = {} + {})",
        s.dflag_success, s.mark_success, s.backtrack_success
    );
    println!(
        "  mark = dchild = dunflag             ({} each)",
        s.mark_success
    );
    println!(
        "  ichild = inserts + copy-deletes     ({} = {} + {})",
        s.ichild_success, s.inserts_true, s.deletes_by_copy
    );
    println!(
        "  deletes = dchild + copy-deletes     ({} = {} + {})",
        s.deletes_true, s.dchild_success, s.deletes_by_copy
    );
}
