//! **F4** — regenerate the paper's Figure 4: the update-word state machine
//! and its CAS transitions.
//!
//! We stress the tree with a contended multithreaded workload while
//! counting every CAS type, then print the transition matrix and verify
//! the arithmetic identities the Figure 4 circuits imply (every insertion
//! circuit runs `iflag → ichild → iunflag` exactly once; every deletion
//! circuit resolves its `DFlag` by exactly one of `mark` or `backtrack`;
//! `mark = dchild = dunflag`).

use nbbst_core::NbBst;
use nbbst_harness::{prefill, run_for, OpMix, Table, WorkloadSpec};

fn main() {
    let args = nbbst_bench::ExpArgs::parse(500);
    nbbst_bench::banner("F4", "CAS state machine of the update word", "Figure 4");

    let tree: NbBst<u64, u64> = NbBst::with_stats();
    let spec = WorkloadSpec {
        key_range: args.key_range.unwrap_or(256), // small range = contention
        mix: OpMix::UPDATE_ONLY,
        dist: nbbst_harness::KeyDist::Uniform,
        prefill_fraction: 0.5,
        seed: 4,
    };
    prefill(&tree, &spec);
    let threads = args.threads.unwrap_or(8);
    let result = run_for(&tree, &spec, threads, args.duration());
    println!(
        "\nworkload: {spec} x {threads} threads for {:?} -> {:.3} Mops/s\n",
        args.duration(),
        result.mops()
    );

    let s = tree.stats().expect("stats enabled");

    let mut table = Table::new(&["transition (Figure 4 edge)", "CAS type", "successes"]);
    table.row(&["Clean -> IFlag", "iflag", &s.iflag_success.to_string()]);
    table.row(&[
        "child swing (leaf replaced)",
        "ichild",
        &s.ichild_success.to_string(),
    ]);
    table.row(&["IFlag -> Clean", "iunflag", &s.iunflag_success.to_string()]);
    table.row(&["Clean -> DFlag", "dflag", &s.dflag_success.to_string()]);
    table.row(&[
        "Clean -> Mark (child of flagged gp)",
        "mark",
        &s.mark_success.to_string(),
    ]);
    table.row(&[
        "child swing (delete)",
        "dchild",
        &s.dchild_success.to_string(),
    ]);
    table.row(&[
        "DFlag -> Clean (after dchild)",
        "dunflag",
        &s.dunflag_success.to_string(),
    ]);
    table.row(&[
        "DFlag -> Clean (mark failed)",
        "backtrack",
        &s.backtrack_success.to_string(),
    ]);
    println!("{table}");

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
