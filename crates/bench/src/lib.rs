//! Shared scaffolding for the figure binaries, which regenerate the
//! paper's Figures 1–6 (DESIGN.md §5, EXPERIMENTS.md).

/// Prints the standard figure banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("  paper: {paper_ref}");
    println!(
        "  host: {} hardware thread(s)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!("==============================================================");
}
