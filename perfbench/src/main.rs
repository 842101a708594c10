//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress and diagnostics, then as the last stdout line one JSON
//! object: `correct`, `attempted`, `failed` and the metrics (end-to-end
//! with `--trace 0`, per-layer with `--trace 1`).
//!
//! For the oracle-soundness tests only: `--map leaky|coarse` swaps the
//! map under test, and `--inject flip:N|abort:N|panic:N` injects a fault.

use std::process::ExitCode;

use perfbench::child::{self, ChildConfig, MapKind};
use perfbench::parent;
use perfbench::workload::{Workload, WORKLOADS};
use perfbench::Fault;

struct Args {
    cfg: ChildConfig,
    child: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut map, mut fault, mut child) = (MapKind::Default, None, false);
    while let Some(flag) = args.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--map" => map = MapKind::parse(&value).ok_or_else(bad)?,
            "--inject" => fault = Some(Fault::parse(&value).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let traced = traced.ok_or("--trace is required")?;
    if traced && (map != MapKind::Default || fault.is_some()) {
        return Err("--trace 1 runs only the default maps, without faults".into());
    }
    Ok(Args {
        cfg: ChildConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced,
            map,
            fault,
        },
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.child {
        child::run(&args.cfg);
        return ExitCode::SUCCESS;
    }
    match parent::run(&args.cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: could not run the measured process: {e}");
            ExitCode::FAILURE
        }
    }
}
