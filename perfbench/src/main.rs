//! `lpomp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs whole untraced passes over the workload's cells for `--seconds`
//! (at least one pass) and prints the end-to-end metrics as medians over
//! the passes. With `--trace 1` it runs one untraced and one
//! traced pass plus the layer microbenchmarks, prints the per-layer
//! metrics and the reconciliation ledger, and writes the spans as Chrome
//! `trace_event` JSON under `out/`. The last line of standard output is
//! the result as one JSON object. `--record` re-records the class-W
//! reference instead.

use std::process::exit;
use std::time::{Duration, Instant};

use lpomp_npb::Class;
use lpomp_perfbench::cells::{record_reference, run_pass, Pass, PassOpts, Workload};
use lpomp_perfbench::gate::Reference;
use lpomp_perfbench::report::{self, PER_LAYER};
use lpomp_perfbench::span::Probe;
use lpomp_perfbench::{median, micro, out_dir, reference_path, Stamp};

/// Bring-ups per cell; `setup_s` takes the median.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: lpomp-perfbench --workload <cycle-4k|cycle-2m|analytic|daemons> \
                     --seed <n> --seconds <s> --trace <0|1>\n       lpomp-perfbench --record";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    }))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

fn print_failures(label: &str, p: &Pass) {
    for c in &p.cells {
        match &c.error {
            Some(e) => println!("FAILED {label} {}: {e}", c.id),
            None => println!("ok     {label} {}", c.id),
        }
    }
}

fn print_ledger(w: Workload, p: &Pass, micro: &std::collections::BTreeMap<String, f64>) {
    let engine = if w == Workload::Analytic {
        "capture_profile"
    } else {
        "Kernel::run"
    };
    println!(
        "\nreconciliation ({}): count x ns/op per layer vs host time in {engine}",
        w.name()
    );
    println!(
        "  {:<14} {:<30} {:>16} {:>10} {:>11}",
        "layer", "operation", "count", "ns/op", "predicted s"
    );
    let rows = report::ledger(&p.engine_cells, micro);
    for r in &rows {
        println!(
            "  {:<14} {:<30} {:>16.0} {:>10.2} {:>11.4}",
            r.layer,
            r.what,
            r.ops,
            r.ns_per_op,
            r.seconds()
        );
    }
    let predicted = report::predicted(&p.engine_cells, micro);
    let residual = p.engine_s - predicted;
    println!(
        "  predicted {predicted:.4} s, measured {:.4} s, residual {residual:.4} s ({:.1}%)",
        p.engine_s,
        100.0 * residual / p.engine_s.max(1e-12)
    );
    println!("  per cell (measured {engine} vs predicted):");
    for c in &p.engine_cells {
        let pred = report::predicted(std::slice::from_ref(c), micro);
        println!(
            "    {:<44} measured {:>8.4} s  predicted {:>8.4} s  residual {:>6.1}%",
            c.id,
            c.run_s,
            pred,
            100.0 * (c.run_s - pred) / c.run_s.max(1e-12)
        );
    }
}

fn main() {
    lpomp_perfbench::pin_mmap_threshold();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            let r = record_reference(Class::W).unwrap_or_else(|e| fail(&e));
            let stamp = Stamp::new("W", 0);
            let header = format!(
                "Simulated outputs of every benchmark cell at class W, compared exactly.\n\
                 Recorded at git {} with {}; regenerate with `--record`.",
                stamp.rev, stamp.rustc
            );
            std::fs::write(reference_path(), r.render(&header))
                .unwrap_or_else(|e| fail(&format!("writing the reference: {e}")));
            println!("wrote {} ({} cells)", reference_path().display(), r.len());
            return;
        }
        Err(e) => fail(&format!("{e}\n{USAGE}")),
    };
    let src = std::fs::read_to_string(reference_path())
        .unwrap_or_else(|e| fail(&format!("reading {}: {e}", reference_path().display())));
    let reference = Reference::parse(&src).unwrap_or_else(|e| fail(&format!("reference: {e}")));
    let w = args.workload;
    let stamp = Stamp::new("W", args.seed);
    let stamp_line: Vec<String> = stamp
        .pairs()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# perfbench workload={} {}", w.name(), stamp_line.join(" "));
    let out = out_dir();
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| fail(&format!("creating {}: {e}", out.display())));
    let scratch = out.join(format!("store-{}-{}", w.name(), std::process::id()));
    let o = PassOpts {
        class: Class::W,
        seed: args.seed,
        setup_reps: SETUP_REPS,
        reference: &reference,
        scratch: &scratch,
    };

    // Untraced passes: whole passes, at least one, and another only while
    // it is expected to end within `--seconds`.
    let (started, budget) = (Instant::now(), Duration::from_secs(args.seconds));
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let t = Instant::now();
        let p = run_pass(w, &o, &mut Probe::new(false));
        print_failures(&format!("pass{}", passes.len() + 1), &p);
        passes.push(p);
        if args.trace || started.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let e2e = report::end_to_end(&passes);
    println!(
        "\nend-to-end ({} untraced pass(es), medians):",
        passes.len()
    );
    for &(name, v) in &e2e {
        let d = report::def(name).expect("defined");
        println!("  {name:<18} {v:>12.4} {:<7} {}", d.unit, d.feeds);
    }
    if w == Workload::Analytic {
        let us = &passes[0].evals_us;
        let max = us.iter().copied().fold(0.0, f64::max);
        println!(
            "  class-W evaluations: {} warm, p50 {:.2} us, max {max:.2} us; worst xval error \
             time {:.2}%, dtlb {:.2}%",
            us.len(),
            median(us),
            passes[0].xval_pct[0],
            passes[0].xval_pct[1]
        );
    }
    let mut attempted: usize = passes.iter().map(Pass::attempted).sum();
    let mut failed: usize = passes.iter().map(Pass::failed).sum();

    let metrics: Vec<(&str, f64)> = if args.trace {
        let mut probe = Probe::new(true);
        let traced = run_pass(w, &o, &mut probe);
        print_failures("traced", &traced);
        attempted += traced.attempted();
        failed += traced.failed();
        let micro = micro::run_all(args.seed, 1.0);
        let layer = report::per_layer(&passes[0], &traced, &probe, &micro);
        print_ledger(w, &passes[0], &micro);
        let names: Vec<String> = traced.cells.iter().map(|c| c.id.clone()).collect();
        let mut meta = stamp.pairs();
        meta.push(("workload", w.name().to_owned()));
        let path = out.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        match std::fs::write(&path, probe.to_chrome_json(&names, &meta)) {
            Ok(()) => println!(
                "\nspans: {} ({} spans)",
                path.display(),
                probe.spans().len()
            ),
            Err(e) => println!("\nspans: could not write {}: {e}", path.display()),
        }
        println!("\nper-layer ({}):", w.name());
        PER_LAYER
            .iter()
            .map(|d| {
                let v = layer
                    .get(d.name)
                    .copied()
                    .unwrap_or_else(|| panic!("per-layer metric {} was not computed", d.name));
                println!("  {:<28} {v:>14.4} {:<6} feeds {}", d.name, d.unit, d.feeds);
                (d.name, v)
            })
            .collect()
    } else {
        e2e
    };
    println!("{}", report::result_json(attempted, failed, &metrics));
}
