//! `reproduce [--full] [--stats-json <path>] [id…]` — regenerates the
//! paper's evaluation from [`bench::experiments::FIGURES`]: each selected
//! figure's series is printed as a table and written to `results/<name>.csv`,
//! and a paper-vs-measured summary closes the run — the data source for
//! EXPERIMENTS.md.
//!
//! Without ids the simulator-side evaluation (Figs. 6–13) runs; `fig13_live`,
//! `fig13_live_tcp` and `ablation` run when named. `--full` (or
//! `AUTOSEL_SCALE=1.0`) selects the paper's full 100 000-node populations;
//! `--stats-json` streams one JSON line per tracked simulator query.

use std::path::Path;

use bench::experiments::{Figure, Selection, FIGURES};
use bench::{parse_scale, RunContext};

fn usage_error(why: &str) -> ! {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    eprintln!("reproduce: {why}");
    eprintln!(
        "usage: reproduce [--full] [--stats-json <path>] [id…]   ids: {}",
        ids.join(" ")
    );
    std::process::exit(2);
}

fn main() -> std::io::Result<()> {
    let mut full = false;
    let mut selected: Vec<&Figure> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--stats-json" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| usage_error("--stats-json requires a path"));
                bench::stats_json::init(&path)?;
            }
            id => match FIGURES.iter().find(|f| f.id == id) {
                Some(figure) => selected.push(figure),
                None => usage_error(&format!("unknown figure id {id:?}")),
            },
        }
    }
    if selected.is_empty() {
        selected = FIGURES
            .iter()
            .filter(|f| f.selection == Selection::Default)
            .collect();
    }
    // `--full` means the paper's sizes, whatever AUTOSEL_SCALE was exported.
    let scale = if full {
        1.0
    } else {
        parse_scale(std::env::var("AUTOSEL_SCALE").ok().as_deref())
            .unwrap_or_else(|why| usage_error(&why))
    };
    let ctx = RunContext { scale };
    ctx.print_table1();

    let mut summary = Vec::new();
    for figure in selected {
        eprintln!("[{}] {}…", figure.id, figure.title);
        let outcome = (figure.run)(&ctx);
        println!(
            "\n## {} — {}\n## paper: {}",
            figure.id, figure.title, figure.claim
        );
        for table in &outcome.tables {
            table.write_csv(Path::new("results"))?;
            print!("{}", table.to_text());
        }
        summary.push(format!(
            "{:<15} {}   measured: {}",
            figure.id, figure.headline, outcome.measured
        ));
    }
    println!(
        "\n== paper vs. measured (series in results/*.csv) ==\n{}",
        summary.join("\n")
    );
    Ok(())
}
