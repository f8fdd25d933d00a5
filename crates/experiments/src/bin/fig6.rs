//! Regenerates **Figure 6**: mean error of the wire-cut ⟨Z⟩ estimate vs
//! total shots for f(Φk) ∈ {0.5, …, 1.0}, averaged over Haar-random
//! states. `--quick` runs a reduced-scale variant.

use experiments::fig6::{run, Fig6Config};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        Fig6Config {
            num_states: 100,
            ..Fig6Config::default()
        }
    } else {
        Fig6Config::default()
    };
    eprintln!(
        "fig6: {} states x {} overlaps x {} checkpoints ({} threads)",
        config.num_states,
        config.overlaps.len(),
        config.shot_checkpoints.len(),
        if config.threads == 0 {
            qsample::default_threads()
        } else {
            config.threads
        },
    );
    let start = std::time::Instant::now();
    let result = run(&config);
    eprintln!("fig6: done in {:.2?}", start.elapsed());
    let table = result.to_table();
    println!("{}", table.to_pretty());
    let path = experiments::results_dir().join("fig6_error_vs_shots.csv");
    table.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());
    println!(
        "ordering check (error decreases with entanglement at max shots): {}",
        result.final_errors_ordered_by_entanglement()
    );
}
