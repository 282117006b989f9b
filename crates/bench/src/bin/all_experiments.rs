//! Runs the complete evaluation: every figure and table in sequence.
//! CSVs land in `results/` (override with `--out`).
fn main() {
    let cfg = euler_bench::Config::from_args();
    println!(
        "=== euler-meets-gpu evaluation (scale 1/{}) ===\n",
        cfg.scale
    );
    euler_bench::experiments::table1::run(&cfg);
    euler_bench::experiments::prelim_rmq::run(&cfg);
    euler_bench::experiments::fig3::run(&cfg);
    euler_bench::experiments::fig4::run(&cfg);
    euler_bench::experiments::fig5::run(&cfg);
    euler_bench::experiments::fig6::run(&cfg);
    euler_bench::experiments::fig7_8::run(&cfg);
    euler_bench::experiments::fig9::run(&cfg);
    euler_bench::experiments::fig10::run(&cfg);
    euler_bench::experiments::fig11::run(&cfg);
    euler_bench::experiments::ext_bcc::run(&cfg);
    euler_bench::experiments::io_sweep::run(&cfg);
    euler_bench::experiments::mem_sweep::run(&cfg);
    euler_bench::experiments::sanitize_sweep::run(&cfg);
    euler_bench::experiments::scan_war::run(&cfg);
    euler_bench::experiments::qps_sweep::run(&cfg);
    euler_bench::experiments::chaos_sweep::run(&cfg);
    euler_bench::experiments::graph_audit::run(&cfg);
    println!(
        "=== evaluation complete; CSVs in {} ===",
        cfg.out_dir.display()
    );
}
