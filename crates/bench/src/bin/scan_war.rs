//! Scan war: launch counts and modeled memory traffic of the two-pass
//! scan core and the pipelines built on it (host-independent).
fn main() {
    let cfg = euler_bench::Config::from_args();
    euler_bench::experiments::scan_war::run(&cfg);
}
