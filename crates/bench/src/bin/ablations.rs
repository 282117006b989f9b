//! Ablations: the paper's §2.2 and §3.1 design claims, each timed with the
//! paper's figure, the measured ratio and a verdict.
fn main() {
    let cfg = euler_bench::Config::from_args();
    euler_bench::experiments::ablations::run(&cfg);
}
