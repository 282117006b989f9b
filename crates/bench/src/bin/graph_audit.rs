//! Graph audit: launch-capture overhead, capture on vs off.
fn main() {
    let cfg = euler_bench::Config::from_args();
    euler_bench::experiments::graph_audit::run(&cfg);
}
