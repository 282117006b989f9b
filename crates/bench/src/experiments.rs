//! One module per regenerated table/figure. Every module exposes
//! `run(cfg: &Config)` which prints the paper-style rows and writes a CSV.

pub mod chaos_sweep;
pub mod ext_bcc;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7_8;
pub mod fig9;
pub mod graph_audit;
pub mod io_sweep;
pub mod mem_sweep;
pub mod prelim_rmq;
pub mod qps_sweep;
pub mod sanitize_sweep;
pub mod scan_war;
pub mod table1;

pub(crate) mod lca_common;
