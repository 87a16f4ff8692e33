//! # slingshot-experiments
//!
//! The experiment harness reproducing every table and figure of the paper's
//! evaluation. Each `figN` module exposes a [`Figure`] whose `run`
//! computes the rows/series the paper reports and whose `render` prints
//! them; the `src/bin/figN_*.rs` binaries and `all_figures` run them
//! through [`driver::drive`], which drops JSON under `results/`.
//!
//! Every figure that drives an MPI engine describes its simulation as a
//! [`run::Run`] and simulates it with [`run::execute`].
//!
//! Sweeps fan their independent simulation points across worker threads
//! (see [`runner`]); pass `--jobs N` to any binary. Output is
//! bit-identical at every thread count because each point seeds its own
//! engine and aggregation order is fixed.

#![warn(missing_docs)]

pub mod ablation;
pub mod cache;
pub mod congestion;
pub mod driver;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod report;
pub mod resilience;
pub mod run;
pub mod runner;
pub mod scale;
pub mod telemetry;

pub use cache::SweepCache;
pub use congestion::{default_victims, machine_for, run_identity, run_pair, Cell, Victim};
pub use driver::Figure;
pub use runner::{CellFailure, CellMeta, Outcome};
pub use scale::{RunConfig, Scale};
