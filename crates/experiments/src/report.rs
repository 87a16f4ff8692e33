//! Reporting utilities: aligned console tables and JSON result dumps.

use crate::runner::CellFailure;
use crate::RunConfig;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>w$}", w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Directory where experiment binaries drop their JSON results.
pub fn results_dir() -> PathBuf {
    std::env::var_os("SLINGSHOT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Serialize `value` to `results/<name>.json` (best-effort: failures are
/// reported, not fatal — the console table is the primary output).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path: PathBuf = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("results written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: serialize {name}: {e}"),
    }
}

/// Format a fraction as `x.yz` multiplier ("congestion impact").
pub fn fmt_impact(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Format bytes with binary units (8B, 128KiB, 4MiB).
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 && b.is_multiple_of(1 << 10) {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// The epilogue every figure binary calls last, once all of its
/// networks (telemetry re-runs included) have been simulated and dropped:
/// under `--verbose`, print and save the process-global kernel counters;
/// then report failed cells and exit 1 if there were any.
pub fn finish(cfg: &RunConfig, name: &str, failures: &[CellFailure]) {
    if cfg.verbose {
        print_kernel_stats();
        save_kernel_stats(name);
    }
    if report_failures(name, failures) {
        std::process::exit(1);
    }
}

/// Print the process-global simulation-kernel counters to stderr.
/// Stderr keeps figure stdout byte-comparable across runs whose wall time
/// differs.
fn print_kernel_stats() {
    let (k, networks) = slingshot_network::global_kernel_stats();
    eprintln!();
    eprintln!("kernel counters ({networks} networks simulated):");
    eprintln!("  events dispatched      {:>16}", k.events_total());
    eprintln!("    nic-tx               {:>16}", k.events_nic_tx);
    eprintln!("    arrive-switch        {:>16}", k.events_arrive_switch);
    eprintln!("    enqueue-out          {:>16}", k.events_enqueue_out);
    eprintln!("    tx-done              {:>16}", k.events_tx_done);
    eprintln!("    credit               {:>16}", k.events_credit);
    eprintln!("    arrive-nic           {:>16}", k.events_arrive_nic);
    eprintln!("    ack                  {:>16}", k.events_ack);
    eprintln!("    loopback             {:>16}", k.events_loopback);
    eprintln!("    wakeup               {:>16}", k.events_wakeup);
    eprintln!("    fault                {:>16}", k.events_fault);
    eprintln!("    e2e-timeout          {:>16}", k.events_e2e_timeout);
    eprintln!("  routing decisions      {:>16}", k.routing_decisions);
    eprintln!("    minimal              {:>16}", k.adaptive_minimal);
    eprintln!("    non-minimal          {:>16}", k.adaptive_nonminimal);
    eprintln!("  next-hop lookups       {:>16}", k.next_hop_lookups);
    eprintln!("  route heals            {:>16}", k.route_heals);
    eprintln!("  llr replays            {:>16}", k.llr_replays);
    eprintln!("  llr escalations        {:>16}", k.llr_escalations);
    eprintln!("  e2e retransmits        {:>16}", k.e2e_retransmits);
    eprintln!("  packets dropped        {:>16}", k.packets_dropped);
    eprintln!("  event-queue high water {:>16}", k.queue_hwm);
}

/// Persist the process-global kernel counters as
/// `results/<name>_kernelstats.json`, the machine-readable companion to
/// [`print_kernel_stats`], so perf investigations can diff counter totals
/// across runs without scraping stderr.
fn save_kernel_stats(name: &str) {
    #[derive(Serialize)]
    struct KernelStatsFile {
        /// Networks simulated by this process (counters are summed over
        /// all of them).
        networks: u64,
        stats: slingshot_network::KernelStats,
    }
    let (stats, networks) = slingshot_network::global_kernel_stats();
    save_json(
        &format!("{name}_kernelstats"),
        &KernelStatsFile { networks, stats },
    );
}

/// Print failed sweep cells as an error table, persist them to
/// `results/<name>_errors.json`, and return whether there were any.
/// Fault-free sweeps print nothing and write nothing, so the primary
/// `<name>.json` stays byte-identical to the pre-quarantine harness.
fn report_failures(name: &str, failures: &[CellFailure]) -> bool {
    if failures.is_empty() {
        return false;
    }
    println!();
    println!("FAILED CELLS ({})", failures.len());
    let mut t = Table::new(["cell", "seed", "error"]);
    for f in failures {
        t.row([f.cell.clone(), f.seed.to_string(), f.error.clone()]);
    }
    t.print();
    for f in failures {
        if let Some(stall) = &f.stall {
            eprintln!("stall diagnosis for {} (seed {}):", f.cell, f.seed);
            eprintln!("{stall}");
        }
    }
    save_json(&format!("{name}_errors"), &failures);
    true
}

/// Check whether `path` exists under the results dir (test helper).
pub fn result_exists(name: &str) -> bool {
    Path::new(&results_dir())
        .join(format!("{name}.json"))
        .exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["size", "impact"]);
        t.row(["8B", "1.00"]);
        t.row(["128KiB", "46.2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("size"));
        assert!(lines[2].ends_with("1.00"));
        // Columns right-aligned to equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(8), "8B");
        assert_eq!(fmt_bytes(128 << 10), "128KiB");
        assert_eq!(fmt_bytes(4 << 20), "4MiB");
        assert_eq!(fmt_bytes(1000), "1000B");
    }

    #[test]
    fn impact_formatting() {
        assert_eq!(fmt_impact(1.0), "1.00");
        assert_eq!(fmt_impact(46.2), "46.2");
        assert_eq!(fmt_impact(154.0), "154");
    }
}
