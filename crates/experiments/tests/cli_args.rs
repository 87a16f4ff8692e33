//! Figure binaries must fail loudly on arguments they do not understand
//! or cannot honour: a typoed or unsupported flag silently ignored means
//! hours of simulation at the wrong configuration.

use std::process::Command;

fn run(exe: &str, args: &[&str]) -> std::process::Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("run figure binary")
}

fn fig2(args: &[&str]) -> std::process::Output {
    run(env!("CARGO_BIN_EXE_fig2_switch_latency"), args)
}

#[test]
fn unknown_flag_exits_nonzero() {
    let out = fig2(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unrecognized option"), "stderr: {err}");
}

#[test]
fn malformed_jobs_value_exits_nonzero() {
    let out = fig2(&["--jobs", "many"]);
    assert_eq!(out.status.code(), Some(2));
    let out = fig2(&["--jobs"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_exits_zero_without_running() {
    let out = fig2(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs"), "usage must mention --jobs: {err}");
}

#[test]
fn flags_the_figure_cannot_honour_exit_nonzero() {
    const TRACED: &str = "fig9_heatmap, fig11_fullscale, fig12_bursty";
    const RESUMABLE: &str =
        "fig9_heatmap, fig10_distributions, fig11_fullscale, fig12_bursty, ablation";
    let fig10 = env!("CARGO_BIN_EXE_fig10_distributions");
    let fig13 = env!("CARGO_BIN_EXE_fig13_tc_allreduce");
    for (out, able) in [
        (fig2(&["--telemetry", "/tmp/x"]), TRACED),
        (fig2(&["--telemetry=/tmp/x"]), TRACED),
        (fig2(&["--trace-sample", "4"]), TRACED),
        (run(fig10, &["--tiny", "--telemetry", "/tmp/x"]), TRACED),
        (fig2(&["--resume"]), RESUMABLE),
        (run(fig13, &["--tiny", "--resume"]), RESUMABLE),
    ] {
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(able), "stderr must name {able}: {err}");
    }
}
