//! Fig. 8 — Tailbench request-latency distributions with and without
//! endpoint congestion, Aries vs Slingshot.
//!
//! Linear allocation, 10 %/90 % victim/aggressor split, incast aggressor.
//! The paper: severe degradation for Silo, Xapian and Img-dnn on Aries,
//! none on Slingshot; Sphinx degrades less because its communication to
//! computation ratio is tiny; tails (95p/99p) stretch most on Aries.

use crate::congestion::{machine_for, WARMUP};
use crate::report::Table;
use crate::run::{execute, Run, Stop};
use crate::runner::{self, CellMeta, Outcome};
use crate::scale::Scale;
use crate::{driver::Figure, SweepCache};
use serde::Serialize;
use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::SimTime;
use slingshot_mpi::{Job, ProtocolStack};
use slingshot_network::SimError;
use slingshot_stats::Sample;
use slingshot_topology::{Allocation, AllocationPolicy};

/// Placement: the paper uses linear on its 698/1024-node systems, where a
/// 10 % victim still spans many switches that aggressor traffic co-injects
/// into. On scaled-down machines a linear split degenerates into perfect
/// victim/aggressor isolation, so sub-paper scales use interleaved
/// placement to preserve the sharing structure.
fn placement(scale: Scale) -> AllocationPolicy {
    match scale {
        Scale::Paper => AllocationPolicy::Linear,
        _ => AllocationPolicy::Interleaved,
    }
}
use slingshot_workloads::{Congestor, TailApp};

/// One panel entry.
#[derive(Clone, Debug, Serialize)]
pub struct Fig8Row {
    /// Application.
    pub app: &'static str,
    /// Network profile name.
    pub profile: &'static str,
    /// With or without the incast aggressor.
    pub congested: bool,
    /// Median request latency, ms.
    pub median_ms: f64,
    /// Mean request latency, ms.
    pub mean_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Requests measured.
    pub requests: usize,
}

/// Sphinx's seconds-long services are compressed in sub-paper scales so a
/// run stays tractable; the compression factor used per scale.
pub fn sphinx_service_scale(scale: Scale) -> f64 {
    match scale {
        Scale::Tiny => 0.01,
        Scale::Quick => 0.05,
        Scale::Paper => 1.0,
    }
}

/// Fig. 8 for the figure driver.
pub struct Fig8;

impl Figure for Fig8 {
    const STEM: &'static str = "fig8";
    type Output = Vec<Fig8Row>;

    /// Run the figure. Each (app, profile, congestion) point runs
    /// quarantined: a stalled or panicking point becomes an error row while
    /// the others complete.
    fn run(scale: Scale, _: Option<&SweepCache>) -> Outcome<Vec<Fig8Row>> {
        let apps: &[TailApp] = match scale {
            Scale::Tiny => &[TailApp::Silo, TailApp::ImgDnn],
            _ => &TailApp::ALL,
        };
        let mut points = Vec::new();
        for &app in apps {
            for profile in [Profile::Aries, Profile::Slingshot] {
                for congested in [false, true] {
                    points.push((app, profile, congested));
                }
            }
        }
        let results = runner::quarantine_map(
            &points,
            |&(app, profile, congested)| CellMeta {
                label: format!(
                    "{} on {} ({})",
                    app.label(),
                    match profile {
                        Profile::Aries => "Aries",
                        _ => "Slingshot",
                    },
                    if congested { "congested" } else { "idle" },
                ),
                seed: 8,
            },
            |&(app, profile, congested)| measure(app, profile, congested, scale),
        );
        let (rows, failures) = runner::split_results(results);
        Outcome {
            output: rows.into_iter().flatten().collect(),
            failures,
        }
    }

    fn render(scale: Scale, rows: &Vec<Fig8Row>) {
        println!(
            "Fig. 8 — Tailbench under endpoint congestion ({})",
            scale.label()
        );
        println!();
        let mut t = Table::new([
            "app",
            "network",
            "congested",
            "median(ms)",
            "mean(ms)",
            "95p(ms)",
            "99p(ms)",
        ]);
        for r in rows {
            t.row([
                r.app.to_string(),
                r.profile.to_string(),
                if r.congested { "yes" } else { "no" }.to_string(),
                format!("{:.3}", r.median_ms),
                format!("{:.3}", r.mean_ms),
                format!("{:.3}", r.p95_ms),
                format!("{:.3}", r.p99_ms),
            ]);
        }
        t.print();
        println!();
        println!("paper: severe degradation on Aries for silo/xapian/img-dnn, none on Slingshot;");
        println!("sphinx degrades least (lowest communication/computation ratio).");
    }
}

fn measure(
    app: TailApp,
    profile: Profile,
    congested: bool,
    scale: Scale,
) -> Result<Fig8Row, SimError> {
    let nodes = scale.congestion_nodes();
    let machine = machine_for(nodes);
    let net = SystemBuilder::new(System::Custom(machine), profile)
        .seed(8)
        .config();
    let budget = scale.event_budget();
    let mut run = Run::new(net, ProtocolStack::mpi(), Stop::Completion { budget });

    // 10 % of nodes to the victim — but always enough victim nodes to
    // span two switches, so client and server are not co-located on one
    // switch (as they would not be on the paper's 70-node victim
    // partitions).
    let victim_count = (nodes / 10).max(machine.endpoints_per_switch + 2);
    let alloc = Allocation::split(nodes, victim_count, placement(scale), 8);

    if congested && alloc.aggressor.len() >= 2 {
        let job = Job::new(alloc.aggressor.clone());
        let scripts = Congestor::Incast.scripts(job.ranks());
        run.add_job(job, scripts, 0, SimTime::ZERO);
    }

    // Client on the first victim node, server on the last — spanning the
    // victim partition as a multi-switch deployment would.
    let client = alloc.victim[0];
    let server = *alloc.victim.last().unwrap();
    let service_scale = if app == TailApp::Sphinx {
        sphinx_service_scale(scale)
    } else {
        1.0
    };
    let (c, s) = app.scripts_scaled(scale.tail_requests(), 8, service_scale);
    run.add_measured_job(Job::new(vec![client, server]), vec![c, s], 0, WARMUP);

    let requests = execute(run, None)?.iterations;
    let mut lat = Sample::from_values(requests.iter().map(|(_, d)| d.as_ms_f64()).collect());
    Ok(Fig8Row {
        app: app.label(),
        profile: match profile {
            Profile::Aries => "Aries",
            _ => "Slingshot",
        },
        congested,
        median_ms: lat.median(),
        mean_ms: lat.mean(),
        p95_ms: lat.percentile(95.0),
        p99_ms: lat.percentile(99.0),
        requests: lat.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aries_degrades_slingshot_does_not() {
        let out = Fig8::run(Scale::Tiny, None);
        assert!(!out.failed(), "fault-free sweep has no error rows");
        let rows = out.output;
        let find = |app: &str, profile: &str, congested: bool| -> &Fig8Row {
            rows.iter()
                .find(|r| r.app == app && r.profile == profile && r.congested == congested)
                .unwrap()
        };
        let impact = |app: &str, profile: &str| -> f64 {
            find(app, profile, true).mean_ms / find(app, profile, false).mean_ms
        };
        // Silo's µs-scale services make it the most network-sensitive
        // victim: the Aries collapse must be unambiguous.
        let silo_aries = impact("silo", "Aries");
        let silo_ss = impact("silo", "Slingshot");
        assert!(silo_aries > 1.5, "silo: aries impact only {silo_aries:.2}");
        assert!(silo_ss < 1.4, "silo: slingshot impact {silo_ss:.2}");
        // img-dnn's ~1 ms services dilute the queueing delay at this
        // machine scale; the ordering claims still must hold.
        let img_aries = impact("img-dnn", "Aries");
        let img_ss = impact("img-dnn", "Slingshot");
        assert!(img_aries > 1.02, "img-dnn: aries impact {img_aries:.2}");
        assert!(
            img_aries > img_ss,
            "img-dnn ordering: {img_aries:.2} vs {img_ss:.2}"
        );
        assert!(img_ss < 1.2, "img-dnn: slingshot impact {img_ss:.2}");
    }

    #[test]
    fn tails_exceed_medians() {
        let rows = Fig8::run(Scale::Tiny, None).output;
        for r in &rows {
            assert!(r.p99_ms >= r.p95_ms);
            assert!(r.p95_ms >= r.median_ms * 0.99);
            assert!(r.requests >= 2);
        }
    }
}
