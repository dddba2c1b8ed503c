//! The chunked tree build of `FastConverge::with_jobs`: on a generated
//! 800-AS topology, every width — including one wider than there are
//! origins — must build the one-job trees node for node and replay a
//! churn sequence to the same affected-origin lists and recompute
//! count. The degenerate zero- and one-origin builds must work at every
//! width too.

use quicksand_bgp::{ChurnConfig, ChurnGenerator, FastConverge, LinkChange};
use quicksand_net::Asn;
use quicksand_topology::{AsGraph, TopologyConfig, TopologyGenerator};

fn topology() -> (AsGraph, Vec<Asn>) {
    let topo = TopologyGenerator::new(TopologyConfig::internet(800, 0xC4A7)).generate();
    let mut graph = topo.graph;
    graph.compact();
    assert_eq!(graph.len(), 800);
    // Every 16th AS, so the origins spread over all tiers and regions.
    let origins: Vec<Asn> = graph.asns().step_by(16).collect();
    (graph, origins)
}

/// Assert `fc` holds the same trees as `reference`, node for node.
fn assert_same_trees(fc: &FastConverge, reference: &FastConverge, context: &str) {
    assert_eq!(
        fc.origins().collect::<Vec<_>>(),
        reference.origins().collect::<Vec<_>>(),
        "{context}: tracked origins differ"
    );
    for origin in reference.origins() {
        let (got, want) = (fc.tree(origin).unwrap(), reference.tree(origin).unwrap());
        for node in 0..reference.graph().len() {
            assert_eq!(
                got.route_at_idx(node),
                want.route_at_idx(node),
                "{context}: origin {origin}, node {node}"
            );
        }
    }
}

#[test]
fn chunked_build_matches_the_one_job_build_at_every_width() {
    let (graph, origins) = topology();
    let events: Vec<_> = ChurnGenerator::new(ChurnConfig {
        seed: 0x30E7,
        ..ChurnConfig::default()
    })
    .generate(&graph, &origins)
    .into_iter()
    .take(30)
    .collect();
    assert_eq!(events.len(), 30, "the schedule has 30 events to replay");

    let mut reference = FastConverge::with_jobs(graph.clone(), origins.iter().copied(), 1);
    assert_eq!(reference.origins().count(), origins.len());
    // The widths run side by side with the reference: built, then one
    // event at a time.
    let mut wide: Vec<(usize, FastConverge)> = [2, 3, origins.len() + 5]
        .into_iter()
        .map(|jobs| {
            let fc = FastConverge::with_jobs(graph.clone(), origins.iter().copied(), jobs);
            assert_same_trees(&fc, &reference, &format!("jobs {jobs}, built"));
            (jobs, fc)
        })
        .collect();
    let mut affected_any = false;
    for ev in &events {
        let want = reference.apply(ev.change);
        affected_any |= !want.is_empty();
        for (jobs, fc) in &mut wide {
            assert_eq!(fc.apply(ev.change), want, "jobs {jobs}: {:?}", ev.change);
            assert_eq!(fc.recomputes, reference.recomputes, "jobs {jobs}");
        }
    }
    assert!(affected_any, "the churn sequence changes some tree");
    for (jobs, fc) in &wide {
        assert_same_trees(fc, &reference, &format!("jobs {jobs}, after churn"));
    }
}

#[test]
fn zero_and_one_origin_builds_work_at_every_width() {
    let (graph, origins) = topology();
    let (a, b) = (graph.asn_of(0), graph.asn_of(graph.neighbors_idx(0)[0].0));
    for jobs in [1, 2, 3, 6] {
        let mut empty = FastConverge::with_jobs(graph.clone(), [], jobs);
        assert_eq!(empty.origins().count(), 0, "jobs {jobs}");
        assert!(empty.apply(LinkChange::down(a, b)).is_empty(), "jobs {jobs}");

        let one_origin = [origins[0], origins[0]]; // duplicates collapse
        let one = FastConverge::with_jobs(graph.clone(), one_origin, jobs);
        let serial = FastConverge::new(graph.clone(), one_origin);
        assert_same_trees(&one, &serial, &format!("one origin, jobs {jobs}"));
    }
}
