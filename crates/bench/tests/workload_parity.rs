//! All systems must produce the same analytical answers: the simulators
//! differ in *how* they compute, never in *what*.

use rma_bench::{
    run_conferences_covariance, run_journeys_regression, run_scidb_comparison, run_trip_count,
    run_trips_ols, trip_count_tables, SystemKind,
};

const ALL: [SystemKind; 6] = [
    SystemKind::RmaAuto,
    SystemKind::RmaBat,
    SystemKind::RmaMkl,
    SystemKind::R,
    SystemKind::Aida,
    SystemKind::Madlib,
];

#[test]
fn trips_ols_all_systems_agree() {
    let trips = rma_data::trips(3000, 12, 11);
    let stations = rma_data::stations(12, 11 ^ 0x5a5a);
    let reports: Vec<_> = ALL
        .iter()
        .map(|&s| run_trips_ols(s, &trips, &stations, 5))
        .collect();
    let reference = reports[0].check;
    // the generator builds duration ≈ 180·dist + noise: the fit must see it
    assert!(
        (reference - 180.0).abs() < 20.0,
        "slope {reference} far from planted 180"
    );
    for r in &reports {
        assert!(
            (r.check - reference).abs() < 1e-6 * reference.abs().max(1.0),
            "{} disagrees: {} vs {reference}",
            r.system.name(),
            r.check
        );
        assert!(r.total().as_nanos() > 0);
    }
    // the BAT path never copies; the MKL path always does
    let transform = |kind| {
        reports
            .iter()
            .find(|r| r.system == kind)
            .unwrap()
            .transform
            .as_nanos()
    };
    assert_eq!(transform(SystemKind::RmaBat), 0);
    assert!(transform(SystemKind::RmaMkl) > 0);
}

#[test]
fn journeys_regression_all_systems_agree() {
    let journeys = rma_data::journeys(4000, 15, 21);
    let stations = rma_data::stations(15, 21 ^ 0xa5a5);
    for hops in [1, 2, 3] {
        let reports: Vec<_> = ALL
            .iter()
            .map(|&s| run_journeys_regression(s, &journeys, &stations, hops))
            .collect();
        let reference = reports[0].check;
        assert!(reference.is_finite(), "hops={hops}: non-finite checksum");
        // planted slope is 170 per hop
        assert!(
            (reference - 170.0 * hops as f64).abs() < 25.0 * hops as f64,
            "hops={hops}: slope sum {reference}"
        );
        for r in &reports {
            assert!(
                (r.check - reference).abs() < 1e-5 * reference.abs().max(1.0),
                "hops={hops}: {} disagrees: {} vs {reference}",
                r.system.name(),
                r.check
            );
        }
    }
}

#[test]
fn conferences_covariance_all_systems_agree() {
    let pubs = rma_data::publications(400, 40, 31);
    let rankings = rma_data::rankings(40, 31);
    let reports: Vec<_> = ALL
        .iter()
        .map(|&s| run_conferences_covariance(s, &pubs, &rankings))
        .collect();
    let reference = reports[0].check;
    assert!(reference.is_finite());
    for r in &reports {
        assert!(
            (r.check - reference).abs() < 1e-6 * reference.abs().max(1.0),
            "{} disagrees: {} vs {reference}",
            r.system.name(),
            r.check
        );
    }
}

#[test]
fn trip_count_all_systems_agree() {
    for riders in [500, 2000] {
        let (y1, y2) = trip_count_tables(riders, 10, 41);
        let reports: Vec<_> = ALL.iter().map(|&s| run_trip_count(s, &y1, &y2)).collect();
        let reference = reports[0].check;
        for r in &reports {
            assert!(
                (r.check - reference).abs() < 1e-6 * reference.abs(),
                "{riders} riders: {} disagrees",
                r.system.name()
            );
        }
        // RMA+BAT must not pay any transformation cost on add
        let bat = reports
            .iter()
            .find(|r| r.system == SystemKind::RmaBat)
            .unwrap();
        assert_eq!(bat.transform.as_nanos(), 0);
    }
}

#[test]
fn scidb_comparison_counts_agree() {
    let (y1, y2) = trip_count_tables(5000, 10, 51);
    let (rma_t, scidb_t, rma_count, scidb_count) = run_scidb_comparison(&y1, &y2, 10_000.0);
    assert_eq!(rma_count, scidb_count);
    assert!(rma_t.as_nanos() > 0 && scidb_t.as_nanos() > 0);
}
