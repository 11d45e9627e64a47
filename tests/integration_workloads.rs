//! Workload-level integration: the documented compression mechanism holds
//! through the facade (stored values fall monotonically with sparsity).

#[test]
fn compression_reduces_stored_values_monotonically() {
    let mut last = usize::MAX;
    for pct in [0.0, 0.3, 0.6, 0.9] {
        let (a, _) = rma::data::sparse_pair(20_000, 1, pct, 8);
        let col = a.column("l0").unwrap().to_f64_vec().unwrap();
        let stored = rma::storage::Rle::encode(&col).stored_values();
        assert!(stored <= last, "stored values must fall with sparsity");
        last = stored;
    }
}
