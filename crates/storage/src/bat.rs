//! Row permutations over BATs.
//!
//! MonetDB stores every attribute as a BAT: a (head, tail) pair where the
//! head holds dense object identifiers (OIDs) and the tail the attribute
//! values. Here the head is virtual — a [`Column`]'s row index *is* the OID
//! — so a permutation of OIDs is a `Vec<usize>`: gathering a column through
//! one is `leftfetchjoin` ([`Column::take`], `X ↓ Y`), and
//! [`sort_permutation`](crate::sort::sort_permutation) produces the OID
//! order that sorts a BAT by its own values (`X ↓ X`), mirroring the
//! paper's §7.1. The column-at-a-time matrix kernels of Algorithm 2 live in
//! `rma_linalg::bat`.

use crate::column::Column;
use std::cmp::Ordering;

/// Is `perm` the identity permutation?
pub fn is_identity_permutation(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(k, &p)| k == p)
}

/// Lexicographic comparison of two rows across a column list.
pub fn cmp_rows(columns: &[&Column], a: usize, b: usize) -> Ordering {
    for c in columns {
        match c.cmp_rows(a, b) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// Inverse of a permutation: `inv[perm[k]] = k`.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (k, &p) in perm.iter().enumerate() {
        inv[p] = k;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_inverse() {
        let perm = vec![2usize, 0, 3, 1];
        let inv = invert_permutation(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        for (k, &p) in perm.iter().enumerate() {
            assert_eq!(inv[p], k);
        }
    }
}
