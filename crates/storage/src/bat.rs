//! Binary association tables and bulk BAT operations.
//!
//! MonetDB stores every attribute as a BAT: a (head, tail) pair where the
//! head holds dense object identifiers (OIDs) and the tail the attribute
//! values. Since the head is always the dense sequence `0..n`, we store it
//! virtually: a [`Bat`] is a named [`Column`] whose row index *is* the OID.
//!
//! The relational and matrix layers are compiled down to the bulk operators
//! in this module, mirroring the paper's §7.1: `take` is `leftfetchjoin`
//! (`X ↓ Y`), [`sort_permutation`](crate::sort::sort_permutation) produces
//! the OID order used to sort a BAT by its own values (`X ↓ X`), and the
//! float kernels (`add`, `scale`, …) are the vectorised operations used by
//! Algorithm 2.

use crate::column::{Column, ColumnData};
use crate::error::StorageError;
use std::cmp::Ordering;

/// A named column with a virtual dense OID head.
#[derive(Debug, Clone, PartialEq)]
pub struct Bat {
    name: String,
    column: Column,
}

impl Bat {
    pub fn new(name: impl Into<String>, column: Column) -> Self {
        Bat {
            name: name.into(),
            column,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename without touching the tail (schema-level operation; free).
    pub fn renamed(&self, name: impl Into<String>) -> Bat {
        Bat {
            name: name.into(),
            column: self.column.clone(),
        }
    }

    pub fn column(&self) -> &Column {
        &self.column
    }

    pub fn into_column(self) -> Column {
        self.column
    }

    pub fn len(&self) -> usize {
        self.column.len()
    }

    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    /// `leftfetchjoin`: gather tail values in the OID order given by `idx`.
    pub fn take(&self, idx: &[usize]) -> Bat {
        Bat {
            name: self.name.clone(),
            column: self.column.take(idx),
        }
    }
}

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

/// Vectorised float BAT kernels (the operations Algorithm 2 reduces to).
pub mod float_ops {
    use super::*;

    fn binary(a: &Column, b: &Column, f: impl Fn(f64, f64) -> f64) -> Result<Column, StorageError> {
        if a.len() != b.len() {
            return Err(StorageError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        let (av, bv) = (a.to_f64_vec()?, b.to_f64_vec()?);
        let out: Vec<f64> = av.iter().zip(&bv).map(|(&x, &y)| f(x, y)).collect();
        Ok(Column::new(ColumnData::Float(out)))
    }

    /// `B1 + B2`.
    pub fn add(a: &Column, b: &Column) -> Result<Column, StorageError> {
        binary(a, b, |x, y| x + y)
    }

    /// `B1 - B2`.
    pub fn sub(a: &Column, b: &Column) -> Result<Column, StorageError> {
        binary(a, b, |x, y| x - y)
    }

    /// `B1 * B2` (element-wise).
    pub fn mul(a: &Column, b: &Column) -> Result<Column, StorageError> {
        binary(a, b, |x, y| x * y)
    }

    /// `B1 / B2` (element-wise).
    pub fn div(a: &Column, b: &Column) -> Result<Column, StorageError> {
        binary(a, b, |x, y| x / y)
    }

    /// `B / v` — divide every element by a scalar.
    pub fn div_scalar(a: &Column, v: f64) -> Result<Column, StorageError> {
        let av = a.to_f64_vec()?;
        Ok(Column::new(ColumnData::Float(
            av.iter().map(|&x| x / v).collect(),
        )))
    }

    /// `B1 - B2 * v` — fused multiply-subtract against a scalar, the inner
    /// step of Gauss-Jordan elimination over BATs.
    pub fn sub_scaled(a: &Column, b: &Column, v: f64) -> Result<Column, StorageError> {
        binary(a, b, move |x, y| x - y * v)
    }

    /// `sum(B)`.
    pub fn sum(a: &Column) -> Result<f64, StorageError> {
        Ok(a.to_f64_vec()?.iter().sum())
    }

    /// `sel(B, i)`: single-element access (the only point access Algorithm 2
    /// needs).
    pub fn sel(a: &Column, i: usize) -> Result<f64, StorageError> {
        let v = a.to_f64_vec()?;
        Ok(v[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn permutation_inverse() {
        let perm = vec![2usize, 0, 3, 1];
        let inv = invert_permutation(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        for (k, &p) in perm.iter().enumerate() {
            assert_eq!(inv[p], k);
        }
    }

    #[test]
    fn bat_take_is_leftfetchjoin() {
        let b = Bat::new("H", Column::from(vec![8.0f64, 6.0]));
        let g = b.take(&[1, 0]);
        assert_eq!(g.name(), "H");
        assert_eq!(g.column().get(0), Value::Float(6.0));
    }

    #[test]
    fn float_kernels() {
        let a = Column::from(vec![1.0f64, 2.0, 3.0]);
        let b = Column::from(vec![10.0f64, 20.0, 30.0]);
        assert_eq!(
            float_ops::add(&a, &b).unwrap().to_f64_vec().unwrap(),
            vec![11.0, 22.0, 33.0]
        );
        assert_eq!(
            float_ops::sub(&b, &a).unwrap().to_f64_vec().unwrap(),
            vec![9.0, 18.0, 27.0]
        );
        assert_eq!(
            float_ops::mul(&a, &b).unwrap().to_f64_vec().unwrap(),
            vec![10.0, 40.0, 90.0]
        );
        assert_eq!(
            float_ops::div(&b, &a).unwrap().to_f64_vec().unwrap(),
            vec![10.0, 10.0, 10.0]
        );
        assert_eq!(
            float_ops::div_scalar(&b, 10.0)
                .unwrap()
                .to_f64_vec()
                .unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!(
            float_ops::sub_scaled(&b, &a, 2.0)
                .unwrap()
                .to_f64_vec()
                .unwrap(),
            vec![8.0, 16.0, 24.0]
        );
        assert_eq!(float_ops::sum(&a).unwrap(), 6.0);
        assert_eq!(float_ops::sel(&a, 2).unwrap(), 3.0);
    }

    #[test]
    fn float_kernel_length_mismatch() {
        let a = Column::from(vec![1.0f64]);
        let b = Column::from(vec![1.0f64, 2.0]);
        assert!(matches!(
            float_ops::add(&a, &b),
            Err(StorageError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn float_kernels_widen_ints() {
        let a = Column::from(vec![1i64, 2]);
        let b = Column::from(vec![0.5f64, 0.5]);
        assert_eq!(
            float_ops::add(&a, &b).unwrap().to_f64_vec().unwrap(),
            vec![1.5, 2.5]
        );
    }

    #[test]
    fn renamed_is_schema_only() {
        let b = Bat::new("a", Column::from(vec![1i64]));
        let r = b.renamed("b");
        assert_eq!(r.name(), "b");
        assert_eq!(r.column(), b.column());
    }
}
