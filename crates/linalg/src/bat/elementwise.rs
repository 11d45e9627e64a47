//! Element-wise BAT kernels: ADD, SUB, EMU.
//!
//! These are single-pass column operations — the case where the paper's
//! RMA+BAT configuration beats RMA+MKL, because the copy into the dense
//! format can never be amortised (Fig. 18b). Under relative sorting (§7.2)
//! the second operand stays in its physical order and is read through a row
//! alignment in the same pass, so it is never gathered into a copy first.

use super::shape;
use crate::error::LinalgError;

/// `out[j][i] = f(a[j][i], b[j][align[i]])`: combine two equally shaped
/// matrices column at a time, reading `b` through the row alignment `align`
/// (`None` = positionally) in the pass that writes the result.
pub fn zip_aligned<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    a: &[A],
    b: &[B],
    align: Option<&[usize]>,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Vec<Vec<f64>>, LinalgError> {
    let (ra, ca) = shape(a)?;
    let (rb, cb) = shape(b)?;
    if ra != rb || ca != cb || align.is_some_and(|p| p.len() != ra) {
        return Err(LinalgError::DimensionMismatch {
            context: "element-wise BAT operation shapes",
        });
    }
    // column at a time: the random reads of one column of `b` stay within
    // that column, which mostly fits in L2
    Ok(a.iter()
        .zip(b)
        .map(|(ac, bc)| {
            let (ac, bc) = (ac.as_ref(), bc.as_ref());
            match align {
                Some(rows) => ac.iter().zip(rows).map(|(&x, &k)| f(x, bc[k])).collect(),
                None => ac.iter().zip(bc).map(|(&x, &y)| f(x, y)).collect(),
            }
        })
        .collect())
}

/// Matrix addition, column at a time.
pub fn add<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    a: &[A],
    b: &[B],
) -> Result<Vec<Vec<f64>>, LinalgError> {
    zip_aligned(a, b, None, |x, y| x + y)
}

/// Matrix subtraction, column at a time.
pub fn sub<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    a: &[A],
    b: &[B],
) -> Result<Vec<Vec<f64>>, LinalgError> {
    zip_aligned(a, b, None, |x, y| x - y)
}

/// Element-wise (Hadamard) multiplication, column at a time.
pub fn emu<A: AsRef<[f64]>, B: AsRef<[f64]>>(
    a: &[A],
    b: &[B],
) -> Result<Vec<Vec<f64>>, LinalgError> {
    zip_aligned(a, b, None, |x, y| x * y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Vec<Vec<f64>> {
        vec![vec![1.0, 2.0], vec![3.0, 4.0]]
    }
    fn b() -> Vec<Vec<f64>> {
        vec![vec![10.0, 20.0], vec![30.0, 40.0]]
    }

    #[test]
    fn add_sub_emu() {
        assert_eq!(
            add(&a(), &b()).unwrap(),
            vec![vec![11.0, 22.0], vec![33.0, 44.0]]
        );
        assert_eq!(
            sub(&b(), &a()).unwrap(),
            vec![vec![9.0, 18.0], vec![27.0, 36.0]]
        );
        assert_eq!(
            emu(&a(), &b()).unwrap(),
            vec![vec![10.0, 40.0], vec![90.0, 160.0]]
        );
    }

    #[test]
    fn aligned_reads_the_second_operand_through_the_alignment() {
        // row 0 of the result pairs with b's row 1 and vice versa; b is
        // lent as slices, not copied
        let b = b();
        let lent: Vec<&[f64]> = b.iter().map(Vec::as_slice).collect();
        assert_eq!(
            zip_aligned(&a(), &lent, Some(&[1, 0]), |x, y| x + y).unwrap(),
            vec![vec![21.0, 12.0], vec![43.0, 34.0]]
        );
        assert!(zip_aligned(&a(), &lent, Some(&[0]), |x, y| x + y).is_err());
    }

    #[test]
    fn shape_mismatch() {
        let wide = vec![vec![1.0, 2.0]];
        assert!(add(&a(), &wide).is_err());
        let short = vec![vec![1.0], vec![2.0]];
        assert!(add(&a(), &short).is_err());
    }

    #[test]
    fn empty_inputs() {
        let e: Vec<Vec<f64>> = vec![];
        assert_eq!(add(&e, &e).unwrap(), Vec::<Vec<f64>>::new());
    }
}
