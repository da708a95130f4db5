//! Scalar summary statistics (the paper's AVG analysis task).

/// The arithmetic mean, `None` for an empty slice.
pub fn mean_of(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_and_non_empty() {
        assert_eq!(mean_of(&[]), None);
        assert_eq!(mean_of(&[2.0, 4.0]), Some(3.0));
    }
}
