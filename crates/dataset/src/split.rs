use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Index sets of one train/test split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Indices of training instances.
    pub train: Vec<usize>,
    /// Indices of held-out test instances.
    pub test: Vec<usize>,
}

impl Split {
    /// Selects the elements of `items` indexed by `indices`.
    pub fn take<'a, T>(items: &'a [T], indices: &[usize]) -> Vec<&'a T> {
        indices.iter().map(|&i| &items[i]).collect()
    }
}

/// Shuffled train/test split (Algorithm 1 line 3).
///
/// `test_fraction` of the `n` instances (rounded down, at least 1 when
/// `n >= 2`) go to the test set.
///
/// # Panics
///
/// Panics unless `0 < test_fraction < 1` and `n >= 2`.
pub fn train_test_split(n: usize, test_fraction: f64, seed: u64) -> Split {
    assert!(
        test_fraction > 0.0 && test_fraction < 1.0,
        "test_fraction must be in (0, 1)"
    );
    assert!(n >= 2, "need at least 2 instances to split");
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5917));
    let test_len = ((n as f64 * test_fraction) as usize).clamp(1, n - 1);
    let test = indices.split_off(n - test_len);
    Split {
        train: indices,
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_a_partition() {
        let split = train_test_split(50, 0.2, 7);
        assert_eq!(split.test.len(), 10);
        assert_eq!(split.train.len(), 40);
        let mut all: Vec<usize> = split.train.iter().chain(&split.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic_and_seed_sensitive() {
        assert_eq!(train_test_split(20, 0.25, 1), train_test_split(20, 0.25, 1));
        assert_ne!(train_test_split(20, 0.25, 1), train_test_split(20, 0.25, 2));
    }

    #[test]
    fn tiny_sets_keep_one_test_sample() {
        let split = train_test_split(2, 0.1, 0);
        assert_eq!(split.test.len(), 1);
        assert_eq!(split.train.len(), 1);
    }

    #[test]
    fn take_selects_by_index() {
        let items = ["a", "b", "c"];
        let picked = Split::take(&items, &[2, 0]);
        assert_eq!(picked, vec![&"c", &"a"]);
    }
}
