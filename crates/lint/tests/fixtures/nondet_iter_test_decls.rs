// Fixture: nondet-iter with a name that only test code binds to a hash
// set. Linted as if at crates/aas/src/nondet_iter_test_decls.rs.

pub fn sample_distinct(pool: &[u32], n: usize) -> Vec<u32> {
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n.min(pool.len()) {
        chosen.push(i);
    }
    chosen.into_iter().map(|i| pool[i]).collect()
}

#[cfg(test)]
mod tests {
    fn sample_distinct_reference(pool: &[u32], n: usize) -> usize {
        let mut chosen = std::collections::HashSet::with_capacity(n);
        for &x in pool.iter().take(n) {
            chosen.insert(x);
        }
        chosen.len()
    }

    #[test]
    fn matches_the_reference() {
        let pool = [3, 1, 2];
        assert_eq!(super::sample_distinct(&pool, 2).len(), sample_distinct_reference(&pool, 2));
    }
}
