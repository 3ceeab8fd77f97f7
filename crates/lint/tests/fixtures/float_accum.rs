//! Fixture: float accumulation in merge paths. Direct `+=` on a float
//! field, the `.sum::<f64>()` form, a one-call-deep helper, and a
//! non-merge function that accumulates freely.

pub struct Welford {
    pub mean: f64,
    pub m2: f64,
    pub n: u64,
}

fn add_sample(mean: &mut f64, x: f64) {
    *mean += x;
}

impl Welford {
    pub fn merge(&mut self, other: &Welford) {
        self.n += other.n;
        self.mean += other.mean;
        self.m2 += other.m2;
    }
}

pub struct Inbound;

impl Inbound {
    pub fn merge(xs: &[f64]) -> f64 {
        xs.iter().copied().sum::<f64>()
    }
}

pub struct Delta;

impl Delta {
    pub fn merge(acc: &mut f64, xs: &[f64]) {
        for &x in xs.iter() {
            add_sample(acc, x);
        }
    }
}

pub fn scratch_total(total: &mut f64, xs: &[f64]) {
    for &x in xs.iter() {
        *total += x;
    }
}
