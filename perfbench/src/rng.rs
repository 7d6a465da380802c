//! The seeded generator workload populations are drawn from (SplitMix64:
//! the same seed gives the same population on every host).

pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated per workload by `stream`.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut rng = Rng(seed);
        for b in stream.bytes() {
            rng.0 ^= u64::from(b);
            rng.next();
        }
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniformly random label of exactly `bits` bits.
    pub fn label_of_bits(&mut self, bits: u32) -> u64 {
        if bits == 1 {
            return 1;
        }
        (1 << (bits - 1)) | (self.next() % (1 << (bits - 1)))
    }

    /// `k` distinct nodes of a graph of order `n`.
    pub fn distinct_nodes(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
