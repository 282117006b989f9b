//! Parallel reductions.

use crate::device::Device;
use rayon::prelude::*;

impl Device {
    /// Reduces `input` with an associative operator.
    pub fn reduce<T, F>(&self, input: &[T], identity: T, op: F) -> T
    where
        T: Copy + Send + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        self.capture_read(input);
        self.map_reduce(input.len(), |i| input[i], identity, op)
    }

    /// Fused transform + reduce: reduces `gen(0) … gen(n-1)` without
    /// materializing the generated array. `gen` runs exactly once per
    /// index, so like a [`Device::for_each`] body it may also write
    /// through a [`Device::shared`] view, one writer per slot.
    pub fn map_reduce<T, G, F>(&self, n: usize, gen: G, identity: T, op: F) -> T
    where
        T: Copy + Send + Sync,
        G: Fn(usize) -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        self.metrics().record_primitive();
        let _cap = self.cap_scope("reduce");
        let _launch = self.launch(n);
        self.metrics()
            .record_traffic((n * size_of::<T>()) as u64, 0);
        if n <= self.config().seq_threshold {
            let mut acc = identity;
            for i in 0..n {
                acc = op(acc, gen(i));
            }
            return acc;
        }
        let chunk = self.grid_chunk_len(n);
        let blocks = n.div_ceil(chunk);
        self.run(|| {
            (0..blocks)
                .into_par_iter()
                .map(|b| {
                    let start = b * chunk;
                    let end = usize::min(start + chunk, n);
                    let mut acc = identity;
                    for i in start..end {
                        acc = op(acc, gen(i));
                    }
                    acc
                })
                .reduce(|| identity, &op)
        })
    }

    /// Maximum of a `u32` slice (0 on empty input).
    pub fn reduce_max_u32(&self, input: &[u32]) -> u32 {
        self.reduce(input, 0u32, |a, b| a.max(b))
    }

    /// Minimum of a `u32` slice (`u32::MAX` on empty input).
    pub fn reduce_min_u32(&self, input: &[u32]) -> u32 {
        self.reduce(input, u32::MAX, |a, b| a.min(b))
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;

    #[test]
    fn sum_matches_reference() {
        let device = Device::new();
        let sum = device.map_reduce(123_456, |i| i as u64, 0u64, |a, b| a + b);
        assert_eq!(sum, 123_456 * 123_455 / 2);
    }

    #[test]
    fn max_and_min() {
        let device = Device::new();
        let input: Vec<u32> = (0..100_000)
            .map(|i| (i * 2_654_435_761u64 % 1_000_003) as u32)
            .collect();
        let max = *input.iter().max().unwrap();
        let min = *input.iter().min().unwrap();
        assert_eq!(device.reduce_max_u32(&input), max);
        assert_eq!(device.reduce_min_u32(&input), min);
    }

    #[test]
    fn empty_reduce_yields_identity() {
        let device = Device::new();
        assert_eq!(device.reduce_max_u32(&[]), 0);
        assert_eq!(device.reduce_min_u32(&[]), u32::MAX);
    }

    #[test]
    fn single_element_reduce() {
        let device = Device::new();
        assert_eq!(device.reduce_max_u32(&[9]), 9);
    }
}
