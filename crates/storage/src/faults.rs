//! Deterministic fault injection for the page device.
//!
//! [`FaultyPageIo`] wraps any [`PageIo`] and misbehaves according to a
//! seeded [`FaultConfig`]: transient read errors (retryable), random
//! single-bit flips on delivered pages (caught by checksums, healed by
//! refetch), and torn pages whose tail half is persistently lost
//! (simulating a torn write — every read of such a page fails
//! verification, so the store reports [`crate::StorageError::Corrupt`]).
//!
//! Everything is driven by an in-crate SplitMix64 stream, so a given
//! `(seed, call sequence)` reproduces the exact same fault pattern —
//! fault-injection tests are deterministic, not flaky.

use crate::error::PageFault;
use crate::io::PageIo;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// Fault rates and seed for a [`FaultyPageIo`].
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for the fault stream; same seed → same faults.
    pub seed: u64,
    /// Probability that a page read fails with a transient fault.
    pub transient_read_rate: f64,
    /// Probability that a delivered page has one random bit flipped
    /// (transient corruption: a refetch returns clean data).
    pub bit_flip_rate: f64,
    /// Probability, decided per page at construction, that a page was
    /// torn: its tail half reads as zeroes forever (persistent corruption).
    pub torn_page_rate: f64,
    /// Explicitly torn pages, in addition to the random ones.
    pub torn_pages: Vec<usize>,
}

impl FaultConfig {
    /// A fault-free configuration with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_read_rate: 0.0,
            bit_flip_rate: 0.0,
            torn_page_rate: 0.0,
            torn_pages: Vec::new(),
        }
    }

    /// Sets the transient read fault rate.
    pub fn transient_read_rate(mut self, rate: f64) -> Self {
        self.transient_read_rate = rate;
        self
    }

    /// Sets the per-read bit-flip rate.
    pub fn bit_flip_rate(mut self, rate: f64) -> Self {
        self.bit_flip_rate = rate;
        self
    }

    /// Sets the per-page torn-write probability.
    pub fn torn_page_rate(mut self, rate: f64) -> Self {
        self.torn_page_rate = rate;
        self
    }

    /// Marks `page` as torn regardless of the random rate.
    pub fn torn_page(mut self, page: usize) -> Self {
        self.torn_pages.push(page);
        self
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::with_seed(0)
    }
}

/// SplitMix64 step — the crate's only randomness source (kept in-crate so
/// the storage layer has no external dependencies).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn chance(state: &mut u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    ((splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64) < p
}

/// A [`PageIo`] wrapper that injects deterministic faults.
#[derive(Debug)]
pub struct FaultyPageIo<I> {
    inner: I,
    config: FaultConfig,
    /// Read-stream RNG state (interior mutability: reads take `&self`,
    /// possibly from several threads).
    rng: Mutex<u64>,
    /// Pages whose tail half is persistently lost.
    torn: BTreeSet<usize>,
}

impl<I: PageIo> FaultyPageIo<I> {
    /// Wraps `inner`, deciding torn pages up front from the seed.
    pub fn new(inner: I, config: FaultConfig) -> Self {
        // Separate stream for the per-page torn decisions so the read
        // stream is unaffected by page count.
        let mut torn_rng = config.seed ^ 0xD1B5_4A32_D192_ED03;
        let mut torn: BTreeSet<usize> = config.torn_pages.iter().copied().collect();
        for page in 0..inner.page_count() {
            if chance(&mut torn_rng, config.torn_page_rate) {
                torn.insert(page);
            }
        }
        let rng = Mutex::new(config.seed ^ 0xA076_1D64_78BD_642F);
        FaultyPageIo {
            inner,
            config,
            rng,
            torn,
        }
    }

    /// The pages this device will always deliver torn.
    pub fn torn_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.torn.iter().copied()
    }

    fn with_rng<T>(&self, f: impl FnOnce(&mut u64) -> T) -> T {
        f(&mut self.rng.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<I: PageIo> PageIo for FaultyPageIo<I> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }

    fn read_page(&self, page: usize, buf: &mut Vec<u8>) -> Result<(), PageFault> {
        if self.with_rng(|rng| chance(rng, self.config.transient_read_rate)) {
            return Err(PageFault::Transient);
        }
        self.inner.read_page(page, buf)?;
        if self.torn.contains(&page) {
            // Torn write: the tail half of the page never made it to disk.
            let keep = buf.len() / 2;
            for b in &mut buf[keep..] {
                *b = 0;
            }
        } else if !buf.is_empty() && self.with_rng(|rng| chance(rng, self.config.bit_flip_rate)) {
            let (byte, bit) = self.with_rng(|rng| {
                let r = splitmix64(rng);
                ((r as usize / 8) % buf.len(), (r % 8) as u32)
            });
            buf[byte] ^= 1 << bit;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemPageIo;
    use crate::testutil::Must;

    fn device(cfg: FaultConfig) -> FaultyPageIo<MemPageIo> {
        FaultyPageIo::new(MemPageIo::new(vec![0xAB; 64], 16), cfg)
    }

    #[test]
    fn zero_rates_are_transparent() {
        let io = device(FaultConfig::with_seed(1));
        let mut buf = Vec::new();
        for page in 0..4 {
            io.read_page(page, &mut buf).must();
            assert_eq!(buf, vec![0xAB; 16]);
        }
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let mk = || device(FaultConfig::with_seed(7).transient_read_rate(0.5));
        let (a, b) = (mk(), mk());
        let mut buf = Vec::new();
        for page in (0..4).cycle().take(64) {
            assert_eq!(
                a.read_page(page, &mut buf).is_err(),
                b.read_page(page, &mut buf).is_err()
            );
        }
    }

    #[test]
    fn torn_pages_lose_their_tail() {
        let io = device(FaultConfig::with_seed(3).torn_page(1));
        let mut buf = Vec::new();
        io.read_page(1, &mut buf).must();
        assert_eq!(&buf[..8], &[0xAB; 8]);
        assert_eq!(&buf[8..], &[0u8; 8]);
        assert_eq!(io.torn_pages().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn bit_flips_corrupt_exactly_one_bit() {
        let io = device(FaultConfig::with_seed(9).bit_flip_rate(1.0));
        let mut buf = Vec::new();
        io.read_page(0, &mut buf).must();
        let flipped_bits: u32 = buf.iter().map(|&b| (b ^ 0xAB).count_ones()).sum();
        assert_eq!(flipped_bits, 1, "exactly one bit flips: {buf:?}");
    }
}
