//! Process-wide pool of reusable `Vec<u64>` scratch buffers.
//!
//! The RNS/BGV hot path needs short-lived coefficient buffers (NTT
//! round-trips, base conversion digits, tensor rows). Allocating them
//! fresh on every operation dominated profile time, so this module keeps
//! returned buffers in a global free list and hands them back out on the
//! next [`take`]. Buffers are zeroed on checkout, so a pooled buffer is
//! indistinguishable from a fresh `vec![0; len]` — pooling cannot affect
//! results or determinism, only allocation traffic.
//!
//! The pool is a plain `Mutex<Vec<...>>`: checkout/checkin are rare
//! relative to the arithmetic done per buffer, so contention is not a
//! concern even under `MYC_THREADS > 1`.

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Upper bound on pooled buffers; anything beyond this is dropped on
/// release so a burst of parallelism cannot pin memory forever.
const MAX_POOLED: usize = 256;

static POOL: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());

/// A pooled scratch buffer; returns its storage to the pool on drop.
///
/// Dereferences to `[u64]` of exactly the requested length.
#[derive(Debug)]
pub struct ScratchBuf {
    buf: Vec<u64>,
}

impl Deref for ScratchBuf {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        &self.buf
    }
}

impl DerefMut for ScratchBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.buf
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 {
            return;
        }
        let mut pool = POOL.lock().unwrap();
        if pool.len() < MAX_POOLED {
            pool.push(std::mem::take(&mut self.buf));
        }
    }
}

/// Checks out a zeroed buffer of exactly `len` elements.
///
/// Reuses pooled storage when a buffer with sufficient capacity is
/// available, allocating otherwise.
pub fn take(len: usize) -> ScratchBuf {
    let mut buf = {
        let mut pool = POOL.lock().unwrap();
        match pool.iter().position(|b| b.capacity() >= len) {
            Some(i) => pool.swap_remove(i),
            None => pool.pop().unwrap_or_default(),
        }
    };
    buf.clear();
    buf.resize(len, 0);
    ScratchBuf { buf }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_and_sized() {
        let mut a = take(64);
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|&x| x == 0));
        a[0] = 17;
        a[63] = 9;
        drop(a);
        // Re-checkout sees zeroes again even if the storage was reused.
        let b = take(64);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn reuse_roundtrip_many_sizes() {
        for len in [1usize, 7, 64, 4096] {
            let s = take(len);
            assert_eq!(s.len(), len);
            drop(s);
        }
    }
}
