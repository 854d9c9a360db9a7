//! FNV-1a 64-bit, the workspace's one non-cryptographic hash: the
//! sub-communicator uid, the checkpoint checksum, the incident capture
//! digest and serve's job digests all fold through [`Fnv1a`].

/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x100_0000_01b3;

/// An FNV-1a 64-bit accumulator; [`Fnv1a::new`] starts at the offset basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// An accumulator at the FNV-1a 64-bit offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Folds `v` as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds `s.len()` and then its bytes, so adjacent strings cannot trade
    /// characters without changing the hash.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64-bit test vectors.
    #[test]
    fn known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let split = Fnv1a::new().bytes(b"foo").bytes(b"bar").finish();
        assert_eq!(split, fnv1a64(b"foobar"));
    }
}
