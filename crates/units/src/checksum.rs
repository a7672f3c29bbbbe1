//! The one checksum of strandfs: a word-wise FNV-1a variant over four lanes.
//!
//! Every integrity check in the system — media block stamps, journal
//! records and checkpoints, device image fingerprints — is this
//! function. It keeps FNV-1a's xor-then-multiply but feeds it
//! little-endian 64-bit words instead of bytes, follows each multiply
//! with a rotation and a second multiply, and spreads the words over
//! four interleaved lanes so four independent multiply chains run side
//! by side.
//!
//! # Definition
//!
//! For a byte string `b` of length `n`, with `OFFSET` and `PRIME` the
//! FNV-1a-64 parameters, the step is
//! `step(h, x) = rotl((h ^ x) * PRIME, 31) * PRIME` (mod 2⁶⁴):
//!
//! 1. Four lanes start at `OFFSET`.
//! 2. Full word `w_i` (bytes `8i..8i+8`, little-endian) updates lane
//!    `i % 4`: `lane = step(lane, w_i)`.
//! 3. `h = OFFSET`, then `h = step(h, lane)` for lanes 0–3.
//! 4. If `n % 8 != 0`, the trailing bytes, zero-extended to a
//!    little-endian word `t`, fold in: `h = step(h, t)`.
//! 5. The length folds in last: `h = step(h, n)`.
//!
//! # Detection guarantee
//!
//! Every step is a bijection of the value it updates when the other
//! inputs are held fixed: xor with a word is its own inverse,
//! multiplication by the odd `PRIME` is invertible modulo 2⁶⁴, and so
//! is a rotation. So two inputs of equal length that differ only inside
//! one aligned word (the tail counts as one word) always hash
//! differently. In particular every single-bit flip is detected, not
//! merely with high probability.
//!
//! The rotation and the second multiply are what make changes to
//! *several* words collide only by chance. A multiply carries
//! differences upward only, and it passes a difference in bit 63
//! through unchanged. With FNV-1a's single multiply, a flip of a word's
//! top bit would stay in bit 63 through every later step, and a second
//! top-bit flip anywhere would cancel it. A rotation alone would only
//! move that difference to bit 30, where a flip of bit 30 in the lane's
//! next word would cancel it. After the rotation, the second multiply
//! meets every difference below bit 63, where the carries it causes
//! depend on the hashed data. No flip pattern then cancels for every
//! input; the unit tests check every pair of bit flips in a 64-byte
//! block and every pair of top-bit flips in a two-sector block.
//!
//! # Streaming
//!
//! [`Checksum`] computes the same value incrementally: any split of the
//! input into [`Checksum::write`] and [`Checksum::write_zeros`] calls
//! gives the one-shot [`fnv1a`] of the concatenated bytes, so a stored
//! payload's sector padding is hashed without a padded copy being built.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
const LANES: usize = 4;

/// The checksum of `bytes` (see the [module docs](self) for the
/// definition and its detection guarantee).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Checksum::new();
    h.write(bytes);
    h.finish()
}

/// Streaming form of [`fnv1a`].
#[derive(Clone, Debug)]
pub struct Checksum {
    lanes: [u64; LANES],
    /// Full words absorbed so far; the next one updates lane
    /// `words % LANES`.
    words: u64,
    /// Pending bytes of a partial word, little-endian.
    tail: u64,
    /// Number of pending bytes (`0..8`).
    tail_len: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

#[inline]
fn step(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(PRIME)
        .rotate_left(31)
        .wrapping_mul(PRIME)
}

#[inline]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// The zero run [`Checksum::write_zeros`] feeds through the word loop.
static ZEROS: [u8; 512] = [0; 512];

impl Checksum {
    /// A hasher over the empty string.
    pub const fn new() -> Self {
        Checksum {
            lanes: [OFFSET; LANES],
            words: 0,
            tail: 0,
            tail_len: 0,
        }
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        let lane = (self.words % LANES as u64) as usize;
        self.lanes[lane] = step(self.lanes[lane], word);
        self.words += 1;
    }

    /// Append `bytes` to the hashed string.
    #[inline]
    pub fn write(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            for (i, &b) in bytes[..take].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (self.tail_len + i));
            }
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            let word = self.tail;
            (self.tail, self.tail_len) = (0, 0);
            self.absorb(word);
        }
        // Bring the next word onto lane 0, then run the lanes in step.
        while !self.words.is_multiple_of(LANES as u64) && bytes.len() >= 8 {
            self.absorb(word_at(bytes, 0));
            bytes = &bytes[8..];
        }
        if self.words.is_multiple_of(LANES as u64) {
            let mut chunks = bytes.chunks_exact(8 * LANES);
            let [mut a, mut b, mut c, mut d] = self.lanes;
            let mut n = 0u64;
            for ch in &mut chunks {
                a = step(a, word_at(ch, 0));
                b = step(b, word_at(ch, 8));
                c = step(c, word_at(ch, 16));
                d = step(d, word_at(ch, 24));
                n += LANES as u64;
            }
            self.lanes = [a, b, c, d];
            self.words += n;
            bytes = chunks.remainder();
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.absorb(word_at(w, 0));
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
        self.tail_len = words.remainder().len();
    }

    /// Append `n` zero bytes to the hashed string without the caller
    /// materializing them.
    pub fn write_zeros(&mut self, mut n: usize) {
        while n > 0 {
            let take = n.min(ZEROS.len());
            self.write(&ZEROS[..take]);
            n -= take;
        }
    }

    /// The checksum of everything written so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.lanes.iter().fold(OFFSET, |h, &lane| step(h, lane));
        if self.tail_len > 0 {
            h = step(h, self.tail);
        }
        step(h, self.words * 8 + self.tail_len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, transcribed literally: the reference the fast
    /// paths are checked against.
    fn reference(bytes: &[u8]) -> u64 {
        let mut lanes = [OFFSET; LANES];
        let mut words = bytes.chunks_exact(8);
        for (i, w) in (&mut words).enumerate() {
            lanes[i % LANES] = step(lanes[i % LANES], word_at(w, 0));
        }
        let mut h = lanes.iter().fold(OFFSET, |h, &l| step(h, l));
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut t = [0u8; 8];
            t[..rest.len()].copy_from_slice(rest);
            h = step(h, u64::from_le_bytes(t));
        }
        step(h, bytes.len() as u64)
    }

    fn pattern(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed) ^ (i >> 8) as u8)
            .collect()
    }

    #[test]
    fn one_shot_matches_the_definition() {
        for n in (0..80).chain([511, 512, 513, 1024, 4099]) {
            let b = pattern(n, 3);
            assert_eq!(fnv1a(&b), reference(&b), "length {n}");
        }
    }

    #[test]
    fn known_answers_pin_the_format() {
        // On-disk stamps and journal sums are these values: a change
        // here is a format change and needs a new index VERSION.
        assert_eq!(fnv1a(b""), 0x9933_b2ec_1beb_efd3);
        assert_eq!(fnv1a(b"strands"), 0xe9c3_c89a_1456_7839);
        assert_eq!(fnv1a(&pattern(33, 0)), 0x2ae7_e5db_5c56_f46e);
        assert_eq!(fnv1a(&pattern(512, 0)), 0x7287_786f_371c_af52);
    }

    #[test]
    fn every_split_into_writes_and_zero_runs_agrees() {
        let data = pattern(300, 9);
        for zeros in [0usize, 1, 7, 8, 9, 31, 32, 33, 212] {
            let mut padded = data.clone();
            padded.resize(data.len() + zeros, 0);
            let want = fnv1a(&padded);
            for cut in [0, 1, 5, 8, 13, 32, 100, 299, 300] {
                let mut h = Checksum::new();
                h.write(&data[..cut]);
                h.write(&data[cut..]);
                h.write_zeros(zeros);
                assert_eq!(h.finish(), want, "cut {cut} zeros {zeros}");
            }
            // Zeros split across calls and interleaved with empty writes.
            let mut h = Checksum::new();
            h.write(&data);
            h.write_zeros(zeros / 3);
            h.write(&[]);
            h.write_zeros(zeros - zeros / 3);
            assert_eq!(h.finish(), want, "zeros {zeros} in two runs");
        }
        // A zero run in the middle, between byte-aligned pieces.
        let mut whole = pattern(13, 1);
        whole.resize(13 + 77, 0);
        whole.extend(pattern(41, 2));
        let mut h = Checksum::new();
        h.write(&pattern(13, 1));
        h.write_zeros(77);
        h.write(&pattern(41, 2));
        assert_eq!(h.finish(), fnv1a(&whole));
    }

    #[test]
    fn every_single_bit_flip_of_two_sectors_is_detected() {
        let block = pattern(1024, 5);
        let clean = fnv1a(&block);
        let mut b = block.clone();
        for bit in 0..b.len() * 8 {
            b[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a(&b), clean, "flip of bit {bit}");
            b[bit / 8] ^= 1 << (bit % 8);
        }
        let mut swapped = block[512..].to_vec();
        swapped.extend_from_slice(&block[..512]);
        assert_ne!(fnv1a(&swapped), clean, "sector swap");
    }

    #[test]
    fn every_pair_of_bit_flips_in_64_bytes_is_detected() {
        // Eight words: two per lane, then the lane fold — every way two
        // differences can meet inside a lane or across lanes.
        let block = pattern(64, 8);
        let clean = fnv1a(&block);
        let mut b = block.clone();
        for i in 0..b.len() * 8 {
            b[i / 8] ^= 1 << (i % 8);
            for j in i + 1..b.len() * 8 {
                b[j / 8] ^= 1 << (j % 8);
                assert_ne!(fnv1a(&b), clean, "flips of bits {i} and {j}");
                b[j / 8] ^= 1 << (j % 8);
            }
            b[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn top_bit_flip_pairs_of_two_sectors_are_detected() {
        // A multiply leaves a bit-63 difference in place, so these are
        // the pairs a step without downward mixing would miss: any two
        // word top bits, and a top bit with any bit of the lane's next
        // word.
        let block = pattern(1024, 6);
        let clean = fnv1a(&block);
        let words = block.len() / 8;
        let top = |w: usize| (8 * w + 7, 7);
        let mut b = block.clone();
        let flip = |b: &mut [u8], (byte, bit): (usize, u32)| b[byte] ^= 1 << bit;
        for i in 0..words {
            flip(&mut b, top(i));
            for j in i + 1..words {
                flip(&mut b, top(j));
                assert_ne!(fnv1a(&b), clean, "top bits of words {i} and {j}");
                flip(&mut b, top(j));
            }
            for bit in 0..64 {
                let next = (8 * (i + LANES) + bit / 8, (bit % 8) as u32);
                if next.0 < b.len() {
                    flip(&mut b, next);
                    assert_ne!(fnv1a(&b), clean, "top of word {i}, bit {bit} after");
                    flip(&mut b, next);
                }
            }
            flip(&mut b, top(i));
        }
    }

    #[test]
    fn length_is_part_of_the_sum() {
        assert_ne!(fnv1a(&[0; 7]), fnv1a(&[0; 8]));
        assert_ne!(fnv1a(&[]), fnv1a(&[0]));
        assert_ne!(fnv1a(&[0; 512]), fnv1a(&[0; 520]));
    }
}
