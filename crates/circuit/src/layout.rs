//! The natural bit-sequence representation of shredded views (§5.4).
//!
//! A flat bag over an active domain is encoded as `k` bits per possible
//! tuple, in canonical (sorted) order — each group of `k` bits holds that
//! tuple's multiplicity modulo `2^k`. This is the `F_Bag` representation of
//! the proof of Theorem 9 ("k bits for each possible tuple constructible
//! from the active domain ... in some canonical ordering").

use nrc_data::{Bag, Value};

/// The bit layout of a flat bag: the canonical tuple universe plus the
/// multiplicity width `k`.
#[derive(Clone, Debug)]
pub struct BagLayout {
    /// The possible tuples, sorted (canonical order).
    pub universe: Vec<Value>,
    /// Bits per multiplicity (`multiplicities are computed modulo 2^k`).
    pub k: usize,
}

impl BagLayout {
    /// Build a layout from an explicit tuple universe (sorted and deduped).
    pub fn new(mut universe: Vec<Value>, k: usize) -> BagLayout {
        universe.sort();
        universe.dedup();
        BagLayout { universe, k }
    }

    /// A layout whose universe is `{0, …, n−1}` as integer values —
    /// the canonical single-column active domain used by experiment E6.
    pub fn int_domain(n: usize, k: usize) -> BagLayout {
        BagLayout {
            universe: (0..n as i64).map(Value::int).collect(),
            k,
        }
    }

    /// A layout for pairs over `{0,…,n−1}²` (the output universe of a
    /// self-product).
    pub fn int_pair_domain(n: usize, k: usize) -> BagLayout {
        let mut universe = Vec::with_capacity(n * n);
        for a in 0..n as i64 {
            for b in 0..n as i64 {
                universe.push(Value::pair(Value::int(a), Value::int(b)));
            }
        }
        BagLayout::new(universe, k)
    }

    /// Number of tuple slots.
    pub fn slots(&self) -> usize {
        self.universe.len()
    }

    /// Total number of bits in the representation.
    pub fn bit_len(&self) -> usize {
        self.universe.len() * self.k
    }

    /// Encode a bag into its bit representation (multiplicities mod `2^k`;
    /// negative multiplicities wrap, i.e. they are two's-complement mod
    /// `2^k`, which is exactly what makes `⊎` plain modular addition).
    pub fn encode(&self, bag: &Bag) -> Vec<bool> {
        let modulus = 1i128 << self.k;
        let mut bits = Vec::with_capacity(self.bit_len());
        for v in &self.universe {
            let m = bag.multiplicity(v) as i128;
            let m = ((m % modulus) + modulus) % modulus;
            for i in 0..self.k {
                bits.push((m >> i) & 1 == 1);
            }
        }
        bits
    }

    /// Decode a bit representation back into a bag (multiplicities are
    /// reported in `[0, 2^k)`, the canonical residue).
    pub fn decode(&self, bits: &[bool]) -> Bag {
        assert_eq!(bits.len(), self.bit_len(), "bit length mismatch");
        let mut bag = Bag::empty();
        for (slot, v) in self.universe.iter().enumerate() {
            let mut m = 0i64;
            for i in 0..self.k {
                if bits[slot * self.k + i] {
                    m |= 1 << i;
                }
            }
            bag.insert(v.clone(), m);
        }
        bag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let layout = BagLayout::int_domain(8, 4);
        let bag = Bag::from_pairs([(Value::int(1), 3), (Value::int(5), 7)]);
        let bits = layout.encode(&bag);
        assert_eq!(bits.len(), 8 * 4);
        assert_eq!(layout.decode(&bits), bag);
    }

    #[test]
    fn negative_multiplicities_wrap_mod_2k() {
        let layout = BagLayout::int_domain(4, 4);
        let bag = Bag::from_pairs([(Value::int(2), -1)]);
        let bits = layout.encode(&bag);
        let decoded = layout.decode(&bits);
        // -1 ≡ 15 (mod 16)
        assert_eq!(decoded.multiplicity(&Value::int(2)), 15);
    }

    #[test]
    fn addition_of_encodings_is_bag_union_mod_2k() {
        let layout = BagLayout::int_domain(6, 5);
        let a = Bag::from_pairs([(Value::int(0), 3), (Value::int(4), 2)]);
        let b = Bag::from_pairs([(Value::int(0), 30), (Value::int(1), 1)]);
        // Decode(enc(a) + enc(b) slotwise) == (a ⊎ b) mod 32.
        let ea = layout.encode(&a);
        let eb = layout.encode(&b);
        let mut sum_bits = Vec::new();
        for slot in 0..layout.slots() {
            let x = crate::circuit::from_bits(&ea[slot * 5..(slot + 1) * 5]);
            let y = crate::circuit::from_bits(&eb[slot * 5..(slot + 1) * 5]);
            sum_bits.extend(crate::circuit::to_bits((x + y) % 32, 5));
        }
        let expected = a.union(&b);
        let decoded = layout.decode(&sum_bits);
        assert_eq!(decoded.multiplicity(&Value::int(0)), (3 + 30) % 32);
        assert_eq!(
            decoded.multiplicity(&Value::int(1)),
            expected.multiplicity(&Value::int(1))
        );
    }

    #[test]
    fn pair_domain_size() {
        let layout = BagLayout::int_pair_domain(3, 2);
        assert_eq!(layout.slots(), 9);
        assert_eq!(layout.bit_len(), 18);
    }

    #[test]
    fn universe_is_sorted_and_deduped() {
        let layout = BagLayout::new(vec![Value::int(2), Value::int(1), Value::int(2)], 1);
        assert_eq!(layout.universe, vec![Value::int(1), Value::int(2)]);
    }
}
