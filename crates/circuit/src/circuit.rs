//! A boolean circuit IR with bounded fan-in and measured complexity.
//!
//! Gates have fan-in at most 2 (NC-style); inputs are numbered wires. The
//! structure is a DAG in topological order (a gate may only reference
//! earlier nodes), so evaluation, depth and dependency analyses are single
//! passes.

/// A node index within a circuit.
pub type NodeId = usize;

/// A gate (or input) of the circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// A primary input wire.
    Input,
    /// Constant false / true.
    Const(bool),
    /// Negation.
    Not(NodeId),
    /// Conjunction.
    And(NodeId, NodeId),
    /// Disjunction.
    Or(NodeId, NodeId),
    /// Exclusive or.
    Xor(NodeId, NodeId),
}

impl Gate {
    fn operands(&self) -> [Option<NodeId>; 2] {
        match *self {
            Gate::Input | Gate::Const(_) => [None, None],
            Gate::Not(a) => [Some(a), None],
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => [Some(a), Some(b)],
        }
    }
}

/// A circuit: gates in topological order plus designated output nodes.
#[derive(Clone, Debug)]
pub struct Circuit {
    gates: Vec<Gate>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

impl Circuit {
    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// The output node list (bit order is the caller's layout).
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Total number of non-input, non-constant gates.
    pub fn gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !matches!(g, Gate::Input | Gate::Const(_)))
            .count()
    }

    /// Circuit depth: the longest input→output path counted in gates.
    /// An NC⁰ family has depth bounded by a constant independent of the
    /// input size.
    pub fn depth(&self) -> usize {
        let mut d = vec![0usize; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            let dep = g
                .operands()
                .into_iter()
                .flatten()
                .map(|o| d[o])
                .max()
                .unwrap_or(0);
            d[i] = match g {
                Gate::Input | Gate::Const(_) => 0,
                _ => dep + 1,
            };
        }
        self.outputs.iter().map(|&o| d[o]).max().unwrap_or(0)
    }

    /// The maximum number of primary inputs any single output depends on.
    /// For an NC⁰ family this is bounded by a constant; for the
    /// re-evaluation circuits it grows with the domain.
    pub fn max_output_support(&self) -> usize {
        use std::collections::BTreeSet;
        let mut support: Vec<BTreeSet<NodeId>> = Vec::with_capacity(self.gates.len());
        for (i, g) in self.gates.iter().enumerate() {
            let mut s = BTreeSet::new();
            if matches!(g, Gate::Input) {
                s.insert(i);
            }
            for o in g.operands().into_iter().flatten() {
                s.extend(support[o].iter().copied());
            }
            support.push(s);
        }
        self.outputs
            .iter()
            .map(|&o| support[o].len())
            .max()
            .unwrap_or(0)
    }

    /// Evaluate the circuit on an input assignment (`bits.len()` must equal
    /// [`Circuit::input_count`]). Returns the output bits.
    pub fn evaluate(&self, bits: &[bool]) -> Vec<bool> {
        assert_eq!(bits.len(), self.inputs.len(), "input arity mismatch");
        let mut vals = vec![false; self.gates.len()];
        let mut next_input = 0;
        for (i, g) in self.gates.iter().enumerate() {
            vals[i] = match *g {
                Gate::Input => {
                    let v = bits[next_input];
                    next_input += 1;
                    v
                }
                Gate::Const(b) => b,
                Gate::Not(a) => !vals[a],
                Gate::And(a, b) => vals[a] && vals[b],
                Gate::Or(a, b) => vals[a] || vals[b],
                Gate::Xor(a, b) => vals[a] ^ vals[b],
            };
        }
        self.outputs.iter().map(|&o| vals[o]).collect()
    }
}

/// An append-only circuit builder.
#[derive(Clone, Debug, Default)]
pub struct CircuitBuilder {
    gates: Vec<Gate>,
    inputs: Vec<NodeId>,
}

impl CircuitBuilder {
    /// A fresh builder.
    pub fn new() -> CircuitBuilder {
        CircuitBuilder::default()
    }

    /// Allocate one primary input; returns its node.
    pub fn input(&mut self) -> NodeId {
        let id = self.push(Gate::Input);
        self.inputs.push(id);
        id
    }

    /// Allocate `n` primary inputs.
    pub fn inputs(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.input()).collect()
    }

    /// A constant node.
    pub fn constant(&mut self, b: bool) -> NodeId {
        self.push(Gate::Const(b))
    }

    /// `¬a`.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.push(Gate::Not(a))
    }

    /// `a ∧ b`.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::And(a, b))
    }

    /// `a ∨ b`.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Or(a, b))
    }

    /// `a ⊕ b`.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Xor(a, b))
    }

    /// A full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NodeId, b: NodeId, cin: NodeId) -> (NodeId, NodeId) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let ab = self.and(a, b);
        let cx = self.and(axb, cin);
        let carry = self.or(ab, cx);
        (sum, carry)
    }

    /// Ripple-carry addition of two little-endian `k`-bit numbers modulo
    /// `2^k`. Depth `O(k)` — constant in the circuit family parameter.
    pub fn add_mod(&mut self, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(a.len(), b.len(), "operand widths differ");
        let mut carry = self.constant(false);
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        out
    }

    /// Balanced-tree addition of many `k`-bit numbers modulo `2^k`:
    /// depth `O(k · log n)` with fan-in 2. This is the bounded-fan-in cost
    /// of the counting that `flatten` requires — the reason re-evaluation
    /// is not NC⁰ (Thm. 9's final remark).
    pub fn sum_mod(&mut self, operands: &[Vec<NodeId>], width: usize) -> Vec<NodeId> {
        if operands.is_empty() {
            let zero = self.constant(false);
            return vec![zero; width];
        }
        let mut layer: Vec<Vec<NodeId>> = operands.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.chunks(2);
            for chunk in &mut it {
                match chunk {
                    [a, b] => next.push(self.add_mod(a, b)),
                    [a] => next.push(a.clone()),
                    _ => unreachable!("chunks(2)"),
                }
            }
            layer = next;
        }
        layer.pop().expect("non-empty")
    }

    /// Multiply two `k`-bit numbers modulo `2^k` (shift-and-add).
    pub fn mul_mod(&mut self, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(a.len(), b.len(), "operand widths differ");
        let k = a.len();
        let zero = self.constant(false);
        let mut partials = Vec::with_capacity(k);
        for (shift, &bbit) in b.iter().enumerate() {
            let mut row = vec![zero; k];
            for i in 0..k - shift {
                row[i + shift] = self.and(a[i], bbit);
            }
            partials.push(row);
        }
        self.sum_mod(&partials, k)
    }

    /// Finalize with the given output nodes.
    pub fn finish(self, outputs: Vec<NodeId>) -> Circuit {
        Circuit {
            gates: self.gates,
            inputs: self.inputs,
            outputs,
        }
    }

    fn push(&mut self, g: Gate) -> NodeId {
        for o in g.operands().into_iter().flatten() {
            assert!(o < self.gates.len(), "gate references a later node");
        }
        self.gates.push(g);
        self.gates.len() - 1
    }
}

/// Encode a `u64` as `k` little-endian bits.
pub fn to_bits(v: u64, k: usize) -> Vec<bool> {
    (0..k).map(|i| (v >> i) & 1 == 1).collect()
}

/// Decode `k` little-endian bits into a `u64`.
pub fn from_bits(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_adds_mod_2k() {
        let k = 4;
        let mut b = CircuitBuilder::new();
        let a = b.inputs(k);
        let c = b.inputs(k);
        let out = b.add_mod(&a, &c);
        let circuit = b.finish(out);
        for (x, y) in [(0u64, 0u64), (3, 5), (9, 9), (15, 1), (12, 7)] {
            let mut bits = to_bits(x, k);
            bits.extend(to_bits(y, k));
            let res = from_bits(&circuit.evaluate(&bits));
            assert_eq!(res, (x + y) % 16, "{x}+{y}");
        }
    }

    #[test]
    fn adder_depth_is_constant_in_operand_count() {
        let k = 8;
        let mut b = CircuitBuilder::new();
        let a = b.inputs(k);
        let c = b.inputs(k);
        let out = b.add_mod(&a, &c);
        let circuit = b.finish(out);
        // Depth depends only on k.
        assert!(circuit.depth() <= 2 * k + 2);
        assert_eq!(circuit.max_output_support(), 2 * k);
    }

    #[test]
    fn sum_tree_depth_grows_logarithmically() {
        let k = 4;
        let mut depths = vec![];
        for n in [2usize, 4, 8, 16, 32] {
            let mut b = CircuitBuilder::new();
            let operands: Vec<Vec<NodeId>> = (0..n).map(|_| b.inputs(k)).collect();
            let out = b.sum_mod(&operands, k);
            let c = b.finish(out);
            depths.push(c.depth());
        }
        // Strictly increasing with n (log factor), roughly +adder-depth per
        // doubling.
        for w in depths.windows(2) {
            assert!(w[1] > w[0], "depths not increasing: {depths:?}");
        }
    }

    #[test]
    fn sum_tree_sums_correctly() {
        let k = 5;
        let vals = [3u64, 7, 12, 1, 30, 2];
        let mut b = CircuitBuilder::new();
        let operands: Vec<Vec<NodeId>> = vals.iter().map(|_| b.inputs(k)).collect();
        let out = b.sum_mod(&operands, k);
        let c = b.finish(out);
        let mut bits = vec![];
        for v in vals {
            bits.extend(to_bits(v, k));
        }
        assert_eq!(from_bits(&c.evaluate(&bits)), vals.iter().sum::<u64>() % 32);
    }

    #[test]
    fn multiplier_multiplies_mod_2k() {
        let k = 6;
        let mut b = CircuitBuilder::new();
        let a = b.inputs(k);
        let c = b.inputs(k);
        let out = b.mul_mod(&a, &c);
        let circ = b.finish(out);
        for (x, y) in [(0u64, 7u64), (3, 5), (9, 9), (63, 63)] {
            let mut bits = to_bits(x, k);
            bits.extend(to_bits(y, k));
            assert_eq!(from_bits(&circ.evaluate(&bits)), (x * y) % 64, "{x}*{y}");
        }
    }

    #[test]
    fn gates_and_constants() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let n = b.not(x);
        let o = b.or(n, y);
        let t = b.constant(true);
        let a = b.and(o, t);
        let c = b.finish(vec![a]);
        assert_eq!(c.evaluate(&[false, false]), vec![true]);
        assert_eq!(c.evaluate(&[true, false]), vec![false]);
        assert_eq!(c.evaluate(&[true, true]), vec![true]);
        assert_eq!(c.input_count(), 2);
        assert!(c.gate_count() >= 3);
    }

    #[test]
    fn bit_codecs_roundtrip() {
        for v in [0u64, 1, 5, 100, 255] {
            assert_eq!(from_bits(&to_bits(v, 8)), v % 256);
        }
    }

    #[test]
    #[should_panic(expected = "input arity mismatch")]
    fn wrong_arity_panics() {
        let mut b = CircuitBuilder::new();
        let _ = b.input();
        let c = b.finish(vec![]);
        c.evaluate(&[true, false]);
    }
}
