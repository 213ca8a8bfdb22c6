#include "sim/reference.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"

namespace rqsim {

DenseMatrix gate_to_dense(const Gate& gate, unsigned num_qubits) {
  switch (gate.arity()) {
    case 1:
      return DenseMatrix::lift1(gate_matrix1(gate), gate.qubits[0], num_qubits);
    case 2:
      return DenseMatrix::lift2(gate_matrix2(gate), gate.qubits[0], gate.qubits[1],
                                num_qubits);
    case 3: {
      // CCX: permutation matrix flipping the target where both controls set.
      RQSIM_CHECK(gate.kind == GateKind::CCX, "gate_to_dense: unknown 3-qubit gate");
      const std::size_t dim = pow2(num_qubits);
      DenseMatrix m(dim);
      const std::uint64_t c1 = std::uint64_t{1} << gate.qubits[0];
      const std::uint64_t c2 = std::uint64_t{1} << gate.qubits[1];
      const std::uint64_t t = std::uint64_t{1} << gate.qubits[2];
      for (std::uint64_t col = 0; col < dim; ++col) {
        const std::uint64_t row = ((col & c1) && (col & c2)) ? (col ^ t) : col;
        m.at(row, col) = 1.0;
      }
      return m;
    }
    default:
      RQSIM_CHECK(false, "gate_to_dense: unsupported arity");
  }
  return DenseMatrix();
}

DenseMatrix circuit_to_dense(const Circuit& circuit) {
  RQSIM_CHECK(circuit.num_qubits() <= 10,
              "circuit_to_dense: reference simulator limited to 10 qubits");
  DenseMatrix acc = DenseMatrix::identity(pow2(circuit.num_qubits()));
  for (const Gate& g : circuit.gates()) {
    acc = gate_to_dense(g, circuit.num_qubits()) * acc;
  }
  return acc;
}

StateVector reference_simulate(const Circuit& circuit) {
  RQSIM_CHECK(circuit.num_qubits() <= 10,
              "reference_simulate: limited to 10 qubits");
  StateVector state(circuit.num_qubits());
  std::vector<cplx> v(state.amplitudes().begin(), state.amplitudes().end());
  for (const Gate& g : circuit.gates()) {
    v = gate_to_dense(g, circuit.num_qubits()).apply(v);
  }
  state.amplitudes().assign(v.begin(), v.end());
  return state;
}

}  // namespace rqsim
