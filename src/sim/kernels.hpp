// Gate-application kernels: in-place matrix-vector updates on a StateVector.
//
// Each kernel is one "basic operation" in the paper's computation metric.
// The bit-twiddling index transforms live in common/bits.hpp.
//
// Cache blocking (apply_gates): a gate is block-local for blocks of B
// qubits when every qubit it moves — the target of X/Y/H/RX/RY/RZ/U2/U3/
// CX/CCX, both qubits of SWAP — is below B. Controls and the qubits of
// diagonal gates (Z/S/Sdg/T/Tdg/P/CZ/CP) may sit anywhere: a qubit at or
// above B is constant within a block, so it only decides whether the block
// gets the gate at all. A maximal run of block-local gates is applied
// block by block, each block staying in L2 across the whole run, instead
// of one full-state sweep per gate. Every amplitude still goes through the
// same kernel arithmetic in the same gate order, so the result is bitwise
// identical to gate-by-gate application; nothing is fused.
#pragma once

#include <cstdint>
#include <span>

#include "circuit/fusion.hpp"
#include "circuit/gate.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pauli.hpp"
#include "sim/statevector.hpp"

namespace rqsim {

/// Apply a general 2x2 unitary to `target`.
void apply_mat2(StateVector& state, const Mat2& m, qubit_t target);

/// Apply a general 4x4 unitary to (q1, q0): matrix index = (bit(q1)<<1)|bit(q0).
void apply_mat4(StateVector& state, const Mat4& m, qubit_t q1, qubit_t q0);

/// Specialized fast paths.
void apply_x(StateVector& state, qubit_t target);
void apply_y(StateVector& state, qubit_t target);
void apply_z(StateVector& state, qubit_t target);
void apply_h(StateVector& state, qubit_t target);
void apply_phase(StateVector& state, qubit_t target, cplx phase);
void apply_cx(StateVector& state, qubit_t control, qubit_t target);
void apply_cz(StateVector& state, qubit_t a, qubit_t b);
void apply_cphase(StateVector& state, qubit_t a, qubit_t b, cplx phase);
void apply_swap(StateVector& state, qubit_t a, qubit_t b);
void apply_ccx(StateVector& state, qubit_t c1, qubit_t c2, qubit_t target);

/// Apply a circuit gate, dispatching to the fast path where one exists.
void apply_gate(StateVector& state, const Gate& gate);

/// Block size of apply_gates: 2^16 amplitudes = 1 MiB, half of a 2 MiB L2.
inline constexpr unsigned kBlockQubits = 16;

/// Apply `gates` in order, each maximal run of block-local gates in one
/// sweep over blocks of `block_qubits` qubits (see the header comment).
/// Bitwise identical to apply_gate on each gate in turn. States with fewer
/// than block_qubits + 2 qubits take the gate-by-gate path. Returns the
/// memory passes made: one per blocked run plus one per other gate.
/// `block_qubits` is fixed at kBlockQubits outside the kernel tests.
std::uint64_t apply_gates(StateVector& state, std::span<const Gate* const> gates,
                          unsigned block_qubits = kBlockQubits);

/// Apply a fused gate program (see circuit/fusion.hpp) in op order.
void apply_fused(StateVector& state, const FusedProgram& program);

/// Apply a single-qubit Pauli error operator.
void apply_pauli(StateVector& state, Pauli p, qubit_t target);

/// Apply a two-qubit Pauli-pair error operator to (q1, q0).
void apply_pauli_pair(StateVector& state, PauliPair pair, qubit_t q1, qubit_t q0);

}  // namespace rqsim
