#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace rqsim {

StateVector::StateVector(unsigned num_qubits) : StateVector(num_qubits, 0) {}

StateVector::StateVector(unsigned num_qubits, std::uint64_t basis_index)
    : num_qubits_(num_qubits) {
  RQSIM_CHECK(num_qubits >= 1 && num_qubits <= 30,
              "StateVector: num_qubits must be in [1, 30] for explicit amplitudes");
  RQSIM_CHECK(basis_index < pow2(num_qubits), "StateVector: basis index out of range");
  amps_.assign(pow2(num_qubits), cplx(0.0));
  amps_[basis_index] = 1.0;
}

StateVector StateVector::from_buffer(unsigned num_qubits, AmpBuffer buffer) {
  RQSIM_CHECK(buffer.size() == pow2(num_qubits),
              "StateVector::from_buffer: buffer size must be 2^num_qubits");
  StateVector state;
  state.num_qubits_ = num_qubits;
  state.amps_ = std::move(buffer);
  return state;
}

AmpBuffer StateVector::take_buffer() {
  num_qubits_ = 0;
  return std::move(amps_);
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx(0.0));
  amps_[0] = 1.0;
}

double StateVector::norm_squared() const {
  double acc = 0.0;
  for (const cplx& a : amps_) {
    acc += std::norm(a);
  }
  return acc;
}

double StateVector::probability(std::uint64_t index) const {
  RQSIM_CHECK(index < amps_.size(), "StateVector::probability: index out of range");
  return std::norm(amps_[index]);
}

double StateVector::fidelity(const StateVector& other) const {
  RQSIM_CHECK(dim() == other.dim(), "StateVector::fidelity: size mismatch");
  cplx overlap = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    overlap += std::conj(amps_[i]) * other.amps_[i];
  }
  return std::norm(overlap);
}

double StateVector::max_abs_diff(const StateVector& other) const {
  RQSIM_CHECK(dim() == other.dim(), "StateVector::max_abs_diff: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    worst = std::max(worst, std::abs(amps_[i] - other.amps_[i]));
  }
  return worst;
}

bool StateVector::bitwise_equal(const StateVector& other) const {
  if (dim() != other.dim()) {
    return false;
  }
  return std::memcmp(amps_.data(), other.amps_.data(), amps_.size() * sizeof(cplx)) == 0;
}

}  // namespace rqsim
