// Full statevector of an n-qubit register.
//
// Amplitude order: basis state |b_{n-1} … b_1 b_0⟩ lives at index
// Σ b_k 2^k (qubit 0 is the least-significant bit).
//
// Copying: a StateVector copy is a 2^n memcpy plus a possible
// page-faulting allocation, so checkpoint copies never use the copy
// constructor directly — they go through StateBufferPool::acquire_copy
// (recycled buffers) or CowState (sim/buffer_pool.hpp), which defers the
// copy until the buffer is first written. check_source_rules.sh rule 5
// enforces this outside sim/buffer_pool.*.
//
// Storage: amplitudes live in an AmpBuffer, a std::vector whose allocator
// backs every buffer of 2 MiB or more (17+ qubits) with 2 MiB-aligned
// memory advised for transparent huge pages, so a gate sweep over a
// 256 MiB state walks 128 page-table entries instead of 65,536. The
// allocation itself lives in sim/buffer_pool.cpp with the rest of the
// state-buffer management.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace rqsim {

namespace detail {

/// Raw storage for amplitude buffers (sim/buffer_pool.cpp). Requests of
/// kHugePageBytes or more are served by their own 2 MiB-aligned mapping
/// with MADV_HUGEPAGE; where that advice is refused (THP off) the mapping
/// is used with normal pages. Smaller requests use operator new. Throws
/// std::bad_alloc on failure.
void* allocate_amplitudes(std::size_t bytes);
void deallocate_amplitudes(void* p, std::size_t bytes) noexcept;

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

}  // namespace detail

/// Stateless allocator routing amplitude storage through
/// detail::allocate_amplitudes.
template <class T>
struct StateAllocator {
  using value_type = T;
  using is_always_equal = std::true_type;

  StateAllocator() = default;
  template <class U>
  StateAllocator(const StateAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(detail::allocate_amplitudes(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::deallocate_amplitudes(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const StateAllocator<U>&) const noexcept {
    return true;
  }
};

using AmpBuffer = std::vector<cplx, StateAllocator<cplx>>;

class StateVector {
 public:
  StateVector() = default;

  /// |0…0⟩ on `num_qubits` qubits.
  explicit StateVector(unsigned num_qubits);

  /// Basis state |index⟩.
  StateVector(unsigned num_qubits, std::uint64_t basis_index);

  /// Adopt an existing amplitude buffer (size must be 2^num_qubits). Used
  /// by the checkpoint buffer pool to recycle allocations.
  static StateVector from_buffer(unsigned num_qubits, AmpBuffer buffer);

  /// Move the amplitude buffer out, leaving this state empty (0 qubits).
  AmpBuffer take_buffer();

  unsigned num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return amps_.size(); }

  cplx& operator[](std::size_t i) { return amps_[i]; }
  const cplx& operator[](std::size_t i) const { return amps_[i]; }

  const AmpBuffer& amplitudes() const { return amps_; }
  AmpBuffer& amplitudes() { return amps_; }

  /// Reset to |0…0⟩.
  void reset();

  /// Σ |amp|² — 1.0 for a normalized state.
  double norm_squared() const;

  /// Probability of measuring basis state `index`.
  double probability(std::uint64_t index) const;

  /// Fidelity |⟨a|b⟩|² with another state of the same size.
  double fidelity(const StateVector& other) const;

  /// Max |a_i - b_i| over all amplitudes.
  double max_abs_diff(const StateVector& other) const;

  /// Exact equality of every amplitude (used by the bitwise-equivalence
  /// proof between baseline and cached execution).
  bool bitwise_equal(const StateVector& other) const;

 private:
  unsigned num_qubits_ = 0;
  AmpBuffer amps_;
};

}  // namespace rqsim
