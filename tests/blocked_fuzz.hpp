// Randomized bitwise check of the cache-blocked gate path: apply_gates with
// a forced small block size (2-5 qubits) against apply_gate gate by gate,
// on 6-10-qubit states. Shared by kernel_engine_test and the sanitizer
// smoke binaries, so the block pointer arithmetic also runs under
// ASan/UBSan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "circuit/gate.hpp"
#include "common/rng.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"

namespace rqsim::fuzz {

/// What one fuzz sweep covered, so a caller can assert that the cases the
/// blocking rule distinguishes all occurred.
struct BlockedFuzzReport {
  std::uint64_t cases = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t gates = 0;
  std::uint64_t passes = 0;
  std::uint64_t diagonal_above_block = 0;  // phase qubit >= block size
  std::uint64_t control_above_block = 0;   // CX/CCX control >= block size
  std::uint64_t target_above_block = 0;    // RZ/U3/H target >= block size
};

/// A random gate over every GateKind. Moved qubits lean towards the block
/// (so block-local runs form); controls and phase qubits are uniform.
inline Gate random_blocked_gate(Rng& rng, unsigned n, unsigned block) {
  static const GateKind kKinds[] = {
      GateKind::X,  GateKind::Y,  GateKind::Z,  GateKind::H,   GateKind::S,
      GateKind::Sdg, GateKind::T, GateKind::Tdg, GateKind::P,  GateKind::RX,
      GateKind::RY, GateKind::RZ, GateKind::U2, GateKind::U3,  GateKind::CX,
      GateKind::CZ, GateKind::CP, GateKind::SWAP, GateKind::CCX};
  const GateKind kind = kKinds[rng.uniform_int(std::size(kKinds))];
  const auto moved = [&] {
    return static_cast<qubit_t>(rng.uniform() < 0.7 ? rng.uniform_int(block)
                                                    : rng.uniform_int(n));
  };
  const auto distinct = [&](std::vector<qubit_t> taken) {
    qubit_t q = 0;
    do {
      q = static_cast<qubit_t>(rng.uniform_int(n));
    } while (std::find(taken.begin(), taken.end(), q) != taken.end());
    return q;
  };
  const double a = rng.uniform(0.0, 3.0);
  const double b = rng.uniform(0.0, 3.0);
  const double c = rng.uniform(0.0, 3.0);
  switch (gate_arity(kind)) {
    case 1:
      return Gate::make1(kind, moved(), a, b, c);
    case 2: {
      const qubit_t t = moved();
      qubit_t other = distinct({t});
      if (kind == GateKind::SWAP && rng.uniform() < 0.7) {
        do {
          other = static_cast<qubit_t>(rng.uniform_int(block));
        } while (other == t);
      }
      // CX operand order is (control, target).
      return Gate::make2(kind, other, t, a);
    }
    default: {
      const qubit_t t = moved();
      const qubit_t c1 = distinct({t});
      const qubit_t c2 = distinct({t, c1});
      return Gate::make3(kind, c1, c2, t);
    }
  }
}

inline bool is_diagonal(GateKind kind) {
  switch (kind) {
    case GateKind::Z:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::P:
    case GateKind::CZ:
    case GateKind::CP:
      return true;
    default:
      return false;
  }
}

inline void note_coverage(const Gate& g, unsigned block, BlockedFuzzReport& report) {
  const int arity = g.arity();
  if (is_diagonal(g.kind)) {
    for (int k = 0; k < arity; ++k) {
      report.diagonal_above_block += g.qubits[k] >= block ? 1 : 0;
    }
  } else if (g.kind == GateKind::CX || g.kind == GateKind::CCX) {
    for (int k = 0; k + 1 < arity; ++k) {
      report.control_above_block += g.qubits[k] >= block ? 1 : 0;
    }
  } else if ((g.kind == GateKind::RZ || g.kind == GateKind::U3 ||
              g.kind == GateKind::H) &&
             g.qubits[0] >= block) {
    report.target_above_block += 1;
  }
}

/// Run `count` random circuits from `first_seed` and compare the blocked
/// path with gate-by-gate application bitwise.
inline BlockedFuzzReport run_blocked_fuzz(std::uint64_t first_seed, std::uint64_t count) {
  BlockedFuzzReport report;
  for (std::uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    Rng rng(seed);
    const unsigned n = 6 + static_cast<unsigned>(rng.uniform_int(5));
    const unsigned block = 2 + static_cast<unsigned>(rng.uniform_int(4));
    StateVector start(n);
    for (std::size_t i = 0; i < start.dim(); ++i) {
      start[i] = cplx(rng.normal(), rng.normal());
    }
    std::vector<Gate> gates;
    const std::size_t len = 10 + rng.uniform_int(50);
    for (std::size_t i = 0; i < len; ++i) {
      gates.push_back(random_blocked_gate(rng, n, block));
      note_coverage(gates.back(), block, report);
    }
    std::vector<const Gate*> ptrs;
    for (const Gate& g : gates) {
      ptrs.push_back(&g);
    }
    StateVector serial = StateVector::from_buffer(n, start.amplitudes());
    for (const Gate& g : gates) {
      apply_gate(serial, g);
    }
    StateVector blocked = StateVector::from_buffer(n, start.amplitudes());
    report.passes += apply_gates(blocked, ptrs, block);
    report.gates += gates.size();
    report.cases += 1;
    report.mismatches += blocked.bitwise_equal(serial) ? 0 : 1;
  }
  return report;
}

}  // namespace rqsim::fuzz
