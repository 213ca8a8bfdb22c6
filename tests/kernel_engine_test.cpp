#include <gtest/gtest.h>

#include <vector>

#include "bench_circuits/grover.hpp"
#include "blocked_fuzz.hpp"
#include "circuit/circuit.hpp"
#include "circuit/fusion.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "sim/kernel_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/reference.hpp"
#include "sim/statevector.hpp"
#include "transpile/decompose.hpp"

namespace rqsim {
namespace {

constexpr double kTol = 1e-10;

// Restores the process-wide engine config on scope exit so a failing test
// cannot leak threading into unrelated tests.
struct ConfigGuard {
  ~ConfigGuard() { set_kernel_config(KernelConfig{}); }
};

// ------------------------------------------------- blocked index iteration

TEST(BlockedIteration, SingleTargetRunsVisitExactPairIndices) {
  // The runs must enumerate, in order, the same base amplitude indices the
  // per-pair bit-insertion loop produces (runs yield interleaved-double
  // bases = 2 * amplitude index).
  for (unsigned n = 1; n <= 6; ++n) {
    const std::uint64_t half = (std::uint64_t{1} << n) >> 1;
    for (unsigned target = 0; target < n; ++target) {
      std::vector<std::uint64_t> got;
      for_target_runs(target, 0, half,
                      [&](std::uint64_t base, std::uint64_t run, auto step) {
                        constexpr std::uint64_t kStep = decltype(step)::value;
                        for (std::uint64_t j = 0; j < run; ++j) {
                          got.push_back(base + j * kStep);
                        }
                      });
      ASSERT_EQ(got.size(), half);
      for (std::uint64_t k = 0; k < half; ++k) {
        EXPECT_EQ(got[k], insert_zero_bit(k, target))
            << "n=" << n << " target=" << target << " k=" << k;
      }
    }
  }
}

TEST(BlockedIteration, TwoTargetRunsVisitExactQuadIndices) {
  for (unsigned n = 2; n <= 6; ++n) {
    const std::uint64_t quarter = (std::uint64_t{1} << n) >> 2;
    for (unsigned lo = 0; lo + 1 < n; ++lo) {
      for (unsigned hi = lo + 1; hi < n; ++hi) {
        std::vector<std::uint64_t> got;
        for_two_target_runs(lo, hi, 0, quarter,
                            [&](std::uint64_t base, std::uint64_t run, auto step) {
                              constexpr std::uint64_t kStep = decltype(step)::value;
                              for (std::uint64_t j = 0; j < run; ++j) {
                                got.push_back(base + j * kStep);
                              }
                            });
        ASSERT_EQ(got.size(), quarter);
        for (std::uint64_t k = 0; k < quarter; ++k) {
          EXPECT_EQ(got[k], insert_two_zero_bits(k, lo, hi))
              << "n=" << n << " lo=" << lo << " hi=" << hi << " k=" << k;
        }
      }
    }
  }
}

TEST(BlockedIteration, ArbitrarySubrangesPartitionTheSweep) {
  // Chunked traversal (what the worker pool does) must cover exactly the
  // same indices as one full sweep, in the same per-chunk order.
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    const unsigned n = 3 + static_cast<unsigned>(rng.uniform_int(5));
    const unsigned target = static_cast<unsigned>(rng.uniform_int(n));
    const std::uint64_t half = (std::uint64_t{1} << n) >> 1;
    const std::uint64_t cut1 = rng.uniform_int(half + 1);
    const std::uint64_t cut2 = cut1 + rng.uniform_int(half - cut1 + 1);
    std::vector<std::uint64_t> full;
    std::vector<std::uint64_t> chunked;
    auto append_to = [](std::vector<std::uint64_t>& out) {
      return [&out](std::uint64_t base, std::uint64_t run, auto step) {
        constexpr std::uint64_t kStep = decltype(step)::value;
        for (std::uint64_t j = 0; j < run; ++j) {
          out.push_back(base + j * kStep);
        }
      };
    };
    for_target_runs(target, 0, half, append_to(full));
    for_target_runs(target, 0, cut1, append_to(chunked));
    for_target_runs(target, cut1, cut2, append_to(chunked));
    for_target_runs(target, cut2, half, append_to(chunked));
    EXPECT_EQ(chunked, full) << "n=" << n << " target=" << target;
  }
}

// ----------------------------------------------------------- randomized fuzz

Gate random_gate(Rng& rng, unsigned n) {
  static const GateKind kOne[] = {GateKind::X,  GateKind::Y,   GateKind::Z,
                                  GateKind::H,  GateKind::S,   GateKind::Sdg,
                                  GateKind::T,  GateKind::Tdg, GateKind::RX,
                                  GateKind::RY, GateKind::RZ,  GateKind::P,
                                  GateKind::U2, GateKind::U3};
  static const GateKind kTwo[] = {GateKind::CX, GateKind::CZ, GateKind::CP,
                                  GateKind::SWAP};
  const double roll = rng.uniform();
  if (n >= 3 && roll < 0.08) {
    const auto a = static_cast<qubit_t>(rng.uniform_int(n));
    auto b = static_cast<qubit_t>(rng.uniform_int(n - 1));
    if (b >= a) ++b;
    qubit_t c = a;
    while (c == a || c == b) {
      c = static_cast<qubit_t>(rng.uniform_int(n));
    }
    return Gate::make3(GateKind::CCX, a, b, c);
  }
  if (n >= 2 && roll < 0.45) {
    const GateKind kind = kTwo[rng.uniform_int(4)];
    const auto a = static_cast<qubit_t>(rng.uniform_int(n));
    auto b = static_cast<qubit_t>(rng.uniform_int(n - 1));
    if (b >= a) ++b;
    return Gate::make2(kind, a, b, rng.uniform(0.0, 3.0));
  }
  const GateKind kind = kOne[rng.uniform_int(14)];
  return Gate::make1(kind, static_cast<qubit_t>(rng.uniform_int(n)),
                     rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0),
                     rng.uniform(0.0, 3.0));
}

TEST(KernelFuzz, BlockedFusedAndThreadedMatchReference) {
  ConfigGuard guard;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(1234 + seed);
    const unsigned n = 1 + static_cast<unsigned>(rng.uniform_int(10));
    Circuit c(n);
    const std::size_t len = 3 + rng.uniform_int(35);
    for (std::size_t i = 0; i < len; ++i) {
      c.add(random_gate(rng, n));
    }

    // Ground truth: the dense matrix-product reference simulator.
    const StateVector expected = reference_simulate(c);

    // Blocked serial kernels.
    StateVector serial(n);
    for (const Gate& g : c.gates()) {
      apply_gate(serial, g);
    }
    EXPECT_LT(serial.max_abs_diff(expected), kTol) << "seed " << seed;

    // Fused program (random fusion behavior exercised by the random gate
    // mix; epsilon-equivalent by design).
    StateVector fused(n);
    apply_fused(fused, fuse_gate_sequence(c.gates()));
    EXPECT_LT(fused.max_abs_diff(expected), kTol) << "seed " << seed;

    // Threaded kernels: chunking is bitwise-neutral, so the result must be
    // *identical* to the serial sweep, not merely close.
    KernelConfig config;
    config.num_threads = 3;
    config.parallel_threshold_qubits = 1;
    set_kernel_config(config);
    StateVector threaded(n);
    for (const Gate& g : c.gates()) {
      apply_gate(threaded, g);
    }
    set_kernel_config(KernelConfig{});
    EXPECT_TRUE(threaded.bitwise_equal(serial)) << "seed " << seed;
  }
}

// ------------------------------------------------------ cache-blocked runs

TEST(BlockedRunFuzz, ForcedSmallBlocksMatchGateByGateBitwise) {
  const fuzz::BlockedFuzzReport report = fuzz::run_blocked_fuzz(7000, 300);
  EXPECT_EQ(report.mismatches, 0u);
  // The cases the blocking rule tells apart all occurred: phase qubits and
  // controls above the block (block-local), and RZ/U3/H targets above the
  // block (which end a run).
  EXPECT_GT(report.diagonal_above_block, 0u);
  EXPECT_GT(report.control_above_block, 0u);
  EXPECT_GT(report.target_above_block, 0u);
  // Runs did form: fewer passes than gates.
  EXPECT_LT(report.passes, report.gates);
}

TEST(BlockedRunFuzz, PooledBlocksMatchSerialBitwise) {
  // The blocks of a run split across the kernel pool like any sweep.
  ConfigGuard guard;
  KernelConfig config;
  config.num_threads = 3;
  config.parallel_threshold_qubits = 1;
  set_kernel_config(config);
  const fuzz::BlockedFuzzReport report = fuzz::run_blocked_fuzz(9000, 100);
  EXPECT_EQ(report.mismatches, 0u);
}

TEST(BlockedRun, PassCountsFollowTheBlockRule) {
  StateVector state(8);
  const Gate h0 = Gate::make1(GateKind::H, 0);
  const Gate cx_high_control = Gate::make2(GateKind::CX, 7, 1);
  const Gate cp_high = Gate::make2(GateKind::CP, 6, 7, 0.3);
  const Gate rz_high = Gate::make1(GateKind::RZ, 5, 0.7);
  const Gate x1 = Gate::make1(GateKind::X, 1);
  const std::vector<const Gate*> gates = {&h0, &cx_high_control, &cp_high, &rz_high,
                                          &x1};
  // Block of 3 qubits: [H, CX, CP] is one run, RZ on qubit 5 ends it, X
  // alone is a plain sweep.
  EXPECT_EQ(apply_gates(state, gates, 3), 3u);
  // Below block + 2 qubits every gate is its own pass.
  StateVector small(4);
  const std::vector<const Gate*> low = {&h0, &x1};
  EXPECT_EQ(apply_gates(small, low, 3), 2u);
}

TEST(BlockedRun, DefaultBlockSizeOnGroverMatchesGateByGate) {
  // 18 qubits is the smallest state the default block size applies to.
  const Circuit grover = decompose_to_cx_basis(make_grover(18, 37));
  std::vector<const Gate*> gates;
  for (const Gate& g : grover.gates()) {
    gates.push_back(&g);
  }
  StateVector serial(18);
  for (const Gate& g : grover.gates()) {
    apply_gate(serial, g);
  }
  StateVector blocked(18);
  const std::uint64_t passes = apply_gates(blocked, gates);
  EXPECT_TRUE(blocked.bitwise_equal(serial));
  EXPECT_LT(passes, gates.size() / 2);
}

TEST(KernelEngine, ThreadedMat2IsBitwiseEqualOnLargeRegister) {
  ConfigGuard guard;
  Rng rng(9);
  const Mat2 u = random_unitary2(rng);
  StateVector serial(12);
  apply_h(serial, 0);
  for (qubit_t q = 1; q < 12; ++q) {
    apply_cx(serial, q - 1, q);
  }
  StateVector threaded = serial;

  apply_mat2(serial, u, 7);

  KernelConfig config;
  config.num_threads = 4;
  config.parallel_threshold_qubits = 4;
  set_kernel_config(config);
  apply_mat2(threaded, u, 7);

  EXPECT_TRUE(threaded.bitwise_equal(serial));
}

TEST(KernelEngine, ConfigRoundTrips) {
  ConfigGuard guard;
  KernelConfig config;
  config.num_threads = 2;
  config.parallel_threshold_qubits = 5;
  set_kernel_config(config);
  EXPECT_EQ(kernel_config().num_threads, 2u);
  EXPECT_EQ(kernel_config().parallel_threshold_qubits, 5u);
  set_kernel_config(KernelConfig{});
  EXPECT_EQ(kernel_config().num_threads, 1u);
}

}  // namespace
}  // namespace rqsim
