// Gate-kernel microbenchmarks: throughput of the statevector update
// primitives that dominate simulation time, across register sizes and
// target-qubit positions (low qubits are cache-friendly, high qubits
// stride across the vector).
#include <benchmark/benchmark.h>

#include "bench_circuits/grover.hpp"
#include "circuit/fusion.hpp"
#include "common/rng.hpp"
#include "sim/kernel_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"
#include "telemetry/clock.hpp"
#include "transpile/decompose.hpp"

namespace {

using namespace rqsim;

StateVector random_state(unsigned n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector s(n);
  for (std::size_t i = 0; i < s.dim(); ++i) {
    s[i] = cplx(rng.normal(), rng.normal());
  }
  return s;
}

void BM_ApplyH(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto target = static_cast<qubit_t>(state.range(1));
  StateVector s = random_state(n, 1);
  for (auto _ : state) {
    apply_h(s, target);
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dim()));
}

void BM_ApplyMat2(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto target = static_cast<qubit_t>(state.range(1));
  Rng rng(2);
  const Mat2 u = random_unitary2(rng);
  StateVector s = random_state(n, 3);
  for (auto _ : state) {
    apply_mat2(s, u, target);
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dim()));
}

void BM_ApplyCX(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  StateVector s = random_state(n, 4);
  for (auto _ : state) {
    apply_cx(s, 0, n - 1);
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dim()));
}

void BM_ApplyMat4(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  Rng rng(5);
  const Mat4 u = random_unitary4(rng);
  StateVector s = random_state(n, 6);
  for (auto _ : state) {
    apply_mat4(s, u, 0, n - 1);
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dim()));
}

// A dense random sequence: one random U3 per qubit followed by a CX, per
// layer of depth. Exercises the fusion pass's single-qubit runs and
// two-qubit absorption.
std::vector<Gate> random_sequence(unsigned n, unsigned depth, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Gate> gates;
  for (unsigned d = 0; d < depth; ++d) {
    for (qubit_t q = 0; q < n; ++q) {
      gates.push_back(Gate::make1(GateKind::U3, q, rng.uniform() * 3.0,
                                  rng.uniform() * 3.0, rng.uniform() * 3.0));
    }
    const auto a = static_cast<qubit_t>(rng.uniform_int(n));
    auto b = static_cast<qubit_t>(rng.uniform_int(n - 1));
    if (b >= a) ++b;
    gates.push_back(Gate::make2(GateKind::CX, a, b));
  }
  return gates;
}

void BM_ApplyGateSequence(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const std::vector<Gate> gates = random_sequence(n, 8, 7);
  StateVector s = random_state(n, 8);
  for (auto _ : state) {
    for (const Gate& g : gates) {
      apply_gate(s, g);
    }
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  state.counters["ops"] = static_cast<double>(gates.size());
}

void BM_ApplyFusedSequence(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const std::vector<Gate> gates = random_sequence(n, 8, 7);
  const FusedProgram program = fuse_gate_sequence(gates);
  StateVector s = random_state(n, 8);
  for (auto _ : state) {
    apply_fused(s, program);
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  state.counters["ops"] = static_cast<double>(program.ops.size());
  state.counters["source_gates"] = static_cast<double>(program.source_gate_count);
}

// Intra-statevector threading: the same mat2 sweep split across the worker
// pool. Only pays off with real cores and registers past the threshold.
void BM_ApplyMat2Threaded(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  KernelConfig config;
  config.num_threads = threads;
  config.parallel_threshold_qubits = 18;
  set_kernel_config(config);
  Rng rng(2);
  const Mat2 u = random_unitary2(rng);
  StateVector s = random_state(n, 3);
  for (auto _ : state) {
    apply_mat2(s, u, static_cast<qubit_t>(n - 1));
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  set_kernel_config(KernelConfig{});
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dim()));
}

// Cache blocking over a real gate list: the 20-qubit Grover benchmark in
// the CX basis, applied gate by gate and through apply_gates (blocked
// runs), on a 20-qubit state and on a 24-qubit one whose top four qubits
// stay idle. ns_per_amp is time per gate per amplitude; passes counts the
// full-state sweeps one application of the list makes.
const std::vector<Gate>& grover20_gates() {
  static const std::vector<Gate> gates =
      decompose_to_cx_basis(make_grover(20, 1234)).gates();
  return gates;
}

void report_gate_list(benchmark::State& state, const StateVector& s, double elapsed_ms,
                      std::size_t num_gates, std::uint64_t passes) {
  state.counters["ns_per_amp"] =
      elapsed_ms * 1e6 /
      (static_cast<double>(state.iterations()) * static_cast<double>(num_gates) *
       static_cast<double>(s.dim()));
  state.counters["gates"] = static_cast<double>(num_gates);
  state.counters["passes"] = static_cast<double>(passes);
}

void BM_Grover20GateByGate(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const std::vector<Gate>& gates = grover20_gates();
  StateVector s = random_state(n, 9);
  double elapsed_ms = 0;
  for (auto _ : state) {
    const telemetry::Stopwatch watch;
    for (const Gate& g : gates) {
      apply_gate(s, g);
    }
    elapsed_ms += watch.elapsed_ms();
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  report_gate_list(state, s, elapsed_ms, gates.size(), gates.size());
}

void BM_Grover20Blocked(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const std::vector<Gate>& gates = grover20_gates();
  std::vector<const Gate*> ptrs;
  for (const Gate& g : gates) {
    ptrs.push_back(&g);
  }
  StateVector s = random_state(n, 9);
  std::uint64_t passes = 0;
  double elapsed_ms = 0;
  for (auto _ : state) {
    const telemetry::Stopwatch watch;
    passes = apply_gates(s, ptrs);
    elapsed_ms += watch.elapsed_ms();
    benchmark::DoNotOptimize(s.amplitudes().data());
  }
  report_gate_list(state, s, elapsed_ms, gates.size(), passes);
}

BENCHMARK(BM_ApplyH)
    ->Args({16, 0})->Args({16, 15})
    ->Args({20, 0})->Args({20, 19})
    ->Args({22, 0})->Args({22, 21});
BENCHMARK(BM_ApplyMat2)
    ->Args({16, 0})->Args({16, 15})
    ->Args({20, 0})->Args({20, 19})
    ->Args({22, 0})->Args({22, 21});
BENCHMARK(BM_ApplyCX)->Arg(16)->Arg(20)->Arg(22);
BENCHMARK(BM_ApplyMat4)->Arg(16)->Arg(20)->Arg(22);
BENCHMARK(BM_ApplyGateSequence)->Arg(16)->Arg(20);
BENCHMARK(BM_ApplyFusedSequence)->Arg(16)->Arg(20);
BENCHMARK(BM_ApplyMat2Threaded)->Args({20, 1})->Args({20, 2})->Args({22, 2});
BENCHMARK(BM_Grover20GateByGate)->Arg(20)->Arg(24)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Grover20Blocked)->Arg(20)->Arg(24)->Unit(benchmark::kMillisecond);

}  // namespace
