// The benchmark's own arithmetic: percentiles, latency from due time,
// computed bytes and the unattributed share of a traced wall time. Kept
// header-only and free of rqsim types so stats_test checks it in isolation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Percentile `p` (0..100) by linear interpolation between closest ranks
/// (rank = p/100 · (n-1), the numpy default). NaN for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

/// Samples strictly above the rank of percentile `p` in a sample of `n`:
/// p99 of 1000 samples sits at rank 989.01, with ten samples beyond it.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) {
    return 0;
  }
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Open-loop latency: from when the request was *due* to be sent (not when
/// it was actually sent) until its terminal result, so a stall that delays
/// later sends is charged to those requests too.
inline double latency_from_due_ms(Clock::time_point due, Clock::time_point done) {
  return ms_between(due, done);
}

/// How late the generator sent a request relative to its schedule.
inline double late_ms(Clock::time_point due, Clock::time_point sent) {
  return ms_between(due, sent);
}

/// Bytes one full pass over an n-qubit state reads and writes: every one
/// of the 2^n complex<double> amplitudes (16 B) is read once and written
/// once, so 2 · 2^n · 16 B. A gate application and a state copy both count
/// as one pass. These are *computed* bytes (from array sizes), not bytes
/// measured at the memory bus.
inline double pass_bytes(unsigned num_qubits) {
  return 2.0 * std::ldexp(16.0, static_cast<int>(num_qubits));
}

/// Computed bytes of a statevector execution: one pass per matvec op plus
/// one per copy-on-write materialization.
inline double computed_bytes(unsigned num_qubits, std::uint64_t matvec_ops,
                             std::uint64_t copies) {
  return pass_bytes(num_qubits) * static_cast<double>(matvec_ops + copies);
}

/// Bandwidth in GB/s (1e9 bytes per second) of `bytes` moved in `ms`.
inline double gbps(double bytes, double ms) {
  return ms > 0.0 ? bytes / (ms * 1e6) : std::numeric_limits<double>::quiet_NaN();
}

/// Share of a traced wall time that no timed phase covers:
/// 1 - (sum of phase times) / wall. The phases must be disjoint intervals
/// inside the wall time; NaN when the wall time is not positive.
inline double unattributed_frac(const std::vector<double>& phase_ms, double wall_ms) {
  if (!(wall_ms > 0.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double covered = 0.0;
  for (const double ms : phase_ms) {
    covered += ms;
  }
  return 1.0 - covered / wall_ms;
}

}  // namespace perfbench
