// Shared pieces of the rqsim benchmark: options, the result report,
// the seeded input generator, and the layer probes every workload uses.
//
// Layers are rqsim's modules: router, service, trial, sched, verify, sim,
// plus host for the machine stamp. Probes only call each layer's public
// functions and time those calls from outside; nothing inside src/ is
// instrumented by the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuit.hpp"
#include "noise/noise_model.hpp"
#include "router/router.hpp"
#include "sched/parallel.hpp"
#include "sched/tree_exec.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;  // results file (JSON)
};

/// The benchmark's own input generator (splitmix64): the program under
/// test only ever sees the inputs drawn from it, never the workload seed.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

/// Everything one run reports. Metrics keep insertion order for printing.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Sample count behind a metric (stated next to medians and percentiles).
  void samples(const std::string& name, std::size_t count);
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  /// One attempted operation and whether its output was correct. A failed
  /// check is also printed to stderr with its detail.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The results document (JSON object).
  std::string to_json(const Options& options) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::map<std::string, std::size_t> samples_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host stamp: nproc, compiler, flags, build type, LLC size, and (when
/// `measure_memcpy`) the memcpy bandwidth over an array of at least 4x LLC,
/// with all nproc threads copying disjoint slices and with one thread.
/// Returns the all-thread memcpy GB/s, the ceiling for 4-thread runs (NaN
/// when not measured).
double stamp_host(Report& report, bool measure_memcpy);

/// Peak resident set (VmHWM) since the last reset_peak_rss(), MiB. Falls
/// back to the process lifetime peak (getrusage) where the kernel offers
/// no reset.
double peak_rss_mib();

/// Restart the peak-resident-set watermark (/proc/self/clear_refs).
void reset_peak_rss();

// ---------------------------------------------------------------------------
// Layer probes shared by the workloads.

/// One noisy run rebuilt from the public calls run_noisy_parallel makes —
/// CircuitContext, generate_trials + assign_measurement_seeds,
/// reorder_trials, build_exec_tree, execute_tree — each timed from outside.
/// execute_tree runs at the config's thread count inside the traced wall,
/// then once more at the other of {1, 4} threads on the same tree.
struct TracedRun {
  unsigned num_qubits = 0;
  std::size_t num_trials = 0;
  double layering_ms = 0.0;
  double generate_ms = 0.0;
  double reorder_ms = 0.0;
  double tree_build_ms = 0.0;
  double exec_ms = 0.0;       // at the config's threads, inside wall_ms
  double wall_ms = 0.0;       // the whole call, untimed accounting included
  double sample_ms = 0.0;     // sink busy time, summed over workers
  double verify_ms = 0.0;     // verify_tree_plan_or_throw, outside wall_ms
  double exec_1t_ms = 0.0;
  double exec_4t_ms = 0.0;
  double errors_per_trial = 0.0;
  rqsim::opcount_t baseline_ops = 0;
  rqsim::TreeExecStats stats;       // of the in-wall execution
  rqsim::OutcomeHistogram histogram;        // in-wall execution
  rqsim::OutcomeHistogram other_histogram;  // the other thread count
};

TracedRun traced_run(const rqsim::Circuit& circuit, const rqsim::NoiseModel& noise,
                     const rqsim::ParallelRunConfig& config);

/// Gate classes of the kernel replay.
enum GateClass { k1q = 0, kDiag = 1, kCx = 2, k2q = 3, kNumClasses = 4 };
inline constexpr const char* kGateClassNames[kNumClasses] = {"1q", "diag", "cx", "2q"};

struct KernelTimes {
  double ns[kNumClasses] = {};         // replay time per class
  double amp_gates[kNumClasses] = {};  // gate applications x 2^n amplitudes
  std::size_t gates[kNumClasses] = {}; // gates of the class in the circuits
  bool probed[kNumClasses] = {};       // class absent: timed on probe gates
  double ns_per_amp(int c) const { return ns[c] / amp_gates[c]; }
};

/// Replay the circuit's gate list through apply_gate on one StateVector,
/// class by class, repeating each class's sequence until it has run for
/// at least `min_ms`, and add the times to `into`. A class the circuit
/// lacks is timed on one probe gate of that class per qubit, so every
/// class has a figure on this state size.
void replay_kernels(const rqsim::Circuit& circuit, double min_ms, KernelTimes& into);

/// Two SimServer backends (one worker each) behind a FleetRouter, all in
/// this process on loopback TCP. Destruction stops and joins everything.
class Fleet {
 public:
  Fleet();
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  rqsim::ServiceClient connect_router() const;
  rqsim::ServiceClient connect_backend(std::size_t index) const;

 private:
  std::vector<std::unique_ptr<rqsim::SimServer>> backends_;
  std::unique_ptr<rqsim::FleetRouter> router_;
  std::vector<std::thread> threads_;
};

/// In-process service replay through ProtocolHandler::handle_line with
/// num_workers = 0: each group of submits arrives together, then the queue
/// is drained one batch at a time with SimService::run_pending(1), then
/// every job's terminal status is encoded.
struct InProcessReplay {
  std::vector<double> parse_ms;   // handle_line on each submit
  std::vector<double> batch_ms;   // run_pending(1) per batch
  std::vector<double> encode_ms;  // handle_line on each terminal status
  std::size_t batches = 0;
  std::size_t jobs = 0;
  std::vector<rqsim::Json> results;  // status responses, submit order
};

InProcessReplay replay_in_process(const std::vector<std::vector<rqsim::Json>>& groups);

/// Histograms keyed by outcome bitstring, as the protocol encodes them, so
/// a service result and a direct call compare bitwise: from a status
/// response (empty when it has none), and from an OutcomeHistogram.
std::map<std::string, std::uint64_t> histogram_of(const rqsim::Json& status);
std::map<std::string, std::uint64_t> histogram_strings(const rqsim::OutcomeHistogram& histogram,
                                                       std::size_t num_measured);

/// Report the per-layer figures (sim, sched, trial, verify) of one or more
/// traced runs, summed over the runs, and the kernel replay;
/// `memcpy_gbps` is the host ceiling the bandwidth is read against.
void report_traced_runs(Report& report, const std::vector<TracedRun>& runs,
                        const KernelTimes& kernels, double memcpy_gbps);

/// Service and router figures: from the workload's own job stream
/// (service-mix) or from its one job sent through each path (the
/// statevector workloads).
struct ServiceFigures {
  InProcessReplay in_process;
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> router_submit_ms;
  std::vector<double> direct_submit_ms;
  std::vector<double> late_ms;
  double merge_rate = 0.0;  // fleet merged_jobs / completed
  double cross_tenant_merge_hit_rate = 0.0;
  double max_backend_share = 0.0;
  std::uint64_t rejected = 0;
};

void report_service_figures(Report& report, const ServiceFigures& figures);

/// Fleet stats snapshot: cross-tenant merge hit rate, largest share of
/// routed jobs on one backend, router rejections.
void read_fleet_stats(rqsim::ServiceClient& router, ServiceFigures& figures);

// Workloads.
int run_sv_workload(const Options& options, Report& report);
int run_service_mix(const Options& options, Report& report);

}  // namespace perfbench
