// Layer probes: each one calls a layer's public functions and times the
// calls from outside the program.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "perfbench.hpp"
#include "sched/order.hpp"
#include "sched/tree.hpp"
#include "service/protocol.hpp"
#include "sim/kernels.hpp"
#include "trial/generator.hpp"
#include "trial/stats.hpp"
#include "verify/plan_verifier.hpp"

namespace perfbench {

using namespace rqsim;

namespace {

/// SampledTrialSink with its busy time measured; calls arrive from every
/// worker, so the time is a sum over workers (CPU-ms, not wall).
class TimedSink final : public TreeTrialSink {
 public:
  TimedSink(const CircuitContext& ctx, const std::vector<Trial>& trials,
            const std::vector<PauliString>* observables)
      : inner_(ctx, trials, observables) {}

  void on_finish_group(std::size_t node, std::size_t first_trial, std::size_t count,
                       const StateVector& state,
                       const std::vector<double>* probs) override {
    const auto t0 = Clock::now();
    inner_.on_finish_group(node, first_trial, count, state, probs);
    add(t0);
  }

  void on_finish_frames(std::size_t node, const std::vector<FrameTrial>& frames,
                        const StateVector& state,
                        const std::vector<double>* probs) override {
    const auto t0 = Clock::now();
    inner_.on_finish_frames(node, frames, state, probs);
    add(t0);
  }

  OutcomeHistogram take_histogram() { return inner_.take_histogram(); }
  double busy_ms() const { return static_cast<double>(busy_ns_.load()) / 1e6; }

 private:
  void add(Clock::time_point t0) {
    busy_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  }

  SampledTrialSink inner_;
  std::atomic<std::uint64_t> busy_ns_{0};
};

GateClass classify(const Gate& gate) {
  if (gate.kind == GateKind::CX) {
    return kCx;
  }
  if (gate_is_diagonal(gate.kind)) {
    return kDiag;
  }
  return gate.arity() == 1 ? k1q : k2q;
}

Gate probe_gate(int cls, qubit_t q, unsigned n) {
  const auto next = static_cast<qubit_t>((q + 1) % n);
  switch (cls) {
    case k1q:
      return Gate::make1(GateKind::H, q);
    case kDiag:
      return Gate::make1(GateKind::T, q);
    case kCx:
      return Gate::make2(GateKind::CX, q, next);
    default:
      return Gate::make2(GateKind::SWAP, q, next);
  }
}

}  // namespace

TracedRun traced_run(const Circuit& circuit, const NoiseModel& noise,
                     const ParallelRunConfig& config) {
  TracedRun out;
  out.num_qubits = circuit.num_qubits();
  out.num_trials = config.num_trials;

  // The same calls, in the same order and with the same arguments, as
  // run_noisy_parallel's tree path (sched/parallel.cpp). Input validation
  // and the closing accounting stay untimed inside the wall, so they show
  // up as sched.unattributed_frac.
  const auto start = Clock::now();
  circuit.validate();
  validate_run_limits(config, "perfbench");
  auto mark = Clock::now();
  const CircuitContext ctx(circuit);
  auto next = Clock::now();
  out.layering_ms = ms_between(mark, next);
  mark = next;

  Rng rng(config.seed);
  std::vector<Trial> trials =
      generate_trials(circuit, ctx.layering, noise, config.num_trials, rng);
  assign_measurement_seeds(trials, rng);
  next = Clock::now();
  out.generate_ms = ms_between(mark, next);
  mark = next;

  reorder_trials(trials);
  next = Clock::now();
  out.reorder_ms = ms_between(mark, next);
  mark = next;

  ScheduleOptions options;
  options.max_states = config.max_states;
  options.frame_collapse = config.frame_collapse &&
                           config.parallel_mode == ParallelMode::kTree &&
                           !config.fuse_gates && noise.all_channels_pauli();
  options.frame_observables = !config.observables.empty();
  const ExecTree tree = build_exec_tree(ctx, trials, options);
  next = Clock::now();
  out.tree_build_ms = ms_between(mark, next);
  mark = next;

  const std::size_t workers = std::max<std::size_t>(
      1, std::min(config.num_threads, trials.empty() ? 1 : trials.size()));
  TreeExecConfig exec_config;
  exec_config.num_threads = workers;
  exec_config.max_states = config.max_states;
  exec_config.fuse_gates = config.fuse_gates;
  {
    TimedSink sink(ctx, trials, &config.observables);
    out.stats = execute_tree(ctx, tree, trials, exec_config, sink);
    out.histogram = sink.take_histogram();
    out.sample_ms = sink.busy_ms();
  }
  next = Clock::now();
  out.exec_ms = ms_between(mark, next);
  out.baseline_ops = baseline_op_count(ctx, trials);
  out.errors_per_trial = compute_trial_stats(trials).mean_errors;
  out.wall_ms = ms_between(start, Clock::now());

  // Outside the traced wall: the opt-in plan verification and the other
  // thread count.
  mark = Clock::now();
  verify_tree_plan_or_throw(ctx, trials, tree, options, "perfbench");
  out.verify_ms = ms_between(mark, Clock::now());

  const std::size_t other_threads = workers == 1 ? 4 : 1;
  exec_config.num_threads = other_threads;
  mark = Clock::now();
  {
    SampledTrialSink sink(ctx, trials, &config.observables);
    execute_tree(ctx, tree, trials, exec_config, sink);
    out.other_histogram = sink.take_histogram();
  }
  const double other_ms = ms_between(mark, Clock::now());
  out.exec_1t_ms = workers == 1 ? out.exec_ms : other_ms;
  out.exec_4t_ms = workers == 1 ? other_ms : out.exec_ms;
  return out;
}

void replay_kernels(const Circuit& circuit, double min_ms, KernelTimes& into) {
  const unsigned n = circuit.num_qubits();
  StateVector state(n);
  for (unsigned q = 0; q < n; ++q) {
    apply_gate(state, Gate::make1(GateKind::H, static_cast<qubit_t>(q)));  // dense amplitudes
  }
  std::vector<Gate> by_class[kNumClasses];
  for (const Gate& gate : circuit.gates()) {
    by_class[classify(gate)].push_back(gate);
  }
  for (int cls = 0; cls < kNumClasses; ++cls) {
    std::vector<Gate>& gates = by_class[cls];
    into.gates[cls] += gates.size();
    if (gates.empty()) {
      into.probed[cls] = true;
      for (unsigned q = 0; q < n; ++q) {
        gates.push_back(probe_gate(cls, static_cast<qubit_t>(q), n));
      }
    }
    std::size_t reps = 0;
    const auto t0 = Clock::now();
    double ms = 0.0;
    do {
      for (const Gate& gate : gates) {
        apply_gate(state, gate);
      }
      ++reps;
      ms = ms_between(t0, Clock::now());
    } while (ms < min_ms);
    into.ns[cls] += ms * 1e6;
    into.amp_gates[cls] += static_cast<double>(reps * gates.size()) *
                           std::ldexp(1.0, static_cast<int>(n));
  }
}

Fleet::Fleet() {
  std::vector<std::string> endpoints;
  for (int i = 0; i < 2; ++i) {
    ServerConfig config;
    config.tcp_port = 0;
    config.service.num_workers = 1;
    backends_.push_back(std::make_unique<SimServer>(std::move(config)));
    endpoints.push_back("127.0.0.1:" + std::to_string(backends_.back()->tcp_port()));
  }
  RouterConfig config;
  config.tcp_port = 0;
  config.backends = endpoints;
  router_ = std::make_unique<FleetRouter>(std::move(config));
  const auto serve = [](auto* server) {
    try {
      server->run();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: server stopped: " << e.what() << "\n";
    }
  };
  for (auto& backend : backends_) {
    threads_.emplace_back(serve, backend.get());
  }
  threads_.emplace_back(serve, router_.get());
}

Fleet::~Fleet() {
  router_->stop();
  for (auto& backend : backends_) {
    backend->stop();
  }
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

ServiceClient Fleet::connect_router() const {
  return ServiceClient::connect_tcp("127.0.0.1", router_->tcp_port());
}

ServiceClient Fleet::connect_backend(std::size_t index) const {
  return ServiceClient::connect_tcp("127.0.0.1", backends_.at(index)->tcp_port());
}

InProcessReplay replay_in_process(const std::vector<std::vector<Json>>& groups) {
  ServiceConfig config;
  config.num_workers = 0;
  config.queue_capacity = 4096;
  SimService service(config);
  ProtocolHandler handler(service);
  InProcessReplay out;
  std::vector<std::uint64_t> ids;
  for (const std::vector<Json>& group : groups) {
    for (const Json& request : group) {
      const std::string line = request.dump();
      const auto t0 = Clock::now();
      const std::string response = handler.handle_line(line);
      out.parse_ms.push_back(ms_between(t0, Clock::now()));
      const Json parsed = Json::parse(response);
      RQSIM_CHECK(parsed.get_bool("ok", false), "in-process submit rejected: " + response);
      ids.push_back(parsed.at("job").as_u64());
    }
    for (;;) {
      const auto t0 = Clock::now();
      const std::size_t ran = service.run_pending(1);
      const double ms = ms_between(t0, Clock::now());
      if (ran == 0) {
        break;
      }
      out.batch_ms.push_back(ms);
      ++out.batches;
      out.jobs += ran;
    }
  }
  for (const std::uint64_t id : ids) {
    Json request = Json::object();
    request.set("op", Json("status"));
    request.set("job", Json(id));
    const std::string line = request.dump();
    const auto t0 = Clock::now();
    const std::string response = handler.handle_line(line);
    out.encode_ms.push_back(ms_between(t0, Clock::now()));
    out.results.push_back(Json::parse(response));
  }
  return out;
}

std::map<std::string, std::uint64_t> histogram_of(const Json& status) {
  std::map<std::string, std::uint64_t> out;
  if (!status.has("result") || !status.at("result").has("histogram")) {
    return out;
  }
  for (const auto& [bits, count] : status.at("result").at("histogram").as_object()) {
    out[bits] = count.as_u64();
  }
  return out;
}

std::map<std::string, std::uint64_t> histogram_strings(const OutcomeHistogram& histogram,
                                                       std::size_t num_measured) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [outcome, count] : histogram) {
    out[to_bitstring(outcome, static_cast<unsigned>(num_measured))] = count;
  }
  return out;
}

void report_traced_runs(Report& report, const std::vector<TracedRun>& runs,
                        const KernelTimes& kernels, double memcpy_gbps) {
  TracedRun sum;
  double bytes = 0.0;
  double copy_bytes = 0.0;
  double errors = 0.0;
  std::size_t trials = 0;
  std::size_t peak_live = 0;
  for (const TracedRun& run : runs) {
    sum.layering_ms += run.layering_ms;
    sum.generate_ms += run.generate_ms;
    sum.reorder_ms += run.reorder_ms;
    sum.tree_build_ms += run.tree_build_ms;
    sum.exec_ms += run.exec_ms;
    sum.wall_ms += run.wall_ms;
    sum.sample_ms += run.sample_ms;
    sum.verify_ms += run.verify_ms;
    sum.exec_1t_ms += run.exec_1t_ms;
    sum.exec_4t_ms += run.exec_4t_ms;
    sum.baseline_ops += run.baseline_ops;
    sum.stats.ops += run.stats.ops;
    sum.stats.fork_copies += run.stats.fork_copies;
    sum.stats.cow_materializations += run.stats.cow_materializations;
    sum.stats.prewarmed += run.stats.prewarmed;
    sum.stats.pool_allocs += run.stats.pool_allocs;
    sum.stats.steals += run.stats.steals;
    sum.stats.chunk_tasks += run.stats.chunk_tasks;
    sum.stats.inline_fallbacks += run.stats.inline_fallbacks;
    peak_live = std::max(peak_live, run.stats.max_live_states);
    bytes += computed_bytes(run.num_qubits, run.stats.ops, run.stats.cow_materializations);
    copy_bytes += pass_bytes(run.num_qubits) / 2.0 *
                  static_cast<double>(run.stats.cow_materializations);
    errors += run.errors_per_trial * static_cast<double>(run.num_trials);
    trials += run.num_trials;
  }
  const double exec_gbps = gbps(bytes, sum.exec_ms);

  report.metric("sim.matvec_ops", static_cast<double>(sum.stats.ops), "count");
  report.metric("sched.normalized_computation",
                static_cast<double>(sum.stats.ops) / static_cast<double>(sum.baseline_ops),
                "ratio");
  report.metric("sched.fork_copies", static_cast<double>(sum.stats.fork_copies), "count");
  report.metric("sim.exec_gbps", exec_gbps, "GB/s");
  report.metric("sim.bw_frac", exec_gbps / memcpy_gbps, "ratio");
  for (int cls = 0; cls < kNumClasses; ++cls) {
    report.metric(std::string("sim.kernel_ns_per_amp.") + kGateClassNames[cls],
                  kernels.ns_per_amp(cls), "ns/amp");
    report.samples(std::string("sim.kernel_gates.") + kGateClassNames[cls],
                   kernels.gates[cls]);
    if (kernels.probed[cls]) {
      report.info(std::string("kernel_probe.") + kGateClassNames[cls],
                  "class absent from the gate list; timed on one probe gate per qubit");
    }
  }
  report.metric("sim.cow_materializations",
                static_cast<double>(sum.stats.cow_materializations), "count");
  report.metric("sim.copy_gib", copy_bytes / std::ldexp(1.0, 30), "GiB");
  report.metric("sim.prewarm_buffers", static_cast<double>(sum.stats.prewarmed), "count");
  report.metric("sim.pool_allocs", static_cast<double>(sum.stats.pool_allocs), "count");
  report.metric("sim.peak_live_states", static_cast<double>(peak_live), "count");
  report.metric("sim.sample_ms", sum.sample_ms, "ms");
  report.metric("trial.generate_ms", sum.generate_ms, "ms");
  report.metric("trial.errors_per_trial", errors / static_cast<double>(trials), "count");
  report.metric("sched.layering_ms", sum.layering_ms, "ms");
  report.metric("sched.reorder_ms", sum.reorder_ms, "ms");
  report.metric("sched.tree_build_ms", sum.tree_build_ms, "ms");
  report.metric("sched.exec_ms", sum.exec_ms, "ms");
  report.metric("sched.steals", static_cast<double>(sum.stats.steals), "count");
  report.metric("sched.chunk_tasks", static_cast<double>(sum.stats.chunk_tasks), "count");
  report.metric("sched.inline_fallbacks", static_cast<double>(sum.stats.inline_fallbacks),
                "count");
  report.metric("sched.speedup_4t", sum.exec_1t_ms / sum.exec_4t_ms, "ratio");
  report.metric("sched.unattributed_frac",
                unattributed_frac({sum.layering_ms, sum.generate_ms, sum.reorder_ms,
                                   sum.tree_build_ms, sum.exec_ms},
                                  sum.wall_ms),
                "ratio");
  report.metric("verify.tree_plan_ms", sum.verify_ms, "ms");
  report.samples("traced_runs", runs.size());
}

void report_service_figures(Report& report, const ServiceFigures& figures) {
  const InProcessReplay& replay = figures.in_process;
  report.metric("service.parse_ms", median(replay.parse_ms), "ms");
  report.samples("service.parse_ms", replay.parse_ms.size());
  report.metric("service.batch_ms", median(replay.batch_ms), "ms");
  report.samples("service.batch_ms", replay.batch_ms.size());
  report.metric("service.batch_jobs_mean",
                static_cast<double>(replay.jobs) / static_cast<double>(replay.batches),
                "count");
  report.metric("service.merge_rate", figures.merge_rate, "ratio");
  report.metric("service.queue_ms_p50", percentile(figures.queue_ms, 50), "ms");
  report.metric("service.queue_ms_p99", percentile(figures.queue_ms, 99), "ms");
  report.metric("service.exec_ms_p50", percentile(figures.exec_ms, 50), "ms");
  report.samples("service.queue_ms", figures.queue_ms.size());
  report.metric("service.encode_ms", median(replay.encode_ms), "ms");
  report.samples("service.encode_ms", replay.encode_ms.size());
  report.metric("router.submit_ms_p50", median(figures.router_submit_ms), "ms");
  report.samples("router.submit_ms_p50", figures.router_submit_ms.size());
  report.metric("router.direct_submit_ms_p50", median(figures.direct_submit_ms), "ms");
  report.samples("router.direct_submit_ms_p50", figures.direct_submit_ms.size());
  report.metric("router.cross_tenant_merge_hit_rate", figures.cross_tenant_merge_hit_rate,
                "ratio");
  report.metric("router.max_backend_share", figures.max_backend_share, "ratio");
  report.metric("router.rejected", static_cast<double>(figures.rejected), "count");
  report.metric("loadgen.late_ms_p99", percentile(figures.late_ms, 99), "ms");
  report.samples("loadgen.late_ms_p99", figures.late_ms.size());
}

void read_fleet_stats(ServiceClient& router, ServiceFigures& figures) {
  const Json stats = router.request(Json::parse("{\"op\":\"stats\"}"));
  RQSIM_CHECK(stats.get_bool("ok", false), "fleet stats failed: " + stats.dump());
  const Json& fleet = stats.at("fleet");
  figures.cross_tenant_merge_hit_rate = fleet.get_number("cross_tenant_merge_hit_rate", 0.0);
  std::uint64_t total = 0;
  std::uint64_t largest = 0;
  for (const Json& backend : fleet.at("backends").as_array()) {
    const std::uint64_t routed = backend.get_u64("jobs_routed", 0);
    total += routed;
    largest = std::max(largest, routed);
  }
  figures.max_backend_share =
      total == 0 ? 0.0 : static_cast<double>(largest) / static_cast<double>(total);
  const Json& router_block = fleet.at("router");
  figures.rejected = router_block.get_u64("rejected_quota", 0) +
                     router_block.get_u64("rejected_no_backend", 0);
  const Json& totals = stats.at("stats");
  const std::uint64_t completed = totals.get_u64("completed", 0);
  figures.merge_rate = completed == 0 ? 0.0
                                      : static_cast<double>(totals.get_u64("merged_jobs", 0)) /
                                            static_cast<double>(completed);
}

}  // namespace perfbench
