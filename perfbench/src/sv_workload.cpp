// The two statevector workloads: grover20-deep and ghz24-wide. Each timed
// operation is one run_noisy_parallel call at 4 threads, default config
// (tree mode, frames off), on a trial set drawn from the workload seed.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench_circuits/grover.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "perfbench.hpp"
#include "service/protocol.hpp"
#include "service/workload.hpp"

namespace perfbench {

using namespace rqsim;

namespace {

struct SvWorkload {
  WorkloadSpec spec;          // what a client would submit
  std::size_t trials = 0;
  std::size_t threads = 4;
  double nominal_call_ms = 0; // sizes the sample: calls = seconds / nominal
  double slo_limit_ms = 0;    // fixed latency limit of one call
};

SvWorkload make_sv_workload(const std::string& name, std::uint64_t seed) {
  SvWorkload w;
  w.spec.device = "artificial";
  w.spec.no_transpile = true;  // all-to-all device: decompose to CX basis only
  if (name == "grover20-deep") {
    // 20 qubits = 11 data qubits + 9 ancillas; the marked item comes from
    // the seed. 611 gates after CX decomposition; rate 4e-4 (1q), 4e-3
    // (2q and readout) gives about 1 error per trial.
    SeedStream stream(seed ^ 0x67726f766572ULL);
    const std::uint64_t marked = stream.between(0, (1u << 11) - 1);
    w.spec.qasm = to_qasm(make_grover(20, marked));
    w.spec.device_rate = 4e-4;
    w.trials = 32;
    w.nominal_call_ms = 3000;
    w.slo_limit_ms = 20000;
  } else {
    // GHZ on 24 qubits: one state is 256 MiB. Rate 4e-3 gives about one
    // error per trial on the 24-gate chain.
    w.spec.circuit_spec = "ghz:24";
    w.spec.device_rate = 4e-3;
    w.trials = 16;
    w.nominal_call_ms = 2900;
    w.slo_limit_ms = 20000;
  }
  return w;
}

/// Run seeds stay below 2^32 so they travel exactly as JSON numbers.
ParallelRunConfig call_config(const SvWorkload& w, std::uint64_t seed) {
  ParallelRunConfig config;
  config.num_trials = w.trials;
  config.seed = seed & 0xffffffffu;
  config.num_threads = w.threads;
  return config;
}

/// The run's trial-set seeds, stratified. A seed's trial set decides how
/// much work one call does (ghz24: +-25% from one set to the next), so a
/// handful of randomly drawn sets would make one run's median depend on
/// which sets its seed happened to draw. Instead the run draws 64 candidate
/// seeds, ranks them by the op count the accounting-only path
/// (analyze_noisy) predicts for them, and times `calls` of them at evenly
/// spaced ranks of the middle half: a stratified sample of the central part
/// of the workload's own op-count distribution. Keeping to the middle half
/// keeps the calls' work within about +-10% of each other, so the median
/// call is the median of many like calls rather than the one call of the
/// middle stratum. The sample is ordered from the middle stratum outwards,
/// alternately below and above it, so a run cut short by its time cap still
/// holds strata on both sides of the middle. Returns the sample and the
/// middle-rank seed, which the traced run uses.
std::pair<std::vector<std::uint64_t>, std::uint64_t> stratified_seeds(
    const SvWorkload& w, const Circuit& circuit, const NoiseModel& noise, std::uint64_t seed,
    std::size_t calls) {
  constexpr std::size_t kCandidates = 64;
  SeedStream stream(seed);
  std::vector<std::pair<opcount_t, std::uint64_t>> ranked;
  for (std::size_t i = 0; i < kCandidates; ++i) {
    const ParallelRunConfig config = call_config(w, stream.next());
    ranked.emplace_back(analyze_noisy(circuit, noise, config).ops, config.seed);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::uint64_t> sample;
  for (std::size_t k = 0; k < calls; ++k) {
    const std::size_t j = k % 2 == 0 ? calls / 2 + k / 2 : calls / 2 - (k + 1) / 2;
    sample.push_back(ranked[kCandidates / 4 + (2 * j + 1) * kCandidates / (4 * calls)].second);
  }
  return {sample, ranked[kCandidates / 2].second};
}

std::uint64_t histogram_total(const OutcomeHistogram& histogram) {
  std::uint64_t total = 0;
  for (const auto& [outcome, count] : histogram) {
    total += count;
  }
  return total;
}

/// Submit one job through `client`, wait for it, and record the submit
/// round trip and the service's queue/exec times. Requests go out back to
/// back: each is due when the previous one completed (`due`, updated).
Json submit_and_wait(ServiceClient& client, const Json& request, Clock::time_point& due,
                     std::vector<double>& submit_ms, ServiceFigures& figures) {
  const auto sent = Clock::now();
  figures.late_ms.push_back(late_ms(due, sent));
  const Json accepted = client.request(request);
  submit_ms.push_back(ms_between(sent, Clock::now()));
  RQSIM_CHECK(accepted.get_bool("ok", false), "submit rejected: " + accepted.dump());
  Json wait = Json::object();
  wait.set("op", Json("wait"));
  wait.set("job", Json(accepted.at("job").as_u64()));
  Json status = client.request(wait);
  due = Clock::now();
  if (status.has("result")) {
    figures.queue_ms.push_back(status.at("result").get_number("queue_ms", 0.0));
    figures.exec_ms.push_back(status.at("result").get_number("exec_ms", 0.0));
  }
  return status;
}

}  // namespace

int run_sv_workload(const Options& options, Report& report) {
  const SvWorkload w = make_sv_workload(options.workload, options.seed);

  // Set-up, repeated: resolve the workload as the service would (QASM or
  // named circuit, CX decomposition, device noise), then one 1-trial warm
  // call so thread start-up and first page faults stay out of the timing.
  std::vector<double> setup_ms;
  Workload workload;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    workload = build_workload(w.spec);
    ParallelRunConfig warm = call_config(w, 1);
    warm.num_trials = 1;
    run_noisy_parallel(workload.circuit, workload.noise, warm);
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }
  const Circuit& circuit = workload.circuit;
  const NoiseModel& noise = workload.noise;
  const std::size_t num_measured = circuit.num_measured();
  report.info("qubits", static_cast<double>(circuit.num_qubits()));
  report.info("gates", static_cast<double>(circuit.num_gates()));
  report.info("trials_per_call", static_cast<double>(w.trials));
  report.info("threads", static_cast<double>(w.threads));
  // A fixed number of calls per run (from --seconds and the workload's
  // nominal call time, not from measured times), so every run times the
  // same strata.
  const auto calls = static_cast<std::size_t>(std::clamp(
      std::round(options.seconds * 1000.0 / w.nominal_call_ms), 3.0, 64.0));
  const auto [seeds, middle_seed] =
      stratified_seeds(w, circuit, noise, options.seed, calls);

  if (!options.trace) {
    // Timed calls, back to back (closed loop), each on another trial set.
    // Checks run between calls, outside the timed region.
    std::vector<double> call_ms;
    std::vector<double> call_rss;  // peak resident set of each call
    std::vector<double> late;
    const auto start = Clock::now();
    auto due = start;
    for (const std::uint64_t seed : seeds) {
      const ParallelRunConfig config = call_config(w, seed);
      reset_peak_rss();
      const auto t0 = Clock::now();
      const NoisyRunResult result = run_noisy_parallel(circuit, noise, config);
      const auto t1 = Clock::now();
      call_ms.push_back(ms_between(t0, t1));
      call_rss.push_back(peak_rss_mib());
      late.push_back(late_ms(due, t0));

      // The accounting-only path (analyze_noisy, no amplitudes) predicts
      // the op count; the histogram must hold every trial.
      const NoisyRunResult predicted = analyze_noisy(circuit, noise, config);
      report.check(result.ops == predicted.ops &&
                       histogram_total(result.histogram) == w.trials,
                   "call seed " + std::to_string(config.seed) + ": ops " +
                       std::to_string(result.ops) + " vs accounting " +
                       std::to_string(predicted.ops));
      due = Clock::now();
      if (call_ms.size() >= 3 && ms_between(start, due) > 1500.0 * options.seconds) {
        break;  // a far slower program still ends well inside the time limit
      }
    }
    const double total_ms = std::accumulate(call_ms.begin(), call_ms.end(), 0.0);
    const auto within = std::count_if(call_ms.begin(), call_ms.end(),
                                      [&](double ms) { return ms <= w.slo_limit_ms; });
    report.metric("setup_s", median(setup_ms) / 1000.0, "s");
    report.samples("setup_s", setup_ms.size());
    report.metric("run_s", median(call_ms) / 1000.0, "s");
    report.samples("run_s", call_ms.size());
    // The peak one call needs, median over the calls: the live-state peak
    // depends on how the workers interleave, so a single process maximum
    // would swing with scheduling.
    report.metric("peak_rss_mib", median(call_rss), "MiB");
    report.info("peak_rss_mib_max", *std::max_element(call_rss.begin(), call_rss.end()));
    report.metric("job_ms_p50", percentile(call_ms, 50), "ms");
    report.metric("job_ms_p99", percentile(call_ms, 99), "ms");
    report.samples("job_ms", call_ms.size());
    report.metric("slo_met_frac",
                  static_cast<double>(within) / static_cast<double>(call_ms.size()), "ratio");
    report.info("slo_limit_ms", w.slo_limit_ms);
    report.metric("jobs_per_s", static_cast<double>(call_ms.size()) / (total_ms / 1000.0),
                  "1/s");
    report.metric("loadgen.late_ms_p99", percentile(late, 99), "ms");
    stamp_host(report, /*measure_memcpy=*/true);
    return 0;
  }

  // Traced run. One untraced call, then the same input through the
  // pipeline rebuilt from public calls (4 threads in the traced wall, then
  // 1 thread on the same tree): all three histograms must be bitwise equal.
  // The direct call runs before and after the traced one; their mean is
  // the untraced reference for trace_overhead_frac.
  const ParallelRunConfig config = call_config(w, middle_seed);
  auto t0 = Clock::now();
  const NoisyRunResult direct = run_noisy_parallel(circuit, noise, config);
  double direct_ms = ms_between(t0, Clock::now());
  const TracedRun traced = traced_run(circuit, noise, config);
  t0 = Clock::now();
  const NoisyRunResult again = run_noisy_parallel(circuit, noise, config);
  direct_ms = (direct_ms + ms_between(t0, Clock::now())) / 2.0;
  report.check(again.histogram == direct.histogram,
               "repeated run_noisy_parallel call gave another histogram");
  report.check(traced.histogram == direct.histogram,
               "traced 4-thread pipeline histogram differs from run_noisy_parallel");
  report.check(traced.other_histogram == direct.histogram,
               "1-thread execute_tree histogram differs from run_noisy_parallel");
  report.check(traced.stats.ops == direct.ops, "traced pipeline op count differs");

  KernelTimes kernels;
  replay_kernels(circuit, 20.0, kernels);

  // The same job through the service: in process (parse, batch, encode),
  // through the router, and directly to one backend. Every path must
  // return the direct call's histogram.
  SubmitParams params;
  params.trials = w.trials;
  params.seed = config.seed;
  params.threads = w.threads;
  params.tenant = "tenant-0";
  const Json request = make_submit_request(w.spec, params);
  const auto expected = histogram_strings(direct.histogram, num_measured);
  ServiceFigures figures;
  figures.in_process = replay_in_process({{request}});
  report.check(histogram_of(figures.in_process.results.at(0)) == expected,
               "in-process service histogram differs from run_noisy_parallel");
  {
    Fleet fleet;
    ServiceClient router = fleet.connect_router();
    ServiceClient backend = fleet.connect_backend(0);
    auto due = Clock::now();
    report.check(histogram_of(submit_and_wait(router, request, due,
                                              figures.router_submit_ms, figures)) == expected,
                 "routed job histogram differs from run_noisy_parallel");
    report.check(histogram_of(submit_and_wait(backend, request, due,
                                              figures.direct_submit_ms, figures)) == expected,
                 "direct backend job histogram differs from run_noisy_parallel");
    read_fleet_stats(router, figures);
  }

  const double memcpy_gbps = stamp_host(report, /*measure_memcpy=*/true);
  report_traced_runs(report, {traced}, kernels, memcpy_gbps);
  report_service_figures(report, figures);
  report.metric("trace_overhead_frac", traced.wall_ms / direct_ms - 1.0, "ratio");
  report.info("direct_call_ms", direct_ms);
  return 0;
}

}  // namespace perfbench
