// service-mix: small jobs (threads 1, 5-10 qubits, 512-4096 trials) from
// three tenants over the JSONL protocol, through a FleetRouter in front of
// two in-process SimServer backends with one worker each.
//
//   open loop    jobs sent on a seeded Poisson schedule; each job is timed
//                from when it was *due*. Four client connections take the
//                jobs in schedule order, each sending one and waiting for
//                its result.
//   closed loop  four connections, each submitting its next job only when
//                the previous one is done; gives capacity (jobs/s).
//
// About half of the jobs arrive as a pair of batch-compatible jobs (same
// workload, other seed, possibly another tenant); the rest carry a workload
// no other job shares.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "perfbench.hpp"
#include "service/protocol.hpp"
#include "service/workload.hpp"

namespace perfbench {

using namespace rqsim;

namespace {

constexpr double kOpenRatePerS = 80.0;   // offered jobs per second (~1/4 of capacity)
constexpr double kOpenShare = 0.6;       // share of --seconds in the open loop
constexpr double kClosedShare = 0.25;    // share of --seconds in the closed loop
constexpr std::size_t kClients = 4;  // load-generator connections (= nproc)
constexpr double kSloLimitMs = 50.0;     // latency limit for slo_met_frac
constexpr double kPairProbability = 1.0 / 3.0;  // pairs: 2q/(1+q) = half the jobs
constexpr int kPopular = 64;  // recurring workloads the pairs draw from
constexpr std::size_t kCheckedJobs = 12;  // standalone run_noisy comparisons
constexpr std::size_t kInProcessEvents = 160;
constexpr std::size_t kDirectSubmits = 40;
constexpr int kSetupReps = 15;  // set-up is short, so repeat it more for a steady median

struct JobPlan {
  WorkloadSpec spec;
  std::size_t trials = 0;
  std::uint64_t seed = 0;
  std::string tenant;
  double due_ms = 0.0;  // open loop: offset from the phase start
  std::size_t event = 0;

  Json request() const {
    SubmitParams params;
    params.trials = trials;
    params.seed = seed;
    params.threads = 1;
    params.tenant = tenant;
    return make_submit_request(spec, params);
  }
};

/// The seeded job mix. Everything the program under test receives — the
/// circuits, rates, trial counts, run seeds, tenants and arrival times —
/// is drawn here from the workload seed.
class JobMix {
 public:
  explicit JobMix(std::uint64_t seed) : stream_(seed ^ 0x6d6978ULL) {
    for (double& weight : tenant_weights_) {
      weight = 0.5 + stream_.uniform();
    }
    for (int i = 0; i < kPopular; ++i) {
      popular_.push_back(random_workload(/*unique=*/false));
    }
  }

  /// One arrival: a single job with a workload of its own, or a pair of
  /// batch-compatible jobs on one of the recurring workloads (so workload
  /// affinity and cross-tenant merges have something to find). The
  /// schedule clock advances by an exponential gap.
  std::vector<JobPlan> next_event(double rate_per_s) {
    clock_ms_ += -std::log(1.0 - stream_.uniform()) * 1000.0 /
                 (rate_per_s / (1.0 + kPairProbability));
    const bool pair = stream_.uniform() < kPairProbability;
    const WorkloadSpec spec =
        pair ? popular_[stream_.between(0, popular_.size() - 1)] : random_workload(true);
    std::vector<JobPlan> jobs(pair ? 2 : 1);
    for (JobPlan& job : jobs) {
      job.spec = spec;
      job.trials = stream_.between(512, 4096);
      job.seed = stream_.next() >> 32;  // exact in a JSON number
      job.tenant = pick_tenant();
      job.due_ms = clock_ms_;
      job.event = events_;
    }
    ++events_;
    return jobs;
  }

 private:
  /// Circuit families come in equal shares (each block of four workloads
  /// holds every family once, in a seeded order), so the share of the
  /// costlier qft/qv jobs, which sets the latency tail, is the same for
  /// every seed; sizes, rates and circuits vary freely.
  WorkloadSpec random_workload(bool unique) {
    if (families_left_.empty()) {
      families_left_ = {0, 1, 2, 3};
    }
    const std::size_t pick = stream_.between(0, families_left_.size() - 1);
    const int family = families_left_[pick];
    families_left_.erase(families_left_.begin() + static_cast<std::ptrdiff_t>(pick));

    WorkloadSpec spec;
    spec.device = "artificial";
    spec.no_transpile = true;
    spec.device_rate = stream_.uniform() < 0.5 ? 5e-4 : 1e-3;
    switch (family) {
      case 0:
        spec.circuit_spec = "ghz:" + std::to_string(stream_.between(5, 10));
        break;
      case 1: {
        const std::uint64_t bits = stream_.between(4, 9);
        spec.circuit_spec = "bv:" + std::to_string(bits) + ":" +
                            std::to_string(stream_.between(1, (1u << bits) - 1));
        break;
      }
      case 2:
        spec.circuit_spec = "qft:" + std::to_string(stream_.between(5, 7));
        break;
      default:
        spec.circuit_spec = "qv:" + std::to_string(stream_.between(5, 7)) + ":" +
                            std::to_string(stream_.between(2, 3)) + ":" +
                            std::to_string(stream_.between(1, 1000000));
        break;
    }
    if (unique) {
      // A noise scale no other job uses: a distinct batch fingerprint.
      spec.noise_scale = 1.0 + static_cast<double>(++unique_) * 1e-6;
    }
    return spec;
  }

  std::string pick_tenant() {
    const double total = tenant_weights_[0] + tenant_weights_[1] + tenant_weights_[2];
    double u = stream_.uniform() * total;
    for (int t = 0; t < 3; ++t) {
      if ((u -= tenant_weights_[t]) < 0.0) {
        return "tenant-" + std::to_string(t);
      }
    }
    return "tenant-2";
  }

  SeedStream stream_;
  double tenant_weights_[3] = {};
  std::vector<WorkloadSpec> popular_;
  std::vector<int> families_left_;
  double clock_ms_ = 0.0;
  std::size_t events_ = 0;
  std::uint64_t unique_ = 0;
};

struct Outcome {
  Clock::time_point sent;
  Clock::time_point done;
  double submit_ms = 0.0;
  bool accepted = false;
  Json status;
};

Json wait_request(std::uint64_t job) {
  Json request = Json::object();
  request.set("op", Json("wait"));
  request.set("job", Json(job));
  return request;
}

std::uint64_t histogram_total(const std::map<std::string, std::uint64_t>& histogram) {
  std::uint64_t total = 0;
  for (const auto& [bits, count] : histogram) {
    total += count;
  }
  return total;
}

bool job_done(const Json& status, std::size_t trials) {
  return status.get_string("state", "") == "done" &&
         histogram_total(histogram_of(status)) == trials;
}

/// Open loop: jobs are taken in schedule order by whichever client is
/// free; the client sleeps until the job is due, sends it, and blocks on
/// `wait`, so every completion is seen the moment it happens. A job is sent
/// late only when all clients are busy with earlier jobs; latency is
/// measured from the due time, so that delay is charged to it, and late_ms
/// reports it.
std::vector<Outcome> run_open_loop(const std::vector<JobPlan>& plans,
                                   std::vector<ServiceClient>& clients,
                                   Clock::time_point start) {
  std::vector<Outcome> outcomes(plans.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = next++; i < plans.size(); i = next++) {
        const Json request = plans[i].request();
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(plans[i].due_ms)));
        Outcome& outcome = outcomes[i];
        outcome.sent = Clock::now();
        try {
          const Json accepted = clients[c].request(request);
          outcome.submit_ms = ms_between(outcome.sent, Clock::now());
          outcome.accepted = accepted.get_bool("ok", false);
          if (outcome.accepted) {
            outcome.status = clients[c].request(wait_request(accepted.at("job").as_u64()));
          }
        } catch (const std::exception& e) {
          std::cerr << "perfbench: open-loop job failed: " << e.what() << "\n";
        }
        outcome.done = Clock::now();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return outcomes;
}

struct ClosedLoop {
  std::vector<double> job_ms;
  std::vector<char> ok;  // per job: done with a full histogram
  double elapsed_s = 0.0;
};

/// Closed loop: each client submits its next job only after the previous
/// one is done, until the phase deadline.
ClosedLoop run_closed_loop(const std::vector<JobPlan>& plans,
                           std::vector<ServiceClient>& clients, double seconds) {
  ClosedLoop out;
  std::mutex mu;
  std::size_t next = 0;
  Clock::time_point last_done = Clock::now();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient& client = clients[c];
      for (;;) {
        std::size_t index = 0;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (Clock::now() >= deadline || next >= plans.size()) {
            return;
          }
          index = next++;
        }
        const auto t0 = Clock::now();
        bool ok = false;
        try {
          const Json accepted = client.request(plans[index].request());
          if (accepted.get_bool("ok", false)) {
            ok = job_done(client.request(wait_request(accepted.at("job").as_u64())),
                          plans[index].trials);
          }
        } catch (const std::exception& e) {
          std::cerr << "perfbench: closed-loop job failed: " << e.what() << "\n";
        }
        const auto t1 = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        out.ok.push_back(ok ? 1 : 0);
        out.job_ms.push_back(ms_between(t0, t1));
        last_done = std::max(last_done, t1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  out.elapsed_s = std::chrono::duration<double>(last_done - start).count();
  return out;
}

std::vector<JobPlan> draw_jobs(JobMix& mix, std::size_t count) {
  std::vector<JobPlan> jobs;
  while (jobs.size() < count) {
    for (JobPlan& job : mix.next_event(kOpenRatePerS)) {
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

}  // namespace

int run_service_mix(const Options& options, Report& report) {
  JobMix mix(options.seed);
  SeedStream sampler(options.seed ^ 0x73616d706c65ULL);

  // Set-up, repeated: start both backends and the router, open the client
  // connections, and warm the path with a few jobs.
  std::vector<double> setup_ms;
  std::unique_ptr<Fleet> fleet;
  std::vector<ServiceClient> clients;
  std::vector<JobPlan> warmup = draw_jobs(mix, 4);
  for (JobPlan& job : warmup) {  // small fixed jobs: set-up, not workload
    job.spec.circuit_spec = "ghz:5";
    job.spec.qasm.clear();
    job.trials = 512;
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    clients.clear();
    fleet.reset();
    const auto t0 = Clock::now();
    fleet = std::make_unique<Fleet>();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(fleet->connect_router());
    }
    for (const JobPlan& job : warmup) {
      const Json accepted = clients[0].request(job.request());
      RQSIM_CHECK(accepted.get_bool("ok", false), "warm-up submit rejected");
      clients[0].request(wait_request(accepted.at("job").as_u64()));
    }
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }

  // Open loop: a Poisson schedule at a fixed offered rate.
  const double open_ms = kOpenShare * options.seconds * 1000.0;
  std::vector<JobPlan> open_plans;
  for (;;) {
    std::vector<JobPlan> event = mix.next_event(kOpenRatePerS);
    if (event.front().due_ms > open_ms) {
      break;
    }
    for (JobPlan& job : event) {
      open_plans.push_back(std::move(job));
    }
  }
  const double base_ms = open_plans.empty() ? 0.0 : open_plans.front().due_ms;
  for (JobPlan& job : open_plans) {
    job.due_ms -= base_ms;
  }
  reset_peak_rss();  // peak over the timed phases, set-up excluded
  const auto open_start = Clock::now();
  const std::vector<Outcome> outcomes = run_open_loop(open_plans, clients, open_start);

  std::vector<double> latency_ms;
  std::vector<double> late;
  std::size_t met = 0;
  ServiceFigures figures;
  for (std::size_t i = 0; i < open_plans.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    const auto due = open_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          open_plans[i].due_ms));
    late.push_back(late_ms(due, outcome.sent));
    figures.router_submit_ms.push_back(outcome.submit_ms);
    const bool ok = outcome.accepted && job_done(outcome.status, open_plans[i].trials);
    report.check(ok, ok ? std::string() : "open-loop job " + std::to_string(i) + ": " +
                                              outcome.status.dump());
    if (!ok) {
      continue;
    }
    const double ms = latency_from_due_ms(due, outcome.done);
    latency_ms.push_back(ms);
    met += ms <= kSloLimitMs ? 1 : 0;
    const Json& result = outcome.status.at("result");
    figures.queue_ms.push_back(result.get_number("queue_ms", 0.0));
    figures.exec_ms.push_back(result.get_number("exec_ms", 0.0));
  }

  // Closed loop on a fresh stretch of the same mix.
  const ClosedLoop closed =
      run_closed_loop(draw_jobs(mix, 20000), clients, kClosedShare * options.seconds);
  for (std::size_t i = 0; i < closed.ok.size(); ++i) {
    report.check(closed.ok[i] != 0,
                 "closed-loop job " + std::to_string(i) + " failed or lost trials");
  }
  read_fleet_stats(clients[0], figures);

  // Seeded sample of open-loop jobs, merged-batch jobs included, each
  // compared bitwise with a standalone run_noisy of the same config.
  std::vector<std::size_t> merged;
  std::vector<std::size_t> solo;
  for (std::size_t i = 0; i < open_plans.size(); ++i) {
    if (outcomes[i].accepted && outcomes[i].status.has("result")) {
      (outcomes[i].status.at("result").get_u64("batch_size", 1) > 1 ? merged : solo)
          .push_back(i);
    }
  }
  std::vector<std::size_t> checked;
  for (std::vector<std::size_t>* pool : {&merged, &solo}) {
    for (std::size_t k = 0; k < kCheckedJobs / 2 && !pool->empty(); ++k) {
      const std::size_t pick = sampler.between(0, pool->size() - 1);
      checked.push_back((*pool)[pick]);
      pool->erase(pool->begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  std::vector<TracedRun> traced_runs;
  KernelTimes kernels;
  double direct_ms = 0.0;
  double traced_ms = 0.0;
  for (const std::size_t i : checked) {
    const JobPlan& job = open_plans[i];
    const Workload workload = build_workload(job.spec);
    NoisyRunConfig config;
    config.num_trials = job.trials;
    config.seed = job.seed;
    const auto expected = histogram_of(outcomes[i].status);
    const NoisyRunResult standalone = run_noisy(workload.circuit, workload.noise, config);
    report.check(histogram_strings(standalone.histogram, workload.circuit.num_measured()) ==
                     expected,
                 "job " + std::to_string(i) + " (" + job.spec.circuit_spec +
                     ", batch_size " +
                     std::to_string(outcomes[i].status.at("result").get_u64("batch_size", 1)) +
                     ") differs from standalone run_noisy");
    if (!options.trace) {
      continue;
    }
    ParallelRunConfig parallel;
    static_cast<NoisyRunConfig&>(parallel) = config;
    parallel.num_threads = 1;  // service jobs run at threads 1
    const auto t0 = Clock::now();
    run_noisy_parallel(workload.circuit, workload.noise, parallel);
    direct_ms += ms_between(t0, Clock::now());
    TracedRun traced = traced_run(workload.circuit, workload.noise, parallel);
    traced_ms += traced.wall_ms;
    report.check(traced.histogram == standalone.histogram &&
                     traced.other_histogram == standalone.histogram,
                 "traced pipeline of job " + std::to_string(i) + " differs from run_noisy");
    replay_kernels(workload.circuit, 5.0, kernels);
    traced_runs.push_back(std::move(traced));
  }

  const double rss = peak_rss_mib();
  if (!options.trace) {
    const std::size_t sent = open_plans.size();
    report.metric("setup_s", median(setup_ms) / 1000.0, "s");
    report.samples("setup_s", setup_ms.size());
    report.metric("run_s", median(closed.job_ms) / 1000.0, "s");
    report.samples("run_s", closed.job_ms.size());
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("job_ms_p50", percentile(latency_ms, 50), "ms");
    report.metric("job_ms_p99", percentile(latency_ms, 99), "ms");
    report.samples("job_ms", latency_ms.size());
    report.samples("job_ms_beyond_p99", samples_beyond(latency_ms.size(), 99));
    report.metric("slo_met_frac", static_cast<double>(met) / static_cast<double>(sent),
                  "ratio");
    report.info("slo_limit_ms", kSloLimitMs);
    const auto completed = std::count(closed.ok.begin(), closed.ok.end(), 1);
    report.metric("jobs_per_s", static_cast<double>(completed) / closed.elapsed_s, "1/s");
    report.samples("jobs_per_s", closed.ok.size());
    report.info("open_loop_rate_per_s", kOpenRatePerS);
    report.info("open_loop_jobs", static_cast<double>(sent));
    report.metric("loadgen.late_ms_p99", percentile(late, 99), "ms");
    stamp_host(report, /*measure_memcpy=*/true);
    return 0;
  }

  // Traced probes: the first events through an in-process service
  // (parse / batch / encode; results must match the fleet's), and a few
  // submits straight to one backend next to the routed ones.
  std::vector<std::vector<Json>> groups;
  std::vector<std::size_t> group_jobs;
  for (std::size_t i = 0; i < open_plans.size() && open_plans[i].event < kInProcessEvents;
       ++i) {
    if (groups.empty() || open_plans[i].event != open_plans[i - 1].event) {
      groups.emplace_back();
    }
    groups.back().push_back(open_plans[i].request());
    group_jobs.push_back(i);
  }
  figures.in_process = replay_in_process(groups);
  for (std::size_t k = 0; k < group_jobs.size(); ++k) {
    const std::size_t i = group_jobs[k];
    report.check(!outcomes[i].accepted ||
                     histogram_of(figures.in_process.results[k]) ==
                         histogram_of(outcomes[i].status),
                 "in-process result of job " + std::to_string(i) + " differs from the fleet's");
  }
  {
    ServiceClient backend = fleet->connect_backend(0);
    const std::vector<JobPlan> direct = draw_jobs(mix, kDirectSubmits);
    for (const JobPlan& job : direct) {
      const auto t0 = Clock::now();
      const Json accepted = backend.request(job.request());
      figures.direct_submit_ms.push_back(ms_between(t0, Clock::now()));
      report.check(accepted.get_bool("ok", false) &&
                       job_done(backend.request(wait_request(accepted.at("job").as_u64())),
                                job.trials),
                   "direct backend job failed");
    }
  }
  figures.late_ms = late;
  const double memcpy_gbps = stamp_host(report, /*measure_memcpy=*/true);
  report_traced_runs(report, traced_runs, kernels, memcpy_gbps);
  report_service_figures(report, figures);
  report.metric("trace_overhead_frac", traced_ms / direct_ms - 1.0, "ratio");
  return 0;
}

}  // namespace perfbench
