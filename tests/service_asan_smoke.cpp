// Sanitizer smoke test for the simulation service (plain main, no gtest).
//
// This binary is compiled with -fsanitize=address,undefined in EVERY build
// configuration (see tests/CMakeLists.txt): the service subsystem is the
// one place in the library that owns threads, sockets, and shared mutable
// state, so its lifecycle — submit, batch, wait, cancel, protocol round
// trips, server start/stop — runs under ASan+UBSan as part of the tier-1
// ctest flow. The service sources are recompiled into this target with
// sanitizer instrumentation; the rest of the library links in unsanitized.
// The gate kernels, the layer walker and the amplitude allocator are
// recompiled too, and a forced-small-block fuzz drives the cache-blocked
// gate path through them.
#include <cstdio>
#include <thread>

#include "blocked_fuzz.hpp"
#include "bench_circuits/qft.hpp"
#include "noise/noise_model.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "transpile/decompose.hpp"

namespace {

int failures = 0;

#define SMOKE_CHECK(cond)                                                \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

rqsim::JobSpec make_spec(std::size_t trials, std::uint64_t seed) {
  rqsim::JobSpec spec;
  spec.circuit = rqsim::decompose_to_cx_basis(rqsim::make_qft(4));
  spec.noise = rqsim::NoiseModel::uniform(4, 0.01, 0.04, 0.02);
  spec.config.num_trials = trials;
  spec.config.seed = seed;
  return spec;
}

void smoke_batching_and_cancel() {
  rqsim::ServiceConfig config;
  config.num_workers = 0;
  config.queue_capacity = 4;
  rqsim::SimService service(config);

  const std::uint64_t a = service.submit(make_spec(400, 1));
  const std::uint64_t b = service.submit(make_spec(400, 2));
  const std::uint64_t doomed = service.submit(make_spec(400, 3));
  SMOKE_CHECK(service.cancel(doomed));
  service.run_pending();

  const auto result_a = service.result(a);
  const auto result_b = service.result(b);
  SMOKE_CHECK(result_a && result_a->state == rqsim::JobState::kDone);
  SMOKE_CHECK(result_b && result_b->state == rqsim::JobState::kDone);
  SMOKE_CHECK(result_a->batch_size == 2);
  SMOKE_CHECK(result_a->run.ops + result_b->run.ops == result_a->batch_ops);
}

void smoke_worker_threads() {
  rqsim::ServiceConfig config;
  config.num_workers = 2;
  rqsim::SimService service(config);
  const std::uint64_t x = service.submit(make_spec(600, 5));
  const std::uint64_t y = service.submit(make_spec(600, 6));
  SMOKE_CHECK(service.wait(x).state == rqsim::JobState::kDone);
  SMOKE_CHECK(service.wait(y).state == rqsim::JobState::kDone);
  service.shutdown();
  SMOKE_CHECK(service.try_submit(make_spec(10, 1)).status ==
              rqsim::SubmitStatus::kShutdown);
}

void smoke_protocol_and_server() {
  rqsim::ServerConfig config;
  config.tcp_port = 0;
  config.service.num_workers = 1;
  rqsim::SimServer server(std::move(config));
  std::thread runner([&server] { server.run(); });

  {
    rqsim::ServiceClient client =
        rqsim::ServiceClient::connect_tcp("127.0.0.1", server.tcp_port());
    rqsim::WorkloadSpec workload;
    workload.circuit_spec = "ghz:4";
    workload.device = "ideal";
    rqsim::SubmitParams params;
    params.trials = 200;
    params.seed = 9;
    const rqsim::Json accepted =
        client.request(rqsim::make_submit_request(workload, params));
    SMOKE_CHECK(accepted.at("ok").as_bool());
    rqsim::Json wait_req = rqsim::Json::object();
    wait_req.set("op", rqsim::Json("wait"));
    wait_req.set("job", accepted.at("job"));
    SMOKE_CHECK(client.request(wait_req).at("state").as_string() == "done");
    const rqsim::Json bad = client.request(rqsim::Json::parse("{\"op\":\"nope\"}"));
    SMOKE_CHECK(!bad.at("ok").as_bool());
  }

  server.stop();
  runner.join();
}

}  // namespace

void smoke_blocked_kernels() {
  const rqsim::fuzz::BlockedFuzzReport report = rqsim::fuzz::run_blocked_fuzz(500, 60);
  SMOKE_CHECK(report.mismatches == 0);
  SMOKE_CHECK(report.passes < report.gates);
}

int main() {
  smoke_blocked_kernels();
  smoke_batching_and_cancel();
  smoke_worker_threads();
  smoke_protocol_and_server();
  if (failures == 0) {
    std::printf("service_asan_smoke: all checks passed\n");
    return 0;
  }
  std::fprintf(stderr, "service_asan_smoke: %d check(s) failed\n", failures);
  return 1;
}
