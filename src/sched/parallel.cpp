#include "sched/parallel.hpp"

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "sched/backend.hpp"
#include "sched/order.hpp"
#include "sched/tree.hpp"
#include "sched/tree_exec.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim {

namespace {

// Read handles for the run_noisy_parallel measured-ops and memory-pass
// deltas (same logical metrics the execution paths write; see
// sched/backend.cpp).
telemetry::Counter g_matvec_ops("sim.matvec_ops");
telemetry::Counter g_memory_passes("sim.memory_passes");

/// Legacy strategy: contiguous chunks of the reordered list, one
/// independent sequential scheduler per chunk. Fills ops / fork_copies /
/// max_live_states / histogram / observable sums; redundant_prefix_ops is
/// attributed by the caller (it needs the whole-list sequential count).
void run_chunked(const CircuitContext& ctx, const std::vector<Trial>& trials,
                 const ParallelRunConfig& config, const ScheduleOptions& options,
                 std::size_t workers, NoisyRunResult& result) {
  std::vector<std::vector<Trial>> chunks(workers);
  const std::size_t per_chunk = (trials.size() + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = std::min(w * per_chunk, trials.size());
    const std::size_t end = std::min(begin + per_chunk, trials.size());
    chunks[w].assign(trials.begin() + static_cast<std::ptrdiff_t>(begin),
                     trials.begin() + static_cast<std::ptrdiff_t>(end));
  }

  // Verify every chunk's plan up front, on the caller's thread: chunks of a
  // reordered list are themselves reordered, and each worker executes its
  // chunk as an independent schedule.
  if (config.verify_plans) {
    for (const std::vector<Trial>& chunk : chunks) {
      verify_schedule_or_throw(ctx, chunk, options, "run_noisy_parallel");
    }
  }

  std::vector<SvRunResult> partials(workers);
  std::vector<std::uint64_t> pool_reuses(workers, 0);
  std::vector<std::uint64_t> pool_allocs(workers, 0);
  auto work = [&](std::size_t w) {
    if (workers > 1) {
      telemetry::set_thread_lane("chunked.worker-" + std::to_string(w));
    }
    RQSIM_SPAN("chunked.worker_run");
    // Outcome sampling draws from the per-trial seeds, so the worker Rng
    // never produces a consumed value.
    Rng unused(0);
    SvBackend backend(ctx, unused, /*record_final_states=*/false,
                      &config.observables, config.fuse_gates,
                      /*use_trial_seeds=*/true);
    schedule_trials(ctx, chunks[w], backend, options);
    pool_reuses[w] = backend.buffer_pool().reuse_count();
    pool_allocs[w] = backend.buffer_pool().alloc_count();
    partials[w] = backend.take_result();
  };

  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back(work, w);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  for (std::size_t w = 0; w < workers; ++w) {
    result.telemetry.pool_reuses += pool_reuses[w];
    result.telemetry.pool_allocs += pool_allocs[w];
  }
  for (const SvRunResult& partial : partials) {
    result.ops += partial.ops;
    result.fork_copies += partial.fork_copies;
    result.max_live_states = std::max(result.max_live_states, partial.max_live_states);
    for (const auto& [outcome, count] : partial.histogram) {
      result.histogram[outcome] += count;
    }
    for (std::size_t k = 0; k < partial.observable_sums.size(); ++k) {
      result.observable_means[k] += partial.observable_sums[k];
    }
  }
}

/// Tree strategy: one global prefix trie, executed by the work-stealing
/// pool. Zero redundant prefix work by construction.
void run_tree(const CircuitContext& ctx, const std::vector<Trial>& trials,
              const ParallelRunConfig& config, const ScheduleOptions& options,
              std::size_t workers, NoisyRunResult& result) {
  const ExecTree tree = build_exec_tree(ctx, trials, options);
  if (config.verify_plans) {
    verify_tree_plan_or_throw(ctx, trials, tree, options, "run_noisy_parallel");
  }
  TreeExecConfig exec_config;
  exec_config.num_threads = workers;
  exec_config.max_states = config.max_states;
  exec_config.fuse_gates = config.fuse_gates;
  SampledTrialSink sink(ctx, trials, &config.observables);
  const TreeExecStats stats = execute_tree(ctx, tree, trials, exec_config, sink);
  result.histogram = sink.take_histogram();
  result.ops = stats.ops;
  result.fork_copies = stats.fork_copies;
  result.telemetry.steals = stats.steals;
  result.telemetry.inline_fallbacks = stats.inline_fallbacks;
  result.telemetry.cow_materializations = stats.cow_materializations;
  result.telemetry.pool_reuses = stats.pool_reuses;
  result.telemetry.pool_allocs = stats.pool_allocs;
  result.telemetry.pool_prewarmed = stats.prewarmed;
  result.telemetry.peak_live_states = stats.max_live_states;
  result.telemetry.frame_collapsed_trials = stats.frame_collapsed_trials;
  result.telemetry.frame_ops = stats.frame_ops;
  result.telemetry.uncomputations = stats.uncomputations;
  // Report the schedule's MSV — the deterministic bound admission control
  // enforces — rather than the timing-dependent transient peak.
  result.max_live_states = tree.peak_demand;
  const std::vector<double> sums = sink.take_observable_sums();
  for (std::size_t k = 0; k < sums.size(); ++k) {
    result.observable_means[k] += sums[k];
  }
}

}  // namespace

NoisyRunResult run_noisy_parallel(const Circuit& circuit, const NoiseModel& noise,
                                  const ParallelRunConfig& config) {
  RQSIM_SPAN("runner.run_noisy_parallel");
  const telemetry::Stopwatch stopwatch;
  const telemetry::MeasuredRunScope run_scope;
  const bool measured = telemetry::compiled() && telemetry::enabled();
  const std::uint64_t ops_before = measured ? g_matvec_ops.value() : 0;
  const std::uint64_t passes_before = measured ? g_memory_passes.value() : 0;
  circuit.validate();
  RQSIM_CHECK(noise.num_qubits() >= circuit.num_qubits(),
              "run_noisy_parallel: noise model covers fewer qubits than the circuit");
  RQSIM_CHECK(config.mode == ExecutionMode::kCachedReordered,
              "run_noisy_parallel: only kCachedReordered is supported");
  validate_run_limits(config, "run_noisy_parallel");
  for (const PauliString& pauli : config.observables) {
    RQSIM_CHECK(pauli.min_qubits() <= circuit.num_qubits(),
                "run_noisy_parallel: observable acts on qubits beyond the circuit");
  }
  const CircuitContext ctx(circuit);
  Rng rng(config.seed);
  std::vector<Trial> trials =
      generate_trials(circuit, ctx.layering, noise, config.num_trials, rng);
  // Same stream positions as run_noisy: generation, then per-trial
  // measurement seeds — the source of the bitwise histogram guarantee.
  assign_measurement_seeds(trials, rng);
  reorder_trials(trials);

  const std::size_t workers =
      std::max<std::size_t>(1, std::min(config.num_threads,
                                        trials.empty() ? 1 : trials.size()));

  ScheduleOptions options;
  options.max_states = config.max_states;
  // Frame collapse is a tree-schedule transformation: it needs the
  // per-gate Clifford structure (hidden by fused segments) and Pauli error
  // injections (guaranteed by the noise model's channel set).
  options.frame_collapse = config.frame_collapse &&
                           config.parallel_mode == ParallelMode::kTree &&
                           !config.fuse_gates && noise.all_channels_pauli();
  options.frame_observables = !config.observables.empty();

  NoisyRunResult result;
  result.observable_means.assign(config.observables.size(), 0.0);
  if (config.parallel_mode == ParallelMode::kChunked) {
    run_chunked(ctx, trials, config, options, workers, result);
    // What a single sequential scheduler would have executed on the same
    // list; the excess is exactly the prefix work recomputed across chunk
    // boundaries.
    result.redundant_prefix_ops =
        result.ops - predict_cached_ops(ctx, trials, options);
  } else {
    run_tree(ctx, trials, config, options, workers, result);
    result.redundant_prefix_ops = 0;
  }

  for (double& mean : result.observable_means) {
    mean /= static_cast<double>(std::max<std::size_t>(1, trials.size()));
  }
  result.baseline_ops = baseline_op_count(ctx, trials);
  result.trial_stats = compute_trial_stats(trials);
  result.normalized_computation =
      result.baseline_ops == 0
          ? 1.0
          : static_cast<double>(result.ops) / static_cast<double>(result.baseline_ops);
  // A concurrent run (service with multiple workers) would fold its ops
  // into our counter delta; report measured=false rather than an inflated
  // measured_ops that no longer equals result.ops.
  result.telemetry.measured = measured && run_scope.exclusive();
  if (result.telemetry.measured) {
    result.telemetry.measured_ops = g_matvec_ops.value() - ops_before;
    result.telemetry.memory_passes = g_memory_passes.value() - passes_before;
  }
  result.telemetry.ops_saved_vs_baseline =
      result.baseline_ops > result.ops ? result.baseline_ops - result.ops : 0;
  result.telemetry.prefix_cache_hit_ratio =
      result.baseline_ops == 0
          ? 0.0
          : static_cast<double>(result.telemetry.ops_saved_vs_baseline) /
                static_cast<double>(result.baseline_ops);
  if (result.telemetry.peak_live_states == 0) {
    result.telemetry.peak_live_states = result.max_live_states;
  }
  result.telemetry.wall_ms = stopwatch.elapsed_ms();
  return result;
}

}  // namespace rqsim
