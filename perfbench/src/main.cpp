// perfbench: run one benchmark workload and write its results document.
//
//   perfbench --workload <grover20-deep|ghz24-wide|service-mix> --seed <n>
//             --seconds <s> --trace <0|1> --out <results.json>
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that times the calls into each layer. perfbench/run.py builds
// this binary and turns the results document into the benchmark's report.
#include <malloc.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "perfbench.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <grover20-deep|ghz24-wide|service-mix> "
               "--seed <n> --seconds <s> --trace <0|1> --out <file>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out = value;
    } else {
      return usage();
    }
  }
  if (options.out.empty() || !(options.seconds > 0.0)) {
    return usage();
  }

  // Fix glibc's mmap threshold at its initial 128 KiB. By default the
  // first free of a large mmapped block raises the threshold past it, so
  // later 2^n state buffers come from the heap and freed ones stay
  // resident: the process would then carry a growing, timing-dependent
  // residue of earlier calls into every later call's peak resident set.
  // With the threshold fixed, a freed state buffer goes back to the kernel
  // and each call's peak is what that call holds, as in a fresh process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  perfbench::Report report;
  try {
    if (options.workload == "grover20-deep" || options.workload == "ghz24-wide") {
      perfbench::run_sv_workload(options, report);
    } else if (options.workload == "service-mix") {
      perfbench::run_service_mix(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  std::ofstream out(options.out);
  out << report.to_json(options);
  return out.good() ? 0 : 1;
}
