// Result report and host stamp.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_RQSIM_FLAGS
#define PERFBENCH_RQSIM_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision number; non-finite values become null (the caller
/// treats a null metric as not measured).
std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Last-level cache size in bytes from sysfs (0 when unknown).
std::size_t llc_bytes() {
  std::size_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream size_file(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) {
      continue;
    }
    std::size_t bytes = std::stoull(size);
    const char suffix = size.back();
    if (suffix == 'K') bytes <<= 10;
    if (suffix == 'M') bytes <<= 20;
    if (level >= best_level) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::samples(const std::string& name, std::size_t count) {
  samples_[name] = count;
}

void Report::info(const std::string& key, const std::string& value) {
  info_[key] = json_string(value);
}

void Report::info(const std::string& key, double value) {
  info_[key] = json_number(value);
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
}

std::string Report::to_json(const Options& options) const {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed << ", \"seconds\": " << json_number(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics_[i].name) << ": {\"value\": "
        << json_number(metrics_[i].value) << ", \"unit\": " << json_string(metrics_[i].unit)
        << "}";
  }
  out << "}, \"samples\": {";
  std::size_t i = 0;
  for (const auto& [name, count] : samples_) {
    out << (i++ ? ", " : "") << json_string(name) << ": " << count;
  }
  out << "}, \"host\": {";
  i = 0;
  for (const auto& [key, value] : info_) {
    out << (i++ ? ", " : "") << json_string(key) << ": " << value;
  }
  out << "}}\n";
  return out.str();
}

double stamp_host(Report& report, bool measure_memcpy) {
  const unsigned nproc = std::thread::hardware_concurrency();
  report.info("compiler", std::string("g++ ") + __VERSION__);
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("rqsim_flags", PERFBENCH_RQSIM_FLAGS);
  const std::size_t llc = llc_bytes();
  report.metric("host.nproc", nproc, "count");
  report.metric("host.llc_mib", static_cast<double>(llc) / (1 << 20), "MiB");
  if (!measure_memcpy) {
    return std::nan("");
  }

  // At least 4x the LLC so the copy streams from DRAM; src + dst are both
  // touched before timing so page faults stay out of the figure.
  const std::size_t bytes = std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  std::vector<char> src(bytes);
  std::vector<char> dst(bytes);
  std::memset(src.data(), 1, bytes);
  std::memset(dst.data(), 2, bytes);
  const auto copy_ms = [&](unsigned threads) {
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      const std::size_t slice = bytes / threads;
      std::vector<std::thread> workers;
      const auto t0 = Clock::now();
      for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          std::memcpy(dst.data() + t * slice, src.data() + t * slice, slice);
        });
      }
      for (std::thread& worker : workers) {
        worker.join();
      }
      ms.push_back(ms_between(t0, Clock::now()));
      src[static_cast<std::size_t>(rep)] = dst[bytes - 1];  // keep the copies observable
    }
    return median(ms);
  };
  // One memcpy reads and writes `bytes` each: the same 2x count as a pass.
  const double all_gbps = gbps(2.0 * static_cast<double>(bytes), copy_ms(nproc));
  const double one_gbps = gbps(2.0 * static_cast<double>(bytes), copy_ms(1));
  report.metric("host.memcpy_gbps", all_gbps, "GB/s");
  report.metric("host.memcpy_1t_gbps", one_gbps, "GB/s");
  report.metric("host.memcpy_array_mib", static_cast<double>(bytes) / (1 << 20), "MiB");
  report.samples("host.memcpy_gbps", 5);
  return all_gbps;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace perfbench
