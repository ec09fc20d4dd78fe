// qs_perfbench — the repository benchmark.
//
//   qs_perfbench --workload solve_nu22|serve_mix|dist_r4 --seed N --seconds S
//                --trace 0|1 [--work-dir DIR] [--commit C] [--src-digest D]
//
// Runs one workload for S seconds in DIR (created if needed), prints the
// workload's report, a provenance line, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  The full result (with
// provenance) goes to DIR/results/, and a traced run also writes its spans
// there as Chrome trace JSON.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "parallel/engine.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "qs_perfbench: " << problem
            << "\nusage: qs_perfbench --workload solve_nu22|serve_mix|dist_r4 --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--commit C] [--src-digest D]\n";
  std::exit(2);
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

/// Gives every metric of the mode its unit; a per-layer metric the
/// workload does not exercise reads 0.
Metrics canonical(const Metrics& measured,
                  const std::vector<std::pair<std::string, std::string>>& names,
                  bool fill_missing) {
  Metrics out;
  for (const auto& [name, unit] : names) {
    const auto it = measured.find(name);
    if (it == measured.end() && !fill_missing) {
      throw std::logic_error("workload did not report " + name);
    }
    out[name] = {it == measured.end() ? 0.0 : it->second.value, unit};
  }
  for (const auto& [name, metric] : measured) {
    if (out.count(name) == 0) throw std::logic_error("unknown metric " + name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) usage(std::string("missing --") + required);
  }

  RunConfig config;
  config.workload = args["workload"];
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(args["seconds"].c_str());
  config.trace = args["trace"] == "1";
  if (!(config.seconds > 0.0) || (args["trace"] != "0" && args["trace"] != "1")) {
    usage("--seconds must be positive and --trace 0 or 1");
  }
  const std::filesystem::path work_dir = args.count("work-dir") ? args["work-dir"] : ".";
  std::filesystem::create_directories(work_dir / "results");
  // Work relative to the work directory: AF_UNIX socket paths stay short.
  std::filesystem::current_path(work_dir);
  config.work_dir = ".";

  using Runner = RunResult (*)(const RunConfig&);
  const std::map<std::string, Runner> runners = {
      {"solve_nu22", &run_solve_nu22},
      {"serve_mix", &run_serve_mix},
      {"dist_r4", &run_dist_r4},
  };
  const auto runner = runners.find(config.workload);
  if (runner == runners.end()) usage("unknown workload " + config.workload);

  const std::string provenance =
      provenance_json(args.count("commit") ? args["commit"] : "unknown",
                      args.count("src-digest") ? args["src-digest"] : "unknown");
  TriadResult triad;
  RunResult result;
  Metrics metrics;
  try {
    result = runner->second(config);
    if (config.trace) {
      // The roofline denominator, measured in the same run after the
      // workload (so the workload's peak RSS does not include its arrays).
      triad = triad_probe(qs::parallel::parallel_engine());
      set(result.per_layer, "mem.triad_gbps", triad.gbps);
      const auto gbps = result.per_layer.find("core.matvec_gbps");
      if (gbps != result.per_layer.end() && triad.gbps > 0.0) {
        set(result.per_layer, "core.matvec_roofline", gbps->second.value / triad.gbps);
      }
      metrics = canonical(result.per_layer, per_layer_metrics(), true);
    } else {
      metrics = canonical(result.end_to_end, end_to_end_metrics(), false);
    }
  } catch (const std::exception& e) {
    std::cerr << "qs_perfbench: " << config.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  const std::string stem = "results/" + config.workload + "-seed" +
                           std::to_string(config.seed) + (config.trace ? "-traced" : "");
  if (config.trace) {
    result.line(fmt("mem.triad_gbps     %.2f GB/s  STREAM triad, arrays of %.0f MiB each "
                    "(L3 %.0f MiB)",
                    triad.gbps, static_cast<double>(triad.array_bytes) / (1 << 20),
                    static_cast<double>(triad.l3_bytes) / (1 << 20)));
    result.line(fmt("core.matvec_mib    computed from the band-pass model, not measured"));
    tracer().write_chrome_json(stem + ".trace.json");
    result.line("spans              " + (work_dir / (stem + ".trace.json")).string());
  }
  const double fail_share = result.attempted == 0
                                ? 1.0
                                : static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted);
  result.line(fmt("fail_share         %.4f  (%llu of %llu operations; %llu oracle checks run)",
                  fail_share, static_cast<unsigned long long>(result.failed),
                  static_cast<unsigned long long>(result.attempted),
                  static_cast<unsigned long long>(result.oracle_checks)));
  for (const std::string& f : result.failures) result.line("FAILED: " + f);

  const bool correct = result.attempted > 0 && result.failed == 0;
  const std::string summary =
      fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
          correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
          static_cast<unsigned long long>(result.failed)) +
      metrics_json(metrics) + "}";

  {
    std::ofstream file(stem + ".json");
    file << "{\"workload\": " << json_string(config.workload) << ", \"seed\": " << config.seed
         << ", \"seconds\": " << json_number(config.seconds)
         << ", \"trace\": " << (config.trace ? 1 : 0) << ", \"provenance\": " << provenance
         << ", \"fail_share\": " << json_number(fail_share)
         << ", \"oracle_checks\": " << result.oracle_checks << ", \"report\": [";
    for (std::size_t i = 0; i < result.report.size(); ++i) {
      file << (i ? ", " : "") << json_string(result.report[i]);
    }
    file << "], \"detail\": " << result.detail_json << ", \"result\": " << summary << "}\n";
  }

  std::cout << "workload " << config.workload << " seed " << config.seed << " seconds "
            << config.seconds << (config.trace ? " (traced)" : "") << "\n";
  for (const std::string& line : result.report) std::cout << "  " << line << "\n";
  std::cout << "provenance " << provenance << "\n";
  std::cout << summary << std::endl;
  return 0;
}
