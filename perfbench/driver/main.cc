// perfbench_driver — runs one workload and prints its metrics.
//
//   perfbench_driver --workload kv-zipf-read --seed 1 --seconds 10 --trace 0
//
// Human-readable lines start with '#'. The last line is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// of kCatalog, each with its unit. A per-layer metric that is not on the
// workload's path reads 0 and is listed on the "# not on path" line.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "bench.h"
#include "nvm/config.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
};

const MetricDef kCatalog[] = {
    {"throughput_kops", "kops/s", false},
    {"get_p50_us", "us", false},
    {"get_p99_us", "us", false},
    {"set_p50_us", "us", false},
    {"set_p99_us", "us", false},
    {"setup_s", "s", false},
    {"nvm_bytes_per_user_byte", "B/B", false},
    {"rss_mb", "MiB", false},

    {"nvm.read_blocks_per_op", "blocks/op", true},
    {"nvm.stalled_read_frac", "frac", true},
    {"nvm.emulated_ns_per_op", "ns/op", true},
    {"nvm.write_lines_per_op", "lines/op", true},
    {"nvm.fences_per_op", "fences/op", true},
    {"hdnh.hot_hit_ratio", "hits/op", true},
    {"hdnh.ocf_filtered_per_get", "probes/get", true},
    {"hdnh.ocf_false_pos_per_get", "probes/get", true},
    {"hdnh.get_p50_ns", "ns", true},
    {"hdnh.put_p50_ns", "ns", true},
    {"hdnh.lock_waits_per_op", "waits/op", true},
    {"hdnh.load_factor", "frac", true},
    {"store.get_p50_ns", "ns", true},
    {"store.put_p50_ns", "ns", true},
    {"store.route_self_ns", "ns", true},
    {"store.shard_skew", "max/mean", true},
    {"kv.get_p50_ns", "ns", true},
    {"kv.get_p99_ns", "ns", true},
    {"kv.put_p50_ns", "ns", true},
    {"kv.put_p99_ns", "ns", true},
    {"kv.self_get_ns", "ns", true},
    {"vkv.log_bytes_per_put_byte", "B/B", true},
    {"vkv.log_utilization", "frac", true},
    {"server.self_p50_us", "us", true},
    {"server.self_p99_us", "us", true},
    {"server.exec_p50_us", "us", true},
    {"server.cpu_us_per_op", "us/op", true},
    {"client.cpu_us_per_op", "us/op", true},
    {"resp.parse_ns_per_cmd", "ns", true},
    {"resp.encode_ns_per_reply", "ns", true},
    {"repl.ship_set_p50_delta_us", "us", true},
    {"repl.lag_max_entries", "entries", true},
    {"repl.catchup_ms", "ms", true},
    {"driver.gen_ns_per_op", "ns/op", true},
    {"trace.overhead_frac", "frac", true},
    {"trace.index_share", "frac", true},
    {"trace.net_share", "frac", true},
    {"trace.write_path_share", "frac", true},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<kv-zipf-read|net-zipf-read|net-write-1k> --seed <n> "
               "--seconds <n> --trace <0|1> [--out_dir <dir>] [--commit <id>]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      o.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      have_seconds = end && *end == '\0' && o.seconds >= 1 && o.seconds <= 600;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      o.trace = v == "1";
    } else if (a == "--out_dir") {
      o.out_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required and must be valid");
  }
  void (*run)(const Options&, Result*) = nullptr;
  if (o.workload == "kv-zipf-read") run = run_kv_zipf_read;
  if (o.workload == "net-zipf-read") run = run_net_zipf_read;
  if (o.workload == "net-write-1k") run = run_net_write_1k;
  if (!run) return usage(("unknown workload " + o.workload).c_str());

  const hdnh::nvm::NvmConfig nvm;
  std::printf(
      "# provenance {\"commit\":\"%s\",\"nproc\":%ld,\"cpu\":\"%s\",\"seed\":%llu,"
      "\"workload\":\"%s\",\"seconds\":%d,\"trace\":%d,\"driver_threads\":%u,"
      "\"nvm\":\"emulated AEP, not Optane: read %llu ns/256 B block, write "
      "%llu ns/64 B line, fence %llu ns, scale %.2f\"}\n",
      json_escape(commit).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      json_escape(cpu_model()).c_str(), static_cast<unsigned long long>(o.seed),
      o.workload.c_str(), o.seconds, o.trace ? 1 : 0, o.threads,
      static_cast<unsigned long long>(nvm.read_ns_per_block),
      static_cast<unsigned long long>(nvm.write_ns_per_line),
      static_cast<unsigned long long>(nvm.fence_ns), nvm.latency_scale);
  std::fflush(stdout);

  Result r;
  try {
    run(o, &r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }

  for (const auto& line : r.info) std::printf("# %s\n", line.c_str());
  for (const auto& n : r.notes) std::printf("# FAILED: %s\n", n.c_str());
  std::printf("# error_frac %.9f (%llu failed of %llu attempted)\n",
              r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::string off_path;
  std::string json = "{\"correct\": " + std::string(r.correct && r.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted ? r.attempted : 1) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : kCatalog) {
    if (m.per_layer != o.trace) continue;
    auto it = r.metrics.find(m.name);
    double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    if (it == r.metrics.end()) off_path += std::string(off_path.empty() ? "" : " ") + m.name;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::printf("# %-30s %18.6f %s\n", m.name, v, m.unit);
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  if (!off_path.empty()) std::printf("# not on path (reported as 0): %s\n", off_path.c_str());
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
