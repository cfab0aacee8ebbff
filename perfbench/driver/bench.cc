#include "bench.h"

#include <fstream>
#include <mutex>

namespace perfbench {

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

HostCpu host_cpu() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostCpu h;
  in >> cpu;
  for (int i = 0; i < 8 && in; ++i) {
    uint64_t v = 0;
    in >> v;
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

void LatHist::bounds(size_t i, double* lo, double* width) {
  if (i < 2 * kSub) {
    *lo = static_cast<double>(i);
    *width = 1.0;
    return;
  }
  const size_t j = i - 2 * kSub;
  const int e = static_cast<int>(j / kSub) + kSubBits + 1;
  const uint64_t sub = j % kSub + kSub;
  const double w = static_cast<double>(1ull << (e - kSubBits));
  *lo = static_cast<double>(sub) * w;
  *width = w;
}

double LatHist::percentile(double q) const {
  if (n_ == 0) return 0.0;
  const double target = q * static_cast<double>(n_);
  double seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    if (seen + counts_[i] >= target) {
      double lo, w;
      bounds(i, &lo, &w);
      return lo + w * (target - seen) / counts_[i];
    }
    seen += counts_[i];
  }
  double lo, w;
  bounds(kBuckets - 1, &lo, &w);
  return lo;
}

namespace {

// Gray et al. zipfian (the YCSB generator), with the zeta sum computed
// exactly once per (n, theta).
struct Zipf {
  Zipf(uint64_t n, double theta) : n(n), theta(theta) {
    static std::mutex mu;
    static std::map<std::pair<uint64_t, double>, double> cache;
    std::lock_guard<std::mutex> g(mu);
    auto it = cache.find({n, theta});
    if (it == cache.end()) {
      double z = 0;
      for (uint64_t i = 1; i <= n; ++i) z += 1.0 / std::pow(static_cast<double>(i), theta);
      it = cache.emplace(std::make_pair(n, theta), z).first;
    }
    zetan = it->second;
    alpha = 1.0 / (1.0 - theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
          (1.0 - zeta2 / zetan);
    half_pow = std::pow(0.5, theta);
  }
  uint64_t next(Rng& rng) const {
    const double u = rng.unit();
    const double uz = u * zetan;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow) return 1;
    const uint64_t v = static_cast<uint64_t>(
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
    return v < n ? v : n - 1;
  }
  uint64_t n;
  double theta, zetan, alpha, eta, half_pow;
};

const char kHex[] = "0123456789abcdef";

int hexval(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool parse_hex(std::string_view s, uint64_t* out) {
  uint64_t v = 0;
  for (char c : s) {
    const int h = hexval(c);
    if (h < 0) return false;
    v = v << 4 | static_cast<uint64_t>(h);
  }
  *out = v;
  return true;
}

// Value filler: a window into a fixed pseudo-random letter pattern, at an
// offset derived from (id, version). A copy, not a computation per byte,
// so the driver's own cost stays small next to the store's.
constexpr size_t kPatternSpan = 4096;
constexpr size_t kMaxFiller = 64 * 1024;
const char* pattern() {
  static const std::vector<char> p = [] {
    std::vector<char> v(kPatternSpan + kMaxFiller);
    uint64_t x = 0x243F6A8885A308D3ULL;
    for (auto& c : v) c = static_cast<char>('a' + ((x = mix64(x)) & 15));
    return v;
  }();
  return p.data();
}
const char* filler(uint32_t id, uint32_t version) {
  return pattern() + mix64((static_cast<uint64_t>(id) << 32) | version) % kPatternSpan;
}

}  // namespace

std::vector<Op> make_stream(const StreamSpec& spec, uint64_t seed, uint32_t t) {
  std::vector<Op> ops(spec.length);
  Rng rng(mix64(seed) ^ (0xA5A5A5A5ull * (t + 1)));
  // The scramble salt depends on the seed, so each seed has its own hot set.
  const uint64_t salt = mix64(seed ^ 0x5ca1ab1eull);
  std::unique_ptr<Zipf> zipf;
  if (spec.zipf) zipf = std::make_unique<Zipf>(spec.keys, spec.theta);
  auto draw = [&]() -> uint32_t {
    if (!zipf) return static_cast<uint32_t>(rng.below(spec.keys));
    return static_cast<uint32_t>(mix64(zipf->next(rng) ^ salt) % spec.keys);
  };
  for (auto& op : ops) {
    op.set = rng.unit() < spec.set_frac;
    uint32_t k = draw();
    if (op.set) {
      while (k % spec.owners != t) k = draw();
    }
    op.key = k;
  }
  return ops;
}

uint32_t parse_key(std::string_view key) {
  if (key.size() != kKeyLen || key.substr(0, 4) != "key:") return UINT32_MAX;
  uint64_t v;
  if (!parse_hex(key.substr(4), &v) || v >= UINT32_MAX) return UINT32_MAX;
  return static_cast<uint32_t>(v);
}

void format_value(uint32_t id, uint32_t version, size_t len, std::string* out) {
  out->resize(len);
  char* p = out->data();
  for (int i = 5; i >= 0; --i) p[5 - i] = kHex[(id >> (4 * i)) & 15];
  for (int i = 7; i >= 0; --i) p[13 - i] = kHex[(version >> (4 * i)) & 15];
  if (len > 14) std::memcpy(p + 14, filler(id, version), std::min(len, kMaxFiller + 14) - 14);
}

bool check_value(std::string_view v, uint32_t id, size_t len,
                 uint32_t* version) {
  if (v.size() != len || len < 14) return false;
  uint64_t got_id, ver;
  if (!parse_hex(v.substr(0, 6), &got_id) || got_id != (id & 0xffffff)) {
    return false;
  }
  if (!parse_hex(v.substr(6, 8), &ver)) return false;
  if (len > 14 &&
      std::memcmp(v.data() + 14, filler(id, static_cast<uint32_t>(ver)),
                  std::min(len, kMaxFiller + 14) - 14) != 0) {
    return false;
  }
  *version = static_cast<uint32_t>(ver);
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median_of_slices(const std::vector<double>& v, bool traced, uint64_t seed) {
  std::vector<double> pick;
  for (size_t i = 0; i < v.size(); ++i) {
    if (traced_slice(static_cast<int>(i), seed) == traced) pick.push_back(v[i]);
  }
  return median(pick);
}

SliceStats summarize(const std::vector<std::unique_ptr<SliceRecorder>>& recs) {
  SliceStats s;
  if (recs.empty()) return s;
  const size_t slices = recs[0]->ops.size();
  const double slice_s = static_cast<double>(recs[0]->slice_ns) / 1e9;
  std::vector<double> kops, g50, g99, s50, s99;
  for (size_t i = 0; i < slices; ++i) {
    LatHist g, st;
    uint64_t ops = 0;
    for (const auto& r : recs) {
      g.merge(r->get[i]);
      st.merge(r->set[i]);
      ops += r->ops[i];
    }
    kops.push_back(static_cast<double>(ops) / slice_s / 1e3);
    g50.push_back(g.percentile(0.50) / 1e3);
    g99.push_back(g.percentile(0.99) / 1e3);
    s50.push_back(st.percentile(0.50) / 1e3);
    s99.push_back(st.percentile(0.99) / 1e3);
    s.gets += g.count();
    s.sets += st.count();
    s.ops += ops;
  }
  s.slice_kops = kops;
  s.slice_set_p50_us = s50;
  s.kops = median(kops);
  s.get_p50_us = median(g50);
  s.get_p99_us = median(g99);
  s.set_p50_us = median(s50);
  s.set_p99_us = median(s99);
  s.seconds = slice_s * static_cast<double>(slices);
  return s;
}

}  // namespace perfbench

namespace perfbench {

void Result::absorb(const PhaseCounters& pc) {
  attempted += pc.attempted;
  failed += pc.failed;
  if (pc.failed) correct = false;
  for (const auto& n : pc.notes) {
    if (notes.size() < 16) notes.push_back(n);
  }
}

}  // namespace perfbench
