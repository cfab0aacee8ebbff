// Shared pieces of the perfbench driver: clocks, a fine-grained latency
// histogram, the seeded op-stream generator, the key/value encoding the
// output oracle checks, and the result record every workload fills.
//
// Everything here belongs to the driver, not to the store under test: the
// store only ever sees the keys, values and ops generated here.
#pragma once

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- clocks --

inline uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline uint64_t clock_ns(clockid_t id) {
  timespec ts;
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

// Peak resident set (VmHWM) in MiB.
double peak_rss_mb();

// Guest-wide CPU time from /proc/stat, in clock ticks: all of it, and the
// part the hypervisor gave to someone else (steal). Runs on a shared host
// differ mostly by what the other tenants do; the steal share of a timed
// interval is printed with its results so a slow run can be told apart.
struct HostCpu {
  uint64_t total = 0, steal = 0;
};
HostCpu host_cpu();

// ------------------------------------------------------------- histogram --

// Latency histogram with 1 ns buckets below 2048 ns and 1024 sub-buckets
// per power of two above (0.1% resolution), so percentiles keep their
// digits instead of snapping to a coarse bucket grid.
class LatHist {
 public:
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kSub = 1ull << kSubBits;
  static constexpr int kMaxExp = 40;  // ~18 minutes
  static constexpr size_t kBuckets = 2 * kSub + (kMaxExp - kSubBits) * kSub;

  LatHist() : counts_(kBuckets, 0) {}

  void record(uint64_t ns) {
    ++counts_[index(ns)];
    ++n_;
  }
  void merge(const LatHist& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  uint64_t count() const { return n_; }
  // Value (ns) at quantile q, interpolated inside the bucket.
  double percentile(double q) const;

 private:
  static size_t index(uint64_t v) {
    if (v < 2 * kSub) return static_cast<size_t>(v);
    int e = 63 - __builtin_clzll(v);  // e >= kSubBits + 1
    if (e >= kMaxExp) e = kMaxExp - 1, v = (1ull << kMaxExp) - 1;
    const uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<size_t>(2 * kSub + (e - kSubBits - 1) * kSub + sub);
  }
  static void bounds(size_t i, double* lo, double* width);

  std::vector<uint32_t> counts_;
  uint64_t n_ = 0;
};

// --------------------------------------------------------------- streams --

inline uint64_t mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

// xoshiro256**, SplitMix-seeded.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : s_) s = mix64(x += 0x9E3779B97F4A7C15ULL);
  }
  uint64_t next() {
    const uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  uint64_t below(uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// One generated op: key id plus GET/SET. Streams are generated before the
// timed interval and replayed cyclically, so generation never competes
// with the store for CPU while it is measured.
struct Op {
  uint32_t key;
  bool set;
};

struct StreamSpec {
  uint64_t keys = 0;
  double set_frac = 0;
  bool zipf = false;    // scrambled zipfian (theta) vs uniform
  double theta = 0.99;
  uint32_t owners = 2;  // SET keys are redrawn until owned by the stream
  size_t length = 1 << 20;
};

// Stream for owner `t` of spec.owners: GET keys follow the distribution
// over all keys; SET keys follow it restricted to keys with key % owners
// == t (one writer per key keeps the oracle exact).
std::vector<Op> make_stream(const StreamSpec& spec, uint64_t seed, uint32_t t);

// ------------------------------------------------------- key/value codec --

// 15-byte keys (the fixed-record maximum: a 16 B key box with its length
// byte) for every workload.
constexpr size_t kKeyLen = 15;
inline void format_key(uint32_t id, char out[kKeyLen]) {
  static const char* hex = "0123456789abcdef";
  std::memcpy(out, "key:", 4);
  uint64_t v = id;
  for (int i = kKeyLen - 1; i >= 4; --i) {
    out[i] = hex[v & 15];
    v >>= 4;
  }
}
inline std::string key_str(uint32_t id) {
  char k[kKeyLen];
  format_key(id, k);
  return std::string(k, kKeyLen);
}
// Key id parsed back from a key the driver formatted; UINT32_MAX if the
// bytes are not one.
uint32_t parse_key(std::string_view key);

// Values encode (key id, version): 6 hex digits of id, 8 of version, then
// for sizes above 14 bytes (up to 64 KiB + 14) a filler derived from both,
// so a value for the wrong key, a stale or future version, or a torn
// payload all fail the check.
void format_value(uint32_t id, uint32_t version, size_t len, std::string* out);
// True and fills *version when `v` is a well-formed value of key `id`.
bool check_value(std::string_view v, uint32_t id, size_t len,
                 uint32_t* version);

// ---------------------------------------------------------------- oracle --

// Per-key write ownership and version tracking. issued[k] is the newest
// version the owner has sent (readable by everyone: no GET may return a
// newer one); acked[k] is the newest version acknowledged (owner-only
// while running; after the run every key must hold it).
struct Oracle {
  explicit Oracle(uint64_t keys)
      : issued(new std::atomic<uint32_t>[keys]), acked(keys, 1), n(keys) {
    for (uint64_t i = 0; i < keys; ++i) issued[i].store(1);
  }
  std::unique_ptr<std::atomic<uint32_t>[]> issued;
  std::vector<uint32_t> acked;
  uint64_t n;
};

// ---------------------------------------------------------------- result --

// Per-thread op accounting of one phase.
struct PhaseCounters {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;
  void fail(std::string why) {
    ++failed;
    if (notes.size() < 4) notes.push_back(std::move(why));
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  uint32_t threads = 2;  // driver threads / connections
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  // why `correct` is false, first failures
  std::map<std::string, double> metrics;  // units live in main.cc's catalog
  std::vector<std::string> info;          // extra human-readable lines

  void put(const std::string& name, double v) { metrics[name] = v; }
  void absorb(const PhaseCounters& pc);
  void fail(const std::string& why) {
    correct = false;
    if (notes.size() < 16) notes.push_back(why);
  }
};

// Latency/throughput summary of a closed-loop timed interval split into
// equal slices: each figure is the median over slices (one slow slice on a
// shared host cannot move it), with the total sample counts kept.
struct SliceStats {
  double kops = 0;
  double get_p50_us = 0, get_p99_us = 0, set_p50_us = 0, set_p99_us = 0;
  uint64_t gets = 0, sets = 0, ops = 0;
  double seconds = 0;
  std::vector<double> slice_kops, slice_set_p50_us;  // per slice, in order
};

// Traced phases split their slices in pairs and trace one slice of each
// pair, chosen by `seed`: both halves see the same drift, and a periodic
// stall (a GC cycle near the slice length) cannot alias with a fixed
// alternation.
inline bool traced_slice(int i, uint64_t seed) {
  return ((mix64(seed ^ static_cast<uint64_t>(i / 2)) & 1) != 0) != (i % 2 == 1);
}
// Median of v's elements over the traced (or untraced) slices.
double median_of_slices(const std::vector<double>& v, bool traced, uint64_t seed);

// Per-thread recorder for one timed interval.
struct SliceRecorder {
  SliceRecorder(int slices, uint64_t t0, uint64_t slice_ns)
      : t0(t0), slice_ns(slice_ns), get(slices), set(slices), ops(slices, 0) {}
  // Records an op completed at `t_end` (ops before t0 are warm-up and
  // not recorded); false once past the last slice.
  bool record(bool is_set, uint64_t lat_ns, uint64_t t_end) {
    if (t_end < t0) return true;
    const uint64_t s = (t_end - t0) / slice_ns;
    if (s >= ops.size()) return false;
    (is_set ? set : get)[s].record(lat_ns);
    ++ops[s];
    return true;
  }
  uint64_t t0, slice_ns;
  std::vector<LatHist> get, set;
  std::vector<uint64_t> ops;
};

SliceStats summarize(const std::vector<std::unique_ptr<SliceRecorder>>& recs);

double median(std::vector<double> v);

struct PhaseOut {
  SliceStats stats;
  PhaseCounters counters;  // summed over threads
  double host_steal_frac = 0;  // steal share of guest CPU time, recorded slices
};

// Runs `threads` closed-loop workers for `warmup_s` unrecorded seconds
// plus `slices` recorded 1-second slices. Each worker runs
// body(t, recorder, counters) and returns once recorder.record() says the
// interval is over. at(i) runs on the calling thread at each slice
// boundary i = 0..slices (counter and CPU snapshots, tracing toggles).
template <typename Body, typename Hook>
PhaseOut run_phase(uint32_t threads, double warmup_s, int slices, Body&& body,
                   Hook&& at) {
  const uint64_t slice_ns = 1000000000ull;
  const uint64_t t0 =
      now_ns() + static_cast<uint64_t>(warmup_s * 1e9) + 50000000ull;
  std::vector<std::unique_ptr<SliceRecorder>> recs;
  std::vector<PhaseCounters> counters(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    recs.push_back(std::make_unique<SliceRecorder>(slices, t0, slice_ns));
  }
  // Workers stay alive until the last hook has run, so the per-thread CPU
  // clocks it reads still exist.
  std::atomic<bool> ended{false};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      body(t, *recs[t], counters[t]);
      while (!ended.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  auto sleep_until = [](uint64_t when) {
    while (true) {
      const uint64_t now = now_ns();
      if (now >= when) return;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<uint64_t>(when - now, 20000000ull)));
    }
  };
  HostCpu h0, h1;
  for (int i = 0; i <= slices; ++i) {
    sleep_until(t0 + slice_ns * static_cast<uint64_t>(i));
    if (i == 0) h0 = host_cpu();
    if (i == slices) h1 = host_cpu();
    at(i);
  }
  ended.store(true);
  for (auto& w : workers) w.join();
  PhaseOut out;
  if (h1.total > h0.total) {
    out.host_steal_frac = static_cast<double>(h1.steal - h0.steal) /
                          static_cast<double>(h1.total - h0.total);
  }
  out.stats = summarize(recs);
  for (auto& c : counters) {
    out.counters.attempted += c.attempted;
    out.counters.failed += c.failed;
    for (auto& n : c.notes) {
      if (out.counters.notes.size() < 8) out.counters.notes.push_back(n);
    }
  }
  return out;
}

// Slices of an untraced timed interval: one per second, at least 2.
inline int slice_count(int seconds) { return std::max(2, seconds); }

// Per-workload entry points (read_workloads.cc, write_workload.cc).
void run_kv_zipf_read(const Options& o, Result* r);
void run_net_zipf_read(const Options& o, Result* r);
void run_net_write_1k(const Options& o, Result* r);

}  // namespace perfbench
