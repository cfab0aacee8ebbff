// net-write-1k: a vkv@4 primary with one in-process replica, 10k keys of
// exactly 1 KiB, 50% SET / 50% GET over uniform keys through loopback TCP.
// The value log holds twice the live bytes, so auto_gc reclaims segments
// throughout every timed run.
//
// Why these sizes: a kLogFull GC pass relocates every sealed segment
// holding any dead record — the whole live log — on the reactor thread
// that hit it, so a pass grows with the log and the live bytes. At 100k
// keys that was a ~1 s stall every ~4 s, and throughput swung 2x between
// seeds. At 25k keys and a 4x log one slice in three held a pass and the
// median over slices flipped between the slow and the fast ones; with a
// 2x log, per-slice throughput still ranged 30..70 kops and some runs
// settled into a mode 25% slower with a p99 near 1.5 ms. At 10k keys and
// a 2x log the passes are short and frequent, every slice pays a like
// share, and runs of four seeds agreed within 4%. The cost: at 10k keys
// the hot table serves nearly every lookup (hdnh.hot_hit_ratio ~0.99, 0.78
// at 25k), so this workload does not cover a store larger than its cache.
#include <thread>

#include "api/factory.h"
#include "load.h"
#include "net/repl.h"
#include "net/server.h"
#include "nvm/alloc.h"
#include "nvm/pmem.h"
#include "vkv/vkv_store.h"

namespace perfbench {
namespace {

using hdnh::nvm::NvmConfig;
using hdnh::nvm::PmemAllocator;
using hdnh::nvm::PmemPool;

constexpr uint64_t kKeys = 10000;
constexpr size_t kValueLen = 1024;
constexpr const char* kScheme = "vkv@4";
constexpr uint32_t kReactors = 2;
constexpr uint32_t kDepth = 8;  // requests per batch per connection
constexpr int kSetups = 7;
constexpr uint64_t kRecordHeader = 10;  // LogStore record header bytes
constexpr uint64_t kReplicaSamples = 1000;
constexpr uint64_t kLogFactor = 2;  // value-log capacity / live bytes

NvmConfig aep() {
  NvmConfig c;
  c.emulate_latency = true;
  return c;
}

StreamSpec spec() {
  StreamSpec s;
  s.keys = kKeys;
  s.set_frac = 0.5;
  s.zipf = false;
  return s;
}

uint64_t live_bytes() { return kKeys * (kRecordHeader + kKeyLen + kValueLen); }

struct Node {
  std::unique_ptr<PmemPool> pool;
  std::unique_ptr<PmemAllocator> alloc;
  std::unique_ptr<hdnh::KvStore> store;
};

std::unique_ptr<Node> make_node() {
  auto n = std::make_unique<Node>();
  hdnh::TableOptions topts;
  topts.capacity = kKeys;
  topts.log_bytes = kLogFactor * live_bytes();
  // The factory's hint sizes the log for 2x live bytes.
  n->pool = std::make_unique<PmemPool>(
      hdnh::kv_pool_bytes_hint(kScheme, kKeys, kValueLen) + (kLogFactor - 2) * live_bytes(),
      aep());
  n->alloc = std::make_unique<PmemAllocator>(*n->pool);
  n->store = hdnh::create_kv_store(kScheme, *n->alloc, topts);
  return n;
}

// Primary (+ replica) serving over loopback. Members are destroyed in
// reverse: the replica session stops first, then the server, then the
// log, then the stores.
struct Env {
  std::unique_ptr<Node> primary, replica;
  std::unique_ptr<trace::ReqIds> server_ids, client_ids;
  std::unique_ptr<trace::TimedKv> primary_kv, replica_kv;
  std::unique_ptr<hdnh::net::ReplLog> log;
  std::unique_ptr<ReactorProbe> probe;
  std::unique_ptr<hdnh::net::Server> server;
  std::unique_ptr<hdnh::net::ReplicaSession> session;
  std::vector<hdnh::net::Client> conns;  // one per driver thread
};

bool wait_for(uint64_t timeout_ms, const std::function<bool()>& done) {
  const uint64_t end = now_ns() + timeout_ms * 1000000ull;
  while (!done()) {
    if (now_ns() > end) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// The replica has applied everything the primary logged.
bool caught_up(const Env& e) {
  return e.session->applied_seq() >= e.log->last_seq();
}

std::unique_ptr<Env> build_env(const Options& o, bool with_replica, bool traced,
                               PhaseCounters* pc) {
  auto e = std::make_unique<Env>();
  e->primary = make_node();
  hdnh::KvStore* served = e->primary->store.get();
  if (traced) {
    e->server_ids = std::make_unique<trace::ReqIds>(kKeys);
    e->client_ids = std::make_unique<trace::ReqIds>(kKeys);
    e->primary_kv = std::make_unique<trace::TimedKv>(*served, e->server_ids.get(),
                                                     trace::kRoleServer);
    e->primary_kv->set_enabled(false);
    e->primary_kv->set_counting(false);  // the preload is not traced
    served = e->primary_kv.get();
  }
  e->log = std::make_unique<hdnh::net::ReplLog>();
  e->log->start();
  hdnh::net::ServerOptions sopts;
  sopts.port = 0;
  sopts.threads = kReactors;
  e->probe = std::make_unique<ReactorProbe>(*served);
  e->server = std::make_unique<hdnh::net::Server>(*e->probe, sopts);
  e->server->set_repl_log(e->log.get());
  e->server->start();
  if (with_replica) {
    e->replica = make_node();
    hdnh::KvStore* applied = e->replica->store.get();
    if (traced) {
      // Counts the replica applier's own NVM traffic so it can be taken
      // out of the process-wide nvm::Stats.
      e->replica_kv = std::make_unique<trace::TimedKv>(*applied, nullptr,
                                                       trace::kRoleReplica);
      applied = e->replica_kv.get();
    }
    hdnh::net::ReplicaOptions ropts;
    ropts.port = e->server->port();
    e->session = std::make_unique<hdnh::net::ReplicaSession>(*applied, ropts);
    e->session->start();
    if (!wait_for(10000, [&] { return e->log->sink_count() == 1; })) {
      pc->fail("replica did not attach within 10 s");
    }
  }
  e->conns = connect_spread(e->server->port(), o.threads, *e->probe);
  preload_net(e->conns, kKeys, kValueLen, pc);
  if (with_replica && !wait_for(60000, [&] { return caught_up(*e); })) {
    pc->fail("replica did not catch up with the preload within 60 s");
  }
  return e;
}

// The replica reached the primary's last seq, has the same DBSIZE, no
// apply errors, and the same (oracle-correct) value on sampled keys.
void check_replica(Env& e, const Oracle& oracle, uint64_t seed, Result* r) {
  PhaseCounters pc;
  pc.attempted += 3;
  if (!caught_up(e)) {
    pc.fail("replica applied seq " + std::to_string(e.session->applied_seq()) +
            " < primary last_seq " + std::to_string(e.log->last_seq()));
  }
  if (e.session->apply_errors() != 0) {
    pc.fail("replica apply_errors=" + std::to_string(e.session->apply_errors()));
  }
  if (e.primary->store->size() != e.replica->store->size()) {
    pc.fail("DBSIZE primary " + std::to_string(e.primary->store->size()) +
            " != replica " + std::to_string(e.replica->store->size()));
  }
  std::string pv, rv;
  const uint64_t offset = seed % (kKeys / kReplicaSamples);
  for (uint64_t i = 0; i < kReplicaSamples; ++i) {
    const uint32_t k = static_cast<uint32_t>(i * (kKeys / kReplicaSamples) + offset);
    const std::string key = key_str(k);
    ++pc.attempted;
    uint32_t ver = 0;
    const bool ok = e.primary->store->get(key, &pv).ok() &&
                    e.replica->store->get(key, &rv).ok() && pv == rv &&
                    check_value(rv, k, kValueLen, &ver) && ver == oracle.acked[k];
    if (!ok) pc.fail("replica value of " + key + " differs from the primary's acked version");
  }
  r->absorb(pc);
}

void verify_primary(Env& e, const Oracle& oracle, uint32_t threads, Result* r) {
  std::vector<std::string> notes;
  PhaseCounters pc;
  pc.attempted = kKeys;
  pc.failed = verify_store(*e.primary->store, oracle, kValueLen, threads, &notes);
  pc.notes = notes;
  r->absorb(pc);
}

// One load thread drives both connections, so the busy threads — load
// thread, replica applier, two reactors — number no more than the CPUs.
template <typename Hook>
PhaseOut run_load(Env& e, const LoadCtx& ctx, int slices,
                  RespCapture* capture, Hook&& at) {
  return run_phase(
      1, 1.0, slices,
      [&](uint32_t, SliceRecorder& rec, PhaseCounters& pc) {
        net_body(ctx, e.conns, 0, static_cast<uint32_t>(e.conns.size()), kDepth,
                 rec, pc, capture);
      },
      at);
}

double log_utilization(hdnh::KvStore& s) {
  auto* v = dynamic_cast<hdnh::vkv::VkvStore*>(&s);
  return v ? v->log_utilization() : 0.0;
}

}  // namespace

void run_net_write_1k(const Options& o, Result* r) {
  std::vector<std::vector<Op>> streams;
  for (uint32_t t = 0; t < o.threads; ++t) streams.push_back(make_stream(spec(), o.seed, t));

  if (!o.trace) {
    std::unique_ptr<Env> e;
    std::vector<double> secs;
    for (int i = 0; i < kSetups; ++i) {
      e.reset();
      PhaseCounters pc;
      const uint64_t t0 = now_ns();
      e = build_env(o, true, false, &pc);
      secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      r->absorb(pc);
    }
    Oracle oracle(kKeys);
    LoadCtx ctx{&streams, &oracle, kValueLen, false, nullptr};
    const PhaseOut ph = run_load(*e, ctx, slice_count(o.seconds), nullptr, [](int) {});
    r->absorb(ph.counters);
    wait_for(60000, [&] { return caught_up(*e); });
    // Peak RSS includes both DRAM-backed emulated pools (primary and
    // replica) and the replication ring.
    put_e2e(ph, median(secs),
            static_cast<double>(e->primary->alloc->used()) /
                static_cast<double>(kKeys * (kKeyLen + kValueLen)),
            r);
    check_replica(*e, oracle, o.seed, r);
    verify_primary(*e, oracle, o.threads, r);
    return;
  }

  // Traced: paired untraced/traced slices against a primary served
  // through TimedKv, with the replica applying through its own TimedKv.
  PhaseCounters pc;
  std::unique_ptr<Env> e = build_env(o, true, true, &pc);
  r->absorb(pc);
  Oracle oracle(kKeys);
  LoadCtx ctx{&streams, &oracle, kValueLen, true, e->client_ids.get()};
  RespCapture capture;
  capture.limit = 4000;
  // NVM counters are taken between quiescent points (put_counter_metrics);
  // here the end point waits for the replica to catch up too, since its
  // apply calls (a GC pass among them) run on after the clients stop.
  e->primary_kv->set_counting(true);
  hdnh::nvm::ScopedStatsDelta scope;
  const trace::NvmCounts r0 = e->replica_kv->nvm();
  trace::NvmCounts p0, p1;
  Snap c0, c1;
  std::atomic<bool> monitoring{true};
  uint64_t lag_max = 0;
  std::thread monitor([&] {
    while (monitoring.load()) {
      const uint64_t last = e->log->last_seq(), applied = e->session->applied_seq();
      if (last > applied) lag_max = std::max(lag_max, last - applied);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  double log_util = 0;
  uint64_t t_end = 0;
  const int slices = traced_slices(o.seconds);
  const PhaseOut ph = run_load(*e, ctx, slices, &capture, [&](int i) {
    if (i == 0) {
      p0 = e->primary_kv->nvm();
      c0 = Snap::take();
    }
    if (i == slices) {
      t_end = now_ns();
      p1 = e->primary_kv->nvm();
      c1 = Snap::take();
      log_util = log_utilization(*e->primary->store);
    }
    toggle_tracing(i, slices, o.seed, e->primary_kv.get());
  });
  const bool synced = wait_for(60000, [&] { return caught_up(*e); });
  // From the end of the timed interval: the clients' in-flight drain plus
  // the replica's apply backlog.
  const double catchup_ms = static_cast<double>(now_ns() - t_end) / 1e6;
  monitoring.store(false);
  monitor.join();
  hdnh::nvm::StatsSnapshot delta = scope.delta();
  const trace::NvmCounts r1 = e->replica_kv->nvm();
  r->absorb(ph.counters);
  const auto lat = e->server->latency_snapshot();
  e->server->stop();
  if (!synced) r->fail("replica did not catch up within 60 s of the traced run");
  check_replica(*e, oracle, o.seed, r);
  verify_primary(*e, oracle, o.threads, r);

  // The in-process replica's NVM traffic is the replica decorator's delta;
  // the primary's is the process-wide delta minus it.
  const trace::NvmCounts replica_share = r1 - r0;
  subtract(&delta, replica_share);
  put_counter_metrics(delta, aep(), ph, r);
  r->info.push_back("replica nvm (excluded from nvm.*): write_lines=" +
                    std::to_string(replica_share.write_lines) +
                    " fences=" + std::to_string(replica_share.fences) +
                    " read_blocks=" + std::to_string(replica_share.read_blocks));
  r->put("hdnh.load_factor", e->primary->store->load_factor());

  const std::vector<trace::Span> spans = trace::collect();
  const trace::Breakdown b = trace::analyze(spans);
  trace::dump_chrome(spans,
                     o.out_dir + "/trace-" + o.workload + "-seed" +
                         std::to_string(o.seed) + ".json",
                     2000);
  r->put("kv.get_p50_ns", b.kv[trace::kGet].percentile(0.5));
  r->put("kv.get_p99_ns", b.kv[trace::kGet].percentile(0.99));
  r->put("kv.put_p50_ns", b.kv[trace::kSet].percentile(0.5));
  r->put("kv.put_p99_ns", b.kv[trace::kSet].percentile(0.99));
  const trace::NvmCounts puts = p1 - p0;
  r->put("vkv.log_bytes_per_put_byte",
         puts.put_user_bytes ? static_cast<double>(puts.put_write_lines * 64) /
                                   static_cast<double>(puts.put_user_bytes)
                             : 0.0);
  r->put("vkv.log_utilization", log_util);
  LatHist self = b.outer_self[0];
  self.merge(b.outer_self[1]);
  r->put("server.self_p50_us", self.percentile(0.5) / 1e3);
  r->put("server.self_p99_us", self.percentile(0.99) / 1e3);
  r->put("server.exec_p50_us",
         static_cast<double>(lat[static_cast<size_t>(hdnh::net::Cmd::kGet)].percentile(0.5)) / 1e3);
  const double driver_ns = driver_ns_per_op(spec(), o.seed, kValueLen);
  r->put("driver.gen_ns_per_op", driver_ns);
  put_cpu(ph, c0, c1, driver_ns, r);
  double parse_ns, encode_ns;
  time_resp(capture, &parse_ns, &encode_ns);
  r->put("resp.parse_ns_per_cmd", parse_ns);
  r->put("resp.encode_ns_per_reply", encode_ns);
  r->put("repl.lag_max_entries", static_cast<double>(lag_max));
  r->put("repl.catchup_ms", catchup_ms);
  put_overhead(ph, o.seed, r);
  r->info.push_back("traced requests: get=" + std::to_string(b.requests[0]) +
                    " set=" + std::to_string(b.requests[1]) +
                    " unpaired=" + std::to_string(b.unpaired) + " (1 in " +
                    std::to_string(trace::kSampleEvery) + " sampled)");
  const double with_replica_set_p50 = median_of_slices(ph.stats.slice_set_p50_us, false, o.seed);
  const double kv_put_p50 = b.kv[trace::kSet].percentile(0.5);
  const double client_set_p50 = b.outer[trace::kSet].percentile(0.5);
  e.reset();

  // The same stream against a primary with no replica attached: the SET
  // p50 difference against the untraced slices above is what shipping to
  // the replica costs.
  PhaseCounters pc2;
  std::unique_ptr<Env> solo = build_env(o, false, false, &pc2);
  r->absorb(pc2);
  Oracle oracle2(kKeys);
  LoadCtx ctx2{&streams, &oracle2, kValueLen, false, nullptr};
  const PhaseOut alone =
      run_load(*solo, ctx2, std::max(2, o.seconds / 2), nullptr, [](int) {});
  r->absorb(alone.counters);
  solo->server->stop();
  verify_primary(*solo, oracle2, o.threads, r);
  const double ship_us = with_replica_set_p50 - alone.stats.set_p50_us;
  r->put("repl.ship_set_p50_delta_us", ship_us);
  // Share of a SET's client-side p50 spent in the store's put plus the
  // replication ship.
  r->put("trace.write_path_share",
         client_set_p50 > 0 ? (kv_put_p50 + std::max(0.0, ship_us * 1e3)) / client_set_p50
                            : 0.0);
  r->info.push_back("set p50 us: with replica " + std::to_string(with_replica_set_p50) +
                    ", without " + std::to_string(alone.stats.set_p50_us));
}

}  // namespace perfbench
