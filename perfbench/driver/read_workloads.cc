// kv-zipf-read and net-zipf-read: one op stream (YCSB-B over 1M fixed
// records, scrambled zipf 0.99), run once against the embedded KvStore and
// once through an in-process net::Server over loopback TCP.
#include <thread>

#include "api/factory.h"
#include "hdnh/hdnh.h"
#include "load.h"
#include "net/server.h"
#include "nvm/alloc.h"
#include "nvm/pmem.h"
#include "store/sharded_table.h"

namespace perfbench {
namespace {

using hdnh::nvm::NvmConfig;
using hdnh::nvm::PmemAllocator;
using hdnh::nvm::PmemPool;

constexpr uint64_t kKeys = 1000000;
constexpr size_t kValueLen = 14;  // the fixed record's wire maximum
constexpr const char* kScheme = "hdnh@4";
constexpr uint32_t kReactors = 2;
constexpr uint32_t kDepth = 64;  // requests per batch per connection
constexpr int kSetups = 3;

NvmConfig aep() {
  NvmConfig c;
  c.emulate_latency = true;
  return c;
}

StreamSpec spec() {
  StreamSpec s;
  s.keys = kKeys;
  s.set_frac = 0.05;
  s.zipf = true;
  s.theta = 0.99;
  return s;
}

// The store under test: hdnh@4 behind FixedTableKv, preloaded. Members
// are destroyed bottom-up (kv, table, allocator, pool).
struct ReadStore {
  std::unique_ptr<PmemPool> pool;
  std::unique_ptr<PmemAllocator> alloc;
  std::unique_ptr<hdnh::HashTable> table;
  std::unique_ptr<hdnh::FixedTableKv> kv;
};

std::unique_ptr<ReadStore> build_store(uint32_t threads, PhaseCounters* pc) {
  auto s = std::make_unique<ReadStore>();
  hdnh::TableOptions topts;
  topts.capacity = kKeys;
  s->pool = std::make_unique<PmemPool>(
      hdnh::kv_pool_bytes_hint(kScheme, kKeys + kKeys / 2, kValueLen), aep());
  s->alloc = std::make_unique<PmemAllocator>(*s->pool);
  s->table = hdnh::create_table(kScheme, *s->alloc, topts);
  s->kv = std::make_unique<hdnh::FixedTableKv>(*s->table);
  preload_kv(*s->kv, kKeys, kValueLen, threads, pc);
  return s;
}

hdnh::net::ServerOptions server_opts() {
  hdnh::net::ServerOptions o;
  o.port = 0;
  o.threads = kReactors;
  return o;
}

// Builds the store (and server, for the net workload) kSetups times and
// reports the median build time; the last build is kept.
struct Setup {
  std::unique_ptr<ReadStore> store;
  std::unique_ptr<ReactorProbe> probe;
  std::unique_ptr<hdnh::net::Server> server;
  double setup_s = 0;
};
Setup setup_repeated(const Options& o, bool with_server, int times, Result* r) {
  Setup s;
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    s.server.reset();
    s.probe.reset();
    s.store.reset();
    PhaseCounters pc;
    const uint64_t t0 = now_ns();
    s.store = build_store(o.threads, &pc);
    if (with_server) {
      s.probe = std::make_unique<ReactorProbe>(*s.store->kv);
      s.server = std::make_unique<hdnh::net::Server>(*s.probe, server_opts());
      s.server->start();
    }
    secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    r->absorb(pc);
  }
  s.setup_s = median(secs);
  return s;
}

// ---- stack replay: the same stream through one layer at a time ----

// One pass of `exec(op, &ns)` over ops [begin, begin + n) of every stream,
// one thread per stream. exec times only its call into the layer, so key
// and value formatting stay out of the figures; latencies go to get/set
// when non-null.
template <typename Exec>
void pass(const std::vector<std::vector<Op>>& streams, size_t begin, size_t n,
          Exec& exec, LatHist* get, LatHist* set, PhaseCounters* pc) {
  const uint32_t threads = static_cast<uint32_t>(streams.size());
  std::vector<LatHist> g(get ? threads : 0), s(get ? threads : 0);
  std::vector<PhaseCounters> c(threads);
  std::vector<std::thread> ws;
  for (uint32_t t = 0; t < threads; ++t) {
    ws.emplace_back([&, t] {
      for (size_t i = begin; i < begin + n; ++i) {
        const Op op = streams[t][i % streams[t].size()];
        uint64_t d = 0;
        const bool ok = exec(op, &d);
        ++c[t].attempted;
        if (!ok) c[t].fail("replay op on " + key_str(op.key) + " failed");
        if (get) (op.set ? s[t] : g[t]).record(d);
      }
    });
  }
  for (auto& w : ws) w.join();
  for (uint32_t t = 0; t < threads; ++t) {
    if (get) {
      get->merge(g[t]);
      set->merge(s[t]);
    }
    pc->attempted += c[t].attempted;
    pc->failed += c[t].failed;
    for (auto& note : c[t].notes) pc->notes.push_back(note);
  }
}

// Replays the stream through an unsharded Hdnh of the same total capacity,
// the sharded table via HashTable, and FixedTableKv over it. Rounds
// interleave the three layers (alternating their order) on the same ops;
// each figure is the median over rounds, and a layer's self time is the
// median of its per-round p50 minus the p50 of the layer below it.
void stack_replay(const Options& o, const std::vector<std::vector<Op>>& streams,
                  ReadStore& st, Oracle& oracle, Result* r) {
  constexpr size_t kOps = 100000;  // per thread, layer and round
  constexpr int kRounds = 5;
  PhaseCounters pc;
  hdnh::HdnhConfig cfg;
  cfg.initial_capacity = kKeys;
  PmemPool pool(hdnh::Hdnh::pool_bytes_hint(kKeys + kKeys / 2, cfg), aep());
  PmemAllocator alloc(pool);
  hdnh::Hdnh h(alloc, cfg);
  {
    std::vector<std::thread> ws;
    for (uint32_t t = 0; t < o.threads; ++t) {
      ws.emplace_back([&, t] {
        hdnh::Key k;
        hdnh::Value v;
        std::string val;
        for (uint64_t id = t; id < kKeys; id += o.threads) {
          format_value(static_cast<uint32_t>(id), 1, kValueLen, &val);
          hdnh::encode_key(key_str(static_cast<uint32_t>(id)), &k);
          hdnh::encode_value(val, &v);
          if (!h.insert_s(k, v).ok()) return;
        }
      });
    }
    for (auto& w : ws) w.join();
  }
  // Times one call into the layer.
  auto timed = [](uint64_t* ns, auto&& call) {
    const uint64_t t0 = now_ns();
    const bool ok = call();
    *ns = now_ns() - t0;
    return ok;
  };
  auto unsharded = [&](const Op& op, uint64_t* ns) {
    hdnh::Key k;
    hdnh::Value v;
    hdnh::encode_key(key_str(op.key), &k);
    std::string val;
    if (op.set) {
      format_value(op.key, 1, kValueLen, &val);
      hdnh::encode_value(val, &v);
      return timed(ns, [&] { return h.put_s(k, v).ok(); });
    }
    uint32_t ver;
    return timed(ns, [&] { return h.search_s(k, &v).ok(); }) &&
           check_value(hdnh::decode_value(v), op.key, kValueLen, &ver);
  };
  // SETs on the main store keep the oracle's versions in step.
  auto next_version = [&](uint32_t key) {
    const uint32_t ver = oracle.issued[key].load(std::memory_order_relaxed) + 1;
    oracle.issued[key].store(ver, std::memory_order_release);
    return ver;
  };
  auto sharded = [&](const Op& op, uint64_t* ns) {
    hdnh::Key k;
    hdnh::Value v;
    hdnh::encode_key(key_str(op.key), &k);
    std::string val, why;
    if (op.set) {
      const uint32_t ver = next_version(op.key);
      format_value(op.key, ver, kValueLen, &val);
      hdnh::encode_value(val, &v);
      const bool ok = timed(ns, [&] { return st.table->put_s(k, v).ok(); });
      if (ok) oracle.acked[op.key] = ver;
      return ok;
    }
    return timed(ns, [&] { return st.table->search_s(k, &v).ok(); }) &&
           get_ok(oracle, op.key, hdnh::decode_value(v), kValueLen, 0, &why);
  };
  auto fixed_kv = [&](const Op& op, uint64_t* ns) {
    const std::string key = key_str(op.key);
    std::string val, why;
    if (op.set) {
      const uint32_t ver = next_version(op.key);
      format_value(op.key, ver, kValueLen, &val);
      const bool ok = timed(ns, [&] { return st.kv->put(key, val).ok(); });
      if (ok) oracle.acked[op.key] = ver;
      return ok;
    }
    return timed(ns, [&] { return st.kv->get(key, &val).ok(); }) &&
           get_ok(oracle, op.key, val, kValueLen, 0, &why);
  };
  // Warm pass: fills each table's hot set as the main run did.
  pass(streams, 0, kOps, unsharded, nullptr, nullptr, &pc);
  std::vector<double> hget, hput, route, codec;
  for (int round = 0; round < kRounds; ++round) {
    const size_t begin = static_cast<size_t>(round) * kOps;
    LatHist hg, hs, sg, ss, kg, ks;
    if (round % 2 == 0) {
      pass(streams, begin, kOps, unsharded, &hg, &hs, &pc);
      pass(streams, begin, kOps, sharded, &sg, &ss, &pc);
      pass(streams, begin, kOps, fixed_kv, &kg, &ks, &pc);
    } else {
      pass(streams, begin, kOps, fixed_kv, &kg, &ks, &pc);
      pass(streams, begin, kOps, sharded, &sg, &ss, &pc);
      pass(streams, begin, kOps, unsharded, &hg, &hs, &pc);
    }
    hget.push_back(hg.percentile(0.5));
    hput.push_back(hs.percentile(0.5));
    route.push_back(sg.percentile(0.5) - hg.percentile(0.5));
    codec.push_back(kg.percentile(0.5) - sg.percentile(0.5));
  }
  r->absorb(pc);
  r->put("hdnh.get_p50_ns", median(hget));
  r->put("hdnh.put_p50_ns", median(hput));
  r->put("store.route_self_ns", median(route));
  r->put("kv.self_get_ns", median(codec));
}

// Max over mean of the per-shard op counts of the streams.
double shard_skew(hdnh::HashTable& table,
                  const std::vector<std::vector<Op>>& streams) {
  auto* sharded = dynamic_cast<hdnh::store::ShardedTable*>(&table);
  if (!sharded) return 1.0;
  std::vector<uint64_t> per(64, 0);
  uint64_t total = 0;
  uint32_t shards = 0;
  for (const auto& s : streams) {
    for (const Op& op : s) {
      hdnh::Key k;
      hdnh::encode_key(key_str(op.key), &k);
      const uint32_t sh = sharded->route(k).shard;
      ++per[sh % 64];
      shards = std::max(shards, sh + 1);
      ++total;
    }
  }
  const uint64_t mx = *std::max_element(per.begin(), per.end());
  return static_cast<double>(mx) /
         (static_cast<double>(total) / static_cast<double>(shards ? shards : 1));
}

std::vector<std::vector<Op>> make_streams(const Options& o) {
  std::vector<std::vector<Op>> s;
  for (uint32_t t = 0; t < o.threads; ++t) s.push_back(make_stream(spec(), o.seed, t));
  return s;
}

double nvm_ratio(const ReadStore& st) {
  return static_cast<double>(st.alloc->used()) /
         static_cast<double>(kKeys * (kKeyLen + kValueLen));
}

void finish(ReadStore& st, Oracle& oracle, uint32_t threads, Result* r) {
  std::vector<std::string> notes;
  const uint64_t bad = verify_store(*st.kv, oracle, kValueLen, threads, &notes);
  PhaseCounters pc;
  pc.attempted = kKeys;
  pc.failed = bad;
  pc.notes = notes;
  r->absorb(pc);
}

// Per-layer figures both read workloads share: spans, counters, replay.
// `ph` is the traced phase: one slice of each pair traced (traced_slice).
void put_read_layers(const Options& o, const PhaseOut& ph,
                     const hdnh::nvm::StatsSnapshot& delta,
                     const std::vector<std::vector<Op>>& streams, ReadStore& st,
                     Oracle& oracle, bool net, Result* r) {
  const std::vector<trace::Span> spans = trace::collect();
  const trace::Breakdown b = trace::analyze(spans);
  trace::dump_chrome(spans,
                     o.out_dir + "/trace-" + o.workload + "-seed" +
                         std::to_string(o.seed) + ".json",
                     2000);
  put_counter_metrics(delta, aep(), ph, r);
  r->put("hdnh.load_factor", st.table->load_factor());
  r->put("store.get_p50_ns", b.table[trace::kGet].percentile(0.5));
  // A SET's table span is the upsert's insert attempt plus its update.
  r->put("store.put_p50_ns", b.table[trace::kSet].percentile(0.5));
  r->put("store.shard_skew", shard_skew(*st.table, streams));
  r->put("kv.get_p50_ns", b.kv[trace::kGet].percentile(0.5));
  r->put("kv.get_p99_ns", b.kv[trace::kGet].percentile(0.99));
  r->put("kv.put_p50_ns", b.kv[trace::kSet].percentile(0.5));
  r->put("kv.put_p99_ns", b.kv[trace::kSet].percentile(0.99));
  const double outer = b.outer_sum[0] + b.outer_sum[1];
  const double kv = b.kv_sum[0] + b.kv_sum[1];
  const double table = b.table_sum[0] + b.table_sum[1];
  r->put("trace.index_share", outer > 0 ? table / outer : 0.0);
  if (net) {
    LatHist self = b.outer_self[0];
    self.merge(b.outer_self[1]);
    r->put("server.self_p50_us", self.percentile(0.5) / 1e3);
    r->put("server.self_p99_us", self.percentile(0.99) / 1e3);
    r->put("trace.net_share", outer > 0 ? (outer - kv) / outer : 0.0);
  }
  put_overhead(ph, o.seed, r);
  r->info.push_back("traced requests: get=" + std::to_string(b.requests[0]) +
                    " set=" + std::to_string(b.requests[1]) +
                    " unpaired=" + std::to_string(b.unpaired) + " (1 in " +
                    std::to_string(trace::kSampleEvery) + " sampled)");
  stack_replay(o, streams, st, oracle, r);
}

}  // namespace

double driver_cost(const Options& o, Result* r) {
  const double ns = driver_ns_per_op(spec(), o.seed, kValueLen);
  r->put("driver.gen_ns_per_op", ns);
  return ns;
}

void run_kv_zipf_read(const Options& o, Result* r) {
  const auto streams = make_streams(o);
  Oracle oracle(kKeys);
  Setup s = setup_repeated(o, false, o.trace ? 1 : kSetups, r);
  ReadStore& st = *s.store;
  LoadCtx ctx{&streams, &oracle, kValueLen, o.trace, nullptr};
  if (!o.trace) {
    const PhaseOut ph = run_phase(
        o.threads, 1.0, slice_count(o.seconds),
        [&](uint32_t t, SliceRecorder& rec, PhaseCounters& pc) {
          kv_body(ctx, *st.kv, t, rec, pc);
        },
        [](int) {});
    r->absorb(ph.counters);
    put_e2e(ph, s.setup_s, nvm_ratio(st), r);
    finish(st, oracle, o.threads, r);
    return;
  }
  // Traced: the driver calls TimedKv -> FixedTableKv -> TimedTable ->
  // ShardedTable; spans are kept in the traced slices only.
  trace::TimedTable ttable(*st.table);
  hdnh::FixedTableKv tfixed(ttable);
  trace::TimedKv tkv(tfixed, nullptr, trace::kRoleCount);
  const int slices = traced_slices(o.seconds);
  const hdnh::nvm::ScopedStatsDelta scope;
  const PhaseOut ph = run_phase(
      o.threads, 1.0, slices,
      [&](uint32_t t, SliceRecorder& rec, PhaseCounters& pc) {
        kv_body(ctx, tkv, t, rec, pc);
      },
      [&](int i) { toggle_tracing(i, slices, o.seed, &tkv); });
  const hdnh::nvm::StatsSnapshot delta = scope.delta();
  r->absorb(ph.counters);
  driver_cost(o, r);
  put_read_layers(o, ph, delta, streams, st, oracle, false, r);
  finish(st, oracle, o.threads, r);
}

void run_net_zipf_read(const Options& o, Result* r) {
  const auto streams = make_streams(o);
  Oracle oracle(kKeys);
  if (!o.trace) {
    Setup s = setup_repeated(o, true, kSetups, r);
    LoadCtx ctx{&streams, &oracle, kValueLen, false, nullptr};
    auto conns = connect_spread(s.server->port(), o.threads, *s.probe);
    const PhaseOut ph = run_phase(
        o.threads, 1.0, slice_count(o.seconds),
        [&](uint32_t t, SliceRecorder& rec, PhaseCounters& pc) {
          net_body(ctx, conns, t, 1, kDepth, rec, pc, nullptr);
        },
        [](int) {});
    s.server->stop();
    r->absorb(ph.counters);
    put_e2e(ph, s.setup_s, nvm_ratio(*s.store), r);
    finish(*s.store, oracle, o.threads, r);
    return;
  }
  // Traced: the server executes against the decorated chain
  // TimedKv -> FixedTableKv -> TimedTable -> ShardedTable.
  Setup s = setup_repeated(o, false, 1, r);
  ReadStore& st = *s.store;
  trace::TimedTable ttable(*st.table);
  hdnh::FixedTableKv tfixed(ttable);
  trace::ReqIds server_ids(kKeys), client_ids(kKeys);
  trace::TimedKv tkv(tfixed, &server_ids, trace::kRoleServer);
  tkv.set_enabled(false);
  ReactorProbe probe(tkv);
  hdnh::net::Server server(probe, server_opts());
  server.start();
  auto conns = connect_spread(server.port(), o.threads, probe);
  LoadCtx ctx{&streams, &oracle, kValueLen, true, &client_ids};
  RespCapture capture;
  Snap c0, c1;
  const int slices = traced_slices(o.seconds);
  const hdnh::nvm::ScopedStatsDelta scope;
  const PhaseOut ph = run_phase(
      o.threads, 1.0, slices,
      [&](uint32_t t, SliceRecorder& rec, PhaseCounters& pc) {
        net_body(ctx, conns, t, 1, kDepth, rec, pc, &capture);
      },
      [&](int i) {
        if (i == 0) c0 = Snap::take();
        if (i == slices) c1 = Snap::take();
        toggle_tracing(i, slices, o.seed, &tkv);
      });
  const hdnh::nvm::StatsSnapshot delta = scope.delta();
  r->absorb(ph.counters);
  const auto lat = server.latency_snapshot();
  server.stop();
  put_cpu(ph, c0, c1, driver_cost(o, r), r);
  r->put("server.exec_p50_us",
         static_cast<double>(lat[static_cast<size_t>(hdnh::net::Cmd::kGet)].percentile(0.5)) / 1e3);
  double parse_ns, encode_ns;
  time_resp(capture, &parse_ns, &encode_ns);
  r->put("resp.parse_ns_per_cmd", parse_ns);
  r->put("resp.encode_ns_per_reply", encode_ns);
  put_read_layers(o, ph, delta, streams, st, oracle, true, r);
  finish(st, oracle, o.threads, r);
}

}  // namespace perfbench
