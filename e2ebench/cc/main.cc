// e2ebench: the repository's end-to-end serving benchmark.
//
//   e2ebench --workload search-distinct|search-hot --seed N --seconds S
//            --trace 0|1 --work-dir DIR [--commit SHA]
//   e2ebench --self-test
//
// Drives the production serving path — SearchService behind the epoll
// HttpServer, cpu engine, caches and scheduler at service defaults — over
// loopback from one generator thread with at most 4 keep-alive
// connections. Every query, update and Zipf draw is built from --seed
// before the first timed request. The measured time is cut into rounds,
// and each latency or throughput figure is the best quartile of its
// per-round values. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Any output mismatch prints
// correct=false and exits 1. See e2ebench/DESIGN.md.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_math.h"
#include "common/json.h"
#include "core/kernel/kernel.h"
#include "gen/workload.h"
#include "kb_server.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "server/search_service.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
int RunSelfTest();
}  // namespace e2ebench

namespace {

using namespace wikisearch;
using namespace e2ebench;

// ---------------------------------------------------------------------------
// Fixed design constants (recorded in DESIGN.md; changing one changes the
// benchmark).

constexpr int kConns = 4;                // generator connections
constexpr double kClientTimeoutS = 10.0;
constexpr int kSetupReps = 5;            // setup_s is their median
constexpr int kRecoverReps = 9;          // recover_s: their best quartile
constexpr size_t kWriteBatches = 48;     // closed-loop batches, write cycle
constexpr size_t kWalTail = 8;           // acked batches left unfolded
constexpr size_t kCompactProbe = 4;      // batches folded by the timed fold
constexpr size_t kUpdateTriples = 4;     // adds per update batch
constexpr size_t kCompactEvery = 4;      // ?compact=1 on every 4th batch
constexpr size_t kProbeQueries = 12;     // recovery probe queries
constexpr int kTopK = 20;
// Distinct queries drawn per run, at most. Handing them out wraps around,
// so a query recurs only after kQueryPool others, far past the 256-entry
// response and context caches: every search still misses both.
constexpr size_t kQueryPool = 16000;

// A round is a serial leg (searches sent one at a time on one connection:
// lone-query latency, each search granted the whole thread budget) then a
// load leg (closed loop on kConns connections: throughput, one thread per
// search). Latency figures come from the serial leg when there is one.
struct WorkloadSpec {
  const char* name;
  Dataset dataset;
  bool hot;           // Zipf draws over 64 cached queries, not distinct ones
  size_t serial_leg;  // searches per round on one connection (0: no leg)
  size_t load_leg;    // searches per round, closed loop on kConns
};

const WorkloadSpec kSpecs[] = {
    // 0.5-1.3 s rounds: 100 lone queries (p50 and a p90 tail per round,
    // Knum 2,4,6,8,10 twenty times each) and 100 under load.
    {"search-distinct", Dataset::kLarge, false, 100, 100},
    // ~20 ms rounds of 1000 cache hits: p50, p99 and throughput per round.
    {"search-hot", Dataset::kSmall, true, 0, 1000},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string commit = "unknown";
  bool self_test = false;
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "e2ebench: %s\n", why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto v = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = v();
    } else if (k == "--seed") {
      a.seed = std::strtoull(v().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v().c_str());
    } else if (k == "--trace") {
      a.trace = v() == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v();
    } else if (k == "--commit") {
      a.commit = v();
    } else if (k == "--self-test") {
      a.self_test = true;
    } else {
      Die("unknown flag " + k);
    }
  }
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// Small helpers.

std::string UrlEncode(const std::string& s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.') {
      out += static_cast<char>(c);
    } else if (c == ' ') {
      out += '+';
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

std::string SearchTarget(const std::string& q) {
  return "/search?q=" + UrlEncode(q) + "&k=" + std::to_string(kTopK);
}

/// The "answers" array of a /search body (its last key); empty if absent.
std::string_view AnswersOf(std::string_view body) {
  size_t p = body.find(",\"answers\":");
  return p == std::string_view::npos ? std::string_view() : body.substr(p);
}

/// Hash of AnswersOf(body), so responses compare against references
/// computed later without keeping bodies. 0 if there is no answers array.
size_t AnswersHash(std::string_view body) {
  std::string_view a = AnswersOf(body);
  return a.empty() ? 0 : std::hash<std::string_view>()(a);
}

/// The engine's stats.total_ms from a /search body (-1 if absent).
double BodyTotalMs(std::string_view body) {
  size_t p = body.find("\"total_ms\":");
  if (p == std::string_view::npos) return -1.0;
  return std::strtod(std::string(body.substr(p + 11, 32)).c_str(), nullptr);
}

/// Steal and total jiffies of all CPUs, from /proc/stat.
std::pair<double, double> CpuStealJiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[10] = {0};
  f >> cpu;
  double total = 0;
  for (double& x : v) {
    f >> x;
    total += x;
  }
  return {v[7], total};
}

/// Steal share of all CPU time between two CpuStealJiffies() readings.
double StealShare(std::pair<double, double> a, std::pair<double, double> b) {
  const double total = b.second - a.second;
  return total > 0 ? (b.first - a.first) / total : 0.0;
}

/// Resets the kernel's peak-RSS watermark (VmHWM) to the current RSS.
void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Delta(const std::map<std::string, double>& a,
             const std::map<std::string, double>& b, const std::string& k) {
  auto ia = a.find(k);
  auto ib = b.find(k);
  return (ib == b.end() ? 0.0 : ib->second) -
         (ia == a.end() ? 0.0 : ia->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Seeded workload generation (all before the first timed request).

std::string JoinKeywords(const std::vector<std::string>& kws) {
  std::string q;
  for (const auto& k : kws) {
    if (!q.empty()) q += ' ';
    q += k;
  }
  return q;
}

/// `n` distinct queries, Knum cycling through `knums`. Within each Knum
/// the queries are stratified over the planted communities (round-robin
/// over per-community draws), so a seed changes which queries are asked
/// but not how the work is spread over communities.
std::vector<std::string> DistinctQueries(const Kb& kb, size_t n,
                                         const std::vector<size_t>& knums,
                                         uint64_t seed) {
  std::vector<std::vector<std::string>> per(knums.size());
  std::set<std::string> seen;
  const size_t want = n / knums.size() + 1;
  const size_t comms = std::max<size_t>(1, kb.kb.meta.num_communities);
  const size_t per_comm = want / comms + 1;
  for (size_t ki = 0; ki < knums.size(); ++ki) {
    std::vector<std::vector<std::string>> by_comm(comms);
    uint64_t round = 0;
    size_t full = 0;
    while (full < comms) {
      auto qs = gen::MakeEfficiencyWorkload(
          kb.kb, kb.index, knums[ki], want,
          seed * 1000003ULL + knums[ki] * 7919ULL + round++);
      for (const auto& q : qs) {
        auto& bucket = by_comm[static_cast<size_t>(q.target_community) % comms];
        if (bucket.size() >= per_comm) continue;
        std::string s = JoinKeywords(q.keywords);
        if (!seen.insert(s).second) continue;
        bucket.push_back(std::move(s));
        if (bucket.size() == per_comm) ++full;
      }
      if (round > 400) Die("cannot draw enough distinct queries");
    }
    for (size_t i = 0; per[ki].size() < want; ++i) {
      per[ki].push_back(by_comm[i % comms][i / comms]);
    }
  }
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; out.size() < n; ++i) {
    out.push_back(per[i % knums.size()][i / knums.size()]);
  }
  return out;
}

/// Update batch bodies: each adds kUpdateTriples triples from a fresh node
/// (named with KB vocabulary, so it is searchable) to existing nodes.
std::vector<std::string> UpdateBodies(const Kb& kb, size_t n, uint64_t seed,
                                      std::vector<std::string>* new_terms) {
  std::mt19937_64 rng(seed ^ 0x5eed0bdULL);
  const KnowledgeGraph& g = kb.kb.graph;
  std::vector<std::string> out;
  for (size_t b = 0; b < n; ++b) {
    JsonWriter w;
    w.BeginObject();
    w.Key("add");
    w.BeginArray();
    for (size_t j = 0; j < kUpdateTriples; ++j) {
      NodeId a = static_cast<NodeId>(rng() % g.num_nodes());
      NodeId o = static_cast<NodeId>(rng() % g.num_nodes());
      std::vector<std::string> toks = Tokenize(g.NodeName(a));
      std::string term = toks.empty() ? "node" : toks[0];
      std::string subject = term + " churn" + std::to_string(seed % 1000) +
                            "x" + std::to_string(b) + "x" + std::to_string(j);
      if (new_terms != nullptr && j == 0) new_terms->push_back(term);
      LabelId l = static_cast<LabelId>(rng() % g.num_labels());
      w.BeginArray();
      w.String(subject);
      w.String(g.LabelName(l));
      w.String(g.NodeName(o));
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
    out.push_back(std::move(w).Take());
  }
  return out;
}

/// Zipf(s=1) ranks over `n` items.
std::vector<uint32_t> ZipfDraws(size_t items, size_t n, uint64_t seed) {
  std::vector<double> cdf(items);
  double sum = 0;
  for (size_t i = 0; i < items; ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf[i] = sum;
  }
  std::mt19937_64 rng(seed ^ 0x21bfULL);
  std::uniform_real_distribution<double> u(0.0, sum);
  std::vector<uint32_t> out(n);
  for (auto& x : out) {
    x = static_cast<uint32_t>(std::lower_bound(cdf.begin(), cdf.end(), u(rng)) -
                              cdf.begin());
    if (x >= items) x = static_cast<uint32_t>(items - 1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracing: handler spans recorded by the route wrapper, kept in memory.

struct HandlerSpan {
  double start = 0.0;
  double end = 0.0;
  double parse_ms = 0.0;  // updates: timed ParseUpdateBody
};

class Tracer {
 public:
  std::atomic<bool> on{false};

  HandlerWrap Wrap() {
    return [this](
               const server::HttpRequest& req,
               const std::function<server::HttpResponse(
                   const server::HttpRequest&)>& inner) {
      if (!on.load(std::memory_order_relaxed)) return inner(req);
      HandlerSpan s;
      s.start = NowS();
      if (req.path == "/update") {
        double t = NowS();
        auto parsed = server::ParseUpdateBody(req.body);
        s.parse_ms = (NowS() - t) * 1e3;
        (void)parsed;
      }
      server::HttpResponse resp = inner(req);
      s.end = NowS();
      auto it = req.headers.find("x-bench-id");
      if (it != req.headers.end()) {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[std::strtoull(it->second.c_str(), nullptr, 10)] = s;
      }
      return resp;
    };
  }

  const HandlerSpan* Find(uint64_t id) const {
    auto it = spans_.find(id);
    return it == spans_.end() ? nullptr : &it->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, HandlerSpan> spans_;
};

// ---------------------------------------------------------------------------
// Result accumulation.

struct OpTally {
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;
  std::vector<double> lat_ms;     // failures are +inf
};

struct Check {
  bool ok = true;
  std::vector<std::string> problems;
  void Fail(const std::string& why) {
    if (problems.size() < 20) problems.push_back(why);
    ok = false;
  }
};

void Tally(const std::vector<Req>& reqs, const std::vector<Sent>& sent,
           OpTally* search, OpTally* update) {
  for (const Sent& s : sent) {
    OpTally* t = reqs[s.req].kind == OpKind::kSearch ? search : update;
    if (t == nullptr) continue;
    ++t->sent;
    if (s.ok()) {
      ++t->ok;
    } else {
      ++t->failed;
    }
    t->lat_ms.push_back(LatencyMs(s.sent, s.done, s.ok()));
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// The benchmark run.

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec) {}

  int Run();

 private:
  /// One round's figures.
  struct Round {
    double p50_ms = 0.0;
    double tail_ms = 0.0;
    double qps = 0.0;
  };
  /// Every search of a phase, keyed by its X-Bench-Id.
  using IdSent = std::vector<std::pair<uint64_t, Sent>>;

  // Phases.
  void Setup();
  void BuildWorkload();
  std::vector<Sent> Leg(int conns, size_t n, OpTally* latency,
                        IdSent* keep);
  std::vector<Round> Rounds(double seconds, OpTally* latency, IdSent* keep);
  void WriteCycle();
  void TailAndRecover(Deployment* d, const Kb* probe_kb);
  void VerifyDistinct();
  void Reconcile(const std::map<std::string, double>& before,
                 const std::map<std::string, double>& after,
                 size_t client_searches, size_t client_requests,
                 const char* what);

  /// The next `n` search requests: distinct queries in pool order
  /// (wrapping around), or Zipf draws over the hot queries.
  std::vector<uint32_t> TakeQueries(size_t n) {
    std::vector<uint32_t> out(n);
    for (uint32_t& r : out) {
      r = spec_.hot ? search_reqs_[zipf_[next_zipf_++ % zipf_.size()]]
                    : search_reqs_[next_query_++ % search_reqs_.size()];
    }
    return out;
  }
  void OnSearchBody(size_t req, const Sent& s, std::string_view body);
  void OnUpdateBody(const Sent& s, std::string_view body);

  void EmitHeader();
  int Emit(const std::vector<Metric>& metrics);

  // Traced run.
  struct ReplayInfo {
    double context_ms = 0.0;
    double render_ms = 0.0;
    double frontier_work = 0.0;
  };
  ReplayInfo Replay(uint32_t req);
  void SearchLedger(const std::map<std::string, double>& b,
                    const std::map<std::string, double>& a,
                    const IdSent& sent, double window_s);
  void UpdateLedger(const IdSent& ups);
  int EmitTraced();

  Args args_;
  WorkloadSpec spec_;
  Check check_;

  std::vector<SetupTimes> setup_times_;
  std::unique_ptr<Deployment> dep_;
  std::unique_ptr<Kb> ref_kb_;  // a twin KB for queries, references, replay
  size_t kb_nodes_ = 0;
  size_t kb_triples_ = 0;

  // Request table: searches first, then updates.
  std::vector<Req> reqs_;
  std::vector<std::string> queries_;       // text of search reqs
  std::vector<uint32_t> search_reqs_;      // req ids of searches, in order
  std::vector<uint32_t> update_reqs_;      // req ids of updates, in order
  std::vector<std::string> new_terms_;     // searchable terms of new nodes
  size_t next_query_ = 0;
  size_t next_update_ = 0;
  std::vector<uint32_t> zipf_;             // search-hot draws
  size_t next_zipf_ = 0;
  std::vector<std::string> hot_ref_;       // search-hot reference answers
  uint64_t next_id_ = 1;                   // X-Bench-Id of the next request

  // Per-request observations (indexed by req id for searches).
  std::vector<size_t> seen_hash_;          // last answers hash per req
  std::vector<double> body_total_ms_;      // engine total_ms per req
  std::vector<uint8_t> answered_;          // req answered at least once
  std::vector<uint8_t> answered_before_window_;  // ... before the traced one

  // Measurements.
  size_t attempted_ = 0;
  size_t failed_ = 0;
  OpTally all_search_, all_update_;  // every request issued, by op type
  /// Counts every issued request into attempted/failed and its op type.
  void Account(const std::vector<Sent>& sent) {
    OpTally* t[2] = {&all_search_, &all_update_};
    for (const Sent& s : sent) {
      OpTally& k = *t[reqs_[s.req].kind == OpKind::kSearch ? 0 : 1];
      ++k.sent;
      ++attempted_;
      if (s.ok()) {
        ++k.ok;
      } else {
        ++k.failed;
        ++failed_;
      }
    }
  }
  std::vector<double> recover_s_;
  double peak_rss_mb_ = 0.0;

  // Tracing.
  Tracer tracer_;
  std::vector<Metric> layer_;
  double untraced_p50_ = 0.0;
  double traced_p50_ = 0.0;
  double compact_ms_ = 0.0;
  std::map<std::string, double> live_before_, live_after_;
  OpTally write_update_;
};

void Bench::Setup() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep_.reset();
    SetupTimes t;
    std::unique_ptr<Kb> kb = BuildKb(spec_.dataset, &t);
    kb_nodes_ = kb->kb.graph.num_nodes();
    kb_triples_ = kb->kb.graph.num_triples();
    double s0 = NowS();
    dep_ = Deployment::Static(
        std::move(kb), args_.trace ? tracer_.Wrap()
                                   : HandlerWrap());
    t.server_s = NowS() - s0;
    setup_times_.push_back(t);
  }
  // The query generator and the reference engine need a KB the deployment
  // does not own: an identical twin (the generator is deterministic),
  // built outside the timed stages.
  ref_kb_ = BuildKb(spec_.dataset, nullptr);
}

void Bench::BuildWorkload() {
  const Kb& kb = *ref_kb_;
  if (spec_.hot) {
    // 64 hot queries (Knum 2-4) that fit the default 256-entry cache.
    queries_ = DistinctQueries(kb, 64, {2, 3, 4}, args_.seed);
    zipf_ = ZipfDraws(queries_.size(), 1 << 20, args_.seed);
  } else {
    // Enough distinct queries for 400 searches/s, well above the rate a
    // 4-core box reaches over a round's two legs.
    const size_t need = std::min(
        kQueryPool, static_cast<size_t>(400.0 * args_.seconds) + 200);
    queries_ = DistinctQueries(kb, need, {2, 4, 6, 8, 10}, args_.seed);
  }
  for (const auto& q : queries_) {
    search_reqs_.push_back(static_cast<uint32_t>(reqs_.size()));
    reqs_.push_back(MakeGet(SearchTarget(q)));
  }
  std::vector<std::string> bodies =
      UpdateBodies(kb, kWriteBatches + kCompactProbe + kWalTail, args_.seed,
                   &new_terms_);
  for (size_t i = 0; i < bodies.size(); ++i) {
    const bool compact = (i + 1) % kCompactEvery == 0;
    update_reqs_.push_back(static_cast<uint32_t>(reqs_.size()));
    reqs_.push_back(MakePost(compact ? "/update?compact=1" : "/update",
                             std::move(bodies[i]), OpKind::kUpdate));
  }
  seen_hash_.assign(reqs_.size(), 0);
  body_total_ms_.assign(reqs_.size(), -1.0);
  answered_.assign(reqs_.size(), 0);
}

void Bench::OnSearchBody(size_t req, const Sent& s, std::string_view body) {
  if (!s.ok()) return;
  if (AnswersOf(body).empty()) {
    check_.Fail("search response without answers: " + queries_[req]);
    return;
  }
  if (spec_.hot) {
    // Compared in full on the generator thread: a plain comparison keeps
    // the check off the critical path at tens of thousands of responses/s.
    if (AnswersOf(body) != hot_ref_[req]) {
      check_.Fail("search-hot answers differ from reference: " +
                  queries_[req]);
    }
  } else {
    seen_hash_[req] = AnswersHash(body);
  }
  body_total_ms_[req] = BodyTotalMs(body);
  answered_[req] = 1;
}

void Bench::OnUpdateBody(const Sent& s, std::string_view body) {
  if (!s.ok()) return;
  if (body.find("\"durable\":true") == std::string_view::npos ||
      body.find("\"seq\":0") != std::string_view::npos) {
    check_.Fail("update not acknowledged durable: " + std::string(body));
  }
  answered_[s.req] = 1;
}

std::vector<Sent> Bench::Leg(int conns, size_t n, OpTally* latency,
                             IdSent* keep) {
  const std::vector<uint32_t> seq = TakeQueries(n);
  LoadGen gen(dep_->port(), conns);
  const uint64_t id0 = next_id_;
  next_id_ += n;
  std::vector<Sent> sent = gen.RunClosed(
      reqs_, seq, 1e9, kClientTimeoutS,
      [this](size_t, const Sent& s, std::string_view body) {
        OnSearchBody(s.req, s, body);
      },
      id0);
  Account(sent);
  if (latency != nullptr) Tally(reqs_, sent, latency, nullptr);
  if (keep != nullptr) {
    for (size_t i = 0; i < sent.size(); ++i) keep->emplace_back(id0 + i, sent[i]);
  }
  return sent;
}

std::vector<Bench::Round> Bench::Rounds(double seconds, OpTally* latency,
                                        IdSent* keep) {
  // Rounds run back to back until `seconds` have passed. Each yields its
  // own p50, tail and throughput; the run reports the best quartile of
  // each (BestQuartile), so a stretch in which the host took the CPU away
  // does not set the figure.
  std::vector<Round> rounds;
  const auto steal0 = CpuStealJiffies();
  const double end = NowS() + seconds;
  while (rounds.empty() || NowS() < end) {
    Round r;
    std::vector<double> lat;
    if (spec_.serial_leg > 0) {
      OpTally serial;
      Leg(1, spec_.serial_leg, &serial, keep);
      if (latency != nullptr) {
        latency->lat_ms.insert(latency->lat_ms.end(), serial.lat_ms.begin(),
                               serial.lat_ms.end());
      }
      lat = std::move(serial.lat_ms);
    }
    OpTally load;
    const std::vector<Sent> sent = Leg(kConns, spec_.load_leg, &load, keep);
    if (lat.empty()) {
      if (latency != nullptr) {
        latency->lat_ms.insert(latency->lat_ms.end(), load.lat_ms.begin(),
                               load.lat_ms.end());
      }
      lat = std::move(load.lat_ms);
    }
    double first = std::numeric_limits<double>::infinity(), last = 0.0;
    for (const Sent& s : sent) {
      first = std::min(first, s.sent);
      last = std::max(last, s.done);
    }
    r.p50_ms = Median(lat);
    r.tail_ms = TailPercentile(lat).value;
    r.qps = last > first ? static_cast<double>(sent.size()) / (last - first)
                         : 0.0;
    rounds.push_back(r);
  }
  const Tail t = TailPercentile(
      std::vector<double>(spec_.serial_leg > 0 ? spec_.serial_leg
                                               : spec_.load_leg));
  std::printf("%zu rounds in %.1f s, cpu steal %.1f%%; per-round tail is "
              "p%.2f\n",
              rounds.size(), seconds + NowS() - end,
              100.0 * StealShare(steal0, CpuStealJiffies()), t.percentile);
  auto spread = [&](const char* name, double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.*field);
    std::sort(v.begin(), v.end());
    std::printf("  %-8s min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g\n",
                name, v.front(), Quartile(v, 1), Quartile(v, 2),
                Quartile(v, 3), v.back());
  };
  if (rounds.size() <= 64) {
    for (size_t i = 0; i < rounds.size(); ++i) {
      std::printf("  round %zu: p50 %.3f ms, tail %.3f ms, %.1f/s\n", i + 1,
                  rounds[i].p50_ms, rounds[i].tail_ms, rounds[i].qps);
    }
  }
  spread("p50_ms", &Round::p50_ms);
  spread("tail_ms", &Round::tail_ms);
  spread("qps", &Round::qps);
  return rounds;
}

void Bench::Reconcile(const std::map<std::string, double>& before,
                      const std::map<std::string, double>& after,
                      size_t client_searches, size_t client_requests,
                      const char* what) {
  // The first scrape's own response is written (and counted) after it
  // rendered; the second scrape's is not yet counted in its own output.
  const double served = Delta(before, after, "ws_server_http_requests_total");
  const double searches = Delta(before, after, "ws_server_queries_total") +
                          Delta(before, after, "ws_server_shed_total");
  if (static_cast<size_t>(std::llround(served)) != client_requests + 1) {
    check_.Fail(std::string(what) + ": server served " +
                std::to_string(served) + " responses, client received " +
                std::to_string(client_requests) + " (+1 scrape)");
  }
  if (static_cast<size_t>(std::llround(searches)) != client_searches) {
    check_.Fail(std::string(what) + ": server counted " +
                std::to_string(searches) + " searches, client sent " +
                std::to_string(client_searches));
  }
}

void Bench::WriteCycle() {
  // The write/recover cycle runs against a durable deployment of
  // wikisynth-S after serving stops, closed loop on one connection (there
  // are no searches beside it).
  dep_.reset();
  std::string dir = args_.work_dir + "/write-cycle";
  std::filesystem::remove_all(dir);
  auto kb = BuildKb(Dataset::kSmall, nullptr);
  auto probe_kb = BuildKb(Dataset::kSmall, nullptr);
  const HandlerWrap wrap =
      args_.trace ? tracer_.Wrap()
                  : HandlerWrap();
  dep_ = Deployment::Durable(std::move(kb), dir, wrap);
  std::vector<uint32_t> seq(update_reqs_.begin(),
                            update_reqs_.begin() +
                                static_cast<long>(kWriteBatches));
  next_update_ = kWriteBatches;
  auto before = dep_->Scrape();
  tracer_.on.store(args_.trace);
  LoadGen gen(dep_->port(), 1);
  const uint64_t id0 = next_id_;
  next_id_ += seq.size();
  auto sent = gen.RunClosed(reqs_, seq, 1e9, kClientTimeoutS,
                            [this](size_t, const Sent& s,
                                   std::string_view body) {
                              OnUpdateBody(s, body);
                            },
                            id0);
  tracer_.on.store(false);
  auto after = dep_->Scrape();
  live_before_ = before;
  live_after_ = after;
  Tally(reqs_, sent, nullptr, &write_update_);
  Account(sent);
  Reconcile(before, after, 0, sent.size(), "write cycle");
  if (args_.trace) {
    IdSent ups;
    for (size_t i = 0; i < sent.size(); ++i) ups.emplace_back(id0 + i, sent[i]);
    UpdateLedger(ups);
  }
  TailAndRecover(dep_.get(), probe_kb.get());
}

void Bench::TailAndRecover(Deployment* d, const Kb* probe_kb) {
  // Quiesce the compactor; apply kCompactProbe batches and time the
  // CompactOnce that folds them (and anything the compactor left); then
  // leave a fixed kWalTail of acked-but-unfolded batches and stop without
  // a clean shutdown.
  d->StopCompactor();
  std::vector<uint32_t> tail;
  for (size_t i = 0; i < kCompactProbe + kWalTail; ++i) {
    if (next_update_ >= update_reqs_.size()) Die("update pool exhausted");
    // These batches never compact on their own: plain /update target.
    uint32_t r = update_reqs_[next_update_++];
    Req plain = reqs_[r];
    plain.head = MakePost("/update", "", OpKind::kUpdate).head;
    reqs_.push_back(plain);
    seen_hash_.push_back(0);
    body_total_ms_.push_back(-1.0);
    answered_.push_back(0);
    tail.push_back(static_cast<uint32_t>(reqs_.size() - 1));
  }
  auto send = [&](std::vector<uint32_t> seq) {
    LoadGen gen(d->port(), 1);
    auto sent = gen.RunClosed(reqs_, seq, 1e9, kClientTimeoutS,
                              [this](size_t, const Sent& s,
                                     std::string_view body) {
                                OnUpdateBody(s, body);
                              });
    Account(sent);
    for (const Sent& s : sent) {
      if (!s.ok()) check_.Fail("tail update failed");
    }
  };
  send({tail.begin(), tail.begin() + kCompactProbe});
  double c0 = NowS();
  Status cst = d->manager()->CompactOnce();
  compact_ms_ = (NowS() - c0) * 1e3;
  if (!cst.ok()) check_.Fail("CompactOnce: " + cst.ToString());
  send({tail.begin() + kCompactProbe, tail.end()});
  live::SnapshotManager* m = d->manager();
  const uint64_t unfolded = m->wal_last_seq() - m->wal_base_seq();
  if (unfolded != kWalTail) {
    check_.Fail("expected " + std::to_string(kWalTail) +
                " unfolded batches, WAL holds " + std::to_string(unfolded));
  }
  // Probe queries over the new nodes' terms and ordinary queries.
  std::vector<std::string> probes;
  for (size_t i = 0; i < kProbeQueries / 2 && i < new_terms_.size(); ++i) {
    probes.push_back(new_terms_[new_terms_.size() - 1 - i]);
  }
  for (const auto& q :
       DistinctQueries(*probe_kb, kProbeQueries - probes.size(), {2, 3},
                       args_.seed + 77)) {
    probes.push_back(q);
  }
  SearchEngine engine{SearchOptions{}};
  auto answer_hashes = [&](live::SnapshotManager* mgr) {
    std::vector<size_t> hs;
    for (const auto& q : probes) {
      KbHandle h = mgr->PinHandle();
      SearchOptions o;
      o.record_metrics = false;
      auto r = engine.Search(h, q, o);
      hs.push_back(r.ok() ? AnswersHash(server::SearchResultToJson(h.graph, *r))
                          : 1);
    }
    return hs;
  };
  const std::vector<size_t> before = answer_hashes(m);
  const std::string dir = m->durability_options().data_dir;
  d->CrashStop();
  for (int rep = 0; rep < kRecoverReps; ++rep) {
    live::SnapshotManager::DurabilityOptions dopts;
    dopts.data_dir = dir;
    dopts.fsync_policy = live::FsyncPolicy::kAlways;
    live::SnapshotManager::RecoveryInfo rec;
    double t0 = NowS();
    auto opened = live::SnapshotManager::OpenDurable(
        KnowledgeGraph(), InvertedIndex(), {}, dopts, &rec);
    const double dt = NowS() - t0;
    if (!opened.ok()) {
      check_.Fail("recovery failed: " + opened.status().ToString());
      return;
    }
    recover_s_.push_back(dt);
    std::printf("recovery %d: %.3f s, replayed %llu\n", rep, dt,
                static_cast<unsigned long long>(rec.replayed_batches));
    if (!rec.recovered || rec.clean_shutdown) {
      check_.Fail("recovery did not see an unclean prior run");
    }
    if (rec.replayed_batches != unfolded) {
      check_.Fail("replayed " + std::to_string(rec.replayed_batches) +
                  " batches, expected " + std::to_string(unfolded));
    }
    if (rep == 0 && answer_hashes(opened->get()) != before) {
      check_.Fail("probe answers after recovery differ from before the stop");
    }
  }
}

void Bench::VerifyDistinct() {
  // Every answered search-distinct query against an in-process reference
  // engine (one thread per query; answers are thread-count invariant),
  // computed after the timed rounds, four queries at a time.
  std::vector<uint32_t> todo;
  for (uint32_t r : search_reqs_) {
    if (answered_[r]) todo.push_back(r);
  }
  SearchEngine ref(&ref_kb_->kb.graph, &ref_kb_->index, SearchOptions{});
  std::atomic<size_t> next{0};
  std::atomic<size_t> bad{0};
  std::mutex mu;
  std::string first_bad;
  auto worker = [&]() {
    SearchOptions o;
    o.threads = 1;
    o.record_metrics = false;
    for (size_t i = next++; i < todo.size(); i = next++) {
      const uint32_t r = todo[i];
      auto res = ref.Search(queries_[r], o);
      size_t h = res.ok() ? AnswersHash(server::SearchResultToJson(
                                ref_kb_->kb.graph, *res))
                          : 1;
      if (h != seen_hash_[r]) {
        ++bad;
        std::lock_guard<std::mutex> lock(mu);
        if (first_bad.empty()) first_bad = queries_[r];
      }
    }
  };
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) ts.emplace_back(worker);
  for (auto& t : ts) t.join();
  std::printf("reference check: %zu answered queries, %zu mismatches\n",
              todo.size(), bad.load());
  if (bad > 0) {
    check_.Fail(std::to_string(bad.load()) +
                " answers differ from the reference engine, e.g. '" +
                first_bad + "'");
  }
}

void Bench::EmitHeader() {
  JsonWriter w;
  w.BeginObject();
  w.Key("header");
  w.BeginObject();
  w.Key("workload");
  w.String(spec_.name);
  w.Key("dataset");
  w.String(DatasetName(spec_.dataset));
  w.Key("nodes");
  w.UInt(kb_nodes_);
  w.Key("triples");
  w.UInt(kb_triples_);
  w.Key("kb_seed");
  w.UInt(spec_.dataset == Dataset::kLarge ? gen::LargeConfig().seed
                                          : gen::SmallConfig().seed);
  w.Key("workload_seed");
  w.UInt(args_.seed);
  w.Key("seconds");
  w.Double(args_.seconds);
  w.Key("trace");
  w.Bool(args_.trace);
  w.Key("commit");
  w.String(args_.commit);
  w.Key("hw_threads");
  w.UInt(std::thread::hardware_concurrency());
  w.Key("kernel_isa");
  w.String(kernel::Select(KernelIsa::kAuto).name);
  w.Key("build_type");
  w.String(E2EBENCH_BUILD_TYPE);
  w.Key("server");
  w.BeginObject();
  w.Key("mode");
  w.String("static; write cycle on durable wikisynth-S");
  const server::EpollReactor::Options reactor;
  w.Key("reactor_threads");
  w.Int(reactor.reactor_threads);
  w.Key("handler_threads");
  w.Int(reactor.handler_threads);
  w.Key("max_pipeline");
  w.UInt(reactor.max_pipeline);
  w.Key("response_cache_entries");
  w.UInt(256);  // SearchService's default cache_capacity
  w.Key("context_cache_entries");
  w.UInt(dep_ != nullptr ? dep_->service().context_cache().capacity() : 0);
  w.Key("fsync_policy");
  w.String("always");
  w.Key("engine");
  w.String("cpu");
  w.EndObject();
  w.Key("generator");
  w.BeginObject();
  w.Key("connections");
  w.Int(kConns);
  w.Key("loop");
  w.String("closed");
  w.Key("serial_leg");
  w.UInt(spec_.serial_leg);
  w.Key("load_leg");
  w.UInt(spec_.load_leg);
  w.EndObject();
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", std::move(w).Take().c_str());
}

int Bench::Emit(const std::vector<Metric>& metrics) {
  for (const auto& p : check_.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  for (const auto& m : metrics) {
    std::printf("%-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Values are printed with every digit (shortest round-trip form).
  std::string out = "{\"correct\": ";
  out += check_.ok ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    auto res = std::to_chars(num, num + sizeof(num), v);
    out += i == 0 ? "\"" : ", \"";
    out += metrics[i].name + "\": {\"value\": " +
           std::string(num, res.ptr) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return check_.ok ? 0 : 1;
}

Bench::ReplayInfo Bench::Replay(uint32_t req) {
  // The same query through SearchEngine::Search with stage tracing, on the
  // KB state the deployment serves, plus a timed SearchResultToJson.
  ReplayInfo info;
  obs::TraceContext ctx;
  SearchOptions o;
  o.trace = &ctx;
  o.record_metrics = false;
  static SearchEngine engine(&ref_kb_->kb.graph, &ref_kb_->index,
                             SearchOptions{});
  Result<SearchResult> r = engine.Search(queries_[req], o);
  if (!r.ok()) return info;
  const double render0 = NowS();
  const std::string body = server::SearchResultToJson(ref_kb_->kb.graph, *r);
  info.render_ms = (NowS() - render0) * 1e3;
  for (const auto& sp : ctx.spans()) {
    if (sp.name == "search/index_lookup" || sp.name == "search/activation") {
      info.context_ms += sp.dur_ms;
    }
  }
  info.frontier_work = static_cast<double>(r->stats.total_frontier_work);
  return info;
}

void Bench::SearchLedger(const std::map<std::string, double>& b,
                         const std::map<std::string, double>& a,
                         const IdSent& sent, double window_s) {
  // Partition of the client-observed time of every traced search into
  // layer self times plus a named residual (DESIGN.md, "ledger").
  double client = 0, transport = 0, handler = 0, cached = 0;
  double queue_wait = 0, render = 0, context = 0, frontier = 0;
  size_t n = 0, ran = 0;
  std::unordered_map<uint32_t, ReplayInfo> replays;
  for (const auto& [id, s] : sent) {
    if (reqs_[s.req].kind != OpKind::kSearch || !s.ok()) continue;
    const HandlerSpan* sp = tracer_.Find(id);
    if (sp == nullptr) {
      check_.Fail("traced search without a handler span");
      continue;
    }
    ++n;
    const double h = (sp->end - sp->start) * 1e3;
    const double e = body_total_ms_[s.req];
    client += (s.done - s.sent) * 1e3;
    transport += SelfTime({s.sent, s.done}, {{sp->start, sp->end}}) * 1e3;
    handler += h;
    // The engine ran inside this span iff this is the query's first answer
    // in the run (no workload repeats a query after a cache eviction or a
    // version bump could make it run again).
    if (e >= 0 && !answered_before_window_[s.req] &&
        replays.find(s.req) == replays.end()) {
      ++ran;
      const ReplayInfo& ri = replays.emplace(s.req, Replay(s.req)).first->second;
      render += ri.render_ms;
      context += ri.context_ms;
      frontier += ri.frontier_work;
      queue_wait += h - e - ri.render_ms;
    } else {
      cached += h;  // served from the response cache (or a shared flight)
    }
  }
  auto stage = [&](const char* st) {
    return Delta(b, a, std::string("ws_search_stage_ms_sum{stage=\"") + st +
                           "\"}");
  };
  const double init = stage("init"), enqueue = stage("enqueue"),
               identify = stage("identify"), expansion = stage("expansion"),
               topdown = stage("topdown");
  const double per = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  std::vector<Part> parts = Partition(
      client, {{"server.transport_ms", transport},
               {"server.cached_ms", cached},
               {"server.queue_wait_ms", queue_wait},
               {"server.render_ms", render},
               {"core.context_ms", context},
               {"core.bottom_up.init_ms", init},
               {"core.bottom_up.enqueue_ms", enqueue},
               {"core.bottom_up.identify_ms", identify},
               {"core.bottom_up.expansion_ms", expansion},
               {"core.top_down_ms", topdown}});
  layer_.push_back({"ledger.client_ms", client * per, "ms"});
  for (const Part& p : parts) {
    layer_.push_back({p.name == "residual" ? "ledger.residual_ms" : p.name,
                      p.value * per, "ms"});
  }
  layer_.push_back({"server.handler_ms", handler * per, "ms"});
  layer_.push_back({"trace.overhead_ms", traced_p50_ - untraced_p50_, "ms"});
  std::printf("ledger: %zu traced searches, %zu ran the engine\n", n, ran);

  const double hits = Delta(b, a, "ws_server_cache_hits_total");
  const double misses = Delta(b, a, "ws_server_cache_misses_total");
  const double shared = Delta(b, a, "ws_server_single_flight_shared_total");
  const double execs = Delta(b, a, "ws_server_engine_executions_total");
  const double chits = Delta(b, a, "ws_context_cache_hits_total");
  const double cmiss = Delta(b, a, "ws_context_cache_misses_total");
  double searches = 0;
  for (const auto& [k, v] : a) {
    if (k.rfind("ws_search_total{", 0) == 0) searches += Delta(b, a, k);
  }
  const double centrals = Delta(b, a, "ws_search_centrals_total");
  layer_.push_back({"query_cache.hit_ratio", Ratio(hits, hits + misses),
                    "ratio"});
  layer_.push_back({"query_scheduler.shared_ratio",
                    Ratio(shared, shared + execs), "ratio"});
  layer_.push_back({"query_scheduler.shed",
                    Delta(b, a, "ws_server_shed_total"), "count"});
  layer_.push_back({"context_cache.hit_ratio", Ratio(chits, chits + cmiss),
                    "ratio"});
  layer_.push_back({"core.levels",
                    Ratio(Delta(b, a, "ws_search_levels_total"), searches),
                    "count"});
  layer_.push_back({"core.centrals", Ratio(centrals, searches), "count"});
  layer_.push_back({"core.frontier_work",
                    Ratio(frontier, static_cast<double>(ran)), "count"});
  layer_.push_back({"core.prune_ratio",
                    Ratio(Delta(b, a, "ws_search_candidates_pruned_total"),
                          centrals),
                    "ratio"});
  layer_.push_back(
      {"thread_pool.busy_frac",
       Ratio(Delta(b, a, "ws_pool_busy_micros_total"),
             window_s * 1e6 * std::thread::hardware_concurrency()),
       "ratio"});
}

void Bench::UpdateLedger(const IdSent& ups) {
  double client = 0, transport = 0, parse = 0;
  size_t n = 0;
  for (const auto& [id, s] : ups) {
    if (!s.ok()) continue;
    const HandlerSpan* sp = tracer_.Find(id);
    if (sp == nullptr) {
      check_.Fail("traced update without a handler span");
      continue;
    }
    ++n;
    client += (s.done - s.sent) * 1e3;
    transport += SelfTime({s.sent, s.done}, {{sp->start, sp->end}}) * 1e3;
    parse += sp->parse_ms;
  }
  const auto& b = live_before_;
  const auto& a = live_after_;
  const double apply = Delta(b, a, "ws_live_apply_ms_sum");
  std::vector<Part> parts =
      Partition(client, {{"update.transport_ms", transport},
                         {"live.parse_ms", parse},
                         {"live.apply_ms", apply}});
  const double per = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  layer_.push_back({"update.client_ms", client * per, "ms"});
  for (const Part& p : parts) {
    layer_.push_back({p.name == "residual" ? "update.residual_ms" : p.name,
                      p.value * per, "ms"});
  }
  const double appends = Delta(b, a, "ws_wal_appends_total");
  layer_.push_back({"live.wal_fsyncs_per_batch",
                    Ratio(Delta(b, a, "ws_wal_fsyncs_total"), appends),
                    "count"});
  layer_.push_back({"live.wal_bytes_per_batch",
                    Ratio(Delta(b, a, "ws_wal_bytes_written_total"), appends),
                    "B"});
  layer_.push_back({"live.fold_ms",
                    Ratio(Delta(b, a, "ws_live_fold_ms_sum"),
                          Delta(b, a, "ws_live_fold_ms_count")),
                    "ms"});
  layer_.push_back({"live.publish_ms",
                    Ratio(Delta(b, a, "ws_live_publish_ms_sum"),
                          Delta(b, a, "ws_live_publish_ms_count")),
                    "ms"});
}

int Bench::EmitTraced() {
  layer_.push_back({"live.compact_ms", compact_ms_, "ms"});
  layer_.push_back({"live.recover_ms_per_batch",
                    BestQuartile(recover_s_, true) * 1e3 /
                        static_cast<double>(kWalTail),
                    "ms"});
  std::vector<double> g, w, d, x, sv;
  for (const auto& t : setup_times_) {
    g.push_back(t.generate_s);
    w.push_back(t.weights_s);
    d.push_back(t.distance_s);
    x.push_back(t.index_s);
    sv.push_back(t.server_s);
  }
  layer_.push_back({"gen.generate_s", Median(g), "s"});
  layer_.push_back({"graph.weights_s", Median(w), "s"});
  layer_.push_back({"graph.distance_sample_s", Median(d), "s"});
  layer_.push_back({"text.index_build_s", Median(x), "s"});
  layer_.push_back({"server.start_s", Median(sv), "s"});
  return Emit(layer_);
}

int Bench::Run() {
  std::filesystem::create_directories(args_.work_dir);
  Setup();
  EmitHeader();
  BuildWorkload();

  if (spec_.hot) {
    // References for the 64 hot queries, outside the timed rounds.
    SearchEngine ref(&ref_kb_->kb.graph, &ref_kb_->index, SearchOptions{});
    hot_ref_.assign(reqs_.size(), std::string());
    for (uint32_t r : search_reqs_) {
      SearchOptions o;
      o.record_metrics = false;
      auto res = ref.Search(queries_[r], o);
      if (!res.ok()) Die("reference search failed: " + queries_[r]);
      hot_ref_[r] = std::string(
          AnswersOf(server::SearchResultToJson(ref_kb_->kb.graph, *res)));
    }
  }

  // Warm-up (not measured): fault in pools and, on search-hot, fill the
  // response cache with every hot query once.
  {
    LoadGen gen(dep_->port(), kConns);
    const std::vector<uint32_t> seq =
        spec_.hot ? search_reqs_ : TakeQueries(100);
    auto sent = gen.RunClosed(reqs_, seq, 1e9, kClientTimeoutS,
                              [this](size_t, const Sent& s,
                                     std::string_view body) {
                                OnSearchBody(s.req, s, body);
                              });
    Account(sent);
  }

  // The twin KB is not the server's: it is dropped for the measured rounds
  // (peak_rss_mb) and rebuilt, identically, for the checks after.
  // malloc_trim hands its freed pages back, so they leave the RSS.
  ref_kb_.reset();
  malloc_trim(0);
  const auto before = dep_->Scrape();
  const size_t attempted0 = attempted_;
  std::vector<Round> rounds;
  if (!args_.trace) {
    ResetPeakRss();
    rounds = Rounds(args_.seconds, nullptr, nullptr);
    peak_rss_mb_ = PeakRssMb();
  } else {
    // Tracing off, then the same rounds traced: the difference of their
    // latency medians is the tracing overhead.
    OpTally untraced, traced;
    Rounds(args_.seconds / 2, &untraced, nullptr);
    answered_before_window_ = answered_;
    const auto mid = dep_->Scrape();
    IdSent traced_sent;
    tracer_.on.store(true);
    const double w0 = NowS();
    Rounds(args_.seconds / 2, &traced, &traced_sent);
    const double window_s = NowS() - w0;
    tracer_.on.store(false);
    untraced_p50_ = Median(untraced.lat_ms);
    traced_p50_ = Median(traced.lat_ms);
    const auto end = dep_->Scrape();
    ref_kb_ = BuildKb(spec_.dataset, nullptr);
    SearchLedger(mid, end, traced_sent, window_s);
  }
  if (ref_kb_ == nullptr) ref_kb_ = BuildKb(spec_.dataset, nullptr);
  const size_t session = attempted_ - attempted0;
  const auto after = dep_->Scrape();
  // Every request of the session was a search; the traced run adds the
  // mid and end scrapes, both answered before the final one.
  Reconcile(before, after, session, session + (args_.trace ? 2 : 0),
            spec_.name);

  WriteCycle();
  if (!spec_.hot) VerifyDistinct();
  if (spec_.hot) {
    for (uint32_t r : search_reqs_) {
      if (!answered_[r]) check_.Fail("hot query never answered");
    }
  }
  std::printf("requests: search sent %zu ok %zu failed %zu; update sent "
              "%zu ok %zu failed %zu\n",
              all_search_.sent, all_search_.ok, all_search_.failed,
              all_update_.sent, all_update_.ok, all_update_.failed);
  if (failed_ > 0) {
    check_.Fail(std::to_string(failed_) + " requests failed");
  }
  if (args_.trace) return EmitTraced();

  std::vector<double> p50, tail, qps;
  for (const Round& r : rounds) {
    p50.push_back(r.p50_ms);
    tail.push_back(r.tail_ms);
    qps.push_back(r.qps);
  }
  const std::vector<double>& up_lat = write_update_.lat_ms;
  const Tail ut = TailPercentile(up_lat);
  std::printf("update_tail_ms: p%.2f (%zu beyond, n=%zu)\n", ut.percentile,
              ut.beyond, ut.count);
  std::vector<double> setup_total;
  for (const auto& t : setup_times_) setup_total.push_back(t.total());
  return Emit({
      {"setup_s", Median(setup_total), "s"},
      {"search_p50_ms", BestQuartile(p50, true), "ms"},
      {"search_tail_ms", BestQuartile(tail, true), "ms"},
      {"search_qps", BestQuartile(qps, false), "1/s"},
      {"update_p50_ms", Median(up_lat), "ms"},
      {"update_tail_ms", ut.value, "ms"},
      {"recover_s", BestQuartile(recover_s_, true), "s"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
  });
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.self_test) return e2ebench::RunSelfTest();
  const WorkloadSpec* spec = nullptr;
  for (const auto& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) Die("unknown --workload '" + args.workload + "'");
  Bench bench(args, *spec);
  return bench.Run();
}
