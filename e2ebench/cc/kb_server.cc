#include "kb_server.h"

#include <cstdio>
#include <cstdlib>

#include "core/node_weight.h"
#include "graph/distance_sampler.h"
#include "loadgen.h"
#include "server/http_client.h"

namespace e2ebench {

using namespace wikisearch;

namespace {

/// Parses Prometheus text exposition into name (with labels) -> value.
std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

}  // namespace

const char* DatasetName(Dataset d) {
  return d == Dataset::kLarge ? "wikisynth-L" : "wikisynth-S";
}

std::unique_ptr<Kb> BuildKb(Dataset d, SetupTimes* times) {
  auto kb = std::make_unique<Kb>();
  double t = NowS();
  kb->kb = gen::Generate(d == Dataset::kLarge ? gen::LargeConfig()
                                              : gen::SmallConfig());
  double t1 = NowS();
  AttachNodeWeights(&kb->kb.graph);
  double t2 = NowS();
  AttachAverageDistance(&kb->kb.graph);
  double t3 = NowS();
  kb->index = InvertedIndex::Build(kb->kb.graph);
  double t4 = NowS();
  if (times != nullptr) {
    times->generate_s = t1 - t;
    times->weights_s = t2 - t1;
    times->distance_s = t3 - t2;
    times->index_s = t4 - t3;
  }
  return kb;
}

Deployment::~Deployment() {
  if (http_) http_->Stop();
  if (compactor_) compactor_->Stop();
}

std::unique_ptr<Deployment> Deployment::Static(std::unique_ptr<Kb> kb,
                                               const HandlerWrap& wrap) {
  std::unique_ptr<Deployment> d(new Deployment());
  d->kb_ = std::move(kb);
  d->service_ = std::make_unique<server::SearchService>(
      &d->kb_->kb.graph, &d->kb_->index, SearchOptions{});
  d->Serve(wrap);
  return d;
}

std::unique_ptr<Deployment> Deployment::Durable(std::unique_ptr<Kb> kb,
                                                const std::string& data_dir,
                                                const HandlerWrap& wrap) {
  std::unique_ptr<Deployment> d(new Deployment());
  live::SnapshotManager::DurabilityOptions dopts;
  dopts.data_dir = data_dir;
  dopts.fsync_policy = live::FsyncPolicy::kAlways;
  auto opened = live::SnapshotManager::OpenDurable(
      std::move(kb->kb.graph), std::move(kb->index), {}, dopts, nullptr);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", data_dir.c_str(),
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  d->manager_ = std::move(*opened);
  d->compactor_ = std::make_unique<live::Compactor>(d->manager_.get());
  d->service_ = std::make_unique<server::SearchService>(d->manager_.get(),
                                                        SearchOptions{});
  d->compactor_->Start();
  d->Serve(wrap);
  return d;
}

void Deployment::Serve(const HandlerWrap& wrap) {
  http_ = std::make_unique<server::HttpServer>();
  service_->RegisterRoutes(http_.get());
  if (wrap) {
    server::SearchService* svc = service_.get();
    http_->Route("/search", [wrap, svc](const server::HttpRequest& r) {
      return wrap(r, [svc](const server::HttpRequest& q) {
        return svc->HandleSearch(q);
      });
    });
    if (manager_) {
      http_->Route("/update", [wrap, svc](const server::HttpRequest& r) {
        return wrap(r, [svc](const server::HttpRequest& q) {
          return svc->HandleUpdate(q);
        });
      });
    }
  }
  Status st = http_->Start(0);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

void Deployment::StopCompactor() {
  if (compactor_) compactor_->Stop();
}

void Deployment::CrashStop() {
  http_->Stop();
  if (compactor_) compactor_->Stop();
  http_.reset();
  service_.reset();
  compactor_.reset();
  manager_.reset();
}

std::map<std::string, double> Deployment::Scrape() const {
  auto resp = server::HttpGet(http_->port(), "/metrics");
  if (!resp.ok() || resp->status != 200) {
    std::fprintf(stderr, "GET /metrics failed\n");
    std::exit(1);
  }
  return ParsePrometheus(resp->body);
}

}  // namespace e2ebench
