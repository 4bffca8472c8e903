// Bringing the system under test up and down the way wikisearch_server
// does: a seeded wikisynth KB (generate, weights, distance sample, index),
// a SearchService at its defaults (cpu engine, 256-entry response and
// context caches, scheduler thread grants) behind the epoll HttpServer at
// its defaults, and — in durable live mode — a SnapshotManager opened on a
// fresh data dir with fsync policy `always` plus the background Compactor.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "gen/wikigen.h"
#include "live/compactor.h"
#include "live/snapshot_manager.h"
#include "server/http_server.h"
#include "server/search_service.h"
#include "text/inverted_index.h"

namespace e2ebench {

enum class Dataset { kSmall, kLarge };
const char* DatasetName(Dataset d);

/// Wall seconds of each set-up stage.
struct SetupTimes {
  double generate_s = 0.0;
  double weights_s = 0.0;
  double distance_s = 0.0;
  double index_s = 0.0;
  double server_s = 0.0;
  double total() const {
    return generate_s + weights_s + distance_s + index_s + server_s;
  }
};

struct Kb {
  wikisearch::gen::GeneratedKb kb;  // graph + generator metadata
  wikisearch::InvertedIndex index;
};

/// Generates and prepares a dataset (fixed generator seed per dataset).
std::unique_ptr<Kb> BuildKb(Dataset d, SetupTimes* times);

/// Wraps route handlers; the traced run installs one around /search and
/// /update. Receives the request and the service's handler.
using HandlerWrap = std::function<wikisearch::server::HttpResponse(
    const wikisearch::server::HttpRequest&,
    const std::function<wikisearch::server::HttpResponse(
        const wikisearch::server::HttpRequest&)>&)>;

/// One running deployment.
class Deployment {
 public:
  ~Deployment();

  /// Static deployment over `kb` (which it keeps alive).
  static std::unique_ptr<Deployment> Static(std::unique_ptr<Kb> kb,
                                            const HandlerWrap& wrap);
  /// Durable live deployment: `kb` seeds a fresh `data_dir`.
  static std::unique_ptr<Deployment> Durable(std::unique_ptr<Kb> kb,
                                             const std::string& data_dir,
                                             const HandlerWrap& wrap);

  uint16_t port() const { return http_->port(); }
  wikisearch::server::SearchService& service() { return *service_; }
  wikisearch::live::SnapshotManager* manager() { return manager_.get(); }

  /// Stops the background compactor (the tail must not be folded).
  void StopCompactor();
  /// Stops serving and drops every object WITHOUT ShutdownDurable: the
  /// data dir is left exactly as a crash would leave it.
  void CrashStop();

  /// GET /metrics over a fresh connection, parsed to name -> value.
  std::map<std::string, double> Scrape() const;

 private:
  Deployment() = default;
  void Serve(const HandlerWrap& wrap);

  std::unique_ptr<Kb> kb_;  // static mode only
  std::unique_ptr<wikisearch::live::SnapshotManager> manager_;
  std::unique_ptr<wikisearch::live::Compactor> compactor_;
  std::unique_ptr<wikisearch::server::SearchService> service_;
  std::unique_ptr<wikisearch::server::HttpServer> http_;
};

}  // namespace e2ebench
