#include "asamap/serve/graph_registry.hpp"

#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "asamap/obs/tracing.hpp"
#include "asamap/support/backoff.hpp"
#include "asamap/support/hash.hpp"

namespace asamap::serve {

GraphRegistry::GraphRegistry(const RegistryConfig& config) : config_(config) {
  if (obs::MetricRegistry* reg = config_.metrics) {
    m_.ingested = &reg->counter("asamap_registry_ingested_total");
    m_.dedup_hits = &reg->counter("asamap_registry_dedup_hits_total");
    m_.evictions = &reg->counter("asamap_registry_evictions_total");
    m_.lookup_hits =
        &reg->counter("asamap_registry_lookups_total", "outcome=\"hit\"");
    m_.lookup_misses =
        &reg->counter("asamap_registry_lookups_total", "outcome=\"miss\"");
    m_.graphs = &reg->gauge("asamap_registry_graphs");
    m_.resident_bytes = &reg->gauge("asamap_registry_resident_bytes");
    m_.pinned = &reg->gauge("asamap_registry_pinned");
    m_.retries_ingest =
        &reg->counter("asamap_retries_total", "site=\"ingest.parse\"");
  }
}

std::size_t GraphRegistry::approx_bytes(const graph::CsrGraph& g) noexcept {
  // CSR stores, per side, arcs, an offset array, and a weight sum; a
  // one-sided graph stores the out side only.
  const std::size_t sides = g.one_sided() ? 1 : 2;
  const std::size_t per_vertex =
      sides * (sizeof(graph::EdgeId) + sizeof(graph::Weight));
  const std::size_t per_arc = sides * sizeof(graph::Arc);
  return sizeof(graph::CsrGraph) + g.num_vertices() * per_vertex +
         static_cast<std::size_t>(g.num_arcs()) * per_arc;
}

std::uint64_t GraphRegistry::fingerprint_text(std::string_view text) noexcept {
  // mix64 chained over 8-byte chunks; length folded in so "a" and "a\0"
  // differ.  Not cryptographic — collision here only aliases two uploads.
  std::uint64_t h = support::mix64(0x5eedULL ^ text.size());
  std::size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    std::uint64_t chunk = 0;
    for (int b = 0; b < 8; ++b) {
      chunk |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(text[i + b]))
               << (8 * b);
    }
    h = support::mix64(h ^ chunk);
  }
  std::uint64_t tail = 0;
  for (int b = 0; i < text.size(); ++i, ++b) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(text[i]))
            << (8 * b);
  }
  return support::mix64(h ^ tail);
}

ServeStatus GraphRegistry::put_text(const std::string& name,
                                    std::string_view text, bool undirected) {
  if (name.empty()) {
    return ServeStatus::error(ServeCode::kInvalidArgument,
                              "graph name must be non-empty");
  }
  // Covers dedup, injected-fault retries, the parse, and the insert; under
  // a GEN/LOAD verb it parents under that request's span.
  obs::TraceSpan ingest_span("registry.ingest", obs::TraceCat::kRegistry);
  const std::uint64_t fp = fingerprint_text(text);
  {
    // Dedup before paying for the parse: an identical upload maps the new
    // name onto the already-resident graph.
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = by_fingerprint_.find(fp);
        it != by_fingerprint_.end()) {
      if (GraphPtr existing = it->second.lock()) {
        ++counters_.dedup_hits;
        if (m_.dedup_hits != nullptr) m_.dedup_hits->inc();
        return insert_locked(name, std::move(existing), fp,
                             /*counted=*/false);
      }
    }
  }

  // Injected ingest faults (chaos builds only): an error here models a
  // transient parse-side failure — storage hiccup, truncated read — and is
  // the retryable kind.  Real parse errors below never retry.
  for (int attempt = 1;; ++attempt) {
    const fault::FaultDecision injected =
        fault::check(config_.faults, fault::Site::kIngestParse);
    if (injected.effect == fault::Effect::kNone) break;
    if (injected.effect == fault::Effect::kLatency) {
      std::this_thread::sleep_for(injected.latency);
      break;
    }
    if (attempt >= config_.ingest_retry.max_attempts) {
      return ServeStatus::error_static(
          ServeCode::kUnavailable,
          "ingest failed (injected fault); retries exhausted");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.ingest_retries;
    }
    if (m_.retries_ingest != nullptr) m_.retries_ingest->inc();
    // Deterministic per-upload schedule, replayed to the current attempt.
    support::DecorrelatedBackoff backoff(config_.ingest_retry.initial_backoff,
                                         config_.ingest_retry.max_backoff,
                                         config_.retry_seed ^ fp);
    std::chrono::milliseconds delay{0};
    for (int i = 0; i < attempt; ++i) delay = backoff.next();
    const std::uint64_t backoff_start = obs::FlightRecorder::now_ns();
    std::this_thread::sleep_for(delay);
    obs::FlightRecorder::instance().complete(
        "ingest.backoff", obs::TraceCat::kRegistry, obs::current_trace(),
        backoff_start, obs::FlightRecorder::now_ns() - backoff_start);
  }

  graph::SnapReadOptions opts;
  opts.undirected = undirected;
  opts.max_vertex_id = config_.max_vertex_id;
  std::istringstream in{std::string(text)};
  graph::SnapParseResult parsed = graph::parse_snap_stream(in, opts);
  if (!parsed.ok()) {
    return ServeStatus::error(
        ServeCode::kParseError,
        "line " + std::to_string(parsed.error->line) + ": " +
            parsed.error->message);
  }
  if (parsed.edges.empty()) {
    return ServeStatus::error(ServeCode::kInvalidArgument,
                              "upload contains no edges");
  }
  parsed.edges.coalesce();
  auto g = std::make_shared<graph::CsrGraph>(
      graph::CsrGraph::from_edges(parsed.edges));
  if (approx_bytes(*g) > config_.memory_budget_bytes) {
    return ServeStatus::error(
        ServeCode::kTooLarge,
        "graph needs " + std::to_string(approx_bytes(*g)) +
            " bytes, budget is " +
            std::to_string(config_.memory_budget_bytes));
  }

  std::lock_guard<std::mutex> lock(mu_);
  return insert_locked(name, std::move(g), fp, /*counted=*/true);
}

ServeStatus GraphRegistry::put_file(const std::string& name,
                                    const std::filesystem::path& path,
                                    bool undirected) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return ServeStatus::error(ServeCode::kNotFound,
                              "cannot open file: " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return put_text(name, buffer.str(), undirected);
}

ServeStatus GraphRegistry::put_graph(const std::string& name,
                                     graph::CsrGraph g,
                                     std::uint64_t fingerprint) {
  if (name.empty()) {
    return ServeStatus::error(ServeCode::kInvalidArgument,
                              "graph name must be non-empty");
  }
  obs::TraceSpan ingest_span("registry.ingest", obs::TraceCat::kRegistry);
  std::lock_guard<std::mutex> lock(mu_);
  if (fingerprint != 0) {
    if (const auto it = by_fingerprint_.find(fingerprint);
        it != by_fingerprint_.end()) {
      if (GraphPtr existing = it->second.lock()) {
        ++counters_.dedup_hits;
        if (m_.dedup_hits != nullptr) m_.dedup_hits->inc();
        return insert_locked(name, std::move(existing), fingerprint,
                             /*counted=*/false);
      }
    }
  }
  auto ptr = std::make_shared<const graph::CsrGraph>(std::move(g));
  return insert_locked(name, std::move(ptr), fingerprint, /*counted=*/true);
}

ServeStatus GraphRegistry::insert_locked(const std::string& name,
                                         GraphPtr graph,
                                         std::uint64_t fingerprint,
                                         bool counted) {
  erase_locked(name);  // replace semantics
  lru_.push_front(name);
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.bytes = counted ? approx_bytes(*graph) : 0;
  entry.lru_it = lru_.begin();
  entry.graph = std::move(graph);
  if (fingerprint != 0) by_fingerprint_[fingerprint] = entry.graph;
  resident_bytes_ += entry.bytes;
  entries_[name] = std::move(entry);
  ++counters_.ingested;
  if (m_.ingested != nullptr) m_.ingested->inc();
  evict_to_budget_locked(name);
  sync_gauges_locked();
  return ServeStatus::success();
}

void GraphRegistry::sync_gauges_locked() {
  if (m_.graphs != nullptr) {
    m_.graphs->set(static_cast<double>(entries_.size()));
  }
  if (m_.resident_bytes != nullptr) {
    m_.resident_bytes->set(static_cast<double>(resident_bytes_));
  }
  if (m_.pinned != nullptr) {
    m_.pinned->set(static_cast<double>(counters_.pinned));
  }
}

void GraphRegistry::erase_locked(const std::string& name) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return;
  resident_bytes_ -= it->second.bytes;
  if (it->second.pinned) --counters_.pinned;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void GraphRegistry::evict_to_budget_locked(const std::string& keep) {
  while (resident_bytes_ > config_.memory_budget_bytes && !lru_.empty()) {
    const fault::FaultDecision injected =
        fault::check(config_.faults, fault::Site::kRegistryEvict);
    if (injected.effect == fault::Effect::kLatency) {
      std::this_thread::sleep_for(injected.latency);
    } else if (injected.effect != fault::Effect::kNone) {
      // Eviction "failed": stay over budget.  under_pressure() turns true
      // and the session degrades instead of the registry rejecting.
      return;
    }
    // Evict from the cold end, skipping the entry being inserted and any
    // pinned entry (pending deltas / in-flight APPLY patch *that* graph —
    // dropping it would lose the mutations).
    auto victim = lru_.end();
    for (auto it = std::prev(lru_.end());; --it) {
      const auto e = entries_.find(*it);
      const bool evictable =
          *it != keep && (e == entries_.end() || !e->second.pinned);
      if (evictable) {
        victim = it;
        break;
      }
      if (it == lru_.begin()) break;
    }
    if (victim == lru_.end()) {
      // Only pinned entries (or the insertee) remain: stay over budget and
      // let under_pressure() drive degradation instead of losing deltas.
      return;
    }
    erase_locked(*victim);
    ++counters_.evictions;
    if (m_.evictions != nullptr) m_.evictions->inc();
  }
}

GraphRegistry::GraphPtr GraphRegistry::get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    ++counters_.misses;
    if (m_.lookup_misses != nullptr) m_.lookup_misses->inc();
    return nullptr;
  }
  ++counters_.hits;
  if (m_.lookup_hits != nullptr) m_.lookup_hits->inc();
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // bump to front
  return it->second.graph;
}

bool GraphRegistry::erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.contains(name)) return false;
  erase_locked(name);
  sync_gauges_locked();
  return true;
}

bool GraphRegistry::set_pinned(const std::string& name, bool pinned) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  if (it->second.pinned != pinned) {
    it->second.pinned = pinned;
    if (pinned) {
      ++counters_.pinned;
    } else {
      --counters_.pinned;
      // Unpinning may make a deferred eviction possible again.
      evict_to_budget_locked(std::string{});
    }
    sync_gauges_locked();
  }
  return true;
}

bool GraphRegistry::pinned(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.pinned;
}

bool GraphRegistry::under_pressure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_ > config_.memory_budget_bytes;
}

RegistryStats GraphRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistryStats s = counters_;
  s.entries = entries_.size();
  s.resident_bytes = resident_bytes_;
  return s;
}

}  // namespace asamap::serve
