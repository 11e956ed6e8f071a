#include "service/federated_executor.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <utility>

#include "obs/trace.h"

namespace silkroute::service {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

bool SqlReferencesTable(std::string_view sql, std::string_view table) {
  if (table.empty()) return false;
  size_t pos = 0;
  while ((pos = sql.find(table, pos)) != std::string_view::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(sql[pos - 1]);
    size_t end = pos + table.size();
    bool right_ok = end == sql.size() || !IsIdentChar(sql[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

FederatedExecutor::FederatedExecutor(FederatedExecutorOptions options)
    : options_(std::move(options)) {
  CircuitBreakerOptions breaker = options_.breaker;
  breaker.label_key = "backend";
  breaker.metrics = options_.metrics;
  breakers_ = std::make_unique<CircuitBreakerRegistry>(std::move(breaker));
  backends_.reserve(options_.remotes.size());
  for (const auto& spec : options_.remotes) {
    Backend backend;
    backend.spec = spec;
    if (options_.metrics != nullptr) {
      backend.m_failovers = options_.metrics->counter(obs::LabeledName(
          "silkroute_federation_failovers_total", {{"backend", spec.name}}));
      backend.m_fast_fails = options_.metrics->counter(obs::LabeledName(
          "silkroute_federation_fast_fail_failovers_total",
          {{"backend", spec.name}}));
      backend.m_health_skips = options_.metrics->counter(obs::LabeledName(
          "silkroute_federation_health_skips_total",
          {{"backend", spec.name}}));
    }
    backends_.push_back(std::move(backend));
  }
}

const FederatedExecutor::Backend* FederatedExecutor::Route(
    std::string_view sql) const {
  for (const Backend& backend : backends_) {
    if (backend.spec.tables.empty()) return &backend;  // catch-all
    for (const std::string& table : backend.spec.tables) {
      if (SqlReferencesTable(sql, table)) return &backend;
    }
  }
  return nullptr;
}

Result<std::vector<std::pair<std::string, uint64_t>>>
FederatedExecutor::FetchTableVersions(const std::vector<std::string>& tables) {
  // Group the tables by owning backend, same precedence as Route(): first
  // backend whose table list names it (or a catch-all) wins; unclaimed
  // tables belong to the local executor.
  std::vector<std::vector<std::string>> per_backend(backends_.size());
  std::vector<std::string> local_tables;
  for (const std::string& table : tables) {
    size_t owner = backends_.size();
    for (size_t i = 0; i < backends_.size(); ++i) {
      const auto& owned = backends_[i].spec.tables;
      if (owned.empty() ||
          std::find(owned.begin(), owned.end(), table) != owned.end()) {
        owner = i;
        break;
      }
    }
    if (owner < backends_.size()) {
      per_backend[owner].push_back(table);
    } else {
      local_tables.push_back(table);
    }
  }

  std::vector<std::pair<std::string, uint64_t>> merged;
  merged.reserve(tables.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (per_backend[i].empty()) continue;
    SILK_ASSIGN_OR_RETURN(
        auto versions,
        backends_[i].spec.executor->FetchTableVersions(per_backend[i]));
    merged.insert(merged.end(), versions.begin(), versions.end());
  }
  if (!local_tables.empty()) {
    if (options_.local == nullptr) {
      return Status::Unavailable(
          "no backend claims some tables and no local executor is configured");
    }
    SILK_ASSIGN_OR_RETURN(auto versions,
                          options_.local->FetchTableVersions(local_tables));
    merged.insert(merged.end(), versions.begin(), versions.end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

std::string FederatedExecutor::RouteFor(std::string_view sql) const {
  const Backend* backend = Route(sql);
  return backend != nullptr ? backend->spec.name : std::string("local");
}

Result<engine::Relation> FederatedExecutor::RunLocal(
    std::string_view sql, bool has_deadline,
    std::chrono::steady_clock::time_point deadline, CancelToken* cancel) {
  local_queries_.fetch_add(1);
  double remaining_ms = 0;
  if (has_deadline) {
    remaining_ms = std::chrono::duration<double, std::milli>(
                       deadline - std::chrono::steady_clock::now())
                       .count();
    if (remaining_ms <= 0) {
      return Status::Timeout("deadline exceeded before local execution");
    }
  }
  return options_.local->ExecuteSqlCancellable(sql, remaining_ms, cancel);
}

Result<engine::Relation> FederatedExecutor::ExecuteSqlCancellable(
    std::string_view sql, double timeout_ms, CancelToken* cancel) {
  bool has_deadline = timeout_ms > 0;
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));

  const Backend* backend = Route(sql);
  if (backend == nullptr) {
    if (options_.local == nullptr) {
      return Status::InvalidArgument(
          "no backend claims this query and no local executor is configured");
    }
    obs::AnnotateCurrent("backend", "local");
    return RunLocal(sql, has_deadline, deadline, cancel);
  }

  obs::AnnotateCurrent("backend", backend->spec.name);
  CircuitBreaker* breaker = breakers_->Get(backend->spec.name);
  using Decision = CircuitBreaker::Decision;
  Decision decision = breaker->Admit();
  if (decision == Decision::kFastFail) {
    // The breaker is open: don't touch the sick remote at all.
    if (!options_.failover_to_local || options_.local == nullptr) {
      return Status::Unavailable("circuit breaker open for backend '" +
                                 backend->spec.name + "'");
    }
    fast_fail_failovers_.fetch_add(1);
    failovers_.fetch_add(1);
    if (backend->m_fast_fails != nullptr) backend->m_fast_fails->Add(1);
    if (backend->m_failovers != nullptr) backend->m_failovers->Add(1);
    obs::AnnotateCurrent("backend.failover", "breaker_open");
    obs::AnnotateCurrent("backend", "local");
    return RunLocal(sql, has_deadline, deadline, cancel);
  }

  if (!backend->spec.executor->Healthy()) {
    // The executor itself says nothing would admit this call (a fully
    // ejected replica set). Route around it without recording a breaker
    // outcome: the skip is not evidence about the backend, and Healthy()
    // turns true again by itself once a replica cool-down elapses — which
    // is what lets probe traffic resume and recovery actually happen.
    breaker->AbandonProbe(decision);
    if (!options_.failover_to_local || options_.local == nullptr) {
      return Status::Unavailable("backend '" + backend->spec.name +
                                 "' reports unhealthy (all replicas ejected)");
    }
    health_skip_failovers_.fetch_add(1);
    failovers_.fetch_add(1);
    if (backend->m_health_skips != nullptr) backend->m_health_skips->Add(1);
    if (backend->m_failovers != nullptr) backend->m_failovers->Add(1);
    obs::AnnotateCurrent("backend.failover", "unhealthy");
    obs::AnnotateCurrent("backend", "local");
    return RunLocal(sql, has_deadline, deadline, cancel);
  }

  remote_queries_.fetch_add(1);
  auto result =
      backend->spec.executor->ExecuteSqlCancellable(sql, timeout_ms, cancel);
  if (result.ok()) {
    breaker->RecordSuccess(decision);
    return result;
  }
  if (!IsSourceFailure(result.status().code())) {
    // Deterministic failure (bad SQL, internal bug): the backend is fine
    // and a local run would fail identically — no breaker hit, no
    // failover.
    breaker->AbandonProbe(decision);
    return result;
  }
  breaker->RecordFailure(decision);
  if (!options_.failover_to_local || options_.local == nullptr) {
    return result;
  }
  if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
    // The remote burned the whole budget; a local attempt cannot finish
    // either — surface the timeout rather than a doomed retry.
    return result;
  }
  failovers_.fetch_add(1);
  if (backend->m_failovers != nullptr) backend->m_failovers->Add(1);
  obs::AnnotateCurrent("backend.failover", StatusCodeToString(
                                               result.status().code()));
  obs::AnnotateCurrent("backend", "local");
  return RunLocal(sql, has_deadline, deadline, cancel);
}

}  // namespace silkroute::service
