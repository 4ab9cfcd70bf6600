#include "serve/registry.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/wire.hpp"

namespace magic::serve {

std::string RegistryStats::to_json() const {
  std::ostringstream os;
  os << "{\"default\":\"" << wire::json_escape(default_version)
     << "\",\"versions\":[";
  for (std::size_t i = 0; i < versions.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << wire::json_escape(versions[i]) << '"';
  }
  os << "],\"operators\":[";
  for (std::size_t i = 0; i < operators.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << wire::json_escape(operators[i]) << '"';
  }
  os << "],\"reloads\":" << reloads << ",\"shadow\":{\"version\":";
  if (shadow_version.empty()) {
    os << "null";
  } else {
    os << '"' << wire::json_escape(shadow_version) << '"';
  }
  os << ",\"fraction\":" << shadow_fraction
     << ",\"mirrored\":" << shadow_mirrored << ",\"agreed\":" << shadow_agreed
     << ",\"disagreed\":" << shadow_disagreed << ",\"failed\":" << shadow_failed
     << "}}";
  return os.str();
}

ModelRegistry::ModelRegistry(std::string name,
                             std::unique_ptr<core::MagicClassifier> model,
                             ServeConfig config)
    : config_(config) {
  auto version = make_version(std::move(name), std::move(model));
  util::MutexLock lock(mutex_);
  versions_[version->name] = version;
  default_ = std::move(version);
}

ModelRegistry::~ModelRegistry() { drain(); }

std::shared_ptr<ModelRegistry::Version> ModelRegistry::make_version(
    std::string name, std::unique_ptr<core::MagicClassifier> model) {
  auto version = std::make_shared<Version>();
  version->name = std::move(name);
  version->model = std::move(model);
  version->server = std::make_unique<InferenceServer>(*version->model, config_);
  return version;
}

void ModelRegistry::load_version(const std::string& name,
                                 const std::string& path, bool make_default) {
  // Materialize the new version entirely outside the lock: checkpoint
  // parsing and worker start-up must not block in-flight scans.
  auto model = std::make_unique<core::MagicClassifier>(
      core::MagicClassifier::load(path));
  auto version = make_version(name, std::move(model));

  std::shared_ptr<Version> replaced;
  {
    util::MutexLock lock(mutex_);
    auto it = versions_.find(name);
    if (it != versions_.end()) {
      replaced = it->second;
      if (shadow_ == it->second) shadow_ = version;
    }
    versions_[name] = version;
    if (make_default) default_ = std::move(version);
    reloads_.add();
  }
  // `replaced` is deliberately NOT stopped here: a scan that resolved its
  // target just before the swap may still be extracting and submit after
  // it; stopping now would resolve that request ShuttingDown — a dropped
  // in-flight request. Instead the old version dies by refcount: every
  // submitting thread holds a shared_ptr, so its InferenceServer's
  // destructor (a graceful drain) runs only after the last in-flight
  // submission completed.
}

void ModelRegistry::set_shadow(const std::string& name, double fraction) {
  util::MutexLock lock(mutex_);
  auto it = versions_.find(name);
  if (it == versions_.end()) {
    throw std::runtime_error("unknown model version '" + name + "'");
  }
  shadow_ = it->second;
  shadow_fraction_ = fraction;
}

void ModelRegistry::clear_shadow() {
  util::MutexLock lock(mutex_);
  shadow_.reset();
  shadow_fraction_ = 0.0;
}

bool verdicts_agree(const Verdict& primary, const Verdict& shadow) noexcept {
  return primary.ok() && shadow.ok() &&
         primary.prediction.family_name == shadow.prediction.family_name;
}

void ModelRegistry::score_shadow_pair(const Verdict& primary,
                                      const Verdict& shadow) {
  if (!primary.ok() || !shadow.ok()) {
    shadow_failed_.add();
  } else if (verdicts_agree(primary, shadow)) {
    shadow_agreed_.add();
  } else {
    shadow_disagreed_.add();
  }
}

PendingVerdict ModelRegistry::submit_listing(std::string_view listing,
                                             const std::string& version) {
  std::shared_ptr<Version> target;
  std::shared_ptr<Version> mirror;
  {
    util::MutexLock lock(mutex_);
    if (version.empty()) {
      target = default_;
      // Mirror decision only for default-routed traffic (an explicit
      // version override is an operator probe, not production flow), and
      // deterministic: request n mirrors iff the fraction accumulator
      // crosses an integer, so counts are exact.
      if (shadow_ && shadow_ != default_) {
        const double f = shadow_fraction_;
        const std::uint64_t n = scan_serial_++;
        if (std::floor(static_cast<double>(n + 1) * f) >
            std::floor(static_cast<double>(n) * f)) {
          mirror = shadow_;
        }
      }
    } else {
      auto it = versions_.find(version);
      if (it == versions_.end()) {
        Verdict verdict;
        verdict.status = VerdictStatus::Error;
        verdict.error = "unknown model version '" + version + "'";
        return PendingVerdict::resolved(std::move(verdict));
      }
      target = it->second;
    }
  }

  const PendingVerdict primary = target->server->submit_listing(listing);
  if (mirror) {
    shadow_mirrored_.add();
    const PendingVerdict shadowed = mirror->server->submit_listing(listing);
    // Join the pair through completion hooks — no joiner thread. The hooks
    // keep both slots (and the registry's counters; the registry drains all
    // servers before dying, so every hook has fired by then) alive until
    // the later of the two resolves.
    auto remaining = std::make_shared<std::atomic<int>>(2);
    auto arm = [this, remaining, primary, shadowed](const PendingVerdict& pv) {
      pv.on_ready([this, remaining, primary, shadowed] {
        if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
          score_shadow_pair(primary.get(), shadowed.get());
        }
      });
    };
    arm(primary);
    arm(shadowed);
  }
  return primary;
}

RegistryStats ModelRegistry::registry_stats() const {
  RegistryStats out;
  {
    util::MutexLock lock(mutex_);
    out.default_version = default_ ? default_->name : "";
    for (const auto& [name, version] : versions_) {
      out.versions.push_back(name);
      out.operators.push_back(nn::graph_conv_operator_name(
          version->model->config().graph_conv_op));
    }
    out.reloads = reloads_.value();
    out.shadow_version = shadow_ ? shadow_->name : "";
    out.shadow_fraction = shadow_ ? shadow_fraction_ : 0.0;
  }
  out.shadow_mirrored = shadow_mirrored_.value();
  out.shadow_agreed = shadow_agreed_.value();
  out.shadow_disagreed = shadow_disagreed_.value();
  out.shadow_failed = shadow_failed_.value();
  return out;
}

ServerStats ModelRegistry::default_server_stats() const {
  std::shared_ptr<Version> target;
  {
    util::MutexLock lock(mutex_);
    target = default_;
  }
  return target->server->stats();
}

std::string ModelRegistry::default_version() const {
  util::MutexLock lock(mutex_);
  return default_ ? default_->name : "";
}

std::string ModelRegistry::stats_json() {
  std::shared_ptr<Version> target;
  {
    util::MutexLock lock(mutex_);
    target = default_;
  }
  return "{\"server\":" + target->server->stats().to_json() +
         ",\"registry\":" + registry_stats().to_json() +
         stats_payload_suffix() + "}";
}

std::string ModelRegistry::control(const wire::Request& request) {
  try {
    if (request.kind == wire::Request::Kind::Reload) {
      load_version(request.version, request.payload);
      std::size_t count = 0;
      {
        util::MutexLock lock(mutex_);
        count = versions_.size();
      }
      return "{\"status\":\"ok\",\"op\":\"reload\",\"default\":\"" +
             wire::json_escape(request.version) +
             "\",\"versions\":" + std::to_string(count) + "}";
    }
    if (request.kind == wire::Request::Kind::Shadow) {
      if (request.version.empty()) {
        clear_shadow();
        return "{\"status\":\"ok\",\"op\":\"shadow\",\"mode\":\"off\"}";
      }
      set_shadow(request.version, request.fraction);
      std::ostringstream os;
      os << "{\"status\":\"ok\",\"op\":\"shadow\",\"version\":\""
         << wire::json_escape(request.version)
         << "\",\"fraction\":" << request.fraction << "}";
      return os.str();
    }
    return control_error_line("unsupported control command");
  } catch (const std::exception& e) {
    return control_error_line(e.what());
  }
}

void ModelRegistry::drain() {
  // The version map stays intact: stats remain queryable after drain (the
  // daemon's exit summary reads them), and stop() is idempotent, so the
  // destructor draining again is harmless.
  std::vector<std::shared_ptr<Version>> versions;
  {
    util::MutexLock lock(mutex_);
    for (auto& [name, version] : versions_) versions.push_back(version);
  }
  for (const auto& version : versions) {
    version->server->stop(/*drain=*/true);
  }
}

}  // namespace magic::serve
